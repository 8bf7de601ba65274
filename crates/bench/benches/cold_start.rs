//! Cold-start cost of a durable log: the one boot a domain performs —
//! [`ShardedLog::open`] scans every byte of every segment, rehashes every
//! leaf into the in-memory proof tree, and holds the result against the
//! newest sealed checkpoint record — timed over logs of 8 and 32 sealed
//! segments, and, beside it, the guard that keeps a head cheap at all:
//! `MerkleLog::root()` stays O(log n).
//!
//! Two claims are **asserted**, not just reported:
//!
//! 1. at both sizes, replay reproduces exactly the head the seeding log
//!    reported before it was dropped;
//! 2. every epoch the framework appends one leaf and signs the current
//!    root, so a recompute-from-all-leaves `root()` would make `n` epochs
//!    cost O(n²) hashes: 100k appends with a `root()` after each, and the
//!    second half may cost at most [`MAX_SECOND_HALF_RATIO`]× the first
//!    (quadratic growth makes it ~3×; the cached subtree levels ~1×).
//!
//! Custom harness (`harness = false`); results go to
//! `bench_results/cold_start.json`.

use distrust_log::{DurableOptions, MerkleLog, ShardedLog, StorageConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Log sizes measured in **sealed segments**; the larger is 4× the
/// smaller. Seeding runs to an exact segment boundary plus one leaf, so
/// both logs carry an identical (tiny) unsealed tail.
const SIZES: &[usize] = &[8, 32];
/// Entry payload: application-scale records, so segments fill realistically.
const LEAF_BYTES: usize = 1024;
/// Segment rotation threshold — 1 MiB ⇒ ~8 and ~32 sealed segments.
const SEGMENT_BYTES: u64 = 1 << 20;
/// Seeding batches fsync; durability of the seed phase is not under test.
const FSYNC_EVERY: u32 = 4096;
/// Timed repetitions per measurement (the minimum is reported).
const REPS: usize = 5;
/// Leaves for the root-cost regression check.
const ROOT_CHECK_LEAVES: usize = 100_000;
/// Claim 2: the second 50k appends-with-a-root may cost this many times
/// the first 50k. Generous noise headroom that still fails a quadratic
/// regression.
const MAX_SECOND_HALF_RATIO: f64 = 2.5;

struct Row {
    entries: usize,
    segments: usize,
    replay: Duration,
}

fn opts(dir: &Path) -> DurableOptions {
    DurableOptions {
        dir: dir.to_path_buf(),
        segment_bytes: SEGMENT_BYTES,
        fsync_every: FSYNC_EVERY,
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("distrust-coldstart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Appends leaves through the ordinary durable path until `segments`
/// segments have sealed, plus one leaf into the fresh tail. Returns the
/// entry count and the live head.
fn seed(dir: &Path, segments: usize) -> (usize, [u8; 32]) {
    let storage = StorageConfig::Durable(opts(dir));
    let (log, _) = ShardedLog::open(1, &storage).expect("seed open");
    let mut leaf = vec![0u8; LEAF_BYTES];
    let mut entries = 0usize;
    // A new segment file appears only when the first post-seal append
    // lands, so `segments + 1` files means exactly `segments` are sealed.
    while segment_files(dir) < segments + 1 {
        leaf[..8].copy_from_slice(&(entries as u64).to_le_bytes());
        log.append(0, &leaf).expect("seed append");
        entries += 1;
    }
    log.sync().expect("seed sync");
    (entries, log.head().1)
}

fn segment_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("shard-"))
            })
            .count()
        })
        .unwrap_or(0)
}

/// Boots the directory [`REPS`] times, requiring the seeded head each
/// time; the fastest boot is the row.
fn measure(segments: usize) -> Row {
    let dir = tempdir(&format!("{segments}"));
    let (entries, live) = seed(&dir, segments);
    let mut replay = Duration::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        let storage = StorageConfig::Durable(opts(&dir));
        let (log, _) = ShardedLog::open(1, &storage).expect("replay open");
        let head = log.head();
        replay = replay.min(t.elapsed());
        assert_eq!(
            head,
            (entries as u64, live),
            "replay produced a different head"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Row {
        entries,
        segments,
        replay,
    }
}

/// Appends 100k leaves calling `root()` every time, timing both halves.
fn root_cost_check() -> (Duration, Duration) {
    let mut log = MerkleLog::new();
    let leaf = [0x5au8; 40];
    let mut half = || {
        let t = Instant::now();
        for _ in 0..ROOT_CHECK_LEAVES / 2 {
            log.append(&leaf);
            std::hint::black_box(log.root());
        }
        t.elapsed()
    };
    (half(), half())
}

fn main() {
    println!("MerkleLog root() cost: 100k appends with a root per append");
    let (first, second) = root_cost_check();
    let ratio = second.as_secs_f64() / first.as_secs_f64().max(f64::EPSILON);
    println!(
        "first 50k: {:.1} ms   second 50k: {:.1} ms   ratio: {ratio:.2}\n",
        first.as_secs_f64() * 1e3,
        second.as_secs_f64() * 1e3,
    );
    assert!(
        ratio < MAX_SECOND_HALF_RATIO,
        "root() cost grew {ratio:.2}x from the first to the second 50k appends — \
         quadratic recomputation is back (cached subtree levels should hold this near 1x)"
    );

    println!(
        "cold start: full replay of every segment \
         ({LEAF_BYTES} B leaves, {} MiB segments, min of {REPS} runs)\n",
        SEGMENT_BYTES >> 20
    );
    println!("{:>10} {:>9} {:>14}", "entries", "segments", "replay (ms)");
    let rows: Vec<Row> = SIZES.iter().map(|&n| measure(n)).collect();
    for r in &rows {
        println!(
            "{:>10} {:>9} {:>14.3}",
            r.entries,
            r.segments,
            r.replay.as_secs_f64() * 1e3,
        );
    }

    let mut entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"mode\": \"cold_start\", \"entries\": {}, \"leaf_bytes\": {}, \
                 \"segment_bytes\": {}, \"sealed_segments\": {}, \"replay_ms\": {:.3}}}",
                r.entries,
                LEAF_BYTES,
                SEGMENT_BYTES,
                r.segments,
                r.replay.as_secs_f64() * 1e3,
            )
        })
        .collect();
    entries.push(format!(
        "  {{\"mode\": \"root_cost_check\", \"leaves\": {ROOT_CHECK_LEAVES}, \
         \"first_half_ms\": {:.1}, \"second_half_ms\": {:.1}, \"ratio\": {ratio:.3}, \
         \"max_ratio\": {MAX_SECOND_HALF_RATIO}}}",
        first.as_secs_f64() * 1e3,
        second.as_secs_f64() * 1e3,
    ));
    distrust_bench::report::write("cold_start", &entries);
}
