//! Cold-start cost of a durable log (ISSUE 8 acceptance): rebuilding the
//! signed head from segment checkpoints must be O(segments), not
//! O(entries) — and, beside it, the guard that keeps a head cheap at all:
//! `MerkleLog::root()` stays O(log n).
//!
//! Every sealed segment ends with a checkpoint record carrying the
//! tree's right-edge subtree roots at that size, so
//! [`DurableStore::cold_head`] answers "what root did this log have?"
//! by reading one trailer + one record per sealed segment and replaying
//! only the unsealed tail — while a full [`ShardedLog::open`] must scan
//! every byte and rehash every leaf to rebuild the in-memory proof tree.
//! Both are measured here over the same directories, and three claims are
//! **asserted**, not just reported:
//!
//! 1. at the larger size the checkpoint path beats full replay by at
//!    least [`MIN_SPEEDUP`]×;
//! 2. growing the log 4× grows the checkpoint path by far less than 4×
//!    (it is bounded by segment count and tail size, not entry count);
//! 3. every epoch the framework appends one leaf and signs the current
//!    root, so a recompute-from-all-leaves `root()` would make `n` epochs
//!    cost O(n²) hashes: 100k appends with a `root()` after each, and the
//!    second half may cost at most [`MAX_SECOND_HALF_RATIO`]× the first
//!    (quadratic growth makes it ~3×; the cached subtree levels ~1×).
//!
//! Custom harness (`harness = false`); results go to
//! `bench_results/cold_start.json`.

use distrust_log::{DurableOptions, DurableStore, MerkleLog, ShardedLog, StorageConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Log sizes measured in **sealed segments**; the larger is 4× the
/// smaller. Seeding runs to an exact segment boundary plus one leaf, so
/// both logs carry an identical (tiny) unsealed tail and the measured
/// growth isolates the per-segment cost — a fixed entry count would leave
/// different-sized tails and measure tail scanning instead.
const SIZES: &[usize] = &[8, 32];
/// Entry payload: application-scale records, so segments fill realistically.
const LEAF_BYTES: usize = 1024;
/// Segment rotation threshold — 1 MiB ⇒ ~8 and ~32 sealed segments.
const SEGMENT_BYTES: u64 = 1 << 20;
/// Seeding batches fsync; durability of the seed phase is not under test.
const FSYNC_EVERY: u32 = 4096;
/// Timed repetitions per measurement (the minimum is reported).
const REPS: usize = 5;
/// Claim 1: checkpoint-path cold start must beat full replay by this
/// factor at the largest size.
const MIN_SPEEDUP: f64 = 5.0;
/// Claim 2: 4× the entries must cost the checkpoint path under this
/// growth factor (linear would be ~4×; segment-bounded is ~1×).
const MAX_COLD_GROWTH: f64 = 2.5;
/// Leaves for the root-cost regression check.
const ROOT_CHECK_LEAVES: usize = 100_000;
/// Claim 3: the second 50k appends-with-a-root may cost this many times
/// the first 50k. Generous noise headroom that still fails a quadratic
/// regression.
const MAX_SECOND_HALF_RATIO: f64 = 2.5;

struct Row {
    entries: usize,
    segments: usize,
    cold: Duration,
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

fn min_time(mut f: impl FnMut() -> [u8; 32], expect: [u8; 32], what: &str) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        let got = f();
        let elapsed = t.elapsed();
        assert_eq!(got, expect, "{what} produced a different head");
        best = best.min(elapsed);
    }
    best
}

fn measure(segments: usize) -> Row {
    let dir = tempdir(&format!("{segments}"));
    let (entries, live) = seed(&dir, segments);

    // Checkpoint path: open positions the writer (last segment only),
    // cold_head reads the newest seal + the tail.
    let cold = min_time(
        || {
            let store = DurableStore::open(opts(&dir)).expect("cold open");
            store.cold_head().expect("cold head").1
        },
        live,
        "cold_head",
    );

    // Full replay: scan every byte, rehash every leaf, rebuild the tree.
    let replay = min_time(
        || {
            let storage = StorageConfig::Durable(opts(&dir));
            let (log, _) = ShardedLog::open(1, &storage).expect("replay open");
            log.head().1
        },
        live,
        "full replay",
    );

    let _ = std::fs::remove_dir_all(&dir);
    Row {
        entries,
        segments,
        cold,
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
        "cold start: head from segment checkpoints vs full replay \
         ({LEAF_BYTES} B leaves, {} MiB segments, min of {REPS} runs)\n",
        SEGMENT_BYTES >> 20
    );
    println!(
        "{:>10} {:>9} {:>14} {:>14} {:>9}",
        "entries", "segments", "cold (ms)", "replay (ms)", "speedup"
    );
    let rows: Vec<Row> = SIZES.iter().map(|&n| measure(n)).collect();
    for r in &rows {
        println!(
            "{:>10} {:>9} {:>14.3} {:>14.3} {:>8.1}x",
            r.entries,
            r.segments,
            r.cold.as_secs_f64() * 1e3,
            r.replay.as_secs_f64() * 1e3,
            r.replay.as_secs_f64() / r.cold.as_secs_f64().max(f64::EPSILON),
        );
    }

    let small = &rows[0];
    let big = rows.last().unwrap();
    let speedup = big.replay.as_secs_f64() / big.cold.as_secs_f64().max(f64::EPSILON);
    let growth = big.cold.as_secs_f64() / small.cold.as_secs_f64().max(f64::EPSILON);
    let scale = big.entries as f64 / small.entries as f64;
    println!(
        "\ncold-start speedup at {} entries: {speedup:.1}x (floor {MIN_SPEEDUP}x); \
         cold cost growth for {scale:.0}x entries: {growth:.2}x (cap {MAX_COLD_GROWTH}x)",
        big.entries
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "checkpoint cold start must beat full replay by {MIN_SPEEDUP}x, got {speedup:.1}x \
         — the O(segments) path has regressed toward O(entries)"
    );
    assert!(
        growth <= MAX_COLD_GROWTH,
        "cold start grew {growth:.2}x for {scale:.0}x entries (cap {MAX_COLD_GROWTH}) \
         — cost is tracking entry count, not segment count"
    );

    let mut entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"mode\": \"cold_start\", \"entries\": {}, \"leaf_bytes\": {}, \
                 \"segment_bytes\": {}, \"sealed_segments\": {}, \"cold_ms\": {:.3}, \
                 \"replay_ms\": {:.3}, \"speedup\": {:.2}}}",
                r.entries,
                LEAF_BYTES,
                SEGMENT_BYTES,
                r.segments,
                r.cold.as_secs_f64() * 1e3,
                r.replay.as_secs_f64() * 1e3,
                r.replay.as_secs_f64() / r.cold.as_secs_f64().max(f64::EPSILON),
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
