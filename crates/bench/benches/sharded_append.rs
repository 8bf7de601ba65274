//! Sharded-log append throughput (ISSUE 5 acceptance): 1 vs 4 vs 16
//! shards under concurrent appenders, plus the regression guard proving
//! `MerkleLog::root()` is no longer O(n) per call.
//!
//! Two claims are measured:
//!
//! 1. **Checkpointing cost no longer grows quadratically.** Every epoch
//!    the framework appends one leaf and signs the current root, so the
//!    old recompute-from-all-leaves `root()` made `n` epochs cost O(n²)
//!    hashes. With cached subtree levels the same loop is O(n log n);
//!    the bench appends 100k leaves calling `root()` after every append
//!    and **asserts** the second half is not disproportionately slower
//!    than the first (quadratic growth would make it ~3x; the cached
//!    implementation is ~1x).
//! 2. **Appends scale across shards.** `T` appender threads hammer a
//!    [`ShardedLog`]: with one shard they all serialize on one lock and
//!    one tree; with 4/16 shards each thread owns its slice of shards and
//!    appends proceed independently. Reported as appends/sec *and*
//!    per-append latency percentiles — on a multi-core box the throughput
//!    scales with shards (hashing parallelizes across trees); on the
//!    1-core CI box wall-clock throughput is pinned by the single core,
//!    and the win shows up where queueing theory says it must: the tail.
//!    A thread appending to its own shard never waits in line behind
//!    seven writers to one mutex, so p99/max append latency collapses.
//!
//! Custom harness (`harness = false`); results are printed as a table and
//! written to `bench_results/sharded_append.json`.

use distrust_log::{MerkleLog, ShardedLog};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Leaves for the root-cost regression check.
const ROOT_CHECK_LEAVES: usize = 100_000;
/// Quadratic root recomputation makes the second 50k appends ~3x the
/// first 50k; the cached levels keep the ratio near 1. The assert allows
/// generous noise headroom while still failing a quadratic regression.
const MAX_SECOND_HALF_RATIO: f64 = 2.5;

/// Appender threads for the sharded throughput runs.
const THREADS: usize = 8;
/// Shard counts measured.
const SHARD_COUNTS: &[usize] = &[1, 4, 16];
/// Entry sizes measured: digest-scale entries (release manifests) and
/// payload-scale entries (apps logging real data), with the per-thread
/// append count scaled so each run stays in the seconds.
const WORKLOADS: &[(usize, usize)] = &[(64, 25_000), (16 * 1024, 2_000)];
/// How often each appender recomputes the commitment, modelling the
/// checkpoint read mixed into real append traffic.
const COMMIT_EVERY: usize = 1_000;

struct Row {
    leaf_size: usize,
    shards: usize,
    elapsed: Duration,
    appends_per_sec: f64,
    p50: Duration,
    p99: Duration,
    max: Duration,
}

fn percentile(sorted: &[u64], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    Duration::from_nanos(sorted[idx])
}

/// Appends 100k leaves calling `root()` every time, timing both halves.
fn root_cost_check() -> (Duration, Duration) {
    let mut log = MerkleLog::new();
    let leaf = [0x5au8; 40];
    let half = ROOT_CHECK_LEAVES / 2;
    let t0 = Instant::now();
    for _ in 0..half {
        log.append(&leaf);
        std::hint::black_box(log.root());
    }
    let first = t0.elapsed();
    let t1 = Instant::now();
    for _ in 0..half {
        log.append(&leaf);
        std::hint::black_box(log.root());
    }
    (first, t1.elapsed())
}

/// `THREADS` appenders over `shards` shards, identical total work per
/// configuration; returns the wall-clock for all appends to land plus
/// every individual append latency (lock wait + tree update), in nanos.
fn concurrent_append_run(
    shards: usize,
    leaf_size: usize,
    per_thread: usize,
) -> (Duration, Vec<u64>) {
    let log = Arc::new(ShardedLog::new(shards));
    let start = Instant::now();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                // Each thread owns shard `t % shards`: disjoint trees for
                // multi-shard runs, full contention at one shard.
                let shard = (t % shards) as u32;
                let leaf = vec![t as u8; leaf_size];
                let mut latencies = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let t0 = Instant::now();
                    log.append(shard, &leaf).expect("shard exists");
                    latencies.push(t0.elapsed().as_nanos() as u64);
                    if i % COMMIT_EVERY == 0 {
                        std::hint::black_box(log.commitment());
                    }
                }
                latencies
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(THREADS * per_thread);
    for h in handles {
        latencies.extend(h.join().expect("appender"));
    }
    let elapsed = start.elapsed();
    assert_eq!(
        log.total_len(),
        (THREADS * per_thread) as u64,
        "every append landed"
    );
    latencies.sort_unstable();
    (elapsed, latencies)
}

fn main() {
    println!("== MerkleLog root() cost: 100k appends with a root per append ==");
    let (first, second) = root_cost_check();
    let ratio = second.as_secs_f64() / first.as_secs_f64().max(f64::EPSILON);
    println!(
        "first 50k: {:.1} ms   second 50k: {:.1} ms   ratio: {:.2}",
        first.as_secs_f64() * 1e3,
        second.as_secs_f64() * 1e3,
        ratio
    );
    assert!(
        ratio < MAX_SECOND_HALF_RATIO,
        "root() cost grew {ratio:.2}x from the first to the second 50k appends — \
         quadratic recomputation is back (cached subtree levels should hold this near 1x)"
    );

    let mut rows = Vec::new();
    // Warm-up run (thread pool, allocator) not recorded.
    let _ = concurrent_append_run(SHARD_COUNTS[0], WORKLOADS[0].0, WORKLOADS[0].1);
    for &(leaf_size, per_thread) in WORKLOADS {
        println!(
            "\n== ShardedLog append throughput: {THREADS} threads x {per_thread} appends of \
             {leaf_size} B, commitment every {COMMIT_EVERY} =="
        );
        for &shards in SHARD_COUNTS {
            let (elapsed, latencies) = concurrent_append_run(shards, leaf_size, per_thread);
            let total = (THREADS * per_thread) as f64;
            let appends_per_sec = total / elapsed.as_secs_f64();
            let (p50, p99, max) = (
                percentile(&latencies, 0.50),
                percentile(&latencies, 0.99),
                percentile(&latencies, 1.0),
            );
            println!(
                "{shards:>3} shard(s): {:>8.1} ms  {:>12.0} appends/s  p50 {:>7.2} us  p99 {:>8.2} us  max {:>9.2} us",
                elapsed.as_secs_f64() * 1e3,
                appends_per_sec,
                p50.as_secs_f64() * 1e6,
                p99.as_secs_f64() * 1e6,
                max.as_secs_f64() * 1e6,
            );
            rows.push(Row {
                leaf_size,
                shards,
                elapsed,
                appends_per_sec,
                p50,
                p99,
                max,
            });
        }
        let one = rows
            .iter()
            .find(|r| r.leaf_size == leaf_size && r.shards == 1);
        let best = rows
            .iter()
            .filter(|r| r.leaf_size == leaf_size && r.shards > 1)
            .max_by(|a, b| a.appends_per_sec.total_cmp(&b.appends_per_sec));
        if let (Some(one), Some(best)) = (one, best) {
            println!(
                "scaling vs single tree @ {leaf_size} B: {} shards {:.2}x throughput, \
                 p99 append {:.2}x lower (wall-clock scaling needs cores; on the 1-core CI \
                 box the queueing win shows once entries are big enough that a preempted \
                 lock holder stalls the whole single-tree write path)",
                best.shards,
                best.appends_per_sec / one.appends_per_sec,
                one.p99.as_secs_f64() / best.p99.as_secs_f64().max(f64::EPSILON),
            );
        }
    }

    let mut entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"mode\": \"concurrent_append\", \"leaf_bytes\": {}, \"shards\": {}, \
                 \"threads\": {}, \"commit_every\": {}, \"elapsed_ms\": {:.1}, \
                 \"appends_per_sec\": {:.0}, \"p50_append_us\": {:.2}, \"p99_append_us\": {:.2}, \
                 \"max_append_us\": {:.2}}}",
                r.leaf_size,
                r.shards,
                THREADS,
                COMMIT_EVERY,
                r.elapsed.as_secs_f64() * 1e3,
                r.appends_per_sec,
                r.p50.as_secs_f64() * 1e6,
                r.p99.as_secs_f64() * 1e6,
                r.max.as_secs_f64() * 1e6,
            )
        })
        .collect();
    entries.push(format!(
        "  {{\"mode\": \"root_cost_check\", \"leaves\": {}, \"first_half_ms\": {:.1}, \
         \"second_half_ms\": {:.1}, \"ratio\": {:.3}, \"max_ratio\": {}}}",
        ROOT_CHECK_LEAVES,
        first.as_secs_f64() * 1e3,
        second.as_secs_f64() * 1e3,
        ratio,
        MAX_SECOND_HALF_RATIO
    ));
    let json = format!("[\n{}\n]\n", entries.join(",\n"));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    std::fs::create_dir_all(&dir).expect("mkdir bench_results");
    let path = dir.join("sharded_append.json");
    std::fs::write(&path, json).expect("write results");
    println!("\nwrote {}", path.display());
}
