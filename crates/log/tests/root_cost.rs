//! A timing guard, run in release only (`cargo test -p distrust-log
//! --release --test root_cost -- --ignored`): `MerkleLog::root()` stays
//! O(log n).
//!
//! Every epoch the framework appends one leaf and signs the current root,
//! so a recompute-from-all-leaves `root()` would make `n` epochs cost
//! O(n²) hashes. 100k appends with a `root()` after each: the second half
//! may cost at most [`MAX_SECOND_HALF_RATIO`] times the first (quadratic
//! growth makes it ≈ 3×; the cached subtree levels ≈ 1×). A ratio within
//! the run, so the host's speed cancels.

use distrust_log::MerkleLog;
use std::time::{Duration, Instant};

/// Leaves appended, a `root()` after each.
const LEAVES: usize = 100_000;
/// Generous noise headroom that still fails a quadratic regression.
const MAX_SECOND_HALF_RATIO: f64 = 2.5;

#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn root_cost_does_not_grow_with_the_log() {
    let mut log = MerkleLog::new();
    let leaf = [0x5au8; 40];
    let mut half = || -> Duration {
        let start = Instant::now();
        for _ in 0..LEAVES / 2 {
            log.append(&leaf);
            std::hint::black_box(log.root());
        }
        start.elapsed()
    };
    let (first, second) = (half(), half());
    let ratio = second.as_secs_f64() / first.as_secs_f64().max(f64::EPSILON);
    println!("root(): first half {first:?}, second half {second:?}, ratio {ratio:.2}");
    assert!(
        ratio < MAX_SECOND_HALF_RATIO,
        "root() cost grew {ratio:.2}x from the first to the second half of the appends — \
         quadratic recomputation is back (cached subtree levels should hold this near 1x)"
    );
}
