//! Ablation B: the two append-only log designs — the paper's §4.1 hash
//! chain (O(1) append, O(n) audit) against the §4.2 CT-style Merkle log
//! (O(log n) proofs) — across log sizes.
//!
//! Custom harness (`harness = false`): each row is the median of
//! [`SAMPLES`] timed calls after one untimed one, printed, not recorded.

use distrust_bench::stats::Summary;
use distrust_bench::HashChain;
use distrust_log::MerkleLog;
use std::hint::black_box;
use std::time::Instant;

const SIZES: [usize; 3] = [16, 256, 4096];
const SAMPLES: usize = 20;

fn build_chain(n: usize) -> HashChain {
    let mut chain = HashChain::new();
    for i in 0..n {
        chain.append(format!("digest-{i}").as_bytes());
    }
    chain
}

fn build_merkle(n: usize) -> MerkleLog {
    let mut log = MerkleLog::new();
    for i in 0..n {
        log.append(format!("digest-{i}").as_bytes());
    }
    log
}

/// Prints the median time of `routine` on a fresh input from `setup` as
/// the row `name`; building the input and dropping the output are not
/// timed.
fn row<I, O>(name: &str, mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> O) {
    black_box(routine(setup()));
    let samples = (0..SAMPLES)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            let elapsed = start.elapsed();
            drop(output);
            elapsed
        })
        .collect();
    let median = Summary::from_samples(samples).median;
    println!("{name}: median {median:?} of {SAMPLES}");
}

fn main() {
    for n in SIZES {
        let chain = build_chain(n);
        row(
            &format!("log_append/hashchain/{n}"),
            || chain.clone(),
            |mut chain| {
                chain.append(b"new digest");
                chain
            },
        );
        let log = build_merkle(n);
        row(
            &format!("log_append/merkle/{n}"),
            || log.clone(),
            |mut log| {
                log.append(b"new digest");
                black_box(log.root());
                log
            },
        );
    }

    // Audit cost: hash chain full replay vs Merkle proof verification.
    for n in SIZES {
        let chain = build_chain(n);
        let head = chain.head();
        row(
            &format!("log_audit/hashchain_replay/{n}"),
            || (),
            |()| HashChain::verify_replay(chain.leaves(), &head),
        );
        let log = build_merkle(n);
        let (old, root) = (n / 2, log.root());
        let consistency = log.prove_consistency(old, n).expect("proof");
        let old_root = log.root_of_prefix(old);
        row(
            &format!("log_audit/merkle_consistency_verify/{n}"),
            || (),
            |()| consistency.verify(&old_root, &root),
        );
        let inclusion = log.prove_inclusion(n / 2, n).expect("proof");
        let leaf = format!("digest-{}", n / 2);
        row(
            &format!("log_audit/merkle_inclusion_verify/{n}"),
            || (),
            |()| inclusion.verify(leaf.as_bytes(), &root),
        );
        row(
            &format!("log_prove/merkle_consistency/{n}"),
            || (),
            |()| log.prove_consistency(n / 2, n),
        );
    }
}
