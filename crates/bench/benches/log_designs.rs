//! Ablation B: the two append-only log designs — the paper's §4.1 hash
//! chain (O(1) append, O(n) audit) against the §4.2 CT-style Merkle log
//! (O(log n) proofs) — across log sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use distrust_bench::HashChain;
use distrust_log::MerkleLog;

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

fn bench_logs(c: &mut Criterion) {
    let sizes = [16usize, 256, 4096];

    let mut group = c.benchmark_group("log_append");
    group.sample_size(20);
    for &n in &sizes {
        group.bench_with_input(BenchmarkId::new("hashchain", n), &n, |b, &n| {
            let base = build_chain(n);
            b.iter(|| {
                let mut chain = base.clone();
                std::hint::black_box(chain.append(b"new digest"))
            })
        });
        group.bench_with_input(BenchmarkId::new("merkle", n), &n, |b, &n| {
            let base = build_merkle(n);
            b.iter(|| {
                let mut log = base.clone();
                log.append(b"new digest");
                std::hint::black_box(log.root())
            })
        });
    }
    group.finish();

    // Audit cost: hash chain full replay vs Merkle consistency proof.
    let mut group = c.benchmark_group("log_audit");
    group.sample_size(20);
    for &n in &sizes {
        group.bench_with_input(BenchmarkId::new("hashchain_replay", n), &n, |b, &n| {
            let chain = build_chain(n);
            let head = chain.head();
            b.iter(|| std::hint::black_box(HashChain::verify_replay(chain.leaves(), &head)))
        });
        group.bench_with_input(
            BenchmarkId::new("merkle_consistency_verify", n),
            &n,
            |b, &n| {
                let log = build_merkle(n);
                let old = n / 2;
                let proof = log.prove_consistency(old, n).expect("proof");
                let old_root = log.root_of_prefix(old);
                let new_root = log.root();
                b.iter(|| std::hint::black_box(proof.verify(&old_root, &new_root)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("merkle_inclusion_verify", n),
            &n,
            |b, &n| {
                let log = build_merkle(n);
                let proof = log.prove_inclusion(n / 2, n).expect("proof");
                let root = log.root();
                let leaf = format!("digest-{}", n / 2);
                b.iter(|| std::hint::black_box(proof.verify(leaf.as_bytes(), &root)))
            },
        );
    }
    group.finish();

    // Proof generation.
    let mut group = c.benchmark_group("log_prove");
    group.sample_size(20);
    for &n in &sizes {
        group.bench_with_input(BenchmarkId::new("merkle_consistency", n), &n, |b, &n| {
            let log = build_merkle(n);
            b.iter(|| std::hint::black_box(log.prove_consistency(n / 2, n)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_logs);
criterion_main!(benches);
