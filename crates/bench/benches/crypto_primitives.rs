//! Ablation F: costs of the cryptographic primitives underlying every
//! number in the evaluation — pairing, group scalar multiplication,
//! hash-to-curve, and BLS sign/verify.

use criterion::{criterion_group, criterion_main, Criterion};
use distrust_crypto::bls::SecretKey;
use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::fr::Fr;
use distrust_crypto::g1::{hash_to_g1, G1Projective};
use distrust_crypto::g2::{G2Affine, G2Projective};
use distrust_crypto::pairing::{pairing, pairing_equality};

fn bench_primitives(c: &mut Criterion) {
    let mut rng = HmacDrbg::new(b"crypto bench", b"");
    let mut group = c.benchmark_group("crypto");
    group.sample_size(20);

    let scalar = Fr::random(&mut rng);
    let g1 = G1Projective::generator();
    group.bench_function("g1_scalar_mul", |b| {
        b.iter(|| std::hint::black_box(g1.mul_scalar(&scalar)))
    });

    let g2 = G2Projective::generator();
    group.bench_function("g2_scalar_mul", |b| {
        b.iter(|| std::hint::black_box(g2.mul_scalar(&scalar)))
    });

    let p = g1.mul_scalar(&scalar).to_affine();
    let q = g2.mul_scalar(&scalar).to_affine();
    group.bench_function("pairing", |b| {
        b.iter(|| std::hint::black_box(pairing(&p, &q)))
    });

    // One BLS-shaped check, `e(sP, g₂) == e(P, s·g₂)`: two pairs through
    // the shared Miller loop (the generator's lines from the process-wide
    // table, the key's prepared per call), one final exponentiation.
    let base = G1Projective::generator().to_affine();
    let g2_gen = G2Affine::generator();
    group.bench_function("pairing_check", |b| {
        b.iter(|| std::hint::black_box(pairing_equality(&p, &g2_gen, &base, &q)))
    });

    // The endomorphism subgroup test every decoded G1 point goes through.
    group.bench_function("g1_subgroup_check", |b| {
        b.iter(|| std::hint::black_box(p.is_torsion_free()))
    });

    let mut counter = 0u64;
    group.bench_function("hash_to_g1", |b| {
        b.iter(|| {
            counter += 1;
            std::hint::black_box(hash_to_g1(&counter.to_le_bytes(), b"bench"))
        })
    });

    let sk = SecretKey::generate(&mut rng);
    let pk = sk.public_key();
    group.bench_function("bls_sign", |b| {
        b.iter(|| std::hint::black_box(sk.sign(b"bench message")))
    });

    let sig = sk.sign(b"bench message");
    group.bench_function("bls_verify", |b| {
        b.iter(|| std::hint::black_box(pk.verify(b"bench message", &sig)))
    });

    let blob = vec![0xabu8; 64 * 1024];
    group.bench_function("sha256_64KiB", |b| {
        b.iter(|| std::hint::black_box(distrust_crypto::sha256(&blob)))
    });

    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
