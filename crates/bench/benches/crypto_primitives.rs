//! Ablation F: costs of the cryptographic primitives underlying every
//! number in the evaluation — pairing, group scalar multiplication,
//! hash-to-curve, BLS and Schnorr sign/verify.
//!
//! One claim is **asserted**, not just reported, and it is a ratio within
//! one run so that it does not depend on the host: a Schnorr verification
//! (`s·G − e·P − R` as one multi-scalar sum) costs less than 1.2 of the
//! bit-by-bit ladder multiplications it used to perform two of.
//!
//! Custom harness (`harness = false`), same shape as `cold_start`;
//! results go to `bench_results/crypto_primitives.json`.

use distrust_bench::stats::Summary;
use distrust_crypto::bls::SecretKey;
use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::fr::Fr;
use distrust_crypto::g1::{hash_to_g1, G1Projective};
use distrust_crypto::g2::{G2Affine, G2Projective};
use distrust_crypto::pairing::{pairing, pairing_equality};
use distrust_crypto::schnorr::SigningKey;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed calls per row, after one untimed call; the median is reported.
const SAMPLES: usize = 20;

struct Rows(Vec<(&'static str, Duration)>);

impl Rows {
    fn measure<O>(&mut self, name: &'static str, mut routine: impl FnMut() -> O) {
        black_box(routine());
        let samples = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                black_box(routine());
                start.elapsed()
            })
            .collect();
        let median = Summary::from_samples(samples).median;
        println!("crypto/{name}: median {median:?} of {SAMPLES}");
        self.0.push((name, median));
    }

    fn median(&self, name: &str) -> Duration {
        let row = self.0.iter().find(|(row, _)| *row == name);
        row.expect("row was measured").1
    }
}

fn main() {
    let mut rng = HmacDrbg::new(b"crypto bench", b"");
    let mut rows = Rows(Vec::new());

    // The any-curve-point ladder: what every G1 multiplication cost before
    // the kernel, kept as the reference the other rows are read against.
    let scalar = Fr::random(&mut rng);
    let limbs = scalar.to_canonical_limbs();
    let g1 = G1Projective::generator();
    rows.measure("g1_scalar_mul", || g1.mul_limbs(&limbs));

    // The kernel: the generator's static table alone, then two and three
    // variable points in one run of doublings.
    rows.measure("g1_mul_generator", || G1Projective::mul_generator(&scalar));
    let terms: Vec<(G1Projective, Fr)> = (0..3)
        .map(|_| (G1Projective::random(&mut rng), Fr::random(&mut rng)))
        .collect();
    rows.measure("g1_msm_2", || G1Projective::multi_scalar(None, &terms[..2]));
    rows.measure("g1_msm_3", || G1Projective::multi_scalar(None, &terms));

    let schnorr = SigningKey::generate(&mut rng);
    let verifying = schnorr.verifying_key();
    rows.measure("schnorr_sign", || schnorr.sign(b"bench message"));
    let schnorr_sig = schnorr.sign(b"bench message");
    rows.measure("schnorr_verify", || {
        assert!(verifying.verify(b"bench message", &schnorr_sig));
    });

    let g2 = G2Projective::generator();
    rows.measure("g2_scalar_mul", || g2.mul_scalar(&scalar));

    let p = g1.mul_scalar(&scalar).to_affine();
    let q = g2.mul_scalar(&scalar).to_affine();
    rows.measure("pairing", || pairing(&p, &q));

    // One BLS-shaped check, `e(sP, g₂) == e(P, s·g₂)`: two pairs through
    // the shared Miller loop (the generator's lines from the process-wide
    // table, the key's prepared per call), one final exponentiation.
    let base = G1Projective::generator().to_affine();
    let g2_gen = G2Affine::generator();
    rows.measure("pairing_check", || pairing_equality(&p, &g2_gen, &base, &q));

    // The endomorphism subgroup test every decoded G1 point goes through.
    rows.measure("g1_subgroup_check", || p.is_torsion_free());

    let mut counter = 0u64;
    rows.measure("hash_to_g1", || {
        counter += 1;
        hash_to_g1(&counter.to_le_bytes(), b"bench")
    });

    let sk = SecretKey::generate(&mut rng);
    let pk = sk.public_key();
    rows.measure("bls_sign", || sk.sign(b"bench message"));
    let sig = sk.sign(b"bench message");
    rows.measure("bls_verify", || pk.verify(b"bench message", &sig));

    let blob = vec![0xabu8; 64 * 1024];
    rows.measure("sha256_64KiB", || distrust_crypto::sha256(&blob));

    let entries: Vec<String> = rows
        .0
        .iter()
        .map(|(name, median)| {
            format!(
                "  {{\"name\": \"{name}\", \"median_us\": {:.1}, \"samples\": {SAMPLES}}}",
                median.as_secs_f64() * 1e6
            )
        })
        .collect();
    distrust_bench::report::write("crypto_primitives", &entries);

    let (verify, ladder) = (rows.median("schnorr_verify"), rows.median("g1_scalar_mul"));
    assert!(
        verify.as_secs_f64() < 1.2 * ladder.as_secs_f64(),
        "a Schnorr verification ({verify:?}) costs 1.2 ladder multiplications ({ladder:?}) or more"
    );
}
