//! Ablation F: costs of the cryptographic primitives underlying every
//! number in the evaluation — pairing, group scalar multiplication,
//! hash-to-curve, BLS and Schnorr sign/verify.
//!
//! Two claims are **asserted**, not just reported, and each is a ratio
//! within one run so that it does not depend on the host: a Schnorr
//! verification (80 bytes in, verdict out: `R′ = s·G − e·P` recomputed and
//! its compression compared) costs less than 1.2 of the bit-by-bit ladder
//! multiplications it used to perform two of, and a signature verified in
//! a batch of 36 under one key (a wide key table and one inversion
//! between them) costs less than one verified alone.
//!
//! Custom harness (`harness = false`), same shape as `cold_start`;
//! results go to `bench_results/crypto_primitives.json`.

use distrust_bench::stats::Summary;
use distrust_crypto::bls::SecretKey;
use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::fr::Fr;
use distrust_crypto::g1::{hash_to_g1, G1Projective, G1Table};
use distrust_crypto::g2::{G2Affine, G2Projective};
use distrust_crypto::pairing::{pairing, pairing_equality};
use distrust_crypto::schnorr::{SchnorrSignature, SigningKey};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed calls per row, after one untimed call; the median is reported.
const SAMPLES: usize = 20;

struct Rows(Vec<(&'static str, Duration)>);

impl Rows {
    fn measure<O>(&mut self, name: &'static str, routine: impl FnMut() -> O) {
        self.measure_each(name, 1, routine);
    }

    /// A routine that does `count` of the thing the row is named for: the
    /// row reports one of them.
    fn measure_each<O>(&mut self, name: &'static str, count: u32, mut routine: impl FnMut() -> O) {
        black_box(routine());
        let samples = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                black_box(routine());
                start.elapsed() / count
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
    // variable points, each on a narrow table built for the one sum, in
    // one run of doublings; the wide table a point many sums share gets,
    // and the shared inversion that takes a batch of sums to affine form.
    rows.measure("g1_mul_generator", || G1Projective::mul_generator(&scalar));
    let terms: Vec<(G1Projective, Fr)> = (0..3)
        .map(|_| (G1Projective::random(&mut rng), Fr::random(&mut rng)))
        .collect();
    let msm = |terms: &[(G1Projective, Fr)]| {
        let tables: Vec<G1Table> = terms.iter().map(|(p, _)| G1Table::narrow(p)).collect();
        let lanes: Vec<(&G1Table, Fr)> = tables.iter().zip(terms.iter().map(|t| t.1)).collect();
        G1Projective::multi_scalar(&lanes)
    };
    rows.measure("g1_msm_2", || msm(&terms[..2]));
    rows.measure("g1_msm_3", || msm(&terms));
    rows.measure("g1_table_build", || G1Table::new(&terms[0].0));
    let sums: Vec<G1Projective> = (0..36)
        .map(|_| G1Projective::random(&mut rng).double())
        .collect();
    rows.measure("g1_batch_to_affine_36", || {
        G1Projective::batch_to_affine(&sums)
    });

    let schnorr = SigningKey::generate(&mut rng);
    let verifying = schnorr.verifying_key();
    rows.measure("schnorr_sign", || schnorr.sign(b"bench message"));
    let schnorr_sig = schnorr.sign(b"bench message");
    rows.measure("schnorr_verify", || {
        assert!(verifying.verify(b"bench message", &schnorr_sig));
    });
    // Per signature, in batches under one key: alone, below the
    // wide-table threshold, and a cold client's 36 epochs of one domain.
    let messages: Vec<[u8; 8]> = (0..36u64).map(u64::to_le_bytes).collect();
    let signatures: Vec<SchnorrSignature> = messages.iter().map(|m| schnorr.sign(m)).collect();
    let items: Vec<(&[u8], &SchnorrSignature)> = messages
        .iter()
        .map(|m| m.as_slice())
        .zip(&signatures)
        .collect();
    for (name, count) in [
        ("schnorr_verify_all_1", 1),
        ("schnorr_verify_all_4", 4),
        ("schnorr_verify_all_36", 36),
    ] {
        rows.measure_each(name, count as u32, || {
            assert_eq!(verifying.verify_all(&items[..count]), Ok(()));
        });
    }

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
    let (alone, batched) = (
        rows.median("schnorr_verify_all_1"),
        rows.median("schnorr_verify_all_36"),
    );
    assert!(
        batched < alone,
        "a signature in a batch of 36 ({batched:?}) costs no less than one alone ({alone:?})"
    );
}
