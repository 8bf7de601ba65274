//! Ablation F: costs of the cryptographic primitives underlying every
//! number in the evaluation — pairing, group scalar multiplication,
//! hash-to-curve, BLS and Schnorr sign/verify.
//!
//! Six claims are **asserted**, not just reported, and each is a ratio
//! within one run so that it does not depend on the host:
//!
//! * a Schnorr verification (80 bytes in, verdict out: `R′ = s·G − e·P`
//!   recomputed and its compression compared) costs less than 1.2 of the
//!   bit-by-bit ladder multiplications it used to perform two of;
//! * `k·G` on the generator's spaced table (17 doublings) costs less than
//!   0.2 of the ladder;
//! * a signature verified under a kept key whose spaced table is built (an
//!   auditor's pinned key), in a batch of 36 with one inversion between
//!   them, costs less than one verified alone under a key nobody keeps,
//! * and less than 0.75 of one in a batch of 36 under such a key;
//! * a BLS pairing check under a key whose Miller-loop lines are kept
//!   costs less than 0.97 of one that prepares them;
//! * the Jacobi symbol of an element of `Fp` costs less than 0.3 of its
//!   square root.
//!
//! The host can change speed during a run, so the rows a claim compares
//! are timed in one loop, one call of each per sample, and the claim is
//! held against the median of the per-sample ratios.
//!
//! Custom harness (`harness = false`), same shape as `cold_start`;
//! results go to `bench_results/crypto_primitives.json`.

use distrust_bench::stats::Summary;
use distrust_crypto::bls::SecretKey;
use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::fp::Fp;
use distrust_crypto::fr::Fr;
use distrust_crypto::g1::{hash_to_g1, G1Projective, G1Table};
use distrust_crypto::g2::G2Projective;
use distrust_crypto::pairing::{pairing, pairing_equality, G2Prepared};
use distrust_crypto::schnorr::{KeptKey, SchnorrSignature, SigningKey};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed calls per row, after one untimed call; the median is reported.
const SAMPLES: usize = 20;

/// A row to time: its name, how many of the thing it is named for one
/// call does (the row reports one of them), and the call.
type Routine<'a> = (&'static str, u32, &'a mut dyn FnMut());

/// Every row's samples, in the order measured.
struct Rows(Vec<(&'static str, Vec<Duration>)>);

impl Rows {
    fn measure<O>(&mut self, name: &'static str, mut routine: impl FnMut() -> O) {
        self.interleave(&mut [(name, 1, &mut || {
            black_box(routine());
        })]);
    }

    /// Times `routines` in one loop: each is called once untimed, then once
    /// per sample, the order rotating from sample to sample, so that sample
    /// `i` of each row saw the host at one speed.
    fn interleave(&mut self, routines: &mut [Routine<'_>]) {
        for (_, _, routine) in routines.iter_mut() {
            routine();
        }
        let mut samples = vec![Vec::with_capacity(SAMPLES); routines.len()];
        for i in 0..SAMPLES {
            for j in 0..routines.len() {
                let j = (i + j) % routines.len();
                let (_, count, routine) = &mut routines[j];
                let start = Instant::now();
                routine();
                samples[j].push(start.elapsed() / *count);
            }
        }
        for ((name, _, _), samples) in routines.iter().zip(samples) {
            self.0.push((name, samples));
            println!("crypto/{name}: median {:?} of {SAMPLES}", self.median(name));
        }
    }

    fn samples(&self, name: &str) -> &[Duration] {
        let row = self.0.iter().find(|(row, _)| *row == name);
        &row.expect("row was measured").1
    }

    fn median(&self, name: &str) -> Duration {
        Summary::from_samples(self.samples(name).to_vec()).median
    }

    /// The median over samples of row `a`'s time over row `b`'s, rows
    /// timed in one [`Self::interleave`] loop.
    fn ratio(&self, a: &str, b: &str) -> f64 {
        let (a, b) = (self.samples(a), self.samples(b));
        let mut ratios: Vec<f64> = a
            .iter()
            .zip(b)
            .map(|(a, b)| a.as_secs_f64() / b.as_secs_f64())
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    }
}

fn main() {
    let mut rng = HmacDrbg::new(b"crypto bench", b"");
    let mut rows = Rows(Vec::new());

    // The any-curve-point ladder: what every G1 multiplication cost before
    // the kernel, kept as the reference the other rows are read against;
    // timed beside the generator's static spaced table alone, and beside a
    // verification (the generator's spacing-1 table and the key's narrow
    // one).
    let scalar = Fr::random(&mut rng);
    let limbs = scalar.to_canonical_limbs();
    let g1 = G1Projective::generator();
    let schnorr = SigningKey::generate(&mut rng);
    let verifying = schnorr.verifying_key();
    let schnorr_sig = schnorr.sign(b"bench message");
    rows.interleave(&mut [
        ("g1_scalar_mul", 1, &mut || {
            black_box(g1.mul_limbs(&limbs));
        }),
        ("g1_mul_generator", 1, &mut || {
            black_box(G1Projective::mul_generator(&scalar));
        }),
        ("schnorr_verify", 1, &mut || {
            assert!(verifying.verify(b"bench message", &schnorr_sig));
        }),
    ]);

    // The kernel on two and three variable points, each on a narrow table
    // built for the one sum, in one run of doublings; the generator's
    // spacing-1 table and the one a kept key gets (spacing 4), and the
    // shared inversion that takes a batch of sums to affine form.
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
    rows.measure("g1_table_build", || G1Table::new(&terms[0].0, 1));
    rows.measure("g1_table_build_spaced", || G1Table::new(&terms[0].0, 4));
    let sums: Vec<G1Projective> = (0..36)
        .map(|_| G1Projective::random(&mut rng).double())
        .collect();
    rows.measure("g1_batch_to_affine_36", || {
        G1Projective::batch_to_affine(&sums)
    });

    rows.measure("schnorr_sign", || schnorr.sign(b"bench message"));
    // Per signature, in batches under a key nobody keeps (a narrow table
    // per call): alone, four, and a cold client's 36 epochs of one domain;
    // then the same 36 under the key kept, its table built by the untimed
    // call — what an auditor verifies them on.
    let messages: Vec<[u8; 8]> = (0..36u64).map(u64::to_le_bytes).collect();
    let signatures: Vec<SchnorrSignature> = messages.iter().map(|m| schnorr.sign(m)).collect();
    let items: Vec<(&[u8], &SchnorrSignature)> = messages
        .iter()
        .map(|m| m.as_slice())
        .zip(&signatures)
        .collect();
    let items = items.as_slice();
    let unkept = |count: usize| move || assert_eq!(verifying.verify_all(&items[..count]), Ok(()));
    let mut kept = KeptKey::new(verifying);
    rows.interleave(&mut [
        ("schnorr_verify_all_1", 1, &mut unkept(1)),
        ("schnorr_verify_all_4", 4, &mut unkept(4)),
        ("schnorr_verify_all_36", 36, &mut unkept(36)),
        ("schnorr_verify_all_36_kept", 36, &mut || {
            assert_eq!(kept.verify_all(items), Ok(()))
        }),
    ]);
    assert!(kept.has_table());

    let g2 = G2Projective::generator();
    rows.measure("g2_scalar_mul", || g2.mul_scalar(&scalar));

    let p = g1.mul_scalar(&scalar).to_affine();
    let q = g2.mul_scalar(&scalar).to_affine();
    rows.measure("pairing", || pairing(&p, &q));

    // One BLS-shaped check, `e(sP, g₂) == e(P, s·g₂)`: two pairs through
    // the shared Miller loop, one final exponentiation. The generator's
    // lines come from its process-wide table; the key's are prepared per
    // call (a bare `PublicKey`), or kept (a `PreparedPublicKey`, the
    // threshold client's group key).
    let base = G1Projective::generator().to_affine();
    let g2_gen = G2Prepared::generator();
    let kept_key = G2Prepared::new(&q);
    rows.interleave(&mut [
        ("pairing_check", 1, &mut || {
            assert!(pairing_equality(&p, g2_gen, &base, &G2Prepared::new(&q)));
        }),
        ("pairing_check_kept", 1, &mut || {
            assert!(pairing_equality(&p, g2_gen, &base, &kept_key));
        }),
    ]);

    // The endomorphism subgroup test every fully decoded G1 point goes
    // through.
    rows.measure("g1_subgroup_check", || p.is_torsion_free());

    // A square root against the Jacobi symbol that says whether there is
    // one: what `hash_to_g1` pays to turn a candidate away, before and
    // after it asks the symbol first.
    let element = Fp::random(&mut rng);
    rows.interleave(&mut [
        ("fp_sqrt", 1, &mut || {
            black_box(element.sqrt());
        }),
        ("fp_is_square", 1, &mut || {
            black_box(element.is_square());
        }),
    ]);

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
        .map(|(name, _)| {
            format!(
                "  {{\"name\": \"{name}\", \"median_us\": {:.1}, \"samples\": {SAMPLES}}}",
                rows.median(name).as_secs_f64() * 1e6
            )
        })
        .collect();
    distrust_bench::report::write("crypto_primitives", &entries);

    let claims = [
        (
            "schnorr_verify",
            "g1_scalar_mul",
            1.2,
            "a Schnorr verification",
        ),
        (
            "g1_mul_generator",
            "g1_scalar_mul",
            0.2,
            "k·G on the spaced table",
        ),
        (
            "schnorr_verify_all_36_kept",
            "schnorr_verify_all_1",
            1.0,
            "a signature under a kept key, in a batch of 36",
        ),
        (
            "schnorr_verify_all_36_kept",
            "schnorr_verify_all_36",
            0.75,
            "a signature under a kept key, in a batch of 36",
        ),
        (
            "pairing_check_kept",
            "pairing_check",
            0.97,
            "a pairing check under a kept key",
        ),
        (
            "fp_is_square",
            "fp_sqrt",
            0.3,
            "the Jacobi symbol of an element of Fp",
        ),
    ];
    for (row, against, bound, what) in claims {
        let ratio = rows.ratio(row, against);
        println!("crypto/{row} / {against}: {ratio:.3} (bound {bound})");
        assert!(
            ratio < bound,
            "{what} ({row}) costs {ratio:.3} of {against}, not less than {bound}"
        );
    }
}
