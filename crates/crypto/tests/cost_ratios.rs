//! Timing guards, run in release only (`cargo test -p distrust-crypto
//! --release --test cost_ratios -- --ignored`): ten costs the rest of the
//! tree is built on, each held as a ratio to another cost within one run,
//! so that the host's speed cancels.
//!
//! The host can change speed during a run, so the two rows a claim
//! compares are timed in one loop, one call of each per sample, the order
//! alternating, and the claim is held against the median of the
//! per-sample ratios. The tests take turns, although they run on parallel
//! threads: one test's set-up would otherwise share the host with
//! another's timing.

use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::fp::Fp;
use distrust_crypto::fr::Fr;
use distrust_crypto::g1::G1Projective;
use distrust_crypto::g2::G2Projective;
use distrust_crypto::hmac::{hmac_sha256, HmacSha256};
use distrust_crypto::pairing::{pairing_equality, G2Prepared};
use distrust_crypto::schnorr::{KeptKey, SchnorrSignature, SigningKey};
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Timed calls of each row, after one untimed call.
const SAMPLES: usize = 20;

/// Held by each test for as long as it runs.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A row to time: how many of the thing it is named for one call does (a
/// sample is the time of one of them), and the call.
type Row<'a> = (u32, &'a mut dyn FnMut());

/// Asserts that `row`'s time over `against`'s, the median over
/// [`SAMPLES`] per-sample ratios, is below `bound`.
fn assert_costs_less<'a>(what: &str, bound: f64, row: Row<'a>, against: Row<'a>) {
    let mut rows = [row, against];
    for (_, routine) in rows.iter_mut() {
        routine();
    }
    let mut ratios: Vec<f64> = (0..SAMPLES)
        .map(|i| {
            let mut times = [0.0; 2];
            for j in [i % 2, 1 - i % 2] {
                let (count, routine) = &mut rows[j];
                let start = Instant::now();
                routine();
                times[j] = start.elapsed().as_secs_f64() / f64::from(*count);
            }
            times[0] / times[1]
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[SAMPLES / 2];
    println!("{what}: {ratio:.3} (bound {bound})");
    assert!(
        ratio < bound,
        "{what} costs {ratio:.3}, not less than {bound}"
    );
}

fn rng() -> HmacDrbg {
    HmacDrbg::new(b"cost ratios", b"")
}

/// The any-curve-point ladder: what every G1 multiplication cost before
/// the multi-scalar kernel, kept as the reference.
fn ladder(rng: &mut HmacDrbg) -> impl FnMut() {
    let limbs = Fr::random(rng).to_canonical_limbs();
    let g1 = G1Projective::generator();
    move || {
        black_box(g1.mul_limbs(&limbs));
    }
}

/// A Schnorr verification (80 bytes in, verdict out: `R′ = s·G − e·P`
/// recomputed and its compression compared) costs less than 1.2 of the
/// ladder multiplications it used to perform two of.
#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn a_schnorr_verification_costs_less_than_1_2_ladders() {
    let _turn = turn();
    let mut rng = rng();
    let key = SigningKey::generate(&mut rng);
    let (verifying, signature) = (key.verifying_key(), key.sign(b"cost ratios"));
    assert_costs_less(
        "schnorr_verify / g1_scalar_mul",
        1.2,
        (1, &mut || {
            assert!(verifying.verify(b"cost ratios", &signature))
        }),
        (1, &mut ladder(&mut rng)),
    );
}

/// `k·G` on the generator's spaced table (17 doublings) costs less than
/// 0.2 of the ladder.
#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn k_times_the_generator_costs_less_than_0_2_ladders() {
    let _turn = turn();
    let mut rng = rng();
    let scalar = Fr::random(&mut rng);
    assert_costs_less(
        "g1_mul_generator / g1_scalar_mul",
        0.2,
        (1, &mut || {
            black_box(G1Projective::mul_generator(&scalar));
        }),
        (1, &mut ladder(&mut rng)),
    );
}

/// A cold client's 36 epochs of one domain, signed under one key.
fn epochs() -> (SigningKey, Vec<[u8; 8]>, Vec<SchnorrSignature>) {
    let key = SigningKey::generate(&mut rng());
    let messages: Vec<[u8; 8]> = (0..36u64).map(u64::to_le_bytes).collect();
    let signatures = messages.iter().map(|m| key.sign(m)).collect();
    (key, messages, signatures)
}

/// A signature verified under a kept key whose spaced table is built (an
/// auditor's pinned key), in a batch of 36 with one inversion between
/// them, against one under a key nobody keeps (a narrow table per call),
/// verified alone and in the same batch of 36.
#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn a_signature_under_a_kept_key_costs_less_than_one_alone_or_unkept() {
    let _turn = turn();
    let (key, messages, signatures) = epochs();
    let items: Vec<(&[u8], &SchnorrSignature)> = messages
        .iter()
        .map(|m| m.as_slice())
        .zip(&signatures)
        .collect();
    let items = items.as_slice();
    let verifying = key.verifying_key();
    let unkept = |count: usize| move || assert_eq!(verifying.verify_all(&items[..count]), Ok(()));
    let mut kept = KeptKey::new(verifying);
    let mut kept_36 = || assert_eq!(kept.verify_all(items), Ok(()));
    assert_costs_less(
        "schnorr_verify_all_36_kept / schnorr_verify_all_1",
        1.0,
        (36, &mut kept_36),
        (1, &mut unkept(1)),
    );
    assert_costs_less(
        "schnorr_verify_all_36_kept / schnorr_verify_all_36",
        0.75,
        (36, &mut kept_36),
        (36, &mut unkept(36)),
    );
    assert!(kept.has_table());
}

/// One BLS-shaped check, `e(sP, g₂) == e(P, s·g₂)`, under a key whose
/// Miller-loop lines are kept (a `PreparedPublicKey`, the threshold
/// client's group key) costs less than 0.97 of one that prepares them per
/// call (a bare `PublicKey`).
#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn a_pairing_check_under_a_kept_key_costs_less_than_0_97_of_one_prepared() {
    let _turn = turn();
    let scalar = Fr::random(&mut rng());
    let p = G1Projective::generator().mul_scalar(&scalar).to_affine();
    let q = G2Projective::generator().mul_scalar(&scalar).to_affine();
    let base = G1Projective::generator().to_affine();
    let g2 = G2Prepared::generator();
    let kept = G2Prepared::new(&q);
    assert_costs_less(
        "pairing_check_kept / pairing_check",
        0.97,
        (1, &mut || assert!(pairing_equality(&p, g2, &base, &kept))),
        (1, &mut || {
            assert!(pairing_equality(&p, g2, &base, &G2Prepared::new(&q)))
        }),
    );
}

/// The Jacobi symbol of an element of `Fp` costs less than 0.3 of its
/// square root: what `hash_to_g1` pays to turn a candidate away, after and
/// before it asks the symbol first.
#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn the_jacobi_symbol_costs_less_than_0_3_square_roots() {
    let _turn = turn();
    let element = Fp::random(&mut rng());
    assert_costs_less(
        "fp_is_square / fp_sqrt",
        0.3,
        (1, &mut || {
            black_box(element.is_square());
        }),
        (1, &mut || {
            black_box(element.sqrt());
        }),
    );
}

/// A squaring in `Fp` costs less than 0.95 of a multiplication: the
/// measured reason the field kernel keeps `square` as a routine of its
/// own rather than `mul(self)`.
#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn an_fp_squaring_costs_less_than_0_95_multiplications() {
    let _turn = turn();
    const OPS: u32 = 1000;
    let mut rng = rng();
    let (start, factor) = (Fp::random(&mut rng), Fp::random(&mut rng));
    assert_costs_less(
        "fp_square / fp_mul",
        0.95,
        (OPS, &mut || {
            let mut x = start;
            for _ in 0..OPS {
                x = black_box(x).square();
            }
            black_box(x);
        }),
        (OPS, &mut || {
            let mut x = start;
            for _ in 0..OPS {
                x = black_box(x).mul(&factor);
            }
            black_box(x);
        }),
    );
}

/// `OPS` multiplications in `Fp`, each by the last one's product: the
/// unit the inversion and the square root are held to.
fn fp_muls<const OPS: u32>(rng: &mut HmacDrbg) -> impl FnMut() {
    let (start, factor) = (Fp::random(rng), Fp::random(rng));
    move || {
        let mut x = start;
        for _ in 0..OPS {
            x = black_box(x).mul(&factor);
        }
        black_box(x);
    }
}

/// An inversion in `Fp` — the binary GCD, 31 steps on 64-bit
/// approximations between full-width updates — costs less than 130
/// multiplications. The bit-serial Euclid it replaced read ≈ 190.
#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn an_fp_inversion_costs_less_than_130_multiplications() {
    let _turn = turn();
    const INVERSIONS: u32 = 100;
    const OPS: u32 = 1000;
    let mut rng = rng();
    let elements: Vec<Fp> = (0..INVERSIONS).map(|_| Fp::random(&mut rng)).collect();
    assert_costs_less(
        "fp_invert / fp_mul",
        130.0,
        (INVERSIONS, &mut || {
            for x in &elements {
                black_box(black_box(x).invert());
            }
        }),
        (OPS, &mut fp_muls::<OPS>(&mut rng)),
    );
}

/// A square root in `Fp` — `(p + 1)/4` by a width-5 window, 457
/// squarings and multiplications — costs less than 600 multiplications.
/// The bit-at-a-time exponentiation it replaced (613 of them, a third of
/// them multiplications) read ≈ 740.
#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn an_fp_square_root_costs_less_than_600_multiplications() {
    let _turn = turn();
    const ROOTS: u32 = 20;
    const OPS: u32 = 1000;
    let mut rng = rng();
    let squares: Vec<Fp> = (0..ROOTS).map(|_| Fp::random(&mut rng).square()).collect();
    assert_costs_less(
        "fp_sqrt / fp_mul",
        600.0,
        (ROOTS, &mut || {
            for x in &squares {
                black_box(black_box(x).sqrt());
            }
        }),
        (OPS, &mut fp_muls::<OPS>(&mut rng)),
    );
}

/// An HMAC of 32 bytes from a clone of a keyed state (two compressions:
/// what each block of `HmacDrbg::generate` costs) costs less than 0.65 of
/// one keyed afresh (four).
#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn a_mac_from_a_kept_keyed_state_costs_less_than_0_65_fresh_ones() {
    let _turn = turn();
    const MACS: u32 = 1000;
    let key = [0x4bu8; 32];
    let message = [0x5au8; 32];
    let keyed = HmacSha256::new(&key);
    assert_costs_less(
        "hmac_kept_key / hmac_sha256",
        0.65,
        (MACS, &mut || {
            for _ in 0..MACS {
                let mut mac = keyed.clone();
                mac.update(black_box(&message));
                black_box(mac.finalize());
            }
        }),
        (MACS, &mut || {
            for _ in 0..MACS {
                black_box(hmac_sha256(black_box(&key), black_box(&message)));
            }
        }),
    );
}
