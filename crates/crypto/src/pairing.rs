//! The optimal ate pairing `e : G1 × G2 → GT` on BLS12-381.
//!
//! Implementation follows the standard line-function formulation
//! (Aranha et al., "Faster explicit formulas...", eprint 2010/354) as used by
//! production BLS12-381 libraries: a Miller loop over the (negative) BLS
//! parameter `x = -0xd201000000010000`, then the easy + hard parts of the
//! final exponentiation, with cyclotomic squarings in the hard part.
//!
//! There is one Miller loop. The doubling and addition steps depend on the
//! G2 argument alone, so they run once per G2 point into a table of line
//! coefficients (`prepare`, 68 triples; the generator's is built once
//! per process), and the loop proper walks the tables of all its pairs
//! together: one accumulator, squared once per bit of `x`, multiplied by
//! every pair's line at that step. A product of `k` pairings therefore
//! costs 63 `Fp12` squarings and one final exponentiation, not `63·k` and
//! `k` — and [`pairing`], [`multi_pairing`] and [`pairing_equality`] are
//! that loop over one, `k` and two pairs.
//!
//! Correctness is established by property tests: bilinearity in both
//! arguments, non-degeneracy, compatibility with scalar multiplication, and
//! agreement of the shared loop with a product of reference single-pair
//! pairings that compute their lines on the fly.

use crate::fp12::Fp12;
use crate::fp2::Fp2;
use crate::fr::Fr;
use crate::g1::G1Affine;
use crate::g2::{G2Affine, G2Projective};
use crate::BLS_X;
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::OnceLock;

/// An element of the target group `GT ⊂ Fp12*` (the image of the pairing).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Gt(pub Fp12);

impl Gt {
    /// The identity element of GT.
    pub const IDENTITY: Self = Gt(Fp12::ONE);

    /// Group operation (multiplication in Fp12).
    pub fn mul(&self, rhs: &Self) -> Self {
        Gt(self.0.mul(&rhs.0))
    }

    /// Inversion. GT elements lie in the cyclotomic subgroup, where
    /// inversion is conjugation.
    pub fn invert(&self) -> Self {
        Gt(self.0.conjugate())
    }

    /// Exponentiation by a scalar.
    pub fn pow(&self, k: &Fr) -> Self {
        Gt(self.0.pow_vartime(&k.to_canonical_limbs()))
    }

    /// True for the identity.
    pub fn is_identity(&self) -> bool {
        self.0.is_one()
    }
}

/// Line coefficients produced by one doubling or addition step.
type Line = (Fp2, Fp2, Fp2);

/// Doubling step of the Miller loop; mutates `r ← 2r` and returns the line
/// coefficients. Adapted from Algorithm 26 of eprint 2010/354.
fn doubling_step(r: &mut G2Projective) -> Line {
    let tmp0 = r.x.square();
    let tmp1 = r.y.square();
    let tmp2 = tmp1.square();
    let tmp3 = tmp1.add(&r.x).square().sub(&tmp0).sub(&tmp2).double();
    let tmp4 = tmp0.double().add(&tmp0);
    let tmp6 = r.x.add(&tmp4);
    let tmp5 = tmp4.square();
    let zsquared = r.z.square();
    r.x = tmp5.sub(&tmp3).sub(&tmp3);
    r.z = r.z.add(&r.y).square().sub(&tmp1).sub(&zsquared);
    r.y = tmp3.sub(&r.x).mul(&tmp4);
    let tmp2_8 = tmp2.double().double().double();
    r.y = r.y.sub(&tmp2_8);
    let tmp3 = tmp4.mul(&zsquared).double().neg();
    let tmp6 = tmp6.square().sub(&tmp0).sub(&tmp5);
    let tmp1_4 = tmp1.double().double();
    let tmp6 = tmp6.sub(&tmp1_4);
    let tmp0 = r.z.mul(&zsquared).double();
    (tmp0, tmp3, tmp6)
}

/// Addition step of the Miller loop; mutates `r ← r + q` and returns the
/// line coefficients. Adapted from Algorithm 27 of eprint 2010/354.
fn addition_step(r: &mut G2Projective, q: &G2Affine) -> Line {
    let zsquared = r.z.square();
    let ysquared = q.y.square();
    let t0 = zsquared.mul(&q.x);
    let t1 =
        q.y.add(&r.z)
            .square()
            .sub(&ysquared)
            .sub(&zsquared)
            .mul(&zsquared);
    let t2 = t0.sub(&r.x);
    let t3 = t2.square();
    let t4 = t3.double().double();
    let t5 = t4.mul(&t2);
    let t6 = t1.sub(&r.y).sub(&r.y);
    let t9 = t6.mul(&q.x);
    let t7 = t4.mul(&r.x);
    r.x = t6.square().sub(&t5).sub(&t7).sub(&t7);
    r.z = r.z.add(&t2).square().sub(&zsquared).sub(&t3);
    let t10 = q.y.add(&r.z);
    let t8 = t7.sub(&r.x).mul(&t6);
    let t0 = r.y.mul(&t5).double();
    r.y = t8.sub(&t0);
    let t10 = t10.square().sub(&ysquared);
    let ztsquared = r.z.square();
    let t10 = t10.sub(&ztsquared);
    let t9 = t9.double().sub(&t10);
    let t10 = r.z.double();
    let t6 = t6.neg();
    let t1 = t6.double();
    (t10, t1, t9)
}

/// Evaluates a line (coefficient triple) at `p` and multiplies it into `f`.
fn ell(f: &Fp12, coeffs: &Line, p: &G1Affine) -> Fp12 {
    let c0 = coeffs.0.mul_by_fp(&p.y);
    let c1 = coeffs.1.mul_by_fp(&p.x);
    f.mul_by_014(&coeffs.2, &c1, &c0)
}

/// Bits of `|x|` below the most significant one, high to low — the
/// iterations of the Miller loop.
fn loop_bits() -> impl Iterator<Item = bool> {
    let top = 63 - BLS_X.leading_zeros();
    (0..top).rev().map(|i| (BLS_X >> i) & 1 == 1)
}

/// The line functions of one G2 point along the Miller loop, in the order
/// the loop meets them: one per doubling, one more after it where the bit
/// of `|x|` is set. Empty for the point at infinity.
fn prepare(q: &G2Affine) -> Vec<Line> {
    let mut lines = Vec::new();
    if !q.infinity {
        let mut r = G2Projective::from(*q);
        for bit in loop_bits() {
            lines.push(doubling_step(&mut r));
            if bit {
                lines.push(addition_step(&mut r, q));
            }
        }
    }
    lines
}

/// The line table for `q`: the process-wide one when `q` is the generator
/// (the G2 argument of the signature side of every BLS check), a fresh one
/// otherwise.
fn lines_of(q: &G2Affine) -> Cow<'static, [Line]> {
    static GENERATOR: OnceLock<Vec<Line>> = OnceLock::new();
    if *q == G2Affine::generator() {
        Cow::Borrowed(GENERATOR.get_or_init(|| prepare(q)))
    } else {
        Cow::Owned(prepare(q))
    }
}

/// The Miller loop over all `pairs` — a G1 point and the line table of a
/// G2 point each — at once, producing the unreduced value of
/// `∏ e(pᵢ, qᵢ)`. A pair with the point at infinity on either side
/// contributes the factor one.
fn miller_loop(pairs: &[(&G1Affine, &[Line])]) -> Fp12 {
    let pairs: Vec<_> = pairs
        .iter()
        .filter(|(p, lines)| !p.infinity && !lines.is_empty())
        .collect();
    let mut next = 0;
    let mut times_next_lines = |f: Fp12| {
        let step = next;
        next += 1;
        pairs
            .iter()
            .fold(f, |f, (p, lines)| ell(&f, &lines[step], p))
    };
    let mut f = Fp12::ONE;
    for bit in loop_bits() {
        f = times_next_lines(f.square());
        if bit {
            f = times_next_lines(f);
        }
    }
    // x < 0: conjugate.
    f.conjugate()
}

/// Squaring in the quartic extension used by cyclotomic squaring.
fn fp4_square(a: &Fp2, b: &Fp2) -> (Fp2, Fp2) {
    let t0 = a.square();
    let t1 = b.square();
    let c0 = t1.mul_by_nonresidue().add(&t0);
    let c1 = a.add(b).square().sub(&t0).sub(&t1);
    (c0, c1)
}

/// Granger–Scott squaring for elements of the cyclotomic subgroup.
fn cyclotomic_square(f: &Fp12) -> Fp12 {
    let mut z0 = f.c0.c0;
    let mut z4 = f.c0.c1;
    let mut z3 = f.c0.c2;
    let mut z2 = f.c1.c0;
    let mut z1 = f.c1.c1;
    let mut z5 = f.c1.c2;

    let (t0, t1) = fp4_square(&z0, &z1);
    z0 = t0.sub(&z0);
    z0 = z0.double().add(&t0);
    z1 = t1.add(&z1);
    z1 = z1.double().add(&t1);

    let (t0, t1) = fp4_square(&z2, &z3);
    let (t2, t3) = fp4_square(&z4, &z5);

    z4 = t0.sub(&z4);
    z4 = z4.double().add(&t0);
    z5 = t1.add(&z5);
    z5 = z5.double().add(&t1);

    let t0 = t3.mul_by_nonresidue();
    z2 = t0.add(&z2);
    z2 = z2.double().add(&t0);
    z3 = t2.sub(&z3);
    z3 = z3.double().add(&t2);

    Fp12 {
        c0: crate::fp6::Fp6::new(z0, z4, z3),
        c1: crate::fp6::Fp6::new(z2, z1, z5),
    }
}

/// `f^|x|` with cyclotomic squarings, then conjugated because `x < 0`.
fn cyclotomic_exp(f: &Fp12) -> Fp12 {
    let mut tmp = Fp12::ONE;
    let mut found_one = false;
    for i in (0..64).rev() {
        if found_one {
            tmp = cyclotomic_square(&tmp);
        }
        if (BLS_X >> i) & 1 == 1 {
            found_one = true;
            tmp = tmp.mul(f);
        }
    }
    tmp.conjugate()
}

thread_local! {
    static FINAL_EXPONENTIATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Final exponentiations the calling thread has performed so far. Every
/// pairing check costs exactly one, on the thread that asks for it, so the
/// difference across a call is the number of checks it made — what tests
/// assert on instead of time.
pub fn final_exponentiations() -> u64 {
    FINAL_EXPONENTIATIONS.with(Cell::get)
}

/// The final exponentiation `f^{(p^12 - 1)/r}`.
fn final_exponentiation(f: &Fp12) -> Gt {
    FINAL_EXPONENTIATIONS.with(|n| n.set(n.get() + 1));
    let mut f = *f;
    // Easy part: f^{(p^6 - 1)(p^2 + 1)}.
    let mut t0 = f;
    for _ in 0..6 {
        t0 = t0.frobenius();
    }
    let t1 = f.invert().expect("Miller loop output is nonzero");
    let mut t2 = t0.mul(&t1);
    let t1 = t2;
    t2 = t2.frobenius().frobenius();
    t2 = t2.mul(&t1);
    // Hard part (addition-chain form used by BLS12-381 implementations).
    let t1 = cyclotomic_square(&t2).conjugate();
    let mut t3 = cyclotomic_exp(&t2);
    let mut t4 = cyclotomic_square(&t3);
    let mut t5 = t1.mul(&t3);
    let t1 = cyclotomic_exp(&t5);
    let t0 = cyclotomic_exp(&t1);
    let mut t6 = cyclotomic_exp(&t0);
    t6 = t6.mul(&t4);
    t4 = cyclotomic_exp(&t6);
    t5 = t5.conjugate();
    t4 = t4.mul(&t5).mul(&t2);
    t5 = t2.conjugate();
    let mut t1 = t1.mul(&t2);
    t1 = t1.frobenius().frobenius().frobenius();
    t6 = t6.mul(&t5);
    t6 = t6.frobenius();
    t3 = t3.mul(&t0);
    t3 = t3.frobenius().frobenius();
    t3 = t3.mul(&t1);
    t3 = t3.mul(&t6);
    f = t3.mul(&t4);
    Gt(f)
}

/// Computes the pairing `e(p, q)`.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
    final_exponentiation(&miller_loop(&[(p, &lines_of(q))]))
}

/// Computes `∏ e(p_i, q_i)` with a shared Miller loop and final
/// exponentiation — the shape used by batched signature verification.
pub fn multi_pairing(pairs: &[(G1Affine, G2Affine)]) -> Gt {
    let tables: Vec<_> = pairs.iter().map(|(_, q)| lines_of(q)).collect();
    let pairs: Vec<_> = pairs
        .iter()
        .zip(&tables)
        .map(|((p, _), lines)| (p, lines.as_ref()))
        .collect();
    final_exponentiation(&miller_loop(&pairs))
}

/// Checks `e(a1, a2) == e(b1, b2)` using the product trick:
/// `e(a1, a2)·e(-b1, b2) == 1`. One Miller loop, one final exponentiation.
pub fn pairing_equality(a1: &G1Affine, a2: &G2Affine, b1: &G1Affine, b2: &G2Affine) -> bool {
    let f = miller_loop(&[(a1, &lines_of(a2)), (&b1.neg(), &lines_of(b2))]);
    final_exponentiation(&f).is_identity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use crate::g1::G1Projective;
    use proptest::prelude::*;

    /// The single-pair pairing this module used to be built on: lines
    /// computed on the fly, one loop and one final exponentiation per
    /// pair. Kept as the reference the shared loop is checked against.
    fn reference_pairing(p: &G1Affine, q: &G2Affine) -> Gt {
        if p.infinity || q.infinity {
            return Gt::IDENTITY;
        }
        let mut r = G2Projective::from(*q);
        let mut f = Fp12::ONE;
        for bit in loop_bits() {
            f = ell(&f.mul(&f), &doubling_step(&mut r), p);
            if bit {
                f = ell(&f, &addition_step(&mut r, q), p);
            }
        }
        final_exponentiation(&f.conjugate())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The shared loop over k = 1…4 pairs, any of them with infinity on
        /// either side and any G2 argument the generator, equals the
        /// product of reference pairings.
        #[test]
        fn shared_loop_matches_product_of_reference_pairings(
            seed in any::<[u8; 32]>(),
            shapes in proptest::collection::vec(0u8..9, 1..=4),
        ) {
            let mut rng = HmacDrbg::new(b"pairing oracle", &seed);
            let pairs: Vec<(G1Affine, G2Affine)> = shapes
                .iter()
                .map(|shape| {
                    let p = match shape % 3 {
                        0 => G1Affine::identity(),
                        _ => G1Projective::random(&mut rng).to_affine(),
                    };
                    let q = match shape / 3 {
                        0 => G2Affine::identity(),
                        1 => G2Affine::generator(),
                        _ => G2Projective::random(&mut rng).to_affine(),
                    };
                    (p, q)
                })
                .collect();
            let expected = pairs
                .iter()
                .fold(Gt::IDENTITY, |acc, (p, q)| acc.mul(&reference_pairing(p, q)));
            prop_assert_eq!(multi_pairing(&pairs), expected);
            let (p, q) = &pairs[0];
            prop_assert_eq!(pairing(p, q), reference_pairing(p, q));
            if let [(a1, a2), (b1, b2), ..] = pairs.as_slice() {
                prop_assert_eq!(
                    pairing_equality(a1, a2, b1, b2),
                    reference_pairing(a1, a2) == reference_pairing(b1, b2)
                );
                prop_assert!(pairing_equality(a1, a2, a1, a2));
            }
        }
    }

    #[test]
    fn the_shared_generator_table_is_the_freshly_prepared_one() {
        let g = G2Affine::generator();
        let shared = lines_of(&g);
        assert!(matches!(shared, Cow::Borrowed(_)));
        assert_eq!(shared.as_ref(), prepare(&g).as_slice());
        assert_eq!(shared.len(), 68);
        // Any other point gets its own.
        let other = G2Projective::generator().double().to_affine();
        assert!(matches!(lines_of(&other), Cow::Owned(_)));
        assert!(lines_of(&G2Affine::identity()).is_empty());
    }

    #[test]
    fn every_pairing_check_is_one_counted_final_exponentiation() {
        let (g1, g2) = (G1Affine::generator(), G2Affine::generator());
        let before = final_exponentiations();
        pairing(&g1, &g2);
        multi_pairing(&[(g1, g2), (g1, g2), (g1, g2)]);
        assert!(pairing_equality(&g1, &g2, &g1, &g2));
        assert_eq!(final_exponentiations() - before, 3);
    }

    #[test]
    fn non_degenerate() {
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        assert!(!e.is_identity());
        assert!(!e.0.is_zero());
    }

    #[test]
    fn identity_inputs_map_to_identity() {
        let e = pairing(&G1Affine::identity(), &G2Affine::generator());
        assert!(e.is_identity());
        let e = pairing(&G1Affine::generator(), &G2Affine::identity());
        assert!(e.is_identity());
    }

    #[test]
    fn bilinear_in_g1() {
        let g1 = G1Projective::generator();
        let g2 = G2Affine::generator();
        let e1 = pairing(&g1.double().to_affine(), &g2);
        let e2 = pairing(&g1.to_affine(), &g2);
        assert_eq!(e1, e2.mul(&e2), "e(2P, Q) == e(P, Q)^2");
    }

    #[test]
    fn bilinear_in_g2() {
        let g1 = G1Affine::generator();
        let g2 = G2Projective::generator();
        let e1 = pairing(&g1, &g2.double().to_affine());
        let e2 = pairing(&g1, &g2.to_affine());
        assert_eq!(e1, e2.mul(&e2), "e(P, 2Q) == e(P, Q)^2");
    }

    #[test]
    fn bilinear_random_scalars() {
        let mut rng = HmacDrbg::new(b"pairing", b"bilinear");
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let pa = G1Projective::generator().mul_scalar(&a).to_affine();
        let qb = crate::g2::G2Projective::generator()
            .mul_scalar(&b)
            .to_affine();
        let lhs = pairing(&pa, &qb);
        let base = pairing(&G1Affine::generator(), &G2Affine::generator());
        let rhs = base.pow(&a.mul(&b));
        assert_eq!(lhs, rhs, "e(aP, bQ) == e(P, Q)^{{ab}}");
    }

    #[test]
    fn multiplicative_in_first_argument() {
        let mut rng = HmacDrbg::new(b"pairing", b"additive");
        let p1 = G1Projective::random(&mut rng);
        let p2 = G1Projective::random(&mut rng);
        let q = G2Affine::generator();
        let lhs = pairing(&p1.add(&p2).to_affine(), &q);
        let rhs = pairing(&p1.to_affine(), &q).mul(&pairing(&p2.to_affine(), &q));
        assert_eq!(lhs, rhs, "e(P1 + P2, Q) == e(P1, Q)·e(P2, Q)");
    }

    #[test]
    fn gt_has_order_r() {
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        let e_r = Gt(e.0.pow_vartime(&Fr::MODULUS));
        assert!(e_r.is_identity(), "GT elements have order dividing r");
    }

    #[test]
    fn multi_pairing_matches_product() {
        let mut rng = HmacDrbg::new(b"pairing", b"multi");
        let p1 = G1Projective::random(&mut rng).to_affine();
        let p2 = G1Projective::random(&mut rng).to_affine();
        let q = G2Affine::generator();
        let combined = multi_pairing(&[(p1, q), (p2, q)]);
        let separate = pairing(&p1, &q).mul(&pairing(&p2, &q));
        assert_eq!(combined, separate);
    }

    #[test]
    fn pairing_equality_check() {
        let mut rng = HmacDrbg::new(b"pairing", b"equality");
        let a = Fr::random(&mut rng);
        // e(aP, Q) == e(P, aQ)
        let pa = G1Projective::generator().mul_scalar(&a).to_affine();
        let qa = crate::g2::G2Projective::generator()
            .mul_scalar(&a)
            .to_affine();
        assert!(pairing_equality(
            &pa,
            &G2Affine::generator(),
            &G1Affine::generator(),
            &qa
        ));
        // Negative case.
        let b = a.add(&Fr::ONE);
        let qb = crate::g2::G2Projective::generator()
            .mul_scalar(&b)
            .to_affine();
        assert!(!pairing_equality(
            &pa,
            &G2Affine::generator(),
            &G1Affine::generator(),
            &qb
        ));
    }

    #[test]
    fn gt_pow_homomorphism() {
        let mut rng = HmacDrbg::new(b"pairing", b"gtpow");
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        assert_eq!(e.pow(&a).pow(&b), e.pow(&a.mul(&b)));
        assert_eq!(e.pow(&a).mul(&e.pow(&b)), e.pow(&a.add(&b)));
    }
}
