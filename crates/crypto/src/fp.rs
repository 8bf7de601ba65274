//! `Fp` — the BLS12-381 base field,
//! `p = 0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f624`
//! `1eabfffeb153ffffb9feffffffffaaab` (381 bits).

use crate::field::prime_field;
use crate::limbs;
use std::sync::OnceLock;

prime_field!(
    /// An element of the BLS12-381 base field `Fp` in Montgomery form.
    Fp,
    6,
    48,
    [
        0xb9fe_ffff_ffff_aaab,
        0x1eab_fffe_b153_ffff,
        0x6730_d2a0_f6b0_f624,
        0x6477_4b84_f385_12bf,
        0x4b1b_a7b6_434b_acd7,
        0x1a01_11ea_397f_e69a,
    ],
    0x89f3_fffc_fffc_fffd,
    [
        0x7609_0000_0002_fffd,
        0xebf4_000b_c40c_0002,
        0x5f48_9857_53c7_58ba,
        0x77ce_5853_7052_5745,
        0x5c07_1a97_a256_ec6d,
        0x15f6_5ec3_fa80_e493,
    ],
    [
        0xf4df_1f34_1c34_1746,
        0x0a76_e6a6_09d1_04f1,
        0x8de5_476c_4c95_b6d5,
        0x67eb_88a9_939d_83c0,
        0x9a79_3e85_b519_952d,
        0x1198_8fe5_92ca_e3aa,
    ],
    [
        0xed48_ac6b_d94c_a1e0,
        0x315f_831e_03a7_adf8,
        0x9a53_352a_615e_29dd,
        0x34c0_4e5e_921e_1761,
        0x2512_d435_6572_4728,
        0x0aa6_3460_9175_5d4d,
    ]
);

/// Odd digits of [`root_window`], `1, 3, …, 31`: the powers of `x` a
/// square root takes before it walks the window.
const WINDOW_DIGITS: usize = 16;

/// `(p + 1)/4` as a width-5 sliding window, from the top: each step is a
/// number of squarings and then an odd digit below 32 to multiply by, or
/// `0` for none. The first step's squarings are of one and are skipped;
/// its digit is where the root starts. Computed once, from the modulus,
/// as `(p − 3)/4 + 1`.
fn root_window() -> &'static [(u16, u8)] {
    static WINDOW: OnceLock<Vec<(u16, u8)>> = OnceLock::new();
    WINDOW.get_or_init(|| {
        let mut one = [0u64; 6];
        one[0] = 1;
        let exponent = limbs::add(
            &limbs::div_by_u64(&limbs::sub_small(&Fp::MODULUS, 3), 4),
            &one,
        )
        .0;
        let mut steps = Vec::new();
        let (mut top, mut squarings) = (384, 0);
        while top > 0 {
            top -= 1;
            squarings += 1;
            if !limbs::bit(&exponent, top) {
                continue;
            }
            // The window ends at the lowest set bit of the five from `top`.
            let mut low = top.saturating_sub(4);
            while !limbs::bit(&exponent, low) {
                low += 1;
            }
            let digit = (low..=top)
                .rev()
                .fold(0, |d, i| d << 1 | u8::from(limbs::bit(&exponent, i)));
            steps.push((squarings + (top - low) as u16, digit));
            (top, squarings) = (low, 0);
        }
        if squarings > 0 {
            steps.push((squarings, 0));
        }
        steps
    })
}

impl Fp {
    /// `1/2 = (p + 1)/2`, in Montgomery form: a constant of the field
    /// rather than an inversion wherever it is used.
    pub(crate) const HALF: Self = Self([
        0x1804_0000_0001_5554,
        0x8550_0005_3ab0_0001,
        0x633c_b57c_253c_276f,
        0x6e22_d1ec_31eb_b502,
        0xd391_6126_f2d1_4ca2,
        0x17fb_b857_1a00_6596,
    ]);

    /// Square root for `p ≡ 3 (mod 4)`: `x^{(p+1)/4}`, validated by squaring.
    /// The exponent is walked as a width-5 sliding window ([`root_window`]):
    /// the odd powers `x, x³, …, x³¹` first, then a squaring per bit and one
    /// multiplication per window, 457 operations where a bit at a time
    /// takes 613 (≈ 28 µs on a 2-core x86-64 guest, against ≈ 42).
    pub fn sqrt(&self) -> Option<Self> {
        let x2 = self.square();
        let mut odd = [*self; WINDOW_DIGITS];
        for k in 1..WINDOW_DIGITS {
            odd[k] = odd[k - 1].mul(&x2);
        }
        let (first, rest) = root_window()
            .split_first()
            .expect("the exponent is not zero");
        let mut candidate = odd[usize::from(first.1 / 2)];
        for &(squarings, digit) in rest {
            for _ in 0..squarings {
                candidate = candidate.square();
            }
            if digit != 0 {
                candidate = candidate.mul(&odd[usize::from(digit / 2)]);
            }
        }
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }

    /// Whether `self` has a square root — exactly when [`Self::sqrt`]
    /// returns one, zero included — by its Jacobi symbol
    /// ([`limbs::jacobi`], ≈ 4 µs on a 2-core x86-64 guest, where the
    /// square root's exponentiation costs ≈ 28). The symbol reads the
    /// Montgomery representative `aR` as it is: `R = 2³⁸⁴` is a square, so
    /// `aR` is one exactly when `a` is.
    pub fn is_square(&self) -> bool {
        limbs::jacobi(&self.0, &Self::MODULUS) >= 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn r3_is_r2_times_r2_in_montgomery_form() {
        let r3 = crate::limbs::mont_mul(&Fp::R2, &Fp::R2, &Fp::MODULUS, Fp::INV);
        assert_eq!(Fp::R3, r3);
    }

    #[test]
    fn half_is_the_inverse_of_two() {
        assert_eq!(Fp::HALF.double(), Fp::ONE);
        assert_eq!(Fp::from_u64(2).invert(), Some(Fp::HALF));
    }

    fn arb_fp() -> impl Strategy<Value = Fp> {
        any::<[u8; 96]>().prop_map(|bytes| Fp::from_bytes_wide(&bytes))
    }

    #[test]
    fn identities() {
        assert!(Fp::ZERO.is_zero());
        assert_eq!(Fp::ONE.mul(&Fp::ONE), Fp::ONE);
        assert_eq!(Fp::from_u64(7).add(&Fp::ZERO), Fp::from_u64(7));
    }

    #[test]
    fn small_arithmetic() {
        let a = Fp::from_u64(1_000_003);
        let b = Fp::from_u64(999_999_999);
        assert_eq!(
            a.mul(&b).to_canonical_limbs()[0],
            1_000_003u64 * 999_999_999
        );
        assert_eq!(a.add(&b).to_canonical_limbs()[0], 1_000_003 + 999_999_999);
        assert_eq!(b.sub(&a).to_canonical_limbs()[0], 999_999_999 - 1_000_003);
    }

    #[test]
    fn modulus_wraps_to_zero() {
        // p - 1 + 1 == 0
        let p_minus_1 = Fp::from_raw_unchecked(crate::limbs::sub_small(&Fp::MODULUS, 1));
        assert!(p_minus_1.add(&Fp::ONE).is_zero());
        assert_eq!(Fp::ZERO.sub(&Fp::ONE), p_minus_1);
        assert_eq!(Fp::ONE.neg(), p_minus_1);
    }

    #[test]
    fn rejects_unreduced_bytes() {
        let mut bytes = [0xffu8; 48];
        assert!(Fp::from_bytes_be(&bytes).is_none());
        bytes = [0u8; 48];
        bytes[47] = 1;
        assert_eq!(Fp::from_bytes_be(&bytes), Some(Fp::ONE));
    }

    #[test]
    fn bytes_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..32 {
            let a = Fp::random(&mut rng);
            assert_eq!(Fp::from_bytes_be(&a.to_bytes_be()), Some(a));
        }
    }

    #[test]
    fn invert_special_cases() {
        assert!(Fp::ZERO.invert().is_none());
        assert_eq!(Fp::ONE.invert(), Some(Fp::ONE));
    }

    #[test]
    fn sqrt_of_squares() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..8 {
            let a = Fp::random(&mut rng);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == a.neg());
        }
    }

    /// The window costs what the square root's doc says: a squaring and
    /// fifteen multiplications for the odd powers, then one squaring per
    /// bit below the first window and a multiplication per further window.
    #[test]
    fn the_root_window_takes_457_operations() {
        let (first, rest) = root_window().split_first().unwrap();
        let ops: usize = rest
            .iter()
            .map(|&(squarings, digit)| usize::from(squarings) + usize::from(digit != 0))
            .sum();
        assert_eq!(1 + 15 + ops, 457, "first digit {}", first.1);
        assert!(root_window()
            .iter()
            .all(|&(_, d)| d < 32 && (d == 0 || d % 2 == 1)));
    }

    #[test]
    fn sqrt_rejects_non_residue() {
        // Find some non-residue deterministically.
        let mut found = false;
        for k in 2u64..50 {
            let x = Fp::from_u64(k);
            if x.sqrt().is_none() {
                found = true;
                break;
            }
        }
        assert!(found, "expected a quadratic non-residue below 50");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn addition_commutes(a in arb_fp(), b in arb_fp()) {
            prop_assert_eq!(a.add(&b), b.add(&a));
        }

        #[test]
        fn multiplication_commutes(a in arb_fp(), b in arb_fp()) {
            prop_assert_eq!(a.mul(&b), b.mul(&a));
        }

        #[test]
        fn mul_associates(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        }

        #[test]
        fn distributive(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }

        #[test]
        fn add_neg_is_zero(a in arb_fp()) {
            prop_assert!(a.add(&a.neg()).is_zero());
        }

        #[test]
        fn invert_round_trip(a in arb_fp(), shift in 0usize..380) {
            prop_assume!(!a.is_zero());
            // The Euclidean inverse against Fermat's, which it replaced —
            // on `a`, and on the representatives its halvings treat
            // specially: a power of two, its neighbours, one, `m − 1`.
            let (mut power, mut one) = ([0u64; 6], [0u64; 6]);
            power[shift / 64] = 1 << (shift % 64);
            one[0] = 1;
            let fermat = limbs::sub_small(&Fp::MODULUS, 2);
            let raw = [
                power,
                limbs::sub_small(&power, 1),
                limbs::add(&power, &one).0,
                limbs::sub_small(&Fp::MODULUS, 1),
            ];
            let raw = raw.map(Fp::from_raw_unchecked).into_iter();
            for x in raw.chain([a, a.neg()]).filter(|x| !x.is_zero()) {
                let inv = x.invert().unwrap();
                prop_assert_eq!(x.mul(&inv), Fp::ONE);
                prop_assert_eq!(inv, x.pow_vartime(&fermat));
            }
        }

        /// The Jacobi symbol against the square root it stands in front
        /// of: on `a`, its square, and what the symbol treats specially —
        /// zero, one, `p − 1` (a non-square, `p ≡ 3 mod 4`), the smallest
        /// non-residue, and representatives whose low limbs are zero, so
        /// that twos are stripped 63 and then 1 at a time and across limbs.
        #[test]
        fn is_square_agrees_with_sqrt(a in arb_fp(), limb in 1usize..6, low in any::<u64>()) {
            let non_residue = (2u64..)
                .map(Fp::from_u64)
                .find(|x| x.sqrt().is_none())
                .expect("a non-residue below 2^64");
            // 64·limb trailing zeros, below p (whose top limb is above 2⁶⁰).
            let mut raw = [0u64; 6];
            raw[limb] = (low | 1) >> if limb == 5 { 4 } else { 0 };
            let shifted = Fp(raw);
            let cases = [a, a.square(), Fp::ZERO, Fp::ONE, Fp::ONE.neg(), non_residue, shifted];
            for x in cases {
                prop_assert_eq!(x.is_square(), x.sqrt().is_some());
            }
            prop_assert!(a.square().is_square() && !Fp::ONE.neg().is_square() && !non_residue.is_square());
        }

        /// The windowed root against `x^((p + 1)/4)` a bit at a time, the
        /// exponentiation it replaced: equal on a square, and refused on a
        /// non-square (a square times the smallest non-residue).
        #[test]
        fn sqrt_is_the_plain_exponentiation(a in arb_fp()) {
            let mut one = [0u64; 6];
            one[0] = 1;
            let exponent = limbs::add(&limbs::div_by_u64(&limbs::sub_small(&Fp::MODULUS, 3), 4), &one).0;
            let non_residue = (2u64..)
                .map(Fp::from_u64)
                .find(|x| !x.is_square())
                .expect("a non-residue below 2^64");
            for x in [a.square(), Fp::ONE, Fp::ZERO] {
                prop_assert_eq!(x.sqrt(), Some(x.pow_vartime(&exponent)));
            }
            if !a.is_zero() {
                prop_assert_eq!(a.square().mul(&non_residue).sqrt(), None);
            }
        }

        #[test]
        fn square_matches_mul(a in arb_fp()) {
            prop_assert_eq!(a.square(), a.mul(&a));
        }

        #[test]
        fn wide_reduction_is_canonical(bytes in any::<[u8; 96]>()) {
            let a = Fp::from_bytes_wide(&bytes);
            // Round-tripping through canonical bytes must succeed, i.e. the
            // element is fully reduced.
            prop_assert_eq!(Fp::from_bytes_be(&a.to_bytes_be()), Some(a));
        }
    }
}
