//! `Fp` — the BLS12-381 base field,
//! `p = 0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f624`
//! `1eabfffeb153ffffb9feffffffffaaab` (381 bits).

use crate::field::prime_field;
use crate::limbs;

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
    ]
);

impl Fp {
    /// Square root for `p ≡ 3 (mod 4)`: `x^{(p+1)/4}`, validated by squaring.
    pub fn sqrt(&self) -> Option<Self> {
        // (p + 1) / 4 == (p - 3) / 4 + 1; compute from the modulus to avoid
        // hardcoding another constant.
        let p_plus_1_over_4 = {
            let minus3 = limbs::sub_small(&Self::MODULUS, 3);
            let q = limbs::div_by_u64(&minus3, 4);
            let mut one = [0u64; 6];
            one[0] = 1;
            let (sum, _) = limbs::add(&q, &one);
            sum
        };
        let candidate = self.pow_vartime(&p_plus_1_over_4);
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }

    /// Multiplies by the small constant `k` (used by curve formulas).
    pub fn mul_small(&self, k: u64) -> Self {
        self.mul(&Self::from_u64(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

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
