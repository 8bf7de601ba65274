//! `Fr` — the BLS12-381 scalar field (the prime order of G1/G2/GT),
//! `r = 0x73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001`
//! (255 bits).

use crate::field::prime_field;

prime_field!(
    /// An element of the BLS12-381 scalar field `Fr` in Montgomery form.
    Fr,
    4,
    32,
    [
        0xffff_ffff_0000_0001,
        0x53bd_a402_fffe_5bfe,
        0x3339_d808_09a1_d805,
        0x73ed_a753_299d_7d48,
    ],
    0xffff_fffe_ffff_ffff,
    [
        0x0000_0001_ffff_fffe,
        0x5884_b7fa_0003_4802,
        0x998c_4fef_ecbc_4ff5,
        0x1824_b159_acc5_056f,
    ],
    [
        0xc999_e990_f3f2_9c6d,
        0x2b6c_edcb_8792_5c23,
        0x05d3_1496_7254_398f,
        0x0748_d9d9_9f59_ff11,
    ]
);

impl Fr {
    /// Derives a scalar from 64 uniformly random / pseudorandom bytes.
    /// This is the standard "hash to scalar" used for Fiat–Shamir challenges.
    pub fn from_hash_wide(bytes: &[u8; 64]) -> Self {
        Self::from_bytes_wide(bytes)
    }

    /// Samples a *non-zero* scalar (secret keys, polynomial coefficients).
    pub fn random_nonzero<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        loop {
            let s = Self::random(rng);
            if !s.is_zero() {
                return s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn arb_fr() -> impl Strategy<Value = Fr> {
        any::<[u8; 64]>().prop_map(|bytes| Fr::from_bytes_wide(&bytes))
    }

    #[test]
    fn identities() {
        assert!(Fr::ZERO.is_zero());
        assert_eq!(Fr::ONE.mul(&Fr::ONE), Fr::ONE);
    }

    #[test]
    fn small_values_round_trip() {
        for v in [0u64, 1, 2, 12345, u64::MAX] {
            assert_eq!(Fr::from_u64(v).to_canonical_limbs()[0], v);
        }
    }

    #[test]
    fn order_wraps() {
        let r_minus_1 = Fr::from_raw_unchecked(crate::limbs::sub_small(&Fr::MODULUS, 1));
        assert!(r_minus_1.add(&Fr::ONE).is_zero());
    }

    #[test]
    fn rejects_modulus_bytes() {
        let mut bytes = [0u8; 32];
        crate::limbs::limbs_to_be_bytes(&Fr::MODULUS, &mut bytes);
        assert!(Fr::from_bytes_be(&bytes).is_none());
    }

    #[test]
    fn random_nonzero_is_nonzero() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..16 {
            assert!(!Fr::random_nonzero(&mut rng).is_zero());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn field_axioms(a in arb_fr(), b in arb_fr(), c in arb_fr()) {
            prop_assert_eq!(a.add(&b), b.add(&a));
            prop_assert_eq!(a.mul(&b), b.mul(&a));
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }

        #[test]
        fn invert_round_trip(a in arb_fr(), shift in 0usize..254) {
            prop_assume!(!a.is_zero());
            // The Euclidean inverse against Fermat's, which it replaced —
            // on `a`, and on the representatives its halvings treat
            // specially: a power of two, its neighbours, one, `m − 1`.
            let (mut power, mut one) = ([0u64; 4], [0u64; 4]);
            power[shift / 64] = 1 << (shift % 64);
            one[0] = 1;
            let fermat = crate::limbs::sub_small(&Fr::MODULUS, 2);
            let raw = [
                power,
                crate::limbs::sub_small(&power, 1),
                crate::limbs::add(&power, &one).0,
                crate::limbs::sub_small(&Fr::MODULUS, 1),
            ];
            let raw = raw.map(Fr::from_raw_unchecked).into_iter();
            for x in raw.chain([a, a.neg()]).filter(|x| !x.is_zero()) {
                let inv = x.invert().unwrap();
                prop_assert_eq!(x.mul(&inv), Fr::ONE);
                prop_assert_eq!(inv, x.pow_vartime(&fermat));
            }
        }

        #[test]
        fn bytes_round_trip(a in arb_fr()) {
            prop_assert_eq!(Fr::from_bytes_be(&a.to_bytes_be()), Some(a));
        }

        #[test]
        fn pow_matches_repeated_mul(a in arb_fr(), e in 0u64..32) {
            let mut expect = Fr::ONE;
            for _ in 0..e {
                expect = expect.mul(&a);
            }
            prop_assert_eq!(a.pow_vartime(&[e]), expect);
        }
    }
}
