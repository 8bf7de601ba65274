//! `G2` — the order-`r` subgroup of `E'(Fp2): y² = x³ + 4(u + 1)`.
//!
//! The group law, the ladder and the compressed encoding are
//! [`crate::curve`]'s, shared with G1. What is G2's own is here: its `b`
//! and generator, the byte order of its encoding (`x.c1 ‖ x.c0`), and its
//! subgroup test, `[r]P == O` on the ladder. Its scalar multiplication is
//! that ladder too: G2 points are multiplied only to deal and check
//! threshold keys. Nothing hashes to G2, so nothing clears its cofactor.

use crate::curve::{self, sealed::Sealed, Affine, BaseField, Projective};
use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::fr::Fr;

impl Sealed for Fp2 {}

/// `Fp2` under the group law of [`crate::curve`], with `b' = 4(u + 1)`.
impl BaseField for Fp2 {
    curve::forward_to_inherent!(Fp2);
    /// `4 + 4u`.
    const B: Self = Fp2 {
        c0: <Fp as BaseField>::B,
        c1: <Fp as BaseField>::B,
    };

    /// `x.c1 ‖ x.c0`, 48 bytes each.
    fn write_be(&self, out: &mut [u8]) {
        let (c1, c0) = out.split_at_mut(48);
        c1.copy_from_slice(&self.c1.to_bytes_be());
        c0.copy_from_slice(&self.c0.to_bytes_be());
    }
    fn read_be(bytes: &[u8]) -> Option<Self> {
        let (c1, c0) = bytes.split_at_checked(48)?;
        Some(Fp2::new(
            Fp::from_bytes_be(c0.try_into().ok()?)?,
            Fp::from_bytes_be(c1.try_into().ok()?)?,
        ))
    }
}

/// Affine G2 point (or the point at infinity).
pub type G2Affine = Affine<Fp2>;

/// Jacobian-projective G2 point.
pub type G2Projective = Projective<Fp2>;

impl G2Affine {
    /// The standard generator of G2.
    pub fn generator() -> Self {
        Self {
            x: Fp2::new(
                Fp::from_raw_unchecked([
                    0xd480_56c8_c121_bdb8,
                    0x0bac_0326_a805_bbef,
                    0xb451_0b64_7ae3_d177,
                    0xc6e4_7ad4_fa40_3b02,
                    0x2608_0527_2dc5_1051,
                    0x024a_a2b2_f08f_0a91,
                ]),
                Fp::from_raw_unchecked([
                    0xe5ac_7d05_5d04_2b7e,
                    0x334c_f112_1394_5d57,
                    0xb5da_61bb_dc7f_5049,
                    0x596b_d0d0_9920_b61a,
                    0x7dac_d3a0_8827_4f65,
                    0x13e0_2b60_5271_9f60,
                ]),
            ),
            y: Fp2::new(
                Fp::from_raw_unchecked([
                    0xe193_5486_08b8_2801,
                    0x923a_c9cc_3bac_a289,
                    0x6d42_9a69_5160_d12c,
                    0xadfd_9baa_8cbd_d3a7,
                    0x8cc9_cdc6_da2e_351a,
                    0x0ce5_d527_727d_6e11,
                ]),
                Fp::from_raw_unchecked([
                    0xaaa9_075f_f05f_79be,
                    0x3f37_0d27_5cec_1da1,
                    0x2674_92ab_572e_99ab,
                    0xcb3e_287e_85a7_63af,
                    0x32ac_d2b0_2bc2_8b99,
                    0x0606_c4a0_2ea7_34cc,
                ]),
            ),
            infinity: false,
        }
    }

    /// Subgroup membership: `[r]P == O`. Variable time.
    pub fn is_torsion_free(&self) -> bool {
        G2Projective::from(*self)
            .mul_limbs(&Fr::MODULUS)
            .is_identity()
    }

    /// Compressed encoding: 96 bytes, big-endian `x.c1 ‖ x.c0` under the
    /// flag bits of [`crate::curve`].
    pub fn to_compressed(&self) -> [u8; 96] {
        self.compress()
    }

    /// Decodes a compressed point, enforcing canonical encoding, curve
    /// membership, and r-torsion membership.
    pub fn from_compressed(bytes: &[u8; 96]) -> Option<Self> {
        Self::decompress(bytes).filter(Self::is_torsion_free)
    }
}

impl G2Projective {
    /// The standard generator.
    pub fn generator() -> Self {
        G2Affine::generator().into()
    }

    /// Scalar multiplication by a field scalar, on the ladder.
    pub fn mul_scalar(&self, k: &Fr) -> Self {
        self.mul_limbs(&k.to_canonical_limbs())
    }

    /// Samples a random subgroup element.
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::generator().mul_scalar(&Fr::random(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use proptest::prelude::*;

    #[test]
    fn generator_on_curve_and_torsion_free() {
        let g = G2Affine::generator();
        assert!(g.is_on_curve());
        assert!(g.is_torsion_free());
    }

    #[test]
    fn group_laws() {
        let g = G2Projective::generator();
        let id = G2Projective::identity();
        assert_eq!(g.add(&id), g);
        assert_eq!(g.double(), g.add(&g));
        assert!(g.add(&g.neg()).is_identity());
    }

    #[test]
    fn scalar_mul_matches_additions() {
        let g = G2Projective::generator();
        assert_eq!(g.mul_scalar(&Fr::from_u64(3)), g.add(&g).add(&g));
        assert!(g.mul_scalar(&Fr::ZERO).is_identity());
    }

    #[test]
    fn order_annihilates_generator() {
        let g = G2Projective::generator();
        assert!(g.mul_limbs(&Fr::MODULUS).is_identity());
    }

    #[test]
    fn scalar_mul_homomorphism() {
        let mut rng = HmacDrbg::new(b"g2", b"hom");
        let g = G2Projective::generator();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        assert_eq!(g.mul_scalar(&a).mul_scalar(&b), g.mul_scalar(&a.mul(&b)));
    }

    /// The compressed bytes of `G2`, `[2]G2` and `[r − 1]G2 = −G2`, recorded
    /// before the group law moved into [`crate::curve`]: encoding, doubling
    /// and the ladder, pinned bit for bit.
    #[test]
    fn encodings_are_pinned() {
        let hex = |p: G2Projective| -> String {
            p.to_affine()
                .to_compressed()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect()
        };
        let g = G2Projective::generator();
        let r_minus_1 = crate::limbs::sub_small(&Fr::MODULUS, 1);
        assert_eq!(hex(g), "93e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049334cf11213945d57e5ac7d055d042b7e024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8");
        assert_eq!(hex(g.double()), "aa4edef9c1ed7f729f520e47730a124fd70662a904ba1074728114d1031e1572c6c886f6b57ec72a6178288c47c335771638533957d540a9d2370f17cc7ed5863bc0b995b8825e0ee1ea1e1e4d00dbae81f14b0bf3611b78c952aacab827a053");
        assert_eq!(hex(g.mul_limbs(&r_minus_1)), "b3e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049334cf11213945d57e5ac7d055d042b7e024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8");
    }

    #[test]
    fn compressed_round_trip() {
        let mut rng = HmacDrbg::new(b"g2", b"compress");
        for _ in 0..4 {
            let p = G2Projective::random(&mut rng).to_affine();
            let bytes = p.to_compressed();
            assert_eq!(G2Affine::from_compressed(&bytes), Some(p));
        }
        let id = G2Affine::identity();
        assert_eq!(G2Affine::from_compressed(&id.to_compressed()), Some(id));
    }

    #[test]
    fn compressed_rejects_garbage() {
        assert!(G2Affine::from_compressed(&[0u8; 96]).is_none());
        let mut bad = [0u8; 96];
        bad[0] = 0xc0;
        bad[95] = 7;
        assert!(G2Affine::from_compressed(&bad).is_none());
    }

    #[test]
    fn infinity_has_exactly_one_encoding() {
        // All eight flag patterns over a zero body: 0xe0 (infinity *and*
        // the sign bit) used to decode to the identity as well.
        let decoded: Vec<u8> = (0u8..8)
            .map(|flags| flags << 5)
            .filter(|&flags| {
                let mut bytes = [0u8; 96];
                bytes[0] = flags;
                G2Affine::from_compressed(&bytes).is_some()
            })
            .collect();
        assert_eq!(decoded, vec![0xc0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Whatever decodes re-encodes to the bytes it came from. Inputs
        /// are valid encodings (a G2 point, infinity) under every flag
        /// pattern, with and without a flipped body bit, and arbitrary
        /// bytes.
        #[test]
        fn decoding_is_canonical(
            seed in any::<[u8; 32]>(),
            infinity in any::<bool>(),
            flags in 0u8..8,
            flip in 0usize..2 * 96 * 8,
            arbitrary in any::<[u8; 96]>(),
        ) {
            let mut rng = HmacDrbg::new(b"g2 canonical", &seed);
            let point = if infinity {
                G2Affine::identity()
            } else {
                G2Projective::random(&mut rng).to_affine()
            };
            let mut bytes = point.to_compressed();
            bytes[0] = (bytes[0] & 0x1f) | (flags << 5);
            // Half the cases leave the body alone.
            if flip < 96 * 8 {
                bytes[flip / 8] ^= 1 << (flip % 8);
            }
            for candidate in [bytes, arbitrary] {
                if let Some(decoded) = G2Affine::from_compressed(&candidate) {
                    prop_assert_eq!(decoded.to_compressed(), candidate);
                    prop_assert!(decoded.is_on_curve() && decoded.is_torsion_free());
                }
            }
        }
    }
}
