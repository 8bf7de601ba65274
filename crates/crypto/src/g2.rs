//! `G2` — the order-`r` subgroup of `E'(Fp2): y² = x³ + 4(u + 1)`.
//!
//! Same Jacobian representation and variable-time conventions as
//! [`crate::g1`].

use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::fr::Fr;

/// The G2 cofactor `h2` (508 bits), little-endian limbs.
pub const COFACTOR: [u64; 8] = [
    0xcf1c_38e3_1c72_38e5,
    0x1616_ec6e_786f_0c70,
    0x2153_7e29_3a66_91ae,
    0xa628_f1cb_4d9e_82ef,
    0xa68a_205b_2e5a_7ddf,
    0xcd91_de45_4708_5aba,
    0x091d_5079_2876_a202,
    0x05d5_43a9_5414_e7f1,
];

/// `b' = 4(u + 1)`, the G2 curve constant.
fn b2() -> Fp2 {
    Fp2::new(Fp::from_u64(4), Fp::from_u64(4))
}

/// Affine G2 point (or the point at infinity).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct G2Affine {
    pub x: Fp2,
    pub y: Fp2,
    pub infinity: bool,
}

/// Jacobian-projective G2 point.
#[derive(Clone, Copy, Debug)]
pub struct G2Projective {
    pub x: Fp2,
    pub y: Fp2,
    pub z: Fp2,
}

impl G2Affine {
    /// The point at infinity.
    pub const fn identity() -> Self {
        Self {
            x: Fp2::ZERO,
            y: Fp2::ZERO,
            infinity: true,
        }
    }

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

    /// Curve membership: `y² == x³ + 4(u+1)` (or infinity).
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let y2 = self.y.square();
        let rhs = self.x.square().mul(&self.x).add(&b2());
        y2 == rhs
    }

    /// Subgroup membership: `[r]P == O`. Variable time.
    pub fn is_torsion_free(&self) -> bool {
        G2Projective::from(*self)
            .mul_limbs(&Fr::MODULUS)
            .is_identity()
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: self.y.neg(),
            infinity: self.infinity,
        }
    }

    /// Compressed encoding: 96 bytes — big-endian `x.c1 || x.c0` with flag
    /// bits in the top three bits of the first byte (`0x80` compressed,
    /// `0x40` infinity, `0x20` sign of `y`).
    pub fn to_compressed(&self) -> [u8; 96] {
        let mut out = [0u8; 96];
        if self.infinity {
            out[0] = 0x80 | 0x40;
            return out;
        }
        out[..48].copy_from_slice(&self.x.c1.to_bytes_be());
        out[48..].copy_from_slice(&self.x.c0.to_bytes_be());
        debug_assert_eq!(out[0] & 0xe0, 0);
        out[0] |= 0x80;
        if self.y.is_odd() {
            out[0] |= 0x20;
        }
        out
    }

    /// Decodes a compressed point, enforcing canonical encoding, curve
    /// membership, and r-torsion membership.
    pub fn from_compressed(bytes: &[u8; 96]) -> Option<Self> {
        let flags = bytes[0] & 0xe0;
        if flags & 0x80 == 0 {
            return None;
        }
        if flags & 0x40 != 0 {
            // Infinity has one encoding: no sign bit, all-zero body.
            let mut body = *bytes;
            body[0] &= 0x1f;
            if flags & 0x20 != 0 || body.iter().any(|&b| b != 0) {
                return None;
            }
            return Some(Self::identity());
        }
        let mut c1b = [0u8; 48];
        c1b.copy_from_slice(&bytes[..48]);
        c1b[0] &= 0x1f;
        let mut c0b = [0u8; 48];
        c0b.copy_from_slice(&bytes[48..]);
        let x = Fp2::new(Fp::from_bytes_be(&c0b)?, Fp::from_bytes_be(&c1b)?);
        let y2 = x.square().mul(&x).add(&b2());
        let mut y = y2.sqrt()?;
        if y.is_odd() != (flags & 0x20 != 0) {
            y = y.neg();
        }
        let point = Self {
            x,
            y,
            infinity: false,
        };
        if point.is_torsion_free() {
            Some(point)
        } else {
            None
        }
    }
}

impl From<G2Affine> for G2Projective {
    fn from(p: G2Affine) -> Self {
        if p.infinity {
            G2Projective::identity()
        } else {
            G2Projective {
                x: p.x,
                y: p.y,
                z: Fp2::ONE,
            }
        }
    }
}

impl From<G2Projective> for G2Affine {
    fn from(p: G2Projective) -> Self {
        p.to_affine()
    }
}

impl PartialEq for G2Projective {
    fn eq(&self, other: &Self) -> bool {
        let self_inf = self.is_identity();
        let other_inf = other.is_identity();
        if self_inf || other_inf {
            return self_inf == other_inf;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x.mul(&z2z2) == other.x.mul(&z1z1)
            && self.y.mul(&z2z2.mul(&other.z)) == other.y.mul(&z1z1.mul(&self.z))
    }
}
impl Eq for G2Projective {}

impl G2Projective {
    /// The point at infinity.
    pub const fn identity() -> Self {
        Self {
            x: Fp2::ZERO,
            y: Fp2::ZERO,
            z: Fp2::ZERO,
        }
    }

    /// The standard generator.
    pub fn generator() -> Self {
        G2Affine::generator().into()
    }

    /// True for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts to affine coordinates.
    pub fn to_affine(&self) -> G2Affine {
        if self.is_identity() {
            return G2Affine::identity();
        }
        let z_inv = self.z.invert().expect("nonzero z");
        let z_inv2 = z_inv.square();
        G2Affine {
            x: self.x.mul(&z_inv2),
            y: self.y.mul(&z_inv2.mul(&z_inv)),
            infinity: false,
        }
    }

    /// Point doubling (Jacobian, a = 0).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = self.x.add(&b).square().sub(&a).sub(&c).double();
        let e = a.double().add(&a);
        let f = e.square();
        let x3 = f.sub(&d.double());
        let c8 = c.double().double().double();
        let y3 = e.mul(&d.sub(&x3)).sub(&c8);
        let z3 = self.y.mul(&self.z).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Point addition (Jacobian).
    pub fn add(&self, rhs: &Self) -> Self {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = rhs.x.mul(&z1z1);
        let s1 = self.y.mul(&z2z2).mul(&rhs.z);
        let s2 = rhs.y.mul(&z1z1).mul(&self.z);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2.sub(&u1);
        let i = h.double().square();
        let j = h.mul(&i);
        let r = s2.sub(&s1).double();
        let v = u1.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&s1.mul(&j).double());
        let z3 = self.z.add(&rhs.z).square().sub(&z1z1).sub(&z2z2).mul(&h);
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: self.y.neg(),
            z: self.z,
        }
    }

    /// Scalar multiplication by a field scalar.
    pub fn mul_scalar(&self, k: &Fr) -> Self {
        self.mul_limbs(&k.to_canonical_limbs())
    }

    /// Scalar multiplication by an arbitrary little-endian limb integer.
    pub fn mul_limbs(&self, k: &[u64]) -> Self {
        let mut acc = Self::identity();
        let nbits = k.len() * 64;
        for i in (0..nbits).rev() {
            acc = acc.double();
            if (k[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Multiplies by the G2 cofactor.
    pub fn clear_cofactor(&self) -> Self {
        self.mul_limbs(&COFACTOR)
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

    #[test]
    fn cofactor_clearing_lands_in_subgroup() {
        // Build an arbitrary point of E'(Fp2) (not necessarily in G2) by
        // sampling x until x³ + b is square, then clear the cofactor.
        let mut rng = HmacDrbg::new(b"g2", b"cofactor");
        let point = loop {
            let x = Fp2::random(&mut rng);
            let y2 = x.square().mul(&x).add(&b2());
            if let Some(y) = y2.sqrt() {
                break G2Projective { x, y, z: Fp2::ONE };
            }
        };
        let cleared = point.clear_cofactor();
        assert!(cleared.to_affine().is_on_curve());
        assert!(cleared.mul_limbs(&Fr::MODULUS).is_identity());
    }
}
