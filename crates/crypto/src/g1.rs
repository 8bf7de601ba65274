//! `G1` — the order-`r` subgroup of `E(Fp): y² = x³ + 4`.
//!
//! Points use Jacobian projective coordinates internally
//! (`x = X/Z²`, `y = Y/Z³`, infinity encoded as `Z = 0`). Scalar
//! multiplication is variable-time double-and-add; see the side-channel note
//! in [`crate::limbs`].

use crate::fp::Fp;
use crate::fr::Fr;
use crate::limbs;
use crate::sha256::sha256_many;
use crate::BLS_X;
use std::sync::OnceLock;

/// The G1 cofactor `h1 = 0x396c8c005555e1568c00aaab0000aaab`.
pub const COFACTOR: [u64; 2] = [0x8c00_aaab_0000_aaab, 0x396c_8c00_5555_e156];

/// The cube root of unity `β ∈ Fp` for which the endomorphism
/// `φ(x, y) = (βx, y)` acts on G1 as multiplication by `−u²`, `u` the curve
/// parameter ([`BLS_X`] is `|u|`).
///
/// `Fp` holds two primitive cube roots of unity, `ω = g^((p−1)/3)` for any
/// non-cube `g`, and `ω²`; `φ` built on one is `[−u²]` on G1 and on the
/// other `[u² − 1]` (the two roots of `λ² + λ + 1` modulo `r`). Derived
/// once from the modulus and settled by the relation on the generator,
/// rather than transcribed.
fn beta() -> &'static Fp {
    static BETA: OnceLock<Fp> = OnceLock::new();
    BETA.get_or_init(|| {
        let exp = limbs::div_by_u64(&limbs::sub_small(&Fp::MODULUS, 1), 3);
        let omega = (2u64..)
            .map(|g| Fp::from_u64(g).pow_vartime(&exp))
            .find(|w| *w != Fp::ONE)
            .expect("a non-cube exists below 2^64");
        let g = G1Affine::generator();
        let minus_u2_g = G1Projective::from(g).mul_by_u_squared().neg();
        [omega, omega.square()]
            .into_iter()
            .find(|beta| G1Projective::from(g.endomorphism(beta)) == minus_u2_g)
            .expect("one of the two cube roots of unity acts as [-u^2] on G1")
    })
}

/// Affine G1 point (or the point at infinity).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct G1Affine {
    pub x: Fp,
    pub y: Fp,
    pub infinity: bool,
}

/// Jacobian-projective G1 point.
#[derive(Clone, Copy, Debug)]
pub struct G1Projective {
    pub x: Fp,
    pub y: Fp,
    pub z: Fp,
}

impl G1Affine {
    /// The point at infinity.
    pub const fn identity() -> Self {
        Self {
            x: Fp::ZERO,
            y: Fp::ZERO,
            infinity: true,
        }
    }

    /// The standard generator of G1.
    pub fn generator() -> Self {
        Self {
            x: Fp::from_raw_unchecked([
                0xfb3a_f00a_db22_c6bb,
                0x6c55_e83f_f97a_1aef,
                0xa14e_3a3f_171b_ac58,
                0xc368_8c4f_9774_b905,
                0x2695_638c_4fa9_ac0f,
                0x17f1_d3a7_3197_d794,
            ]),
            y: Fp::from_raw_unchecked([
                0x0caa_2329_46c5_e7e1,
                0xd03c_c744_a288_8ae4,
                0x00db_18cb_2c04_b3ed,
                0xfcf5_e095_d5d0_0af6,
                0xa09e_30ed_741d_8ae4,
                0x08b3_f481_e3aa_a0f1,
            ]),
            infinity: false,
        }
    }

    /// Curve membership: `y² == x³ + 4` (or infinity).
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let y2 = self.y.square();
        let x3_plus_b = self.x.square().mul(&self.x).add(&Fp::from_u64(4));
        y2 == x3_plus_b
    }

    /// `φ(x, y) = (βx, y)` for a cube root of unity `β`: a curve
    /// endomorphism, because only `x³` enters the curve equation.
    fn endomorphism(&self, beta: &Fp) -> Self {
        Self {
            x: self.x.mul(beta),
            ..*self
        }
    }

    /// Subgroup membership of a point on the curve, by Scott's
    /// endomorphism test (eprint 2021/1130 §6, proof revised in 2022/352):
    /// `P ∈ G1 ⇔ φ(P) = −[u²]P`. Two 64-bit ladders instead of the 255-bit
    /// `[r]P`. Variable time.
    pub fn is_torsion_free(&self) -> bool {
        let u2_p = G1Projective::from(*self).mul_by_u_squared();
        G1Projective::from(self.endomorphism(beta())) == u2_p.neg()
    }

    /// Subgroup membership by definition, `[r]P == O` — the oracle
    /// [`Self::is_torsion_free`] is checked against.
    #[cfg(test)]
    fn is_annihilated_by_r(&self) -> bool {
        G1Projective::from(*self)
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

    /// `P + T` for `T = (0, 2)`, a point of order 3: for `P ∈ G1`, on the
    /// curve and outside G1. The pairing does not see `T` (a point of order
    /// prime to `r` lies in `r·E(Fp)`, where the reduced pairing is
    /// trivial), so tests use this to show that a subgroup check, not the
    /// pairing equation, is what refuses `σ + T`.
    #[cfg(test)]
    pub(crate) fn plus_order_three_point(&self) -> Self {
        let t = Self {
            x: Fp::ZERO,
            y: Fp::from_u64(2),
            infinity: false,
        };
        let shifted = G1Projective::from(*self).add_affine(&t).to_affine();
        assert!(shifted.is_on_curve() && !shifted.is_annihilated_by_r());
        shifted
    }

    /// Compressed encoding: 48 bytes, big-endian `x` with flag bits in the
    /// top three bits of the first byte (`0x80` = compressed, `0x40` =
    /// infinity, `0x20` = `y` odd). Self-consistent within this workspace.
    pub fn to_compressed(&self) -> [u8; 48] {
        if self.infinity {
            let mut out = [0u8; 48];
            out[0] = 0x80 | 0x40;
            return out;
        }
        let mut out = self.x.to_bytes_be();
        debug_assert_eq!(out[0] & 0xe0, 0, "x fits in 381 bits");
        out[0] |= 0x80;
        if self.y.is_odd() {
            out[0] |= 0x20;
        }
        out
    }

    /// Decodes a compressed point, enforcing canonical field encoding,
    /// curve membership, and r-torsion membership.
    pub fn from_compressed(bytes: &[u8; 48]) -> Option<Self> {
        let flags = bytes[0] & 0xe0;
        if flags & 0x80 == 0 {
            return None; // not marked compressed
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
        let mut xb = *bytes;
        xb[0] &= 0x1f;
        let x = Fp::from_bytes_be(&xb)?;
        let y2 = x.square().mul(&x).add(&Fp::from_u64(4));
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

impl From<G1Affine> for G1Projective {
    fn from(p: G1Affine) -> Self {
        if p.infinity {
            G1Projective::identity()
        } else {
            G1Projective {
                x: p.x,
                y: p.y,
                z: Fp::ONE,
            }
        }
    }
}

impl From<G1Projective> for G1Affine {
    fn from(p: G1Projective) -> Self {
        p.to_affine()
    }
}

impl PartialEq for G1Projective {
    fn eq(&self, other: &Self) -> bool {
        // (X1, Y1, Z1) ~ (X2, Y2, Z2) iff X1 Z2² == X2 Z1² and Y1 Z2³ == Y2 Z1³.
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
impl Eq for G1Projective {}

impl G1Projective {
    /// The point at infinity.
    pub const fn identity() -> Self {
        Self {
            x: Fp::ZERO,
            y: Fp::ZERO,
            z: Fp::ZERO,
        }
    }

    /// The standard generator.
    pub fn generator() -> Self {
        G1Affine::generator().into()
    }

    /// True for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> G1Affine {
        if self.is_identity() {
            return G1Affine::identity();
        }
        let z_inv = self.z.invert().expect("nonzero z");
        let z_inv2 = z_inv.square();
        G1Affine {
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

    /// Mixed addition with an affine point.
    pub fn add_affine(&self, rhs: &G1Affine) -> Self {
        self.add(&G1Projective::from(*rhs))
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

    /// Scalar multiplication by an arbitrary little-endian limb integer
    /// (used for cofactor clearing and torsion checks).
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

    /// `[u²]P` for the curve parameter `u`: two 64-bit ladders.
    fn mul_by_u_squared(&self) -> Self {
        self.mul_limbs(&[BLS_X]).mul_limbs(&[BLS_X])
    }

    /// Multiplies by the G1 cofactor, mapping any curve point into the
    /// order-`r` subgroup.
    pub fn clear_cofactor(&self) -> Self {
        self.mul_limbs(&COFACTOR)
    }

    /// Samples a random subgroup element (generator times random scalar).
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::generator().mul_scalar(&Fr::random(rng))
    }
}

/// Hashes an arbitrary message to G1 with domain separation, using
/// try-and-increment followed by cofactor clearing.
///
/// **Not constant time**: the iteration count leaks information about the
/// (public) message. Do not use for secret inputs. Standards-track
/// deployments should use SSWU (RFC 9380); try-and-increment is this
/// repository's substitution for it — the same distribution on G1 at far
/// less code, acceptable only because every hashed input here is public.
pub fn hash_to_g1(msg: &[u8], dst: &[u8]) -> G1Projective {
    for ctr in 0u16..=1024 {
        let ctr_bytes = ctr.to_be_bytes();
        let h1 = sha256_many(&[b"distrust/htc/1/", dst, &ctr_bytes, msg]);
        let h2 = sha256_many(&[b"distrust/htc/2/", dst, &ctr_bytes, msg]);
        let mut xb = [0u8; 48];
        xb[..32].copy_from_slice(&h1);
        xb[32..].copy_from_slice(&h2[..16]);
        xb[0] &= 0x1f; // < 2^381
        let Some(x) = Fp::from_bytes_be(&xb) else {
            continue;
        };
        let y2 = x.square().mul(&x).add(&Fp::from_u64(4));
        let Some(mut y) = y2.sqrt() else {
            continue;
        };
        if (h2[16] & 1 == 1) != y.is_odd() {
            y = y.neg();
        }
        let point = G1Projective { x, y, z: Fp::ONE };
        debug_assert!(point.to_affine().is_on_curve());
        let cleared = point.clear_cofactor();
        if !cleared.is_identity() {
            return cleared;
        }
    }
    unreachable!("hash_to_g1 failed 1024 consecutive times (p ≈ 2^-1024)");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use proptest::prelude::*;
    use rand::RngCore;

    #[test]
    fn generator_on_curve_and_torsion_free() {
        let g = G1Affine::generator();
        assert!(g.is_on_curve());
        assert!(g.is_torsion_free());
    }

    /// A random point of `E(Fp)` — before any cofactor clearing, so almost
    /// never in G1.
    fn random_curve_point(rng: &mut HmacDrbg) -> G1Projective {
        loop {
            let x = Fp::random(rng);
            if let Some(y) = x.square().mul(&x).add(&Fp::from_u64(4)).sqrt() {
                let y = if rng.next_u32() & 1 == 1 { y.neg() } else { y };
                return G1Projective { x, y, z: Fp::ONE };
            }
        }
    }

    /// Both subgroup tests on `p`, which must agree; returns their verdict.
    fn in_g1(p: &G1Projective) -> bool {
        let p = p.to_affine();
        assert!(p.is_on_curve());
        let verdict = p.is_torsion_free();
        assert_eq!(verdict, p.is_annihilated_by_r(), "tests disagree on {p:?}");
        verdict
    }

    #[test]
    fn beta_is_a_primitive_cube_root_of_unity_acting_as_minus_u_squared() {
        let beta = beta();
        assert_ne!(*beta, Fp::ONE);
        assert_eq!(beta.square().mul(beta), Fp::ONE);
        // The other root fails the relation on the generator.
        let g = G1Affine::generator();
        let minus_u2_g = G1Projective::from(g).mul_by_u_squared().neg();
        assert_eq!(G1Projective::from(g.endomorphism(beta)), minus_u2_g);
        assert_ne!(
            G1Projective::from(g.endomorphism(&beta.square())),
            minus_u2_g
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The endomorphism test against `[r]P == O` on points of G1,
        /// points of the curve outside it, pure cofactor points and mixed
        /// ones. (That at least 95 % of raw curve points lie outside G1 —
        /// or this would test nothing — is counted in
        /// `small_order_points_and_the_identity`.)
        #[test]
        fn endomorphism_test_agrees_with_the_definition(seed in any::<[u8; 32]>()) {
            let mut rng = HmacDrbg::new(b"g1 subgroup oracle", &seed);
            let member = G1Projective::random(&mut rng);
            prop_assert!(in_g1(&member));
            prop_assert!(in_g1(&member.double().neg()));

            let raw = random_curve_point(&mut rng);
            let cleared = raw.clear_cofactor();
            prop_assert!(in_g1(&cleared));
            // [r]P kills the G1 component and leaves the cofactor one.
            let cofactor_part = raw.mul_limbs(&Fr::MODULUS);
            prop_assert_eq!(in_g1(&raw), cofactor_part.is_identity());
            prop_assert_eq!(in_g1(&cofactor_part), cofactor_part.is_identity());
            prop_assert_eq!(
                in_g1(&member.add(&cofactor_part)),
                cofactor_part.is_identity()
            );
        }
    }

    #[test]
    fn small_order_points_and_the_identity() {
        assert!(in_g1(&G1Projective::identity()));
        let mut rng = HmacDrbg::new(b"g1 subgroup oracle", b"small order");
        let mut outside = 0;
        let mut orders_seen = [false; 2];
        for _ in 0..20 {
            let raw = random_curve_point(&mut rng);
            outside += usize::from(!in_g1(&raw));
            // Divide the cofactor out: what [r]P leaves has order dividing
            // h = 3 · 11² · …; strip every other prime, then walk down to
            // order exactly ℓ.
            let cofactor_part = raw.mul_limbs(&Fr::MODULUS);
            for (slot, l) in [3u128, 11].into_iter().enumerate() {
                let mut rest = (COFACTOR[1] as u128) << 64 | COFACTOR[0] as u128;
                while rest.is_multiple_of(l) {
                    rest /= l;
                }
                let (rest, l) = ([rest as u64, (rest >> 64) as u64], [l as u64]);
                let mut point = cofactor_part.mul_limbs(&rest);
                if point.is_identity() {
                    continue;
                }
                while !point.mul_limbs(&l).is_identity() {
                    point = point.mul_limbs(&l);
                }
                orders_seen[slot] = true;
                assert!(!in_g1(&point), "a point of order {l:?} is not in G1");
                // Nor is its sum with a point that is.
                assert!(!in_g1(&point.add(&G1Projective::generator())));
            }
        }
        assert!(outside >= 19, "only {outside} of 20 raw points outside G1");
        assert_eq!(orders_seen, [true, true], "orders 3 and 11 both exercised");
    }

    #[test]
    fn identity_laws() {
        let g = G1Projective::generator();
        let id = G1Projective::identity();
        assert_eq!(g.add(&id), g);
        assert_eq!(id.add(&g), g);
        assert_eq!(id.double(), id);
        assert!(g.add(&g.neg()).is_identity());
    }

    #[test]
    fn double_matches_add() {
        let g = G1Projective::generator();
        assert_eq!(g.double(), g.add(&g));
        let g4 = g.double().double();
        assert_eq!(g4, g.add(&g).add(&g).add(&g));
    }

    #[test]
    fn scalar_mul_small() {
        let g = G1Projective::generator();
        assert_eq!(g.mul_scalar(&Fr::from_u64(1)), g);
        assert_eq!(g.mul_scalar(&Fr::from_u64(2)), g.double());
        assert_eq!(g.mul_scalar(&Fr::from_u64(5)), g.double().double().add(&g));
        assert!(g.mul_scalar(&Fr::ZERO).is_identity());
    }

    #[test]
    fn scalar_mul_distributes() {
        let mut rng = HmacDrbg::new(b"g1", b"distribute");
        let g = G1Projective::generator();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let lhs = g.mul_scalar(&a.add(&b));
        let rhs = g.mul_scalar(&a).add(&g.mul_scalar(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn order_annihilates_generator() {
        let g = G1Projective::generator();
        assert!(g.mul_limbs(&Fr::MODULUS).is_identity());
    }

    #[test]
    fn compressed_round_trip() {
        let mut rng = HmacDrbg::new(b"g1", b"compress");
        for _ in 0..8 {
            let p = G1Projective::random(&mut rng).to_affine();
            let bytes = p.to_compressed();
            let q = G1Affine::from_compressed(&bytes).expect("valid encoding");
            assert_eq!(p, q);
        }
        // Identity round trip.
        let id = G1Affine::identity();
        assert_eq!(G1Affine::from_compressed(&id.to_compressed()), Some(id));
    }

    #[test]
    fn compressed_rejects_garbage() {
        // No compression flag.
        assert!(G1Affine::from_compressed(&[0u8; 48]).is_none());
        // Infinity flag with nonzero body.
        let mut bad = [0u8; 48];
        bad[0] = 0xc0;
        bad[47] = 1;
        assert!(G1Affine::from_compressed(&bad).is_none());
        // x not on curve: flip bits until decode fails at the sqrt stage.
        let mut tampered = G1Affine::generator().to_compressed();
        tampered[47] ^= 1;
        // Either decodes to a different valid point or fails; must not
        // return the generator.
        if let Some(p) = G1Affine::from_compressed(&tampered) {
            assert_ne!(p, G1Affine::generator());
        }
    }

    #[test]
    fn infinity_has_exactly_one_encoding() {
        // All eight flag patterns over a zero body. Not compressed: 0x00
        // to 0x60. Compressed, x = 0: the order-3 points (0, ±2), on the
        // curve and outside G1. Infinity with the sign bit: 0xe0 — decoded
        // to the identity before this was fixed, a second encoding of it.
        let decoded: Vec<u8> = (0u8..8)
            .map(|flags| flags << 5)
            .filter(|&flags| {
                let mut bytes = [0u8; 48];
                bytes[0] = flags;
                G1Affine::from_compressed(&bytes).is_some()
            })
            .collect();
        assert_eq!(decoded, vec![0xc0]);
        let t = G1Affine::identity().plus_order_three_point();
        assert!(t.x.is_zero() && !t.is_torsion_free());
        assert!(G1Projective::from(t).mul_limbs(&[3]).is_identity());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Whatever decodes re-encodes to the bytes it came from: one
        /// byte string per point. Inputs are valid encodings (a G1 point,
        /// a raw curve point, infinity) under every flag pattern, with and
        /// without a flipped body bit — arbitrary bytes practically never
        /// get past the subgroup test, so they alone would test nothing.
        #[test]
        fn decoding_is_canonical(
            seed in any::<[u8; 32]>(),
            kind in 0u8..3,
            flags in 0u8..8,
            flip in 0usize..2 * 48 * 8,
            arbitrary in any::<[u8; 48]>(),
        ) {
            let mut rng = HmacDrbg::new(b"g1 canonical", &seed);
            let point = match kind {
                0 => G1Projective::random(&mut rng).to_affine(),
                1 => random_curve_point(&mut rng).to_affine(),
                _ => G1Affine::identity(),
            };
            let mut bytes = point.to_compressed();
            bytes[0] = (bytes[0] & 0x1f) | (flags << 5);
            // Half the cases leave the body alone.
            if flip < 48 * 8 {
                bytes[flip / 8] ^= 1 << (flip % 8);
            }
            for candidate in [bytes, arbitrary] {
                if let Some(decoded) = G1Affine::from_compressed(&candidate) {
                    prop_assert_eq!(decoded.to_compressed(), candidate);
                    prop_assert!(decoded.is_on_curve() && decoded.is_annihilated_by_r());
                }
            }
            // And the point's own encoding round-trips when it is in G1.
            prop_assert_eq!(
                G1Affine::from_compressed(&point.to_compressed()),
                point.is_annihilated_by_r().then_some(point)
            );
        }
    }

    #[test]
    fn hash_to_g1_properties() {
        let p = hash_to_g1(b"message one", b"test-dst");
        let q = hash_to_g1(b"message two", b"test-dst");
        let r = hash_to_g1(b"message one", b"other-dst");
        assert!(p.to_affine().is_on_curve());
        assert!(p.to_affine().is_torsion_free());
        assert_ne!(p, q, "different messages map to different points");
        assert_ne!(p, r, "different DSTs map to different points");
        // Determinism.
        assert_eq!(p, hash_to_g1(b"message one", b"test-dst"));
    }

    #[test]
    fn mixed_add_matches_projective() {
        let mut rng = HmacDrbg::new(b"g1", b"mixed");
        let p = G1Projective::random(&mut rng);
        let q = G1Projective::random(&mut rng);
        assert_eq!(p.add_affine(&q.to_affine()), p.add(&q));
    }
}
