//! The curve `y² = x³ + b` over a base field, with its group law written
//! once for both BLS12-381 groups: G1 over [`Fp`](crate::fp::Fp) (`b = 4`,
//! [`crate::g1`]) and G2 over [`Fp2`](crate::fp2::Fp2) (`b = 4(u + 1)`,
//! [`crate::g2`]).
//!
//! Points use Jacobian projective coordinates (`x = X/Z²`, `y = Y/Z³`,
//! infinity encoded as `Z = 0`), with the formulas for `a = 0`. Everything
//! here holds for any point of the curve, in the order-`r` subgroup or not;
//! what needs the subgroup — G1's multi-scalar kernel, both subgroup tests,
//! the generators, hashing to G1 — stays with its group.
//!
//! The compressed encoding is shared as well: `x` big-endian in its field's
//! byte order, with flag bits in the top three bits of the first byte —
//! `0x80` compressed (always set), `0x40` infinity (with an all-zero body
//! and no sign bit, its one encoding) and `0x20` the sign of `y`.
//!
//! Variable time, like the rest of the crate.

use core::fmt::Debug;

pub(crate) mod sealed {
    /// Keeps [`super::BaseField`] to the crate's two fields.
    pub trait Sealed {}
}

/// The base field of one of the two curves, and that curve's `b`: what the
/// group law needs of `Fp` and `Fp2`, each implementing it from its own
/// inherent operations. Sealed: there are two curves, and no third.
pub trait BaseField: sealed::Sealed + Copy + PartialEq + Debug {
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// The curve's constant term `b`.
    const B: Self;
    /// True for zero.
    fn is_zero(&self) -> bool;
    /// Addition.
    fn add(&self, rhs: &Self) -> Self;
    /// Subtraction.
    fn sub(&self, rhs: &Self) -> Self;
    /// Additive inverse.
    fn neg(&self) -> Self;
    /// `2·self`.
    fn double(&self) -> Self;
    /// Multiplication.
    fn mul(&self, rhs: &Self) -> Self;
    /// Squaring.
    fn square(&self) -> Self;
    /// Multiplicative inverse; `None` for zero.
    fn invert(&self) -> Option<Self>;
    /// A square root; `None` for a non-square.
    fn sqrt(&self) -> Option<Self>;
    /// The sign of `y` a compressed encoding records.
    fn is_odd(&self) -> bool;
    /// Writes the canonical big-endian encoding into `out`, exactly as wide.
    fn write_be(&self, out: &mut [u8]);
    /// Parses what [`Self::write_be`] writes; `None` when not reduced.
    fn read_be(bytes: &[u8]) -> Option<Self>;
}

/// The part of a [`BaseField`] impl that forwards to the field's inherent
/// constants and operations of the same names; the impl adds `B` and the
/// byte encoding.
macro_rules! forward_to_inherent {
    ($field:ident) => {
        const ZERO: Self = $field::ZERO;
        const ONE: Self = $field::ONE;
        $crate::curve::forward_to_inherent!(@ops $field,
            is_zero() -> bool, add(rhs) -> Self, sub(rhs) -> Self, neg() -> Self,
            double() -> Self, mul(rhs) -> Self, square() -> Self,
            invert() -> Option<Self>, sqrt() -> Option<Self>, is_odd() -> bool);
    };
    (@ops $field:ident, $($op:ident($($rhs:ident)?) -> $out:ty),*) => {
        $(
            #[inline]
            fn $op(&self $(, $rhs: &Self)?) -> $out {
                $field::$op(self $(, $rhs)?)
            }
        )*
    };
}
pub(crate) use forward_to_inherent;

/// `x³ + b`: the `y²` of a curve point with abscissa `x`.
pub(crate) fn x3_plus_b<F: BaseField>(x: &F) -> F {
    x.square().mul(x).add(&F::B)
}

/// The inverses of `values` with one inversion between them (Montgomery's
/// trick: invert their product, peel one factor off per value); `None`
/// when one of them is zero.
pub(crate) fn batch_invert<F: BaseField>(values: &[F]) -> Option<Vec<F>> {
    // before[i]: the product of the values ahead of value i.
    let mut before = Vec::with_capacity(values.len());
    let mut product = F::ONE;
    for value in values {
        before.push(product);
        product = product.mul(value);
    }
    let mut inverse = product.invert()?;
    let mut inverses = vec![F::ZERO; values.len()];
    for (i, value) in values.iter().enumerate().rev() {
        inverses[i] = inverse.mul(&before[i]);
        inverse = inverse.mul(value);
    }
    Some(inverses)
}

/// A point in affine coordinates, or the point at infinity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Affine<F> {
    pub x: F,
    pub y: F,
    pub infinity: bool,
}

/// A point in Jacobian projective coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Projective<F> {
    pub x: F,
    pub y: F,
    pub z: F,
}

/// The compressed-encoding flags (see the module header).
const COMPRESSED: u8 = 0x80;
const INFINITY: u8 = 0x40;
const SIGN: u8 = 0x20;
const FLAGS: u8 = COMPRESSED | INFINITY | SIGN;

impl<F: BaseField> Affine<F> {
    /// The point at infinity.
    pub const fn identity() -> Self {
        Self {
            x: F::ZERO,
            y: F::ZERO,
            infinity: true,
        }
    }

    /// Curve membership: `y² == x³ + b` (or infinity).
    pub fn is_on_curve(&self) -> bool {
        self.infinity || self.y.square() == x3_plus_b(&self.x)
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            y: self.y.neg(),
            ..*self
        }
    }

    /// The compressed encoding, `N` bytes wide (the field's).
    pub(crate) fn compress<const N: usize>(&self) -> [u8; N] {
        let mut out = [0u8; N];
        if self.infinity {
            out[0] = COMPRESSED | INFINITY;
            return out;
        }
        self.x.write_be(&mut out);
        debug_assert_eq!(out[0] & FLAGS, 0, "x leaves the flag bits clear");
        out[0] |= COMPRESSED;
        if self.y.is_odd() {
            out[0] |= SIGN;
        }
        out
    }

    /// Decodes a compressed encoding to a point **of the curve**: canonical
    /// `x`, one encoding of infinity, `y` by the sign bit. Subgroup
    /// membership is the caller's to test.
    pub(crate) fn decompress<const N: usize>(bytes: &[u8; N]) -> Option<Self> {
        let flags = bytes[0] & FLAGS;
        if flags & COMPRESSED == 0 {
            return None;
        }
        let mut body = *bytes;
        body[0] &= !FLAGS;
        if flags & INFINITY != 0 {
            let canonical = flags & SIGN == 0 && body.iter().all(|&b| b == 0);
            return canonical.then(Self::identity);
        }
        let x = F::read_be(&body)?;
        let mut y = x3_plus_b(&x).sqrt()?;
        if y.is_odd() != (flags & SIGN != 0) {
            y = y.neg();
        }
        Some(Self {
            x,
            y,
            infinity: false,
        })
    }
}

impl<F: BaseField> From<Affine<F>> for Projective<F> {
    fn from(p: Affine<F>) -> Self {
        if p.infinity {
            Self::identity()
        } else {
            Self {
                x: p.x,
                y: p.y,
                z: F::ONE,
            }
        }
    }
}

impl<F: BaseField> From<Projective<F>> for Affine<F> {
    fn from(p: Projective<F>) -> Self {
        p.to_affine()
    }
}

impl<F: BaseField> PartialEq for Projective<F> {
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

impl<F: BaseField> Eq for Projective<F> {}

impl<F: BaseField> Projective<F> {
    /// The point at infinity.
    pub const fn identity() -> Self {
        Self {
            x: F::ZERO,
            y: F::ZERO,
            z: F::ZERO,
        }
    }

    /// True for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine<F> {
        match self.z.invert() {
            Some(z_inv) => self.affine_with(&z_inv),
            None => Affine::identity(),
        }
    }

    /// Affine coordinates of a point other than infinity, given `1/Z`.
    pub(crate) fn affine_with(&self, z_inv: &F) -> Affine<F> {
        let z_inv2 = z_inv.square();
        Affine {
            x: self.x.mul(&z_inv2),
            y: self.y.mul(&z_inv2.mul(z_inv)),
            infinity: false,
        }
    }

    /// Point doubling.
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

    /// Point addition.
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

    /// Mixed addition with an affine point (`Z₂ = 1`: 11 field
    /// multiplications against [`Self::add`]'s 16).
    pub fn add_affine(&self, rhs: &Affine<F>) -> Self {
        if rhs.infinity {
            return *self;
        }
        if self.is_identity() {
            return (*rhs).into();
        }
        let z1z1 = self.z.square();
        let u2 = rhs.x.mul(&z1z1);
        let s2 = rhs.y.mul(&self.z).mul(&z1z1);
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2.sub(&self.x);
        let hh = h.square();
        let i = hh.double().double();
        let j = h.mul(&i);
        let r = s2.sub(&self.y).double();
        let v = self.x.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&self.y.mul(&j).double());
        let z3 = self.z.add(&h).square().sub(&z1z1).sub(&hh);
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            y: self.y.neg(),
            ..*self
        }
    }

    /// Scalar multiplication of **any curve point** by a little-endian
    /// limb integer, one bit at a time. It assumes nothing of the point:
    /// G1's cofactor clearing and subgroup test, G2's scalar
    /// multiplication and subgroup test, and the oracle G1's kernel is
    /// tested against all run on it.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use crate::fp::Fp;
    use crate::fp2::Fp2;
    use crate::fr::Fr;
    use crate::g1::G1Projective;
    use crate::g2::G2Projective;
    use proptest::prelude::*;

    #[test]
    fn b_is_each_curves_constant() {
        let four = Fp::from_u64(4);
        assert_eq!(<Fp as BaseField>::B, four);
        assert_eq!(<Fp2 as BaseField>::B, Fp2::new(four, four));
    }

    /// Three scalars `a, b, c` for the points `a·G, b·G, c·G`, shaped by
    /// `shape` so that the additions below take every branch: `b = a`
    /// (adding a point to itself), `b = −a` (cancelling), `a = 0` (the
    /// identity), or all three random.
    fn scalars(rng: &mut HmacDrbg, shape: u8) -> [Fr; 3] {
        let [mut a, mut b, c] = [(); 3].map(|_| Fr::random(&mut *rng));
        match shape {
            0 => b = a,
            1 => b = a.neg(),
            2 => a = Fr::ZERO,
            _ => {}
        }
        [a, b, c]
    }

    /// The group law of one curve, on `a·G, b·G, c·G` for its generator
    /// `G` and its own scalar multiplication `mul` (G1's kernel, G2's
    /// ladder), checked against the ladder wherever both apply. `rescale`
    /// is a non-zero field element that moves a point to another `z`.
    fn group_law<F: BaseField>(
        g: Projective<F>,
        mul: fn(&Projective<F>, &Fr) -> Projective<F>,
        [a, b, c]: [Fr; 3],
        rescale: F,
    ) -> Result<(), TestCaseError> {
        let id = Projective::identity();
        let [p, q, r] = [a, b, c].map(|k| mul(&g, &k));
        prop_assert!(p.to_affine().is_on_curve() && q.to_affine().is_on_curve());
        // Identity and inverse.
        prop_assert_eq!(p.add(&id), p);
        prop_assert_eq!(id.add(&p), p);
        prop_assert!(id.double().is_identity());
        prop_assert!(p.add(&p.neg()).is_identity());
        prop_assert_eq!(p.neg().to_affine(), p.to_affine().neg());
        // Commutativity and associativity.
        prop_assert_eq!(p.add(&q), q.add(&p));
        prop_assert_eq!(p.add(&q).add(&r), p.add(&q.add(&r)));
        // Doubling is adding a point to itself.
        prop_assert_eq!(p.double(), p.add(&p));
        prop_assert_eq!(p.double().double(), p.add(&p).add(&p).add(&p));
        // The same point at another z: (λ²X, λ³Y, λZ).
        let l2 = rescale.square();
        let moved = Projective {
            x: p.x.mul(&l2),
            y: p.y.mul(&l2.mul(&rescale)),
            z: p.z.mul(&rescale),
        };
        prop_assert_eq!(moved, p);
        prop_assert_eq!(moved.to_affine(), p.to_affine());
        prop_assert_eq!(moved == q, a == b);
        // Scalar multiplication: small multiples are repeated additions,
        // and it distributes over scalar addition and composes with itself.
        let mut sum = id;
        for k in 0..6 {
            prop_assert_eq!(mul(&g, &Fr::from_u64(k)), sum);
            prop_assert_eq!(g.mul_limbs(&[k]), sum);
            sum = sum.add(&g);
        }
        let a_plus_b = a.add(&b);
        prop_assert_eq!(mul(&g, &a_plus_b), p.add(&q));
        prop_assert_eq!(g.mul_limbs(&a_plus_b.to_canonical_limbs()), p.add(&q));
        prop_assert_eq!(mul(&p, &c), mul(&g, &a.mul(&c)));
        // Mixed addition against addition, through every branch.
        let (p_affine, q_affine) = (p.to_affine(), q.to_affine());
        prop_assert_eq!(moved.add_affine(&q_affine), p.add(&q));
        prop_assert_eq!(id.add_affine(&q_affine), q);
        prop_assert_eq!(moved.add_affine(&Affine::identity()), p);
        prop_assert_eq!(moved.add_affine(&p_affine), p.double());
        prop_assert!(moved.add_affine(&p_affine.neg()).is_identity());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn group_law_on_g1(seed in any::<[u8; 32]>(), shape in 0u8..5) {
            let mut rng = HmacDrbg::new(b"group law on g1", &seed);
            let scalars = scalars(&mut rng, shape);
            group_law(G1Projective::generator(), G1Projective::mul_scalar, scalars, Fp::random(&mut rng))?;
        }

        #[test]
        fn group_law_on_g2(seed in any::<[u8; 32]>(), shape in 0u8..5) {
            let mut rng = HmacDrbg::new(b"group law on g2", &seed);
            let scalars = scalars(&mut rng, shape);
            group_law(G2Projective::generator(), G2Projective::mul_scalar, scalars, Fp2::random(&mut rng))?;
        }
    }
}
