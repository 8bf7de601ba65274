//! `Fp12 = Fp6[w] / (w² − v)` — the top of the pairing tower. Pairing values
//! live in the cyclotomic subgroup of `Fp12*`.

use crate::fp2::Fp2;
use crate::fp6::Fp6;
use crate::limbs;
use std::sync::OnceLock;

/// An element `c0 + c1·w` of Fp12.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Fp12 {
    pub c0: Fp6,
    pub c1: Fp6,
}

/// Frobenius coefficient `ξ^{(p-1)/6}` for the quadratic layer.
fn frobenius_coeff() -> &'static Fp2 {
    static COEFF: OnceLock<Fp2> = OnceLock::new();
    COEFF.get_or_init(|| {
        let p_minus_1 = limbs::sub_small(&crate::fp::Fp::MODULUS, 1);
        let exp = limbs::div_by_u64(&p_minus_1, 6);
        let xi = Fp2::new(crate::fp::Fp::ONE, crate::fp::Fp::ONE);
        xi.pow_vartime(&exp)
    })
}

impl Fp12 {
    /// The multiplicative identity.
    pub const ONE: Self = Self {
        c0: Fp6::ONE,
        c1: Fp6::ZERO,
    };
    /// The additive identity.
    pub const ZERO: Self = Self {
        c0: Fp6::ZERO,
        c1: Fp6::ZERO,
    };

    /// Constructs from components.
    pub fn new(c0: Fp6, c1: Fp6) -> Self {
        Self { c0, c1 }
    }

    /// True for zero.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// True for one.
    pub fn is_one(&self) -> bool {
        *self == Self::ONE
    }

    /// Addition.
    pub fn add(&self, rhs: &Self) -> Self {
        Self {
            c0: self.c0.add(&rhs.c0),
            c1: self.c1.add(&rhs.c1),
        }
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &Self) -> Self {
        Self {
            c0: self.c0.sub(&rhs.c0),
            c1: self.c1.sub(&rhs.c1),
        }
    }

    /// Multiplication. With `w² = v`:
    /// `(a0 + a1 w)(b0 + b1 w) = (a0b0 + v·a1b1) + (a0b1 + a1b0) w`.
    pub fn mul(&self, rhs: &Self) -> Self {
        let a0b0 = self.c0.mul(&rhs.c0);
        let a1b1 = self.c1.mul(&rhs.c1);
        let cross = self
            .c0
            .add(&self.c1)
            .mul(&rhs.c0.add(&rhs.c1))
            .sub(&a0b0)
            .sub(&a1b1);
        Self {
            c0: a0b0.add(&a1b1.mul_by_v()),
            c1: cross,
        }
    }

    /// Squaring, by the complex method: with `w² = v`,
    /// `(a0 + a1 w)² = (a0 + a1)(a0 + v·a1) − a0a1 − v·a0a1 + 2·a0a1 w` —
    /// two `Fp6` products where [`Self::mul`] takes three.
    pub fn square(&self) -> Self {
        let ab = self.c0.mul(&self.c1);
        let c0 = self
            .c0
            .add(&self.c1)
            .mul(&self.c0.add(&self.c1.mul_by_v()))
            .sub(&ab)
            .sub(&ab.mul_by_v());
        Self {
            c0,
            c1: ab.double(),
        }
    }

    /// Conjugation over Fp6: `c1 ↦ -c1`. For elements in the cyclotomic
    /// subgroup this equals inversion, which the final exponentiation
    /// exploits heavily.
    pub fn conjugate(&self) -> Self {
        Self {
            c0: self.c0,
            c1: self.c1.neg(),
        }
    }

    /// Frobenius endomorphism `x ↦ x^p`.
    pub fn frobenius(&self) -> Self {
        let c0 = self.c0.frobenius();
        let c1 = self.c1.frobenius();
        // Multiply c1 by ξ^{(p-1)/6} across all three Fp2 coefficients.
        let coeff = frobenius_coeff();
        Self {
            c0,
            c1: Fp6::new(c1.c0.mul(coeff), c1.c1.mul(coeff), c1.c2.mul(coeff)),
        }
    }

    /// Multiplicative inverse via the quadratic-tower formula.
    pub fn invert(&self) -> Option<Self> {
        // norm = c0² - v·c1²  ∈ Fp6
        let norm = self.c0.square().sub(&self.c1.square().mul_by_v());
        norm.invert().map(|n| Self {
            c0: self.c0.mul(&n),
            c1: self.c1.neg().mul(&n),
        })
    }

    /// Sparse multiplication by an element with coefficients only at
    /// positions 0, 1, 4 of the Fp2 basis — the shape produced by pairing
    /// line evaluations: 13 `Fp2` products. The pairing tests' reference
    /// for lines that are not normalized.
    #[cfg(test)]
    pub fn mul_by_014(&self, c0: &Fp2, c1: &Fp2, c4: &Fp2) -> Self {
        let aa = self.c0.mul_by_01(c0, c1);
        let bb = self.c1.mul_by_1(c4);
        let o = c1.add(c4);
        let new_c1 = self.c1.add(&self.c0).mul_by_01(c0, &o).sub(&aa).sub(&bb);
        let new_c0 = bb.mul_by_v().add(&aa);
        Self {
            c0: new_c0,
            c1: new_c1,
        }
    }

    /// Sparse multiplication by `l + v·w` for `l = c0 + c1·v`: a pairing
    /// line normalized so that its coefficient at position 4 is one. With
    /// `w² = v`, `(a + b·w)(l + v·w) = (a·l + b·v²) + (a·v + b·l)·w`: two
    /// products by `l` of five `Fp2` products each, where
    /// [`Self::mul_by_014`] takes thirteen, and shifts by `v`.
    pub fn mul_by_line(&self, c0: &Fp2, c1: &Fp2) -> Self {
        Self {
            c0: self
                .c0
                .mul_by_01(c0, c1)
                .add(&self.c1.mul_by_v().mul_by_v()),
            c1: self.c1.mul_by_01(c0, c1).add(&self.c0.mul_by_v()),
        }
    }

    /// Variable-time exponentiation by little-endian limbs: the pairing
    /// tests' reference.
    #[cfg(test)]
    pub fn pow_vartime(&self, exp: &[u64]) -> Self {
        let mut res = Self::ONE;
        for &limb in exp.iter().rev() {
            for i in (0..64).rev() {
                res = res.square();
                if (limb >> i) & 1 == 1 {
                    res = res.mul(self);
                }
            }
        }
        res
    }

    /// Samples a random element (for tests).
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self {
            c0: Fp6::random(rng),
            c1: Fp6::random(rng),
        }
    }
}

impl core::fmt::Debug for Fp12 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp12({:?} + {:?}·w)", self.c0, self.c1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use proptest::prelude::*;

    #[test]
    fn w_squared_is_v() {
        let w = Fp12::new(Fp6::ZERO, Fp6::ONE);
        let v = Fp12::new(Fp6::new(Fp2::ZERO, Fp2::ONE, Fp2::ZERO), Fp6::ZERO);
        assert_eq!(w.square(), v);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn complex_squaring_matches_mul(seed in any::<[u8; 32]>(), shape in 0u8..9) {
            let mut rng = HmacDrbg::new(b"fp12 square oracle", &seed);
            let pick = |k: u8, rng: &mut HmacDrbg| match k % 3 {
                0 => Fp6::random(rng),
                1 => Fp6::ZERO,
                _ => Fp6::ONE,
            };
            let a = Fp12::new(pick(shape, &mut rng), pick(shape / 3, &mut rng));
            prop_assert_eq!(a.square(), a.mul(&a));
        }
    }

    #[test]
    fn ring_axioms() {
        let mut rng = HmacDrbg::new(b"fp12", b"axioms");
        for _ in 0..4 {
            let a = Fp12::random(&mut rng);
            let b = Fp12::random(&mut rng);
            let c = Fp12::random(&mut rng);
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }
    }

    #[test]
    fn invert_round_trip() {
        let mut rng = HmacDrbg::new(b"fp12", b"inv");
        for _ in 0..4 {
            let a = Fp12::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp12::ONE);
        }
    }

    #[test]
    fn mul_by_014_matches_full() {
        let mut rng = HmacDrbg::new(b"fp12", b"sparse");
        for _ in 0..4 {
            let a = Fp12::random(&mut rng);
            let c0 = Fp2::random(&mut rng);
            let c1 = Fp2::random(&mut rng);
            let c4 = Fp2::random(&mut rng);
            let sparse = Fp12::new(
                Fp6::new(c0, c1, Fp2::ZERO),
                Fp6::new(Fp2::ZERO, c4, Fp2::ZERO),
            );
            assert_eq!(a.mul_by_014(&c0, &c1, &c4), a.mul(&sparse));
            assert_eq!(a.mul_by_line(&c0, &c1), a.mul_by_014(&c0, &c1, &Fp2::ONE));
        }
    }

    #[test]
    fn frobenius_composes_to_identity() {
        let mut rng = HmacDrbg::new(b"fp12", b"frob");
        let a = Fp12::random(&mut rng);
        // Applying Frobenius 12 times must return to the start (Gal(Fp12/Fp) has order 12).
        let mut x = a;
        for _ in 0..12 {
            x = x.frobenius();
        }
        assert_eq!(x, a);
    }

    #[test]
    fn frobenius_is_homomorphism() {
        let mut rng = HmacDrbg::new(b"fp12", b"frobhom");
        let a = Fp12::random(&mut rng);
        let b = Fp12::random(&mut rng);
        assert_eq!(a.mul(&b).frobenius(), a.frobenius().mul(&b.frobenius()));
    }
}
