//! `Fp2 = Fp[u] / (u² + 1)` — the quadratic extension underlying G2 and the
//! pairing tower.

use crate::fp::Fp;

/// An element `c0 + c1·u` of Fp2.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Fp2 {
    pub c0: Fp,
    pub c1: Fp,
}

impl Fp2 {
    /// The additive identity.
    pub const ZERO: Self = Self {
        c0: Fp::ZERO,
        c1: Fp::ZERO,
    };
    /// The multiplicative identity.
    pub const ONE: Self = Self {
        c0: Fp::ONE,
        c1: Fp::ZERO,
    };

    /// Constructs from components.
    pub fn new(c0: Fp, c1: Fp) -> Self {
        Self { c0, c1 }
    }

    /// True for zero.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
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

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            c0: self.c0.neg(),
            c1: self.c1.neg(),
        }
    }

    /// Doubling.
    pub fn double(&self) -> Self {
        self.add(self)
    }

    /// Multiplication. With `u² = -1`:
    /// `(a0 + a1 u)(b0 + b1 u) = (a0b0 - a1b1) + (a0b1 + a1b0) u`.
    pub fn mul(&self, rhs: &Self) -> Self {
        let a0b0 = self.c0.mul(&rhs.c0);
        let a1b1 = self.c1.mul(&rhs.c1);
        // Karatsuba for the cross term.
        let cross = self
            .c0
            .add(&self.c1)
            .mul(&rhs.c0.add(&rhs.c1))
            .sub(&a0b0)
            .sub(&a1b1);
        Self {
            c0: a0b0.sub(&a1b1),
            c1: cross,
        }
    }

    /// Squaring: `(a0 + a1 u)² = (a0+a1)(a0-a1) + 2 a0 a1 u`.
    pub fn square(&self) -> Self {
        let sum = self.c0.add(&self.c1);
        let diff = self.c0.sub(&self.c1);
        let prod = self.c0.mul(&self.c1);
        Self {
            c0: sum.mul(&diff),
            c1: prod.double(),
        }
    }

    /// Multiplies by the sextic non-residue `ξ = u + 1` used to define Fp6:
    /// `(c0 + c1 u)(1 + u) = (c0 - c1) + (c0 + c1) u`.
    pub fn mul_by_nonresidue(&self) -> Self {
        Self {
            c0: self.c0.sub(&self.c1),
            c1: self.c0.add(&self.c1),
        }
    }

    /// Scales both components by an Fp element.
    pub fn mul_by_fp(&self, k: &Fp) -> Self {
        Self {
            c0: self.c0.mul(k),
            c1: self.c1.mul(k),
        }
    }

    /// Frobenius endomorphism `x ↦ x^p`. Since `p ≡ 3 (mod 4)`, this is
    /// complex conjugation: `c1 ↦ -c1`.
    pub fn frobenius(&self) -> Self {
        self.conjugate()
    }

    /// Conjugation `c0 + c1 u ↦ c0 - c1 u`.
    pub fn conjugate(&self) -> Self {
        Self {
            c0: self.c0,
            c1: self.c1.neg(),
        }
    }

    /// Multiplicative inverse: `1/(c0 + c1 u) = (c0 - c1 u)/(c0² + c1²)`.
    pub fn invert(&self) -> Option<Self> {
        let norm = self.c0.square().add(&self.c1.square());
        norm.invert().map(|n| Self {
            c0: self.c0.mul(&n),
            c1: self.c1.neg().mul(&n),
        })
    }

    /// Variable-time exponentiation by little-endian limbs.
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

    /// Square root in Fp2 (used when decompressing G2 points), by the norm
    /// method. `x = c0 + c1·u` is a square exactly when its norm
    /// `c0² + c1²` is a square `α²` in Fp; a root is then `δ + c1/(2δ)·u`
    /// for `δ² = (c0 ± α)/2`, with the sign of `α` for which that has a
    /// root. When neither sign gives a non-zero `δ` (`c1 = 0` and `c0` a
    /// non-square), the root is `√(−c0)·u`. Every candidate is checked by
    /// squaring.
    pub fn sqrt(&self) -> Option<Self> {
        if self.is_zero() {
            return Some(*self);
        }
        let norm = self.c0.square().add(&self.c1.square());
        let alpha = norm.sqrt()?;
        for a in [alpha, alpha.neg()] {
            let delta2 = self.c0.add(&a).mul(&Fp::HALF);
            if let Some(delta) = delta2.sqrt() {
                if delta.is_zero() {
                    continue;
                }
                let d1 = self.c1.mul(&Fp::HALF).mul(&delta.invert()?);
                let cand = Self { c0: delta, c1: d1 };
                if cand.square() == *self {
                    return Some(cand);
                }
            }
        }
        if self.c1.is_zero() {
            if let Some(root) = self.c0.neg().sqrt() {
                let cand = Self {
                    c0: Fp::ZERO,
                    c1: root,
                };
                if cand.square() == *self {
                    return Some(cand);
                }
            }
        }
        None
    }

    /// Lexicographic "sign" of the element, for compressed-point sign bits:
    /// the parity of `c1` if nonzero, else the parity of `c0`.
    pub fn is_odd(&self) -> bool {
        if self.c1.is_zero() {
            self.c0.is_odd()
        } else {
            self.c1.is_odd()
        }
    }

    /// Samples a random element.
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self {
            c0: Fp::random(rng),
            c1: Fp::random(rng),
        }
    }
}

impl core::fmt::Debug for Fp2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp2({:?} + {:?}·u)", self.c0, self.c1)
    }
}

impl core::ops::Add for Fp2 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Fp2::add(&self, &rhs)
    }
}
impl core::ops::Sub for Fp2 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Fp2::sub(&self, &rhs)
    }
}
impl core::ops::Mul for Fp2 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Fp2::mul(&self, &rhs)
    }
}
impl core::ops::Neg for Fp2 {
    type Output = Self;
    fn neg(self) -> Self {
        Fp2::neg(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_fp2() -> impl Strategy<Value = Fp2> {
        (any::<[u8; 96]>(), any::<[u8; 96]>()).prop_map(|(a, b)| Fp2 {
            c0: Fp::from_bytes_wide(&a),
            c1: Fp::from_bytes_wide(&b),
        })
    }

    #[test]
    fn u_squared_is_minus_one() {
        let u = Fp2::new(Fp::ZERO, Fp::ONE);
        assert_eq!(u.square(), Fp2::new(Fp::ONE.neg(), Fp::ZERO));
    }

    #[test]
    fn nonresidue_matches_mul() {
        let xi = Fp2::new(Fp::ONE, Fp::ONE); // 1 + u
        let mut rng = crate::drbg::HmacDrbg::new(b"fp2 test", b"");
        for _ in 0..8 {
            let a = Fp2::random(&mut rng);
            assert_eq!(a.mul_by_nonresidue(), a.mul(&xi));
        }
    }

    #[test]
    fn frobenius_is_p_power() {
        let mut rng = crate::drbg::HmacDrbg::new(b"fp2 frob", b"");
        let a = Fp2::random(&mut rng);
        assert_eq!(a.frobenius(), a.pow_vartime(&Fp::MODULUS));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ring_axioms(a in arb_fp2(), b in arb_fp2(), c in arb_fp2()) {
            prop_assert_eq!(a.add(&b), b.add(&a));
            prop_assert_eq!(a.mul(&b), b.mul(&a));
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }

        #[test]
        fn square_matches_mul(a in arb_fp2()) {
            prop_assert_eq!(a.square(), a.mul(&a));
        }

        #[test]
        fn invert_round_trip(a in arb_fp2()) {
            prop_assume!(!a.is_zero());
            prop_assert_eq!(a.mul(&a.invert().unwrap()), Fp2::ONE);
        }

        #[test]
        fn sqrt_round_trip(a in arb_fp2()) {
            let sq = a.square();
            let root = sq.sqrt().expect("squares have roots");
            prop_assert_eq!(root.square(), sq);
        }

        #[test]
        fn conjugate_norm_in_fp(a in arb_fp2()) {
            let n = a.mul(&a.conjugate());
            prop_assert!(n.c1.is_zero());
        }
    }
}
