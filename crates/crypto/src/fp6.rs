//! `Fp6 = Fp2[v] / (v³ − ξ)` with `ξ = u + 1` — the cubic extension layer of
//! the pairing tower.

use crate::fp2::Fp2;
use crate::limbs;
use std::sync::OnceLock;

/// An element `c0 + c1·v + c2·v²` of Fp6.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Fp6 {
    pub c0: Fp2,
    pub c1: Fp2,
    pub c2: Fp2,
}

/// Frobenius coefficients `ξ^{(p-1)/3}` and `ξ^{2(p-1)/3}`, computed once at
/// first use from the modulus rather than transcribed as constants.
fn frobenius_coeffs() -> &'static (Fp2, Fp2) {
    static COEFFS: OnceLock<(Fp2, Fp2)> = OnceLock::new();
    COEFFS.get_or_init(|| {
        let p_minus_1 = limbs::sub_small(&crate::fp::Fp::MODULUS, 1);
        let exp = limbs::div_by_u64(&p_minus_1, 3);
        let xi = Fp2::new(crate::fp::Fp::ONE, crate::fp::Fp::ONE);
        let c1 = xi.pow_vartime(&exp);
        let c2 = c1.square();
        (c1, c2)
    })
}

impl Fp6 {
    /// The additive identity.
    pub const ZERO: Self = Self {
        c0: Fp2::ZERO,
        c1: Fp2::ZERO,
        c2: Fp2::ZERO,
    };
    /// The multiplicative identity.
    pub const ONE: Self = Self {
        c0: Fp2::ONE,
        c1: Fp2::ZERO,
        c2: Fp2::ZERO,
    };

    /// Constructs from components.
    pub fn new(c0: Fp2, c1: Fp2, c2: Fp2) -> Self {
        Self { c0, c1, c2 }
    }

    /// True for zero.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }

    /// Addition.
    pub fn add(&self, rhs: &Self) -> Self {
        Self {
            c0: self.c0.add(&rhs.c0),
            c1: self.c1.add(&rhs.c1),
            c2: self.c2.add(&rhs.c2),
        }
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &Self) -> Self {
        Self {
            c0: self.c0.sub(&rhs.c0),
            c1: self.c1.sub(&rhs.c1),
            c2: self.c2.sub(&rhs.c2),
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            c0: self.c0.neg(),
            c1: self.c1.neg(),
            c2: self.c2.neg(),
        }
    }

    /// Doubling.
    pub fn double(&self) -> Self {
        self.add(self)
    }

    /// Full multiplication. With `v³ = ξ`:
    /// r0 = a0b0 + ξ(a1b2 + a2b1)
    /// r1 = a0b1 + a1b0 + ξ(a2b2)
    /// r2 = a0b2 + a1b1 + a2b0
    ///
    /// Karatsuba: each cross sum `aᵢbⱼ + aⱼbᵢ` is
    /// `(aᵢ + aⱼ)(bᵢ + bⱼ) − aᵢbᵢ − aⱼbⱼ`, so six `Fp2` products do the
    /// work of the schoolbook nine.
    pub fn mul(&self, rhs: &Self) -> Self {
        let a0b0 = self.c0.mul(&rhs.c0);
        let a1b1 = self.c1.mul(&rhs.c1);
        let a2b2 = self.c2.mul(&rhs.c2);
        let cross = |ai: &Fp2, aj: &Fp2, bi: &Fp2, bj: &Fp2, aibi: &Fp2, ajbj: &Fp2| {
            ai.add(aj).mul(&bi.add(bj)).sub(aibi).sub(ajbj)
        };
        let c12 = cross(&self.c1, &self.c2, &rhs.c1, &rhs.c2, &a1b1, &a2b2);
        let c01 = cross(&self.c0, &self.c1, &rhs.c0, &rhs.c1, &a0b0, &a1b1);
        let c02 = cross(&self.c0, &self.c2, &rhs.c0, &rhs.c2, &a0b0, &a2b2);
        Self {
            c0: c12.mul_by_nonresidue().add(&a0b0),
            c1: c01.add(&a2b2.mul_by_nonresidue()),
            c2: c02.add(&a1b1),
        }
    }

    /// The nine-product schoolbook multiplication [`Self::mul`] is checked
    /// against.
    #[cfg(test)]
    fn mul_schoolbook(&self, rhs: &Self) -> Self {
        let a0b0 = self.c0.mul(&rhs.c0);
        let a1b1 = self.c1.mul(&rhs.c1);
        let a2b2 = self.c2.mul(&rhs.c2);

        let r0 = self
            .c1
            .mul(&rhs.c2)
            .add(&self.c2.mul(&rhs.c1))
            .mul_by_nonresidue()
            .add(&a0b0);
        let r1 = self
            .c0
            .mul(&rhs.c1)
            .add(&self.c1.mul(&rhs.c0))
            .add(&a2b2.mul_by_nonresidue());
        let r2 = self.c0.mul(&rhs.c2).add(&self.c2.mul(&rhs.c0)).add(&a1b1);
        Self {
            c0: r0,
            c1: r1,
            c2: r2,
        }
    }

    /// Squaring (delegates to `mul`; clarity over micro-optimisation).
    pub fn square(&self) -> Self {
        self.mul(self)
    }

    /// Sparse multiplication by an element with only the `c1` coefficient set.
    pub fn mul_by_1(&self, c1: &Fp2) -> Self {
        Self {
            c0: self.c2.mul(c1).mul_by_nonresidue(),
            c1: self.c0.mul(c1),
            c2: self.c1.mul(c1),
        }
    }

    /// Sparse multiplication by `c0 + c1·v`.
    pub fn mul_by_01(&self, c0: &Fp2, c1: &Fp2) -> Self {
        let a_a = self.c0.mul(c0);
        let b_b = self.c1.mul(c1);
        let t1 = self.c2.mul(c1).mul_by_nonresidue().add(&a_a);
        let t2 = c0.add(c1).mul(&self.c0.add(&self.c1)).sub(&a_a).sub(&b_b);
        let t3 = self.c2.mul(c0).add(&b_b);
        Self {
            c0: t1,
            c1: t2,
            c2: t3,
        }
    }

    /// Multiplies by `v`: `(c0 + c1 v + c2 v²)·v = ξ·c2 + c0 v + c1 v²`.
    pub fn mul_by_v(&self) -> Self {
        Self {
            c0: self.c2.mul_by_nonresidue(),
            c1: self.c0,
            c2: self.c1,
        }
    }

    /// Frobenius endomorphism `x ↦ x^p`.
    pub fn frobenius(&self) -> Self {
        let (f1, f2) = frobenius_coeffs();
        Self {
            c0: self.c0.frobenius(),
            c1: self.c1.frobenius().mul(f1),
            c2: self.c2.frobenius().mul(f2),
        }
    }

    /// Multiplicative inverse via the standard cubic-tower formula.
    pub fn invert(&self) -> Option<Self> {
        let c0 = self
            .c0
            .square()
            .sub(&self.c1.mul(&self.c2).mul_by_nonresidue());
        let c1 = self
            .c2
            .square()
            .mul_by_nonresidue()
            .sub(&self.c0.mul(&self.c1));
        let c2 = self.c1.square().sub(&self.c0.mul(&self.c2));
        let t = self
            .c1
            .mul(&c2)
            .add(&self.c2.mul(&c1))
            .mul_by_nonresidue()
            .add(&self.c0.mul(&c0));
        t.invert().map(|t_inv| Self {
            c0: c0.mul(&t_inv),
            c1: c1.mul(&t_inv),
            c2: c2.mul(&t_inv),
        })
    }

    /// Samples a random element.
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self {
            c0: Fp2::random(rng),
            c1: Fp2::random(rng),
            c2: Fp2::random(rng),
        }
    }
}

impl core::fmt::Debug for Fp6 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp6({:?}, {:?}, {:?})", self.c0, self.c1, self.c2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use proptest::prelude::*;

    fn sample(rng: &mut HmacDrbg) -> Fp6 {
        Fp6::random(rng)
    }

    #[test]
    fn v_cubed_is_nonresidue() {
        let v = Fp6::new(Fp2::ZERO, Fp2::ONE, Fp2::ZERO);
        let v3 = v.mul(&v).mul(&v);
        let xi = Fp6::new(Fp2::ONE.mul_by_nonresidue(), Fp2::ZERO, Fp2::ZERO);
        assert_eq!(v3, xi);
    }

    #[test]
    fn ring_axioms() {
        let mut rng = HmacDrbg::new(b"fp6", b"axioms");
        for _ in 0..8 {
            let a = sample(&mut rng);
            let b = sample(&mut rng);
            let c = sample(&mut rng);
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn karatsuba_matches_schoolbook(seed in any::<[u8; 32]>(), shape in 0u8..27) {
            let mut rng = HmacDrbg::new(b"fp6 mul oracle", &seed);
            // Each coefficient of the left operand random, zero or one, so
            // sparse operands and the identities are hit as well.
            let pick = |k: u8, rng: &mut HmacDrbg| match k % 3 {
                0 => Fp2::random(rng),
                1 => Fp2::ZERO,
                _ => Fp2::ONE,
            };
            let a = Fp6::new(
                pick(shape, &mut rng),
                pick(shape / 3, &mut rng),
                pick(shape / 9, &mut rng),
            );
            let b = sample(&mut rng);
            prop_assert_eq!(a.mul(&b), a.mul_schoolbook(&b));
            prop_assert_eq!(b.mul(&a), b.mul_schoolbook(&a));
            prop_assert_eq!(a.square(), a.mul_schoolbook(&a));
        }
    }

    #[test]
    fn invert_round_trip() {
        let mut rng = HmacDrbg::new(b"fp6", b"inv");
        for _ in 0..8 {
            let a = sample(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp6::ONE);
        }
        assert!(Fp6::ZERO.invert().is_none());
    }

    #[test]
    fn sparse_muls_match_full() {
        let mut rng = HmacDrbg::new(b"fp6", b"sparse");
        for _ in 0..8 {
            let a = sample(&mut rng);
            let x = Fp2::random(&mut rng);
            let y = Fp2::random(&mut rng);
            assert_eq!(a.mul_by_1(&x), a.mul(&Fp6::new(Fp2::ZERO, x, Fp2::ZERO)));
            assert_eq!(a.mul_by_01(&x, &y), a.mul(&Fp6::new(x, y, Fp2::ZERO)));
            assert_eq!(
                a.mul_by_v(),
                a.mul(&Fp6::new(Fp2::ZERO, Fp2::ONE, Fp2::ZERO))
            );
        }
    }

    #[test]
    fn frobenius_is_p_power() {
        let mut rng = HmacDrbg::new(b"fp6", b"frob");
        let a = sample(&mut rng);
        // x^p computed by explicit exponentiation is expensive but definitive.
        let mut expect = Fp6::ONE;
        for &limb in crate::fp::Fp::MODULUS.iter().rev() {
            for i in (0..64).rev() {
                expect = expect.square();
                if (limb >> i) & 1 == 1 {
                    expect = expect.mul(&a);
                }
            }
        }
        assert_eq!(a.frobenius(), expect);
    }
}
