//! Macro generating a prime-field type in Montgomery representation.
//!
//! Both BLS12-381 fields (`Fp`, 381 bits, 6 limbs; `Fr`, 255 bits, 4 limbs)
//! are instances of this macro, mirroring how the `ff`-style ecosystems
//! derive their field backends. Elements are stored in Montgomery form
//! (`a·R mod m` with `R = 2^{64·N}`) and always fully reduced, so limb
//! equality is element equality.

/// Generates a Montgomery-form prime field type.
///
/// Parameters:
/// * `$name` — the type name to define.
/// * `$n` — number of 64-bit limbs.
/// * `$bytes` — canonical big-endian encoding width in bytes (`8 * $n`).
/// * `$modulus` — little-endian limbs of the prime modulus.
/// * `$inv` — `-modulus^{-1} mod 2^64`.
/// * `$r` — `2^{64n} mod modulus` (i.e. `1` in Montgomery form).
/// * `$r2` — `2^{128n} mod modulus`, used to enter Montgomery form.
/// * `$r3` — `2^{192n} mod modulus`, which takes a value carrying one
///   factor `R⁻¹` too many (an inverse from `inv_mod`, a wide reduction's
///   high half) into Montgomery form.
macro_rules! prime_field {
    (
        $(#[$doc:meta])*
        $name:ident, $n:expr, $bytes:expr, $modulus:expr, $inv:expr, $r:expr, $r2:expr, $r3:expr
    ) => {
        // The kernel's no-carry multiplication needs the modulus's top limb
        // below 2^63 − 1; that also makes 2m < 2^{64n}, so a sum of two
        // elements never carries out of the top limb.
        const _: () = {
            let modulus: [u64; $n] = $modulus;
            assert!(modulus[$n - 1] < (1 << 63) - 1, "modulus too wide for the field kernel");
        };

        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name(pub(crate) [u64; $n]);

        impl $name {
            /// Width of the canonical big-endian byte encoding.
            pub const BYTES: usize = $bytes;
            /// The prime modulus, little-endian limbs.
            pub const MODULUS: [u64; $n] = $modulus;
            pub(crate) const INV: u64 = $inv;
            pub(crate) const R: [u64; $n] = $r;
            pub(crate) const R2: [u64; $n] = $r2;
            /// `R2·R2·R⁻¹ = R³ mod m`.
            pub(crate) const R3: [u64; $n] = $r3;

            /// The additive identity.
            pub const ZERO: Self = Self([0u64; $n]);
            /// The multiplicative identity (Montgomery form of 1).
            pub const ONE: Self = Self(Self::R);

            /// Builds an element from canonical (non-Montgomery) limbs.
            /// Returns `None` if the value is not fully reduced.
            pub fn from_canonical_limbs(limbs: [u64; $n]) -> Option<Self> {
                if $crate::limbs::lt(&limbs, &Self::MODULUS) {
                    Some(Self($crate::limbs::mont_mul(
                        &limbs,
                        &Self::R2,
                        &Self::MODULUS,
                        Self::INV,
                    )))
                } else {
                    None
                }
            }

            /// Builds an element from canonical limbs, panicking when out of range.
            /// Intended for compile-time constants whose reduction is known.
            pub fn from_raw_unchecked(limbs: [u64; $n]) -> Self {
                Self::from_canonical_limbs(limbs).expect("constant out of field range")
            }

            /// Converts a small integer into the field.
            pub fn from_u64(v: u64) -> Self {
                let mut limbs = [0u64; $n];
                limbs[0] = v;
                Self::from_canonical_limbs(limbs).expect("u64 is below any >64-bit modulus")
            }

            /// Returns the canonical (non-Montgomery) little-endian limbs.
            pub fn to_canonical_limbs(&self) -> [u64; $n] {
                let one = {
                    let mut l = [0u64; $n];
                    l[0] = 1;
                    l
                };
                $crate::limbs::mont_mul(&self.0, &one, &Self::MODULUS, Self::INV)
            }

            /// Canonical big-endian byte encoding.
            pub fn to_bytes_be(&self) -> [u8; $bytes] {
                let limbs = self.to_canonical_limbs();
                let mut out = [0u8; $bytes];
                $crate::limbs::limbs_to_be_bytes(&limbs, &mut out);
                out
            }

            /// Parses a canonical big-endian encoding; `None` if not reduced.
            pub fn from_bytes_be(bytes: &[u8; $bytes]) -> Option<Self> {
                let limbs = $crate::limbs::limbs_from_be_bytes(bytes);
                Self::from_canonical_limbs(limbs)
            }

            /// True for the additive identity.
            #[inline]
            pub fn is_zero(&self) -> bool {
                $crate::limbs::is_zero(&self.0)
            }

            /// Field addition.
            #[inline]
            pub fn add(&self, rhs: &Self) -> Self {
                Self($crate::limbs::add_mod(&self.0, &rhs.0, &Self::MODULUS))
            }

            /// Field subtraction.
            #[inline]
            pub fn sub(&self, rhs: &Self) -> Self {
                Self($crate::limbs::sub_mod(&self.0, &rhs.0, &Self::MODULUS))
            }

            /// Additive inverse: `0 − self`.
            #[inline]
            pub fn neg(&self) -> Self {
                Self($crate::limbs::sub_mod(&[0; $n], &self.0, &Self::MODULUS))
            }

            /// Field multiplication (Montgomery).
            #[inline]
            pub fn mul(&self, rhs: &Self) -> Self {
                Self($crate::limbs::mont_mul(
                    &self.0,
                    &rhs.0,
                    &Self::MODULUS,
                    Self::INV,
                ))
            }

            /// Squaring, by its own routine: each cross product is taken
            /// once.
            #[inline]
            pub fn square(&self) -> Self {
                Self($crate::limbs::mont_square::<$n, { 2 * $n }>(
                    &self.0,
                    &Self::MODULUS,
                    Self::INV,
                ))
            }

            /// Doubling.
            #[inline]
            pub fn double(&self) -> Self {
                self.add(self)
            }

            /// Variable-time exponentiation by a little-endian limb exponent.
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

            /// Multiplicative inverse; `None` for zero. The binary GCD
            /// [`inv_mod`]($crate::limbs::inv_mod) runs on the Montgomery
            /// representative `aR` and returns `a⁻¹R⁻¹`; one
            /// multiplication by `R³` makes that `a⁻¹R`.
            pub fn invert(&self) -> Option<Self> {
                if self.is_zero() {
                    return None;
                }
                let inverse = $crate::limbs::inv_mod(&self.0, &Self::MODULUS);
                Some(Self($crate::limbs::mont_mul(
                    &inverse,
                    &Self::R3,
                    &Self::MODULUS,
                    Self::INV,
                )))
            }

            /// Samples a uniformly random element by wide reduction of
            /// `2 × $bytes` random bytes (bias < 2^-192).
            pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
                let mut wide = [0u8; 2 * $bytes];
                rng.fill_bytes(&mut wide);
                Self::from_bytes_wide(&wide)
            }

            /// Reduces a `2 × $bytes` big-endian integer into the field.
            ///
            /// Splits the value as `hi·2^{64n} + lo`, reduces each half below
            /// the modulus (the multiplication takes only field elements), and
            /// maps each into Montgomery form with one multiplication:
            /// `lo·R2·R^{-1} = lo·R` and `hi·R3·R^{-1} = hi·2^{64n}·R`.
            pub fn from_bytes_wide(bytes: &[u8; 2 * $bytes]) -> Self {
                let half = |b: &[u8]| {
                    $crate::limbs::reduce_below(
                        &$crate::limbs::limbs_from_be_bytes::<$n>(b),
                        &Self::MODULUS,
                    )
                };
                let (hi, lo) = (half(&bytes[..$bytes]), half(&bytes[$bytes..]));
                let lo_m = $crate::limbs::mont_mul(&lo, &Self::R2, &Self::MODULUS, Self::INV);
                let hi_m = $crate::limbs::mont_mul(&hi, &Self::R3, &Self::MODULUS, Self::INV);
                Self($crate::limbs::add_mod(&lo_m, &hi_m, &Self::MODULUS))
            }

            /// Interprets the canonical form as an odd/even parity bit,
            /// used to pick a deterministic square root sign.
            pub fn is_odd(&self) -> bool {
                self.to_canonical_limbs()[0] & 1 == 1
            }
        }

        impl core::fmt::Debug for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "0x")?;
                for b in self.to_bytes_be() {
                    write!(f, "{:02x}", b)?;
                }
                Ok(())
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::ZERO
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                $name::add(&self, &rhs)
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                $name::sub(&self, &rhs)
            }
        }

        impl core::ops::Mul for $name {
            type Output = Self;
            fn mul(self, rhs: Self) -> Self {
                $name::mul(&self, &rhs)
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                $name::neg(&self)
            }
        }

        impl core::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                *self = $name::add(self, &rhs);
            }
        }

        impl core::ops::SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                *self = $name::sub(self, &rhs);
            }
        }

        impl core::ops::MulAssign for $name {
            fn mul_assign(&mut self, rhs: Self) {
                *self = $name::mul(self, &rhs);
            }
        }
    };
}

pub(crate) use prime_field;
