//! Multi-precision limb arithmetic shared by the field implementations.
//!
//! All values are little-endian arrays of `u64` limbs. The routines here are
//! deliberately simple loop-based implementations (CIOS Montgomery
//! multiplication, schoolbook carries); they favour auditability over raw
//! speed, in keeping with the rest of this research codebase.
//!
//! **Side channels.** These routines are *not* constant time: comparisons and
//! conditional reductions branch on secret data. The paper this repository
//! reproduces explicitly scopes out TEE/host side channels (§3.1), so we make
//! the same trade and document it here once for the whole crypto crate.

/// Add with carry: returns `(sum, carry_out)` where `carry_out ∈ {0, 1}`.
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

/// Subtract with borrow: returns `(diff, borrow_out)` where `borrow_out ∈ {0, u64::MAX}`.
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub((b as u128) + ((borrow >> 63) as u128));
    (t as u64, (t >> 64) as u64)
}

/// Multiply-accumulate: computes `a + b * c + carry`, returning `(lo, hi)`.
#[inline(always)]
pub const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) * (c as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

/// Returns `true` if `a < b` when both are interpreted as little-endian integers.
#[inline]
pub fn lt<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    for i in (0..N).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// Returns `true` if every limb is zero.
#[inline]
pub fn is_zero<const N: usize>(a: &[u64; N]) -> bool {
    a.iter().all(|&l| l == 0)
}

/// Limb-wise addition; returns `(sum, carry)`.
#[inline]
pub fn add<const N: usize>(a: &[u64; N], b: &[u64; N]) -> ([u64; N], u64) {
    let mut out = [0u64; N];
    let mut carry = 0;
    for i in 0..N {
        let (s, c) = adc(a[i], b[i], carry);
        out[i] = s;
        carry = c;
    }
    (out, carry)
}

/// Limb-wise subtraction; returns `(difference, borrow)`.
#[inline]
pub fn sub<const N: usize>(a: &[u64; N], b: &[u64; N]) -> ([u64; N], u64) {
    let mut out = [0u64; N];
    let mut borrow = 0;
    for i in 0..N {
        let (d, bo) = sbb(a[i], b[i], borrow);
        out[i] = d;
        borrow = bo;
    }
    (out, borrow)
}

/// Modular addition of values already reduced below `m`.
///
/// Handles the (possible for 384-bit-wide moduli) carry out of the top limb.
#[inline]
pub fn add_mod<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N]) -> [u64; N] {
    let (sum, carry) = add(a, b);
    reduce_once(&sum, carry, m)
}

/// Modular subtraction of values already reduced below `m`.
#[inline]
pub fn sub_mod<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N]) -> [u64; N] {
    let (diff, borrow) = sub(a, b);
    if borrow == 0 {
        diff
    } else {
        let (fixed, _) = add(&diff, m);
        fixed
    }
}

/// Conditionally subtracts `m` from the `N+1`-limb value `(hi, lo)` so the
/// result is below `m`. Requires the input to be below `2m`.
#[inline]
pub fn reduce_once<const N: usize>(lo: &[u64; N], hi: u64, m: &[u64; N]) -> [u64; N] {
    let (candidate, borrow) = sub(lo, m);
    // The subtraction underflowed only if `hi` cannot absorb the borrow.
    let (_, final_borrow) = sbb(hi, 0, borrow);
    if final_borrow == 0 {
        candidate
    } else {
        *lo
    }
}

/// CIOS Montgomery multiplication: computes `a * b * R^{-1} mod m` where
/// `R = 2^{64N}` and `inv = -m^{-1} mod 2^64`.
///
/// Inputs must be fully reduced (`< m`); the output is fully reduced.
pub fn mont_mul<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N], inv: u64) -> [u64; N] {
    debug_assert!(
        N + 2 <= 16,
        "scratch buffer sized for fields up to 896 bits"
    );
    let mut t = [0u64; 16];
    for &ai in a.iter() {
        // t += ai * b
        let mut carry = 0;
        for j in 0..N {
            let (lo, hi) = mac(t[j], ai, b[j], carry);
            t[j] = lo;
            carry = hi;
        }
        let (s, c) = adc(t[N], carry, 0);
        t[N] = s;
        t[N + 1] = c;

        // Reduce: fold in mu * m so the low limb cancels.
        let mu = t[0].wrapping_mul(inv);
        let (_, mut carry) = mac(t[0], mu, m[0], 0);
        for j in 1..N {
            let (lo, hi) = mac(t[j], mu, m[j], carry);
            t[j - 1] = lo;
            carry = hi;
        }
        let (s, c) = adc(t[N], carry, 0);
        t[N - 1] = s;
        t[N] = t[N + 1] + c;
    }
    let mut lo = [0u64; N];
    lo.copy_from_slice(&t[..N]);
    reduce_once(&lo, t[N], m)
}

/// Divides the little-endian integer `a` by the single-limb divisor `d`,
/// returning quotient and remainder.
pub fn div_rem_u64<const N: usize>(a: &[u64; N], d: u64) -> ([u64; N], u64) {
    assert!(d != 0, "division by zero");
    let mut out = [0u64; N];
    let mut rem: u128 = 0;
    for i in (0..N).rev() {
        let cur = (rem << 64) | a[i] as u128;
        out[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    (out, rem as u64)
}

/// The quotient of [`div_rem_u64`]. Used to derive pairing exponents such
/// as `(p - 1) / 6` from the stored modulus at start-up instead of
/// hardcoding more magic constants.
pub fn div_by_u64<const N: usize>(a: &[u64; N], d: u64) -> [u64; N] {
    div_rem_u64(a, d).0
}

/// Subtracts the small constant `c` from `a`, asserting no underflow.
pub fn sub_small<const N: usize>(a: &[u64; N], c: u64) -> [u64; N] {
    let mut b = [0u64; N];
    b[0] = c;
    let (out, borrow) = sub(a, &b);
    assert_eq!(borrow, 0, "underflow subtracting small constant");
    out
}

/// `a⁻¹ mod m` for an odd prime `m` and `0 < a < m`, by the binary
/// extended Euclidean algorithm: at most two halvings per bit of `m`, each
/// a shift and sometimes an addition, where raising to `m − 2` costs a
/// multiplication or two per bit. Variable time, like the rest of this
/// file.
pub fn inv_mod<const N: usize>(a: &[u64; N], m: &[u64; N]) -> [u64; N] {
    // Halves `t` (even), and `x` with it modulo `m`.
    let halve = |t: &mut [u64; N], x: &mut [u64; N]| {
        let mut carry = 0;
        if x[0] & 1 == 1 {
            (*x, carry) = add(x, m);
        }
        for (limbs, mut carry) in [(t, 0), (x, carry)] {
            for limb in limbs.iter_mut().rev() {
                (*limb, carry) = (*limb >> 1 | carry << 63, *limb & 1);
            }
        }
    };
    // Kept throughout: `x1·a ≡ u` and `x2·a ≡ v` modulo `m`.
    let (mut u, mut v, mut x1, mut x2) = (*a, *m, [0u64; N], [0u64; N]);
    x1[0] = 1;
    let one = x1;
    while u != one && v != one {
        while u[0] & 1 == 0 {
            halve(&mut u, &mut x1);
        }
        while v[0] & 1 == 0 {
            halve(&mut v, &mut x2);
        }
        if lt(&u, &v) {
            (v, x2) = (sub(&v, &u).0, sub_mod(&x2, &x1, m));
        } else {
            (u, x1) = (sub(&u, &v).0, sub_mod(&x1, &x2, m));
        }
    }
    if u == one {
        x1
    } else {
        x2
    }
}

/// The Jacobi symbol `(a / m)` for odd `m` and `a < m`: `0` when they share
/// a factor, else `±1` — for a prime `m`, `1` exactly when `a` is a non-zero
/// square. The binary algorithm, shaped like [`inv_mod`]: strip the twos
/// from `a`, each flipping the sign when `m ≡ ±3 (mod 8)`; swap the two
/// when `a < m`, flipping it when both are `≡ 3 (mod 4)` (reciprocity);
/// subtract. Shifts and subtractions where Euler's criterion raises to
/// `(m − 1)/2`. Variable time, like the rest of this file.
pub fn jacobi<const N: usize>(a: &[u64; N], m: &[u64; N]) -> i8 {
    let (mut a, mut m, mut sign) = (*a, *m, 1);
    while !is_zero(&a) {
        // At most 63 twos a pass, a limb of zeros taking two: a `u64`
        // shifted by 64 overflows.
        loop {
            let twos = a[0].trailing_zeros().min(63);
            if twos == 0 {
                break;
            }
            for i in 0..N {
                let above = a.get(i + 1).map_or(0, |next| next << (64 - twos));
                a[i] = a[i] >> twos | above;
            }
            if twos & 1 == 1 && matches!(m[0] & 7, 3 | 5) {
                sign = -sign;
            }
        }
        if lt(&a, &m) {
            (a, m) = (m, a);
            if a[0] & 3 == 3 && m[0] & 3 == 3 {
                sign = -sign;
            }
        }
        a = sub(&a, &m).0;
    }
    let mut one = [0u64; N];
    one[0] = 1;
    if m == one {
        sign
    } else {
        0
    }
}

/// Interprets 8-byte chunks of a big-endian byte slice as little-endian limbs.
///
/// `bytes.len()` must equal `8 * N`.
pub fn limbs_from_be_bytes<const N: usize>(bytes: &[u8]) -> [u64; N] {
    assert_eq!(bytes.len(), 8 * N);
    let mut out = [0u64; N];
    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
        out[N - 1 - i] = u64::from_be_bytes(chunk.try_into().expect("chunk is 8 bytes"));
    }
    out
}

/// Serializes little-endian limbs as big-endian bytes.
pub fn limbs_to_be_bytes<const N: usize>(limbs: &[u64; N], out: &mut [u8]) {
    assert_eq!(out.len(), 8 * N);
    for (chunk, limb) in out.chunks_exact_mut(8).zip(limbs.iter().rev()) {
        chunk.copy_from_slice(&limb.to_be_bytes());
    }
}

/// Returns bit `i` (counting from the least-significant bit of limb 0).
#[inline]
pub fn bit<const N: usize>(a: &[u64; N], i: usize) -> bool {
    if i >= 64 * N {
        return false;
    }
    (a[i / 64] >> (i % 64)) & 1 == 1
}

/// Number of significant bits.
pub fn bit_length<const N: usize>(a: &[u64; N]) -> usize {
    for i in (0..N).rev() {
        if a[i] != 0 {
            return i * 64 + (64 - a[i].leading_zeros() as usize);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_carries() {
        assert_eq!(adc(u64::MAX, 1, 0), (0, 1));
        assert_eq!(adc(u64::MAX, u64::MAX, 1), (u64::MAX, 1));
        assert_eq!(adc(1, 2, 0), (3, 0));
    }

    #[test]
    fn sbb_borrows() {
        let (d, b) = sbb(0, 1, 0);
        assert_eq!(d, u64::MAX);
        assert_eq!(b, u64::MAX);
        let (d, b) = sbb(5, 3, 0);
        assert_eq!(d, 2);
        assert_eq!(b, 0);
    }

    #[test]
    fn mac_full_width() {
        // u64::MAX * u64::MAX + u64::MAX + u64::MAX does not overflow 128 bits.
        let (lo, hi) = mac(u64::MAX, u64::MAX, u64::MAX, u64::MAX);
        let expect = (u64::MAX as u128) * (u64::MAX as u128) + 2 * (u64::MAX as u128);
        assert_eq!(lo, expect as u64);
        assert_eq!(hi, (expect >> 64) as u64);
    }

    #[test]
    fn comparison_and_zero() {
        assert!(lt(&[1, 0], &[2, 0]));
        assert!(lt(&[u64::MAX, 1], &[0, 2]));
        assert!(!lt(&[0, 2], &[u64::MAX, 1]));
        assert!(is_zero(&[0u64; 4]));
        assert!(!is_zero(&[0, 1, 0, 0]));
    }

    #[test]
    fn div_by_small_matches_u128() {
        let a = [0xdead_beef_0123_4567u64, 0x0000_0000_ffff_ffff];
        let (q, rem) = div_rem_u64(&a, 6);
        let full = ((a[1] as u128) << 64) | a[0] as u128;
        let expect = full / 6;
        assert_eq!(q[0], expect as u64);
        assert_eq!(q[1], (expect >> 64) as u64);
        assert_eq!(rem as u128, full % 6);
        assert_eq!(div_by_u64(&a, 6), q);
    }

    /// `(a / m)` by its definition for every `a < m` and odd `m < 256`,
    /// primes and composites: the product over the prime factors `q` of
    /// `m` of Euler's criterion `a^((q − 1)/2) mod q`. (Shifts across
    /// limbs, and runs of 64 zeros, are `Fp::is_square`'s tests.)
    #[test]
    fn jacobi_is_the_product_of_legendre_symbols() {
        let legendre = |a: u64, q: u64| match (0..(q - 1) / 2).fold(1, |x, _| x * a % q) {
            0 => 0,
            1 => 1,
            _ => -1,
        };
        for m in (1u64..256).step_by(2) {
            let mut factors = Vec::new();
            let (mut rest, mut q) = (m, 3);
            while rest > 1 {
                while rest % q == 0 {
                    factors.push(q);
                    rest /= q;
                }
                q += 2;
            }
            for a in 0..m {
                let expected = factors.iter().map(|&q| legendre(a, q)).product::<i8>();
                assert_eq!(jacobi(&[a], &[m]), expected, "({a} / {m})");
            }
        }
    }

    #[test]
    fn byte_round_trip() {
        let limbs: [u64; 4] = [1, 2, 3, 0x8000_0000_0000_0000];
        let mut bytes = [0u8; 32];
        limbs_to_be_bytes(&limbs, &mut bytes);
        let back: [u64; 4] = limbs_from_be_bytes(&bytes);
        assert_eq!(limbs, back);
    }

    #[test]
    fn bits() {
        let a = [0b1010u64, 1];
        assert!(!bit(&a, 0));
        assert!(bit(&a, 1));
        assert!(bit(&a, 64));
        assert!(!bit(&a, 65));
        assert_eq!(bit_length(&a), 65);
        assert_eq!(bit_length(&[0u64; 2]), 0);
    }
}
