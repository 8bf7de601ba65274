//! Multi-precision limb arithmetic shared by the field implementations.
//!
//! All values are little-endian arrays of `u64` limbs. Both BLS12-381
//! fields run on one Montgomery kernel: [`mont_mul`] (the no-carry CIOS),
//! [`mont_square`] (cross products taken once), and [`add_mod`] /
//! [`sub_mod`], whose final subtraction or addition of the modulus is
//! selected by a borrow mask. The kernel's precondition is a modulus
//! whose top limb is below `2^63 − 1`, which leaves both the multiplication
//! and the sum of two elements room in `N` limbs; the field macro asserts
//! it at compile time. Every operand must be reduced below the modulus.
//!
//! Inversion, [`inv_mod`], is Pornin's optimized binary GCD (eprint
//! 2020/972): 31 steps of the binary extended Euclid at a time on 64-bit
//! approximations of the two values, then one signed update of the full
//! values and of the Bézout pair modulo `m`. An `Fp` inversion costs about
//! 75 multiplications, where the bit-serial Euclid it replaced cost about
//! 190 (`cost_ratios`' inversion guard); that Euclid stays in the tests as
//! the new one's oracle.
//!
//! **Side channels.** These routines are *not* constant time: comparisons,
//! the inversion, the Jacobi symbol and the wide reduction branch on secret
//! data. That the kernel selects by mask rather than by branch is for
//! speed, not a constant-time claim. The paper this repository reproduces
//! explicitly scopes out TEE/host side channels (§3.1), so we make the same
//! trade and document it here once for the whole crypto crate.

/// Add with carry: returns `(sum, carry_out)` where `carry_out ∈ {0, 1}`.
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

/// Subtract with borrow: returns `(diff, borrow_out)` where `borrow_out ∈ {0, u64::MAX}`.
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    // Two `overflowing_sub`s, which the compiler fuses into one
    // subtract-with-borrow along a chain.
    let (d, b1) = a.overflowing_sub(b);
    let (d, b2) = d.overflowing_sub(borrow >> 63);
    (d, ((b1 | b2) as u64).wrapping_neg())
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

/// `yes` where `mask` is all ones, `no` where it is zero: the borrow of
/// [`sub`] used as a selector, so the choice takes no branch.
#[inline(always)]
fn select<const N: usize>(mask: u64, yes: &[u64; N], no: &[u64; N]) -> [u64; N] {
    core::array::from_fn(|i| (yes[i] & mask) | (no[i] & !mask))
}

/// Modular addition of values already reduced below `m`. The sum cannot
/// carry out of the top limb, since `2m < 2^{64N}`.
#[inline]
pub fn add_mod<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N]) -> [u64; N] {
    reduce_once(&add(a, b).0, m)
}

/// Modular subtraction of values already reduced below `m`: `m` is added
/// back under the borrow's mask.
#[inline]
pub fn sub_mod<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N]) -> [u64; N] {
    let (diff, borrow) = sub(a, b);
    add(&diff, &core::array::from_fn(|i| m[i] & borrow)).0
}

/// Subtracts `m` from `a < 2m` unless that borrows, so the result is
/// below `m`.
#[inline]
pub fn reduce_once<const N: usize>(a: &[u64; N], m: &[u64; N]) -> [u64; N] {
    let (candidate, borrow) = sub(a, m);
    select(borrow, a, &candidate)
}

/// Reduces any `a < 2^{64N}` below `m` by repeated subtraction: a value
/// below `k·m` takes at most `k − 1` of them. What [`mont_mul`] needs of
/// an operand that is not already a field element.
pub fn reduce_below<const N: usize>(a: &[u64; N], m: &[u64; N]) -> [u64; N] {
    let mut a = *a;
    while !lt(&a, m) {
        a = sub(&a, m).0;
    }
    a
}

/// Montgomery multiplication: `a · b · R^{-1} mod m`, where `R = 2^{64N}`
/// and `inv = -m^{-1} mod 2^64`, by the no-carry CIOS. Each round adds
/// `a · b[i]` and `μ · m` into an `N`-limb accumulator in one pass and
/// shifts it down a limb; neither sum needs a word above the top limb,
/// because the top limb of `m` is below `2^63 − 1` (the field macro
/// asserts it at compile time).
///
/// Inputs must be fully reduced (`< m`); the output is fully reduced.
#[inline]
pub fn mont_mul<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N], inv: u64) -> [u64; N] {
    let mut t = [0u64; N];
    for &bi in b.iter() {
        let (t0, mut carry_ab) = mac(t[0], a[0], bi, 0);
        let mu = t0.wrapping_mul(inv);
        let (_, mut carry_m) = mac(t0, mu, m[0], 0);
        for j in 1..N {
            let (tj, c) = mac(t[j], a[j], bi, carry_ab);
            carry_ab = c;
            (t[j - 1], carry_m) = mac(tj, mu, m[j], carry_m);
        }
        t[N - 1] = carry_m + carry_ab;
    }
    reduce_once(&t, m)
}

/// Montgomery squaring: `a² · R^{-1} mod m`, the same value as
/// [`mont_mul`]`(a, a, …)`. The cross products `a[i]·a[j]` (`i < j`) are
/// taken once and doubled, the diagonal `a[i]²` added, and the `2N`-limb
/// square reduced in `N` rounds. `W` is `2N`, the width of the square.
///
/// The input must be fully reduced (`< m`); the output is fully reduced.
#[inline]
pub fn mont_square<const N: usize, const W: usize>(
    a: &[u64; N],
    m: &[u64; N],
    inv: u64,
) -> [u64; N] {
    const { assert!(W == 2 * N, "a square is twice as wide as its root") };
    let mut t = [0u64; W];
    for i in 0..N - 1 {
        let mut carry = 0;
        for j in i + 1..N {
            (t[i + j], carry) = mac(t[i + j], a[i], a[j], carry);
        }
        t[i + N] = carry;
    }
    // Doubled: the cross products sum to below a² / 2, so no bit is lost.
    let mut high = 0;
    for limb in t.iter_mut() {
        (*limb, high) = (*limb << 1 | high, *limb >> 63);
    }
    let mut carry = 0;
    for i in 0..N {
        let (lo, hi) = mac(t[2 * i], a[i], a[i], carry);
        t[2 * i] = lo;
        (t[2 * i + 1], carry) = adc(t[2 * i + 1], hi, 0);
    }
    // N rounds each cancel the lowest limb left; `carry` is the word a
    // round leaves above its top limb, added into the next round's.
    let mut carry = 0;
    for i in 0..N {
        let mu = t[i].wrapping_mul(inv);
        let (_, mut c) = mac(t[i], mu, m[0], 0);
        for j in 1..N {
            (t[i + j], c) = mac(t[i + j], mu, m[j], c);
        }
        (t[i + N], carry) = adc(t[i + N], c, carry);
    }
    reduce_once(&core::array::from_fn(|i| t[N + i]), m)
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

/// The bits of `a` from bit `pos` on, as many as fit a `u64`.
#[inline(always)]
fn bits_from<const N: usize>(a: &[u64; N], pos: usize) -> u64 {
    let (limb, shift) = (pos / 64, pos % 64);
    let low = a[limb] >> shift;
    match a.get(limb + 1) {
        Some(next) if shift != 0 => low | next << (64 - shift),
        _ => low,
    }
}

/// `(a·f + b·g) / 2³¹` for `|f| + |g| ≤ 2³¹` and a sum that `2³¹` divides,
/// as its magnitude and whether it is negative. The exact sum takes a
/// word above the top limb, `hi`; the quotient's magnitude fits `N` limbs.
#[inline(always)]
fn combine_shift<const N: usize>(a: &[u64; N], b: &[u64; N], f: i64, g: i64) -> ([u64; N], bool) {
    let mut sum = [0u64; N];
    let mut acc: i128 = 0;
    for i in 0..N {
        acc += a[i] as i128 * f as i128 + b[i] as i128 * g as i128;
        sum[i] = acc as u64;
        acc >>= 64;
    }
    let hi = acc as u64;
    let mut out: [u64; N] =
        core::array::from_fn(|i| sum[i] >> 31 | sum.get(i + 1).copied().unwrap_or(hi) << 33);
    let negative = (acc as i64) < 0;
    if negative {
        out = sub(&[0; N], &out).0;
    }
    (out, negative)
}

/// `(u·f + v·g) / 2³¹ mod m` for `u, v < m` and `|f| + |g| ≤ 2³¹`: the
/// multiple `k·m` (`k < 2³¹`, by `minv = −m⁻¹ mod 2⁶⁴`) that clears the
/// sum's low 31 bits is added in the same pass, so the quotient is exact
/// and lies in `(−m, 2m)`; one correction either way brings it below `m`.
#[inline(always)]
fn combine_shift_mod<const N: usize>(
    u: &[u64; N],
    v: &[u64; N],
    f: i64,
    g: i64,
    m: &[u64; N],
    minv: u64,
) -> [u64; N] {
    let low = u[0]
        .wrapping_mul(f as u64)
        .wrapping_add(v[0].wrapping_mul(g as u64));
    let k = low.wrapping_mul(minv) & 0x7fff_ffff;
    let mut sum = [0u64; N];
    let mut acc: i128 = 0;
    for i in 0..N {
        acc += u[i] as i128 * f as i128 + v[i] as i128 * g as i128 + (m[i] as i128) * k as i128;
        sum[i] = acc as u64;
        acc >>= 64;
    }
    let hi = acc as u64;
    let out: [u64; N] =
        core::array::from_fn(|i| sum[i] >> 31 | sum.get(i + 1).copied().unwrap_or(hi) << 33);
    if (acc as i64) < 0 {
        add(&out, m).0
    } else {
        reduce_once(&out, m)
    }
}

/// `a⁻¹ mod m` for an odd prime `m` and `0 < a < m`, by Pornin's optimized
/// binary GCD (eprint 2020/972). The binary extended Euclid halves `a` and
/// subtracts `b` from it, one bit a step, on the full values; here 31 of
/// those steps at a time run on 64-bit approximations of `a` and `b` —
/// their low 31 bits and their top 33 — and only record what they did, as
/// the signed factors `f0, g0, f1, g1`. One signed update of the full
/// values, `a, b ← (a·f0 + b·g0, a·f1 + b·g1) / 2³¹`, and of the Bézout
/// pair modulo `m` follows; the division by `2³¹` is exact for `a` and `b`,
/// and a Montgomery step for the pair. An approximate step can make a
/// value negative, which the update turns back. It keeps `a ≡ x·u` and
/// `b ≡ x·v` (mod `m`) for the input `x`, and ends at `a = 0` and
/// `b = gcd = 1`, so `v = x⁻¹` — within `2·len(m) − 1` steps. Variable
/// time, like the rest of this file.
pub fn inv_mod<const N: usize>(a: &[u64; N], m: &[u64; N]) -> [u64; N] {
    // m⁻¹ mod 2⁶⁴ by Newton's iteration: an odd m is its own inverse
    // modulo 8, and each step doubles the bits that are right.
    let mut minv = m[0];
    for _ in 0..5 {
        minv = minv.wrapping_mul(2u64.wrapping_sub(m[0].wrapping_mul(minv)));
    }
    let minv = minv.wrapping_neg();
    let (mut a, mut b) = (*a, *m);
    let (mut u, mut v) = ([0u64; N], [0u64; N]);
    u[0] = 1;
    const LOW: u64 = 0x7fff_ffff;
    let bits = 64 * N - m[N - 1].leading_zeros() as usize;
    for _ in 0..(2 * bits - 1).div_ceil(31) {
        if is_zero(&a) {
            break;
        }
        // The top 33 bits from the top of the wider value, at least 64 bits
        // up, beneath the low 31: exact while both fit a word.
        let wide = core::array::from_fn::<u64, N, _>(|i| a[i] | b[i]);
        let top = (0..N).rev().find(|&i| wide[i] != 0).unwrap_or(0);
        let len = (64 * top + 64 - wide[top].leading_zeros() as usize).max(64);
        let (mut a_hat, mut b_hat) = (
            a[0] & LOW | bits_from(&a, len - 33) << 31,
            b[0] & LOW | bits_from(&b, len - 33) << 31,
        );
        let (mut f0, mut g0, mut f1, mut g1) = (1i64, 0i64, 0i64, 1i64);
        for _ in 0..31 {
            if a_hat & 1 == 1 {
                if a_hat < b_hat {
                    (a_hat, b_hat) = (b_hat, a_hat);
                    (f0, f1) = (f1, f0);
                    (g0, g1) = (g1, g0);
                }
                a_hat -= b_hat;
                f0 -= f1;
                g0 -= g1;
            }
            a_hat >>= 1;
            f1 <<= 1;
            g1 <<= 1;
        }
        let (next_a, negative) = combine_shift(&a, &b, f0, g0);
        if negative {
            (f0, g0) = (-f0, -g0);
        }
        let (next_b, negative) = combine_shift(&a, &b, f1, g1);
        if negative {
            (f1, g1) = (-f1, -g1);
        }
        (a, b) = (next_a, next_b);
        (u, v) = (
            combine_shift_mod(&u, &v, f0, g0, m, minv),
            combine_shift_mod(&u, &v, f1, g1, m, minv),
        );
    }
    debug_assert!(is_zero(&a) && b[0] == 1 && b[1..].iter().all(|&l| l == 0));
    v
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The kernel as it stood before the no-carry multiplication, kept as
    /// the oracle the kernel is held to: the generic CIOS over a scratch
    /// buffer with a word above the top limb, and additions that branch;
    /// and the bit-serial Euclid the binary GCD replaced.
    mod reference {
        use super::super::{adc, add, is_zero, lt, mac, sbb, sub};

        fn reduce_once<const N: usize>(lo: &[u64; N], hi: u64, m: &[u64; N]) -> [u64; N] {
            let (candidate, borrow) = sub(lo, m);
            let (_, final_borrow) = sbb(hi, 0, borrow);
            if final_borrow == 0 {
                candidate
            } else {
                *lo
            }
        }

        pub fn add_mod<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N]) -> [u64; N] {
            let (sum, carry) = add(a, b);
            reduce_once(&sum, carry, m)
        }

        pub fn sub_mod<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N]) -> [u64; N] {
            let (diff, borrow) = sub(a, b);
            if borrow == 0 {
                diff
            } else {
                add(&diff, m).0
            }
        }

        pub fn neg<const N: usize>(a: &[u64; N], m: &[u64; N]) -> [u64; N] {
            if is_zero(a) {
                *a
            } else {
                sub(m, a).0
            }
        }

        pub fn mont_mul<const N: usize>(
            a: &[u64; N],
            b: &[u64; N],
            m: &[u64; N],
            inv: u64,
        ) -> [u64; N] {
            let mut t = [0u64; 16];
            for &ai in a.iter() {
                let mut carry = 0;
                for j in 0..N {
                    let (lo, hi) = mac(t[j], ai, b[j], carry);
                    t[j] = lo;
                    carry = hi;
                }
                let (s, c) = adc(t[N], carry, 0);
                t[N] = s;
                t[N + 1] = c;
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

        /// The inversion as it stood before the binary GCD: the binary
        /// extended Euclid on the full values, one halving or subtraction
        /// (and its counterpart modulo `m`) a step.
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

        /// `(hi·2^{64N} + lo) mod m` by long division, a bit at a time.
        pub fn rem_wide<const N: usize>(hi: &[u64; N], lo: &[u64; N], m: &[u64; N]) -> [u64; N] {
            let mut rem = [0u64; N];
            for limb in lo.iter().chain(hi).rev() {
                for i in (0..64).rev() {
                    // `rem < m < 2^{64N − 1}`, so doubling it loses no bit.
                    rem = add(&rem, &rem).0;
                    rem[0] |= limb >> i & 1;
                    if !super::super::lt(&rem, m) {
                        rem = sub(&rem, m).0;
                    }
                }
            }
            rem
        }
    }

    /// Holds every kernel routine of a field to [`reference`] on random
    /// elements, on the edges of the final subtraction and the masks, and
    /// holds its wide reduction to long division.
    macro_rules! kernel_oracle {
        ($module:ident, $field:ident, $n:expr) => {
            mod $module {
                use super::reference;
                use super::*;
                use crate::$module::$field;

                const M: [u64; $n] = $field::MODULUS;

                /// Every routine on `(a, b)` (Montgomery representatives,
                /// both below the modulus) against the reference.
                fn check(a: [u64; $n], b: [u64; $n]) -> Result<(), TestCaseError> {
                    let (x, y) = ($field(a), $field(b));
                    let inv = $field::INV;
                    let rows = [
                        ("a · b", x.mul(&y).0, reference::mont_mul(&a, &b, &M, inv)),
                        ("a²", x.square().0, reference::mont_mul(&a, &a, &M, inv)),
                        ("a + b", x.add(&y).0, reference::add_mod(&a, &b, &M)),
                        ("a − b", x.sub(&y).0, reference::sub_mod(&a, &b, &M)),
                        ("2·a", x.double().0, reference::add_mod(&a, &a, &M)),
                        ("−a", x.neg().0, reference::neg(&a, &M)),
                    ];
                    for (op, got, want) in rows {
                        prop_assert!(
                            got == want,
                            "{op} at a = {a:x?}, b = {b:x?}: {got:x?}, not {want:x?}"
                        );
                    }
                    Ok(())
                }

                /// Limbs below the modulus: the top one taken modulo the
                /// modulus's top limb.
                fn below_m() -> impl Strategy<Value = [u64; $n]> {
                    any::<[u64; $n]>().prop_map(|mut a| {
                        a[$n - 1] %= M[$n - 1];
                        a
                    })
                }

                /// The binary GCD's inverse of `a` (a canonical value, not a
                /// representative) against the reference Euclid's, and
                /// checked as an inverse.
                fn check_inverse(a: [u64; $n]) -> Result<(), TestCaseError> {
                    let (got, want) = (inv_mod(&a, &M), reference::inv_mod(&a, &M));
                    prop_assert!(got == want, "1/{a:x?}: {got:x?}, not {want:x?}");
                    // Raw values multiply to `a·a⁻¹·R⁻¹ = R⁻¹`, and `R³`
                    // makes that `R`: one.
                    let product = $field(a).mul(&$field(got)).mul(&$field($field::R3));
                    prop_assert!(product == $field::ONE, "a · 1/a at {a:x?}");
                    Ok(())
                }

                proptest! {
                    #![proptest_config(ProptestConfig::with_cases(256))]

                    #[test]
                    fn inversion_matches_the_reference(a in below_m()) {
                        prop_assume!(!is_zero(&a));
                        check_inverse(a)?;
                    }

                    #[test]
                    fn kernel_matches_the_reference(a in below_m(), b in below_m()) {
                        check(a, b)?;
                        // Pairs whose sum is exactly m, and exactly m − 1.
                        let m_minus = |c: &[u64; $n]| sub(&M, c).0;
                        if !is_zero(&a) {
                            check(a, m_minus(&a))?;
                        }
                        check(a, sub_small(&m_minus(&a), 1))?;
                    }
                }

                /// 0, 1, m − 1, m − 2 and `R mod m` against each other, and
                /// each with the operands that sum with it to m and to m − 1.
                #[test]
                fn kernel_matches_the_reference_at_the_edges() {
                    let mut one = [0u64; $n];
                    one[0] = 1;
                    let edges = [[0; $n], one, sub_small(&M, 1), sub_small(&M, 2), $field::R];
                    for a in edges {
                        for b in edges {
                            check(a, b).unwrap();
                        }
                        if !is_zero(&a) {
                            check(a, sub(&M, &a).0).unwrap();
                        }
                        check(a, sub_small(&sub(&M, &a).0, 1)).unwrap();
                    }
                }

                /// 1, 2, m − 1, m − 2, `R mod m` and every power of two below
                /// the modulus: the values whose approximations are exact
                /// from the start, or whose first steps are all halvings.
                #[test]
                fn inversion_matches_the_reference_at_the_edges() {
                    let mut edges = vec![sub_small(&M, 1), sub_small(&M, 2), $field::R];
                    for k in 0..64 * $n {
                        let mut power = [0u64; $n];
                        power[k / 64] = 1 << (k % 64);
                        if lt(&power, &M) {
                            edges.push(power);
                        }
                    }
                    for a in edges {
                        check_inverse(a).unwrap();
                    }
                }

                /// Wide values at all zeros, all ones, and just below, at
                /// and just above `m·2^{64N}`, against long division.
                #[test]
                fn wide_reduction_matches_long_division() {
                    let ones = [u64::MAX; $n];
                    let mut one = [0u64; $n];
                    one[0] = 1;
                    let cases = [
                        ([0; $n], [0; $n]),
                        (ones, ones),
                        (sub_small(&M, 1), ones),
                        (M, [0; $n]),
                        (M, one),
                        (ones, [0; $n]),
                        ([0; $n], ones),
                    ];
                    for (hi, lo) in cases {
                        let mut bytes = [0u8; 2 * $field::BYTES];
                        limbs_to_be_bytes(&hi, &mut bytes[..$field::BYTES]);
                        limbs_to_be_bytes(&lo, &mut bytes[$field::BYTES..]);
                        assert_eq!(
                            $field::from_bytes_wide(&bytes).to_canonical_limbs(),
                            reference::rem_wide(&hi, &lo, &M),
                            "{hi:x?}·2^(64N) + {lo:x?}",
                        );
                    }
                }
            }
        };
    }

    kernel_oracle!(fp, Fp, 6);
    kernel_oracle!(fr, Fr, 4);

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
    }
}
