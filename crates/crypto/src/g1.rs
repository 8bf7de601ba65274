//! `G1` — the order-`r` subgroup of `E(Fp): y² = x³ + 4`.
//!
//! The group law, the ladder and the compressed encoding are
//! [`crate::curve`]'s, shared with G2. What is G1's own is here: its `b`
//! and generator, Scott's subgroup test, hashing to G1, and the
//! multi-scalar kernel every multiplication of a point of G1 runs on.
//!
//! There is one multiplication path per kind of point:
//!
//! * **A point known to lie in G1** — decoded by
//!   [`G1Affine::from_compressed`], produced by [`hash_to_g1`], or a
//!   multiple of the generator — goes through [`G1Projective::multi_scalar`]
//!   ([`G1Projective::mul_scalar`] and [`G1Projective::mul_generator`] are
//!   its one-term forms). The kernel adds up **table lanes**: every point
//!   enters it as a [`G1Table`], the odd multiples of the point and of
//!   `−φ` of it, and every scalar is split along the endomorphism
//!   `φ = [−u²]` so that its two 128-bit halves index those two runs.
//!   `φ` acts that way **on G1 only**: a table built on a curve point
//!   outside the subgroup yields some other curve point, not `k·P`. (The
//!   one caller that sums points decoded without the subgroup test,
//!   [`crate::threshold::aggregate`], relies on nothing but the subgroup
//!   test of the sum.)
//!   Membership is the precondition of [`G1Table::new`] and
//!   [`G1Table::narrow`]; types that feed them
//!   ([`crate::schnorr::VerifyingKey`], [`crate::schnorr::KeptKey`]) keep
//!   their point private for that reason.
//! * **Any point of the curve** goes through the bit-by-bit
//!   [`G1Projective::mul_limbs`] ladder, which assumes nothing: cofactor
//!   clearing, the subgroup test itself, and the oracle the kernel is
//!   tested against.
//!
//! **A table has a spacing.** A narrow table (window 5, built for one sum)
//! and a wide one of spacing 1 (window 8, affine) hold the odd multiples of
//! `P`, and a sum over them runs 129 doublings, one per bit of a half. A
//! wide table of spacing `c` holds those of the `c` bases `2^(128/c·j)·P`
//! as well, each half is consumed as `c` chunks of `128/c` bits, and a sum
//! whose lanes are all spaced runs `128/c + 1` doublings for about as many
//! additions — doublings were ≈ 60 % of a verification. The price is
//! `c` times the table, so spacing goes only where a table is used for
//! good:
//!
//! * the generator's own table has spacing 8 (≈ 106 KB, built once per
//!   process, [`G1Table::generator`]): `k·G` — every Schnorr signature,
//!   quote and checkpoint signed — takes 17 doublings where it took 128;
//!   a spacing-1 one (≈ 13 KB) serves sums beside a narrow lane, which
//!   cost 129 doublings anyway ([`G1Table::generator_beside`]);
//! * a [`crate::schnorr::KeptKey`] — an auditor's pinned checkpoint key —
//!   builds one of spacing 4 (≈ 53 KB) and keeps it, so each verification
//!   under it takes 33;
//! * every other point keeps what it had: a narrow table per sum.
//!
//! Both paths are variable time — the kernel's digit pattern and table
//! lookups depend on the scalar exactly as the ladder's additions do; see
//! the side-channel note in [`crate::limbs`]. Signing's secret nonce is
//! recoded into the spaced generator table's chunks and its digits index
//! that table exactly as they indexed the unspaced one: the same kind of
//! dependence, on shorter NAFs.

use crate::curve::{self, sealed::Sealed, Affine, BaseField, Projective};
use crate::fp::Fp;
use crate::fr::Fr;
use crate::limbs;
use crate::sha256::sha256_many;
use crate::BLS_X;
use std::sync::OnceLock;

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

/// Window of a [`G1Table::narrow`] table's NAFs: eight odd multiples,
/// cheap enough to build for a single sum.
const NARROW_WINDOW: u32 = 5;
/// Window of a [`G1Table::new`] table's NAFs: 64 odd multiples of each
/// base in affine form, for a point that many sums share.
const WIDE_WINDOW: u32 = 8;
/// Spacing of [`G1Table::generator`]: eight bases 16 bits apart (≈ 106 KB,
/// built once per process in ≈ 0.7 ms), so that `k·G` takes 17 doublings.
const GENERATOR_SPACING: u32 = 8;

/// `(k₁, k₂)` with `k = k₁ + k₂·u²` and both halves below `u² < 2¹²⁸`, so
/// that `k·P = k₁·P + k₂·(−φ(P))` for `P ∈ G1`. `r = u⁴ − u² + 1 < u⁴`
/// bounds the quotient, which is why a plain division (here by `u`, twice)
/// serves where other curves need a lattice reduction.
fn split_scalar(k: &Fr) -> (u128, u128) {
    let (q, r1) = limbs::div_rem_u64(&k.to_canonical_limbs(), BLS_X);
    let (q, r2) = limbs::div_rem_u64(&q, BLS_X);
    debug_assert_eq!((q[2], q[3]), (0, 0), "k < u^4");
    let k1 = r2 as u128 * BLS_X as u128 + r1 as u128;
    let k2 = (q[1] as u128) << 64 | q[0] as u128;
    (k1, k2)
}

/// A width-`w` non-adjacent form of a non-negative integer, least
/// significant digit first, in room for `N` digits: every non-zero digit
/// is odd and below `2^(w−1)` in magnitude, and at least `w − 1` zeros
/// follow it. A value below `2^b` has at most `b + 1` digits, so the
/// kernel's 128-bit halves fit in 129 and a scalar of [`Fr`] (below
/// `r < 2²⁵⁵`) in 256.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Naf<const N: usize> {
    digits: [i8; N],
    len: usize,
}

impl<const N: usize> Naf<N> {
    /// The form of `k`, given as little-endian 64-bit limbs, for a width
    /// `w` in `2..=8`. Panics if it needs more than `N` digits.
    pub fn new(k: &[u64], w: u32) -> Self {
        assert!((2..=8).contains(&w), "digits are stored as i8");
        let mask = (1u64 << w) - 1;
        // Bits `pos..pos + w` of `k`, zero past its top.
        let window = |pos: usize| {
            let (limb, shift) = (pos / 64, pos % 64);
            let low = k.get(limb).map_or(0, |l| l >> shift);
            let high = match k.get(limb + 1) {
                Some(h) if shift + w as usize > 64 => h << (64 - shift),
                _ => 0,
            };
            (low | high) & mask
        };
        let mut digits = [0i8; N];
        let mut len = 0;
        let bits = k
            .iter()
            .rposition(|&limb| limb != 0)
            .map_or(0, |top| 64 * top + 64 - k[top].leading_zeros() as usize);
        // `carry` is the 1 that a negative digit left at bit `pos`: the
        // value still to recode is `k >> pos` plus it.
        let (mut pos, mut carry) = (0, 0);
        while pos < bits || carry != 0 {
            let low = window(pos) + carry;
            if low & 1 == 0 {
                // A zero digit: the bit equals the carry, which moves up.
                pos += 1;
                continue;
            }
            let digit = if low >= 1 << (w - 1) {
                carry = 1;
                low as i32 - (1 << w)
            } else {
                carry = 0;
                low as i32
            };
            digits[pos] = digit as i8;
            len = pos + 1;
            // The digit clears the window: its other `w − 1` digits are 0.
            pos += w as usize;
        }
        Self { digits, len }
    }

    /// The digits up to the top non-zero one; empty for `k = 0`.
    pub fn digits(&self) -> &[i8] {
        &self.digits[..self.len]
    }

    /// Digit `i`, zero above the top one; `None` from `N` on.
    pub fn digit(&self, i: usize) -> Option<i8> {
        self.digits.get(i).copied()
    }

    /// Digit `i` when it is not zero, as the table offset of its magnitude
    /// (`|d| / 2`, tables holding odd multiples) and whether it is negative.
    fn term(&self, i: usize) -> Option<(usize, bool)> {
        let digit = *self.digits.get(i)?;
        (digit != 0).then(|| (usize::from(digit.unsigned_abs() / 2), digit < 0))
    }
}

/// The same digits negated: a form of `−k`.
impl<const N: usize> core::ops::Neg for Naf<N> {
    type Output = Self;

    fn neg(mut self) -> Self {
        for d in &mut self.digits {
            *d = -*d;
        }
        self
    }
}

/// The kernel's NAF of a 128-bit chunk of a split scalar.
fn chunk_naf(chunk: u128, w: u32) -> Naf<129> {
    Naf::new(&[chunk as u64, (chunk >> 64) as u64], w)
}

/// One point's lanes of the kernel: runs of odd multiples `B, 3B, …` up to
/// the window, one run per base `B`. A table of spacing `c` has the `c`
/// bases `2^(128/c·j)·P`, then the same runs of `−φ` of them, so that a
/// NAF digit `d` of chunk `j` of either half of a split scalar finds its
/// term at offset `|d| / 2` of its run. Tables live on the heap: every
/// thread of a domain signs or verifies sooner or later, and kilobytes of
/// arrays in the kernel's frame would be resident stack pages in each of
/// them for good.
pub struct G1Table(Multiples);

enum Multiples {
    /// Width [`WIDE_WINDOW`], affine (≈ 13 KB a base): mixed additions,
    /// at the price of one inversion to build.
    Wide { spacing: u32, runs: Vec<G1Affine> },
    /// Width [`NARROW_WINDOW`], spacing 1, as the additions left them.
    Narrow(Vec<G1Projective>),
}

/// `P, 3P, …, (2n − 1)·P`, with room for the `−φ` run behind them.
fn odd_multiples(p: &G1Projective, n: usize) -> Vec<G1Projective> {
    let twice = p.double();
    let mut table = Vec::with_capacity(2 * n);
    table.push(*p);
    for i in 1..n {
        table.push(table[i - 1].add(&twice));
    }
    table
}

impl G1Table {
    /// The wide table of `p` **in G1** (see the module header) with
    /// spacing `c`, a power of two up to 128: the odd multiples of the `c`
    /// bases `2^(128/c·j)·P` and of `−φ` of them, so that a sum whose
    /// lanes all have spacing `c` takes `128/c + 1` doublings. Size and
    /// build time grow with `c`: ≈ 13 KB and ≈ 85 µs a base. With `c = 1`
    /// it takes ≈ 15 µs off each sum that uses it in place of a narrow
    /// table.
    pub fn new(p: &G1Projective, spacing: u32) -> Self {
        assert!(
            spacing.is_power_of_two() && spacing <= 128,
            "a spacing divides 128"
        );
        let n = 1 << (WIDE_WINDOW - 2);
        let mut bases = vec![*p];
        for j in 1..spacing as usize {
            let above = (0..128 / spacing).fold(bases[j - 1], |b, _| b.double());
            bases.push(above);
        }
        // Twice each base in affine form, one inversion between them, so
        // that the odd multiples take mixed additions.
        let steps: Vec<G1Projective> = bases.iter().map(G1Projective::double).collect();
        let steps = G1Projective::batch_to_affine(&steps);
        let mut multiples = Vec::with_capacity(n * bases.len());
        for (base, step) in bases.iter().zip(&steps) {
            multiples.push(*base);
            for _ in 1..n {
                let last = multiples[multiples.len() - 1];
                multiples.push(last.add_affine(step));
            }
        }
        let mut runs = G1Projective::batch_to_affine(&multiples);
        runs.reserve_exact(multiples.len());
        for i in 0..multiples.len() {
            runs.push(runs[i].endomorphism(beta()).neg());
        }
        Self(Multiples::Wide { spacing, runs })
    }

    /// The narrow table of `p` **in G1**: eight additions, no inversion —
    /// what a point multiplied once or a few times gets.
    pub fn narrow(p: &G1Projective) -> Self {
        let n = 1 << (NARROW_WINDOW - 2);
        let mut table = odd_multiples(p, n);
        for i in 0..n {
            let minus_phi = G1Projective {
                x: table[i].x.mul(beta()),
                y: table[i].y.neg(),
                z: table[i].z,
            };
            table.push(minus_phi);
        }
        Self(Multiples::Narrow(table))
    }

    /// The generator's table of spacing 8 (`GENERATOR_SPACING`), built on
    /// first use: [`G1Projective::mul_generator`]'s, and what a sum whose
    /// other lanes are spaced adds the generator from.
    pub fn generator() -> &'static Self {
        static TABLE: OnceLock<G1Table> = OnceLock::new();
        TABLE.get_or_init(|| Self::new(&G1Projective::generator(), GENERATOR_SPACING))
    }

    /// The generator's table for a sum beside `other`: the spaced one
    /// when `other` is spaced too, so that `other` alone sets the
    /// doublings; beside a narrow or spacing-1 lane, which costs 129
    /// doublings whatever the generator's table, the spacing-1 one
    /// (≈ 13 KB, also built on first use), whose one chunk per half costs
    /// fewer additions than eight: beside a narrow lane, a sum on the
    /// spaced table takes 1.6–2.8 % longer (median ratios of six runs of
    /// 60 interleaved pairs of 64 sums, every median above 1) — that much
    /// of every verification under a key nobody keeps.
    pub fn generator_beside(other: &G1Table) -> &'static Self {
        static UNSPACED: OnceLock<G1Table> = OnceLock::new();
        if other.spacing() > 1 {
            Self::generator()
        } else {
            UNSPACED.get_or_init(|| Self::new(&G1Projective::generator(), 1))
        }
    }

    fn spacing(&self) -> u32 {
        match self.0 {
            Multiples::Wide { spacing, .. } => spacing,
            Multiples::Narrow(_) => 1,
        }
    }

    fn window(&self) -> u32 {
        match self.0 {
            Multiples::Wide { .. } => WIDE_WINDOW,
            Multiples::Narrow(_) => NARROW_WINDOW,
        }
    }

    /// `acc ± ` the entry at `at` of run `run`: the bases' own multiples
    /// first, then those of `−φ` of them.
    fn add_to(&self, acc: &G1Projective, run: usize, at: usize, negative: bool) -> G1Projective {
        let at = (run << (self.window() - 2)) + at;
        match &self.0 {
            Multiples::Wide { runs, .. } if negative => acc.add_affine(&runs[at].neg()),
            Multiples::Wide { runs, .. } => acc.add_affine(&runs[at]),
            Multiples::Narrow(table) if negative => acc.add(&table[at].neg()),
            Multiples::Narrow(table) => acc.add(&table[at]),
        }
    }
}

impl Sealed for Fp {}

/// `Fp` under the group law of [`crate::curve`], with `b = 4`.
impl BaseField for Fp {
    curve::forward_to_inherent!(Fp);
    /// `4` in Montgomery form (`4·R mod p`).
    const B: Self = Fp([
        0xaa27_0000_000c_fff3,
        0x53cc_0032_fc34_000a,
        0x478f_e97a_6b0a_807f,
        0xb1d3_7ebe_e6ba_24d7,
        0x8ec9_733b_bf78_ab2f,
        0x09d6_4551_3d83_de7e,
    ]);

    fn write_be(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_bytes_be());
    }
    fn read_be(bytes: &[u8]) -> Option<Self> {
        Fp::from_bytes_be(bytes.try_into().ok()?)
    }
}

/// Affine G1 point (or the point at infinity).
pub type G1Affine = Affine<Fp>;

/// Jacobian-projective G1 point.
pub type G1Projective = Projective<Fp>;

impl G1Affine {
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

    /// Compressed encoding: 48 bytes, big-endian `x` under the flag bits
    /// of [`crate::curve`]. Self-consistent within this workspace.
    pub fn to_compressed(&self) -> [u8; 48] {
        self.compress()
    }

    /// Decodes a compressed point of G1: [`Self::from_compressed_unchecked`]
    /// and then the subgroup test ([`Self::is_torsion_free`], ≈ 60 µs).
    pub fn from_compressed(bytes: &[u8; 48]) -> Option<Self> {
        Self::from_compressed_unchecked(bytes).filter(Self::is_torsion_free)
    }

    /// Decodes a compressed point of the curve, enforcing canonical field
    /// encoding and curve membership but **not** membership of G1: what
    /// comes back may be `σ + T` for a point `T` of small order. Only for
    /// a caller that subgroup-tests whatever it relies on: the threshold
    /// client decodes partial signatures with it, because the aggregate
    /// they sum to is tested before its pairing check and a partial is
    /// tested when it is blamed ([`crate::threshold::aggregate`]). Such a
    /// point breaks the precondition of the kernel's tables (see the
    /// module header): their sum is some curve point, not `Σ kᵢ·Pᵢ`.
    pub fn from_compressed_unchecked(bytes: &[u8; 48]) -> Option<Self> {
        Self::decompress(bytes)
    }
}

impl G1Projective {
    /// The standard generator.
    pub fn generator() -> Self {
        G1Affine::generator().into()
    }

    /// `Σ kᵢ·Pᵢ` over tabled points `Pᵢ` (of G1, by the tables'
    /// precondition), in one run of doublings whatever the number of
    /// terms: `128/c + 1` of them for the smallest spacing `c` among the
    /// lanes, so at most 129.
    ///
    /// Each scalar is split as `k = k₁ + k₂·u²` and `k₂·u²·P` taken as
    /// `k₂·(−φ(P))`, the second half of `P`'s table. A lane of spacing `c`
    /// cuts each 128-bit half into `c` chunks of `128/c` bits, chunk `j`
    /// weighing `2^(128/c·j)`, the factor its table's run `j` has built
    /// in. Every chunk is recoded as a NAF of its table's width and all of
    /// them are consumed together, most significant digit first. Variable
    /// time.
    pub fn multi_scalar(lanes: &[(&G1Table, Fr)]) -> Self {
        // Every run of every lane's table, with the NAF that indexes it.
        let runs: Vec<(&G1Table, usize, Naf<129>)> = lanes
            .iter()
            .flat_map(|&(table, k)| {
                let (k1, k2) = split_scalar(&k);
                let spacing = table.spacing();
                let bits = 128 / spacing;
                let chunks = [k1, k2].into_iter().flat_map(move |half| {
                    (0..spacing).map(move |j| (half >> (bits * j)) & (u128::MAX >> (128 - bits)))
                });
                chunks
                    .enumerate()
                    .map(move |(run, chunk)| (table, run, chunk_naf(chunk, table.window())))
            })
            .collect();
        let len = runs.iter().map(|(_, _, naf)| naf.len).max().unwrap_or(0);
        let mut acc = Self::identity();
        for i in (0..len).rev() {
            acc = acc.double();
            for (table, run, naf) in &runs {
                if let Some((at, negative)) = naf.term(i) {
                    acc = table.add_to(&acc, *run, at, negative);
                }
            }
        }
        acc
    }

    /// `k·P` for `P` **in G1**: [`Self::multi_scalar`] on one narrow table.
    pub fn mul_scalar(&self, k: &Fr) -> Self {
        Self::multi_scalar(&[(&G1Table::narrow(self), *k)])
    }

    /// `k·G` for the generator: [`Self::multi_scalar`] on its static
    /// spaced table, 17 doublings.
    pub fn mul_generator(k: &Fr) -> Self {
        Self::multi_scalar(&[(G1Table::generator(), *k)])
    }

    /// Affine forms of `points` for one field inversion between them
    /// (Montgomery's trick: invert the product of the `z`s, peel one
    /// factor off per point) where [`Self::to_affine`] pays one each.
    pub fn batch_to_affine(points: &[Self]) -> Vec<G1Affine> {
        let zs: Vec<Fp> = points
            .iter()
            .filter(|p| !p.is_identity())
            .map(|p| p.z)
            .collect();
        let mut z_inverses = curve::batch_invert(&zs).expect("no z is zero").into_iter();
        points
            .iter()
            .map(|p| {
                if p.is_identity() {
                    G1Affine::identity()
                } else {
                    p.affine_with(&z_inverses.next().expect("one inverse per z"))
                }
            })
            .collect()
    }

    /// `[u²]P` for the curve parameter `u`: two 64-bit ladders.
    fn mul_by_u_squared(&self) -> Self {
        self.mul_limbs(&[BLS_X]).mul_limbs(&[BLS_X])
    }

    /// Maps any curve point into the order-`r` subgroup, multiplying by
    /// `h_eff = 1 − u` (RFC 9380 §8.8.1): 64 bits where the cofactor
    /// `h = (1 − u)²/3 = 0x396c8c005555e1568c00aaab0000aaab` has 126. `[1 − u]` annihilates the
    /// cofactor part of `E(Fp)` exactly as `[h]` does (Wahby–Boneh, eprint
    /// 2019/403 §5), but it is a different scalar: a point comes back as
    /// another point of G1 than `[h]P` would be.
    pub fn clear_cofactor(&self) -> Self {
        self.mul_limbs(&[BLS_X + 1])
    }

    /// Samples a random subgroup element (generator times random scalar).
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::mul_generator(&Fr::random(rng))
    }
}

/// Hashes an arbitrary message to G1 with domain separation, using
/// try-and-increment followed by cofactor clearing.
///
/// About half of all candidates `x` are not the abscissa of a curve
/// point: `x³ + 4` is not a square. Each is turned away by its Jacobi
/// symbol ([`Fp::is_square`], ≈ 4 µs on a 2-core x86-64 guest) rather
/// than by a square root that fails (≈ 28 µs there, by the windowed
/// exponent of [`Fp::sqrt`]). The symbol refuses
/// exactly what the square root refuses, so it changes no output: a
/// message hashes to the point the square root alone would find
/// (`hash_to_g1_outputs_are_pinned`).
///
/// **Not constant time**: the iteration count and the Jacobi symbol's
/// steps leak information about the (public) message. Do not use for
/// secret inputs. Standards-track
/// deployments should use SSWU (RFC 9380); try-and-increment is this
/// repository's substitution for it — the same distribution on G1 at far
/// less code, acceptable only because every hashed input here is public.
///
/// The cofactor is cleared by `h_eff = 1 − u`
/// ([`G1Projective::clear_cofactor`]). Earlier revisions multiplied by the
/// cofactor itself, so the point a message hashes to — and with it the
/// bytes of every BLS signature — differs from theirs; nothing persists or
/// pins either (signatures are verified where they are made, keys are
/// unaffected).
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
        let y2 = curve::x3_plus_b(&x);
        if !y2.is_square() {
            continue;
        }
        let mut y = y2.sqrt().expect("a square has a square root");
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

    /// The G1 cofactor `h1 = 0x396c8c005555e1568c00aaab0000aaab`.
    const COFACTOR: [u64; 2] = [0x8c00_aaab_0000_aaab, 0x396c_8c00_5555_e156];

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
            if let Some(y) = curve::x3_plus_b(&x).sqrt() {
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

        /// The curve-only decoder against the full one, on random bytes
        /// (of which about one string in five is a curve point, almost
        /// never of G1), on `σ`, `σ + T` for `T = (0, 2)` of order 3, and
        /// on infinity, each under every flag pattern: where the full
        /// decoder decodes, both give the same point; where only the
        /// curve-only one does, the point is on the curve and outside G1.
        #[test]
        fn the_curve_only_decoder_is_the_full_one_without_the_subgroup_test(
            seed in any::<[u8; 32]>(),
            flags in 0u8..8,
            arbitrary in any::<[u8; 48]>(),
        ) {
            let mut rng = HmacDrbg::new(b"g1 curve-only decoder", &seed);
            let sigma = G1Projective::random(&mut rng).to_affine();
            let points = [sigma, sigma.plus_order_three_point(), G1Affine::identity()];
            let mut inputs: Vec<[u8; 48]> = points.iter().map(G1Affine::to_compressed).collect();
            inputs.extend(inputs.clone().into_iter().map(|mut bytes| {
                bytes[0] = (bytes[0] & 0x1f) | (flags << 5);
                bytes
            }));
            inputs.push(arbitrary);
            for bytes in inputs {
                let unchecked = G1Affine::from_compressed_unchecked(&bytes);
                match G1Affine::from_compressed(&bytes) {
                    Some(point) => prop_assert_eq!(unchecked, Some(point)),
                    None => {
                        if let Some(point) = unchecked {
                            prop_assert!(point.is_on_curve());
                            prop_assert!(!point.is_torsion_free() && !point.is_annihilated_by_r());
                            prop_assert_eq!(point.to_compressed(), bytes);
                        }
                    }
                }
            }
            let shifted = sigma.plus_order_three_point();
            prop_assert_eq!(G1Affine::from_compressed_unchecked(&shifted.to_compressed()), Some(shifted));
            prop_assert_eq!(G1Affine::from_compressed(&shifted.to_compressed()), None);
        }
    }

    /// `u²`, the factor scalars are split along.
    const U_SQUARED: u128 = (BLS_X as u128) * (BLS_X as u128);

    fn fr_from_u128(v: u128) -> Fr {
        Fr::from_canonical_limbs([v as u64, (v >> 64) as u64, 0, 0]).expect("below r")
    }

    /// `naf` is a width-`w` NAF of `value` (modulo `r`): digits odd or
    /// zero, inside the window, non-zero ones at least `w` apart, the top
    /// one non-zero, none stored above it, summing back to `value`.
    fn check_naf<const N: usize>(naf: &Naf<N>, value: Fr, w: u32) -> Result<(), TestCaseError> {
        let digits = naf.digits();
        prop_assert!(digits.last().is_none_or(|&d| d != 0));
        prop_assert!((digits.len()..N).all(|i| naf.digit(i) == Some(0)));
        prop_assert_eq!(naf.digit(N), None);
        let mut sum = Fr::ZERO;
        let mut last_nonzero = None;
        for (i, &digit) in digits.iter().enumerate().rev() {
            let digit = i32::from(digit);
            sum = sum.double();
            let magnitude = Fr::from_u64(u64::from(digit.unsigned_abs()));
            sum = if digit < 0 {
                sum.sub(&magnitude)
            } else {
                sum.add(&magnitude)
            };
            if digit != 0 {
                prop_assert!(digit % 2 != 0 && digit.abs() < 1 << (w - 1));
                if let Some(above) = last_nonzero.replace(i) {
                    prop_assert!(above - i >= w as usize);
                }
            }
        }
        prop_assert_eq!(sum, value);
        Ok(())
    }

    /// Scalars the split treats specially, by selector: zero, one, `r − 1`,
    /// an empty high half (`k < u²`), an empty low half (a multiple of
    /// `u²`), `u² − 1` and `u²` either side of the boundary; anything else
    /// is `random`.
    fn edge_scalar(selector: u8, random: Fr) -> Fr {
        match selector {
            0 => Fr::ZERO,
            1 => Fr::ONE,
            2 => Fr::ZERO.sub(&Fr::ONE),
            3 => fr_from_u128(split_scalar(&random).0),
            4 => fr_from_u128(split_scalar(&random).1).mul(&fr_from_u128(U_SQUARED)),
            5 => fr_from_u128(U_SQUARED - 1),
            6 => fr_from_u128(U_SQUARED),
            _ => random,
        }
    }

    /// Run `j` of a table of spacing `c` holds the odd multiples of
    /// `2^(s·j)·P`, `s = 128/c`, and run `c + j` those of `−φ` of it.
    #[test]
    fn phi_is_multiplication_by_minus_u_squared_and_the_tables_hold_odd_multiples() {
        let lambda = Fr::ZERO.sub(&fr_from_u128(U_SQUARED));
        assert!(lambda.square().add(&lambda).add(&Fr::ONE).is_zero());
        let g = G1Projective::generator();
        let p = hash_to_g1(b"a tabled point", b"g1 tests");
        let tables = [
            (G1Table::generator(), g, GENERATOR_SPACING),
            (G1Table::generator_beside(&G1Table::narrow(&p)), g, 1),
            (&G1Table::new(&p, 1), p, 1),
            (&G1Table::new(&p, 4), p, 4),
            (&G1Table::narrow(&p), p, 1),
        ];
        for (table, point, spacing) in tables {
            assert_eq!(table.spacing(), spacing);
            let entries: Vec<G1Projective> = match &table.0 {
                Multiples::Wide { runs, .. } => {
                    runs.iter().map(|q| G1Projective::from(*q)).collect()
                }
                Multiples::Narrow(t) => t.clone(),
            };
            let per_run = 1 << (table.window() - 2);
            assert_eq!(entries.len(), 2 * spacing as usize * per_run);
            let (direct, minus_phi) = entries.split_at(entries.len() / 2);
            let s = 128 / spacing;
            for (j, (direct, minus_phi)) in direct
                .chunks(per_run)
                .zip(minus_phi.chunks(per_run))
                .enumerate()
            {
                // 2^(s·j), as limbs.
                let mut weight = [0u64; 2];
                let bit = s as usize * j;
                weight[bit / 64] = 1 << (bit % 64);
                let base = point.mul_limbs(&weight);
                let image = base.mul_limbs(&lambda.to_canonical_limbs()).neg();
                // (2i + 1)·base and (2i + 1)·image, by repeated addition.
                let (mut odd, mut odd_image) = (base, image);
                for (i, (p, q)) in direct.iter().zip(minus_phi).enumerate() {
                    assert_eq!(*p, odd, "run {j}, entry {i}");
                    assert!(q.to_affine().is_on_curve());
                    assert_eq!(*q, odd_image, "run {j}, image entry {i}");
                    odd = odd.add(&base.double());
                    odd_image = odd_image.add(&image.double());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `k = k₁ + k₂·u²` with both halves below `u²`, and each half's
        /// NAF is one (see [`check_naf`]); so are the NAFs of `k` itself
        /// and of `2²⁵⁶ − 1`, which takes all 257 digits.
        #[test]
        fn scalars_split_into_two_short_halves_with_proper_nafs(
            wide in any::<[u8; 64]>(),
            selector in 0u8..16,
            w in 2u32..=8,
        ) {
            let k = edge_scalar(selector, Fr::from_bytes_wide(&wide));
            let (k1, k2) = split_scalar(&k);
            prop_assert!(k1 < U_SQUARED && k2 < U_SQUARED);
            prop_assert_eq!(
                fr_from_u128(k1).add(&fr_from_u128(k2).mul(&fr_from_u128(U_SQUARED))),
                k
            );
            for half in [k1, k2, u128::MAX] {
                check_naf(&chunk_naf(half, w), fr_from_u128(half), w)?;
            }
            let naf = Naf::<256>::new(&k.to_canonical_limbs(), w);
            check_naf(&naf, k, w)?;
            check_naf(&-naf, k.neg(), w)?;
            let all_ones = Naf::<257>::new(&[u64::MAX; 4], w);
            prop_assert_eq!(all_ones.digits().len(), 257);
            let two_256 = Fr::from_u64(1 << 32).pow_vartime(&[8]);
            check_naf(&all_ones, two_256.sub(&Fr::ONE), w)?;
        }

        /// The kernel against `Σ mul_limbs`, on one to six terms drawn
        /// from what it treats specially: edge scalars, the identity, a
        /// point repeated or negated (the additions that land on the
        /// doubling and the cancelling branch) and `±G` beside the
        /// generator's own lane — every table shape, alone and mixed.
        #[test]
        fn the_kernel_agrees_with_a_sum_of_ladders(
            seed in any::<[u8; 32]>(),
            terms in 1usize..=6,
            with_generator in any::<bool>(),
            selectors in any::<[u8; 14]>(),
            kinds in any::<[u8; 6]>(),
        ) {
            let mut rng = HmacDrbg::new(b"g1 kernel oracle", &seed);
            let mut points: Vec<G1Projective> = Vec::new();
            let mut scalars = Vec::new();
            for i in 0..terms {
                let fresh = G1Projective::random(&mut rng);
                let earlier = points.get(usize::from(selectors[i]) % (i + 1)).copied();
                points.push(match (selectors[i] >> 4, earlier) {
                    (0, _) => G1Projective::identity(),
                    (1, _) => G1Projective::generator(),
                    (2, _) => G1Projective::generator().neg(),
                    (3 | 4, Some(p)) => p,
                    (5 | 6, Some(p)) => p.neg(),
                    _ => fresh,
                });
                let random = Fr::random(&mut rng);
                // A repeated scalar under a repeated or negated point makes
                // the accumulator meet its own value.
                let repeated = scalars.get(usize::from(selectors[i]) % (i + 1)).copied();
                scalars.push(match (selectors[7 + i] % 20, repeated) {
                    (7..=9, Some(k)) => k,
                    (selector, _) => edge_scalar(selector, random),
                });
            }
            let generator = edge_scalar(selectors[13] % 16, Fr::random(&mut rng));
            let mut expected = G1Projective::identity();
            if with_generator {
                expected = G1Projective::generator().mul_limbs(&generator.to_canonical_limbs());
            }
            for (p, k) in points.iter().zip(&scalars) {
                expected = expected.add(&p.mul_limbs(&k.to_canonical_limbs()));
            }
            // Every point on a narrow table, then on wide ones of spacing
            // 1, 4 and 8, then each lane on a kind of its own, beside
            // either of the generator's tables: the same sum.
            let first = (points[0], scalars[0]);
            let tables: Vec<[G1Table; 4]> = points
                .iter()
                .map(|p| [G1Table::narrow(p), G1Table::new(p, 1), G1Table::new(p, 4), G1Table::new(p, 8)])
                .collect();
            for uniform in [Some(0), Some(1), Some(2), Some(3), None] {
                let mut lanes: Vec<(&G1Table, Fr)> = tables
                    .iter()
                    .zip(&kinds)
                    .map(|(kinds, kind)| &kinds[uniform.unwrap_or(usize::from(*kind) % 4)])
                    .zip(scalars.iter().copied())
                    .collect();
                if with_generator {
                    let beside = G1Table::generator_beside(lanes[0].0);
                    lanes.push((if kinds[0] & 4 == 0 { beside } else { G1Table::generator() }, generator));
                }
                prop_assert_eq!(G1Projective::multi_scalar(&lanes), expected);
            }
            prop_assert_eq!(first.0.mul_scalar(&first.1), first.0.mul_limbs(&first.1.to_canonical_limbs()));
            prop_assert_eq!(
                G1Projective::mul_generator(&generator),
                G1Projective::generator().mul_limbs(&generator.to_canonical_limbs())
            );
        }

        /// One shared inversion gives what one inversion each gives, with
        /// identities anywhere in the batch (and nothing but identities,
        /// and nothing at all).
        #[test]
        fn batch_to_affine_agrees_with_to_affine(
            seed in any::<[u8; 32]>(),
            len in 0usize..12,
            identities in any::<u16>(),
        ) {
            let mut rng = HmacDrbg::new(b"g1 batch affine", &seed);
            let points: Vec<G1Projective> = (0..len)
                .map(|i| match identities >> i & 1 {
                    1 => G1Projective::identity(),
                    // Off the z = 1 chart, as sums come out of the kernel.
                    _ => G1Projective::random(&mut rng).double(),
                })
                .collect();
            let expected: Vec<G1Affine> = points.iter().map(G1Projective::to_affine).collect();
            prop_assert_eq!(G1Projective::batch_to_affine(&points), expected);
        }

        /// `[h]P` and `[1 − u]P` both land in G1 and vanish together, on
        /// raw curve points and on their cofactor parts (where both must
        /// vanish).
        #[test]
        fn both_cofactor_clearings_land_in_g1_and_vanish_together(seed in any::<[u8; 32]>()) {
            let mut rng = HmacDrbg::new(b"g1 cofactor", &seed);
            let raw = random_curve_point(&mut rng);
            let cofactor_part = raw.mul_limbs(&Fr::MODULUS);
            for point in [raw, cofactor_part, G1Projective::random(&mut rng), G1Projective::identity()] {
                let by_h = point.mul_limbs(&COFACTOR);
                let by_h_eff = point.clear_cofactor();
                prop_assert!(in_g1(&by_h) && in_g1(&by_h_eff));
                prop_assert_eq!(by_h.is_identity(), by_h_eff.is_identity());
            }
            prop_assert!(cofactor_part.clear_cofactor().is_identity());
            prop_assert!(!raw.clear_cofactor().is_identity());
        }
    }

    /// The precondition, shown rather than assumed: on a curve point outside
    /// G1 the kernel does not compute `k·P` (φ is not `[−u²]` there), which
    /// is why no such point may reach it.
    #[test]
    fn outside_g1_the_kernel_is_not_scalar_multiplication() {
        let outside = G1Projective::from(G1Affine::generator().plus_order_three_point());
        let k = fr_from_u128(U_SQUARED + 1);
        assert_ne!(
            outside.mul_scalar(&k),
            outside.mul_limbs(&k.to_canonical_limbs())
        );
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

    /// What `hash_to_g1` returns, pinned bit for bit: the SHA-256 of the
    /// compressed points 256 seeded messages of 0 to 63 bytes hash to,
    /// recorded before the Jacobi symbol began turning candidates away. A
    /// change that skips a candidate the square root would accept moves a
    /// message to another point, and this digest with it.
    #[test]
    fn hash_to_g1_outputs_are_pinned() {
        let mut rng = HmacDrbg::new(b"hash_to_g1 golden", b"");
        let mut digest = crate::sha256::Sha256::new();
        for i in 0..256 {
            let mut msg = vec![0u8; i % 64];
            rng.fill_bytes(&mut msg);
            let point = hash_to_g1(&msg, crate::bls::MSG_DST).to_affine();
            digest.update(&point.to_compressed());
        }
        let hex: String = digest
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "fa024dd07f0cd73b28981f6ecf73e4cf8858ac56d0dafa449c1074ff5136af80"
        );
    }

    #[test]
    fn mixed_add_matches_projective() {
        let mut rng = HmacDrbg::new(b"g1", b"mixed");
        let p = G1Projective::random(&mut rng);
        let q = G1Projective::random(&mut rng);
        assert_eq!(p.add_affine(&q.to_affine()), p.add(&q));
        // Every branch: either side the identity, the doubling, the
        // cancellation — alone and under the generator's lane of the kernel.
        let id = G1Projective::identity();
        assert_eq!(id.add_affine(&q.to_affine()), q);
        assert_eq!(p.add_affine(&G1Affine::identity()), p);
        assert_eq!(
            p.double().add_affine(&p.double().to_affine()),
            p.double().double()
        );
        assert!(p
            .double()
            .add_affine(&p.double().neg().to_affine())
            .is_identity());
        let g = G1Projective::generator();
        let one = Fr::ONE;
        let fixed = (G1Table::generator(), one);
        assert_eq!(
            G1Projective::multi_scalar(&[fixed, (&G1Table::narrow(&g), one)]),
            g.double()
        );
        assert!(
            G1Projective::multi_scalar(&[fixed, (&G1Table::narrow(&g.neg()), one)]).is_identity()
        );
        assert!(G1Projective::multi_scalar(&[]).is_identity());
    }
}
