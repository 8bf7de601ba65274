//! Threshold BLS signatures: Shamir secret sharing over `Fr`, Feldman
//! verifiable secret sharing, partial signatures, and Lagrange aggregation.
//!
//! This is the cryptographic core of the paper's prototype: "each trust
//! domain stores a secret key share, and the trust domains can jointly sign
//! a message" (§5). We implement a trusted-dealer setup hardened with
//! Feldman commitments so each trust domain can verify its share — strictly
//! stronger than the prototype's plain dealer, which hands out shares nobody
//! can check.
//!
//! A client turns partial signatures into a group signature with a
//! [`Combiner`]: aggregate first, one pairing check under the group key, and
//! the per-partial Feldman checks only to name a culprit once that fails.

use crate::bls::{PreparedPublicKey, PublicKey, Signature, MSG_DST};
use crate::fr::Fr;
use crate::g1::{hash_to_g1, G1Affine, G1Projective, G1Table};
use crate::g2::{G2Affine, G2Projective};

/// Errors from threshold operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThresholdError {
    /// Threshold must satisfy `1 <= t <= n` and `n <= 255`.
    InvalidParameters { t: usize, n: usize },
    /// Fewer than `t` (or duplicate-indexed) shares supplied.
    InsufficientShares { have: usize, need: usize },
    /// A share failed Feldman verification.
    ShareVerificationFailed { index: u8 },
    /// Duplicate share indices in an aggregation set.
    DuplicateIndex(u8),
    /// Every partial passes its Feldman check yet their aggregate fails
    /// under the group key: the key is not the one the commitments commit
    /// to.
    KeyMismatch,
}

impl core::fmt::Display for ThresholdError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InvalidParameters { t, n } => {
                write!(f, "invalid threshold parameters t={t}, n={n}")
            }
            Self::InsufficientShares { have, need } => {
                write!(f, "insufficient shares: have {have}, need {need}")
            }
            Self::ShareVerificationFailed { index } => {
                write!(f, "share {index} failed Feldman verification")
            }
            Self::DuplicateIndex(i) => write!(f, "duplicate share index {i}"),
            Self::KeyMismatch => {
                write!(f, "group key does not match the Feldman commitments")
            }
        }
    }
}

impl std::error::Error for ThresholdError {}

/// A secret share: the dealer polynomial evaluated at `x = index`.
#[derive(Clone, Copy)]
pub struct KeyShare {
    /// Share index in `1..=n` (never 0 — that would leak the secret).
    pub index: u8,
    /// `f(index)` — the share scalar.
    pub value: Fr,
}

impl core::fmt::Debug for KeyShare {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "KeyShare {{ index: {}, value: <redacted> }}", self.index)
    }
}

/// Feldman commitments to the dealer polynomial: `C_j = coeff_j · g₂`.
/// Public; lets anyone verify a share and derive per-share public keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeldmanCommitments {
    /// `t` commitments, one per polynomial coefficient (degree `t-1`).
    pub coefficients: Vec<G2Affine>,
}

/// A partial BLS signature from one trust domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartialSignature {
    /// Index of the share that produced this fragment.
    pub index: u8,
    /// `share · H(m)`.
    pub value: Signature,
}

/// Output of dealer-based key generation.
pub struct ThresholdKeys {
    /// The group public key `f(0)·g₂`.
    pub public_key: PublicKey,
    /// One share per trust domain.
    pub shares: Vec<KeyShare>,
    /// Feldman commitments for share verification.
    pub commitments: FeldmanCommitments,
}

impl FeldmanCommitments {
    /// The group public key, `C_0`.
    pub fn public_key(&self) -> PublicKey {
        PublicKey(self.coefficients[0])
    }

    /// Evaluates the commitment polynomial at `x = index` in the exponent,
    /// yielding the public key of that share: `pk_i = Σ_j C_j · index^j`.
    pub fn share_public_key(&self, index: u8) -> PublicKey {
        let x = Fr::from_u64(index as u64);
        let mut acc = G2Projective::identity();
        let mut x_pow = Fr::ONE;
        for c in &self.coefficients {
            acc = acc.add(&G2Projective::from(*c).mul_scalar(&x_pow));
            x_pow = x_pow.mul(&x);
        }
        PublicKey(acc.to_affine())
    }

    /// Verifies a share against the commitments: `share·g₂ == pk_index`.
    pub fn verify_share(&self, share: &KeyShare) -> bool {
        if share.index == 0 {
            return false;
        }
        let expect = self.share_public_key(share.index);
        let actual = G2Projective::generator()
            .mul_scalar(&share.value)
            .to_affine();
        expect.0 == actual
    }

    /// The threshold `t` (number of coefficients).
    pub fn threshold(&self) -> usize {
        self.coefficients.len()
    }
}

/// Dealer-based threshold key generation: samples a random degree-`t-1`
/// polynomial `f`, sets the group secret to `f(0)`, and hands share `f(i)`
/// to domain `i ∈ 1..=n`.
pub fn generate<R: rand::RngCore + ?Sized>(
    t: usize,
    n: usize,
    rng: &mut R,
) -> Result<ThresholdKeys, ThresholdError> {
    if t == 0 || t > n || n > 255 {
        return Err(ThresholdError::InvalidParameters { t, n });
    }
    let coeffs: Vec<Fr> = (0..t).map(|_| Fr::random_nonzero(rng)).collect();
    let commitments = FeldmanCommitments {
        coefficients: coeffs
            .iter()
            .map(|c| G2Projective::generator().mul_scalar(c).to_affine())
            .collect(),
    };
    let shares = (1..=n as u8)
        .map(|i| KeyShare {
            index: i,
            value: eval_poly(&coeffs, &Fr::from_u64(i as u64)),
        })
        .collect();
    Ok(ThresholdKeys {
        public_key: commitments.public_key(),
        shares,
        commitments,
    })
}

/// Horner evaluation of `f(x)` with coefficients in ascending order.
fn eval_poly(coeffs: &[Fr], x: &Fr) -> Fr {
    let mut acc = Fr::ZERO;
    for c in coeffs.iter().rev() {
        acc = acc.mul(x).add(c);
    }
    acc
}

/// Produces a partial signature with one share.
pub fn partial_sign(share: &KeyShare, message: &[u8]) -> PartialSignature {
    let h = hash_to_g1(message, MSG_DST);
    PartialSignature {
        index: share.index,
        value: Signature(h.mul_scalar(&share.value).to_affine()),
    }
}

/// Verifies a partial signature against the Feldman commitments:
/// `e(σ_i, g₂) == e(H(m), pk_i)`.
pub fn verify_partial(
    commitments: &FeldmanCommitments,
    message: &[u8],
    partial: &PartialSignature,
) -> bool {
    let h = hash_to_g1(message, MSG_DST).to_affine();
    commitments
        .share_public_key(partial.index)
        .verify_prehashed(&h, &partial.value)
}

/// Lagrange coefficient `λ_i = Π_{j≠i} x_j / (x_j − x_i)` evaluated at 0.
fn lagrange_at_zero(indices: &[u8], i: usize) -> Fr {
    let xi = Fr::from_u64(indices[i] as u64);
    let mut num = Fr::ONE;
    let mut den = Fr::ONE;
    for (j, &idx) in indices.iter().enumerate() {
        if j == i {
            continue;
        }
        let xj = Fr::from_u64(idx as u64);
        num = num.mul(&xj);
        den = den.mul(&xj.sub(&xi));
    }
    num.mul(&den.invert().expect("distinct nonzero indices"))
}

/// Combines `t` (or more) partial signatures into the group signature via
/// Lagrange interpolation in the exponent: one `t`-term
/// [`G1Projective::multi_scalar`] sum. The result verifies under the
/// group public key exactly as an ordinary BLS signature.
///
/// Partials need only be points of the curve: the threshold client
/// decodes them with [`G1Affine::from_compressed_unchecked`], which skips
/// the subgroup test. One outside G1 makes the sum some other curve point,
/// since the kernel's tables assume G1 — as meaningless as the ladder's
/// `Σ λᵢ·σᵢ` was over such input — and nothing downstream takes an
/// aggregate on trust. [`PreparedPublicKey::verify_prehashed`]
/// subgroup-tests the aggregate before its pairing and refuses whatever is
/// not the one valid signature in G1. The Feldman checks that then run
/// ([`Combiner::combine`]) subgroup-test each partial they look at, and
/// name the one outside G1. So the subgroup test is made once per
/// signature, on the aggregate, unless a check fails.
pub fn aggregate(t: usize, partials: &[PartialSignature]) -> Result<Signature, ThresholdError> {
    if partials.len() < t {
        return Err(ThresholdError::InsufficientShares {
            have: partials.len(),
            need: t,
        });
    }
    let selected = &partials[..t];
    let mut seen = [false; 256];
    for p in selected {
        if p.index == 0 || seen[p.index as usize] {
            return Err(ThresholdError::DuplicateIndex(p.index));
        }
        seen[p.index as usize] = true;
    }
    let indices: Vec<u8> = selected.iter().map(|p| p.index).collect();
    let tables: Vec<G1Table> = selected
        .iter()
        .map(|p| G1Table::narrow(&p.value.0.into()))
        .collect();
    let lanes: Vec<(&G1Table, Fr)> = tables
        .iter()
        .enumerate()
        .map(|(i, table)| (table, lagrange_at_zero(&indices, i)))
        .collect();
    Ok(Signature(G1Projective::multi_scalar(&lanes).to_affine()))
}

/// Client-side combination of partial signatures over one message into a
/// group signature the caller can rely on — one pairing check when nobody
/// lies.
///
/// **What "verified" means.** [`Combiner::combine`] hands out a signature
/// only after checking it under the group key. BLS signatures are unique:
/// for a given key and message exactly one point of G1 verifies, so a
/// Lagrange aggregate that passes that check *is* the group signature,
/// whatever the partials looked like one by one — two wrong partials whose
/// errors cancel under the Lagrange weights yield the very bytes honest
/// ones would. Partials are therefore not checked individually on the way
/// in. The Feldman check of a single partial is the slow path that says
/// *which* share holder lied; it runs only once an aggregate has failed,
/// against the same `H(m)`, and at most once per partial.
pub struct Combiner<'a> {
    t: usize,
    group_key: &'a PreparedPublicKey,
    commitments: &'a FeldmanCommitments,
    /// `H(m)`, hashed once.
    h: G1Affine,
    /// How many leading partials of the caller's batch have passed their
    /// Feldman check (the survivors of an earlier failed round).
    vetted: usize,
    culprits: Vec<u8>,
}

impl<'a> Combiner<'a> {
    /// A combiner for threshold-`t` signatures over `message` under
    /// `group_key` — prepared, so that its lines are not rebuilt per
    /// signature — with `commitments` to blame individual partials.
    pub fn new(
        t: usize,
        group_key: &'a PreparedPublicKey,
        commitments: &'a FeldmanCommitments,
        message: &[u8],
    ) -> Self {
        Self {
            t,
            group_key,
            commitments,
            h: hash_to_g1(message, MSG_DST).to_affine(),
            vetted: 0,
            culprits: Vec::new(),
        }
    }

    /// Aggregates `partials[..t]` and checks the result under the group
    /// key. `Ok(Some(σ))` is the verified group signature. `Ok(None)` means
    /// the check failed and the partials that fail their Feldman check
    /// have been removed from `partials` (survivors keep their order, at
    /// the front) and recorded in [`Self::culprits`]: push replacements
    /// and call again. Errors: [`aggregate`]'s, and
    /// [`ThresholdError::KeyMismatch`] when no partial is to blame.
    pub fn combine(
        &mut self,
        partials: &mut Vec<PartialSignature>,
    ) -> Result<Option<Signature>, ThresholdError> {
        let signature = aggregate(self.t, partials)?;
        if self.group_key.verify_prehashed(&self.h, &signature) {
            return Ok(Some(signature));
        }
        // Someone lied. Whoever survived an earlier round has been checked.
        let (valid, failed): (Vec<_>, Vec<_>) = partials
            .split_off(self.vetted.min(partials.len()))
            .into_iter()
            .partition(|p| {
                self.commitments
                    .share_public_key(p.index)
                    .verify_prehashed(&self.h, &p.value)
            });
        partials.extend(valid);
        self.vetted = partials.len();
        if failed.is_empty() {
            return Err(ThresholdError::KeyMismatch);
        }
        self.culprits.extend(failed.iter().map(|p| p.index));
        Ok(None)
    }

    /// Share indices whose partials failed the Feldman check so far.
    pub fn culprits(&self) -> &[u8] {
        &self.culprits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;

    /// The secret `shares` share, by Lagrange interpolation at zero: the
    /// reference that a deal's shares share its group key. Signing never
    /// reconstructs; it keeps the shares apart.
    fn reconstruct_secret(shares: &[KeyShare]) -> Fr {
        let indices: Vec<u8> = shares.iter().map(|s| s.index).collect();
        shares.iter().enumerate().fold(Fr::ZERO, |acc, (i, s)| {
            acc.add(&lagrange_at_zero(&indices, i).mul(&s.value))
        })
    }

    fn setup(t: usize, n: usize, tag: &[u8]) -> ThresholdKeys {
        let mut rng = HmacDrbg::new(b"threshold tests", tag);
        generate(t, n, &mut rng).expect("valid parameters")
    }

    /// The group key of a fixed-seed deal, recorded before the group law
    /// moved into [`crate::curve`].
    #[test]
    fn a_seeded_group_key_is_pinned() {
        let hex: String = setup(3, 5, b"pinned group key")
            .public_key
            .to_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, "a62e373af26e09135859a17cc07128343733cba843ecd6eb00d2484924c37f7bc6df10b2357ec1bcf67d5c701b23f4511866c83af12dfd01e9b750430c001aa764f9f94a4816c37c1cb2396773c7bc1356cd81f7cd5e79061c26aafdb5973bad");
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = HmacDrbg::new(b"params", b"");
        assert!(matches!(
            generate(0, 5, &mut rng),
            Err(ThresholdError::InvalidParameters { .. })
        ));
        assert!(matches!(
            generate(6, 5, &mut rng),
            Err(ThresholdError::InvalidParameters { .. })
        ));
        assert!(matches!(
            generate(2, 300, &mut rng),
            Err(ThresholdError::InvalidParameters { .. })
        ));
    }

    #[test]
    fn shares_verify_against_commitments() {
        let keys = setup(3, 5, b"feldman");
        for share in &keys.shares {
            assert!(keys.commitments.verify_share(share));
        }
        // A corrupted share fails.
        let mut bad = keys.shares[0];
        bad.value = bad.value.add(&Fr::ONE);
        assert!(!keys.commitments.verify_share(&bad));
        // Index 0 is always rejected.
        let zero = KeyShare {
            index: 0,
            value: Fr::ONE,
        };
        assert!(!keys.commitments.verify_share(&zero));
    }

    #[test]
    fn threshold_signature_verifies_as_plain_bls() {
        let keys = setup(3, 5, b"sign");
        let msg = b"the treaty is signed";
        let partials: Vec<PartialSignature> = keys.shares[..3]
            .iter()
            .map(|s| partial_sign(s, msg))
            .collect();
        let sig = aggregate(3, &partials).unwrap();
        assert!(keys.public_key.verify(msg, &sig));
    }

    #[test]
    fn any_t_subset_produces_same_signature() {
        let keys = setup(3, 5, b"subset");
        let msg = b"deterministic";
        let all: Vec<PartialSignature> = keys.shares.iter().map(|s| partial_sign(s, msg)).collect();
        let sig_a = aggregate(3, &[all[0], all[1], all[2]]).unwrap();
        let sig_b = aggregate(3, &[all[2], all[3], all[4]]).unwrap();
        let sig_c = aggregate(3, &[all[4], all[0], all[2]]).unwrap();
        assert_eq!(sig_a, sig_b);
        assert_eq!(sig_b, sig_c);
        assert!(keys.public_key.verify(msg, &sig_a));
    }

    #[test]
    fn fewer_than_t_shares_fail() {
        let keys = setup(3, 5, b"fewer");
        let msg = b"msg";
        let partials: Vec<PartialSignature> = keys.shares[..2]
            .iter()
            .map(|s| partial_sign(s, msg))
            .collect();
        assert!(matches!(
            aggregate(3, &partials),
            Err(ThresholdError::InsufficientShares { have: 2, need: 3 })
        ));
    }

    #[test]
    fn t_minus_1_shares_give_wrong_signature() {
        // Interpolating with t-1 points (padded by reusing one) cannot
        // recover the polynomial — verify the resulting signature is invalid.
        let keys = setup(3, 5, b"undershoot");
        let msg = b"msg";
        let p0 = partial_sign(&keys.shares[0], msg);
        let p1 = partial_sign(&keys.shares[1], msg);
        // Aggregate with t=2 (attacker pretends threshold is lower).
        let forged = aggregate(2, &[p0, p1]).unwrap();
        assert!(!keys.public_key.verify(msg, &forged));
    }

    #[test]
    fn duplicate_indices_rejected() {
        let keys = setup(2, 3, b"dup");
        let msg = b"msg";
        let p = partial_sign(&keys.shares[0], msg);
        assert!(matches!(
            aggregate(2, &[p, p]),
            Err(ThresholdError::DuplicateIndex(1))
        ));
    }

    #[test]
    fn partial_verification() {
        let keys = setup(2, 4, b"partial");
        let msg = b"audit me";
        let good = partial_sign(&keys.shares[1], msg);
        assert!(verify_partial(&keys.commitments, msg, &good));
        // Wrong message.
        assert!(!verify_partial(&keys.commitments, b"other", &good));
        // A partial claiming the wrong index fails.
        let mislabeled = PartialSignature {
            index: 3,
            value: good.value,
        };
        assert!(!verify_partial(&keys.commitments, msg, &mislabeled));
    }

    /// Pairing checks `f` performs on this thread.
    fn checks_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = crate::pairing::final_exponentiations();
        let out = f();
        (out, crate::pairing::final_exponentiations() - before)
    }

    /// Committees from the smallest to the largest a deployment is sized at.
    const COMMITTEES: [(usize, usize); 5] = [(2, 3), (3, 5), (5, 8), (7, 10), (9, 13)];

    #[test]
    fn honest_partials_combine_with_one_pairing_check() {
        for (t, n) in COMMITTEES {
            let keys = setup(t, n, b"combine honest");
            let msg = b"one check";
            let mut partials: Vec<PartialSignature> = keys.shares[1..=t]
                .iter()
                .map(|s| partial_sign(s, msg))
                .collect();
            let group_key = PreparedPublicKey::new(keys.public_key);
            let mut combiner = Combiner::new(t, &group_key, &keys.commitments, msg);
            let (sig, checks) = checks_in(|| combiner.combine(&mut partials));
            let sig = sig.unwrap().expect("honest partials verify");
            assert_eq!(checks, 1, "({t}, {n})");
            assert!(keys.public_key.verify(msg, &sig));
            assert!(combiner.culprits().is_empty());
            assert_eq!(partials.len(), t);
        }
    }

    /// "Verified" is a statement about the signature handed out, not about
    /// the partials: two partials that are each wrong, with errors that
    /// cancel under the Lagrange weights of the subset, aggregate to the
    /// unique group signature and are accepted without being looked at.
    #[test]
    fn partials_whose_errors_cancel_yield_the_group_signature() {
        let keys = setup(3, 5, b"combine cancel");
        let msg = b"errors that cancel";
        let honest: Vec<PartialSignature> = keys.shares[..3]
            .iter()
            .map(|s| partial_sign(s, msg))
            .collect();
        let expected = aggregate(3, &honest).unwrap();

        // σ₁' = σ₁ + λ₂·E and σ₂' = σ₂ − λ₁·E: λ₁σ₁' + λ₂σ₂' = λ₁σ₁ + λ₂σ₂.
        let indices = [1u8, 2, 3];
        let e = hash_to_g1(b"some error term", b"test");
        let shift = |p: &PartialSignature, by: &G1Projective| PartialSignature {
            index: p.index,
            value: Signature(G1Projective::from(p.value.0).add(by).to_affine()),
        };
        let mut skewed = vec![
            shift(&honest[0], &e.mul_scalar(&lagrange_at_zero(&indices, 1))),
            shift(
                &honest[1],
                &e.mul_scalar(&lagrange_at_zero(&indices, 0)).neg(),
            ),
            honest[2],
        ];
        assert!(!verify_partial(&keys.commitments, msg, &skewed[0]));
        assert!(!verify_partial(&keys.commitments, msg, &skewed[1]));

        let group_key = PreparedPublicKey::new(keys.public_key);
        let mut combiner = Combiner::new(3, &group_key, &keys.commitments, msg);
        let (sig, checks) = checks_in(|| combiner.combine(&mut skewed));
        assert_eq!(sig, Ok(Some(expected)));
        assert_eq!(checks, 1);
        assert!(combiner.culprits().is_empty());
    }

    #[test]
    fn a_failed_aggregate_names_its_culprits_and_checks_each_partial_once() {
        let keys = setup(3, 7, b"combine blame");
        let msg = b"who lied";
        let honest: Vec<PartialSignature> =
            keys.shares.iter().map(|s| partial_sign(s, msg)).collect();
        let mut batch = vec![
            // Share 1 answers with the point at infinity.
            PartialSignature {
                index: 1,
                value: Signature(G1Affine::identity()),
            },
            // Share 2 passes off share 3's partial as its own.
            PartialSignature {
                index: 2,
                value: honest[2].value,
            },
            honest[3],
        ];
        let group_key = PreparedPublicKey::new(keys.public_key);
        let mut combiner = Combiner::new(3, &group_key, &keys.commitments, msg);
        // The failed aggregate, then the two finite partials (infinity is
        // refused before any pairing).
        let (round, checks) = checks_in(|| combiner.combine(&mut batch));
        assert_eq!(round, Ok(None));
        assert_eq!(checks, 3);
        assert_eq!(combiner.culprits(), &[1, 2]);
        assert_eq!(batch, vec![honest[3]]);

        // A well-formed partial under a share nobody dealt, and an honest
        // one: the survivor of the first round is not checked again.
        let stranger = KeyShare {
            index: 5,
            value: Fr::from_u64(7),
        };
        batch.extend([partial_sign(&stranger, msg), honest[5]]);
        let (round, checks) = checks_in(|| combiner.combine(&mut batch));
        assert_eq!(round, Ok(None));
        assert_eq!(checks, 3);
        assert_eq!(combiner.culprits(), &[1, 2, 5]);
        assert_eq!(batch, vec![honest[3], honest[5]]);

        batch.push(honest[6]);
        let (round, checks) = checks_in(|| combiner.combine(&mut batch));
        let sig = round.unwrap().expect("three honest partials");
        assert_eq!(checks, 1);
        assert!(keys.public_key.verify(msg, &sig));
        assert_eq!(combiner.culprits(), &[1, 2, 5]);

        // Too few left to aggregate is the caller's to report.
        batch.truncate(2);
        assert_eq!(
            combiner.combine(&mut batch),
            Err(ThresholdError::InsufficientShares { have: 2, need: 3 })
        );

        // At every committee size, one wrong partial among the first t
        // costs t + 2 checks: the failed aggregate, t Feldman checks to
        // name it, and the aggregate with an honest replacement. Share 1
        // answers under a scalar nobody dealt.
        let spoiled = KeyShare {
            index: 1,
            value: Fr::from_u64(7),
        };
        for (t, n) in COMMITTEES {
            let keys = setup(t, n, b"combine one culprit");
            let mut batch: Vec<PartialSignature> = keys.shares[..t]
                .iter()
                .map(|s| partial_sign(s, msg))
                .collect();
            batch[0] = partial_sign(&spoiled, msg);
            let group_key = PreparedPublicKey::new(keys.public_key);
            let mut combiner = Combiner::new(t, &group_key, &keys.commitments, msg);
            let (round, failed) = checks_in(|| combiner.combine(&mut batch));
            assert_eq!(round, Ok(None));
            batch.push(partial_sign(&keys.shares[t], msg));
            let (round, passed) = checks_in(|| combiner.combine(&mut batch));
            let sig = round.unwrap().expect("t honest partials");
            assert!(keys.public_key.verify(msg, &sig));
            assert_eq!(combiner.culprits(), &[1]);
            assert_eq!(failed + passed, t as u64 + 2, "({t}, {n})");
        }
    }

    #[test]
    fn a_group_key_the_commitments_do_not_commit_to_is_an_error_not_a_loop() {
        let keys = setup(2, 3, b"combine mismatch");
        let other = setup(2, 3, b"combine mismatch, other dealer");
        let msg = b"pinned the wrong key";
        let mut partials: Vec<PartialSignature> = keys.shares[..2]
            .iter()
            .map(|s| partial_sign(s, msg))
            .collect();
        let group_key = PreparedPublicKey::new(other.public_key);
        let mut combiner = Combiner::new(2, &group_key, &keys.commitments, msg);
        assert_eq!(
            combiner.combine(&mut partials),
            Err(ThresholdError::KeyMismatch)
        );
        assert!(combiner.culprits().is_empty());
        assert_eq!(partials.len(), 2);
    }

    #[test]
    fn verify_partial_refuses_a_point_outside_g1() {
        let keys = setup(2, 3, b"partial subgroup");
        let msg = b"audit me";
        let good = partial_sign(&keys.shares[0], msg);
        assert!(verify_partial(&keys.commitments, msg, &good));
        let shifted = PartialSignature {
            index: good.index,
            value: Signature(good.value.0.plus_order_three_point()),
        };
        assert!(!verify_partial(&keys.commitments, msg, &shifted));

        // `aggregate` sums on a kernel that is only right on G1. What it
        // makes of this partial is refused by the check on the aggregate,
        // and the partial is then named.
        let mut batch = vec![shifted, partial_sign(&keys.shares[1], msg)];
        let group_key = PreparedPublicKey::new(keys.public_key);
        let mut combiner = Combiner::new(2, &group_key, &keys.commitments, msg);
        assert_eq!(combiner.combine(&mut batch), Ok(None));
        assert_eq!(combiner.culprits(), &[good.index]);
    }

    #[test]
    fn secret_reconstruction_round_trip() {
        let mut rng = HmacDrbg::new(b"reconstruct", b"");
        let keys = generate(3, 5, &mut rng).unwrap();
        let secret = reconstruct_secret(&keys.shares[1..4]);
        // The reconstructed secret must produce the group public key.
        let pk = crate::bls::SecretKey(secret).public_key();
        assert_eq!(pk, keys.public_key);
    }

    #[test]
    fn reconstruction_with_wrong_share_differs() {
        let keys = setup(2, 3, b"tamper");
        let mut shares: Vec<KeyShare> = keys.shares[..2].to_vec();
        shares[0].value = shares[0].value.add(&Fr::ONE);
        let secret = reconstruct_secret(&shares);
        let pk = crate::bls::SecretKey(secret).public_key();
        assert_ne!(pk, keys.public_key);
    }

    #[test]
    fn one_of_one_threshold() {
        let keys = setup(1, 1, b"solo");
        let msg = b"single domain";
        let p = partial_sign(&keys.shares[0], msg);
        let sig = aggregate(1, &[p]).unwrap();
        assert!(keys.public_key.verify(msg, &sig));
    }

    #[test]
    fn large_committee() {
        let keys = setup(7, 10, b"large");
        let msg = b"ten domains";
        let partials: Vec<PartialSignature> = keys.shares[2..9]
            .iter()
            .map(|s| partial_sign(s, msg))
            .collect();
        let sig = aggregate(7, &partials).unwrap();
        assert!(keys.public_key.verify(msg, &sig));
    }
}
