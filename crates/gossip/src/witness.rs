//! Witness quorum: threshold-cosigned checkpoint heads.
//!
//! A deployment's detection story normally asks every client to audit all
//! `n` domains itself. Witness cosigning moves that work to `t`-of-`n`
//! independent witnesses: each witness verifies the deployment's current
//! checkpoint heads (signature validity, no equivocation against anything
//! it has ever seen, no rollback of anything it has already cosigned) and
//! emits a BLS partial signature over the head set. Aggregated, the
//! partials form one [`CosignedHeads`] that a thin client verifies with a
//! **single** pairing check — trust in "the quorum saw the same heads"
//! replaces `n` batched audits.
//!
//! The quorum public key and threshold come out of
//! [`distrust_crypto::threshold::generate`]; no single witness (or any
//! coalition below `t`) can forge a cosignature, and any `t` honest
//! witnesses suffice even if the rest are offline or malicious.

use crate::evidence::{EvidenceBundle, EvidencePool};
use distrust_crypto::bls::{AsPrepared, Signature};
use distrust_crypto::schnorr::VerifyingKey;
use distrust_crypto::threshold::{
    aggregate, partial_sign, verify_partial, FeldmanCommitments, KeyShare, PartialSignature,
    ThresholdError,
};
use distrust_log::auditor::{AuditOutcome, Auditor, Misbehavior};
use distrust_log::checkpoint::{CheckpointBody, SignedCheckpoint};
use distrust_wire::codec::{decode_seq, encode_seq, Decode, DecodeError, Encode};

/// Domain-separation tag for cosignatures, so a witness's BLS key can
/// never be tricked into signing bytes that mean something else.
pub const COSIGN_DST: &[u8] = b"distrust/gossip/cosign/v1";

/// Most heads a cosigned bundle may carry — same bound (and reasoning)
/// as [`crate::envelope::MAX_ENVELOPE_HEADS`].
pub const MAX_COSIGNED_HEADS: usize = 1024;

/// The exact bytes a witness quorum signs for a head set: the DST
/// followed by the length-prefixed checkpoint bodies in domain order.
/// Bodies, not signed checkpoints — the quorum attests to the *views*
/// (log id, size, head), and the domains' own signatures are checked by
/// each witness before it signs, not re-shipped to thin clients.
pub fn cosign_signing_bytes(heads: &[CheckpointBody]) -> Vec<u8> {
    let mut out = Vec::with_capacity(COSIGN_DST.len() + 4 + heads.len() * 80);
    out.extend_from_slice(COSIGN_DST);
    encode_seq(heads, &mut out);
    out
}

/// One aggregated quorum signature over a deployment's checkpoint heads.
///
/// `heads[i]` is domain `i`'s view by convention (each body also carries
/// its `log_id`, which binds the domain index cryptographically — see
/// [`distrust_log::checkpoint::log_id`]). Verifying the single BLS
/// signature under the quorum public key is the thin client's *entire*
/// trust-establishment step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CosignedHeads {
    /// The cosigned checkpoint bodies, one per domain, in domain order.
    pub heads: Vec<CheckpointBody>,
    /// Aggregated threshold-BLS signature over
    /// [`cosign_signing_bytes`]`(&heads)`.
    pub signature: Signature,
}

impl Encode for CosignedHeads {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.heads, out);
        self.signature.to_bytes().encode(out);
    }
}

impl Decode for CosignedHeads {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let heads: Vec<CheckpointBody> = decode_seq(input)?;
        if heads.len() > MAX_COSIGNED_HEADS {
            return Err(DecodeError::Invalid("cosigned head count"));
        }
        let sig = <[u8; 48]>::decode(input)?;
        let signature =
            Signature::from_bytes(&sig).ok_or(DecodeError::Invalid("cosigned head signature"))?;
        Ok(Self { heads, signature })
    }
}

impl CosignedHeads {
    /// Verifies the aggregated signature under the quorum public key.
    /// One pairing check; this is the thin client's whole audit. A client
    /// that checks more than one vector keeps the key prepared (a
    /// `PreparedPublicKey`), so the key's lines are not built again for
    /// each; a bare `PublicKey` is prepared for the one check.
    pub fn verify(&self, quorum_pk: &(impl AsPrepared + ?Sized)) -> bool {
        quorum_pk
            .as_prepared()
            .verify(&cosign_signing_bytes(&self.heads), &self.signature)
    }
}

/// Why a witness refused to cosign a head set.
#[derive(Debug)]
pub enum WitnessError {
    /// The head set does not cover exactly the deployment's domains.
    WrongDomainCount {
        /// Domains the witness is configured for.
        expected: usize,
        /// Heads actually presented.
        got: usize,
    },
    /// A head failed verification — bad signature, or a conflict with a
    /// checkpoint this witness has already seen (the interesting case:
    /// equivocation, which also yields transferable evidence in
    /// [`Witness::evidence`]).
    Refused {
        /// Index of the offending domain.
        domain: u32,
        /// What the witness's auditor found.
        misbehavior: Box<Misbehavior>,
    },
    /// A head went backwards relative to something this witness already
    /// cosigned. Cosigning it would let the deployment use the quorum to
    /// launder a rollback past thin clients.
    Rollback {
        /// Index of the offending domain.
        domain: u32,
        /// Size this witness last cosigned for the domain.
        cosigned: u64,
        /// Smaller size now offered.
        offered: u64,
    },
}

impl std::fmt::Display for WitnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WrongDomainCount { expected, got } => {
                write!(
                    f,
                    "head set covers {got} domains, deployment has {expected}"
                )
            }
            Self::Refused {
                domain,
                misbehavior,
            } => {
                write!(f, "domain {domain} refused: {misbehavior:?}")
            }
            Self::Rollback {
                domain,
                cosigned,
                offered,
            } => write!(
                f,
                "domain {domain} offered size {offered} below cosigned size {cosigned}"
            ),
        }
    }
}

impl std::error::Error for WitnessError {}

/// One witness: holds a threshold key share and an auditor view, and
/// only signs head sets it has independently verified.
pub struct Witness {
    share: KeyShare,
    auditor: Auditor,
    last_cosigned: Vec<u64>,
    pool: EvidencePool,
}

impl Witness {
    /// A witness for a deployment whose domains checkpoint-sign with
    /// `keys` (indexed by domain), holding threshold share `share`.
    pub fn new(share: KeyShare, keys: Vec<VerifyingKey>) -> Self {
        let last_cosigned = vec![0; keys.len()];
        Self {
            share,
            auditor: Auditor::new(keys),
            last_cosigned,
            pool: EvidencePool::new(),
        }
    }

    /// Verifies a full head set and, if every domain's head is
    /// signature-valid, conflict-free against everything this witness has
    /// ever seen, and not a rollback of anything it already cosigned,
    /// returns a partial signature over the set.
    ///
    /// On refusal the witness keeps any transferable evidence it derived
    /// (see [`Witness::evidence`]) so the refusal itself can convict the
    /// domain elsewhere.
    pub fn observe_and_sign(
        &mut self,
        heads: &[SignedCheckpoint],
    ) -> Result<PartialSignature, WitnessError> {
        let expected = self.auditor.domain_count();
        if heads.len() != expected {
            return Err(WitnessError::WrongDomainCount {
                expected,
                got: heads.len(),
            });
        }
        // Zipping against `last_cosigned` (same length as the domain
        // count, checked above) keeps unverified input away from any
        // slice index.
        for (i, (cp, &cosigned)) in heads.iter().zip(self.last_cosigned.iter()).enumerate() {
            let domain = i as u32;
            if let AuditOutcome::Misbehavior(m) = self.auditor.ingest_gossip(domain, cp.clone()) {
                if let Some(bundle) = EvidenceBundle::from_misbehavior(&m) {
                    self.pool.insert(bundle);
                }
                return Err(WitnessError::Refused {
                    domain,
                    misbehavior: m,
                });
            }
            if cp.body.size < cosigned {
                return Err(WitnessError::Rollback {
                    domain,
                    cosigned,
                    offered: cp.body.size,
                });
            }
        }
        for (slot, cp) in self.last_cosigned.iter_mut().zip(heads) {
            *slot = cp.body.size;
        }
        let bodies: Vec<CheckpointBody> = heads.iter().map(|cp| cp.body.clone()).collect();
        Ok(partial_sign(&self.share, &cosign_signing_bytes(&bodies)))
    }

    /// Transferable evidence this witness has accumulated from refused
    /// head sets.
    pub fn evidence(&self) -> &[EvidenceBundle] {
        self.pool.items()
    }
}

/// Collects partial signatures over one head set and aggregates them
/// into a [`CosignedHeads`] once the threshold is met.
pub struct QuorumAggregator {
    commitments: FeldmanCommitments,
    heads: Vec<CheckpointBody>,
    msg: Vec<u8>,
    partials: Vec<PartialSignature>,
}

impl QuorumAggregator {
    /// An aggregator for `heads` under the quorum described by
    /// `commitments` (which fixes both the group public key and the
    /// threshold).
    pub fn new(commitments: FeldmanCommitments, heads: Vec<CheckpointBody>) -> Self {
        let msg = cosign_signing_bytes(&heads);
        Self {
            commitments,
            heads,
            msg,
            partials: Vec::new(),
        }
    }

    /// Adds one witness's partial signature. Returns `true` if it
    /// verified against the Feldman commitments and was new; invalid or
    /// duplicate-index partials are dropped (a malicious witness cannot
    /// poison aggregation, only abstain).
    pub fn add(&mut self, partial: PartialSignature) -> bool {
        if self.partials.iter().any(|p| p.index == partial.index) {
            return false;
        }
        if !verify_partial(&self.commitments, &self.msg, &partial) {
            return false;
        }
        self.partials.push(partial);
        true
    }

    /// Verified partials collected so far.
    pub fn count(&self) -> usize {
        self.partials.len()
    }

    /// Whether enough partials have been collected to aggregate.
    pub fn ready(&self) -> bool {
        self.partials.len() >= self.commitments.threshold()
    }

    /// Aggregates into the final cosigned head set. Fails with
    /// [`ThresholdError::InsufficientShares`] below threshold.
    pub fn cosign(&self) -> Result<CosignedHeads, ThresholdError> {
        let signature = aggregate(self.commitments.threshold(), &self.partials)?;
        Ok(CosignedHeads {
            heads: self.heads.clone(),
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_crypto::bls::PreparedPublicKey;
    use distrust_crypto::drbg::HmacDrbg;
    use distrust_crypto::schnorr::SigningKey;
    use distrust_crypto::threshold::generate;
    use distrust_log::checkpoint::log_id;

    fn domain_keys(n: usize) -> Vec<SigningKey> {
        (0..n)
            .map(|i| SigningKey::derive(b"witness-tests", &[i as u8]))
            .collect()
    }

    fn head_set(keys: &[SigningKey], size: u64, fill: u8) -> Vec<SignedCheckpoint> {
        keys.iter()
            .enumerate()
            .map(|(i, sk)| {
                SignedCheckpoint::sign(
                    CheckpointBody {
                        log_id: log_id(b"witness-tests", i as u32),
                        size,
                        head: [fill; 32],
                        logical_time: size,
                    },
                    sk,
                )
            })
            .collect()
    }

    #[test]
    fn quorum_cosigns_and_thin_client_verifies_once() {
        let mut rng = HmacDrbg::new(b"witness-tests", b"quorum");
        let tk = generate(2, 3, &mut rng).unwrap();
        let keys = domain_keys(3);
        let vks: Vec<_> = keys.iter().map(|k| k.verifying_key()).collect();
        let heads = head_set(&keys, 5, 0x5a);
        let bodies: Vec<_> = heads.iter().map(|cp| cp.body.clone()).collect();

        let mut agg = QuorumAggregator::new(tk.commitments.clone(), bodies);
        for share in tk.shares.iter().take(2) {
            let mut w = Witness::new(*share, vks.clone());
            let partial = w.observe_and_sign(&heads).unwrap();
            assert!(agg.add(partial));
        }
        assert!(agg.ready());
        let cosigned = agg.cosign().unwrap();
        let quorum_pk = PreparedPublicKey::new(tk.public_key);
        assert!(cosigned.verify(&quorum_pk));

        // Wire round-trip preserves verifiability.
        let back = CosignedHeads::from_wire(&cosigned.to_wire()).unwrap();
        assert_eq!(back, cosigned);
        assert!(back.verify(&quorum_pk));

        // A different quorum's key must not verify it, kept or bare.
        let other = generate(2, 3, &mut HmacDrbg::new(b"witness-tests", b"other-quorum")).unwrap();
        assert!(!cosigned.verify(&PreparedPublicKey::new(other.public_key)));
        assert!(!cosigned.verify(&other.public_key) && cosigned.verify(&tk.public_key));
    }

    #[test]
    fn aggregator_rejects_bad_and_duplicate_partials() {
        let mut rng = HmacDrbg::new(b"witness-tests", b"agg");
        let tk = generate(2, 3, &mut rng).unwrap();
        let keys = domain_keys(2);
        let vks: Vec<_> = keys.iter().map(|k| k.verifying_key()).collect();
        let heads = head_set(&keys, 1, 0x01);
        let bodies: Vec<_> = heads.iter().map(|cp| cp.body.clone()).collect();

        let mut agg = QuorumAggregator::new(tk.commitments.clone(), bodies.clone());
        let mut w = Witness::new(tk.shares[0], vks.clone());
        let good = w.observe_and_sign(&heads).unwrap();
        assert!(agg.add(good));
        assert!(!agg.add(good), "duplicate index must be dropped");

        // A partial over DIFFERENT heads must fail commitment checks.
        let other_heads = head_set(&keys, 2, 0x02);
        let other_bodies: Vec<_> = other_heads.iter().map(|cp| cp.body.clone()).collect();
        let stray = partial_sign(&tk.shares[1], &cosign_signing_bytes(&other_bodies));
        assert!(!agg.add(stray));
        assert!(!agg.ready());
        assert!(agg.cosign().is_err());
    }

    #[test]
    fn witness_refuses_equivocation_and_keeps_evidence() {
        let mut rng = HmacDrbg::new(b"witness-tests", b"refuse");
        let tk = generate(1, 1, &mut rng).unwrap();
        let keys = domain_keys(1);
        let vks: Vec<_> = keys.iter().map(|k| k.verifying_key()).collect();
        let mut w = Witness::new(tk.shares[0], vks);

        let first = head_set(&keys, 3, 0xaa);
        w.observe_and_sign(&first).unwrap();
        // Same size, different head: equivocation.
        let forked = head_set(&keys, 3, 0xbb);
        let err = w.observe_and_sign(&forked).unwrap_err();
        assert!(matches!(err, WitnessError::Refused { domain: 0, .. }));
        assert_eq!(
            w.evidence().len(),
            1,
            "refusal must yield transferable evidence"
        );
        assert!(w.evidence()[0].verify(&keys[0].verifying_key()));
    }

    #[test]
    fn witness_refuses_rollback_of_cosigned_size() {
        let mut rng = HmacDrbg::new(b"witness-tests", b"rollback");
        let tk = generate(1, 1, &mut rng).unwrap();
        let keys = domain_keys(1);
        let vks: Vec<_> = keys.iter().map(|k| k.verifying_key()).collect();
        let mut w = Witness::new(tk.shares[0], vks);

        w.observe_and_sign(&head_set(&keys, 5, 0x10)).unwrap();
        let err = w.observe_and_sign(&head_set(&keys, 2, 0x20)).unwrap_err();
        assert!(matches!(
            err,
            WitnessError::Rollback {
                domain: 0,
                cosigned: 5,
                offered: 2
            }
        ));
    }

    #[test]
    fn cosigned_heads_truncation_rejected_at_every_cut() {
        let mut rng = HmacDrbg::new(b"witness-tests", b"quorum");
        let tk = generate(2, 3, &mut rng).unwrap();
        let keys = domain_keys(3);
        let vks: Vec<_> = keys.iter().map(|k| k.verifying_key()).collect();
        let heads = head_set(&keys, 5, 0x5a);
        let bodies: Vec<_> = heads.iter().map(|cp| cp.body.clone()).collect();
        let mut agg = QuorumAggregator::new(tk.commitments.clone(), bodies);
        for share in tk.shares.iter().take(2) {
            let mut w = Witness::new(*share, vks.clone());
            agg.add(w.observe_and_sign(&heads).unwrap());
        }
        let wire = agg.cosign().unwrap().to_wire();
        for cut in 0..wire.len() {
            assert!(
                CosignedHeads::from_wire(&wire[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }
}
