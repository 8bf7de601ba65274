//! Transferable misbehavior evidence.
//!
//! An equivocation proof is the paper's "publicly verifiable proof of
//! misbehavior" (§1): two checkpoints signed by the same domain key over
//! the same `(log_id, size)` with different heads. [`EvidenceBundle`]
//! makes the proof *routable* — it names the offending domain so a
//! receiver knows which pinned key to verify it against — and
//! [`EvidencePool`] keeps a bounded, deduplicated set of bundles for
//! re-gossiping, so one detection poisons the domain everywhere the mesh
//! reaches.

use distrust_crypto::schnorr::VerifyingKey;
use distrust_crypto::sha256::Digest;
use distrust_log::auditor::Misbehavior;
use distrust_log::checkpoint::EquivocationProof;
use distrust_wire::codec::Encode;
use distrust_wire::wire_struct;
use std::collections::HashSet;

/// Most evidence bundles a pool retains (and re-gossips). One valid
/// bundle per domain already convicts it; the headroom exists so
/// conflicting proofs from independent observers are not dropped while
/// propagating. Beyond the cap, inserts are refused — a flooder cannot
/// grow a peer's memory.
pub const MAX_EVIDENCE_POOL: usize = 64;

/// A transferable accusation: *this* domain signed the two conflicting
/// checkpoints inside.
///
/// Verification needs nothing but the domain's pinned checkpoint key, so
/// a bundle that arrived through any number of untrusted hops is exactly
/// as convincing as one produced locally. Invalid bundles (wrong key, no
/// actual conflict) are discarded on ingest without effect — a hostile
/// peer cannot frame an honest domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvidenceBundle {
    /// Index of the accused domain within the deployment.
    pub domain: u32,
    /// The equivocation proof (self-contained, signature-carrying).
    pub proof: EquivocationProof,
}

wire_struct!(EvidenceBundle {
    domain: u32,
    proof: EquivocationProof,
});

impl EvidenceBundle {
    /// Extracts the transferable form of a [`Misbehavior`], when it has
    /// one. Only equivocation is transferable: the other variants
    /// (rollback, refused proofs, malformed bundles) convince the client
    /// that observed them but carry no third-party-checkable signature
    /// conflict.
    pub fn from_misbehavior(m: &Misbehavior) -> Option<Self> {
        match m {
            Misbehavior::Equivocation { domain, proof } => Some(Self {
                domain: *domain,
                proof: proof.clone(),
            }),
            _ => None,
        }
    }

    /// Verifies the accusation against the accused domain's checkpoint
    /// key. `true` means the key provably signed two conflicting views.
    pub fn verify(&self, key: &VerifyingKey) -> bool {
        self.proof.verify(key)
    }

    /// Content hash used for pool deduplication.
    pub fn dedup_key(&self) -> Digest {
        distrust_crypto::sha256(&self.to_wire())
    }
}

/// A bounded, deduplicated set of verified evidence bundles.
///
/// The pool stores only bundles the owner has verified — relayed ones
/// through [`EvidencePool::insert_verifying`], locally produced ones (an
/// auditor's own findings) through [`EvidencePool::insert`]; it exists to
/// remember and re-gossip them.
#[derive(Default)]
pub struct EvidencePool {
    seen: HashSet<Digest>,
    items: Vec<EvidenceBundle>,
    verifications: u64,
}

impl EvidencePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a bundle the caller has already verified. Returns `true`
    /// when it is new (not a duplicate, pool not full) — the signal that
    /// it is worth re-gossiping.
    pub fn insert(&mut self, bundle: EvidenceBundle) -> bool {
        if self.items.len() >= MAX_EVIDENCE_POOL {
            return false;
        }
        if !self.seen.insert(bundle.dedup_key()) {
            return false;
        }
        self.items.push(bundle);
        true
    }

    /// Inserts a relayed bundle if it is new and verifies under `key`,
    /// the accused domain's pinned checkpoint key. A bundle the pool
    /// already holds (boards relay every bundle on every audit once a
    /// conviction exists) or has no room for returns `false` before
    /// either signature is checked; so does one that fails verification.
    pub fn insert_verifying(&mut self, bundle: &EvidenceBundle, key: &VerifyingKey) -> bool {
        let dedup = bundle.dedup_key();
        if self.items.len() >= MAX_EVIDENCE_POOL || self.seen.contains(&dedup) {
            return false;
        }
        self.verifications += 1;
        if !bundle.verify(key) {
            return false;
        }
        self.seen.insert(dedup);
        self.items.push(bundle.clone());
        true
    }

    /// Relayed bundles whose signatures were checked, valid or not
    /// ([`EvidencePool::insert_verifying`]).
    // lint:allow(dead-surface): a count this file's test asserts on in place of time — that a bundle the pool holds is never verified again
    pub fn verifications(&self) -> u64 {
        self.verifications
    }

    /// The bundles held, in insertion order.
    pub fn items(&self) -> &[EvidenceBundle] {
        &self.items
    }

    /// Whether the pool holds evidence against `domain`.
    pub fn convicts(&self, domain: u32) -> bool {
        self.items.iter().any(|b| b.domain == domain)
    }

    /// Domains the pool holds evidence against, ascending, deduplicated.
    pub fn convicted_domains(&self) -> Vec<u32> {
        let mut domains: Vec<u32> = self.items.iter().map(|b| b.domain).collect();
        domains.sort_unstable();
        domains.dedup();
        domains
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_crypto::schnorr::SigningKey;
    use distrust_log::checkpoint::{log_id, CheckpointBody, SignedCheckpoint};
    use distrust_wire::codec::Decode;

    fn conflicting_proof(sk: &SigningKey) -> EquivocationProof {
        let body = |head: u8| CheckpointBody {
            log_id: log_id(b"evidence-tests", 1),
            size: 4,
            head: [head; 32],
            logical_time: 4,
        };
        EquivocationProof {
            a: SignedCheckpoint::sign(body(0xaa), sk),
            b: SignedCheckpoint::sign(body(0xbb), sk),
        }
    }

    #[test]
    fn bundle_round_trips_and_stays_verifiable() {
        let sk = SigningKey::derive(b"evidence", b"equivocator");
        let bundle = EvidenceBundle {
            domain: 1,
            proof: conflicting_proof(&sk),
        };
        let wire = bundle.to_wire();
        let back = EvidenceBundle::from_wire(&wire).unwrap();
        assert_eq!(back, bundle);
        assert!(back.verify(&sk.verifying_key()));
        // A bundle cannot frame a key that signed neither checkpoint.
        let other = SigningKey::derive(b"evidence", b"honest").verifying_key();
        assert!(!back.verify(&other));
    }

    #[test]
    fn from_misbehavior_extracts_only_equivocation() {
        let sk = SigningKey::derive(b"evidence", b"equivocator");
        let proof = conflicting_proof(&sk);
        let m = Misbehavior::Equivocation {
            domain: 2,
            proof: proof.clone(),
        };
        assert_eq!(
            EvidenceBundle::from_misbehavior(&m),
            Some(EvidenceBundle { domain: 2, proof })
        );
        let m = Misbehavior::Rollback {
            domain: 2,
            trusted_size: 5,
            offered_size: 3,
        };
        assert_eq!(EvidenceBundle::from_misbehavior(&m), None);
    }

    #[test]
    fn a_bundle_already_held_is_recognised_before_it_is_verified() {
        let sk = SigningKey::derive(b"evidence", b"equivocator");
        let vk = sk.verifying_key();
        let bundle = EvidenceBundle {
            domain: 1,
            proof: conflicting_proof(&sk),
        };
        let mut pool = EvidencePool::new();
        assert!(pool.insert_verifying(&bundle, &vk));
        assert_eq!(pool.verifications(), 1);
        // What a board relays on every later audit: the same bundle.
        for _ in 0..3 {
            assert!(!pool.insert_verifying(&bundle, &vk));
        }
        assert_eq!(pool.verifications(), 1, "a held bundle was verified again");
        assert_eq!(pool.items().len(), 1);

        // The auditor's own finding is held without a check, and relayed
        // copies of it are duplicates too.
        let mut own = EvidencePool::new();
        assert!(own.insert(bundle.clone()));
        assert!(!own.insert_verifying(&bundle, &vk));
        assert_eq!(own.verifications(), 0);

        // A bundle that does not verify is checked, dropped, and — never
        // having been held — checked again when it comes back.
        let honest = SigningKey::derive(b"evidence", b"honest").verifying_key();
        let mut framed = EvidencePool::new();
        assert!(!framed.insert_verifying(&bundle, &honest));
        assert!(!framed.insert_verifying(&bundle, &honest));
        assert_eq!(framed.verifications(), 2);
        assert!(framed.items().is_empty() && !framed.convicts(1));
    }

    /// A bundle whose signature bytes are no point of G1 — `x = 1` is on
    /// no point of the curve, `x = 0` is the order-3 point `(0, 2)` of the
    /// cofactor torsion — decodes like any other, fails `verify`, and is
    /// dropped by the pool: checked, never held, convicting nobody.
    #[test]
    fn signature_bytes_that_are_no_point_of_g1_decode_and_are_dropped() {
        let sk = SigningKey::derive(b"evidence", b"equivocator");
        let vk = sk.verifying_key();
        let mut pool = EvidencePool::new();
        for x in [1u8, 0] {
            let mut bundle = EvidenceBundle {
                domain: 1,
                proof: conflicting_proof(&sk),
            };
            bundle.proof.b.signature[..48].fill(0);
            (bundle.proof.b.signature[0], bundle.proof.b.signature[47]) = (0x80, x);
            let decoded = EvidenceBundle::from_wire(&bundle.to_wire()).expect("decodes");
            assert_eq!(decoded, bundle);
            assert!(!decoded.verify(&vk));
            assert!(!pool.insert_verifying(&decoded, &vk));
        }
        assert_eq!(pool.verifications(), 2);
        assert!(pool.items().is_empty() && !pool.convicts(1));
    }

    #[test]
    fn pool_dedups_and_caps() {
        let sk = SigningKey::derive(b"evidence", b"equivocator");
        let bundle = EvidenceBundle {
            domain: 0,
            proof: conflicting_proof(&sk),
        };
        let mut pool = EvidencePool::new();
        assert!(pool.insert(bundle.clone()));
        assert!(!pool.insert(bundle.clone()), "duplicate must be refused");
        assert_eq!(pool.items().len(), 1);
        assert!(pool.convicts(0));
        assert!(!pool.convicts(1));
        assert_eq!(pool.convicted_domains(), vec![0]);
        // Fill to the cap with distinct bundles (different domain index
        // changes the dedup key).
        for d in 1..MAX_EVIDENCE_POOL as u32 {
            let mut b = bundle.clone();
            b.domain = d;
            assert!(pool.insert(b));
        }
        let mut overflow = bundle.clone();
        overflow.domain = MAX_EVIDENCE_POOL as u32 + 7;
        assert!(!pool.insert(overflow), "pool past cap must refuse");
        assert_eq!(pool.items().len(), MAX_EVIDENCE_POOL);
    }
}
