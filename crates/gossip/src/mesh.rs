//! One honest auditor's gossip state.
//!
//! [`GossipNode`] holds a verified view of every domain's checkpoints,
//! the best (largest) verified head per domain for re-gossiping, and a
//! pool of transferable evidence. The witness relays through one; the
//! convergence tests wire many into an in-process mesh
//! (`tests/common/mesh.rs`).

use crate::envelope::{GossipEnvelope, GossipHead};
use crate::evidence::{EvidenceBundle, EvidencePool};
use distrust_crypto::schnorr::VerifyingKey;
use distrust_log::auditor::{AuditOutcome, Auditor, Misbehavior};
use distrust_log::checkpoint::SignedCheckpoint;
use std::collections::BTreeMap;

/// One honest auditor participating in the gossip mesh.
pub struct GossipNode {
    keys: Vec<VerifyingKey>,
    auditor: Auditor,
    /// Best verified head per domain, kept separately from the auditor:
    /// [`Auditor::gossip_payload`] only exports *directly observed*
    /// checkpoints, while a mesh node must also re-gossip heads it
    /// learned second-hand for them to flood beyond one hop.
    best: BTreeMap<u32, SignedCheckpoint>,
    pool: EvidencePool,
}

impl GossipNode {
    /// A node auditing a deployment whose domains checkpoint-sign with
    /// `keys` (indexed by domain).
    pub fn new(keys: Vec<VerifyingKey>) -> Self {
        let auditor = Auditor::new(keys.clone());
        Self {
            keys,
            auditor,
            best: BTreeMap::new(),
            pool: EvidencePool::new(),
        }
    }

    /// Feeds one checkpoint into the node's verified view — either a
    /// direct observation (the node talked to the domain itself) or a
    /// relayed head. Invalid signatures are dropped; a conflict with
    /// anything previously seen at the same size yields transferable
    /// evidence, which the node keeps and will re-gossip.
    pub fn observe_checkpoint(&mut self, domain: u32, checkpoint: SignedCheckpoint) {
        match self.auditor.ingest_gossip(domain, checkpoint.clone()) {
            AuditOutcome::Consistent => {
                let better = self
                    .best
                    .get(&domain)
                    .is_none_or(|cur| checkpoint.body.size > cur.body.size);
                if better {
                    self.best.insert(domain, checkpoint);
                }
            }
            AuditOutcome::Misbehavior(m) => self.record_misbehavior(&m),
        }
    }

    fn record_misbehavior(&mut self, m: &Misbehavior) {
        if let Some(bundle) = EvidenceBundle::from_misbehavior(m) {
            self.pool.insert(bundle);
        }
    }

    /// The envelope this node would send a peer right now: its best
    /// verified head per domain plus all evidence it holds.
    pub fn envelope(&self) -> GossipEnvelope {
        GossipEnvelope {
            heads: self
                .best
                .iter()
                .map(|(&domain, checkpoint)| GossipHead {
                    domain,
                    checkpoint: checkpoint.clone(),
                })
                .collect(),
            evidence: self.pool.items().to_vec(),
        }
    }

    /// Merges a peer's envelope into this node's view. Heads are
    /// verified exactly like direct observations; evidence is verified
    /// against the accused domain's pinned key and dropped if bogus, so
    /// a hostile peer cannot frame an honest domain.
    pub fn ingest(&mut self, envelope: &GossipEnvelope) {
        for head in &envelope.heads {
            self.observe_checkpoint(head.domain, head.checkpoint.clone());
        }
        for bundle in &envelope.evidence {
            let Some(key) = self.keys.get(bundle.domain as usize) else {
                continue;
            };
            self.pool.insert_verifying(bundle, key);
        }
    }

    /// Whether this node holds verified evidence convicting `domain`.
    pub fn convicted(&self, domain: u32) -> bool {
        self.pool.convicts(domain)
    }

    /// All domains this node holds verified evidence against.
    pub fn convicted_domains(&self) -> Vec<u32> {
        self.pool.convicted_domains()
    }

    /// The evidence this node holds.
    pub fn evidence(&self) -> &[EvidenceBundle] {
        self.pool.items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_crypto::schnorr::SigningKey;
    use distrust_log::checkpoint::{log_id, CheckpointBody};

    fn checkpoint(sk: &SigningKey, domain: u32, size: u64, fill: u8) -> SignedCheckpoint {
        SignedCheckpoint::sign(
            CheckpointBody {
                log_id: log_id(b"mesh-tests", domain),
                size,
                head: [fill; 32],
                logical_time: size,
            },
            sk,
        )
    }

    #[test]
    fn bogus_evidence_cannot_frame_an_honest_domain() {
        let honest = SigningKey::derive(b"mesh", b"honest");
        let framer = SigningKey::derive(b"mesh", b"framer");
        let keys = vec![honest.verifying_key()];
        let mut node = GossipNode::new(keys);
        // Evidence signed by the wrong key: verifies under the framer's
        // key but not under domain 0's pinned key.
        let bogus = EvidenceBundle {
            domain: 0,
            proof: distrust_log::checkpoint::EquivocationProof {
                a: checkpoint(&framer, 0, 2, 0x01),
                b: checkpoint(&framer, 0, 2, 0x02),
            },
        };
        node.ingest(&GossipEnvelope {
            heads: Vec::new(),
            evidence: vec![bogus],
        });
        assert!(!node.convicted(0));
        assert!(node.evidence().is_empty());
    }
}
