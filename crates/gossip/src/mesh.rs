//! Deterministic in-process gossip mesh.
//!
//! [`GossipNode`] is one honest auditor's gossip state: a verified view
//! of every domain's checkpoints, the best (largest) verified head per
//! domain for re-gossiping, and a pool of transferable evidence.
//! [`Mesh`] wires nodes into an arbitrary undirected topology and runs
//! *synchronous rounds*: each round snapshots every node's envelope,
//! then delivers each snapshot along every edge in both directions. No
//! sockets, no clocks, no sleeps — the same inputs always produce the
//! same verdicts, which is what lets the convergence property test make
//! an exact O(diameter) claim: a head crosses one edge per round, so two
//! conflicting views meet within `dist(a, b)` rounds and the resulting
//! evidence floods back out within `diameter` more.

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

    /// The node's auditor (read access, e.g. for cross-checking).
    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }
}

/// A set of gossip nodes joined by undirected edges, stepped in
/// deterministic synchronous rounds.
pub struct Mesh {
    nodes: Vec<GossipNode>,
    edges: Vec<(usize, usize)>,
}

impl Mesh {
    /// A mesh over `nodes` connected by the undirected `edges`
    /// (self-loops and duplicate edges are tolerated and harmless).
    pub fn new(nodes: Vec<GossipNode>, edges: Vec<(usize, usize)>) -> Self {
        Self { nodes, edges }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the mesh has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Read access to a node.
    pub fn node(&self, i: usize) -> &GossipNode {
        &self.nodes[i]
    }

    /// Mutable access to a node (used to inject direct observations).
    pub fn node_mut(&mut self, i: usize) -> &mut GossipNode {
        &mut self.nodes[i]
    }

    /// Runs one synchronous gossip round: snapshot every node's
    /// envelope, then deliver each snapshot along every edge in both
    /// directions. Snapshot-then-deliver means information moves at most
    /// one hop per round — the property the convergence bound counts on.
    pub fn round(&mut self) {
        let snapshots: Vec<GossipEnvelope> = self.nodes.iter().map(|n| n.envelope()).collect();
        for &(a, b) in &self.edges {
            if a == b {
                continue;
            }
            let env_a = snapshots[a].clone();
            let env_b = snapshots[b].clone();
            self.nodes[b].ingest(&env_a);
            self.nodes[a].ingest(&env_b);
        }
    }

    /// Runs rounds until every node convicts `domain` or `max_rounds`
    /// is exhausted; returns the number of rounds run if converged.
    pub fn converge_on(&mut self, domain: u32, max_rounds: usize) -> Option<usize> {
        for r in 0..=max_rounds {
            if self.nodes.iter().all(|n| n.convicted(domain)) {
                return Some(r);
            }
            if r == max_rounds {
                break;
            }
            self.round();
        }
        None
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
    fn split_view_meets_in_the_middle_of_a_path() {
        // Path topology 0—1—2—3—4; node 0 sees fork A, node 4 sees fork
        // B of domain 0. Distance between the views is 4, evidence needs
        // at most the diameter (4) more to flood back out.
        let sk = SigningKey::derive(b"mesh", b"equivocator");
        let keys = vec![sk.verifying_key()];
        let nodes = (0..5).map(|_| GossipNode::new(keys.clone())).collect();
        let edges = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        let mut mesh = Mesh::new(nodes, edges);
        mesh.node_mut(0)
            .observe_checkpoint(0, checkpoint(&sk, 0, 7, 0xaa));
        mesh.node_mut(4)
            .observe_checkpoint(0, checkpoint(&sk, 0, 7, 0xbb));

        let rounds = mesh
            .converge_on(0, 2 * 4 + 2)
            .expect("all nodes must convict within 2*diameter+2 rounds");
        assert!(rounds <= 8, "path of 5 converged in {rounds} rounds");
        for i in 0..mesh.len() {
            assert!(mesh.node(i).convicted(0));
            // The conviction is transferable: every node's evidence
            // verifies against the domain's key alone.
            assert!(mesh.node(i).evidence().iter().any(|b| b.verify(&keys[0])));
        }
    }

    #[test]
    fn honest_views_never_convict() {
        let sk = SigningKey::derive(b"mesh", b"honest");
        let keys = vec![sk.verifying_key()];
        let nodes = (0..3).map(|_| GossipNode::new(keys.clone())).collect();
        let mut mesh = Mesh::new(nodes, vec![(0, 1), (1, 2)]);
        // Same history, different staleness — lagging is consistent.
        mesh.node_mut(0)
            .observe_checkpoint(0, checkpoint(&sk, 0, 3, 0x33));
        mesh.node_mut(2)
            .observe_checkpoint(0, checkpoint(&sk, 0, 3, 0x33));
        for _ in 0..6 {
            mesh.round();
        }
        for i in 0..mesh.len() {
            assert!(!mesh.node(i).convicted(0));
            assert!(mesh.node(i).evidence().is_empty());
        }
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

    #[test]
    fn second_hand_heads_propagate() {
        // Node 0 observes directly; nodes 1 and 2 learn the head only
        // via gossip, and node 2 only via node 1's re-gossip.
        let sk = SigningKey::derive(b"mesh", b"relay");
        let keys = vec![sk.verifying_key()];
        let nodes = (0..3).map(|_| GossipNode::new(keys.clone())).collect();
        let mut mesh = Mesh::new(nodes, vec![(0, 1), (1, 2)]);
        mesh.node_mut(0)
            .observe_checkpoint(0, checkpoint(&sk, 0, 9, 0x99));
        mesh.round();
        mesh.round();
        let head = mesh.node(2).envelope().heads;
        assert_eq!(head.len(), 1);
        assert_eq!(head[0].checkpoint.body.size, 9);
    }
}
