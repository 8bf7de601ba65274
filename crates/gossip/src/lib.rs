//! # distrust-gossip
//!
//! The layer that makes "someone is watching" a structural property
//! instead of a per-client hope. The paper's detection guarantee (§3.3)
//! is only as strong as each client's *private* view: a domain that shows
//! client A one history and client B another equivocates undetectably as
//! long as A and B never compare notes. This crate closes that gap, three
//! ways (see GOSSIP.md at the repo root for the full trust model):
//!
//! * [`envelope`] — the epidemic checkpoint-exchange format. A
//!   [`GossipEnvelope`] carries a party's latest signed checkpoint heads
//!   plus any transferable misbehavior evidence it holds; two honest
//!   parties that ever exchange envelopes detect a split view between
//!   them.
//! * [`evidence`] — transferable evidence. An [`EvidenceBundle`] wraps a
//!   [`distrust_log::EquivocationProof`] with the index of the offending
//!   domain; anyone holding the domain's checkpoint key verifies it
//!   offline, so evidence propagates through the mesh and poisons the
//!   equivocating domain *everywhere*, not just at the client that caught
//!   it.
//! * [`witness`] — the witness quorum. `t`-of-`n` witnesses each verify a
//!   deployment's checkpoint heads and emit a BLS partial signature over
//!   them; aggregated ([`QuorumAggregator`]) they form one
//!   [`CosignedHeads`] a thin client verifies with a **single** pairing
//!   check in place of auditing all `n` domains itself — one witness
//!   response covers the whole deployment (relay mode).
//! * [`mesh`] — [`GossipNode`], one honest auditor's gossip state: the
//!   witness relays through one, and the convergence property tests wire
//!   many into a deterministic in-process mesh (`tests/common/mesh.rs`).

pub mod envelope;
pub mod evidence;
pub mod mesh;
pub mod witness;

pub use envelope::{GossipEnvelope, GossipHead, MAX_ENVELOPE_EVIDENCE, MAX_ENVELOPE_HEADS};
pub use evidence::{EvidenceBundle, EvidencePool, MAX_EVIDENCE_POOL};
pub use mesh::GossipNode;
pub use witness::{
    cosign_signing_bytes, CosignedHeads, QuorumAggregator, Witness, WitnessError,
    MAX_COSIGNED_HEADS,
};
