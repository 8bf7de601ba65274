//! # distrust-log
//!
//! Append-only log substrate for the `distrust` workspace — the second of
//! the paper's two application-independent building blocks (§3.1): "The
//! append-only log should provide integrity: once an entry is added, it
//! cannot be altered or deleted."
//!
//! The log is [`merkle::MerkleLog`] — an RFC 6962-style Merkle log with
//! O(log n) inclusion and consistency proofs, the
//! Certificate-Transparency-grade infrastructure §4.2 points to.
//!
//! On top of it, [`checkpoint`] provides signed tree heads and
//! transferable equivocation proofs, and [`auditor`] implements the client
//! logic: verify each domain's log growth and cross-check digest histories
//! across all `n` domains. [`batch`] amortises the audit hot path:
//! multi-checkpoint proof bundles with deduplicated nodes and a
//! verified-prefix cache so repeated audits never re-verify old history.
//! [`store`] puts durability under all of it: a [`store::LogStore`] trait
//! with an in-memory default and a segment-file implementation
//! ([`store::DurableStore`]) whose write-ahead discipline and torn-tail
//! recovery let a restarted domain resume the identical head instead of
//! silently re-signing fresh history. [`domain_log`] is the two together —
//! what one trust domain keeps: the tree a checkpoint signs `(len, root)`
//! of, every leaf written to the store before it enters the tree.

pub mod auditor;
pub mod batch;
pub mod checkpoint;
pub mod domain_log;
pub mod merkle;
pub mod store;

pub use auditor::{digests_match, AuditOutcome, Auditor, Misbehavior};
pub use batch::{
    BundleStep, CheckpointBundle, ProofBundle, VerifiedPrefixCache, MAX_BUNDLE_CHECKPOINTS,
};
pub use checkpoint::{log_id, CheckpointBody, EquivocationProof, SignedCheckpoint};
pub use domain_log::ShardedLog;
pub use merkle::{CompactRoot, ConsistencyProof, InclusionProof, MerkleLog, PackedRecords};
pub use store::{
    AppendAck, DurableOptions, DurableStore, LogStore, MemStore, MetaRecord, NullStore, Recovered,
    StorageConfig, StoreError,
};
