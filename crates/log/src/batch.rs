//! Batched audit support: multi-checkpoint proof bundles and the
//! verified-prefix cache.
//!
//! The paper's scalability bottleneck (§5) is that every client audits
//! every trust domain independently: one attestation, one checkpoint
//! fetch, and one consistency proof per round, per domain, per client.
//! This module amortises the log half of that cost in two directions:
//!
//! * **Across checkpoints** — [`ProofBundle`] packs the consistency
//!   proofs linking a whole *range* of checkpoints into one object with
//!   every shared subtree hash stored once
//!   ([`MerkleLog::prove_consistency_range`]). A domain can hand one
//!   bundle to a client that is many epochs behind instead of answering
//!   one consistency-proof round-trip per epoch.
//! * **Across audit rounds** — [`VerifiedPrefixCache`] remembers the
//!   highest `(size, head)` a verifier has already checked, so repeated
//!   audits of an unchanged log verify nothing at all and audits of a
//!   grown log verify only the new suffix. The cache also counts the
//!   signature/consistency verifications it performed and skipped, which
//!   the property tests and benches use to prove the amortisation is
//!   real.
//!
//! [`CheckpointBundle`] is the wire-facing combination of the two: the
//! signed checkpoints for a range of epochs plus the [`ProofBundle`]
//! linking them, consumed by `Auditor::observe_bundle`.

use crate::checkpoint::SignedCheckpoint;
use crate::merkle::{ConsistencyProof, MerkleLog};
use distrust_crypto::sha256::Digest;
use distrust_wire::codec::{decode_seq, encode_seq, Decode, DecodeError, Encode};
use std::collections::HashMap;

/// One consistency step inside a [`ProofBundle`]: proves the tree of
/// `new_size` leaves extends the tree of `old_size` leaves. The path
/// holds indices into the bundle's shared node pool instead of raw
/// digests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BundleStep {
    /// The earlier (trusted) size.
    pub old_size: u64,
    /// The later size.
    pub new_size: u64,
    /// Indices into [`ProofBundle::nodes`], leaf-to-root order.
    pub path: Vec<u32>,
}

impl Encode for BundleStep {
    fn encode(&self, out: &mut Vec<u8>) {
        self.old_size.encode(out);
        self.new_size.encode(out);
        encode_seq(&self.path, out);
    }
}

impl Decode for BundleStep {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            old_size: Decode::decode(input)?,
            new_size: Decode::decode(input)?,
            path: decode_seq(input)?,
        })
    }
}

/// A compact multi-checkpoint consistency proof: pairwise RFC 6962
/// consistency proofs for a run of tree sizes, with the subtree hashes
/// shared between steps deduplicated into one node pool.
///
/// Adjacent consistency proofs of the same log overlap heavily (they walk
/// the same right-edge subtrees), so the pooled encoding is strictly
/// smaller than concatenating the individual proofs whenever the bundle
/// has more than one step.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProofBundle {
    /// Deduplicated proof nodes referenced by every step.
    pub nodes: Vec<Digest>,
    /// Consistency steps, in ascending size order.
    pub steps: Vec<BundleStep>,
}

impl Encode for ProofBundle {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.nodes, out);
        encode_seq(&self.steps, out);
    }
}

impl Decode for ProofBundle {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            nodes: decode_seq(input)?,
            steps: decode_seq(input)?,
        })
    }
}

impl ProofBundle {
    /// Builds a bundle from individual consistency proofs, deduplicating
    /// the shared nodes.
    pub fn from_proofs(proofs: &[ConsistencyProof]) -> Self {
        let mut nodes: Vec<Digest> = Vec::new();
        let mut index: HashMap<Digest, u32> = HashMap::new();
        let steps = proofs
            .iter()
            .map(|p| BundleStep {
                old_size: p.old_size,
                new_size: p.new_size,
                path: p
                    .path
                    .iter()
                    .map(|d| {
                        *index.entry(*d).or_insert_with(|| {
                            nodes.push(*d);
                            (nodes.len() - 1) as u32
                        })
                    })
                    .collect(),
            })
            .collect();
        Self { nodes, steps }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the bundle proves nothing (a single-checkpoint bundle).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Expands step `i` back into a standalone [`ConsistencyProof`].
    /// Returns `None` for an out-of-range index or a step referencing a
    /// node outside the pool (a malformed bundle).
    pub fn step(&self, i: usize) -> Option<ConsistencyProof> {
        let step = self.steps.get(i)?;
        let path = step
            .path
            .iter()
            .map(|&idx| self.nodes.get(idx as usize).copied())
            .collect::<Option<Vec<Digest>>>()?;
        Some(ConsistencyProof {
            old_size: step.old_size,
            new_size: step.new_size,
            path,
        })
    }

    /// Total path entries across all steps (each one 4 bytes on the wire,
    /// vs. 32 for a raw digest) — the compactness measure the unit tests
    /// assert on.
    pub fn total_path_entries(&self) -> usize {
        self.steps.iter().map(|s| s.path.len()).sum()
    }
}

/// Upper bound on checkpoints per [`CheckpointBundle`]: what a domain
/// building one stops at (a client further behind gets one direct
/// consistency step from its verified size to the earliest checkpoint
/// included), and what a client refuses to look past — each checkpoint is
/// a signature verification, and the auditor compares them pairwise, so a
/// frame's worth of correctly signed checkpoints would hold an audit for
/// as long as its sender liked.
pub const MAX_BUNDLE_CHECKPOINTS: usize = 64;

/// The wire-facing audit object: signed checkpoints for a range of
/// epochs (strictly ascending sizes, last entry freshest, at most
/// [`MAX_BUNDLE_CHECKPOINTS`]) plus the proof bundle linking them — and,
/// when the verifier reported a non-zero verified prefix, linking that
/// prefix to the first checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointBundle {
    /// Signed checkpoints in ascending size order.
    pub checkpoints: Vec<SignedCheckpoint>,
    /// Consistency steps covering every adjacent size transition.
    pub proof: ProofBundle,
}

impl Encode for CheckpointBundle {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.checkpoints, out);
        self.proof.encode(out);
    }
}

impl Decode for CheckpointBundle {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let checkpoints: Vec<SignedCheckpoint> = decode_seq(input)?;
        if checkpoints.len() > MAX_BUNDLE_CHECKPOINTS {
            return Err(DecodeError::Invalid("checkpoint bundle length"));
        }
        Ok(Self {
            checkpoints,
            proof: Decode::decode(input)?,
        })
    }
}

impl MerkleLog {
    /// Batched consistency-proof API: one [`ProofBundle`] covering the
    /// whole run of tree sizes, equivalent to (but smaller than) calling
    /// [`MerkleLog::prove_consistency`] for each adjacent pair.
    ///
    /// `sizes` must be strictly ascending, start at 1 or later, and end
    /// at or below the current log size; otherwise `None`.
    pub fn prove_consistency_range(&self, sizes: &[usize]) -> Option<ProofBundle> {
        let mut proofs = Vec::with_capacity(sizes.len().saturating_sub(1));
        for w in sizes.windows(2) {
            if w[0] >= w[1] {
                return None;
            }
            proofs.push(self.prove_consistency(w[0], w[1])?);
        }
        Some(ProofBundle::from_proofs(&proofs))
    }
}

/// Remembers the highest `(size, head)` a verifier has fully verified so
/// audit work never repeats below that prefix, and counts the crypto
/// operations performed vs. avoided.
///
/// The counters make amortisation *observable*: the batched-audit
/// property tests assert that no signature or consistency verification is
/// ever charged for data at or below the verified prefix, and the
/// `audit_throughput` bench reports the skip ratio.
#[derive(Clone, Debug, Default)]
pub struct VerifiedPrefixCache {
    verified: Option<(u64, Digest)>,
    signatures_verified: u64,
    consistency_verified: u64,
    skipped: u64,
}

impl VerifiedPrefixCache {
    /// An empty cache: nothing verified yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The highest verified log size, or `None` before the first
    /// successful verification (note a size-0 checkpoint *is* a
    /// verification, distinct from `None`).
    pub fn verified_size(&self) -> Option<u64> {
        self.verified.map(|(s, _)| s)
    }

    /// The head at the verified size.
    pub fn verified_head(&self) -> Option<&Digest> {
        self.verified.as_ref().map(|(_, h)| h)
    }

    /// True when `size` falls at or below the verified prefix — i.e. the
    /// verifier has nothing new to check about it.
    pub fn covers(&self, size: u64) -> bool {
        self.verified.is_some_and(|(s, _)| size <= s)
    }

    /// Records a successful verification up to `(size, head)`. Never
    /// moves backwards.
    pub fn record(&mut self, size: u64, head: Digest) {
        match self.verified {
            Some((s, _)) if size < s => {}
            _ => self.verified = Some((size, head)),
        }
    }

    /// Counts one checkpoint-signature verification actually performed.
    pub fn note_signature(&mut self) {
        self.signatures_verified += 1;
    }

    /// Counts one consistency-proof verification actually performed.
    pub fn note_consistency(&mut self) {
        self.consistency_verified += 1;
    }

    /// Counts one verification avoided thanks to the cached prefix.
    pub fn note_skipped(&mut self) {
        self.skipped += 1;
    }

    /// Checkpoint-signature verifications performed so far.
    pub fn signatures_verified(&self) -> u64 {
        self.signatures_verified
    }

    /// Consistency-proof verifications performed so far.
    pub fn consistency_verified(&self) -> u64 {
        self.consistency_verified
    }

    /// Verifications avoided thanks to the cached prefix.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize) -> MerkleLog {
        let mut log = MerkleLog::new();
        for i in 0..n {
            log.append(format!("leaf-{i}").as_bytes());
        }
        log
    }

    #[test]
    fn range_proof_matches_pairwise_proofs() {
        let log = build(40);
        let sizes = [3usize, 8, 9, 17, 32, 40];
        let bundle = log.prove_consistency_range(&sizes).expect("bundle");
        assert_eq!(bundle.len(), sizes.len() - 1);
        for (i, w) in sizes.windows(2).enumerate() {
            let expanded = bundle.step(i).expect("step expands");
            let direct = log.prove_consistency(w[0], w[1]).expect("direct");
            assert_eq!(expanded, direct, "step {i}");
            assert!(expanded.verify(&log.root_of_prefix(w[0]), &log.root_of_prefix(w[1])));
        }
        // No step beyond the last.
        assert!(bundle.step(sizes.len() - 1).is_none());
    }

    #[test]
    fn range_proof_rejects_bad_ranges() {
        let log = build(10);
        assert!(log.prove_consistency_range(&[3, 3]).is_none());
        assert!(log.prove_consistency_range(&[5, 4]).is_none());
        assert!(log.prove_consistency_range(&[0, 4]).is_none());
        assert!(log.prove_consistency_range(&[4, 11]).is_none());
        // Trivial ranges prove nothing but are well-formed.
        assert!(log.prove_consistency_range(&[]).unwrap().is_empty());
        assert!(log.prove_consistency_range(&[7]).unwrap().is_empty());
    }

    #[test]
    fn bundle_deduplicates_shared_nodes() {
        // Many adjacent single-step growths over one log share most of
        // their right-edge subtree hashes.
        let log = build(64);
        let sizes: Vec<usize> = (33..=64).collect();
        let bundle = log.prove_consistency_range(&sizes).expect("bundle");
        let raw_nodes: usize = sizes
            .windows(2)
            .map(|w| log.prove_consistency(w[0], w[1]).unwrap().path.len())
            .sum();
        assert_eq!(bundle.total_path_entries(), raw_nodes);
        assert!(
            bundle.nodes.len() < raw_nodes,
            "pool {} should be smaller than {} raw path nodes",
            bundle.nodes.len(),
            raw_nodes
        );
    }

    #[test]
    fn bundle_wire_round_trip() {
        let log = build(20);
        let bundle = log.prove_consistency_range(&[2, 5, 11, 20]).unwrap();
        let back = ProofBundle::from_wire(&bundle.to_wire()).unwrap();
        assert_eq!(back, bundle);
    }

    #[test]
    fn malformed_step_index_does_not_expand() {
        let log = build(8);
        let mut bundle = log.prove_consistency_range(&[3, 8]).unwrap();
        bundle.steps[0].path[0] = 999; // out of pool
        assert!(bundle.step(0).is_none());
    }

    mod properties {
        use super::super::*;
        use crate::auditor::Auditor;
        use crate::checkpoint::{log_id, CheckpointBody};
        use proptest::prelude::*;

        /// A trust domain mirror: log + per-epoch signed checkpoints,
        /// shaped exactly like the framework's BatchAudit server side.
        struct Domain {
            sk: distrust_crypto::schnorr::SigningKey,
            log: MerkleLog,
            epochs: Vec<SignedCheckpoint>,
            lid: [u8; 32],
            time: u64,
        }

        impl Domain {
            fn new() -> Self {
                Self {
                    sk: distrust_crypto::schnorr::SigningKey::derive(b"batch props", b"domain"),
                    log: MerkleLog::new(),
                    epochs: Vec::new(),
                    lid: log_id(b"batch-props", 0),
                    time: 0,
                }
            }

            fn append(&mut self, leaf: &[u8]) {
                self.log.append(leaf);
                self.time += 1;
                self.epochs.push(SignedCheckpoint::sign(
                    CheckpointBody {
                        log_id: self.lid,
                        size: self.log.len() as u64,
                        head: self.log.root(),
                        logical_time: self.time,
                    },
                    &self.sk,
                ));
            }

            /// Server-shaped bundle for a client whose verified size is
            /// `verified` (mirrors the framework's bundle builder).
            fn bundle_for(&self, verified: u64) -> CheckpointBundle {
                let current = self.log.len() as u64;
                if verified >= current {
                    return CheckpointBundle {
                        checkpoints: vec![self.epochs.last().expect("non-empty").clone()],
                        proof: ProofBundle::default(),
                    };
                }
                let checkpoints: Vec<SignedCheckpoint> = self
                    .epochs
                    .iter()
                    .filter(|cp| cp.body.size > verified)
                    .cloned()
                    .collect();
                let mut sizes: Vec<usize> = Vec::new();
                if verified >= 1 {
                    sizes.push(verified as usize);
                }
                sizes.extend(checkpoints.iter().map(|cp| cp.body.size as usize));
                let proof = self
                    .log
                    .prove_consistency_range(&sizes)
                    .expect("honest range");
                CheckpointBundle { checkpoints, proof }
            }
        }

        /// Feeds the bundle to an auditor one checkpoint at a time with
        /// the matching pairwise proofs — the per-step path.
        fn feed_sequential(auditor: &mut Auditor, bundle: &CheckpointBundle) -> bool {
            let steps: Vec<ConsistencyProof> = (0..bundle.proof.len())
                .filter_map(|i| bundle.proof.step(i))
                .collect();
            for cp in &bundle.checkpoints {
                let trusted = auditor.latest(0).map(|c| c.body.size);
                let proof = trusted.and_then(|t| {
                    steps
                        .iter()
                        .find(|p| p.old_size == t && p.new_size == cp.body.size)
                });
                if !auditor.observe(0, cp.clone(), proof).is_consistent() {
                    return false;
                }
            }
            true
        }

        fn tamper(bundle: &mut CheckpointBundle, mode: u8, domain: &Domain) {
            match mode {
                1 => {
                    // Unsigned head mutation → bad signature.
                    bundle.checkpoints.last_mut().expect("non-empty").body.head[0] ^= 0xff;
                }
                2 => {
                    // Corrupt a shared proof node (when any).
                    if let Some(node) = bundle.proof.nodes.first_mut() {
                        node[0] ^= 0xff;
                    }
                }
                // Drop a proof step (when any).
                3 if !bundle.proof.steps.is_empty() => {
                    bundle.proof.steps.remove(0);
                }
                // Descending sizes (when ≥ 2 checkpoints).
                4 if bundle.checkpoints.len() >= 2 => {
                    bundle.checkpoints.reverse();
                }
                5 => {
                    // Correctly signed equivocation inside the bundle.
                    let last = bundle.checkpoints.last().expect("non-empty");
                    let mut body = last.body.clone();
                    body.head[0] ^= 0xff;
                    body.logical_time += 1;
                    bundle
                        .checkpoints
                        .push(SignedCheckpoint::sign(body, &domain.sk));
                }
                _ => {}
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// For random append/audit interleavings, batched verification
            /// accepts iff sequential verification accepts — including
            /// when the final bundle is tampered with — and a clean audit
            /// never performs a verification at or below the cached
            /// verified size.
            #[test]
            fn batched_accepts_iff_sequential_accepts(
                ops in proptest::collection::vec(0u8..4, 1..8),
                tamper_mode in 0u8..6,
            ) {
                let mut domain = Domain::new();
                domain.append(b"genesis epoch");
                let mut seq = Auditor::new(vec![domain.sk.verifying_key()]);
                let mut bat = Auditor::new(vec![domain.sk.verifying_key()]);
                let mut epoch = 0u64;

                for op in &ops {
                    if *op < 2 {
                        epoch += 1;
                        domain.append(format!("epoch {epoch}").as_bytes());
                        continue;
                    }
                    // Honest audit, both paths, from each auditor's own
                    // verified prefix.
                    let verified =
                        bat.latest(0).map(|cp| cp.body.size).unwrap_or(0);
                    let bundle = domain.bundle_for(verified);

                    let cache = bat.prefix_cache(0).expect("domain 0");
                    let sigs_before = cache.signatures_verified();
                    let cons_before = cache.consistency_verified();
                    let prev_verified = cache.verified_size();

                    let batched_ok = bat.observe_bundle(0, &bundle).is_consistent();
                    let sequential_ok = feed_sequential(&mut seq, &bundle);
                    prop_assert!(batched_ok, "honest bundle accepted (batched)");
                    prop_assert!(sequential_ok, "honest bundle accepted (sequential)");

                    // Amortisation invariant: work is proportional to NEW
                    // history only — zero when the log did not grow.
                    let cache = bat.prefix_cache(0).expect("domain 0");
                    let new_epochs = bundle
                        .checkpoints
                        .iter()
                        .filter(|cp| {
                            prev_verified.is_none_or(|v| cp.body.size > v)
                        })
                        .count() as u64;
                    prop_assert!(
                        cache.signatures_verified() - sigs_before <= new_epochs,
                        "signature verifications charged below the verified prefix"
                    );
                    prop_assert!(
                        cache.consistency_verified() - cons_before <= new_epochs,
                        "consistency verifications charged below the verified prefix"
                    );
                    if new_epochs == 0 {
                        prop_assert_eq!(cache.signatures_verified(), sigs_before);
                        prop_assert_eq!(cache.consistency_verified(), cons_before);
                    }
                }

                // Final, possibly tampered audit: acceptance must agree
                // between the two paths.
                let verified = bat.latest(0).map(|cp| cp.body.size).unwrap_or(0);
                let mut bundle = domain.bundle_for(verified);
                tamper(&mut bundle, tamper_mode, &domain);
                let batched_ok = bat.observe_bundle(0, &bundle).is_consistent();
                let sequential_ok = feed_sequential(&mut seq, &bundle);
                prop_assert_eq!(batched_ok, sequential_ok);
            }
        }
    }

    #[test]
    fn prefix_cache_tracks_monotonic_progress() {
        let mut cache = VerifiedPrefixCache::new();
        assert_eq!(cache.verified_size(), None);
        assert!(!cache.covers(0));
        cache.record(0, [0; 32]);
        assert!(cache.covers(0));
        cache.record(5, [1; 32]);
        assert_eq!(cache.verified_size(), Some(5));
        assert!(cache.covers(3));
        assert!(!cache.covers(6));
        // Never moves backwards.
        cache.record(2, [9; 32]);
        assert_eq!(cache.verified_size(), Some(5));
        assert_eq!(cache.verified_head(), Some(&[1; 32]));
    }
}
