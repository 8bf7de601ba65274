//! Sharded append-only log with a top-level shard-head commitment.
//!
//! A single [`MerkleLog`] serializes every app's updates through one tree,
//! and checkpointing cost grows with total history. CT-style designs (the
//! paper's §4.2 lineage) scale writes by committing to many sub-logs under
//! one verifiable head: a [`ShardedLog`] keeps `N` independent Merkle
//! shards — appends routed by app id (or any key; the router is a plain
//! hash, so key-range splits slot in without changing the commitment) —
//! and a **top-level commitment tree** over the shard heads. A checkpoint
//! signs `(epoch_size, shard_heads_root)` and a per-shard inclusion proof
//! ([`ShardedLog::prove_shard_head`]) ties any shard head to the signed
//! commitment.
//!
//! **Wire compatibility** is a design invariant, not an accident: a
//! 1-shard commitment **is** the shard's Merkle root, byte for byte, so
//! a 1-shard [`ShardedLog`] produces byte-identical checkpoints,
//! consistency proofs, and audit bundles to the legacy single-tree path
//! — old auditors accept new 1-shard checkpoints and vice versa
//! (property-tested in `tests/sharded_log.rs`). A *multi*-shard
//! commitment is the Merkle root over domain-separated
//! [`shard_head_leaf`] digests (`H(0x02 ‖ size ‖ head)` — a prefix RFC
//! 6962 hashing can never produce), so the signed head binds exactly one
//! shard decomposition: no internal split of a single tree, and no
//! re-labelled sibling decomposition, hashes to the same commitment.
//!
//! For multi-shard logs the top-level root is *not* append-only (a shard
//! append rewrites interior heads), so epoch-to-epoch consistency is
//! proven per shard: a [`ShardBundle`] carries full per-epoch shard
//! snapshots plus a [`ShardProofBundle`] — one consistency run per shard,
//! all runs sharing one deduplicated node pool (the sharded analogue of
//! [`crate::batch::ProofBundle`]). Verifiers recompute each epoch's
//! commitment from its snapshot and walk every shard's run, tracking a
//! verified prefix per shard ([`crate::batch::VerifiedPrefixCache`]).
//!
//! Shards guard their trees with independent locks, so appends to
//! different shards proceed in parallel — the `sharded_append` bench
//! measures the scaling.

use crate::batch::BundleStep;
use crate::checkpoint::SignedCheckpoint;
use crate::merkle::{
    prove_inclusion_over_hashes, root_over_hashes, CompactRoot, ConsistencyProof, InclusionProof,
    MerkleLog,
};
use crate::store::{open_store, LogStore, MetaRecord, NullStore, StorageConfig, StoreError};
use distrust_crypto::sha256::Digest;
use distrust_wire::codec::{decode_seq, encode_seq, Decode, DecodeError, Encode};
use distrust_wire::sync::HealthyMutex;
use std::collections::HashMap;
use std::sync::{Arc, MutexGuard};

/// Domain-separated hash of one shard's `(size, head)` — the leaf of the
/// top-level commitment tree for multi-shard logs. The `0x02` prefix can
/// never collide with RFC 6962 hashing (leaves are `0x00`, interior nodes
/// `0x01`), and binding the size makes the committed decomposition
/// unique: without both, any internal split of a *single* tree would hash
/// to the same commitment as a genuine multi-shard snapshot (a shard head
/// IS a subtree root), letting a compromised domain re-present a legacy
/// checkpoint with a fabricated decomposition and hijack the per-shard
/// baselines an auditor adopts on re-link.
pub fn shard_head_leaf(size: u64, head: &Digest) -> Digest {
    distrust_crypto::sha256_many(&[&[0x02], &size.to_le_bytes(), head])
}

/// A point-in-time view of every shard: per-shard sizes and heads, in
/// shard order. This is what one signed checkpoint commits to.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Leaves per shard.
    pub sizes: Vec<u64>,
    /// Merkle root per shard (the empty-tree root for empty shards).
    pub heads: Vec<Digest>,
}

impl ShardSnapshot {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.sizes.len()
    }

    /// Total leaves across all shards — the `size` a checkpoint signs.
    pub fn total(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// The top-level commitment — the `head` a checkpoint signs. For one
    /// shard this is that shard's root, byte for byte (the wire
    /// compatibility invariant); for more it is the Merkle root over the
    /// domain-separated [`shard_head_leaf`] digests, so exactly one
    /// `(sizes, heads)` decomposition can produce a given commitment.
    pub fn commitment(&self) -> Digest {
        match self.heads.len() {
            1 => self.heads[0],
            _ => root_over_hashes(&self.commitment_leaves()),
        }
    }

    /// The top-level tree's leaf digests (multi-shard form).
    fn commitment_leaves(&self) -> Vec<Digest> {
        self.sizes
            .iter()
            .zip(&self.heads)
            .map(|(&size, head)| shard_head_leaf(size, head))
            .collect()
    }

    /// Inclusion proof tying shard `shard`'s `(size, head)` to this
    /// snapshot's commitment; verify with [`ShardSnapshot::verify_head`].
    pub fn prove_head(&self, shard: usize) -> Option<InclusionProof> {
        if self.heads.len() == 1 {
            prove_inclusion_over_hashes(&self.heads, shard)
        } else {
            prove_inclusion_over_hashes(&self.commitment_leaves(), shard)
        }
    }

    /// Verifies an inclusion proof from [`ShardSnapshot::prove_head`]:
    /// shard `(size, head)` is committed by `commitment` in a tree of
    /// `shard_count` shards.
    pub fn verify_head(
        shard_count: usize,
        size: u64,
        head: &Digest,
        proof: &InclusionProof,
        commitment: &Digest,
    ) -> bool {
        if shard_count == 1 {
            proof.verify_hash(head, commitment)
        } else {
            proof.verify_hash(&shard_head_leaf(size, head), commitment)
        }
    }
}

impl Encode for ShardSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.sizes, out);
        encode_seq(&self.heads, out);
    }
}

impl Decode for ShardSnapshot {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let sizes: Vec<u64> = decode_seq(input)?;
        let heads: Vec<Digest> = decode_seq(input)?;
        if sizes.len() != heads.len() {
            return Err(DecodeError::Invalid("shard snapshot sizes/heads mismatch"));
        }
        Ok(Self { sizes, heads })
    }
}

/// One audit epoch of a sharded log: the signed top-level checkpoint plus
/// the shard snapshot it commits to. [`ShardEpoch::well_formed`] checks
/// the binding; a served epoch failing it is a malformed bundle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEpoch {
    /// The signed `(log_id, total_size, commitment, time)` checkpoint.
    pub checkpoint: SignedCheckpoint,
    /// The per-shard decomposition the checkpoint commits to.
    pub shards: ShardSnapshot,
}

impl ShardEpoch {
    /// True when the snapshot actually produces the signed `(size, head)`.
    pub fn well_formed(&self) -> bool {
        self.checkpoint.body.size == self.shards.total()
            && self.checkpoint.body.head == self.shards.commitment()
    }
}

impl Encode for ShardEpoch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.checkpoint.encode(out);
        self.shards.encode(out);
    }
}

impl Decode for ShardEpoch {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            checkpoint: Decode::decode(input)?,
            shards: Decode::decode(input)?,
        })
    }
}

/// One shard's consistency run: the steps linking that shard's sizes
/// across the bundle's epochs, path entries indexing into the bundle's
/// shared node pool.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardRun {
    /// Consistency steps in transition order (old → new sizes ascending).
    pub steps: Vec<BundleStep>,
}

impl Encode for ShardRun {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.steps, out);
    }
}

impl Decode for ShardRun {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            steps: decode_seq(input)?,
        })
    }
}

/// Per-shard consistency runs sharing one deduplicated node pool — the
/// sharded analogue of [`crate::batch::ProofBundle`]. Adjacent steps of
/// one shard overlap exactly as in the single-tree case, and sibling
/// shards growing in lockstep share right-edge subtrees too, so one pool
/// across all runs is strictly smaller than independent proofs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardProofBundle {
    /// Deduplicated proof nodes referenced by every run.
    pub nodes: Vec<Digest>,
    /// One run per shard, shard-ordered.
    pub runs: Vec<ShardRun>,
}

impl Encode for ShardProofBundle {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.nodes, out);
        encode_seq(&self.runs, out);
    }
}

impl Decode for ShardProofBundle {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            nodes: decode_seq(input)?,
            runs: decode_seq(input)?,
        })
    }
}

impl ShardProofBundle {
    /// Expands step `i` of shard `shard` into a standalone proof. `None`
    /// for out-of-range indices or steps referencing nodes outside the
    /// pool (a malformed bundle).
    pub fn step(&self, shard: usize, i: usize) -> Option<ConsistencyProof> {
        let step = self.runs.get(shard)?.steps.get(i)?;
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
}

/// The sharded wire-facing audit object: epochs (ascending total size,
/// last freshest) plus the per-shard proof runs linking them — and, when
/// the verifier reported a prior verified epoch, linking that epoch's
/// shard states to the first included one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardBundle {
    /// Epochs in ascending total-size order.
    pub epochs: Vec<ShardEpoch>,
    /// Per-shard consistency runs covering every included transition.
    pub proof: ShardProofBundle,
}

impl Encode for ShardBundle {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.epochs, out);
        self.proof.encode(out);
    }
}

impl Decode for ShardBundle {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            epochs: decode_seq(input)?,
            proof: Decode::decode(input)?,
        })
    }
}

/// An append-only log split into `N` independently locked Merkle shards
/// under one top-level commitment. See the module docs for the design and
/// the 1-shard compatibility invariant.
pub struct ShardedLog {
    shards: Vec<HealthyMutex<MerkleLog>>,
    store: Arc<dyn LogStore>,
}

impl ShardedLog {
    /// Creates an ephemeral log with `shards` empty shards (at least 1) —
    /// today's in-memory behavior, the default for tests.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded log needs at least one shard");
        Self {
            shards: (0..shards)
                .map(|_| HealthyMutex::new(MerkleLog::new()))
                .collect(),
            store: Arc::new(NullStore),
        }
    }

    /// Opens a log over the configured storage, recovering any persisted
    /// history. Returns the log plus the recovered framework meta records
    /// (signed checkpoints etc. — opaque to this layer).
    pub fn open(
        shards: usize,
        storage: &StorageConfig,
    ) -> Result<(Self, Vec<MetaRecord>), StoreError> {
        Self::with_store(shards, open_store(storage, shards)?)
    }

    /// Opens a log over an explicit store (injection point for tests that
    /// simulate restarts with a shared [`crate::store::MemStore`]).
    ///
    /// Runs the store's full recovery: every persisted leaf is replayed
    /// into the in-memory trees, and every recovered segment checkpoint is
    /// cross-checked against the replayed tree — a checkpoint that does
    /// not reproduce its own subtree roots means the store lied, and the
    /// open fails rather than serve a divergent history.
    pub fn with_store(
        shards: usize,
        store: Arc<dyn LogStore>,
    ) -> Result<(Self, Vec<MetaRecord>), StoreError> {
        assert!(shards >= 1, "a sharded log needs at least one shard");
        let recovered = store.recover()?;
        if recovered.shards.len() > shards {
            return Err(StoreError::ShardCountMismatch {
                store: recovered.shards.len(),
                configured: shards,
            });
        }
        let mut trees = Vec::with_capacity(shards);
        for shard in &recovered.shards {
            let mut tree = MerkleLog::new();
            for leaf in &shard.leaves {
                tree.append(leaf);
            }
            if let Some((size, edge)) = &shard.checkpoint {
                let seeded = CompactRoot::from_right_edge(*size, edge)
                    .ok_or(StoreError::Corrupt("recovered checkpoint edge shape"))?;
                if *size > tree.len() as u64 || seeded.root() != tree.root_of_prefix(*size as usize)
                {
                    return Err(StoreError::Corrupt("recovered checkpoint root mismatch"));
                }
            }
            trees.push(HealthyMutex::new(tree));
        }
        while trees.len() < shards {
            trees.push(HealthyMutex::new(MerkleLog::new()));
        }
        Ok((
            Self {
                shards: trees,
                store,
            },
            recovered.meta,
        ))
    }

    /// Forces all pending appends to durable storage. Checkpoint signing
    /// calls this first: a signed head must never outrun durable history,
    /// or an honest crash would look like equivocation.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.store.sync()
    }

    /// Appends a record to the framework meta log (signed checkpoints and
    /// notices — opaque bytes to this layer), durably.
    pub fn append_meta(&self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        self.store.append_meta(kind, payload)
    }

    /// Number of shards (fixed for the log's lifetime — resharding would
    /// invalidate signed commitments).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Routes a key (an app id, in the framework) to its shard. Stable
    /// across processes: the route is derived from the key's hash, never
    /// from insertion order.
    pub fn shard_for(&self, key: &[u8]) -> u32 {
        let digest = distrust_crypto::sha256_many(&[b"distrust/shard-route/v1", key]);
        let x = u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"));
        (x % self.shards.len() as u64) as u32
    }

    /// Appends a leaf to one shard, returning its index *within that
    /// shard*. Appends to different shards run in parallel.
    ///
    /// Write-ahead order: the leaf reaches the store *before* the
    /// in-memory tree under the shard lock, so no acknowledged entry can
    /// be lost to a crash that the store survived. When the store signals
    /// a full segment, the shard's right-edge subtree roots are sealed in
    /// as a checkpoint (the O(segments) cold-start seed) and the segment
    /// rotates.
    pub fn append(&self, shard: u32, data: &[u8]) -> Result<u64, StoreError> {
        let mut guard = self
            .shards
            .get(shard as usize)
            .ok_or(StoreError::NoSuchShard(shard))?
            .lock_healthy();
        let index = guard.len() as u64;
        let ack = self.store.append(shard, index, data)?;
        guard.append(data);
        if ack.wants_checkpoint {
            self.store
                .checkpoint(shard, guard.len() as u64, &guard.right_edge())?;
        }
        Ok(index)
    }

    /// Routes by key, then appends; returns `(shard, index_in_shard)`.
    pub fn append_routed(&self, key: &[u8], data: &[u8]) -> Result<(u32, u64), StoreError> {
        let shard = self.shard_for(key);
        let index = self.append(shard, data)?;
        Ok((shard, index))
    }

    /// Leaves in one shard.
    pub fn shard_len(&self, shard: u32) -> Option<u64> {
        Some(self.shards.get(shard as usize)?.lock_healthy().len() as u64)
    }

    /// Total leaves across all shards.
    pub fn total_len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock_healthy().len() as u64)
            .sum()
    }

    /// Locks one shard for direct reads (proof generation on the legacy
    /// 1-shard serving path). Hold briefly; appends to the shard block
    /// while the guard lives.
    pub fn lock_shard(&self, shard: usize) -> MutexGuard<'_, MerkleLog> {
        self.shards[shard].lock_healthy()
    }

    /// A coherent point-in-time snapshot of every shard. Locks shards in
    /// order; appends racing the snapshot land either wholly before or
    /// wholly after it per shard.
    pub fn snapshot(&self) -> ShardSnapshot {
        let guards: Vec<MutexGuard<'_, MerkleLog>> =
            self.shards.iter().map(|s| s.lock_healthy()).collect();
        ShardSnapshot {
            sizes: guards.iter().map(|g| g.len() as u64).collect(),
            heads: guards.iter().map(|g| g.root()).collect(),
        }
    }

    /// The current top-level commitment (the `head` a checkpoint signs).
    pub fn commitment(&self) -> Digest {
        self.snapshot().commitment()
    }

    /// Inclusion proof tying `shard`'s current `(size, head)` to the
    /// current commitment. Verify with [`ShardSnapshot::verify_head`].
    pub fn prove_shard_head(&self, shard: u32) -> Option<(u64, Digest, InclusionProof)> {
        let snapshot = self.snapshot();
        let size = *snapshot.sizes.get(shard as usize)?;
        let head = *snapshot.heads.get(shard as usize)?;
        let proof = snapshot.prove_head(shard as usize)?;
        Some((size, head, proof))
    }

    /// Consistency proof between two historical sizes of one shard.
    pub fn prove_shard_consistency(
        &self,
        shard: u32,
        old_size: u64,
        new_size: u64,
    ) -> Option<ConsistencyProof> {
        self.shards
            .get(shard as usize)?
            .lock_healthy()
            .prove_consistency(old_size as usize, new_size as usize)
    }

    /// The leaf data at `(shard, index)`.
    pub fn leaf(&self, shard: u32, index: u64) -> Option<Vec<u8>> {
        self.shards
            .get(shard as usize)?
            .lock_healthy()
            .leaf(index as usize)
            .map(|l| l.to_vec())
    }

    /// Leaves `[from, len)` of one shard. Served index-free via the
    /// tree's suffix borrow — out-of-range `from` is `None`, never a
    /// panic in the serving path.
    pub fn entries_from(&self, shard: u32, from: u64) -> Option<Vec<Vec<u8>>> {
        let guard = self.shards.get(shard as usize)?.lock_healthy();
        let suffix = guard.leaves_from(usize::try_from(from).ok()?)?;
        Some(suffix.map(<[u8]>::to_vec).collect())
    }

    /// All leaves from global offset `from`, shards concatenated in shard
    /// order. For one shard this is exactly the legacy `GetLogEntries`
    /// semantics; for many it is the canonical flattening the wire
    /// protocol documents. Only the leaves at or past `from` are copied —
    /// an incremental poll near the head costs O(returned), not O(log).
    pub fn all_entries_from(&self, from: u64) -> Option<Vec<Vec<u8>>> {
        let mut skip = usize::try_from(from).ok()?;
        let mut all = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock_healthy();
            match guard.leaves_from(skip) {
                Some(suffix) => {
                    all.extend(suffix.map(<[u8]>::to_vec));
                    skip = 0;
                }
                None => skip -= guard.len(),
            };
        }
        if skip > 0 {
            return None; // `from` beyond the total length
        }
        Some(all)
    }

    /// Builds the per-shard proof runs linking `baseline` (the verifier's
    /// per-shard verified sizes; zeros for a fresh verifier) through each
    /// epoch snapshot in `epochs`, deduplicating all shared nodes into one
    /// pool. `None` when any run is unprovable (a size above the current
    /// shard, or a decreasing transition — caller bugs, not peer input).
    pub fn prove_shard_runs(
        &self,
        baseline: &[u64],
        epochs: &[&ShardSnapshot],
    ) -> Option<ShardProofBundle> {
        let n = self.shards.len();
        if baseline.len() != n || epochs.iter().any(|e| e.sizes.len() != n) {
            return None;
        }
        let mut nodes: Vec<Digest> = Vec::new();
        let mut index: HashMap<Digest, u32> = HashMap::new();
        let mut pool = |d: &Digest| -> u32 {
            *index.entry(*d).or_insert_with(|| {
                nodes.push(*d);
                (nodes.len() - 1) as u32
            })
        };
        let mut runs = Vec::with_capacity(n);
        for (s, (shard, &base)) in self.shards.iter().zip(baseline).enumerate() {
            let mut steps = Vec::new();
            let mut prev = base;
            let guard = shard.lock_healthy();
            for epoch in epochs {
                let next = epoch.sizes[s];
                if next < prev {
                    return None;
                }
                if next > prev && prev > 0 {
                    let proof = guard.prove_consistency(prev as usize, next as usize)?;
                    steps.push(BundleStep {
                        old_size: proof.old_size,
                        new_size: proof.new_size,
                        path: proof.path.iter().map(&mut pool).collect(),
                    });
                }
                prev = next;
            }
            runs.push(ShardRun { steps });
        }
        Some(ShardProofBundle { nodes, runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(shards: usize, leaves_per_shard: usize) -> ShardedLog {
        let log = ShardedLog::new(shards);
        for s in 0..shards as u32 {
            for i in 0..leaves_per_shard {
                log.append(s, format!("shard-{s}-leaf-{i}").as_bytes())
                    .unwrap();
            }
        }
        log
    }

    #[test]
    fn one_shard_commitment_is_the_merkle_root() {
        // The compatibility invariant: a 1-shard log's commitment equals
        // the plain MerkleLog root, byte for byte, at every size.
        let sharded = ShardedLog::new(1);
        let mut plain = MerkleLog::new();
        assert_eq!(sharded.commitment(), plain.root());
        for i in 0..9 {
            let leaf = format!("leaf-{i}");
            sharded.append(0, leaf.as_bytes()).unwrap();
            plain.append(leaf.as_bytes());
            assert_eq!(sharded.commitment(), plain.root(), "size {}", i + 1);
            assert_eq!(sharded.total_len(), plain.len() as u64);
        }
        // Consistency proofs agree too.
        assert_eq!(
            sharded.prove_shard_consistency(0, 3, 9),
            plain.prove_consistency(3, 9)
        );
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let log = ShardedLog::new(4);
        for key in [b"analytics".as_slice(), b"key-backup", b"signer", b""] {
            let s = log.shard_for(key);
            assert!((s as usize) < 4);
            assert_eq!(s, log.shard_for(key), "route must be deterministic");
        }
        // A 1-shard log routes everything to shard 0.
        let one = ShardedLog::new(1);
        assert_eq!(one.shard_for(b"anything"), 0);
    }

    #[test]
    fn shard_heads_tie_to_commitment() {
        let log = filled(5, 3);
        let commitment = log.commitment();
        for s in 0..5u32 {
            let (size, head, proof) = log.prove_shard_head(s).unwrap();
            assert!(
                ShardSnapshot::verify_head(5, size, &head, &proof, &commitment),
                "shard {s}"
            );
            // A forged head or size does not verify.
            assert!(!ShardSnapshot::verify_head(
                5,
                size,
                &[0xee; 32],
                &proof,
                &commitment
            ));
            assert!(!ShardSnapshot::verify_head(
                5,
                size + 1,
                &head,
                &proof,
                &commitment
            ));
        }
        assert!(log.prove_shard_head(5).is_none());
        // The 1-shard proof degenerates to "the head is the commitment".
        let one = filled(1, 3);
        let (size, head, proof) = one.prove_shard_head(0).unwrap();
        assert_eq!(head, one.commitment());
        assert!(ShardSnapshot::verify_head(
            1,
            size,
            &head,
            &proof,
            &one.commitment()
        ));
    }

    #[test]
    fn commitment_is_domain_separated_from_tree_internals() {
        // A shard head IS a subtree root, so without domain separation a
        // single tree's root would double as a 2-shard commitment over
        // its own left/right subtree roots — letting a compromised domain
        // re-present a legacy signed checkpoint with a fabricated
        // decomposition. The 0x02-prefixed, size-binding leaves make
        // every such reinterpretation hash differently.
        let mut plain = MerkleLog::new();
        for i in 0..12 {
            plain.append(format!("leaf-{i}").as_bytes());
        }
        // The internal split of a 12-leaf RFC 6962 tree is [0..8) | [8..12).
        let fabricated = ShardSnapshot {
            sizes: vec![8, 4],
            heads: vec![plain.root_of_prefix(8), {
                // Root of the right subtree [8..12).
                let mut right = MerkleLog::new();
                for i in 8..12 {
                    right.append(format!("leaf-{i}").as_bytes());
                }
                right.root()
            }],
        };
        // Sanity: the raw (unseparated) fold over those heads WOULD
        // collide with the single-tree root — the attack this test pins.
        assert_eq!(root_over_hashes(&fabricated.heads), plain.root());
        // The real commitment does not.
        assert_ne!(fabricated.commitment(), plain.root());
        // And two decompositions differing only in size split do not
        // share a commitment even when heads coincide.
        let a = ShardSnapshot {
            sizes: vec![1, 2],
            heads: vec![[7; 32], [9; 32]],
        };
        let b = ShardSnapshot {
            sizes: vec![2, 1],
            heads: vec![[7; 32], [9; 32]],
        };
        assert_ne!(a.commitment(), b.commitment());
    }

    #[test]
    fn commitment_changes_with_any_shard() {
        let log = filled(4, 2);
        let before = log.commitment();
        log.append(3, b"new").unwrap();
        assert_ne!(log.commitment(), before);
    }

    #[test]
    fn snapshot_is_coherent() {
        let log = filled(3, 4);
        let snap = log.snapshot();
        assert_eq!(snap.total(), 12);
        assert_eq!(snap.commitment(), log.commitment());
        assert_eq!(snap.sizes, vec![4, 4, 4]);
        for (s, head) in snap.heads.iter().enumerate() {
            assert_eq!(*head, log.lock_shard(s).root());
        }
    }

    #[test]
    fn entries_concatenate_in_shard_order() {
        let log = ShardedLog::new(2);
        log.append(0, b"a0").unwrap();
        log.append(1, b"b0").unwrap();
        log.append(0, b"a1").unwrap();
        assert_eq!(
            log.all_entries_from(0).unwrap(),
            vec![b"a0".to_vec(), b"a1".to_vec(), b"b0".to_vec()]
        );
        assert_eq!(log.all_entries_from(2).unwrap(), vec![b"b0".to_vec()]);
        assert!(log.all_entries_from(4).is_none());
        assert_eq!(log.entries_from(1, 0).unwrap(), vec![b"b0".to_vec()]);
    }

    #[test]
    fn shard_runs_expand_to_valid_proofs() {
        let log = ShardedLog::new(3);
        // Epoch A.
        log.append(0, b"a0").unwrap();
        log.append(1, b"b0").unwrap();
        let epoch_a = log.snapshot();
        // Epoch B: shards 0 and 2 grow, shard 1 is untouched.
        log.append(0, b"a1").unwrap();
        log.append(2, b"c0").unwrap();
        let epoch_b = log.snapshot();

        let bundle = log
            .prove_shard_runs(&[0, 0, 0], &[&epoch_a, &epoch_b])
            .unwrap();
        // Shard 0: one provable transition (1 → 2); the 0 → 1 growth is
        // vacuous. Shard 1 and 2: no provable transitions at all.
        assert_eq!(bundle.runs.len(), 3);
        assert_eq!(bundle.runs[0].steps.len(), 1);
        assert!(bundle.runs[1].steps.is_empty());
        assert!(bundle.runs[2].steps.is_empty());
        let proof = bundle.step(0, 0).unwrap();
        assert_eq!((proof.old_size, proof.new_size), (1, 2));
        assert!(proof.verify(&epoch_a.heads[0], &epoch_b.heads[0]));
    }

    #[test]
    fn shard_runs_share_one_pool() {
        // Two shards growing in lockstep over many epochs: pooled nodes
        // must be fewer than the raw per-proof node total.
        let log = ShardedLog::new(2);
        for s in 0..2u32 {
            for i in 0..32 {
                log.append(s, format!("{s}-{i}").as_bytes()).unwrap();
            }
        }
        let mut snaps = Vec::new();
        for i in 32..40 {
            for s in 0..2u32 {
                log.append(s, format!("{s}-{i}").as_bytes()).unwrap();
            }
            snaps.push(log.snapshot());
        }
        let refs: Vec<&ShardSnapshot> = snaps.iter().collect();
        let bundle = log.prove_shard_runs(&[32, 32], &refs).unwrap();
        let raw: usize = bundle
            .runs
            .iter()
            .map(|r| r.steps.iter().map(|s| s.path.len()).sum::<usize>())
            .sum();
        assert!(
            bundle.nodes.len() < raw,
            "pool {} should be smaller than {raw} raw path nodes",
            bundle.nodes.len()
        );
    }

    #[test]
    fn wire_round_trips() {
        let log = filled(2, 3);
        let snap = log.snapshot();
        assert_eq!(ShardSnapshot::from_wire(&snap.to_wire()), Ok(snap.clone()));
        let bundle = log.prove_shard_runs(&[1, 1], &[&snap]).unwrap();
        assert_eq!(ShardProofBundle::from_wire(&bundle.to_wire()), Ok(bundle));
        // A snapshot whose sizes/heads lengths disagree must not decode.
        let mut bad = Vec::new();
        encode_seq(&[1u64, 2], &mut bad);
        encode_seq(&[[0u8; 32]], &mut bad);
        assert!(ShardSnapshot::from_wire(&bad).is_err());
    }

    #[test]
    fn malformed_run_indices_do_not_expand() {
        let log = filled(1, 4);
        let snap_old = {
            let log2 = filled(1, 2);
            log2.snapshot()
        };
        let snap = log.snapshot();
        let mut bundle = log.prove_shard_runs(&[2], &[&snap]).unwrap();
        let _ = snap_old;
        bundle.runs[0].steps[0].path[0] = 999;
        assert!(bundle.step(0, 0).is_none());
        assert!(bundle.step(1, 0).is_none());
    }

    #[test]
    fn parallel_appends_agree_with_serial() {
        // N threads appending to their own shards concurrently must yield
        // the same commitment as the same appends applied serially.
        let shards = 4usize;
        let per = 200usize;
        let concurrent = std::sync::Arc::new(ShardedLog::new(shards));
        let mut handles = Vec::new();
        for s in 0..shards as u32 {
            let log = std::sync::Arc::clone(&concurrent);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    log.append(s, format!("shard-{s}-leaf-{i}").as_bytes())
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let serial = filled(shards, per);
        assert_eq!(concurrent.commitment(), serial.commitment());
        assert_eq!(concurrent.total_len(), (shards * per) as u64);
    }
}
