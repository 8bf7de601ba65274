//! A trust domain's log: one [`MerkleLog`], over one [`DurableStore`]
//! chain when the log is durable.
//!
//! The tree lives in memory for proof generation; every leaf reaches the
//! store first (write-ahead), so a restart replays the identical tree and
//! a checkpoint — which signs `(len, root)` — never describes history the
//! store could lose.
//!
//! The type keeps the name [`ShardedLog`], and three of its methods an
//! argument each, from when a log could be several trees: the repository's
//! benchmark (`e2e/`) names them. Each accepts the one value every caller
//! has ever passed and refuses any other by name.

use crate::merkle::{CompactRoot, MerkleLog};
use crate::store::{DurableStore, MetaRecord, StorageConfig, StoreError};
use distrust_crypto::sha256::Digest;
use distrust_wire::sync::HealthyMutex;
use std::sync::MutexGuard;

/// An append-only Merkle log with its durable store underneath. See the
/// module docs.
pub struct ShardedLog {
    tree: HealthyMutex<MerkleLog>,
    /// `None` for [`StorageConfig::Ephemeral`]: nothing persists.
    store: Option<DurableStore>,
}

impl ShardedLog {
    /// An empty in-memory log (nothing persists) — the default for tests
    /// and ephemeral domains.
    ///
    /// `shards` must be 1; the parameter exists until `e2e` stops naming it.
    pub fn new(shards: usize) -> Self {
        assert_eq!(shards, 1, "a log is one tree");
        Self {
            tree: HealthyMutex::new(MerkleLog::new()),
            store: None,
        }
    }

    /// Opens a log over the configured storage, recovering any persisted
    /// history. Returns the log plus the recovered framework meta records
    /// (signed checkpoints etc. — opaque to this layer).
    ///
    /// A durable log opens its [`DurableStore`], which runs the full
    /// recovery: every persisted leaf is replayed into the in-memory tree,
    /// and the recovered segment checkpoint is cross-checked against the
    /// replayed tree — a checkpoint that does not reproduce its own subtree
    /// roots means the store lied, and the open fails rather than serve a
    /// divergent history.
    ///
    /// `shards` must be 1 ([`StoreError::ShardCountMismatch`] otherwise);
    /// the parameter exists until `e2e` stops naming it.
    pub fn open(
        shards: usize,
        storage: &StorageConfig,
    ) -> Result<(Self, Vec<MetaRecord>), StoreError> {
        if shards != 1 {
            return Err(StoreError::ShardCountMismatch {
                store: 1,
                configured: shards,
            });
        }
        let StorageConfig::Durable(opts) = storage else {
            return Ok((Self::new(1), Vec::new()));
        };
        let (store, recovered) = DurableStore::open(opts.clone())?;
        let mut tree = MerkleLog::new();
        let bytes = recovered.leaves.iter().map(Vec::len).sum();
        // lint:allow(taint-alloc): sized from the leaves recovery has already read into memory, so it reserves at most what they take
        tree.reserve_exact(recovered.leaves.len(), bytes);
        for leaf in &recovered.leaves {
            tree.append(leaf);
        }
        if let Some((size, edge)) = &recovered.checkpoint {
            let seeded = CompactRoot::from_right_edge(*size, edge)
                .ok_or(StoreError::Corrupt("recovered checkpoint edge shape"))?;
            if *size > tree.len() as u64 || seeded.root() != tree.root_of_prefix(*size as usize) {
                return Err(StoreError::Corrupt("recovered checkpoint root mismatch"));
            }
        }
        let log = Self {
            tree: HealthyMutex::new(tree),
            store: Some(store),
        };
        Ok((log, recovered.meta))
    }

    /// Appends a record to the framework meta log (signed checkpoints and
    /// notices — opaque bytes to this layer), durably.
    pub fn append_meta(&self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        match &self.store {
            Some(store) => store.append_meta(kind, payload),
            None => Ok(()),
        }
    }

    /// Appends a leaf, returning its index.
    ///
    /// Write-ahead order: the leaf reaches the store *before* the
    /// in-memory tree under the lock, so no acknowledged entry can be lost
    /// to a crash that the store survived. When the store signals a full
    /// segment, the tree's right-edge subtree roots are sealed in as a
    /// checkpoint (the value the next boot holds its replayed tree against)
    /// and the segment rotates. A failed rotation does not fail the append:
    /// the leaf is already committed, and a caller that retried would log
    /// it twice. The segment stays full, so the next append rotates again,
    /// or is refused by name ([`StoreError::UnrepairedWrite`]) when the
    /// failed write could not be cut away.
    ///
    /// `shard` must be 0 ([`StoreError::NoSuchShard`] otherwise); the
    /// parameter exists until `e2e` stops naming it.
    pub fn append(&self, shard: u32, data: &[u8]) -> Result<u64, StoreError> {
        if shard != 0 {
            return Err(StoreError::NoSuchShard(shard));
        }
        let mut tree = self.tree.lock_healthy();
        let index = tree.len() as u64;
        let Some(store) = &self.store else {
            tree.append(data);
            return Ok(index);
        };
        let ack = store.append(index, data)?;
        tree.append(data);
        if ack.wants_checkpoint {
            // The leaf is committed; a failed rotation is the next append's.
            let _ = store.checkpoint(tree.len() as u64, &tree.right_edge());
        }
        Ok(index)
    }

    /// The `(size, root)` a checkpoint signs, read under one lock.
    pub fn head(&self) -> (u64, Digest) {
        let tree = self.tree.lock_healthy();
        (tree.len() as u64, tree.root())
    }

    /// Locks the tree for direct reads (proof generation). Hold briefly;
    /// appends block while the guard lives.
    pub fn lock(&self) -> MutexGuard<'_, MerkleLog> {
        self.tree.lock_healthy()
    }

    /// The leaves from index `from` on, as many as fit in `budget` bytes
    /// and at least one — `None` when `from` is past the end, never a
    /// panic in the serving path. Copies only what it returns.
    pub fn entries_from(&self, from: u64, budget: usize) -> Option<Vec<Vec<u8>>> {
        let tree = self.tree.lock_healthy();
        let page = tree.leaves_from(usize::try_from(from).ok()?, budget)?;
        Some(page.map(<[u8]>::to_vec).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DurableOptions;

    #[test]
    fn the_log_is_the_tree() {
        // What a checkpoint signs is the plain RFC 6962 root, at every
        // size, and proofs come from the tree itself.
        let log = ShardedLog::new(1);
        let mut plain = MerkleLog::new();
        assert_eq!(log.head(), (0, plain.root()));
        for i in 0..9u64 {
            let leaf = format!("leaf-{i}");
            assert_eq!(log.append(0, leaf.as_bytes()).unwrap(), i);
            plain.append(leaf.as_bytes());
            assert_eq!(log.head(), (i + 1, plain.root()));
        }
        assert_eq!(
            log.lock().prove_consistency(3, 9),
            plain.prove_consistency(3, 9)
        );
    }

    #[test]
    fn entries_are_paged_and_bounds_checked() {
        let log = ShardedLog::new(1);
        for leaf in [b"a0", b"a1", b"a2"] {
            log.append(0, leaf).unwrap();
        }
        let all = vec![b"a0".to_vec(), b"a1".to_vec(), b"a2".to_vec()];
        assert_eq!(log.entries_from(0, usize::MAX), Some(all.clone()));
        assert_eq!(log.entries_from(1, 2), Some(all[1..2].to_vec()));
        assert_eq!(log.entries_from(0, 4), Some(all[..2].to_vec()));
        assert_eq!(log.entries_from(3, 8), Some(vec![]));
        assert_eq!(log.entries_from(4, 8), None);
    }

    #[test]
    fn any_count_but_one_is_refused_by_name() {
        assert!(matches!(
            ShardedLog::open(4, &StorageConfig::Ephemeral),
            Err(StoreError::ShardCountMismatch {
                store: 1,
                configured: 4
            })
        ));
        assert!(ShardedLog::open(1, &StorageConfig::Ephemeral).is_ok());
        let log = ShardedLog::new(1);
        assert!(matches!(
            log.append(1, b"x"),
            Err(StoreError::NoSuchShard(1))
        ));
        assert_eq!(log.head().0, 0);
    }

    #[test]
    #[should_panic(expected = "a log is one tree")]
    fn a_second_tree_cannot_be_constructed() {
        let _ = ShardedLog::new(2);
    }

    /// Options for a durable log in a fresh directory; the caller removes
    /// it.
    fn durable(tag: &str, segment_bytes: u64) -> DurableOptions {
        let dir = std::env::temp_dir().join(format!(
            "distrust-log-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        DurableOptions { dir, segment_bytes }
    }

    #[test]
    fn an_ephemeral_log_recovers_nothing() {
        let (log, meta) = ShardedLog::open(1, &StorageConfig::Ephemeral).unwrap();
        assert!(meta.is_empty());
        log.append(0, b"leaf").unwrap();
        log.append_meta(1, b"meta").unwrap();
        drop(log);
        let (log, meta) = ShardedLog::open(1, &StorageConfig::Ephemeral).unwrap();
        assert_eq!(log.head().0, 0);
        assert!(meta.is_empty());
    }

    #[test]
    fn a_shared_store_replays_the_same_tree() {
        let opts = durable("replay", 4 << 20);
        let storage = StorageConfig::Durable(opts.clone());
        let (log, meta) = ShardedLog::open(1, &storage).unwrap();
        assert!(meta.is_empty());
        log.append(0, b"one").unwrap();
        log.append(0, b"two").unwrap();
        log.append_meta(7, b"signed").unwrap();
        let head = log.head();
        drop(log);
        let (log, meta) = ShardedLog::open(1, &storage).unwrap();
        assert_eq!(log.head(), head);
        assert_eq!(meta.len(), 1);
        assert_eq!(log.append(0, b"three").unwrap(), 2);
        let _ = std::fs::remove_dir_all(&opts.dir);
    }

    /// A rotation that fails after its leaf is durable and in the tree
    /// leaves the append acknowledged; the next append seals the segment,
    /// and a reopened log holds each leaf once.
    #[test]
    fn a_failed_rotation_does_not_fail_a_committed_append() {
        // Every append fills its segment.
        let opts = durable("failed-rotation", 1);
        let storage = StorageConfig::Durable(opts.clone());
        let (log, _) = ShardedLog::open(1, &storage).unwrap();
        DurableStore::fail_next_checkpoint();
        assert_eq!(log.append(0, b"zero").unwrap(), 0);
        assert_eq!(log.append(0, b"one").unwrap(), 1);
        let head = log.head();
        drop(log);
        let (_, recovered) = DurableStore::open(opts.clone()).unwrap();
        assert_eq!(recovered.leaves, [&b"zero"[..], b"one"]);
        assert!(!recovered.torn);
        // The second append sealed the segment the first could not.
        assert_eq!(recovered.checkpoint.map(|(size, _)| size), Some(2));
        let (log, _) = ShardedLog::open(1, &storage).unwrap();
        assert_eq!(log.head(), head);
        let _ = std::fs::remove_dir_all(&opts.dir);
    }
}
