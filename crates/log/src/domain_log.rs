//! A trust domain's log: one [`MerkleLog`] over one [`LogStore`] chain.
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
use crate::store::{open_store, LogStore, MetaRecord, NullStore, StorageConfig, StoreError};
use distrust_crypto::sha256::Digest;
use distrust_wire::sync::HealthyMutex;
use std::sync::{Arc, MutexGuard};

/// An append-only Merkle log with its durable store underneath. See the
/// module docs.
pub struct ShardedLog {
    tree: HealthyMutex<MerkleLog>,
    store: Arc<dyn LogStore>,
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
            store: Arc::new(NullStore),
        }
    }

    /// Opens a log over the configured storage, recovering any persisted
    /// history. Returns the log plus the recovered framework meta records
    /// (signed checkpoints etc. — opaque to this layer).
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
        Self::with_store(open_store(storage)?)
    }

    /// Opens a log over an explicit store (injection point for tests that
    /// simulate restarts with a shared [`crate::store::MemStore`]).
    ///
    /// Runs the store's full recovery: every persisted leaf is replayed
    /// into the in-memory tree, and the recovered segment checkpoint is
    /// cross-checked against the replayed tree — a checkpoint that does
    /// not reproduce its own subtree roots means the store lied, and the
    /// open fails rather than serve a divergent history.
    pub fn with_store(store: Arc<dyn LogStore>) -> Result<(Self, Vec<MetaRecord>), StoreError> {
        let recovered = store.recover()?;
        let mut tree = MerkleLog::new();
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
        Ok((
            Self {
                tree: HealthyMutex::new(tree),
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

    /// Appends a leaf, returning its index.
    ///
    /// Write-ahead order: the leaf reaches the store *before* the
    /// in-memory tree under the lock, so no acknowledged entry can be lost
    /// to a crash that the store survived. When the store signals a full
    /// segment, the tree's right-edge subtree roots are sealed in as a
    /// checkpoint (the value the next boot holds its replayed tree
    /// against) and the segment rotates.
    ///
    /// `shard` must be 0 ([`StoreError::NoSuchShard`] otherwise); the
    /// parameter exists until `e2e` stops naming it.
    pub fn append(&self, shard: u32, data: &[u8]) -> Result<u64, StoreError> {
        if shard != 0 {
            return Err(StoreError::NoSuchShard(shard));
        }
        let mut tree = self.tree.lock_healthy();
        let index = tree.len() as u64;
        let ack = self.store.append(index, data)?;
        tree.append(data);
        if ack.wants_checkpoint {
            self.store
                .checkpoint(tree.len() as u64, &tree.right_edge())?;
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
    use crate::store::MemStore;

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

    #[test]
    fn a_shared_store_replays_the_same_tree() {
        let store: Arc<dyn LogStore> = Arc::new(MemStore::new());
        let (log, meta) = ShardedLog::with_store(Arc::clone(&store)).unwrap();
        assert!(meta.is_empty());
        log.append(0, b"one").unwrap();
        log.append(0, b"two").unwrap();
        log.append_meta(7, b"signed").unwrap();
        let head = log.head();
        drop(log);
        let (log, meta) = ShardedLog::with_store(store).unwrap();
        assert_eq!(log.head(), head);
        assert_eq!(meta.len(), 1);
        assert_eq!(log.append(0, b"three").unwrap(), 2);
    }
}
