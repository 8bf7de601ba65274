//! Durable storage under the log layer.
//!
//! A [`crate::ShardedLog`] keeps its Merkle tree in memory for proof
//! generation, but every appended leaf also flows through a
//! [`LogStore`] *before* it is acknowledged into the tree — the
//! write-ahead discipline that makes a restart recoverable instead of a
//! silent history reset. Three implementations:
//!
//! * [`NullStore`] — no persistence, the default for an in-memory log
//!   (tests, benches, ephemeral domains);
//! * [`MemStore`] — retains appends in memory and can "recover" them,
//!   exercising the full recovery path without a filesystem;
//! * [`durable::DurableStore`] — one chain of append-only segment files
//!   with CRC-framed records, batched fsync, checkpointed subtree roots,
//!   and torn-tail repair (see `PERSISTENCE.md`).
//!
//! The store also carries a small **meta log** for the framework layer:
//! signed genesis/epoch checkpoints and update notices, persisted so a
//! restarted domain *reuses* its pre-crash signatures instead of
//! re-signing — re-signing the same size with a fresh logical time would
//! make an honest domain look like it equivocated against itself.

pub mod durable;
pub mod segment;

pub use durable::DurableStore;

use distrust_crypto::sha256::Digest;
use distrust_wire::sync::HealthyMutex;
use std::path::PathBuf;
use std::sync::Arc;

/// Errors from the storage layer (including recovery).
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// On-disk state is unusable in a way truncation cannot repair.
    Corrupt(&'static str),
    /// An append named a chain other than the log's one (index 0).
    NoSuchShard(u32),
    /// A log is one chain, and either the store holds more (a
    /// `shard-0001-*` segment, an epoch record of a multi-chain layout) or
    /// the caller configured more — opening it as one would silently drop
    /// committed history, so boot refuses.
    ShardCountMismatch {
        /// Chains found in the store.
        store: usize,
        /// Chains the log was configured with.
        configured: usize,
    },
    /// The caller's leaf index disagrees with the store's append position
    /// (a log/store divergence — a bug, surfaced instead of masked).
    IndexMismatch {
        /// Next index the store expects.
        expected: u64,
        /// Index the caller presented.
        got: u64,
    },
    /// A write failed and the bytes it may have left in the active
    /// segment could not be cut away, so the store takes no more writes:
    /// the next leaf would follow them, and a boot would read them as a
    /// torn tail and truncate that leaf with them. Reopening the store
    /// repairs the tail.
    UnrepairedWrite,
    /// Recovered signed checkpoints describe a longer log than the store
    /// recovered. Serving from the shorter log would equivocate against
    /// the domain's own signatures, so boot refuses instead.
    LostSignedHistory {
        /// Size the newest recovered signed checkpoint covers.
        signed: u64,
        /// Total leaves actually recovered.
        recovered: u64,
    },
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "storage i/o error: {e}"),
            Self::Corrupt(what) => write!(f, "storage corrupt: {what}"),
            Self::NoSuchShard(s) => write!(f, "no chain {s}: a log is one chain, index 0"),
            Self::ShardCountMismatch { store, configured } => write!(
                f,
                "store holds {store} chain(s) and the log is configured for {configured}; \
                 a log is exactly one"
            ),
            Self::IndexMismatch { expected, got } => {
                write!(f, "append at index {got}, store expects {expected}")
            }
            Self::UnrepairedWrite => f.write_str(
                "a failed write could not be cut from the active segment; \
                 the store takes no more writes until it is reopened",
            ),
            Self::LostSignedHistory { signed, recovered } => write!(
                f,
                "signed history covers {signed} entries but only {recovered} were recovered; \
                 refusing to serve a shorter log than this domain already signed"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Where a log keeps its durable state.
#[derive(Clone, Debug)]
pub enum StorageConfig {
    /// No persistence: a restart starts from an empty log (the pre-store
    /// behavior; fine for tests and throwaway deployments).
    Ephemeral,
    /// Append-only segment files under a directory.
    Durable(DurableOptions),
}

/// Tuning for [`DurableStore`].
#[derive(Clone, Debug)]
pub struct DurableOptions {
    /// Directory holding this log's segment and meta files (one log per
    /// directory).
    pub dir: PathBuf,
    /// Rotate (checkpoint + seal) a segment once it reaches this many
    /// bytes. Smaller segments mean more checkpoint records; the default
    /// is 4 MiB.
    pub segment_bytes: u64,
}

impl DurableOptions {
    /// Durable storage under `dir` with 4 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: 4 << 20,
        }
    }
}

/// Result of one store append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendAck {
    /// The active segment is full: the caller should call
    /// [`LogStore::checkpoint`] with the tree's current right edge so
    /// the store can seal and rotate. Advisory — ignoring it only delays
    /// rotation.
    pub wants_checkpoint: bool,
}

/// One record from the meta log (framework-defined kinds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaRecord {
    /// Caller-defined record kind.
    pub kind: u8,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

/// Everything a store recovered at open.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// Leaf contents in append order.
    pub leaves: Vec<Vec<u8>>,
    /// The newest persisted checkpoint at or below the recovered length:
    /// `(size, right_edge)`. Callers may cross-check the replayed tree
    /// against it.
    pub checkpoint: Option<(u64, Vec<Digest>)>,
    /// True when a torn or corrupt tail was discarded during recovery.
    pub torn: bool,
    /// Meta records in append order.
    pub meta: Vec<MetaRecord>,
}

/// The storage interface under [`crate::ShardedLog`]. All methods take
/// `&self`: stores are shared behind an `Arc` and synchronize internally.
pub trait LogStore: Send + Sync {
    /// Persists one leaf (write-ahead: called *before* the leaf enters
    /// the in-memory tree). `index` is the leaf's index in the log and
    /// must equal the store's append position.
    fn append(&self, index: u64, leaf: &[u8]) -> Result<AppendAck, StoreError>;

    /// Persists a checkpoint at `size` leaves with the tree's right-edge
    /// subtree roots, sealing and rotating the active segment.
    fn checkpoint(&self, size: u64, right_edge: &[Digest]) -> Result<(), StoreError>;

    /// Durability barrier: when this returns, every previously appended
    /// leaf and meta record survives a crash.
    fn sync(&self) -> Result<(), StoreError>;

    /// Appends one framework meta record (synced immediately — meta
    /// records are rare and carry signatures).
    fn append_meta(&self, kind: u8, payload: &[u8]) -> Result<(), StoreError>;

    /// Recovers persisted state, repairing torn tails. Called once, when
    /// the log opens, before any append.
    fn recover(&self) -> Result<Recovered, StoreError>;
}

/// Opens the store a [`StorageConfig`] describes.
pub fn open_store(config: &StorageConfig) -> Result<Arc<dyn LogStore>, StoreError> {
    match config {
        StorageConfig::Ephemeral => Ok(Arc::new(NullStore)),
        StorageConfig::Durable(opts) => Ok(Arc::new(DurableStore::open(opts.clone())?)),
    }
}

/// The no-op store: nothing persists, recovery finds nothing. This is the
/// default for an in-memory log, keeping ephemeral logs allocation-free
/// on the storage side.
pub struct NullStore;

impl LogStore for NullStore {
    fn append(&self, _index: u64, _leaf: &[u8]) -> Result<AppendAck, StoreError> {
        Ok(AppendAck {
            wants_checkpoint: false,
        })
    }

    fn checkpoint(&self, _size: u64, _edge: &[Digest]) -> Result<(), StoreError> {
        Ok(())
    }

    fn sync(&self) -> Result<(), StoreError> {
        Ok(())
    }

    fn append_meta(&self, _kind: u8, _payload: &[u8]) -> Result<(), StoreError> {
        Ok(())
    }

    fn recover(&self) -> Result<Recovered, StoreError> {
        Ok(Recovered::default())
    }
}

/// An in-memory store that *does* retain state: appends and meta records
/// accumulate and recover across log/framework instances sharing
/// the same `Arc<MemStore>`. This exercises every recovery code path —
/// restart regressions, signed-history reuse — without touching a
/// filesystem, so such tests stay fast and parallel-safe.
#[derive(Default)]
pub struct MemStore {
    leaves: HealthyMutex<Vec<Vec<u8>>>,
    meta: HealthyMutex<Vec<MetaRecord>>,
}

impl MemStore {
    /// An empty retained store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LogStore for MemStore {
    fn append(&self, index: u64, leaf: &[u8]) -> Result<AppendAck, StoreError> {
        let mut leaves = self.leaves.lock_healthy();
        if index != leaves.len() as u64 {
            return Err(StoreError::IndexMismatch {
                expected: leaves.len() as u64,
                got: index,
            });
        }
        leaves.push(leaf.to_vec());
        Ok(AppendAck {
            wants_checkpoint: false,
        })
    }

    fn checkpoint(&self, _size: u64, _edge: &[Digest]) -> Result<(), StoreError> {
        Ok(())
    }

    fn sync(&self) -> Result<(), StoreError> {
        Ok(())
    }

    fn append_meta(&self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        self.meta.lock_healthy().push(MetaRecord {
            kind,
            payload: payload.to_vec(),
        });
        Ok(())
    }

    fn recover(&self) -> Result<Recovered, StoreError> {
        let leaves = self.leaves.lock_healthy().clone();
        Ok(Recovered {
            leaves,
            checkpoint: None,
            torn: false,
            meta: self.meta.lock_healthy().clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_store_recovers_nothing() {
        let store = NullStore;
        store.append(0, b"leaf").unwrap();
        store.append_meta(1, b"meta").unwrap();
        let recovered = store.recover().unwrap();
        assert!(recovered.leaves.is_empty() && recovered.meta.is_empty());
    }

    #[test]
    fn mem_store_retains_across_recover() {
        let store = MemStore::new();
        store.append(0, b"a").unwrap();
        store.append(1, b"c").unwrap();
        store.append_meta(7, b"sig").unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.leaves, vec![b"a".to_vec(), b"c".to_vec()]);
        assert_eq!(
            recovered.meta,
            vec![MetaRecord {
                kind: 7,
                payload: b"sig".to_vec()
            }]
        );
        // Misuse is an error, not a panic.
        assert!(matches!(
            store.append(5, b"x"),
            Err(StoreError::IndexMismatch {
                expected: 2,
                got: 5,
            })
        ));
    }
}
