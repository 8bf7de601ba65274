//! Durable storage under the log layer.
//!
//! A [`crate::ShardedLog`] keeps its Merkle tree in memory for proof
//! generation. Under [`StorageConfig::Durable`] every appended leaf also
//! reaches a [`DurableStore`] *before* it is acknowledged into the tree —
//! the write-ahead discipline that makes a restart recoverable instead of
//! a silent history reset. [`DurableStore`] is one chain of append-only
//! segment files with CRC-framed records, an fsync under every append,
//! checkpointed subtree roots and torn-tail repair (see `PERSISTENCE.md`);
//! opening it is recovering it. Under [`StorageConfig::Ephemeral`] the log
//! has no store at all and a restart starts empty.
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
use std::path::PathBuf;

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
    /// [`DurableStore::checkpoint`] with the tree's current right edge so
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

/// Everything [`DurableStore::open`] recovered.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A store retains its leaves and meta records across a recovery, and
    /// an append at the wrong index is an error, not a panic.
    #[test]
    fn mem_store_retains_across_recover() {
        let dir = std::env::temp_dir().join(format!(
            "distrust-store-retain-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = DurableStore::open(DurableOptions::new(&dir)).unwrap();
        store.append(0, b"a").unwrap();
        store.append(1, b"c").unwrap();
        store.append_meta(7, b"sig").unwrap();
        drop(store);
        let (store, recovered) = DurableStore::open(DurableOptions::new(&dir)).unwrap();
        assert_eq!(recovered.leaves, vec![b"a".to_vec(), b"c".to_vec()]);
        assert_eq!(
            recovered.meta,
            vec![MetaRecord {
                kind: 7,
                payload: b"sig".to_vec()
            }]
        );
        assert!(matches!(
            store.append(5, b"x"),
            Err(StoreError::IndexMismatch {
                expected: 2,
                got: 5,
            })
        ));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
