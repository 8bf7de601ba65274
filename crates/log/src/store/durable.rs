//! One chain of append-only segment files, with torn-tail recovery.
//!
//! File layout under one directory (one log per directory):
//!
//! ```text
//! shard-0000-seg-00000000.dlog    the log's segment chain
//! shard-0000-seg-00000001.dlog
//! meta.dlog                       framework meta log (signed artifacts)
//! ```
//!
//! The `shard-0000-` prefix (and the header field behind it, always 0) is
//! kept from the layout that once allowed several chains per directory, so
//! that every directory written since opens unchanged. A directory holding
//! a chain under any other index is refused by name at open
//! ([`StoreError::ShardCountMismatch`]) rather than opened without it.
//!
//! Writes follow a write-ahead discipline: the caller hands a leaf to
//! [`DurableStore::append`] *before* inserting it into the in-memory
//! Merkle tree, and the append `fsync`s before it returns, so no
//! acknowledged leaf is lost in a crash, and a head signed after it never
//! outruns durable history. When the active segment exceeds
//! `segment_bytes`, the append acks `wants_checkpoint` and the log layer
//! calls [`DurableStore::checkpoint`] with the tree's right-edge subtree
//! roots; the store writes the checkpoint record, a trailer pointing at
//! it, fsyncs, and rotates to a fresh segment.
//!
//! **Recovery** is [`DurableStore::open`], the one way a store comes up,
//! so no write can reach a store that has not been recovered: it scans
//! every byte of every segment once, validates CRCs and leaf-index
//! contiguity across the chain, truncates the first torn/corrupt record
//! and everything after it, places the write cursor where the surviving
//! chain ends, and returns the surviving leaves — the replayed tree then
//! reports the exact pre-crash commitment (or a clean prefix of it). It
//! also returns the newest sealed checkpoint record,
//! which nothing boots *from*: it is a stored value the log layer holds
//! the replayed tree against, so a disk that hands back well-formed
//! records of the wrong history is refused by name. The blind spots are
//! documented in `PERSISTENCE.md`.

use super::segment::{
    encode_checkpoint_payload, encode_leaf_payload, encode_meta_header, encode_record,
    encode_segment_header, encode_trailer, scan_meta, scan_segment, SegmentHeader, HEADER_LEN,
    REC_CHECKPOINT, REC_LEAF,
};
use super::{AppendAck, DurableOptions, MetaRecord, Recovered, StoreError};
use distrust_crypto::sha256::Digest;
use distrust_wire::sync::HealthyMutex;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

fn segment_path(dir: &Path, segment: u64) -> PathBuf {
    dir.join(format!("shard-0000-seg-{segment:08}.dlog"))
}

fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.dlog")
}

/// Parses a segment filename into `(chain, segment_index)`; `None` for
/// files that are not ours (they are left untouched).
fn parse_segment_name(name: &str) -> Option<(u32, u64)> {
    let rest = name.strip_prefix("shard-")?;
    let (chain, rest) = rest.split_at_checked(4)?;
    let rest = rest.strip_prefix("-seg-")?;
    let (segment, rest) = rest.split_at_checked(8)?;
    if rest != ".dlog" {
        return None;
    }
    Some((chain.parse().ok()?, segment.parse().ok()?))
}

/// Makes a directory entry (new or truncated file) durable.
fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    #[cfg(test)]
    {
        DIR_SYNCS.set(DIR_SYNCS.get() + 1);
        if FAIL_NEXT_DIR_SYNC.take() {
            return Err(std::io::Error::other("injected directory sync failure").into());
        }
    }
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// The write cursor. `file` is `None` between a seal and the next append
/// (the successor segment is created lazily).
struct Writer {
    /// Open handle on the active (unsealed) segment.
    file: Option<File>,
    /// Index of the active segment, or of the next one when `file` is
    /// `None`.
    segment_index: u64,
    /// Leaf index at which the active segment starts.
    segment_start: u64,
    /// Bytes written to the active segment (header included).
    written: u64,
    /// Total leaves appended.
    entries: u64,
    /// A failed write could not be taken back: the active segment may
    /// hold bytes past `written`, so nothing more is written to it until
    /// the store is reopened and recovery repairs its tail.
    unrepaired: bool,
}

/// The meta log's write cursor: its handle, opened on the first append,
/// and what `Writer` keeps of a segment.
struct MetaWriter {
    file: Option<File>,
    /// Bytes of `meta.dlog` that hold its header and acknowledged records:
    /// what recovery left, then what each append adds. 0 until the file
    /// has a durable header.
    written: u64,
    /// As `Writer::unrepaired`, for `meta.dlog`.
    unrepaired: bool,
}

/// The segment-file store under a durable log. See the module docs for
/// the format and recovery.
pub struct DurableStore {
    opts: DurableOptions,
    writer: HealthyMutex<Writer>,
    meta: HealthyMutex<MetaWriter>,
}

impl DurableStore {
    /// Opens (creating if needed) the store under `opts.dir` and recovers
    /// it: one scan of the segment chain and of the meta log repairs their
    /// torn tails, places the write cursor where the chain ends, and
    /// returns what survived.
    pub fn open(opts: DurableOptions) -> Result<(Self, Recovered), StoreError> {
        std::fs::create_dir_all(&opts.dir)?;
        let (writer, mut recovered) = recover_chain(&opts.dir)?;
        let (meta, meta_len) = recover_meta(&opts.dir)?;
        recovered.meta = meta;
        let store = Self {
            opts,
            writer: HealthyMutex::new(writer),
            meta: HealthyMutex::new(MetaWriter {
                file: None,
                written: meta_len,
                unrepaired: false,
            }),
        };
        Ok((store, recovered))
    }

    /// Persists one leaf, write-ahead: the caller inserts it into its
    /// in-memory tree only once this returns `Ok`. `index` is the leaf's
    /// index in the log and must equal the store's append position.
    ///
    /// The leaf is `fdatasync`ed before this returns. That is what keeps
    /// **sync-before-sign** true: a head a domain signs after its appends
    /// returned never outruns durable history, so an honest crash cannot
    /// look like equivocation.
    pub fn append(&self, index: u64, leaf: &[u8]) -> Result<AppendAck, StoreError> {
        let mut writer = self.writer.lock_healthy();
        if index != writer.entries {
            return Err(StoreError::IndexMismatch {
                expected: writer.entries,
                got: index,
            });
        }
        let mut buf = Vec::with_capacity(leaf.len() + 32);
        encode_record(REC_LEAF, &encode_leaf_payload(index, leaf), &mut buf);
        self.write_synced(&mut writer, &buf, File::sync_data)?;
        writer.written += buf.len() as u64;
        writer.entries += 1;
        Ok(AppendAck {
            wants_checkpoint: writer.written >= self.opts.segment_bytes,
        })
    }

    /// Persists a checkpoint at `size` leaves with the tree's right-edge
    /// subtree roots, sealing the active segment; the next append opens a
    /// fresh one. A failed checkpoint seals nothing, and the segment stays
    /// full, so the next append asks for it again.
    pub fn checkpoint(&self, size: u64, right_edge: &[Digest]) -> Result<(), StoreError> {
        let mut writer = self.writer.lock_healthy();
        if size != writer.entries {
            return Err(StoreError::IndexMismatch {
                expected: writer.entries,
                got: size,
            });
        }
        if writer.written == 0 {
            // Nothing appended since the last seal; no segment to seal.
            return Ok(());
        }
        #[cfg(test)]
        if FAIL_NEXT_CHECKPOINT.take() {
            writer.file = Some(unsyncable());
        }
        let offset = writer.written;
        let mut buf = Vec::new();
        encode_record(
            REC_CHECKPOINT,
            &encode_checkpoint_payload(size, right_edge),
            &mut buf,
        );
        buf.extend_from_slice(&encode_trailer(offset));
        self.write_synced(&mut writer, &buf, File::sync_all)?;
        // Rotate: the next append opens a fresh segment.
        writer.file = None;
        writer.segment_index += 1;
        writer.segment_start = writer.entries;
        writer.written = 0;
        Ok(())
    }

    /// Appends one framework meta record, synced before this returns (meta
    /// records are rare and carry signatures).
    pub fn append_meta(&self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        let mut meta = self.meta.lock_healthy();
        if meta.unrepaired {
            return Err(StoreError::UnrepairedWrite);
        }
        let path = meta_path(&self.opts.dir);
        if meta.file.is_none() {
            // Recovery (or a failed write's cut-back) left the file exactly
            // `written` bytes long, so it is not read again; a missing or
            // headerless one gets its header, durable with its entry before
            // `written` counts it.
            let mut file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)?;
            if meta.written == 0 || file.metadata()?.len() == 0 {
                file.set_len(0)?;
                file.write_all(&encode_meta_header())?;
                sync_dir(&self.opts.dir)?;
                meta.written = HEADER_LEN as u64;
            } else {
                file.seek(SeekFrom::Start(meta.written))?;
            }
            meta.file = Some(file);
        }
        let mut buf = Vec::new();
        encode_record(kind, payload, &mut buf);
        let meta = &mut *meta;
        write_or_cut_back(
            &mut meta.file,
            &mut meta.unrepaired,
            &path,
            meta.written,
            &buf,
            File::sync_data,
        )?;
        meta.written += buf.len() as u64;
        Ok(())
    }

    /// Opens (creating + writing the header if needed) the active segment
    /// for a writer that has none.
    fn ensure_active(&self, writer: &mut Writer) -> Result<(), StoreError> {
        if writer.file.is_some() {
            return Ok(());
        }
        let path = segment_path(&self.opts.dir, writer.segment_index);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let existing = file.metadata()?.len();
        if existing < HEADER_LEN as u64 {
            // Fresh (or header-torn) segment: write the header, then make
            // it and the directory entry durable. A failure cuts the file
            // back to empty, so the next call writes and syncs both again
            // instead of reusing a header it never synced.
            let header = encode_segment_header(&SegmentHeader {
                shard: 0,
                segment_index: writer.segment_index,
                start_index: writer.segment_start,
            });
            let made = file
                .set_len(0)
                .and_then(|()| file.write_all(&header))
                .and_then(|()| file.sync_data())
                .map_err(StoreError::from)
                .and_then(|()| sync_dir(&self.opts.dir));
            if let Err(error) = made {
                writer.unrepaired = cut_back(&path, 0).is_err();
                return Err(error);
            }
            writer.written = HEADER_LEN as u64;
        } else {
            file.seek(SeekFrom::Start(existing))?;
            writer.written = existing;
        }
        writer.file = Some(file);
        Ok(())
    }

    /// Writes `bytes` at the end of the active segment and makes them
    /// durable with `sync`, by [`write_or_cut_back`]. The caller moves the
    /// cursor only once this returns `Ok`.
    fn write_synced(
        &self,
        writer: &mut Writer,
        bytes: &[u8],
        sync: fn(&File) -> std::io::Result<()>,
    ) -> Result<(), StoreError> {
        if writer.unrepaired {
            return Err(StoreError::UnrepairedWrite);
        }
        self.ensure_active(writer)?;
        let path = segment_path(&self.opts.dir, writer.segment_index);
        write_or_cut_back(
            &mut writer.file,
            &mut writer.unrepaired,
            &path,
            writer.written,
            bytes,
            sync,
        )
    }
}

/// Writes `bytes` at the end of the open `file` at `path` and makes them
/// durable with `sync`. On an error the handle is dropped and the file cut
/// back to `durable` bytes through its path, so that the next write
/// reopens it where the last durable record ends, not after a partial one
/// a later boot would truncate together with everything behind it. If the
/// cut fails too, `unrepaired` is set, and its owner refuses every write
/// from then on ([`StoreError::UnrepairedWrite`]).
fn write_or_cut_back(
    file: &mut Option<File>,
    unrepaired: &mut bool,
    path: &Path,
    durable: u64,
    bytes: &[u8],
    sync: fn(&File) -> std::io::Result<()>,
) -> Result<(), StoreError> {
    let handle = file.as_mut().ok_or(StoreError::Corrupt("no open file"))?;
    let Err(error) = handle.write_all(bytes).and_then(|()| sync(handle)) else {
        return Ok(());
    };
    *file = None;
    *unrepaired = cut_back(path, durable).is_err();
    Err(error.into())
}

/// Cuts the file at `path` back to its first `durable` bytes, durably.
fn cut_back(path: &Path, durable: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(durable)?;
    file.sync_all()
}

/// The chain's segment indices found in the directory, sorted. A segment
/// of any chain but the one a log has is the named boot refusal: opening
/// the directory without it would silently drop committed history.
fn list_segments(dir: &Path) -> Result<Vec<u64>, StoreError> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        match entry.file_name().to_str().and_then(parse_segment_name) {
            Some((0, segment)) => found.push(segment),
            Some((chain, _)) => {
                return Err(StoreError::ShardCountMismatch {
                    store: chain as usize + 1,
                    configured: 1,
                })
            }
            None => {}
        }
    }
    found.sort_unstable();
    Ok(found)
}

/// Scans `meta.dlog`, cutting away a torn tail, and returns its records
/// with the length that survives (0 for a missing or headerless file). The
/// meta writer opens the file on its first append, at that length.
fn recover_meta(dir: &Path) -> Result<(Vec<MetaRecord>, u64), StoreError> {
    let path = meta_path(dir);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e.into()),
    };
    let scanned = scan_meta(&bytes);
    if scanned.valid_len < bytes.len() as u64 {
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(scanned.valid_len)?;
        file.sync_all()?;
    }
    let records = scanned
        .records
        .into_iter()
        .map(|(kind, payload)| MetaRecord { kind, payload })
        .collect();
    Ok((records, scanned.valid_len))
}

/// Scans the full chain, repairing torn tails and deleting everything
/// after the first unrecoverable point, and returns the write cursor the
/// surviving chain ends at with what it holds (`meta` is not the chain's
/// to fill). Every byte of every segment is validated.
fn recover_chain(dir: &Path) -> Result<(Writer, Recovered), StoreError> {
    let segments = list_segments(dir)?;
    let mut out = Recovered::default();
    let mut entries = 0u64;
    let mut next_segment = 0u64;
    let mut next_segment_start = 0u64;
    // The unsealed tail to append to, and the bytes it keeps.
    let mut tail = None;
    let mut stop = false;
    for (i, &seg) in segments.iter().enumerate() {
        let path = segment_path(dir, seg);
        if stop || seg != next_segment {
            // Chain broken earlier (or an index gap): everything after
            // the break is unreachable history — delete it.
            out.torn = true;
            std::fs::remove_file(&path)?;
            continue;
        }
        let bytes = std::fs::read(&path)?;
        let scanned = match scan_segment(&bytes) {
            Ok(s) => s,
            Err(_) => {
                // Torn/corrupt header: nothing in this segment survives.
                out.torn = true;
                std::fs::remove_file(&path)?;
                stop = true;
                continue;
            }
        };
        if scanned.header.shard != 0
            || scanned.header.segment_index != seg
            || scanned.header.start_index != entries
        {
            // A valid header for the wrong position: treat as corruption.
            out.torn = true;
            std::fs::remove_file(&path)?;
            stop = true;
            continue;
        }
        if scanned.torn || scanned.valid_len < bytes.len() as u64 {
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(scanned.valid_len)?;
            file.sync_all()?;
            out.torn = true;
        }
        entries += scanned.leaves.len() as u64;
        out.leaves.extend(scanned.leaves);
        if let Some(cp) = scanned.checkpoint {
            out.checkpoint = Some(cp);
        }
        if scanned.sealed && !scanned.torn {
            next_segment = seg + 1;
            next_segment_start = entries;
            tail = None;
        } else {
            // Unsealed (or repaired) tail: append here; later segments
            // are orphans of a pre-crash rotation that never completed.
            next_segment = seg;
            next_segment_start = scanned.header.start_index;
            tail = Some((path, scanned.valid_len));
            if i + 1 < segments.len() {
                stop = true;
            }
        }
    }
    sync_dir(dir)?;
    let (file, written) = match tail {
        Some((path, valid_len)) => {
            let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
            file.seek(SeekFrom::Start(valid_len))?;
            (Some(file), valid_len)
        }
        None => (None, 0),
    };
    let writer = Writer {
        file,
        segment_index: next_segment,
        segment_start: next_segment_start,
        written,
        entries,
        unrepaired: false,
    };
    Ok((writer, out))
}

#[cfg(test)]
thread_local! {
    /// Set by [`DurableStore::fail_next_checkpoint`].
    static FAIL_NEXT_CHECKPOINT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Set by [`DurableStore::fail_next_dir_sync`].
    static FAIL_NEXT_DIR_SYNC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Directory syncs on this thread, failed ones included.
    static DIR_SYNCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A handle on which writes succeed and syncs fail: `fdatasync` and
/// `fsync` on `/dev/null` return `EINVAL` on Linux.
#[cfg(test)]
fn unsyncable() -> File {
    OpenOptions::new().write(true).open("/dev/null").unwrap()
}

#[cfg(test)]
impl DurableStore {
    /// Makes the next [`Self::checkpoint`] on this thread write through
    /// [`unsyncable`] in place of its segment, as a disk that fails the
    /// seal after the leaf before it was synced.
    pub(crate) fn fail_next_checkpoint() {
        FAIL_NEXT_CHECKPOINT.set(true);
    }

    /// Makes the next directory sync on this thread fail.
    fn fail_next_dir_sync() {
        FAIL_NEXT_DIR_SYNC.set(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle::MerkleLog;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "distrust-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts(dir: &Path, segment_bytes: u64) -> DurableOptions {
        DurableOptions {
            dir: dir.to_path_buf(),
            segment_bytes,
        }
    }

    /// The store under `dir`, opened (and so recovered) as a boot finds it.
    fn open(dir: &Path, segment_bytes: u64) -> (DurableStore, Recovered) {
        DurableStore::open(opts(dir, segment_bytes)).unwrap()
    }

    #[test]
    fn append_recover_round_trip() {
        let dir = tempdir("roundtrip");
        let (store, recovered) = open(&dir, 1 << 20);
        assert!(recovered.leaves.is_empty());
        for i in 0..5u64 {
            store.append(i, format!("a-{i}").as_bytes()).unwrap();
        }
        store.append_meta(9, b"meta-record").unwrap();
        drop(store);

        let (store, recovered) = open(&dir, 1 << 20);
        assert_eq!(recovered.leaves.len(), 5);
        assert_eq!(recovered.leaves[3], b"a-3");
        assert_eq!(
            recovered.meta,
            vec![MetaRecord {
                kind: 9,
                payload: b"meta-record".to_vec()
            }]
        );
        // The recovered store keeps appending where it left off, and an
        // append at any other index is an error, not a panic.
        store.append(5, b"a-5").unwrap();
        assert!(matches!(
            store.append(7, b"x"),
            Err(StoreError::IndexMismatch {
                expected: 6,
                got: 7,
            })
        ));
        drop(store);
        assert_eq!(open(&dir, 1 << 20).1.leaves.len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_and_replay_reproduces_the_head() {
        let dir = tempdir("rotate");
        // Tiny segments force several rotations.
        let (store, _) = open(&dir, 200);
        let mut mirror = MerkleLog::new();
        for i in 0..40u64 {
            let leaf = format!("leaf-{i:03}");
            let ack = store.append(i, leaf.as_bytes()).unwrap();
            mirror.append(leaf.as_bytes());
            if ack.wants_checkpoint {
                store.checkpoint(i + 1, &mirror.right_edge()).unwrap();
            }
        }
        let files = list_segments(&dir).unwrap();
        assert!(files.len() > 2, "expected several segments, got {files:?}");
        drop(store);
        let (_, recovered) = open(&dir, 200);
        assert_eq!(recovered.leaves.len(), 40);
        let mut replayed = MerkleLog::new();
        for leaf in &recovered.leaves {
            replayed.append(leaf);
        }
        assert_eq!(replayed.root(), mirror.root());
        // The newest sealed checkpoint comes back with the leaves, and is
        // the edge the tree had when that segment was sealed.
        let (size, edge) = recovered.checkpoint.expect("a sealed checkpoint");
        let mut at_seal = MerkleLog::new();
        for leaf in recovered.leaves.iter().take(size as usize) {
            at_seal.append(leaf);
        }
        assert_eq!(edge, at_seal.right_edge());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_count_mismatch_is_refused() {
        // A directory written when a log could be several chains: the
        // second chain's segment is history this store would never read,
        // so opening is refused by name.
        let dir = tempdir("mismatch");
        let (store, _) = open(&dir, 1 << 20);
        store.append(0, b"x").unwrap();
        drop(store);
        let second_chain = dir.join("shard-0001-seg-00000000.dlog");
        std::fs::copy(segment_path(&dir, 0), &second_chain).unwrap();
        assert!(matches!(
            DurableStore::open(opts(&dir, 1 << 20)),
            Err(StoreError::ShardCountMismatch {
                store: 2,
                configured: 1
            })
        ));
        // Nothing was repaired away on the way to the refusal.
        assert!(second_chain.exists() && segment_path(&dir, 0).exists());
        std::fs::remove_file(&second_chain).unwrap();
        assert_eq!(open(&dir, 1 << 20).1.leaves, vec![b"x".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open_and_recover() {
        let dir = tempdir("torn");
        let (store, _) = open(&dir, 1 << 20);
        for i in 0..3u64 {
            store.append(i, format!("leaf-{i}").as_bytes()).unwrap();
        }
        drop(store);
        // Simulate a torn write: append garbage to the segment.
        let path = segment_path(&dir, 0);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        drop(file);
        let (store, recovered) = open(&dir, 1 << 20);
        // Open repaired the tail and says so: every durable leaf intact
        // and the garbage gone.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        assert_eq!(recovered.leaves.len(), 3);
        assert!(recovered.torn, "open repairs the tail");
        // Appends continue cleanly after the repair.
        store.append(3, b"leaf-3").unwrap();
        drop(store);
        let (_, recovered) = open(&dir, 1 << 20);
        assert_eq!(recovered.leaves.len(), 4);
        assert!(!recovered.torn, "repair is permanent");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_log_survives_torn_tail() {
        let dir = tempdir("meta");
        let (store, _) = open(&dir, 1 << 20);
        store.append_meta(1, b"first").unwrap();
        store.append_meta(2, b"second").unwrap();
        drop(store);
        let mut file = OpenOptions::new()
            .append(true)
            .open(meta_path(&dir))
            .unwrap();
        file.write_all(&[0x99; 5]).unwrap();
        drop(file);
        let (store, recovered) = open(&dir, 1 << 20);
        assert_eq!(recovered.meta.len(), 2);
        store.append_meta(3, b"third").unwrap();
        drop(store);
        assert_eq!(open(&dir, 1 << 20).1.meta.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Puts `bytes` at the end of the active segment through a handle of
    /// its own: what a write that reached the page cache and then failed
    /// to sync leaves behind.
    fn leave_in_active_segment(store: &DurableStore, bytes: &[u8]) {
        let segment = store.writer.lock_healthy().segment_index;
        let path = segment_path(&store.opts.dir, segment);
        let mut file = OpenOptions::new().append(true).open(path).unwrap();
        file.write_all(bytes).unwrap();
    }

    /// A leaf whose sync fails is not taken: the store takes its index
    /// again, and a reopened store recovers exactly the acknowledged
    /// leaves, with no torn tail.
    #[test]
    fn a_failed_append_leaves_no_trace() {
        let dir = tempdir("failed-append");
        let (store, _) = open(&dir, 1 << 20);
        store.append(0, b"acked-0").unwrap();
        let mut lost = Vec::new();
        encode_record(REC_LEAF, &encode_leaf_payload(1, b"lost"), &mut lost);
        leave_in_active_segment(&store, &lost);
        store.writer.lock_healthy().file = Some(unsyncable());
        assert!(matches!(store.append(1, b"lost"), Err(StoreError::Io(_))));
        store.append(1, b"acked-1").unwrap();
        store.append(2, b"acked-2").unwrap();
        drop(store);
        let (_, recovered) = open(&dir, 1 << 20);
        assert_eq!(recovered.leaves, [&b"acked-0"[..], b"acked-1", b"acked-2"]);
        assert!(!recovered.torn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint whose sync fails seals nothing: the next leaf goes
    /// into the same segment, the checkpoint is taken again, and a
    /// reopened store recovers exactly the acknowledged leaves and that
    /// checkpoint.
    #[test]
    fn a_failed_checkpoint_leaves_no_trace() {
        let dir = tempdir("failed-checkpoint");
        // Every append fills the segment.
        let (store, _) = open(&dir, 1);
        let mut mirror = MerkleLog::new();
        let leaves: [&[u8]; 3] = [b"acked-0", b"acked-1", b"acked-2"];
        assert!(store.append(0, leaves[0]).unwrap().wants_checkpoint);
        mirror.append(leaves[0]);
        let mut lost = Vec::new();
        let edge = mirror.right_edge();
        encode_record(
            REC_CHECKPOINT,
            &encode_checkpoint_payload(1, &edge),
            &mut lost,
        );
        lost.extend_from_slice(&encode_trailer(store.writer.lock_healthy().written));
        leave_in_active_segment(&store, &lost);
        store.writer.lock_healthy().file = Some(unsyncable());
        assert!(matches!(store.checkpoint(1, &edge), Err(StoreError::Io(_))));
        assert!(store.append(1, leaves[1]).unwrap().wants_checkpoint);
        mirror.append(leaves[1]);
        store.checkpoint(2, &mirror.right_edge()).unwrap();
        store.append(2, leaves[2]).unwrap();
        drop(store);
        assert_eq!(list_segments(&dir).unwrap(), [0, 1]);
        let (_, recovered) = open(&dir, 1);
        assert_eq!(recovered.leaves, leaves);
        assert!(!recovered.torn);
        let (size, edge) = recovered.checkpoint.expect("the retried checkpoint");
        assert_eq!(size, 2);
        let mut at_seal = MerkleLog::new();
        for leaf in &leaves[..2] {
            at_seal.append(leaf);
        }
        assert_eq!(edge, at_seal.right_edge());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// When the failed write cannot be cut away either — here its segment
    /// is gone — the store refuses every write by name until reopened.
    #[test]
    fn a_failed_write_that_cannot_be_cut_stops_all_writes() {
        let dir = tempdir("unrepaired");
        let (store, _) = open(&dir, 1 << 20);
        store.append(0, b"acked-0").unwrap();
        std::fs::remove_file(segment_path(&dir, 0)).unwrap();
        store.writer.lock_healthy().file = Some(unsyncable());
        assert!(matches!(store.append(1, b"lost"), Err(StoreError::Io(_))));
        assert!(matches!(
            store.append(1, b"refused"),
            Err(StoreError::UnrepairedWrite)
        ));
        let edge = [crate::merkle::leaf_hash(b"acked-0")];
        assert!(matches!(
            store.checkpoint(1, &edge),
            Err(StoreError::UnrepairedWrite)
        ));
        drop(store);
        let (store, _) = open(&dir, 1 << 20);
        store.append(0, b"after reopen").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A meta record whose sync fails is not taken: the next record goes
    /// where it would have, and a reopened store recovers exactly the
    /// acknowledged records. When the failed record cannot be cut away
    /// either — here `meta.dlog` is gone — every later meta append is
    /// refused by name until the store is reopened.
    #[test]
    fn a_failed_meta_append_leaves_no_trace() {
        let dir = tempdir("failed-meta-append");
        let (store, _) = open(&dir, 1 << 20);
        store.append_meta(1, b"acked-a").unwrap();
        let mut lost = Vec::new();
        encode_record(2, b"lost-b", &mut lost);
        let mut file = OpenOptions::new()
            .append(true)
            .open(meta_path(&dir))
            .unwrap();
        file.write_all(&lost[..lost.len() - 3]).unwrap();
        store.meta.lock_healthy().file = Some(unsyncable());
        assert!(matches!(
            store.append_meta(2, b"lost-b"),
            Err(StoreError::Io(_))
        ));
        store.append_meta(3, b"acked-c").unwrap();
        drop(store);
        let (store, recovered) = open(&dir, 1 << 20);
        let meta: Vec<(u8, &[u8])> = recovered
            .meta
            .iter()
            .map(|record| (record.kind, &record.payload[..]))
            .collect();
        assert_eq!(meta, [(1, &b"acked-a"[..]), (3, b"acked-c")]);

        std::fs::remove_file(meta_path(&dir)).unwrap();
        store.append_meta(4, b"opens").unwrap();
        std::fs::remove_file(meta_path(&dir)).unwrap();
        store.meta.lock_healthy().file = Some(unsyncable());
        assert!(matches!(
            store.append_meta(5, b"lost"),
            Err(StoreError::Io(_))
        ));
        assert!(matches!(
            store.append_meta(6, b"refused"),
            Err(StoreError::UnrepairedWrite)
        ));
        drop(store);
        let (store, _) = open(&dir, 1 << 20);
        store.append_meta(7, b"after reopen").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment whose header was written but whose directory entry never
    /// synced is not reused as it stands: the retried append writes and
    /// syncs both again before it acknowledges the leaf.
    #[test]
    fn a_failed_directory_sync_is_redone_before_the_next_append() {
        let dir = tempdir("failed-dir-sync");
        let (store, _) = open(&dir, 1 << 20);
        DurableStore::fail_next_dir_sync();
        assert!(matches!(store.append(0, b"first"), Err(StoreError::Io(_))));
        let before = DIR_SYNCS.get();
        store.append(0, b"first").unwrap();
        assert_eq!(
            DIR_SYNCS.get(),
            before + 1,
            "the retry synced the directory"
        );
        store.append(1, b"second").unwrap();
        drop(store);
        let (_, recovered) = open(&dir, 1 << 20);
        assert_eq!(recovered.leaves, [b"first".to_vec(), b"second".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_name_parsing() {
        assert_eq!(
            parse_segment_name("shard-0001-seg-00000007.dlog"),
            Some((1, 7))
        );
        assert_eq!(parse_segment_name("shard-0001-seg-00000007.tmp"), None);
        assert_eq!(parse_segment_name("meta.dlog"), None);
        assert_eq!(parse_segment_name("shard-xxxx-seg-00000007.dlog"), None);
    }
}
