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
//! Merkle tree; the bytes reach the OS immediately and an `fsync` lands
//! every `fsync_every` appends (plus on demand via [`LogStore::sync`] —
//! which checkpoint signing always calls first, so signed history never
//! outruns durable history). When the active segment exceeds
//! `segment_bytes`, the append acks `wants_checkpoint` and the log layer
//! calls [`DurableStore::checkpoint`] with the tree's right-edge subtree
//! roots; the store writes the checkpoint record, a trailer pointing at
//! it, fsyncs, and rotates to a fresh segment.
//!
//! **Recovery** ([`LogStore::recover`]) is the one way a log comes up: it
//! scans every byte of every segment, validates CRCs and leaf-index
//! contiguity across the chain, truncates the first torn/corrupt record
//! and everything after it, and returns the surviving leaves — the
//! replayed tree then reports the exact pre-crash commitment (or a clean
//! prefix of it). It also returns the newest sealed checkpoint record,
//! which nothing boots *from*: it is a stored value the log layer holds
//! the replayed tree against, so a disk that hands back well-formed
//! records of the wrong history is refused by name. The blind spots are
//! documented in `PERSISTENCE.md`.

use super::segment::{
    encode_checkpoint_payload, encode_leaf_payload, encode_meta_header, encode_record,
    encode_segment_header, encode_trailer, scan_meta, scan_segment, SegmentHeader, HEADER_LEN,
    REC_CHECKPOINT, REC_LEAF,
};
use super::{AppendAck, DurableOptions, LogStore, MetaRecord, Recovered, StoreError};
use distrust_crypto::sha256::Digest;
use distrust_wire::sync::HealthyMutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
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
    /// Total leaves appended (durable + pending).
    entries: u64,
    /// Appends since the last fsync.
    pending: u32,
}

struct MetaWriter {
    file: Option<File>,
}

/// Segment-file implementation of [`LogStore`]. See the module docs for
/// the format and recovery.
pub struct DurableStore {
    opts: DurableOptions,
    writer: HealthyMutex<Writer>,
    meta: HealthyMutex<MetaWriter>,
}

impl DurableStore {
    /// Opens (creating if needed) the store under `opts.dir`. Positions
    /// the write cursor by examining only the chain's last segment; full
    /// validation and repair happen in [`LogStore::recover`], which
    /// `ShardedLog::with_store` always calls before the first append.
    pub fn open(opts: DurableOptions) -> Result<Self, StoreError> {
        std::fs::create_dir_all(&opts.dir)?;
        let segments = list_segments(&opts.dir)?;
        let writer = position_tail(&opts.dir, &segments)?;
        Ok(Self {
            opts,
            writer: HealthyMutex::new(writer),
            meta: HealthyMutex::new(MetaWriter { file: None }),
        })
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
            // Fresh (or header-torn) segment: write the header.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let header = encode_segment_header(&SegmentHeader {
                shard: 0,
                segment_index: writer.segment_index,
                start_index: writer.segment_start,
            });
            file.write_all(&header)?;
            file.sync_data()?;
            sync_dir(&self.opts.dir)?;
            writer.written = HEADER_LEN as u64;
        } else {
            file.seek(SeekFrom::Start(existing))?;
            writer.written = existing;
        }
        writer.file = Some(file);
        Ok(())
    }
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

/// Positions the write cursor from the chain's last segment only (see
/// [`DurableStore::open`]). `segments` is the sorted segment index list.
fn position_tail(dir: &Path, segments: &[u64]) -> Result<Writer, StoreError> {
    let at = |segment_index, segment_start, written, entries, file| Writer {
        file,
        segment_index,
        segment_start,
        written,
        entries,
        pending: 0,
    };
    let Some(&last) = segments.last() else {
        return Ok(at(0, 0, 0, 0, None));
    };
    let path = segment_path(dir, last);
    let bytes = std::fs::read(&path)?;
    match scan_segment(&bytes) {
        Ok(scanned) if scanned.sealed => {
            // Sealed tail: the next append opens segment `last + 1`.
            let entries = scanned.header.start_index + scanned.leaves.len() as u64;
            Ok(at(last + 1, entries, 0, entries, None))
        }
        Ok(scanned) => {
            // Unsealed tail: repair the torn suffix (if any) and append in
            // place.
            let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
            if scanned.torn {
                file.set_len(scanned.valid_len)?;
                file.sync_data()?;
            }
            file.seek(SeekFrom::Start(scanned.valid_len))?;
            Ok(at(
                last,
                scanned.header.start_index,
                scanned.valid_len,
                scanned.header.start_index + scanned.leaves.len() as u64,
                Some(file),
            ))
        }
        Err(_) => {
            // Torn header: the segment holds nothing durable. Rewrite it
            // from scratch at the position the previous chain implies;
            // recover() validates that chain in full.
            std::fs::remove_file(&path)?;
            let entries = previous_chain_entries(dir, segments)?;
            Ok(at(last, entries, 0, entries, None))
        }
    }
}

/// Entries covered by the chain *before* its last segment, derived from
/// the second-to-last segment's content (cheap: one file).
fn previous_chain_entries(dir: &Path, segments: &[u64]) -> Result<u64, StoreError> {
    let Some(&prev) = segments.len().checked_sub(2).and_then(|i| segments.get(i)) else {
        return Ok(0);
    };
    let bytes = std::fs::read(segment_path(dir, prev))?;
    match scan_segment(&bytes) {
        Ok(s) => Ok(s.header.start_index + s.leaves.len() as u64),
        Err(_) => Ok(0),
    }
}

impl LogStore for DurableStore {
    fn append(&self, index: u64, leaf: &[u8]) -> Result<AppendAck, StoreError> {
        let mut writer = self.writer.lock_healthy();
        if index != writer.entries {
            return Err(StoreError::IndexMismatch {
                expected: writer.entries,
                got: index,
            });
        }
        self.ensure_active(&mut writer)?;
        let mut buf = Vec::with_capacity(leaf.len() + 32);
        encode_record(REC_LEAF, &encode_leaf_payload(index, leaf), &mut buf);
        let file = writer
            .file
            .as_mut()
            .ok_or(StoreError::Corrupt("no active segment"))?;
        file.write_all(&buf)?;
        writer.written += buf.len() as u64;
        writer.entries += 1;
        writer.pending += 1;
        if writer.pending >= self.opts.fsync_every.max(1) {
            if let Some(file) = writer.file.as_mut() {
                file.sync_data()?;
            }
            writer.pending = 0;
        }
        Ok(AppendAck {
            wants_checkpoint: writer.written >= self.opts.segment_bytes,
        })
    }

    fn checkpoint(&self, size: u64, right_edge: &[Digest]) -> Result<(), StoreError> {
        let mut writer = self.writer.lock_healthy();
        if size != writer.entries {
            return Err(StoreError::IndexMismatch {
                expected: writer.entries,
                got: size,
            });
        }
        if writer.file.is_none() {
            // Nothing appended since the last seal; no segment to seal.
            return Ok(());
        }
        let offset = writer.written;
        let file = writer
            .file
            .as_mut()
            .ok_or(StoreError::Corrupt("no active segment"))?;
        let mut buf = Vec::new();
        encode_record(
            REC_CHECKPOINT,
            &encode_checkpoint_payload(size, right_edge),
            &mut buf,
        );
        buf.extend_from_slice(&encode_trailer(offset));
        file.write_all(&buf)?;
        file.sync_all()?;
        // Rotate: the next append opens a fresh segment.
        writer.file = None;
        writer.segment_index += 1;
        writer.segment_start = writer.entries;
        writer.written = 0;
        writer.pending = 0;
        Ok(())
    }

    fn sync(&self) -> Result<(), StoreError> {
        let mut writer = self.writer.lock_healthy();
        if writer.pending > 0 {
            if let Some(file) = writer.file.as_mut() {
                file.sync_data()?;
            }
            writer.pending = 0;
        }
        Ok(())
    }

    fn append_meta(&self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        let mut meta = self.meta.lock_healthy();
        if meta.file.is_none() {
            let path = meta_path(&self.opts.dir);
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)?;
            let bytes = {
                let mut bytes = Vec::new();
                file.read_to_end(&mut bytes)?;
                bytes
            };
            let scanned = scan_meta(&bytes);
            if scanned.valid_len == 0 {
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(&encode_meta_header())?;
            } else {
                if scanned.torn {
                    file.set_len(scanned.valid_len)?;
                }
                file.seek(SeekFrom::Start(scanned.valid_len))?;
            }
            sync_dir(&self.opts.dir)?;
            meta.file = Some(file);
        }
        let file = meta
            .file
            .as_mut()
            .ok_or(StoreError::Corrupt("no meta log"))?;
        let mut buf = Vec::new();
        encode_record(kind, payload, &mut buf);
        file.write_all(&buf)?;
        file.sync_data()?;
        Ok(())
    }

    fn recover(&self) -> Result<Recovered, StoreError> {
        let mut out = {
            // Hold the writer lock across the scan so appends cannot race
            // the repair, and reposition the cursor to the repaired state.
            let mut writer = self.writer.lock_healthy();
            let recovered = recover_chain(&self.opts.dir)?;
            writer.file = None;
            writer.entries = recovered.entries;
            writer.segment_index = recovered.next_segment;
            writer.segment_start = recovered.next_segment_start;
            writer.written = recovered.tail_written;
            writer.pending = 0;
            if let Some(path) = recovered.open_tail {
                let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
                file.seek(SeekFrom::Start(recovered.tail_written))?;
                writer.file = Some(file);
            }
            recovered.log
        };
        out.meta = {
            let mut guard = self.meta.lock_healthy();
            // Drop any cached handle: the scan below is the authority and
            // append_meta will reopen (and re-repair) on next use.
            guard.file = None;
            let path = meta_path(&self.opts.dir);
            match std::fs::read(&path) {
                Ok(bytes) => {
                    let scanned = scan_meta(&bytes);
                    if scanned.valid_len < bytes.len() as u64 {
                        let file = OpenOptions::new().write(true).open(&path)?;
                        file.set_len(scanned.valid_len)?;
                        file.sync_all()?;
                    }
                    scanned
                        .records
                        .into_iter()
                        .map(|(kind, payload)| MetaRecord { kind, payload })
                        .collect()
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e.into()),
            }
        };
        Ok(out)
    }
}

/// Result of fully recovering the segment chain.
struct ChainRecovery {
    /// Leaves, newest checkpoint and the torn flag; `meta` is not the
    /// chain's to fill.
    log: Recovered,
    entries: u64,
    /// Index the *active* (next-to-write) segment should have.
    next_segment: u64,
    next_segment_start: u64,
    /// Bytes already in the active segment (0 when it must be created).
    tail_written: u64,
    /// Path of the unsealed tail to reopen for appends, when one exists.
    open_tail: Option<PathBuf>,
}

/// Scans the full chain, repairing torn tails and deleting everything
/// after the first unrecoverable point. Every byte of every segment is
/// validated.
fn recover_chain(dir: &Path) -> Result<ChainRecovery, StoreError> {
    let segments = list_segments(dir)?;
    let mut out = Recovered::default();
    let mut entries = 0u64;
    let mut next_segment = 0u64;
    let mut next_segment_start = 0u64;
    let mut tail_written = 0u64;
    let mut open_tail = None;
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
            tail_written = 0;
            open_tail = None;
        } else {
            // Unsealed (or repaired) tail: append here; later segments
            // are orphans of a pre-crash rotation that never completed.
            next_segment = seg;
            next_segment_start = scanned.header.start_index;
            tail_written = scanned.valid_len;
            open_tail = Some(path);
            if i + 1 < segments.len() {
                stop = true;
            }
        }
    }
    sync_dir(dir)?;
    if open_tail.is_none() {
        next_segment_start = entries;
    }
    Ok(ChainRecovery {
        log: out,
        entries,
        next_segment,
        next_segment_start,
        tail_written,
        open_tail,
    })
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
            fsync_every: 1,
        }
    }

    #[test]
    fn append_recover_round_trip() {
        let dir = tempdir("roundtrip");
        let store = DurableStore::open(opts(&dir, 1 << 20)).unwrap();
        assert!(store.recover().unwrap().leaves.is_empty());
        for i in 0..5u64 {
            store.append(i, format!("a-{i}").as_bytes()).unwrap();
        }
        store.append_meta(9, b"meta-record").unwrap();
        drop(store);

        let store = DurableStore::open(opts(&dir, 1 << 20)).unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.leaves.len(), 5);
        assert_eq!(recovered.leaves[3], b"a-3");
        assert_eq!(
            recovered.meta,
            vec![MetaRecord {
                kind: 9,
                payload: b"meta-record".to_vec()
            }]
        );
        // The recovered store keeps appending where it left off.
        store.append(5, b"a-5").unwrap();
        assert_eq!(store.recover().unwrap().leaves.len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_and_replay_reproduces_the_head() {
        let dir = tempdir("rotate");
        // Tiny segments force several rotations.
        let store = DurableStore::open(opts(&dir, 200)).unwrap();
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
        let store = DurableStore::open(opts(&dir, 200)).unwrap();
        let recovered = store.recover().unwrap();
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
        // so opening is refused by name, before and after recovery.
        let dir = tempdir("mismatch");
        let store = DurableStore::open(opts(&dir, 1 << 20)).unwrap();
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
        let store = DurableStore::open(opts(&dir, 1 << 20)).unwrap();
        assert_eq!(store.recover().unwrap().leaves, vec![b"x".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open_and_recover() {
        let dir = tempdir("torn");
        let store = DurableStore::open(opts(&dir, 1 << 20)).unwrap();
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
        let store = DurableStore::open(opts(&dir, 1 << 20)).unwrap();
        // Open already repaired the tail, so recovery sees a clean file
        // with every durable leaf intact and the garbage gone.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.leaves.len(), 3);
        assert!(!recovered.torn, "open repairs the tail");
        // Appends continue cleanly after the repair.
        store.append(3, b"leaf-3").unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.leaves.len(), 4);
        assert!(!recovered.torn, "repair is permanent");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_log_survives_torn_tail() {
        let dir = tempdir("meta");
        let store = DurableStore::open(opts(&dir, 1 << 20)).unwrap();
        store.append_meta(1, b"first").unwrap();
        store.append_meta(2, b"second").unwrap();
        drop(store);
        let mut file = OpenOptions::new()
            .append(true)
            .open(meta_path(&dir))
            .unwrap();
        file.write_all(&[0x99; 5]).unwrap();
        drop(file);
        let store = DurableStore::open(opts(&dir, 1 << 20)).unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.meta.len(), 2);
        store.append_meta(3, b"third").unwrap();
        assert_eq!(store.recover().unwrap().meta.len(), 3);
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
