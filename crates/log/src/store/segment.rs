//! On-disk segment format: headers, length-prefixed CRC-framed records,
//! and sealed-segment trailers.
//!
//! Everything read back from disk is **untrusted input** — a crash can
//! tear a record mid-write and a flipped bit survives fsync — so every
//! decoder here is slice-based, allocation-capped, and total: corruption
//! yields an error (or a shorter valid prefix from [`scan_segment`]),
//! never a panic and never an allocation sized by an announced length.
//! The `decode_*`/`scan_*` names put these functions in scope for
//! `distrust-lint`'s panic-path and taint-alloc passes.
//!
//! Layout (little-endian throughout, like the wire codec):
//!
//! ```text
//! segment  := header record* trailer?
//! header   := magic[8] shard:u32 segment_index:u64 start_index:u64 crc:u32   (shard = 0)
//! record   := kind:u8 len:u32 payload[len] crc:u32        (crc over kind‖len‖payload)
//! trailer  := magic[8] checkpoint_offset:u64 crc:u32      (only on sealed segments)
//! ```
//!
//! Record kinds: [`REC_LEAF`] carries `index:u64 ‖ data`; [`REC_CHECKPOINT`]
//! carries `size:u64 ‖ count:u32 ‖ count × digest[32]` — the tree's
//! right-edge subtree roots at `size` total leaves (see
//! [`crate::merkle::CompactRoot`]). The meta log reuses the record framing
//! under its own header magic with caller-defined kinds.

use distrust_crypto::sha256::Digest;

/// Magic opening every segment file (the `1` is the format version).
pub const SEGMENT_MAGIC: [u8; 8] = *b"DTRLSEG1";
/// Magic opening the meta log file.
pub const META_MAGIC: [u8; 8] = *b"DTRLMET1";
/// Magic opening a sealed-segment trailer.
pub const TRAILER_MAGIC: [u8; 8] = *b"DTRLSEAL";

/// Record kind: one log leaf (`index:u64 ‖ data`).
pub const REC_LEAF: u8 = 1;
/// Record kind: a checkpoint (`size:u64 ‖ right-edge digests`).
pub const REC_CHECKPOINT: u8 = 2;

/// Bytes in a segment or meta header.
pub const HEADER_LEN: usize = 32;
/// Bytes in a sealed-segment trailer.
pub const TRAILER_LEN: usize = 20;
/// Framing overhead per record (kind + length + CRC).
pub const RECORD_OVERHEAD: usize = 9;
/// Most right-edge digests a checkpoint can carry (a 64-bit size has at
/// most 64 set bits); also the allocation cap when decoding one.
pub const MAX_RIGHT_EDGE: usize = 64;

/// Decoding errors for segment structures. During recovery every variant
/// means the same thing — "stop trusting the bytes here" — the variants
/// exist for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// Input ended before the structure was complete (a torn write).
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// CRC mismatch (bit rot or a torn write).
    BadCrc,
    /// Structurally valid but semantically inconsistent.
    Invalid(&'static str),
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
/// guarding every header, record, and trailer. Hand-rolled because the
/// workspace builds offline with no checksum crate baked in.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        let idx = ((crc ^ b as u32) & 0xff) as usize;
        // The index is masked to 0..=255, but stay structurally in-bounds.
        crc = (crc >> 8) ^ TABLE.get(idx).copied().unwrap_or(0);
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// The identifying fields of a segment header. `start_index` is the leaf
/// index of the segment's first record — recovery checks contiguity
/// across the segment chain with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Which chain of the directory the segment belongs to, from when a
    /// directory could hold several. Written 0 and required to be 0: the
    /// field stays so the header's bytes do not move.
    pub shard: u32,
    /// Position of this segment in the chain (0-based).
    pub segment_index: u64,
    /// Leaf index at which this segment starts.
    pub start_index: u64,
}

fn header_bytes(magic: &[u8; 8], header: &SegmentHeader) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(magic);
    out.extend_from_slice(&header.shard.to_le_bytes());
    out.extend_from_slice(&header.segment_index.to_le_bytes());
    out.extend_from_slice(&header.start_index.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Encodes a segment header ([`HEADER_LEN`] bytes).
pub fn encode_segment_header(header: &SegmentHeader) -> Vec<u8> {
    header_bytes(&SEGMENT_MAGIC, header)
}

/// Encodes the meta-log header ([`HEADER_LEN`] bytes).
pub fn encode_meta_header() -> Vec<u8> {
    header_bytes(
        &META_MAGIC,
        &SegmentHeader {
            shard: 0,
            segment_index: 0,
            start_index: 0,
        },
    )
}

fn read_u32(input: &[u8], at: usize) -> Result<u32, SegmentError> {
    let bytes = input
        .get(at..at + 4)
        .ok_or(SegmentError::Truncated)?
        .try_into()
        .map_err(|_| SegmentError::Truncated)?;
    Ok(u32::from_le_bytes(bytes))
}

fn read_u64(input: &[u8], at: usize) -> Result<u64, SegmentError> {
    let bytes = input
        .get(at..at + 8)
        .ok_or(SegmentError::Truncated)?
        .try_into()
        .map_err(|_| SegmentError::Truncated)?;
    Ok(u64::from_le_bytes(bytes))
}

fn decode_header(magic: &[u8; 8], input: &[u8]) -> Result<SegmentHeader, SegmentError> {
    let head = input.get(..HEADER_LEN).ok_or(SegmentError::Truncated)?;
    if head.get(..8) != Some(&magic[..]) {
        return Err(SegmentError::BadMagic);
    }
    let body = head.get(..HEADER_LEN - 4).ok_or(SegmentError::Truncated)?;
    if read_u32(head, HEADER_LEN - 4)? != crc32(body) {
        return Err(SegmentError::BadCrc);
    }
    Ok(SegmentHeader {
        shard: read_u32(head, 8)?,
        segment_index: read_u64(head, 12)?,
        start_index: read_u64(head, 20)?,
    })
}

/// Decodes and validates a segment header from the front of a file image.
pub fn decode_segment_header(input: &[u8]) -> Result<SegmentHeader, SegmentError> {
    decode_header(&SEGMENT_MAGIC, input)
}

/// Validates the meta-log header at the front of a file image.
pub fn decode_meta_header(input: &[u8]) -> Result<(), SegmentError> {
    decode_header(&META_MAGIC, input).map(|_| ())
}

/// Appends one framed record (`kind`, `payload`) to `out`.
pub fn encode_record(kind: u8, payload: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Decodes one record from the front of `input`, advancing it past the
/// record on success. The payload is borrowed — the announced length can
/// never drive an allocation, only a bounds-checked slice.
pub fn decode_record<'a>(input: &mut &'a [u8]) -> Result<(u8, &'a [u8]), SegmentError> {
    let kind = *input.first().ok_or(SegmentError::Truncated)?;
    let len = read_u32(input, 1)? as usize;
    let framed = input
        .get(
            ..RECORD_OVERHEAD
                .checked_add(len)
                .ok_or(SegmentError::Truncated)?,
        )
        .ok_or(SegmentError::Truncated)?;
    let body = framed.get(..5 + len).ok_or(SegmentError::Truncated)?;
    if read_u32(framed, 5 + len)? != crc32(body) {
        return Err(SegmentError::BadCrc);
    }
    let payload = body.get(5..).ok_or(SegmentError::Truncated)?;
    *input = input.get(framed.len()..).unwrap_or(&[]);
    Ok((kind, payload))
}

/// Encodes a [`REC_LEAF`] payload.
pub fn encode_leaf_payload(index: u64, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + data.len());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(data);
    out
}

/// Decodes a [`REC_LEAF`] payload into `(index, data)`.
pub fn decode_leaf_payload(payload: &[u8]) -> Result<(u64, &[u8]), SegmentError> {
    let index = read_u64(payload, 0)?;
    let data = payload.get(8..).ok_or(SegmentError::Truncated)?;
    Ok((index, data))
}

/// Encodes a [`REC_CHECKPOINT`] payload: the log size and its right-edge
/// subtree roots (see [`crate::merkle::MerkleLog::right_edge`]).
pub fn encode_checkpoint_payload(size: u64, right_edge: &[Digest]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + 32 * right_edge.len());
    out.extend_from_slice(&size.to_le_bytes());
    out.extend_from_slice(&(right_edge.len() as u32).to_le_bytes());
    for digest in right_edge {
        out.extend_from_slice(digest);
    }
    out
}

/// Decodes a [`REC_CHECKPOINT`] payload. The digest count must equal the
/// size's set-bit count (the only edge shape a size admits) — which also
/// caps it at [`MAX_RIGHT_EDGE`] before any allocation happens.
pub fn decode_checkpoint_payload(payload: &[u8]) -> Result<(u64, Vec<Digest>), SegmentError> {
    let size = read_u64(payload, 0)?;
    let count = read_u32(payload, 8)? as usize;
    if count != size.count_ones() as usize || count > MAX_RIGHT_EDGE {
        return Err(SegmentError::Invalid("checkpoint edge shape"));
    }
    let mut edge = Vec::with_capacity(count.min(MAX_RIGHT_EDGE));
    let mut rest = payload.get(12..).ok_or(SegmentError::Truncated)?;
    for _ in 0..count.min(MAX_RIGHT_EDGE) {
        let digest: Digest = rest
            .get(..32)
            .ok_or(SegmentError::Truncated)?
            .try_into()
            .map_err(|_| SegmentError::Truncated)?;
        edge.push(digest);
        rest = rest.get(32..).unwrap_or(&[]);
    }
    if !rest.is_empty() {
        return Err(SegmentError::Invalid("checkpoint trailing bytes"));
    }
    Ok((size, edge))
}

/// Encodes a sealed-segment trailer pointing at the file offset of the
/// segment's final checkpoint record.
pub fn encode_trailer(checkpoint_offset: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(TRAILER_LEN);
    out.extend_from_slice(&TRAILER_MAGIC);
    out.extend_from_slice(&checkpoint_offset.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes a trailer from exactly [`TRAILER_LEN`] bytes, returning the
/// checkpoint offset it points at.
pub fn decode_trailer(input: &[u8]) -> Result<u64, SegmentError> {
    if input.len() != TRAILER_LEN {
        return Err(SegmentError::Truncated);
    }
    if input.get(..8) != Some(TRAILER_MAGIC.as_slice()) {
        return Err(SegmentError::BadMagic);
    }
    let body = input
        .get(..TRAILER_LEN - 4)
        .ok_or(SegmentError::Truncated)?;
    if read_u32(input, TRAILER_LEN - 4)? != crc32(body) {
        return Err(SegmentError::BadCrc);
    }
    read_u64(input, 8)
}

/// Everything recoverable from one segment file image: the leaves (in
/// order), the last in-file checkpoint, how many bytes were valid, and
/// whether the scan stopped early (`torn`) or ended at a sealed trailer.
#[derive(Debug, Clone)]
pub struct ScannedSegment {
    /// The validated header.
    pub header: SegmentHeader,
    /// Leaf contents, contiguous from `header.start_index`.
    pub leaves: Vec<Vec<u8>>,
    /// The last valid checkpoint in the file: `(size, right_edge)`.
    pub checkpoint: Option<(u64, Vec<Digest>)>,
    /// Bytes from the start of the file that survived validation —
    /// truncate the file here to repair a torn tail.
    pub valid_len: u64,
    /// True when the file ends in a valid trailer (rotation completed).
    pub sealed: bool,
    /// True when invalid bytes followed `valid_len`.
    pub torn: bool,
}

/// Scans one segment file image, stopping at the first invalid byte. A bad
/// header fails the whole scan ([`Err`]); a bad record merely ends it
/// (`torn` set, earlier records kept). Leaf records must be contiguous
/// from `header.start_index` and checkpoints must describe exactly the
/// leaves scanned so far — violations end the scan at the offending
/// record, exactly like a CRC failure.
pub fn scan_segment(bytes: &[u8]) -> Result<ScannedSegment, SegmentError> {
    let header = decode_segment_header(bytes)?;
    let mut scanned = ScannedSegment {
        header,
        leaves: Vec::new(),
        checkpoint: None,
        valid_len: HEADER_LEN as u64,
        sealed: false,
        torn: false,
    };
    let mut rest = bytes.get(HEADER_LEN..).unwrap_or(&[]);
    let mut checkpoint_offset: Option<u64> = None;
    loop {
        if rest.is_empty() {
            return Ok(scanned);
        }
        // A sealed segment ends with a trailer pointing back at its final
        // checkpoint record; try that interpretation exactly at the end.
        if rest.len() == TRAILER_LEN {
            if let Ok(offset) = decode_trailer(rest) {
                if checkpoint_offset == Some(offset) {
                    scanned.valid_len = bytes.len() as u64;
                    scanned.sealed = true;
                    return Ok(scanned);
                }
            }
        }
        let record_offset = (bytes.len() - rest.len()) as u64;
        let mut cursor = rest;
        let parsed = decode_record(&mut cursor).and_then(|(kind, payload)| match kind {
            REC_LEAF => {
                let (index, data) = decode_leaf_payload(payload)?;
                if index != header.start_index + scanned.leaves.len() as u64 {
                    return Err(SegmentError::Invalid("leaf index gap"));
                }
                scanned.leaves.push(data.to_vec());
                Ok(())
            }
            REC_CHECKPOINT => {
                let (size, edge) = decode_checkpoint_payload(payload)?;
                if size != header.start_index + scanned.leaves.len() as u64 {
                    return Err(SegmentError::Invalid("checkpoint size mismatch"));
                }
                scanned.checkpoint = Some((size, edge));
                checkpoint_offset = Some(record_offset);
                Ok(())
            }
            _ => Err(SegmentError::Invalid("unknown record kind")),
        });
        match parsed {
            Ok(()) => {
                rest = cursor;
                scanned.valid_len = (bytes.len() - rest.len()) as u64;
            }
            Err(_) => {
                scanned.torn = true;
                return Ok(scanned);
            }
        }
    }
}

/// The valid prefix of a meta-log file image: records in order, the byte
/// length that survived validation, and whether a torn tail follows. A
/// missing or invalid header yields the empty result with `torn` set (the
/// file is rewritten from scratch), never an error.
#[derive(Debug, Clone, Default)]
pub struct ScannedMeta {
    /// `(kind, payload)` records in file order.
    pub records: Vec<(u8, Vec<u8>)>,
    /// Bytes from the start of the file that survived validation.
    pub valid_len: u64,
    /// True when invalid bytes followed `valid_len`.
    pub torn: bool,
}

/// Scans a meta-log file image, stopping at the first invalid byte.
pub fn scan_meta(bytes: &[u8]) -> ScannedMeta {
    let mut scanned = ScannedMeta::default();
    if decode_meta_header(bytes).is_err() {
        scanned.torn = !bytes.is_empty();
        return scanned;
    }
    scanned.valid_len = HEADER_LEN as u64;
    let mut rest = bytes.get(HEADER_LEN..).unwrap_or(&[]);
    while !rest.is_empty() {
        let mut cursor = rest;
        match decode_record(&mut cursor) {
            Ok((kind, payload)) => {
                scanned.records.push((kind, payload.to_vec()));
                rest = cursor;
                scanned.valid_len = (bytes.len() - rest.len()) as u64;
            }
            Err(_) => {
                scanned.torn = true;
                break;
            }
        }
    }
    scanned
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn header_round_trips_and_rejects_tampering() {
        let header = SegmentHeader {
            shard: 3,
            segment_index: 17,
            start_index: 4242,
        };
        let bytes = encode_segment_header(&header);
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(decode_segment_header(&bytes), Ok(header));
        // Any flipped bit fails the CRC (or the magic).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1;
            assert!(decode_segment_header(&bad).is_err(), "byte {i}");
        }
        // Truncation at every length fails cleanly.
        for n in 0..bytes.len() {
            assert_eq!(
                decode_segment_header(&bytes[..n]),
                Err(SegmentError::Truncated)
            );
        }
        assert_eq!(
            decode_header(&META_MAGIC, &bytes),
            Err(SegmentError::BadMagic)
        );
    }

    #[test]
    fn record_round_trips_and_rejects_corruption() {
        let mut buf = Vec::new();
        encode_record(REC_LEAF, b"payload", &mut buf);
        let mut input = buf.as_slice();
        assert_eq!(
            decode_record(&mut input),
            Ok((REC_LEAF, b"payload".as_slice()))
        );
        assert!(input.is_empty());
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            let mut input = bad.as_slice();
            assert!(decode_record(&mut input).is_err(), "byte {i}");
        }
        for n in 0..buf.len() {
            let mut input = &buf[..n];
            assert_eq!(
                decode_record(&mut input),
                Err(SegmentError::Truncated),
                "len {n}"
            );
        }
    }

    #[test]
    fn record_length_bomb_is_truncation_not_allocation() {
        // A record announcing u32::MAX payload bytes in a short buffer
        // must fail bounds checks; nothing may allocate from the length.
        let mut bomb = vec![REC_LEAF];
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        bomb.extend_from_slice(&[0xAA; 64]);
        let mut input = bomb.as_slice();
        assert_eq!(decode_record(&mut input), Err(SegmentError::Truncated));
    }

    #[test]
    fn checkpoint_payload_shape_is_enforced() {
        let edge = vec![[1u8; 32], [2u8; 32], [3u8; 32]];
        // size 7 has three set bits — matches.
        let payload = encode_checkpoint_payload(7, &edge);
        assert_eq!(decode_checkpoint_payload(&payload), Ok((7, edge.clone())));
        // size 8 has one set bit — a three-digest edge is rejected.
        let payload = encode_checkpoint_payload(8, &edge);
        assert_eq!(
            decode_checkpoint_payload(&payload),
            Err(SegmentError::Invalid("checkpoint edge shape"))
        );
        // An announced count larger than the bytes present cannot allocate.
        let mut bomb = 0xFFFF_FFFF_FFFF_FFFFu64.to_le_bytes().to_vec();
        bomb.extend_from_slice(&64u32.to_le_bytes());
        assert_eq!(
            decode_checkpoint_payload(&bomb),
            Err(SegmentError::Truncated)
        );
        // Trailing bytes after the digests are rejected.
        let mut padded = encode_checkpoint_payload(7, &edge);
        padded.push(0);
        assert!(decode_checkpoint_payload(&padded).is_err());
    }

    #[test]
    fn trailer_round_trips() {
        let bytes = encode_trailer(12345);
        assert_eq!(bytes.len(), TRAILER_LEN);
        assert_eq!(decode_trailer(&bytes), Ok(12345));
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 2;
            assert!(decode_trailer(&bad).is_err(), "byte {i}");
        }
        assert!(decode_trailer(&bytes[..TRAILER_LEN - 1]).is_err());
    }

    fn sample_segment(sealed: bool) -> Vec<u8> {
        let header = SegmentHeader {
            shard: 0,
            segment_index: 0,
            start_index: 0,
        };
        let mut bytes = encode_segment_header(&header);
        for i in 0..4u64 {
            encode_record(
                REC_LEAF,
                &encode_leaf_payload(i, format!("leaf-{i}").as_bytes()),
                &mut bytes,
            );
        }
        if sealed {
            let offset = bytes.len() as u64;
            let edge = {
                let mut log = crate::merkle::MerkleLog::new();
                for i in 0..4u64 {
                    log.append(format!("leaf-{i}").as_bytes());
                }
                log.right_edge()
            };
            encode_record(
                REC_CHECKPOINT,
                &encode_checkpoint_payload(4, &edge),
                &mut bytes,
            );
            bytes.extend_from_slice(&encode_trailer(offset));
        }
        bytes
    }

    #[test]
    fn scan_reads_back_leaves_and_seal() {
        let open = sample_segment(false);
        let scanned = scan_segment(&open).unwrap();
        assert_eq!(scanned.leaves.len(), 4);
        assert_eq!(scanned.leaves[2], b"leaf-2");
        assert!(!scanned.sealed && !scanned.torn);
        assert_eq!(scanned.valid_len, open.len() as u64);

        let sealed = sample_segment(true);
        let scanned = scan_segment(&sealed).unwrap();
        assert!(scanned.sealed && !scanned.torn);
        assert_eq!(scanned.checkpoint.as_ref().unwrap().0, 4);
        assert_eq!(scanned.valid_len, sealed.len() as u64);
    }

    #[test]
    fn scan_truncates_at_every_offset_without_panicking() {
        for sealed in [false, true] {
            let bytes = sample_segment(sealed);
            for n in 0..bytes.len() {
                let prefix = &bytes[..n];
                match scan_segment(prefix) {
                    Ok(s) => {
                        assert!(s.valid_len <= n as u64);
                        assert!(s.leaves.len() <= 4);
                    }
                    Err(_) => assert!(n < HEADER_LEN, "only a torn header may fail (n={n})"),
                }
            }
        }
    }

    #[test]
    fn scan_stops_at_bit_flips_keeping_the_prefix() {
        let bytes = sample_segment(true);
        for i in HEADER_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            let scanned = scan_segment(&bad).unwrap();
            // Whatever survives is a clean prefix of the original leaves.
            for (j, leaf) in scanned.leaves.iter().enumerate() {
                assert_eq!(leaf, format!("leaf-{j}").as_bytes(), "flip at {i}");
            }
            assert!(scanned.valid_len <= bytes.len() as u64);
        }
    }

    #[test]
    fn scan_rejects_index_gaps_and_alien_kinds() {
        let header = SegmentHeader {
            shard: 0,
            segment_index: 0,
            start_index: 10,
        };
        let mut bytes = encode_segment_header(&header);
        encode_record(REC_LEAF, &encode_leaf_payload(10, b"ok"), &mut bytes);
        let good_len = bytes.len() as u64;
        // A leaf skipping an index ends the scan even with a valid CRC.
        encode_record(REC_LEAF, &encode_leaf_payload(12, b"gap"), &mut bytes);
        let scanned = scan_segment(&bytes).unwrap();
        assert_eq!(scanned.leaves.len(), 1);
        assert_eq!(scanned.valid_len, good_len);
        assert!(scanned.torn);
        // Same for an unknown record kind.
        let mut bytes = encode_segment_header(&header);
        encode_record(0x77, b"???", &mut bytes);
        let scanned = scan_segment(&bytes).unwrap();
        assert!(scanned.torn && scanned.leaves.is_empty());
    }

    #[test]
    fn meta_scan_survives_any_prefix() {
        let mut bytes = encode_meta_header();
        encode_record(1, b"genesis", &mut bytes);
        encode_record(3, b"notice", &mut bytes);
        let full = scan_meta(&bytes);
        assert_eq!(full.records.len(), 2);
        assert!(!full.torn);
        for n in 0..bytes.len() {
            let scanned = scan_meta(&bytes[..n]);
            assert!(scanned.records.len() <= 2);
            assert!(scanned.valid_len <= n as u64);
        }
        // Garbage never panics and keeps nothing.
        let garbage = vec![0xEE; 100];
        let scanned = scan_meta(&garbage);
        assert!(scanned.records.is_empty() && scanned.torn);
    }
}
