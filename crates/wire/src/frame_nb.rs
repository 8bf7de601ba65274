//! The wire's frame state machines: the one decoder, and the write queue
//! of the readiness event loop.
//!
//! A connection may be readable for only part of a header, and a
//! non-blocking write may accept only part of a frame before `WouldBlock`.
//! These types carry the partial state across reads and readiness events:
//!
//! * [`FrameReader`] is fed whatever bytes the socket produced and emits
//!   zero or more complete frames per feed, buffering the rest. The reactor
//!   and [`TcpTransport`](crate::TcpTransport) both read through it.
//! * [`WriteBuf`] queues encoded frames and flushes as much as the socket
//!   will take, remembering its position for the next writable event.
//!
//! Both enforce [`MAX_FRAME_LEN`], and the reader grows a payload buffer
//! incrementally (never reserving more than [`READ_CHUNK`] ahead of the
//! bytes actually received) — the memory-amplification defence.

use crate::frame::{FrameError, MAX_FRAME_LEN, READ_CHUNK};
use std::io::Write;

/// Incremental decoder: bytes in, complete frames out.
pub struct FrameReader {
    header: [u8; 4],
    header_filled: usize,
    /// Announced payload length; valid only once the header is complete.
    payload_len: usize,
    payload: Vec<u8>,
    in_payload: bool,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// An empty reader, positioned at a frame boundary.
    pub fn new() -> Self {
        Self {
            header: [0u8; 4],
            header_filled: 0,
            payload_len: 0,
            payload: Vec::new(),
            in_payload: false,
        }
    }

    /// True when no partial frame is buffered (a clean close here is a
    /// clean close at a frame boundary).
    pub fn at_boundary(&self) -> bool {
        !self.in_payload && self.header_filled == 0
    }

    /// What the stream ending here means: [`FrameError::Closed`] at a
    /// frame boundary, a torn frame (`UnexpectedEof`) inside one.
    pub(crate) fn eof(&self) -> FrameError {
        if self.at_boundary() {
            FrameError::Closed
        } else {
            FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof inside frame",
            ))
        }
    }

    /// Consumes `data` (all of it), appending every frame completed by it
    /// to `out`. Returns an error if a header announces more than
    /// [`MAX_FRAME_LEN`]; the reader must be discarded afterwards.
    pub fn feed(&mut self, mut data: &[u8], out: &mut Vec<Vec<u8>>) -> Result<(), FrameError> {
        while !data.is_empty() {
            if !self.in_payload {
                let take = (4 - self.header_filled).min(data.len());
                let (head, rest) = data.split_at(take);
                for (dst, &src) in self.header.iter_mut().skip(self.header_filled).zip(head) {
                    *dst = src;
                }
                self.header_filled += take;
                data = rest;
                if self.header_filled < 4 {
                    return Ok(());
                }
                let len = u32::from_le_bytes(self.header) as usize;
                if len > MAX_FRAME_LEN {
                    return Err(FrameError::Oversized(len));
                }
                self.payload_len = len;
                self.payload = Vec::with_capacity(len.min(READ_CHUNK));
                self.in_payload = true;
            }
            let take = (self.payload_len - self.payload.len()).min(data.len());
            // Cap speculative growth: reserve for the received bytes only.
            let (chunk, rest) = data.split_at(take);
            self.payload.extend_from_slice(chunk);
            data = rest;
            if self.payload.len() == self.payload_len {
                out.push(std::mem::take(&mut self.payload));
                self.header_filled = 0;
                self.in_payload = false;
            }
        }
        Ok(())
    }
}

/// Outbound byte queue with a flush cursor that survives `WouldBlock`.
#[derive(Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    /// An empty write buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes queued but not yet accepted by the socket.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when everything queued has been flushed.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Encodes one frame (length prefix + payload) onto the queue.
    pub fn push_frame(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(payload.len()));
        }
        // Reclaim the flushed prefix before growing.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.reserve(4 + payload.len());
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(payload);
        Ok(())
    }

    /// Writes as much queued data as the writer accepts. Returns `Ok(true)`
    /// once the queue is empty, `Ok(false)` on `WouldBlock` (call again on
    /// the next writable event), and any other I/O error verbatim.
    pub fn flush<W: Write>(&mut self, writer: &mut W) -> std::io::Result<bool> {
        while self.pos < self.buf.len() {
            match writer.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;

    fn encode(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        buf
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let wire = encode(b"trickled");
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for b in &wire {
            reader.feed(std::slice::from_ref(b), &mut out).unwrap();
        }
        assert_eq!(out, vec![b"trickled".to_vec()]);
        assert!(reader.at_boundary());
    }

    #[test]
    fn many_frames_in_one_feed() {
        let mut wire = encode(b"one");
        wire.extend_from_slice(&encode(b""));
        wire.extend_from_slice(&encode(&[7u8; 300]));
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        reader.feed(&wire, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], b"one");
        assert_eq!(out[1], b"");
        assert_eq!(out[2], vec![7u8; 300]);
    }

    #[test]
    fn split_across_feeds_mid_header_and_mid_payload() {
        let wire = encode(&[0xaa; 100]);
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        reader.feed(&wire[..2], &mut out).unwrap(); // half a header
        assert!(out.is_empty());
        assert!(!reader.at_boundary());
        reader.feed(&wire[2..50], &mut out).unwrap(); // header + part payload
        assert!(out.is_empty());
        reader.feed(&wire[50..], &mut out).unwrap();
        assert_eq!(out, vec![vec![0xaa; 100]]);
    }

    #[test]
    fn oversized_header_rejected_before_payload() {
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        let bad = (u32::MAX).to_le_bytes();
        assert!(matches!(
            reader.feed(&bad, &mut out),
            Err(FrameError::Oversized(_))
        ));
    }

    /// A peer announcing [`MAX_FRAME_LEN`] and delivering 3 bytes makes the
    /// reader reserve at most one [`READ_CHUNK`], and its close is a torn
    /// frame.
    #[test]
    fn announced_large_frame_allocates_lazily() {
        let mut header = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        header.extend_from_slice(&[1, 2, 3]); // only 3 bytes ever arrive
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        reader.feed(&header, &mut out).unwrap();
        assert!(out.is_empty());
        assert!(
            reader.payload.capacity() <= READ_CHUNK,
            "capacity {} for 3 delivered bytes",
            reader.payload.capacity()
        );
        assert!(matches!(reader.eof(), FrameError::Io(_)));
    }

    /// A writer that accepts a fixed number of bytes per call, then blocks.
    struct Throttled {
        accepted: Vec<u8>,
        per_call: usize,
        calls_until_block: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.calls_until_block == 0 {
                self.calls_until_block = 1;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.calls_until_block -= 1;
            let n = buf.len().min(self.per_call);
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_resumes_after_would_block() {
        let mut wb = WriteBuf::new();
        wb.push_frame(b"hello world").unwrap();
        wb.push_frame(&[3u8; 50]).unwrap();
        let mut sink = Throttled {
            accepted: Vec::new(),
            per_call: 7,
            calls_until_block: 1,
        };
        let mut done = wb.flush(&mut sink).unwrap();
        while !done {
            done = wb.flush(&mut sink).unwrap();
        }
        assert!(wb.is_empty());
        let mut expected = encode(b"hello world");
        expected.extend_from_slice(&encode(&[3u8; 50]));
        assert_eq!(sink.accepted, expected);
    }

    #[test]
    fn write_buf_rejects_oversized() {
        let mut wb = WriteBuf::new();
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            wb.push_frame(&huge),
            Err(FrameError::Oversized(_))
        ));
        assert!(wb.is_empty());
    }

    #[test]
    fn round_trip_through_both_state_machines() {
        let payloads: Vec<Vec<u8>> = (0..20).map(|i| vec![i as u8; i * 37]).collect();
        let mut wb = WriteBuf::new();
        for p in &payloads {
            wb.push_frame(p).unwrap();
        }
        let mut wire = Vec::new();
        assert!(wb.flush(&mut wire).unwrap());
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        // Feed in ragged 13-byte slices.
        for chunk in wire.chunks(13) {
            reader.feed(chunk, &mut out).unwrap();
        }
        assert_eq!(out, payloads);
    }
}
