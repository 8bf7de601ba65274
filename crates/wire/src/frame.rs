//! Length-prefixed message framing over byte streams.
//!
//! The protocol the paper's evaluation measures is socket-based: the client
//! talks to the framework over one socket and the framework talks to the
//! sandboxed application over another (§5 attributes the TEE overhead to
//! exactly these two hops). Frames here are the unit travelling over each
//! hop: `u32` little-endian length, then that many payload bytes.
//!
//! Framing is deliberately dumb — no compression, no multiplexing — in the
//! smoltcp spirit of simplicity and robustness.

use std::io::{IoSlice, Read, Write};

/// Maximum frame size accepted (16 MiB), matching the codec's collection cap.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Payload bytes are read and buffered in chunks of at most this size, so a
/// peer announcing a huge frame cannot force a large allocation before it
/// has actually delivered the bytes.
pub const READ_CHUNK: usize = 64 * 1024;

/// Errors from frame I/O.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failed.
    Io(std::io::Error),
    /// Peer announced a frame larger than [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// Stream closed cleanly between frames.
    Closed,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "frame i/o error: {e}"),
            Self::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
            Self::Closed => write!(f, "stream closed"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix + payload) and flushes.
///
/// The prefix and the payload go to the writer in one vectored write, so
/// on a socket a frame is one `writev` — one segment with `TCP_NODELAY`,
/// one wake-up of the reader — rather than a 4-byte segment and then the
/// rest. A partial write resumes where it stopped.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(payload.len()));
    }
    let prefix = (payload.len() as u32).to_le_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match writer.write_vectored(unsent) {
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "writer accepted no frame bytes",
                )))
            }
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    writer.flush()?;
    Ok(())
}

/// Reads one frame. Returns [`FrameError::Closed`] on clean EOF at a frame
/// boundary; mid-frame EOF is an I/O error.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut len_bytes = [0u8; 4];
    // Distinguish clean close (0 bytes read) from torn frame.
    let mut filled = 0;
    while filled < 4 {
        let (_, unfilled) = len_bytes.split_at_mut(filled);
        match reader.read(unfilled) {
            Ok(0) => {
                if filled == 0 {
                    return Err(FrameError::Closed);
                }
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    // Grow the buffer by at most READ_CHUNK at a time: the announced length
    // is attacker-controlled, the delivered bytes are what we pay for.
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    while payload.len() < len {
        let take = (len - payload.len()).min(READ_CHUNK);
        let start = payload.len();
        payload.resize(start + take, 0);
        let (_, fresh) = payload.split_at_mut(start);
        reader.read_exact(fresh)?;
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[9u8; 1000]).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap(), b"");
        assert_eq!(read_frame(&mut cur).unwrap(), vec![9u8; 1000]);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_write_rejected() {
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &huge),
            Err(FrameError::Oversized(_))
        ));
        assert!(buf.is_empty(), "nothing written for rejected frame");
    }

    #[test]
    fn oversized_read_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn torn_header_is_io_error() {
        let mut cur = Cursor::new(vec![1u8, 0]);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Io(_))));
    }

    /// A reader that serves from a small buffer and records the largest
    /// destination buffer it was ever handed — a stand-in for "how much did
    /// `read_frame` allocate up front".
    struct TrackingReader {
        data: Vec<u8>,
        pos: usize,
        max_buf: usize,
    }

    impl Read for TrackingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.max_buf = self.max_buf.max(buf.len());
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn announced_16mib_with_3_bytes_fails_without_big_allocation() {
        // Header promises MAX_FRAME_LEN; only 3 payload bytes ever arrive.
        let mut data = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        data.extend_from_slice(&[1, 2, 3]);
        let mut reader = TrackingReader {
            data,
            pos: 0,
            max_buf: 0,
        };
        assert!(matches!(read_frame(&mut reader), Err(FrameError::Io(_))));
        assert!(
            reader.max_buf <= READ_CHUNK,
            "read buffer of {} bytes exceeds the {} byte chunk cap",
            reader.max_buf,
            READ_CHUNK
        );
    }

    #[test]
    fn chunked_read_reassembles_multi_chunk_frame() {
        let payload: Vec<u8> = (0..READ_CHUNK * 2 + 17).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut reader = TrackingReader {
            data: buf,
            pos: 0,
            max_buf: 0,
        };
        assert_eq!(read_frame(&mut reader).unwrap(), payload);
        assert!(reader.max_buf <= READ_CHUNK);
    }

    /// A writer that takes at most `limit` bytes per call, gathering
    /// across slices the way `writev` does, and counts its calls.
    struct CountingWriter {
        data: Vec<u8>,
        writes: usize,
        limit: usize,
    }

    impl CountingWriter {
        fn new(limit: usize) -> Self {
            Self {
                data: Vec::new(),
                writes: 0,
                limit,
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            let before = self.data.len();
            for buf in bufs {
                let take = buf.len().min(self.limit - (self.data.len() - before));
                self.data.extend_from_slice(&buf[..take]);
            }
            Ok(self.data.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_write_per_frame() {
        for payload in [&b""[..], b"hello", &[7u8; 5000]] {
            let mut writer = CountingWriter::new(usize::MAX);
            write_frame(&mut writer, payload).unwrap();
            assert_eq!(writer.writes, 1, "{}-byte payload", payload.len());
            let mut cur = Cursor::new(writer.data);
            assert_eq!(read_frame(&mut cur).unwrap(), payload);
        }
    }

    #[test]
    fn partial_writes_resume() {
        let payload: Vec<u8> = (0..100u8).collect();
        let mut writer = CountingWriter::new(3);
        write_frame(&mut writer, &payload).unwrap();
        assert_eq!(writer.writes, (4 + payload.len()).div_ceil(3));
        let mut cur = Cursor::new(writer.data);
        assert_eq!(read_frame(&mut cur).unwrap(), payload);
    }

    #[test]
    fn torn_payload_is_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]); // only 3 of 10 payload bytes
        let mut cur = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Io(_))));
    }
}
