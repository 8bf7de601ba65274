//! Length-prefixed message framing over byte streams.
//!
//! The protocol the paper's evaluation measures is socket-based: the client
//! talks to the framework over one socket and the framework talks to the
//! sandboxed application over another (§5 attributes the TEE overhead to
//! exactly these two hops). Frames here are the unit travelling over each
//! hop: `u32` little-endian length, then that many payload bytes.
//!
//! Framing is deliberately dumb — no compression, no multiplexing — in the
//! smoltcp spirit of simplicity and robustness. Frames are written here and
//! read by the one decoder, [`FrameReader`](crate::FrameReader).

use std::io::{IoSlice, Write};

/// Maximum frame size accepted (16 MiB), matching the codec's collection cap.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// A decoder reserves at most this many payload bytes ahead of the bytes a
/// peer has delivered, so a peer announcing a huge frame cannot force a
/// large allocation before it has actually sent the bytes.
pub const READ_CHUNK: usize = 64 * 1024;

/// The wire's one read-buffer size: what a reactor thread or a
/// [`TcpTransport`](crate::TcpTransport) asks the socket for per `read`.
pub(crate) const SCRATCH_LEN: usize = 16 * 1024;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame_nb::FrameReader;

    /// Reads a whole stream through the one decoder, in socket-read-sized
    /// pieces, and returns its frames and what its end means (the way
    /// [`TcpTransport`](crate::TcpTransport) ends one).
    fn read_all(stream: &[u8]) -> (Vec<Vec<u8>>, FrameError) {
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        for piece in stream.chunks(SCRATCH_LEN) {
            if let Err(e) = reader.feed(piece, &mut frames) {
                return (frames, e);
            }
        }
        (frames, reader.eof())
    }

    fn is_torn(end: &FrameError) -> bool {
        matches!(end, FrameError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof)
    }

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[9u8; 1000]).unwrap();
        let (frames, end) = read_all(&buf);
        assert_eq!(frames, [b"hello".to_vec(), Vec::new(), vec![9u8; 1000]]);
        assert!(matches!(end, FrameError::Closed));
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
        let (frames, end) = read_all(&u32::MAX.to_le_bytes());
        assert!(frames.is_empty());
        assert!(matches!(end, FrameError::Oversized(_)));
    }

    #[test]
    fn torn_header_is_io_error() {
        let (frames, end) = read_all(&[1u8, 0]);
        assert!(frames.is_empty());
        assert!(is_torn(&end), "{end}");
    }

    #[test]
    fn chunked_read_reassembles_multi_chunk_frame() {
        let payload: Vec<u8> = (0..READ_CHUNK * 2 + 17).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let (frames, end) = read_all(&buf);
        assert_eq!(frames, [payload]);
        assert!(matches!(end, FrameError::Closed));
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
            assert_eq!(read_all(&writer.data).0, [payload]);
        }
    }

    #[test]
    fn partial_writes_resume() {
        let payload: Vec<u8> = (0..100u8).collect();
        let mut writer = CountingWriter::new(3);
        write_frame(&mut writer, &payload).unwrap();
        assert_eq!(writer.writes, (4 + payload.len()).div_ceil(3));
        assert_eq!(read_all(&writer.data).0, [payload]);
    }

    #[test]
    fn torn_payload_is_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]); // only 3 of 10 payload bytes
        let (frames, end) = read_all(&buf);
        assert!(frames.is_empty());
        assert!(is_torn(&end), "{end}");
    }
}
