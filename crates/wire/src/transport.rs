//! Message transport over real TCP loopback sockets.
//!
//! Every hop in the deployment — client ↔ trust domain, enclave host ↔
//! framework, framework ↔ sandboxed app — sends and receives byte
//! messages over [`TcpTransport`] (real sockets, real syscalls — what
//! Table 3 measures). The [`Transport`] trait has that one impl; it stays
//! only because the benchmark harness (`e2e/src/probes.rs`) imports it to
//! reach `send` and `recv` (ROADMAP item 17).

use crate::frame::{write_frame, FrameError, SCRATCH_LEN};
use crate::frame_nb::FrameReader;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};

/// Transport-level errors.
#[derive(Debug)]
pub enum TransportError {
    /// Framing or socket failure.
    Frame(FrameError),
    /// The peer disconnected.
    Disconnected,
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Frame(e) => write!(f, "transport frame error: {e}"),
            Self::Disconnected => write!(f, "peer disconnected"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Closed => TransportError::Disconnected,
            other => TransportError::Frame(other),
        }
    }
}

/// A bidirectional, message-oriented byte transport: send one message,
/// block until one arrives. A caller that must not wait without a bound —
/// every client of a trust domain — waits on the socket in
/// [`crate::sys::wait`] and reads with [`TcpTransport::recv_ready`].
pub trait Transport: Send {
    /// Sends one message.
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError>;
    /// Blocks until one message arrives.
    fn recv(&mut self) -> Result<Vec<u8>, TransportError>;
}

/// A [`Transport`] over a connected TCP stream.
///
/// Reads go through a resumable [`FrameReader`], so a read that ends
/// mid-frame leaves the half frame buffered and the next receive picks it
/// up — the stream never desynchronises. Its socket ([`AsRawFd`]) can be
/// waited on beside others, and [`Self::recv_ready`] then reads only what
/// the wait reported.
pub struct TcpTransport {
    stream: TcpStream,
    reader: FrameReader,
    /// Complete frames decoded ahead of the caller (one `read` can
    /// complete several small frames).
    ready: VecDeque<Vec<u8>>,
    scratch: Vec<u8>,
}

impl TcpTransport {
    /// Wraps a connected stream. Disables Nagle so small request/response
    /// frames are not delayed — the workload is RPC-shaped.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            ready: VecDeque::new(),
            scratch: vec![0u8; SCRATCH_LEN],
        })
    }

    /// Connects to a listener.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::new(TcpStream::connect(addr)?)
    }

    /// Returns a frame already decoded, without touching the socket; when
    /// there is none and `readable` (the caller's [`crate::sys::wait`]
    /// reported this socket), makes one `read` and returns the first frame
    /// it completed. `Ok(None)`: no complete frame yet, and any partial one
    /// stays buffered. Never a second read: on this blocking socket, it
    /// could wait for bytes that are not coming.
    pub fn recv_ready(&mut self, readable: bool) -> Result<Option<Vec<u8>>, TransportError> {
        if self.ready.is_empty() && readable {
            self.read_once()?;
        }
        Ok(self.ready.pop_front())
    }

    /// One `read` of the socket (blocking until it has bytes), decoded into
    /// `ready`.
    fn read_once(&mut self) -> Result<(), TransportError> {
        loop {
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Err(self.reader.eof().into()),
                Ok(n) => {
                    let mut out = Vec::new();
                    let fed = self.reader.feed(&self.scratch[..n], &mut out);
                    self.ready.extend(out);
                    return fed.map_err(TransportError::from);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TransportError::Frame(FrameError::Io(e))),
            }
        }
    }
}

impl AsRawFd for TcpTransport {
    fn as_raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        write_frame(&mut self.stream, payload)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        loop {
            if let Some(frame) = self.ready.pop_front() {
                return Ok(frame);
            }
            self.read_once()?;
        }
    }
}

/// Soft open-file limit of this process, if discoverable (Linux
/// `/proc/self/limits`). Load tests and benches use it to size loopback
/// connection counts: each in-process client costs two descriptors, the
/// client socket and the accepted socket.
pub fn max_open_files() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::{self, PollFd};
    use std::net::TcpListener;
    use std::thread;
    use std::time::Duration;

    fn listen() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    fn accept(listener: &TcpListener) -> TcpTransport {
        TcpTransport::new(listener.accept().unwrap().0).unwrap()
    }

    #[test]
    fn tcp_round_trip() {
        let (listener, addr) = listen();
        let server = thread::spawn(move || {
            let mut t = accept(&listener);
            let msg = t.recv().unwrap();
            t.send(&msg).unwrap(); // echo
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        client.send(b"echo me").unwrap();
        assert_eq!(client.recv().unwrap(), b"echo me");
        server.join().unwrap();
    }

    #[test]
    fn tcp_close_detected() {
        let (listener, addr) = listen();
        let server = thread::spawn(move || {
            let _t = accept(&listener);
            // Drop immediately.
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        server.join().unwrap();
        assert!(matches!(client.recv(), Err(TransportError::Disconnected)));
    }

    /// The peer closes after `bytes` and the client's next receive says
    /// what that close means.
    fn recv_after_close(bytes: &'static [u8]) -> Result<Vec<u8>, TransportError> {
        let (listener, addr) = listen();
        let server = thread::spawn(move || {
            use std::io::Write;
            let (mut raw, _) = listener.accept().unwrap();
            raw.write_all(bytes).unwrap();
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        server.join().unwrap();
        client.recv()
    }

    fn is_torn(result: Result<Vec<u8>, TransportError>) -> bool {
        matches!(
            result,
            Err(TransportError::Frame(FrameError::Io(e)))
                if e.kind() == std::io::ErrorKind::UnexpectedEof
        )
    }

    #[test]
    fn tcp_eof_inside_a_header_is_a_torn_frame() {
        assert!(is_torn(recv_after_close(&[5, 0])));
    }

    #[test]
    fn tcp_eof_inside_a_payload_is_a_torn_frame() {
        assert!(is_torn(recv_after_close(&[5, 0, 0, 0, b'a', b'b'])));
    }

    /// Whether `transport`'s socket has bytes to read right now.
    fn readable(transport: &TcpTransport) -> bool {
        let mut fds = [PollFd::new(transport.as_raw_fd(), sys::READ)];
        sys::wait(&mut fds, Some(Duration::from_secs(5))).unwrap() == 1
    }

    #[test]
    fn tcp_recv_ready_preserves_partial_frames() {
        let (listener, addr) = listen();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let server = thread::spawn(move || {
            let (mut raw, _) = listener.accept().unwrap();
            raw.set_nodelay(true).unwrap();
            // Send half a frame (header + partial payload), then stall
            // until the client has read it, then finish it.
            let payload = vec![0x5au8; 100];
            let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(&payload);
            use std::io::Write;
            raw.write_all(&wire[..40]).unwrap();
            raw.flush().unwrap();
            started_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            raw.write_all(&wire[40..]).unwrap();
            raw.flush().unwrap();
            // Keep the socket alive until the client is done.
            go_rx.recv().ok();
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        started_rx.recv().unwrap();
        // The socket is ready, but its one read ends mid-frame: nothing
        // comes back, and the buffered half is kept.
        assert!(readable(&client));
        assert!(client.recv_ready(true).unwrap().is_none());
        // Nothing is decoded, so an unreported socket is not read.
        assert!(client.recv_ready(false).unwrap().is_none());
        go_tx.send(()).unwrap();
        // The completed frame arrives intact — no desynchronisation.
        assert!(readable(&client));
        assert_eq!(client.recv_ready(true).unwrap(), Some(vec![0x5au8; 100]));
        drop(go_tx);
        server.join().unwrap();
    }

    #[test]
    fn tcp_recv_ready_returns_decoded_frames_without_a_read() {
        let (listener, addr) = listen();
        let (written_tx, written_rx) = std::sync::mpsc::channel();
        let server = thread::spawn(move || {
            let (mut raw, _) = listener.accept().unwrap();
            // Two frames in one write: one read completes both.
            let mut wire = Vec::new();
            for payload in [&b"first"[..], b"second"] {
                wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                wire.extend_from_slice(payload);
            }
            use std::io::Write;
            raw.write_all(&wire).unwrap();
            written_tx.send(()).unwrap();
            let _ = raw.read(&mut [0u8; 1]); // park until the client closes
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        written_rx.recv().unwrap();
        assert!(readable(&client));
        assert_eq!(client.recv_ready(true).unwrap(), Some(b"first".to_vec()));
        // The second frame was decoded by the same read: it comes back
        // although the caller reports nothing, and the socket is drained.
        assert_eq!(client.recv_ready(false).unwrap(), Some(b"second".to_vec()));
        let mut fds = [PollFd::new(client.as_raw_fd(), sys::READ)];
        assert_eq!(sys::wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn large_message_over_tcp() {
        let (listener, addr) = listen();
        let payload = vec![0xabu8; 1_000_000];
        let expected = payload.clone();
        let server = thread::spawn(move || {
            let mut t = accept(&listener);
            let got = t.recv().unwrap();
            assert_eq!(got.len(), 1_000_000);
            t.send(&got[..10]).unwrap();
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        client.send(&payload).unwrap();
        assert_eq!(client.recv().unwrap(), &expected[..10]);
        server.join().unwrap();
    }
}
