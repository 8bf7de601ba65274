//! Message transport over real TCP loopback sockets.
//!
//! Every hop in the deployment — client ↔ trust domain, enclave host ↔
//! framework, framework ↔ sandboxed app — speaks "send a byte message /
//! receive a byte message" through the [`Transport`] trait. All traffic
//! uses [`TcpTransport`] (real sockets, real syscalls — what Table 3
//! measures); the trait exists so the pipeline tests can substitute an
//! in-process fake.

use crate::frame::{write_frame, FrameError, SCRATCH_LEN};
use crate::frame_nb::FrameReader;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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

/// A bidirectional, message-oriented byte transport.
pub trait Transport: Send {
    /// Sends one message.
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError>;
    /// Blocks until one message arrives.
    fn recv(&mut self) -> Result<Vec<u8>, TransportError>;
    /// Waits at most `timeout` for one message. `Ok(None)` means the
    /// timeout elapsed with no complete message; any partially received
    /// bytes are retained, so a later `recv`/`recv_timeout` resumes where
    /// this one left off (quorum fan-out polls several transports in
    /// rounds without losing frame synchronisation).
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportError>;
}

/// A [`Transport`] over a connected TCP stream.
///
/// Reads go through a resumable [`FrameReader`], so a timed-out
/// [`Transport::recv_timeout`] can leave half a frame buffered and the next
/// receive picks it up — the stream never desynchronises.
pub struct TcpTransport {
    stream: TcpStream,
    reader: FrameReader,
    /// Complete frames decoded ahead of the caller (one `read` can
    /// complete several small frames).
    ready: VecDeque<Vec<u8>>,
    scratch: Vec<u8>,
    /// What the socket's read timeout is currently set to, so a receive
    /// costs a `setsockopt` only when it wants a different timeout than
    /// the last one.
    timeout: Option<Duration>,
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
            timeout: None,
        })
    }

    /// Connects to a listener.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::new(TcpStream::connect(addr)?)
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        if timeout != self.timeout {
            self.stream
                .set_read_timeout(timeout)
                .map_err(|e| TransportError::Frame(FrameError::Io(e)))?;
            self.timeout = timeout;
        }
        Ok(())
    }

    /// Reads until a complete frame is available. `timed` controls whether
    /// a `WouldBlock`/`TimedOut` read surfaces as `Ok(None)` (the socket
    /// read timeout expired) or is treated as an error.
    fn fill_one(&mut self, timed: bool) -> Result<Option<Vec<u8>>, TransportError> {
        loop {
            if let Some(frame) = self.ready.pop_front() {
                return Ok(Some(frame));
            }
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Err(self.reader.eof().into()),
                Ok(n) => {
                    let mut out = Vec::new();
                    let fed = self.reader.feed(&self.scratch[..n], &mut out);
                    self.ready.extend(out);
                    fed?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if timed
                        && (e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(TransportError::Frame(FrameError::Io(e))),
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        write_frame(&mut self.stream, payload)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.set_timeout(None)?;
        // An untimed `fill_one` only returns `Ok(None)` if the socket
        // still had a stale read timeout configured; looping (rather than
        // unwrapping) keeps this path panic-free either way.
        loop {
            if let Some(frame) = self.fill_one(false)? {
                return Ok(frame);
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportError> {
        if let Some(frame) = self.ready.pop_front() {
            return Ok(Some(frame));
        }
        // A zero timeout would mean "blocking" to the OS; clamp up.
        self.set_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        self.fill_one(true)
    }
}

/// In-process transport half over `std::sync::mpsc` channels: the fake
/// the pipeline tests substitute for a socket.
#[cfg(test)]
pub(crate) struct ChannelTransport {
    tx: std::sync::mpsc::Sender<Vec<u8>>,
    rx: std::sync::mpsc::Receiver<Vec<u8>>,
}

#[cfg(test)]
impl ChannelTransport {
    /// Creates a connected pair of endpoints.
    pub(crate) fn pair() -> (ChannelTransport, ChannelTransport) {
        let (tx_a, rx_a) = std::sync::mpsc::channel();
        let (tx_b, rx_b) = std::sync::mpsc::channel();
        (
            ChannelTransport { tx: tx_a, rx: rx_b },
            ChannelTransport { tx: tx_b, rx: rx_a },
        )
    }
}

#[cfg(test)]
impl Transport for ChannelTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.tx
            .send(payload.to_vec())
            .map_err(|_| TransportError::Disconnected)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.rx.recv().map_err(|_| TransportError::Disconnected)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => Ok(Some(msg)),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                Err(TransportError::Disconnected)
            }
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
    use std::net::TcpListener;
    use std::thread;

    fn listen() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    fn accept(listener: &TcpListener) -> TcpTransport {
        TcpTransport::new(listener.accept().unwrap().0).unwrap()
    }

    #[test]
    fn channel_pair_round_trip() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap(), b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap(), b"pong");
    }

    #[test]
    fn channel_disconnect_detected() {
        let (mut a, b) = ChannelTransport::pair();
        drop(b);
        assert!(matches!(a.recv(), Err(TransportError::Disconnected)));
        assert!(matches!(
            a.send(b"into the void"),
            Err(TransportError::Disconnected)
        ));
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

    #[test]
    fn tcp_recv_timeout_preserves_partial_frames() {
        let (listener, addr) = listen();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let server = thread::spawn(move || {
            let (mut raw, _) = listener.accept().unwrap();
            raw.set_nodelay(true).unwrap();
            // Send half a frame (header + partial payload), then stall
            // until the client has observed a timeout, then finish it.
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
        // Times out mid-frame without losing the buffered half.
        assert!(client
            .recv_timeout(Duration::from_millis(20))
            .unwrap()
            .is_none());
        go_tx.send(()).unwrap();
        // The completed frame arrives intact — no desynchronisation.
        assert_eq!(client.recv().unwrap(), vec![0x5au8; 100]);
        drop(go_tx);
        server.join().unwrap();
    }

    #[test]
    fn tcp_recv_timeout_returns_buffered_frames_immediately() {
        let (listener, addr) = listen();
        let server = thread::spawn(move || {
            let mut t = accept(&listener);
            // Two frames in one burst: one read may complete both.
            t.send(b"first").unwrap();
            t.send(b"second").unwrap();
            let _ = t.recv(); // park until the client closes
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(b"first".to_vec())
        );
        assert_eq!(
            client.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(b"second".to_vec())
        );
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn kept_timeout_follows_the_socket() {
        let (listener, addr) = listen();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let server = thread::spawn(move || {
            let mut t = accept(&listener);
            go_rx.recv().unwrap();
            t.send(b"late").unwrap();
            go_rx.recv().ok();
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        let wait = Duration::from_millis(5);
        for _ in 0..2 {
            assert!(client.recv_timeout(wait).unwrap().is_none());
            assert_eq!(client.timeout, Some(wait));
            assert!(client.stream.read_timeout().unwrap().is_some());
        }
        go_tx.send(()).unwrap();
        assert_eq!(client.recv().unwrap(), b"late");
        assert_eq!(client.timeout, None);
        assert_eq!(client.stream.read_timeout().unwrap(), None);
        drop(go_tx);
        server.join().unwrap();
    }

    #[test]
    fn channel_recv_timeout() {
        let (mut a, mut b) = ChannelTransport::pair();
        assert!(a.recv_timeout(Duration::from_millis(5)).unwrap().is_none());
        b.send(b"hello").unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(1)).unwrap(),
            Some(b"hello".to_vec())
        );
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
