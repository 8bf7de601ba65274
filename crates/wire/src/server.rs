//! The one server shape: a loopback listener whose accept loop hands every
//! connection to a [`Reactor`] pool serving plain length-prefixed frames.
//!
//! There is no envelope at this layer — the trust-domain protocol encodes
//! errors inside its own response messages — and a connection is answered
//! strictly in request order (the reactor queues one response per frame as
//! it completes them), which is what lets clients pipeline without tagging
//! frames at the wire level.

use crate::reactor::{FrameService, Reactor};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Accepts one connection, retrying through errors (EMFILE spikes, clients
/// racing RST) — they must not kill the listener. There is no give-up
/// threshold: an accept loop that quit after a burst of errors would leave
/// a zombie server object that looks alive but accepts nothing, with no way
/// for the host to notice. Instead retries back off exponentially (10 ms
/// doubling to a 500 ms ceiling) so a sustained storm, like fd exhaustion,
/// costs almost no CPU, yet the listener recovers within half a second of
/// the condition clearing. Returns `None` only once the stop flag is set.
///
/// Public because every accept loop in the workspace shares this
/// contract — [`FrameServer`] and the TEE enclave proxy retry through the
/// same helper instead of each growing its own subtly different
/// zombie-listener bug.
pub fn accept_with_retry<T>(
    label: &str,
    stop: &AtomicBool,
    consecutive_errors: &mut u32,
    mut accept: impl FnMut() -> std::io::Result<T>,
) -> Option<T> {
    loop {
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        match accept() {
            Ok(t) => {
                *consecutive_errors = 0;
                return Some(t);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                if stop.load(Ordering::SeqCst) {
                    return None;
                }
                *consecutive_errors = consecutive_errors.saturating_add(1);
                // Log the onset of a storm and a heartbeat thereafter, not
                // every retry.
                if *consecutive_errors <= 3 || consecutive_errors.is_multiple_of(100) {
                    eprintln!("{label}: accept error (retry #{consecutive_errors}): {e}");
                }
                let backoff_ms = (10u64 << (*consecutive_errors - 1).min(6)).min(500);
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
            }
        }
    }
}

/// A running frame server: one accept thread plus a small fixed pool of
/// reactor threads multiplexing every connection with non-blocking
/// sockets, so the whole server stays within a handful of OS threads
/// regardless of connection count.
pub struct FrameServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    reactor: Reactor,
}

impl FrameServer {
    /// Binds an ephemeral loopback listener and serves `service` on
    /// `reactor_threads` reactor threads until shutdown.
    pub fn spawn(service: FrameService, reactor_threads: usize) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let reactor = Reactor::spawn(service, reactor_threads)?;
        let handle = reactor.handle();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name(format!("wire-accept-{addr}"))
            .spawn(move || {
                let label = format!("wire-accept-{addr}");
                let mut consecutive_errors = 0u32;
                loop {
                    let Some(stream) =
                        accept_with_retry(&label, &stop_accept, &mut consecutive_errors, || {
                            listener.accept().map(|(s, _)| s)
                        })
                    else {
                        break;
                    };
                    if stop_accept.load(Ordering::SeqCst) {
                        break;
                    }
                    if handle.register(stream).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            reactor,
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every multiplexed connection, and joins the
    /// accept thread and the reactor pool. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the accept loop awake with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.reactor.shutdown();
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{TcpTransport, Transport};

    fn tripler() -> FrameService {
        Arc::new(|frame: &[u8]| frame.iter().map(|b| b.wrapping_mul(3)).collect())
    }

    #[test]
    fn echo_and_sequential_calls() {
        let mut server = FrameServer::spawn(tripler(), 2).unwrap();
        let mut client = TcpTransport::connect(server.local_addr()).unwrap();
        for i in 0..50u8 {
            client.send(&[i, 1]).unwrap();
            assert_eq!(client.recv().unwrap(), [i.wrapping_mul(3), 3]);
        }
        server.shutdown();
    }

    #[test]
    fn many_concurrent_clients() {
        let mut server = FrameServer::spawn(tripler(), 2).unwrap();
        let addr = server.local_addr();
        // Far more connections than reactor threads, all open at once.
        let mut clients: Vec<TcpTransport> = (0..100)
            .map(|_| TcpTransport::connect(addr).unwrap())
            .collect();
        for round in 0..3u8 {
            for (i, c) in clients.iter_mut().enumerate() {
                c.send(&[round, i as u8]).unwrap();
                assert_eq!(c.recv().unwrap(), [round * 3, (i as u8).wrapping_mul(3)]);
            }
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_idle_clients() {
        let mut server = FrameServer::spawn(tripler(), 1).unwrap();
        let mut client = TcpTransport::connect(server.local_addr()).unwrap();
        client.send(&[1]).unwrap();
        assert_eq!(client.recv().unwrap(), [3]);
        server.shutdown();
        // The accept thread is joined and the socket shut underneath the
        // idle client.
        assert!(client.send(&[2]).and_then(|()| client.recv()).is_err());
    }
}
