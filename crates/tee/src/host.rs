//! Enclave hosting with the socket topology of the paper's prototype.
//!
//! §5 attributes the TEE overhead of Table 3 to "two additional sockets:
//! one to forward request traffic from the client to our framework, and one
//! inside the TEE to communicate between our framework and the sandboxed
//! application." [`EnclaveHost`] reproduces that topology with real
//! loopback TCP sockets:
//!
//! ```text
//! client ──TCP──▶ host proxy ──TCP──▶ enclave service thread
//!                 (socket 1)          (socket 2, "vsock")
//! ```
//!
//! The proxy is dumb byte forwarding, exactly like the Nitro parent
//! instance's vsock proxy. For the bench baseline, services can also be
//! invoked in-process (no sockets) via [`EnclaveService::handle`] directly.

use distrust_wire::frame::{read_frame, write_frame};
use distrust_wire::server::accept_with_retry;
use distrust_wire::sync::HealthyMutex;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A request/response service running "inside" the enclave.
pub trait EnclaveService: Send + 'static {
    /// Handles one request message, producing one response message.
    fn handle(&mut self, request: Vec<u8>) -> Vec<u8>;
}

impl<F> EnclaveService for F
where
    F: FnMut(Vec<u8>) -> Vec<u8> + Send + 'static,
{
    fn handle(&mut self, request: Vec<u8>) -> Vec<u8> {
        self(request)
    }
}

/// A running enclave host: external proxy listener + internal service
/// listener, with threads reaped on shutdown.
pub struct EnclaveHost {
    external_addr: SocketAddr,
    internal_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Handles to every *live* accepted socket, so shutdown can sever
    /// established connections — a per-connection thread parked in a
    /// blocking read would otherwise serve one more request after the
    /// stop flag flips. Keyed so each connection thread deregisters its
    /// own sockets on exit; the map stays bounded by the number of live
    /// connections, not by lifetime connection churn.
    conns: ConnRegistry,
}

/// Live sockets keyed by registration id.
type ConnRegistry = Arc<HealthyMutex<std::collections::HashMap<u64, TcpStream>>>;

/// Registration-id source for [`ConnRegistry`] entries.
static NEXT_CONN_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Registers a socket for severing at shutdown; the returned id must be
/// passed to [`untrack_conn`] when the connection's thread exits.
fn track_conn(conns: &ConnRegistry, stream: &TcpStream) -> Option<u64> {
    let clone = stream.try_clone().ok()?;
    let id = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed);
    conns.lock_healthy().insert(id, clone);
    Some(id)
}

/// Drops a socket from the shutdown registry (its thread is done).
fn untrack_conn(conns: &ConnRegistry, id: Option<u64>) {
    if let Some(id) = id {
        conns.lock_healthy().remove(&id);
    }
}

impl EnclaveHost {
    /// Spawns the service behind the two-socket proxy topology.
    pub fn spawn<S: EnclaveService>(service: S) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let service = Arc::new(HealthyMutex::new(service));
        let conns: ConnRegistry = Arc::new(HealthyMutex::new(std::collections::HashMap::new()));

        // Socket 2: the "vsock" between host proxy and enclave interior.
        // Both accept loops retry through errors with exponential backoff
        // (`accept_with_retry`, shared with the wire crate's frame
        // server): an EMFILE burst or a client racing RST must not
        // leave a zombie listener that looks alive but accepts nothing.
        let internal_listener = TcpListener::bind(("127.0.0.1", 0))?;
        let internal_addr = internal_listener.local_addr()?;
        let stop_i = Arc::clone(&stop);
        let service_i = Arc::clone(&service);
        let conns_i = Arc::clone(&conns);
        let internal_thread = std::thread::Builder::new()
            .name("enclave-interior".to_string())
            .spawn(move || {
                let label = format!("enclave-interior-{internal_addr}");
                let mut consecutive_errors = 0u32;
                loop {
                    let Some((mut conn, _)) =
                        accept_with_retry(&label, &stop_i, &mut consecutive_errors, || {
                            internal_listener.accept()
                        })
                    else {
                        break;
                    };
                    if stop_i.load(Ordering::SeqCst) {
                        break;
                    }
                    let _ = conn.set_nodelay(true);
                    let service = Arc::clone(&service_i);
                    let stop_c = Arc::clone(&stop_i);
                    let conns_c = Arc::clone(&conns_i);
                    let spawned = std::thread::Builder::new()
                        .name("enclave-conn".to_string())
                        .spawn(move || {
                            let id = track_conn(&conns_c, &conn);
                            loop {
                                if stop_c.load(Ordering::SeqCst) {
                                    break;
                                }
                                let Ok(request) = read_frame(&mut conn) else {
                                    break;
                                };
                                let response = service.lock_healthy().handle(request);
                                if write_frame(&mut conn, &response).is_err() {
                                    break;
                                }
                            }
                            untrack_conn(&conns_c, id);
                        });
                    if let Err(e) = spawned {
                        // Out of threads: refuse loudly instead of silently
                        // dropping the socket on the floor — the proxy
                        // side sees the close and reports its own failure
                        // to the client.
                        eprintln!("{label}: failed to spawn connection thread: {e}");
                    }
                }
            })?;

        // Socket 1: the external proxy clients connect to.
        let external_listener = TcpListener::bind(("127.0.0.1", 0))?;
        let external_addr = external_listener.local_addr()?;
        let stop_e = Arc::clone(&stop);
        let conns_e = Arc::clone(&conns);
        let proxy_thread = std::thread::Builder::new()
            .name("enclave-proxy".to_string())
            .spawn(move || {
                let label = format!("enclave-proxy-{external_addr}");
                let mut consecutive_errors = 0u32;
                loop {
                    let Some((mut client, _)) =
                        accept_with_retry(&label, &stop_e, &mut consecutive_errors, || {
                            external_listener.accept()
                        })
                    else {
                        break;
                    };
                    if stop_e.load(Ordering::SeqCst) {
                        break;
                    }
                    let _ = client.set_nodelay(true);
                    let stop_c = Arc::clone(&stop_e);
                    let conns_c = Arc::clone(&conns_e);
                    let spawned = std::thread::Builder::new()
                        .name("enclave-proxy-conn".to_string())
                        .spawn(move || {
                            let client_id = track_conn(&conns_c, &client);
                            // One upstream connection per client connection.
                            let mut upstream = match TcpStream::connect(internal_addr) {
                                Ok(upstream) => upstream,
                                Err(e) => {
                                    eprintln!("enclave-proxy-conn: interior connect failed: {e}");
                                    untrack_conn(&conns_c, client_id);
                                    return;
                                }
                            };
                            let _ = upstream.set_nodelay(true);
                            let upstream_id = track_conn(&conns_c, &upstream);
                            loop {
                                if stop_c.load(Ordering::SeqCst) {
                                    break;
                                }
                                // Forward request bytes, then response bytes.
                                let Ok(request) = read_frame(&mut client) else {
                                    break;
                                };
                                if write_frame(&mut upstream, &request).is_err() {
                                    break;
                                }
                                let Ok(response) = read_frame(&mut upstream) else {
                                    break;
                                };
                                if write_frame(&mut client, &response).is_err() {
                                    break;
                                }
                            }
                            untrack_conn(&conns_c, client_id);
                            untrack_conn(&conns_c, upstream_id);
                        });
                    if let Err(e) = spawned {
                        // Same contract as the interior loop: report, close
                        // the client socket so the failure is visible at
                        // the far end, and keep accepting.
                        eprintln!("{label}: failed to spawn proxy connection thread: {e}");
                    }
                }
            })?;

        Ok(Self {
            external_addr,
            internal_addr,
            stop,
            threads: vec![internal_thread, proxy_thread],
            conns,
        })
    }

    /// Address clients connect to (through the proxy — the only way in).
    pub fn addr(&self) -> SocketAddr {
        self.external_addr
    }

    /// Stops accepting and joins the listener threads.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Sever every established connection: per-connection threads
        // parked in a blocking read exit immediately instead of serving
        // one last request.
        for (_, conn) in self.conns.lock_healthy().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        // Poke both accept loops awake.
        for addr in [self.external_addr, self.internal_addr] {
            if let Ok(mut s) = TcpStream::connect(addr) {
                let _ = s.write_all(&[0]);
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for EnclaveHost {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A blocking client for an [`EnclaveHost`] (frame-per-request).
pub struct EnclaveClient {
    stream: TcpStream,
}

impl EnclaveClient {
    /// Connects to a host's external address.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// One request/response exchange.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<Vec<u8>> {
        write_frame(&mut self.stream, request).map_err(|e| std::io::Error::other(e.to_string()))?;
        read_frame(&mut self.stream).map_err(|e| std::io::Error::other(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_both_sockets() {
        let mut host = EnclaveHost::spawn(|req: Vec<u8>| {
            let mut resp = req;
            resp.reverse();
            resp
        })
        .unwrap();
        let mut client = EnclaveClient::connect(host.addr()).unwrap();
        assert_eq!(client.exchange(b"abc").unwrap(), b"cba");
        assert_eq!(client.exchange(b"12345").unwrap(), b"54321");
        host.shutdown();
    }

    #[test]
    fn service_state_persists_across_requests() {
        let mut counter = 0u64;
        let mut host = EnclaveHost::spawn(move |_req: Vec<u8>| {
            counter += 1;
            counter.to_le_bytes().to_vec()
        })
        .unwrap();
        let mut client = EnclaveClient::connect(host.addr()).unwrap();
        assert_eq!(client.exchange(b"x").unwrap(), 1u64.to_le_bytes());
        assert_eq!(client.exchange(b"x").unwrap(), 2u64.to_le_bytes());
        host.shutdown();
    }

    #[test]
    fn multiple_clients() {
        let mut host = EnclaveHost::spawn(|req: Vec<u8>| req).unwrap();
        let addr = host.addr();
        let handles: Vec<_> = (0..4u8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = EnclaveClient::connect(addr).unwrap();
                    let msg = vec![i; 8];
                    assert_eq!(c.exchange(&msg).unwrap(), msg);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        host.shutdown();
    }

    #[test]
    fn shutdown_severs_established_connections() {
        let mut host = EnclaveHost::spawn(|req: Vec<u8>| req).unwrap();
        let mut client = EnclaveClient::connect(host.addr()).unwrap();
        // Warm the connection so its per-connection threads exist and are
        // parked in blocking reads.
        assert_eq!(client.exchange(b"up").unwrap(), b"up");
        host.shutdown();
        // A request after shutdown must fail — the connection was severed,
        // not left idling until its thread's next stop-flag check.
        assert!(
            client.exchange(b"after").is_err(),
            "shutdown host served a request"
        );
    }

    #[test]
    fn listener_survives_connect_drop_churn() {
        // A storm of clients connecting and vanishing without a byte (the
        // accept-side view of RST races) must not degrade the listener: a
        // well-behaved client afterwards still gets full service.
        let mut host = EnclaveHost::spawn(|req: Vec<u8>| req).unwrap();
        let addr = host.addr();
        for _ in 0..64 {
            drop(TcpStream::connect(addr).unwrap());
        }
        let mut client = EnclaveClient::connect(addr).unwrap();
        assert_eq!(client.exchange(b"still alive").unwrap(), b"still alive");
        host.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut host = EnclaveHost::spawn(|req: Vec<u8>| req).unwrap();
        host.shutdown();
        host.shutdown();
    }

    #[test]
    fn large_payload_through_proxy() {
        let mut host = EnclaveHost::spawn(|req: Vec<u8>| req).unwrap();
        let mut client = EnclaveClient::connect(host.addr()).unwrap();
        let big = vec![0x5au8; 500_000];
        assert_eq!(client.exchange(&big).unwrap(), big);
        host.shutdown();
    }
}
