//! Enclave hosting with the socket topology of the paper's prototype.
//!
//! §5 attributes the TEE overhead of Table 3 to "two additional sockets:
//! one to forward request traffic from the client to our framework, and one
//! inside the TEE to communicate between our framework and the sandboxed
//! application." [`EnclaveHost`] reproduces that topology with real
//! loopback TCP sockets:
//!
//! ```text
//! client ──TCP──▶ host proxy ──TCP──▶ enclave interior
//!                 (socket 1)          (socket 2, "vsock")
//! ```
//!
//! Both sockets are the wire's one server shape, a [`FrameServer`]. The
//! interior serves the service exactly as a direct host does. The proxy is
//! dumb frame forwarding, like the Nitro parent instance's vsock proxy: it
//! passes each request to the interior over a pooled upstream connection
//! and returns the answer. For the bench baseline, services can also be
//! invoked in-process (no sockets) via [`EnclaveService::handle`] directly.

use distrust_wire::reactor::FrameService;
use distrust_wire::server::FrameServer;
use distrust_wire::sync::HealthyMutex;
use distrust_wire::transport::{TcpTransport, Transport};
use std::net::SocketAddr;
use std::sync::Arc;

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

/// Reactor threads per server. The service is one mutex, so a second
/// thread would add memory and no throughput; it also bounds the proxy's
/// upstream pool to one connection.
const REACTOR_THREADS: usize = 1;

/// A running enclave host: the internal service and the external proxy,
/// each a frame server.
pub struct EnclaveHost {
    // Field order is drop order: the interior stops first, as in
    // `shutdown`.
    interior: FrameServer,
    proxy: FrameServer,
}

impl EnclaveHost {
    /// Spawns the service behind the two-socket proxy topology.
    pub fn spawn<S: EnclaveService>(service: S) -> std::io::Result<Self> {
        // Socket 2: the "vsock" between host proxy and enclave interior.
        let service = HealthyMutex::new(service);
        let serve: FrameService =
            Arc::new(move |request: &[u8]| Some(service.lock_healthy().handle(request.to_vec())));
        let interior = FrameServer::spawn(serve, REACTOR_THREADS)?;
        // Socket 1: the external proxy clients connect to.
        let upstream = interior.local_addr();
        let pool = HealthyMutex::new(Vec::new());
        let forward: FrameService =
            Arc::new(move |request: &[u8]| forward(&pool, upstream, request));
        let proxy = FrameServer::spawn(forward, REACTOR_THREADS)?;
        Ok(Self { interior, proxy })
    }

    /// Address clients connect to (through the proxy — the only way in).
    pub fn addr(&self) -> SocketAddr {
        self.proxy.local_addr()
    }

    /// Closes every connection and joins both servers. The interior stops
    /// first, so a forward in flight sees its upstream close instead of
    /// holding up the proxy's join. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.interior.shutdown();
        self.proxy.shutdown();
    }
}

/// Passes one request to the interior and returns its answer, or `None`
/// (the client's connection closes unanswered) when the interior cannot
/// be reached. The upstream connection is taken from `pool`, or opened,
/// and used with no lock held; only a connection that completed its
/// exchange goes back. A failed one is dropped, never retried: the
/// interior may have acted on the request already.
fn forward(
    pool: &HealthyMutex<Vec<TcpTransport>>,
    interior: SocketAddr,
    request: &[u8],
) -> Option<Vec<u8>> {
    let pooled = pool.lock_healthy().pop();
    let mut upstream = match pooled {
        Some(upstream) => upstream,
        None => TcpTransport::connect(interior).ok()?,
    };
    upstream.send(request).ok()?;
    let response = upstream.recv().ok()?;
    pool.lock_healthy().push(upstream);
    Some(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_wire::transport::TransportError;
    use std::net::TcpStream;

    fn exchange(client: &mut TcpTransport, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        client.send(request)?;
        client.recv()
    }

    #[test]
    fn round_trip_through_both_sockets() {
        let mut host = EnclaveHost::spawn(|req: Vec<u8>| {
            let mut resp = req;
            resp.reverse();
            resp
        })
        .unwrap();
        let mut client = TcpTransport::connect(host.addr()).unwrap();
        assert_eq!(exchange(&mut client, b"abc").unwrap(), b"cba");
        assert_eq!(exchange(&mut client, b"12345").unwrap(), b"54321");
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
        let mut client = TcpTransport::connect(host.addr()).unwrap();
        assert_eq!(exchange(&mut client, b"x").unwrap(), 1u64.to_le_bytes());
        assert_eq!(exchange(&mut client, b"x").unwrap(), 2u64.to_le_bytes());
        host.shutdown();
    }

    #[test]
    fn multiple_clients() {
        let mut host = EnclaveHost::spawn(|req: Vec<u8>| req).unwrap();
        let addr = host.addr();
        let handles: Vec<_> = (0..4u8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TcpTransport::connect(addr).unwrap();
                    let msg = vec![i; 8];
                    assert_eq!(exchange(&mut c, &msg).unwrap(), msg);
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
        let mut client = TcpTransport::connect(host.addr()).unwrap();
        // Warm the connection so it is established through both sockets.
        assert_eq!(exchange(&mut client, b"up").unwrap(), b"up");
        host.shutdown();
        // A request after shutdown must fail — the connection was severed,
        // not left open to serve one more request.
        assert!(
            exchange(&mut client, b"after").is_err(),
            "shutdown host served a request"
        );
    }

    /// A request the proxy cannot forward is never answered: with the
    /// interior gone, the client's connection closes instead.
    #[test]
    fn a_request_the_interior_cannot_take_closes_the_connection() {
        let mut host = EnclaveHost::spawn(|req: Vec<u8>| req).unwrap();
        let mut client = TcpTransport::connect(host.addr()).unwrap();
        assert_eq!(exchange(&mut client, b"up").unwrap(), b"up");
        host.interior.shutdown();
        assert!(matches!(
            exchange(&mut client, b"after"),
            Err(TransportError::Disconnected)
        ));
        // A new client meets the same refusal, from a failed connect.
        let mut late = TcpTransport::connect(host.addr()).unwrap();
        assert!(matches!(
            exchange(&mut late, b"late"),
            Err(TransportError::Disconnected)
        ));
        host.shutdown();
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
        let mut client = TcpTransport::connect(addr).unwrap();
        assert_eq!(
            exchange(&mut client, b"still alive").unwrap(),
            b"still alive"
        );
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
        let mut client = TcpTransport::connect(host.addr()).unwrap();
        let big = vec![0x5au8; 500_000];
        assert_eq!(exchange(&mut client, &big).unwrap(), big);
        host.shutdown();
    }
}
