//! Direct (non-TEE) service hosting for trust domain 0.
//!
//! Figure 2: "Trust domain 0 is run by the application owner without any
//! secure hardware." It runs the same framework code, but clients reach it
//! over a single socket — no enclave proxy hop — and the attestation in
//! its audit answer is [`crate::protocol::BundleAttestation::Unattested`].
//!
//! The host serves that socket through the wire crate's [`FrameServer`]:
//! a fixed pool of reactor threads multiplexes every client, so a domain
//! can hold thousands of concurrent connections open. The wire format is
//! plain length-prefixed frames, errors encoded inside the service's own
//! response messages — the same frames
//! [`EnclaveClient`](distrust_tee::host::EnclaveClient) speaks to an
//! enclave proxy.

use distrust_tee::host::EnclaveService;
use distrust_wire::reactor::FrameService;
use distrust_wire::server::FrameServer;
use distrust_wire::sync::HealthyMutex;
use std::net::SocketAddr;
use std::sync::Arc;

/// Reactor threads per direct host. A deployment runs one direct host next
/// to several enclave hosts on the same machine; two threads keep it
/// responsive without oversubscribing small boxes.
const REACTOR_THREADS: usize = 2;

/// A running single-socket service host.
pub struct DirectHost {
    inner: FrameServer,
}

impl DirectHost {
    /// Spawns the service on an ephemeral loopback port. The service runs
    /// behind a mutex: one request at a time, in whatever order the
    /// reactor pool completes frames.
    pub fn spawn<S: EnclaveService>(service: S) -> std::io::Result<Self> {
        let service = HealthyMutex::new(service);
        let frames: FrameService =
            Arc::new(move |request: &[u8]| service.lock_healthy().handle(request.to_vec()));
        Ok(Self {
            inner: FrameServer::spawn(frames, REACTOR_THREADS)?,
        })
    }

    /// Address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Stops accepting, closes every connection, and joins all serving
    /// threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_tee::host::EnclaveClient;

    #[test]
    fn single_socket_round_trip() {
        let mut host = DirectHost::spawn(|req: Vec<u8>| {
            let mut r = req;
            r.push(0xaa);
            r
        })
        .unwrap();
        let mut client = EnclaveClient::connect(host.addr()).unwrap();
        assert_eq!(client.exchange(b"hi").unwrap(), vec![b'h', b'i', 0xaa]);
        host.shutdown();
    }

    #[test]
    fn sequential_state() {
        let mut n = 0u8;
        let mut host = DirectHost::spawn(move |_req: Vec<u8>| {
            n = n.wrapping_add(1);
            vec![n]
        })
        .unwrap();
        let mut client = EnclaveClient::connect(host.addr()).unwrap();
        assert_eq!(client.exchange(b"").unwrap(), vec![1]);
        assert_eq!(client.exchange(b"").unwrap(), vec![2]);
        host.shutdown();
    }

    #[test]
    fn many_clients_share_the_fixed_pool() {
        let mut host = DirectHost::spawn(|req: Vec<u8>| req).unwrap();
        let addr = host.addr();
        // Many more connections than reactor threads, alive concurrently.
        let mut clients: Vec<EnclaveClient> = (0..40)
            .map(|_| EnclaveClient::connect(addr).unwrap())
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            let msg = vec![i as u8; 16];
            assert_eq!(c.exchange(&msg).unwrap(), msg);
        }
        host.shutdown();
    }

    #[test]
    fn shutdown_unblocks_idle_clients() {
        let mut host = DirectHost::spawn(|req: Vec<u8>| req).unwrap();
        let mut client = EnclaveClient::connect(host.addr()).unwrap();
        assert_eq!(client.exchange(b"x").unwrap(), b"x");
        host.shutdown();
        assert!(client.exchange(b"y").is_err());
    }
}
