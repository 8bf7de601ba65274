//! Client-side request pipelining over one connection.
//!
//! [`PipelinedClient`] keeps several requests in flight on a single
//! persistent connection: the caller sends them all, then collects the
//! responses. Every server in this workspace answers a connection strictly
//! in request order (plain length-prefixed frames, one response queued per
//! request as it completes), so the next frame received always answers the
//! oldest unanswered request — there is no reordering to undo and nothing
//! is buffered ahead of the caller. A caller that gives up on a response
//! (a quorum was satisfied without it) says so, and the stale frame is
//! dropped when it arrives. Nothing here waits: the caller waits on the
//! connection's socket ([`AsRawFd`]) in [`crate::sys::wait`], for as long
//! as it is willing to, and then reads with [`PipelinedClient::recv_ready`].

use crate::transport::{TcpTransport, Transport, TransportError};
use std::os::fd::{AsRawFd, RawFd};

/// A connection with multiple in-flight requests, answered in request
/// order.
pub struct PipelinedClient {
    transport: TcpTransport,
    next_id: u64,
    /// Responses the caller gave up waiting for (a quorum was satisfied
    /// without them). Responses arrive in request order per connection, so
    /// the next `skip` incoming frames answer abandoned requests and are
    /// discarded before anything is handed to the caller.
    skip: u64,
}

impl PipelinedClient {
    /// Wraps a connected transport.
    pub fn new(transport: TcpTransport) -> Self {
        Self {
            transport,
            next_id: 1,
            skip: 0,
        }
    }

    /// Declares that the response to the oldest unanswered request will
    /// never be collected; the next incoming frame that would have
    /// answered it is silently discarded. Call once per abandoned request,
    /// in request order, before reusing the connection.
    pub fn abandon_next_response(&mut self) {
        self.skip += 1;
    }

    /// Number of abandoned responses not yet drained off the wire.
    pub fn abandoned_pending(&self) -> u64 {
        self.skip
    }

    /// Hands out the next request id (monotonic, never zero).
    pub fn next_request_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one frame without waiting for a response.
    pub fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.transport.send(frame)
    }

    /// The next frame addressed to the caller, if one is here; never
    /// waits. Abandoned responses are drained first, from frames already
    /// decoded and, when `readable` (the caller's [`crate::sys::wait`]
    /// reported this connection's socket), from at most one read of it
    /// ([`TcpTransport::recv_ready`]). `Ok(None)`: no frame for the caller
    /// yet.
    pub fn recv_ready(&mut self, mut readable: bool) -> Result<Option<Vec<u8>>, TransportError> {
        while let Some(frame) = self.transport.recv_ready(std::mem::take(&mut readable))? {
            if self.skip == 0 {
                return Ok(Some(frame));
            }
            self.skip -= 1;
        }
        Ok(None)
    }
}

impl AsRawFd for PipelinedClient {
    fn as_raw_fd(&self) -> RawFd {
        self.transport.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::{self, PollFd};
    use std::net::TcpListener;
    use std::thread::{self, JoinHandle};

    /// Toy protocol for tests: 8-byte LE id, then payload.
    fn frame(id: u64, payload: &[u8]) -> Vec<u8> {
        let mut f = id.to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    /// A loopback peer that answers `answers` requests with `reply`, then
    /// parks until the client closes; and a client connected to it.
    fn serve(answers: usize, reply: fn(Vec<u8>) -> Vec<u8>) -> (PipelinedClient, JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut t = TcpTransport::new(listener.accept().unwrap().0).unwrap();
            for _ in 0..answers {
                let req = t.recv().unwrap();
                t.send(&reply(req)).unwrap();
            }
            let _ = t.recv(); // park until the client closes
        });
        (
            PipelinedClient::new(TcpTransport::connect(addr).unwrap()),
            server,
        )
    }

    /// The next frame for the caller: one already decoded, or one read
    /// after each wait on the client's socket until it completes a frame.
    fn next(client: &mut PipelinedClient) -> Result<Vec<u8>, TransportError> {
        let mut readable = false;
        loop {
            if let Some(frame) = client.recv_ready(readable)? {
                return Ok(frame);
            }
            let mut fds = [PollFd::new(client.as_raw_fd(), sys::READ)];
            sys::wait(&mut fds, None).unwrap();
            readable = fds[0].ready();
        }
    }

    #[test]
    fn in_order_responses_match() {
        let (mut client, server) = serve(2, |mut req| {
            req.extend_from_slice(b"-ack");
            req
        });
        let id1 = client.next_request_id();
        let id2 = client.next_request_id();
        client.send(&frame(id1, b"q1")).unwrap();
        client.send(&frame(id2, b"q2")).unwrap();
        // The server answers in order.
        assert_eq!(next(&mut client).unwrap(), frame(id1, b"q1-ack"));
        assert_eq!(next(&mut client).unwrap(), frame(id2, b"q2-ack"));
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn disconnect_propagates() {
        // The peer closes at once: it answers nothing and parks on a
        // receive that fails when it is gone.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || drop(listener.accept().unwrap()));
        let mut client = PipelinedClient::new(TcpTransport::connect(addr).unwrap());
        server.join().unwrap();
        assert!(matches!(
            next(&mut client),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn abandoned_responses_are_drained_before_fresh_ones() {
        let (mut client, server) = serve(2, |req| req);
        // Two requests in flight; the caller gives up on the first.
        client.send(&frame(1, b"abandoned")).unwrap();
        client.send(&frame(2, b"wanted")).unwrap();
        client.abandon_next_response();
        assert_eq!(client.abandoned_pending(), 1);
        // The server answers both, in order; the stale response is
        // skipped and the fresh one delivered.
        assert_eq!(next(&mut client).unwrap(), frame(2, b"wanted"));
        assert_eq!(client.abandoned_pending(), 0);
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn recv_ready_skips_abandoned_frames_then_delivers() {
        let (mut client, server) = serve(2, |req| req);
        // Nothing decoded and no readiness reported: no read, no frame.
        assert_eq!(client.recv_ready(false).unwrap(), None);
        client.send(&frame(1, b"abandoned")).unwrap();
        client.abandon_next_response();
        client.send(&frame(2, b"wanted")).unwrap();
        let mut wanted = None;
        while wanted.is_none() {
            let mut fds = [PollFd::new(client.as_raw_fd(), sys::READ)];
            sys::wait(&mut fds, None).unwrap();
            wanted = client.recv_ready(fds[0].ready()).unwrap();
        }
        assert_eq!(wanted, Some(frame(2, b"wanted")));
        assert_eq!(client.abandoned_pending(), 0);
        drop(client);
        server.join().unwrap();
    }
}
