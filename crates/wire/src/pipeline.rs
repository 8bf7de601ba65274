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
//! dropped when it arrives.

use crate::transport::{Transport, TransportError};
use std::time::Duration;

/// A connection with multiple in-flight requests, answered in request
/// order.
pub struct PipelinedClient<T: Transport> {
    transport: T,
    next_id: u64,
    /// Responses the caller gave up waiting for (a quorum was satisfied
    /// without them). Responses arrive in request order per connection, so
    /// the next `skip` incoming frames answer abandoned requests and are
    /// discarded before anything is handed to the caller.
    skip: u64,
}

impl<T: Transport> PipelinedClient<T> {
    /// Wraps a connected transport.
    pub fn new(transport: T) -> Self {
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

    /// Receives the next frame addressed to the caller, draining any
    /// abandoned responses first.
    pub fn recv_next(&mut self) -> Result<Vec<u8>, TransportError> {
        loop {
            let frame = self.transport.recv()?;
            if self.skip > 0 {
                self.skip -= 1;
                continue;
            }
            return Ok(frame);
        }
    }

    /// Like [`Self::recv_next`], but gives up after `timeout` with
    /// `Ok(None)`. Abandoned responses drained while waiting count against
    /// the same timeout budget (the deadline is fixed up front, not
    /// restarted per drained frame).
    pub fn recv_next_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<Vec<u8>>, TransportError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut remaining = timeout;
        loop {
            let Some(frame) = self.transport.recv_timeout(remaining)? else {
                return Ok(None);
            };
            if self.skip > 0 {
                self.skip -= 1;
                remaining = deadline.saturating_duration_since(std::time::Instant::now());
                if remaining.is_zero() {
                    return Ok(None);
                }
                continue;
            }
            return Ok(Some(frame));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;

    /// Toy protocol for tests: 8-byte LE id, then payload.
    fn frame(id: u64, payload: &[u8]) -> Vec<u8> {
        let mut f = id.to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn in_order_responses_match() {
        let (a, mut b) = ChannelTransport::pair();
        let mut client = PipelinedClient::new(a);
        let id1 = client.next_request_id();
        let id2 = client.next_request_id();
        client.send(&frame(id1, b"q1")).unwrap();
        client.send(&frame(id2, b"q2")).unwrap();
        // Server answers in order.
        for _ in 0..2 {
            let req = b.recv().unwrap();
            let mut resp = req.clone();
            resp.extend_from_slice(b"-ack");
            b.send(&resp).unwrap();
        }
        assert_eq!(client.recv_next().unwrap(), frame(id1, b"q1-ack"));
        assert_eq!(client.recv_next().unwrap(), frame(id2, b"q2-ack"));
    }

    #[test]
    fn disconnect_propagates() {
        let (a, b) = ChannelTransport::pair();
        let mut client = PipelinedClient::new(a);
        drop(b);
        assert!(matches!(
            client.recv_next(),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn abandoned_responses_are_drained_before_fresh_ones() {
        let (a, mut b) = ChannelTransport::pair();
        let mut client = PipelinedClient::new(a);
        // Two requests in flight; the caller gives up on the first.
        client.send(&frame(1, b"abandoned")).unwrap();
        client.send(&frame(2, b"wanted")).unwrap();
        client.abandon_next_response();
        assert_eq!(client.abandoned_pending(), 1);
        // The server answers both, in order.
        for _ in 0..2 {
            let req = b.recv().unwrap();
            b.send(&req).unwrap();
        }
        // recv_next skips the stale response and yields the fresh one.
        assert_eq!(client.recv_next().unwrap(), frame(2, b"wanted"));
        assert_eq!(client.abandoned_pending(), 0);
    }

    #[test]
    fn recv_next_timeout_times_out_then_delivers() {
        let (a, mut b) = ChannelTransport::pair();
        let mut client = PipelinedClient::new(a);
        assert!(client
            .recv_next_timeout(std::time::Duration::from_millis(5))
            .unwrap()
            .is_none());
        b.send(b"late").unwrap();
        assert_eq!(
            client
                .recv_next_timeout(std::time::Duration::from_millis(100))
                .unwrap(),
            Some(b"late".to_vec())
        );
    }
}
