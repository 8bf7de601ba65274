//! Readiness event loop over `std` non-blocking sockets and `poll(2)`.
//!
//! The paper's evaluation (§5, Table 3) pins most deployment overhead on
//! the socket hops between client, framework, and sandboxed app; a
//! blocking server would burn one OS thread per connection on top of that.
//! This module multiplexes every connection onto a small fixed pool of
//! reactor threads instead.
//!
//! Each reactor thread blocks in [`sys::wait`] on all of its connections
//! plus a waker socket that registration and shutdown write one byte to.
//! When the kernel reports connections ready, the thread pumps exactly
//! those — draining reads until `WouldBlock`, flushing pending writes until
//! `WouldBlock` — and waits again. An idle thread sleeps in the kernel
//! until a byte arrives: there is no timer and no sweep. The wait itself is
//! O(connections) per wake-up.
//!
//! Per-connection state lives in [`frame_nb`](crate::frame_nb): partial
//! frame reads and writes survive across wake-ups.

use crate::frame::SCRATCH_LEN;
use crate::frame_nb::{FrameReader, WriteBuf};
use crate::sys::{self, PollFd};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A request-frame handler: one frame in, one response frame out. `None`
/// answers no more on that connection: the reactor stops reading it,
/// flushes the responses queued before, and closes it. Shared by every
/// reactor thread, so interior mutability (and locking, if the service is
/// stateful) is the implementor's business.
pub type FrameService = Arc<dyn Fn(&[u8]) -> Option<Vec<u8>> + Send + Sync>;

/// Stop reading from a connection whose un-flushed responses exceed this.
const WRITE_HIGH_WATER: usize = 1 << 20;
/// Cap on bytes read from one connection per wake-up: a peer that never
/// stops being readable must not starve its thread's other connections.
const READ_BUDGET_PER_WAKE: usize = 256 * 1024;

/// One multiplexed connection: socket plus resumable frame state.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    writer: WriteBuf,
    /// Peer sent FIN, or the service answered `None`: stop reading, but
    /// drain queued responses before closing — a client may legitimately
    /// half-close after its last request and still expect the reply.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            writer: WriteBuf::new(),
            eof: false,
        })
    }

    /// What to wait for: input unless reading has stopped or the peer is
    /// not draining its responses, output while responses are queued.
    fn poll_fd(&self) -> PollFd {
        let mut events = 0;
        if !self.eof && self.writer.pending() <= WRITE_HIGH_WATER {
            events |= sys::READ;
        }
        if !self.writer.is_empty() {
            events |= sys::WRITE;
        }
        PollFd::new(self.stream.as_raw_fd(), events)
    }

    /// Flushes pending writes, then drains readable bytes into complete
    /// frames, dispatching each through `service`. Returns `false` when
    /// the connection should close.
    fn pump(
        &mut self,
        service: &FrameService,
        scratch: &mut [u8],
        frames: &mut Vec<Vec<u8>>,
    ) -> bool {
        if self.writer.flush(&mut self.stream).is_err() {
            return false;
        }
        let mut budget = READ_BUDGET_PER_WAKE;
        // Past the high-water mark, let the peer drain before reading more.
        while !self.eof && budget > 0 && self.writer.pending() <= WRITE_HIGH_WATER {
            match self.stream.read(scratch) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    // `frames` is thread-shared scratch: any frame left in it
                    // when we bail would be drained by the *next* connection
                    // this thread pumps, sending one client's response to
                    // another. `feed` can legitimately complete frames and
                    // then fail (valid frame followed by an oversized header
                    // in the same read), so every error exit below must clear
                    // the scratch first.
                    if self.reader.feed(&scratch[..n], frames).is_err() {
                        frames.clear();
                        return false;
                    }
                    // (An early exit mid-drain is fine: dropping the `Drain`
                    // iterator removes the remaining elements, so the
                    // scratch is empty either way.)
                    for frame in frames.drain(..) {
                        let Some(response) = service(&frame) else {
                            self.eof = true;
                            break;
                        };
                        if self.writer.push_frame(&response).is_err() {
                            return false;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.writer.flush(&mut self.stream).is_err() {
            return false;
        }
        // Once everything owed has been delivered, the FIN is final.
        !(self.eof && self.writer.is_empty())
    }
}

/// The registration side of one reactor thread.
struct Intake {
    queue: Sender<TcpStream>,
    /// Write end of the thread's waker; the thread waits on the read end.
    waker: UnixStream,
}

impl Intake {
    /// Ends the thread's current wait. The waker is non-blocking: when its
    /// buffer is full, a wake-up is already pending and this one is moot.
    fn wake(&self) {
        let _ = (&self.waker).write(&[1]);
    }
}

/// Shared half of the reactor: one intake per thread and the stop flag.
struct ReactorShared {
    intakes: Vec<Intake>,
    next: AtomicUsize,
    stop: AtomicBool,
}

impl ReactorShared {
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for intake in &self.intakes {
            intake.wake();
        }
    }
}

/// A cloneable registration handle (what accept loops hold).
#[derive(Clone)]
pub struct ReactorHandle {
    shared: Arc<ReactorShared>,
}

impl ReactorHandle {
    /// Hands a connected stream to the next reactor thread, round-robin.
    /// Fails once the reactor has shut down.
    pub fn register(&self, stream: TcpStream) -> std::io::Result<()> {
        if self.shared.stop.load(Ordering::SeqCst) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "reactor is shut down",
            ));
        }
        let i = self.shared.next.fetch_add(1, Ordering::Relaxed) % self.shared.intakes.len();
        let intake = &self.shared.intakes[i];
        intake.queue.send(stream).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "reactor thread exited")
        })?;
        intake.wake();
        Ok(())
    }
}

/// A running pool of reactor threads serving one [`FrameService`].
pub struct Reactor {
    shared: Arc<ReactorShared>,
    threads: Vec<JoinHandle<()>>,
}

impl Reactor {
    /// Spawns `threads` reactor threads (clamped to at least 1), all
    /// dispatching complete request frames to `service`.
    pub fn spawn(service: FrameService, threads: usize) -> std::io::Result<Self> {
        let threads = threads.max(1);
        let mut intakes = Vec::with_capacity(threads);
        let mut ends = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (queue, rx) = std::sync::mpsc::channel();
            let (waker, wakee) = UnixStream::pair()?;
            waker.set_nonblocking(true)?;
            wakee.set_nonblocking(true)?;
            intakes.push(Intake { queue, waker });
            ends.push((rx, wakee));
        }
        let shared = Arc::new(ReactorShared {
            intakes,
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(threads);
        for (i, (rx, wakee)) in ends.into_iter().enumerate() {
            let shared_t = Arc::clone(&shared);
            let service_t = Arc::clone(&service);
            match std::thread::Builder::new()
                .name(format!("wire-reactor-{i}"))
                .spawn(move || reactor_loop(rx, wakee, service_t, shared_t))
            {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // Don't leak the threads already spawned: stop and join
                    // them before reporting the failure.
                    shared.stop();
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Self {
            shared,
            threads: handles,
        })
    }

    /// A cloneable handle for registering connections.
    pub fn handle(&self) -> ReactorHandle {
        ReactorHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops every reactor thread, shutting down all multiplexed sockets,
    /// and joins the pool. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Switches a freshly accepted stream to non-blocking mode for the wait
/// set. Failure means the client sees a closed socket; say why on stderr
/// instead of dropping it without a trace.
fn adopt(stream: TcpStream) -> Option<Conn> {
    Conn::new(stream)
        .map_err(|e| eprintln!("wire-reactor: dropping accepted connection: {e}"))
        .ok()
}

fn reactor_loop(
    intake: Receiver<TcpStream>,
    mut waker: UnixStream,
    service: FrameService,
    shared: Arc<ReactorShared>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH_LEN];
    let mut frames: Vec<Vec<u8>> = Vec::new();
    // `fds[0]` is the waker; `fds[1 + i]` is `conns[i]` as of the wait.
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        fds.clear();
        fds.push(PollFd::new(waker.as_raw_fd(), sys::READ));
        fds.extend(conns.iter().map(Conn::poll_fd));
        // `poll` fails only for want of kernel memory (the set is
        // well-formed by construction). Closing this thread's
        // connections below is then the failure their peers see.
        if sys::wait(&mut fds, None).is_err() {
            break;
        }
        if fds[0].ready() {
            // One byte per registration or shutdown; all are spent now.
            while matches!(waker.read(&mut scratch), Ok(n) if n > 0) {}
        }
        // Only after the drain: a stop whose byte it consumed must be seen
        // now, since no byte is left to end the next wait.
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let mut slots = fds[1..].iter();
        conns.retain_mut(|conn| {
            if !slots.next().is_some_and(PollFd::ready)
                || conn.pump(&service, &mut scratch, &mut frames)
            {
                return true;
            }
            let _ = conn.stream.shutdown(Shutdown::Both);
            false
        });
        // New connections join the next wait; data they already hold makes
        // it return at once.
        conns.extend(intake.try_iter().filter_map(adopt));
    }
    // Unblock any peer still waiting on us before the sockets drop.
    for conn in &conns {
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use crate::transport::{TcpTransport, Transport, TransportError};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    fn echo_service() -> FrameService {
        Arc::new(|frame: &[u8]| {
            let mut out = frame.to_vec();
            out.reverse();
            Some(out)
        })
    }

    /// A client socket whose server side `handle` serves.
    fn connect_raw(listener: &TcpListener, handle: &ReactorHandle) -> TcpStream {
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        handle.register(server_side).unwrap();
        client
    }

    fn connect_pair(listener: &TcpListener, handle: &ReactorHandle) -> TcpTransport {
        TcpTransport::new(connect_raw(listener, handle)).unwrap()
    }

    #[test]
    fn single_connection_round_trip() {
        let mut reactor = Reactor::spawn(echo_service(), 2).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = connect_pair(&listener, &reactor.handle());
        client.send(b"abc").unwrap();
        assert_eq!(client.recv().unwrap(), b"cba");
        client.send(b"12345").unwrap();
        assert_eq!(client.recv().unwrap(), b"54321");
        reactor.shutdown();
    }

    /// The first request after a quiet period is served at once: an idle
    /// thread waits in the kernel, not in a sleep it must sit out. The best
    /// of five keeps a loaded host's stalls out.
    #[test]
    fn request_after_a_quiet_period_is_served_promptly() {
        let mut reactor = Reactor::spawn(echo_service(), 1).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = connect_pair(&listener, &reactor.handle());
        let mut best = Duration::MAX;
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(60));
            let sent = std::time::Instant::now();
            client.send(b"ping").unwrap();
            assert_eq!(client.recv().unwrap(), b"gnip");
            best = best.min(sent.elapsed());
        }
        assert!(best < Duration::from_millis(10), "best of five: {best:?}");
        reactor.shutdown();
    }

    #[test]
    fn many_connections_multiplexed_on_two_threads() {
        let mut reactor = Reactor::spawn(echo_service(), 2).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let handle = reactor.handle();
        let mut clients: Vec<TcpTransport> =
            (0..64).map(|_| connect_pair(&listener, &handle)).collect();
        // Pipelined: all sends first, then all receives.
        for (i, c) in clients.iter_mut().enumerate() {
            c.send(format!("msg {i}").as_bytes()).unwrap();
        }
        for (i, c) in clients.iter_mut().enumerate() {
            let expected: Vec<u8> = format!("msg {i}").bytes().rev().collect();
            assert_eq!(c.recv().unwrap(), expected);
        }
        reactor.shutdown();
    }

    #[test]
    fn large_frame_crosses_partial_reads() {
        let mut reactor = Reactor::spawn(echo_service(), 1).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = connect_pair(&listener, &reactor.handle());
        let big: Vec<u8> = (0..500_000u32).map(|i| i as u8).collect();
        client.send(&big).unwrap();
        let mut expected = big;
        expected.reverse();
        assert_eq!(client.recv().unwrap(), expected);
        reactor.shutdown();
    }

    #[test]
    fn shutdown_closes_registered_connections() {
        let mut reactor = Reactor::spawn(echo_service(), 1).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = connect_pair(&listener, &reactor.handle());
        reactor.shutdown();
        // The reactor shut the socket: the blocking read unblocks.
        assert!(client.recv().is_err());
        // Registration after shutdown is refused.
        let orphan = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert!(reactor.handle().register(orphan).is_err());
    }

    #[test]
    fn half_close_still_gets_the_response() {
        // Request-then-FIN: the reply owed for the last request must be
        // delivered before the reactor drops the connection.
        let mut reactor = Reactor::spawn(echo_service(), 1).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut raw = connect_raw(&listener, &reactor.handle());
        write_frame(&mut raw, b"last words").unwrap();
        raw.shutdown(Shutdown::Write).unwrap();
        let mut client = TcpTransport::new(raw).unwrap();
        assert_eq!(client.recv().unwrap(), b"sdrow tsal");
        assert!(matches!(client.recv(), Err(TransportError::Disconnected)));
        reactor.shutdown();
    }

    /// A service answering `None` ends its connection, and the responses
    /// queued before it still arrive, in order, before the close.
    #[test]
    fn refusal_flushes_the_responses_queued_before_it() {
        let service: FrameService =
            Arc::new(|frame: &[u8]| (frame != b"stop").then(|| frame.to_vec()));
        let mut reactor = Reactor::spawn(service, 1).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut raw = connect_raw(&listener, &reactor.handle());
        // One write, so the reactor decodes all three frames together.
        let mut wire = Vec::new();
        for frame in [&b"one"[..], b"two", b"stop"] {
            write_frame(&mut wire, frame).unwrap();
        }
        raw.write_all(&wire).unwrap();
        let mut client = TcpTransport::new(raw).unwrap();
        assert_eq!(client.recv().unwrap(), b"one");
        assert_eq!(client.recv().unwrap(), b"two");
        assert!(matches!(client.recv(), Err(TransportError::Disconnected)));
        reactor.shutdown();
    }

    #[test]
    fn oversized_frame_drops_connection_only() {
        let mut reactor = Reactor::spawn(echo_service(), 1).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let handle = reactor.handle();
        let mut bad = connect_raw(&listener, &handle);
        let mut good = connect_pair(&listener, &handle);
        bad.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut bad = TcpTransport::new(bad).unwrap();
        assert!(bad.recv().is_err(), "violator disconnected");
        good.send(b"still here").unwrap();
        assert_eq!(good.recv().unwrap(), b"ereh llits");
        reactor.shutdown();
    }

    /// Regression: `feed` can complete a frame into the thread-shared
    /// scratch Vec and *then* fail on an oversized header in the same read.
    /// The completed frame used to survive the connection's close and be
    /// drained by the next connection this thread pumped — connection A's
    /// response delivered to connection B.
    #[test]
    fn frames_completed_before_protocol_error_do_not_leak_across_conns() {
        let mut reactor = Reactor::spawn(echo_service(), 1).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let handle = reactor.handle();
        let mut bad = connect_raw(&listener, &handle);
        let mut good = connect_pair(&listener, &handle);
        // One write, so both arrive in the same read chunk: a complete
        // valid frame immediately followed by an oversized header.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"poison").unwrap();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.write_all(&wire).unwrap();
        // The violator is disconnected either way, but if the kernel split
        // the write across two reads the reactor legitimately answers the
        // valid frame before hitting the bad header — tolerate that one
        // response rather than flake.
        let mut bad = TcpTransport::new(bad).unwrap();
        while let Ok(resp) = bad.recv() {
            assert_eq!(resp, b"nosiop", "only the echo may precede the close");
        }
        // The single reactor thread now serves `good`; the first response
        // it reads must answer its own request, not the stale "poison".
        good.send(b"clean").unwrap();
        assert_eq!(good.recv().unwrap(), b"naelc");
        good.send(b"again").unwrap();
        assert_eq!(good.recv().unwrap(), b"niaga");
        reactor.shutdown();
    }
}
