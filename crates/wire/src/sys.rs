//! The one operating-system call `std` does not expose: `poll(2)`.
//!
//! A reactor thread blocks here until one of its sockets is ready, and a
//! client's collector until a pending domain answers or its bound on
//! silence passes, instead of either sweeping sockets on a timer. This is
//! the product crates' only `unsafe` code: one foreign declaration and one
//! call, both below.

use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// Wait until the descriptor is readable (`POLLIN`).
pub const READ: i16 = 0x001;
/// Wait until the descriptor is writable (`POLLOUT`).
pub const WRITE: i16 = 0x004;
/// Wait until the peer has hung up: closed the connection, or only its
/// sending half (`POLLRDHUP`, on Linux). An error or a hang-up of both
/// halves is reported whatever was asked (`POLLERR`, `POLLHUP`), and is
/// all this waits for elsewhere.
pub const HANG_UP: i16 = if cfg!(any(target_os = "linux", target_os = "android")) {
    0x2000
} else {
    0
};

/// One descriptor to wait on, laid out as the kernel's `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Waits on `fd` for `events` (a union of [`READ`] and [`WRITE`], or
    /// [`HANG_UP`]).
    pub fn new(fd: RawFd, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// True when the last [`wait`] reported anything for this descriptor:
    /// an asked-for readiness, an error, or a hang-up.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    // libc's, which std links on every unix target.
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
}

/// Blocks until at least one of `fds` is ready or `timeout` has passed,
/// and returns how many are ready (0 when the timeout passed first).
/// `None`, or a timeout too long for the clock to add, waits with none.
/// The kernel counts the timeout in whole milliseconds, so it is rounded
/// up (the wait never ends early) and capped at `i32::MAX` of them, about
/// 24 days. A signal that interrupts the wait restarts it for the time
/// that is left.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    let len = std::ffi::c_ulong::try_from(fds.len())
        .map_err(|_| std::io::Error::from(std::io::ErrorKind::InvalidInput))?;
    let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
    loop {
        let millis = match deadline {
            None => -1,
            Some(at) => {
                let left = at.saturating_duration_since(Instant::now());
                i32::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
            }
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of `len`
        // `#[repr(C)]` pollfd records for the whole call, and the kernel
        // writes only their `revents` fields; a timeout of -1 means no
        // timeout.
        let ready = unsafe { poll(fds.as_mut_ptr(), len, millis) };
        if let Ok(ready) = usize::try_from(ready) {
            return Ok(ready);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_only_the_ready_descriptor() {
        let (quiet_tx, quiet_rx) = UnixStream::pair().unwrap();
        let (mut loud_tx, loud_rx) = UnixStream::pair().unwrap();
        loud_tx.write_all(&[1]).unwrap();
        let mut fds = [
            PollFd::new(quiet_rx.as_raw_fd(), READ),
            PollFd::new(loud_rx.as_raw_fd(), READ),
        ];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(!fds[0].ready());
        assert!(fds[1].ready());
        // A socket with room in its buffer is writable at once.
        let mut fds = [PollFd::new(quiet_tx.as_raw_fd(), WRITE)];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
    }

    #[test]
    fn a_hang_up_is_reported_and_an_answer_waiting_is_not() {
        let (mut peer, watched) = UnixStream::pair().unwrap();
        peer.write_all(&[1]).unwrap();
        let mut fds = [PollFd::new(watched.as_raw_fd(), HANG_UP)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        drop(peer);
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        assert!(fds[0].ready());
    }

    #[test]
    fn a_quiet_descriptor_times_out_no_sooner_than_asked() {
        let (_tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(rx.as_raw_fd(), READ)];
        let timeout = Duration::from_millis(20);
        let started = Instant::now();
        assert_eq!(wait(&mut fds, Some(timeout)).unwrap(), 0);
        assert!(started.elapsed() >= timeout, "{:?}", started.elapsed());
        assert!(!fds[0].ready());
    }
}
