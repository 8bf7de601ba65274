//! The one operating-system call `std` does not expose: `poll(2)`.
//!
//! A reactor thread blocks here until one of its sockets is ready, instead
//! of sweeping them on a timer. This is the product crates' only `unsafe`
//! code: one foreign declaration and one call, both below.

use std::os::fd::RawFd;

/// Wait until the descriptor is readable (`POLLIN`).
pub const READ: i16 = 0x001;
/// Wait until the descriptor is writable (`POLLOUT`).
pub const WRITE: i16 = 0x004;

/// One descriptor to wait on, laid out as the kernel's `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Waits on `fd` for `events` (a union of [`READ`] and [`WRITE`]).
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

/// Blocks until at least one of `fds` is ready, and returns how many are.
/// A signal that interrupts the wait restarts it.
pub fn wait(fds: &mut [PollFd]) -> std::io::Result<usize> {
    let len = std::ffi::c_ulong::try_from(fds.len())
        .map_err(|_| std::io::Error::from(std::io::ErrorKind::InvalidInput))?;
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of `len`
        // `#[repr(C)]` pollfd records for the whole call, and the kernel
        // writes only their `revents` fields; a timeout of -1 means no
        // timeout.
        let ready = unsafe { poll(fds.as_mut_ptr(), len, -1) };
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
        assert_eq!(wait(&mut fds).unwrap(), 1);
        assert!(!fds[0].ready());
        assert!(fds[1].ready());
        // A socket with room in its buffer is writable at once.
        let mut fds = [PollFd::new(quiet_tx.as_raw_fd(), WRITE)];
        assert_eq!(wait(&mut fds).unwrap(), 1);
    }
}
