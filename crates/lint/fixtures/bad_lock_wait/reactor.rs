//! Seeded violation: `drain` holds the queue's lock across the readiness
//! wait, so every thread that wants the queue sleeps until a socket is
//! ready. The lock-order pass must report exactly that; the reactor loop's
//! own wait, with no lock held, stays silent.

pub fn drain(state: &Shared, fds: &mut [PollFd]) {
    let queue = state.queue.lock();
    sys::wait(fds);
    queue.clear();
}

fn reactor_loop(fds: &mut [PollFd]) {
    sys::wait(fds);
}
