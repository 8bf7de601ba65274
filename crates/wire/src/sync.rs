//! Workspace-standard mutex with uniform poisoning policy.
//!
//! Every server-side shared structure (connection registries, shared
//! transports, domain logs, wrapped services) locks through
//! [`HealthyMutex::lock_healthy`]: if a previous holder panicked, the
//! poison is shed and the guard is handed out anyway. The protected
//! structures are all either append-only or idempotently rebuilt, so a
//! half-finished mutation from a panicked writer is strictly less harmful
//! than wedging every subsequent client with opaque `PoisonError`s — a
//! denial-of-service the trust story can't afford (one panicking request
//! must not take the whole domain's serving path down with it).
//!
//! Using one named helper (rather than `parking_lot`-style silent
//! recovery scattered per call site) keeps the policy greppable and lets
//! `distrust-lint` treat `.lock_healthy()` as a lock acquisition in its
//! lock-order pass.

use std::sync::{Mutex, MutexGuard};

/// A mutex whose guard is always obtainable: poison from a panicked
/// holder is recovered instead of propagated.
#[derive(Debug, Default)]
pub struct HealthyMutex<T: ?Sized> {
    inner: Mutex<T>,
}

impl<T> HealthyMutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Self {
            inner: Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value (poison shed).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<T: ?Sized> HealthyMutex<T> {
    /// Acquires the lock, recovering from a panicked previous holder
    /// instead of returning a poison error.
    pub fn lock_healthy(&self) -> MutexGuard<'_, T> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = HealthyMutex::new(1);
        *m.lock_healthy() += 41;
        assert_eq!(*m.lock_healthy(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn panicked_holder_does_not_wedge_later_clients() {
        let m = Arc::new(HealthyMutex::new(vec![1u8]));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock_healthy();
            panic!("holder dies mid-critical-section");
        })
        .join();
        // The next client still gets a guard and sees consistent state.
        assert_eq!(m.lock_healthy().len(), 1);
    }
}
