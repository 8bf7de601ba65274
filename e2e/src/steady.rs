//! What keeps a run steady on a few cores of a shared host.
//!
//! Three things move a latency here without any change to the program.
//! The host's speed changes, one virtual CPU at a time: the same
//! arithmetic takes 60 µs or 100 µs from one millisecond to the next, on
//! one core while the other stays fast. An idle virtual CPU halts, and
//! waking it costs 25 µs or 70 µs depending on what the host is doing —
//! every thread hand-off of an operation pays it. And whatever else runs
//! in the guest takes a core when it likes.
//!
//! * [`pin_to_one_core`] puts the whole run — client, every domain, every
//!   proxy — on one core, so there is one speed to know and no wake-up
//!   crosses cores; the other core is left to everything else.
//! * [`IdleSpinners`] keeps that core from halting: a `SCHED_IDLE` thread
//!   spins on it, and any thread of the program pre-empts it at once.
//! * [`Reference`] measures the speed: a fixed arithmetic kernel of the
//!   benchmark's own, timed between operations on the same core, and
//!   [`Reference::normalise`] reports latencies at the reference speed
//!   ([`NOMINAL_US`] per kernel) instead of whatever speed the host
//!   happened to grant at that moment.

use crate::stats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Name (and `/proc` comm) of the spinner threads.
const SPIN_THREAD: &str = "e2e-idle-spin";

#[repr(C)]
struct SchedParam {
    priority: i32,
}

/// Words of the kernel's CPU mask: room for 1024 CPUs, as `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    // libc's, which std links on every unix target.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and so every thread started after it, to
/// the highest-numbered CPU it may run on (interrupts favour CPU 0).
/// Returns that CPU, or `None` when the mask cannot be read or set — the
/// run then goes on unpinned and says so.
pub fn pin_to_one_core() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and outlives both calls; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|w| *w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: as above; the call only reads `one`.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// Linux's `SCHED_IDLE`: runs only when nothing else wants the core.
const SCHED_IDLE: i32 = 5;

/// One spinning `SCHED_IDLE` thread per core the process may use, until
/// dropped.
pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    /// Handle and kernel thread id of each spinner that got its policy.
    threads: Vec<(JoinHandle<()>, u64)>,
}

impl IdleSpinners {
    /// Starts one spinner per available core. A thread that cannot get
    /// `SCHED_IDLE` ends at once — spinning at normal priority would take
    /// the cores from the program — so [`Self::count`] may be 0.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let mut threads = Vec::with_capacity(cores);
        for _ in 0..cores {
            let (tx, rx) = mpsc::channel();
            let stop_flag = stop.clone();
            let spawned = std::thread::Builder::new()
                .name(SPIN_THREAD.to_string())
                .spawn(move || {
                    let param = SchedParam { priority: 0 };
                    // SAFETY: `param` outlives the call, which only reads it;
                    // pid 0 is the calling thread.
                    let set = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                    let tid = set.then(own_tid).flatten();
                    let _ = tx.send(tid);
                    if tid.is_none() {
                        return;
                    }
                    while !stop_flag.load(Ordering::Relaxed) {
                        for _ in 0..64 {
                            std::hint::spin_loop();
                        }
                    }
                });
            let Ok(handle) = spawned else { continue };
            match rx.recv() {
                Ok(Some(tid)) => threads.push((handle, tid)),
                _ => {
                    let _ = handle.join();
                }
            }
        }
        Self { stop, threads }
    }

    pub fn count(&self) -> usize {
        self.threads.len()
    }

    /// CPU seconds the spinners have used: what to take off the process's
    /// CPU time to get the program's.
    pub fn cpu_seconds(&self) -> f64 {
        self.threads
            .iter()
            .filter_map(|(_, tid)| {
                let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
                stats::parse_stat_cpu_seconds(&stat)
            })
            .sum()
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for (handle, _) in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The calling thread's kernel id: the first field of its own stat file.
fn own_tid() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    stat.split_ascii_whitespace().next()?.parse().ok()
}

/// What one [`reference_kernel`] call takes on this box when it is quiet,
/// in µs. Only a scale: it makes normalised latencies read like the raw
/// ones of a quiet run.
pub const NOMINAL_US: f64 = 60.0;

const KERNEL_ROUNDS: u32 = 6000;

/// The reference work: 6 000 dependent 256×256-bit multiplications, the
/// instruction mix of the field arithmetic the workloads spend their time
/// in. It touches no memory beyond its registers and calls nothing, so
/// its time is the core's speed and nothing else; and it is the
/// benchmark's own code, so no change to the program can move it.
#[inline(never)]
pub fn reference_kernel(mut x: [u64; 4]) -> [u64; 4] {
    const M: [u64; 4] = [
        0xffff_fffe_ffff_fc2f,
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
    ];
    for _ in 0..KERNEL_ROUNDS {
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let v = u128::from(x[i]) * u128::from(M[j]) + u128::from(t[i + j]) + carry;
                t[i + j] = v as u64;
                carry = v >> 64;
            }
            t[i + 4] = carry as u64;
        }
        for i in 0..4 {
            x[i] = t[i] ^ t[i + 4].rotate_left(17);
        }
    }
    x
}

/// Reference samples are taken no closer together than this …
const MIN_GAP: Duration = Duration::from_millis(2);
/// … and use about this share of the time since the last ones,
const REFERENCE_SHARE: f64 = 0.05;
/// within these counts per [`Reference::tick`].
const MIN_SAMPLES: usize = 3;
const MAX_SAMPLES: usize = 96;
/// A kernel this many times slower than the fastest one near it was
/// interrupted, not slowed: the host's slow state is about 1.7 times the
/// fast one.
const INTERRUPTED: f64 = 2.5;
/// An operation's speed is read from the samples this close to it (s):
/// the ticks just before and just after it.
const NEAR_S: f64 = 0.005;

/// The reference kernel's timings over a run, on the run's clock.
pub struct Reference {
    epoch: Instant,
    state: [u64; 4],
    last_tick: Instant,
    /// `(seconds since the epoch, µs one kernel took)`.
    samples: Vec<(f64, f64)>,
}

impl Reference {
    pub fn new() -> Self {
        let now = Instant::now();
        Self {
            epoch: now,
            state: [1, 2, 3, 4],
            last_tick: now.checked_sub(MIN_GAP).unwrap_or(now),
            samples: Vec::new(),
        }
    }

    /// Seconds since this clock started.
    pub fn at(&self, instant: Instant) -> f64 {
        instant.duration_since(self.epoch).as_secs_f64()
    }

    /// Called between operations, never inside one: times a few kernels
    /// if the last ones are at least [`MIN_GAP`] old — more of them after
    /// a long operation, so every operation has enough samples near it.
    pub fn tick(&mut self) {
        let since = self.last_tick.elapsed();
        if since < MIN_GAP {
            return;
        }
        let budget_us = since.as_secs_f64() * 1e6 * REFERENCE_SHARE;
        let count = ((budget_us / NOMINAL_US) as usize).clamp(MIN_SAMPLES, MAX_SAMPLES);
        for _ in 0..count {
            let t = Instant::now();
            self.state = reference_kernel(self.state);
            let us = t.elapsed().as_secs_f64() * 1e6;
            self.samples.push((self.at(t), us));
        }
        self.last_tick = Instant::now();
    }

    /// Time per kernel (µs) from `from` to `to` (seconds on this clock):
    /// the mean of the samples taken then — work takes the mean, not the
    /// median, when the host changes speed faster than the work ends —
    /// leaving out any that took over [`INTERRUPTED`] times the fastest of
    /// them. Widened to the nearest [`MIN_SAMPLES`] when fewer lie inside;
    /// `None` before the first tick.
    fn speed_between(&self, from: f64, to: f64) -> Option<f64> {
        // Sorted by time: one thread appends as its clock advances.
        let lo = self.samples.partition_point(|(at, _)| *at < from);
        let hi = self.samples.partition_point(|(at, _)| *at <= to);
        let missing = MIN_SAMPLES.saturating_sub(hi - lo);
        let lo = lo.saturating_sub(missing);
        let hi = (hi + missing).min(self.samples.len());
        let near = &self.samples[lo..hi];
        let fastest = near.iter().map(|(_, us)| *us).fold(f64::INFINITY, f64::min);
        let (sum, count) = near
            .iter()
            .filter(|(_, us)| *us <= INTERRUPTED * fastest)
            .fold((0.0, 0u32), |(sum, count), (_, us)| (sum + us, count + 1));
        (count > 0).then(|| sum / f64::from(count))
    }

    /// `seconds` of work started at `start_s`, as long as it would have
    /// taken had the kernels timed during it (a set-up ticks between its
    /// warm-up operations) taken [`NOMINAL_US`] each.
    pub fn normalise_span(&self, start_s: f64, seconds: f64) -> f64 {
        match self.speed_between(start_s, start_s + seconds) {
            Some(us) => seconds * NOMINAL_US / us,
            None => seconds,
        }
    }

    /// Each latency scaled to the reference speed: `ms × NOMINAL_US ÷` the
    /// time per kernel within [`NEAR_S`] of the operation. A host that
    /// runs everything a third slower for a while slows the kernels next
    /// to those operations by the same third, and the quotient stays.
    pub fn normalise(&self, starts_s: &[f64], samples_ms: &[f64]) -> Vec<f64> {
        starts_s
            .iter()
            .zip(samples_ms)
            .map(|(start, ms)| {
                match self.speed_between(start - NEAR_S, start + ms / 1e3 + NEAR_S) {
                    Some(us) => ms * NOMINAL_US / us,
                    None => *ms,
                }
            })
            .collect()
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        std::hint::black_box(self.state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reference clock that read `us_at(t)` every millisecond for `seconds`.
    fn synthetic(seconds: f64, us_at: impl Fn(f64) -> f64) -> Reference {
        let mut reference = Reference::new();
        reference.samples = (0..(seconds * 1e3) as usize)
            .map(|i| i as f64 / 1e3)
            .map(|at| (at, us_at(at)))
            .collect();
        reference
    }

    #[test]
    fn kernel_is_deterministic_and_not_the_identity() {
        let once = reference_kernel([1, 2, 3, 4]);
        assert_eq!(once, reference_kernel([1, 2, 3, 4]));
        assert_ne!(once, [1, 2, 3, 4]);
        assert_ne!(once, reference_kernel(once));
    }

    #[test]
    fn a_slower_host_normalises_to_the_same_latency() {
        // The host runs at the nominal speed for a second, then a half slower.
        let slow = |at: f64| {
            if at < 1.0 {
                NOMINAL_US
            } else {
                1.5 * NOMINAL_US
            }
        };
        let reference = synthetic(2.0, slow);
        let starts = [0.2, 0.5, 1.2, 1.5];
        let raw = [2.0, 2.0, 3.0, 3.0];
        for ms in reference.normalise(&starts, &raw) {
            assert!((ms - 2.0).abs() < 1e-9, "{ms}");
        }
        // A real slow-down of the program is not normalised away.
        let regressed = reference.normalise(&[1.5], &[6.0]);
        assert!((regressed[0] - 4.0).abs() < 1e-9);
        // A set-up spanning both speeds is scaled by the mean between.
        let span = reference.normalise_span(0.5, 1.0);
        assert!((span - 0.8).abs() < 0.01, "{span}");
    }

    #[test]
    fn an_interrupted_kernel_is_left_out_of_the_speed() {
        let mut reference = synthetic(0.02, |_| NOMINAL_US);
        reference.samples[10].1 = 4000.0; // pre-empted for 4 ms
        assert_eq!(reference.normalise(&[0.01], &[1.0]), [1.0]);
        // The slow state of the host is not an interruption.
        reference.samples[10].1 = 1.7 * NOMINAL_US;
        assert!(reference.normalise(&[0.01], &[1.0])[0] < 1.0);
    }

    #[test]
    fn an_operation_far_from_any_tick_takes_the_nearest_samples() {
        let mut reference = synthetic(0.01, |_| 2.0 * NOMINAL_US);
        assert_eq!(reference.normalise(&[5.0], &[10.0]), [5.0]);
        assert_eq!(reference.normalise(&[-5.0], &[10.0]), [5.0]);
        // Before the first tick there is nothing to scale by.
        reference.samples.clear();
        assert_eq!(reference.normalise(&[0.0], &[10.0]), [10.0]);
        assert_eq!(reference.normalise_span(0.0, 1.0), 1.0);
    }

    #[test]
    fn tick_takes_more_samples_after_a_longer_gap() {
        let mut reference = Reference::new();
        reference.tick();
        assert_eq!(reference.samples.len(), MIN_SAMPLES);
        std::thread::sleep(Duration::from_millis(40));
        reference.tick();
        let after_gap = reference.samples.len() - MIN_SAMPLES;
        assert!(
            after_gap > MIN_SAMPLES && after_gap <= MAX_SAMPLES,
            "{after_gap}"
        );
        assert!(reference.samples.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(reference.samples.iter().all(|(_, us)| *us > 0.0));
    }

    #[test]
    fn pinning_leaves_one_core_and_threads_inherit_it() {
        // On a thread of its own: the test harness keeps its cores.
        let cores = std::thread::spawn(|| {
            let cpu = pin_to_one_core();
            let own = std::thread::available_parallelism().map_or(0, |c| c.get());
            let child =
                std::thread::spawn(|| std::thread::available_parallelism().map_or(0, |c| c.get()))
                    .join()
                    .unwrap();
            (cpu, own, child)
        })
        .join()
        .unwrap();
        if let (Some(_), own, child) = cores {
            assert_eq!((own, child), (1, 1));
        }
    }

    #[test]
    fn spinners_start_use_cpu_and_stop() {
        let spinners = IdleSpinners::start();
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert!(spinners.count() <= cores);
        if spinners.count() > 0 {
            // USER_HZ ticks are 10 ms: spin long enough to see one.
            std::thread::sleep(Duration::from_millis(60));
            assert!(spinners.cpu_seconds() >= 0.0);
        }
        drop(spinners); // joins: a spinner that ignored `stop` would hang here
    }
}
