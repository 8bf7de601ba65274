//! The run shape every workload shares: repeated set-up, a cold phase of
//! fresh clients, a warm phase on one session, output checks.
//!
//! Phases are bounded by time — the driver fixes how long a run measures —
//! so both sides of a later comparison run for equally long, and the
//! operation counts are reported beside every timing.

use crate::stats;
use crate::steady::{IdleSpinners, Reference};
use crate::trace::Tracer;
use crate::workloads::{self, Inputs, Spec, Workload};
use distrust_core::DeploymentClient;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Share of `--seconds` the cold phase may use; what it leaves (it stops
/// early at `cold_max` clients) goes to the warm phase.
const COLD_SHARE: f64 = 0.25;
/// Blocks the warm phase is split into for the noise self-report.
pub const BLOCKS: usize = 5;

pub struct RunConfig {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Measured time: cold phase + warm phase.
    pub seconds: f64,
    /// Times set-up is repeated; the median is `setup_s`, the last
    /// deployment is the one measured.
    pub setups: usize,
    /// Discarded warm-up operations (the spec's `W`, fewer in tests).
    pub warmup: u64,
    /// Fresh clients in the cold phase, at most (the spec's `C`).
    pub cold_max: u64,
    /// Where durable logs live for the length of the run.
    pub scratch: PathBuf,
}

impl RunConfig {
    pub fn new(spec: &'static Spec, seed: u64, seconds: f64, scratch: PathBuf) -> Self {
        Self {
            spec,
            seed,
            seconds,
            setups: 3,
            warmup: spec.warmup,
            cold_max: spec.cold_max,
            scratch,
        }
    }
}

/// The run's steadiers (see [`crate::steady`]): the idle spinners, alive
/// from before the first set-up to the end of the run, and the reference
/// clock the phases tick between operations.
pub struct Steady {
    pub spinners: IdleSpinners,
    pub reference: Reference,
}

impl Steady {
    pub fn start() -> Self {
        Self {
            spinners: IdleSpinners::start(),
            reference: Reference::new(),
        }
    }

    /// CPU seconds of the program — client and every domain — without
    /// the spinners'.
    fn program_cpu_seconds(&self) -> Result<f64, String> {
        Ok(stats::process_cpu_seconds()? - self.spinners.cpu_seconds())
    }
}

/// Latencies and failures of one phase.
#[derive(Default)]
pub struct Phase {
    pub samples_ms: Vec<f64>,
    /// When each sample's operation started, on the reference clock.
    pub starts_s: Vec<f64>,
    /// `samples_ms` at the reference speed (see [`Reference::normalise`]):
    /// what the gated medians are taken of.
    pub normalised_ms: Vec<f64>,
    pub failed: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// First few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.samples_ms.len() as u64
    }

    /// Operations per second of wall clock, everything between
    /// operations included.
    pub fn ops_per_s(&self) -> f64 {
        self.attempted() as f64 / self.wall_s
    }

    /// Process CPU (user + system, client and every domain) per operation.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.attempted() as f64
    }

    fn note(&mut self, reference: &Reference, started: Instant, result: Result<(), String>) {
        self.samples_ms.push(started.elapsed().as_secs_f64() * 1e3);
        self.starts_s.push(reference.at(started));
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// One launched workload with its warm client, warmed up.
pub struct Ready {
    pub workload: Box<dyn Workload>,
    pub client: DeploymentClient,
    pub inputs: Inputs,
}

/// Set-up as the issue defines it: inputs from the seed, keygen, launch,
/// preload, open the warm session, run its gating audit and the warm-up
/// operations.
pub fn set_up(
    config: &RunConfig,
    steady: &mut Steady,
    tracer: &mut Tracer,
) -> Result<Ready, String> {
    steady.reference.tick();
    let inputs = Inputs::new(config.seed, config.spec.name);
    let mut workload = workloads::launch(config.spec, config.seed, &config.scratch, tracer)?;
    let mut client = workload.deployment().client(&inputs.client_seed("warm", 0));
    {
        let mut session = client.session(workload.policy());
        session
            .refresh_trust()
            .map_err(|e| format!("gating audit: {e}"))?;
        for i in 0..config.warmup {
            steady.reference.tick();
            workload.before_op(i, true, tracer)?;
            workload
                .op(&mut session, tracer)
                .map_err(|e| format!("warm-up operation {i}: {e}"))?;
        }
    }
    steady.reference.tick();
    Ok(Ready {
        workload,
        client,
        inputs,
    })
}

/// The paper's user journey: a fresh client (no connections, empty
/// auditor) opens a session and makes its first verified operation. In a
/// traced run the journey is split at `refresh_trust`, so the audit and
/// the first operation are timed apart.
fn cold_journey<'c>(
    workload: &mut dyn Workload,
    client: &'c mut DeploymentClient,
    tracer: &mut Tracer,
) -> Result<distrust_core::Session<'c>, String> {
    let outer = tracer.begin("core.cold");
    let span = tracer.begin("core.session_new");
    let mut session = client.session(workload.policy());
    tracer.end(span);
    if tracer.enabled() {
        let span = tracer.begin("core.cold_audit");
        let audited = session.refresh_trust().map(|_| ());
        tracer.end(span);
        audited.map_err(|e| e.to_string())?;
    }
    let span = tracer.begin("core.cold_first_op");
    let result = workload.op(&mut session, tracer);
    tracer.end(span);
    tracer.end(outer);
    result.map(|()| session)
}

/// Fresh clients in sequence until `deadline` or `cold_max`.
pub fn cold_phase(
    ready: &mut Ready,
    cold_max: u64,
    deadline: Instant,
    steady: &mut Steady,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    for index in 0..cold_max {
        if index > 0 && Instant::now() >= deadline {
            break;
        }
        tracer.set_op(1_000_000 + index);
        let workload = ready.workload.as_mut();
        let seed = ready.inputs.client_seed("cold", index);
        steady.reference.tick();
        let t = Instant::now();
        let mut client = workload.deployment().client(&seed);
        let mut journey = cold_journey(workload, &mut client, tracer);
        let result = journey.as_ref().map(|_| ()).map_err(Clone::clone);
        phase.note(&steady.reference, t, result);
        if let Ok(session) = &mut journey {
            workload.quiesce(session);
        }
    }
    steady.reference.tick();
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.normalised_ms = steady
        .reference
        .normalise(&phase.starts_s, &phase.samples_ms);
    phase
}

/// Operations on `session` until `deadline`, each timed on its own; wall
/// clock and process CPU time are taken around the whole phase, so work
/// between operations (`audit_churn`'s pushes) counts there and not in
/// the latencies.
pub fn warm_phase(
    workload: &mut dyn Workload,
    session: &mut distrust_core::Session<'_>,
    first_index: u64,
    deadline: Instant,
    steady: &mut Steady,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let cpu_before = steady.program_cpu_seconds()?;
    let started = Instant::now();
    let mut index = first_index;
    loop {
        tracer.set_op(index + 1);
        if let Err(e) = workload.before_op(index, false, tracer) {
            // A refused push is a failed operation of the phase.
            phase.note(&steady.reference, Instant::now(), Err(e));
        }
        steady.reference.tick();
        let t = Instant::now();
        let result = workload.op(session, tracer);
        phase.note(&steady.reference, t, result);
        index += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    steady.reference.tick();
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.cpu_s = steady.program_cpu_seconds()? - cpu_before;
    phase.normalised_ms = steady
        .reference
        .normalise(&phase.starts_s, &phase.samples_ms);
    Ok(phase)
}

/// Everything the untraced run reports.
pub struct Outcome {
    /// Each set-up at the reference speed, and as the clock read it.
    pub setup_s: Vec<f64>,
    pub setup_raw_s: Vec<f64>,
    pub cold: Phase,
    pub warm: Phase,
    pub check_failures: Vec<String>,
    pub rss_mb: f64,
    /// Idle spinners that ran (0: `SCHED_IDLE` was refused).
    pub spinners: usize,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.cold.attempted() + self.warm.attempted()
    }

    pub fn failed(&self) -> u64 {
        self.cold.failed + self.warm.failed + self.check_failures.len() as u64
    }

    /// The first few failure messages of each phase, and every failed check.
    pub fn errors(&self) -> Vec<String> {
        [&self.cold.errors, &self.warm.errors, &self.check_failures]
            .into_iter()
            .flatten()
            .cloned()
            .collect()
    }
}

/// The untraced run: `setups` set-ups (the last one kept), cold phase,
/// warm phase, checks.
pub fn run_untraced(config: &RunConfig) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(false);
    let mut steady = Steady::start();
    let mut setup_s = Vec::with_capacity(config.setups);
    let mut setup_raw_s = Vec::with_capacity(config.setups);
    let mut ready = None;
    for _ in 0..config.setups.max(1) {
        // The previous deployment goes first: two at once would charge
        // one set-up for the other's threads and memory.
        drop(ready.take());
        let t = Instant::now();
        ready = Some(set_up(config, &mut steady, &mut tracer)?);
        let seconds = t.elapsed().as_secs_f64();
        setup_raw_s.push(seconds);
        setup_s.push(
            steady
                .reference
                .normalise_span(steady.reference.at(t), seconds),
        );
    }
    let mut ready = ready.expect("at least one set-up ran");

    let started = Instant::now();
    let end = started + Duration::from_secs_f64(config.seconds);
    let cold_deadline = started + Duration::from_secs_f64(config.seconds * COLD_SHARE);
    let cold = cold_phase(
        &mut ready,
        config.cold_max,
        cold_deadline,
        &mut steady,
        &mut tracer,
    );

    let Ready {
        workload, client, ..
    } = &mut ready;
    let mut session = client.session(workload.policy());
    session
        .refresh_trust()
        .map_err(|e| format!("warm session audit: {e}"))?;
    let warm = warm_phase(
        workload.as_mut(),
        &mut session,
        0,
        end,
        &mut steady,
        &mut tracer,
    )?;
    let check_failures = workload.check(&mut session);
    drop(session);
    let rss_mb = stats::process_hwm_mib()?;
    Ok(Outcome {
        setup_s,
        setup_raw_s,
        cold,
        warm,
        check_failures,
        rss_mb,
        spinners: steady.spinners.count(),
    })
}
