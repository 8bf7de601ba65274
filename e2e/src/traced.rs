//! The traced run (`--trace 1`): a shorter pass over the same workload
//! with spans on, then the layer probes. It produces the per-layer
//! numbers only; end-to-end metrics come from the untraced run.

use crate::probes::{self, Metric, Probes};
use crate::report::{self, PER_LAYER};
use crate::run::{self, Phase, Ready, RunConfig};
use crate::stats;
use crate::trace::{self, Tracer};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Shares of `--seconds`: traced cold journeys, then one untraced and one
/// traced block on the warm session. The probes take what they need on
/// top, each capped at [`PROBE_CAP_SHARE`] over all passes.
const COLD_SHARE: f64 = 0.15;
const BLOCK_SHARE: f64 = 0.25;
const PROBE_CAP_SHARE: f64 = 0.01;
/// The probe suite runs this many times, apart in time; each metric is
/// the median over the passes (see [`probes::merge`]).
const PROBE_PASSES: usize = 3;

pub struct TracedOutcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub trace_file: PathBuf,
}

/// Median duration (ms) of the spans called `name`.
fn span_median_ms(tracer: &Tracer, name: &str) -> Result<(f64, u64), String> {
    let durations = tracer.durations_ms(name);
    stats::median(&durations)
        .map(|m| (m, durations.len() as u64))
        .ok_or_else(|| format!("the traced run recorded no {name} span"))
}

/// Layer times summed along the blocking path of one warm operation
/// (ms), from the probes. With one closed-loop client nothing else
/// contends, so an operation costs at least the steps that block it:
/// servers work `cores` at a time, the client's checks run serially.
fn explained_ms(workload: &str, n: usize, t: usize, p: &Probes<'_>) -> Result<f64, String> {
    let us = |name: &str| {
        p.get(name)
            .ok_or_else(|| format!("probe {name} did not run"))
    };
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let rounds = |parts: usize| parts.div_ceil(cores) as f64;
    let n_f = n as f64;
    let per_call_codec = (us("wire.encode_call_ns")? + us("wire.decode_call_ns")?) / 1e3;
    let total_us = match workload {
        // Wait for the t-th of n shares, then t Feldman checks,
        // aggregation and the group-key check on the client.
        "sign_quorum" => {
            us("wire.rtt_64b_us")?
                + us("tee.hop_64b_us")?
                + rounds(t) * us("core.serve_call_us")?
                + t as f64 * us("crypto.verify_partial_us")?
                + us("crypto.aggregate_us")?
                + us("crypto.bls_verify_us")?
        }
        "share_single" => {
            us("wire.rtt_64b_us")? + us("tee.hop_64b_us")? + us("core.serve_call_us")?
        }
        // Wait for all n: shares made and encoded on the client, then n
        // VM dispatches on the servers' cores.
        "submit_small" => {
            us("apps.share_values_8_us")?
                + n_f * per_call_codec
                + us("wire.rtt_64b_us")?
                + us("tee.hop_64b_us")?
                + rounds(n) * us("sandbox.submit8_us")?
        }
        // Wait for all n answers, then per domain: decode, quote check,
        // the incremental bundle, and the board's gossip.
        "audit_churn" => {
            us("wire.rtt_8k_us")?
                + us("tee.hop_8k_us")?
                + rounds(n) * us("core.serve_audit_us")?
                + n_f
                    * (us("wire.decode_bundle_us")?
                        + us("tee.quote_verify_us")?
                        + us("log.observe_bundle_incr_us")?)
                + us("gossip.exchange_ms")? * 1e3
        }
        other => return Err(format!("no blocking-path model for {other:?}")),
    };
    Ok(total_us / 1e3)
}

pub fn run_traced(config: &RunConfig, out_dir: &std::path::Path) -> Result<TracedOutcome, String> {
    let spec = config.spec;
    let mut tracer = Tracer::new(true);
    let mut steady = run::Steady::start();
    let mut ready = run::set_up(config, &mut steady, &mut tracer)?;

    let started = Instant::now();
    let share = |s: f64| Duration::from_secs_f64(config.seconds * s);
    let cold = run::cold_phase(
        &mut ready,
        config.cold_max,
        started + share(COLD_SHARE),
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
    // One deployment serves both blocks: with the tracer off the traced
    // hosts pass calls straight through and no span is recorded.
    tracer.set_enabled(false);
    let untraced_end = Instant::now() + share(BLOCK_SHARE);
    let untraced = run::warm_phase(
        workload.as_mut(),
        &mut session,
        0,
        untraced_end,
        &mut steady,
        &mut tracer,
    )?;
    tracer.set_enabled(true);
    let traced_end = Instant::now() + share(BLOCK_SHARE);
    let traced = run::warm_phase(
        workload.as_mut(),
        &mut session,
        untraced.attempted(),
        traced_end,
        &mut steady,
        &mut tracer,
    )?;
    let call_bytes = workload.call_bytes_per_op()?;
    let facts = workload.facts();
    let check_failures = workload.check(&mut session);
    drop(session);
    // The probes measure layers in isolation: no idle deployment beside them.
    drop(ready);

    let mut passes = Vec::with_capacity(PROBE_PASSES);
    for _ in 0..PROBE_PASSES {
        let cap = share(PROBE_CAP_SHARE / PROBE_PASSES as f64);
        let mut pass = Probes::new(&mut tracer, cap);
        probes::run_all(&mut pass, config.seed, &config.scratch)?;
        passes.push(pass.out);
    }
    let mut probes = Probes::new(&mut tracer, Duration::ZERO);
    probes.out = probes::merge(&passes);

    // Per-workload numbers. Tails follow the rule "highest percentile
    // with at least ten samples beyond it".
    let median = |phase: &Phase, what: &str| {
        stats::median(&phase.samples_ms).ok_or_else(|| format!("{what} made no operation"))
    };
    let (op_tail_pct, op_tail) = stats::tail(&untraced.samples_ms).ok_or("no warm sample")?;
    let (cold_tail_pct, cold_tail) = stats::tail(&cold.samples_ms).ok_or("no cold sample")?;
    let warm_n = untraced.attempted();
    let op_max = untraced.samples_ms.iter().copied().fold(0.0, f64::max);
    let untraced_p50 = median(&untraced, "the untraced block")?;
    // The two blocks run one after the other: compared at the reference
    // speed, so that a host that changed speed between them does not
    // read as overhead.
    let normalised = |phase: &Phase, what: &str| {
        stats::median(&phase.normalised_ms).ok_or_else(|| format!("{what} made no operation"))
    };
    let overhead = normalised(&traced, "the traced block")?
        / normalised(&untraced, "the untraced block")?
        - 1.0;
    probes.set("wire.call_bytes_per_op", call_bytes, "bytes", 1);
    probes.set("core.op_ms_tail", op_tail, "ms", warm_n);
    probes.set("core.op_tail_pct", op_tail_pct, "%", warm_n);
    probes.set("core.cold_ms_tail", cold_tail, "ms", cold.attempted());
    probes.set("core.cold_tail_pct", cold_tail_pct, "%", cold.attempted());
    probes.set("core.op_ms_max", op_max, "ms", warm_n);
    probes.set("core.ops_per_s", untraced.ops_per_s(), "1/s", warm_n);
    probes.set("core.cpu_ms_per_op", untraced.cpu_ms_per_op(), "ms", warm_n);
    probes.set(
        "core.block_spread_pct",
        report::noise(&untraced.normalised_ms).spread_pct,
        "%",
        warm_n,
    );
    probes.set(
        "core.trace_overhead_pct",
        100.0 * overhead,
        "%",
        traced.attempted(),
    );
    let explained = explained_ms(spec.name, spec.n, spec.t, &probes)?;
    probes.set(
        "core.unexplained_pct",
        100.0 * (1.0 - explained / untraced_p50),
        "%",
        warm_n,
    );
    // 0 where the workload makes no threshold fan-out: nothing is asked
    // that could be abandoned.
    probes.set("core.quorum_waste", 0.0, "ratio", 0);
    let mut metrics = std::mem::take(&mut probes.out);
    drop(probes);
    for (name, (value, samples)) in [
        (
            "core.cold_audit_ms",
            span_median_ms(&tracer, "core.cold_audit")?,
        ),
        (
            "core.cold_first_op_ms",
            span_median_ms(&tracer, "core.cold_first_op")?,
        ),
    ] {
        metrics.push(Metric {
            name,
            value,
            unit: "ms",
            samples,
        });
    }
    // What the workload itself measured wins over the fixture's stand-in
    // (`audit_churn`'s own pushes, `sign_quorum`'s own fan-outs).
    for (name, value, samples) in facts {
        if let Some(m) = metrics.iter_mut().find(|m| m.name == name) {
            (m.value, m.samples) = (value, samples);
        }
    }

    // Every declared metric exactly once, in table order.
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for layer in &PER_LAYER {
        let found = metrics
            .iter()
            .find(|m| m.name == layer.name)
            .ok_or_else(|| format!("per-layer metric {} was not measured", layer.name))?;
        debug_assert_eq!(found.unit, layer.unit, "{}", layer.name);
        ordered.push(found.clone());
    }

    std::fs::create_dir_all(out_dir).map_err(|e| format!("mkdir {}: {e}", out_dir.display()))?;
    let trace_file = out_dir.join(format!("trace-{}.json", spec.name));
    let doc = trace::to_json(spec.name, config.seed, tracer.spans());
    std::fs::write(&trace_file, doc.render())
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

    let phases = [cold, untraced, traced];
    let attempted = phases.iter().map(Phase::attempted).sum();
    let failed = phases.iter().map(|p| p.failed).sum::<u64>() + check_failures.len() as u64;
    let mut errors: Vec<String> = phases.into_iter().flat_map(|p| p.errors).collect();
    errors.extend(check_failures);
    Ok(TracedOutcome {
        metrics: ordered,
        attempted,
        failed,
        errors,
        trace_file,
    })
}
