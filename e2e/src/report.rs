//! The metric tables — the single place a metric's name, unit, direction
//! and bound are written in code (`BENCHMARK.json` repeats them, and a
//! test holds the two together) — and the result line.

use crate::json::Value;
use crate::probes::Metric;
use crate::run::{Outcome, BLOCKS};
use crate::stats;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system would see, gated. Two things the issue lists
/// here are elsewhere: `fail_share` is the result line's
/// `failed / attempted` (it must stay 0, and the contract keeps metrics
/// that are 0 out of this list); `ops_per_s` and `cpu_ms_per_op` are the
/// layer metrics `core.ops_per_s` and `core.cpu_ms_per_op`, by the
/// issue's own rule — identical runs on this box spread up to 10 % and
/// 15 % on them. The timings are at the reference speed (`steady.rs`),
/// and the bounds that remain are wider than the issue's: the box itself
/// changes speed by up to 1.7 times for minutes at a time (see the
/// README), and a bound the parent cannot meet twice rejects it.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cold_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.20,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Every per-layer metric a traced run prints, in print order. Counts
/// and sizes are "lower is better" (less work, fewer bytes) except the
/// skip counter, where a skip is work avoided.
pub const PER_LAYER: [Layer; 61] = [
    layer("crypto.hash_to_g1_us", "us", "lower"),
    layer("crypto.partial_sign_us", "us", "lower"),
    layer("crypto.host_calls_per_sign", "count", "lower"),
    layer("crypto.host_us_per_sign", "us", "lower"),
    layer("crypto.verify_partial_us", "us", "lower"),
    layer("crypto.aggregate_us", "us", "lower"),
    layer("crypto.bls_verify_us", "us", "lower"),
    layer("crypto.schnorr_verify_us", "us", "lower"),
    layer("crypto.schnorr_sign_us", "us", "lower"),
    layer("sandbox.sign_us", "us", "lower"),
    layer("sandbox.sign_self_us", "us", "lower"),
    layer("sandbox.fuel_per_sign", "count", "lower"),
    layer("sandbox.overhead_pct", "%", "lower"),
    layer("sandbox.submit8_us", "us", "lower"),
    layer("sandbox.instantiate_us", "us", "lower"),
    layer("tee.quote_verify_us", "us", "lower"),
    layer("tee.quote_us", "us", "lower"),
    layer("tee.hop_64b_us", "us", "lower"),
    layer("tee.hop_8k_us", "us", "lower"),
    layer("wire.rtt_64b_us", "us", "lower"),
    layer("wire.rtt_8k_us", "us", "lower"),
    layer("wire.connect_us", "us", "lower"),
    layer("wire.encode_call_ns", "ns", "lower"),
    layer("wire.decode_call_ns", "ns", "lower"),
    layer("wire.decode_bundle_us", "us", "lower"),
    layer("wire.bundle_bytes", "bytes", "lower"),
    layer("wire.call_bytes_per_op", "bytes", "lower"),
    layer("log.append_us", "us", "lower"),
    layer("log.append_durable_us", "us", "lower"),
    layer("log.push_update_ms_p50", "ms", "lower"),
    layer("log.consistency_range_us", "us", "lower"),
    layer("log.observe_bundle_cold_us", "us", "lower"),
    layer("log.observe_bundle_incr_us", "us", "lower"),
    layer("log.sig_verifies_per_audit", "count", "lower"),
    layer("log.sig_skips_per_audit", "count", "higher"),
    layer("log.restart_ms", "ms", "lower"),
    layer("log.disk_bytes_per_update", "bytes", "lower"),
    layer("gossip.envelope_heads", "count", "lower"),
    layer("gossip.envelope_bytes", "bytes", "lower"),
    layer("gossip.ingest_us", "us", "lower"),
    layer("gossip.exchange_ms", "ms", "lower"),
    layer("gossip.cosign_verify_ms", "ms", "lower"),
    layer("core.op_ms_tail", "ms", "lower"),
    layer("core.op_tail_pct", "%", "higher"),
    layer("core.cold_ms_tail", "ms", "lower"),
    layer("core.cold_tail_pct", "%", "higher"),
    layer("core.op_ms_max", "ms", "lower"),
    layer("core.ops_per_s", "1/s", "higher"),
    layer("core.cpu_ms_per_op", "ms", "lower"),
    layer("core.cold_audit_ms", "ms", "lower"),
    layer("core.cold_first_op_ms", "ms", "lower"),
    layer("core.serve_call_us", "us", "lower"),
    layer("core.serve_audit_us", "us", "lower"),
    layer("core.apply_update_us", "us", "lower"),
    layer("core.quorum_waste", "ratio", "lower"),
    layer("core.unexplained_pct", "%", "lower"),
    layer("core.block_spread_pct", "%", "lower"),
    layer("core.trace_overhead_pct", "%", "lower"),
    layer("apps.share_values_8_us", "us", "lower"),
    layer("apps.share_values_1024_us", "us", "lower"),
    layer("apps.keygen_ms", "ms", "lower"),
];

/// The end-to-end metrics of an untraced run, in table order. `None`
/// when a phase produced no sample to take a median of.
pub fn end_to_end_metrics(outcome: &Outcome) -> Option<Vec<Metric>> {
    let warm_ops = outcome.warm.attempted();
    let values = [
        (
            stats::median(&outcome.setup_s)?,
            outcome.setup_s.len() as u64,
        ),
        (
            stats::median(&outcome.cold.normalised_ms)?,
            outcome.cold.attempted(),
        ),
        (stats::median(&outcome.warm.normalised_ms)?, warm_ops),
        (outcome.rss_mb, 1),
    ];
    Some(
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, (value, samples))| Metric {
                name: m.name,
                value,
                unit: m.unit,
                samples,
            })
            .collect(),
    )
}

/// The noise self-report of a warm phase: block medians, their spread,
/// and whether the spread exceeds `op_ms_p50`'s bound.
pub struct Noise {
    pub block_medians: Vec<f64>,
    pub spread_pct: f64,
    pub noisy: bool,
}

pub fn noise(samples_ms: &[f64]) -> Noise {
    let block_medians = stats::block_medians(samples_ms, BLOCKS);
    let spread_pct = stats::spread_pct(&block_medians);
    let bound = END_TO_END
        .iter()
        .find(|m| m.name == "op_ms_p50")
        .map_or(0.20, |m| m.bound);
    Noise {
        noisy: spread_pct > bound * 100.0,
        block_medians,
        spread_pct,
    }
}

/// `{name: {value, unit}}` — with `samples` too for the detail files (the
/// result line's shape is fixed by the contract).
pub fn metrics_value(metrics: &[Metric], with_samples: bool) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut cell = vec![("value", Value::Num(m.value)), ("unit", Value::str(m.unit))];
                if with_samples {
                    cell.push(("samples", Value::Num(m.samples as f64)));
                }
                (m.name.to_string(), Value::obj(cell))
            })
            .collect(),
    )
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Value {
    Value::obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics_value(metrics, false)),
    ])
}

/// Which way `name` gets better, from the tables.
fn better(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.better)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, better)| better)
}

/// One aligned line per metric: name, value, unit, which way is better,
/// sample count.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<28} {:>14.4} {:<6} {:<6} (n={})",
            m.name,
            m.value,
            m.unit,
            better(m.name),
            m.samples
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` and the tables above must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better);
            assert_eq!(got.get("bound").unwrap().as_f64(), Some(want.bound));
            assert_eq!(got.as_obj().unwrap().len(), 4);
        }
        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better);
            assert_eq!(got.as_obj().unwrap().len(), 3);
        }
        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), crate::workloads::SPECS.len());
        for (got, want) in workloads.iter().zip(&crate::workloads::SPECS) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "why"), want.why);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = vec![Metric {
            name: "op_ms_p50",
            value: 1.203_456_789,
            unit: "ms",
            samples: 10,
        }];
        let line = result_line(1000, 0, &metrics);
        let parsed = json::parse(&line.render()).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        let m = parsed.get("metrics").unwrap().get("op_ms_p50").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.203_456_789));
        assert_eq!(
            result_line(10, 1, &metrics).get("correct"),
            Some(&Value::Bool(false))
        );
    }

    #[test]
    fn noise_flags_a_drifting_run() {
        let steady: Vec<f64> = (0..100).map(|i| 10.0 + f64::from(i % 3) * 0.01).collect();
        assert!(!noise(&steady).noisy);
        let drifting: Vec<f64> = (0..100).map(|i| 10.0 + f64::from(i) * 0.05).collect();
        let n = noise(&drifting);
        assert!(n.noisy && n.block_medians.len() == BLOCKS && n.spread_pct > 10.0);
    }
}
