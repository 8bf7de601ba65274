//! Regenerates **Table 3** of the paper: processing time for producing a
//! BLS threshold signature share under the three execution environments.
//!
//! ```sh
//! cargo run --release -p distrust-bench --bin table3
//! ```
//!
//! Absolute numbers differ from the paper (their baseline is libBLS C++ on
//! a c5.4xlarge; ours is a from-scratch Rust BLS12-381 on whatever this
//! machine is). What must reproduce is the *shape*: Baseline < Sandbox <
//! TEE+Sandbox, with sandbox interpretation contributing the bulk of the
//! overhead and the extra sockets a smaller additional cost. Results are
//! also written to `bench_results/table3.json`.
//!
//! One row has no paper counterpart: the guest's algorithm run natively,
//! the host calls of a sandboxed signature replayed without the VM
//! (`threshold_signer::Replay`). Between Baseline and Sandbox, it splits
//! the Sandbox row's increase into what the guest's algorithm costs and
//! what the interpreter adds; the run also prints Sandbox over it, the
//! figure the apps crate's replay guard holds.
//!
//! The five environments are timed interleaved: each sample calls every
//! one once, in an order that rotates from sample to sample, and a row's
//! increase is the median of its per-sample ratio to Baseline. A host
//! that changes speed during the run then moves every row of a sample
//! alike, where rows timed one after another would each meet a different
//! host.

use distrust_bench::{Environment, SigningBench, Summary};
use std::time::{Duration, Instant};

const WARMUP: usize = 20;
const ITERATIONS: usize = 200;

/// Table 3's rows, Baseline first: every ratio is to it.
const ENVIRONMENTS: [Environment; 5] = [
    Environment::Baseline,
    Environment::GuestNative,
    Environment::Sandbox,
    Environment::TeeSandbox,
    Environment::TeeTomorrow,
];

struct Row {
    label: &'static str,
    summary: Summary,
    /// Median of the per-sample ratios to Baseline, as a percentage
    /// increase.
    increase: f64,
    paper_ms: f64,
    paper_increase: Option<f64>,
}

/// The median over samples of `row`'s time over `against`'s.
fn median_ratio(row: &[Duration], against: &[Duration]) -> f64 {
    let mut ratios: Vec<f64> = row
        .iter()
        .zip(against)
        .map(|(t, b)| t.as_secs_f64() / b.as_secs_f64())
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Per environment, in [`ENVIRONMENTS`]' order, its timed samples.
fn measure() -> Vec<Vec<Duration>> {
    let mut benches: Vec<SigningBench> = ENVIRONMENTS
        .iter()
        .map(|&env| SigningBench::start(env).expect("start environment"))
        .collect();
    let mut times = vec![Vec::with_capacity(ITERATIONS); ENVIRONMENTS.len()];
    for i in 0..WARMUP + ITERATIONS {
        // Distinct message per sample so hash-to-curve work is not reused.
        let message = format!("table3 message {i:06}");
        for j in 0..ENVIRONMENTS.len() {
            let row = (i + j) % ENVIRONMENTS.len();
            let bench = &mut benches[row];
            let start = Instant::now();
            let reply = bench.sign(message.as_bytes());
            let elapsed = start.elapsed();
            if i == 0 {
                assert!(
                    bench.verify_output(message.as_bytes(), &reply),
                    "environment produced a wrong signature"
                );
            }
            if i >= WARMUP {
                times[row].push(elapsed);
            }
        }
    }
    times
}

fn main() {
    println!("Regenerating Table 3 ({ITERATIONS} interleaved samples of each environment)…\n");

    let paper = [
        (10.2, None),
        // The guest's algorithm natively — no paper number.
        (f64::NAN, None),
        (14.9, Some(46.1)),
        (15.8, Some(54.9)),
        // §4.2 projection — no paper number.
        (f64::NAN, None),
    ];
    let times = measure();
    let rows: Vec<Row> = ENVIRONMENTS
        .iter()
        .zip(&times)
        .zip(paper)
        .map(|((env, samples), (paper_ms, paper_increase))| Row {
            label: env.label(),
            summary: Summary::from_samples(samples.clone()),
            increase: (median_ratio(samples, &times[0]) - 1.0) * 100.0,
            paper_ms,
            paper_increase,
        })
        .collect();
    let row = |env: Environment| ENVIRONMENTS.iter().position(|&e| e == env).expect("a row");
    let vm_share = median_ratio(
        &times[row(Environment::Sandbox)],
        &times[row(Environment::GuestNative)],
    );

    println!("Table 3: Processing time for producing a BLS threshold signature share");
    println!("{:-<118}", "");
    println!(
        "{:<46} {:>14} {:>10} {:>10} | {:>12} {:>14}",
        "Environment", "Measured", "Increase", "p95", "Paper", "Paper increase"
    );
    println!("{:-<118}", "");
    for row in &rows {
        let increase = if row.label == "Baseline" {
            "—".to_string()
        } else {
            format!("{:+.1}%", row.increase)
        };
        let paper_increase = match row.paper_increase {
            None => "—".to_string(),
            Some(p) => format!("+{p:.1}%"),
        };
        let paper_col = if row.paper_ms.is_nan() {
            "—".to_string()
        } else {
            format!("{:.1} ms", row.paper_ms)
        };
        println!(
            "{:<46} {:>11.3} ms {:>10} {:>7.3} ms | {:>12} {:>14}",
            row.label,
            row.summary.mean_ms(),
            increase,
            row.summary.p95.as_secs_f64() * 1e3,
            paper_col,
            paper_increase,
        );
    }
    println!("{:-<118}", "");
    println!(
        "\nSandbox / guest algorithm natively: {vm_share:.3} (the interpreter's share; \
         the apps crate's replay guard holds it below 1.5)"
    );

    // Shape assertions — what DESIGN.md asks a reproduction to show.
    let sandbox_inc = rows[row(Environment::Sandbox)].increase;
    let tee_inc = rows[row(Environment::TeeSandbox)].increase;
    let tomorrow_inc = rows[row(Environment::TeeTomorrow)].increase;
    println!("\nshape check:");
    println!(
        "  sandbox adds overhead over baseline:        {} (+{:.1}%)",
        sandbox_inc > 0.0,
        sandbox_inc
    );
    println!(
        "  TEE+sandbox adds overhead over sandbox:     {} (+{:.1}% vs baseline)",
        tee_inc > sandbox_inc,
        tee_inc
    );
    println!(
        "  §4.2 hardware (no in-TEE socket) recovers:  {:.1}% of the TEE increment",
        if tee_inc > sandbox_inc {
            (tee_inc - tomorrow_inc) / (tee_inc - sandbox_inc) * 100.0
        } else {
            0.0
        }
    );

    // Emit machine-readable results for EXPERIMENTS.md. Formatted by hand:
    // every value is a number, a string without escapes, or null, so no
    // JSON library is needed (and none is available offline).
    fn json_f64(v: f64) -> String {
        if v.is_nan() {
            "null".to_string()
        } else {
            format!("{v:.6}")
        }
    }
    let row_objects: Vec<String> = rows
        .iter()
        .map(|r| {
            let increase_pct = if r.label == "Baseline" {
                "null".to_string()
            } else {
                json_f64(r.increase)
            };
            let paper_increase = match r.paper_increase {
                Some(p) => json_f64(p),
                None => "null".to_string(),
            };
            format!(
                concat!(
                    "    {{\n",
                    "      \"environment\": \"{}\",\n",
                    "      \"mean_ms\": {},\n",
                    "      \"median_ms\": {},\n",
                    "      \"p95_ms\": {},\n",
                    "      \"increase_pct\": {},\n",
                    "      \"paper_ms\": {},\n",
                    "      \"paper_increase_pct\": {}\n",
                    "    }}"
                ),
                r.label,
                json_f64(r.summary.mean_ms()),
                json_f64(r.summary.median.as_secs_f64() * 1e3),
                json_f64(r.summary.p95.as_secs_f64() * 1e3),
                increase_pct,
                json_f64(r.paper_ms),
                paper_increase,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"table3\",\n  \"iterations\": {},\n",
            "  \"increase\": \"median of per-sample ratios to Baseline, rows interleaved\",\n",
            "  \"sandbox_over_guest_native\": {},\n",
            "  \"rows\": [\n{}\n  ]\n}}\n"
        ),
        ITERATIONS,
        json_f64(vm_share),
        row_objects.join(",\n"),
    );
    println!();
    distrust_bench::report::write("table3", &json);
}
