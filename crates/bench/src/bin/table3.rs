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

use distrust_bench::{Environment, SigningBench, Summary};
use std::time::Instant;

const WARMUP: usize = 20;
const ITERATIONS: usize = 200;

struct Row {
    label: &'static str,
    summary: Summary,
    paper_ms: f64,
    paper_increase: Option<f64>,
}

fn measure(env: Environment) -> Summary {
    let mut bench = SigningBench::start(env).expect("start environment");
    // Distinct message per iteration so hash-to-curve work is not reused.
    let mut samples = Vec::with_capacity(ITERATIONS);
    for i in 0..WARMUP + ITERATIONS {
        let message = format!("table3 message {i:06}");
        let start = Instant::now();
        let sig = bench.sign(message.as_bytes());
        let elapsed = start.elapsed();
        if i == 0 {
            assert!(
                bench.verify_output(message.as_bytes(), &sig),
                "environment produced a wrong signature"
            );
        }
        if i >= WARMUP {
            samples.push(elapsed);
        }
    }
    Summary::from_samples(samples)
}

fn main() {
    println!("Regenerating Table 3 ({ITERATIONS} iterations per environment)…\n");

    let baseline = measure(Environment::Baseline);
    let sandbox = measure(Environment::Sandbox);
    let tee = measure(Environment::TeeSandbox);
    let tomorrow = measure(Environment::TeeTomorrow);

    let rows = [
        Row {
            label: "Baseline",
            summary: baseline.clone(),
            paper_ms: 10.2,
            paper_increase: None,
        },
        Row {
            label: "Sandbox",
            summary: sandbox,
            paper_ms: 14.9,
            paper_increase: Some(46.1),
        },
        Row {
            label: "TEE + Sandbox",
            summary: tee,
            paper_ms: 15.8,
            paper_increase: Some(54.9),
        },
        Row {
            label: "TEE (tomorrow)",
            summary: tomorrow,
            paper_ms: f64::NAN, // §4.2 projection — no paper number
            paper_increase: None,
        },
    ];

    println!("Table 3: Processing time for producing a BLS threshold signature share");
    println!("{:-<88}", "");
    println!(
        "{:<16} {:>14} {:>10} {:>10} | {:>12} {:>14}",
        "Environment", "Measured", "Increase", "p95", "Paper", "Paper increase"
    );
    println!("{:-<88}", "");
    for row in &rows {
        let increase = if row.label == "Baseline" {
            "—".to_string()
        } else {
            format!("+{:.1}%", row.summary.increase_over(&baseline))
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
            "{:<16} {:>11.3} ms {:>10} {:>7.3} ms | {:>12} {:>14}",
            row.label,
            row.summary.mean_ms(),
            increase,
            row.summary.p95.as_secs_f64() * 1e3,
            paper_col,
            paper_increase,
        );
    }
    println!("{:-<88}", "");

    // Shape assertions — what DESIGN.md asks a reproduction to show.
    let sandbox_inc = rows[1].summary.increase_over(&baseline);
    let tee_inc = rows[2].summary.increase_over(&baseline);
    let tomorrow_inc = rows[3].summary.increase_over(&baseline);
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
                json_f64(r.summary.increase_over(&baseline))
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
        "{{\n  \"experiment\": \"table3\",\n  \"iterations\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        ITERATIONS,
        row_objects.join(",\n"),
    );
    println!();
    distrust_bench::report::write("table3", &json);
}
