//! `e2e` — the repo's end-to-end benchmark. See `README.md` beside
//! `Cargo.toml` for the tables; in short:
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (what the driver calls)
//! e2e [--seed <n>] [--seconds <s>] [--runs <r>] [--trace <0|1>]  all four workloads, one fresh
//!                                                                process each; medians over r runs
//! e2e --compare <a.json> <b.json>                                apply BENCHMARK.json's bounds
//! ```
//!
//! The last line of a single run's standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); everything a person
//! reads is printed above it.

mod compare;
mod json;
mod probes;
mod report;
mod run;
mod stats;
mod steady;
mod trace;
mod traced;
mod workloads;

use json::Value;
use run::RunConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: u64,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        runs: 1,
        compare: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                parsed.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--runs" => {
                parsed.runs = value("a count")?
                    .parse()
                    .ok()
                    .filter(|r| *r >= 1)
                    .ok_or("--runs takes a count of at least 1")?;
            }
            "--compare" => {
                parsed.compare = Some((value("two files")?.into(), value("two files")?.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Where results, traces and durable logs go: `e2e/` inside the cargo
/// target directory this binary was built into (`/bench_results` is
/// git-ignored, and a run must write only inside its checkout).
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(|target| target.join("e2e")))
        .unwrap_or_else(|| PathBuf::from("target/e2e"))
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.render_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// What one run hands the result line and its detail file.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<probes::Metric>,
    errors: Vec<String>,
    /// Prefix of the detail file: `result-…` or `layers-…`.
    file: &'static str,
    /// Fields of the detail file beyond the common ones.
    extra: Vec<(&'static str, Value)>,
}

fn traced_report(config: &RunConfig, out: &Path) -> Result<Report, String> {
    let t = traced::run_traced(config, out)?;
    println!("per-layer metrics (medians; n = samples):");
    report::print_metrics(&t.metrics);
    println!("  trace written to {}", t.trace_file.display());
    let extra = vec![(
        "trace_file",
        Value::str(&t.trace_file.display().to_string()),
    )];
    Ok(Report {
        attempted: t.attempted,
        failed: t.failed,
        metrics: t.metrics,
        errors: t.errors,
        file: "layers",
        extra,
    })
}

fn untraced_report(config: &RunConfig) -> Result<Report, String> {
    let o = run::run_untraced(config)?;
    let metrics =
        report::end_to_end_metrics(&o).ok_or("a phase finished without a single sample")?;
    println!("end-to-end metrics (n = samples behind each):");
    report::print_metrics(&metrics);
    let noise = report::noise(&o.warm.normalised_ms);
    let fail_share = o.failed() as f64 / o.attempted().max(1) as f64;
    println!(
        "  {:<28} {:>14.6} {:<6} (n={})",
        "fail_share",
        fail_share,
        "ratio",
        o.attempted()
    );
    println!(
        "  core.ops_per_s = {:.4} 1/s, core.cpu_ms_per_op = {:.4} ms (warm phase, n={}; not gated)",
        o.warm.ops_per_s(),
        o.warm.cpu_ms_per_op(),
        o.warm.attempted()
    );
    println!(
        "  as the clock read them: setup_s = {:.4} s, cold_ms_p50 = {:.4} ms, op_ms_p50 = {:.4} ms \
         (the gated ones are scaled to the reference kernel's {} us; see steady.rs)",
        stats::median(&o.setup_raw_s).unwrap_or(f64::NAN),
        stats::median(&o.cold.samples_ms).unwrap_or(f64::NAN),
        stats::median(&o.warm.samples_ms).unwrap_or(f64::NAN),
        steady::NOMINAL_US,
    );
    println!(
        "  set-ups (s): {:?}; idle spinners on the core: {}",
        o.setup_s,
        match o.spinners {
            0 => "NONE (SCHED_IDLE refused)".to_string(),
            n => n.to_string(),
        }
    );
    for (label, phase) in [("cold", &o.cold), ("op", &o.warm)] {
        if let Some((pct, value)) = stats::tail(&phase.samples_ms) {
            let max = phase.samples_ms.iter().copied().fold(0.0, f64::max);
            println!(
                "  core.{label}_ms_tail: p{pct:.2} = {value:.4} ms, max = {max:.4} ms (n={})",
                phase.attempted()
            );
        }
    }
    println!(
        "  warm-phase block medians (ms): {:?}; core.block_spread_pct = {:.2}{}",
        noise.block_medians,
        noise.spread_pct,
        if noise.noisy { "  ** noisy **" } else { "" }
    );
    let extra = vec![
        ("noisy", Value::Bool(noise.noisy)),
        ("block_spread_pct", Value::Num(noise.spread_pct)),
        (
            "block_medians_ms",
            Value::Arr(noise.block_medians.into_iter().map(Value::Num).collect()),
        ),
        (
            "setup_s_each",
            Value::Arr(o.setup_s.iter().copied().map(Value::Num).collect()),
        ),
    ];
    Ok(Report {
        attempted: o.attempted(),
        failed: o.failed(),
        metrics,
        errors: o.errors(),
        file: "result",
        extra,
    })
}

/// One workload, one process: what the driver runs.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let spec = workloads::spec(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!("no workload {name:?}; there are {known:?}")
    })?;
    let out = out_dir();
    let scratch = out.join("tmp");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("mkdir {}: {e}", scratch.display()))?;
    let config = RunConfig::new(spec, args.seed, args.seconds, scratch);
    // Before any thread exists: every thread of the run inherits the core.
    let cores = nproc();
    let pinned = steady::pin_to_one_core();
    println!(
        "e2e {} seed={} seconds={} trace={}: n={} domains (domain 0 on DirectHost, domains 1..{} \
         behind EnclaveHost proxies, loopback TCP), one closed-loop client thread, nproc={cores}, {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        spec.n,
        spec.n - 1,
        match pinned {
            Some(cpu) => format!("client and all domains pinned to cpu {cpu}"),
            None => "NOT pinned to one core (affinity unavailable)".to_string(),
        },
    );
    println!("  why: {}", spec.why);

    let report = if args.traced {
        traced_report(&config, &out)?
    } else {
        untraced_report(&config)?
    };
    let Report {
        attempted,
        failed,
        metrics,
        errors,
        file: detail_name,
        extra,
    } = report;
    for e in &errors {
        println!("  FAILED: {e}");
    }

    let mut detail = vec![
        ("workload", Value::str(spec.name)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("traced", Value::Bool(args.traced)),
        ("nproc", Value::Num(cores as f64)),
        (
            "pinned_cpu",
            pinned.map_or(Value::Null, |cpu| Value::Num(cpu as f64)),
        ),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", report::metrics_value(&metrics, true)),
    ];
    detail.extend(extra);
    write_json(
        &out.join(format!("{detail_name}-{}.json", spec.name)),
        &Value::obj(detail),
    )?;
    // Scratch holds only what this process made; other runs may share
    // the parent, so only an empty one is removed.
    let _ = std::fs::remove_dir(out.join("tmp"));
    println!(
        "{}",
        report::result_line(attempted, failed, &metrics).render()
    );
    Ok(ExitCode::SUCCESS)
}

/// First line of a command's output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// All four workloads, each in a fresh process (clean ports, threads,
/// allocator and `VmHWM`), `runs` times over seeds `seed..seed+runs`;
/// writes the per-cell medians and quartiles to one file `--compare`
/// reads.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = out_dir();
    let detail_name = if args.traced { "layers" } else { "result" };
    let mut workloads_out = Vec::new();
    let mut any_failed = false;
    for spec in &workloads::SPECS {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed, mut noisy_runs) = (0.0, 0.0, 0u64);
        for r in 0..args.runs {
            let status = std::process::Command::new(&exe)
                .args(["--workload", spec.name])
                .args(["--seed", &(args.seed + r).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} run {r} exited with {status}", spec.name));
            }
            let path = out.join(format!("{detail_name}-{}.json", spec.name));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let detail = json::parse(&text)?;
            let number = |key: &str| detail.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            attempted += number("attempted");
            failed += number("failed");
            noisy_runs += u64::from(detail.get("noisy") == Some(&Value::Bool(true)));
            for (name, m) in detail.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
                let (Some(value), Some(unit)) = (
                    m.get("value").and_then(Value::as_f64),
                    m.get("unit").and_then(Value::as_str),
                ) else {
                    continue;
                };
                match values.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, v)) => v.push(value),
                    None => values.push((name.clone(), unit.to_string(), vec![value])),
                }
            }
        }
        any_failed |= failed > 0.0;
        let metrics = values
            .into_iter()
            .map(|(name, unit, v)| {
                let mut cell = vec![
                    ("value", Value::Num(stats::median(&v).unwrap_or(f64::NAN))),
                    ("unit", Value::str(&unit)),
                ];
                if let Some((q1, _, q3)) = stats::quartiles(&v) {
                    cell.push(("q1", Value::Num(q1)));
                    cell.push(("q3", Value::Num(q3)));
                }
                cell.push((
                    "values",
                    Value::Arr(v.into_iter().map(Value::Num).collect()),
                ));
                (name, Value::obj(cell))
            })
            .collect();
        workloads_out.push((
            spec.name.to_string(),
            Value::obj(vec![
                ("runs", Value::Num(args.runs as f64)),
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                ("noisy_runs", Value::Num(noisy_runs as f64)),
                ("metrics", Value::Obj(metrics)),
            ]),
        ));
    }
    let doc = Value::obj(vec![
        ("seed", Value::Num(args.seed as f64)),
        ("runs", Value::Num(args.runs as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("traced", Value::Bool(args.traced)),
        (
            "host",
            Value::obj(vec![
                ("nproc", Value::Num(nproc() as f64)),
                ("rustc", Value::str(&first_line_of("rustc", &["-V"]))),
                (
                    "git_rev",
                    Value::str(&first_line_of("git", &["rev-parse", "HEAD"])),
                ),
            ]),
        ),
        ("workloads", Value::Obj(workloads_out)),
    ]);
    let kind = if args.traced { "layers" } else { "runs" };
    let path = out.join(format!("{kind}-seed{}.json", args.seed));
    write_json(&path, &doc)?;
    println!(
        "medians of {} run(s) per workload written to {}",
        args.runs,
        path.display()
    );
    Ok(if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `BENCHMARK.json`: in the working directory (a checkout's root), else
/// beside the package this binary was built from.
fn load_benchmark_json() -> Result<Value, String> {
    let candidates = [
        PathBuf::from("BENCHMARK.json"),
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ];
    let text = candidates
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found in the working directory or beside the package")?;
    json::parse(&text)
}

fn run_compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {}: {e}", p.display()))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let cells = compare::compare(&load_benchmark_json()?, &load(a)?, &load(b)?)?;
    Ok(if compare::print(&cells) {
        println!("regression: at least one cell is worse than its bound allows");
        ExitCode::FAILURE
    } else {
        println!("no cell regressed");
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            run_compare(a, b)
        } else if let Some(name) = args.workload.clone() {
            run_one(&args, &name)
        } else {
            run_all(&args)
        }
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "sign_quorum",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sign_quorum"));
        assert_eq!((a.seed, a.seconds, a.traced, a.runs), (42, 10.0, true, 1));
        let d = args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.traced),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(d.workload.is_none() && d.compare.is_none());
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--seed"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "yes"],
            &["--runs", "0"],
            &["--compare", "only-one"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn default_seconds_is_the_benchmark_files() {
        let doc = load_benchmark_json().unwrap();
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
    }

    /// All four workloads end to end on real sockets, small: an API
    /// change that breaks the benchmark fails here. The traced pass runs
    /// on the cheapest workload, so every probe is exercised too.
    #[test]
    fn smoke_all_workloads_end_to_end() {
        let scratch = std::env::temp_dir().join(format!("e2e-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        for spec in &workloads::SPECS {
            let mut config = RunConfig::new(spec, 7, 0.4, scratch.clone());
            config.setups = 1;
            config.warmup = 2;
            config.cold_max = 3;
            let o = run::run_untraced(&config).unwrap();
            assert_eq!(
                o.failed(),
                0,
                "{}: {:?} {:?}",
                spec.name,
                o.warm.errors,
                o.check_failures
            );
            assert!(o.cold.attempted() >= 1 && o.warm.attempted() >= 1);
            let metrics = report::end_to_end_metrics(&o).unwrap();
            assert_eq!(metrics.len(), report::END_TO_END.len());
            assert!(metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
        }
        let spec = workloads::spec("share_single").unwrap();
        let mut config = RunConfig::new(spec, 7, 0.4, scratch.clone());
        config.warmup = 2;
        config.cold_max = 2;
        let t = traced::run_traced(&config, &scratch).unwrap();
        assert_eq!(t.failed, 0, "{:?}", t.errors);
        assert_eq!(t.metrics.len(), report::PER_LAYER.len());
        let get = |name: &str| t.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert!(
            get("crypto.partial_sign_us") < get("sandbox.sign_us"),
            "Table 3's ordering"
        );
        assert!(get("crypto.host_calls_per_sign") > 1000.0);
        let trace = json::parse(&std::fs::read_to_string(&t.trace_file).unwrap()).unwrap();
        assert!(!trace.get("spans").unwrap().as_arr().unwrap().is_empty());
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
