//! CLI for `distrust-lint`.
//!
//! ```text
//! cargo run -p distrust-lint -- --deny --stats        # CI gate
//! cargo run -p distrust-lint -- --format json         # machine-readable
//! cargo run -p distrust-lint -- --root ../elsewhere   # another workspace
//! ```
//!
//! Exit codes: 0 clean (or findings without `--deny`), 1 unallowlisted
//! findings under `--deny`, 2 usage or I/O error.

use distrust_lint::config::Config;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut stats = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!("--format expects `json` or `text`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(path) => root = PathBuf::from(path),
                None => {
                    eprintln!("--root expects a path");
                    return ExitCode::from(2);
                }
            },
            "--stats" => stats = true,
            "--help" | "-h" => {
                println!(
                    "distrust-lint [--deny] [--format text|json] [--root PATH] [--stats]\n\
                     Repo-aware static analysis: lock-order, panic-path, \
                     protocol-conformance, reactor-blocking, taint-alloc, \
                     trust-boundary.\n\
                     --deny exits non-zero when a finding is not excused by a \
                     `lint:allow(<pass>): <reason>` comment beside it; \
                     --stats appends one line of analysis-size counters \
                     (functions, call edges, cross-crate edges, fixpoint \
                     iterations, wall time)."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    let (report, run_stats) = match distrust_lint::analyze(&Config::repo_default(root)) {
        Ok(out) => out,
        Err(err) => {
            eprintln!("distrust-lint: {err}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", report.render_json());
        if stats {
            // Keep stdout parseable as JSON; counters go to stderr.
            eprintln!("{}", run_stats.render());
        }
    } else {
        print!("{}", report.render_text());
        if stats {
            println!("{}", run_stats.render());
        }
    }
    if deny && report.unallowlisted() > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
