//! `distrust-lint`: repo-aware static analysis for the distrust workspace.
//!
//! Six passes over a hand-rolled token stream (no registry
//! dependencies, std only), sharing one workspace-wide call graph that
//! resolves `use` imports and type qualifiers across crate seams (see
//! [`resolve`]):
//!
//! 1. **lock-order** — global lock-order graph over named lock fields;
//!    flags cycles, double acquisitions, and locks held across blocking
//!    calls.
//! 2. **panic** — `unwrap`/`expect`/panic-family macros and (on decode
//!    paths) unchecked indexing in server-side request-handling code.
//! 3. **protocol** — Request/Response tag uniqueness, encode↔decode
//!    pairing, codec impl pairing, and fuzz-suite coverage for every
//!    variant.
//! 4. **blocking** — blocking calls reachable from reactor callback paths.
//! 5. **taint-alloc** — interprocedural taint dataflow: wire-announced
//!    lengths and unverified signed-object fields reaching allocation,
//!    index, and loop-bound sinks (the length-bomb class), with a
//!    deterministic source→sink chain per finding — across crate seams,
//!    with argument taint injected into callees.
//! 6. **trust-boundary** — unverified signed-object fields flowing into
//!    state-changing sinks before a verification call dominates them.
//!
//! A finding is suppressed only by `// lint:allow(<pass>): <reason>` on
//! the same or preceding line (reason mandatory); a marker that excuses
//! nothing is itself a finding. See LINTS.md at the workspace root for
//! the full contract and for the record each pass earns its place by.

pub mod config;
pub mod dataflow;
pub mod facts;
pub mod lexer;
pub mod model;
pub mod passes;
pub mod report;
pub mod resolve;
pub mod scan;

use config::Config;
use dataflow::Dataflow;
use model::Model;
use report::Report;
use scan::SourceFile;
use std::io;
use std::path::{Path, PathBuf};

/// Analysis-size counters for one run, for CI step summaries and the
/// wall-time regression gate.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Non-test function definitions across the workspace.
    pub functions: usize,
    /// Resolved call edges, and how many of them cross a crate seam.
    pub call_edges: usize,
    pub cross_crate_edges: usize,
    /// Fixpoint sweeps across the model and dataflow engines.
    pub fixpoint_iters: usize,
    /// Wall time of the analysis (excluding process startup).
    pub wall_ms: u128,
}

impl Stats {
    pub fn render(&self) -> String {
        format!(
            "stats: {} functions, {} call edges ({} cross-crate), {} fixpoint iterations, {} ms",
            self.functions,
            self.call_edges,
            self.cross_crate_edges,
            self.fixpoint_iters,
            self.wall_ms
        )
    }
}

/// Runs every pass under `cfg`; returns the finished report and the run's
/// size counters.
pub fn analyze(cfg: &Config) -> io::Result<(Report, Stats)> {
    let start = std::time::Instant::now();
    let paths = discover(&cfg.root)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let source = std::fs::read_to_string(cfg.root.join(&path))?;
        files.push(SourceFile::parse(path, &source));
    }

    let model = Model::build(&files);
    let flow = Dataflow::build(&files);
    let mut report = Report::default();
    passes::lock_order::run(&model, &mut report);
    passes::blocking::run(&model, &cfg.reactor_entries, &mut report);
    passes::panic_path::run(&files, cfg.scope, &mut report);
    passes::taint_alloc::run(&flow, cfg.scope, &mut report);
    passes::trust_boundary::run(&files, cfg.scope, &mut report);
    if let Some(proto) = &cfg.protocol {
        let fuzz = std::fs::read_to_string(cfg.root.join(&proto.fuzz_file)).ok();
        passes::protocol::run(&files, proto, fuzz.as_deref(), &mut report);
    }
    report.apply_allows(&files);
    report.finish();
    let stats = Stats {
        functions: model.fns.len(),
        call_edges: model.call_edges,
        cross_crate_edges: model.cross_crate_edges,
        fixpoint_iters: model.fixpoint_iters + flow.fixpoint_iters,
        wall_ms: start.elapsed().as_millis(),
    };
    Ok((report, stats))
}

/// Collects the root-relative paths of every source file to scan, sorted
/// for determinism. A workspace root scans `crates/*/src` plus `src/`;
/// any other root (fixture directories) scans all `.rs` files under it.
fn discover(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    if root.join("crates").is_dir() {
        let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for krate in crates {
            let src = krate.join("src");
            if src.is_dir() {
                walk(root, &src, &mut out)?;
            }
        }
        let src = root.join("src");
        if src.is_dir() {
            walk(root, &src, &mut out)?;
        }
    } else {
        walk(root, root, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk(root, &path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}
