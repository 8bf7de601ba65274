//! `distrust-lint`: repo-aware static analysis for the distrust workspace.
//!
//! Six passes over a hand-rolled token stream (no registry
//! dependencies, std only). [`analyze`] builds one workspace-wide
//! [`resolve::Resolver`], which resolves `use` imports and type
//! qualifiers across crate seams, and hands it to both the call-graph
//! [`model`] and the taint [`dataflow`], so every pass sees the same call
//! edges. Every walker reads tokens through the helpers on
//! [`scan::SourceFile`]. The passes:
//!
//! 1. **lock-order** — global lock-order graph over named lock fields;
//!    flags cycles, double acquisitions, and locks held across blocking
//!    calls.
//! 2. **panic** — `unwrap`/`expect`/panic-family macros and (on decode
//!    paths) unchecked indexing in server-side request-handling code.
//! 3. **blocking** — blocking calls reachable from reactor callback paths.
//! 4. **taint-alloc** — interprocedural taint dataflow: wire-announced
//!    lengths and unverified signed-object fields reaching allocation,
//!    index, and loop-bound sinks (the length-bomb class), with a
//!    deterministic source→sink chain per finding — across crate seams,
//!    with argument taint injected into callees.
//! 5. **trust-boundary** — unverified signed-object fields flowing into
//!    state-changing sinks before a verification call dominates them.
//! 6. **dead-surface** — public items of every crate whose name appears
//!    nowhere but their own definition and their own file's tests;
//!    `tests/`, `examples/`, `benches/` and `e2e/src` count as callers
//!    and are read for identifiers only.
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
use lexer::lex;
use model::Model;
use report::Report;
use resolve::Resolver;
use scan::SourceFile;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

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
    /// Wall time of each pass, in run order, and of the shared stages the
    /// passes read: the scan, the resolver, the call-graph model (which
    /// only `lock-order` and `blocking` read) and the taint dataflow.
    pub passes: Vec<(&'static str, Duration)>,
    pub stages: Vec<(&'static str, Duration)>,
}

impl Stats {
    /// Two lines: the size counters, ending with the total wall time, and
    /// the time of each pass and shared stage.
    pub fn render(&self) -> String {
        let times = |list: &[(&str, Duration)]| {
            list.iter()
                .map(|(name, t)| format!("{name} {:.1} ms", t.as_secs_f64() * 1e3))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "stats: {} functions, {} call edges ({} cross-crate), {} fixpoint iterations, {} ms\n\
             passes: {} (shared: {})",
            self.functions,
            self.call_edges,
            self.cross_crate_edges,
            self.fixpoint_iters,
            self.wall_ms,
            times(&self.passes),
            times(&self.stages),
        )
    }
}

/// Runs every pass under `cfg`; returns the finished report and the run's
/// size counters.
pub fn analyze(cfg: &Config) -> io::Result<(Report, Stats)> {
    let start = Instant::now();
    let mut lap = start;
    let mut since_lap = move || {
        let now = Instant::now();
        now - std::mem::replace(&mut lap, now)
    };
    let (paths, caller_paths) = discover(&cfg.root)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let source = std::fs::read_to_string(cfg.root.join(&path))?;
        files.push(SourceFile::parse(path, &source));
    }
    let mut callers = passes::dead_surface::Callers::default();
    for path in caller_paths {
        let source = std::fs::read_to_string(cfg.root.join(&path))?;
        callers.add(&lex(&source).0);
    }
    let mut stages = vec![("scan", since_lap())];

    let resolver = Resolver::build(&files);
    stages.push(("resolve", since_lap()));
    let model = Model::new(&files, &resolver);
    stages.push(("model", since_lap()));
    let flow = Dataflow::new(&files, &resolver);
    stages.push(("dataflow", since_lap()));
    let mut report = Report::default();
    passes::lock_order::run(&model, &mut report);
    let mut pass_times = vec![(passes::lock_order::PASS, since_lap())];
    passes::blocking::run(&model, &passes::blocking::default_entries(), &mut report);
    pass_times.push((passes::blocking::PASS, since_lap()));
    passes::panic_path::run(&files, cfg.scope, &mut report);
    pass_times.push((passes::panic_path::PASS, since_lap()));
    passes::taint_alloc::run(&flow, cfg.scope, &mut report);
    pass_times.push((passes::taint_alloc::PASS, since_lap()));
    passes::trust_boundary::run(&files, cfg.scope, &mut report);
    pass_times.push((passes::trust_boundary::PASS, since_lap()));
    passes::dead_surface::run(&files, &callers, &mut report);
    pass_times.push((passes::dead_surface::PASS, since_lap()));
    report.apply_allows(&files);
    report.finish();
    let stats = Stats {
        functions: model.fns.len(),
        call_edges: model.call_edges,
        cross_crate_edges: model.cross_crate_edges,
        fixpoint_iters: model.fixpoint_iters + flow.fixpoint_iters,
        wall_ms: start.elapsed().as_millis(),
        passes: pass_times,
        stages,
    };
    Ok((report, stats))
}

/// Collects the root-relative paths of every source file to scan, and of
/// the caller files only the dead-surface pass reads, each sorted for
/// determinism. A workspace root scans `crates/*/src` plus `src/`, and
/// reads `tests/`, `examples/` and `benches/` at the root and in each
/// crate, plus `e2e/src`, as callers; any other root (fixture
/// directories) scans all `.rs` files under it and has no callers.
fn discover(root: &Path) -> io::Result<(Vec<String>, Vec<String>)> {
    let (mut sources, mut callers) = (Vec::new(), Vec::new());
    if root.join("crates").is_dir() {
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.push(root.to_path_buf());
        for dir in dirs {
            walk(root, &dir.join("src"), &mut sources)?;
            for sub in ["tests", "examples", "benches"] {
                walk(root, &dir.join(sub), &mut callers)?;
            }
        }
        walk(root, &root.join("e2e/src"), &mut callers)?;
    } else {
        walk(root, root, &mut sources)?;
    }
    sources.sort();
    callers.sort();
    Ok((sources, callers))
}

/// Appends every `.rs` file under `dir`, if it exists, to `out`.
fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
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
