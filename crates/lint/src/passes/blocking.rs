//! Pass 4 — reactor-blocking: flags blocking calls (untimed `recv`,
//! `sleep`, blocking `connect`/`accept`/`join`, whole-frame I/O) reachable
//! from reactor callback paths.
//!
//! Entry points are configured by function name: the reactor loop itself,
//! the per-connection pump/flush/adopt paths, and every `handle` — the
//! service callbacks that `wire::reactor` invokes on its worker threads
//! (the framework dispatcher runs there via `DirectHost`). Reachability
//! follows the workspace-wide resolved call graph, crossing crate seams;
//! edges into `*_timeout` functions are not followed, because timed
//! receives are the sanctioned bounded alternative.

use crate::facts::blocking_call;
use crate::model::Model;
use crate::report::{Finding, Report};
use std::collections::BTreeMap;

pub const PASS: &str = "blocking";

/// Default entry set for this repository.
pub fn default_entries() -> Vec<String> {
    ["reactor_loop", "pump", "try_flush", "adopt", "handle"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

pub fn run(model: &Model, entries: &[String], report: &mut Report) {
    // BFS over the intra-crate call graph; `origin` doubles as the
    // visited set and records one deterministic call chain per function.
    let mut origin: BTreeMap<usize, String> = BTreeMap::new();
    let mut queue: Vec<usize> = Vec::new();
    for (i, f) in model.fns.iter().enumerate() {
        if entries.iter().any(|e| e == &f.name) {
            origin.insert(i, f.name.clone());
            queue.push(i);
        }
    }
    let mut at = 0usize;
    while at < queue.len() {
        let i = queue[at];
        at += 1;
        let chain = origin[&i].clone();
        for call in &model.fns[i].calls {
            for j in model.resolve_call(i, call) {
                if let std::collections::btree_map::Entry::Vacant(slot) = origin.entry(j) {
                    slot.insert(format!("{chain} -> {}", model.fns[j].name));
                    queue.push(j);
                }
            }
        }
    }

    for (&i, chain) in &origin {
        let f = &model.fns[i];
        for call in &f.calls {
            if let Some(kind) = blocking_call(call) {
                report.findings.push(Finding::new(
                    PASS,
                    &f.file,
                    call.line,
                    format!("blocking call `{kind}` on a reactor path ({chain})"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::scan::SourceFile;

    fn run_on(src: &str) -> Report {
        let file = SourceFile::parse("crates/x/src/demo.rs".into(), src);
        let model = Model::build(std::slice::from_ref(&file));
        let mut report = Report::default();
        run(&model, &default_entries(), &mut report);
        report.finish();
        report
    }

    #[test]
    fn blocking_reached_through_helpers_fires_with_chain() {
        let report =
            run_on("fn reactor_loop() { helper(); } fn helper() { std::thread::sleep(d); }");
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0]
            .message
            .contains("reactor_loop -> helper"));
    }

    #[test]
    fn timed_receives_are_exempt() {
        let report = run_on(
            "fn reactor_loop() { intake.recv_timeout(d); } \
             fn recv_timeout(d: D) { std::thread::sleep(tiny); }",
        );
        assert_eq!(report.findings.len(), 0);
    }

    #[test]
    fn unreachable_blocking_is_silent() {
        let report = run_on("fn client_only() { sock.recv(); }");
        assert_eq!(report.findings.len(), 0);
    }
}
