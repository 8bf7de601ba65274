//! Pass 3 — reactor-blocking: flags blocking calls (untimed `recv`,
//! `sleep`, blocking `connect`/`accept`/`join`, whole-frame I/O) reachable
//! from reactor callback paths.
//!
//! Entry points are configured by function name: the reactor loop itself,
//! the per-connection pump/flush/adopt paths, and every `handle` — the
//! service callbacks that `wire::reactor` invokes on its worker threads
//! (the framework dispatcher runs there via `DirectHost`). Reachability
//! follows the workspace-wide resolved call graph, crossing crate seams.
//!
//! One blocking call is what a reactor thread is built to make: the
//! readiness `wait` that `reactor_loop` itself calls, on every connection
//! at once. It is exempt there and nowhere else — a `wait` in a pump, a
//! service callback, or a helper the loop calls stalls every other
//! connection of the thread.

use crate::facts::blocking_call;
use crate::model::Model;
use crate::report::{Finding, Report};
use std::collections::BTreeMap;

pub const PASS: &str = "blocking";

/// Default entry set for this repository.
pub fn default_entries() -> Vec<String> {
    ["reactor_loop", "pump", "adopt", "handle"]
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
            for &j in &call.callees {
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
                if kind == "wait" && f.name == "reactor_loop" {
                    continue;
                }
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
        let report = run_on("fn reactor_loop() { intake.recv_timeout(d); }");
        assert_eq!(report.findings.len(), 0);
    }

    #[test]
    fn only_the_loops_own_wait_is_exempt() {
        let report = run_on("fn reactor_loop() { sys::wait(fds); pump(); } fn pump() {}");
        assert_eq!(report.findings.len(), 0);
        let report = run_on(
            "fn reactor_loop() { settle(); } fn settle() { sys::wait(fds); } \
             fn pump() { sys::wait(fds); }",
        );
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
        assert!(report.findings.iter().any(|f| f
            .message
            .contains("`wait` on a reactor path (reactor_loop -> settle)")));
    }

    #[test]
    fn unreachable_blocking_is_silent() {
        let report = run_on("fn client_only() { sock.recv(); }");
        assert_eq!(report.findings.len(), 0);
    }
}
