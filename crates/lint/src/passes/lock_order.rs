//! Pass 1 — lock-order: builds the global lock-order graph from every
//! acquisition made while another guard is held (directly, or through a
//! workspace-resolved call — cross-crate included — whose callee acquires
//! locks), flags cycles, double acquisitions of the same lock, and locks
//! held across blocking calls.
//!
//! Call-derived self-edges (`tree -> tree` because `ShardedLog::append`
//! shares its name with `MerkleLog::append`) are suppressed: with
//! name-based resolution they are overwhelmingly aliasing artifacts. A
//! *direct* re-acquisition of the same named lock in one function still
//! fires.

use crate::facts::{blocking_call, LockId};
use crate::model::Model;
use crate::report::{Finding, Report};
use std::collections::{BTreeMap, BTreeSet};

pub const PASS: &str = "lock-order";

struct Edge {
    file: String,
    line: u32,
    why: String,
}

pub fn run(model: &Model, report: &mut Report) {
    let mut edges: BTreeMap<(LockId, LockId), Edge> = BTreeMap::new();

    for f in &model.fns {
        for acq in &f.acquires {
            for (held, held_line) in &acq.held {
                if *held == acq.lock {
                    report.findings.push(Finding::new(
                        PASS,
                        &f.file,
                        acq.line,
                        format!(
                            "lock `{}` (held since line {}) is acquired again in `{}` — self-deadlock",
                            held, held_line, f.name
                        ),
                    ));
                } else {
                    edges
                        .entry((held.clone(), acq.lock.clone()))
                        .or_insert(Edge {
                            file: f.file.clone(),
                            line: acq.line,
                            why: format!(
                                "`{}` taken while `{}` held in `{}`",
                                acq.lock, held, f.name
                            ),
                        });
                }
            }
        }

        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            if let Some(kind) = blocking_call(call) {
                for (held, _) in &call.held {
                    report.findings.push(Finding::new(
                        PASS,
                        &f.file,
                        call.line,
                        format!(
                            "lock `{}` held across blocking call `{}` in `{}`",
                            held, kind, f.name
                        ),
                    ));
                }
                continue;
            }
            let callees = &call.callees;
            if let Some(desc) = callees.iter().find_map(|&j| model.may_block(j)) {
                for (held, _) in &call.held {
                    report.findings.push(Finding::new(
                        PASS,
                        &f.file,
                        call.line,
                        format!(
                            "lock `{}` held across call to `{}`, which may block ({})",
                            held, call.name, desc
                        ),
                    ));
                }
            }
            for &j in callees {
                for inner in model.locks_of(j) {
                    for (held, _) in &call.held {
                        if inner != held {
                            edges.entry((held.clone(), inner.clone())).or_insert(Edge {
                                file: f.file.clone(),
                                line: call.line,
                                why: format!(
                                    "`{}` may be acquired inside `{}` while `{}` held",
                                    inner, call.name, held
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    report_cycles(&edges, report);
}

fn report_cycles(edges: &BTreeMap<(LockId, LockId), Edge>, report: &mut Report) {
    let mut adj: BTreeMap<&LockId, Vec<&LockId>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let nodes: Vec<&LockId> = adj.keys().copied().collect();

    // Iterative DFS with colors; every back edge closes a cycle. One cycle
    // per distinct canonical rotation is reported — any cycle at all fails
    // the gate, so exhaustively enumerating them buys nothing.
    let mut color: BTreeMap<&LockId, u8> = BTreeMap::new();
    let mut seen: BTreeSet<Vec<LockId>> = BTreeSet::new();
    for &start in &nodes {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut path: Vec<&LockId> = Vec::new();
        // (node, next child index)
        let mut stack: Vec<(&LockId, usize)> = vec![(start, 0)];
        color.insert(start, 1);
        path.push(start);
        while let Some((node, child)) = stack.last_mut() {
            let children = adj.get(*node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *child < children.len() {
                let next = children[*child];
                *child += 1;
                match color.get(next).copied().unwrap_or(0) {
                    0 => {
                        color.insert(next, 1);
                        path.push(next);
                        stack.push((next, 0));
                    }
                    1 => {
                        let pos = path.iter().position(|n| *n == next).unwrap_or(0);
                        let cycle: Vec<LockId> = path[pos..].iter().map(|l| (*l).clone()).collect();
                        if seen.insert(canonical(&cycle)) {
                            emit_cycle(&cycle, edges, report);
                        }
                    }
                    _ => {}
                }
            } else {
                color.insert(*node, 2);
                path.pop();
                stack.pop();
            }
        }
    }
}

/// Rotates the cycle so its smallest lock comes first (dedup key).
fn canonical(cycle: &[LockId]) -> Vec<LockId> {
    let min = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, l)| *l)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out = Vec::with_capacity(cycle.len());
    out.extend_from_slice(&cycle[min..]);
    out.extend_from_slice(&cycle[..min]);
    out
}

fn emit_cycle(cycle: &[LockId], edges: &BTreeMap<(LockId, LockId), Edge>, report: &mut Report) {
    let cycle = canonical(cycle);
    let mut names: Vec<String> = cycle.iter().map(|l| format!("`{l}`")).collect();
    names.push(format!("`{}`", cycle[0]));
    let mut details = Vec::new();
    let mut anchor: Option<(&str, u32)> = None;
    for i in 0..cycle.len() {
        let from = &cycle[i];
        let to = &cycle[(i + 1) % cycle.len()];
        if let Some(e) = edges.get(&(from.clone(), to.clone())) {
            details.push(format!("{} at {}:{}", e.why, e.file, e.line));
            if anchor.is_none() {
                anchor = Some((&e.file, e.line));
            }
        }
    }
    let (file, line) = anchor.unwrap_or(("<unknown>", 0));
    report.findings.push(Finding::new(
        PASS,
        file,
        line,
        format!(
            "lock-order cycle: {} ({})",
            names.join(" -> "),
            details.join("; ")
        ),
    ));
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::scan::SourceFile;

    fn run_on(src: &str) -> Report {
        let file = SourceFile::parse("crates/x/src/demo.rs".into(), src);
        let model = Model::build(std::slice::from_ref(&file));
        let mut report = Report::default();
        run(&model, &mut report);
        report.finish();
        report
    }

    #[test]
    fn inversion_across_two_fns_is_a_cycle() {
        let report = run_on(
            "fn a() { let g = alpha.lock(); let h = beta.lock(); } \
             fn b() { let g = beta.lock(); let h = alpha.lock(); }",
        );
        assert!(report
            .findings
            .iter()
            .any(|f| f.message.contains("lock-order cycle")));
    }

    #[test]
    fn consistent_order_is_clean() {
        let report = run_on(
            "fn a() { let g = alpha.lock(); let h = beta.lock(); } \
             fn b() { let g = alpha.lock(); let h = beta.lock(); }",
        );
        assert_eq!(report.findings.len(), 0);
    }

    #[test]
    fn direct_double_lock_fires() {
        let report = run_on("fn a() { let g = alpha.lock(); let h = alpha.lock(); }");
        assert!(report
            .findings
            .iter()
            .any(|f| f.message.contains("self-deadlock")));
    }

    #[test]
    fn call_derived_self_edge_is_suppressed() {
        // `append` resolves to both the log's wrapper and the inner
        // tree's method; the wrapper's temporary guard must not create a
        // tree -> tree cycle.
        let report = run_on("fn append(log: &L) { tree.lock().append(data); } ");
        assert_eq!(report.findings.len(), 0);
    }

    #[test]
    fn blocking_while_held_fires() {
        let report = run_on("fn a() { let g = alpha.lock(); ch.recv(); }");
        assert!(report
            .findings
            .iter()
            .any(|f| f.message.contains("held across blocking call `recv`")));
    }

    #[test]
    fn transitive_blocking_while_held_fires() {
        let report = run_on(
            "fn a() { let g = alpha.lock(); helper(); } \
             fn helper() { std::thread::sleep(d); }",
        );
        assert!(report
            .findings
            .iter()
            .any(|f| f.message.contains("may block")));
    }
}
