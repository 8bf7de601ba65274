//! Pass 5 — trust-boundary: fields of a not-yet-verified signed object
//! (checkpoint, release, quote, bundle) flowing into a state-changing
//! sink — log appends, cache inserts, checkpoint adoption, session
//! gating — before a verification call dominates them.
//!
//! This is the paper's core client invariant made machine-checked:
//! nothing a domain says may change local state until its signature (or
//! attestation) has been verified. The pass is a linear, per-function
//! scan:
//!
//! * **tracked** — parameters and let-bindings whose type names a signed
//!   object (`SignedCheckpoint`, `SignedRelease`, `Quote`, `*Bundle*`),
//!   or that are bound from a `decode`/`from_wire` of one;
//! * **verified** — a `verify*` call, or one of the auditor entry points
//!   (`observe_bundle`, `precheck_checkpoint_batch`, `ingest_gossip`,
//!   `ingest_gossip_heads`), with the variable as receiver or argument,
//!   marks it verified from that token on;
//! * **sink** — a state-changing call (`append`, `insert`, `push`,
//!   `adopt`, `install`, `extend`, `record`, `apply`) whose receiver
//!   chain roots in stateful storage (`self`, or a variable bound from
//!   it), or a `self`-rooted field assignment, using the tracked
//!   variable while still unverified.
//!
//! Functions that *are* the verifier (named `verify*` or an auditor
//! entry point) are exempt: they are the trust gate itself.

use crate::config::Scope;
use crate::dataflow::signed_type;
use crate::lexer::Tok;
use crate::report::{Finding, Report};
use crate::scan::{FnDef, SourceFile, KEYWORDS};
use std::collections::BTreeMap;

pub const PASS: &str = "trust-boundary";

/// Auditor entry points that constitute verification of their argument.
const VERIFIER_FNS: [&str; 4] = [
    "observe_bundle",
    "precheck_checkpoint_batch",
    "ingest_gossip",
    "ingest_gossip_heads",
];

/// State-changing calls.
const SINK_FNS: [&str; 8] = [
    "append", "insert", "push", "adopt", "install", "extend", "record", "apply",
];

fn verifier_fn(name: &str) -> bool {
    name.starts_with("verify") || VERIFIER_FNS.contains(&name)
}

struct Tracked {
    ty: String,
    origin: String,
    verified: bool,
}

pub fn run(files: &[SourceFile], scope: Scope, report: &mut Report) {
    for file in files {
        if !scope.covers(&file.path).trust_boundary {
            continue;
        }
        for def in &file.fns {
            if def.in_test || verifier_fn(&def.name) {
                continue;
            }
            scan_fn(file, def, report);
        }
    }
}

fn scan_fn(file: &SourceFile, def: &FnDef, report: &mut Report) {
    let (open, close) = def.body;
    let mut tracked: BTreeMap<String, Tracked> = BTreeMap::new();
    let mut stateful: Vec<String> = vec!["self".to_string()];

    // Parameters typed with a signed object.
    for param in file.params(def) {
        let Some(ty) = signed_type(file, param.ty) else {
            continue;
        };
        tracked.insert(
            param.name,
            Tracked {
                ty: ty.to_string(),
                origin: format!("param of `{}` at {}:{}", def.name, file.path, def.line),
                verified: false,
            },
        );
    }

    let mut idx = open + 1;
    while idx < close {
        if let Some(nend) = file.nested_fn_end(def, idx) {
            idx = nend + 1;
            continue;
        }

        // `let [mut] x = SignedType::decode(...)` / `let x: SignedType = …`
        // — a freshly decoded signed object starts unverified. A binding
        // whose initializer mentions `self` (or another stateful var)
        // extends the stateful set instead.
        if file.ident_at(idx) == Some("let") {
            track_let(file, idx, close, &mut tracked, &mut stateful, def);
        }

        if let Some(name) = file.ident_at(idx) {
            if file.punct_at(idx + 1, '(') && !KEYWORDS.contains(&name) {
                let cl = file.matching(idx + 1).unwrap_or(close);
                if verifier_fn(name) {
                    // Receiver and every argument become verified.
                    let recv = receiver_base(file, idx);
                    for (var, t) in tracked.iter_mut() {
                        let in_args = (idx + 2..cl).any(|k| file.ident_at(k) == Some(var.as_str()));
                        if recv.as_deref() == Some(var.as_str()) || in_args {
                            t.verified = true;
                        }
                    }
                } else if SINK_FNS.contains(&name) {
                    let recv = receiver_base(file, idx);
                    let recv_stateful = recv
                        .as_deref()
                        .is_some_and(|r| stateful.iter().any(|s| s == r));
                    if recv_stateful {
                        for (var, t) in &tracked {
                            if t.verified {
                                continue;
                            }
                            let used =
                                (idx + 2..cl).any(|k| file.ident_at(k) == Some(var.as_str()));
                            if used {
                                report.findings.push(Finding::new(
                                    PASS,
                                    &file.path,
                                    file.line_at(idx),
                                    format!(
                                        "unverified `{}` `{var}` ({}) reaches state-changing \
                                         `{name}` before any verify call (in `{}`)",
                                        t.ty, t.origin, def.name
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }

        // `self.field = …tracked…` — state assignment from an unverified
        // signed object.
        if file.assign_at(idx, false) {
            if let Some((base, base_idx)) = assign_lhs_base(file, idx) {
                // Skip let-bindings: `let module = …` is a fresh local, not
                // a state write, even when the name is already stateful.
                let is_let = base_idx > 0
                    && matches!(file.ident_at(base_idx - 1), Some("let") | Some("mut"));
                if !is_let && stateful.iter().any(|s| s == &base) {
                    let term = file.stmt_end(idx + 1, file.depth[idx], close);
                    for (var, t) in &tracked {
                        if t.verified {
                            continue;
                        }
                        let used = (idx + 1..term).any(|k| file.ident_at(k) == Some(var.as_str()));
                        if used {
                            report.findings.push(Finding::new(
                                PASS,
                                &file.path,
                                file.line_at(idx),
                                format!(
                                    "unverified `{}` `{var}` ({}) assigned into `{base}` state \
                                     before any verify call (in `{}`)",
                                    t.ty, t.origin, def.name
                                ),
                            ));
                        }
                    }
                }
            }
        }

        idx += 1;
    }
}

/// Processes one `let` statement for tracked/stateful bookkeeping.
fn track_let(
    file: &SourceFile,
    let_idx: usize,
    close: usize,
    tracked: &mut BTreeMap<String, Tracked>,
    stateful: &mut Vec<String>,
    def: &FnDef,
) {
    let Some(eq) = (let_idx + 1..close).find(|&k| file.assign_at(k, true)) else {
        return;
    };
    let term = file.stmt_end(eq + 1, file.depth[let_idx], close);
    // Destructuring patterns track their first name — good enough for the
    // `let Some(x) = …` shapes this repo uses.
    let Some((_, name)) = file.let_name(let_idx) else {
        return;
    };
    let name = name.to_string();

    // Signed type named in the annotation or the initializer?
    let signed_ty = signed_type(file, let_idx + 1..term).map(str::to_string);
    let decoded = (eq + 1..term).any(|k| {
        matches!(file.ident_at(k), Some("decode") | Some("from_wire")) && file.punct_at(k + 1, '(')
    });
    if let Some(ty) = signed_ty {
        if decoded || (let_idx + 1..eq).any(|k| file.punct_at(k, ':')) {
            tracked.insert(
                name.clone(),
                Tracked {
                    ty,
                    origin: format!(
                        "decoded at {}:{} in `{}`",
                        file.path,
                        file.line_at(let_idx),
                        def.name
                    ),
                    verified: false,
                },
            );
            return;
        }
    }
    // Stateful propagation: `let state = self.domains.get_mut(…)` etc.
    let from_stateful = (eq + 1..term).any(|k| {
        file.ident_at(k)
            .is_some_and(|n| stateful.iter().any(|s| s == n))
    });
    if from_stateful && !stateful.contains(&name) {
        stateful.push(name);
    }
}

/// Receiver base of the call at `call_idx` (`self.cache.insert(…)` →
/// `self`; `map.insert(…)` → `map`; a free call has none).
fn receiver_base(file: &SourceFile, call_idx: usize) -> Option<String> {
    if call_idx == 0 || !file.punct_at(call_idx - 1, '.') {
        return None;
    }
    let mut j = call_idx - 2;
    loop {
        match file.tokens.get(j).map(|t| &t.tok)? {
            Tok::Punct(')') | Tok::Punct(']') => return None, // call/index receiver: give up
            Tok::Ident(name) => {
                if j >= 1 && file.punct_at(j - 1, '.') {
                    j -= 2;
                } else {
                    return Some(name.clone());
                }
            }
            _ => return None,
        }
    }
}

/// For `a.b.c = …`, the base ident `a` of the assignment target and its
/// token index.
fn assign_lhs_base(file: &SourceFile, eq_idx: usize) -> Option<(String, usize)> {
    let mut j = eq_idx.checked_sub(1)?;
    // Walk back over `ident (. ident)*`.
    let mut base = match file.tokens.get(j).map(|t| &t.tok)? {
        Tok::Ident(name) => name.clone(),
        _ => return None,
    };
    while j >= 2 && file.punct_at(j - 1, '.') {
        j -= 2;
        match file.tokens.get(j).map(|t| &t.tok)? {
            Tok::Ident(name) => base = name.clone(),
            _ => return None,
        }
    }
    Some((base, j))
}

#[cfg(test)]
mod unit {
    use super::*;

    fn run_on(path: &str, src: &str) -> Report {
        let file = SourceFile::parse(path.into(), src);
        let mut report = Report::default();
        run(&[file], Scope::RepoDefault, &mut report);
        report.finish();
        report
    }

    #[test]
    fn unverified_insert_fires() {
        let report = run_on(
            "crates/core/src/cache.rs",
            "fn adopt_cp(&mut self, cp: &SignedCheckpoint) { self.cache.insert(cp.root, cp.body); }",
        );
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("SignedCheckpoint"));
    }

    #[test]
    fn verify_before_use_is_clean() {
        let report = run_on(
            "crates/core/src/cache.rs",
            "fn adopt_cp(&mut self, cp: &SignedCheckpoint) { cp.verify(&key)?; \
             self.cache.insert(cp.root, cp.body); }",
        );
        assert_eq!(report.findings.len(), 0);
    }

    #[test]
    fn local_collections_are_not_state() {
        let report = run_on(
            "crates/core/src/cache.rs",
            "fn collect(&mut self, cp: &SignedCheckpoint) { let mut v = Vec::new(); v.push(cp); }",
        );
        assert_eq!(report.findings.len(), 0);
    }

    #[test]
    fn stateful_propagates_through_bindings() {
        let report = run_on(
            "crates/log/src/auditor.rs",
            "fn track(&mut self, q: &Quote) { let state = self.domains.get_mut(0); \
             state.log.append(q.body); }",
        );
        assert_eq!(report.findings.len(), 1);
    }

    #[test]
    fn verifier_functions_are_exempt() {
        let body = "(&mut self, cp: &SignedCheckpoint) { self.cache.insert(cp.root, 1); }";
        let report = run_on(
            "crates/log/src/auditor.rs",
            &format!("fn observe_bundle{body}"),
        );
        assert_eq!(report.findings.len(), 0);
        // A name that is no entry point is no gate.
        let report = run_on("crates/log/src/auditor.rs", &format!("fn observe{body}"));
        assert_eq!(report.findings.len(), 1);
    }

    #[test]
    fn state_assignment_fires() {
        let report = run_on(
            "crates/core/src/session.rs",
            "fn gate(&mut self, q: Quote) { self.trust = q.level; }",
        );
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0]
            .message
            .contains("assigned into `self` state"));
    }

    #[test]
    fn out_of_scope_crates_are_silent() {
        let report = run_on(
            "crates/apps/src/tool.rs",
            "fn adopt_cp(&mut self, cp: &SignedCheckpoint) { self.cache.insert(cp.root, 1); }",
        );
        assert_eq!(report.findings.len(), 0);
    }
}
