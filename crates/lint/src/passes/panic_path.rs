//! Pass 2 — panic-path: flags `unwrap`/`expect`/panic-family macros (and,
//! on decode paths, unchecked indexing) in server-side request-handling
//! code, where remote input must never abort a trust domain.
//!
//! Scope is repo-aware: all of `wire` and `tee`, the `core` server files
//! (`server.rs`, `framework.rs`, `protocol.rs`), the decode-path
//! functions of `log`, and the host-import bodies of `apps` and
//! `core/src/abi.rs`. Unchecked indexing is only checked in decode-path
//! functions (`decode*`, `from_wire*`, `peek_*`, `scan_*`, `take`,
//! `feed`) — the byte-parsing layer where an attacker (or a
//! corrupted disk image) controls the offsets — and in host imports (`fn
//! call` of an `impl AppHost for …` / `impl Host for …`), where the guest
//! chooses the argument count, every argument and the bytes of its memory;
//! elsewhere indexing over self-owned state is the lock passes' problem,
//! not this one's.

use crate::config::{Cover, Scope};
use crate::lexer::Tok;
use crate::report::{Finding, Report};
use crate::scan::{FnDef, SourceFile};

pub const PASS: &str = "panic";

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

const KEYWORDS: [&str; 10] = [
    "if", "else", "match", "return", "in", "as", "mut", "ref", "move", "break",
];

pub fn decode_fn(name: &str) -> bool {
    name.starts_with("decode")
        || name.starts_with("from_wire")
        || name.starts_with("peek_")
        || name.starts_with("scan_")
        || matches!(name, "take" | "feed")
}

/// The sandbox boundary seen from the host: `fn call` of an `impl AppHost
/// for …` or `impl Host for …`. Its `args` slice is as long as the guest
/// module declared and holds what the guest pushed.
pub fn host_import_fn(def: &FnDef) -> bool {
    def.name == "call" && matches!(def.impl_trait.as_deref(), Some("AppHost" | "Host"))
}

pub fn run(files: &[SourceFile], scope: Scope, report: &mut Report) {
    for file in files {
        let cover = scope.covers(&file.path).panic;
        if cover == Cover::Skip {
            continue;
        }
        for def in &file.fns {
            if def.in_test {
                continue;
            }
            let (decode, host_import) = (decode_fn(&def.name), host_import_fn(def));
            let covered = match cover {
                Cover::Full => true,
                Cover::Decode => decode,
                Cover::HostImports => host_import,
                Cover::Skip => false,
            };
            if !covered {
                continue;
            }
            // Where unchecked indexing is a finding, and what to call it.
            let indexing = match (decode, host_import) {
                (true, _) => Some("a decode path"),
                (_, true) => Some("a host import"),
                _ => None,
            };
            let (open, close) = def.body;
            let mut idx = open;
            while idx <= close {
                if let Some(nend) = file.nested_fn_end(def, idx) {
                    idx = nend + 1;
                    continue;
                }
                check_token(file, def.name.as_str(), indexing, idx, report);
                idx += 1;
            }
        }
    }
}

fn check_token(
    file: &SourceFile,
    fn_name: &str,
    indexing: Option<&str>,
    idx: usize,
    report: &mut Report,
) {
    if let Some(name) = file.ident_at(idx) {
        if (name == "unwrap" || name == "expect")
            && idx > 0
            && file.punct_at(idx - 1, '.')
            && file.punct_at(idx + 1, '(')
        {
            report.findings.push(Finding::new(
                PASS,
                &file.path,
                file.line_at(idx),
                format!("`.{name}()` on a server path (in `{fn_name}`)"),
            ));
            return;
        }
        if PANIC_MACROS.contains(&name) && file.punct_at(idx + 1, '!') {
            report.findings.push(Finding::new(
                PASS,
                &file.path,
                file.line_at(idx),
                format!("`{name}!` on a server path (in `{fn_name}`)"),
            ));
        }
        return;
    }
    let Some(path_kind) = indexing else {
        return;
    };
    if file.punct_at(idx, '[') && idx > 0 {
        let indexable = match file.tokens.get(idx - 1).map(|t| &t.tok) {
            Some(Tok::Ident(name)) => !KEYWORDS.contains(&name.as_str()),
            Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => true,
            _ => false,
        };
        if indexable {
            report.findings.push(Finding::new(
                PASS,
                &file.path,
                file.line_at(idx),
                format!("unchecked indexing on {path_kind} (in `{fn_name}`)"),
            ));
        }
    }
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
    fn unwrap_in_wire_fires_but_tests_are_exempt() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t(x: Option<u8>) { x.unwrap(); } }";
        let report = run_on("crates/wire/src/rpc.rs", src);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("unwrap"));
    }

    #[test]
    fn log_scope_is_decode_paths_only() {
        let src =
            "fn prove(x: Option<u8>) { x.unwrap(); } fn decode(b: &[u8]) { b.expect(\"x\"); }";
        let report = run_on("crates/log/src/merkle.rs", src);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("decode"));
    }

    #[test]
    fn indexing_flagged_only_on_decode_paths() {
        let src = "fn decode(b: &[u8]) { let x = b[0]; } fn serve(b: &[u8]) { let x = b[0]; }";
        let report = run_on("crates/wire/src/codec.rs", src);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("indexing"));
    }

    #[test]
    fn segment_scanners_are_decode_paths() {
        // `scan_*` walks raw disk images; indexing there is as hostile as
        // in wire decoders.
        let src = "fn scan_segment(b: &[u8]) { let x = b[4]; }";
        let report = run_on("crates/log/src/store/segment.rs", src);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("indexing"));
    }

    #[test]
    fn attributes_and_macro_brackets_are_not_indexing() {
        let src =
            "fn decode(b: &[u8]) { #[allow(dead_code)] let v = vec![0u8; 4]; let a: [u8; 2] = x; }";
        let report = run_on("crates/wire/src/codec.rs", src);
        assert_eq!(report.findings.len(), 0);
    }

    #[test]
    fn panic_macros_fire() {
        let report = run_on("crates/tee/src/host.rs", "fn f() { panic!(\"no\"); }");
        assert_eq!(report.findings.len(), 1);
    }

    #[test]
    fn host_imports_are_a_boundary_in_apps_and_the_abi() {
        // The guest declares the argument count and chooses every value.
        let src = "impl AppHost for H {
                fn call(&mut self, n: &str, args: &[u64], m: &mut Memory) {
                    let addr = args[0];
                    let p = m.read(addr, args[1]).unwrap();
                    p[..8].len();
                }
                fn helper(&self, v: &[u64]) { v[0]; }
            }
            impl Other for H { fn call(&self, v: &[u64]) { v[0]; } }";
        for path in ["crates/apps/src/key_backup.rs", "crates/core/src/abi.rs"] {
            let report = run_on(path, src);
            let messages: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
            assert_eq!(report.findings.len(), 4, "{messages:?}");
            assert!(messages.iter().all(|m| m.contains("(in `call`)")));
            assert_eq!(
                messages
                    .iter()
                    .filter(|m| m.contains("indexing on a host import"))
                    .count(),
                3
            );
        }
        // The checked spelling is silent.
        let src = "impl Host for H {
                fn call(&mut self, i: u16, args: &[u64], m: &mut Memory) {
                    let &[a, b] = args else { return Err(bad()) };
                    m.read(a, b).map_err(e)?;
                    Ok(vec![self.regs.get(0).copied()])
                }
            }";
        assert_eq!(run_on("crates/apps/src/lib.rs", src).findings.len(), 0);
    }

    #[test]
    fn out_of_scope_crates_are_silent() {
        for path in ["crates/apps/src/lib.rs", "crates/sandbox/src/vm.rs"] {
            let report = run_on(path, "fn f(x: Option<u8>) { x.unwrap(); }");
            assert_eq!(report.findings.len(), 0);
        }
    }
}
