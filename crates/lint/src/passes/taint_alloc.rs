//! Pass 5 — taint-alloc: attacker-shaped values (announced lengths,
//! decoded counts, unverified signed-object fields) reaching allocation,
//! index, and loop-bound sinks — the length-bomb class, caught statically.
//!
//! The heavy lifting lives in [`crate::dataflow`]; this pass scopes the
//! resulting sites to the server+client decode surface (`wire`, `log`,
//! `core`, `tee`, `gossip`) and renders each as one finding with a
//! deterministic source→sink chain, in the same spirit as the blocking
//! pass's call chains.

use crate::config::Scope;
use crate::dataflow::Dataflow;
use crate::report::{Finding, Report};

pub const PASS: &str = "taint-alloc";

/// The repo-default file scope.
fn in_repo_scope(path: &str) -> bool {
    path.starts_with("crates/wire/src/")
        || path.starts_with("crates/log/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/tee/src/")
        || path.starts_with("crates/gossip/src/")
}

pub fn run(flow: &Dataflow, scope: Scope, report: &mut Report) {
    for site in &flow.sites {
        if scope == Scope::RepoDefault && !in_repo_scope(&site.file) {
            continue;
        }
        report.findings.push(Finding::new(
            PASS,
            &site.file,
            site.line,
            format!(
                "tainted size reaches {} in `{}`: {}",
                site.sink,
                site.fn_name,
                site.chain.join(" -> ")
            ),
        ));
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::scan::SourceFile;

    fn run_on(path: &str, src: &str) -> Report {
        let file = SourceFile::parse(path.into(), src);
        let flow = Dataflow::build(std::slice::from_ref(&file));
        let mut report = Report::default();
        run(&flow, Scope::RepoDefault, &mut report);
        report.finish();
        report
    }

    #[test]
    fn decode_scope_covers_wire_but_not_apps() {
        let src = "fn decode_items(input: &mut &[u8]) { let n = decode_len(input); \
                   let v: Vec<u64> = Vec::with_capacity(n); }";
        assert_eq!(run_on("crates/wire/src/codec.rs", src).findings.len(), 1);
        assert_eq!(run_on("crates/apps/src/tool.rs", src).findings.len(), 0);
    }

    #[test]
    fn finding_carries_the_source_chain() {
        let src = "fn decode_items(input: &mut &[u8]) { let n = decode_len(input); \
                   let v: Vec<u64> = Vec::with_capacity(n); }";
        let report = run_on("crates/log/src/bundle.rs", src);
        assert!(report.findings[0].message.contains("announced length"));
        assert!(report.findings[0].message.contains("`Vec::with_capacity`"));
    }

    #[test]
    fn segment_codec_results_root_taint() {
        // A count read out of a segment checkpoint record must not size an
        // allocation without a bound check.
        let src = "fn rebuild(bytes: &[u8]) { let (size, _) = decode_checkpoint_payload(bytes); \
                   let v: Vec<u64> = Vec::with_capacity(size); }";
        let report = run_on("crates/log/src/store/durable.rs", src);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("checkpoint payload"));
    }
}
