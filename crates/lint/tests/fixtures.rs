//! Fixture-based self-tests for `distrust-lint`.
//!
//! Each seeded fixture under `fixtures/` must make exactly its own pass
//! fire; the clean fixture and the live repository must produce zero
//! unallowlisted findings; and the report must be byte-for-byte
//! deterministic across runs. The binary-level tests pin the CI contract:
//! `--deny` exits non-zero on a seeded violation and zero on clean code.

use distrust_lint::config::{Config, Scope};
use distrust_lint::report::Report;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root")
}

fn analyze_fixture(name: &str) -> Report {
    let (report, _) =
        distrust_lint::analyze(&Config::fixture(fixture_root(name))).expect("fixture scan");
    report
}

fn analyze_repo() -> Report {
    let (report, _) =
        distrust_lint::analyze(&Config::repo_default(repo_root())).expect("repo scan");
    report
}

#[test]
fn clean_fixture_reports_nothing() {
    let report = analyze_fixture("clean");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn lock_order_fixture_fires() {
    let report = analyze_fixture("bad_lock_order");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.pass, "lock-order");
    assert!(f.message.contains("lock-order cycle"), "{}", f.message);
    assert!(f.message.contains("alpha"), "{}", f.message);
    assert!(f.message.contains("beta"), "{}", f.message);
    assert_eq!(report.unallowlisted(), 1);
}

#[test]
fn panic_fixture_fires_on_unwrap_and_decode_indexing() {
    let report = analyze_fixture("bad_panic");
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    assert!(report.findings.iter().all(|f| f.pass == "panic"));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("`.unwrap()`") && f.message.contains("serve_request")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("unchecked indexing") && f.message.contains("decode_header")));
}

#[test]
fn host_import_fixture_fires_on_guest_controlled_indexing() {
    let report = analyze_fixture("bad_host_import");
    assert!(report.findings.iter().all(|f| f.pass == "panic"));
    let count = |needle: &str| {
        report
            .findings
            .iter()
            .filter(|f| f.message == needle)
            .count()
    };
    // `args[0], args[1]` on one line, `payload[..8]` on another.
    assert_eq!(
        count("unchecked indexing on a host import (in `call`)"),
        2,
        "{:?}",
        report.findings
    );
    assert_eq!(count("`.expect()` on a server path (in `call`)"), 1);
    assert_eq!(report.findings.len(), 3, "{:?}", report.findings);
    // `clean/host.rs` is the checked twin; `clean_fixture_reports_nothing`
    // keeps it silent.
}

#[test]
fn blocking_fixture_fires_with_call_chain() {
    let report = analyze_fixture("bad_blocking");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.pass, "blocking");
    assert!(f.message.contains("`sleep`"), "{}", f.message);
    assert!(f.message.contains("pump -> refill"), "{}", f.message);
}

#[test]
fn lock_held_across_the_readiness_wait_fires() {
    let report = analyze_fixture("bad_lock_wait");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.pass, "lock-order");
    assert!(
        f.message
            .contains("lock `queue@reactor` held across blocking call `wait` in `drain`"),
        "{}",
        f.message
    );
}

#[test]
fn taint_alloc_fixture_fires_exactly() {
    let report = analyze_fixture("bad_taint_alloc");
    assert_eq!(report.findings.len(), 4, "{:?}", report.findings);
    assert!(report.findings.iter().all(|f| f.pass == "taint-alloc"));
    let has = |needle: &str| report.findings.iter().any(|f| f.message.contains(needle));
    // Allocation sink, reached through an interprocedural summary hop.
    assert!(has("`Vec::with_capacity` in `decode_batch`"));
    assert!(has("-> returned by `read_count`"));
    assert!(has("loop bound in `decode_batch`"));
    // Direct source-to-sink.
    assert!(has("`vec![_; n]` length in `decode_payload`"));
    // Unverified signed-object field used as an index.
    assert!(has("slice index in `select_root`"));
    assert!(has(
        "unverified `SignedCheckpoint` (param `cp` of `select_root`)"
    ));
    // The capped decoder stays silent.
    assert!(!has("decode_capped"), "{:?}", report.findings);
}

#[test]
fn trust_boundary_fixture_fires_exactly() {
    let report = analyze_fixture("bad_trust_boundary");
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    assert!(report.findings.iter().all(|f| f.pass == "trust-boundary"));
    let has = |needle: &str| report.findings.iter().any(|f| f.message.contains(needle));
    assert!(has(
        "unverified `SignedCheckpoint` `cp` (param of `adopt` at cache.rs:5) \
         reaches state-changing `insert`"
    ));
    assert!(has("unverified `Quote` `quote`"));
    assert!(has("assigned into `self` state"));
    // The verify-first twin stays silent.
    assert!(!has("adopt_checked"), "{:?}", report.findings);
}

#[test]
fn dead_surface_fixture_fires_exactly() {
    let report = analyze_fixture("bad_dead_surface");
    let fired: Vec<(&str, &str, u32, bool)> = report
        .findings
        .iter()
        .map(|f| {
            (
                f.pass.as_str(),
                f.file.as_str(),
                f.line,
                f.allowed.is_some(),
            )
        })
        .collect();
    assert_eq!(
        fired,
        [
            ("dead-surface", "crates/alpha/src/lib.rs", 5, false),
            ("dead-surface", "crates/alpha/src/lib.rs", 10, false),
            ("dead-surface", "crates/alpha/src/lib.rs", 18, true),
            // A benchmark harness is checked like every other crate.
            ("dead-surface", "crates/bench/src/lib.rs", 5, false),
        ],
        "{:?}",
        report.findings
    );
    let messages: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(
        messages,
        [
            "public fn `orphan` has no caller: its name appears only in its definition \
             and its own file's tests",
            "public const `ONLY_TESTED` has no caller: its name appears only in its \
             definition and its own file's tests",
            "public fn `kept` has no caller: its name appears only in its definition \
             and its own file's tests",
            "public fn `unused_ratio` has no caller: its name appears only in its \
             definition and its own file's tests",
        ]
    );
    assert_eq!(report.unallowlisted(), 3);
}

#[test]
fn dead_method_fixture_fires_on_methods_nothing_calls() {
    let report = analyze_fixture("bad_dead_method");
    let fired: Vec<(&str, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.pass.as_str(), f.line, f.message.as_str()))
        .collect();
    assert_eq!(
        fired,
        [
            (
                "dead-surface",
                15,
                "public fn `Stack::len` has no caller: it is called or named as a path \
                 only in its own file's tests"
            ),
            (
                "dead-surface",
                30,
                "public fn `Stack::clear` has no caller: it is called or named as a \
                 path only in its own file's tests"
            ),
        ],
        "{:?}",
        report.findings
    );
}

#[test]
fn cross_crate_fixture_fires_each_seeded_defect_exactly() {
    let report = analyze_fixture("cross_crate");
    let count = |pass: &str| report.findings.iter().filter(|f| f.pass == pass).count();
    assert_eq!(count("taint-alloc"), 2, "{:?}", report.findings);
    assert_eq!(count("lock-order"), 1, "{:?}", report.findings);
    assert_eq!(count("blocking"), 1, "{:?}", report.findings);
    assert_eq!(report.findings.len(), 4, "{:?}", report.findings);

    let has = |needle: &str| report.findings.iter().any(|f| f.message.contains(needle));
    // Bomb 1: taint returned out of alpha sizes an allocation in beta; the
    // chain names both sides of the seam.
    assert!(has(
        "`Vec::with_capacity` in `ingest`: announced length via `decode_len` \
         at crates/alpha/src/wire.rs"
    ));
    assert!(has(
        "-> returned by `announced_len` at crates/beta/src/ingest.rs"
    ));
    // Bomb 2: beta's raw count crosses into alpha, which allocates; the
    // chain records the injection site in beta.
    assert!(has("`Vec::with_capacity` in `reserve_slots`"));
    assert!(has(
        "passed into `reserve_slots` as `slots` at crates/beta/src/ingest.rs"
    ));
    // The guarded twin and its capped helper stay silent.
    assert!(!has("ingest_bounded"), "{:?}", report.findings);
    assert!(!has("reserve_bounded"), "{:?}", report.findings);
    // Cross-crate lock cycle and blocking chain carry both crates.
    assert!(has(
        "lock-order cycle: `egress@reactor` -> `ingress@sync` -> `egress@reactor`"
    ));
    assert!(has("pump -> relay -> drain"));
}

#[test]
fn cross_crate_report_is_identical_regardless_of_scan_order() {
    // The canonical function index space is discovery-order-dependent, but
    // rendered findings must not be: parse the fixture's crates in both
    // orders and demand byte-identical text and JSON reports.
    use distrust_lint::dataflow::Dataflow;
    use distrust_lint::model::Model;
    use distrust_lint::passes;
    use distrust_lint::scan::SourceFile;

    let render = |reversed: bool| {
        let mut paths = [
            "crates/alpha/src/sync.rs",
            "crates/alpha/src/wire.rs",
            "crates/beta/src/ingest.rs",
            "crates/beta/src/reactor.rs",
        ];
        if reversed {
            paths.reverse();
        }
        let root = fixture_root("cross_crate");
        let files: Vec<SourceFile> = paths
            .iter()
            .map(|p| {
                let src = std::fs::read_to_string(root.join(p)).expect("fixture file");
                SourceFile::parse(p.to_string(), &src)
            })
            .collect();
        let model = Model::build(&files);
        let flow = Dataflow::build(&files);
        let mut report = Report::default();
        passes::lock_order::run(&model, &mut report);
        passes::blocking::run(&model, &passes::blocking::default_entries(), &mut report);
        passes::taint_alloc::run(&flow, Scope::AllFiles, &mut report);
        report.apply_allows(&files);
        report.finish();
        (report.render_text(), report.render_json())
    };
    let (text_fwd, json_fwd) = render(false);
    let (text_rev, json_rev) = render(true);
    assert!(text_fwd.contains("finding"), "{text_fwd}");
    assert_eq!(text_fwd, text_rev);
    assert_eq!(json_fwd, json_rev);
}

#[test]
fn allowlist_suppresses_with_a_reason() {
    let report = analyze_fixture("allowed");
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.pass, "panic");
    let reason = f.allowed.as_deref().expect("finding must be allowlisted");
    assert!(reason.contains("startup-time invariant"), "{reason}");
    // The stale twin excuses nothing, so it is the one denied finding.
    let stale = &report.findings[1];
    assert_eq!((stale.pass.as_str(), stale.line), ("allowlist", 12));
    assert!(stale.message.starts_with("stale lint:allow(panic)"));
    assert_eq!(stale.allowed, None);
    assert_eq!(report.unallowlisted(), 1);
}

#[test]
fn live_repo_has_zero_unallowlisted_findings() {
    let report = analyze_repo();
    let denied: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.allowed.is_none())
        .collect();
    assert!(denied.is_empty(), "unallowlisted findings: {denied:?}");
    for f in &report.findings {
        let reason = f.allowed.as_deref().unwrap_or("");
        assert!(
            !reason.trim().is_empty(),
            "allowlist entry without a reason at {}:{}",
            f.file,
            f.line
        );
    }
}

#[test]
fn report_is_byte_identical_across_runs() {
    let (first, second) = (analyze_repo(), analyze_repo());
    assert_eq!(first.render_text(), second.render_text());
    assert_eq!(first.render_json(), second.render_json());
}

#[test]
fn reports_are_byte_identical_across_root_spellings() {
    // `--root .` (run from the workspace root) and `--root <absolute>`
    // must render byte-identical reports.
    let bin = env!("CARGO_BIN_EXE_distrust-lint");
    let root = repo_root();
    let via_dot = Command::new(bin)
        .args(["--format", "json", "--root", "."])
        .current_dir(&root)
        .output()
        .expect("run lint binary");
    let via_abs = Command::new(bin)
        .args(["--format", "json", "--root"])
        .arg(&root)
        .current_dir(&root)
        .output()
        .expect("run lint binary");
    assert!(via_dot.status.success() && via_abs.status.success());
    assert!(!via_dot.stdout.is_empty());
    assert_eq!(via_dot.stdout, via_abs.stdout);
}

#[test]
fn live_repo_is_clean_under_deny() {
    // The exact CI gate: zero denied findings on the live tree.
    let bin = env!("CARGO_BIN_EXE_distrust-lint");
    let out = Command::new(bin)
        .args(["--deny", "--root", "."])
        .current_dir(repo_root())
        .output()
        .expect("run lint binary");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn deny_gate_fails_on_a_seeded_violation_and_passes_on_clean() {
    let bin = env!("CARGO_BIN_EXE_distrust-lint");
    // Under the binary's repo-default config the lock-order pass (which has
    // no path scoping) still fires on the seeded inversion.
    let bad = Command::new(bin)
        .args(["--deny", "--root"])
        .arg(fixture_root("bad_lock_order"))
        .output()
        .expect("run lint binary");
    assert_eq!(bad.status.code(), Some(1), "{:?}", bad);

    let clean = Command::new(bin)
        .args(["--deny", "--format", "json", "--root"])
        .arg(fixture_root("clean"))
        .output()
        .expect("run lint binary");
    assert_eq!(clean.status.code(), Some(0), "{:?}", clean);
    let stdout = String::from_utf8(clean.stdout).expect("utf8 json");
    assert!(stdout.contains("\"denied\":0"), "{stdout}");
}
