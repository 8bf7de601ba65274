//! Pass 7 — dead-surface: a public item with no caller. A bare `pub fn`,
//! `pub const`, `pub struct` or `pub enum` above its file's first
//! test-only item, in a product crate (`crates/<name>/src`, apart from
//! the tool crates), fires when its name appears nowhere but its own
//! definition and its own file's test code.
//!
//! Every other token of the scan counts as a use, and so does every
//! identifier of the caller files (`tests/`, `examples/`, `benches/`,
//! `e2e/src`), which no other pass reads. Resolution is by name on
//! purpose: a same-named item elsewhere can hide a dead item, but no call
//! the resolver fails to follow can flag a live one. Methods of trait
//! impls carry no `pub`, so they never fire.

use crate::lexer::{Tok, Token};
use crate::report::{Finding, Report};
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

pub const PASS: &str = "dead-surface";

/// Crates whose public items are not checked: the lint and the benchmark
/// harness are tools, not what a deployment runs.
const TOOL_CRATES: [&str; 2] = ["lint", "bench"];

/// `callers` holds every identifier of the caller files.
pub fn run(files: &[SourceFile], callers: &BTreeSet<String>, report: &mut Report) {
    let uses = ident_counts(files.iter().flat_map(|file| &file.tokens));
    for file in files {
        if !file.path.starts_with("crates/") || TOOL_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let own_tests = ident_counts(
            file.tokens
                .iter()
                .zip(&file.test_mask)
                .filter_map(|(t, &test)| test.then_some(t)),
        );
        for k in 0..file.first_test_item() {
            let Some((kind, at)) = file.pub_item(k) else {
                continue;
            };
            let name = file.ident_at(at).unwrap_or_default();
            let in_own_tests = own_tests.get(name).copied().unwrap_or(0);
            if callers.contains(name) || uses[name] > 1 + in_own_tests {
                continue;
            }
            let owner = file
                .fns
                .iter()
                .find(|def| def.sig + 1 == at)
                .and_then(|def| def.owner.as_deref())
                .map_or(String::new(), |owner| format!("{owner}::"));
            report.findings.push(Finding::new(
                PASS,
                &file.path,
                file.line_at(k),
                format!(
                    "public {kind} `{owner}{name}` has no caller: its name appears only \
                     in its definition and its own file's tests"
                ),
            ));
        }
    }
}

/// How often each identifier occurs among `tokens`.
fn ident_counts<'a>(tokens: impl Iterator<Item = &'a Token>) -> BTreeMap<&'a str, usize> {
    let mut counts = BTreeMap::new();
    for t in tokens {
        if let Tok::Ident(name) = &t.tok {
            *counts.entry(name.as_str()).or_default() += 1;
        }
    }
    counts
}
