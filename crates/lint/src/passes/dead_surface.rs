//! Pass 6 — dead-surface: a public item with no caller. A bare `pub fn`,
//! `pub const`, `pub struct` or `pub enum` above its file's first
//! test-only item, in any crate (`crates/<name>/src`), fires when nothing
//! outside its own definition and its own file's test code uses it.
//!
//! A method — a `pub fn` inside an `impl` — is used where it is called or
//! named as a path: `.name(`, `.name::<`, `Type::name`, `Self::name`. Any
//! other item is used wherever its name occurs. The caller files
//! (`tests/`, `examples/`, `benches/`, `e2e/src`), which no other pass
//! reads, count the same way. Resolution is by name on purpose: a
//! same-named item elsewhere can hide a dead item, but no call the
//! resolver fails to follow can flag a live one. Methods of trait impls
//! carry no `pub`, so they never fire.

use crate::lexer::{Tok, Token};
use crate::report::{Finding, Report};
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

pub const PASS: &str = "dead-surface";

/// What the caller files use: every identifier, and the names they call
/// or name as a path.
#[derive(Default)]
pub struct Callers {
    idents: BTreeSet<String>,
    calls: BTreeSet<String>,
}

impl Callers {
    /// Adds one caller file's tokens.
    pub fn add(&mut self, tokens: &[Token]) {
        self.idents
            .extend(ident_counts(tokens.iter()).into_keys().map(String::from));
        self.calls
            .extend(call_counts(tokens, |_| true).into_keys().map(String::from));
    }
}

pub fn run(files: &[SourceFile], callers: &Callers, report: &mut Report) {
    let uses = ident_counts(files.iter().flat_map(|file| &file.tokens));
    let mut calls: BTreeMap<&str, usize> = BTreeMap::new();
    for file in files {
        for (name, n) in call_counts(&file.tokens, |_| true) {
            *calls.entry(name).or_default() += n;
        }
    }
    for file in files {
        if !file.path.starts_with("crates/") {
            continue;
        }
        let own_tests = ident_counts(
            file.tokens
                .iter()
                .zip(&file.test_mask)
                .filter_map(|(t, &test)| test.then_some(t)),
        );
        let own_test_calls = call_counts(&file.tokens, |k| file.test_mask[k]);
        for k in 0..file.first_test_item() {
            let Some((kind, at)) = file.pub_item(k) else {
                continue;
            };
            let name = file.ident_at(at).unwrap_or_default();
            let owner = file
                .fns
                .iter()
                .find(|def| def.sig + 1 == at)
                .and_then(|def| def.owner.as_deref());
            let used = match owner {
                Some(_) => {
                    callers.calls.contains(name)
                        || calls.get(name).unwrap_or(&0) > own_test_calls.get(name).unwrap_or(&0)
                }
                None => {
                    callers.idents.contains(name)
                        || uses[name] > 1 + own_tests.get(name).copied().unwrap_or(0)
                }
            };
            if used {
                continue;
            }
            let (owner, only) = match owner {
                Some(owner) => (
                    format!("{owner}::"),
                    "it is called or named as a path only in its own file's tests",
                ),
                None => (
                    String::new(),
                    "its name appears only in its definition and its own file's tests",
                ),
            };
            report.findings.push(Finding::new(
                PASS,
                &file.path,
                file.line_at(k),
                format!("public {kind} `{owner}{name}` has no caller: {only}"),
            ));
        }
    }
}

/// How often each name is called or named as a path among `tokens`, at
/// the indices `keep` accepts: `.name(`, `.name::<` and `…::name`.
fn call_counts(tokens: &[Token], keep: impl Fn(usize) -> bool) -> BTreeMap<&str, usize> {
    let at = |k: usize| tokens.get(k).map(|t| &t.tok);
    let mut counts = BTreeMap::new();
    for (k, t) in tokens.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else {
            continue;
        };
        let method = k > 0
            && at(k - 1) == Some(&Tok::Punct('.'))
            && (at(k + 1) == Some(&Tok::Punct('('))
                || (at(k + 1) == Some(&Tok::PathSep) && at(k + 2) == Some(&Tok::Punct('<'))));
        let path = k > 0 && at(k - 1) == Some(&Tok::PathSep);
        if (method || path) && keep(k) {
            *counts.entry(name.as_str()).or_default() += 1;
        }
    }
    counts
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
