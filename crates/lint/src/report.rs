//! Findings, allowlist application, and deterministic rendering.

use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Pass keys accepted in `lint:allow(<key>)` entries.
pub const PASS_KEYS: [&str; 6] = [
    "lock-order",
    "panic",
    "protocol",
    "blocking",
    "taint-alloc",
    "trust-boundary",
];

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub pass: String,
    pub message: String,
    /// The allow reason, when an allowlist entry covers this finding.
    pub allowed: Option<String>,
}

impl Finding {
    pub fn new(pass: &str, file: &str, line: u32, message: String) -> Finding {
        Finding {
            file: normalize_path(file),
            line,
            pass: pass.to_string(),
            message,
            allowed: None,
        }
    }
}

/// Normalizes a finding path to a relative, `/`-separated form so
/// `--root .` and `--root $(pwd)` render byte-identical reports.
pub fn normalize_path(path: &str) -> String {
    let slashed = path.replace('\\', "/");
    let mut out = slashed.as_str();
    while let Some(rest) = out.strip_prefix("./") {
        out = rest;
    }
    out.to_string()
}

#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
}

impl Report {
    /// Applies allowlist comments: a finding is allowed when the same line
    /// or the line above carries `lint:allow(<its pass>)` *with a reason*.
    /// Entries with an empty reason or an unknown pass key, and entries
    /// that excuse nothing (stale), become findings of their own (pass
    /// `allowlist`) that no marker can suppress.
    pub fn apply_allows(&mut self, files: &[SourceFile]) {
        let by_path: BTreeMap<&str, &SourceFile> =
            files.iter().map(|f| (f.path.as_str(), f)).collect();
        // (file, marker line, pass) of every entry that excused a finding.
        let mut used: BTreeSet<(&str, u32, &str)> = BTreeSet::new();
        for finding in &mut self.findings {
            let Some(file) = by_path.get(finding.file.as_str()) else {
                continue;
            };
            for line in [finding.line, finding.line.saturating_sub(1)] {
                for e in file.allows.get(&line).into_iter().flatten() {
                    if e.pass == finding.pass && !e.reason.is_empty() {
                        finding.allowed = Some(e.reason.clone());
                        used.insert((&file.path, line, &e.pass));
                    }
                }
            }
        }
        for file in files {
            for (&line, entries) in &file.allows {
                for e in entries {
                    let problem = if !PASS_KEYS.contains(&e.pass.as_str()) {
                        format!("unknown pass `{}` in lint:allow entry", e.pass)
                    } else if e.reason.is_empty() {
                        format!(
                            "lint:allow({}) entry has no reason; every allowance must be justified",
                            e.pass
                        )
                    } else if !used.contains(&(file.path.as_str(), line, e.pass.as_str())) {
                        format!(
                            "stale lint:allow({0}) entry: no `{0}` finding on this line or the next",
                            e.pass
                        )
                    } else {
                        continue;
                    };
                    self.findings
                        .push(Finding::new("allowlist", &file.path, line, problem));
                }
            }
        }
    }

    /// Final deterministic ordering; call once after all passes ran.
    pub fn finish(&mut self) {
        self.findings.sort();
        self.findings.dedup();
    }

    /// Findings no allow marker excuses — what `--deny` gates on.
    pub fn unallowlisted(&self) -> usize {
        self.findings.iter().filter(|f| f.allowed.is_none()).count()
    }

    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = write!(out, "{}:{}: [{}] {}", f.file, f.line, f.pass, f.message);
            if let Some(reason) = &f.allowed {
                let _ = write!(out, " (allowed: {reason})");
            }
            out.push('\n');
        }
        let denied = self.unallowlisted();
        let _ = writeln!(
            out,
            "distrust-lint: {} finding(s), {} allowlisted, {} denied",
            self.findings.len(),
            self.findings.len() - denied,
            denied
        );
        out
    }

    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"file\":{},\"line\":{},\"pass\":{},\"message\":{}",
                json_str(&f.file),
                f.line,
                json_str(&f.pass),
                json_str(&f.message)
            );
            match &f.allowed {
                Some(reason) => {
                    let _ = write!(out, ",\"allowed\":true,\"reason\":{}}}", json_str(reason));
                }
                None => out.push_str(",\"allowed\":false}"),
            }
        }
        let _ = write!(
            out,
            "],\"total\":{},\"denied\":{}}}",
            self.findings.len(),
            self.unallowlisted()
        );
        out.push('\n');
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let src = "// lint:allow(panic): fine here\nfn f() {}\n";
        let file = SourceFile::parse("crates/x/src/a.rs".into(), src);
        let mut report = Report::default();
        report
            .findings
            .push(Finding::new("panic", "crates/x/src/a.rs", 2, "boom".into()));
        report.apply_allows(&[file]);
        assert!(report.findings[0].allowed.is_some());
        assert_eq!(report.unallowlisted(), 0);
    }

    #[test]
    fn empty_reason_does_not_suppress_and_is_itself_a_finding() {
        let src = "// lint:allow(panic):\nfn f() {}\n";
        let file = SourceFile::parse("crates/x/src/a.rs".into(), src);
        let mut report = Report::default();
        report
            .findings
            .push(Finding::new("panic", "crates/x/src/a.rs", 2, "boom".into()));
        report.apply_allows(&[file]);
        report.finish();
        assert_eq!(report.unallowlisted(), 2);
        assert!(report.findings.iter().any(|f| f.pass == "allowlist"));
    }

    #[test]
    fn marker_that_excuses_nothing_is_a_stale_finding() {
        // The first marker reaches lines 1 and 2 and the finding is on
        // line 3; the marker beside the finding names another pass.
        let src =
            "// lint:allow(panic): needed once\n\nfn f() {} // lint:allow(blocking): wrong pass\n";
        let file = SourceFile::parse("crates/x/src/a.rs".into(), src);
        let mut report = Report::default();
        report
            .findings
            .push(Finding::new("panic", "crates/x/src/a.rs", 3, "boom".into()));
        report.apply_allows(&[file]);
        report.finish();
        assert_eq!(report.unallowlisted(), 3);
        let stale: Vec<u32> = report
            .findings
            .iter()
            .filter(|f| f.pass == "allowlist" && f.message.starts_with("stale lint:allow("))
            .map(|f| f.line)
            .collect();
        assert_eq!(stale, [1, 3]);
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(json_str("a\"b\nc"), "\"a\\\"b\\nc\"");
    }
}
