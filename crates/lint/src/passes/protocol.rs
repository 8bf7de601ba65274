//! Pass 3 — protocol-conformance: what a wire table cannot check. Each
//! tagged enum states its tags once, in a `wire_enum!` table the compiler
//! turns into its encode and decode and refuses when two rows share a tag
//! or one takes a retired tag. What is left here: every variant of the
//! protocol enums, read from their declarations, appears in the fuzz
//! suite — new wire messages cannot ship without fuzz coverage — and every
//! codec still written by hand pairs `impl Encode` with `impl Decode`.

use crate::report::{Finding, Report};
use crate::scan::SourceFile;
use std::collections::BTreeMap;

pub const PASS: &str = "protocol";

/// What to analyze; paths are root-relative.
#[derive(Debug, Clone)]
pub struct ProtocolCfg {
    /// Files declaring the protocol enums.
    pub protocol_files: Vec<String>,
    /// Fuzz suite that must mention every variant.
    pub fuzz_file: String,
    /// The protocol enum type names.
    pub types: Vec<String>,
}

impl ProtocolCfg {
    pub fn repo_default() -> ProtocolCfg {
        ProtocolCfg {
            protocol_files: vec!["crates/core/src/protocol.rs".into()],
            fuzz_file: "tests/protocol_fuzz.rs".into(),
            types: vec!["Request".into(), "Response".into()],
        }
    }
}

/// Checks fuzz coverage of `cfg.types` and the hand-written codec pairs
/// of every file.
pub fn run(files: &[SourceFile], cfg: &ProtocolCfg, fuzz_text: Option<&str>, report: &mut Report) {
    for type_name in &cfg.types {
        for file in files
            .iter()
            .filter(|f| cfg.protocol_files.contains(&f.path))
        {
            check_fuzz_coverage(file, type_name, cfg, fuzz_text, report);
        }
    }
    for file in files {
        check_impl_pairing(file, report);
    }
}

/// Every variant of `enum type_name` declared in `file` must be named as
/// `type_name::Variant` in the fuzz suite.
fn check_fuzz_coverage(
    file: &SourceFile,
    type_name: &str,
    cfg: &ProtocolCfg,
    fuzz_text: Option<&str>,
    report: &mut Report,
) {
    let Some(open) = (0..file.tokens.len()).find(|&k| {
        file.ident_at(k) == Some("enum")
            && file.ident_at(k + 1) == Some(type_name)
            && file.punct_at(k + 2, '{')
    }) else {
        return;
    };
    let open = open + 2;
    let Some(text) = fuzz_text else {
        report.findings.push(Finding::new(
            PASS,
            &file.path,
            file.line_at(open),
            format!("fuzz suite `{}` is missing or unreadable", cfg.fuzz_file),
        ));
        return;
    };
    for (lo, hi) in file.split_commas(open + 1, file.group_end(open) - 1, false) {
        // A variant is its first identifier after any `#[…]` attributes.
        let mut k = lo;
        while file.punct_at(k, '#') && file.punct_at(k + 1, '[') {
            k = file.group_end(k + 1) + 1;
        }
        let Some(variant) = file.ident_at(k).filter(|_| k <= hi) else {
            continue;
        };
        if !text.contains(&format!("{type_name}::{variant}")) {
            report.findings.push(Finding::new(
                PASS,
                &file.path,
                file.line_at(k),
                format!(
                    "{type_name}::{variant} has no coverage in {} — new wire messages need fuzz cases",
                    cfg.fuzz_file
                ),
            ));
        }
    }
}

/// Token index just past a `<…>` generic parameter list starting at `open`.
fn skip_generics(file: &SourceFile, open: usize) -> usize {
    let mut depth = 0i64;
    let mut k = open;
    while k < file.tokens.len() {
        if file.punct_at(k, '<') {
            depth += 1;
        } else if file.punct_at(k, '>') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    k
}

/// Every literal `impl Encode for T` must pair with `impl Decode for T`.
fn check_impl_pairing(file: &SourceFile, report: &mut Report) {
    let mut enc: BTreeMap<String, u32> = BTreeMap::new();
    let mut dec: BTreeMap<String, u32> = BTreeMap::new();
    let mut i = 0usize;
    while i < file.tokens.len() {
        if file.ident_at(i) == Some("impl") {
            let mut j = i + 1;
            if file.punct_at(j, '<') {
                j = skip_generics(file, j);
            }
            let which = match file.ident_at(j) {
                Some("Encode") => Some(true),
                Some("Decode") => Some(false),
                _ => None,
            };
            if let Some(is_enc) = which {
                if file.ident_at(j + 1) == Some("for") {
                    // Only literal named types participate; arrays, refs
                    // and macro-generated impls (with `$name`) are skipped.
                    if let Some(ty) = file.ident_at(j + 2) {
                        let line = file.line_at(i);
                        if is_enc {
                            enc.entry(ty.to_string()).or_insert(line);
                        } else {
                            dec.entry(ty.to_string()).or_insert(line);
                        }
                    }
                }
            }
        }
        i += 1;
    }
    for (ty, line) in &enc {
        if !dec.contains_key(ty) {
            report.findings.push(Finding::new(
                PASS,
                &file.path,
                *line,
                format!("`{ty}` implements Encode here but has no Decode impl in this file"),
            ));
        }
    }
    for (ty, line) in &dec {
        if !enc.contains_key(ty) {
            report.findings.push(Finding::new(
                PASS,
                &file.path,
                *line,
                format!("`{ty}` implements Decode here but has no Encode impl in this file"),
            ));
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    const GOOD: &str = r#"
        pub enum Req {
            /// A doc comment.
            #[allow(dead_code)]
            A { method: u64, payload: Vec<u8> },
            B(Box<Other>),
            C,
        }
        wire_enum!(Req {
            0 => A { method, payload },
            1 => B(other),
            2 => C,
        } retired []);
    "#;

    fn run_on(src: &str, fuzz: Option<&str>) -> Report {
        let file = SourceFile::parse("proto.rs".into(), src);
        let cfg = ProtocolCfg {
            protocol_files: vec!["proto.rs".into()],
            fuzz_file: "fuzz.rs".into(),
            types: vec!["Req".into()],
        };
        let mut report = Report::default();
        run(&[file], &cfg, fuzz, &mut report);
        report.finish();
        report
    }

    #[test]
    fn well_paired_fuzzed_enum_is_clean() {
        let report = run_on(GOOD, Some("Req::A Req::B Req::C"));
        assert_eq!(report.findings.len(), 0, "{:?}", report.findings);
    }

    #[test]
    fn missing_fuzz_coverage_fires() {
        let report = run_on(GOOD, Some("Req::A Req::C only"));
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("Req::B"));
        assert_eq!(report.findings[0].line, 6);
    }

    #[test]
    fn variants_are_read_from_the_declaration() {
        // Fields, attributes and the table's rows name no variant.
        let report = run_on(GOOD, Some(""));
        let named: Vec<&str> = report
            .findings
            .iter()
            .map(|f| f.message.split(' ').next().unwrap())
            .collect();
        assert_eq!(named, ["Req::A", "Req::B", "Req::C"]);
    }

    #[test]
    fn impl_pairing_checks_literal_types() {
        let src = "impl Encode for Lonely { } struct Lonely;";
        let file = SourceFile::parse("codec.rs".into(), src);
        let cfg = ProtocolCfg {
            protocol_files: vec![],
            fuzz_file: "fuzz.rs".into(),
            types: vec![],
        };
        let mut report = Report::default();
        run(&[file], &cfg, None, &mut report);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("Lonely"));
    }
}
