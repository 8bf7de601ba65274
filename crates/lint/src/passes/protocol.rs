//! Pass 3 — protocol-conformance: extracts the Request/Response tag
//! constants and encode/decode match arms from the protocol source,
//! verifies tag uniqueness and encode↔decode pairing for every tag, checks
//! that every `impl Encode` in the codec has a matching `impl Decode`, and
//! that every protocol variant appears in the fuzz suite — new wire
//! messages cannot ship without fuzz coverage.

use crate::lexer::Tok;
use crate::report::{Finding, Report};
use crate::scan::SourceFile;
use std::collections::BTreeMap;

pub const PASS: &str = "protocol";

/// What to analyze; paths are root-relative.
#[derive(Debug, Clone)]
pub struct ProtocolCfg {
    /// Files holding the tagged enums (encode/decode match arms).
    pub protocol_files: Vec<String>,
    /// Files whose literal `impl Encode/Decode for T` pairs must match.
    pub codec_files: Vec<String>,
    /// Fuzz suite that must mention every variant.
    pub fuzz_file: String,
    /// The tagged enum type names.
    pub types: Vec<String>,
}

impl ProtocolCfg {
    pub fn repo_default() -> ProtocolCfg {
        ProtocolCfg {
            protocol_files: vec!["crates/core/src/protocol.rs".into()],
            codec_files: vec![
                "crates/wire/src/codec.rs".into(),
                "crates/core/src/protocol.rs".into(),
            ],
            fuzz_file: "tests/protocol_fuzz.rs".into(),
            types: vec!["Request".into(), "Response".into()],
        }
    }
}

pub fn run(files: &[SourceFile], cfg: &ProtocolCfg, fuzz_text: Option<&str>, report: &mut Report) {
    for type_name in &cfg.types {
        for file in files
            .iter()
            .filter(|f| cfg.protocol_files.contains(&f.path))
        {
            check_type(file, type_name, cfg, fuzz_text, report);
        }
    }
    for file in files.iter().filter(|f| cfg.codec_files.contains(&f.path)) {
        check_impl_pairing(file, report);
    }
}

fn check_type(
    file: &SourceFile,
    type_name: &str,
    cfg: &ProtocolCfg,
    fuzz_text: Option<&str>,
    report: &mut Report,
) {
    let Some(enc_block) = impl_block(file, "Encode", type_name) else {
        return;
    };
    let Some(dec_block) = impl_block(file, "Decode", type_name) else {
        report.findings.push(Finding::new(
            PASS,
            &file.path,
            file.line_at(enc_block.0),
            format!("`{type_name}` implements Encode but has no Decode impl"),
        ));
        return;
    };

    // variant -> (tag, line of the encode arm)
    let encode = encode_arms(file, type_name, enc_block);
    // tag -> (variant, line of the decode arm)
    let decode = decode_arms(file, type_name, dec_block, report);

    // Tag uniqueness on the encode side.
    let mut by_tag: BTreeMap<u64, Vec<(&String, u32)>> = BTreeMap::new();
    for (v, (t, line)) in &encode {
        by_tag.entry(*t).or_default().push((v, *line));
    }
    for (tag, users) in &by_tag {
        if users.len() > 1 {
            let names: Vec<String> = users.iter().map(|(v, _)| format!("`{v}`")).collect();
            report.findings.push(Finding::new(
                PASS,
                &file.path,
                users[1].1,
                format!(
                    "tag {tag} is encoded by more than one {type_name} variant: {}",
                    names.join(", ")
                ),
            ));
        }
    }

    // Encode ↔ decode pairing.
    for (v, (t, line)) in &encode {
        match decode.get(t) {
            None => report.findings.push(Finding::new(
                PASS,
                &file.path,
                *line,
                format!("{type_name}::{v} encodes tag {t}, but no decode arm handles that tag"),
            )),
            Some((w, _)) if w != v => report.findings.push(Finding::new(
                PASS,
                &file.path,
                *line,
                format!(
                    "{type_name}::{v} encodes tag {t}, but that tag decodes to {type_name}::{w}"
                ),
            )),
            Some(_) => {}
        }
    }
    for (t, (v, line)) in &decode {
        if !encode.contains_key(v) {
            report.findings.push(Finding::new(
                PASS,
                &file.path,
                *line,
                format!("decode arm for tag {t} builds {type_name}::{v}, which has no encode arm"),
            ));
        }
    }

    // Fuzz coverage for every variant.
    let mut variants: BTreeMap<&String, u32> = BTreeMap::new();
    for (v, (_, line)) in &encode {
        variants.insert(v, *line);
    }
    for (v, line) in decode.values() {
        variants.entry(v).or_insert(*line);
    }
    match fuzz_text {
        Some(text) => {
            for (v, line) in variants {
                if !text.contains(&format!("{type_name}::{v}")) {
                    report.findings.push(Finding::new(
                        PASS,
                        &file.path,
                        line,
                        format!(
                            "{type_name}::{v} has no coverage in {} — new wire messages need fuzz cases",
                            cfg.fuzz_file
                        ),
                    ));
                }
            }
        }
        None => report.findings.push(Finding::new(
            PASS,
            &file.path,
            file.line_at(enc_block.0),
            format!("fuzz suite `{}` is missing or unreadable", cfg.fuzz_file),
        )),
    }
}

/// Finds `impl [<…>] Trait for Type { … }`, returning the body brace span.
fn impl_block(file: &SourceFile, trait_name: &str, type_name: &str) -> Option<(usize, usize)> {
    let mut i = 0usize;
    while i < file.tokens.len() {
        if file.ident_at(i) == Some("impl") {
            let mut j = i + 1;
            if file.punct_at(j, '<') {
                j = skip_generics(file, j);
            }
            if file.ident_at(j) == Some(trait_name)
                && file.ident_at(j + 1) == Some("for")
                && file.ident_at(j + 2) == Some(type_name)
            {
                let open = (j + 3..file.tokens.len()).find(|&k| file.punct_at(k, '{'))?;
                return Some((open, file.group_end(open)));
            }
        }
        i += 1;
    }
    None
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

/// `variant -> (tag, line)` from `TagNu8.encode(...)` inside match arms.
fn encode_arms(
    file: &SourceFile,
    type_name: &str,
    (open, close): (usize, usize),
) -> BTreeMap<String, (u64, u32)> {
    let mut out: BTreeMap<String, (u64, u32)> = BTreeMap::new();
    let mut current: Option<String> = None;
    for idx in open..=close {
        if file.ident_at(idx) == Some(type_name) && file.path_sep_at(idx + 1) {
            if let Some(v) = file.ident_at(idx + 2) {
                current = Some(v.to_string());
            }
        }
        if let Some(Tok::Number(n)) = file.tokens.get(idx).map(|t| &t.tok) {
            if let Some(tag) = n.strip_suffix("u8").and_then(|d| d.parse::<u64>().ok()) {
                if file.punct_at(idx + 1, '.') && file.ident_at(idx + 2) == Some("encode") {
                    if let Some(v) = &current {
                        out.entry(v.clone()).or_insert((tag, file.line_at(idx)));
                    }
                }
            }
        }
    }
    out
}

/// `tag -> (variant, line)` from `N => Type::Variant …` match arms.
fn decode_arms(
    file: &SourceFile,
    type_name: &str,
    (open, close): (usize, usize),
    report: &mut Report,
) -> BTreeMap<u64, (String, u32)> {
    let mut out: BTreeMap<u64, (String, u32)> = BTreeMap::new();
    for idx in open..=close {
        let Some(tag) = arm_tag(file, idx) else {
            continue;
        };
        // The arm body runs until the next numeric or `_` arm; the first
        // `Type::Variant` inside names what the tag decodes to.
        let mut k = idx + 3;
        while k <= close {
            if arm_tag(file, k).is_some()
                || (file.ident_at(k) == Some("_")
                    && file.punct_at(k + 1, '=')
                    && file.punct_at(k + 2, '>'))
            {
                break;
            }
            if file.ident_at(k) == Some(type_name) && file.path_sep_at(k + 1) {
                if let Some(v) = file.ident_at(k + 2) {
                    let line = file.line_at(idx);
                    if out.insert(tag, (v.to_string(), line)).is_some() {
                        report.findings.push(Finding::new(
                            PASS,
                            &file.path,
                            line,
                            format!("duplicate decode arm for tag {tag} in `{type_name}`"),
                        ));
                    }
                    break;
                }
            }
            k += 1;
        }
    }
    out
}

/// Is token `idx` a plain-integer match arm head (`N =>`)?
fn arm_tag(file: &SourceFile, idx: usize) -> Option<u64> {
    if let Some(Tok::Number(n)) = file.tokens.get(idx).map(|t| &t.tok) {
        if file.punct_at(idx + 1, '=') && file.punct_at(idx + 2, '>') {
            return n.parse::<u64>().ok();
        }
    }
    None
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
        pub enum Req { A, B }
        impl Encode for Req {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    Req::A => { 0u8.encode(out); }
                    Req::B => { 1u8.encode(out); }
                }
            }
        }
        impl Decode for Req {
            fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                Ok(match tag {
                    0 => Req::A,
                    1 => Req::B,
                    _ => return Err(DecodeError::BadTag),
                })
            }
        }
    "#;

    fn run_on(src: &str, fuzz: Option<&str>) -> Report {
        let file = SourceFile::parse("proto.rs".into(), src);
        let cfg = ProtocolCfg {
            protocol_files: vec!["proto.rs".into()],
            codec_files: vec![],
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
        let report = run_on(GOOD, Some("Req::A Req::B"));
        assert_eq!(report.findings.len(), 0, "{:?}", report.findings);
    }

    #[test]
    fn missing_fuzz_coverage_fires() {
        let report = run_on(GOOD, Some("Req::A only"));
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("Req::B"));
    }

    #[test]
    fn duplicate_tag_fires() {
        let src = GOOD.replace("1u8.encode", "0u8.encode");
        let report = run_on(&src, Some("Req::A Req::B"));
        assert!(report
            .findings
            .iter()
            .any(|f| f.message.contains("more than one")));
    }

    #[test]
    fn missing_decode_arm_fires() {
        let src = GOOD.replace("1 => Req::B,", "");
        let report = run_on(&src, Some("Req::A Req::B"));
        assert!(report
            .findings
            .iter()
            .any(|f| f.message.contains("no decode arm handles")));
    }

    #[test]
    fn mismatched_pairing_fires() {
        let src = GOOD.replace("1 => Req::B,", "1 => Req::A,");
        let report = run_on(&src, Some("Req::A Req::B"));
        assert!(!report.findings.is_empty());
    }

    #[test]
    fn impl_pairing_checks_literal_types() {
        let src = "impl Encode for Lonely { } struct Lonely;";
        let file = SourceFile::parse("codec.rs".into(), src);
        let cfg = ProtocolCfg {
            protocol_files: vec![],
            codec_files: vec!["codec.rs".into()],
            fuzz_file: "fuzz.rs".into(),
            types: vec![],
        };
        let mut report = Report::default();
        run(&[file], &cfg, None, &mut report);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("Lonely"));
    }
}
