//! Source model: one lexed file with its allowlist comments, test-only
//! regions, and extracted function bodies.

use crate::lexer::{lex, Tok, Token};
use std::collections::BTreeMap;

/// Identifiers that can stand where a call, binding or receiver name is
/// expected but never name one.
pub const KEYWORDS: [&str; 30] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "fn",
    "impl", "pub", "use", "mod", "struct", "enum", "trait", "where", "as", "in", "ref", "mut",
    "move", "dyn", "unsafe", "extern", "static", "const", "type",
];

/// One `// lint:allow(<pass>): <reason>` entry.
#[derive(Debug, Clone)]
pub struct Allow {
    pub pass: String,
    pub reason: String,
}

/// One function definition (free function or method) with a body.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    pub line: u32,
    /// Token indices of the opening and closing body braces, inclusive.
    pub body: (usize, usize),
    /// True when the function lives inside `#[cfg(test)]` or `mod tests`.
    pub in_test: bool,
    /// Type the enclosing `impl` block is for, when the fn is a method.
    pub owner: Option<String>,
    /// Trait the enclosing `impl` block implements (`impl Trait for Type`).
    pub impl_trait: Option<String>,
    /// Flow-insensitive local variable types inferred from `let`
    /// annotations (`let x: Type = …`), constructor calls
    /// (`let x = Type::new(…)`) and struct literals (`let x = Type { … }`).
    pub locals: BTreeMap<String, String>,
}

/// A lexed source file plus everything the passes need to interpret it.
pub struct SourceFile {
    /// Root-relative path with forward slashes (stable across platforms).
    pub path: String,
    /// Crate the file belongs to (`wire`, `core`, …, `root` for `src/`).
    pub crate_name: String,
    pub tokens: Vec<Token>,
    /// Brace depth at each token (the `{` itself counts at the new depth).
    pub depth: Vec<u32>,
    /// Allow entries keyed by 1-based source line.
    pub allows: BTreeMap<u32, Vec<Allow>>,
    /// Per-token flag: true inside test-only code.
    pub test_mask: Vec<bool>,
    pub fns: Vec<FnDef>,
    /// `use` imports: local name (or `as` alias) → full path segments.
    pub imports: BTreeMap<String, Vec<String>>,
    /// Struct field types: struct name → field name → type tail ident
    /// (the first uppercase path segment of the field's declared type).
    pub structs: BTreeMap<String, BTreeMap<String, String>>,
}

impl SourceFile {
    pub fn parse(path: String, source: &str) -> SourceFile {
        let crate_name = crate_of(&path);
        let (tokens, comments) = lex(source);
        let depth = depths(&tokens);
        let allows = parse_allows(&comments);
        let test_mask = test_mask(&tokens);
        let mut file = SourceFile {
            path,
            crate_name,
            tokens,
            depth,
            allows,
            test_mask,
            fns: Vec::new(),
            imports: BTreeMap::new(),
            structs: BTreeMap::new(),
        };
        file.imports = parse_imports(&file.tokens);
        file.structs = parse_structs(&file);
        file.fns = extract_fns(&file);
        let impls = impl_regions(&file);
        for def in &mut file.fns {
            let region = impls
                .iter()
                .find(|r| def.body.0 > r.open && def.body.1 < r.close);
            def.owner = region.map(|r| r.owner.clone());
            def.impl_trait = region.and_then(|r| r.impl_trait.clone());
        }
        let locals: Vec<BTreeMap<String, String>> =
            file.fns.iter().map(|def| fn_locals(&file, def)).collect();
        for (def, l) in file.fns.iter_mut().zip(locals) {
            def.locals = l;
        }
        file
    }

    pub fn ident_at(&self, idx: usize) -> Option<&str> {
        match self.tokens.get(idx).map(|t| &t.tok) {
            Some(Tok::Ident(name)) => Some(name),
            _ => None,
        }
    }

    pub fn punct_at(&self, idx: usize, c: char) -> bool {
        matches!(self.tokens.get(idx).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
    }

    pub fn path_sep_at(&self, idx: usize) -> bool {
        matches!(self.tokens.get(idx).map(|t| &t.tok), Some(Tok::PathSep))
    }

    pub fn line_at(&self, idx: usize) -> u32 {
        self.tokens.get(idx).map(|t| t.line).unwrap_or(0)
    }

    /// Finds the matching `}` for the `{` at `open` (token index).
    pub fn matching_close(&self, open: usize) -> usize {
        let mut depth = 0i64;
        for (i, t) in self.tokens.iter().enumerate().skip(open) {
            match t.tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        self.tokens.len().saturating_sub(1)
    }
}

fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => "root".to_string(),
    }
}

fn depths(tokens: &[Token]) -> Vec<u32> {
    let mut depth = 0u32;
    tokens
        .iter()
        .map(|t| match t.tok {
            Tok::Punct('{') => {
                depth += 1;
                depth
            }
            Tok::Punct('}') => {
                let at = depth;
                depth = depth.saturating_sub(1);
                at
            }
            _ => depth,
        })
        .collect()
}

/// Parses `lint:allow(<pass>): <reason>` entries out of the file's `//`
/// comments. An entry applies to its own line and to the line directly
/// below it. Only a marker that opens a plain `//` comment counts: doc
/// comments (`///`, `//!`) and string literals that merely *mention* the
/// syntax stay inert.
fn parse_allows(comments: &[(u32, String)]) -> BTreeMap<u32, Vec<Allow>> {
    let mut out: BTreeMap<u32, Vec<Allow>> = BTreeMap::new();
    for (line, text) in comments {
        let Some(rest) = text.trim_start().strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let pass = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .strip_prefix(':')
            .map(|r| r.trim().to_string())
            .unwrap_or_default();
        out.entry(*line).or_default().push(Allow { pass, reason });
    }
    out
}

/// Marks tokens inside `#[cfg(test)]` items and `mod tests { … }` bodies.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(end) = test_region_end(tokens, i) {
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// If a test-only region starts at token `i`, returns its last token index.
fn test_region_end(tokens: &[Token], i: usize) -> Option<usize> {
    if is_ident(tokens, i, "mod") && is_ident(tokens, i + 1, "tests") {
        let open = find_punct(tokens, i + 2, '{')?;
        return Some(close_of(tokens, open));
    }
    // `#[cfg(test)]` (possibly `#[cfg(all(test, …))]`): the attribute plus
    // the item that follows it, skipping any further attributes.
    if !is_punct(tokens, i, '#') || !is_punct(tokens, i + 1, '[') {
        return None;
    }
    let attr_close = bracket_close(tokens, i + 1)?;
    if !is_ident(tokens, i + 2, "cfg") {
        return None;
    }
    let has_test = tokens[i..=attr_close]
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(name) if name == "test"));
    if !has_test {
        return None;
    }
    let mut j = attr_close + 1;
    while is_punct(tokens, j, '#') && is_punct(tokens, j + 1, '[') {
        j = bracket_close(tokens, j + 1)? + 1;
    }
    if is_field(tokens, j) {
        // To the field's `,`, or to the delimiter closing its list. A
        // generic type's `,` ends it early, which unmasks part of a
        // test-only type and never masks the code after it.
        let mut depth = 0usize;
        for (k, t) in tokens.iter().enumerate().skip(j) {
            match t.tok {
                Tok::Punct('(' | '[' | '{') => depth += 1,
                Tok::Punct(')' | ']' | '}') if depth == 0 => return Some(k - 1),
                Tok::Punct(')' | ']' | '}') => depth -= 1,
                Tok::Punct(',') if depth == 0 => return Some(k),
                _ => {}
            }
        }
    }
    // The guarded item runs to its body's closing brace, or to a `;` for
    // declarations like `use` re-exports.
    for (k, t) in tokens.iter().enumerate().skip(j) {
        match t.tok {
            Tok::Punct('{') => return Some(close_of(tokens, k)),
            Tok::Punct(';') => return Some(k),
            _ => {}
        }
    }
    Some(tokens.len() - 1)
}

/// A field starts at `i`, declared (`[pub[(…)]] name: …`) or in a struct
/// literal (`name: …`, or `name` alone).
fn is_field(tokens: &[Token], mut i: usize) -> bool {
    if is_ident(tokens, i, "pub") {
        i += 1;
        if is_punct(tokens, i, '(') {
            let Some(close) = find_punct(tokens, i, ')') else {
                return false;
            };
            i = close + 1;
        }
    }
    let named = matches!(tokens.get(i).map(|t| &t.tok),
        Some(Tok::Ident(name)) if !KEYWORDS.contains(&name.as_str()));
    named && [':', ',', '}'].iter().any(|&c| is_punct(tokens, i + 1, c))
}

fn is_ident(tokens: &[Token], i: usize, want: &str) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Ident(name)) if name == want)
}

fn is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

fn find_punct(tokens: &[Token], from: usize, c: char) -> Option<usize> {
    tokens[from..]
        .iter()
        .position(|t| matches!(&t.tok, Tok::Punct(p) if *p == c))
        .map(|off| from + off)
}

fn close_of(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Matching `]` for the `[` at `open`.
pub(crate) fn bracket_close(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

fn extract_fns(file: &SourceFile) -> Vec<FnDef> {
    let tokens = &file.tokens;
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_ident(tokens, i, "fn") {
            if let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) {
                // The body is the first `{` before any `;` (trait method
                // declarations have no body). Type positions between the
                // signature and the body contain no braces in this
                // codebase's dialect.
                let mut j = i + 2;
                let mut body = None;
                while j < tokens.len() {
                    match tokens[j].tok {
                        Tok::Punct('{') => {
                            body = Some((j, close_of(tokens, j)));
                            break;
                        }
                        Tok::Punct(';') => break,
                        _ => j += 1,
                    }
                }
                if let Some(body) = body {
                    fns.push(FnDef {
                        name: name.clone(),
                        line: tokens[i].line,
                        body,
                        in_test: file.test_mask[i],
                        owner: None,
                        impl_trait: None,
                        locals: BTreeMap::new(),
                    });
                    // Continue scanning *inside* the body too: nested fns
                    // are rare but shouldn't be invisible.
                    i += 2;
                    continue;
                }
            }
        }
        i += 1;
    }
    fns
}

/// Collects every `use` declaration into `local name → path segments`.
fn parse_imports(tokens: &[Token]) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_ident(tokens, i, "use") {
            let mut j = i + 1;
            parse_use_tree(tokens, &mut j, &mut Vec::new(), &mut out);
            i = j.max(i + 1);
        } else {
            i += 1;
        }
    }
    out
}

/// Parses one use-tree at `*j` (segments, `{…}` groups, `as` aliases,
/// globs), recording leaves into `out`. Stops before `;`, `,` or `}`.
fn parse_use_tree(
    tokens: &[Token],
    j: &mut usize,
    prefix: &mut Vec<String>,
    out: &mut BTreeMap<String, Vec<String>>,
) {
    let base_len = prefix.len();
    loop {
        match tokens.get(*j).map(|t| &t.tok) {
            Some(Tok::Ident(name)) if name == "as" => {
                if let Some(Tok::Ident(alias)) = tokens.get(*j + 1).map(|t| &t.tok) {
                    out.insert(alias.clone(), prefix.clone());
                    *j += 2;
                }
                break;
            }
            Some(Tok::Ident(name)) => {
                prefix.push(name.clone());
                *j += 1;
                if matches!(tokens.get(*j).map(|t| &t.tok), Some(Tok::PathSep)) {
                    *j += 1;
                    continue;
                }
                if is_ident(tokens, *j, "as") {
                    continue; // handled by the `as` arm next iteration
                }
                // Leaf: `use a::b::Name;` binds `Name`; `use a::b::{self}`
                // binds the enclosing segment `b`.
                let leaf = prefix.last().cloned().unwrap_or_default();
                if leaf == "self" {
                    let parent: Vec<String> = prefix[..prefix.len() - 1].to_vec();
                    if let Some(key) = parent.last().cloned() {
                        out.insert(key, parent);
                    }
                } else {
                    out.insert(leaf, prefix.clone());
                }
                break;
            }
            Some(Tok::Punct('{')) => {
                *j += 1;
                loop {
                    match tokens.get(*j).map(|t| &t.tok) {
                        Some(Tok::Punct('}')) => {
                            *j += 1;
                            break;
                        }
                        Some(Tok::Punct(',')) => *j += 1,
                        None => break,
                        _ => {
                            let before = *j;
                            parse_use_tree(tokens, j, &mut prefix.clone(), out);
                            if *j == before {
                                *j += 1; // never stall on unexpected tokens
                            }
                        }
                    }
                }
                break;
            }
            _ => break,
        }
    }
    prefix.truncate(base_len);
}

/// First uppercase-initial ident in `lo..hi` (the outermost type of an
/// annotation like `Arc<Mutex<T>>` — `Arc`), skipping path prefixes so
/// `wire::sync::HealthyMutex` yields `HealthyMutex`.
fn type_head(tokens: &[Token], lo: usize, hi: usize) -> Option<String> {
    let mut k = lo;
    while k < hi {
        if let Some(Tok::Ident(name)) = tokens.get(k).map(|t| &t.tok) {
            if matches!(tokens.get(k + 1).map(|t| &t.tok), Some(Tok::PathSep)) {
                k += 2;
                continue;
            }
            if name.chars().next().is_some_and(|c| c.is_uppercase()) {
                return Some(name.clone());
            }
        }
        k += 1;
    }
    None
}

/// Field types of every `struct Name { field: Type, … }` in the file.
fn parse_structs(file: &SourceFile) -> BTreeMap<String, BTreeMap<String, String>> {
    let tokens = &file.tokens;
    let mut out: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_ident(tokens, i, "struct") {
            i += 1;
            continue;
        }
        let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) else {
            i += 1;
            continue;
        };
        // Body is the first `{` before any `;` or `(` (tuple/unit structs
        // have no named fields).
        let mut j = i + 2;
        let mut open = None;
        while j < tokens.len() {
            match tokens[j].tok {
                Tok::Punct('{') => {
                    open = Some(j);
                    break;
                }
                Tok::Punct(';') | Tok::Punct('(') => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else {
            i += 2;
            continue;
        };
        let close = close_of(tokens, open);
        let fields = out.entry(name.clone()).or_default();
        let mut k = open + 1;
        while k < close {
            // A field is `ident :` at the body's brace depth.
            let is_field = matches!(tokens.get(k).map(|t| &t.tok), Some(Tok::Ident(_)))
                && is_punct(tokens, k + 1, ':')
                && file.depth[k] == file.depth[open];
            if is_field {
                let field = match &tokens[k].tok {
                    Tok::Ident(n) => n.clone(),
                    _ => unreachable!(),
                };
                // The type runs to the next comma outside `<>`/`()`/`[]`.
                let mut depth = 0i64;
                let mut end = k + 2;
                while end < close {
                    match tokens.get(end).map(|t| &t.tok) {
                        Some(Tok::Punct('<')) | Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => {
                            depth += 1
                        }
                        Some(Tok::Punct('>')) | Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => {
                            depth -= 1
                        }
                        Some(Tok::Punct(',')) if depth <= 0 => break,
                        _ => {}
                    }
                    end += 1;
                }
                if let Some(ty) = type_head(tokens, k + 2, end) {
                    fields.insert(field, ty);
                }
                k = end + 1;
            } else {
                k += 1;
            }
        }
        i = close + 1;
    }
    out.retain(|_, fields| !fields.is_empty());
    out
}

/// One `impl` block: the type it is for, the trait it implements (if
/// any), and the token indices of its body braces.
struct ImplRegion {
    owner: String,
    impl_trait: Option<String>,
    open: usize,
    close: usize,
}

/// Every `impl` block of the file. The owner is the type after `for` when
/// present (`impl Trait for Type`, the trait then being what stands before
/// it), else the type after `impl`; `impl<…>` generics are skipped.
fn impl_regions(file: &SourceFile) -> Vec<ImplRegion> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_ident(tokens, i, "impl") {
            i += 1;
            continue;
        }
        let Some(open) = find_punct(tokens, i + 1, '{') else {
            i += 1;
            continue;
        };
        let close = close_of(tokens, open);
        let mut after_generics = i + 1;
        if is_punct(tokens, i + 1, '<') {
            let mut depth = 0i64;
            after_generics = open;
            for k in i + 1..open {
                if is_punct(tokens, k, '<') {
                    depth += 1;
                } else if is_punct(tokens, k, '>') {
                    depth -= 1;
                    if depth == 0 {
                        after_generics = k + 1;
                        break;
                    }
                }
            }
        }
        let for_kw = (after_generics..open).find(|&k| is_ident(tokens, k, "for"));
        let impl_trait = for_kw.and_then(|k| type_head(tokens, after_generics, k));
        let ty_from = for_kw.map_or(after_generics, |k| k + 1);
        let ty_to = (ty_from..open)
            .find(|&k| is_ident(tokens, k, "where") || is_punct(tokens, k, '<'))
            .unwrap_or(open);
        if let Some(owner) = type_head(tokens, ty_from, ty_to.max(ty_from)) {
            out.push(ImplRegion {
                owner,
                impl_trait,
                open,
                close,
            });
        }
        i = open + 1; // impls aren't nested; fns inside are scanned anyway
    }
    out
}

/// Infers local variable types inside one fn body, flow-insensitively:
/// `let x: Type = …`, `let x = Type::ctor(…)`, `let x = Type { … }`.
fn fn_locals(file: &SourceFile, def: &FnDef) -> BTreeMap<String, String> {
    let tokens = &file.tokens;
    let (open, close) = def.body;
    let mut out = BTreeMap::new();
    let mut k = open + 1;
    while k < close {
        if !is_ident(tokens, k, "let") {
            k += 1;
            continue;
        }
        let mut j = k + 1;
        if is_ident(tokens, j, "mut") {
            j += 1;
        }
        let Some(Tok::Ident(var)) = tokens.get(j).map(|t| &t.tok) else {
            k += 1;
            continue;
        };
        let var = var.clone();
        if var
            .chars()
            .next()
            .is_some_and(|c| c.is_uppercase() || KEYWORD_LIKE.contains(&var.as_str()))
        {
            k += 1;
            continue;
        }
        let mut ty = None;
        if is_punct(tokens, j + 1, ':') {
            // Annotated: type runs to the `=` (or `;` for uninitialized).
            let end = (j + 2..close)
                .find(|&c| is_punct(tokens, c, '=') || is_punct(tokens, c, ';'))
                .unwrap_or(close);
            ty = type_head(tokens, j + 2, end);
        } else if is_punct(tokens, j + 1, '=') {
            // `let x = Type::ctor(…)` / `let x = Type { … }`.
            if let Some(Tok::Ident(head)) = tokens.get(j + 2).map(|t| &t.tok) {
                let upper = head.chars().next().is_some_and(|c| c.is_uppercase());
                let ctor = matches!(tokens.get(j + 3).map(|t| &t.tok), Some(Tok::PathSep));
                let literal = is_punct(tokens, j + 3, '{');
                if upper && (ctor || literal) {
                    ty = Some(head.clone());
                }
            }
        }
        if let Some(ty) = ty {
            out.entry(var).or_insert(ty);
        }
        k = j + 1;
    }
    out
}

const KEYWORD_LIKE: [&str; 4] = ["mut", "ref", "box", "move"];

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn allows_parse_with_reasons() {
        let src =
            "x\n// lint:allow(panic): bounded by construction\ny // lint:allow(lock-order):\n";
        let allows = parse_allows(&lex(src).1);
        assert_eq!(allows[&2][0].pass, "panic");
        assert_eq!(allows[&2][0].reason, "bounded by construction");
        assert_eq!(allows[&3][0].pass, "lock-order");
        assert_eq!(allows[&3][0].reason, "");
    }

    #[test]
    fn allow_marker_outside_comment_is_inert() {
        let src = "let s = \"// lint:allow(panic): nope\";\n/// lint:allow(panic): doc\n";
        assert!(parse_allows(&lex(src).1).is_empty());
    }

    #[test]
    fn test_regions_cover_cfg_and_mod_tests() {
        let src = "fn live() { a.lock(); }\n#[cfg(test)]\nmod tests {\n fn t() { b.lock(); }\n}\n";
        let file = SourceFile::parse("crates/x/src/lib.rs".into(), src);
        let live: Vec<_> = file.fns.iter().filter(|f| !f.in_test).collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].name, "live");
        assert_eq!(file.fns.len(), 2);
    }

    /// Whether the first token named `name` in `src` is test-only.
    fn masked(src: &str, name: &str) -> bool {
        let file = SourceFile::parse("crates/x/src/lib.rs".into(), src);
        let is_name = |t: &Token| matches!(&t.tok, Tok::Ident(n) if n == name);
        file.test_mask[file.tokens.iter().position(is_name).unwrap()]
    }

    /// The attribute masks what it guards and not what comes after it.
    #[test]
    fn a_test_only_field_or_statement_masks_only_itself() {
        for src in [
            // A declared field, with a trailing comma and without one,
            // and a `pub` one.
            "struct S {\n #[cfg(test)]\n guarded: bool,\n b: u8,\n}\nimpl S { fn after() {} }\n",
            "struct S {\n b: u8,\n #[cfg(test)]\n guarded: bool\n}\nimpl S { fn after() {} }\n",
            "struct S {\n #[cfg(test)]\n pub(crate) guarded: bool,\n}\nimpl S { fn after() {} }\n",
            // A struct-literal field, and its shorthand.
            "fn new() -> S {\n S { b: 0, #[cfg(test)] guarded: false }\n}\nfn after() {}\n",
            "fn new() -> S {\n S { #[cfg(test)] guarded, b }\n}\nfn after() {}\n",
            // A statement.
            "fn f() {\n #[cfg(test)]\n if guarded { a.lock(); }\n after.lock();\n}\n",
        ] {
            assert!(masked(src, "guarded"), "{src}");
            assert!(!masked(src, "after"), "{src}");
        }
    }

    #[test]
    fn crate_names_resolve() {
        assert_eq!(crate_of("crates/wire/src/rpc.rs"), "wire");
        assert_eq!(crate_of("src/lib.rs"), "root");
    }

    #[test]
    fn imports_resolve_groups_aliases_and_self() {
        let src = "use distrust_wire::codec::{decode_seq, encode_seq as enc};\n\
                   use distrust_core::checkpoint::{self, Checkpoint};\n\
                   use std::collections::*;\n";
        let file = SourceFile::parse("crates/log/src/lib.rs".into(), src);
        assert_eq!(
            file.imports["decode_seq"],
            vec!["distrust_wire", "codec", "decode_seq"]
        );
        assert_eq!(
            file.imports["enc"],
            vec!["distrust_wire", "codec", "encode_seq"]
        );
        assert_eq!(
            file.imports["checkpoint"],
            vec!["distrust_core", "checkpoint"]
        );
        assert_eq!(
            file.imports["Checkpoint"],
            vec!["distrust_core", "checkpoint", "Checkpoint"]
        );
        assert!(!file.imports.contains_key("*"));
    }

    #[test]
    fn methods_get_owners_and_struct_fields_resolve() {
        let src = "struct Store { inner: Arc<Mutex<Vec<u8>>>, count: usize }\n\
                   impl Store {\n fn push_one(&self) {}\n}\n\
                   impl Drop for Store {\n fn drop(&mut self) {}\n}\n\
                   fn free() {}\n";
        let file = SourceFile::parse("crates/log/src/lib.rs".into(), src);
        let by_name = |n: &str| file.fns.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by_name("push_one").owner.as_deref(), Some("Store"));
        assert_eq!(by_name("push_one").impl_trait, None);
        assert_eq!(by_name("drop").owner.as_deref(), Some("Store"));
        assert_eq!(by_name("drop").impl_trait.as_deref(), Some("Drop"));
        assert_eq!(by_name("free").owner, None);
        assert_eq!(file.structs["Store"]["inner"], "Arc");
        assert!(!file.structs["Store"].contains_key("count"));
    }

    #[test]
    fn locals_infer_from_annotations_ctors_and_literals() {
        let src = "fn f() {\n let a: DurableStore = make();\n \
                   let mut b = ShardedLog::open(p);\n \
                   let c = Config { root: r };\n \
                   let d = helper();\n let e = 7;\n}\n";
        let file = SourceFile::parse("crates/log/src/lib.rs".into(), src);
        let locals = &file.fns[0].locals;
        assert_eq!(locals["a"], "DurableStore");
        assert_eq!(locals["b"], "ShardedLog");
        assert_eq!(locals["c"], "Config");
        assert!(!locals.contains_key("d"));
        assert!(!locals.contains_key("e"));
    }
}
