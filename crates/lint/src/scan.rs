//! Source model: one lexed file with its allowlist comments, test-only
//! regions, and extracted function bodies — and the token helpers every
//! walker shares: delimiter matching, nested-fn skipping, parameter
//! lists, comma splitting, `let` names, assignments and statement ends.

use crate::lexer::{lex, Tok, Token};
use std::collections::BTreeMap;
use std::ops::Range;

/// Identifiers that can stand where a call, binding or receiver name is
/// expected but never name one.
pub const KEYWORDS: [&str; 30] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "fn",
    "impl", "pub", "use", "mod", "struct", "enum", "trait", "where", "as", "in", "ref", "mut",
    "move", "dyn", "unsafe", "extern", "static", "const", "type",
];

/// The delimiter pairs [`SourceFile::matching`] knows.
const DELIMITERS: [(char, char); 3] = [('(', ')'), ('[', ']'), ('{', '}')];

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
    /// Token index of the `fn` keyword.
    pub sig: usize,
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

/// One parameter of a fn signature.
#[derive(Debug, Clone)]
pub struct Param {
    /// `self`, the first name the pattern binds, or `<pat>` if none.
    pub name: String,
    /// Token range of the declared type; empty for `self` forms and
    /// untyped parameters.
    pub ty: Range<usize>,
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
        let (tokens, comments) = lex(source);
        let mut file = SourceFile {
            crate_name: crate_of(&path),
            path,
            depth: depths(&tokens),
            tokens,
            allows: parse_allows(&comments),
            test_mask: Vec::new(),
            fns: Vec::new(),
            imports: BTreeMap::new(),
            structs: BTreeMap::new(),
        };
        file.test_mask = test_mask(&file);
        file.imports = parse_imports(&file);
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

    /// The delimiter matching the one at `at`: forward from `(`, `[` or
    /// `{` to its closer, backward from `)`, `]` or `}` to its opener.
    /// Only delimiters of that kind count, so a closer of another kind
    /// neither ends nor nests the group. `None` when `at` holds no
    /// delimiter or the group never closes.
    pub fn matching(&self, at: usize) -> Option<usize> {
        let Some(Tok::Punct(c)) = self.tokens.get(at).map(|t| &t.tok) else {
            return None;
        };
        let (open, close) = DELIMITERS
            .into_iter()
            .find(|&(o, cl)| *c == o || *c == cl)?;
        let forward = *c == open;
        let (deeper, shallower) = if forward {
            (open, close)
        } else {
            (close, open)
        };
        let (mut k, mut depth) = (at, 0usize);
        loop {
            if self.punct_at(k, deeper) {
                depth += 1;
            } else if self.punct_at(k, shallower) {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            k = if forward { k + 1 } else { k.checked_sub(1)? };
            if k == self.tokens.len() {
                return None;
            }
        }
    }

    /// The last token of the group opened at `open`, or of the file when
    /// the group never closes.
    pub fn group_end(&self, open: usize) -> usize {
        self.matching(open)
            .unwrap_or(self.tokens.len().saturating_sub(1))
    }

    /// When a fn nested in `def`'s body opens its own body at `idx`, the
    /// index of that body's closing brace: walkers skip it, since the
    /// nested fn is walked on its own.
    pub fn nested_fn_end(&self, def: &FnDef, idx: usize) -> Option<usize> {
        if idx <= def.body.0 || idx >= def.body.1 || !self.punct_at(idx, '{') {
            return None;
        }
        self.fns
            .iter()
            .find(|g| g.body.0 == idx && g.body.1 < def.body.1)
            .map(|g| g.body.1)
    }

    /// `def`'s parameters, in order.
    pub fn params(&self, def: &FnDef) -> Vec<Param> {
        let Some(open) = (def.sig + 2..def.body.0).find(|&k| self.punct_at(k, '(')) else {
            return Vec::new();
        };
        let Some(close) = self.matching(open).filter(|&c| c < def.body.0) else {
            return Vec::new();
        };
        self.split_commas(open + 1, close - 1, true)
            .into_iter()
            .map(|(lo, hi)| self.param(lo, hi))
            .collect()
    }

    /// The parameter spelled in `lo..=hi`.
    fn param(&self, lo: usize, hi: usize) -> Param {
        for k in lo..=hi {
            match self.ident_at(k) {
                None | Some("mut" | "ref") => {}
                Some("self") => {
                    return Param {
                        name: "self".to_string(),
                        ty: hi + 1..hi + 1,
                    }
                }
                Some(name) => {
                    let ty_from = (k + 1..=hi)
                        .find(|&c| self.punct_at(c, ':'))
                        .map_or(hi + 1, |c| c + 1);
                    return Param {
                        name: name.to_string(),
                        ty: ty_from..hi + 1,
                    };
                }
            }
        }
        Param {
            name: "<pat>".to_string(),
            ty: lo..hi + 1,
        }
    }

    /// Splits `lo..=hi` on the commas outside every `()`, `[]` and `{}` —
    /// a closure argument is one argument, however many commas its body
    /// holds — and, when `generics`, outside `<>` too (a type's
    /// `HashMap<K, V>`; the `>` of an arrow closes nothing). Expressions
    /// split without `generics`, where `<` compares. Empty pieces drop.
    pub fn split_commas(&self, lo: usize, hi: usize, generics: bool) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        let mut depth = 0i64;
        let mut start = lo;
        for k in lo..=hi {
            match self.tokens.get(k).map(|t| &t.tok) {
                Some(Tok::Punct('(' | '[' | '{')) => depth += 1,
                Some(Tok::Punct(')' | ']' | '}')) => depth -= 1,
                Some(Tok::Punct('<')) if generics => depth += 1,
                Some(Tok::Punct('>')) if generics && !self.punct_at(k.wrapping_sub(1), '-') => {
                    depth -= 1
                }
                Some(Tok::Punct(',')) if depth == 0 => {
                    if start < k {
                        out.push((start, k - 1));
                    }
                    start = k + 1;
                }
                _ => {}
            }
        }
        if start <= hi {
            out.push((start, hi));
        }
        out
    }

    /// The name a `let` at `let_idx` binds, with its token index: the
    /// first lowercase identifier of the pattern that is no keyword — `x`
    /// of `let mut x`, `let Some(x)` and `let (x, y)`.
    pub fn let_name(&self, let_idx: usize) -> Option<(usize, &str)> {
        (let_idx + 1..self.tokens.len())
            .take_while(|&k| !self.punct_at(k, '=') && !self.punct_at(k, ';'))
            .find_map(|k| {
                let name = self.ident_at(k)?;
                let lower = name.starts_with(|c: char| c.is_lowercase() || c == '_');
                (lower && !KEYWORDS.contains(&name)).then_some((k, name))
            })
    }

    /// True when the `=` at `idx` assigns: it is no part of `==`, `=>`,
    /// `<=`, `!=` or `>=`. Between a `let` and its `=` (`in_let`), a `>`
    /// before it can only close a generic annotation (`let x: Vec<u8> =
    /// …`), so there it assigns too.
    pub fn assign_at(&self, idx: usize, in_let: bool) -> bool {
        self.punct_at(idx, '=')
            && !self.punct_at(idx + 1, '=')
            && !self.punct_at(idx + 1, '>')
            && !matches!(
                self.tokens.get(idx.wrapping_sub(1)).map(|t| &t.tok),
                Some(Tok::Punct('=' | '<' | '!'))
            )
            && (in_let || !self.punct_at(idx.wrapping_sub(1), '>'))
    }

    /// The first `;` at brace depth `depth` in `from..close`, else `close`:
    /// where a statement at that depth ends.
    pub fn stmt_end(&self, from: usize, depth: u32, close: usize) -> usize {
        (from..close)
            .find(|&k| self.punct_at(k, ';') && self.depth[k] == depth)
            .unwrap_or(close)
    }

    /// The first token of the file's first top-level test-only item (a
    /// `#[cfg(test)]` item or `mod tests`), or the token count when the
    /// file has none.
    pub fn first_test_item(&self) -> usize {
        (0..self.tokens.len())
            .find(|&k| self.test_mask[k] && self.depth[k] == 0)
            .unwrap_or(self.tokens.len())
    }

    /// What a bare `pub` at `idx` declares, when it is a `fn` (through
    /// `const`, `async`, `unsafe` and `extern "…"` qualifiers), a `const`,
    /// a `struct` or an `enum`: the kind and the index of the item's name.
    /// `pub(crate)` and every other item kind give `None`.
    pub fn pub_item(&self, idx: usize) -> Option<(&'static str, usize)> {
        if self.ident_at(idx) != Some("pub") || self.punct_at(idx + 1, '(') {
            return None;
        }
        let mut k = idx + 1;
        let kind = loop {
            match self.ident_at(k) {
                Some("fn") => break "fn",
                Some("struct") => break "struct",
                Some("enum") => break "enum",
                Some("const")
                    if !matches!(
                        self.ident_at(k + 1),
                        Some("fn" | "async" | "unsafe" | "extern")
                    ) =>
                {
                    break "const"
                }
                Some("const" | "async" | "unsafe") => k += 1,
                Some("extern") => {
                    k += 1;
                    if matches!(self.tokens.get(k).map(|t| &t.tok), Some(Tok::Str)) {
                        k += 1;
                    }
                }
                _ => return None,
            }
        };
        self.ident_at(k + 1)
            .filter(|&name| name != "_")
            .map(|_| (kind, k + 1))
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
fn test_mask(file: &SourceFile) -> Vec<bool> {
    let mut mask = vec![false; file.tokens.len()];
    let mut i = 0usize;
    while i < file.tokens.len() {
        if let Some(end) = test_region_end(file, i) {
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
fn test_region_end(file: &SourceFile, i: usize) -> Option<usize> {
    let tokens = &file.tokens;
    if file.ident_at(i) == Some("mod") && file.ident_at(i + 1) == Some("tests") {
        let open = (i + 2..tokens.len()).find(|&k| file.punct_at(k, '{'))?;
        return Some(file.group_end(open));
    }
    // `#[cfg(test)]` (possibly `#[cfg(all(test, …))]`): the attribute plus
    // the item that follows it, skipping any further attributes.
    if !file.punct_at(i, '#') || !file.punct_at(i + 1, '[') {
        return None;
    }
    let attr_close = file.matching(i + 1)?;
    if file.ident_at(i + 2) != Some("cfg") {
        return None;
    }
    if !(i..=attr_close).any(|k| file.ident_at(k) == Some("test")) {
        return None;
    }
    let mut j = attr_close + 1;
    while file.punct_at(j, '#') && file.punct_at(j + 1, '[') {
        j = file.matching(j + 1)? + 1;
    }
    if is_field(file, j) {
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
            Tok::Punct('{') => return Some(file.group_end(k)),
            Tok::Punct(';') => return Some(k),
            _ => {}
        }
    }
    Some(tokens.len() - 1)
}

/// A field starts at `i`, declared (`[pub[(…)]] name: …`) or in a struct
/// literal (`name: …`, or `name` alone).
fn is_field(file: &SourceFile, mut i: usize) -> bool {
    if file.ident_at(i) == Some("pub") {
        i += 1;
        if file.punct_at(i, '(') {
            let Some(close) = (i..file.tokens.len()).find(|&k| file.punct_at(k, ')')) else {
                return false;
            };
            i = close + 1;
        }
    }
    let named = file
        .ident_at(i)
        .is_some_and(|name| !KEYWORDS.contains(&name));
    named && [':', ',', '}'].iter().any(|&c| file.punct_at(i + 1, c))
}

fn extract_fns(file: &SourceFile) -> Vec<FnDef> {
    let tokens = &file.tokens;
    let mut fns = Vec::new();
    for i in 0..tokens.len() {
        if file.ident_at(i) != Some("fn") {
            continue;
        }
        let Some(name) = file.ident_at(i + 1) else {
            continue;
        };
        // The body is the first `{` before any `;` (trait method
        // declarations have no body). Type positions between the
        // signature and the body contain no braces in this codebase's
        // dialect. Nested fns are extracted too: the scan goes on inside
        // the body.
        let open = (i + 2..tokens.len())
            .find(|&j| file.punct_at(j, '{') || file.punct_at(j, ';'))
            .filter(|&j| file.punct_at(j, '{'));
        if let Some(open) = open {
            fns.push(FnDef {
                name: name.to_string(),
                line: tokens[i].line,
                sig: i,
                body: (open, file.group_end(open)),
                in_test: file.test_mask[i],
                owner: None,
                impl_trait: None,
                locals: BTreeMap::new(),
            });
        }
    }
    fns
}

/// Collects every `use` declaration into `local name → path segments`.
fn parse_imports(file: &SourceFile) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i < file.tokens.len() {
        if file.ident_at(i) == Some("use") {
            let mut j = i + 1;
            parse_use_tree(file, &mut j, &mut Vec::new(), &mut out);
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
    file: &SourceFile,
    j: &mut usize,
    prefix: &mut Vec<String>,
    out: &mut BTreeMap<String, Vec<String>>,
) {
    let base_len = prefix.len();
    loop {
        match file.tokens.get(*j).map(|t| &t.tok) {
            Some(Tok::Ident(name)) if name == "as" => {
                if let Some(alias) = file.ident_at(*j + 1) {
                    out.insert(alias.to_string(), prefix.clone());
                    *j += 2;
                }
                break;
            }
            Some(Tok::Ident(name)) => {
                prefix.push(name.clone());
                *j += 1;
                if file.path_sep_at(*j) {
                    *j += 1;
                    continue;
                }
                if file.ident_at(*j) == Some("as") {
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
                    match file.tokens.get(*j).map(|t| &t.tok) {
                        Some(Tok::Punct('}')) => {
                            *j += 1;
                            break;
                        }
                        Some(Tok::Punct(',')) => *j += 1,
                        None => break,
                        _ => {
                            let before = *j;
                            parse_use_tree(file, j, &mut prefix.clone(), out);
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
fn type_head(file: &SourceFile, lo: usize, hi: usize) -> Option<String> {
    let mut k = lo;
    while k < hi {
        if let Some(name) = file.ident_at(k) {
            if file.path_sep_at(k + 1) {
                k += 2;
                continue;
            }
            if name.starts_with(|c: char| c.is_uppercase()) {
                return Some(name.to_string());
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
        let Some(name) = file
            .ident_at(i + 1)
            .filter(|_| file.ident_at(i) == Some("struct"))
        else {
            i += 1;
            continue;
        };
        // Body is the first `{` before any `;` or `(` (tuple/unit structs
        // have no named fields).
        let Some(open) = (i + 2..tokens.len())
            .find(|&j| [';', '(', '{'].iter().any(|&c| file.punct_at(j, c)))
            .filter(|&j| file.punct_at(j, '{'))
        else {
            i += 2;
            continue;
        };
        let close = file.group_end(open);
        let fields = out.entry(name.to_string()).or_default();
        let mut k = open + 1;
        while k < close {
            // A field is `ident :` at the body's brace depth.
            let field = file
                .ident_at(k)
                .filter(|_| file.punct_at(k + 1, ':') && file.depth[k] == file.depth[open]);
            let Some(field) = field else {
                k += 1;
                continue;
            };
            // The type runs to the next comma outside `<>`/`()`/`[]`.
            let mut depth = 0i64;
            let mut end = k + 2;
            while end < close {
                match tokens.get(end).map(|t| &t.tok) {
                    Some(Tok::Punct('<' | '(' | '[')) => depth += 1,
                    Some(Tok::Punct('>' | ')' | ']')) => depth -= 1,
                    Some(Tok::Punct(',')) if depth <= 0 => break,
                    _ => {}
                }
                end += 1;
            }
            if let Some(ty) = type_head(file, k + 2, end) {
                fields.insert(field.to_string(), ty);
            }
            k = end + 1;
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
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < file.tokens.len() {
        if file.ident_at(i) != Some("impl") {
            i += 1;
            continue;
        }
        let Some(open) = (i + 1..file.tokens.len()).find(|&k| file.punct_at(k, '{')) else {
            i += 1;
            continue;
        };
        let close = file.group_end(open);
        let mut after_generics = i + 1;
        if file.punct_at(i + 1, '<') {
            let mut depth = 0i64;
            after_generics = open;
            for k in i + 1..open {
                if file.punct_at(k, '<') {
                    depth += 1;
                } else if file.punct_at(k, '>') {
                    depth -= 1;
                    if depth == 0 {
                        after_generics = k + 1;
                        break;
                    }
                }
            }
        }
        let for_kw = (after_generics..open).find(|&k| file.ident_at(k) == Some("for"));
        let impl_trait = for_kw.and_then(|k| type_head(file, after_generics, k));
        let ty_from = for_kw.map_or(after_generics, |k| k + 1);
        let ty_to = (ty_from..open)
            .find(|&k| file.ident_at(k) == Some("where") || file.punct_at(k, '<'))
            .unwrap_or(open);
        if let Some(owner) = type_head(file, ty_from, ty_to.max(ty_from)) {
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
    let (open, close) = def.body;
    let mut out = BTreeMap::new();
    for k in open + 1..close {
        if file.ident_at(k) != Some("let") {
            continue;
        }
        let Some((j, var)) = file.let_name(k) else {
            continue;
        };
        let ty = if file.punct_at(j + 1, ':') {
            // Annotated: type runs to the `=` (or `;` for uninitialized).
            let end = (j + 2..close)
                .find(|&c| file.punct_at(c, '=') || file.punct_at(c, ';'))
                .unwrap_or(close);
            type_head(file, j + 2, end)
        } else if file.punct_at(j + 1, '=') {
            // `let x = Type::ctor(…)` / `let x = Type { … }`.
            file.ident_at(j + 2)
                .filter(|head| {
                    head.starts_with(|c: char| c.is_uppercase())
                        && (file.path_sep_at(j + 3) || file.punct_at(j + 3, '{'))
                })
                .map(str::to_string)
        } else {
            None
        };
        if let Some(ty) = ty {
            out.entry(var.to_string()).or_insert(ty);
        }
    }
    out
}

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
    fn delimiters_match_both_ways_through_nesting() {
        // f ( a [ b { c } ( d ) ] , [ e ] ) { g }
        // 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19
        let file = SourceFile::parse("crates/x/src/lib.rs".into(), "f(a[b{c}(d)], [e]) { g }");
        for (open, close) in [(1, 16), (3, 11), (5, 7), (8, 10), (13, 15), (17, 19)] {
            assert_eq!(file.matching(open), Some(close), "from {open}");
            assert_eq!(file.matching(close), Some(open), "from {close}");
        }
        assert_eq!(file.matching(0), None, "an identifier is no delimiter");
    }

    #[test]
    fn a_closer_of_another_kind_neither_ends_nor_nests_a_group() {
        let file = SourceFile::parse("crates/x/src/lib.rs".into(), "( ] } )");
        assert_eq!(file.matching(0), Some(3));
        assert_eq!(file.matching(3), Some(0));
    }

    #[test]
    fn an_unbalanced_tail_matches_nothing() {
        let file = SourceFile::parse("crates/x/src/lib.rs".into(), "fn f() { g(a[1, (b");
        assert_eq!(file.matching(2), Some(3), "`f()` closes");
        for k in 4..file.tokens.len() {
            if ["(", "[", "{"]
                .iter()
                .any(|c| file.punct_at(k, c.chars().next().unwrap()))
            {
                assert_eq!(file.matching(k), None, "token {k}");
            }
        }
        assert_eq!(file.matching(file.tokens.len()), None);
        assert_eq!(file.group_end(4), file.tokens.len() - 1);
        // A closer with nothing open before it.
        let file = SourceFile::parse("crates/x/src/lib.rs".into(), "a) b]");
        assert_eq!(file.matching(1), None);
        assert_eq!(file.matching(3), None);
    }

    #[test]
    fn params_name_self_mut_patterns_and_generic_types() {
        let src = "fn f(&mut self, mut n: usize, (a, b): (u8, u8),                    m: HashMap<K, Vec<V>>, g: impl Fn(u8, u8) -> Result<u8, E>, _: u8) {}";
        let file = SourceFile::parse("crates/x/src/lib.rs".into(), src);
        let params = file.params(&file.fns[0]);
        let names: Vec<&str> = params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["self", "n", "a", "m", "g", "_"]);
        assert!(params[0].ty.is_empty());
        let ty = |p: &Param| -> Vec<String> {
            p.ty.clone()
                .filter_map(|k| file.ident_at(k).map(str::to_string))
                .collect()
        };
        assert_eq!(ty(&params[1]), ["usize"]);
        assert_eq!(ty(&params[3]), ["HashMap", "K", "Vec", "V"]);
        assert_eq!(
            ty(&params[4]),
            ["impl", "Fn", "u8", "u8", "Result", "u8", "E"]
        );
        let file = SourceFile::parse("crates/x/src/lib.rs".into(), "fn none() {}");
        assert!(file.params(&file.fns[0]).is_empty());
    }

    #[test]
    fn expressions_split_where_types_would_not() {
        let file = SourceFile::parse(
            "crates/x/src/lib.rs".into(),
            "a < b, c > d, |x| { f(x, y) }",
        );
        let last = file.tokens.len() - 1;
        assert_eq!(file.split_commas(0, last, false).len(), 3);
        assert_eq!(file.split_commas(0, last, true).len(), 2);
    }

    #[test]
    fn let_names_skip_keywords_and_constructors() {
        let src = "fn f() { let mut x = 1; let Some(y) = o; let (p, q) = t; let ref r = s; }";
        let file = SourceFile::parse("crates/x/src/lib.rs".into(), src);
        let names: Vec<&str> = (0..file.tokens.len())
            .filter(|&k| file.ident_at(k) == Some("let"))
            .filter_map(|k| file.let_name(k).map(|(_, name)| name))
            .collect();
        assert_eq!(names, ["x", "y", "p", "r"]);
    }

    #[test]
    fn nested_fns_are_skipped_by_their_enclosing_walk() {
        let src = "fn outer() { a(); fn inner() { b(); } c(); }";
        let file = SourceFile::parse("crates/x/src/lib.rs".into(), src);
        let (outer, inner) = (&file.fns[0], &file.fns[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(file.nested_fn_end(outer, inner.body.0), Some(inner.body.1));
        // Not from the fn's own body, nor from inside the nested one.
        assert_eq!(file.nested_fn_end(outer, outer.body.0), None);
        assert_eq!(file.nested_fn_end(inner, inner.body.0), None);
        let mut seen = Vec::new();
        let mut idx = outer.body.0;
        while idx <= outer.body.1 {
            if let Some(end) = file.nested_fn_end(outer, idx) {
                idx = end + 1;
                continue;
            }
            seen.extend(file.ident_at(idx));
            idx += 1;
        }
        assert_eq!(seen, ["a", "fn", "inner", "c"]);
    }

    #[test]
    fn pub_items_name_fns_consts_and_types_only() {
        let src = "pub fn a() {}\npub const fn b() {}\npub unsafe extern \"C\" fn c() {}\n\
                   pub const D: u8 = 0;\npub const _: () = ();\npub struct E;\npub enum F {}\n\
                   pub(crate) fn g() {}\npub trait H {}\npub mod i {}\npub use j::K;\n";
        let file = SourceFile::parse("crates/x/src/lib.rs".into(), src);
        let items: Vec<(&str, &str)> = (0..file.tokens.len())
            .filter_map(|k| file.pub_item(k))
            .map(|(kind, at)| (kind, file.ident_at(at).unwrap()))
            .collect();
        assert_eq!(
            items,
            [
                ("fn", "a"),
                ("fn", "b"),
                ("fn", "c"),
                ("const", "D"),
                ("struct", "E"),
                ("enum", "F")
            ]
        );
    }

    #[test]
    fn the_first_test_item_is_top_level() {
        // A test-only field masks tokens, but not at the top level.
        let src = "struct S {\n #[cfg(test)]\n f: u8,\n}\npub fn live() {}\n\
                   #[cfg(test)]\nfn helper() {}\npub fn after() {}\n";
        let file = SourceFile::parse("crates/x/src/lib.rs".into(), src);
        let first = file.first_test_item();
        assert!(file.punct_at(first, '#'));
        assert_eq!(file.line_at(first), 6);
        let file = SourceFile::parse("crates/x/src/lib.rs".into(), "pub fn f() {}");
        assert_eq!(file.first_test_item(), file.tokens.len());
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
