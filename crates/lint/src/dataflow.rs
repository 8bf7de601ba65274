//! Interprocedural taint dataflow over the lexed token stream and the
//! workspace-wide call graph: the substrate for the `taint-alloc` pass.
//!
//! The analysis is deliberately lexical and over-approximate, in the same
//! spirit as the other passes:
//!
//! * **Sources** root a taint chain: announced lengths (`decode_len`),
//!   wire-decoded values (`decode`/`from_wire` results), the
//!   byte-slice parameters of decode entry points, and parameters typed
//!   with a not-yet-verified signed object (`SignedCheckpoint`, `Quote`,
//!   `CheckpointBundle`, …).
//! * **Propagation** is a linear union: a let-binding, arithmetic
//!   expression, field access or method chain carries the taint of every
//!   identifier it mentions, and `.len()` deliberately propagates —
//!   the length of an attacker-shaped collection is attacker-shaped
//!   (element-size amplification is exactly the PR 2 length-bomb class).
//!   Calls resolve through the analysis's one [`crate::resolve::Resolver`]
//!   — across crate seams, through `use` imports and type qualifiers — with a fixpoint
//!   param→return summary per callee, and a second fixpoint injects
//!   argument taint *into* callees context-insensitively: a length
//!   decoded in `wire` that sizes an allocation inside a `log` helper
//!   fires inside the helper, with the full multi-crate chain.
//! * **Bounds** ride along on a four-tier interval lattice ([`Bound`]):
//!   `Const` (capped by a compile-time constant) `<` `Mem` (an in-memory
//!   collection's `.len()`) `<` `Input` (a decoded scalar capped by an
//!   input length) `<` `Top` (unbounded). A dominating top-level
//!   early-return guard (`if len > CAP { return …; }`) lowers `len`'s
//!   bound below the guard without clearing its chain. Loop-bound and
//!   index sinks fire only at `Top` — a guard against the input length
//!   makes iteration consume input. Allocation sinks fire at `Input`
//!   too: `with_capacity(len)` multiplies by the element size, so an
//!   input-length bound does not prevent amplification (the PR 2 bomb
//!   sat right next to such a guard) — but not at `Mem`: allocating
//!   `buf.len() + k` duplicates memory the process already committed.
//! * **Sanitizers** clear a whole expression: a bounds-checked
//!   `try_into`, an explicit `.min(CONSTANT)` cap, or passage through a
//!   `verify*` call.
//!
//! Known blind spots (documented in LINTS.md): `match`-arm bindings are
//! not tracked, guards below the function's top statement level are
//! ignored, and a callee that arithmetically amplifies an argument
//! (`n * n`) keeps the argument's bound tier.

use crate::lexer::Tok;
use crate::resolve::Resolver;
use crate::scan::{FnDef, SourceFile, KEYWORDS};
use std::collections::BTreeMap;

/// Longest source→sink chain retained in a report line.
const MAX_CHAIN: usize = 6;
/// Fixpoint iteration cap (the lattice is finite; this is a backstop).
const MAX_ITERS: usize = 12;
/// Recursion fuel for evaluating call-argument subexpressions.
const MAX_FUEL: usize = 8;
/// Stand-in magnitude for named constants (`MAX_FOO`): the tier is what
/// matters; the value only orders joins within the `Const` tier.
const NAMED_CONST: u128 = u128::MAX;

/// Calls whose result is rooted attacker-shaped data, with the root text.
fn source_call(name: &str) -> Option<&'static str> {
    match name {
        "decode_len" => Some("announced length via `decode_len`"),
        "decode" => Some("wire-decoded value via `decode`"),
        "from_wire" => Some("wire-decoded value via `from_wire`"),
        // Segment-codec entry points: a disk image is attacker-shaped
        // until its CRCs check out, and even then lengths/offsets it
        // announces must be bounds-checked before they size anything.
        "decode_segment_header" => Some("segment header via `decode_segment_header`"),
        "decode_record" => Some("segment record via `decode_record`"),
        "decode_leaf_payload" => Some("leaf payload via `decode_leaf_payload`"),
        "decode_checkpoint_payload" => Some("checkpoint payload via `decode_checkpoint_payload`"),
        "decode_trailer" => Some("sealed-trailer offset via `decode_trailer`"),
        "scan_segment" => Some("scanned segment via `scan_segment`"),
        "scan_meta" => Some("scanned meta log via `scan_meta`"),
        _ => None,
    }
}

/// Signed-object types whose fields are untrusted until verified.
pub const SIGNED_TYPES: [&str; 5] = [
    "SignedCheckpoint",
    "SignedRelease",
    "Quote",
    "CheckpointBundle",
    "AuditBundle",
];

/// Upper-bound tier of a tracked value. `Ord` follows lattice order:
/// `Const(_) < Mem < Input < Top`, and within `Const` the larger cap
/// wins a join (the weaker bound is the sound one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bound {
    /// Capped by a compile-time constant (numeric literal or `MAX_*`).
    Const(u128),
    /// The length of an in-memory collection (`x.len()`): allocating
    /// that many bytes cannot exceed a constant multiple of memory the
    /// process has already committed, so it can never amplify.
    Mem,
    /// A *decoded scalar* capped by an input length (`if len >
    /// input.len() { return …; }`): iteration consuming input is fine,
    /// but sizing a `Vec<T>` with it still multiplies by `size_of::<T>`.
    Input,
    /// No workspace-visible bound.
    Top,
}

impl Default for Bound {
    fn default() -> Bound {
        Bound::Const(0)
    }
}

impl Bound {
    pub fn join(self, other: Bound) -> Bound {
        self.max(other)
    }

    /// True when an allocation sized by a value at this tier is safe:
    /// constant caps and in-memory lengths cannot amplify; `Input` and
    /// `Top` can.
    pub fn alloc_safe(self) -> bool {
        self <= Bound::Mem
    }
}

/// Taint lattice value: which parameters flow here (bitmask), the bound
/// tier, and, when the value is attacker-rooted, one deterministic source
/// chain (the lexicographically least seen, so reports never flap).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Taint {
    pub params: u64,
    pub chain: Option<Vec<String>>,
    pub bound: Bound,
}

impl Taint {
    fn rooted(desc: String) -> Taint {
        Taint {
            params: 0,
            chain: Some(vec![desc]),
            bound: Bound::Top,
        }
    }

    fn konst(value: u128) -> Taint {
        Taint {
            params: 0,
            chain: None,
            bound: Bound::Const(value),
        }
    }

    fn is_bottom(&self) -> bool {
        self.params == 0 && self.chain.is_none()
    }

    pub fn merge(&mut self, other: &Taint) {
        self.params |= other.params;
        self.bound = self.bound.join(other.bound);
        match (&self.chain, &other.chain) {
            (None, Some(_)) => self.chain = other.chain.clone(),
            (Some(a), Some(b)) if b < a => self.chain = other.chain.clone(),
            _ => {}
        }
    }
}

fn with_hop(chain: &[String], hop: String) -> Vec<String> {
    let mut out = chain.to_vec();
    if out.len() < MAX_CHAIN {
        out.push(hop);
    }
    out
}

/// A tainted value reaching an allocation/index/loop-bound sink.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    pub file: String,
    pub line: u32,
    pub fn_name: String,
    /// Human label of the sink, e.g. "`Vec::with_capacity`".
    pub sink: String,
    /// Deterministic source→sink chain, root first.
    pub chain: Vec<String>,
}

struct FnInfo {
    name: String,
    file_idx: usize,
    body: (usize, usize),
    /// Parameter names in order (`self` included when present).
    params: Vec<String>,
    /// (param index, root description) for attacker-rooted parameters.
    seeds: Vec<(usize, String)>,
    /// The scanned definition, for receiver-type qualifier inference.
    def: FnDef,
}

/// One argument observed flowing into a resolved callee's parameter.
struct ArgRec {
    callee: usize,
    param: usize,
    taint: Taint,
    hop: String,
}

/// Per-parameter caller context: the joined taint over every observed
/// call site, and whether any call site was observed at all (a parameter
/// nobody calls stays `Top`-bounded).
struct Incoming {
    taint: Vec<Vec<Taint>>,
    seen: Vec<Vec<bool>>,
}

/// The analysis's result: every tainted sink reached.
pub struct Dataflow {
    pub sites: Vec<Site>,
    /// Fixpoint sweeps across the summary and argument-taint phases.
    pub fixpoint_iters: usize,
}

/// What the walkers read while the fixpoints run.
struct Flow<'a> {
    files: &'a [SourceFile],
    resolver: &'a Resolver,
    fns: Vec<FnInfo>,
    summaries: Vec<Taint>,
}

impl Dataflow {
    /// The dataflow over `files` with a resolver of its own, for a caller
    /// that runs no other analysis over them.
    pub fn build(files: &[SourceFile]) -> Dataflow {
        Dataflow::new(files, &Resolver::build(files))
    }

    /// The dataflow over `files`, resolving calls through `resolver`,
    /// which must have been built over the same files.
    pub fn new(files: &[SourceFile], resolver: &Resolver) -> Dataflow {
        let mut fns = Vec::new();
        for (file_idx, file) in files.iter().enumerate() {
            for def in &file.fns {
                if def.in_test {
                    continue;
                }
                fns.push(fn_info(file, file_idx, def));
            }
        }
        debug_assert_eq!(fns.len(), resolver.fn_count());
        let mut flow = Flow {
            files,
            resolver,
            summaries: vec![Taint::default(); fns.len()],
            fns,
        };
        let mut fixpoint_iters = 0;

        // Phase 1 — param→return summaries, with no caller context: a
        // summary must describe the callee for *every* caller, so caller
        // chains are not allowed to pollute it.
        for _ in 0..MAX_ITERS {
            fixpoint_iters += 1;
            let mut changed = false;
            for i in 0..flow.fns.len() {
                let ret = walk_fn(&flow, i, None, None, None);
                let mut next = flow.summaries[i].clone();
                next.merge(&ret);
                if next != flow.summaries[i] {
                    flow.summaries[i] = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Phase 2 — context-insensitive argument taint: join, over every
        // resolved call site, the taint each argument carries into its
        // parameter slot. Monotone on the same finite lattice.
        let mut incoming = Incoming {
            taint: flow
                .fns
                .iter()
                .map(|f| vec![Taint::default(); f.params.len()])
                .collect(),
            seen: flow
                .fns
                .iter()
                .map(|f| vec![false; f.params.len()])
                .collect(),
        };
        for _ in 0..MAX_ITERS {
            fixpoint_iters += 1;
            let mut recs: Vec<ArgRec> = Vec::new();
            for i in 0..flow.fns.len() {
                walk_fn(&flow, i, Some(&incoming), None, Some(&mut recs));
            }
            let mut changed = false;
            for rec in recs {
                if !incoming.seen[rec.callee][rec.param] {
                    incoming.seen[rec.callee][rec.param] = true;
                    changed = true;
                }
                let mut t = rec.taint;
                t.params = 0; // caller-frame bits mean nothing in the callee
                if let Some(chain) = &t.chain {
                    t.chain = Some(with_hop(chain, rec.hop));
                }
                let slot = &mut incoming.taint[rec.callee][rec.param];
                let mut next = slot.clone();
                next.merge(&t);
                if next != *slot {
                    *slot = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Phase 3 — sites, with caller context seeded in.
        let mut sites = Vec::new();
        for i in 0..flow.fns.len() {
            walk_fn(&flow, i, Some(&incoming), Some(&mut sites), None);
        }
        sites.sort();
        sites.dedup();
        Dataflow {
            sites,
            fixpoint_iters,
        }
    }
}

/// Extracts signature facts for one function definition.
fn fn_info(file: &SourceFile, file_idx: usize, def: &FnDef) -> FnInfo {
    let mut params = Vec::new();
    let mut seeds = Vec::new();
    for (idx, param) in file.params(def).into_iter().enumerate() {
        let name = param.name;
        if let Some(ty) = signed_type(file, param.ty.clone()) {
            seeds.push((
                idx,
                format!(
                    "unverified `{ty}` (param `{name}` of `{}`) at {}:{}",
                    def.name, file.path, def.line
                ),
            ));
        } else if crate::passes::panic_path::decode_fn(&def.name)
            && param.ty.clone().any(|k| file.ident_at(k) == Some("u8"))
        {
            seeds.push((
                idx,
                format!(
                    "wire bytes `{name}` of `{}` at {}:{}",
                    def.name, file.path, def.line
                ),
            ));
        }
        params.push(name);
    }
    FnInfo {
        name: def.name.clone(),
        file_idx,
        body: def.body,
        params,
        seeds,
        def: def.clone(),
    }
}

/// The first signed-object type named in `range`.
pub fn signed_type(file: &SourceFile, mut range: std::ops::Range<usize>) -> Option<&str> {
    range.find_map(|k| file.ident_at(k).filter(|n| SIGNED_TYPES.contains(n)))
}

/// Walks one function body: returns the return-value taint and, when
/// requested, records tainted sink reaches (`sinks`) or argument flows
/// into resolved callees (`collect`).
fn walk_fn(
    flow: &Flow,
    fi: usize,
    incoming: Option<&Incoming>,
    mut sinks: Option<&mut Vec<Site>>,
    mut collect: Option<&mut Vec<ArgRec>>,
) -> Taint {
    let info = &flow.fns[fi];
    let file = &flow.files[info.file_idx];
    let (open, close) = info.body;
    let body_depth = file.depth[open];

    let mut env: BTreeMap<String, Taint> = BTreeMap::new();
    for (i, p) in info.params.iter().enumerate() {
        let mut t = Taint {
            params: 1u64 << i.min(63),
            chain: None,
            bound: Bound::Top,
        };
        if let Some(inc) = incoming {
            if inc.seen[fi][i] {
                let ctx = &inc.taint[fi][i];
                t.bound = ctx.bound;
                t.chain = ctx.chain.clone();
            }
        }
        env.insert(p.clone(), t);
    }
    for (i, desc) in &info.seeds {
        if let Some(t) = env.get_mut(&info.params[*i]) {
            t.merge(&Taint::rooted(desc.clone()));
        }
    }

    // Dominating early-return guards, applied once the walk passes the
    // guard block's closing brace: (apply_at, variable, inferred bound).
    let mut pending_guards: Vec<(usize, String, Bound)> = Vec::new();

    let mut ret = Taint::default();
    let mut last_semi = open;
    let mut idx = open + 1;
    while idx < close {
        if let Some(nend) = file.nested_fn_end(&info.def, idx) {
            idx = nend + 1;
            continue;
        }
        while let Some(pos) = pending_guards.iter().position(|(at, _, _)| *at <= idx) {
            let (_, var, bound) = pending_guards.remove(pos);
            if let Some(t) = env.get_mut(&var) {
                t.bound = t.bound.min(bound);
            }
        }
        if file.punct_at(idx, ';') && file.depth[idx] == body_depth {
            last_semi = idx;
        }

        // -- structure: bindings, guards, loops, returns ----------------
        if let Some(name) = file.ident_at(idx) {
            match name {
                "let" => {
                    if let Some(eq) = (idx + 1..close).find(|&k| file.assign_at(k, true)) {
                        let term = file.stmt_end(eq + 1, file.depth[idx], close);
                        let t = eval(flow, fi, &env, eq + 1, term - 1, MAX_FUEL);
                        // Strong update: a shadowing `let` replaces the
                        // prior taint, so `let n = n.min(CAP);` launders.
                        for b in pattern_binds(file, idx + 1, eq - 1) {
                            env.insert(b, t.clone());
                        }
                    }
                }
                "if" if file.depth[idx] == body_depth => {
                    // Top-level early-return guard: `if len > CAP { …
                    // return …; }` proves `len <= CAP` for the rest of
                    // the function body.
                    if let Some(gopen) = (idx + 1..close)
                        .find(|&k| file.punct_at(k, '{') && file.depth[k] == body_depth + 1)
                    {
                        let gclose = file.group_end(gopen);
                        let has_return =
                            (gopen..gclose).any(|k| file.ident_at(k) == Some("return"));
                        if has_return && idx + 1 < gopen {
                            for (var, bound) in guard_bounds(file, idx + 1, gopen - 1) {
                                pending_guards.push((gclose, var, bound));
                            }
                        }
                    }
                }
                "for" => {
                    let d = file.depth[idx];
                    let in_kw = (idx + 1..close).find(|&k| file.ident_at(k) == Some("in"));
                    let body_open =
                        (idx + 1..close).find(|&k| file.punct_at(k, '{') && file.depth[k] == d + 1);
                    if let (Some(in_kw), Some(body_open)) = (in_kw, body_open) {
                        if in_kw < body_open {
                            let t = eval(flow, fi, &env, in_kw + 1, body_open - 1, MAX_FUEL);
                            let has_range = (in_kw + 1..body_open - 1)
                                .any(|k| file.punct_at(k, '.') && file.punct_at(k + 1, '.'));
                            if has_range && t.bound == Bound::Top {
                                if let (Some(chain), Some(sites)) = (&t.chain, sinks.as_deref_mut())
                                {
                                    sites.push(Site {
                                        file: file.path.clone(),
                                        line: file.line_at(idx),
                                        fn_name: info.name.clone(),
                                        sink: "loop bound".to_string(),
                                        chain: chain.clone(),
                                    });
                                }
                            }
                            for b in pattern_binds(file, idx + 1, in_kw - 1) {
                                env.entry(b).or_default().merge(&t);
                            }
                        }
                    }
                }
                "return" => {
                    let term = file.stmt_end(idx + 1, file.depth[idx], close);
                    if idx + 1 < term {
                        ret.merge(&eval(flow, fi, &env, idx + 1, term - 1, MAX_FUEL));
                    }
                }
                _ => {}
            }
        }

        // -- plain reassignment `x = expr` / `x += expr` ----------------
        if file.assign_at(idx, false) {
            let (lhs_at, compound) = match file.tokens.get(idx.saturating_sub(1)).map(|t| &t.tok) {
                Some(Tok::Ident(_)) => (idx - 1, false),
                Some(Tok::Punct(op)) if "+-*/%&|^".contains(*op) => (idx.saturating_sub(2), true),
                _ => (usize::MAX, false),
            };
            if lhs_at != usize::MAX {
                if let Some(lhs) = file.ident_at(lhs_at) {
                    let is_field = lhs_at > 0 && file.punct_at(lhs_at - 1, '.');
                    let is_let = lhs_at > 0
                        && matches!(file.ident_at(lhs_at - 1), Some("let") | Some("mut"));
                    if !is_field && !is_let && !KEYWORDS.contains(&lhs) {
                        let term = file.stmt_end(idx + 1, file.depth[idx], close);
                        if idx + 1 < term {
                            let t = eval(flow, fi, &env, idx + 1, term - 1, MAX_FUEL);
                            if compound {
                                // `x += expr` keeps the old value as an
                                // operand, so the prior taint survives.
                                env.entry(lhs.to_string()).or_default().merge(&t);
                            } else {
                                env.insert(lhs.to_string(), t);
                            }
                        }
                    }
                }
            }
        }

        // -- argument flow into resolved callees ------------------------
        if let Some(recs) = collect.as_deref_mut() {
            collect_args(flow, fi, &env, idx, recs);
        }

        // -- sinks ------------------------------------------------------
        if let Some(sites) = sinks.as_deref_mut() {
            check_sink(flow, fi, &env, idx, sites);
        }
        idx += 1;
    }

    // Trailing expression (implicit return).
    if last_semi + 1 < close {
        ret.merge(&eval(flow, fi, &env, last_semi + 1, close - 1, MAX_FUEL));
    }
    ret
}

/// Bounds proven by an early-return guard condition in `lo..=hi`:
/// `var > CAP`, `var >= CAP`, `CAP < var`, or `var > expr.len()`. An
/// `&&`-joined condition proves nothing (either conjunct alone can
/// trigger the return); `||`-joined disjuncts each prove their bound.
fn guard_bounds(file: &SourceFile, lo: usize, hi: usize) -> Vec<(String, Bound)> {
    let mut out = Vec::new();
    // `a && b { return }` only returns when *both* hold; neither bound is
    // proven for the fall-through path.
    if (lo..hi).any(|k| file.punct_at(k, '&') && file.punct_at(k + 1, '&')) {
        return out;
    }
    let mut start = lo;
    let mut k = lo;
    while k <= hi + 1 {
        let is_or = k < hi && file.punct_at(k, '|') && file.punct_at(k + 1, '|');
        if is_or || k > hi {
            if start < k {
                if let Some(pair) = disjunct_bound(file, start, (k - 1).min(hi)) {
                    out.push(pair);
                }
            }
            if is_or {
                k += 2;
                start = k;
                continue;
            }
            break;
        }
        k += 1;
    }
    out
}

/// The bound proven by one guard disjunct, if it has the shape
/// `var > rhs` / `var >= rhs` / `rhs < var` with a constant or
/// input-length `rhs`.
fn disjunct_bound(file: &SourceFile, lo: usize, hi: usize) -> Option<(String, Bound)> {
    // `var > rhs` (or `>=`).
    for k in lo..=hi {
        if file.punct_at(k, '>') && !file.punct_at(k + 1, '>') {
            let rhs_from = if file.punct_at(k + 1, '=') {
                k + 2
            } else {
                k + 1
            };
            // The lhs must be a single identifier spanning the disjunct.
            if k != lo + 1 {
                return None;
            }
            let var = file.ident_at(lo)?.to_string();
            return rhs_bound(file, rhs_from, hi).map(|b| (var, b));
        }
        if file.punct_at(k, '<') && !file.punct_at(k + 1, '<') && !file.punct_at(k + 1, '=') {
            // `rhs < var`: the rhs of `<` must be the single trailing
            // identifier.
            if k != hi - 1 {
                return None;
            }
            let var = file.ident_at(hi)?.to_string();
            return rhs_bound(file, lo, k - 1).map(|b| (var, b));
        }
    }
    None
}

/// Classifies a guard comparison's bounding side: a constant expression
/// yields `Const`, an `.len()` call on anything yields `Input`.
fn rhs_bound(file: &SourceFile, lo: usize, hi: usize) -> Option<Bound> {
    if lo > hi {
        return None;
    }
    let has_len_call = (lo..=hi).any(|k| {
        file.ident_at(k) == Some("len")
            && k > lo
            && file.punct_at(k - 1, '.')
            && file.punct_at(k + 1, '(')
    });
    if has_len_call {
        return Some(Bound::Input);
    }
    let mut value: Option<u128> = None;
    for k in lo..=hi {
        match file.tokens.get(k).map(|t| &t.tok) {
            Some(Tok::Number(raw)) => value = Some(value.unwrap_or(0).max(number_value(raw))),
            Some(Tok::Ident(name)) if screaming_const(name) => {
                value = Some(NAMED_CONST);
            }
            Some(Tok::Ident(_)) => return None, // variable bound: unknown
            _ => {}
        }
    }
    value.map(Bound::Const)
}

/// Numeric value of a literal token, tolerant of `_` separators and type
/// suffixes (`1024usize`); unparseable forms collapse to the sentinel.
fn number_value(raw: &str) -> u128 {
    let cleaned: String = raw.chars().filter(|c| *c != '_').collect();
    let digits: String = if let Some(hex) = cleaned.strip_prefix("0x") {
        return u128::from_str_radix(hex.trim_end_matches(|c: char| !c.is_ascii_hexdigit()), 16)
            .unwrap_or(NAMED_CONST);
    } else {
        cleaned.chars().take_while(|c| c.is_ascii_digit()).collect()
    };
    digits.parse().unwrap_or(NAMED_CONST)
}

/// `MAX_FOO`-style named constant: all uppercase/underscore/digit with at
/// least one letter.
fn screaming_const(name: &str) -> bool {
    name.chars()
        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
        && name.chars().any(|c| c.is_ascii_alphabetic())
}

/// Lowercase identifiers bound by a pattern in `lo..=hi` (stops at a
/// type-annotation `:` at paren depth 0; skips path segments).
fn pattern_binds(file: &SourceFile, lo: usize, hi: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut k = lo;
    while k <= hi {
        match file.tokens.get(k).map(|t| &t.tok) {
            Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{')) => depth += 1,
            Some(Tok::Punct(')')) | Some(Tok::Punct(']')) | Some(Tok::Punct('}')) => depth -= 1,
            Some(Tok::Punct(':')) if depth == 0 => break, // type annotation
            Some(Tok::Punct(':')) => {}
            Some(Tok::PathSep) => {} // path segments handled below
            Some(Tok::Ident(name)) => {
                let lower = name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_');
                let path_seg =
                    (k < hi && file.path_sep_at(k + 1)) || (k > lo && file.path_sep_at(k - 1));
                if lower && !path_seg && !KEYWORDS.contains(&name.as_str()) && name != "self" {
                    out.push(name.clone());
                }
            }
            _ => {}
        }
        k += 1;
    }
    out
}

/// True when `lo..=hi` passes through a recognized sanitizer: a
/// `try_into` conversion, a `.min(CONSTANT)` cap, or a `verify*` call.
fn sanitized(file: &SourceFile, lo: usize, hi: usize) -> bool {
    for k in lo..=hi {
        if let Some(name) = file.ident_at(k) {
            if name == "try_into" {
                return true;
            }
            if name.starts_with("verify") && file.punct_at(k + 1, '(') {
                return true;
            }
            if name == "min" && k > 0 && file.punct_at(k - 1, '.') && file.punct_at(k + 1, '(') {
                if let Some(cl) = file.matching(k + 1).filter(|&cl| cl <= hi) {
                    let constish = (k + 2..cl).all(|a| match file.tokens.get(a).map(|t| &t.tok) {
                        Some(Tok::Number(_)) => true,
                        Some(Tok::Ident(n)) => n
                            .chars()
                            .all(|c| c.is_uppercase() || c == '_' || c.is_ascii_digit()),
                        Some(Tok::PathSep) | Some(Tok::Punct('(')) | Some(Tok::Punct(')')) => true,
                        _ => false,
                    });
                    if k + 2 < cl && constish {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Taint of the expression spanning tokens `lo..=hi`: the union of every
/// environment-tainted identifier, rooted source call, and resolved
/// callee summary in the range. Sanitizers clear the whole range.
fn eval(
    flow: &Flow,
    fi: usize,
    env: &BTreeMap<String, Taint>,
    lo: usize,
    hi: usize,
    fuel: usize,
) -> Taint {
    let info = &flow.fns[fi];
    let file = &flow.files[info.file_idx];
    if lo > hi || fuel == 0 {
        return Taint::default();
    }
    if sanitized(file, lo, hi) {
        return Taint::default();
    }
    let mut out = Taint::default();
    let mut k = lo;
    while k <= hi {
        if let Some(Tok::Number(raw)) = file.tokens.get(k).map(|t| &t.tok) {
            out.merge(&Taint::konst(number_value(raw)));
            k += 1;
            continue;
        }
        let Some(name) = file.ident_at(k) else {
            k += 1;
            continue;
        };
        let is_call = file.punct_at(k + 1, '(') && !KEYWORDS.contains(&name);
        // A `.` directly before the ident marks a field/method name —
        // unless it is the second dot of a range (`0..n`), where the
        // ident is a real operand.
        let after_dot = k > 0 && file.punct_at(k - 1, '.') && !(k > 1 && file.punct_at(k - 2, '.'));
        let is_field = after_dot && !is_call;
        if is_field {
            k += 1;
            continue;
        }
        if is_call {
            let line = file.line_at(k);
            if let Some(desc) = source_call(name) {
                out.merge(&Taint::rooted(format!("{desc} at {}:{line}", file.path)));
            }
            let qual = flow.resolver.qualifier_at(file, &info.def, k);
            let callees = flow.resolver.targets(fi, name, &qual);
            if !callees.is_empty() {
                let close = file.matching(k + 1).filter(|&cl| cl <= hi).unwrap_or(hi);
                let args = file.split_commas(k + 2, close.saturating_sub(1), false);
                let is_method = k > 0 && file.punct_at(k - 1, '.');
                for &j in &callees {
                    let s = &flow.summaries[j];
                    if s.is_bottom() {
                        continue;
                    }
                    if let Some(chain) = &s.chain {
                        out.merge(&Taint {
                            params: 0,
                            chain: Some(with_hop(
                                chain,
                                format!("returned by `{name}` at {}:{line}", file.path),
                            )),
                            bound: s.bound,
                        });
                    }
                    // Param→return flow: evaluate only the flowing args.
                    let callee = &flow.fns[j];
                    let skip_self =
                        is_method && callee.params.first().map(String::as_str) == Some("self");
                    for p in 0..callee.params.len().min(63) {
                        if s.params & (1u64 << p) == 0 {
                            continue;
                        }
                        let a = if skip_self {
                            if p == 0 {
                                continue; // receiver handled by outer scan
                            }
                            p - 1
                        } else {
                            p
                        };
                        if let Some(&(alo, ahi)) = args.get(a) {
                            let t = eval(flow, fi, env, alo, ahi, fuel - 1);
                            if let Some(chain) = &t.chain {
                                let mut routed = t.clone();
                                routed.chain = Some(with_hop(
                                    chain,
                                    format!("through `{name}` at {}:{line}", file.path),
                                ));
                                out.merge(&routed);
                            } else {
                                out.merge(&t);
                            }
                        }
                    }
                }
                // Skip the argument range: flow through resolved callees
                // is governed by their summaries, not a blanket union.
                k = close + 1;
                continue;
            }
            // Unresolved call (std/external): fall through and union the
            // arguments conservatively.
            k += 1;
            continue;
        }
        if let Some(t) = env.get(name) {
            if is_len_of(file, k, hi) {
                // `x.len()` (possibly through fields / zero-arg methods):
                // the chain survives, but the magnitude is an in-memory
                // collection length — cap the bound at `Mem`.
                let mut capped = t.clone();
                capped.bound = capped.bound.min(Bound::Mem);
                out.merge(&capped);
            } else {
                out.merge(t);
            }
        } else if screaming_const(name) {
            out.merge(&Taint::konst(NAMED_CONST));
        }
        k += 1;
    }
    out
}

/// True when the identifier at `k` is the base of a postfix chain of
/// field accesses and zero-arg method calls ending in `.len()` — i.e.
/// the expression's value is the *length* of an in-memory collection
/// (`buf.len()`, `self.items.len()`, `rec.as_slice().len()`), not the
/// collection or a decoded scalar.
fn is_len_of(file: &SourceFile, k: usize, hi: usize) -> bool {
    let mut j = k + 1;
    loop {
        if j + 1 > hi || !file.punct_at(j, '.') || file.punct_at(j + 1, '.') {
            return false;
        }
        let Some(name) = file.ident_at(j + 1) else {
            return false;
        };
        if name == "len" && file.punct_at(j + 2, '(') && file.punct_at(j + 3, ')') {
            return true;
        }
        if file.punct_at(j + 2, '(') {
            // A method call: only zero-arg adapters keep the "same
            // collection" reading; anything with arguments transforms.
            if file.punct_at(j + 3, ')') {
                j += 4;
            } else {
                return false;
            }
        } else {
            j += 2; // plain field access
        }
    }
}

/// When token `idx` is a resolved call, records the taint each argument
/// carries into the callee's parameter slots.
fn collect_args(
    flow: &Flow,
    fi: usize,
    env: &BTreeMap<String, Taint>,
    idx: usize,
    recs: &mut Vec<ArgRec>,
) {
    let info = &flow.fns[fi];
    let file = &flow.files[info.file_idx];
    let Some(name) = file.ident_at(idx) else {
        return;
    };
    if !file.punct_at(idx + 1, '(') || KEYWORDS.contains(&name) {
        return;
    }
    let qual = flow.resolver.qualifier_at(file, &info.def, idx);
    let callees = flow.resolver.targets(fi, name, &qual);
    if callees.is_empty() {
        return;
    }
    let Some(cl) = file.matching(idx + 1) else {
        return;
    };
    let args = file.split_commas(idx + 2, cl.saturating_sub(1), false);
    let is_method = idx > 0 && file.punct_at(idx - 1, '.');
    let line = file.line_at(idx);
    for &j in &callees {
        let callee = &flow.fns[j];
        let skip_self = is_method && callee.params.first().map(String::as_str) == Some("self");
        for p in 0..callee.params.len() {
            let a = if skip_self {
                if p == 0 {
                    continue;
                }
                p - 1
            } else {
                p
            };
            if let Some(&(alo, ahi)) = args.get(a) {
                let taint = eval(flow, fi, env, alo, ahi, MAX_FUEL);
                recs.push(ArgRec {
                    callee: j,
                    param: p,
                    taint,
                    hop: format!(
                        "passed into `{name}` as `{}` at {}:{line}",
                        callee.params[p], file.path
                    ),
                });
            }
        }
    }
}

/// Checks whether token `idx` is an allocation/index sink and records a
/// site when its size expression warrants one.
fn check_sink(
    flow: &Flow,
    fi: usize,
    env: &BTreeMap<String, Taint>,
    idx: usize,
    sites: &mut Vec<Site>,
) {
    let info = &flow.fns[fi];
    let file = &flow.files[info.file_idx];
    // Allocation sinks fire at `Input` too: a guard against the input
    // length does not prevent element-size amplification. Index sinks
    // only fire unbounded.
    let mut push = |line: u32, sink: &str, alloc: bool, lo: usize, hi: usize| {
        if lo > hi {
            return;
        }
        let t = eval(flow, fi, env, lo, hi, MAX_FUEL);
        let fires = if alloc {
            !t.bound.alloc_safe()
        } else {
            t.bound == Bound::Top
        };
        if !fires {
            return;
        }
        if let Some(chain) = &t.chain {
            sites.push(Site {
                file: file.path.clone(),
                line,
                fn_name: info.name.clone(),
                sink: sink.to_string(),
                chain: chain.clone(),
            });
        }
    };

    if let Some(name) = file.ident_at(idx) {
        let line = file.line_at(idx);
        match name {
            "with_capacity" if file.punct_at(idx + 1, '(') => {
                if let Some(cl) = file.matching(idx + 1) {
                    push(
                        line,
                        "`Vec::with_capacity`",
                        true,
                        idx + 2,
                        cl.saturating_sub(1),
                    );
                }
            }
            "reserve" | "reserve_exact"
                if idx > 0 && file.punct_at(idx - 1, '.') && file.punct_at(idx + 1, '(') =>
            {
                if let Some(cl) = file.matching(idx + 1) {
                    push(line, "`reserve`", true, idx + 2, cl.saturating_sub(1));
                }
            }
            "resize" if idx > 0 && file.punct_at(idx - 1, '.') && file.punct_at(idx + 1, '(') => {
                if let Some(cl) = file.matching(idx + 1) {
                    let args = file.split_commas(idx + 2, cl.saturating_sub(1), false);
                    if let Some(&(alo, ahi)) = args.first() {
                        push(line, "`resize` length", true, alo, ahi);
                    }
                }
            }
            "vec" if file.punct_at(idx + 1, '!') && file.punct_at(idx + 2, '[') => {
                if let Some(cl) = file.matching(idx + 2) {
                    let mut depth = 0i64;
                    for k in idx + 3..cl {
                        match file.tokens.get(k).map(|t| &t.tok) {
                            Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => depth += 1,
                            Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => depth -= 1,
                            Some(Tok::Punct(';')) if depth == 0 => {
                                push(line, "`vec![_; n]` length", true, k + 1, cl - 1);
                                break;
                            }
                            _ => {}
                        }
                    }
                }
            }
            _ => {}
        }
        return;
    }

    // Slice indexing `base[expr]` with a tainted index expression.
    if file.punct_at(idx, '[') && idx > 0 {
        let indexable = match file.tokens.get(idx - 1).map(|t| &t.tok) {
            Some(Tok::Ident(name)) => !KEYWORDS.contains(&name.as_str()) && name != "vec",
            Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => true,
            _ => false,
        };
        if indexable {
            if let Some(cl) = file.matching(idx) {
                if idx + 1 < cl {
                    push(file.line_at(idx), "slice index", false, idx + 1, cl - 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    fn flow_of(sources: &[(&str, &str)]) -> Dataflow {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, s)| SourceFile::parse(p.to_string(), s))
            .collect();
        Dataflow::build(&files)
    }

    fn sites(path: &str, src: &str) -> Vec<Site> {
        flow_of(&[(path, src)]).sites
    }

    #[test]
    fn announced_length_reaches_with_capacity() {
        let s = sites(
            "crates/x/src/codec.rs",
            "fn decode_items(input: &mut &[u8]) { let len = decode_len(input); \
             let v: Vec<u8> = Vec::with_capacity(len); }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].sink, "`Vec::with_capacity`");
        assert!(s[0].chain[0].contains("announced length via `decode_len`"));
    }

    #[test]
    fn min_against_constant_sanitizes() {
        let s = sites(
            "crates/x/src/codec.rs",
            "fn decode_items(input: &mut &[u8]) { let len = decode_len(input); \
             let v: Vec<u8> = Vec::with_capacity(len.min(CHUNK)); }",
        );
        assert!(s.is_empty());
    }

    #[test]
    fn min_against_variable_does_not_sanitize() {
        let s = sites(
            "crates/x/src/codec.rs",
            "fn decode_items(input: &mut &[u8]) { let len = decode_len(input); let other = len; \
             let v: Vec<u8> = Vec::with_capacity(len.min(other)); }",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn taint_flows_through_intra_crate_summaries() {
        let s = sites(
            "crates/x/src/codec.rs",
            "fn read_len(input: &mut &[u8]) -> usize { decode_len(input) } \
             fn decode_seq(input: &mut &[u8]) { let n = read_len(input); \
             let v: Vec<u64> = Vec::with_capacity(n); }",
        );
        assert!(!s.is_empty());
        assert!(s
            .iter()
            .any(|x| x.chain.iter().any(|h| h.contains("returned by `read_len`"))));
    }

    #[test]
    fn signed_param_fields_root_taint() {
        let s = sites(
            "crates/x/src/auditor.rs",
            "fn observe_thing(&mut self, bundle: &CheckpointBundle) { \
             let steps = bundle.proof.step_count(); \
             let v = vec![0usize; steps]; }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].sink, "`vec![_; n]` length");
        assert!(s[0].chain[0].contains("unverified `CheckpointBundle`"));
    }

    #[test]
    fn loop_bounds_and_indexing_fire() {
        let s = sites(
            "crates/x/src/codec.rs",
            "fn decode_all(input: &mut &[u8]) { let n = decode_len(input); \
             for _ in 0..n { step(); } let x = table[n]; }",
        );
        let sinks: Vec<&str> = s.iter().map(|x| x.sink.as_str()).collect();
        assert!(sinks.contains(&"loop bound"));
        assert!(sinks.contains(&"slice index"));
    }

    #[test]
    fn own_state_lengths_are_clean() {
        let s = sites(
            "crates/x/src/server.rs",
            "fn snapshot(&self) { let v: Vec<u8> = Vec::with_capacity(self.items.len() + 1); }",
        );
        assert!(s.is_empty());
    }

    #[test]
    fn clean_summary_does_not_leak_argument_taint() {
        // `cap` sanitizes; callers must not re-taint through the arg union.
        let s = sites(
            "crates/x/src/codec.rs",
            "fn cap(n: usize) -> usize { n.min(MAX) } \
             fn decode_items(input: &mut &[u8]) { let len = decode_len(input); \
             let v: Vec<u8> = Vec::with_capacity(cap(len)); }",
        );
        assert!(s.is_empty());
    }

    #[test]
    fn chains_are_deterministic_across_runs() {
        let src = "fn decode_pair(input: &mut &[u8]) { let a = decode_len(input); \
             let b = decode_len(input); let n = a + b; let v: Vec<u8> = Vec::with_capacity(n); }";
        let a = sites("crates/x/src/codec.rs", src);
        let b = sites("crates/x/src/codec.rs", src);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn input_length_guard_silences_loop_but_not_alloc() {
        // The PR 2 shape: `if len > input.len() { return Err }` bounds the
        // iteration (each step consumes input) but NOT the allocation
        // (`with_capacity` multiplies by the element size).
        let src = "fn decode_seq(input: &mut &[u8]) -> Result<(), E> { \
             let len = decode_len(input); \
             if len > input.len() { return Err(E::Overflow); } \
             for _ in 0..len { step(); } \
             let v: Vec<u64> = Vec::with_capacity(len); Ok(()) }";
        let s = sites("crates/x/src/codec.rs", src);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].sink, "`Vec::with_capacity`");
    }

    #[test]
    fn constant_guard_silences_allocation_too() {
        let src = "fn decode_seq(input: &mut &[u8]) -> Result<(), E> { \
             let len = decode_len(input); \
             if len > MAX_LEN { return Err(E::Overflow); } \
             for _ in 0..len { step(); } \
             let v: Vec<u64> = Vec::with_capacity(len); Ok(()) }";
        assert!(sites("crates/x/src/codec.rs", src).is_empty());
    }

    #[test]
    fn conjunction_guards_prove_nothing() {
        // `len > CAP && mode == Strict { return }` — a lenient mode falls
        // through with len unbounded.
        let src = "fn decode_seq(input: &mut &[u8]) -> Result<(), E> { \
             let len = decode_len(input); \
             if len > MAX_LEN && strict { return Err(E::Overflow); } \
             let v: Vec<u64> = Vec::with_capacity(len); Ok(()) }";
        assert_eq!(sites("crates/x/src/codec.rs", src).len(), 1);
    }

    #[test]
    fn guard_applies_only_below_its_block() {
        // The sink *inside* the early-return block sees the unbounded
        // value; only the fall-through path is bounded.
        let src = "fn decode_seq(input: &mut &[u8]) -> Result<(), E> { \
             let len = decode_len(input); \
             if len > MAX_LEN { let v: Vec<u64> = Vec::with_capacity(len); return Err(E::Big); } \
             Ok(()) }";
        assert_eq!(sites("crates/x/src/codec.rs", src).len(), 1);
    }

    #[test]
    fn argument_taint_fires_inside_the_callee() {
        let s = sites(
            "crates/x/src/codec.rs",
            "fn grow(n: usize) { let v: Vec<u8> = Vec::with_capacity(n); } \
             fn decode_items(input: &mut &[u8]) { let len = decode_len(input); grow(len); }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].fn_name, "grow");
        assert!(s[0]
            .chain
            .iter()
            .any(|h| h.contains("passed into `grow` as `n`")));
    }

    #[test]
    fn cross_crate_argument_taint_carries_the_full_chain() {
        let flow = flow_of(&[
            (
                "crates/log/src/table.rs",
                "pub fn grow_table(n: usize) { let v: Vec<u64> = Vec::with_capacity(n); }",
            ),
            (
                "crates/wire/src/codec.rs",
                "use distrust_log::table::grow_table;\n\
                 fn decode_items(input: &mut &[u8]) { let len = decode_len(input); \
                 grow_table(len); }",
            ),
        ]);
        assert_eq!(flow.sites.len(), 1);
        let site = &flow.sites[0];
        assert_eq!(site.file, "crates/log/src/table.rs");
        assert!(site.chain[0].contains("crates/wire/src/codec.rs"));
        assert!(site
            .chain
            .iter()
            .any(|h| h.contains("passed into `grow_table`")));
    }

    #[test]
    fn capped_callers_bound_the_callee_parameter() {
        // Every call site caps the argument, so the callee's internal
        // allocation is provably bounded: no site.
        let s = sites(
            "crates/x/src/codec.rs",
            "fn grow(n: usize) { let v: Vec<u8> = Vec::with_capacity(n); } \
             fn setup() { grow(16); } fn setup_big() { grow(MAX_BATCH); }",
        );
        assert!(s.is_empty());
    }

    #[test]
    fn bound_lattice_joins_upward() {
        assert_eq!(Bound::Const(4).join(Bound::Const(1024)), Bound::Const(1024));
        assert_eq!(Bound::Const(u128::MAX).join(Bound::Mem), Bound::Mem);
        assert_eq!(Bound::Mem.join(Bound::Input), Bound::Input);
        assert_eq!(Bound::Input.join(Bound::Top), Bound::Top);
        assert_eq!(Bound::Top.join(Bound::Const(0)), Bound::Top);
    }

    #[test]
    fn collection_length_allocations_are_mem_bounded() {
        // `with_capacity(leaf.len() + 32)` duplicates memory already
        // committed — not an amplification, even when `leaf` itself is
        // attacker-shaped bytes passed across a crate seam.
        let flow = flow_of(&[
            (
                "crates/log/src/store.rs",
                "pub fn append_record(leaf: &[u8]) { \
                 let mut buf: Vec<u8> = Vec::with_capacity(leaf.len() + 32); \
                 buf.extend_from_slice(leaf); }",
            ),
            (
                "crates/wire/src/codec.rs",
                "use distrust_log::store::append_record;\n\
                 fn decode_items(input: &mut &[u8]) { let body = decode(input); \
                 append_record(body); }",
            ),
        ]);
        assert!(flow.sites.is_empty());
    }

    #[test]
    fn closure_arguments_do_not_split_into_phantom_args() {
        // The commas inside a closure body must not be read as extra
        // call arguments mapping taint onto later parameters.
        let s = sites(
            "crates/x/src/host.rs",
            "fn serve(service: F, threads: usize) { \
             let v: Vec<u8> = Vec::with_capacity(threads); } \
             fn decode_boot(input: &mut &[u8]) { let cfg = decode(input); \
             serve(move || { handle(cfg, cfg) }, 4); }",
        );
        assert!(s.is_empty());
    }
}
