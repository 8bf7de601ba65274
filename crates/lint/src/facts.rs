//! Per-function facts: which named locks a function acquires, how long
//! each guard lives, and which calls (and potential blocking calls) happen
//! while a guard is held.
//!
//! Guard lifetimes are a lexical approximation of Rust's drop rules:
//!
//! * a let-bound guard (`let g = x.lock();`) lives to the end of its
//!   enclosing block, or to an explicit `drop(g)`;
//! * a temporary guard (`x.lock().do_thing()`) lives to the end of its
//!   statement — or, when the acquisition sits in a `for`/`while`/`if`/
//!   `match` header, to the end of that construct's body, matching the
//!   scrutinee-temporary extension that bites in real deadlocks.
//!
//! Lock identity is the receiver's trailing field/variable name with known
//! alias suffixes stripped (`conns_accept` and `conns_c` are clones of the
//! same `Arc<Mutex<…>>` as `conns`), qualified by file stem so unrelated
//! locks that happen to share a field name stay distinct.

use crate::lexer::Tok;
use crate::resolve::Resolver;
use crate::scan::{FnDef, SourceFile, KEYWORDS};
use std::fmt;

/// Methods that acquire a guard. `.read()`/`.write()` count only with
/// empty argument lists, so `stream.read(&mut buf)` io calls stay inert.
const LOCK_METHODS: [&str; 4] = ["lock", "lock_healthy", "read", "write"];

/// Methods that pass the receiver through unchanged for naming purposes.
const TRANSPARENT: [&str; 14] = [
    "get",
    "get_mut",
    "iter",
    "iter_mut",
    "as_ref",
    "as_mut",
    "clone",
    "entry",
    "borrow",
    "borrow_mut",
    "expect",
    "unwrap",
    "ok_or",
    "ok_or_else",
];

/// Alias suffixes produced by `Arc` clones named for the thread that owns
/// them (`conns_accept`, `tx_c`, …); stripped to merge with the original.
const ALIAS_SUFFIXES: [&str; 9] = [
    "_accept", "_conn", "_c", "_i", "_e", "_t", "_tx", "_rx", "_2",
];

/// Identity of one named lock: canonical receiver name + defining file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockId {
    pub name: String,
    pub place: String,
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.name, self.place)
    }
}

/// One lock acquisition, with the locks already held at that point.
#[derive(Debug, Clone)]
pub struct Acquire {
    pub lock: LockId,
    pub line: u32,
    pub held: Vec<(LockId, u32)>,
}

/// One call site, with the locks held while the call runs.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub line: u32,
    pub zero_args: bool,
    /// Canonical indices of the functions the call resolves to.
    pub callees: Vec<usize>,
    pub held: Vec<(LockId, u32)>,
}

/// Everything the graph passes need to know about one function.
#[derive(Debug, Clone)]
pub struct FnFacts {
    pub name: String,
    pub file: String,
    pub crate_name: String,
    pub line: u32,
    pub acquires: Vec<Acquire>,
    pub calls: Vec<CallSite>,
}

/// Blocking classification by call name. `wait` is the reactor's readiness
/// wait (`wire::sys::wait`), which sleeps until a socket is ready. `join`
/// only counts with no arguments (thread join), so `Vec::join(", ")` stays
/// inert; a timed receive (`recv_timeout`) is bounded and never counts.
pub fn blocking_call(call: &CallSite) -> Option<&'static str> {
    match call.name.as_str() {
        "sleep" => Some("sleep"),
        "connect" => Some("connect"),
        "accept" => Some("accept"),
        "recv" => Some("recv"),
        "wait" => Some("wait"),
        "write_frame" => Some("write_frame"),
        "join" if call.zero_args => Some("join"),
        _ => None,
    }
}

/// Extracts facts for every non-test function in `file`, in the
/// resolver's canonical order; the file's first one has index `first`.
pub fn function_facts(file: &SourceFile, resolver: &Resolver, first: usize) -> Vec<FnFacts> {
    let stem = file
        .path
        .rsplit('/')
        .next()
        .unwrap_or(&file.path)
        .trim_end_matches(".rs")
        .to_string();
    file.fns
        .iter()
        .filter(|f| !f.in_test)
        .enumerate()
        .map(|(k, f)| walk_fn(file, f, &stem, resolver, first + k))
        .collect()
}

struct Guard {
    lock: LockId,
    line: u32,
    /// Token index at which the guard stops being held.
    end: usize,
}

fn walk_fn(
    file: &SourceFile,
    def: &FnDef,
    stem: &str,
    resolver: &Resolver,
    canonical_idx: usize,
) -> FnFacts {
    let (open, close) = def.body;

    let mut guards: Vec<Guard> = Vec::new();
    let mut facts = FnFacts {
        name: def.name.clone(),
        file: file.path.clone(),
        crate_name: file.crate_name.clone(),
        line: def.line,
        acquires: Vec::new(),
        calls: Vec::new(),
    };

    let mut idx = open;
    while idx <= close {
        if let Some(nend) = file.nested_fn_end(def, idx) {
            idx = nend + 1;
            continue;
        }
        guards.retain(|g| g.end > idx);

        if lock_method_at(file, idx).is_some() {
            let lock = receiver_lock(file, idx, stem);
            let held: Vec<(LockId, u32)> =
                guards.iter().map(|g| (g.lock.clone(), g.line)).collect();
            let line = file.line_at(idx);
            let end = guard_end(file, idx, close);
            facts.acquires.push(Acquire {
                lock: lock.clone(),
                line,
                held,
            });
            guards.push(Guard { lock, line, end });
            idx += 3; // past `( )`
            continue;
        }

        if let Some(name) = call_at(file, idx) {
            let held: Vec<(LockId, u32)> =
                guards.iter().map(|g| (g.lock.clone(), g.line)).collect();
            facts.calls.push(CallSite {
                name: name.to_string(),
                line: file.line_at(idx),
                zero_args: file.punct_at(idx + 2, ')'),
                callees: resolver.targets(
                    canonical_idx,
                    name,
                    &resolver.qualifier_at(file, def, idx),
                ),
                held,
            });
        }
        idx += 1;
    }
    facts
}

/// Is token `idx` the method name of a zero-argument lock acquisition?
fn lock_method_at(file: &SourceFile, idx: usize) -> Option<&str> {
    let name = file.ident_at(idx)?;
    if !LOCK_METHODS.contains(&name) {
        return None;
    }
    if idx == 0 || !file.punct_at(idx - 1, '.') {
        return None;
    }
    if !file.punct_at(idx + 1, '(') || !file.punct_at(idx + 2, ')') {
        return None;
    }
    Some(name)
}

/// Is token `idx` a plain call (`name(` or `.name(`), excluding keywords,
/// definitions, macros, and the lock methods handled above?
fn call_at(file: &SourceFile, idx: usize) -> Option<&str> {
    let name = file.ident_at(idx)?;
    if KEYWORDS.contains(&name) || name == "Self" || name == "self" {
        return None;
    }
    if !file.punct_at(idx + 1, '(') {
        return None;
    }
    if idx > 0 && file.ident_at(idx - 1) == Some("fn") {
        return None;
    }
    if lock_method_at(file, idx).is_some() {
        return None;
    }
    Some(name)
}

/// Resolves the receiver of the lock method at `idx` to a [`LockId`].
fn receiver_lock(file: &SourceFile, idx: usize, stem: &str) -> LockId {
    let name = receiver_base(file, idx.saturating_sub(2))
        .map(canonical)
        .unwrap_or_else(|| "<anon>".to_string());
    LockId {
        name,
        place: stem.to_string(),
    }
}

/// Walks backwards from `j` (the token before the `.` of the lock method)
/// to the identifier naming the lock, skipping `?`, index/call groups and
/// transparent adapter methods.
fn receiver_base(file: &SourceFile, mut j: usize) -> Option<String> {
    loop {
        match file.tokens.get(j).map(|t| &t.tok)? {
            Tok::Punct(')' | ']') => j = file.matching(j)?.checked_sub(1)?,
            Tok::Punct('?') | Tok::Punct('.') => j = j.checked_sub(1)?,
            Tok::Ident(name) => {
                if TRANSPARENT.contains(&name.as_str()) || name == "self" {
                    j = j.checked_sub(1)?;
                } else {
                    return Some(name.clone());
                }
            }
            _ => return None,
        }
    }
}

/// Token index where the guard acquired at `idx` stops being held.
fn guard_end(file: &SourceFile, idx: usize, body_close: usize) -> usize {
    let depth = file.depth[idx];
    let stmt_start = stmt_start(file, idx);

    // Let-bound guard: `.lock()` terminates the initializer expression.
    if file.ident_at(stmt_start) == Some("let") && file.punct_at(idx + 3, ';') {
        let var = file.let_name(stmt_start).map(|(_, name)| name);
        let block_end = (idx + 3..=body_close)
            .find(|&k| file.punct_at(k, '}') && file.depth[k] == depth)
            .unwrap_or(body_close);
        if let Some(var) = var {
            if let Some(d) = explicit_drop(file, idx + 3, block_end, var) {
                return d;
            }
        }
        return block_end;
    }

    // Temporary in a `for`/`while`/`if`/`match` header: the scrutinee
    // temporary lives through the construct's body.
    let header = (stmt_start..idx).any(|k| {
        matches!(
            file.ident_at(k),
            Some("for") | Some("while") | Some("if") | Some("match")
        ) && file.depth[k] == depth
    });
    if header {
        if let Some(open) =
            (idx..=body_close).find(|&k| file.punct_at(k, '{') && file.depth[k] == depth + 1)
        {
            return file.group_end(open);
        }
    }

    // Plain temporary: to the end of the statement.
    file.stmt_end(idx, depth, body_close)
}

/// Nearest statement boundary at or before `idx` (token just after the
/// previous `;`, `{` or `}`).
fn stmt_start(file: &SourceFile, idx: usize) -> usize {
    (0..idx)
        .rev()
        .find(|&k| file.punct_at(k, ';') || file.punct_at(k, '{') || file.punct_at(k, '}'))
        .map(|k| k + 1)
        .unwrap_or(0)
}

/// First `drop(var)` between `from` and `to`, returning its index.
fn explicit_drop(file: &SourceFile, from: usize, to: usize, var: &str) -> Option<usize> {
    (from..to).find(|&k| {
        file.ident_at(k) == Some("drop")
            && file.punct_at(k + 1, '(')
            && file.ident_at(k + 2) == Some(var)
            && file.punct_at(k + 3, ')')
    })
}

fn canonical(name: String) -> String {
    for suffix in ALIAS_SUFFIXES {
        if let Some(stripped) = name.strip_suffix(suffix) {
            if !stripped.is_empty() {
                return stripped.to_string();
            }
        }
    }
    name
}

#[cfg(test)]
mod unit {
    use super::*;

    fn facts(src: &str) -> Vec<FnFacts> {
        let file = SourceFile::parse("crates/x/src/demo.rs".into(), src);
        let resolver = Resolver::build(std::slice::from_ref(&file));
        function_facts(&file, &resolver, 0)
    }

    #[test]
    fn let_bound_guard_spans_calls() {
        let f = facts("fn a() { let g = alpha.lock(); helper(); }");
        assert_eq!(f[0].acquires.len(), 1);
        assert_eq!(f[0].acquires[0].lock.to_string(), "alpha@demo");
        let call = f[0].calls.iter().find(|c| c.name == "helper").unwrap();
        assert_eq!(call.held.len(), 1);
    }

    #[test]
    fn temporary_guard_releases_at_statement_end() {
        let f = facts("fn a() { alpha.lock().poke(); helper(); }");
        let call = f[0].calls.iter().find(|c| c.name == "helper").unwrap();
        assert!(call.held.is_empty());
        let poke = f[0].calls.iter().find(|c| c.name == "poke").unwrap();
        assert_eq!(poke.held.len(), 1);
    }

    #[test]
    fn explicit_drop_ends_the_guard() {
        let f = facts("fn a() { let g = alpha.lock(); drop(g); beta.lock(); }");
        let beta = f[0]
            .acquires
            .iter()
            .find(|a| a.lock.name == "beta")
            .unwrap();
        assert!(beta.held.is_empty());
    }

    #[test]
    fn for_header_temporary_spans_the_body() {
        let f = facts("fn a() { for x in conns.lock().drain() { poke(x); } done(); }");
        let poke = f[0].calls.iter().find(|c| c.name == "poke").unwrap();
        assert_eq!(poke.held.len(), 1);
        let done = f[0].calls.iter().find(|c| c.name == "done").unwrap();
        assert!(done.held.is_empty());
    }

    #[test]
    fn receiver_names_skip_adapters_and_aliases() {
        let f = facts("fn a() { self.shards.get(i).expect(\"x\").lock(); conns_accept.lock(); }");
        assert_eq!(f[0].acquires[0].lock.name, "shards");
        assert_eq!(f[0].acquires[1].lock.name, "conns");
    }

    #[test]
    fn receiver_names_skip_fallible_adapters() {
        let f = facts(
            "fn a() -> Result<(), E> { self.shards.get(i).ok_or(E::Gone)?.lock(); \
             self.meta.as_ref().ok_or_else(|| E::Gone)?.lock(); Ok(()) }",
        );
        assert_eq!(f[0].acquires[0].lock.name, "shards");
        assert_eq!(f[0].acquires[1].lock.name, "meta");
    }

    #[test]
    fn io_read_with_args_is_not_an_acquisition() {
        let f = facts("fn a() { stream.read(&mut buf); state.read(); }");
        assert_eq!(f[0].acquires.len(), 1);
        assert_eq!(f[0].acquires[0].lock.name, "state");
    }

    #[test]
    fn join_blocking_requires_zero_args() {
        let f = facts("fn a() { parts.join(sep); handle.join(); }");
        let sites: Vec<_> = f[0].calls.iter().filter(|c| c.name == "join").collect();
        assert_eq!(blocking_call(sites[0]), None);
        assert_eq!(blocking_call(sites[1]), Some("join"));
    }
}
