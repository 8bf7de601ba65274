//! Whole-workspace model: every function's facts plus the cross-crate
//! call graph, lock summaries, and may-block summaries derived from them.
//!
//! Calls resolve through the analysis's one [`crate::resolve::Resolver`],
//! which follows `use` imports and type qualifiers across crate seams;
//! each call site keeps its callees, so the fixpoints below never resolve
//! a name twice. A few names are
//! deliberately opaque everywhere: `drop`, because an explicit
//! `drop(guard)` would otherwise union every `Drop` impl in the
//! workspace; `shutdown`, because `TcpStream::shutdown` on a served
//! socket would otherwise union every server's teardown method (which
//! joins accept threads — teardown runs in owner contexts, never on a
//! serving path). `open` is opaque only when the callee type is
//! unknown: `ShardedLog::open` (or `store.open()` on an inferred
//! receiver) resolves to the real constructor, while `File::open` and
//! bare `open(…)` stay inert.

use crate::facts::{blocking_call, function_facts, FnFacts, LockId};
use crate::resolve::Resolver;
use crate::scan::SourceFile;
use std::collections::BTreeSet;

pub struct Model {
    pub fns: Vec<FnFacts>,
    /// Per function: all locks acquired directly or via resolved calls.
    locks: Vec<BTreeSet<LockId>>,
    /// Per function: a sample description of a reachable blocking call,
    /// if any (`"sleep at crates/wire/src/reactor.rs:345"`).
    may_block: Vec<Option<String>>,
    /// Resolved call edges, and how many of them cross a crate boundary.
    pub call_edges: usize,
    pub cross_crate_edges: usize,
    /// Fixpoint sweeps performed by the lock and may-block summaries.
    pub fixpoint_iters: usize,
}

impl Model {
    /// A model over `files` with a resolver of its own, for a caller that
    /// runs no other analysis over them.
    pub fn build(files: &[SourceFile]) -> Model {
        Model::new(files, &Resolver::build(files))
    }

    /// A model over `files`, resolving calls through `resolver`, which
    /// must have been built over the same files.
    pub fn new(files: &[SourceFile], resolver: &Resolver) -> Model {
        let mut fns: Vec<FnFacts> = Vec::with_capacity(resolver.fn_count());
        for file in files {
            let facts = function_facts(file, resolver, fns.len());
            fns.extend(facts);
        }
        debug_assert_eq!(fns.len(), resolver.fn_count());
        let mut model = Model {
            locks: vec![BTreeSet::new(); fns.len()],
            may_block: vec![None; fns.len()],
            fns,
            call_edges: 0,
            cross_crate_edges: 0,
            fixpoint_iters: 0,
        };
        model.count_edges(resolver);
        model.compute_locks();
        model.compute_may_block();
        model
    }

    pub fn locks_of(&self, idx: usize) -> &BTreeSet<LockId> {
        &self.locks[idx]
    }

    pub fn may_block(&self, idx: usize) -> Option<&str> {
        self.may_block[idx].as_deref()
    }

    fn count_edges(&mut self, resolver: &Resolver) {
        for i in 0..self.fns.len() {
            for call in &self.fns[i].calls {
                for &j in &call.callees {
                    self.call_edges += 1;
                    if resolver.cross_crate(i, j) {
                        self.cross_crate_edges += 1;
                    }
                }
            }
        }
    }

    fn compute_locks(&mut self) {
        for (i, f) in self.fns.iter().enumerate() {
            for a in &f.acquires {
                self.locks[i].insert(a.lock.clone());
            }
        }
        // Fixpoint over resolved call edges.
        let mut changed = true;
        while changed {
            changed = false;
            self.fixpoint_iters += 1;
            for i in 0..self.fns.len() {
                let mut add: Vec<LockId> = Vec::new();
                for call in &self.fns[i].calls {
                    for &j in &call.callees {
                        for l in &self.locks[j] {
                            if !self.locks[i].contains(l) {
                                add.push(l.clone());
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    changed = true;
                    self.locks[i].extend(add);
                }
            }
        }
    }

    fn compute_may_block(&mut self) {
        for (i, f) in self.fns.iter().enumerate() {
            for call in &f.calls {
                if let Some(kind) = blocking_call(call) {
                    self.may_block[i] = Some(format!("{kind} at {}:{}", f.file, call.line));
                    break;
                }
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            self.fixpoint_iters += 1;
            for i in 0..self.fns.len() {
                if self.may_block[i].is_some() {
                    continue;
                }
                let mut found: Option<String> = None;
                for call in &self.fns[i].calls {
                    for &j in &call.callees {
                        if let Some(desc) = &self.may_block[j] {
                            found = Some(format!("{} -> {}", call.name, desc));
                            break;
                        }
                    }
                    if found.is_some() {
                        break;
                    }
                }
                if found.is_some() {
                    self.may_block[i] = found;
                    changed = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::scan::SourceFile;

    fn model(src: &str) -> Model {
        let file = SourceFile::parse("crates/x/src/demo.rs".into(), src);
        Model::build(std::slice::from_ref(&file))
    }

    #[test]
    fn lock_summaries_propagate_through_calls() {
        let m = model("fn outer() { inner(); } fn inner() { alpha.lock(); }");
        let outer = m.fns.iter().position(|f| f.name == "outer").unwrap();
        assert_eq!(m.locks_of(outer).len(), 1);
    }

    #[test]
    fn may_block_propagates_but_not_through_timeouts() {
        let m = model(
            "fn a() { b(); } fn b() { std::thread::sleep(d); } \
             fn c() { intake.recv_timeout(d); }",
        );
        let a = m.fns.iter().position(|f| f.name == "a").unwrap();
        let c = m.fns.iter().position(|f| f.name == "c").unwrap();
        assert!(m.may_block(a).is_some());
        assert!(m.may_block(c).is_none());
    }

    #[test]
    fn drop_is_opaque() {
        let m = model("fn a() { drop(g); } fn drop() { std::thread::sleep(d); }");
        let a = m.fns.iter().position(|f| f.name == "a").unwrap();
        assert!(m.may_block(a).is_none());
    }

    #[test]
    fn file_open_is_opaque_but_typed_open_resolves() {
        // `File::open` must not union a crate's `open` constructors; a
        // workspace type's `open` resolves through the owner table.
        let m = model(
            "fn writer() { let f = File::open(p); } \
             impl ShardedLog { fn open() -> ShardedLog { alpha.lock(); \
             std::thread::sleep(d); loop {} } } \
             fn booter() { let l = ShardedLog::open(); }",
        );
        let w = m.fns.iter().position(|f| f.name == "writer").unwrap();
        assert!(m.locks_of(w).is_empty());
        assert!(m.may_block(w).is_none());
        let b = m.fns.iter().position(|f| f.name == "booter").unwrap();
        assert_eq!(m.locks_of(b).len(), 1);
        assert!(m.may_block(b).is_some());
    }

    #[test]
    fn cross_crate_edges_are_counted() {
        let a = SourceFile::parse(
            "crates/wire/src/codec.rs".into(),
            "pub fn decode_seq() { alpha.lock(); }",
        );
        let b = SourceFile::parse(
            "crates/log/src/store.rs".into(),
            "use distrust_wire::codec::decode_seq;\nfn load() { decode_seq(); }",
        );
        let m = Model::build(&[a, b]);
        assert_eq!(m.call_edges, 1);
        assert_eq!(m.cross_crate_edges, 1);
        let load = m.fns.iter().position(|f| f.name == "load").unwrap();
        assert_eq!(m.locks_of(load).len(), 1);
    }
}
