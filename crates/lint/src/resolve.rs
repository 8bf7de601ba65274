//! Workspace-wide call resolution: one canonical function table spanning
//! every crate, with `use`-import expansion, type-qualified paths, and
//! receiver-type inference from let bindings and struct fields.
//!
//! Function indices are canonical across the analyses: files in discovery
//! order, non-test definitions in source order. [`crate::facts`] and
//! [`crate::dataflow`] enumerate functions the same way, so one resolver
//! serves every pass.
//!
//! Resolution is deliberately name-based and over-approximate, but each
//! call form gets the most precise rule available:
//!
//! * `Type::method(…)` resolves through the workspace-wide owner table —
//!   `ShardedLog::open` finds the real constructor while `File::open`
//!   (no workspace `impl File`) stays opaque with no special case.
//! * `recv.method(…)` infers the receiver type from `let` annotations,
//!   constructor calls, struct literals, or (for `self.field.method(…)`)
//!   the owning struct's field declarations, then uses the owner table;
//!   unknown receivers fall back to same-crate name lookup.
//! * `path::to::f(…)` expands the head segment through the file's `use`
//!   imports, maps `distrust_<name>`/`crate`/`self`/`super` to a crate,
//!   and filters candidates by the module (file stem) when that helps.
//!   Paths into crates outside the workspace (`std::…`) resolve to
//!   nothing instead of unioning same-named local functions.
//! * Bare `f(…)` follows the file's imports (cross-crate when the import
//!   says so), else same-crate name lookup.
//!
//! `drop` and `shutdown` stay opaque everywhere (see [`crate::model`] for
//! why). `open` is opaque unless a workspace type owns it and the call
//! names that type explicitly or via an inferred receiver.

use crate::scan::{FnDef, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Qual {
    /// `name(…)` with no qualifier.
    Bare,
    /// `.name(…)` whose receiver type could not be inferred.
    Method,
    /// `.name(…)` on a receiver of the named type (incl. `self.name(…)`).
    Recv(String),
    /// `a::b::name(…)`: the path segments before the callee name.
    Path(Vec<String>),
}

/// Identity of one canonical function slot.
pub struct FnMeta {
    pub name: String,
    pub crate_name: String,
    pub file_idx: usize,
    /// File stem (`codec` for `crates/wire/src/codec.rs`): the module name
    /// used to narrow path-qualified lookups.
    pub stem: String,
    /// Type of the enclosing `impl` block, when the fn is a method.
    pub owner: Option<String>,
}

pub struct Resolver {
    metas: Vec<FnMeta>,
    /// (crate, fn name) → canonical indices.
    by_name: BTreeMap<(String, String), Vec<usize>>,
    /// (owner type, fn name) → canonical indices, workspace-wide.
    by_owner: BTreeMap<(String, String), Vec<usize>>,
    /// Crate directory names present in the scan (`wire`, `log`, …).
    crates: BTreeSet<String>,
    /// Per file: local name → full import path segments.
    imports: Vec<BTreeMap<String, Vec<String>>>,
    /// Crate → file stems, for recognizing intra-crate module paths.
    stems: BTreeMap<String, BTreeSet<String>>,
    /// Struct name → field → type head, merged across files.
    fields: BTreeMap<String, BTreeMap<String, String>>,
}

impl Resolver {
    pub fn build(files: &[SourceFile]) -> Resolver {
        let mut r = Resolver {
            metas: Vec::new(),
            by_name: BTreeMap::new(),
            by_owner: BTreeMap::new(),
            crates: BTreeSet::new(),
            imports: Vec::new(),
            stems: BTreeMap::new(),
            fields: BTreeMap::new(),
        };
        for (file_idx, file) in files.iter().enumerate() {
            let stem = file_stem(&file.path);
            r.crates.insert(file.crate_name.clone());
            r.imports.push(file.imports.clone());
            r.stems
                .entry(file.crate_name.clone())
                .or_default()
                .insert(stem.clone());
            for (name, fields) in &file.structs {
                r.fields
                    .entry(name.clone())
                    .or_default()
                    .extend(fields.clone());
            }
            for def in file.fns.iter().filter(|d| !d.in_test) {
                let i = r.metas.len();
                r.by_name
                    .entry((file.crate_name.clone(), def.name.clone()))
                    .or_default()
                    .push(i);
                if let Some(owner) = &def.owner {
                    r.by_owner
                        .entry((owner.clone(), def.name.clone()))
                        .or_default()
                        .push(i);
                }
                r.metas.push(FnMeta {
                    name: def.name.clone(),
                    crate_name: file.crate_name.clone(),
                    file_idx,
                    stem: stem.clone(),
                    owner: def.owner.clone(),
                });
            }
        }
        r
    }

    pub fn fn_count(&self) -> usize {
        self.metas.len()
    }

    /// True when the edge `caller → callee` crosses a crate boundary.
    pub fn cross_crate(&self, caller: usize, callee: usize) -> bool {
        self.metas[caller].crate_name != self.metas[callee].crate_name
    }

    /// Declared type of `owner.field`, when the struct declaration is in
    /// the scanned set.
    pub fn field_type(&self, owner: &str, field: &str) -> Option<&str> {
        self.fields.get(owner)?.get(field).map(String::as_str)
    }

    /// Callee candidates for the call `name` with qualifier `qual`, as
    /// seen from canonical function `caller`.
    pub fn targets(&self, caller: usize, name: &str, qual: &Qual) -> Vec<usize> {
        if name == "drop" || name == "shutdown" {
            return Vec::new();
        }
        let meta = &self.metas[caller];
        match qual {
            Qual::Recv(ty) => {
                let ty = if ty == "Self" {
                    match &meta.owner {
                        Some(o) => o.as_str(),
                        None => return Vec::new(),
                    }
                } else {
                    ty.as_str()
                };
                let owned = self.owned(ty, name);
                if !owned.is_empty() {
                    return owned;
                }
                if name == "open" {
                    return Vec::new();
                }
                self.named(&meta.crate_name, name, None)
            }
            Qual::Method | Qual::Bare if name == "open" => Vec::new(),
            Qual::Method => self.named(&meta.crate_name, name, None),
            Qual::Bare => match self.imports[meta.file_idx].get(name) {
                Some(path) => self.path_targets(meta, path.clone(), name),
                None => self.named(&meta.crate_name, name, None),
            },
            Qual::Path(segs) => {
                // Type-qualified: the segment before the fn name is a type.
                if let Some(last) = segs.last() {
                    if is_type_seg(last) {
                        let ty = if last == "Self" {
                            match &meta.owner {
                                Some(o) => o.as_str(),
                                None => return Vec::new(),
                            }
                        } else {
                            last.as_str()
                        };
                        return self.owned(ty, name);
                    }
                }
                // Module/crate path: expand the head through the file's
                // imports, then append the fn name as the final segment.
                let mut full = segs.clone();
                if let Some(head) = full.first() {
                    if let Some(exp) = self.imports[meta.file_idx].get(head) {
                        let mut e = exp.clone();
                        e.extend(full.drain(1..));
                        full = e;
                    }
                }
                full.push(name.to_string());
                self.path_targets(meta, full, name)
            }
        }
    }

    /// Resolution of a full path whose last segment is the fn name.
    fn path_targets(&self, meta: &FnMeta, full: Vec<String>, name: &str) -> Vec<usize> {
        // A type segment anywhere before the name wins (imports can expand
        // `Checkpoint` to `distrust_core::checkpoint::Checkpoint`).
        if full.len() >= 2 {
            let before = &full[full.len() - 2];
            if is_type_seg(before) {
                let ty = if before == "Self" {
                    match &meta.owner {
                        Some(o) => o.as_str(),
                        None => return Vec::new(),
                    }
                } else {
                    before.as_str()
                };
                return self.owned(ty, name);
            }
        }
        if name == "open" {
            return Vec::new();
        }
        let Some(head) = full.first() else {
            return Vec::new();
        };
        let target = if head == "crate" || head == "self" || head == "super" {
            Some(meta.crate_name.clone())
        } else if let Some(rest) = head.strip_prefix("distrust_") {
            self.crates.contains(rest).then(|| rest.to_string())
        } else if self.crates.contains(head.as_str()) {
            Some(head.clone())
        } else if self
            .stems
            .get(&meta.crate_name)
            .is_some_and(|s| s.contains(head.as_str()))
        {
            // Intra-crate module path: `codec::decode_seq(…)`.
            Some(meta.crate_name.clone())
        } else {
            None // std::…, external crates: opaque.
        };
        let Some(target) = target else {
            return Vec::new();
        };
        // The segment before the fn name narrows to one module when the
        // path spells one out.
        let hint = (full.len() >= 2)
            .then(|| full[full.len() - 2].as_str())
            .filter(|h| !matches!(*h, "crate" | "self" | "super") && !h.starts_with("distrust_"));
        self.named(&target, name, hint)
    }

    fn owned(&self, ty: &str, name: &str) -> Vec<usize> {
        self.by_owner
            .get(&(ty.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// Name lookup in one crate, narrowed to `hint`'s file stem when that
    /// leaves at least one candidate.
    fn named(&self, crate_name: &str, name: &str, hint: Option<&str>) -> Vec<usize> {
        let all = self
            .by_name
            .get(&(crate_name.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default();
        if let Some(hint) = hint {
            let narrowed: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| self.metas[i].stem == hint)
                .collect();
            if !narrowed.is_empty() {
                return narrowed;
            }
        }
        all
    }

    /// Classifies the call whose name sits at token `idx` of `file`,
    /// inside `def`'s body.
    pub fn qualifier_at(&self, file: &SourceFile, def: &FnDef, idx: usize) -> Qual {
        if idx > 0 && file.path_sep_at(idx - 1) {
            let mut segs = Vec::new();
            let mut k = idx as i64 - 2;
            while k >= 0 {
                if let Some(name) = file.ident_at(k as usize) {
                    segs.push(name.to_string());
                    if k >= 2 && file.path_sep_at(k as usize - 1) {
                        k -= 2;
                        continue;
                    }
                }
                break;
            }
            segs.reverse();
            return Qual::Path(segs);
        }
        if idx > 0 && file.punct_at(idx - 1, '.') {
            if idx > 1 && file.punct_at(idx - 2, '.') {
                return Qual::Bare; // range end: `0..f(…)`.
            }
            if idx < 2 {
                return Qual::Method;
            }
            let j = idx - 2;
            return match file.ident_at(j) {
                Some("self") => match &def.owner {
                    Some(o) => Qual::Recv(o.clone()),
                    None => Qual::Method,
                },
                Some(x) => {
                    if j >= 2 && file.punct_at(j - 1, '.') && file.ident_at(j - 2) == Some("self") {
                        // `self.field.name(…)`: field type from the owner
                        // struct's declaration.
                        def.owner
                            .as_deref()
                            .and_then(|o| self.field_type(o, x))
                            .map(|ty| Qual::Recv(ty.to_string()))
                            .unwrap_or(Qual::Method)
                    } else if let Some(ty) = def.locals.get(x) {
                        Qual::Recv(ty.clone())
                    } else {
                        Qual::Method
                    }
                }
                None => Qual::Method,
            };
        }
        Qual::Bare
    }
}

fn file_stem(path: &str) -> String {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
        .to_string()
}

fn is_type_seg(seg: &str) -> bool {
    seg.chars().next().is_some_and(|c| c.is_uppercase())
}

#[cfg(test)]
mod unit {
    use super::*;

    fn workspace(files: &[(&str, &str)]) -> Vec<SourceFile> {
        files
            .iter()
            .map(|(p, s)| SourceFile::parse(p.to_string(), s))
            .collect()
    }

    fn idx_of(r: &Resolver, name: &str, crate_name: &str) -> usize {
        (0..r.fn_count())
            .find(|&i| r.metas[i].name == name && r.metas[i].crate_name == crate_name)
            .unwrap()
    }

    #[test]
    fn imported_bare_calls_cross_crates() {
        let files = workspace(&[
            (
                "crates/wire/src/codec.rs",
                "pub fn decode_seq(input: &mut &[u8]) {}",
            ),
            (
                "crates/log/src/store.rs",
                "use distrust_wire::codec::decode_seq;\n\
                 fn load(input: &mut &[u8]) { decode_seq(input); }",
            ),
        ]);
        let r = Resolver::build(&files);
        let caller = idx_of(&r, "load", "log");
        let callee = idx_of(&r, "decode_seq", "wire");
        assert_eq!(r.targets(caller, "decode_seq", &Qual::Bare), vec![callee]);
        assert!(r.cross_crate(caller, callee));
    }

    #[test]
    fn module_paths_resolve_and_std_paths_stay_opaque() {
        let files = workspace(&[
            ("crates/wire/src/codec.rs", "pub fn decode_seq() {}"),
            (
                "crates/wire/src/rpc.rs",
                "fn pump() { codec::decode_seq(); std::thread::sleep(d); \
                 distrust_wire::codec::decode_seq(); }",
            ),
        ]);
        let r = Resolver::build(&files);
        let caller = idx_of(&r, "pump", "wire");
        let callee = idx_of(&r, "decode_seq", "wire");
        let module = Qual::Path(vec!["codec".into()]);
        assert_eq!(r.targets(caller, "decode_seq", &module), vec![callee]);
        let full = Qual::Path(vec!["distrust_wire".into(), "codec".into()]);
        assert_eq!(r.targets(caller, "decode_seq", &full), vec![callee]);
        let std_path = Qual::Path(vec!["std".into(), "thread".into()]);
        assert!(r.targets(caller, "sleep", &std_path).is_empty());
    }

    #[test]
    fn type_qualified_open_resolves_but_file_open_stays_opaque() {
        let files = workspace(&[
            (
                "crates/log/src/sharded.rs",
                "impl ShardedLog { pub fn open(p: &Path) -> ShardedLog { todo!() } }",
            ),
            (
                "crates/log/src/boot.rs",
                "fn boot() { let l = ShardedLog::open(p); let f = File::open(p); open(); }",
            ),
        ]);
        let r = Resolver::build(&files);
        let caller = idx_of(&r, "boot", "log");
        let ctor = idx_of(&r, "open", "log");
        let typed = Qual::Path(vec!["ShardedLog".into()]);
        assert_eq!(r.targets(caller, "open", &typed), vec![ctor]);
        let file_ty = Qual::Path(vec!["File".into()]);
        assert!(r.targets(caller, "open", &file_ty).is_empty());
        assert!(r.targets(caller, "open", &Qual::Bare).is_empty());
        assert!(r.targets(caller, "open", &Qual::Method).is_empty());
    }

    #[test]
    fn inferred_receivers_use_the_owner_table() {
        let files = workspace(&[
            (
                "crates/log/src/store.rs",
                "struct Store { inner: Inner }\n\
                 impl Store { fn append(&self) {} fn reopen(&self) { self.helper(); } \
                 fn helper(&self) {} }\n\
                 impl Inner { fn append(&self) {} }",
            ),
            (
                "crates/core/src/server.rs",
                "struct Server { store: Store }\n\
                 impl Server {\n fn push(&self) { let s = Store::new(); s.append(); \
                 self.store.append(); }\n}",
            ),
        ]);
        let r = Resolver::build(&files);
        let caller = idx_of(&r, "push", "core");
        let append = idx_of(&r, "append", "log");
        // `let s = Store::new(); s.append()` → locals say Store.
        let recv = Qual::Recv("Store".into());
        assert_eq!(r.targets(caller, "append", &recv), vec![append]);
        // `self.helper()` resolves via the enclosing impl's owner.
        let reopen = idx_of(&r, "reopen", "log");
        let helper = idx_of(&r, "helper", "log");
        let own = Qual::Recv("Store".into());
        assert_eq!(r.targets(reopen, "helper", &own), vec![helper]);
        // Unknown receivers fall back to same-crate name lookup.
        let local_push = r.targets(caller, "push", &Qual::Method);
        assert_eq!(local_push, vec![caller]);
    }

    #[test]
    fn qualifiers_classify_call_shapes() {
        let files = workspace(&[(
            "crates/core/src/server.rs",
            "struct Server { store: Store }\n\
             impl Server {\n fn go(&self) { let s: Store = make();\n \
             s.append(); self.store.append(); self.tick(); x.poke(); \
             wire::codec::decode_seq(input); plain(); }\n}",
        )]);
        let r = Resolver::build(&files);
        let file = &files[0];
        let def = file.fns.iter().find(|d| d.name == "go").unwrap();
        let at = |name: &str| {
            (0..file.tokens.len())
                .find(|&k| file.ident_at(k) == Some(name) && file.punct_at(k + 1, '('))
                .unwrap()
        };
        let appends: Vec<usize> = (0..file.tokens.len())
            .filter(|&k| file.ident_at(k) == Some("append"))
            .collect();
        assert_eq!(
            r.qualifier_at(file, def, appends[0]),
            Qual::Recv("Store".into())
        );
        assert_eq!(
            r.qualifier_at(file, def, appends[1]),
            Qual::Recv("Store".into())
        );
        assert_eq!(
            r.qualifier_at(file, def, at("tick")),
            Qual::Recv("Server".into())
        );
        assert_eq!(r.qualifier_at(file, def, at("poke")), Qual::Method);
        assert_eq!(
            r.qualifier_at(file, def, at("decode_seq")),
            Qual::Path(vec!["wire".into(), "codec".into()])
        );
        assert_eq!(r.qualifier_at(file, def, at("plain")), Qual::Bare);
    }
}
