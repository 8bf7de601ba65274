//! Analysis configuration: which files to scan and how each pass scopes
//! itself. The binary always runs the repo default; fixture tests build
//! custom configs pointed at snippet directories.

use std::path::PathBuf;

/// File scope of the path-scoped passes: the repo's path table
/// ([`REPO_PATHS`]), or every file (fixtures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    RepoDefault,
    AllFiles,
}

/// Which functions of a file the `panic` pass checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cover {
    /// Every non-test function.
    Full,
    /// Only decode-path functions.
    Decode,
    /// Only host-import bodies.
    HostImports,
    /// Not a server path; skip.
    Skip,
}

/// What the path-scoped passes check of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    pub panic: Cover,
    pub taint_alloc: bool,
    pub trust_boundary: bool,
}

const fn row(panic: Cover, taint_alloc: bool, trust_boundary: bool) -> Coverage {
    Coverage {
        panic,
        taint_alloc,
        trust_boundary,
    }
}

/// The repo's one path table: a file or directory prefix, and what the
/// path-scoped passes check under it. The first matching row wins; a path
/// no row matches is in no pass's scope. `panic` covers the server paths
/// whole, the log's decoders and the host side of the sandbox boundary;
/// `taint-alloc` the decode surface; `trust-boundary` the client and log
/// state a domain's answer could change.
pub const REPO_PATHS: [(&str, Coverage); 11] = [
    ("crates/wire/src/", row(Cover::Full, true, false)),
    ("crates/tee/src/", row(Cover::Full, true, true)),
    ("crates/gossip/src/", row(Cover::Full, true, false)),
    ("crates/core/src/server.rs", row(Cover::Full, true, true)),
    ("crates/core/src/framework.rs", row(Cover::Full, true, true)),
    ("crates/core/src/protocol.rs", row(Cover::Full, true, true)),
    ("crates/core/src/witness.rs", row(Cover::Full, true, true)),
    (
        "crates/core/src/abi.rs",
        row(Cover::HostImports, true, true),
    ),
    ("crates/core/src/", row(Cover::Skip, true, true)),
    ("crates/log/src/", row(Cover::Decode, true, true)),
    ("crates/apps/src/", row(Cover::HostImports, false, false)),
];

impl Scope {
    /// What the path-scoped passes check of the file at `path`.
    pub fn covers(self, path: &str) -> Coverage {
        match self {
            Scope::AllFiles => row(Cover::Full, true, true),
            Scope::RepoDefault => REPO_PATHS
                .iter()
                .find(|(prefix, _)| path.starts_with(prefix))
                .map_or(row(Cover::Skip, false, false), |&(_, coverage)| coverage),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root the scan is relative to.
    pub root: PathBuf,
    /// File scope of the panic, taint-alloc and trust-boundary passes.
    pub scope: Scope,
}

impl Config {
    /// The configuration used on this repository.
    pub fn repo_default(root: PathBuf) -> Config {
        Config {
            root,
            scope: Scope::RepoDefault,
        }
    }

    /// Fixture configuration: every file is in scope for the per-file
    /// passes.
    pub fn fixture(root: PathBuf) -> Config {
        Config {
            root,
            scope: Scope::AllFiles,
        }
    }
}
