//! Analysis configuration: which files to scan and how each pass scopes
//! itself. The binary always runs the repo default; fixture tests build
//! custom configs pointed at snippet directories.

use crate::passes::blocking;
use crate::passes::protocol::ProtocolCfg;
use std::path::PathBuf;

/// File scope of a path-scoped pass: the pass's own table of repo paths,
/// or every file (fixtures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    RepoDefault,
    AllFiles,
}

#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root the scan is relative to.
    pub root: PathBuf,
    /// File scope of the panic, taint-alloc and trust-boundary passes.
    pub scope: Scope,
    /// Function names treated as reactor callback entry points.
    pub reactor_entries: Vec<String>,
    /// Protocol-conformance configuration; `None` skips the pass.
    pub protocol: Option<ProtocolCfg>,
}

impl Config {
    /// The configuration used on this repository.
    pub fn repo_default(root: PathBuf) -> Config {
        Config {
            root,
            scope: Scope::RepoDefault,
            reactor_entries: blocking::default_entries(),
            protocol: Some(ProtocolCfg::repo_default()),
        }
    }

    /// Fixture configuration: every file is in scope for the per-file
    /// passes, the protocol pass is off unless the fixture provides files.
    pub fn fixture(root: PathBuf) -> Config {
        Config {
            root,
            scope: Scope::AllFiles,
            reactor_entries: blocking::default_entries(),
            protocol: None,
        }
    }
}
