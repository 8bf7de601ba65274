//! Where a bench leaves its numbers: `bench_results/<name>.json` at the
//! workspace root, tracked in git so a claim can cite the file that backs
//! it.

use std::path::{Path, PathBuf};

/// `bench_results/` at the workspace root. `cargo bench` runs with the
/// package as CWD and `cargo run` with the caller's, so the path is
/// anchored to the manifest, not the working directory.
fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results")
}

/// Writes the JSON document `json` as `bench_results/<name>.json`, and
/// says where it went.
pub fn write(name: &str, json: &str) {
    let dir = dir();
    std::fs::create_dir_all(&dir).expect("mkdir bench_results");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json).expect("write results");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    /// Tests run with the package as CWD, as `cargo bench` does; the
    /// directory is still the workspace root's, whose results are tracked.
    #[test]
    fn results_land_at_the_workspace_root() {
        let dir = super::dir().canonicalize().unwrap();
        assert!(dir.join("table3.json").is_file(), "{}", dir.display());
        assert!(dir.parent().unwrap().join("Cargo.lock").is_file());
    }
}
