//! Where a bench leaves its numbers: `bench_results/<name>.json` at the
//! workspace root, tracked in git so a claim can cite the file that backs
//! it.

use std::path::Path;

/// Writes `rows` — each one a JSON object, already formatted — as the
/// array `bench_results/<name>.json`, and says where it went.
pub fn write(name: &str, rows: &[String]) {
    // `cargo bench` runs with the package as CWD; anchor to the workspace
    // root so the results land next to table3.json either way.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    std::fs::create_dir_all(&dir).expect("mkdir bench_results");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, format!("[\n{}\n]\n", rows.join(",\n"))).expect("write results");
    println!("wrote {}", path.display());
}
