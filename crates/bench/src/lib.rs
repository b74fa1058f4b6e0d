//! Shared harness utilities for the figure-regeneration benches.
//!
//! Every `[[bench]]` target in this crate regenerates one of the paper's
//! figures or quantified claims. `crates/bench/Cargo.toml` lists the
//! targets, and a target's header names the claim it checks (most by
//! experiment number, E1, E2, …). Each prints the rows/series the paper
//! reports and writes a CSV under `target/paper_results/` for plotting.

use std::fs;
use std::path::PathBuf;

/// Where result CSVs are written.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn results_dir() -> PathBuf {
    // Anchor at the workspace root regardless of the bench's cwd.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("target/paper_results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a result file and reports its path on stdout.
///
/// # Panics
///
/// Panics on I/O errors — a bench without its output is a failed bench.
pub fn write_result(name: &str, content: &str) {
    let path = results_dir().join(name);
    fs::write(&path, content).expect("write result file");
    println!("  -> wrote {}", path.display());
}

/// Prints a bench header.
pub fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Formats a row of columns with fixed width for table output.
#[must_use]
pub fn row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Convenience: `f64` cell with 3 decimals.
#[must_use]
pub fn f(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_is_aligned() {
        let r = row(&[f(1.0), f(2.5)]);
        assert!(r.contains("1.000") && r.contains("2.500"));
        assert_eq!(r.len(), 29);
    }
}
