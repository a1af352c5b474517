//! Shared plumbing for the `repro` harness and the criterion benches:
//! experiment-scale presets, text-table rendering, and CSV output.
//!
//! Every table and figure of the paper maps to one `repro` subcommand, one
//! module under `src/bin/repro/` (see its `main.rs` and EXPERIMENTS.md);
//! the criterion benches in
//! `benches/` cover the §4 overhead micro-numbers and the DESIGN.md
//! ablations.

use std::fmt::Write as _;

/// What every gated bench file's `main` does around its own numbers:
/// the argument filter, `KML_BENCH_SAMPLES`, the ceiling table and
/// `KML_BENCH_ENFORCE`.
pub mod gate {
    use criterion::Summary;

    /// Samples per benchmark: `KML_BENCH_SAMPLES` (trimmed for CI smoke
    /// runs), else `default` — the count the committed
    /// `BENCH_baseline.json` medians were taken at.
    pub fn samples(default: usize) -> usize {
        std::env::var("KML_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether a failed gate fails the run (`KML_BENCH_ENFORCE=0` opts out
    /// for exploratory runs on noisy machines).
    pub fn enforced() -> bool {
        std::env::var("KML_BENCH_ENFORCE").as_deref() != Ok("0")
    }

    /// The median of benchmark `id`, if this invocation ran it.
    pub fn median(summaries: &[Summary], id: &str) -> Option<f64> {
        summaries.iter().find(|s| s.id == id).map(|s| s.median_ns)
    }

    /// The `main` of a gated bench file. Runs `benches` under the
    /// command line's substring filter (a bare non-flag argument); prints
    /// one PASS / FAIL line per measurement against its median-ns ceiling
    /// in `ceilings`, when there are any; runs `extra`, which prints the
    /// file's own checks and returns whether one failed; and exits 1
    /// naming `what` if anything failed and gates are [`enforced`].
    pub fn run(
        benches: fn(Option<&str>),
        ceilings: &[(&str, f64)],
        extra: impl FnOnce(&[Summary]) -> bool,
        what: &str,
    ) {
        let filter = std::env::args().skip(1).rfind(|a| !a.starts_with('-'));
        benches(filter.as_deref());

        let summaries = criterion::summaries();
        let mut failed = false;
        if !ceilings.is_empty() {
            for s in &summaries {
                let ceiling = ceilings.iter().find(|(id, _)| s.id == *id).map(|&(_, c)| c);
                let pass = ceiling.is_none_or(|c| s.median_ns <= c);
                println!(
                    "{}: {} median {:.0} ns{}",
                    if pass { "PASS" } else { "FAIL" },
                    s.id,
                    s.median_ns,
                    ceiling
                        .map(|c| format!(", ceiling {c:.0} ns"))
                        .unwrap_or_default()
                );
                failed |= !pass;
            }
        }
        failed |= extra(&summaries);
        if failed && enforced() {
            eprintln!("{what} (KML_BENCH_ENFORCE=0 skips on noisy runners)");
            std::process::exit(1);
        }
    }
}

/// Renders a text table with a header row and aligned columns.
///
/// # Example
///
/// ```
/// let t = bench::render_table(
///     &["workload", "speedup"],
///     &[vec!["readrandom".into(), "1.65x".into()]],
/// );
/// assert!(t.contains("readrandom"));
/// assert!(t.contains("speedup"));
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in header.iter().enumerate() {
        let _ = write!(line, "{:<width$}  ", h, width = widths[i]);
    }
    out.push_str(line.trim_end());
    out.push('\n');
    let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate().take(cols) {
            let _ = write!(line, "{:<width$}  ", cell, width = widths[i]);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Serializes rows as CSV (no quoting — experiment output is numeric).
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = header.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Writes experiment output under `results/` (created on demand) and
/// returns the path written.
///
/// # Errors
///
/// Returns an I/O error if the directory or file cannot be written.
pub fn write_results(name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Geometric mean of a slice of ratios (used for summary rows).
///
/// Returns 0 for an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["xxxxxxx".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // The second column starts at the same offset in all rows.
        let col = lines[0].find("long-header").unwrap();
        assert_eq!(&lines[2][col..col + 1], "1");
        assert_eq!(&lines[3][col..col + 1], "2");
    }

    #[test]
    fn csv_round_trip_shape() {
        let csv = to_csv(
            &["x", "y"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert_eq!(csv, "x,y\n1,2\n3,4\n");
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }
}
