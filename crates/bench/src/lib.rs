//! Shared plumbing for the experiment binaries (`src/bin/exp_*.rs`).
//!
//! Every experiment prints a human-readable table to stdout (paper value
//! next to measured value) and drops machine-readable artifacts into the
//! workspace `results/` directory: a JSON summary per experiment plus CSV
//! series for the figures.
//!
//! [`priorityq`] holds the related-work hardware priority queues that the
//! `priorityq_vs_shuffle` ablation bench measures against the shuffle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod priorityq;

use serde::Serialize;
use ss_core::hwsim::TimeSeries;
use std::fs;
use std::path::PathBuf;

/// The workspace `results/` directory (created on demand).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = <workspace>/crates/bench
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a JSON artifact `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(value).expect("serialize");
    fs::write(&path, body).expect("write json");
    println!("  → {}", path.display());
}

/// Writes one CSV series `results/<name>.csv`.
pub fn write_csv(name: &str, series: &TimeSeries) {
    let path = results_dir().join(format!("{name}.csv"));
    fs::write(&path, series.to_csv()).expect("write csv");
    println!("  → {}", path.display());
}

/// Writes several series as a wide CSV `results/<name>.csv` with a shared
/// x column taken from the first series (series must be equally sampled;
/// shorter series pad with blanks).
pub fn write_csv_multi(name: &str, x_label: &str, series: &[(&str, &TimeSeries)]) {
    use std::fmt::Write as _;
    let rows = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    let mut out = String::new();
    let _ = write!(out, "{x_label}");
    for (label, _) in series {
        let _ = write!(out, ",{label}");
    }
    let _ = writeln!(out);
    for r in 0..rows {
        let x = series
            .iter()
            .find_map(|(_, s)| s.points.get(r).map(|p| p.0))
            .unwrap_or_default();
        let _ = write!(out, "{x}");
        for (_, s) in series {
            match s.points.get(r) {
                Some((_, y)) => {
                    let _ = write!(out, ",{y}");
                }
                None => {
                    let _ = write!(out, ",");
                }
            }
        }
        let _ = writeln!(out);
    }
    let path = results_dir().join(format!("{name}.csv"));
    fs::write(&path, out).expect("write csv");
    println!("  → {}", path.display());
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Formats a large rate with thousands separators.
pub fn fmt_rate(v: f64) -> String {
    let v = v.round() as u64;
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_rate_groups_thousands() {
        assert_eq!(fmt_rate(7_600_000.0), "7,600,000");
        assert_eq!(fmt_rate(999.0), "999");
        assert_eq!(fmt_rate(1_000.4), "1,000");
    }

    #[test]
    fn results_dir_exists() {
        assert!(results_dir().is_dir());
    }

    #[test]
    fn multi_csv_pads_short_series() {
        let mut a = TimeSeries::new("t", "a");
        a.push(0.0, 1.0);
        a.push(1.0, 2.0);
        let mut b = TimeSeries::new("t", "b");
        b.push(0.0, 9.0);
        write_csv_multi("test_multi", "t", &[("a", &a), ("b", &b)]);
        let body = std::fs::read_to_string(results_dir().join("test_multi.csv")).unwrap();
        assert_eq!(body, "t,a,b\n0,1,9\n1,2,\n");
        let _ = std::fs::remove_file(results_dir().join("test_multi.csv"));
    }
}
