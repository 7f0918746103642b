//! The paper's evaluation as a library: every experiment
//! ([`experiments`]), each with its rows of the paper's anchors
//! ([`anchors()`] is the whole table), and the plumbing the `exp` binary
//! writes `results/` with.
//!
//! Every experiment prints its rows to stdout as a table ([`print_rows`])
//! and drops the same rows into the workspace `results/` directory: a JSON
//! summary per experiment plus CSV series for the figures.
//!
//! [`priorityq`] holds the related-work hardware priority queues that
//! `exp priority_queues` prices against the shuffle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anchors;
pub mod experiments;
pub mod priorityq;

pub use anchors::{anchor, anchors, Anchor, Tolerance};
pub use experiments::{Experiment, Runs, EXPERIMENTS};

use serde::Serialize;
use serde_json::Value;
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

/// Writes several series as a wide CSV `results/<name>.csv` with a shared
/// x column taken from the first series (series must be equally sampled;
/// shorter series pad with blanks).
pub fn write_csv_multi(name: &str, x_label: &str, series: &[(&str, &TimeSeries)]) {
    let rows = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    let labels: Vec<&str> = series.iter().map(|(label, _)| *label).collect();
    let mut out = format!("{x_label},{}\n", labels.join(","));
    for r in 0..rows {
        let point = |s: &TimeSeries| s.points.get(r).copied();
        let x = series
            .iter()
            .find_map(|(_, s)| point(s))
            .map_or(0.0, |p| p.0);
        let ys: Vec<String> = series
            .iter()
            .map(|(_, s)| point(s).map_or(String::new(), |p| p.1.to_string()))
            .collect();
        out += &format!("{x},{}\n", ys.join(","));
    }
    let path = results_dir().join(format!("{name}.csv"));
    fs::write(&path, out).expect("write csv");
    println!("  → {}", path.display());
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Prints rows — what a JSON artifact holds — as an aligned table, one
/// column per field in declaration order. A single object prints as one
/// row; nested rows print as `field=value` lists. Numbers align right,
/// text left.
pub fn print_rows<T: Serialize + ?Sized>(rows: &T) {
    let rows = match serde_json::to_value(rows).expect("result rows serialize") {
        Value::Array(rows) => rows,
        one => vec![one],
    };
    let fields = |row: &Value| row.as_object().cloned().unwrap_or_default();
    let first = rows.first().map(fields).unwrap_or_default();
    let text: Vec<bool> = first.iter().map(|(_, v)| !is_number(v)).collect();
    let header = first.into_iter().map(|(k, _)| k).collect();
    let cells = rows
        .iter()
        .map(|r| fields(r).iter().map(|(_, v)| cell(v)).collect());
    let lines: Vec<Vec<String>> = std::iter::once(header).chain(cells).collect();
    let width = |c: usize| lines.iter().map(|l| l[c].chars().count()).max();
    let widths: Vec<usize> = (0..text.len()).map(|c| width(c).unwrap_or(0)).collect();
    for line in &lines {
        let cells = line.iter().zip(&widths).zip(&text);
        let padded: Vec<String> = cells
            .map(|((v, &w), &left)| match left {
                true => format!("{v:<w$}"),
                false => format!("{v:>w$}"),
            })
            .collect();
        println!("  {}", padded.join("  ").trim_end());
    }
}

fn is_number(value: &Value) -> bool {
    matches!(value, Value::F64(_) | Value::U64(_) | Value::I64(_))
}

fn cell(value: &Value) -> String {
    match value {
        Value::F64(x) if x.abs() >= 1e4 => fmt_rate(*x),
        Value::F64(x) => format!("{x:.2}"),
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::String(s) => s.clone(),
        Value::Null => "-".into(),
        Value::Array(items) => items.iter().map(cell).collect::<Vec<_>>().join("; "),
        Value::Object(fields) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k}={}", cell(v)))
                .collect();
            pairs.join(" ")
        }
    }
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
