//! `ss-benchmark compare <a> <b>`: judges run set `b` against run set
//! `a` with the bounds fixed in `BENCHMARK.json`.
//!
//! A run set is the file `--out` appends to: one JSON object per line,
//! `{"workload", "seed", "trace", "result"}`. For every workload and
//! end-to-end metric the two sets' medians are compared:
//!
//! * `unresolved` — the quartile spread of either set is wider than the
//!   bound, so the bound cannot be applied — unless every run of `b`
//!   reads better than every run of `a`, which is `improved`;
//! * `regressed` — `b`'s median is worse than `a`'s by more than the
//!   bound, or `b` failed a larger share of its ops;
//! * `improved` — better by more than the bound;
//! * `unchanged` — within the bound.

use crate::stats::{summarize, Summary};
use serde_json::Value;

/// One end-to-end metric's regress bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// Share of `a`'s median by which `b` may be worse.
    pub bound: f64,
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Failed ÷ attempted ops.
    pub failed_share: f64,
    /// The metrics the run printed.
    pub metrics: Vec<(String, f64)>,
}

/// The judgement on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// Spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("end_to_end entry lacks {k}"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Reads a run-set file: one `--out` record per line; traced runs (which
/// carry no end-to-end metrics) are skipped.
pub fn parse_run_set(text: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        if doc.get("trace").and_then(Value::as_u64) == Some(1) {
            continue;
        }
        let result = doc.get("result").ok_or_else(|| bad("no result"))?;
        let count = |k: &str| result.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no metrics"))?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        records.push(Record {
            workload: doc
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("no workload"))?
                .to_string(),
            failed_share: count("failed") / count("attempted").max(1.0),
            metrics,
        });
    }
    Ok(records)
}

fn values(set: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

/// Judges `b` against `a` on one metric. Returns the verdict and `b`'s
/// change as a share of `a`'s median, positive when better.
pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> Option<(Verdict, f64)> {
    let (sa, sb): (Summary, Summary) = (summarize(a)?, summarize(b)?);
    let sign = if bound.higher_is_better { 1.0 } else { -1.0 };
    let gain = if sa.median == 0.0 {
        0.0
    } else {
        sign * (sb.median - sa.median) / sa.median.abs()
    };
    let better = |x: f64, y: f64| sign * (x - y) > 0.0;
    let verdict = if sa.spread().max(sb.spread()) > bound.bound {
        if b.iter().all(|&x| a.iter().all(|&y| better(x, y))) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if gain < -bound.bound {
        Verdict::Regressed
    } else if gain > bound.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Some((verdict, gain))
}

/// Compares two run sets; one row per workload (in `a`'s order) and the
/// number of regressed cells.
pub fn compare(bounds: &[Bound], a: &[Record], b: &[Record]) -> (String, usize) {
    use std::fmt::Write as _;
    let mut workloads: Vec<&str> = Vec::new();
    for r in a {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut out = String::new();
    let _ = write!(out, "{:<18}", "workload");
    for bound in bounds {
        let _ = write!(
            out,
            " {:<24}",
            format!("{} (±{}%)", bound.name, bound.bound * 100.0)
        );
    }
    let _ = writeln!(out, " failed_share");
    let mut regressed = 0;
    for w in workloads {
        let runs = |set: &[Record]| set.iter().filter(|r| r.workload == w).count();
        let _ = write!(out, "{:<18}", w);
        for bound in bounds {
            let cell = match judge(
                bound,
                &values(a, w, &bound.name),
                &values(b, w, &bound.name),
            ) {
                Some((v, gain)) => {
                    regressed += usize::from(v == Verdict::Regressed);
                    format!("{} ({:+.2}%)", v.name(), gain * 100.0)
                }
                None => "missing".to_string(),
            };
            let _ = write!(out, " {cell:<24}");
        }
        let worst = |set: &[Record]| {
            set.iter()
                .filter(|r| r.workload == w)
                .map(|r| r.failed_share)
                .fold(0.0, f64::max)
        };
        let (fa, fb) = (worst(a), worst(b));
        regressed += usize::from(fb > fa);
        let _ = writeln!(
            out,
            " {} ({fa} -> {fb})  [{} vs {} runs]",
            if fb > fa { "regressed" } else { "unchanged" },
            runs(a),
            runs(b)
        );
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better: higher,
            bound: b,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let rate = bound(true, 0.10);
        let v = |a: &[f64], b: &[f64]| judge(&rate, a, b).map(|(v, _)| v);
        assert_eq!(
            v(&[100.0, 101.0, 99.0], &[100.0, 102.0, 98.0]),
            Some(Verdict::Unchanged)
        );
        assert_eq!(
            v(&[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0]),
            Some(Verdict::Regressed)
        );
        assert_eq!(
            v(&[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Some(Verdict::Improved)
        );
        assert_eq!(v(&[], &[1.0]), None);
        // Lower-is-better flips the sign.
        let latency = bound(false, 0.05);
        let (verdict, gain) = judge(&latency, &[8.0], &[9.0]).expect("both sides have runs");
        assert_eq!(verdict, Verdict::Regressed);
        assert!((gain + 0.125).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let rate = bound(true, 0.10);
        let noisy = [80.0, 100.0, 120.0, 100.0];
        assert_eq!(
            judge(&rate, &noisy, &[90.0, 110.0, 95.0, 105.0]).map(|(v, _)| v),
            Some(Verdict::Unresolved)
        );
        assert_eq!(
            judge(&rate, &noisy, &[130.0, 150.0, 125.0, 140.0]).map(|(v, _)| v),
            Some(Verdict::Improved)
        );
    }

    #[test]
    fn run_sets_and_bounds_parse_and_compare() {
        let bounds = parse_bounds(
            r#"{"end_to_end":[{"name":"packets_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .expect("valid bounds");
        assert_eq!(bounds[0].bound, 0.1);
        assert!(bounds[0].higher_is_better);
        let line = |pps: f64, failed: u64, trace: u64| {
            format!(
                r#"{{"workload":"w","seed":1,"trace":{trace},"result":{{"correct":true,"attempted":10,"failed":{failed},"metrics":{{"packets_per_s":{{"value":{pps},"unit":"1/s"}}}}}}}}"#
            )
        };
        let a = parse_run_set(&format!("{}\n{}\n", line(100.0, 0, 0), line(1.0, 0, 1)))
            .expect("valid set");
        assert_eq!(a.len(), 1, "the traced run is skipped");
        let b = parse_run_set(&line(80.0, 1, 0)).expect("valid set");
        let (table, regressed) = compare(&bounds, &a, &b);
        assert_eq!(regressed, 2, "{table}");
        assert!(table.contains("regressed (-20.00%)"), "{table}");
        let (_, same) = compare(&bounds, &a, &a);
        assert_eq!(same, 0);
        assert!(parse_run_set("not json").is_err());
        assert!(parse_bounds("{}").is_err());
    }
}
