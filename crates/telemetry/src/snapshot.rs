//! The reporting schema shared by every layer, with JSON and
//! Prometheus-text exporters.
//!
//! A [`Snapshot`] is a point-in-time merge of a [`crate::Registry`]: plain
//! data, serializable, comparable. The same [`HistogramSnapshot`] /
//! [`SummarySnapshot`] shapes are produced by the live schedulers'
//! telemetry and by the `ss_core::hwsim` measurement instruments, so experiment
//! artifacts and runtime metrics go through one schema.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One histogram bucket: `count` observations at or above `lower` (and
/// below the next bucket's `lower`). Empty buckets are omitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bucket {
    /// Inclusive lower bound of the bucket.
    pub lower: u64,
    /// Observations in the bucket.
    pub count: u64,
}

/// Point-in-time histogram state: exact count/sum/min/max plus the
/// occupied buckets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// Exact minimum (`None` when empty).
    pub min: Option<u64>,
    /// Exact maximum (`None` when empty).
    pub max: Option<u64>,
    /// Occupied buckets in ascending `lower` order.
    pub buckets: Vec<Bucket>,
}

impl HistogramSnapshot {
    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the lower bound of the
    /// bucket containing the q-th observation, clamped to `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for b in &self.buckets {
            seen += b.count;
            if seen >= target {
                let (lo, hi) = (self.min.unwrap_or(0), self.max.unwrap_or(u64::MAX));
                return Some(b.lower.clamp(lo, hi));
            }
        }
        self.max
    }

    /// Merges another snapshot into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let mut merged: Vec<Bucket> = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            let next = match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(a), Some(b)) if a.lower == b.lower => {
                    i += 1;
                    j += 1;
                    Bucket {
                        lower: a.lower,
                        count: a.count + b.count,
                    }
                }
                (Some(a), Some(b)) if a.lower < b.lower => {
                    i += 1;
                    *a
                }
                (Some(_), Some(b)) => {
                    j += 1;
                    *b
                }
                (Some(a), None) => {
                    i += 1;
                    *a
                }
                (None, Some(b)) => {
                    j += 1;
                    *b
                }
                (None, None) => unreachable!(),
            };
            merged.push(next);
        }
        self.buckets = merged;
    }
}

/// Point-in-time Welford summary (see [`crate::Summary`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SummarySnapshot {
    /// Number of observations.
    pub count: u64,
    /// Mean (`None` when empty).
    pub mean: Option<f64>,
    /// Sample standard deviation (`None` with fewer than two samples).
    pub std_dev: Option<f64>,
    /// Minimum (`None` when empty).
    pub min: Option<f64>,
    /// Maximum (`None` when empty).
    pub max: Option<f64>,
}

/// One metric's merged state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
    /// Welford summary state.
    Summary(SummarySnapshot),
}

/// A named, labeled metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    /// Metric name (`ss_<layer>_<quantity>_<unit>`).
    pub name: String,
    /// Label pairs (e.g. `("shard", "0")`).
    pub labels: Vec<(String, String)>,
    /// One-line help string.
    pub help: String,
    /// The merged value.
    pub value: MetricValue,
}

/// A point-in-time merge of a registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Snapshot {
    /// Every registered metric, in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }

    /// Pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Prometheus text exposition format (version 0.0.4). Histograms are
    /// rendered with cumulative `_bucket{le=...}` series using each log2
    /// bucket's exclusive upper bound, plus `_sum` and `_count`; summaries
    /// as `_count`/`_sum` with mean and stddev gauges.
    /// Tests-only: `tests/trace_lifecycle.rs` checks the Prometheus text export with it.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen_header: Vec<&str> = Vec::new();
        for m in &self.metrics {
            if !seen_header.contains(&m.name.as_str()) {
                seen_header.push(&m.name);
                if !m.help.is_empty() {
                    let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
                }
                let kind = match m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                    MetricValue::Summary(_) => "summary",
                };
                let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
            }
            let labels = render_labels(&m.labels, None);
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", m.name, labels, v);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", m.name, labels, v);
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for b in &h.buckets {
                        cumulative += b.count;
                        // Bucket [lower, next_lower): upper bound is the
                        // next power of two (lower*2), or 1 for the zero
                        // bucket.
                        let le = if b.lower == 0 {
                            1
                        } else {
                            b.lower.saturating_mul(2)
                        };
                        let le_labels = render_labels(&m.labels, Some(le.to_string()));
                        let _ = writeln!(out, "{}_bucket{} {}", m.name, le_labels, cumulative);
                    }
                    let inf_labels = render_labels(&m.labels, Some("+Inf".into()));
                    let _ = writeln!(out, "{}_bucket{} {}", m.name, inf_labels, h.count);
                    let _ = writeln!(out, "{}_sum{} {}", m.name, labels, h.sum);
                    let _ = writeln!(out, "{}_count{} {}", m.name, labels, h.count);
                }
                MetricValue::Summary(s) => {
                    let _ = writeln!(out, "{}_count{} {}", m.name, labels, s.count);
                    if let Some(mean) = s.mean {
                        let _ = writeln!(out, "{}_mean{} {}", m.name, labels, mean);
                    }
                    if let Some(sd) = s.std_dev {
                        let _ = writeln!(out, "{}_stddev{} {}", m.name, labels, sd);
                    }
                }
            }
        }
        out
    }
}

fn render_labels(labels: &[(String, String)], le: Option<String>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> HistogramSnapshot {
        let mut h = crate::metrics::LocalHistogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn quantile_within_bounds() {
        let h = hist(&[1, 2, 3, 100, 1000]);
        assert_eq!(h.quantile(0.0), Some(1));
        assert!(h.quantile(0.5).unwrap() <= 100);
        let top = h.quantile(1.0).unwrap();
        assert!((512..=1000).contains(&top), "top bucket floor, got {top}");
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let mut a = hist(&[1, 5, 5]);
        let b = hist(&[0, 5, 1 << 30]);
        let combined = hist(&[1, 5, 5, 0, 5, 1 << 30]);
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn merge_with_empty_keeps_self() {
        let mut a = hist(&[7, 9]);
        let before = a.clone();
        a.merge(&HistogramSnapshot::default());
        assert_eq!(a, before);
        let mut empty = HistogramSnapshot::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn json_roundtrip() {
        let snap = Snapshot {
            metrics: vec![
                MetricSnapshot {
                    name: "ss_fabric_decision_cycles_total".into(),
                    labels: vec![("shard".into(), "0".into())],
                    help: "decision cycles".into(),
                    value: MetricValue::Counter(42),
                },
                MetricSnapshot {
                    name: "ss_fabric_block_len".into(),
                    labels: vec![],
                    help: "block transaction length".into(),
                    value: MetricValue::Histogram(hist(&[4, 4, 8])),
                },
            ],
        };
        let json = snap.to_json();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert!(snap.to_json_pretty().contains("ss_fabric_block_len"));
    }

    #[test]
    fn prometheus_text_shape() {
        let snap = Snapshot {
            metrics: vec![
                MetricSnapshot {
                    name: "ss_test_total".into(),
                    labels: vec![("shard".into(), "1".into())],
                    help: "a counter".into(),
                    value: MetricValue::Counter(7),
                },
                MetricSnapshot {
                    name: "ss_test_latency".into(),
                    labels: vec![],
                    help: "a histogram".into(),
                    value: MetricValue::Histogram(hist(&[1, 2, 2])),
                },
            ],
        };
        let text = snap.to_prometheus();
        assert!(text.contains("# HELP ss_test_total a counter"));
        assert!(text.contains("# TYPE ss_test_total counter"));
        assert!(text.contains("ss_test_total{shard=\"1\"} 7"));
        // values 1 → bucket [1,2) le=2 count 1; 2,2 → [2,4) le=4 cum 3.
        assert!(text.contains("ss_test_latency_bucket{le=\"2\"} 1"));
        assert!(text.contains("ss_test_latency_bucket{le=\"4\"} 3"));
        assert!(text.contains("ss_test_latency_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("ss_test_latency_sum 5"));
        assert!(text.contains("ss_test_latency_count 3"));
    }
}
