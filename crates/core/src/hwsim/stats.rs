//! Measurement instruments backing the experiment figures.
//!
//! * [`Histogram`] — log-linear latency/delay histogram with exact count,
//!   mean, and percentile queries (Figure 9 queuing delays).
//! * [`RateMeter`] — bins byte/packet counts into fixed time windows and
//!   yields a bandwidth-over-time series (Figure 8/10 allocations).
//! * [`TimeSeries`] — ordered (x, y) samples with CSV export, the common
//!   output format of the `exp` binary's experiments.
//! * [`Summary`] — Welford mean/variance accumulator, re-exported from
//!   `ss-telemetry` (the canonical home since the telemetry crate landed).

use serde::{Deserialize, Serialize};
use ss_types::Nanos;

/// A histogram with 64 power-of-two magnitude buckets, each split into 16
/// linear sub-buckets (HDR-histogram style, ~6% relative error), plus exact
/// running count/sum/min/max.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUB_BUCKET_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; 64 * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let magnitude = 63 - value.leading_zeros(); // >= SUB_BUCKET_BITS
        let sub = (value >> (magnitude - SUB_BUCKET_BITS)) as usize & (SUB_BUCKETS - 1);
        ((magnitude - SUB_BUCKET_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Lower bound of the bucket at `idx` (the value reported for
    /// percentiles falling in that bucket).
    fn bucket_floor(idx: usize) -> u64 {
        let magnitude = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if magnitude == 0 {
            sub
        } else {
            (SUB_BUCKETS as u64 + sub) << (magnitude - 1)
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Exact minimum, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exports the histogram in the workspace-wide telemetry schema:
    /// occupied buckets keyed by their floor value (strictly ascending, by
    /// construction of `bucket_floor`), so hwsim measurement artifacts and
    /// live scheduler metrics serialize identically.
    pub fn snapshot(&self) -> ss_telemetry::HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(idx, &count)| ss_telemetry::Bucket {
                lower: Self::bucket_floor(idx),
                count,
            })
            .collect();
        ss_telemetry::HistogramSnapshot {
            count: self.count,
            sum: u64::try_from(self.sum).unwrap_or(u64::MAX),
            min: (self.count > 0).then_some(self.min),
            max: (self.count > 0).then_some(self.max),
            buckets,
        }
    }

    /// Approximate `q`-quantile (`0.0..=1.0`); resolution ~6%.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::bucket_floor(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

/// Bins event magnitudes (bytes, packets) into fixed-width time windows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateMeter {
    window_ns: Nanos,
    bins: Vec<u64>,
}

impl RateMeter {
    /// Creates a meter with `window_ns`-wide bins.
    ///
    /// # Panics
    /// Panics if `window_ns == 0`.
    pub fn new(window_ns: Nanos) -> Self {
        assert!(window_ns > 0, "rate meter window must be positive");
        Self {
            window_ns,
            bins: Vec::new(),
        }
    }

    /// Records `amount` units at simulated time `at`.
    pub fn record(&mut self, at: Nanos, amount: u64) {
        let bin = (at / self.window_ns) as usize;
        if bin >= self.bins.len() {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += amount;
    }

    /// Total across all bins.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Per-window rates in units/second, as a time series with window
    /// midpoints (in seconds) on the x axis.
    pub fn rates_per_sec(&self) -> TimeSeries {
        let mut ts = TimeSeries::new("t_sec", "rate_per_sec");
        for (i, &amount) in self.bins.iter().enumerate() {
            let mid_s = ((i as f64) + 0.5) * (self.window_ns as f64) / 1e9;
            let rate = amount as f64 * 1e9 / self.window_ns as f64;
            ts.push(mid_s, rate);
        }
        ts
    }

    /// Mean rate over the observed span, units/second (0 when empty).
    pub fn mean_rate_per_sec(&self) -> f64 {
        if self.bins.is_empty() {
            return 0.0;
        }
        let span_s = (self.bins.len() as f64) * (self.window_ns as f64) / 1e9;
        self.total() as f64 / span_s
    }
}

/// Ordered (x, y) samples with CSV export.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    /// x-axis label for CSV output.
    pub x_label: String,
    /// y-axis label for CSV output.
    pub y_label: String,
    /// The samples, in insertion order.
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with axis labels.
    pub fn new(x_label: impl Into<String>, y_label: impl Into<String>) -> Self {
        Self {
            x_label: x_label.into(),
            y_label: y_label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The Welford mean/variance accumulator, re-exported from the telemetry
/// crate so the whole workspace shares one summary-statistics schema. It
/// originated here; `ss-telemetry` is now the canonical home (its
/// [`Summary::snapshot`] feeds the exporter pipeline).
pub use ss_telemetry::Summary;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_exact_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 22.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_median_of_uniform() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let med = h.quantile(0.5).unwrap();
        // ~6% relative resolution around 500.
        assert!((450..=550).contains(&med), "median {med} out of range");
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(7);
        }
        assert_eq!(h.quantile(0.5), Some(7));
        assert_eq!(h.quantile(1.0), Some(7));
    }

    proptest! {
        /// Quantile results always lie within [min, max], and the bucket
        /// index function is monotone.
        #[test]
        fn histogram_quantile_bounded(values in proptest::collection::vec(0u64..1u64<<40, 1..200), q in 0.0f64..1.0) {
            let mut h = Histogram::new();
            for &v in &values { h.record(v); }
            let quant = h.quantile(q).unwrap();
            prop_assert!(quant >= h.min().unwrap());
            prop_assert!(quant <= h.max().unwrap());
        }

        #[test]
        fn histogram_index_monotone(a in any::<u64>(), b in any::<u64>()) {
            prop_assume!(a <= b);
            prop_assert!(Histogram::index_of(a) <= Histogram::index_of(b));
        }

        /// bucket_floor(index_of(v)) <= v, and within ~6.25% of v.
        #[test]
        fn histogram_bucket_floor_close(v in 0u64..1u64<<50) {
            let floor = Histogram::bucket_floor(Histogram::index_of(v));
            prop_assert!(floor <= v);
            prop_assert!(v - floor <= v / 16 + 1);
        }
    }

    #[test]
    fn snapshot_round_trips_through_telemetry_schema() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 110);
        assert_eq!(snap.min, Some(1));
        assert_eq!(snap.max, Some(100));
        assert_eq!(snap.buckets.iter().map(|b| b.count).sum::<u64>(), 5);
        // Strictly ascending floors, each at or below its observation.
        for pair in snap.buckets.windows(2) {
            assert!(pair[0].lower < pair[1].lower);
        }
        // Quantiles agree between the live histogram and its snapshot —
        // both report the floor of the bucket holding the q-th sample.
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(h.quantile(q), snap.quantile(q), "q={q}");
        }
        assert_eq!(Histogram::new().snapshot(), Default::default());
    }

    #[test]
    fn rate_meter_bins_and_rates() {
        // 1 ms windows; 1000 bytes at t=0.5ms and 3000 at t=1.5ms.
        let mut m = RateMeter::new(1_000_000);
        m.record(500_000, 1000);
        m.record(1_500_000, 3000);
        assert_eq!(m.total(), 4000);
        let ts = m.rates_per_sec();
        assert_eq!(ts.len(), 2);
        // 1000 bytes / 1 ms = 1e9 bytes/sec... no: 1000 * 1e9/1e6 = 1e6 B/s.
        assert!((ts.points[0].1 - 1e6).abs() < 1.0);
        assert!((ts.points[1].1 - 3e6).abs() < 1.0);
    }

    #[test]
    fn rate_meter_mean_rate() {
        let mut m = RateMeter::new(1_000_000_000); // 1 s windows
        m.record(0, 10);
        m.record(1_999_999_999, 30);
        assert!((m.mean_rate_per_sec() - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rate_meter_zero_window() {
        RateMeter::new(0);
    }

    #[test]
    fn time_series_keeps_insertion_order() {
        let mut ts = TimeSeries::new("t", "v");
        assert!(ts.is_empty());
        ts.push(0.5, 2.0);
        ts.push(1.5, 4.0);
        assert_eq!(ts.points, [(0.5, 2.0), (1.5, 4.0)]);
    }
}
