//! Measurement instruments backing the experiment figures.
//!
//! * [`RateMeter`] — bins byte/packet counts into fixed time windows and
//!   yields a bandwidth-over-time series (Figure 8/10 allocations).
//! * [`TimeSeries`] — ordered (x, y) samples with CSV export, the common
//!   output format of the `exp` binary's experiments.
//!
//! Histograms and the Welford summary are `ss-telemetry`'s
//! (`LocalHistogram`, `Summary`), so simulated measurements and runtime
//! metrics report through one schema.

use serde::{Deserialize, Serialize};
use ss_types::Nanos;

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

#[cfg(test)]
mod tests {
    use super::*;

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
