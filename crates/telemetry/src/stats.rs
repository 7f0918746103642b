//! Streaming statistics shared across the workspace.
//!
//! [`Summary`] is the workspace's one Welford accumulator: the simulated
//! Transmission Engine's delay-jitter and the runtime telemetry report
//! through it, as both report distributions through
//! [`LocalHistogram`](crate::LocalHistogram), so simulated measurements
//! and runtime metrics share one schema.

use crate::snapshot::SummarySnapshot;
use serde::{Deserialize, Serialize};

/// Streaming mean/variance accumulator (Welford's algorithm): exact mean
/// and unbiased standard deviation without storing samples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Sample standard deviation (`None` with fewer than two samples).
    pub fn std_dev(&self) -> Option<f64> {
        (self.count > 1).then(|| (self.m2 / (self.count - 1) as f64).sqrt())
    }

    /// Minimum (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Point-in-time state in the shared reporting schema.
    pub fn snapshot(&self) -> SummarySnapshot {
        SummarySnapshot {
            count: self.count,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: self.min(),
            max: self.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_two_pass_computation() {
        let samples = [3.0f64, 7.0, 7.0, 19.0, 24.0, 1.5];
        let mut s = Summary::new();
        for &v in &samples {
            s.record(v);
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!((s.mean().unwrap() - mean).abs() < 1e-12);
        assert!((s.std_dev().unwrap() - var.sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.5));
        assert_eq!(s.max(), Some(24.0));
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn empty_and_single_sample_edge_cases() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.std_dev(), None);
        assert_eq!(s.min(), None);
        s.record(5.0);
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.std_dev(), None, "need two samples for std dev");
    }

    #[test]
    fn constant_stream_has_zero_deviation() {
        let mut s = Summary::new();
        for _ in 0..1000 {
            s.record(42.0);
        }
        assert!(s.std_dev().unwrap().abs() < 1e-12);
    }

    #[test]
    fn snapshot_mirrors_accessors() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0] {
            s.record(v);
        }
        let snap = s.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.mean, s.mean());
        assert_eq!(snap.std_dev, s.std_dev());
        assert_eq!(snap.min, Some(1.0));
        assert_eq!(snap.max, Some(3.0));
    }
}
