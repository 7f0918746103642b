//! Order statistics for benchmark samples.
//!
//! Two containers: a sorted sample set for the few dozen per-slice rates
//! of a run, and a fixed-memory log-linear histogram for the millions of
//! per-op latencies (0.1 % bucket width — `ss_hwsim::Histogram` is 6 %,
//! too coarse for a median gated at 5 %). Both use the nearest-rank
//! definition, and both refuse a tail percentile that has fewer than
//! [`MIN_BEYOND`] samples beyond it: such a number is one outlier, not a
//! percentile.

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND: u64 = 10;

/// Nearest-rank index of percentile `p` (0 < p ≤ 1) among `n` samples.
fn rank(n: u64, p: f64) -> u64 {
    ((p * n as f64).ceil() as u64).clamp(1, n)
}

/// `true` when percentile `p` of `n` samples has [`MIN_BEYOND`] samples
/// beyond it.
pub fn tail_supported(n: u64, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// Median and quartiles of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: u64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Sorts `samples` and returns the nearest-rank percentile `p`; `None`
/// for an empty set.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len() as u64;
    (n > 0).then(|| samples[(rank(n, p) - 1) as usize])
}

/// Like [`percentile`], but refuses (returns `None`) a percentile with
/// fewer than [`MIN_BEYOND`] samples beyond it.
pub fn tail(samples: &mut [f64], p: f64) -> Option<f64> {
    tail_supported(samples.len() as u64, p)
        .then(|| percentile(samples, p))
        .flatten()
}

/// Median and quartiles by nearest rank; `None` for an empty set.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut s = samples.to_vec();
    Some(Summary {
        n: s.len() as u64,
        q1: percentile(&mut s, 0.25)?,
        median: percentile(&mut s, 0.5)?,
        q3: percentile(&mut s, 0.75)?,
    })
}

const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

/// Log-linear histogram of nanosecond durations: exact below 1024 ns,
/// 1024 linear sub-buckets per power of two above (bucket width ≤ 0.1 %
/// of the value). Fixed size, so recording never allocates and the
/// process's peak memory does not depend on how many ops a run fits in.
#[derive(Debug, Clone)]
pub struct Hist {
    buckets: Vec<u32>,
    count: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// An empty histogram covering 1 ns to 2³⁶ ns (68 s).
    pub fn new() -> Self {
        Self {
            buckets: vec![0; ((36 - SUB_BITS + 1) as usize) << SUB_BITS],
            count: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let mag = 63 - ns.leading_zeros();
        let sub = (ns >> (mag - SUB_BITS)) & (SUB - 1);
        (((mag - SUB_BITS + 1) as u64 * SUB) + sub) as usize
    }

    /// Midpoint of bucket `idx`, in ns.
    fn value(idx: usize) -> f64 {
        let (row, sub) = ((idx as u64) >> SUB_BITS, (idx as u64) & (SUB - 1));
        if row == 0 {
            return sub as f64;
        }
        let width = 1u64 << (row - 1);
        ((SUB + sub) * width) as f64 + (width - 1) as f64 / 2.0
    }

    /// Records one duration (saturating at the top bucket).
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let i = Self::index(ns).min(self.buckets.len() - 1);
        self.buckets[i] = self.buckets[i].saturating_add(1);
        self.count += 1;
    }

    /// Adds `other`'s samples to this histogram and empties `other`.
    pub fn absorb(&mut self, other: &mut Hist) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&mut other.buckets) {
            *mine = mine.saturating_add(std::mem::take(theirs));
        }
        self.count += std::mem::take(&mut other.count);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile `p` in ns; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = rank(self.count, p);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += u64::from(c);
            if seen >= target {
                return Some(Self::value(i));
            }
        }
        None
    }

    /// Like [`Hist::percentile`], but refuses (returns `None`) a
    /// percentile with fewer than [`MIN_BEYOND`] samples beyond it.
    pub fn tail(&self, p: f64) -> Option<f64> {
        tail_supported(self.count, p)
            .then(|| self.percentile(p))
            .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_sets() {
        let mut v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut v, 0.5), Some(3.0));
        assert_eq!(percentile(&mut v, 0.2), Some(1.0));
        assert_eq!(percentile(&mut v, 1.0), Some(5.0));
        assert_eq!(percentile(&mut [], 0.5), None);
        // Even count: nearest rank takes the lower middle.
        assert_eq!(percentile(&mut [1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
    }

    #[test]
    fn summary_reports_quartiles_and_spread() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&v).expect("non-empty");
        assert_eq!((s.n, s.q1, s.median, s.q3), (40, 10.0, 20.0, 30.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!tail_supported(999, 0.99)); // rank 990, 9 beyond
        assert!(tail_supported(1000, 0.99)); // rank 990, 10 beyond
        assert!(tail_supported(40, 0.5));
        assert!(!tail_supported(0, 0.5));
        let mut v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&mut v, 0.99), None);
        v.push(999.0);
        assert_eq!(tail(&mut v, 0.99), Some(989.0));
        let mut h = Hist::new();
        for i in 0..999 {
            h.record(i);
        }
        assert_eq!(h.tail(0.99), None);
        h.record(999);
        assert_eq!(h.tail(0.99), Some(989.0));
    }

    #[test]
    fn hist_is_exact_below_1024_and_tight_above() {
        let mut h = Hist::new();
        assert_eq!(h.percentile(0.5), None);
        for ns in [7u64, 7, 7, 900, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.percentile(0.5), Some(7.0));
        assert_eq!(h.percentile(0.8), Some(900.0));
        let mut sum = Hist::new();
        sum.record(3);
        sum.absorb(&mut h.clone());
        assert_eq!((sum.count(), sum.percentile(0.5)), (6, Some(7.0)));
        let top = h.percentile(1.0).expect("non-empty");
        assert!((top - 1_000_000.0).abs() / 1_000_000.0 < 0.001, "{top}");
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn hist_buckets_are_monotone_and_cover_their_values() {
        let mut last = 0usize;
        for ns in (0..40_000u64).chain([1 << 20, (1 << 30) + 12_345, (1 << 36) - 1]) {
            let i = Hist::index(ns);
            assert!(i >= last, "index monotone at {ns}");
            last = i;
            let mid = Hist::value(i);
            assert!((mid - ns as f64).abs() <= (ns as f64 / 1024.0).max(0.5));
        }
        // Out-of-range durations saturate instead of indexing past the end.
        let mut h = Hist::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
    }
}
