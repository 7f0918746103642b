//! The lock-free metric registry: counters, gauges, log2 histograms.
//!
//! Hot-path recording is a handful of `Relaxed` atomic read-modify-writes
//! on a *stripe* owned (statistically) by the recording thread: each thread
//! picks one of [`STRIPES`] cache-line-padded cells on first use and keeps
//! it for life, so concurrent recorders on different threads never contend
//! on a cache line. A [`Registry::snapshot`] sums the stripes — merging the
//! per-thread shards is the snapshot's job, never the hot path's.
//!
//! Registration (name → handle) takes a mutex, but only at attach time:
//! the returned [`Counter`]/[`Gauge`]/[`Histogram`] handles are `Arc`s
//! whose updates never touch the registry again.

use crate::snapshot::{Bucket, HistogramSnapshot, MetricSnapshot, MetricValue, Snapshot};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of per-thread stripes per metric. A power of two; 8 covers the
/// worker counts this workspace spawns (K ≤ 8 shards plus a merger).
pub const STRIPES: usize = 8;

/// Pads a value to its own 128-byte cache-line pair (matches the SPSC
/// ring's padding; covers x86_64 prefetch pairing and aarch64 lines).
#[repr(align(128))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe index, assigned round-robin on first use.
    /// Const-initialized: the first access allocates nothing.
    static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

#[inline]
fn stripe() -> usize {
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
            s.set(v);
            v
        }
    })
}

// --- Counter ---

#[derive(Debug, Default)]
struct CounterCells {
    cells: [CachePadded<AtomicU64>; STRIPES],
}

/// A monotonic counter. Cloning shares the underlying cells.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cells: Arc<CounterCells>,
}

impl Counter {
    /// A free-standing counter (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to this thread's stripe.
    // lint:hot-path
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells.cells[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    // lint:hot-path
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Merged value across all stripes.
    pub fn value(&self) -> u64 {
        self.cells
            .cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

// --- Gauge ---

/// A last-write-wins instantaneous value (signed). `set` cannot be merged
/// across stripes, so a gauge is one padded atomic; `add`/`sub` are
/// read-modify-writes on it.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<CachePadded<AtomicI64>>,
}

impl Gauge {
    /// A free-standing gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    // lint:hot-path
    #[inline]
    pub fn add(&self, n: i64) {
        self.cell.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water-mark use).
    #[inline]
    pub fn fetch_max(&self, v: i64) {
        self.cell.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.cell.0.load(Ordering::Relaxed)
    }
}

// --- Histogram ---

/// Bucket count for the log2 layout: bucket 0 holds exactly the value 0,
/// bucket `i ≥ 1` holds `[2^(i-1), 2^i)`. 65 buckets cover all of `u64`.
pub(crate) const BUCKETS: usize = 65;

/// The log2 bucket index of `value`.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `idx`.
#[inline]
pub(crate) fn bucket_lower(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        1u64 << (idx - 1)
    }
}

#[derive(Debug)]
struct HistStripe {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistStripe {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

#[derive(Debug, Default)]
struct HistCells {
    stripes: [CachePadded<HistStripe>; STRIPES],
}

/// A log2-bucketed histogram with exact count/sum/min/max, striped like
/// [`Counter`]. Cloning shares the cells.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Histogram {
    /// A free-standing histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    // lint:hot-path
    #[inline]
    pub fn record(&self, value: u64) {
        let s = &self.cells.stripes[stripe()].0;
        s.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(value, Ordering::Relaxed);
        s.min.fetch_min(value, Ordering::Relaxed);
        s.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Folds a [`LocalHistogram`]'s contents into this histogram in one
    /// pass — the flush half of a record-locally/flush-periodically
    /// pattern. All adds land in the calling thread's stripe with relaxed
    /// ordering, like [`Histogram::record`].
    pub fn merge_local(&self, local: &LocalHistogram) {
        if local.count == 0 {
            return;
        }
        let s = &self.cells.stripes[stripe()].0;
        for (i, &c) in local.buckets.iter().enumerate() {
            if c > 0 {
                s.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        s.count.fetch_add(local.count, Ordering::Relaxed);
        s.sum.fetch_add(local.sum, Ordering::Relaxed);
        s.min.fetch_min(local.min, Ordering::Relaxed);
        s.max.fetch_max(local.max, Ordering::Relaxed);
    }

    /// Folds the growth of a *cumulative* [`LocalHistogram`] since
    /// `base` (its state at the previous flush) into this histogram.
    /// Counts and sums add the difference; min/max take the cumulative
    /// values, which is sound because a cumulative min/max is monotone.
    /// Lets a hot path that already maintains a cumulative local
    /// histogram skip a second per-observation delta record.
    pub fn merge_cumulative_since(&self, cur: &LocalHistogram, base: &LocalHistogram) {
        if cur.count == base.count {
            return;
        }
        let s = &self.cells.stripes[stripe()].0;
        for (i, (&c, &b)) in cur.buckets.iter().zip(base.buckets.iter()).enumerate() {
            if c > b {
                s.buckets[i].fetch_add(c - b, Ordering::Relaxed);
            }
        }
        s.count.fetch_add(cur.count - base.count, Ordering::Relaxed);
        s.sum
            .fetch_add(cur.sum.saturating_sub(base.sum), Ordering::Relaxed);
        s.min.fetch_min(cur.min, Ordering::Relaxed);
        s.max.fetch_max(cur.max, Ordering::Relaxed);
    }

    /// Merged snapshot across all stripes.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = LocalHistogram::new();
        for stripe in &self.cells.stripes {
            let s = &stripe.0;
            for (i, b) in s.buckets.iter().enumerate() {
                merged.buckets[i] += b.load(Ordering::Relaxed);
            }
            merged.count += s.count.load(Ordering::Relaxed);
            merged.sum = merged.sum.saturating_add(s.sum.load(Ordering::Relaxed));
            merged.min = merged.min.min(s.min.load(Ordering::Relaxed));
            merged.max = merged.max.max(s.max.load(Ordering::Relaxed));
        }
        merged.snapshot()
    }
}

/// A single-owner (non-atomic) log2 histogram with the same bucket layout
/// as [`Histogram`] — for recorders embedded in single-threaded hot paths
/// (e.g. per-slot winner-selection latency inside one fabric).
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation. Never allocates.
    // lint:hot-path
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Resets to empty — for delta accumulators that periodically drain
    /// into a shared [`Histogram`] via [`Histogram::merge_local`].
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// Folds `other` into this histogram. Never allocates.
    pub fn merge(&mut self, other: &LocalHistogram) {
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The snapshot (allocates; call off the hot path).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Bucket {
                lower: bucket_lower(i),
                count: c,
            })
            .collect();
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: (self.count > 0).then_some(self.min),
            max: (self.count > 0).then_some(self.max),
            buckets,
        }
    }
}

// --- Registry ---

#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    handle: Handle,
}

/// The metric registry. Cloning shares the registry; handles returned by
/// the `counter`/`gauge`/`histogram` constructors never re-enter the
/// registry lock on the hot path.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: Arc<Mutex<Vec<Entry>>>,
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut entries = self.entries.lock().expect("registry poisoned");
        let labels = owned_labels(labels);
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return e.handle.clone();
        }
        let handle = make();
        entries.push(Entry {
            name: name.to_string(),
            labels,
            help: help.to_string(),
            handle: handle.clone(),
        });
        handle
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_labeled(name, &[], help)
    }

    /// Registers (or retrieves) a labeled counter. Re-registering the same
    /// `(name, labels)` pair returns the existing handle.
    ///
    /// # Panics
    /// Panics if the pair is already registered as a different metric kind.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.get_or_insert(name, labels, help, || Handle::Counter(Counter::new())) {
            Handle::Counter(c) => c,
            other => panic!("{name} already registered as {}", kind_name(&other)),
        }
    }

    /// Registers (or retrieves) an unlabeled gauge.
    /// Tests-only: `FaultInjector::publish` writes gauges with it for `tests/chaos.rs`.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_labeled(name, &[], help)
    }

    /// Registers (or retrieves) a labeled gauge.
    ///
    /// # Panics
    /// Panics if the pair is already registered as a different metric kind.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.get_or_insert(name, labels, help, || Handle::Gauge(Gauge::new())) {
            Handle::Gauge(g) => g,
            other => panic!("{name} already registered as {}", kind_name(&other)),
        }
    }

    /// Registers (or retrieves) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_labeled(name, &[], help)
    }

    /// Registers (or retrieves) a labeled histogram.
    ///
    /// # Panics
    /// Panics if the pair is already registered as a different metric kind.
    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        match self.get_or_insert(name, labels, help, || Handle::Histogram(Histogram::new())) {
            Handle::Histogram(h) => h,
            other => panic!("{name} already registered as {}", kind_name(&other)),
        }
    }

    /// Merges every metric's per-thread stripes into one [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().expect("registry poisoned");
        Snapshot {
            metrics: entries
                .iter()
                .map(|e| MetricSnapshot {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    help: e.help.clone(),
                    value: match &e.handle {
                        Handle::Counter(c) => MetricValue::Counter(c.value()),
                        Handle::Gauge(g) => MetricValue::Gauge(g.value()),
                        Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

fn kind_name(h: &Handle) -> &'static str {
    match h {
        Handle::Counter(_) => "counter",
        Handle::Gauge(_) => "gauge",
        Handle::Histogram(_) => "histogram",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_merges_stripes() {
        let c = Counter::new();
        c.add(3);
        c.inc();
        assert_eq!(c.value(), 4);
        let c2 = c.clone();
        c2.add(6);
        assert_eq!(c.value(), 10, "clone shares cells");
    }

    #[test]
    fn gauge_set_add_max() {
        let g = Gauge::new();
        g.set(5);
        g.add(-2);
        assert_eq!(g.value(), 3);
        g.fetch_max(10);
        g.fetch_max(7);
        assert_eq!(g.value(), 10);
    }

    #[test]
    fn bucket_boundaries_exact() {
        // Bucket 0 is exactly {0}; bucket i ≥ 1 is [2^(i-1), 2^i).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i, "lower bound of {i}");
            if i >= 1 {
                // The value just below the lower bound falls one bucket down.
                assert_eq!(bucket_index(bucket_lower(i) - 1), i - 1);
            }
        }
    }

    #[test]
    fn histogram_snapshot_exact_stats() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.min, Some(0));
        assert_eq!(s.max, Some(1000));
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 1000 → [512,1024).
        let by_lower: Vec<(u64, u64)> = s.buckets.iter().map(|b| (b.lower, b.count)).collect();
        assert_eq!(by_lower, vec![(0, 1), (1, 1), (2, 2), (512, 1)]);
    }

    #[test]
    fn empty_histogram_snapshot() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert!(s.buckets.is_empty());
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn local_histogram_matches_striped() {
        let atomic = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in [5u64, 17, 17, 0, 1 << 40] {
            atomic.record(v);
            local.record(v);
        }
        assert_eq!(atomic.snapshot(), local.snapshot());
    }

    #[test]
    fn merge_local_equals_direct_records() {
        let direct = Histogram::new();
        let merged = Histogram::new();
        let mut acc = LocalHistogram::new();
        for v in [0u64, 3, 3, 900, 1 << 33] {
            direct.record(v);
            acc.record(v);
        }
        merged.merge_local(&acc);
        assert_eq!(merged.snapshot(), direct.snapshot());
        acc.clear();
        assert_eq!(acc.count(), 0);
        merged.merge_local(&acc);
        assert_eq!(
            merged.snapshot(),
            direct.snapshot(),
            "empty merge is a no-op"
        );
        // A second non-empty flush accumulates.
        acc.record(7);
        direct.record(7);
        merged.merge_local(&acc);
        assert_eq!(merged.snapshot(), direct.snapshot());
    }

    #[test]
    fn merge_cumulative_since_equals_direct_records() {
        let direct = Histogram::new();
        let merged = Histogram::new();
        let mut cumulative = LocalHistogram::new();
        let mut base = LocalHistogram::new();
        // Two flush rounds over a growing cumulative histogram: the
        // registry must end up identical to recording every value once.
        for round in [&[1u64, 1, 40, 2_000][..], &[0, 40, 1 << 20][..]] {
            for &v in round {
                direct.record(v);
                cumulative.record(v);
            }
            merged.merge_cumulative_since(&cumulative, &base);
            base = cumulative.clone();
        }
        assert_eq!(merged.snapshot(), direct.snapshot());
        // An unchanged cumulative histogram flushes nothing.
        merged.merge_cumulative_since(&cumulative, &base);
        assert_eq!(merged.snapshot(), direct.snapshot());
    }

    #[test]
    fn registry_dedups_and_snapshots() {
        let r = Registry::new();
        let a = r.counter("ss_test_total", "a test counter");
        let b = r.counter("ss_test_total", "a test counter");
        a.add(2);
        b.add(3);
        let labeled = r.counter_labeled("ss_test_total", &[("shard", "1")], "per-shard");
        labeled.inc();
        r.gauge("ss_test_gauge", "g").set(-7);
        r.histogram("ss_test_hist", "h").record(9);
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 4, "dedup kept one unlabeled counter");
        assert_eq!(snap.metrics[0].value, MetricValue::Counter(5));
        assert_eq!(snap.metrics[1].labels, vec![("shard".into(), "1".into())]);
        assert_eq!(snap.metrics[1].value, MetricValue::Counter(1));
        assert_eq!(snap.metrics[2].value, MetricValue::Gauge(-7));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("ss_test_total", "");
        r.gauge("ss_test_total", "");
    }

    #[test]
    fn concurrent_recording_sums_exactly() {
        let c = Counter::new();
        let h = Histogram::new();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 80_000);
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.min, Some(0));
        assert_eq!(s.max, Some(79_999));
    }

    proptest! {
        /// Per-thread recording merged on snapshot equals one serial
        /// recorder fed the same observations — the striped shards lose
        /// nothing and double-count nothing.
        #[test]
        fn merged_thread_shards_equal_serial(
            per_thread in proptest::collection::vec(
                proptest::collection::vec(0u64..1u64 << 48, 0..64), 1..6)
        ) {
            let striped = Histogram::new();
            let shared_counter = Counter::new();
            let handles: Vec<_> = per_thread
                .iter()
                .cloned()
                .map(|values| {
                    let h = striped.clone();
                    let c = shared_counter.clone();
                    std::thread::spawn(move || {
                        for v in values {
                            h.record(v);
                            c.add(v & 0xff);
                        }
                    })
                })
                .collect();
            for t in handles {
                t.join().unwrap();
            }
            let mut serial = LocalHistogram::new();
            let mut serial_count = 0u64;
            for values in &per_thread {
                for &v in values {
                    serial.record(v);
                    serial_count += v & 0xff;
                }
            }
            prop_assert_eq!(striped.snapshot(), serial.snapshot());
            prop_assert_eq!(shared_counter.value(), serial_count);
        }

        /// Bucket index is monotone and the floor stays within a power of
        /// two of the value.
        #[test]
        fn bucket_index_monotone(a in any::<u64>(), b in any::<u64>()) {
            prop_assume!(a <= b);
            prop_assert!(bucket_index(a) <= bucket_index(b));
        }

        #[test]
        fn bucket_floor_within_2x(v in 1u64..u64::MAX) {
            let lower = bucket_lower(bucket_index(v));
            prop_assert!(lower <= v);
            prop_assert!(v / 2 < lower || v < 2, "floor {lower} too far below {v}");
        }
    }
}
