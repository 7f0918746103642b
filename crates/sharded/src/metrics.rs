//! The frontend's own merge metrics behind the `telemetry` cargo feature,
//! in the [`ss_core::telem::FabricTelemetry`] idiom: per-shard winner
//! counters, an idle-cycle counter and the merge-latency histogram with the
//! feature **on** (detached until [`MergeMetrics::attach`]); a zero-sized
//! type with inlined empty hooks with it **off**. Handles are `Arc`-backed,
//! so the struct moves with the frontend into the threaded runtime.

#[cfg(feature = "telemetry")]
mod enabled {
    use ss_telemetry::{Counter, Histogram, Registry};
    use std::time::Instant;

    #[derive(Debug)]
    struct Attached {
        shard_wins: Vec<Counter>,
        idle_cycles: Counter,
        merge_latency: Histogram,
    }

    /// Merge instrumentation (`telemetry` feature on).
    #[derive(Debug, Default)]
    pub(crate) struct MergeMetrics {
        inner: Option<Attached>,
    }

    /// When a timed merge began; `None` while detached, so the detached
    /// hot path never reads the clock.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct MergeTimer(Option<Instant>);

    impl MergeMetrics {
        /// Detached: hooks are cheap branches until [`MergeMetrics::attach`].
        pub(crate) fn new() -> Self {
            Self::default()
        }

        /// Registers the frontend's series for `shards` shards.
        pub(crate) fn attach(&mut self, registry: &Registry, shards: usize) {
            let shard_wins = (0..shards)
                .map(|k| {
                    let s = k.to_string();
                    registry.counter_labeled(
                        "ss_sharded_shard_wins_total",
                        &[("shard", &s)],
                        "Global decision cycles won by this shard's proposal",
                    )
                })
                .collect();
            self.inner = Some(Attached {
                shard_wins,
                idle_cycles: registry.counter(
                    "ss_sharded_idle_cycles_total",
                    "Global decision cycles in which every shard was idle",
                ),
                merge_latency: registry.histogram(
                    "ss_sharded_merge_latency_ns",
                    "Nanoseconds spent in the cross-shard winner merge",
                ),
            });
        }

        /// Jain's fairness index over per-shard wins, once attached.
        pub(crate) fn fairness(&self) -> Option<f64> {
            self.inner.as_ref().map(|a| {
                let wins: Vec<u64> = a.shard_wins.iter().map(Counter::value).collect();
                ss_telemetry::jain_fairness(&wins)
            })
        }

        /// Hook: a merge is about to start.
        #[inline]
        pub(crate) fn start(&self) -> MergeTimer {
            MergeTimer(self.inner.as_ref().map(|_| Instant::now()))
        }

        /// Hook: the merge that began at `started` is done and the shards
        /// in `winners` were served (none = an idle cycle).
        #[inline]
        pub(crate) fn record_merge(
            &self,
            started: MergeTimer,
            winners: impl IntoIterator<Item = usize>,
        ) {
            let (Some(t0), Some(a)) = (started.0, &self.inner) else {
                return;
            };
            a.merge_latency.record(t0.elapsed().as_nanos() as u64);
            let mut idle = true;
            for k in winners {
                a.shard_wins[k].inc();
                idle = false;
            }
            if idle {
                a.idle_cycles.inc();
            }
        }
    }
}

#[cfg(not(feature = "telemetry"))]
mod disabled {
    /// Zero-sized stand-in compiled when the `telemetry` feature is off.
    #[derive(Debug)]
    pub(crate) struct MergeMetrics;

    /// Zero-sized stand-in: no clock is read.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct MergeTimer;

    impl MergeMetrics {
        /// The zero-sized stand-in (mirrors the enabled constructor).
        pub(crate) fn new() -> Self {
            Self
        }

        /// Hook: merge start (no-op).
        #[inline(always)]
        pub(crate) fn start(&self) -> MergeTimer {
            MergeTimer
        }

        /// Hook: merge done (no-op).
        #[inline(always)]
        pub(crate) fn record_merge(
            &self,
            _started: MergeTimer,
            _winners: impl IntoIterator<Item = usize>,
        ) {
        }
    }
}

#[cfg(not(feature = "telemetry"))]
pub(crate) use disabled::MergeMetrics;
#[cfg(feature = "telemetry")]
pub(crate) use enabled::MergeMetrics;
