//! The seeded fault injector and its recovery-accounting counters.
//!
//! One [`FaultInjector`] is shared (via `Arc`) by every instrumented layer
//! — PCI transfer paths, the banked-SRAM arbitration, SPSC rings, fabric
//! decision cycles, shard workers — or owned outright by one simulated
//! node. Each [`FaultSite`] owns an independent SplitMix64 stream derived
//! from the run seed, advanced by one add per draw, so:
//!
//! * the schedule is **deterministic**: the k-th query at a site yields the
//!   same verdict for the same seed regardless of how other sites
//!   interleave, and regardless of which receiver drew it;
//! * sampling is **cheap and lock-free**: one add plus a mixer — an atomic
//!   `fetch_add` through `&self` ([`FaultInjector::sample`]), a plain add
//!   through `&mut self` ([`FaultInjector::sample_mut`]) — and no shared
//!   mutable state beyond the per-site counter cells;
//! * the injected schedule is **self-accounting**: every `Some(fault)`
//!   increments the per-site injected counter in [`FaultStats`], and the
//!   recovery machinery reports its side (detected / retried / recovered /
//!   failed-over) into the same struct — the chaos soak closes the loop by
//!   asserting the two sides reconcile.

use crate::rng::{mix, GOLDEN_GAMMA};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultSite {
    /// A PCI PIO/DMA transfer between the Stream processor and the card.
    PciTransfer,
    /// An SRAM bank-ownership handover (the §5.2 bottleneck path).
    SramHandover,
    /// A word access against an owned SRAM bank.
    SramAccess,
    /// An SPSC ring enqueue (producer→scheduler or scheduler→transmitter).
    SpscRing,
    /// One fabric decision cycle (the SCHEDULE↔PRIORITY_UPDATE loop).
    DecisionCycle,
    /// A whole scheduler shard (worker thread or card partition).
    Shard,
    /// The overload-plane admission point: a sampled fault models a
    /// transient offered-load spike (extra arrivals beyond the schedule)
    /// slamming into the token buckets.
    Admission,
    /// A socket operation at the network ingress edge: accepts, reads and
    /// writes on client connections, and the frames they carry.
    Socket,
}

/// Number of distinct [`FaultSite`]s (stream / counter array size).
pub const SITE_COUNT: usize = 8;

impl FaultSite {
    /// Dense index for per-site arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FaultSite::PciTransfer => 0,
            FaultSite::SramHandover => 1,
            FaultSite::SramAccess => 2,
            FaultSite::SpscRing => 3,
            FaultSite::DecisionCycle => 4,
            FaultSite::Shard => 5,
            FaultSite::Admission => 6,
            FaultSite::Socket => 7,
        }
    }

    /// All sites, in index order.
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::PciTransfer,
        FaultSite::SramHandover,
        FaultSite::SramAccess,
        FaultSite::SpscRing,
        FaultSite::DecisionCycle,
        FaultSite::Shard,
        FaultSite::Admission,
        FaultSite::Socket,
    ];

    /// Human-readable site name (metric label).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::PciTransfer => "pci_transfer",
            FaultSite::SramHandover => "sram_handover",
            FaultSite::SramAccess => "sram_access",
            FaultSite::SpscRing => "spsc_ring",
            FaultSite::DecisionCycle => "decision_cycle",
            FaultSite::Shard => "shard",
            FaultSite::Admission => "admission",
            FaultSite::Socket => "socket",
        }
    }
}

/// What kind of fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The transfer never completes: the initiator must time out and retry.
    TransferTimeout,
    /// The transfer completes but a word is corrupted; detected by the
    /// receiver's check and treated as a retryable failure.
    CorruptWord,
    /// The bank-ownership handover stalls for this many extra nanoseconds
    /// before granting.
    BankStall {
        /// Extra arbitration latency, ns.
        extra_ns: u64,
    },
    /// The arbitration races: the grant is revoked immediately after being
    /// observed, so the access lands without ownership.
    WrongOwner,
    /// A burst of this many extra ring producers' worth of traffic arrives
    /// at once (models an overflow pressure spike).
    RingOverflowBurst {
        /// Extra items offered in the burst.
        len: u32,
    },
    /// The control FSM wedges in its SCHEDULE↔PRIORITY_UPDATE loop for this
    /// many decision cycles: attempts during the window produce nothing.
    StuckCycles {
        /// Decision-cycle attempts consumed by the wedge.
        cycles: u32,
    },
    /// The shard stops proposing for this many cycles, then resumes.
    ShardStall {
        /// Cycles of silence.
        cycles: u32,
    },
    /// The shard dies permanently (worker exit / card partition lost).
    ShardCrash,
    /// An offered-load spike: this many extra arrivals (beyond the
    /// deterministic schedule) hit admission control at once. The overload
    /// plane must shed them by policy, not panic or overflow.
    OverloadBurst {
        /// Extra arrivals in the spike.
        extra: u32,
    },
    /// The listener's `accept` fails transiently (EMFILE, ECONNABORTED);
    /// the accept loop must back off and keep serving, not die.
    AcceptFail,
    /// A read returns short: only this many bytes of the requested span
    /// arrive before the call returns (a torn frame the decoder must
    /// buffer across).
    TornRead {
        /// Bytes delivered before the short return.
        limit: u32,
    },
    /// A write is split: only this many bytes are accepted before the
    /// call returns, forcing the sender to continue from mid-frame.
    TornWrite {
        /// Bytes accepted before the short return.
        limit: u32,
    },
    /// The peer's connection is reset: the next operation fails with
    /// ECONNRESET and the connection must be torn down cleanly.
    PeerReset,
    /// The peer stalls silently for this many virtual milliseconds — the
    /// slow-loris shape the idle/slow-peer eviction must bound.
    PeerStall {
        /// Stall length, virtual ms.
        ms: u32,
    },
    /// The frame bytes on the wire are flipped: the decoder must surface a
    /// typed error (and the connection policy decides eviction), never
    /// panic or mis-admit.
    CorruptFrame,
}

/// Per-site injection rates and fault parameters. Rates are in parts per
/// million per query; a site with rate 0 is never faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// PCI transfer fault rate (ppm). Faults split between
    /// [`FaultKind::TransferTimeout`] and [`FaultKind::CorruptWord`].
    pub pci_rate_ppm: u32,
    /// SRAM handover fault rate (ppm): [`FaultKind::BankStall`].
    pub sram_handover_rate_ppm: u32,
    /// SRAM access fault rate (ppm): [`FaultKind::WrongOwner`] races.
    pub sram_access_rate_ppm: u32,
    /// SPSC enqueue fault rate (ppm): [`FaultKind::RingOverflowBurst`].
    pub spsc_rate_ppm: u32,
    /// Decision-cycle fault rate (ppm): [`FaultKind::StuckCycles`].
    pub decision_rate_ppm: u32,
    /// Shard fault rate (ppm): stalls, and crashes at
    /// [`FaultConfig::shard_crash_weight_pct`].
    pub shard_rate_ppm: u32,
    /// Admission-point fault rate (ppm): [`FaultKind::OverloadBurst`]
    /// offered-load spikes.
    pub admission_rate_ppm: u32,
    /// Socket-site fault rate (ppm): accept failures, torn reads/writes,
    /// resets, stalls, and corrupt frames at the network ingress edge.
    pub socket_rate_ppm: u32,
    /// Of injected shard faults, this percentage are permanent crashes;
    /// the rest are transient stalls.
    pub shard_crash_weight_pct: u32,
    /// Bank-stall extra latency, ns (upper bound; drawn uniformly).
    pub max_stall_ns: u64,
    /// Stuck-FSM wedge length in decision cycles (upper bound, ≥1 drawn).
    pub max_stuck_cycles: u32,
    /// Shard stall length in cycles (upper bound, ≥1 drawn).
    pub max_shard_stall_cycles: u32,
    /// Ring overflow burst length (upper bound, ≥1 drawn).
    pub max_burst_len: u32,
    /// Overload-burst size in extra arrivals (upper bound, ≥1 drawn).
    pub max_overload_burst: u32,
    /// Torn read/write span in bytes (upper bound, ≥1 drawn).
    pub max_torn_bytes: u32,
    /// Peer-stall length in virtual ms (upper bound, ≥1 drawn).
    pub max_peer_stall_ms: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::quiet()
    }
}

impl FaultConfig {
    /// No faults anywhere — the injector becomes a pure counter of queries.
    pub const fn quiet() -> Self {
        Self {
            pci_rate_ppm: 0,
            sram_handover_rate_ppm: 0,
            sram_access_rate_ppm: 0,
            spsc_rate_ppm: 0,
            decision_rate_ppm: 0,
            shard_rate_ppm: 0,
            admission_rate_ppm: 0,
            socket_rate_ppm: 0,
            shard_crash_weight_pct: 0,
            max_stall_ns: 2_000,
            max_stuck_cycles: 8,
            max_shard_stall_cycles: 16,
            max_burst_len: 64,
            max_overload_burst: 256,
            max_torn_bytes: 16,
            max_peer_stall_ms: 50,
        }
    }

    /// An aggressive chaos profile: every site faults at `rate_ppm`.
    pub const fn uniform(rate_ppm: u32) -> Self {
        Self {
            pci_rate_ppm: rate_ppm,
            sram_handover_rate_ppm: rate_ppm,
            sram_access_rate_ppm: rate_ppm,
            spsc_rate_ppm: rate_ppm,
            decision_rate_ppm: rate_ppm,
            shard_rate_ppm: rate_ppm,
            admission_rate_ppm: rate_ppm,
            socket_rate_ppm: rate_ppm,
            shard_crash_weight_pct: 25,
            ..Self::quiet()
        }
    }

    /// A socket-only chaos profile: every edge operation faults at
    /// `rate_ppm`, everything behind the edge stays clean — the shape the
    /// ingress chaos soak uses to attribute every anomaly to the boundary.
    pub const fn socket_only(rate_ppm: u32) -> Self {
        Self {
            socket_rate_ppm: rate_ppm,
            ..Self::quiet()
        }
    }

    fn rate_for(&self, site: FaultSite) -> u32 {
        match site {
            FaultSite::PciTransfer => self.pci_rate_ppm,
            FaultSite::SramHandover => self.sram_handover_rate_ppm,
            FaultSite::SramAccess => self.sram_access_rate_ppm,
            FaultSite::SpscRing => self.spsc_rate_ppm,
            FaultSite::DecisionCycle => self.decision_rate_ppm,
            FaultSite::Shard => self.shard_rate_ppm,
            FaultSite::Admission => self.admission_rate_ppm,
            FaultSite::Socket => self.socket_rate_ppm,
        }
    }

    /// The schedule's verdict for one query at `site`, given the site's
    /// stream as `draw`: the rate check on the first draw, then — only when
    /// faulted — a second draw that picks the kind and its parameters, so
    /// the hit/miss sequence is independent of parameter widths. A site at
    /// rate 0 never draws. Both [`FaultInjector`] receivers go through
    /// here; they differ only in how `draw` advances the stream.
    // lint:hot-path
    #[inline]
    fn verdict(&self, site: FaultSite, mut draw: impl FnMut() -> u64) -> Option<FaultKind> {
        let rate = self.rate_for(site);
        if rate == 0 || draw() % 1_000_000 >= rate as u64 {
            return None;
        }
        let param = draw();
        Some(match site {
            FaultSite::PciTransfer => {
                if param.is_multiple_of(2) {
                    FaultKind::TransferTimeout
                } else {
                    FaultKind::CorruptWord
                }
            }
            FaultSite::SramHandover => FaultKind::BankStall {
                extra_ns: 1 + param % self.max_stall_ns.max(1),
            },
            FaultSite::SramAccess => FaultKind::WrongOwner,
            FaultSite::SpscRing => FaultKind::RingOverflowBurst {
                len: 1 + (param % self.max_burst_len.max(1) as u64) as u32,
            },
            FaultSite::DecisionCycle => FaultKind::StuckCycles {
                cycles: 1 + (param % self.max_stuck_cycles.max(1) as u64) as u32,
            },
            FaultSite::Shard => {
                if param % 100 < self.shard_crash_weight_pct as u64 {
                    FaultKind::ShardCrash
                } else {
                    FaultKind::ShardStall {
                        cycles: 1 + (param % self.max_shard_stall_cycles.max(1) as u64) as u32,
                    }
                }
            }
            FaultSite::Admission => FaultKind::OverloadBurst {
                extra: 1 + (param % self.max_overload_burst.max(1) as u64) as u32,
            },
            FaultSite::Socket => {
                // Six kinds share the site; the selector uses the high bits
                // so the parameter draw (low bits) stays decorrelated.
                let pick = (param >> 32) % 6;
                let torn = 1 + (param % self.max_torn_bytes.max(1) as u64) as u32;
                match pick {
                    0 => FaultKind::AcceptFail,
                    1 => FaultKind::TornRead { limit: torn },
                    2 => FaultKind::TornWrite { limit: torn },
                    3 => FaultKind::PeerReset,
                    4 => FaultKind::PeerStall {
                        ms: 1 + (param % self.max_peer_stall_ms.max(1) as u64) as u32,
                    },
                    _ => FaultKind::CorruptFrame,
                }
            }
        })
    }
}

/// Injection and recovery accounting, shared by the injector and every
/// recovery path. All counters are relaxed atomics: totals are exact once
/// the workload threads have quiesced (joined), which is when the chaos
/// soak reads them.
#[derive(Debug, Default)]
pub struct FaultStats {
    injected: [AtomicU64; SITE_COUNT],
    /// Faults the recovery machinery observed (a timeout fired, a corrupt
    /// word failed its check, a watchdog tripped...).
    pub detected: AtomicU64,
    /// Individual retry attempts spent on transient faults.
    pub retries: AtomicU64,
    /// Transient faults cleared by retrying within budget.
    pub recovered: AtomicU64,
    /// Operations whose retry budget was exhausted.
    pub gave_up: AtomicU64,
    /// Hardware→software failovers (degraded-mode entries).
    pub failovers: AtomicU64,
    /// Degraded-mode exits (software→hardware re-attach).
    pub reattaches: AtomicU64,
    /// Shards excluded from the winner merge.
    pub shards_excluded: AtomicU64,
    /// Packets lost to faults (dropped arrivals, crashed-shard backlog).
    pub lost_packets: AtomicU64,
    /// Decision-cycle attempts consumed by stuck/stalled windows.
    pub stalled_cycles: AtomicU64,
}

/// Point-in-time copy of [`FaultStats`] (serializable, comparable).
/// Export-only: the serde shim cannot deserialize fixed arrays, and nothing
/// needs to read one back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultStatsSnapshot {
    /// Injected faults per site, indexed by [`FaultSite::index`].
    pub injected: [u64; SITE_COUNT],
    /// See [`FaultStats::detected`].
    pub detected: u64,
    /// See [`FaultStats::retries`].
    pub retries: u64,
    /// See [`FaultStats::recovered`].
    pub recovered: u64,
    /// See [`FaultStats::gave_up`].
    pub gave_up: u64,
    /// See [`FaultStats::failovers`].
    pub failovers: u64,
    /// See [`FaultStats::reattaches`].
    pub reattaches: u64,
    /// See [`FaultStats::shards_excluded`].
    pub shards_excluded: u64,
    /// See [`FaultStats::lost_packets`].
    pub lost_packets: u64,
    /// See [`FaultStats::stalled_cycles`].
    pub stalled_cycles: u64,
}

impl FaultStatsSnapshot {
    /// Total injected faults across every site.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }
}

impl FaultStats {
    /// Injected-fault count for `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Copies every counter.
    pub fn snapshot(&self) -> FaultStatsSnapshot {
        let mut injected = [0u64; SITE_COUNT];
        for (cell, out) in self.injected.iter().zip(injected.iter_mut()) {
            *out = cell.load(Ordering::Relaxed);
        }
        FaultStatsSnapshot {
            injected,
            detected: self.detected.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            gave_up: self.gave_up.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            reattaches: self.reattaches.load(Ordering::Relaxed),
            shards_excluded: self.shards_excluded.load(Ordering::Relaxed),
            lost_packets: self.lost_packets.load(Ordering::Relaxed),
            stalled_cycles: self.stalled_cycles.load(Ordering::Relaxed),
        }
    }
}

/// The deterministic, seed-driven fault injector.
///
/// One query is one add, one mixer, one compare against the site's rate,
/// through either of two receivers that draw the same schedule:
///
/// * [`sample`](Self::sample) (`&self`) — for an injector shared via `Arc`
///   across layers or threads (ingress, endsystem, the sharded
///   frontend): the add is an atomic `fetch_add`.
/// * [`sample_mut`](Self::sample_mut) (`&mut self`) — for an injector with
///   exactly one owner (each cluster `SimNode` owns its own): the borrow
///   already excludes every other drawer, so the add is a plain one.
///
/// Both apply the one site → [`FaultKind`] table and keep the same
/// `stats().injected` tally; a caller may mix them freely.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    /// Per-site SplitMix64 counters (each site is an independent stream).
    streams: [AtomicU64; SITE_COUNT],
    stats: FaultStats,
}

impl FaultInjector {
    /// An injector for `seed` with the given per-site rates.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        let streams: [AtomicU64; SITE_COUNT] = std::array::from_fn(|i| {
            // Decorrelate the per-site streams: each starts at a mixed
            // function of the seed and the site index.
            AtomicU64::new(mix(seed ^ mix(i as u64 + 1)))
        });
        Self {
            config,
            streams,
            stats: FaultStats::default(),
        }
    }

    /// A quiet injector (rate 0 everywhere): sampling never faults.
    pub fn disabled() -> Self {
        Self::new(0, FaultConfig::quiet())
    }

    /// The configured rates.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The shared fault/recovery counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Samples `site`: `Some(kind)` if this query is faulted under the
    /// schedule, `None` otherwise. Every injected fault is counted. The
    /// shared form: each draw is one `fetch_add` on the site's stream.
    // lint:hot-path
    #[inline]
    pub fn sample(&self, site: FaultSite) -> Option<FaultKind> {
        let i = site.index();
        let kind = self.config.verdict(site, || {
            let prev = self.streams[i].fetch_add(GOLDEN_GAMMA, Ordering::Relaxed);
            mix(prev.wrapping_add(GOLDEN_GAMMA))
        })?;
        self.stats.injected[i].fetch_add(1, Ordering::Relaxed);
        Some(kind)
    }

    /// [`FaultInjector::sample`] for an exclusive owner: the same streams,
    /// the same verdicts, the same tally, through plain loads and stores —
    /// `&mut self` proves nobody else can be drawing.
    // lint:hot-path
    #[inline]
    pub fn sample_mut(&mut self, site: FaultSite) -> Option<FaultKind> {
        let i = site.index();
        let stream = self.streams[i].get_mut();
        let kind = self.config.verdict(site, || {
            *stream = stream.wrapping_add(GOLDEN_GAMMA);
            mix(*stream)
        })?;
        *self.stats.injected[i].get_mut() += 1;
        Some(kind)
    }

    /// Publishes every counter into `registry` as gauges (idempotent —
    /// safe to call repeatedly mid-run), under `ss_faults_*`.
    pub fn publish(&self, registry: &ss_telemetry::Registry) {
        let snap = self.stats.snapshot();
        for site in FaultSite::ALL {
            registry
                .gauge_labeled(
                    "ss_faults_injected",
                    &[("site", site.name())],
                    "Faults injected by the seeded schedule at this site",
                )
                .set(snap.injected[site.index()] as i64);
        }
        let pairs: [(&str, u64, &str); 9] = [
            (
                "ss_faults_detected",
                snap.detected,
                "Faults the recovery machinery observed",
            ),
            (
                "ss_faults_retries",
                snap.retries,
                "Retry attempts spent on transient faults",
            ),
            (
                "ss_faults_recovered",
                snap.recovered,
                "Transient faults cleared within budget",
            ),
            (
                "ss_faults_gave_up",
                snap.gave_up,
                "Operations whose retry budget was exhausted",
            ),
            (
                "ss_faults_failovers",
                snap.failovers,
                "Hardware-to-software failovers",
            ),
            (
                "ss_faults_reattaches",
                snap.reattaches,
                "Degraded-mode exits back to hardware",
            ),
            (
                "ss_faults_shards_excluded",
                snap.shards_excluded,
                "Shards excluded from the winner merge",
            ),
            (
                "ss_faults_lost_packets",
                snap.lost_packets,
                "Packets lost to faults",
            ),
            (
                "ss_faults_stalled_cycles",
                snap.stalled_cycles,
                "Decision cycles consumed by stuck windows",
            ),
        ];
        for (name, value, help) in pairs {
            registry.gauge(name, help).set(value as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_injector_never_faults() {
        let inj = FaultInjector::disabled();
        for _ in 0..10_000 {
            for site in FaultSite::ALL {
                assert_eq!(inj.sample(site), None);
            }
        }
        assert_eq!(inj.stats().snapshot().total_injected(), 0);
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_site() {
        let a = FaultInjector::new(99, FaultConfig::uniform(50_000));
        let b = FaultInjector::new(99, FaultConfig::uniform(50_000));
        // Interleave site queries differently on the two injectors: each
        // site's verdict sequence must still match query-for-query.
        let seq_a: Vec<Option<FaultKind>> =
            (0..500).map(|_| a.sample(FaultSite::PciTransfer)).collect();
        for _ in 0..333 {
            b.sample(FaultSite::Shard);
            b.sample(FaultSite::SramAccess);
        }
        let seq_b: Vec<Option<FaultKind>> =
            (0..500).map(|_| b.sample(FaultSite::PciTransfer)).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(Option::is_some), "rate high enough to hit");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(1, FaultConfig::uniform(100_000));
        let b = FaultInjector::new(2, FaultConfig::uniform(100_000));
        let seq_a: Vec<bool> = (0..1000)
            .map(|_| a.sample(FaultSite::DecisionCycle).is_some())
            .collect();
        let seq_b: Vec<bool> = (0..1000)
            .map(|_| b.sample(FaultSite::DecisionCycle).is_some())
            .collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn rates_are_roughly_honored() {
        // 10% rate over 20k queries: expect ~2000 hits, allow wide slack.
        let inj = FaultInjector::new(7, FaultConfig::uniform(100_000));
        let hits = (0..20_000)
            .filter(|_| inj.sample(FaultSite::SramHandover).is_some())
            .count();
        assert!((1_500..2_500).contains(&hits), "hits {hits}");
        assert_eq!(inj.stats().injected(FaultSite::SramHandover), hits as u64);
    }

    #[test]
    fn site_kinds_match_their_layer() {
        let inj = FaultInjector::new(3, FaultConfig::uniform(500_000));
        for _ in 0..200 {
            if let Some(k) = inj.sample(FaultSite::PciTransfer) {
                assert!(matches!(
                    k,
                    FaultKind::TransferTimeout | FaultKind::CorruptWord
                ));
            }
            if let Some(k) = inj.sample(FaultSite::SramHandover) {
                match k {
                    FaultKind::BankStall { extra_ns } => assert!(extra_ns >= 1),
                    other => panic!("unexpected {other:?}"),
                }
            }
            if let Some(k) = inj.sample(FaultSite::Shard) {
                assert!(matches!(
                    k,
                    FaultKind::ShardCrash | FaultKind::ShardStall { .. }
                ));
            }
        }
    }

    #[test]
    fn socket_site_draws_every_kind_deterministically() {
        let inj = FaultInjector::new(11, FaultConfig::socket_only(500_000));
        let mut seen = [false; 6];
        let seq: Vec<Option<FaultKind>> =
            (0..2_000).map(|_| inj.sample(FaultSite::Socket)).collect();
        for k in seq.iter().flatten() {
            match *k {
                FaultKind::AcceptFail => seen[0] = true,
                FaultKind::TornRead { limit } => {
                    assert!(limit >= 1);
                    seen[1] = true;
                }
                FaultKind::TornWrite { limit } => {
                    assert!(limit >= 1);
                    seen[2] = true;
                }
                FaultKind::PeerReset => seen[3] = true,
                FaultKind::PeerStall { ms } => {
                    assert!(ms >= 1);
                    seen[4] = true;
                }
                FaultKind::CorruptFrame => seen[5] = true,
                other => panic!("non-socket kind at socket site: {other:?}"),
            }
        }
        assert!(seen.iter().all(|&s| s), "all six kinds drawn: {seen:?}");
        // Replay: the k-th socket verdict is a pure function of (seed, k).
        let replay = FaultInjector::new(11, FaultConfig::socket_only(500_000));
        let seq2: Vec<Option<FaultKind>> = (0..2_000)
            .map(|_| replay.sample(FaultSite::Socket))
            .collect();
        assert_eq!(seq, seq2);
        // Other sites stay quiet under the socket-only profile.
        assert_eq!(inj.sample(FaultSite::Shard), None);
    }

    #[test]
    fn shared_and_exclusive_receivers_draw_the_same_schedule() {
        // The soak lab's two rate tables (ss-cluster's `FaultProfile`,
        // which this crate cannot name), plus a uniform one so the four
        // sites those leave quiet are live too.
        let light = FaultConfig {
            shard_rate_ppm: 120,
            decision_rate_ppm: 800,
            spsc_rate_ppm: 800,
            admission_rate_ppm: 400,
            shard_crash_weight_pct: 10,
            max_shard_stall_cycles: 8,
            max_stuck_cycles: 4,
            max_burst_len: 16,
            max_overload_burst: 32,
            ..FaultConfig::quiet()
        };
        let chaos = FaultConfig {
            shard_rate_ppm: 1_500,
            decision_rate_ppm: 6_000,
            spsc_rate_ppm: 6_000,
            admission_rate_ppm: 3_000,
            shard_crash_weight_pct: 25,
            max_shard_stall_cycles: 16,
            max_stuck_cycles: 8,
            max_burst_len: 48,
            max_overload_burst: 128,
            ..FaultConfig::quiet()
        };
        // A node tick draws shard → decision → ring → admission; the sites
        // a node never touches follow.
        let order = [
            FaultSite::Shard,
            FaultSite::DecisionCycle,
            FaultSite::SpscRing,
            FaultSite::Admission,
            FaultSite::PciTransfer,
            FaultSite::SramHandover,
            FaultSite::SramAccess,
            FaultSite::Socket,
        ];
        for config in [light, chaos, FaultConfig::uniform(20_000)] {
            let shared = FaultInjector::new(0x5EED, config);
            let mut owned = FaultInjector::new(0x5EED, config);
            let mut hits = 0u64;
            for draw in 0..100_000 {
                for site in order {
                    let verdict = shared.sample(site);
                    assert_eq!(owned.sample_mut(site), verdict, "{site:?} draw {draw}");
                    hits += u64::from(verdict.is_some());
                }
            }
            assert!(hits > 0, "the table fired");
            assert_eq!(owned.stats().snapshot(), shared.stats().snapshot());
            assert_eq!(owned.stats().snapshot().total_injected(), hits);
        }
    }

    #[test]
    fn snapshot_reconciles_counts() {
        let inj = FaultInjector::new(5, FaultConfig::uniform(200_000));
        let mut expected = [0u64; SITE_COUNT];
        for _ in 0..1_000 {
            for site in FaultSite::ALL {
                if inj.sample(site).is_some() {
                    expected[site.index()] += 1;
                }
            }
        }
        let snap = inj.stats().snapshot();
        assert_eq!(snap.injected, expected);
        assert_eq!(snap.total_injected(), expected.iter().sum::<u64>());
    }
}
