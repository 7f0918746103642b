//! Sharded parallel scheduler frontend: scale past one fabric.
//!
//! A single ShareStreams fabric is capped at 32 stream-slots and its
//! decision latency grows with log2(N). This crate partitions M streams
//! contiguously across K independent fabric shards — global slot `g` lives
//! on shard `g / (M/K)` as local slot `g % (M/K)` — and rebuilds the global
//! schedule with a **winner-merge**: the paper's Table 2 pairwise
//! comparator applied across the K shard winners, exactly the comparator
//! tree a K-ported hardware frontend would instantiate after the per-shard
//! tournaments. Shards propose packed `u64` lane words
//! ([`ss_types::packed`]) and the merge orders them with the fabric's own
//! lane comparator ([`ss_core::decision::lane_order`]): a proposal is never
//! unpacked unless its deadline ties, and an idle shard's empty word loses
//! on its top bit.
//!
//! Two drive modes share the same shards:
//!
//! * **Inline** ([`ShardedScheduler::decision_cycle`]) — deterministic,
//!   single-threaded, *exact*: each shard proposes its local WR winner's
//!   lane word via the side-effect-free [`ss_core::Fabric::peek_winner`]
//!   probe, the merge picks the global winner (slot ties broken by global
//!   slot ID, so the contiguous partition reproduces the single-fabric
//!   total order), the
//!   winning shard runs its normal decision cycle and every losing shard
//!   runs [`ss_core::Fabric::expire_cycle`]. Because the Table 2 rule chain
//!   is a total order, `min` over shard minima is the global minimum — the
//!   merged schedule is bit-identical to a single M-slot WR fabric (see
//!   `tests/sharded_equivalence.rs`).
//! * **Threaded** ([`ShardedScheduler::into_threaded`]) — each shard's
//!   fabric moves onto its own worker thread, fed arrivals and batch
//!   commands over the endsystem's lock-free SPSC rings, and streams one
//!   proposal per cycle back. The merger orders each cycle's ≤K shard
//!   winners into a *streamlet* with the same comparator. All K shards
//!   service their own winner every cycle (a K-lane aggregate link), so
//!   throughput scales with K; per-stream accounting is shard-local. The
//!   documented **streamlet tolerance** versus a single fabric is this mode's
//!   reordering window: within one streamlet (≤K packets) transmission order
//!   is comparator-exact, across streamlets each shard has serviced exactly
//!   one packet per cycle regardless of global load imbalance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ss_core::decision::{lane_order, DecisionRule};
use ss_core::{Fabric, FabricConfig, ScheduledPacket, SlotCounters, StreamState};
use ss_endsystem::spsc::{spsc_ring, Consumer, Producer};
use ss_hwsim::FabricConfigKind;
use ss_overload::{BreakerConfig, BreakerState, CircuitBreaker, LossLedger, LossSite};
use ss_types::packed::lane_valid;
use ss_types::{ComparisonMode, Error, Result, SlotId, Wrap16};
use std::thread::JoinHandle;

/// A packet together with the pre-service lane word that won it its
/// slot in the schedule — what a shard circulates to the merge stage.
#[derive(Debug, Clone, Copy)]
struct CycleProposal {
    /// The shard's winner lane word *before* service (merge ordering key).
    word: u64,
    /// The serviced packet, still in shard-local slot/time coordinates.
    packet: Option<ScheduledPacket>,
}

/// Worker-bound command: run a batch of decision cycles.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    Batch(u64),
}

/// Frontend instrumentation shared by the inline and threaded drive modes
/// (`telemetry` feature): per-shard winner counters, an idle-cycle counter,
/// and the merge-latency histogram. Handles are `Arc`-backed, so the struct
/// moves freely between the scheduler and its threaded runtime.
#[cfg(feature = "telemetry")]
#[derive(Debug)]
struct ShardedTelemetry {
    shard_wins: Vec<ss_telemetry::Counter>,
    idle_cycles: ss_telemetry::Counter,
    merge_latency: ss_telemetry::Histogram,
}

#[cfg(feature = "telemetry")]
impl ShardedTelemetry {
    fn new(registry: &ss_telemetry::Registry, shards: usize) -> Self {
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
        Self {
            shard_wins,
            idle_cycles: registry.counter(
                "ss_sharded_idle_cycles_total",
                "Global decision cycles in which every shard was idle",
            ),
            merge_latency: registry.histogram(
                "ss_sharded_merge_latency_ns",
                "Nanoseconds spent in the cross-shard winner merge",
            ),
        }
    }

    fn fairness(&self) -> f64 {
        let wins: Vec<u64> = self.shard_wins.iter().map(|c| c.value()).collect();
        ss_telemetry::jain_fairness(&wins)
    }
}

/// The sharded frontend: K fabric shards plus the comparator merge.
pub struct ShardedScheduler {
    shards: Vec<Fabric>,
    per_shard: usize,
    total_slots: usize,
    mode: ComparisonMode,
    decision_count: u64,
    /// Global slot → (shard, local). Starts as the contiguous partition;
    /// [`ShardedScheduler::redistribute`] edits it when streams are rehomed
    /// off a failed shard.
    slot_map: Vec<(usize, usize)>,
    /// (shard, local) → global slot (exact inverse of `slot_map`).
    rev_map: Vec<Vec<usize>>,
    /// Host-side shadow of every loaded stream's configuration — the
    /// supervisor's copy that makes rehoming off dead hardware possible.
    shadow: Vec<Option<StreamState>>,
    /// Shards excluded from the merge (crashed or operator-failed).
    failed: Vec<bool>,
    /// Per-shard transient-stall horizon: the shard proposes nothing while
    /// `decision_count < stalled_until[k]` (it still expires, so shard
    /// clocks stay in lockstep).
    stalled_until: Vec<u64>,
    /// Backlogged packets written off when shards failed.
    lost_packets: u64,
    /// Per-shard overload breakers (empty until
    /// [`ShardedScheduler::enable_breakers`]). Distinct from
    /// `failed`: an open breaker sheds *new* ingest while the shard keeps
    /// cycling and draining, a failed shard is out of the merge for good.
    breakers: Vec<CircuitBreaker>,
    /// Where breaker refusals are accounted ([`LossSite::Shed`]).
    overload_ledger: LossLedger,
    #[cfg(feature = "faults")]
    injector: Option<std::sync::Arc<ss_faults::FaultInjector>>,
    #[cfg(feature = "telemetry")]
    telem: Option<ShardedTelemetry>,
    #[cfg(feature = "telemetry")]
    spans: Option<MergeSpans>,
    /// Flight recorder for breaker-open auto-dumps
    /// ([`ShardedScheduler::attach_flight_recorder`]).
    #[cfg(feature = "telemetry")]
    flight: Option<ss_telemetry::SharedFlightRecorder>,
}

/// Lifecycle-span state for the inline merge (`telemetry` feature): the
/// frontend's own track plus per-global-slot win sequence counters, so
/// each `MergeWin` event carries a reconstructible trace tag
/// (origin = winning shard, slot = global slot, seq = per-slot win count).
#[cfg(feature = "telemetry")]
struct MergeSpans {
    track: ss_telemetry::TrackRecorder,
    win_seq: Vec<u32>,
}

impl ShardedScheduler {
    /// Builds K shards from `config`, whose `slots` field is the TOTAL
    /// stream count M. Each shard is an M/K-slot fabric with otherwise
    /// identical configuration.
    ///
    /// Constraints: `kind` must be `WinnerOnly` (the merge is a winner
    /// merge; block merges belong to the aggregation layer), `shards` must
    /// divide `slots`, M ≤ 32 (global slot IDs are the fabric's 5-bit
    /// field), and each shard's M/K slots must satisfy the fabric's own
    /// power-of-two 2..=32 rule.
    pub fn new(config: FabricConfig, shards: usize) -> Result<Self> {
        if config.kind != FabricConfigKind::WinnerOnly {
            return Err(Error::Config(
                "sharded frontend requires a WinnerOnly fabric (winner-merge)".into(),
            ));
        }
        if shards == 0 || !config.slots.is_multiple_of(shards) {
            return Err(Error::Config(format!(
                "shard count {shards} must divide the slot count {}",
                config.slots
            )));
        }
        if config.slots > 32 {
            return Err(Error::Config(format!(
                "total slots {} exceed the 5-bit global slot field",
                config.slots
            )));
        }
        let per_shard = config.slots / shards;
        let shard_config = FabricConfig {
            slots: per_shard,
            ..config
        };
        let fabrics = (0..shards)
            .map(|_| Fabric::new(shard_config))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            shards: fabrics,
            per_shard,
            total_slots: config.slots,
            mode: config.mode,
            decision_count: 0,
            slot_map: (0..config.slots)
                .map(|g| (g / per_shard, g % per_shard))
                .collect(),
            rev_map: (0..shards)
                .map(|k| (0..per_shard).map(|l| k * per_shard + l).collect())
                .collect(),
            shadow: vec![None; config.slots],
            failed: vec![false; shards],
            stalled_until: vec![0; shards],
            lost_packets: 0,
            breakers: Vec::new(),
            overload_ledger: LossLedger::new(),
            #[cfg(feature = "faults")]
            injector: None,
            #[cfg(feature = "telemetry")]
            telem: None,
            #[cfg(feature = "telemetry")]
            spans: None,
            #[cfg(feature = "telemetry")]
            flight: None,
        })
    }

    /// Attaches telemetry to the frontend and every shard fabric
    /// (`telemetry` feature). Each shard registers its fabric metrics under
    /// a `shard="<k>"` label; the frontend adds per-shard winner counters,
    /// an idle-cycle counter and the merge-latency histogram. Call before
    /// [`ShardedScheduler::into_threaded`] — the instrumentation moves onto
    /// the workers with the fabrics.
    #[cfg(feature = "telemetry")]
    pub fn attach_telemetry(&mut self, registry: &ss_telemetry::Registry) {
        for (k, fabric) in self.shards.iter_mut().enumerate() {
            fabric.attach_telemetry(registry, k as u16);
        }
        self.telem = Some(ShardedTelemetry::new(registry, self.shards.len()));
    }

    /// Jain's fairness index over per-shard global-cycle wins, or `None`
    /// before [`ShardedScheduler::attach_telemetry`]. 1.0 means every shard
    /// wins equally often; 1/K means one shard monopolizes the link.
    #[cfg(feature = "telemetry")]
    pub fn shard_fairness(&self) -> Option<f64> {
        self.telem.as_ref().map(ShardedTelemetry::fairness)
    }

    /// Attaches lifecycle-span recording to the inline merge: every global
    /// decision leaves a `MergeWin` event on a `"merge"` track whose tag
    /// names the winning shard (origin), the global slot and the slot's win
    /// sequence, and whose detail byte is the Table 2 rule that decided the
    /// merge ([`ss_telemetry::span::detail::MERGE_ONLY_CANDIDATE`] when
    /// only one shard competed). Inline-mode state: spans do not follow the
    /// fabrics into [`ShardedScheduler::into_threaded`].
    #[cfg(feature = "telemetry")]
    pub fn attach_spans(&mut self, recorder: &ss_telemetry::SpanRecorder) {
        self.spans = Some(MergeSpans {
            track: recorder.track("merge"),
            win_seq: vec![0; self.total_slots],
        });
    }

    /// Drops the merge track (flushing it into its recorder's drain set).
    #[cfg(feature = "telemetry")]
    pub fn detach_spans(&mut self) {
        self.spans = None;
    }

    /// Wires a shared flight recorder to the breaker sweep: a breaker's
    /// Closed/HalfOpen → Open transition records a `BreakerOpen` control
    /// event and takes an automatic dump
    /// ([`ss_telemetry::DumpReason::BreakerOpen`]).
    #[cfg(feature = "telemetry")]
    pub fn attach_flight_recorder(&mut self, flight: &ss_telemetry::SharedFlightRecorder) {
        self.flight = Some(flight.clone());
    }

    /// Per-stream QoS accounting across all shards, with slot IDs remapped
    /// to global coordinates (`telemetry` feature).
    #[cfg(feature = "telemetry")]
    pub fn qos_snapshot(&self) -> ss_telemetry::QosSet {
        let mut set = ss_telemetry::QosSet {
            decision_cycles: self.decision_count,
            streams: Vec::with_capacity(self.total_slots),
        };
        for (k, fabric) in self.shards.iter().enumerate() {
            for mut row in fabric.qos_snapshot().streams {
                row.slot = self.rev_map[k][row.slot as usize] as u8;
                set.streams.push(row);
            }
        }
        set
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Slots per shard.
    pub fn per_shard(&self) -> usize {
        self.per_shard
    }

    /// Total stream slots across all shards.
    pub fn total_slots(&self) -> usize {
        self.total_slots
    }

    /// Global decision cycles completed (inline mode).
    pub fn decision_count(&self) -> u64 {
        self.decision_count
    }

    /// Scheduler time in packet-times. All live shards advance in lockstep
    /// in inline mode, so the first surviving shard speaks for everyone
    /// (shard 0's clock freezes if it fails).
    pub fn now(&self) -> u64 {
        (0..self.shards.len())
            .find(|&k| !self.failed[k])
            .map_or(0, |k| self.shards[k].now())
    }

    fn map(&self, global: usize) -> Result<(usize, usize)> {
        self.slot_map
            .get(global)
            .copied()
            .ok_or(Error::SlotOutOfRange {
                slot: global,
                slots: self.total_slots,
            })
    }

    /// Like [`ShardedScheduler::map`], but rejects slots homed on a failed
    /// shard — data-path operations must not talk to dead hardware.
    fn map_live(&self, global: usize) -> Result<(usize, usize)> {
        let (shard, local) = self.map(global)?;
        if self.failed[shard] {
            return Err(Error::ShardFailed { shard });
        }
        Ok((shard, local))
    }

    fn unmap(&self, shard: usize, local: SlotId) -> SlotId {
        SlotId::new_unchecked(self.rev_map[shard][local.index()] as u8)
    }

    /// Binds a stream to global slot `g` (routed to its shard).
    pub fn load_stream(
        &mut self,
        global: usize,
        state: StreamState,
        first_deadline: u64,
    ) -> Result<()> {
        let (shard, local) = self.map_live(global)?;
        self.shards[shard].load_stream(local, state.clone(), first_deadline)?;
        self.shadow[global] = Some(state);
        Ok(())
    }

    /// Unbinds global slot `g`.
    pub fn unload_stream(&mut self, global: usize) -> Result<()> {
        let (shard, local) = self.map_live(global)?;
        self.shards[shard].unload_stream(local)?;
        self.shadow[global] = None;
        Ok(())
    }

    /// Arms one [`CircuitBreaker`] per shard. Until
    /// called, breakers are off and ingest is never refused. An open
    /// breaker refuses [`ShardedScheduler::push_arrival`] for its shard
    /// with [`Error::Overloaded`] — survivors keep full service — while
    /// the shard keeps cycling in the merge so its backlog drains and its
    /// clock stays in lockstep. Breakers are inline-mode state; they do
    /// not follow the fabrics into [`ShardedScheduler::into_threaded`].
    pub fn enable_breakers(&mut self, config: BreakerConfig) {
        self.breakers = (0..self.shards.len())
            .map(|_| CircuitBreaker::new(config))
            .collect();
    }

    /// Shard `k`'s breaker state, or `None` before
    /// [`ShardedScheduler::enable_breakers`].
    pub fn breaker_state(&self, k: usize) -> Option<BreakerState> {
        self.breakers.get(k).map(CircuitBreaker::state)
    }

    /// Total breaker trips across all shards.
    pub fn breaker_trips(&self) -> u64 {
        self.breakers.iter().map(CircuitBreaker::trips).sum()
    }

    /// The ledger accounting every breaker refusal (at [`LossSite::Shed`]).
    pub fn overload_ledger(&self) -> &LossLedger {
        &self.overload_ledger
    }

    /// Publishes per-shard breaker gauges (`ss_overload_breaker_*`) plus
    /// the breaker-shed ledger into `registry`.
    #[cfg(feature = "telemetry")]
    pub fn publish_breakers(&self, registry: &ss_telemetry::Registry) {
        for (k, b) in self.breakers.iter().enumerate() {
            let shard = k.to_string();
            registry
                .gauge_labeled(
                    "ss_overload_breaker_state",
                    &[("shard", &shard)],
                    "Breaker state (0 closed, 1 half-open, 2 open)",
                )
                .set(match b.state() {
                    BreakerState::Closed => 0,
                    BreakerState::HalfOpen => 1,
                    BreakerState::Open => 2,
                });
            registry
                .gauge_labeled(
                    "ss_overload_breaker_trips",
                    &[("shard", &shard)],
                    "Times this shard's breaker has tripped",
                )
                .set(b.trips() as i64);
            registry
                .gauge_labeled(
                    "ss_overload_breaker_shed",
                    &[("shard", &shard)],
                    "Arrivals refused while this shard's breaker was open",
                )
                .set(b.shed() as i64);
        }
        self.overload_ledger.publish(registry);
    }

    /// Feeds one global cycle into every live shard's breaker: a shard
    /// makes progress when it proposes a valid winner word or has nothing
    /// queued; a backlogged shard proposing nothing (wedged) or one over
    /// the backlog limit is lagging.
    fn observe_breakers(&mut self) {
        if self.breakers.is_empty() {
            return;
        }
        for k in 0..self.shards.len() {
            if self.failed[k] {
                continue;
            }
            let backlog = self.shards[k].total_backlog();
            let made_progress = backlog == 0 || lane_valid(self.shards[k].peek_winner());
            #[cfg(feature = "telemetry")]
            let before = self.breakers[k].state();
            self.breakers[k].observe(made_progress, backlog);
            #[cfg(feature = "telemetry")]
            if before != BreakerState::Open && self.breakers[k].state() == BreakerState::Open {
                // A shard just went into shed mode: leave the transition on
                // the merge track and snapshot the recent past.
                if let Some(sp) = &mut self.spans {
                    sp.track.record(
                        ss_telemetry::TraceTag::CONTROL.0,
                        self.decision_count,
                        ss_telemetry::Stage::BreakerOpen,
                        k as u8,
                        backlog as u32,
                    );
                }
                if let Some(fl) = &self.flight {
                    let track = self.spans.as_ref().map_or(0, |sp| sp.track.id());
                    fl.record_control(
                        self.decision_count,
                        track,
                        ss_telemetry::Stage::BreakerOpen,
                        k as u8,
                        backlog as u32,
                    );
                    fl.auto_dump(ss_telemetry::DumpReason::BreakerOpen, self.decision_count);
                }
            }
        }
    }

    /// Deposits one arrival into global slot `g`'s queue.
    ///
    /// With breakers armed, an arrival for a shard
    /// whose breaker is open is refused with [`Error::Overloaded`] and
    /// accounted at [`LossSite::Shed`] — intentional, counted load
    /// shedding, never silent loss.
    pub fn push_arrival(&mut self, global: usize, arrival: Wrap16) -> Result<()> {
        let (shard, local) = self.map_live(global)?;
        if let Some(b) = self.breakers.get_mut(shard) {
            if !b.allows_ingest() {
                b.record_shed();
                self.overload_ledger.record(LossSite::Shed);
                return Err(Error::Overloaded {
                    slot: global,
                    site: "breaker",
                });
            }
        }
        self.shards[shard].push_arrival(local, arrival)
    }

    /// Batched arrival deposit over `(global_slot, tag)` pairs.
    pub fn push_arrivals(&mut self, arrivals: &[(usize, Wrap16)]) -> Result<()> {
        for &(global, arrival) in arrivals {
            self.push_arrival(global, arrival)?;
        }
        Ok(())
    }

    /// Queue depth of global slot `g`.
    pub fn backlog(&self, global: usize) -> Result<usize> {
        let (shard, local) = self.map(global)?;
        self.shards[shard].backlog(local)
    }

    /// Packets queued across the shards still in the merge: each live
    /// shard's queue depths summed straight off its registers, with no trip
    /// through the slot map. A failed shard's backlog was written off by
    /// [`ShardedScheduler::fail_shard`] and is not counted.
    // lint:hot-path
    pub fn live_backlog(&self) -> u64 {
        let mut sum = 0u64;
        for (k, fabric) in self.shards.iter().enumerate() {
            if !self.failed[k] {
                sum += fabric.total_backlog() as u64;
            }
        }
        sum
    }

    /// Per-slot performance counters for global slot `g`.
    pub fn slot_counters(&self, global: usize) -> Result<&SlotCounters> {
        let (shard, local) = self.map(global)?;
        self.shards[shard].slot_counters(local)
    }

    /// Direct access to a shard fabric (read-only, diagnostics).
    pub fn shard(&self, k: usize) -> &Fabric {
        &self.shards[k]
    }

    /// `true` if shard `k` has been excluded from the merge.
    pub fn is_failed(&self, k: usize) -> bool {
        self.failed.get(k).copied().unwrap_or(false)
    }

    /// Indices of excluded shards, ascending.
    pub fn failed_shards(&self) -> Vec<usize> {
        (0..self.shards.len()).filter(|&k| self.failed[k]).collect()
    }

    /// Backlogged packets written off when shards failed.
    pub fn lost_packets(&self) -> u64 {
        self.lost_packets
    }

    /// Excludes shard `k` from the winner merge: its proposals stop
    /// competing, its expiry clock stops, and its queued backlog is written
    /// off (returned, and added to [`ShardedScheduler::lost_packets`] —
    /// bounded, counted loss, never a hang). Streams homed there stay
    /// unreachable until [`ShardedScheduler::redistribute`] rehomes them.
    /// Errors if `k` is out of range or already failed.
    pub fn fail_shard(&mut self, k: usize) -> Result<u64> {
        if k >= self.shards.len() {
            return Err(Error::ShardOutOfRange {
                shard: k,
                shards: self.shards.len(),
            });
        }
        if self.failed[k] {
            return Err(Error::ShardFailed { shard: k });
        }
        self.failed[k] = true;
        let lost = self.shards[k].total_backlog() as u64;
        self.lost_packets += lost;
        #[cfg(feature = "faults")]
        if let Some(inj) = &self.injector {
            use std::sync::atomic::Ordering as AOrd;
            inj.stats().detected.fetch_add(1, AOrd::Relaxed);
            inj.stats().shards_excluded.fetch_add(1, AOrd::Relaxed);
            inj.stats().lost_packets.fetch_add(lost, AOrd::Relaxed);
        }
        Ok(lost)
    }

    /// Rehomes the streams of failed shard `from` onto free slots of
    /// surviving shards, updating the global→(shard, local) indirection so
    /// existing global slot IDs keep working. Each rehomed stream is
    /// reloaded from the supervisor's shadow configuration with a fresh
    /// first deadline (`now + request_period`) — its in-flight backlog was
    /// already written off by [`ShardedScheduler::fail_shard`]. Returns
    /// `(global_slot, new_shard)` for every move; streams that found no
    /// free surviving slot stay unreachable. Errors if `from` is not a
    /// failed shard.
    pub fn redistribute(&mut self, from: usize) -> Result<Vec<(usize, usize)>> {
        if from >= self.shards.len() || !self.failed[from] {
            return Err(Error::Config(format!("shard {from} is not failed")));
        }
        let mut moves = Vec::new();
        for local in 0..self.per_shard {
            let global = self.rev_map[from][local];
            let Some(state) = self.shadow[global].clone() else {
                continue;
            };
            // First free slot on a surviving shard: one whose current
            // tenant has nothing loaded.
            let mut found = None;
            'search: for (k2, row) in self.rev_map.iter().enumerate() {
                if self.failed[k2] {
                    continue;
                }
                for (l2, &tenant) in row.iter().enumerate() {
                    if self.shadow[tenant].is_none() {
                        found = Some((k2, l2, tenant));
                        break 'search;
                    }
                }
            }
            let Some((k2, l2, tenant)) = found else {
                break; // surviving capacity exhausted
            };
            // Swap homes so the indirection stays a bijection: the empty
            // tenant slot takes over the dead home.
            self.slot_map[global] = (k2, l2);
            self.slot_map[tenant] = (from, local);
            self.rev_map[k2][l2] = global;
            self.rev_map[from][local] = tenant;
            let restart = self.shards[k2].now() + state.request_period;
            self.shards[k2].load_stream(l2, state, restart)?;
            moves.push((global, k2));
        }
        Ok(moves)
    }

    /// Wires every shard fabric and the frontend's shard-fault sampling to
    /// a shared injector: decision cycles can wedge per shard, and the
    /// [`ss_faults::FaultSite::Shard`] stream drives transient stalls and
    /// permanent crashes (auto-excluded on detection).
    #[cfg(feature = "faults")]
    pub fn attach_faults(&mut self, injector: std::sync::Arc<ss_faults::FaultInjector>) {
        for fabric in &mut self.shards {
            fabric.attach_faults(injector.clone());
        }
        self.injector = Some(injector);
    }

    /// Permanently crashes shard `k`'s fabric (test/operator hook); the
    /// next decision cycle detects and excludes it.
    #[cfg(feature = "faults")]
    pub fn inject_shard_crash(&mut self, k: usize) {
        self.shards[k].inject_crash();
    }

    /// Samples the shard-level fault stream once per global cycle and
    /// applies the drawn fault to a round-robin-picked live shard.
    #[cfg(feature = "faults")]
    fn inject_shard_faults(&mut self) {
        use ss_faults::{FaultKind, FaultSite};
        let Some(inj) = &self.injector else { return };
        let Some(kind) = inj.sample(FaultSite::Shard) else {
            return;
        };
        let n = self.shards.len();
        let Some(target) = (0..n)
            .map(|i| (self.decision_count as usize + i) % n)
            .find(|&k| !self.failed[k])
        else {
            return;
        };
        match kind {
            FaultKind::ShardCrash => self.shards[target].inject_crash(),
            FaultKind::ShardStall { cycles } => {
                self.stalled_until[target] = self.decision_count + cycles as u64;
                inj.stats()
                    .stalled_cycles
                    .fetch_add(cycles as u64, std::sync::atomic::Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Probes every live shard's health and auto-excludes crashed ones —
    /// the frontend's watchdog sweep, run at the top of each global cycle.
    fn auto_exclude_crashed(&mut self) {
        for k in 0..self.shards.len() {
            if !self.failed[k] && self.shards[k].is_crashed() {
                // fail_shard only errors on already-failed, excluded here.
                let _ = self.fail_shard(k);
            }
        }
    }

    /// The winner-merge, with provenance: picks the shard whose proposal
    /// wins the Table 2 comparison, with slot ties resolved by *global*
    /// slot ID (shard-local IDs collide across shards; the contiguous
    /// partition makes lower-shard-first equal to lower-global-ID-first,
    /// matching the single-fabric tie-break). Returns `None` when every
    /// shard is idle. The second element is *why*: the Table 2 rule that
    /// decided the *last* comparison the
    /// winner took part in — `None` when it was the only competing shard
    /// (every other shard failed or stalled), so there was no comparison
    /// to decide. A [`DecisionRule::SlotId`] reason means the winner held
    /// a full tie on the global-slot-ID convention.
    // lint:hot-path
    pub fn merge_pick_with_reason(&self) -> Option<(usize, Option<DecisionRule>)> {
        let mut best: Option<(usize, u64)> = None;
        let mut reason: Option<DecisionRule> = None;
        for (k, fabric) in self.shards.iter().enumerate() {
            // Failed shards are out of the merge for good; stalled shards
            // sit out their injected window but keep expiring.
            if self.failed[k] || self.decision_count < self.stalled_until[k] {
                continue;
            }
            let w = fabric.peek_winner();
            match best {
                None => best = Some((k, w)),
                Some((_, b)) => {
                    // A SlotId verdict compared shard-local IDs, which is
                    // meaningless across shards: the earlier shard holds
                    // the lower global IDs, so the incumbent keeps the
                    // slot tie.
                    let (wins, rule) = lane_order(w, b, self.mode);
                    reason = Some(rule);
                    if wins && rule != DecisionRule::SlotId {
                        best = Some((k, w));
                    }
                }
            }
        }
        best.and_then(|(k, w)| lane_valid(w).then_some((k, reason)))
    }

    /// One exact global decision: the merged winner's shard services its
    /// packet; every other shard takes the loser expiry path. Returns the
    /// transmitted packet in global coordinates, or `None` on an idle
    /// packet-time.
    pub fn decision_cycle(&mut self) -> Option<ScheduledPacket> {
        self.decision_count += 1;
        #[cfg(feature = "faults")]
        self.inject_shard_faults();
        self.auto_exclude_crashed();
        self.observe_breakers();
        // Clock reads only happen when instrumentation is attached, so the
        // detached (and feature-off) hot path never calls `Instant::now`.
        #[cfg(feature = "telemetry")]
        let merge_start = self.telem.as_ref().map(|_| std::time::Instant::now());
        let picked = self.merge_pick_with_reason();
        let winner = picked.map(|(k, _)| k);
        #[cfg(feature = "telemetry")]
        if let (Some(t0), Some(tm)) = (merge_start, self.telem.as_ref()) {
            tm.merge_latency.record(t0.elapsed().as_nanos() as u64);
            match winner {
                Some(k) => tm.shard_wins[k].inc(),
                None => tm.idle_cycles.inc(),
            }
        }
        let mut out = None;
        for k in 0..self.shards.len() {
            if self.failed[k] {
                continue; // dead hardware: no decisions, no expiry clock
            }
            if Some(k) == winner {
                let packet = self.shards[k].decision_cycle_into().first().copied();
                if let Some(p) = packet {
                    out = Some(ScheduledPacket {
                        slot: self.unmap(k, p.slot),
                        ..p
                    });
                }
            } else {
                self.shards[k].expire_cycle();
            }
        }
        #[cfg(feature = "telemetry")]
        if let (Some(sp), Some((k, reason)), Some(p)) = (&mut self.spans, picked, &out) {
            use ss_telemetry::span::detail;
            let g = p.slot.index();
            let tag = ss_telemetry::TraceTag::new(k as u16, g as u16, sp.win_seq[g]).0;
            sp.win_seq[g] = sp.win_seq[g].wrapping_add(1);
            let why = reason.map_or(detail::MERGE_ONLY_CANDIDATE, |r| r as u8);
            sp.track
                .record(tag, self.decision_count, ss_telemetry::Stage::MergeWin, why, g as u32);
        }
        out
    }

    /// Runs `n` exact global decisions, appending transmitted packets to
    /// `sink`. Returns the number appended.
    pub fn decision_cycles(&mut self, n: u64, sink: &mut Vec<ScheduledPacket>) -> usize {
        let mut appended = 0;
        for _ in 0..n {
            if let Some(p) = self.decision_cycle() {
                sink.push(p);
                appended += 1;
            }
        }
        appended
    }

    /// Moves each shard's fabric onto its own worker thread for batch
    /// throughput. `ring_capacity` sizes the arrival and proposal rings
    /// (entries per shard).
    pub fn into_threaded(self, ring_capacity: usize) -> ThreadedShards {
        ThreadedShards::spawn(self, ring_capacity)
    }
}

impl std::fmt::Debug for ShardedScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedScheduler")
            .field("shards", &self.shards.len())
            .field("per_shard", &self.per_shard)
            .field("decision_count", &self.decision_count)
            .finish()
    }
}

/// One merged streamlet report from [`ThreadedShards::run_cycles`].
#[derive(Debug, Clone, Default)]
pub struct StreamletReport {
    /// Packets in merged global transmission order: cycles ascending, and
    /// within each cycle's streamlet, Table-2 comparator order. Slot IDs
    /// are global; completion times remain shard-local (each shard models
    /// its own lane of the aggregate link).
    pub packets: Vec<ScheduledPacket>,
    /// Total shard decision cycles dispatched (cycles × live shards);
    /// shards that die mid-batch complete fewer.
    pub decisions: u64,
    /// Shards newly excluded during this run (worker exited or crashed):
    /// their lanes stop contributing but the surviving merge continues.
    pub excluded: Vec<usize>,
    /// Cycle proposals that never arrived from excluded shards — the
    /// bounded, counted gap their loss left in this batch.
    pub missed_proposals: u64,
}

/// How many failed acquire attempts busy-spin before falling back to
/// `yield_now`. Pure spinning starves the counterpart thread whenever
/// shards outnumber cores (always true on a single-core host), turning
/// every ring handoff into a full scheduler quantum; yielding immediately
/// costs a syscall per item when cores are plentiful. A short spin window
/// gets both: lock-free handoff when the peer is truly parallel, prompt
/// descheduling when it needs this CPU.
const SPIN_LIMIT: u32 = 64;

/// One failed acquire attempt: busy-spin for the first `SPIN_LIMIT` tries,
/// then hand the core to whichever thread owns the other ring end.
#[inline]
fn spin_or_yield(spins: &mut u32) {
    if *spins < SPIN_LIMIT {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Aligned to 128 bytes (two lines on common prefetch-paired hardware) so
/// that adjacent links in the merger's `links` vec never share a cache
/// line: each link's ring endpoints hold locally-cached head/tail copies
/// that the merge loop updates per proposal, and cross-shard false sharing
/// on those would serialize exactly the path sharding exists to spread.
#[repr(align(128))]
struct ShardLink {
    cmd_tx: Producer<Cmd>,
    arr_tx: Producer<(usize, Wrap16)>,
    out_rx: Consumer<CycleProposal>,
    /// Proposals drained from `out_rx` in batches ahead of the per-cycle
    /// merge: one ring synchronization covers up to a ring's worth of
    /// cycles the worker ran ahead.
    buf: std::collections::VecDeque<CycleProposal>,
    handle: JoinHandle<Fabric>,
    /// Set once the worker's proposal ring disconnects: the shard is out
    /// of every subsequent merge.
    dead: bool,
}

/// The thread-per-shard runtime: K workers, each owning one fabric, fed by
/// SPSC rings, merged on the calling thread.
pub struct ThreadedShards {
    links: Vec<ShardLink>,
    total_slots: usize,
    mode: ComparisonMode,
    /// global → (shard, local), carried from the source scheduler so
    /// arrivals route through any redistribution that happened inline.
    slot_map: Vec<(usize, usize)>,
    /// (shard, local) → global, carried from the source scheduler so
    /// rehomed slots keep their global IDs in merged reports.
    rev_map: Vec<Vec<usize>>,
    /// Per-cycle merge scratch (≤ K entries), reused across cycles.
    merge_scratch: Vec<(u64, ScheduledPacket, usize)>,
    #[cfg(feature = "faults")]
    injector: Option<std::sync::Arc<ss_faults::FaultInjector>>,
    #[cfg(feature = "telemetry")]
    telem: Option<ShardedTelemetry>,
}

impl ThreadedShards {
    fn spawn(sched: ShardedScheduler, ring_capacity: usize) -> Self {
        let total_slots = sched.total_slots;
        let mode = sched.mode;
        let shard_count = sched.shards.len();
        let slot_map = sched.slot_map;
        let rev_map = sched.rev_map;
        let failed = sched.failed;
        #[cfg(feature = "faults")]
        let injector = sched.injector;
        #[cfg(feature = "telemetry")]
        let telem = sched.telem;
        // Worker pinning (feature `pinning`): shard k stays on core
        // 1 + k mod (cores − 1), keeping core 0 for the merging thread so
        // its comparator tree and this struct's ring endpoints stay warm.
        // On a single-core host pinning would only fight the scheduler, so
        // it is skipped; `pin_current_thread` itself degrades to a no-op
        // off x86_64 Linux.
        #[cfg(feature = "pinning")]
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let links = sched
            .shards
            .into_iter()
            .zip(failed)
            .enumerate()
            .map(|(shard_idx, (mut fabric, was_failed))| {
                let (cmd_tx, mut cmd_rx) = spsc_ring::<Cmd>(64);
                let (arr_tx, mut arr_rx) = spsc_ring::<(usize, Wrap16)>(ring_capacity);
                let (mut out_tx, out_rx) = spsc_ring::<CycleProposal>(ring_capacity);
                #[cfg(not(feature = "pinning"))]
                let _ = shard_idx;
                let handle = std::thread::spawn(move || {
                    #[cfg(feature = "pinning")]
                    if cores > 1 {
                        let _ = ss_endsystem::pin_current_thread(1 + shard_idx % (cores - 1));
                    }
                    loop {
                        match cmd_rx.pop() {
                            Some(Cmd::Batch(n)) => {
                                for _ in 0..n {
                                    while let Some((slot, tag)) = arr_rx.pop() {
                                        // Slots were validated at routing; a
                                        // failed deposit is dropped, never a
                                        // worker panic.
                                        let _ = fabric.push_arrival(slot, tag);
                                    }
                                    let word = fabric.peek_winner();
                                    let packet = fabric.decision_cycle_into().first().copied();
                                    let mut msg = CycleProposal { word, packet };
                                    let mut spins = 0u32;
                                    loop {
                                        match out_tx.push(msg) {
                                            Ok(()) => break,
                                            Err(back) => {
                                                msg = back;
                                                spin_or_yield(&mut spins);
                                            }
                                        }
                                    }
                                    if fabric.is_crashed() {
                                        // Injected permanent crash: stop
                                        // proposing. Dropping out_tx is the
                                        // merger's exclusion signal.
                                        return fabric;
                                    }
                                }
                            }
                            None => {
                                if cmd_rx.is_disconnected() && cmd_rx.is_empty() {
                                    return fabric;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                });
                ShardLink {
                    cmd_tx,
                    arr_tx,
                    out_rx,
                    buf: std::collections::VecDeque::with_capacity(ring_capacity),
                    handle,
                    // A shard failed before the move stays excluded.
                    dead: was_failed,
                }
            })
            .collect();
        Self {
            links,
            total_slots,
            mode,
            slot_map,
            rev_map,
            merge_scratch: Vec::with_capacity(shard_count),
            #[cfg(feature = "faults")]
            injector,
            #[cfg(feature = "telemetry")]
            telem,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.links.len()
    }

    /// Jain's fairness index over per-shard lane services, or `None` if the
    /// source scheduler was never instrumented. In threaded mode every
    /// non-idle shard services its own lane each cycle, so this measures
    /// how evenly the offered load spreads across shards.
    #[cfg(feature = "telemetry")]
    pub fn shard_fairness(&self) -> Option<f64> {
        self.telem.as_ref().map(ShardedTelemetry::fairness)
    }

    /// Routes one arrival to its shard's ring. Fails with `QueueFull` if
    /// the ring is full (workers drain it once per cycle) and with
    /// `ShardFailed` if the slot's shard has been excluded.
    pub fn push_arrival(&mut self, global: usize, arrival: Wrap16) -> Result<()> {
        let Some(&(shard, local)) = self.slot_map.get(global) else {
            return Err(Error::SlotOutOfRange {
                slot: global,
                slots: self.total_slots,
            });
        };
        if self.links[shard].dead {
            return Err(Error::ShardFailed { shard });
        }
        self.links[shard]
            .arr_tx
            .push((local, arrival))
            .map_err(|_| Error::QueueFull {
                slot: global,
                capacity: self.links[shard].arr_tx.capacity(),
            })
    }

    /// Batched arrival routing over `(global_slot, tag)` pairs.
    pub fn push_arrivals(&mut self, arrivals: &[(usize, Wrap16)]) -> Result<()> {
        for &(global, arrival) in arrivals {
            self.push_arrival(global, arrival)?;
        }
        Ok(())
    }

    /// Runs `n` cycles on every shard in parallel and merges the results:
    /// for each cycle index, the ≤K shard winners are ordered by the Table 2
    /// comparator (global-slot tie-break) into one streamlet. Workers run
    /// ahead of the merger through the proposal rings, so the shards never
    /// synchronize with each other — only with the ring capacity.
    pub fn run_cycles(&mut self, n: u64) -> StreamletReport {
        for link in &mut self.links {
            if link.dead {
                continue;
            }
            let mut cmd = Cmd::Batch(n);
            let mut spins = 0u32;
            loop {
                match link.cmd_tx.push(cmd) {
                    Ok(()) => break,
                    Err(back) => {
                        cmd = back;
                        spin_or_yield(&mut spins);
                    }
                }
            }
        }
        let live = self.links.iter().filter(|l| !l.dead).count() as u64;
        let mut report = StreamletReport {
            packets: Vec::new(),
            decisions: n * live,
            excluded: Vec::new(),
            missed_proposals: 0,
        };
        for cycle in 0..n {
            self.merge_scratch.clear();
            for (k, link) in self.links.iter_mut().enumerate() {
                if link.dead {
                    continue;
                }
                // Wait for the shard's proposal — but a disconnected ring
                // means the worker exited (crash fault or panic): exclude
                // the shard and account the cycles it will never answer,
                // instead of spinning forever or panicking the merge.
                // Proposals are drained in batches: the worker runs ahead
                // of the merge through the ring, so one synchronization on
                // `out_rx` typically buys a whole backlog of cycles, and
                // the per-cycle cost collapses to a local `VecDeque` pop.
                let mut spins = 0u32;
                let proposal = loop {
                    if let Some(p) = link.buf.pop_front() {
                        break Some(p);
                    }
                    let mut drained = false;
                    while let Some(p) = link.out_rx.pop() {
                        link.buf.push_back(p);
                        drained = true;
                    }
                    if drained {
                        continue;
                    }
                    if link.out_rx.is_disconnected() && link.out_rx.is_empty() {
                        break None;
                    }
                    spin_or_yield(&mut spins);
                };
                let Some(proposal) = proposal else {
                    link.dead = true;
                    report.excluded.push(k);
                    report.missed_proposals += n - cycle;
                    #[cfg(feature = "faults")]
                    if let Some(inj) = &self.injector {
                        use std::sync::atomic::Ordering as AOrd;
                        inj.stats().detected.fetch_add(1, AOrd::Relaxed);
                        inj.stats().shards_excluded.fetch_add(1, AOrd::Relaxed);
                    }
                    continue;
                };
                if let Some(p) = proposal.packet {
                    self.merge_scratch.push((proposal.word, p, k));
                }
            }
            // The merge latency window covers ordering and emission only —
            // the proposal spin-wait above measures worker speed, not the
            // comparator tree. Timed only when instrumentation is attached.
            #[cfg(feature = "telemetry")]
            let merge_start = self.telem.as_ref().map(|_| std::time::Instant::now());
            // Insertion sort by the merge order — K ≤ 16, and the scratch
            // is already in ascending shard order so slot ties stay put.
            let scratch = &mut self.merge_scratch;
            for i in 1..scratch.len() {
                let mut j = i;
                while j > 0 {
                    let (wins, rule) = lane_order(scratch[j].0, scratch[j - 1].0, self.mode);
                    if wins && rule != DecisionRule::SlotId {
                        scratch.swap(j - 1, j);
                        j -= 1;
                    } else {
                        break;
                    }
                }
            }
            for &(_, p, k) in scratch.iter() {
                report.packets.push(ScheduledPacket {
                    slot: SlotId::new_unchecked(self.rev_map[k][p.slot.index()] as u8),
                    ..p
                });
            }
            #[cfg(feature = "telemetry")]
            if let (Some(t0), Some(tm)) = (merge_start, self.telem.as_ref()) {
                tm.merge_latency.record(t0.elapsed().as_nanos() as u64);
                if self.merge_scratch.is_empty() {
                    tm.idle_cycles.inc();
                } else {
                    for &(_, _, k) in self.merge_scratch.iter() {
                        tm.shard_wins[k].inc();
                    }
                }
            }
        }
        report
    }

    /// Indices of shards currently excluded from the merge.
    pub fn dead_shards(&self) -> Vec<usize> {
        self.links
            .iter()
            .enumerate()
            .filter_map(|(k, l)| l.dead.then_some(k))
            .collect()
    }

    /// Shuts the workers down and returns the shard fabrics (for reading
    /// counters after a run). A worker that panicked simply yields no
    /// fabric — the join itself never panics.
    pub fn join(self) -> Vec<Fabric> {
        self.links
            .into_iter()
            .filter_map(|link| {
                drop(link.cmd_tx);
                drop(link.arr_tx);
                link.handle.join().ok()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::LatePolicy;
    use ss_types::WindowConstraint;

    fn edf_state(period: u64) -> StreamState {
        StreamState {
            request_period: period,
            original_window: WindowConstraint::ZERO,
            static_prio: 0,
            late_policy: LatePolicy::ServeLate,
        }
    }

    fn backlogged(total: usize, shards: usize, arrivals: usize) -> ShardedScheduler {
        let mut s = ShardedScheduler::new(
            FabricConfig::edf(total, FabricConfigKind::WinnerOnly),
            shards,
        )
        .unwrap();
        for g in 0..total {
            s.load_stream(g, edf_state(1), (g + 1) as u64).unwrap();
            for a in 0..arrivals {
                s.push_arrival(g, Wrap16::from_wide(a as u64)).unwrap();
            }
        }
        s
    }

    #[test]
    fn config_validation() {
        let base = FabricConfig::edf(8, FabricConfigKind::Base);
        assert!(ShardedScheduler::new(base, 2).is_err(), "BA rejected");
        let wr = FabricConfig::edf(8, FabricConfigKind::WinnerOnly);
        assert!(ShardedScheduler::new(wr, 3).is_err(), "3 does not divide 8");
        assert!(ShardedScheduler::new(wr, 0).is_err());
        assert!(
            ShardedScheduler::new(wr, 8).is_err(),
            "1-slot shards rejected by the fabric"
        );
        let s = ShardedScheduler::new(wr, 2).unwrap();
        assert_eq!(s.shard_count(), 2);
        assert_eq!(s.per_shard(), 4);
    }

    #[test]
    fn global_slot_routing() {
        let mut s = backlogged(8, 2, 1);
        assert_eq!(s.backlog(0).unwrap(), 1);
        assert_eq!(s.backlog(7).unwrap(), 1);
        assert!(s.backlog(8).is_err());
        assert!(s.push_arrival(8, Wrap16(0)).is_err());
        // Slot 5 lives on shard 1, local slot 1.
        s.push_arrival(5, Wrap16(9)).unwrap();
        assert_eq!(s.shard(1).backlog(1).unwrap(), 2);
    }

    #[test]
    fn merge_picks_global_earliest_deadline() {
        // Deadlines 1..=8 across two shards: global slot 0 (shard 0) wins
        // first, then 1, ... regardless of shard boundary.
        let mut s = backlogged(8, 2, 4);
        let first = s.decision_cycle().expect("backlogged");
        assert_eq!(first.slot.index(), 0);
        assert_eq!(first.deadline, 1);
        let second = s.decision_cycle().expect("backlogged");
        assert_eq!(second.slot.index(), 1);
    }

    #[test]
    fn idle_shards_advance_time() {
        let mut s =
            ShardedScheduler::new(FabricConfig::edf(8, FabricConfigKind::WinnerOnly), 2).unwrap();
        for g in 0..8 {
            s.load_stream(g, edf_state(1), (g + 1) as u64).unwrap();
        }
        assert_eq!(s.decision_cycle(), None);
        assert_eq!(s.now(), 1);
        for k in 0..2 {
            assert_eq!(s.shard(k).now(), 1, "shard {k} ticked");
        }
    }

    #[test]
    fn threaded_mode_conserves_and_merges() {
        let total = 8usize;
        let arrivals = 100usize;
        let s = backlogged(total, 4, arrivals);
        let mut t = s.into_threaded(4096);
        // Every shard is fully backlogged: 2 slots × 100 arrivals each →
        // exactly 100 cycles drain half of every queue per... each cycle
        // services one packet per shard, so 200 cycles drain everything.
        let report = t.run_cycles(2 * arrivals as u64);
        assert_eq!(report.decisions, 2 * arrivals as u64 * 4);
        assert_eq!(report.packets.len(), total * arrivals);
        let mut per_slot = vec![0u64; total];
        for p in &report.packets {
            per_slot[p.slot.index()] += 1;
        }
        for (g, &count) in per_slot.iter().enumerate() {
            assert_eq!(count, arrivals as u64, "global slot {g}");
        }
        // Within each streamlet (4 packets per cycle here), comparator
        // order holds: deadlines ascend within the streamlet for EDF when
        // all words are valid and distinct.
        for streamlet in report.packets.chunks(4) {
            for pair in streamlet.windows(2) {
                assert!(
                    pair[0].deadline <= pair[1].deadline,
                    "streamlet out of comparator order: {pair:?}"
                );
            }
        }
        let fabrics = t.join();
        assert_eq!(fabrics.len(), 4);
        for f in &fabrics {
            assert_eq!(f.decision_count(), 200);
        }
    }

    #[test]
    fn threaded_arrivals_via_rings() {
        let total = 4usize;
        let s = ShardedScheduler::new(FabricConfig::edf(total, FabricConfigKind::WinnerOnly), 2)
            .map(|mut s| {
                for g in 0..total {
                    s.load_stream(g, edf_state(1), (g + 1) as u64).unwrap();
                }
                s
            })
            .unwrap();
        let mut t = s.into_threaded(1024);
        for g in 0..total {
            t.push_arrival(g, Wrap16(0)).unwrap();
        }
        assert!(t.push_arrival(9, Wrap16(0)).is_err());
        let report = t.run_cycles(4);
        assert_eq!(report.packets.len(), 4, "one packet per slot");
        t.join();
    }

    #[test]
    fn failed_shard_is_excluded_and_loss_is_counted() {
        let mut s = backlogged(8, 2, 3);
        assert_eq!(s.failed_shards(), Vec::<usize>::new());
        // Shard 1 holds globals 4..8, 3 queued packets each.
        let lost = s.fail_shard(1).unwrap();
        assert_eq!(lost, 12, "backlog written off, counted");
        assert_eq!(s.lost_packets(), 12);
        assert!(s.is_failed(1));
        assert_eq!(s.failed_shards(), vec![1]);
        assert!(matches!(
            s.fail_shard(1),
            Err(Error::ShardFailed { shard: 1 })
        ));
        assert!(s.fail_shard(9).is_err());
        // Data-path operations against the dead shard error; the surviving
        // shard keeps scheduling.
        assert!(matches!(
            s.push_arrival(5, Wrap16(0)),
            Err(Error::ShardFailed { shard: 1 })
        ));
        assert!(s.push_arrival(2, Wrap16(9)).is_ok());
        let mut served = 0;
        while let Some(p) = s.decision_cycle() {
            assert!(p.slot.index() < 4, "only surviving slots transmit");
            served += 1;
        }
        assert_eq!(served, 13, "shard 0 backlog + the late arrival");
    }

    #[test]
    fn surviving_set_is_bit_exact_with_a_standalone_fabric() {
        // Exclusion without rehoming: after shard 1 dies, the merged
        // schedule over shard 0's streams must be bit-identical to a
        // standalone 4-slot fabric running those same streams.
        let total = 8usize;
        let arrivals = 50usize;
        let mut s = backlogged(total, 2, arrivals);
        s.fail_shard(1).unwrap();
        let mut reference =
            Fabric::new(FabricConfig::edf(4, FabricConfigKind::WinnerOnly)).unwrap();
        for g in 0..4 {
            reference
                .load_stream(g, edf_state(1), (g + 1) as u64)
                .unwrap();
            for a in 0..arrivals {
                reference
                    .push_arrival(g, Wrap16::from_wide(a as u64))
                    .unwrap();
            }
        }
        for cycle in 0..(4 * arrivals as u64) {
            let sharded = s.decision_cycle();
            let single = reference.decision_cycle_into().first().copied();
            match (sharded, single) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.slot, b.slot, "cycle {cycle}");
                    assert_eq!(a.deadline, b.deadline, "cycle {cycle}");
                    assert_eq!(a.completed_at, b.completed_at, "cycle {cycle}");
                }
                (a, b) => assert_eq!(a.is_none(), b.is_none(), "cycle {cycle}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn redistribute_rehomes_streams_onto_surviving_capacity() {
        // Only shard 1's globals (4..8) are loaded; shard 0 is empty, so
        // after shard 1 dies every stream finds a new home on shard 0.
        let total = 8usize;
        let mut s =
            ShardedScheduler::new(FabricConfig::edf(total, FabricConfigKind::WinnerOnly), 2)
                .unwrap();
        for g in 4..total {
            s.load_stream(g, edf_state(1), (g + 1) as u64).unwrap();
        }
        s.fail_shard(1).unwrap();
        assert!(
            s.redistribute(0).is_err(),
            "only failed shards redistribute"
        );
        let moves = s.redistribute(1).unwrap();
        assert_eq!(moves.len(), 4);
        for &(g, new_shard) in &moves {
            assert!((4..8).contains(&g));
            assert_eq!(new_shard, 0, "rehomed onto the survivor");
        }
        // The global IDs still work end to end: arrivals route through the
        // indirection and transmitted packets come back in global coords.
        for g in 4..total {
            s.push_arrival(g, Wrap16(0)).unwrap();
        }
        let mut seen = Vec::new();
        for _ in 0..16 {
            if let Some(p) = s.decision_cycle() {
                seen.push(p.slot.index());
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![4, 5, 6, 7], "global coordinates preserved");
        for g in 4..total {
            assert_eq!(s.slot_counters(g).unwrap().serviced, 1);
        }
    }

    #[test]
    fn open_breaker_sheds_ingest_while_survivors_flow() {
        use ss_overload::{BreakerConfig, BreakerState, LossSite};
        let mut s = backlogged(8, 2, 2);
        // Trip on a 4-deep backlog after 2 lagging cycles; shard 1 holds
        // 4 slots × 2 arrivals = 8 queued, over the limit even after a win.
        s.enable_breakers(BreakerConfig {
            trip_lag_cycles: 2,
            trip_backlog: 4,
            cooldown_cycles: 64,
            probe_quota: 2,
        });
        assert_eq!(s.breaker_state(1), Some(BreakerState::Closed));
        for _ in 0..2 {
            s.decision_cycle();
        }
        assert_eq!(s.breaker_state(0), Some(BreakerState::Open));
        assert_eq!(s.breaker_state(1), Some(BreakerState::Open));
        // Open breaker: ingest refused with Overloaded, counted as Shed.
        assert!(matches!(
            s.push_arrival(5, Wrap16(9)),
            Err(Error::Overloaded {
                slot: 5,
                site: "breaker"
            })
        ));
        assert_eq!(s.overload_ledger().at(LossSite::Shed), 1);
        assert_eq!(s.breaker_trips(), 2);
        // The shard keeps cycling while open: its queued backlog drains
        // through the merge, nothing hangs. 16 queued minus the 2 already
        // served by the tripping cycles.
        let mut served = 0;
        while s.decision_cycle().is_some() {
            served += 1;
        }
        assert_eq!(served, 14, "queued packets still drain while open");
    }

    #[test]
    fn breaker_recloses_after_drain_and_probes() {
        use ss_overload::{BreakerConfig, BreakerState};
        let mut s = backlogged(8, 2, 2);
        s.enable_breakers(BreakerConfig {
            trip_lag_cycles: 1,
            trip_backlog: 4,
            cooldown_cycles: 2,
            probe_quota: 2,
        });
        // One cycle trips (8 > 4 backlog); the merge then drains both
        // shards while the breakers cool down, half-open, and prove
        // themselves on empty-backlog probes.
        for _ in 0..40 {
            s.decision_cycle();
        }
        assert_eq!(s.breaker_state(0), Some(BreakerState::Closed));
        assert_eq!(s.breaker_state(1), Some(BreakerState::Closed));
        assert!(s.breaker_trips() >= 2, "each shard tripped at least once");
        // Closed again: ingest flows.
        s.push_arrival(5, Wrap16(0)).unwrap();
    }

    #[cfg(feature = "faults")]
    #[test]
    fn injected_crash_auto_excludes_the_shard() {
        use ss_faults::{FaultConfig, FaultInjector};
        use std::sync::Arc;
        let mut s = backlogged(8, 2, 5);
        let inj = Arc::new(FaultInjector::new(31, FaultConfig::quiet()));
        s.attach_faults(inj.clone());
        s.inject_shard_crash(1);
        // The next cycle's health sweep excludes the crashed shard; the
        // surviving shard drains its 20 packets alone.
        let mut served = 0;
        while let Some(p) = s.decision_cycle() {
            assert!(p.slot.index() < 4);
            served += 1;
        }
        assert_eq!(served, 20);
        assert_eq!(s.failed_shards(), vec![1]);
        assert_eq!(s.lost_packets(), 20, "crashed shard's backlog written off");
        use std::sync::atomic::Ordering as AOrd;
        assert_eq!(inj.stats().shards_excluded.load(AOrd::Relaxed), 1);
        assert_eq!(inj.stats().lost_packets.load(AOrd::Relaxed), 20);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn threaded_worker_crash_is_excluded_not_hung() {
        use ss_faults::{FaultConfig, FaultInjector};
        use std::sync::Arc;
        let s = backlogged(8, 4, 50);
        let mut s = s;
        let inj = Arc::new(FaultInjector::new(37, FaultConfig::quiet()));
        s.attach_faults(inj.clone());
        s.inject_shard_crash(2);
        let mut t = s.into_threaded(1024);
        let report = t.run_cycles(50);
        assert_eq!(report.excluded, vec![2], "crashed worker excluded");
        assert!(report.missed_proposals > 0);
        assert_eq!(t.dead_shards(), vec![2]);
        // Surviving shards each drained their 2 slots × 50 arrivals... at
        // one packet per shard-cycle, 50 cycles move 50 packets per
        // surviving shard; the crashed shard contributes at most its
        // pre-crash cycle.
        let mut per_slot = [0u64; 8];
        for p in &report.packets {
            per_slot[p.slot.index()] += 1;
        }
        let crashed_lane: u64 = per_slot[4..6].iter().sum();
        let surviving: u64 = per_slot.iter().sum::<u64>() - crashed_lane;
        assert!(crashed_lane <= 1, "crashed lane stops immediately");
        assert_eq!(surviving, 150, "three surviving lanes × 50 cycles");
        // Pushing to the dead shard's slots now errors instead of filling a
        // ring nobody drains.
        assert!(matches!(
            t.push_arrival(4, Wrap16(0)),
            Err(Error::ShardFailed { shard: 2 })
        ));
        let fabrics = t.join();
        assert_eq!(fabrics.len(), 4, "crashed worker still returns its fabric");
        use std::sync::atomic::Ordering as AOrd;
        assert_eq!(inj.stats().shards_excluded.load(AOrd::Relaxed), 1);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_counts_inline_wins_and_fairness() {
        // Interleave deadlines across the shard boundary — shard 0 holds
        // the odd deadlines 1,3,5,7 and shard 1 the even 2,4,6,8 — with one
        // arrival per slot, so the 8 winners alternate shards: 4 wins each.
        let mut s =
            ShardedScheduler::new(FabricConfig::edf(8, FabricConfigKind::WinnerOnly), 2).unwrap();
        for g in 0..8 {
            let deadline = if g < 4 { 2 * g + 1 } else { 2 * (g - 4) + 2 };
            s.load_stream(g, edf_state(1), deadline as u64).unwrap();
            s.push_arrival(g, Wrap16(0)).unwrap();
        }
        assert_eq!(s.shard_fairness(), None, "detached until attach");
        let registry = ss_telemetry::Registry::new();
        s.attach_telemetry(&registry);
        for _ in 0..8 {
            s.decision_cycle().expect("backlogged");
        }
        let fairness = s.shard_fairness().expect("attached");
        assert!((fairness - 1.0).abs() < 1e-9, "balanced wins: {fairness}");
        let snap = registry.snapshot();
        let wins: Vec<u64> = ["0", "1"]
            .iter()
            .map(|k| {
                snap.metrics
                    .iter()
                    .find(|m| {
                        m.name == "ss_sharded_shard_wins_total"
                            && m.labels.iter().any(|(_, v)| v == k)
                    })
                    .and_then(|m| match m.value {
                        ss_telemetry::MetricValue::Counter(c) => Some(c),
                        _ => None,
                    })
                    .expect("win counter")
            })
            .collect();
        assert_eq!(wins, vec![4, 4]);
        assert!(
            snap.metrics
                .iter()
                .any(|m| m.name == "ss_sharded_merge_latency_ns"),
            "merge latency registered"
        );
        // Shard fabrics were attached with shard labels: global QoS rows
        // cover all 8 slots with one win each.
        let qos = s.qos_snapshot();
        assert_eq!(qos.streams.len(), 8);
        let mut slots: Vec<u8> = qos.streams.iter().map(|r| r.slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..8).collect::<Vec<u8>>(), "global slot remap");
        for row in &qos.streams {
            assert_eq!(row.wins, 1, "slot {} wins", row.slot);
        }
    }

    #[test]
    fn merge_reason_names_the_deciding_rule() {
        // Distinct deadlines across shards: the cross-shard comparison is
        // decided by EDF, and the provenance says so.
        let mut s = backlogged(8, 2, 2);
        let (k, reason) = s.merge_pick_with_reason().expect("backlogged");
        assert_eq!(k, 0, "deadline 1 lives on shard 0");
        assert_eq!(reason, Some(DecisionRule::EarliestDeadline));
        // With shard 1 failed, shard 0 competes alone: no comparison ran.
        s.fail_shard(1).unwrap();
        let (k, reason) = s.merge_pick_with_reason().expect("survivor backlogged");
        assert_eq!(k, 0);
        assert_eq!(reason, None, "only candidate: nothing to compare");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn merge_wins_leave_provenance_span_events() {
        use ss_telemetry::span::detail;
        use ss_telemetry::{Stage, TraceTag};
        let mut s = backlogged(8, 2, 2);
        let recorder = ss_telemetry::SpanRecorder::new(256);
        s.attach_spans(&recorder);
        for _ in 0..16 {
            s.decision_cycle();
        }
        s.detach_spans();
        let tracks = recorder.drain();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].name, "merge");
        let wins: Vec<_> = tracks[0]
            .events
            .iter()
            .filter(|e| e.stage == Stage::MergeWin)
            .collect();
        assert_eq!(wins.len(), 16, "one MergeWin per serviced cycle");
        for e in &wins {
            let tag = TraceTag(e.tag);
            assert_eq!(
                tag.origin() as usize,
                e.arg as usize / 4,
                "origin names the winning shard of global slot {}",
                e.arg
            );
            assert_eq!(tag.slot() as u32, e.arg, "tag slot is the global slot");
            assert_ne!(e.detail, detail::MERGE_ONLY_CANDIDATE, "2 shards competed");
        }
        // 2 arrivals per slot → per-slot win sequences 0 then 1.
        let mut seqs: Vec<u32> = wins
            .iter()
            .filter(|e| e.arg == 0)
            .map(|e| TraceTag(e.tag).seq())
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn breaker_open_takes_automatic_flight_dump() {
        use ss_overload::BreakerConfig;
        use ss_telemetry::{DumpReason, SharedFlightRecorder, SpanRecorder, Stage};
        let mut s = backlogged(8, 2, 2);
        let recorder = SpanRecorder::new(256);
        let flight = SharedFlightRecorder::new(64);
        s.attach_spans(&recorder);
        s.attach_flight_recorder(&flight);
        s.enable_breakers(BreakerConfig {
            trip_lag_cycles: 2,
            trip_backlog: 4,
            cooldown_cycles: 64,
            probe_quota: 2,
        });
        for _ in 0..2 {
            s.decision_cycle();
        }
        assert_eq!(s.breaker_state(0), Some(ss_overload::BreakerState::Open));
        let dump = flight.take_last_dump().expect("open transition dumps");
        assert_eq!(dump.reason, DumpReason::BreakerOpen);
        assert!(dump
            .events
            .iter()
            .any(|e| e.stage == Stage::BreakerOpen && e.trace_tag().is_control()));
        s.detach_spans();
        let tracks = recorder.drain();
        assert!(tracks[0]
            .events
            .iter()
            .any(|e| e.stage == Stage::BreakerOpen));
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_survives_into_threaded() {
        let registry = ss_telemetry::Registry::new();
        let mut s = backlogged(8, 4, 10);
        s.attach_telemetry(&registry);
        let mut t = s.into_threaded(1024);
        // 4 shards × 2 slots × 10 arrivals: each shard services one packet
        // per cycle, so 10 cycles drain 40 packets.
        let report = t.run_cycles(10);
        assert_eq!(report.packets.len(), 40);
        // Every shard serviced its lane every cycle: 10 wins apiece.
        let fairness = t.shard_fairness().expect("carried across spawn");
        assert!((fairness - 1.0).abs() < 1e-9, "lane fairness: {fairness}");
        let snap = registry.snapshot();
        let merge = snap
            .metrics
            .iter()
            .find(|m| m.name == "ss_sharded_merge_latency_ns")
            .expect("merge histogram");
        match &merge.value {
            ss_telemetry::MetricValue::Histogram(h) => {
                assert_eq!(h.count, 10, "one merge per cycle")
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        t.join();
    }
}
