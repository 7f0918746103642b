//! Instrumentation as a type parameter: one build carries both states.
//!
//! [`Fabric`](crate::Fabric) and the sharded frontend are generic over a
//! [`Telemetry`] whose default is `()`.
//! `()`'s state is zero-sized and every hook is the trait's empty default
//! body, so the uninstrumented instantiation compiles to the bare
//! zero-allocation core — no branch, no field. [`Traced`] is the
//! instrumented state, and it is detached until a registry or a span
//! track is attached at runtime:
//!
//! * [`FabricTelemetry`] holds handles into an `ss-telemetry`
//!   [`Registry`], a per-slot winner-selection-latency tracker, and —
//!   attached separately — a span track of
//!   [`StageEvent`](ss_telemetry::StageEvent)s (arrivals, wins, expiry
//!   passes, blocked cycles).
//! * [`SupervisorTrace`] is the same contract one level up: the control
//!   events the sharded frontend leaves — merge wins on a span track and
//!   recovery path switches in a flight recorder with its automatic
//!   incident dumps.
//! * [`MergeMetrics`] is the sharded frontend's per-shard winner counters,
//!   idle-cycle counter and merge-latency histogram. Its handles are
//!   `Arc`-backed, so it moves with the frontend into the threaded
//!   runtime.
//!
//! The attached hooks never allocate and touch no shared memory on the
//! per-decision path: observations accumulate in plain local counters and
//! [`LocalHistogram`]s, and drain into the registry's striped atomics every
//! [`FLUSH_EVERY`] decisions (and on drop / explicit flush). Registry
//! readers on other threads therefore lag the fabric by at most one flush
//! window. A detached `Traced` state still pays a branch per hook, which is
//! why the plain path is `()` and not a detached `Traced`.

use crate::decision::DecisionRule;
use crate::fabric::ScheduledPacket;
use ss_telemetry::span::detail;
use ss_telemetry::{
    Counter, DumpReason, Histogram, LocalHistogram, QosSet, Registry, SharedFlightRecorder,
    SpanRecorder, Stage, TraceTag, TrackRecorder, WinLatencyTracker,
};
use std::time::Instant;

/// Which instrumentation a scheduler carries: `()` (none, zero-sized) or
/// [`Traced`]. One state type per layer that records.
pub trait Telemetry: 'static {
    /// One fabric's decision-cycle hooks.
    type Fabric: FabricHooks;
    /// A supervisor's control-event sink (the sharded merge and its
    /// recovery supervisors).
    type Supervisor: SupervisorHooks;
    /// The sharded frontend's merge metrics.
    type Merge: MergeHooks;
}

/// The uninstrumented state: every hook is an empty body on `()`.
impl Telemetry for () {
    type Fabric = ();
    type Supervisor = ();
    type Merge = ();
}

/// The instrumented state: [`FabricTelemetry`], [`SupervisorTrace`] and
/// [`MergeMetrics`], each detached until attached. A marker: it is never
/// instantiated.
#[derive(Debug)]
pub enum Traced {}

impl Telemetry for Traced {
    type Fabric = FabricTelemetry;
    type Supervisor = SupervisorTrace;
    type Merge = MergeMetrics;
}

/// What a fabric records at each decision-cycle event. The default bodies
/// are empty: they are all of `()`'s implementation.
pub trait FabricHooks: Default + Send + 'static {
    /// A packet arrival was deposited into `slot`'s queue.
    #[inline(always)]
    fn on_arrival(&mut self, _cycle: u64, _slot: usize) {}

    /// One decision cycle completed. `block` is the transmitted packets in
    /// transmission order; `expired` counts loser slots whose head packet
    /// expired this cycle; `batched` says which arm (packed kernel vs
    /// scalar reference) produced the decision.
    #[inline(always)]
    fn on_decision(
        &mut self,
        _cycle: u64,
        _block: &[ScheduledPacket],
        _expired: u32,
        _batched: bool,
    ) {
    }

    /// One decision/expiry attempt was consumed by a fault (stuck FSM
    /// wedge or crash).
    #[inline(always)]
    fn on_fault_stall(&mut self, _cycle: u64, _crashed: bool) {}

    /// One grant-less expiry cycle completed (the fabric lost the
    /// packet-time to another shard).
    #[inline(always)]
    fn on_expire_cycle(&mut self, _cycle: u64, _expired: u32) {}

    /// Fills the `win_latency_cycles` column of a QoS report (rows indexed
    /// by slot); left empty without a latency tracker.
    fn fill_win_latency(&self, _qos: &mut QosSet) {}
}

impl FabricHooks for () {}

/// What a supervisor records at each control event. The default bodies are
/// empty: they are all of `()`'s implementation.
pub trait SupervisorHooks: Default {
    /// `shard`'s proposal for global slot `slot` won the merge; `reason`
    /// is the deciding Table 2 rule, `None` when nothing was compared.
    #[inline(always)]
    fn on_merge_win(
        &mut self,
        _cycle: u64,
        _shard: usize,
        _slot: usize,
        _reason: Option<DecisionRule>,
    ) {
    }

    /// A shard switched between its card and the host (`failovers` so
    /// far).
    #[inline(always)]
    fn on_path_switch(&mut self, _now: u64, _to_host: bool, _failovers: u64) {}
}

impl SupervisorHooks for () {}

/// What the sharded frontend records around each cross-shard merge.
pub trait MergeHooks: Default {
    /// When a timed merge began.
    type Timer: Copy;

    /// A merge is about to start.
    fn start(&self) -> Self::Timer;

    /// The merge that began at `started` is done and the shards in
    /// `winners` were served (none = an idle cycle).
    fn record_merge(&self, started: Self::Timer, winners: impl IntoIterator<Item = usize>);
}

/// No clock is read, nothing is counted.
impl MergeHooks for () {
    type Timer = ();

    #[inline(always)]
    fn start(&self) {}

    #[inline(always)]
    fn record_merge(&self, _started: (), _winners: impl IntoIterator<Item = usize>) {}
}

/// Decisions between automatic drains of the local accumulators into
/// the registry. Chosen so the amortized flush cost disappears next to
/// a 32-slot decision cycle while keeping cross-thread readers fresh.
pub const FLUSH_EVERY: u32 = 4096;

/// Live instrumentation for one fabric ([`Traced`]'s fabric state).
/// Detached by default — hooks are cheap no-ops until
/// [`FabricTelemetry::attach`] wires them to a registry.
#[derive(Debug, Default)]
pub struct FabricTelemetry {
    inner: Option<Attached>,
    spans: Option<SpanState>,
}

/// Per-packet lifecycle recording state — independent of the
/// registry attachment so a bench can trace without metrics and
/// vice versa. Sequence numbers are per-slot: arrivals and wins are
/// FIFO per slot, so the n-th win of a slot serves its n-th
/// undropped arrival and the minted [`TraceTag`]s line up with tags
/// minted upstream (endsystem admission) without widening any wire
/// struct.
#[derive(Debug)]
struct SpanState {
    origin: u16,
    track: TrackRecorder,
    arrival_seq: Vec<u32>,
    win_seq: Vec<u32>,
}

impl SpanState {
    /// Control event: this cycle's expiry pass dropped `expired` late
    /// head packets (nothing is recorded for a clean pass).
    #[inline]
    fn expiry_pass(&mut self, cycle: u64, expired: u32) {
        if expired > 0 {
            self.track.record(
                TraceTag::CONTROL.0,
                cycle,
                Stage::DecisionExpire,
                0,
                expired,
            );
        }
    }
}

#[derive(Debug)]
struct Attached {
    /// `true` when every decision runs the PRIORITY_UPDATE phase.
    priority_update: bool,
    /// `true` for BA (block) fabrics, `false` for WR.
    is_block: bool,
    // Registry handles — flush targets, shared striped atomics.
    decisions: Counter,
    packets: Counter,
    idle_cycles: Counter,
    expired_slots: Counter,
    priority_updates: Counter,
    block_len: Histogram,
    win_gap: Histogram,
    // Per-decision accumulators — plain locals, drained by `flush`.
    d_decisions: u64,
    d_packets: u64,
    d_idle: u64,
    d_expired: u64,
    d_prio: u64,
    d_block_len: LocalHistogram,
    /// The win-latency tracker's merged state at the previous flush;
    /// the registry `win_gap` histogram receives only the growth since
    /// then, so the hot path records each gap exactly once (into the
    /// tracker).
    win_gap_base: LocalHistogram,
    /// Scratch for the tracker's merged state at this flush; swapped
    /// into `win_gap_base` after draining, so flushing never allocates.
    win_gap_cur: LocalHistogram,
    since_flush: u32,
    win_latency: WinLatencyTracker,
}

impl Attached {
    /// Drains every local accumulator into the registry handles.
    // lint:hot-path
    fn flush(&mut self) {
        if self.d_decisions > 0 {
            self.decisions.add(self.d_decisions);
            self.d_decisions = 0;
        }
        if self.d_packets > 0 {
            self.packets.add(self.d_packets);
            self.d_packets = 0;
        }
        if self.d_idle > 0 {
            self.idle_cycles.add(self.d_idle);
            self.d_idle = 0;
        }
        if self.d_expired > 0 {
            self.expired_slots.add(self.d_expired);
            self.d_expired = 0;
        }
        if self.d_prio > 0 {
            self.priority_updates.add(self.d_prio);
            self.d_prio = 0;
        }
        if self.d_block_len.count() > 0 {
            self.block_len.merge_local(&self.d_block_len);
            self.d_block_len.clear();
        }
        self.win_latency.merge_into(&mut self.win_gap_cur);
        if self.win_gap_cur.count() > self.win_gap_base.count() {
            self.win_gap
                .merge_cumulative_since(&self.win_gap_cur, &self.win_gap_base);
            std::mem::swap(&mut self.win_gap_cur, &mut self.win_gap_base);
        }
        self.since_flush = 0;
    }
}

impl Drop for Attached {
    fn drop(&mut self) {
        self.flush();
    }
}

impl FabricTelemetry {
    /// Wires this fabric into `registry` under a `shard` label,
    /// allocating the latency tracker up front so the per-decision
    /// hooks stay allocation-free.
    pub fn attach(
        &mut self,
        registry: &Registry,
        shard: u16,
        slots: usize,
        start_cycle: u64,
        priority_update: bool,
        is_block: bool,
    ) {
        let s = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &s)];
        self.inner = Some(Attached {
            priority_update,
            is_block,
            decisions: registry.counter_labeled(
                "ss_fabric_decision_cycles_total",
                labels,
                "Decision cycles completed by the fabric",
            ),
            packets: registry.counter_labeled(
                "ss_fabric_packets_total",
                labels,
                "Packets transmitted by decision cycles",
            ),
            idle_cycles: registry.counter_labeled(
                "ss_fabric_idle_cycles_total",
                labels,
                "Decision cycles that found every slot idle",
            ),
            expired_slots: registry.counter_labeled(
                "ss_fabric_expired_slots_total",
                labels,
                "Loser/expiry checks that expired a waiting head packet",
            ),
            priority_updates: registry.counter_labeled(
                "ss_fabric_priority_updates_total",
                labels,
                "PRIORITY_UPDATE phases executed",
            ),
            block_len: registry.histogram_labeled(
                "ss_fabric_block_len_packets",
                labels,
                "Packets per BA block transaction",
            ),
            win_gap: registry.histogram_labeled(
                "ss_fabric_win_gap_cycles",
                labels,
                "Winner-selection latency: decision cycles between a stream's wins",
            ),
            d_decisions: 0,
            d_packets: 0,
            d_idle: 0,
            d_expired: 0,
            d_prio: 0,
            d_block_len: LocalHistogram::new(),
            win_gap_base: LocalHistogram::new(),
            win_gap_cur: LocalHistogram::new(),
            since_flush: 0,
            win_latency: WinLatencyTracker::new(slots, start_cycle),
        });
    }

    /// Wires per-packet lifecycle recording into `recorder`: every
    /// fabric arrival and decision win is stamped with a
    /// [`TraceTag`] (origin = `origin`, per-slot sequence) on a
    /// fresh track named `name`. Orthogonal to
    /// [`FabricTelemetry::attach`] — either, both, or neither may
    /// be live.
    pub fn attach_spans(&mut self, recorder: &SpanRecorder, origin: u16, name: &str, slots: usize) {
        self.spans = Some(SpanState {
            origin,
            track: recorder.track(name),
            arrival_seq: vec![0; slots],
            win_seq: vec![0; slots],
        });
    }

    /// Drops the span track (flushing its events into the parent
    /// recorder).
    /// Tests-only: `tests/trace_lifecycle.rs` checks with it that detaching flushes the track.
    pub fn detach_spans(&mut self) {
        self.spans = None;
    }

    /// Drains the local accumulators into the registry now. Call
    /// before reading the registry while the fabric is still live;
    /// dropping the fabric (or detaching) flushes automatically.
    // lint:hot-path
    pub fn flush(&mut self) {
        if let Some(a) = &mut self.inner {
            a.flush();
        }
    }

    // lint:hot-path
    fn expiry_and_update(a: &mut Attached, expired: u32) {
        a.d_expired += expired as u64;
        a.d_prio += u64::from(a.priority_update);
    }
}

impl FabricHooks for FabricTelemetry {
    /// Fills the `win_latency_cycles` column from the tracker, once
    /// attached.
    fn fill_win_latency(&self, qos: &mut QosSet) {
        if let Some(a) = &self.inner {
            for (slot, row) in qos.streams.iter_mut().enumerate() {
                if slot < a.win_latency.slots() {
                    row.win_latency_cycles = a.win_latency.snapshot(slot);
                }
            }
        }
    }

    /// Hook: a packet arrival was deposited into `slot`'s queue.
    /// Records a `FabricArrival` stage event when spans are live;
    /// otherwise a cheap branch.
    // lint:hot-path
    #[inline]
    fn on_arrival(&mut self, cycle: u64, slot: usize) {
        if let Some(sp) = &mut self.spans {
            let seq = sp.arrival_seq[slot];
            sp.arrival_seq[slot] = seq.wrapping_add(1);
            sp.track.record(
                TraceTag::new(sp.origin, slot as u16, seq).0,
                cycle,
                Stage::FabricArrival,
                0,
                slot as u32,
            );
        }
    }

    /// Hook: one decision cycle completed. Records one `DecisionWin` per
    /// block packet when spans are live, and the cycle's counters once
    /// attached.
    // lint:hot-path
    #[inline]
    fn on_decision(&mut self, cycle: u64, block: &[ScheduledPacket], expired: u32, batched: bool) {
        if let Some(sp) = &mut self.spans {
            let arm = if batched {
                detail::DECISION_BATCHED
            } else {
                detail::DECISION_SCALAR
            };
            // One timestamp for the whole block: a BA block transaction
            // is a single decision instant, and reading `rdtsc` per
            // packet would dominate the win loop it is observing.
            let tsc = sp.track.stamp();
            for p in block {
                let slot = p.slot.index();
                let seq = sp.win_seq[slot];
                sp.win_seq[slot] = seq.wrapping_add(1);
                sp.track.record_at(
                    tsc,
                    TraceTag::new(sp.origin, slot as u16, seq).0,
                    cycle,
                    Stage::DecisionWin,
                    arm,
                    slot as u32,
                );
            }
            sp.expiry_pass(cycle, expired);
        }
        let Some(a) = &mut self.inner else { return };
        a.d_decisions += 1;
        if block.is_empty() {
            a.d_idle += 1;
        } else {
            a.d_packets += block.len() as u64;
            // The circulated winner is the first packet in
            // transmission order.
            a.win_latency.record_win(block[0].slot.index(), cycle);
            if a.is_block {
                a.d_block_len.record(block.len() as u64);
            }
        }
        Self::expiry_and_update(a, expired);
        a.since_flush += 1;
        if a.since_flush >= FLUSH_EVERY {
            a.flush();
        }
    }

    /// Hook: one decision/expiry attempt was consumed by a fault (stuck
    /// FSM wedge or crash). Recorded on the span track only, as one
    /// control `DecisionStall` event — the injected/recovered totals
    /// live in the `ss-faults` counters, and a blocked cycle is not a
    /// *completed* decision, so the decision counters are left alone.
    // lint:hot-path
    #[inline]
    fn on_fault_stall(&mut self, cycle: u64, crashed: bool) {
        if let Some(sp) = &mut self.spans {
            sp.track.record(
                TraceTag::CONTROL.0,
                cycle,
                Stage::DecisionStall,
                u8::from(crashed),
                0,
            );
        }
    }

    /// Hook: one grant-less expiry cycle completed (the fabric lost the
    /// packet-time to another shard).
    // lint:hot-path
    #[inline]
    fn on_expire_cycle(&mut self, cycle: u64, expired: u32) {
        if let Some(sp) = &mut self.spans {
            sp.expiry_pass(cycle, expired);
        }
        let Some(a) = &mut self.inner else { return };
        a.d_decisions += 1;
        a.d_idle += 1;
        Self::expiry_and_update(a, expired);
        a.since_flush += 1;
        if a.since_flush >= FLUSH_EVERY {
            a.flush();
        }
    }
}

/// The supervisors' control-event sink ([`Traced`]'s supervisor state): an
/// optional span track (with per-slot win sequence numbers, so each
/// merge win carries a reconstructible [`TraceTag`]) and an optional
/// shared flight recorder. Detached by default — every hook is a cheap
/// branch until one is attached.
#[derive(Default)]
pub struct SupervisorTrace {
    spans: Option<(TrackRecorder, Vec<u32>)>,
    flight: Option<SharedFlightRecorder>,
}

impl SupervisorTrace {
    /// Opens a span track named `name` in `recorder`, with win
    /// sequence numbers for `slots` slots.
    pub fn attach_spans(&mut self, recorder: &SpanRecorder, name: &str, slots: usize) {
        self.spans = Some((recorder.track(name), vec![0; slots]));
    }

    /// Drops the span track (flushing it into its recorder's drain set).
    /// Tests-only: `tests/trace_lifecycle.rs` checks with it that detaching flushes the track.
    pub fn detach_spans(&mut self) {
        self.spans = None;
    }

    /// Records control events into (and takes incident dumps from)
    /// `flight` from now on.
    /// Tests-only: `tests/recovery.rs` checks the hand-over's flight dump with it.
    pub fn attach_flight(&mut self, flight: &SharedFlightRecorder) {
        self.flight = Some(flight.clone());
    }
}

impl SupervisorHooks for SupervisorTrace {
    /// Hook: `shard`'s proposal for global slot `slot` won the merge.
    /// One `MergeWin` on the span track: tag = (origin `shard`, `slot`,
    /// the slot's win count), detail = the deciding Table 2 rule or
    /// [`detail::MERGE_ONLY_CANDIDATE`] when nothing was compared.
    #[inline]
    fn on_merge_win(
        &mut self,
        cycle: u64,
        shard: usize,
        slot: usize,
        reason: Option<DecisionRule>,
    ) {
        if let Some((track, win_seq)) = &mut self.spans {
            let tag = TraceTag::new(shard as u16, slot as u16, win_seq[slot]).0;
            win_seq[slot] = win_seq[slot].wrapping_add(1);
            let why = reason.map_or(detail::MERGE_ONLY_CANDIDATE, |r| r as u8);
            track.record(tag, cycle, Stage::MergeWin, why, slot as u32);
        }
    }

    /// Hook: a shard switched between its card and the host (`failovers`
    /// so far). One control `Failover` (detail 1 = to the host, 0 =
    /// re-attach). The hand-over is the incident — the card crashed or the
    /// watchdog declared it stuck — and also dumps
    /// ([`DumpReason::WatchdogTrip`]); re-attachment is recovery and
    /// only leaves the event.
    fn on_path_switch(&mut self, now: u64, to_host: bool, failovers: u64) {
        if let Some(fl) = &self.flight {
            fl.record_control(
                now,
                0,
                Stage::Failover,
                to_host as u8,
                failovers.min(u32::MAX as u64) as u32,
            );
            if to_host {
                fl.auto_dump(DumpReason::WatchdogTrip, now);
            }
        }
    }
}

/// The sharded frontend's merge instrumentation ([`Traced`]'s merge
/// state): per-shard winner counters, an idle-cycle counter and the
/// merge-latency histogram, detached until [`MergeMetrics::attach`].
#[derive(Debug, Default)]
pub struct MergeMetrics {
    inner: Option<MergeAttached>,
}

#[derive(Debug)]
struct MergeAttached {
    shard_wins: Vec<Counter>,
    idle_cycles: Counter,
    merge_latency: Histogram,
}

impl MergeMetrics {
    /// Registers the frontend's series for `shards` shards.
    pub fn attach(&mut self, registry: &Registry, shards: usize) {
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
        self.inner = Some(MergeAttached {
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
}

/// `None` while detached, so the detached hot path never reads the clock.
impl MergeHooks for MergeMetrics {
    type Timer = Option<Instant>;

    #[inline]
    fn start(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    #[inline]
    fn record_merge(&self, started: Option<Instant>, winners: impl IntoIterator<Item = usize>) {
        let (Some(t0), Some(a)) = (started, &self.inner) else {
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
