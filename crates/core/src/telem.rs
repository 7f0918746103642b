//! Fabric instrumentation behind the `telemetry` cargo feature.
//!
//! With the feature **on**, [`FabricTelemetry`] holds handles into an
//! `ss-telemetry` [`Registry`](ss_telemetry::Registry), a per-slot
//! winner-selection-latency tracker, and — attached separately — a span
//! track of [`StageEvent`](ss_telemetry::StageEvent)s (arrivals, wins,
//! expiry passes, blocked cycles). With the feature **off**, the same type
//! is a zero-sized struct whose methods are inlined empty bodies — the hook
//! arguments are dead and the optimizer erases the call sites, so the
//! uninstrumented fabric is bit-for-bit the PR-1 zero-allocation core.
//!
//! The enabled hooks never allocate and touch no shared memory on the
//! per-decision path: observations accumulate in plain local counters and
//! [`LocalHistogram`](ss_telemetry::LocalHistogram)s, and drain into the
//! registry's striped atomics every [`FLUSH_EVERY`](enabled::FLUSH_EVERY)
//! decisions (and on drop / explicit flush). Registry readers on other
//! threads therefore lag the fabric by at most one flush window.
//!
//! [`SupervisorTrace`] is the same contract one level up: the handle the
//! sharded frontend and the failover supervisor hold for the control events
//! *they* leave — merge wins on a span track, breaker trips, ladder rung
//! changes and sheds, path switches in a flight recorder with its automatic
//! incident dumps. Zero-sized with empty hooks when the feature is off, so
//! those crates spell no `cfg` at their recording sites.

#[cfg(feature = "telemetry")]
mod enabled {
    use crate::decision::DecisionRule;
    use crate::fabric::ScheduledPacket;
    use ss_telemetry::span::detail;
    use ss_telemetry::{
        Counter, DumpReason, Histogram, LocalHistogram, QosSet, Registry, SharedFlightRecorder,
        SpanRecorder, Stage, TraceTag, TrackRecorder, WinLatencyTracker,
    };

    /// Decisions between automatic drains of the local accumulators into
    /// the registry. Chosen so the amortized flush cost disappears next to
    /// a 32-slot decision cycle while keeping cross-thread readers fresh.
    pub const FLUSH_EVERY: u32 = 4096;

    /// Live instrumentation for one fabric (`telemetry` feature on).
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
            let merged = self.win_latency.merged_local();
            if merged.count() > self.win_gap_base.count() {
                self.win_gap
                    .merge_cumulative_since(&merged, &self.win_gap_base);
                self.win_gap_base = merged;
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
        /// A detached telemetry slot: hooks are cheap branches until
        /// [`FabricTelemetry::attach`] wires in a registry.
        pub fn new() -> Self {
            Self::default()
        }

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
                since_flush: 0,
                win_latency: WinLatencyTracker::new(slots, start_cycle),
            });
        }

        /// `true` once attached to a registry.
        pub fn is_attached(&self) -> bool {
            self.inner.is_some()
        }

        /// Wires per-packet lifecycle recording into `recorder`: every
        /// fabric arrival and decision win is stamped with a
        /// [`TraceTag`] (origin = `origin`, per-slot sequence) on a
        /// fresh track named `name`. Orthogonal to
        /// [`FabricTelemetry::attach`] — either, both, or neither may
        /// be live.
        pub fn attach_spans(
            &mut self,
            recorder: &SpanRecorder,
            origin: u16,
            name: &str,
            slots: usize,
        ) {
            self.spans = Some(SpanState {
                origin,
                track: recorder.track(name),
                arrival_seq: vec![0; slots],
                win_seq: vec![0; slots],
            });
        }

        /// Drops the span track (flushing its events into the parent
        /// recorder).
        pub fn detach_spans(&mut self) {
            self.spans = None;
        }

        /// `true` while a span track is live.
        pub fn spans_attached(&self) -> bool {
            self.spans.is_some()
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

        /// Per-slot winner-selection-latency tracker, once attached.
        pub fn win_latency(&self) -> Option<&WinLatencyTracker> {
            self.inner.as_ref().map(|a| &a.win_latency)
        }

        /// Fills the `win_latency_cycles` column of a QoS report from the
        /// tracker (rows must be indexed by slot).
        pub fn fill_win_latency(&self, qos: &mut QosSet) {
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
        pub fn on_arrival(&mut self, cycle: u64, slot: usize) {
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

        /// Hook: one decision cycle completed. `block` is the transmitted
        /// packets in transmission order; `expired` counts loser slots whose
        /// head packet expired this cycle; `batched` says which arm (packed
        /// kernel vs scalar reference) produced the decision.
        // lint:hot-path
        #[inline]
        pub fn on_decision(
            &mut self,
            cycle: u64,
            block: &[ScheduledPacket],
            expired: u32,
            batched: bool,
        ) {
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
        pub fn on_fault_stall(&mut self, cycle: u64, crashed: bool) {
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
        pub fn on_expire_cycle(&mut self, cycle: u64, expired: u32) {
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

        // lint:hot-path
        fn expiry_and_update(a: &mut Attached, expired: u32) {
            a.d_expired += expired as u64;
            a.d_prio += u64::from(a.priority_update);
        }
    }
    /// The supervisors' control-event sink (`telemetry` feature on): an
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
        /// A detached sink: hooks record nothing.
        pub fn new() -> Self {
            Self::default()
        }

        /// Opens a span track named `name` in `recorder`, with win
        /// sequence numbers for `slots` slots.
        pub fn attach_spans(&mut self, recorder: &SpanRecorder, name: &str, slots: usize) {
            self.spans = Some((recorder.track(name), vec![0; slots]));
        }

        /// Drops the span track (flushing it into its recorder's drain set).
        pub fn detach_spans(&mut self) {
            self.spans = None;
        }

        /// Records control events into (and takes incident dumps from)
        /// `flight` from now on.
        pub fn attach_flight(&mut self, flight: &SharedFlightRecorder) {
            self.flight = Some(flight.clone());
        }

        /// Hook: `shard`'s proposal for global slot `slot` won the merge.
        /// One `MergeWin` on the span track: tag = (origin `shard`, `slot`,
        /// the slot's win count), detail = the deciding Table 2 rule or
        /// [`detail::MERGE_ONLY_CANDIDATE`] when nothing was compared.
        #[inline]
        pub fn on_merge_win(
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

        /// Hook: `shard`'s breaker just opened over `backlog` queued
        /// packets. A control `BreakerOpen` on the span track and in the
        /// flight recorder, which also snapshots the recent past
        /// ([`DumpReason::BreakerOpen`]).
        pub fn on_breaker_open(&mut self, cycle: u64, shard: usize, backlog: usize) {
            if let Some((track, _)) = &mut self.spans {
                track.record(
                    TraceTag::CONTROL.0,
                    cycle,
                    Stage::BreakerOpen,
                    shard as u8,
                    backlog as u32,
                );
            }
            if let Some(fl) = &self.flight {
                let track = self.spans.as_ref().map_or(0, |(track, _)| track.id());
                fl.record_control(
                    cycle,
                    track,
                    Stage::BreakerOpen,
                    shard as u8,
                    backlog as u32,
                );
                fl.auto_dump(DumpReason::BreakerOpen, cycle);
            }
        }

        /// Hook: the degradation ladder moved from rung code `before` to
        /// `after`. A control `RungChange` (detail = new, arg = old) and a
        /// [`DumpReason::RungChange`] dump.
        pub fn on_rung_change(&mut self, now: u64, after: u8, before: u8) {
            if let Some(fl) = &self.flight {
                fl.record_control(now, 0, Stage::RungChange, after, before as u32);
                fl.auto_dump(DumpReason::RungChange, now);
            }
        }

        /// Hook: the ladder refused an arrival for `slot`. A control `Shed`
        /// (detail [`detail::SHED_LADDER`], arg = slot).
        #[inline]
        pub fn on_ladder_shed(&mut self, now: u64, slot: usize) {
            if let Some(fl) = &self.flight {
                fl.record_control(now, 0, Stage::Shed, detail::SHED_LADDER, slot as u32);
            }
        }

        /// Hook: the supervisor switched scheduling paths (`failovers` so
        /// far). One control `Failover` (detail 1 = to software, 0 =
        /// re-attach). The hardware→software switch is the incident — the
        /// watchdog declared the fabric stuck — and also dumps
        /// ([`DumpReason::WatchdogTrip`]); re-attachment is recovery and
        /// only leaves the event.
        pub fn on_path_switch(&mut self, now: u64, to_software: bool, failovers: u64) {
            if let Some(fl) = &self.flight {
                fl.record_control(
                    now,
                    0,
                    Stage::Failover,
                    to_software as u8,
                    failovers.min(u32::MAX as u64) as u32,
                );
                if to_software {
                    fl.auto_dump(DumpReason::WatchdogTrip, now);
                }
            }
        }
    }
}

#[cfg(not(feature = "telemetry"))]
mod disabled {
    use crate::decision::DecisionRule;
    use crate::fabric::ScheduledPacket;

    /// Zero-sized stand-in compiled when the `telemetry` feature is off.
    /// Every hook is an inlined empty body, so instrumentation call sites
    /// vanish from the optimized decision core.
    #[derive(Debug, Default)]
    pub struct FabricTelemetry;

    impl FabricTelemetry {
        /// The zero-sized stand-in (mirrors the enabled constructor).
        pub fn new() -> Self {
            Self
        }

        /// Hook: a packet arrival was deposited (no-op).
        // lint:hot-path
        #[inline(always)]
        pub fn on_arrival(&mut self, _cycle: u64, _slot: usize) {}

        /// Hook: one decision cycle completed (no-op).
        // lint:hot-path
        #[inline(always)]
        pub fn on_decision(
            &mut self,
            _cycle: u64,
            _block: &[ScheduledPacket],
            _expired: u32,
            _batched: bool,
        ) {
        }

        /// Hook: one attempt consumed by a fault (no-op).
        // lint:hot-path
        #[inline(always)]
        pub fn on_fault_stall(&mut self, _cycle: u64, _crashed: bool) {}

        /// Hook: one grant-less expiry cycle completed (no-op).
        // lint:hot-path
        #[inline(always)]
        pub fn on_expire_cycle(&mut self, _cycle: u64, _expired: u32) {}
    }

    /// Zero-sized stand-in for the supervisors' control-event sink when
    /// the `telemetry` feature is off: every hook is an inlined empty body.
    #[derive(Default)]
    pub struct SupervisorTrace;

    impl SupervisorTrace {
        /// The zero-sized stand-in (mirrors the enabled constructor).
        pub fn new() -> Self {
            Self
        }

        /// Hook: a shard's proposal won the merge (no-op).
        #[inline(always)]
        pub fn on_merge_win(
            &mut self,
            _cycle: u64,
            _shard: usize,
            _slot: usize,
            _reason: Option<DecisionRule>,
        ) {
        }

        /// Hook: a shard's breaker opened (no-op).
        #[inline(always)]
        pub fn on_breaker_open(&mut self, _cycle: u64, _shard: usize, _backlog: usize) {}

        /// Hook: the degradation ladder changed rung (no-op).
        #[inline(always)]
        pub fn on_rung_change(&mut self, _now: u64, _after: u8, _before: u8) {}

        /// Hook: the ladder refused an arrival (no-op).
        #[inline(always)]
        pub fn on_ladder_shed(&mut self, _now: u64, _slot: usize) {}

        /// Hook: the supervisor switched scheduling paths (no-op).
        #[inline(always)]
        pub fn on_path_switch(&mut self, _now: u64, _to_software: bool, _failovers: u64) {}
    }
}

#[cfg(not(feature = "telemetry"))]
pub use disabled::{FabricTelemetry, SupervisorTrace};
#[cfg(feature = "telemetry")]
pub use enabled::{FabricTelemetry, SupervisorTrace};
