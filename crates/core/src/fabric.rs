//! The assembled scheduler fabric: the register file of N Register Base
//! blocks, N/2 Decision blocks, the recirculating network, and the Control
//! FSM.
//!
//! One [`Fabric::decision_cycle`] call is one hardware decision:
//!
//! * **WR (max-finding)** — the tournament selects the single winner, whose
//!   head packet occupies the next packet-time on the link; every other slot
//!   runs its deadline-expiry check ("streams with conflicting deadlines
//!   will increment their missed-deadline counters by one"). The cycle
//!   splits where the hardware splits it: [`Fabric::propose`] is the
//!   tournament, [`Fabric::grant`] the winner's transmission plus the
//!   losers' expiry; a sharded frontend that lets another shard transmit
//!   ends the cycle with [`Fabric::expire_cycle`] (the pass) instead.
//! * **BA (block)** — the shuffle-exchange produces a block; *all* queued
//!   head packets are transmitted back-to-back in block order in a single
//!   transaction (the paper's block-scheduling throughput factor). Each
//!   packet's met/missed verdict is taken against its own transmission
//!   completion time. In `MaxFirst` order the block transmits highest
//!   priority first; in `MinFirst` it transmits in reverse, and the
//!   lowest-priority stream's ID is the one circulated for PRIORITY_UPDATE.
//!
//! Scheduler time (`now`) advances in packet-times: +1 per WR decision, +k
//! per BA decision where k is the number of packets in the block
//! transaction. Hardware time advances log2(N) (+1 with priority update)
//! clock cycles per decision, exactly as the Control FSM sequences.
//!
//! A decision reads the slots' packed lane words in place from the
//! [`RegisterFile`], which keeps them current (there is no refresh step),
//! and a BA block is serviced by the file's own walk over the sorted lanes
//! ([`RegisterFile::service_block`]). [`Fabric::set_batched`]`(false)`
//! selects the `StreamAttrs` scalar reference arm, which unpacks the same
//! words at decision time.

use crate::control::ControlFsm;
use crate::decision::{DecisionBlock, RuleCounters};
use crate::hwsim::FabricConfigKind;
use crate::network;
use crate::register::{RegisterFile, SlotCounters, StreamState};
use crate::telem::{FabricHooks, FabricTelemetry, Telemetry, Traced};
use serde::{Deserialize, Serialize};
use ss_types::packed::{lane_slot, lane_valid, pack, unpack};
use ss_types::{
    ComparisonMode, Cycles, Error, Result, SlotId, StreamAttrs, WindowConstraint, Wrap16, MAX_SLOTS,
};

/// Which end of the block is circulated for PRIORITY_UPDATE, and the block
/// transmission order (paper Table 3 modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BlockOrder {
    /// Transmit highest-priority first; circulate the highest-priority ID.
    #[default]
    MaxFirst,
    /// Transmit lowest-priority first; circulate the lowest-priority ID.
    MinFirst,
}

/// Fabric configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Number of stream-slots (power of two, 2..=32).
    pub slots: usize,
    /// BA (block) or WR (winner-only) routing.
    pub kind: FabricConfigKind,
    /// Decision-block comparison mode.
    pub mode: ComparisonMode,
    /// Run the PRIORITY_UPDATE cycle each decision. Window-constrained
    /// disciplines need it; fair-queuing/priority-class bypass it.
    pub priority_update: bool,
    /// Block transmission/circulation order (BA only).
    pub block_order: BlockOrder,
    /// Compute-ahead Register Base blocks (the paper's §6 future-work
    /// extension): each slot precomputes both its winner-update and
    /// loser-update next states by predication during SCHEDULE, so the
    /// circulated winner ID merely selects one — the PRIORITY_UPDATE cycle
    /// folds into the last network cycle. Schedules are unchanged; a
    /// window-constrained decision costs log2(N) cycles instead of
    /// log2(N)+1, at extra register-block area and a small clock penalty
    /// (see the `hwsim::virtex` compute-ahead model).
    pub compute_ahead: bool,
}

impl FabricConfig {
    /// A DWCS fabric in the given routing configuration.
    pub fn dwcs(slots: usize, kind: FabricConfigKind) -> Self {
        Self {
            slots,
            kind,
            mode: ComparisonMode::Dwcs,
            priority_update: true,
            block_order: BlockOrder::MaxFirst,
            compute_ahead: false,
        }
    }

    /// An EDF-mode fabric (ShareStreams-DWCS "set in EDF mode", §5.1).
    pub fn edf(slots: usize, kind: FabricConfigKind) -> Self {
        Self {
            mode: ComparisonMode::Edf,
            ..Self::dwcs(slots, kind)
        }
    }

    /// A fair-queuing service-tag fabric: simple comparators, no
    /// PRIORITY_UPDATE cycle (paper §4.3).
    pub fn service_tag(slots: usize, kind: FabricConfigKind) -> Self {
        Self {
            mode: ComparisonMode::ServiceTag,
            priority_update: false,
            ..Self::dwcs(slots, kind)
        }
    }

    /// A static-priority fabric: no PRIORITY_UPDATE cycle.
    pub fn static_priority(slots: usize, kind: FabricConfigKind) -> Self {
        Self {
            mode: ComparisonMode::StaticPriority,
            priority_update: false,
            ..Self::dwcs(slots, kind)
        }
    }
}

/// Host-visible read-out of one stream-slot's register state (the card's
/// Register Base block as the host sees it). Produced by
/// [`Fabric::register_snapshot`]; deadlines are *wide* (u64) scheduler
/// time.
/// Tests-only: `tests/reconfiguration.rs` reads it to check §1's banked credit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterSnapshot {
    /// The bound stream's static configuration.
    pub state: StreamState,
    /// Deadline of the head request, in wide scheduler time.
    pub head_deadline: u64,
    /// The current (dynamic) window constraint `W'`.
    pub window: WindowConstraint,
    /// Queued packets waiting in this slot.
    pub backlog: usize,
}

/// One transmitted packet, as reported by a decision cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledPacket {
    /// Slot whose head packet was transmitted.
    pub slot: SlotId,
    /// The packet's deadline (wide scheduler time).
    pub deadline: u64,
    /// Transmission completion time (packet-times).
    pub completed_at: u64,
    /// `true` if the packet met its deadline.
    pub met: bool,
}

/// Result of one decision cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionOutcome {
    /// WR: the winner's packet (or `None` if no slot had a packet).
    Winner(Option<ScheduledPacket>),
    /// BA: the block transaction, in transmission order (possibly empty).
    Block(Vec<ScheduledPacket>),
}

impl DecisionOutcome {
    /// Packets transmitted this cycle.
    pub fn packets(&self) -> &[ScheduledPacket] {
        match self {
            DecisionOutcome::Winner(Some(p)) => std::slice::from_ref(p),
            DecisionOutcome::Winner(None) => &[],
            DecisionOutcome::Block(v) => v,
        }
    }
}

/// The assembled scheduler fabric, instrumented by `T`: `()` (the
/// default) records nothing and costs nothing, [`Traced`] carries the
/// attachable hooks ([`crate::telem`]).
pub struct Fabric<T: Telemetry = ()> {
    config: FabricConfig,
    /// Per-slot state and the always-current packed lane words the
    /// decision kernel reads in place.
    registers: RegisterFile,
    decisions: Vec<DecisionBlock>,
    fsm: ControlFsm,
    /// Scheduler time in packet-times.
    now: u64,
    decision_count: u64,
    /// Ping-pong lane scratch for the shuffle-exchange — inline, so the
    /// steady-state decision cycle never touches the heap (mirroring the
    /// fixed register files in hardware). The WR tournament needs
    /// neither: it reads the register words in place.
    lw_a: [u64; MAX_SLOTS],
    /// Ping-pong lane scratch (odd passes).
    lw_b: [u64; MAX_SLOTS],
    /// Rule firings from the packed kernel (the reference arm counts
    /// inside each [`DecisionBlock`]); [`Fabric::rule_counters`] merges
    /// both.
    batch_counters: RuleCounters,
    /// Reference-arm selector: `true` (the default, in every build) runs
    /// decisions through the packed kernel; `false` selects the
    /// `StreamAttrs` scalar path, the conformance harness's anchor.
    batched: bool,
    /// The reference arm's ping-pong scratch buffers, filled from the
    /// unpacked lane words at decision time.
    scratch_a: Vec<StreamAttrs>,
    scratch_b: Vec<StreamAttrs>,
    /// Persistent block-transaction buffer, reused every cycle: the first
    /// `block_len` entries are the most recent cycle's packets.
    block_buf: [ScheduledPacket; MAX_SLOTS],
    block_len: usize,
    /// Slots serviced in the most recent cycle (bit i = slot i; slots ≤ 32).
    serviced: u64,
    /// Instrumentation hooks — zero-sized for `T = ()`.
    telem: T::Fabric,
    /// Fault-injection state — detached (every cycle clean) until
    /// [`Fabric::attach_faults`] or [`Fabric::inject_crash`].
    faults: crate::faults::FabricFaults,
}

impl Fabric {
    /// Builds an uninstrumented fabric, validating the slot count.
    pub fn new(config: FabricConfig) -> Result<Self> {
        Self::with_telemetry(config)
    }
}

impl Fabric<Traced> {
    /// Attaches this fabric to a telemetry registry: metrics are published
    /// under a `shard="<shard>"` label. Every buffer is allocated here,
    /// once — the per-decision hooks stay allocation-free. Per-decision
    /// *events* are the span track's ([`Fabric::attach_spans`]).
    pub fn attach_telemetry(&mut self, registry: &ss_telemetry::Registry, shard: u16) {
        self.telem.attach(
            registry,
            shard,
            self.config.slots,
            self.decision_count,
            self.config.priority_update,
            matches!(self.config.kind, FabricConfigKind::Base),
        );
    }

    /// The fabric's instrumentation state (win-latency tracker).
    /// Tests-only: `tests/zero_alloc.rs` reads the attached registry through it.
    pub fn telemetry(&self) -> &FabricTelemetry {
        &self.telem
    }

    /// Wires per-packet lifecycle recording into `recorder`: every
    /// arrival deposit and decision win gets a stage event tagged
    /// `(origin, slot, per-slot seq)` on a fresh track named `name`, with
    /// the batched/scalar BA arm recorded in the event detail; expiry
    /// passes and blocked (wedged/crashed) cycles leave control events on
    /// the same track. Orthogonal to [`Fabric::attach_telemetry`].
    pub fn attach_spans(&mut self, recorder: &ss_telemetry::SpanRecorder, origin: u16, name: &str) {
        self.telem
            .attach_spans(recorder, origin, name, self.config.slots);
    }

    /// Drops the span track, flushing its events into the parent
    /// recorder (they become visible to `SpanRecorder::drain`).
    /// Tests-only: `tests/trace_lifecycle.rs` checks with it that detaching flushes the track.
    pub fn detach_spans(&mut self) {
        self.telem.detach_spans();
    }

    /// Drains telemetry's local accumulators into the registry now. The
    /// hooks batch observations locally and auto-flush every few thousand
    /// decisions (and on drop), so this is only needed before reading the
    /// registry while the fabric is mid-run.
    /// Tests-only: `tests/zero_alloc.rs` and the conformance harness (`tests/support/harness.rs`)
    /// flush with it before reading the registry.
    pub fn flush_telemetry(&mut self) {
        self.telem.flush();
    }
}

impl<T: Telemetry> Fabric<T> {
    /// Builds a fabric instrumented by `T` (detached), validating the slot
    /// count: `Fabric::<Traced>::with_telemetry`. [`Fabric::new`] is this
    /// for `()`.
    pub fn with_telemetry(config: FabricConfig) -> Result<Self> {
        if !(config.slots.is_power_of_two() && (2..=32).contains(&config.slots)) {
            return Err(Error::InvalidSlotCount(config.slots));
        }
        let schedule_cycles = config.slots.trailing_zeros() as u8;
        // Compute-ahead folds the update into the last schedule cycle: the
        // architectural effects are identical, only the cycle cost changes.
        let update_cycle = config.priority_update && !config.compute_ahead;
        let registers = RegisterFile::new(config.slots);
        let scratch: Vec<StreamAttrs> = (0..config.slots).map(|i| registers.attrs(i)).collect();
        Ok(Self {
            config,
            registers,
            decisions: (0..config.slots / 2)
                .map(|_| DecisionBlock::new())
                .collect(),
            fsm: ControlFsm::new(schedule_cycles, update_cycle),
            now: 0,
            decision_count: 0,
            lw_a: [0; MAX_SLOTS],
            lw_b: [0; MAX_SLOTS],
            batch_counters: RuleCounters::default(),
            batched: true,
            scratch_a: scratch.clone(),
            scratch_b: scratch,
            block_buf: [ScheduledPacket {
                slot: SlotId::new_unchecked(0),
                deadline: 0,
                completed_at: 0,
                met: false,
            }; MAX_SLOTS],
            block_len: 0,
            serviced: 0,
            telem: T::Fabric::default(),
            faults: crate::faults::FabricFaults::new(),
        })
    }

    /// Selects the decision arm: `true` (the default) is the packed
    /// kernel, `false` the `StreamAttrs` scalar reference. The two are
    /// bit-identical — packets, counters, rule firings, hardware cycles —
    /// and this selector exists so the conformance harness
    /// (`tests/conformance.rs`) and the benchmark's output check can run
    /// one against the other. Returns the effective state.
    pub fn set_batched(&mut self, on: bool) -> bool {
        self.batched = on;
        on
    }

    /// `true` while decisions route through the packed kernel.
    pub fn is_batched(&self) -> bool {
        self.batched
    }

    /// WR: transmits `slot`'s head packet in the packet-time ending at
    /// `t`; the slot records the win and the packet becomes the block.
    // lint:hot-path
    #[inline]
    fn transmit_winner(&mut self, slot: usize, t: u64) {
        // A valid circulated word always has a queued packet; `None` here
        // would be a decision/register desync. The hot path must not
        // panic, so release builds skip the slot this cycle.
        let Some((deadline, met)) = self.registers.service(slot, t) else {
            debug_assert!(false, "valid word has a queued packet");
            return;
        };
        self.registers.record_win(slot);
        self.block_buf[0] = ScheduledPacket {
            slot: SlotId::new_unchecked(slot as u8),
            deadline,
            completed_at: t,
            met,
        };
        self.block_len = 1;
        self.serviced = 1u64 << slot;
    }

    /// The scalar reference arm's input: every slot's lane word, unpacked
    /// into `scratch_a`.
    fn unpack_words(&mut self) {
        for (a, &w) in self.scratch_a.iter_mut().zip(self.registers.words()) {
            *a = unpack(w);
        }
    }

    /// PRIORITY_UPDATE for the losers: every slot not serviced this cycle
    /// runs its deadline-expiry check at time `t`. Returns how many
    /// recorded a miss.
    // lint:hot-path
    #[inline]
    fn expire_unserviced(&mut self, t: u64) -> u32 {
        let mut expired = 0;
        for i in 0..self.config.slots {
            if self.serviced & (1u64 << i) == 0 && self.registers.expiry_check(i, t) {
                expired += 1;
            }
        }
        expired
    }

    /// The configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Enables FSM timeline recording (Figure 6 traces).
    pub fn enable_timeline(&mut self) {
        self.fsm.enable_recording();
    }

    /// The Control FSM (timeline and cycle counts).
    pub fn fsm(&self) -> &ControlFsm {
        &self.fsm
    }

    /// Scheduler time in packet-times.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Decision cycles completed.
    pub fn decision_count(&self) -> u64 {
        self.decision_count
    }

    /// Hardware clock cycles consumed (LOAD + SCHEDULE + PRIORITY_UPDATE).
    pub fn hw_cycles(&self) -> Cycles {
        self.fsm.cycle()
    }

    fn check_slot(&self, slot: usize) -> Result<()> {
        if slot < self.config.slots {
            Ok(())
        } else {
            Err(Error::SlotOutOfRange {
                slot,
                slots: self.config.slots,
            })
        }
    }

    /// LOAD: binds a stream to `slot` with its first deadline (one hardware
    /// cycle per load, matching the register-file write port).
    pub fn load_stream(
        &mut self,
        slot: usize,
        state: StreamState,
        first_deadline: u64,
    ) -> Result<()> {
        self.check_slot(slot)?;
        if self.registers.is_configured(slot) {
            return Err(Error::SlotBusy(slot));
        }
        self.registers.load(slot, state, first_deadline);
        self.fsm.load(1);
        Ok(())
    }

    /// Unbinds `slot`.
    /// Tests-only: the conformance harness's churn classes (`tests/support/harness.rs`) and
    /// `tests/recovery.rs` unload streams with it.
    pub fn unload_stream(&mut self, slot: usize) -> Result<()> {
        self.check_slot(slot)?;
        self.registers.unload(slot);
        Ok(())
    }

    /// Deposits a packet arrival tag into `slot`'s queue. Idle slots with
    /// stale deadlines are re-anchored to the current scheduler time (see
    /// [`RegisterFile::push_arrival`]).
    // lint:hot-path
    #[inline]
    pub fn push_arrival(&mut self, slot: usize, arrival: Wrap16) -> Result<()> {
        self.check_slot(slot)?;
        self.registers.push_arrival(slot, arrival, self.now);
        self.telem.on_arrival(self.decision_count, slot);
        Ok(())
    }

    /// Batched arrival deposit: one bounds-checked pass over `(slot, tag)`
    /// pairs. Amortizes the per-call dispatch when an endsystem drains a
    /// whole ring of arrivals at once. Stops at the first invalid slot.
    // lint:hot-path
    pub fn push_arrivals(&mut self, arrivals: &[(usize, Wrap16)]) -> Result<()> {
        for &(slot, arrival) in arrivals {
            self.push_arrival(slot, arrival)?;
        }
        Ok(())
    }

    /// Per-slot performance counters.
    pub fn slot_counters(&self, slot: usize) -> Result<&SlotCounters> {
        self.check_slot(slot)?;
        Ok(self.registers.counters(slot))
    }

    /// Queue depth of `slot`.
    pub fn backlog(&self, slot: usize) -> Result<usize> {
        self.check_slot(slot)?;
        Ok(self.registers.backlog(slot))
    }

    /// Queue depth summed over every slot, recounted from the register
    /// file's `qlen` bank.
    // lint:hot-path
    #[inline]
    pub fn total_backlog(&self) -> usize {
        self.registers.total_backlog()
    }

    /// Reads `slot`'s register state: `Ok(None)` for an unconfigured slot,
    /// otherwise the bound stream's configuration, wide head deadline,
    /// current window constraint, and queue depth. Read-only — no counters
    /// move, no time advances — and it works even on a wedged or crashed
    /// fabric.
    /// Tests-only: `tests/reconfiguration.rs` reads it to check §1's banked credit.
    pub fn register_snapshot(&self, slot: usize) -> Result<Option<RegisterSnapshot>> {
        self.check_slot(slot)?;
        let r = &self.registers;
        Ok(r.state(slot).map(|state| RegisterSnapshot {
            state,
            head_deadline: r.head_deadline(slot),
            window: r.current_window(slot),
            backlog: r.backlog(slot),
        }))
    }

    /// Rule-firing counters merged across all Decision blocks, plus any
    /// firings recorded by the batched kernel (which counts centrally
    /// instead of per block).
    pub fn rule_counters(&self) -> RuleCounters {
        let mut total = RuleCounters::default();
        for d in &self.decisions {
            total.merge(d.counters());
        }
        total.merge(&self.batch_counters);
        total
    }

    /// The zero-allocation decision core: runs one decision and leaves the
    /// transmitted packets (in transmission order) in the persistent
    /// `block_buf`. Steady state touches only the inline scratch buffers
    /// and the register banks — no heap traffic per cycle. The WR arm is
    /// [`Fabric::propose`] then the grant, so a fabric driven by whole
    /// cycles and one driven by `propose` → `grant` run the same code.
    // lint:hot-path
    fn decision_cycle_core(&mut self) {
        if self.faults.begin_cycle() {
            self.blocked_cycle();
            return;
        }
        match self.config.kind {
            FabricConfigKind::WinnerOnly => {
                let word = self.propose();
                self.grant_tail(word);
            }
            FabricConfigKind::Base => self.block_cycle(),
        }
    }

    /// WR, first half: this cycle's tournament over the slots' lane words,
    /// counted in [`Fabric::rule_counters`], on whichever arm is selected.
    /// Returns the winning packed lane word ([`ss_types::packed`]; invalid
    /// when nothing is queued) and changes nothing else — no service, no
    /// time advance. The cycle is then finished by exactly one of
    /// [`Fabric::grant`] (this fabric transmits its winner) or
    /// [`Fabric::expire_cycle`] (the pass: another shard's word won the
    /// merge), with no arrival, load or unload in between. Equal to
    /// [`Fabric::peek_winner`] at all times — the tournament and the
    /// min-reduction agree because the rule chain is a total order.
    // lint:hot-path
    #[inline]
    pub fn propose(&mut self) -> u64 {
        let mode = self.config.mode;
        if self.batched {
            network::wr_decision_words(
                &self.registers.words()[..self.config.slots],
                mode,
                &mut self.batch_counters,
            )
        } else {
            self.unpack_words();
            let (winner, _) =
                network::wr_decision_in_place(&mut self.scratch_a, &mut self.decisions, mode);
            pack(&winner)
        }
    }

    /// WR, second half: finishes the cycle [`Fabric::propose`] opened by
    /// transmitting `word`'s slot in the packet-time that now elapses (an
    /// idle one for an invalid word), while every other slot runs its
    /// deadline-expiry check. `word` must be this cycle's proposal.
    /// Returns the transmitted packet, as [`Fabric::decision_cycle_into`]
    /// does; `propose` → `grant` *is* that call on a WR fabric.
    // lint:hot-path
    pub fn grant(&mut self, word: u64) -> &[ScheduledPacket] {
        debug_assert_eq!(self.config.kind, FabricConfigKind::WinnerOnly);
        debug_assert_eq!(
            word,
            self.peek_winner(),
            "granted word is not this cycle's proposal"
        );
        if self.faults.begin_cycle() {
            self.blocked_cycle();
        } else {
            self.grant_tail(word);
        }
        self.last_block()
    }

    /// The grant on a clean (unblocked) cycle.
    // lint:hot-path
    #[inline(always)]
    fn grant_tail(&mut self, word: u64) {
        self.fsm.run_decision();
        self.decision_count += 1;
        self.block_len = 0;
        self.serviced = 0;
        let t = self.now + 1; // the winner's packet-time, or an idle one
        if lane_valid(word) {
            self.transmit_winner(lane_slot(word), t);
        }
        let expired = if self.config.priority_update {
            self.expire_unserviced(t)
        } else {
            0
        };
        self.now = t;
        self.telem.on_decision(
            self.decision_count,
            &self.block_buf[..self.block_len],
            expired,
            self.batched,
        );
    }

    /// One BA decision on a clean cycle: the shuffle-exchange block, then
    /// the block transaction. (Its clock-and-telemetry tail is spelled out
    /// here and in `grant_tail`: shared through a helper, pinned
    /// `fabric_block` read −0.9 %, 6 of 8 pairs.)
    // lint:hot-path
    #[inline(always)]
    fn block_cycle(&mut self) {
        self.fsm.run_decision();
        self.decision_count += 1;
        let mut expired = 0u32;
        let mode = self.config.mode;
        let n = self.config.slots;
        let mut t = self.now;
        // The block transaction carries only occupied slots, in
        // transmission order: MaxFirst walks the block forward, MinFirst
        // backward. The circulated winner — the first occupied slot in
        // transmission order — records the win.
        let max_first = matches!(self.config.block_order, BlockOrder::MaxFirst);
        let in_a = if self.batched {
            // The first pass reads the register file's words in place, so
            // steady state never copies them.
            network::ba_decision_from_planes(
                &self.registers.words()[..n],
                &mut self.lw_a[..n],
                &mut self.lw_b[..n],
                mode,
                &mut self.batch_counters,
            )
        } else {
            self.unpack_words();
            let (in_a, _) = network::ba_decision_ping_pong(
                &mut self.scratch_a,
                &mut self.scratch_b,
                &mut self.decisions,
                mode,
            );
            // The reference arm's sorted words go through the same block
            // service, as lane words in `lw_a`.
            let sorted = if in_a {
                &self.scratch_a
            } else {
                &self.scratch_b
            };
            for (lane, w) in self.lw_a.iter_mut().zip(sorted) {
                *lane = pack(w);
            }
            true
        };
        let lanes = if in_a { &self.lw_a } else { &self.lw_b };
        (self.block_len, self.serviced) =
            self.registers
                .service_block(&lanes[..n], max_first, t, &mut self.block_buf);
        // An empty block still costs an idle packet-time.
        t += (self.block_len as u64).max(1);
        // A fully-serviced block has no losers left to expire: every
        // serviced slot skips the check anyway, so the whole
        // PRIORITY_UPDATE sweep can be elided (the common case for
        // saturated BA fabrics).
        if self.config.priority_update && self.serviced != (1u64 << n) - 1 {
            expired = self.expire_unserviced(t);
        }
        self.now = t;
        self.telem.on_decision(
            self.decision_count,
            &self.block_buf[..self.block_len],
            expired,
            self.batched,
        );
    }

    /// Runs one decision cycle. See the module docs for the exact
    /// WR/BA semantics.
    pub fn decision_cycle(&mut self) -> DecisionOutcome {
        self.decision_cycle_core();
        match self.config.kind {
            FabricConfigKind::WinnerOnly => {
                DecisionOutcome::Winner(self.last_block().first().copied())
            }
            FabricConfigKind::Base => DecisionOutcome::Block(self.last_block().to_vec()),
        }
    }

    /// Runs one decision cycle without allocating, returning a view of the
    /// transmitted packets (in transmission order) in the fabric's
    /// persistent block buffer. For WR the slice holds at most one packet.
    /// The slice is invalidated by the next decision cycle.
    // lint:hot-path
    pub fn decision_cycle_into(&mut self) -> &[ScheduledPacket] {
        self.decision_cycle_core();
        self.last_block()
    }

    /// The packets transmitted by the most recent decision cycle.
    // lint:hot-path
    #[inline]
    pub fn last_block(&self) -> &[ScheduledPacket] {
        &self.block_buf[..self.block_len]
    }

    /// Runs `n` decision cycles back-to-back, appending every transmitted
    /// packet to `sink` in transmission order. Returns the number of packets
    /// appended. With a sink of sufficient capacity the whole batch is
    /// allocation-free; the FSM dispatch and bounds checks are amortized
    /// across the batch.
    // lint:hot-path
    pub fn decision_cycles(&mut self, n: u64, sink: &mut Vec<ScheduledPacket>) -> usize {
        let mut appended = 0;
        for _ in 0..n {
            self.decision_cycle_core();
            sink.extend_from_slice(self.last_block());
            appended += self.block_len;
        }
        appended
    }

    /// Per-stream QoS accounting (the paper's Table 3 quantities) in the
    /// shared `ss-telemetry` schema. Winner-selection-latency histograms
    /// are filled when a `Traced` fabric's registry is attached, empty
    /// otherwise.
    pub fn qos_snapshot(&self) -> ss_telemetry::QosSet {
        let mut set = ss_telemetry::QosSet {
            decision_cycles: self.decision_count,
            streams: (0..self.config.slots)
                .map(|i| {
                    let c = self.registers.counters(i);
                    ss_telemetry::StreamQos {
                        slot: i as u8,
                        serviced: c.serviced,
                        met_deadlines: c.met_deadlines,
                        missed_deadlines: c.missed_deadlines,
                        violations: c.violations,
                        dropped: c.dropped,
                        wins: c.wins,
                        window_resets: c.window_resets,
                        win_latency_cycles: ss_telemetry::HistogramSnapshot::default(),
                    }
                })
                .collect(),
        };
        self.telem.fill_win_latency(&mut set);
        set
    }

    /// Computes what the WR tournament would select right now, with no side
    /// effects: no service, no counters, no time advance. A min-reduction
    /// under the lane comparator is equivalent to the tournament because
    /// the Table 2 rule chain with the slot tie-break is a total order.
    /// Reads the register file's lane words — current whatever arrivals,
    /// services or expiries came since the last cycle — and returns the
    /// winning packed lane word ([`ss_types::packed`]; invalid when nothing
    /// is queued). A read-only diagnostic and the oracle [`Fabric::propose`]
    /// is tested (and, in debug builds, [`Fabric::grant`] is checked)
    /// against; no decision path calls it.
    pub fn peek_winner(&self) -> u64 {
        let mode = self.config.mode;
        let words = &self.registers.words()[..self.config.slots];
        let mut best = words[0];
        for &w in &words[1..] {
            if crate::decision::lane_order(w, best, mode).0 {
                best = w;
            }
        }
        best
    }

    /// Advances one packet-time without a transmission grant — the *pass*
    /// that ends a cycle whose [`Fabric::propose`] lost the merge (or that
    /// proposed nothing at all): every slot runs the deadline-expiry check
    /// that losers receive, exactly as if another stream (on another
    /// shard) had won this packet-time. The shuffle-exchange still clocks
    /// (the FSM advances), but nothing is serviced and the block buffer is
    /// left empty.
    // lint:hot-path
    pub fn expire_cycle(&mut self) {
        if self.faults.begin_cycle() {
            self.blocked_cycle();
            return;
        }
        self.fsm.run_decision();
        self.decision_count += 1;
        self.block_len = 0;
        self.serviced = 0;
        self.now += 1;
        let expired = if self.config.priority_update {
            self.expire_unserviced(self.now)
        } else {
            0
        };
        self.telem.on_expire_cycle(self.decision_count, expired);
    }

    /// A blocked (wedged or crashed) cycle: the packet-time elapses, the
    /// attempt is counted, but the FSM does not clock and no register
    /// state — service, expiry, priority update — changes. This is what a
    /// stuck SCHEDULE↔PRIORITY_UPDATE loop looks like from outside: time
    /// passes, nothing is scheduled.
    // lint:hot-path
    fn blocked_cycle(&mut self) {
        self.decision_count += 1;
        self.block_len = 0;
        self.serviced = 0;
        self.now += 1;
        self.telem
            .on_fault_stall(self.decision_count, self.faults.crashed());
    }

    /// `true` once the fabric has been crashed (permanently blocked).
    pub fn is_crashed(&self) -> bool {
        self.faults.crashed()
    }

    /// Wires this fabric to a shared fault injector: each decision/expiry
    /// cycle samples the injector's decision-cycle stream and may wedge or
    /// stay blocked per the seeded schedule.
    pub fn attach_faults(&mut self, injector: std::sync::Arc<ss_faults::FaultInjector>) {
        self.faults.attach(injector);
    }

    /// Permanently blocks this fabric, as a shard-crash fault does.
    pub fn inject_crash(&mut self) {
        self.faults.crash();
    }

    /// The hand-over to the host: clears any wedge or crash and drops the
    /// injector, because a host path draws no card faults. The register
    /// image — clock, heads, windows, queues, counters — is untouched, so
    /// the host decides on exactly the state the card held.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }
}

impl<T: Telemetry> std::fmt::Debug for Fabric<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("config", &self.config)
            .field("now", &self.now)
            .field("decision_count", &self.decision_count)
            .field("hw_cycles", &self.fsm.cycle())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::register::LatePolicy;
    use ss_types::WindowConstraint;

    fn edf_state(period: u64) -> StreamState {
        StreamState {
            request_period: period,
            original_window: WindowConstraint::ZERO,
            static_prio: 0,
            late_policy: LatePolicy::ServeLate,
        }
    }

    /// Loads `n` always-backlogged EDF streams with deadlines 1..=n.
    fn backlogged_edf(slots: usize, kind: FabricConfigKind, arrivals_per_stream: usize) -> Fabric {
        backlogged(slots, kind, arrivals_per_stream)
    }

    fn backlogged<T: Telemetry>(
        slots: usize,
        kind: FabricConfigKind,
        arrivals_per_stream: usize,
    ) -> Fabric<T> {
        let mut f = Fabric::with_telemetry(FabricConfig::edf(slots, kind)).unwrap();
        for s in 0..slots {
            f.load_stream(s, edf_state(1), (s + 1) as u64).unwrap();
            for a in 0..arrivals_per_stream {
                f.push_arrival(s, Wrap16::from_wide(a as u64)).unwrap();
            }
        }
        f
    }

    #[test]
    fn invalid_slot_count_rejected() {
        assert!(Fabric::new(FabricConfig::edf(6, FabricConfigKind::Base)).is_err());
        assert!(Fabric::new(FabricConfig::edf(64, FabricConfigKind::Base)).is_err());
    }

    #[test]
    fn double_load_rejected() {
        let mut f = Fabric::new(FabricConfig::edf(4, FabricConfigKind::Base)).unwrap();
        f.load_stream(0, edf_state(1), 1).unwrap();
        assert_eq!(f.load_stream(0, edf_state(1), 1), Err(Error::SlotBusy(0)));
    }

    #[test]
    fn out_of_range_slot_rejected() {
        let mut f = Fabric::new(FabricConfig::edf(4, FabricConfigKind::Base)).unwrap();
        assert!(matches!(
            f.load_stream(4, edf_state(1), 1),
            Err(Error::SlotOutOfRange { slot: 4, slots: 4 })
        ));
        assert!(f.push_arrival(9, Wrap16(0)).is_err());
        assert!(f.slot_counters(4).is_err());
    }

    #[test]
    fn wr_picks_earliest_deadline() {
        let mut f = backlogged_edf(4, FabricConfigKind::WinnerOnly, 4);
        let out = f.decision_cycle();
        match out {
            DecisionOutcome::Winner(Some(p)) => {
                assert_eq!(p.slot.index(), 0, "slot 0 has deadline 1");
                assert_eq!(p.deadline, 1);
                assert_eq!(p.completed_at, 1);
                assert!(p.met);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(f.now(), 1);
    }

    #[test]
    fn wr_idle_when_no_packets() {
        let mut f = Fabric::new(FabricConfig::edf(4, FabricConfigKind::WinnerOnly)).unwrap();
        f.load_stream(0, edf_state(1), 1).unwrap();
        let out = f.decision_cycle();
        assert_eq!(out, DecisionOutcome::Winner(None));
        assert_eq!(out.packets().len(), 0);
        assert_eq!(f.now(), 1, "idle packet-time still elapses");
    }

    #[test]
    fn wr_losers_accumulate_misses() {
        let mut f = backlogged_edf(4, FabricConfigKind::WinnerOnly, 100);
        for _ in 0..40 {
            f.decision_cycle();
        }
        // With T=1 and 4 always-backlogged streams, capacity is 1/4 of
        // demand: every stream accumulates roughly one miss per cycle in
        // steady state (winner late-services + loser expiries).
        let total_misses: u64 = (0..4)
            .map(|s| f.slot_counters(s).unwrap().missed_deadlines)
            .sum();
        assert!(total_misses > 120, "misses {total_misses}");
        let total_wins: u64 = (0..4).map(|s| f.slot_counters(s).unwrap().wins).sum();
        assert_eq!(total_wins, 40);
    }

    #[test]
    fn ba_block_transmits_all_backlogged_slots() {
        let mut f = backlogged_edf(4, FabricConfigKind::Base, 4);
        let out = f.decision_cycle();
        let packets = out.packets().to_vec();
        assert_eq!(packets.len(), 4);
        // Max-first order: deadlines 1,2,3,4 transmitted in order, each
        // completing exactly at its deadline → all met.
        for (i, p) in packets.iter().enumerate() {
            assert_eq!(p.completed_at, (i + 1) as u64);
            assert_eq!(p.deadline, (i + 1) as u64);
            assert!(p.met);
        }
        assert_eq!(f.now(), 4);
    }

    #[test]
    fn ba_min_first_reverses_transmission() {
        let mut f = Fabric::new(FabricConfig {
            block_order: BlockOrder::MinFirst,
            ..FabricConfig::edf(4, FabricConfigKind::Base)
        })
        .unwrap();
        for s in 0..4 {
            f.load_stream(s, edf_state(4), (s + 1) as u64).unwrap();
            for a in 0..4 {
                f.push_arrival(s, Wrap16(a)).unwrap();
            }
        }
        let out = f.decision_cycle();
        let packets = out.packets().to_vec();
        assert_eq!(packets.len(), 4);
        // Reverse order: latest deadline (4) goes first and meets; the two
        // earliest-deadline packets are late.
        assert_eq!(packets[0].deadline, 4);
        assert!(packets[0].met);
        assert_eq!(packets[3].deadline, 1);
        assert!(!packets[3].met);
        let met_count = packets.iter().filter(|p| p.met).count();
        assert_eq!(met_count, 2);
    }

    #[test]
    fn ba_partial_block_skips_empty_slots() {
        let mut f = Fabric::new(FabricConfig::edf(4, FabricConfigKind::Base)).unwrap();
        for s in 0..4 {
            f.load_stream(s, edf_state(2), (s + 1) as u64).unwrap();
        }
        f.push_arrival(1, Wrap16(0)).unwrap();
        f.push_arrival(3, Wrap16(0)).unwrap();
        let out = f.decision_cycle();
        let packets = out.packets().to_vec();
        assert_eq!(packets.len(), 2, "only occupied slots transmit");
        assert_eq!(f.now(), 2, "block transaction spans 2 packet-times");
        assert_eq!(
            packets[0].slot.index(),
            1,
            "earliest occupied deadline first"
        );
    }

    #[test]
    fn ba_idle_cycle_advances_time() {
        let mut f = Fabric::new(FabricConfig::edf(4, FabricConfigKind::Base)).unwrap();
        f.load_stream(0, edf_state(1), 1).unwrap();
        let out = f.decision_cycle();
        assert_eq!(out.packets().len(), 0);
        assert_eq!(f.now(), 1);
    }

    #[test]
    fn hw_cycle_accounting() {
        // 4 slots EDF (priority update on): 1 LOAD cycle per stream + 3
        // cycles per decision (2 schedule + 1 update).
        let mut f = backlogged_edf(4, FabricConfigKind::WinnerOnly, 2);
        assert_eq!(f.hw_cycles(), 4, "four LOAD cycles");
        f.decision_cycle();
        assert_eq!(f.hw_cycles(), 7);
        f.decision_cycle();
        assert_eq!(f.hw_cycles(), 10);
        assert_eq!(f.decision_count(), 2);
    }

    #[test]
    fn service_tag_mode_skips_update_cycle() {
        let mut f = Fabric::new(FabricConfig::service_tag(4, FabricConfigKind::Base)).unwrap();
        for s in 0..4 {
            f.load_stream(s, edf_state(1), (s + 1) as u64).unwrap();
            f.push_arrival(s, Wrap16(0)).unwrap();
        }
        let before = f.hw_cycles();
        f.decision_cycle();
        assert_eq!(f.hw_cycles() - before, 2, "log2(4) cycles, no update");
    }

    #[test]
    fn static_priority_mode_orders_by_level() {
        let mut f = Fabric::new(FabricConfig::static_priority(
            4,
            FabricConfigKind::WinnerOnly,
        ))
        .unwrap();
        for (s, prio) in [(0usize, 9u8), (1, 2), (2, 5), (3, 7)] {
            let st = StreamState {
                request_period: 1,
                original_window: WindowConstraint::new(1, 1),
                static_prio: prio,
                late_policy: LatePolicy::ServeLate,
            };
            f.load_stream(s, st, 100).unwrap();
            f.push_arrival(s, Wrap16(0)).unwrap();
        }
        match f.decision_cycle() {
            DecisionOutcome::Winner(Some(p)) => assert_eq!(p.slot.index(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rule_counters_accumulate_across_blocks() {
        let mut f = backlogged_edf(8, FabricConfigKind::Base, 4);
        f.decision_cycle();
        let rc = f.rule_counters();
        // 3 passes × 4 decision blocks = 12 comparisons.
        assert_eq!(rc.total(), 12);
        assert!(rc.earliest_deadline > 0);
    }

    #[test]
    fn batched_cycles_match_legacy_ba() {
        let mut legacy = backlogged_edf(8, FabricConfigKind::Base, 16);
        let mut batched = backlogged_edf(8, FabricConfigKind::Base, 16);
        let mut expected = Vec::new();
        for _ in 0..6 {
            expected.extend_from_slice(legacy.decision_cycle().packets());
        }
        let mut sink = Vec::new();
        let appended = batched.decision_cycles(6, &mut sink);
        assert_eq!(appended, sink.len());
        assert_eq!(sink, expected);
        assert_eq!(batched.now(), legacy.now());
        assert_eq!(batched.decision_count(), legacy.decision_count());
    }

    #[test]
    fn batched_cycles_match_legacy_wr() {
        let mut legacy = backlogged_edf(4, FabricConfigKind::WinnerOnly, 16);
        let mut batched = backlogged_edf(4, FabricConfigKind::WinnerOnly, 16);
        let mut expected = Vec::new();
        for _ in 0..10 {
            expected.extend_from_slice(legacy.decision_cycle().packets());
        }
        let mut sink = Vec::new();
        batched.decision_cycles(10, &mut sink);
        assert_eq!(sink, expected);
        for s in 0..4 {
            assert_eq!(
                batched.slot_counters(s).unwrap(),
                legacy.slot_counters(s).unwrap()
            );
        }
    }

    #[test]
    fn decision_cycle_into_matches_packets_view() {
        let mut a = backlogged_edf(8, FabricConfigKind::Base, 4);
        let mut b = backlogged_edf(8, FabricConfigKind::Base, 4);
        let out = a.decision_cycle();
        let view = b.decision_cycle_into().to_vec();
        assert_eq!(view, out.packets());
        assert_eq!(b.last_block(), out.packets());
    }

    #[test]
    fn push_arrivals_batch_equals_singles() {
        let mut single = Fabric::new(FabricConfig::edf(4, FabricConfigKind::Base)).unwrap();
        let mut batch = Fabric::new(FabricConfig::edf(4, FabricConfigKind::Base)).unwrap();
        for s in 0..4 {
            single.load_stream(s, edf_state(2), (s + 1) as u64).unwrap();
            batch.load_stream(s, edf_state(2), (s + 1) as u64).unwrap();
        }
        let arrivals: Vec<(usize, Wrap16)> = (0..8)
            .map(|i| (i % 4, Wrap16::from_wide(i as u64)))
            .collect();
        for &(s, a) in &arrivals {
            single.push_arrival(s, a).unwrap();
        }
        batch.push_arrivals(&arrivals).unwrap();
        for s in 0..4 {
            assert_eq!(batch.backlog(s).unwrap(), single.backlog(s).unwrap());
        }
        assert_eq!(single.decision_cycle(), batch.decision_cycle());
        // Out-of-range slot anywhere in the batch is rejected.
        assert!(batch
            .push_arrivals(&[(0, Wrap16(0)), (9, Wrap16(0))])
            .is_err());
    }

    /// Detaches the span track and returns its events (the fabric's is
    /// the recorder's only track).
    fn drained_events(
        f: &mut Fabric<Traced>,
        recorder: &ss_telemetry::SpanRecorder,
    ) -> Vec<ss_telemetry::StageEvent> {
        f.detach_spans();
        let mut tracks = recorder.drain();
        assert_eq!(tracks.len(), 1);
        let track = tracks.remove(0);
        assert_eq!(track.dropped, 0, "window holds the whole run");
        assert!(track.events.iter().all(|e| e.track == track.track));
        track.events
    }

    fn metric<'a>(
        snap: &'a ss_telemetry::Snapshot,
        name: &str,
    ) -> &'a ss_telemetry::MetricSnapshot {
        snap.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
    }

    fn counter(snap: &ss_telemetry::Snapshot, name: &str) -> u64 {
        match metric(snap, name).value {
            ss_telemetry::MetricValue::Counter(c) => c,
            ref other => panic!("{name}: unexpected {other:?}"),
        }
    }

    #[test]
    fn telemetry_counts_decisions_and_traces() {
        use ss_telemetry::span::detail;
        use ss_telemetry::{MetricValue, Registry, SpanRecorder, Stage};
        let registry = Registry::new();
        let recorder = SpanRecorder::new(256);
        let mut f = backlogged::<Traced>(4, FabricConfigKind::WinnerOnly, 8);
        f.attach_telemetry(&registry, 3);
        f.attach_spans(&recorder, 3, "fabric");
        for _ in 0..8 {
            f.decision_cycle();
        }
        f.expire_cycle();
        // Observations batch locally until the flush window or drop; force
        // a drain so the registry reflects this mid-run fabric.
        f.flush_telemetry();
        let snap = registry.snapshot();
        let decisions = metric(&snap, "ss_fabric_decision_cycles_total");
        assert_eq!(decisions.labels, vec![("shard".into(), "3".into())]);
        assert_eq!(decisions.value, MetricValue::Counter(9));
        assert_eq!(
            counter(&snap, "ss_fabric_packets_total"),
            8,
            "every WR cycle transmitted one packet"
        );
        assert_eq!(
            counter(&snap, "ss_fabric_idle_cycles_total"),
            1,
            "only the grant-less expiry cycle transmitted nothing"
        );
        assert_eq!(
            counter(&snap, "ss_fabric_priority_updates_total"),
            9,
            "EDF runs PRIORITY_UPDATE every cycle"
        );
        // Always-backlogged losers expire every cycle.
        let expired = counter(&snap, "ss_fabric_expired_slots_total");
        assert!(expired > 0);
        match &metric(&snap, "ss_fabric_win_gap_cycles").value {
            MetricValue::Histogram(h) => assert_eq!(h.count, 8),
            other => panic!("unexpected {other:?}"),
        }

        // The span track holds the same run as events: one `DecisionWin`
        // per transmitted packet, tagged with this shard, and one
        // `DecisionExpire` per expiry pass that dropped something.
        let events = drained_events(&mut f, &recorder);
        let wins: Vec<_> = events
            .iter()
            .filter(|e| e.stage == Stage::DecisionWin)
            .collect();
        assert_eq!(wins.len(), 8);
        for (i, w) in wins.iter().enumerate() {
            assert_eq!(w.cycle, i as u64 + 1, "one win per decision cycle");
            assert_eq!(w.trace_tag().origin(), 3);
            assert_eq!(w.trace_tag().slot() as u32, w.arg);
            assert_eq!(w.detail, detail::DECISION_BATCHED);
        }
        let expired_events: u64 = events
            .iter()
            .filter(|e| e.stage == Stage::DecisionExpire)
            .map(|e| {
                assert!(e.trace_tag().is_control());
                u64::from(e.arg)
            })
            .sum();
        assert_eq!(expired_events, expired);

        let qos = f.qos_snapshot();
        assert_eq!(qos.decision_cycles, 9);
        assert_eq!(qos.streams.len(), 4);
        let total_wins: u64 = qos.streams.iter().map(|s| s.wins).sum();
        assert_eq!(total_wins, 8);
        let tracked: u64 = qos.streams.iter().map(|s| s.win_latency_cycles.count).sum();
        assert_eq!(tracked, 8, "every win recorded a latency gap");
    }

    #[test]
    fn telemetry_ba_records_block_lengths() {
        use ss_telemetry::{MetricValue, Registry, SpanRecorder, Stage};
        let registry = Registry::new();
        let recorder = SpanRecorder::new(64);
        let mut f = backlogged::<Traced>(4, FabricConfigKind::Base, 2);
        f.attach_telemetry(&registry, 0);
        f.attach_spans(&recorder, 0, "fabric");
        f.decision_cycle(); // full block of 4
        f.decision_cycle(); // full block of 4
        f.decision_cycle(); // empty → idle
        f.flush_telemetry();
        let snap = registry.snapshot();
        match &metric(&snap, "ss_fabric_block_len_packets").value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.min, Some(4));
                assert_eq!(h.max, Some(4));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(counter(&snap, "ss_fabric_packets_total"), 8);
        assert_eq!(counter(&snap, "ss_fabric_idle_cycles_total"), 1);

        // Each block is one decision instant: its four wins share a
        // timestamp; the idle third cycle leaves no event at all.
        let events = drained_events(&mut f, &recorder);
        let wins: Vec<_> = events
            .iter()
            .filter(|e| e.stage == Stage::DecisionWin)
            .collect();
        assert_eq!(wins.len(), 8, "one win per transmitted packet");
        for (block, cycle) in wins.chunks(4).zip(1u64..) {
            assert!(block.iter().all(|w| w.cycle == cycle));
            assert!(block.iter().all(|w| w.tsc == block[0].tsc));
            assert!(block.iter().all(|w| w.trace_tag().origin() == 0));
        }
        assert!(events.iter().all(|e| e.cycle < 3));
    }

    #[test]
    fn blocked_cycles_leave_one_stall_event_each() {
        use ss_faults::{FaultConfig, FaultInjector};
        use ss_telemetry::{SpanRecorder, Stage};
        use std::sync::Arc;
        let recorder = SpanRecorder::new(64);
        let mut f = backlogged::<Traced>(4, FabricConfigKind::WinnerOnly, 8);
        f.attach_spans(&recorder, 0, "fabric");
        f.attach_faults(Arc::new(FaultInjector::new(
            11,
            FaultConfig {
                decision_rate_ppm: 1_000_000,
                max_stuck_cycles: 3,
                ..FaultConfig::quiet()
            },
        )));
        for _ in 0..10 {
            assert!(f.decision_cycle().packets().is_empty(), "wedged");
        }
        f.expire_cycle(); // a blocked expiry attempt stalls the same way
        f.inject_crash();
        f.decision_cycle();

        f.detach_spans();
        let tracks = recorder.drain();
        let stitched = ss_telemetry::stitch(&tracks);
        let stalls: Vec<_> = stitched
            .iter()
            .filter(|e| e.stage == Stage::DecisionStall)
            .collect();
        assert_eq!(stalls.len(), 12, "one event per blocked cycle");
        for (s, cycle) in stalls.iter().zip(1u64..) {
            assert_eq!(s.cycle, cycle);
            assert!(s.trace_tag().is_control());
            assert_eq!(s.detail, u8::from(cycle == 12), "0 = wedged, 1 = crashed");
        }
        assert!(
            stitched.iter().all(|e| e.stage != Stage::DecisionWin),
            "a blocked cycle schedules nothing"
        );
        ss_telemetry::validate_causal(&stitched).unwrap();
        let json = ss_telemetry::perfetto_json(&tracks, 1.0);
        ss_telemetry::validate_perfetto_schema(&json).unwrap();
        assert_eq!(json.matches("\"decision_stall\"").count(), 12);
    }

    #[test]
    fn certain_fault_rate_blocks_every_cycle() {
        use ss_faults::{FaultConfig, FaultInjector};
        use std::sync::Arc;
        let mut f = backlogged_edf(4, FabricConfigKind::WinnerOnly, 8);
        let inj = Arc::new(FaultInjector::new(
            11,
            FaultConfig {
                decision_rate_ppm: 1_000_000,
                max_stuck_cycles: 3,
                ..FaultConfig::quiet()
            },
        ));
        f.attach_faults(Arc::clone(&inj));
        let hw_before = f.hw_cycles();
        for _ in 0..10 {
            assert!(f.decision_cycle().packets().is_empty(), "wedged");
        }
        // Time and attempt counts advance; the FSM and register state do
        // not — that is exactly the stuck-loop signature.
        assert_eq!(f.now(), 10);
        assert_eq!(f.decision_count(), 10);
        assert_eq!(f.hw_cycles(), hw_before, "FSM frozen while wedged");
        assert_eq!(f.backlog(0).unwrap(), 8, "no slot was serviced");
        assert_eq!(inj.stats().snapshot().stalled_cycles, 10);
    }

    #[test]
    fn quiet_injector_changes_nothing() {
        use ss_faults::FaultInjector;
        use std::sync::Arc;
        let mut plain = backlogged_edf(4, FabricConfigKind::Base, 4);
        let mut faulted = backlogged_edf(4, FabricConfigKind::Base, 4);
        faulted.attach_faults(Arc::new(FaultInjector::disabled()));
        for _ in 0..4 {
            assert_eq!(plain.decision_cycle(), faulted.decision_cycle());
        }
        assert!(!faulted.is_crashed());
    }

    #[test]
    fn crash_blocks_until_cleared() {
        let mut f = backlogged_edf(4, FabricConfigKind::WinnerOnly, 4);
        assert!(!f.is_crashed());
        f.inject_crash();
        assert!(f.is_crashed());
        assert!(f.decision_cycle().packets().is_empty());
        f.expire_cycle();
        assert_eq!(f.backlog(0).unwrap(), 4, "crash also blocks expiry");
        f.clear_faults();
        assert!(!f.is_crashed());
        assert!(!f.decision_cycle().packets().is_empty(), "recovered");
    }

    #[test]
    fn register_snapshot_reads_slot_state() {
        let mut f = backlogged_edf(4, FabricConfigKind::WinnerOnly, 3);
        let snap = f.register_snapshot(0).unwrap().unwrap();
        assert_eq!(snap.head_deadline, 1);
        assert_eq!(snap.backlog, 3);
        assert_eq!(snap.state.request_period, 1);
        assert_eq!(snap.window, WindowConstraint::ZERO);
        f.unload_stream(1).unwrap();
        assert!(f.register_snapshot(1).unwrap().is_none());
        assert!(f.register_snapshot(9).is_err());
        // Read-only: nothing moved.
        assert_eq!(f.now(), 0);
        assert_eq!(f.decision_count(), 0);
    }

    #[test]
    fn health_probe_defaults() {
        let mut f = backlogged_edf(4, FabricConfigKind::WinnerOnly, 2);
        assert!(!f.is_crashed());
        let backlog = |f: &Fabric| (0..4).map(|s| f.backlog(s).unwrap()).sum::<usize>();
        assert_eq!(backlog(&f), 8);
        for _ in 0..8 {
            f.decision_cycle();
        }
        assert_eq!(backlog(&f), 0, "queues drained");
    }

    #[test]
    fn batched_flag_follows_configuration() {
        // The packed kernel is the default for every shape, in every
        // build; the flag only selects the scalar reference arm.
        for kind in [FabricConfigKind::Base, FabricConfigKind::WinnerOnly] {
            for slots in [2usize, 4, 8, 16, 32] {
                let f = Fabric::new(FabricConfig::dwcs(slots, kind)).unwrap();
                assert!(f.is_batched(), "{kind:?} × {slots} defaults to packed");
            }
        }
        let mut f = Fabric::new(FabricConfig::dwcs(8, FabricConfigKind::Base)).unwrap();
        assert!(!f.set_batched(false), "returns the effective state");
        assert!(!f.is_batched());
        assert!(f.set_batched(true));
        assert!(f.is_batched());
    }

    /// Pinned xorshift64* — deterministic across runs and platforms.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545F4914F6CDD1D)
        }
    }

    /// The split WR cycle against the whole one, on both arms at every
    /// width, past three deadline wraps with loads, unloads and arrivals
    /// between cycles. Three fabrics take the same trace: `whole` runs
    /// `decision_cycle_into` / `expire_cycle`; `split` runs `propose` →
    /// `grant` for a decision and the bare pass otherwise, and must match
    /// `whole` in everything, rule firings included; `keen` proposes before
    /// *every* cycle, passes included — what a shard behind a frontend
    /// does — and must match in everything but the tally, which is one
    /// tournament of n − 1 comparisons per cycle.
    #[test]
    fn split_cycle_matches_the_whole_cycle() {
        const HORIZON: u64 = 3 << 16;
        let mut rng = xorshift(0xD1CE_5EED);
        for batched in [true, false] {
            for slots in [2usize, 4, 8, 16, 32] {
                let what = format!("batched={batched} × {slots}");
                let config = FabricConfig::dwcs(slots, FabricConfigKind::WinnerOnly);
                let mut trio: [Fabric; 3] = std::array::from_fn(|_| {
                    let mut f = Fabric::new(config).unwrap();
                    f.set_batched(batched);
                    f
                });
                let state = |s: usize, r: u64| StreamState {
                    // A quarter of the cycles are passes and the offered
                    // load is half the link, so deadlines track the clock:
                    // live tags stay within half the 16-bit space, where
                    // scan and tournament agree.
                    request_period: slots as u64 + r % 2,
                    original_window: WindowConstraint::new((s % 3) as u8, 2 + (r % 3) as u8),
                    static_prio: 0,
                    late_policy: [LatePolicy::ServeLate, LatePolicy::Drop][s % 2],
                };
                for s in 0..slots {
                    for f in &mut trio {
                        f.load_stream(s, state(s, s as u64), (s + 1) as u64)
                            .unwrap();
                    }
                }
                let (mut cycles, mut served) = (0u64, 0u64);
                while trio[0].now() < HORIZON {
                    let now = trio[0].now();
                    for s in 0..slots {
                        let r = rng();
                        if r.is_multiple_of(2 * slots as u64) {
                            for f in &mut trio {
                                f.push_arrival(s, Wrap16::from_wide(now)).unwrap();
                            }
                        }
                        if (r >> 32).is_multiple_of(4099) {
                            for f in &mut trio {
                                f.unload_stream(s).unwrap();
                                f.load_stream(s, state(s, r), now + 1 + r % 5).unwrap();
                            }
                        }
                    }
                    let [whole, split, keen] = &mut trio;
                    let peek = whole.peek_winner();
                    let word = keen.propose();
                    assert_eq!(word, peek, "{what}, cycle {cycles}: propose != peek");
                    let packets = if rng().is_multiple_of(4) {
                        whole.expire_cycle();
                        split.expire_cycle();
                        keen.expire_cycle();
                        assert!(split.last_block().is_empty() && keen.last_block().is_empty());
                        whole.last_block().to_vec()
                    } else {
                        let packets = whole.decision_cycle_into().to_vec();
                        assert_eq!(split.propose(), peek, "{what}, cycle {cycles}");
                        assert_eq!(split.grant(peek), &packets[..], "{what}, cycle {cycles}");
                        assert_eq!(keen.grant(word), &packets[..], "{what}, cycle {cycles}");
                        packets
                    };
                    served += packets.len() as u64;
                    cycles += 1;
                    for f in [&*split, &*keen] {
                        assert_eq!(f.now(), whole.now(), "{what}, cycle {cycles}");
                        assert_eq!(f.hw_cycles(), whole.hw_cycles(), "{what}, cycle {cycles}");
                        assert_eq!(f.decision_count(), cycles);
                        for s in 0..slots {
                            assert_eq!(
                                f.slot_counters(s).unwrap(),
                                whole.slot_counters(s).unwrap(),
                                "{what}, cycle {cycles}, slot {s}"
                            );
                        }
                    }
                    // Derived equality: all nine `RuleCounters` fields.
                    assert_eq!(split.rule_counters(), whole.rule_counters(), "{what}");
                    assert_eq!(keen.rule_counters().total(), cycles * (slots as u64 - 1));
                }
                assert!(served > HORIZON / 4, "{what}: the trace kept the link busy");
                let rc = trio[0].rule_counters();
                assert!(rc.earliest_deadline > 0 && rc.validity > 0, "{what}");
            }
        }
    }

    /// `grant` takes the word `propose` just returned; an arrival between
    /// the two that changes the winner is a protocol violation, caught in
    /// debug builds (a release build transmits the stale word's slot).
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug_assert! compiles out")]
    #[should_panic(expected = "not this cycle's proposal")]
    fn grant_rejects_a_proposal_an_arrival_made_stale() {
        let mut f = Fabric::new(FabricConfig::edf(4, FabricConfigKind::WinnerOnly)).unwrap();
        for s in 0..4 {
            f.load_stream(s, edf_state(4), (s + 1) as u64).unwrap();
        }
        f.push_arrival(3, Wrap16(0)).unwrap();
        let word = f.propose();
        assert_eq!(lane_slot(word), 3);
        f.push_arrival(0, Wrap16(1)).unwrap(); // deadline 1 beats deadline 4
        f.grant(word);
    }

    /// Every lane word equals `pack(&attrs(slot))` recomputed from the
    /// banks, and `peek_winner` is the min-reduction over those.
    fn assert_words_current(f: &Fabric, what: &str) {
        let n = f.config.slots;
        let fresh: Vec<u64> = (0..n).map(|i| pack(&f.registers.attrs(i))).collect();
        assert_eq!(
            &f.registers.words()[..n],
            &fresh[..],
            "stale word after {what}"
        );
        let best = fresh[1..].iter().fold(fresh[0], |best, &w| {
            if crate::decision::lane_order(w, best, f.config.mode).0 {
                w
            } else {
                best
            }
        });
        assert_eq!(f.peek_winner(), best, "peek after {what}");
    }

    proptest::proptest! {
        /// Lane words are current by construction: after any mutating call
        /// — load, unload, arrival, decision, grant-less expiry — on any
        /// shape, with every late policy in play.
        #[test]
        fn lane_words_are_never_stale(
            shape in 0usize..12,
            ops in proptest::collection::vec(proptest::prelude::any::<(u8, u8, u16)>(), 0..160),
        ) {
            let kind = [FabricConfigKind::Base, FabricConfigKind::WinnerOnly][shape % 2];
            let slots = [4usize, 8, 32][shape / 2 % 3];
            let base = FabricConfig::dwcs(slots, kind);
            let mut f = Fabric::new(if shape < 6 {
                base
            } else {
                FabricConfig { block_order: BlockOrder::MinFirst, ..FabricConfig::edf(slots, kind) }
            })
            .unwrap();
            assert_words_current(&f, "new");
            for (i, (op, slot, tag)) in ops.into_iter().enumerate() {
                let slot = slot as usize % slots;
                let what = format!("op {i}: {op} on slot {slot}");
                match op % 8 {
                    0 => {
                        let st = StreamState {
                            request_period: 1 + u64::from(tag % 5),
                            original_window: WindowConstraint::new((tag % 3) as u8, 3),
                            static_prio: (tag % 7) as u8,
                            late_policy: [LatePolicy::ServeLate, LatePolicy::Drop, LatePolicy::Renew]
                                [tag as usize % 3],
                        };
                        // Busy slots refuse the load and must stay intact.
                        let _ = f.load_stream(slot, st, f.now() + u64::from(tag % 4));
                    }
                    1 => f.unload_stream(slot).unwrap(),
                    2 => f.expire_cycle(),
                    3 | 4 => {
                        f.decision_cycle_into();
                    }
                    _ => f.push_arrival(slot, Wrap16(tag)).unwrap(),
                }
                assert_words_current(&f, &what);
            }
        }
    }

    #[test]
    fn peek_winner_sees_undrained_arrivals() {
        let mut f = Fabric::new(FabricConfig::edf(8, FabricConfigKind::WinnerOnly)).unwrap();
        for s in 0..8 {
            f.load_stream(s, edf_state(8), (10 + s) as u64).unwrap();
        }
        assert!(!lane_valid(f.peek_winner()), "nothing queued yet");
        // Pushed since the last cycle: the words already show them.
        f.push_arrival(5, Wrap16(0)).unwrap();
        f.push_arrival(3, Wrap16(1)).unwrap();
        for expect in [3usize, 5] {
            let peek = f.peek_winner();
            assert!(lane_valid(peek));
            assert_eq!(lane_slot(peek), expect);
            match f.decision_cycle() {
                DecisionOutcome::Winner(Some(p)) => assert_eq!(p.slot.index(), expect),
                other => panic!("unexpected {other:?}"),
            }
        }
        // The service emptied slot 5.
        assert!(!lane_valid(f.peek_winner()));
        // An arrival between two peeks, no decision in between.
        f.push_arrival(6, Wrap16(2)).unwrap();
        assert_eq!(lane_slot(f.peek_winner()), 6);
        f.expire_cycle();
        assert_eq!(lane_slot(f.peek_winner()), 6);
    }

    #[test]
    fn timeline_recording() {
        let mut f = Fabric::new(FabricConfig::edf(4, FabricConfigKind::WinnerOnly)).unwrap();
        f.enable_timeline();
        f.load_stream(0, edf_state(1), 1).unwrap();
        f.push_arrival(0, Wrap16(0)).unwrap();
        f.decision_cycle();
        let tl = f.fsm().timeline();
        assert_eq!(tl.len(), 4); // 1 load + 2 schedule + 1 update
    }
}
