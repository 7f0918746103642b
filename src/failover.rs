//! Hardware→software failover supervision: graceful degradation when the
//! scheduler fabric stops making progress.
//!
//! The paper's architecture puts the *decision* in hardware precisely
//! because the software path is slow — but the software path is always
//! *correct*. [`FailoverScheduler`] exploits that asymmetry: it drives a
//! [`Fabric`] through a [`DecisionWatchdog`] and, when the watchdog
//! declares the hardware path stuck (a wedged SCHEDULE↔PRIORITY_UPDATE
//! loop, a crashed card partition), it reads the per-slot register state
//! out of the card ([`Fabric::register_snapshot`]) and rebuilds an
//! equivalent [`DwcsRef`] software scheduler — deadlines, dynamic window
//! constraints, and queued backlog carried across the switch. Scheduling
//! continues every packet-time; only the decision latency degrades.
//!
//! Re-attachment uses hysteresis in the opposite direction
//! ([`DecisionWatchdog::ready_to_reattach`]): the degraded path must run a
//! streak of healthy cycles before the supervisor rebuilds a fresh fabric,
//! reloads it from the software scheduler's state (deadlines rebased to
//! the new fabric's clock), and hands scheduling back. A flapping card
//! cannot bounce the system between paths every cycle.
//!
//! Both switches cost one packet-time and are recorded: in the
//! `ss-faults` ledger (`failovers`/`reattaches`) when an injector is
//! attached, and as one `Stage::Failover` control event each in the flight
//! recorder when one is attached (the [`Traced`] instantiation,
//! `FailoverScheduler::attach_flight_recorder`).

use ss_core::{
    DecisionWatchdog, Fabric, FabricConfig, FabricConfigKind, RecoveryLedger, RegisterSnapshot,
    ScheduledPacket, StreamState, SupervisorHooks, Telemetry, Traced, WatchdogVerdict,
};
use ss_disciplines::{Discipline, DwcsRef, DwcsStreamConfig, SwPacket};
use ss_overload::{DegradationLadder, LadderConfig, PressureConfig, PressureSignal, Rung};
use ss_types::{ComparisonMode, Error, Result, SlotId, WindowConstraint, Wrap16};

/// Which scheduling path is currently serving decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPath {
    /// The hardware fabric is healthy and deciding.
    Hardware,
    /// The watchdog tripped; the software reference scheduler is deciding.
    DegradedSoftware,
}

/// Maps the hardware register-block late policy onto the independent
/// mirror enum the software oracle uses.
fn map_policy(p: ss_core::LatePolicy) -> ss_disciplines::LatePolicy {
    match p {
        ss_core::LatePolicy::ServeLate => ss_disciplines::LatePolicy::ServeLate,
        ss_core::LatePolicy::Drop => ss_disciplines::LatePolicy::Drop,
        ss_core::LatePolicy::Renew => ss_disciplines::LatePolicy::Renew,
    }
}

/// A fabric supervised for liveness, with transparent failover to the
/// [`DwcsRef`] software scheduler and hysteresis-gated re-attach.
///
/// Time is kept *globally* monotone across path switches: the supervisor
/// translates the fabric's local packet-time clock by the offset
/// accumulated over previous degraded episodes, so the
/// [`ScheduledPacket`] stream a caller sees never jumps backward.
///
/// Supports winner-only (WR) fabrics in DWCS or EDF comparison mode —
/// the two modes the software oracle models. `T` instruments the
/// supervisor's control events: `()` records nothing, [`Traced`] can attach
/// a flight recorder.
pub struct FailoverScheduler<T: Telemetry = ()> {
    config: FabricConfig,
    fabric: Fabric,
    software: Option<DwcsRef>,
    watchdog: DecisionWatchdog,
    /// The supervisor's shadow of each loaded stream's configuration —
    /// needed to reload a fresh fabric on re-attach even if the dead card
    /// partition became unreadable.
    loaded: Vec<Option<StreamState>>,
    /// Offset from the current fabric's local clock to global time.
    time_base: u64,
    /// Global scheduler time in packet-times.
    now: u64,
    /// Monotone arrival counter for software-side FCFS tie-breaks.
    arrival_seq: u64,
    failovers: u64,
    reattaches: u64,
    /// Degradation-ladder supervision (off until armed).
    overload: Option<OverloadSupervisor>,
    /// The injector's recovery ledger (`attach_faults`; detached, it books
    /// nothing).
    ledger: RecoveryLedger,
    /// Path switches, ladder sheds and rung changes in the flight recorder,
    /// with automatic incident dumps (`attach_flight_recorder`; zero-sized
    /// for `T = ()`).
    trace: T::Supervisor,
}

/// The facade's overload state: a pressure signal derived from total
/// backlog occupancy driving the full-QoS → shed-optional → FCFS-drain
/// rung machine.
#[derive(Debug)]
struct OverloadSupervisor {
    ladder: DegradationLadder,
    pressure: PressureSignal,
    /// Backlog depth treated as 100% occupancy for the pressure signal.
    capacity: usize,
    /// Arrivals refused by the active rung.
    sheds: u64,
}

impl FailoverScheduler {
    /// Builds an uninstrumented supervised scheduler; see
    /// [`FailoverScheduler::with_telemetry`].
    pub fn new(config: FabricConfig, watchdog: DecisionWatchdog) -> Result<Self> {
        Self::with_telemetry(config, watchdog)
    }

    /// A supervised scheduler with the default watchdog (trip after 4
    /// stuck cycles, re-attach after 16 healthy ones).
    pub fn with_default_watchdog(config: FabricConfig) -> Result<Self> {
        Self::new(config, DecisionWatchdog::default())
    }
}

impl FailoverScheduler<Traced> {
    /// Wires a shared flight recorder to the supervisor: every path switch
    /// records one `Failover` control event (detail 1 = to software, 0 =
    /// re-attach), and the hardware→software direction also takes an
    /// automatic [`ss_telemetry::DumpReason::WatchdogTrip`] dump; a
    /// degradation-ladder rung change records `RungChange` and dumps with
    /// [`ss_telemetry::DumpReason::RungChange`] (detail = new rung,
    /// arg = old rung; 0 full-QoS, 1 shed-optional, 2 FCFS-drain); every
    /// arrival the ladder refuses records a control `Shed`
    /// (detail `SHED_LADDER`, arg = slot).
    pub fn attach_flight_recorder(&mut self, flight: &ss_telemetry::SharedFlightRecorder) {
        self.trace.attach_flight(flight);
    }
}

impl<T: Telemetry> FailoverScheduler<T> {
    /// Builds a supervised scheduler instrumented by `T` over `config`
    /// with the given watchdog thresholds. Rejects block (BA) fabrics and
    /// comparison modes the software oracle does not model.
    pub fn with_telemetry(config: FabricConfig, watchdog: DecisionWatchdog) -> Result<Self> {
        if !matches!(config.kind, FabricConfigKind::WinnerOnly) {
            return Err(Error::Config(
                "failover supervision needs a winner-only (WR) fabric: the software \
                 path serves one packet per decision"
                    .into(),
            ));
        }
        if !matches!(config.mode, ComparisonMode::Dwcs | ComparisonMode::Edf) {
            return Err(Error::Config(format!(
                "failover supervision needs a DWCS or EDF fabric (software oracle \
                 does not model {:?} mode)",
                config.mode
            )));
        }
        Ok(Self {
            fabric: Fabric::new(config)?,
            config,
            software: None,
            watchdog,
            loaded: vec![None; config.slots],
            time_base: 0,
            now: 0,
            arrival_seq: 0,
            failovers: 0,
            reattaches: 0,
            overload: None,
            ledger: RecoveryLedger::new(),
            trace: Default::default(),
        })
    }

    /// The current scheduling path.
    pub fn path(&self) -> SchedulerPath {
        if self.software.is_some() {
            SchedulerPath::DegradedSoftware
        } else {
            SchedulerPath::Hardware
        }
    }

    /// `true` while the software path is deciding.
    pub fn is_degraded(&self) -> bool {
        self.software.is_some()
    }

    /// Hardware→software switches so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Software→hardware re-attachments so far.
    pub fn reattaches(&self) -> u64 {
        self.reattaches
    }

    /// Global scheduler time in packet-times (monotone across switches).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The supervised fabric (the *current* one: re-attach replaces it).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Queued packets across all loaded slots, on whichever path holds
    /// them. Failover and re-attach both conserve this quantity: enqueued
    /// == served + total_backlog at every cycle boundary.
    pub fn total_backlog(&self) -> usize {
        match &self.software {
            Some(sw) => sw.backlog(),
            None => (0..self.config.slots)
                .filter(|&s| self.loaded[s].is_some())
                .map(|s| self.fabric.backlog(s).unwrap_or(0))
                .sum(),
        }
    }

    /// The watchdog's current streak state.
    pub fn watchdog(&self) -> &DecisionWatchdog {
        &self.watchdog
    }

    /// LOAD: binds a stream to `slot`. `first_deadline` is global time.
    /// Rejected while degraded — reconfiguration waits for re-attach,
    /// surfacing as [`Error::DegradedMode`] so callers can retry.
    pub fn load_stream(
        &mut self,
        slot: usize,
        state: StreamState,
        first_deadline: u64,
    ) -> Result<()> {
        if self.software.is_some() {
            return Err(Error::DegradedMode {
                reason: "stream load/unload unavailable during software failover".into(),
            });
        }
        let local = first_deadline.saturating_sub(self.time_base).max(1);
        self.fabric.load_stream(slot, state.clone(), local)?;
        self.loaded[slot] = Some(state);
        Ok(())
    }

    /// Arms the degradation ladder. `capacity` is
    /// the total-backlog depth treated as 100% occupancy when deriving
    /// the pressure level. Until called, no rung logic runs and
    /// [`FailoverScheduler::enqueue`] never refuses for overload.
    ///
    /// Rung semantics at ingest:
    /// * [`Rung::FullQos`] — every arrival accepted.
    /// * [`Rung::ShedOptional`] — arrivals for streams whose DWCS window
    ///   tolerates loss (`x > 0`) are refused with [`Error::Overloaded`];
    ///   zero-loss streams keep flowing.
    /// * [`Rung::FcfsDrain`] — ingest closes entirely until pressure
    ///   clears; the queued backlog drains.
    pub fn enable_degradation_ladder(
        &mut self,
        ladder: LadderConfig,
        pressure: PressureConfig,
        capacity: usize,
    ) {
        self.overload = Some(OverloadSupervisor {
            ladder: DegradationLadder::new(ladder),
            pressure: PressureSignal::new(pressure),
            capacity: capacity.max(1),
            sheds: 0,
        });
    }

    /// The active degradation rung ([`Rung::FullQos`] before
    /// [`FailoverScheduler::enable_degradation_ladder`]).
    pub fn rung(&self) -> Rung {
        self.overload
            .as_ref()
            .map_or(Rung::FullQos, |ov| ov.ladder.rung())
    }

    /// Rung transitions so far.
    pub fn ladder_transitions(&self) -> u64 {
        self.overload
            .as_ref()
            .map_or(0, |ov| ov.ladder.transitions())
    }

    /// Arrivals refused by the ladder's active rung.
    pub fn ladder_sheds(&self) -> u64 {
        self.overload.as_ref().map_or(0, |ov| ov.sheds)
    }

    /// Feeds one cycle's occupancy + watchdog health into the ladder.
    fn observe_ladder(&mut self) {
        if self.overload.is_none() {
            return;
        }
        let occupied = self.total_backlog();
        // The path is healthy when nothing is accumulating unproductive
        // cycles; a degraded (software) path counts as unhealthy — service
        // capacity, not offered load, collapsed.
        let healthy = self.watchdog.unproductive_cycles() == 0 && self.software.is_none();
        let ov = self.overload.as_mut().expect("checked above");
        let level = ov.pressure.observe(occupied, ov.capacity);
        let before = ov.ladder.rung();
        ov.ladder.observe(level, healthy);
        let after = ov.ladder.rung();
        if before != after {
            let rung_code = |r: Rung| match r {
                Rung::FullQos => 0u8,
                Rung::ShedOptional => 1,
                Rung::FcfsDrain => 2,
            };
            self.trace
                .on_rung_change(self.now, rung_code(after), rung_code(before));
        }
    }

    /// The rung's ingest verdict for `slot`: `true` = refuse this arrival.
    fn ladder_refuses(&self, slot: usize) -> bool {
        let Some(ov) = &self.overload else {
            return false;
        };
        match ov.ladder.rung() {
            Rung::FullQos => false,
            // Optional = the stream's window tolerates loss (x > 0); a
            // zero-loss stream keeps its ingress even while shedding.
            Rung::ShedOptional => self
                .loaded
                .get(slot)
                .and_then(|s| s.as_ref())
                .is_some_and(|s| s.original_window.num > 0),
            Rung::FcfsDrain => true,
        }
    }

    /// Deposits a packet arrival for `slot`. `tag` feeds the hardware
    /// FCFS tie-break; the software path uses the supervisor's own
    /// monotone arrival counter.
    ///
    /// With the degradation ladder armed, the active
    /// rung may refuse the arrival with [`Error::Overloaded`] — counted
    /// load shedding, recorded as a control `Shed` event (`detail` =
    /// `SHED_LADDER`, `arg` = slot) when a flight recorder is attached.
    pub fn enqueue(&mut self, slot: usize, tag: Wrap16) -> Result<()> {
        if self.ladder_refuses(slot) {
            if let Some(ov) = &mut self.overload {
                ov.sheds += 1;
            }
            self.trace.on_ladder_shed(self.now, slot);
            return Err(Error::Overloaded {
                slot,
                site: "ladder",
            });
        }
        self.enqueue_inner(slot, tag)
    }

    fn enqueue_inner(&mut self, slot: usize, tag: Wrap16) -> Result<()> {
        match &mut self.software {
            None => self.fabric.push_arrival(slot, tag),
            Some(sw) => {
                if slot >= self.config.slots {
                    return Err(Error::SlotOutOfRange {
                        slot,
                        slots: self.config.slots,
                    });
                }
                if self.loaded[slot].is_none() {
                    // Mirror the fabric: arrivals to an unconfigured slot
                    // queue up but are never scheduled. The software
                    // oracle *would* eventually serve its filler stream,
                    // so park nothing there — reject instead of silently
                    // diverging from hardware semantics.
                    return Err(Error::Config(format!("slot {slot} has no stream loaded")));
                }
                sw.enqueue(SwPacket::new(slot, self.arrival_seq, self.arrival_seq, 64));
                self.arrival_seq += 1;
                Ok(())
            }
        }
    }

    /// Runs one supervised decision cycle: one packet-time elapses and at
    /// most one packet is transmitted, whichever path is active. The
    /// cycle that trips the watchdog performs the failover *and* serves
    /// the first software decision, so a backlogged stream never silently
    /// stops; the stall itself costs the packet-times the watchdog
    /// threshold allows.
    pub fn decision_cycle(&mut self) -> Result<Option<ScheduledPacket>> {
        self.observe_ladder();
        if self.software.is_some() {
            let out = self.software_cycle();
            if self.watchdog.ready_to_reattach() {
                self.re_attach()?;
            }
            return Ok(out);
        }
        let had_backlog = self.fabric.has_backlog();
        let out = self.fabric.decision_cycle_into().first().copied();
        self.now = self.time_base + self.fabric.now();
        let verdict = self.watchdog.observe(out.is_some(), had_backlog);
        if verdict == WatchdogVerdict::Stuck {
            self.fail_over()?;
            return Ok(self.software_cycle());
        }
        Ok(out.map(|p| ScheduledPacket {
            deadline: p.deadline + self.time_base,
            completed_at: p.completed_at + self.time_base,
            ..p
        }))
    }

    /// One decision on the degraded software path.
    fn software_cycle(&mut self) -> Option<ScheduledPacket> {
        let sw = self.software.as_mut()?;
        let had_backlog = sw.backlog() > 0;
        let pkt = sw.select(self.now);
        let completion = self.now + 1;
        self.now = completion;
        let out = pkt.map(|p| {
            let period = self.loaded[p.stream]
                .as_ref()
                .map_or(1, |s| s.request_period);
            // select() advanced the winner's deadline by one period; the
            // served packet's deadline is the one before that.
            let deadline = sw.head_deadline(p.stream).saturating_sub(period);
            ScheduledPacket {
                slot: SlotId::new_unchecked(p.stream as u8),
                deadline,
                completed_at: completion,
                met: completion <= deadline,
            }
        });
        self.watchdog.observe(out.is_some(), had_backlog);
        out
    }

    /// Hardware → software: read the register file out of the (possibly
    /// crashed) card and rebuild the oracle with exact deadline, window,
    /// and backlog continuity. Queued arrivals are re-sequenced in slot
    /// order — only the FCFS tie-break can observe the difference.
    fn fail_over(&mut self) -> Result<()> {
        let mut configs = Vec::with_capacity(self.config.slots);
        let mut carried: Vec<(usize, WindowConstraint)> = Vec::with_capacity(self.config.slots);
        for slot in 0..self.config.slots {
            match self.fabric.register_snapshot(slot)? {
                Some(RegisterSnapshot {
                    state,
                    head_deadline,
                    window,
                    backlog,
                }) => {
                    configs.push(DwcsStreamConfig {
                        period: state.request_period,
                        window: state.original_window,
                        first_deadline: head_deadline + self.time_base,
                        late_policy: map_policy(state.late_policy),
                    });
                    carried.push((backlog, window));
                }
                None => {
                    // Filler for an unbound slot: never enqueued, so the
                    // far deadline is never compared against real streams.
                    configs.push(DwcsStreamConfig {
                        period: 1,
                        window: WindowConstraint::ZERO,
                        first_deadline: u64::MAX / 2,
                        late_policy: ss_disciplines::LatePolicy::ServeLate,
                    });
                    carried.push((0, WindowConstraint::ZERO));
                }
            }
        }
        let mut sw = if matches!(self.config.mode, ComparisonMode::Edf) {
            DwcsRef::new_edf(configs)
        } else {
            DwcsRef::new(configs)
        };
        for (slot, (backlog, window)) in carried.into_iter().enumerate() {
            sw.set_window(slot, window);
            for _ in 0..backlog {
                sw.enqueue(SwPacket::new(slot, self.arrival_seq, self.arrival_seq, 64));
                self.arrival_seq += 1;
            }
        }
        self.software = Some(sw);
        self.failovers += 1;
        self.watchdog.reset();
        self.ledger.failed_over();
        self.trace.on_path_switch(self.now, true, self.failovers);
        Ok(())
    }

    /// Software → hardware: build a fresh fabric, reload every stream
    /// with its software-side deadline rebased onto the new fabric's
    /// clock (which starts at 0), refill the queues, and hand back.
    fn re_attach(&mut self) -> Result<()> {
        let sw = self
            .software
            .take()
            .expect("re_attach only runs while degraded");
        let mut fabric = Fabric::new(self.config)?;
        self.time_base = self.now;
        for slot in 0..self.config.slots {
            if let Some(state) = &self.loaded[slot] {
                let local = sw.head_deadline(slot).saturating_sub(self.time_base).max(1);
                fabric.load_stream(slot, state.clone(), local)?;
                for k in 0..sw.stream_backlog(slot) {
                    fabric.push_arrival(slot, Wrap16::from_wide(k as u64))?;
                }
            }
        }
        self.ledger.wire(&mut fabric);
        self.ledger.reattached();
        self.fabric = fabric;
        self.reattaches += 1;
        self.watchdog.reset();
        self.trace.on_path_switch(self.now, false, self.failovers);
        Ok(())
    }

    /// Wires the supervised fabric (and every fabric built by future
    /// re-attachments) to a shared fault injector; failover/re-attach
    /// events land in the injector's ledger.
    pub fn attach_faults(&mut self, injector: std::sync::Arc<ss_faults::FaultInjector>) {
        self.ledger.attach(injector);
        self.ledger.wire(&mut self.fabric);
    }

    /// Crashes the current hardware path (test hook; the watchdog will
    /// trip and fail over on subsequent cycles).
    pub fn inject_crash(&mut self) {
        self.fabric.inject_crash();
    }
}

impl<T: Telemetry> std::fmt::Debug for FailoverScheduler<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailoverScheduler")
            .field("path", &self.path())
            .field("now", &self.now)
            .field("failovers", &self.failovers)
            .field("reattaches", &self.reattaches)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::LatePolicy;

    fn edf_state(period: u64) -> StreamState {
        StreamState {
            request_period: period,
            original_window: WindowConstraint::ZERO,
            static_prio: 0,
            late_policy: LatePolicy::ServeLate,
        }
    }

    fn wr_edf(slots: usize) -> FabricConfig {
        FabricConfig::edf(slots, FabricConfigKind::WinnerOnly)
    }

    #[test]
    fn rejects_unsupervisable_configs() {
        let ba = FabricConfig::edf(4, FabricConfigKind::Base);
        assert!(matches!(
            FailoverScheduler::with_default_watchdog(ba),
            Err(Error::Config(_))
        ));
        let tag = FabricConfig::service_tag(4, FabricConfigKind::WinnerOnly);
        assert!(matches!(
            FailoverScheduler::with_default_watchdog(tag),
            Err(Error::Config(_))
        ));
    }

    #[test]
    fn fault_free_run_matches_bare_fabric() {
        let mut bare = Fabric::new(wr_edf(4)).unwrap();
        let mut sup = FailoverScheduler::with_default_watchdog(wr_edf(4)).unwrap();
        for s in 0..4 {
            bare.load_stream(s, edf_state(2), (s + 1) as u64).unwrap();
            sup.load_stream(s, edf_state(2), (s + 1) as u64).unwrap();
            for a in 0..6u64 {
                bare.push_arrival(s, Wrap16::from_wide(a)).unwrap();
                sup.enqueue(s, Wrap16::from_wide(a)).unwrap();
            }
        }
        for _ in 0..30 {
            let expected = bare.decision_cycle_into().first().copied();
            let got = sup.decision_cycle().unwrap();
            assert_eq!(got, expected);
        }
        assert_eq!(sup.failovers(), 0);
        assert_eq!(sup.path(), SchedulerPath::Hardware);
        assert_eq!(sup.now(), bare.now());
    }

    /// A two-slot DWCS supervisor — slot 0 loss-tolerant ("optional"),
    /// slot 1 zero-loss — with a fast ladder armed over a capacity of 8 and
    /// the backlog saturated to 16.
    fn saturated_ladder() -> FailoverScheduler {
        saturated_ladder_with()
    }

    fn saturated_ladder_with<T: Telemetry>() -> FailoverScheduler<T> {
        let config = FabricConfig::dwcs(2, FabricConfigKind::WinnerOnly);
        let watchdog = DecisionWatchdog::default();
        let mut sup = FailoverScheduler::with_telemetry(config, watchdog).unwrap();
        let optional = StreamState {
            request_period: 2,
            original_window: WindowConstraint { num: 1, den: 2 },
            static_prio: 0,
            late_policy: LatePolicy::ServeLate,
        };
        let critical = StreamState {
            request_period: 2,
            original_window: WindowConstraint { num: 0, den: 2 },
            static_prio: 0,
            late_policy: LatePolicy::ServeLate,
        };
        sup.load_stream(0, optional, 1).unwrap();
        sup.load_stream(1, critical, 2).unwrap();
        sup.enable_degradation_ladder(
            LadderConfig {
                escalate_after: 2,
                deescalate_after: 2,
                min_dwell: 0,
            },
            PressureConfig {
                min_dwell: 0,
                ..PressureConfig::default()
            },
            8,
        );
        assert_eq!(sup.rung(), Rung::FullQos);
        for a in 0..8u64 {
            sup.enqueue(0, Wrap16::from_wide(a)).unwrap();
            sup.enqueue(1, Wrap16::from_wide(a)).unwrap();
        }
        sup
    }

    #[test]
    fn ladder_sheds_optional_then_closes_then_recovers() {
        let mut sup = saturated_ladder();
        // Two overloaded observations climb to ShedOptional.
        sup.decision_cycle().unwrap();
        sup.decision_cycle().unwrap();
        assert_eq!(sup.rung(), Rung::ShedOptional);
        assert!(matches!(
            sup.enqueue(0, Wrap16(99)),
            Err(Error::Overloaded {
                slot: 0,
                site: "ladder"
            })
        ));
        sup.enqueue(1, Wrap16(99)).unwrap(); // zero-loss stream keeps flowing
        sup.decision_cycle().unwrap();
        sup.decision_cycle().unwrap();
        assert_eq!(sup.rung(), Rung::FcfsDrain);
        assert!(
            matches!(sup.enqueue(1, Wrap16(100)), Err(Error::Overloaded { .. })),
            "FcfsDrain closes ingest even for zero-loss streams"
        );
        assert_eq!(sup.ladder_sheds(), 2);
        // Drain with ingest closed: pressure falls, the ladder walks all
        // the way back down and ingest reopens.
        for _ in 0..40 {
            sup.decision_cycle().unwrap();
        }
        assert_eq!(sup.rung(), Rung::FullQos);
        assert!(sup.ladder_transitions() >= 4, "two climbs, two descents");
        sup.enqueue(0, Wrap16(0)).unwrap();
    }

    #[test]
    fn ladder_refusals_leave_control_shed_events() {
        use ss_telemetry::span::detail;
        use ss_telemetry::{DumpReason, SharedFlightRecorder, Stage};
        let mut sup = saturated_ladder_with::<Traced>();
        let flight = SharedFlightRecorder::new(64);
        sup.attach_flight_recorder(&flight);
        sup.decision_cycle().unwrap();
        sup.decision_cycle().unwrap();
        assert_eq!(sup.rung(), Rung::ShedOptional);
        assert!(sup.enqueue(0, Wrap16(99)).is_err(), "optional: refused");
        sup.enqueue(1, Wrap16(99)).unwrap(); // admitted: no event
        sup.decision_cycle().unwrap();
        sup.decision_cycle().unwrap();
        assert_eq!(sup.rung(), Rung::FcfsDrain);
        assert!(sup.enqueue(1, Wrap16(100)).is_err(), "ingest closed");
        assert!(sup.enqueue(0, Wrap16(100)).is_err());
        let dump = flight.auto_dump(DumpReason::Manual, sup.now());
        let sheds: Vec<_> = dump
            .events
            .iter()
            .filter(|e| e.stage == Stage::Shed)
            .collect();
        assert_eq!(sheds.len() as u64, sup.ladder_sheds(), "one per refusal");
        assert_eq!(
            sheds.iter().map(|e| e.arg).collect::<Vec<_>>(),
            [0, 1, 0],
            "arg names the refused slot, in refusal order"
        );
        for e in sheds {
            assert!(e.trace_tag().is_control(), "the arrival never got a tag");
            assert_eq!(e.detail, detail::SHED_LADDER);
        }
    }

    #[test]
    fn crash_fails_over_serves_degraded_and_reattaches() {
        let mut sup = FailoverScheduler::new(wr_edf(2), DecisionWatchdog::new(2, 4)).unwrap();
        sup.load_stream(0, edf_state(2), 1).unwrap();
        sup.load_stream(1, edf_state(2), 2).unwrap();
        let total = 60u64;
        for a in 0..total / 2 {
            sup.enqueue(0, Wrap16::from_wide(a)).unwrap();
            sup.enqueue(1, Wrap16::from_wide(a)).unwrap();
        }

        let mut served = 0u64;
        for _ in 0..10 {
            if sup.decision_cycle().unwrap().is_some() {
                served += 1;
            }
        }
        assert_eq!(served, 10, "healthy hardware serves every cycle");

        sup.inject_crash();
        // While degraded, loads are refused but arrivals still flow.
        let mut last_completed = 0;
        let mut idle_after_crash = 0;
        for _ in 0..20 {
            match sup.decision_cycle().unwrap() {
                Some(p) => {
                    assert!(p.completed_at > last_completed, "time stays monotone");
                    last_completed = p.completed_at;
                    served += 1;
                }
                None => idle_after_crash += 1,
            }
        }
        assert_eq!(sup.failovers(), 1, "watchdog tripped exactly once");
        assert!(
            idle_after_crash < 2,
            "only the pre-trip stall cycle is unproductive, got {idle_after_crash}"
        );
        assert!(
            sup.reattaches() >= 1,
            "healthy software streak re-attached the hardware path"
        );
        assert_eq!(sup.path(), SchedulerPath::Hardware);

        // Drain everything that remains: nothing was lost across the two
        // path switches.
        for _ in 0..200 {
            if sup.decision_cycle().unwrap().is_some() {
                served += 1;
            }
        }
        assert_eq!(served, total, "every enqueued packet was served");
    }

    #[test]
    fn degraded_mode_rejects_loads_and_accepts_arrivals() {
        let mut sup = FailoverScheduler::new(wr_edf(2), DecisionWatchdog::new(1, 64)).unwrap();
        sup.load_stream(0, edf_state(1), 1).unwrap();
        sup.enqueue(0, Wrap16(0)).unwrap();
        sup.inject_crash();
        sup.decision_cycle().unwrap();
        assert!(sup.is_degraded());
        assert!(matches!(
            sup.load_stream(1, edf_state(1), 5),
            Err(Error::DegradedMode { .. })
        ));
        sup.enqueue(0, Wrap16(1)).unwrap();
        assert!(
            matches!(sup.enqueue(1, Wrap16(1)), Err(Error::Config(_))),
            "unloaded slot rejected while degraded"
        );
        assert!(sup.decision_cycle().unwrap().is_some());
    }

    #[test]
    fn path_switches_are_traced_and_ledgered() {
        use ss_faults::{FaultConfig, FaultInjector};
        use ss_telemetry::{DumpReason, SharedFlightRecorder, Stage};
        use std::sync::Arc;
        let watchdog = DecisionWatchdog::new(2, 3);
        let mut sup = FailoverScheduler::<Traced>::with_telemetry(wr_edf(2), watchdog).unwrap();
        let flight = SharedFlightRecorder::new(64);
        sup.attach_flight_recorder(&flight);
        let inj = Arc::new(FaultInjector::new(5, FaultConfig::quiet()));
        sup.attach_faults(Arc::clone(&inj));
        sup.load_stream(0, edf_state(1), 1).unwrap();
        for a in 0..30u64 {
            sup.enqueue(0, Wrap16::from_wide(a)).unwrap();
        }
        sup.inject_crash();
        for _ in 0..12 {
            sup.decision_cycle().unwrap();
        }
        let stats = inj.stats().snapshot();
        assert_eq!(stats.failovers, sup.failovers());
        assert_eq!(stats.reattaches, sup.reattaches());
        assert_eq!((sup.failovers(), sup.reattaches()), (1, 1));
        // One sink, one event per switch: out to software, then back.
        let dump = flight.auto_dump(DumpReason::Manual, sup.now());
        let switches: Vec<u8> = dump
            .events
            .iter()
            .filter(|e| e.stage == Stage::Failover)
            .map(|e| e.detail)
            .collect();
        assert_eq!(switches, [1, 0]);
    }

    #[test]
    fn failover_takes_automatic_flight_dump() {
        use ss_telemetry::{DumpReason, SharedFlightRecorder, Stage};
        let watchdog = DecisionWatchdog::new(2, 64);
        let mut sup = FailoverScheduler::<Traced>::with_telemetry(wr_edf(2), watchdog).unwrap();
        let flight = SharedFlightRecorder::new(64);
        sup.attach_flight_recorder(&flight);
        sup.load_stream(0, edf_state(1), 1).unwrap();
        for a in 0..10u64 {
            sup.enqueue(0, Wrap16::from_wide(a)).unwrap();
        }
        sup.inject_crash();
        for _ in 0..6 {
            sup.decision_cycle().unwrap();
        }
        assert!(sup.failovers() >= 1);
        let dump = flight
            .take_last_dump()
            .expect("failover dumps the recorder");
        assert_eq!(dump.reason, DumpReason::WatchdogTrip);
        assert!(dump
            .events
            .iter()
            .any(|e| e.stage == Stage::Failover && e.detail == 1));
    }

    #[test]
    fn rung_change_takes_automatic_flight_dump() {
        use ss_overload::{LadderConfig, PressureConfig, Rung};
        use ss_telemetry::{DumpReason, SharedFlightRecorder, Stage};
        let config = FabricConfig::dwcs(2, FabricConfigKind::WinnerOnly);
        let watchdog = DecisionWatchdog::default();
        let mut sup = FailoverScheduler::<Traced>::with_telemetry(config, watchdog).unwrap();
        let flight = SharedFlightRecorder::new(64);
        sup.attach_flight_recorder(&flight);
        sup.load_stream(0, edf_state(2), 1).unwrap();
        sup.load_stream(1, edf_state(2), 2).unwrap();
        sup.enable_degradation_ladder(
            LadderConfig {
                escalate_after: 2,
                deescalate_after: 2,
                min_dwell: 0,
            },
            PressureConfig {
                min_dwell: 0,
                ..PressureConfig::default()
            },
            8,
        );
        for a in 0..8u64 {
            sup.enqueue(0, Wrap16::from_wide(a)).unwrap();
            sup.enqueue(1, Wrap16::from_wide(a)).unwrap();
        }
        sup.decision_cycle().unwrap();
        sup.decision_cycle().unwrap();
        assert_ne!(sup.rung(), Rung::FullQos, "pressure climbed the ladder");
        let dump = flight.take_last_dump().expect("rung change dumps");
        assert_eq!(dump.reason, DumpReason::RungChange);
        let rc = dump
            .events
            .iter()
            .find(|e| e.stage == Stage::RungChange)
            .expect("RungChange control event in the window");
        assert_eq!(rc.arg, 0, "climbed away from full QoS");
        assert_ne!(rc.detail, 0);
    }
}
