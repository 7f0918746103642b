//! RTL-style fabric: the same architecture expressed as synchronous
//! components on the two-phase simulation kernel.
//!
//! [`crate::fabric::Fabric`] computes each decision *functionally* (whole
//! network passes as function calls). This module re-expresses the design
//! the way the hardware runs: a Decision-block network stage, a Register
//! file, and the Control FSM share clocked [`RtlWires`] and are stepped one
//! edge at a time by [`CycleSim`]'s evaluate/commit protocol —
//! every simulated flip-flop updates atomically at the edge, so the
//! per-cycle lane values are exactly what a waveform viewer would show.
//!
//! The test suite requires the RTL fabric to match the functional fabric
//! **decision-for-decision and counter-for-counter**, and its clock-cycle
//! consumption to match the analytic log2(N)(+1) model — a strong check
//! that the functional shortcut didn't change semantics.
//!
//! Scope: the two configurations the paper evaluates — winner-only (WR)
//! and base (BA) routing with max-first circulation on the log2(N)
//! shuffle-exchange schedule. Min-first circulation remains
//! functional-only.

use crate::decision::DecisionBlock;
use crate::fabric::{BlockOrder, DecisionOutcome, FabricConfig, ScheduledPacket};
use crate::hwsim::{CycleSim, FabricConfigKind, Synchronous, VcdWriter};
use crate::network;
use crate::register::{RegisterFile, SlotCounters, StreamState};
use ss_types::{ComparisonMode, Cycles, Error, Result, SlotId, StreamAttrs, Wrap16};
use std::cell::RefCell;
use std::rc::Rc;

/// The wires shared between RTL components (one clock domain).
#[derive(Debug, Clone)]
pub struct RtlWires {
    /// Attribute lanes on the recirculating network.
    pub lanes: Vec<StreamAttrs>,
    /// Live candidates (the WR tournament halves this each cycle; BA keeps
    /// every lane live).
    pub live: usize,
    /// Network cycle index within the current decision.
    pub step: u8,
    /// Asserted during the PRIORITY_UPDATE cycle.
    pub update_phase: bool,
}

type Registers = Rc<RefCell<RegisterFile>>;
type SharedNow = Rc<RefCell<u64>>;
type Outbox = Rc<RefCell<Vec<ScheduledPacket>>>;

/// Applies the decision's architectural effects: services the winner
/// (WR) or the whole block (BA max-first), runs loser expiry checks, and
/// advances scheduler time. Shared by the RTL update component and the
/// host-side retire used when the PRIORITY_UPDATE cycle is bypassed.
fn retire(
    registers: &mut RegisterFile,
    lanes: &[StreamAttrs],
    kind: FabricConfigKind,
    priority_update: bool,
    now: u64,
) -> (Vec<ScheduledPacket>, u64) {
    let mut packets = Vec::new();
    match kind {
        FabricConfigKind::WinnerOnly => {
            let winner = lanes[0];
            let end = now + 1;
            if winner.valid {
                let slot = winner.slot.index();
                registers.record_win(slot);
                let (deadline, met) = registers
                    .service(slot, end)
                    .expect("valid winner has a packet");
                packets.push(ScheduledPacket {
                    slot: winner.slot,
                    deadline,
                    completed_at: end,
                    met,
                });
            }
            if priority_update {
                let winner_slot = packets.first().map(|p| p.slot.index());
                for i in 0..registers.slots() {
                    if Some(i) != winner_slot {
                        registers.expiry_check(i, end);
                    }
                }
            }
            (packets, end)
        }
        FabricConfigKind::Base => {
            let valid: Vec<StreamAttrs> = lanes.iter().filter(|w| w.valid).copied().collect();
            if let Some(first) = valid.first() {
                registers.record_win(first.slot.index());
            }
            let mut t = now;
            for w in &valid {
                t += 1;
                let slot = w.slot.index();
                let (deadline, met) = registers.service(slot, t).expect("valid word has a packet");
                packets.push(ScheduledPacket {
                    slot: w.slot,
                    deadline,
                    completed_at: t,
                    met,
                });
            }
            if valid.is_empty() {
                t += 1;
            }
            if priority_update {
                for i in 0..registers.slots() {
                    if !valid.iter().any(|w| w.slot.index() == i) {
                        registers.expiry_check(i, t);
                    }
                }
            }
            (packets, t)
        }
    }
}

/// Decision-block stage: one shuffle-exchange (BA) or tournament round
/// (WR) per clock while SCHEDULE is active.
struct NetworkStage {
    blocks: Vec<DecisionBlock>,
    kind: FabricConfigKind,
    mode: ComparisonMode,
    schedule_cycles: u8,
    /// The stage's output register: N lanes, swapped with the wires at
    /// each active clock edge so neither side ever reallocates.
    next_lanes: Vec<StreamAttrs>,
    next_live: usize,
    active: bool,
}

impl Synchronous<RtlWires> for NetworkStage {
    fn eval(&mut self, wires: &RtlWires) {
        self.active = !wires.update_phase && wires.step < self.schedule_cycles;
        if !self.active {
            return;
        }
        match self.kind {
            FabricConfigKind::Base => {
                network::shuffle_exchange_pass_into(
                    &wires.lanes,
                    &mut self.next_lanes,
                    &mut self.blocks,
                    self.mode,
                );
                self.next_live = wires.lanes.len();
            }
            FabricConfigKind::WinnerOnly => {
                self.next_lanes.copy_from_slice(&wires.lanes);
                let mut out = 0;
                for pair in wires.lanes[..wires.live].chunks(2) {
                    self.next_lanes[out] = if pair.len() == 2 {
                        self.blocks[out].compare(pair[0], pair[1], self.mode).0
                    } else {
                        pair[0]
                    };
                    out += 1;
                }
                self.next_live = out;
            }
        }
    }

    fn commit(&mut self, wires: &mut RtlWires) {
        if self.active {
            std::mem::swap(&mut wires.lanes, &mut self.next_lanes);
            wires.live = self.next_live;
        }
    }
}

/// The register file's PRIORITY_UPDATE datapath: consumes the settled
/// lanes and applies winner/loser updates at the clock edge.
struct UpdateStage {
    registers: Registers,
    now: SharedNow,
    outbox: Outbox,
    kind: FabricConfigKind,
    priority_update: bool,
    staged: Option<(Vec<ScheduledPacket>, u64)>,
}

impl Synchronous<RtlWires> for UpdateStage {
    fn eval(&mut self, wires: &RtlWires) {
        self.staged = wires.update_phase.then(|| {
            let mut regs = self.registers.borrow_mut();
            retire(
                &mut regs,
                &wires.lanes,
                self.kind,
                self.priority_update,
                *self.now.borrow(),
            )
        });
    }

    fn commit(&mut self, _wires: &mut RtlWires) {
        if let Some((packets, now)) = self.staged.take() {
            *self.now.borrow_mut() = now;
            self.outbox.borrow_mut().extend(packets);
        }
    }
}

/// The control FSM: advances the SCHEDULE step counter and raises the
/// PRIORITY_UPDATE strobe after the last network pass.
struct ControlRtl {
    schedule_cycles: u8,
    priority_update: bool,
    next_step: u8,
    next_update: bool,
}

impl Synchronous<RtlWires> for ControlRtl {
    fn eval(&mut self, wires: &RtlWires) {
        if wires.update_phase {
            self.next_step = 0;
            self.next_update = false;
        } else {
            let step = wires.step + 1;
            self.next_update = step >= self.schedule_cycles && self.priority_update;
            self.next_step = step;
        }
    }

    fn commit(&mut self, wires: &mut RtlWires) {
        wires.step = self.next_step;
        wires.update_phase = self.next_update;
    }
}

/// The RTL fabric.
pub struct RtlFabric {
    sim: CycleSim<RtlWires>,
    registers: Registers,
    now: SharedNow,
    outbox: Outbox,
    config: FabricConfig,
    schedule_cycles: u8,
    decision_count: u64,
}

impl RtlFabric {
    /// Builds the RTL fabric (see module docs for the supported subset).
    pub fn new(config: FabricConfig) -> Result<Self> {
        if !(config.slots.is_power_of_two() && (2..=32).contains(&config.slots)) {
            return Err(Error::InvalidSlotCount(config.slots));
        }
        if config.block_order != BlockOrder::MaxFirst {
            return Err(Error::Config(
                "RTL fabric models max-first circulation only".into(),
            ));
        }
        let n = config.slots;
        let schedule_cycles = n.trailing_zeros() as u8;
        let registers: Registers = Rc::new(RefCell::new(RegisterFile::new(n)));
        let now: SharedNow = Rc::new(RefCell::new(0));
        let outbox: Outbox = Rc::new(RefCell::new(Vec::new()));

        let wires = RtlWires {
            lanes: (0..n)
                .map(|i| StreamAttrs::empty(SlotId::new_unchecked(i as u8)))
                .collect(),
            live: n,
            step: 0,
            update_phase: false,
        };
        let next_lanes = wires.lanes.clone();
        let mut sim = CycleSim::new(wires);
        sim.add(Box::new(NetworkStage {
            blocks: (0..n / 2).map(|_| DecisionBlock::new()).collect(),
            kind: config.kind,
            mode: config.mode,
            schedule_cycles,
            next_lanes,
            next_live: 0,
            active: false,
        }));
        let update_cycle = config.priority_update && !config.compute_ahead;
        sim.add(Box::new(UpdateStage {
            registers: registers.clone(),
            now: now.clone(),
            outbox: outbox.clone(),
            kind: config.kind,
            priority_update: config.priority_update,
            staged: None,
        }));
        sim.add(Box::new(ControlRtl {
            schedule_cycles,
            priority_update: update_cycle,
            next_step: 0,
            next_update: false,
        }));

        Ok(Self {
            sim,
            registers,
            now,
            outbox,
            config,
            schedule_cycles,
            decision_count: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
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

    /// Loads a stream into `slot`.
    pub fn load_stream(
        &mut self,
        slot: usize,
        state: StreamState,
        first_deadline: u64,
    ) -> Result<()> {
        self.check_slot(slot)?;
        let mut regs = self.registers.borrow_mut();
        if regs.is_configured(slot) {
            return Err(Error::SlotBusy(slot));
        }
        regs.load(slot, state, first_deadline);
        Ok(())
    }

    /// Deposits an arrival tag for `slot`.
    pub fn push_arrival(&mut self, slot: usize, arrival: Wrap16) -> Result<()> {
        self.check_slot(slot)?;
        let now = *self.now.borrow();
        self.registers.borrow_mut().push_arrival(slot, arrival, now);
        Ok(())
    }

    /// Scheduler time in packet-times.
    pub fn now(&self) -> u64 {
        *self.now.borrow()
    }

    /// Per-slot counters.
    pub fn slot_counters(&self, slot: usize) -> Result<SlotCounters> {
        self.check_slot(slot)?;
        Ok(*self.registers.borrow().counters(slot))
    }

    /// Hardware clock cycles elapsed.
    pub fn hw_cycles(&self) -> Cycles {
        self.sim.cycle()
    }

    /// Decisions retired.
    pub fn decision_count(&self) -> u64 {
        self.decision_count
    }

    /// Drives fresh attribute words from the register file onto the lanes
    /// (the combinational read at each decision boundary).
    fn prime(&mut self) {
        let lanes: Vec<StreamAttrs> = {
            let regs = self.registers.borrow();
            (0..regs.slots()).map(|i| regs.attrs(i)).collect()
        };
        let wires = self.sim.state_mut();
        wires.live = lanes.len();
        wires.lanes = lanes;
        wires.step = 0;
        wires.update_phase = false;
    }

    /// Runs clock edges until one decision retires, returning its outcome.
    /// Tests-only: the conformance harness's RTL paths, `tests/soak.rs` and
    /// `tests/compute_ahead.rs` check it against the functional fabric.
    pub fn run_decision(&mut self) -> DecisionOutcome {
        self.prime();
        let update_cycle = self.config.priority_update && !self.config.compute_ahead;
        let cycles = u64::from(self.schedule_cycles) + u64::from(update_cycle);
        for _ in 0..cycles {
            self.sim.step();
        }
        let packets: Vec<ScheduledPacket> = if update_cycle {
            self.outbox.borrow_mut().drain(..).collect()
        } else {
            // Update cycle absent — either the fair-queuing bypass or the
            // compute-ahead fold; retire combinationally at the boundary
            // (the predicated next states select on the circulated winner).
            let now = *self.now.borrow();
            let lanes = self.sim.state().lanes.clone();
            let (packets, new_now) = retire(
                &mut self.registers.borrow_mut(),
                &lanes,
                self.config.kind,
                self.config.priority_update,
                now,
            );
            *self.now.borrow_mut() = new_now;
            packets
        };
        self.decision_count += 1;
        match self.config.kind {
            FabricConfigKind::WinnerOnly => DecisionOutcome::Winner(packets.first().copied()),
            FabricConfigKind::Base => DecisionOutcome::Block(packets),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::register::LatePolicy;
    use ss_types::WindowConstraint;

    fn state(period: u64) -> StreamState {
        StreamState {
            request_period: period,
            original_window: WindowConstraint::new(1, 2),
            static_prio: 0,
            late_policy: LatePolicy::ServeLate,
        }
    }

    #[test]
    fn rtl_cycle_count_matches_model() {
        // DWCS: log2(N)+1; service-tag: log2(N).
        let config = FabricConfig::dwcs(16, FabricConfigKind::WinnerOnly);
        let mut rtl = RtlFabric::new(config).unwrap();
        rtl.load_stream(0, state(1), 1).unwrap();
        rtl.push_arrival(0, Wrap16(0)).unwrap();
        let before = rtl.hw_cycles();
        rtl.run_decision();
        assert_eq!(rtl.hw_cycles() - before, 5);

        let config = FabricConfig::service_tag(16, FabricConfigKind::WinnerOnly);
        let mut rtl = RtlFabric::new(config).unwrap();
        rtl.load_stream(0, state(1), 1).unwrap();
        rtl.push_arrival(0, Wrap16(0)).unwrap();
        let before = rtl.hw_cycles();
        rtl.run_decision();
        assert_eq!(rtl.hw_cycles() - before, 4);
    }

    #[test]
    fn rtl_rejects_unsupported_configs() {
        let min_first = FabricConfig {
            block_order: BlockOrder::MinFirst,
            ..FabricConfig::dwcs(4, FabricConfigKind::Base)
        };
        assert!(RtlFabric::new(min_first).is_err());
        assert!(RtlFabric::new(FabricConfig::dwcs(6, FabricConfigKind::Base)).is_err());
    }

    #[test]
    fn lanes_are_observable_mid_decision() {
        let config = FabricConfig::edf(4, FabricConfigKind::Base);
        let mut rtl = RtlFabric::new(config).unwrap();
        for s in 0..4 {
            rtl.load_stream(s, state(4), (s + 1) as u64).unwrap();
            rtl.push_arrival(s, Wrap16(s as u16)).unwrap();
        }
        // Prime + one clock: lanes hold the first shuffle-exchange output
        // (deadlines 1..4 → the winner is already at lane 0 after pass 1
        // of this particular input).
        rtl.prime();
        rtl.sim.step();
        let lanes = rtl.sim.state().lanes.clone();
        assert_eq!(lanes.len(), 4);
        assert!(lanes.iter().all(|l| l.valid));
        // After the full decision the winner lane holds deadline 1.
        rtl.sim.step();
        assert_eq!(rtl.sim.state().lanes[0].deadline, Wrap16(1));
    }

    #[test]
    fn rtl_idle_cycles_when_empty() {
        let config = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
        let mut rtl = RtlFabric::new(config).unwrap();
        rtl.load_stream(0, state(4), 4).unwrap();
        let out = rtl.run_decision();
        assert_eq!(out, DecisionOutcome::Winner(None));
        assert_eq!(rtl.now(), 1, "idle packet-time elapses");
    }
}

impl RtlFabric {
    /// Declares this fabric's wires on a VCD writer: per-lane deadline,
    /// slot ID and valid bits, plus the FSM step/update signals.
    pub fn declare_vcd(&self, vcd: &mut VcdWriter) -> std::result::Result<(), String> {
        vcd.add_wire("step", 8)?;
        vcd.add_wire("update_phase", 1)?;
        for i in 0..self.config.slots {
            vcd.add_wire(format!("lane{i}_deadline"), 16)?;
            vcd.add_wire(format!("lane{i}_slot"), 5)?;
            vcd.add_wire(format!("lane{i}_valid"), 1)?;
        }
        Ok(())
    }

    /// Runs `decisions` decisions while dumping every clock edge's wire
    /// values into `vcd` (one VCD timestep per hardware cycle).
    pub fn run_traced(
        &mut self,
        decisions: u64,
        vcd: &mut VcdWriter,
    ) -> std::result::Result<Vec<DecisionOutcome>, String> {
        let mut outcomes = Vec::new();
        for _ in 0..decisions {
            self.prime();
            let update_cycle = self.config.priority_update && !self.config.compute_ahead;
            let cycles = u64::from(self.schedule_cycles) + u64::from(update_cycle);
            for _ in 0..cycles {
                self.sim.step();
                vcd.set_time(self.sim.cycle())?;
                let wires = self.sim.state();
                vcd.change("step", u64::from(wires.step))?;
                vcd.change("update_phase", u64::from(wires.update_phase))?;
                for (i, lane) in wires.lanes.iter().enumerate() {
                    vcd.change(&format!("lane{i}_deadline"), u64::from(lane.deadline.raw()))?;
                    vcd.change(&format!("lane{i}_slot"), u64::from(lane.slot.raw()))?;
                    vcd.change(&format!("lane{i}_valid"), u64::from(lane.valid))?;
                }
            }
            // Retire exactly as run_decision does.
            let packets: Vec<ScheduledPacket> = if update_cycle {
                self.outbox.borrow_mut().drain(..).collect()
            } else {
                let now = *self.now.borrow();
                let lanes = self.sim.state().lanes.clone();
                let (packets, new_now) = retire(
                    &mut self.registers.borrow_mut(),
                    &lanes,
                    self.config.kind,
                    self.config.priority_update,
                    now,
                );
                *self.now.borrow_mut() = new_now;
                packets
            };
            self.decision_count += 1;
            outcomes.push(match self.config.kind {
                FabricConfigKind::WinnerOnly => DecisionOutcome::Winner(packets.first().copied()),
                FabricConfigKind::Base => DecisionOutcome::Block(packets),
            });
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod vcd_tests {
    use super::*;
    use crate::register::LatePolicy;
    use ss_types::WindowConstraint;

    #[test]
    fn traced_run_produces_waveforms_and_matches_untraced() {
        let config = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
        let mut traced = RtlFabric::new(config).unwrap();
        let mut plain = RtlFabric::new(config).unwrap();
        for s in 0..4 {
            let st = StreamState {
                request_period: 4,
                original_window: WindowConstraint::new(1, 2),
                static_prio: 0,
                late_policy: LatePolicy::ServeLate,
            };
            traced.load_stream(s, st.clone(), (s + 1) as u64).unwrap();
            plain.load_stream(s, st, (s + 1) as u64).unwrap();
            for q in 0..32u64 {
                traced.push_arrival(s, Wrap16::from_wide(q)).unwrap();
                plain.push_arrival(s, Wrap16::from_wide(q)).unwrap();
            }
        }
        let mut vcd = VcdWriter::new("sharestreams_fabric", "1ns");
        traced.declare_vcd(&mut vcd).unwrap();
        let outcomes = traced.run_traced(16, &mut vcd).unwrap();
        for o in outcomes {
            assert_eq!(o, plain.run_decision());
        }
        let doc = vcd.finish();
        assert!(doc.contains("$var wire 16 "));
        assert!(doc.contains("lane0_deadline"));
        assert!(doc.contains("update_phase"));
        // 16 decisions x 3 cycles = 48 timesteps.
        let timesteps = doc.lines().filter(|l| l.starts_with('#')).count();
        assert_eq!(timesteps, 48);
    }
}
