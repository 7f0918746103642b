//! The Control & Steering logic unit: FSM and timeline trace.
//!
//! The Control unit (paper Figure 6) begins in LOAD — filling Register Base
//! blocks with stream state from the memory interface — and then alternates
//! between SCHEDULE (driving the Decision-block muxes for log2(N) network
//! cycles) and PRIORITY_UPDATE (circulating the winner ID back to every
//! Register Base block). Fair-queuing/priority-class mappings bypass
//! PRIORITY_UPDATE entirely (paper §4.3).
//!
//! This module keeps the FSM explicit and records a per-cycle timeline so
//! the Figure 6 experiment can print the exact state sequence.

use serde::{Deserialize, Serialize};
use ss_types::Cycles;
use std::fmt;

/// The control FSM states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FsmState {
    /// Loading Register Base blocks from the memory interface.
    Load,
    /// Driving the shuffle-exchange network; the payload is the network
    /// cycle index within this decision (0-based, < log2 N).
    Schedule(u8),
    /// Circulating the winner ID to all Register Base blocks.
    PriorityUpdate,
}

impl fmt::Display for FsmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsmState::Load => write!(f, "LOAD"),
            FsmState::Schedule(i) => write!(f, "SCHEDULE[{i}]"),
            FsmState::PriorityUpdate => write!(f, "PRIORITY_UPDATE"),
        }
    }
}

/// One timeline entry: the FSM state occupied at a hardware cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineEntry {
    /// Hardware cycle number.
    pub cycle: Cycles,
    /// State during that cycle.
    pub state: FsmState,
}

/// The Control & Steering FSM.
///
/// `schedule_cycles` is log2(N); `priority_update` is false for
/// fair-queuing / priority-class mappings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControlFsm {
    schedule_cycles: u8,
    priority_update: bool,
    state: FsmState,
    cycle: Cycles,
    timeline: Vec<TimelineEntry>,
    record: bool,
}

impl ControlFsm {
    /// Creates the FSM in LOAD.
    pub fn new(schedule_cycles: u8, priority_update: bool) -> Self {
        assert!(schedule_cycles >= 1, "need at least one schedule cycle");
        Self {
            schedule_cycles,
            priority_update,
            state: FsmState::Load,
            cycle: 0,
            timeline: Vec::new(),
            record: false,
        }
    }

    /// Enables timeline recording (off by default: long runs would
    /// accumulate unbounded traces).
    pub fn enable_recording(&mut self) {
        self.record = true;
    }

    /// Hardware cycles consumed so far.
    pub fn cycle(&self) -> Cycles {
        self.cycle
    }

    /// The recorded timeline (empty unless recording was enabled).
    pub fn timeline(&self) -> &[TimelineEntry] {
        &self.timeline
    }

    fn tick(&mut self) {
        if self.record {
            self.timeline.push(TimelineEntry {
                cycle: self.cycle,
                state: self.state,
            });
        }
        self.cycle += 1;
    }

    /// Spends `cycles` in LOAD (initial register fill; re-loads on stream
    /// set changes).
    ///
    /// # Panics
    /// Panics if called mid-decision (the hardware only re-enters LOAD
    /// between decisions).
    pub fn load(&mut self, cycles: Cycles) {
        assert!(
            matches!(self.state, FsmState::Load),
            "LOAD only valid from LOAD state (between decisions)"
        );
        for _ in 0..cycles {
            self.tick();
        }
    }

    /// Runs one full decision: log2(N) SCHEDULE cycles, then one
    /// PRIORITY_UPDATE cycle if enabled. Returns the hardware cycles spent.
    #[inline]
    pub fn run_decision(&mut self) -> Cycles {
        if !self.record {
            // Same observable effect as the ticked walk below — the
            // timeline stays empty, so only the cycle count and the LOAD
            // boundary survive — without an FSM store per network pass.
            let total = u64::from(self.schedule_cycles) + u64::from(self.priority_update);
            self.cycle += total;
            self.state = FsmState::Load;
            return total;
        }
        let start = self.cycle;
        for i in 0..self.schedule_cycles {
            self.state = FsmState::Schedule(i);
            self.tick();
        }
        if self.priority_update {
            self.state = FsmState::PriorityUpdate;
            self.tick();
        }
        // Back to the boundary: next decision starts with SCHEDULE, or LOAD
        // may be re-entered by the systems software.
        self.state = FsmState::Load;
        self.cycle - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_in_load() {
        let fsm = ControlFsm::new(2, true);
        assert_eq!(fsm.state, FsmState::Load);
        assert_eq!(fsm.cycle(), 0);
    }

    #[test]
    fn decision_cycle_counts() {
        // 4 slots, window-constrained: 2 + 1 = 3 cycles (paper Figure 6).
        let mut fsm = ControlFsm::new(2, true);
        assert_eq!(fsm.run_decision(), 3);
        // Fair-queuing bypass: 2 cycles only.
        let mut fsm = ControlFsm::new(2, false);
        assert_eq!(fsm.run_decision(), 2);
    }

    #[test]
    fn timeline_matches_figure_6_shape() {
        // LOAD, then alternating SCHEDULE / PRIORITY_UPDATE.
        let mut fsm = ControlFsm::new(2, true);
        fsm.enable_recording();
        fsm.load(2);
        fsm.run_decision();
        fsm.run_decision();
        let states: Vec<FsmState> = fsm.timeline().iter().map(|e| e.state).collect();
        assert_eq!(
            states,
            vec![
                FsmState::Load,
                FsmState::Load,
                FsmState::Schedule(0),
                FsmState::Schedule(1),
                FsmState::PriorityUpdate,
                FsmState::Schedule(0),
                FsmState::Schedule(1),
                FsmState::PriorityUpdate,
            ]
        );
        // Cycle stamps are consecutive.
        for (i, e) in fsm.timeline().iter().enumerate() {
            assert_eq!(e.cycle, i as u64);
        }
    }

    #[test]
    fn no_recording_by_default() {
        let mut fsm = ControlFsm::new(3, true);
        fsm.run_decision();
        assert!(fsm.timeline().is_empty());
    }

    #[test]
    #[should_panic(expected = "LOAD only valid")]
    fn load_rejected_mid_decision() {
        // Force a mid-decision state by hand-driving: run_decision leaves
        // the FSM at the boundary, so simulate the misuse via a custom
        // sequence: we cannot reach mid-decision externally, so this guards
        // the invariant by construction — calling load after tampering.
        let mut fsm = ControlFsm::new(2, true);
        fsm.state = FsmState::Schedule(0);
        fsm.load(1);
    }

    #[test]
    fn display_states() {
        assert_eq!(FsmState::Load.to_string(), "LOAD");
        assert_eq!(FsmState::Schedule(1).to_string(), "SCHEDULE[1]");
        assert_eq!(FsmState::PriorityUpdate.to_string(), "PRIORITY_UPDATE");
    }

    #[test]
    #[should_panic(expected = "at least one schedule cycle")]
    fn zero_schedule_cycles_rejected() {
        ControlFsm::new(0, true);
    }
}
