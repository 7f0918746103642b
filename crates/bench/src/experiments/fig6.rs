//! Figure 6 — the ShareStreams scheduler timeline: the Control & Steering
//! FSM's exact state sequence for a four-stream schedule.

use super::Runs;
use crate::anchors::{row, Anchor, Tolerance::*};
use crate::{banner, print_rows};
use ss_core::{
    Fabric, FabricConfig, FabricConfigKind, FsmState, LatePolicy, StreamState, TimelineEntry,
};
use ss_types::{WindowConstraint, Wrap16};

/// The recorded timeline of four DWCS decisions over four slots.
pub struct Fig6 {
    /// The FSM's state in every hardware cycle.
    pub(crate) timeline: Vec<TimelineEntry>,
    /// The winning slot of each decision.
    winners: Vec<Option<usize>>,
    /// Total hardware cycles.
    pub(crate) hw_cycles: u64,
}

/// Figure 6's sequence: LOAD ×4, then per decision 2 SCHEDULE + 1
/// PRIORITY_UPDATE.
#[rustfmt::skip]
const PAPER_TIMELINE: [FsmState; 16] = {
    use FsmState::{Load as L, PriorityUpdate as U, Schedule as S};
    [L, L, L, L, S(0), S(1), U, S(0), S(1), U, S(0), S(1), U, S(0), S(1), U]
};

/// Loads four streams and records four decisions — the paper's "Four
/// Stream Scheduling Timeline".
pub fn run() -> Fig6 {
    let config = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
    let mut fabric = Fabric::new(config).expect("4 slots is a valid fabric");
    fabric.enable_timeline();
    for s in 0..4 {
        let state = StreamState {
            request_period: 4,
            original_window: WindowConstraint::new(1, 2),
            static_prio: 0,
            late_policy: LatePolicy::ServeLate,
        };
        fabric.load_stream(s, state, (s + 1) as u64).expect("s < 4");
        for q in 0..4u64 {
            fabric.push_arrival(s, Wrap16::from_wide(q)).expect("s < 4");
        }
    }
    let winners = (0..4)
        .map(|_| fabric.decision_cycle_into().first().map(|p| p.slot.index()))
        .collect();
    Fig6 {
        timeline: fabric.fsm().timeline().to_vec(),
        winners,
        hw_cycles: fabric.hw_cycles(),
    }
}

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("fig6.hw_cycles", 16.0, Abs(0.0), "4 loads and 4 DWCS decisions at 4 slots take 4 + 4 × 3 hardware cycles",
        |r| r.fig6().hw_cycles as f64),
    row("fig6.timeline", 16.0, Abs(0.0), "the FSM runs LOAD ×4, then SCHEDULE, SCHEDULE, PRIORITY_UPDATE per decision (states in order)",
        |r| r.fig6().timeline.iter().zip(PAPER_TIMELINE).take_while(|(e, s)| e.state == *s).count() as f64),
];

/// Prints the state timeline (no artifact).
pub fn report(runs: &Runs) {
    banner(
        "F6",
        "Scheduler timeline: LOAD → SCHEDULE ⇄ PRIORITY_UPDATE (paper Figure 6)",
    );
    let f6 = runs.fig6();
    print_rows(&f6.timeline);
    println!("  winners per decision: {:?}", f6.winners);
    println!(
        "  hardware cycles: {} = 4 LOAD + 4 decisions x (2 SCHEDULE + 1 PRIORITY_UPDATE)",
        f6.hw_cycles
    );
}
