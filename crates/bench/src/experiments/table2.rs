//! Table 2 — scheduler decision rules: drives the Decision block through a
//! DWCS workload and counts which rule decided each pairwise comparison.

use super::Runs;
use crate::anchors::{row, Anchor, Tolerance::*};
use crate::{banner, print_rows, write_json};
use ss_core::{Fabric, FabricConfig, FabricConfigKind, LatePolicy, RuleCounters, StreamState};
use ss_types::{WindowConstraint, Wrap16};

/// Runs the engineered workload; the result is `results/table2.json`.
pub fn run() -> RuleCounters {
    // A workload engineered so every Table 2 rule discriminates somewhere:
    // BA block mode services *all* slots each decision, so slots with equal
    // request periods keep tied deadlines forever — the tie-break rules
    // (2–5) then fire; one slow slot (double period) diverges and keeps
    // rule 1 firing; one sparsely-fed slot drains and exercises the
    // slot-valid arbitration.
    let config = FabricConfig::dwcs(8, FabricConfigKind::Base);
    let mut fabric = Fabric::new(config).expect("8 slots is a valid fabric");
    let configs: [(u64, WindowConstraint, u64); 8] = [
        (8, WindowConstraint::new(0, 1), 2_000), // zero constraint
        (8, WindowConstraint::new(0, 1), 2_000), // identical twin → slot-ID
        (8, WindowConstraint::new(0, 3), 2_000), // zero, bigger den → rule 3
        (8, WindowConstraint::new(1, 2), 2_000),
        (8, WindowConstraint::new(2, 4), 2_000), // equal value, higher num → rule 4
        (8, WindowConstraint::new(3, 4), 2_000),
        (16, WindowConstraint::new(1, 8), 2_000), // diverging deadline → rule 1
        (8, WindowConstraint::new(1, 2), 10),     // drains → validity rule
    ];
    for (slot, (period, window, arrivals)) in configs.iter().enumerate() {
        let state = StreamState {
            request_period: *period,
            original_window: *window,
            static_prio: 0,
            late_policy: LatePolicy::ServeLate,
        };
        // Identical first deadlines.
        fabric.load_stream(slot, state, 8).expect("slot < 8");
        for q in 0..*arrivals {
            // Twin slots 0/1 share arrival tags (slot-ID tie-break); the
            // rest are offset (FCFS rule).
            let tag = if slot <= 1 {
                q * 2
            } else {
                q * 2 + slot as u64 % 2 + 1
            };
            let tag = Wrap16::from_wide(tag);
            fabric.push_arrival(slot, tag).expect("slot < 8");
        }
    }
    for _ in 0..2_000 {
        fabric.decision_cycle();
    }
    fabric.rule_counters()
}

/// The five Table 2 rules' firing counts, in the paper's order.
fn rules(rc: &RuleCounters) -> [u64; 5] {
    [
        rc.earliest_deadline,
        rc.lowest_window_constraint,
        rc.highest_denominator,
        rc.lowest_numerator,
        rc.fcfs,
    ]
}

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("table2.rules_fire", 5.0, Abs(0.0), "all five Table 2 rules decide some comparison (rules that fired)",
        |r| rules(r.table2()).iter().filter(|&&n| n > 0).count() as f64),
];

/// Prints the rule census and writes `results/table2.json`.
pub fn report(runs: &Runs) {
    banner("T2", "Decision-rule firing census (paper Table 2)");
    let rc = runs.table2();
    print_rows(rc);
    println!("  total pairwise comparisons: {}", rc.total());
    write_json("table2", rc);
}
