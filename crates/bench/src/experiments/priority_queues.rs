//! §3 — the related-work hardware priority queues against the
//! recirculating shuffle, in comparators and in cycles per decision.
//!
//! The paper argues that one recirculating shuffle of N/2 Decision blocks
//! replaces a tree of N − 1 comparators and the N per-element comparators
//! of a systolic queue or a shift-register chain (the pipelined heap's
//! 2·log₂N is smaller, so no row claims area against it), and that all
//! three queues must re-sort every stored stream on each
//! window-constrained decision, where the shuffle re-orders as a side
//! effect of its log₂N passes. The queues' cycle counts are their
//! own operation accounting ([`crate::priorityq`]), not constants.

use super::Runs;
use crate::anchors::{row, Anchor, Tolerance::*};
use crate::priorityq::CostModel;
use crate::{banner, print_rows, write_json};

/// Tabulates [`CostModel::table`] at 4, 8, 16 and 32 slots; the result is
/// `results/priority_queues.json`.
pub fn run() -> Vec<CostModel> {
    [4, 8, 16, 32].into_iter().flat_map(CostModel::table).collect()
}

/// The queues that re-sort on every window-constrained decision.
const QUEUES: [&str; 3] = ["pipelined-heap", "systolic-queue", "shift-register-chain"];
const SHUFFLE: &str = "sharestreams-shuffle";

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("priority_queues.shuffle_comparators_32", 16.0, Abs(0.0), "§3: the recirculating shuffle needs N/2 = 16 Decision blocks at 32 slots",
        |r| cost(r, 32, SHUFFLE).comparators as f64),
    row("priority_queues.tree_comparators_32", 31.0, Abs(0.0), "§3: a comparator tree needs N − 1 = 31 comparators at 32 slots",
        |r| cost(r, 32, "comparator-tree").comparators as f64),
    row("priority_queues.element_queues_comparators_32", 16.0, Above, "§3: the systolic queue and the shift-register chain replicate a comparator in every element, more than the shuffle's 16 at 32 slots (the smaller of the two)",
        |r| cost(r, 32, "systolic-queue").comparators.min(cost(r, 32, "shift-register-chain").comparators) as f64),
    row("priority_queues.shuffle_cycles_32", 6.0, Abs(0.0), "§3: the shuffle re-orders in its own log₂N + 1 = 6 cycles per window-constrained decision at 32 slots",
        |r| cost(r, 32, SHUFFLE).cycles_per_wc_decision as f64),
    row("priority_queues.queues_resort_slower", 0.0, Above, "§3: every heap, systolic and shift-register queue costs more cycles per window-constrained decision than the shuffle, at every width (smallest margin)",
        queue_margin),
];

fn cost<'a>(r: &'a Runs, slots: usize, structure: &str) -> &'a CostModel {
    let row = r.priority_queues().iter().find(|c| c.slots == slots && c.structure == structure);
    row.expect("a tabulated structure and width")
}

fn queue_margin(r: &Runs) -> f64 {
    let queues = r.priority_queues().iter().filter(|c| QUEUES.contains(&c.structure.as_str()));
    let shuffle = |c: &CostModel| cost(r, c.slots, SHUFFLE).cycles_per_wc_decision;
    let margins = queues.map(|c| c.cycles_per_wc_decision as f64 - shuffle(c) as f64);
    margins.fold(f64::INFINITY, f64::min)
}

/// Prints the cost table and writes `results/priority_queues.json`.
pub fn report(runs: &Runs) {
    banner("§3", "Hardware priority queues vs the recirculating shuffle");
    print_rows(runs.priority_queues());
    write_json("priority_queues", runs.priority_queues());
}
