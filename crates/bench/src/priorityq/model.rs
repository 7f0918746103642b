//! Quantified comparison of the §3 architecture argument.
//!
//! For each structure, the cost of serving a window-constrained discipline
//! (which re-prioritizes *every stored stream* each decision) versus
//! ShareStreams' recirculating shuffle, in comparator area and in cycles
//! per decision. `exp priority_queues` tabulates it at 4–32 slots, and its
//! anchor rows state the §3 claims.

use super::{ComparatorTree, HwPriorityQueue, PipelinedHeap, ShiftRegisterChain, SystolicQueue};
use serde::{Deserialize, Serialize};
use ss_types::Cycles;

/// Cycles a structure needs per window-constrained decision: extract the
/// winner, then re-establish order after the global priority update.
fn resort_cost_cycles<Q: HwPriorityQueue>(q: &Q, extract_cycles: Cycles) -> Cycles {
    extract_cycles + q.resort_cycles()
}

/// One row of the §3 comparison table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// Structure name.
    pub structure: String,
    /// Streams `n` the row is priced at.
    pub slots: usize,
    /// Comparator (Decision-block-equivalent) instances at `n` streams.
    pub comparators: usize,
    /// Cycles per window-constrained decision (winner + resort).
    pub cycles_per_wc_decision: Cycles,
    /// Cycles per static-tag decision (no resort needed).
    pub cycles_per_static_decision: Cycles,
}

impl CostModel {
    /// Builds the comparison table for `n` streams (power of two), with
    /// ShareStreams' recirculating shuffle as the last row.
    pub fn table(n: usize) -> Vec<CostModel> {
        assert!(
            n.is_power_of_two() && n >= 2,
            "n must be a power of two >= 2"
        );
        let log2n = n.trailing_zeros() as Cycles;

        let mut rows = Vec::new();

        let mut heap = PipelinedHeap::new(n);
        let mut systolic = SystolicQueue::new(n);
        let mut shift = ShiftRegisterChain::new(n);
        let mut tree = ComparatorTree::new(n);
        for i in 0..n {
            let e = super::PqEntry {
                key: i as u64,
                id: i as u32,
            };
            heap.insert(e);
            systolic.insert(e);
            shift.insert(e);
            tree.insert(e);
        }

        rows.push(CostModel {
            slots: n,
            structure: heap.name().into(),
            comparators: heap.comparator_count(),
            cycles_per_wc_decision: resort_cost_cycles(&heap, 2),
            cycles_per_static_decision: 2,
        });
        rows.push(CostModel {
            slots: n,
            structure: systolic.name().into(),
            comparators: systolic.comparator_count(),
            cycles_per_wc_decision: resort_cost_cycles(&systolic, 1),
            cycles_per_static_decision: 1,
        });
        rows.push(CostModel {
            slots: n,
            structure: shift.name().into(),
            comparators: shift.comparator_count(),
            cycles_per_wc_decision: resort_cost_cycles(&shift, 1),
            cycles_per_static_decision: 1,
        });
        rows.push(CostModel {
            slots: n,
            structure: tree.name().into(),
            comparators: tree.comparator_count(),
            cycles_per_wc_decision: resort_cost_cycles(&tree, log2n),
            cycles_per_static_decision: log2n,
        });
        // ShareStreams: N/2 decision blocks; the log2(N) recirculation + 1
        // update cycle IS the resort.
        rows.push(CostModel {
            slots: n,
            structure: "sharestreams-shuffle".into(),
            comparators: n / 2,
            cycles_per_wc_decision: log2n + 1,
            cycles_per_static_decision: log2n,
        });
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tags_favor_simple_queues() {
        // The flip side the paper concedes: for fair-queuing (static tags),
        // a systolic queue or shift chain answers in 1 cycle vs log2 N.
        let table = CostModel::table(16);
        let systolic = table
            .iter()
            .find(|r| r.structure == "systolic-queue")
            .unwrap();
        let shuffle = table.last().unwrap();
        assert!(systolic.cycles_per_static_decision < shuffle.cycles_per_static_decision);
    }

    #[test]
    fn wc_decision_costs_grow_linearly_for_queues() {
        let t8 = CostModel::table(8);
        let t32 = CostModel::table(32);
        let cost = |t: &[CostModel], name: &str| {
            t.iter()
                .find(|r| r.structure == name)
                .unwrap()
                .cycles_per_wc_decision
        };
        // 4× streams → ~4× resort cost for the queue structures…
        assert!(cost(&t32, "systolic-queue") >= 3 * cost(&t8, "systolic-queue"));
        // …but only +2 cycles for the shuffle.
        assert_eq!(
            cost(&t32, "sharestreams-shuffle"),
            cost(&t8, "sharestreams-shuffle") + 2
        );
    }
}
