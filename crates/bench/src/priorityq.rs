//! Hardware priority-queue baselines from the paper's related work (§3).
//!
//! Traditional wire-speed schedulers assign each arriving packet a service
//! tag and keep packets in a hardware priority queue: a pipelined binary
//! heap (Ioannou & Katevenis), a systolic array queue, or a shift-register
//! chain (Moon, Rexford & Shin; Bhagwan & Lin). The paper argues none of
//! these yields a *unified canonical architecture*:
//!
//! 1. the systolic queue and the shift-register chain replicate the
//!    (complex, multi-attribute) Decision block in every element — N of
//!    them, where ShareStreams needs only N/2. The pipelined heap needs
//!    only two per level (2·log₂N: 12 at 32 slots, fewer than the
//!    shuffle's 16), so this half of the argument does not hold for it;
//!    and
//! 2. window-constrained disciplines update priorities every decision cycle,
//!    forcing a full re-sort of the heap/systolic/shift structure per
//!    decision, while the recirculating shuffle re-orders as a side effect
//!    of its normal log2(N) operation.
//!
//! This module implements the three structures (plus the binary comparator
//! tree the paper dismisses as area-wasteful) behind one trait with cycle
//! and comparator-count accounting, so the §3 argument can be *measured*
//! rather than asserted: [`CostModel`] tabulates it, and `exp
//! priority_queues` checks the paper's claims against that table.

pub mod heap;
pub mod model;
pub mod shift_register;
pub mod systolic;
pub mod tree;

pub use heap::PipelinedHeap;
pub use model::CostModel;
pub use shift_register::ShiftRegisterChain;
pub use systolic::SystolicQueue;
pub use tree::ComparatorTree;

use ss_types::Cycles;

/// An entry in a hardware priority queue: a service tag plus a flow ID.
/// Lower keys dequeue first; equal keys dequeue FIFO (by sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PqEntry {
    /// Service tag (priority; lower = sooner).
    pub key: u64,
    /// Flow/stream identifier.
    pub id: u32,
}

/// A hardware priority-queue structure with cycle/area accounting.
///
/// Cycle costs model the structure's *initiation interval* — the cycles the
/// head of the structure is busy per operation — matching how the cited
/// designs are evaluated.
pub trait HwPriorityQueue {
    /// Structure name for reports.
    fn name(&self) -> &'static str;

    /// Inserts an entry, returning the cycles consumed.
    ///
    /// # Panics
    /// Panics if the structure is full.
    fn insert(&mut self, entry: PqEntry) -> Cycles;

    /// Removes and returns the minimum-key entry with its cycle cost.
    fn extract_min(&mut self) -> (Option<PqEntry>, Cycles);

    /// Entries currently stored.
    fn len(&self) -> usize;

    /// `true` when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of comparator (Decision-block-equivalent) instances the
    /// structure replicates — the paper's area argument.
    fn comparator_count(&self) -> usize;

    /// Cycles to re-establish order after an external update of every
    /// stored key (what a window-constrained discipline forces every
    /// decision cycle): drain + reinsert unless the structure can do
    /// better.
    fn resort_cycles(&self) -> Cycles;
}

#[cfg(test)]
pub(crate) mod conformance {
    use super::*;

    /// Inserts `keys`, then drains, checking sorted order and conservation.
    pub(crate) fn check_ordering<Q: HwPriorityQueue>(q: &mut Q, keys: &[u64]) {
        for (i, &k) in keys.iter().enumerate() {
            q.insert(PqEntry {
                key: k,
                id: i as u32,
            });
        }
        assert_eq!(q.len(), keys.len());
        let mut out = Vec::new();
        while let (Some(e), _) = q.extract_min() {
            out.push(e);
        }
        assert_eq!(out.len(), keys.len(), "conservation");
        assert!(q.is_empty());
        for pair in out.windows(2) {
            assert!(pair[0].key <= pair[1].key, "order violated: {pair:?}");
        }
        let mut in_keys = keys.to_vec();
        let mut out_keys: Vec<u64> = out.iter().map(|e| e.key).collect();
        in_keys.sort_unstable();
        out_keys.sort_unstable();
        assert_eq!(in_keys, out_keys, "multiset identity");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_equality() {
        let a = PqEntry { key: 5, id: 1 };
        assert_eq!(a, PqEntry { key: 5, id: 1 });
        assert_ne!(a, PqEntry { key: 5, id: 2 });
    }
}
