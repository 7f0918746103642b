//! Shift-register chain priority queue (Moon, Rexford & Shin, ToC 2000).
//!
//! Every cell holds one entry and a comparator. On insert, the new entry is
//! broadcast to all cells simultaneously; each cell locally decides to keep
//! its entry, shift right, or capture the new entry — a single cycle
//! regardless of occupancy. Extract pops the head as the chain shifts left.
//! The price is a comparator *and* broadcast wiring in every cell.

use super::{HwPriorityQueue, PqEntry};
use ss_types::Cycles;

/// Per-operation cost: single-cycle broadcast insert / shift extract.
pub const SHIFT_OP_CYCLES: Cycles = 1;

/// A bounded shift-register chain.
#[derive(Debug)]
pub struct ShiftRegisterChain {
    /// Sorted ascending by (key, seq); index 0 is the head cell.
    cells: Vec<(u64, u64, PqEntry)>,
    capacity: usize,
    next_seq: u64,
}

impl ShiftRegisterChain {
    /// Creates a chain of `capacity` cells.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            cells: Vec::with_capacity(capacity),
            capacity,
            next_seq: 0,
        }
    }
}

impl HwPriorityQueue for ShiftRegisterChain {
    fn name(&self) -> &'static str {
        "shift-register-chain"
    }

    fn insert(&mut self, entry: PqEntry) -> Cycles {
        assert!(
            self.cells.len() < self.capacity,
            "shift-register chain full"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        // Broadcast compare: each cell decides in parallel; the net effect
        // is an ordered insert completing in one cycle.
        let pos = self
            .cells
            .partition_point(|&(k, s, _)| (k, s) <= (entry.key, seq));
        self.cells.insert(pos, (entry.key, seq, entry));
        SHIFT_OP_CYCLES
    }

    fn extract_min(&mut self) -> (Option<PqEntry>, Cycles) {
        if self.cells.is_empty() {
            (None, SHIFT_OP_CYCLES)
        } else {
            let (_, _, e) = self.cells.remove(0);
            (Some(e), SHIFT_OP_CYCLES)
        }
    }

    fn len(&self) -> usize {
        self.cells.len()
    }

    /// A comparator per cell, plus the broadcast bus (counted as wiring,
    /// not comparators).
    fn comparator_count(&self) -> usize {
        self.capacity
    }

    /// Re-sort after a global priority update: the chain cannot re-order in
    /// place — drain and re-broadcast every entry.
    fn resort_cycles(&self) -> Cycles {
        2 * self.len() as Cycles * SHIFT_OP_CYCLES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priorityq::conformance;
    use proptest::prelude::*;

    #[test]
    fn ordering() {
        let mut q = ShiftRegisterChain::new(16);
        conformance::check_ordering(&mut q, &[4, 4, 2, 8, 0]);
    }

    #[test]
    fn fifo_among_equal_keys() {
        let mut q = ShiftRegisterChain::new(8);
        for id in 0..4 {
            q.insert(PqEntry { key: 9, id });
        }
        for expect in 0..4 {
            assert_eq!(q.extract_min().0.unwrap().id, expect);
        }
    }

    #[test]
    fn single_cycle_costs() {
        let mut q = ShiftRegisterChain::new(8);
        assert_eq!(q.insert(PqEntry { key: 1, id: 0 }), 1);
        assert_eq!(q.extract_min().1, 1);
    }

    #[test]
    #[should_panic(expected = "chain full")]
    fn overflow_panics() {
        let mut q = ShiftRegisterChain::new(1);
        q.insert(PqEntry { key: 1, id: 0 });
        q.insert(PqEntry { key: 1, id: 1 });
    }

    proptest! {
        #[test]
        fn ordering_random(keys in proptest::collection::vec(any::<u64>(), 1..16)) {
            let mut q = ShiftRegisterChain::new(16);
            conformance::check_ordering(&mut q, &keys);
        }
    }
}
