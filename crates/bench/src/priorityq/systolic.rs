//! Systolic priority queue (Leiserson-style, per Moon/Rexford/Shin).
//!
//! A linear array of cells, each holding one entry and exchanging with its
//! neighbour every cycle: inserts push at the head and ripple right,
//! extracts pop the head while entries ripple left. The head responds in
//! O(1) cycles; the ripple proceeds concurrently inside the array — which
//! is why the structure needs a comparator in *every* cell (the paper's
//! replication complaint).

use super::{HwPriorityQueue, PqEntry};
use ss_types::Cycles;

/// Head initiation interval per operation, in cycles.
pub const SYSTOLIC_OP_CYCLES: Cycles = 1;

/// A bounded systolic priority queue.
///
/// Functionally a sorted array (head = minimum); the systolic ripple that
/// maintains sortedness happens off the critical path in hardware, so the
/// software model keeps the array exactly sorted between operations.
#[derive(Debug)]
pub struct SystolicQueue {
    /// Sorted ascending by (key, seq).
    cells: Vec<(u64, u64, PqEntry)>,
    capacity: usize,
    next_seq: u64,
}

impl SystolicQueue {
    /// Creates a queue of `capacity` cells.
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

impl HwPriorityQueue for SystolicQueue {
    fn name(&self) -> &'static str {
        "systolic-queue"
    }

    fn insert(&mut self, entry: PqEntry) -> Cycles {
        assert!(self.cells.len() < self.capacity, "systolic queue full");
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self
            .cells
            .partition_point(|&(k, s, _)| (k, s) <= (entry.key, seq));
        self.cells.insert(pos, (entry.key, seq, entry));
        SYSTOLIC_OP_CYCLES
    }

    fn extract_min(&mut self) -> (Option<PqEntry>, Cycles) {
        if self.cells.is_empty() {
            (None, SYSTOLIC_OP_CYCLES)
        } else {
            let (_, _, e) = self.cells.remove(0);
            (Some(e), SYSTOLIC_OP_CYCLES)
        }
    }

    fn len(&self) -> usize {
        self.cells.len()
    }

    /// One comparator per cell.
    fn comparator_count(&self) -> usize {
        self.capacity
    }

    /// Re-sort: drain + refill through the head (O(1) per op but strictly
    /// serialized at the head port).
    fn resort_cycles(&self) -> Cycles {
        2 * self.len() as Cycles * SYSTOLIC_OP_CYCLES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priorityq::conformance;
    use proptest::prelude::*;

    #[test]
    fn ordering() {
        let mut q = SystolicQueue::new(32);
        conformance::check_ordering(&mut q, &[5, 3, 9, 1, 1, 7]);
    }

    #[test]
    fn fifo_among_equal_keys() {
        let mut q = SystolicQueue::new(8);
        for id in 0..5 {
            q.insert(PqEntry { key: 2, id });
        }
        for expect in 0..5 {
            assert_eq!(q.extract_min().0.unwrap().id, expect);
        }
    }

    #[test]
    fn interleaved_ops() {
        let mut q = SystolicQueue::new(8);
        q.insert(PqEntry { key: 5, id: 0 });
        q.insert(PqEntry { key: 1, id: 1 });
        assert_eq!(q.extract_min().0.unwrap().id, 1);
        q.insert(PqEntry { key: 3, id: 2 });
        assert_eq!(q.extract_min().0.unwrap().id, 2);
        assert_eq!(q.extract_min().0.unwrap().id, 0);
        assert_eq!(q.extract_min().0, None);
    }

    #[test]
    #[should_panic(expected = "systolic queue full")]
    fn overflow_panics() {
        let mut q = SystolicQueue::new(1);
        q.insert(PqEntry { key: 1, id: 0 });
        q.insert(PqEntry { key: 2, id: 1 });
    }

    #[test]
    fn area_scales_with_capacity() {
        assert_eq!(SystolicQueue::new(32).comparator_count(), 32);
        assert_eq!(SystolicQueue::new(8).comparator_count(), 8);
    }

    proptest! {
        #[test]
        fn ordering_random(keys in proptest::collection::vec(any::<u64>(), 1..32)) {
            let mut q = SystolicQueue::new(32);
            conformance::check_ordering(&mut q, &keys);
        }
    }
}
