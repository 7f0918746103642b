//! Pipelined binary heap (Ioannou & Katevenis, ICC 2001).
//!
//! A hardware heap keeps one comparator per tree level so that successive
//! operations pipeline down the levels: each operation occupies the root
//! for O(1) cycles while its sift proceeds level by level behind it. We
//! model the initiation interval as 2 cycles per operation (read-modify-
//! write at the root) and account latency separately; a full resort —
//! what a window-constrained discipline needs each decision — still costs
//! a drain-and-refill.

use super::{HwPriorityQueue, PqEntry};
use ss_types::Cycles;

/// Initiation interval of a pipelined heap operation, in cycles.
pub const HEAP_OP_CYCLES: Cycles = 2;

/// A bounded binary min-heap with hardware cost accounting.
#[derive(Debug)]
pub struct PipelinedHeap {
    /// (key, fifo sequence, entry) — sequence gives FIFO among equal keys.
    items: Vec<(u64, u64, PqEntry)>,
    capacity: usize,
    next_seq: u64,
}

impl PipelinedHeap {
    /// Creates a heap for up to `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            items: Vec::with_capacity(capacity),
            capacity,
            next_seq: 0,
        }
    }

    /// Number of tree levels (pipeline depth / operation latency in
    /// cycles).
    pub fn levels(&self) -> u32 {
        (usize::BITS - self.capacity.leading_zeros()).max(1)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if (self.items[i].0, self.items[i].1) < (self.items[parent].0, self.items[parent].1) {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            for c in [l, r] {
                if c < self.items.len()
                    && (self.items[c].0, self.items[c].1)
                        < (self.items[smallest].0, self.items[smallest].1)
                {
                    smallest = c;
                }
            }
            if smallest == i {
                break;
            }
            self.items.swap(i, smallest);
            i = smallest;
        }
    }
}

impl HwPriorityQueue for PipelinedHeap {
    fn name(&self) -> &'static str {
        "pipelined-heap"
    }

    fn insert(&mut self, entry: PqEntry) -> Cycles {
        assert!(self.items.len() < self.capacity, "heap full");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.items.push((entry.key, seq, entry));
        self.sift_up(self.items.len() - 1);
        HEAP_OP_CYCLES
    }

    fn extract_min(&mut self) -> (Option<PqEntry>, Cycles) {
        if self.items.is_empty() {
            return (None, HEAP_OP_CYCLES);
        }
        let n = self.items.len();
        self.items.swap(0, n - 1);
        let (_, _, entry) = self.items.pop().expect("non-empty");
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        (Some(entry), HEAP_OP_CYCLES)
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    /// One comparator pair per level (sift stage).
    fn comparator_count(&self) -> usize {
        self.levels() as usize * 2
    }

    /// Re-sort = drain + refill through the pipelined root.
    fn resort_cycles(&self) -> Cycles {
        2 * self.len() as Cycles * HEAP_OP_CYCLES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priorityq::conformance;
    use proptest::prelude::*;

    #[test]
    fn ordering() {
        let mut h = PipelinedHeap::new(64);
        conformance::check_ordering(&mut h, &[9, 1, 8, 2, 7, 3, 6, 4, 5, 5]);
    }

    #[test]
    fn fifo_among_equal_keys() {
        let mut h = PipelinedHeap::new(8);
        for id in 0..5 {
            h.insert(PqEntry { key: 7, id });
        }
        for expect in 0..5 {
            assert_eq!(h.extract_min().0.unwrap().id, expect);
        }
    }

    #[test]
    fn extract_from_empty() {
        let mut h = PipelinedHeap::new(4);
        assert_eq!(h.extract_min().0, None);
    }

    #[test]
    #[should_panic(expected = "heap full")]
    fn overflow_panics() {
        let mut h = PipelinedHeap::new(2);
        for id in 0..3 {
            h.insert(PqEntry { key: 1, id });
        }
    }

    #[test]
    fn cost_model() {
        let mut h = PipelinedHeap::new(32);
        assert_eq!(h.insert(PqEntry { key: 3, id: 0 }), HEAP_OP_CYCLES);
        assert_eq!(h.levels(), 6); // 32 entries → 6 levels
        assert_eq!(h.comparator_count(), 12);
        for id in 1..32 {
            h.insert(PqEntry { key: id as u64, id });
        }
        // Resort: 32 extracts + 32 inserts at 2 cycles each.
        assert_eq!(h.resort_cycles(), 128);
    }

    proptest! {
        #[test]
        fn ordering_random(keys in proptest::collection::vec(any::<u64>(), 1..64)) {
            let mut h = PipelinedHeap::new(64);
            conformance::check_ordering(&mut h, &keys);
        }
    }
}
