//! Binary comparator tree: the structure the paper rejects on area grounds.
//!
//! A full tree over N leaf slots finds the minimum in log2(N) gate levels
//! using N−1 comparators. For disciplines with static tags the levels can
//! be pipelined; for window-constrained disciplines the winner must
//! recirculate to the state store before the next decision, so pipelining
//! is impossible and the upper levels are pure area waste — ShareStreams
//! keeps only the lowest level (N/2 comparators) and recirculates (§4.3).

use super::{HwPriorityQueue, PqEntry};
use ss_types::Cycles;

/// A fixed-capacity comparator tree over leaf slots.
#[derive(Debug)]
pub struct ComparatorTree {
    /// Leaf slots; `None` = empty.
    leaves: Vec<Option<(u64, u64, PqEntry)>>,
    len: usize,
    next_seq: u64,
}

impl ComparatorTree {
    /// Creates a tree over `capacity` leaves (rounded up to a power of two).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let cap = capacity.next_power_of_two();
        Self {
            leaves: vec![None; cap],
            len: 0,
            next_seq: 0,
        }
    }

    /// Tree depth in comparator levels.
    pub fn levels(&self) -> u32 {
        self.leaves.len().trailing_zeros()
    }
}

impl HwPriorityQueue for ComparatorTree {
    fn name(&self) -> &'static str {
        "comparator-tree"
    }

    /// Insert writes any free leaf: one cycle (register write).
    fn insert(&mut self, entry: PqEntry) -> Cycles {
        let free = self
            .leaves
            .iter()
            .position(|l| l.is_none())
            .expect("comparator tree full");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.leaves[free] = Some((entry.key, seq, entry));
        self.len += 1;
        1
    }

    /// Extract propagates through log2(N) comparator levels.
    fn extract_min(&mut self) -> (Option<PqEntry>, Cycles) {
        let cycles = Cycles::from(self.levels());
        let best = self
            .leaves
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|(k, s, _)| ((k, s), i)))
            .min()
            .map(|(_, i)| i);
        match best {
            Some(i) => {
                let (_, _, e) = self.leaves[i].take().expect("selected leaf occupied");
                self.len -= 1;
                (Some(e), cycles)
            }
            None => (None, cycles),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// N−1 comparators — twice ShareStreams' N/2 for the same N.
    fn comparator_count(&self) -> usize {
        self.leaves.len() - 1
    }

    /// The tree re-evaluates combinationally after leaf updates: a resort
    /// is one full propagation. (Its weakness is area, not resort time.)
    fn resort_cycles(&self) -> Cycles {
        Cycles::from(self.levels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priorityq::conformance;
    use proptest::prelude::*;

    #[test]
    fn ordering() {
        let mut t = ComparatorTree::new(16);
        conformance::check_ordering(&mut t, &[3, 1, 4, 1, 5, 9, 2, 6]);
    }

    #[test]
    fn fifo_among_equal_keys() {
        let mut t = ComparatorTree::new(8);
        for id in 0..6 {
            t.insert(PqEntry { key: 1, id });
        }
        for expect in 0..6 {
            assert_eq!(t.extract_min().0.unwrap().id, expect);
        }
    }

    #[test]
    fn area_doubles_sharestreams() {
        // N−1 vs N/2 comparators at N = 32.
        let t = ComparatorTree::new(32);
        assert_eq!(t.comparator_count(), 31);
        assert_eq!(t.levels(), 5);
    }

    #[test]
    fn extract_cost_is_depth() {
        let mut t = ComparatorTree::new(16);
        t.insert(PqEntry { key: 1, id: 0 });
        assert_eq!(t.extract_min().1, 4);
    }

    #[test]
    #[should_panic(expected = "comparator tree full")]
    fn overflow_panics() {
        let mut t = ComparatorTree::new(2);
        for id in 0..3 {
            t.insert(PqEntry { key: 1, id });
        }
    }

    proptest! {
        #[test]
        fn ordering_random(keys in proptest::collection::vec(any::<u64>(), 1..16)) {
            let mut t = ComparatorTree::new(16);
            conformance::check_ordering(&mut t, &keys);
        }
    }
}
