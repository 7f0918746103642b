//! Deterministic discrete-event queue.
//!
//! The endsystem realization is modeled at transaction level: PCI PIO writes,
//! DMA bursts, SRAM bank handovers and packet transmissions are events with
//! costs, not per-cycle logic. This queue orders events by simulated time
//! with a stable FIFO tie-break (a sequence number), so runs are
//! reproducible regardless of `BinaryHeap` internals.

use ss_types::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at an absolute simulated time.
#[derive(Debug)]
struct Scheduled<E> {
    at: Nanos,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so earliest time (then lowest
        // sequence number) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered, FIFO-stable event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: Nanos,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before the last popped event), which
    /// would mean the model violated causality.
    pub fn schedule_at(&mut self, at: Nanos, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past ({} < {})",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Schedules `payload` `delay` nanoseconds after the current time.
    pub fn schedule_in(&mut self, delay: Nanos, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.heap.pop().map(|s| {
            debug_assert!(s.at >= self.now);
            self.now = s.at;
            (s.at, s.payload)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(100, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 100);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(50, 1u8);
        q.pop();
        q.schedule_in(25, 2u8);
        assert_eq!(q.pop(), Some((75, 2u8)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn causality_enforced() {
        let mut q = EventQueue::new();
        q.schedule_at(100, ());
        q.pop();
        q.schedule_at(50, ());
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(7, 0);
        q.schedule_at(3, 1);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
}
