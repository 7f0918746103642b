//! Weighted fair queuing (packetized, self-clocked), and the rank it
//! shares with start-time FQ.
//!
//! This is the classic virtual-time fair-queuing discipline of Demers,
//! Keshav & Shenker as realized by the practical *self-clocked* scheme:
//! packet `k` of stream `i` gets a finish tag
//! `F_i^k = max(V, F_i^{k-1}) + L / w_i`, the packet with the least finish
//! tag is served, and the virtual clock `V` advances to the finish tag of
//! the packet in service. Tags are fixed-point (`TAG_SCALE` units per byte
//! at weight 1) — no floating point on the fast path.
//!
//! The paper's Table 1 places WFQ in the fair-queuing column: per-packet
//! service tags assigned at enqueue, no per-decision priority update —
//! which is exactly why the ShareStreams fabric can run it with the
//! PRIORITY_UPDATE cycle bypassed.

use crate::packet::SwPacket;
use crate::pifo::{Pifo, Rank};

/// Fixed-point scale for service tags (units per byte at weight 1).
pub const TAG_SCALE: u64 = 1 << 16;

/// Self-clocked weighted fair queuing.
pub type Wfq = Pifo<WfqRank>;

/// WFQ's rank: the finish tag.
pub type WfqRank = FairQueueRank<false>;

/// The fair-queuing rank: packet `k` of stream `i` starts at
/// `S = max(V, F_i^{k-1})` and finishes at `F_i^k = S + L·TAG_SCALE/w_i`.
/// The key is the finish tag (WFQ) or, if `BY_START`, the start tag
/// (start-time FQ); serving a packet sets `V` to its key.
#[derive(Debug)]
pub struct FairQueueRank<const BY_START: bool> {
    weights: Vec<u64>,
    /// Finish tag of each stream's most recently enqueued packet.
    last_finish: Vec<u64>,
    /// Virtual time: the key of the packet in service.
    virtual_time: u64,
}

impl<const BY_START: bool> FairQueueRank<BY_START> {
    /// Current virtual time.
    pub fn virtual_time(&self) -> u64 {
        self.virtual_time
    }
}

impl<const BY_START: bool> Rank for FairQueueRank<BY_START> {
    type Key = u64;
    const NAME: &'static str = if BY_START { "StartTimeFQ" } else { "WFQ" };

    fn rank(&mut self, pkt: &SwPacket) -> u64 {
        let last_finish = &mut self.last_finish[pkt.stream];
        let start = (*last_finish).max(self.virtual_time);
        *last_finish = start + u64::from(pkt.size_bytes) * TAG_SCALE / self.weights[pkt.stream];
        if BY_START {
            start
        } else {
            *last_finish
        }
    }

    fn dequeued(&mut self, _pkt: &SwPacket, key: u64, _now: u64) {
        self.virtual_time = key;
    }
}

impl<const BY_START: bool> Pifo<FairQueueRank<BY_START>> {
    /// Creates a scheduler with per-stream weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty or contains zero.
    pub fn new(weights: Vec<u32>) -> Self {
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        let rank = FairQueueRank {
            last_finish: vec![0; weights.len()],
            weights: weights.into_iter().map(u64::from).collect(),
            virtual_time: 0,
        };
        Pifo::with_rank(rank.weights.len(), rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{conformance, Discipline};
    use proptest::prelude::*;

    #[test]
    fn contract() {
        conformance::check_contract(Wfq::new(vec![1, 2, 3, 4]), 4, 25);
    }

    #[test]
    fn equal_weights_alternate() {
        let mut w = Wfq::new(vec![1, 1]);
        for q in 0..4 {
            w.enqueue(SwPacket::new(0, q, 0, 100));
            w.enqueue(SwPacket::new(1, q, 0, 100));
        }
        let order: Vec<usize> = (0..8).map(|t| w.select(t).unwrap().stream).collect();
        // Perfect interleaving for equal weights and sizes.
        assert_eq!(order.iter().filter(|&&s| s == 0).count(), 4);
        for pair in order.chunks(2) {
            assert_ne!(pair[0], pair[1], "alternation violated: {order:?}");
        }
    }

    #[test]
    fn byte_shares_follow_weights_with_equal_sizes() {
        // The paper's 1:1:2:4 ratios (Figure 8) as a WFQ property.
        let mut w = Wfq::new(vec![1, 1, 2, 4]);
        for s in 0..4 {
            for q in 0..2000 {
                w.enqueue(SwPacket::new(s, q, 0, 1000));
            }
        }
        let bytes = conformance::byte_shares(&mut w, 4, 4000);
        let total: u64 = bytes.iter().sum();
        for (i, expect) in [0.125, 0.125, 0.25, 0.5].iter().enumerate() {
            let share = bytes[i] as f64 / total as f64;
            assert!(
                (share - expect).abs() < 0.01,
                "stream {i}: {share} vs {expect}"
            );
        }
    }

    #[test]
    fn byte_shares_follow_weights_with_mixed_sizes() {
        // Stream 0 sends jumbo frames, stream 1 minimum frames, equal
        // weights: byte shares must still be ~equal (the property RR lacks).
        let mut w = Wfq::new(vec![1, 1]);
        for q in 0..3000 {
            w.enqueue(SwPacket::new(0, q, 0, 1500));
            w.enqueue(SwPacket::new(1, q, 0, 64));
        }
        let bytes = conformance::byte_shares(&mut w, 2, 3100);
        let share0 = bytes[0] as f64 / (bytes[0] + bytes[1]) as f64;
        assert!((share0 - 0.5).abs() < 0.02, "byte share {share0}");
    }

    #[test]
    fn idle_stream_does_not_bank_credit() {
        // Stream 1 idles while stream 0 transmits; when stream 1 wakes it
        // must not monopolize the link to "catch up" (start tag clamped to
        // virtual time).
        let mut w = Wfq::new(vec![1, 1]);
        for q in 0..100 {
            w.enqueue(SwPacket::new(0, q, 0, 100));
        }
        for t in 0..50 {
            w.select(t);
        }
        // Stream 1 wakes with a burst.
        for q in 0..100 {
            w.enqueue(SwPacket::new(1, q, 50, 100));
        }
        let mut consecutive_s1 = 0usize;
        let mut max_consecutive_s1 = 0usize;
        for t in 50..150 {
            match w.select(t).map(|p| p.stream) {
                Some(1) => {
                    consecutive_s1 += 1;
                    max_consecutive_s1 = max_consecutive_s1.max(consecutive_s1);
                }
                _ => consecutive_s1 = 0,
            }
        }
        assert!(
            max_consecutive_s1 <= 2,
            "stream 1 monopolized: {max_consecutive_s1} in a row"
        );
    }

    #[test]
    fn virtual_time_monotone() {
        let mut w = Wfq::new(vec![1, 3]);
        for q in 0..50 {
            w.enqueue(SwPacket::new(0, q, 0, 700));
            w.enqueue(SwPacket::new(1, q, 0, 300));
        }
        let mut last_v = 0;
        for t in 0..100 {
            w.select(t);
            assert!(w.rank().virtual_time() >= last_v);
            last_v = w.rank().virtual_time();
        }
    }

    proptest! {
        /// Relative fairness bound: for any pair of continuously backlogged
        /// streams, normalized service difference is bounded by one maximum
        /// packet's normalized service (the SCFQ fairness theorem).
        #[test]
        fn fairness_bound(
            w0 in 1u32..8, w1 in 1u32..8,
            size0 in 64u32..1500, size1 in 64u32..1500,
        ) {
            let mut w = Wfq::new(vec![w0, w1]);
            // Equal bytes per stream so both stay backlogged over the
            // measured window (the fairness theorem's premise).
            let total_bytes = 1_000_000u64;
            for (s, size) in [(0usize, size0), (1, size1)] {
                for q in 0..total_bytes / u64::from(size) {
                    w.enqueue(SwPacket::new(s, q, 0, size));
                }
            }
            let mut served = [0u64, 0u64];
            for t in 0..600u64 {
                let p = w.select(t).unwrap();
                served[p.stream] += u64::from(p.size_bytes);
            }
            let norm0 = served[0] as f64 / w0 as f64;
            let norm1 = served[1] as f64 / w1 as f64;
            let bound = (size0 as f64 / w0 as f64) + (size1 as f64 / w1 as f64);
            prop_assert!((norm0 - norm1).abs() <= bound + 1.0,
                "normalized service gap {} exceeds bound {}", (norm0 - norm1).abs(), bound);
        }
    }
}
