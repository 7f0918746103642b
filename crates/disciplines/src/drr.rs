//! Deficit Round Robin — the router-plugins baseline (paper §3/§5.2, citing
//! Decasper et al.; ≈35 µs/packet on a 233 MHz Pentium in NetBSD).
//!
//! Each stream holds a deficit counter; a round visits backlogged streams in
//! order, adds the stream's quantum to its deficit, and transmits head
//! packets while the deficit covers their size. O(1) per packet when the
//! quantum is at least the maximum packet size.

use crate::packet::{Discipline, SwPacket};
use std::collections::VecDeque;

#[derive(Debug)]
struct DrrStream {
    quantum: u32,
    deficit: u64,
    queue: VecDeque<SwPacket>,
    in_active_list: bool,
}

/// Deficit Round Robin.
#[derive(Debug)]
pub struct Drr {
    streams: Vec<DrrStream>,
    /// Round-robin list of backlogged stream indices.
    active: VecDeque<usize>,
    backlog: usize,
}

impl Drr {
    /// Creates a scheduler with a quantum (bytes added per round) per stream.
    ///
    /// # Panics
    /// Panics if `quanta` is empty or contains zero.
    pub fn new(quanta: Vec<u32>) -> Self {
        assert!(!quanta.is_empty(), "need at least one stream");
        assert!(quanta.iter().all(|&q| q > 0), "quanta must be positive");
        Self {
            streams: quanta
                .into_iter()
                .map(|quantum| DrrStream {
                    quantum,
                    deficit: 0,
                    queue: VecDeque::new(),
                    in_active_list: false,
                })
                .collect(),
            active: VecDeque::new(),
            backlog: 0,
        }
    }
}

impl Discipline for Drr {
    fn name(&self) -> &'static str {
        "DRR"
    }

    fn enqueue(&mut self, pkt: SwPacket) {
        let s = &mut self.streams[pkt.stream];
        s.queue.push_back(pkt);
        if !s.in_active_list {
            s.in_active_list = true;
            self.active.push_back(pkt.stream);
        }
        self.backlog += 1;
    }

    fn select(&mut self, _now: u64) -> Option<SwPacket> {
        if self.backlog == 0 {
            return None;
        }
        loop {
            let i = *self
                .active
                .front()
                .expect("backlog > 0 implies active streams");
            let s = &mut self.streams[i];
            let head_size = u64::from(s.queue.front().expect("active stream non-empty").size_bytes);
            if s.deficit >= head_size {
                s.deficit -= head_size;
                let pkt = s.queue.pop_front().expect("checked non-empty");
                self.backlog -= 1;
                if s.queue.is_empty() {
                    // Leaving the active list forfeits the residual deficit
                    // (classic DRR rule: deficits don't accumulate across
                    // idle periods).
                    s.deficit = 0;
                    s.in_active_list = false;
                    self.active.pop_front();
                }
                return Some(pkt);
            }
            // Head doesn't fit: grant the quantum and rotate to the back.
            s.deficit += u64::from(s.quantum);
            let i = self.active.pop_front().expect("non-empty");
            self.active.push_back(i);
        }
    }

    fn backlog(&self) -> usize {
        self.backlog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::conformance;

    #[test]
    fn contract() {
        conformance::check_contract(Drr::new(vec![1500, 1500, 1500, 1500]), 4, 25);
    }

    #[test]
    fn byte_shares_follow_quanta_with_mixed_sizes() {
        // Quanta 1:1:2:4 with adversarial size mixes: byte shares must
        // still track the quanta (DRR's defining property vs plain RR).
        let mut d = Drr::new(vec![1500, 1500, 3000, 6000]);
        let sizes = [1500u32, 64, 700, 1000];
        // Equal *bytes* per stream so no stream drains mid-measurement.
        for (s, &size) in sizes.iter().enumerate() {
            let count = 6_000_000 / u64::from(size);
            for q in 0..count {
                d.enqueue(SwPacket::new(s, q, 0, size));
            }
        }
        let bytes = conformance::byte_shares(&mut d, 4, 6000);
        let total: u64 = bytes.iter().sum();
        for (i, expect) in [0.125, 0.125, 0.25, 0.5].iter().enumerate() {
            let share = bytes[i] as f64 / total as f64;
            assert!(
                (share - expect).abs() < 0.02,
                "stream {i}: {share} vs {expect}"
            );
        }
    }

    #[test]
    fn deficit_carries_within_busy_period() {
        // Quantum 100, packet 150: needs two rounds of credit.
        let mut d = Drr::new(vec![100, 100]);
        d.enqueue(SwPacket::new(0, 0, 0, 150));
        d.enqueue(SwPacket::new(1, 0, 0, 50));
        // Stream 1's 50-byte packet fits in one quantum; stream 0 needs two.
        let first = d.select(0).unwrap();
        assert_eq!(first.stream, 1);
        let second = d.select(1).unwrap();
        assert_eq!(second.stream, 0);
    }

    #[test]
    fn deficit_resets_when_queue_drains() {
        // Quantum 1000: the 100-byte packet leaves 900 of credit. Kept,
        // stream 0's 1900-byte packet would fit after one more quantum and
        // go before stream 1's.
        let mut d = Drr::new(vec![1000, 1000]);
        d.enqueue(SwPacket::new(0, 0, 0, 100));
        d.select(0).unwrap();
        d.enqueue(SwPacket::new(0, 1, 1, 1900));
        d.enqueue(SwPacket::new(1, 0, 1, 1000));
        let next = d.select(1).unwrap();
        assert_eq!(next.stream, 1, "residual deficit forfeited on idle");
    }

    #[test]
    fn large_packets_do_not_deadlock() {
        // Packet larger than one quantum must still transmit eventually.
        let mut d = Drr::new(vec![64, 64]);
        d.enqueue(SwPacket::new(0, 0, 0, 1500));
        d.enqueue(SwPacket::new(1, 0, 0, 1500));
        assert!(d.select(0).is_some());
        assert!(d.select(1).is_some());
        assert_eq!(d.backlog(), 0);
    }

    #[test]
    #[should_panic(expected = "quanta must be positive")]
    fn zero_quantum_rejected() {
        Drr::new(vec![100, 0]);
    }
}
