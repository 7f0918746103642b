//! Software earliest-deadline-first.
//!
//! Streams are configured with a request period `T`; packet `k` of a stream
//! is due at `first_deadline + k·T`. That deadline is the packet's
//! [`Rank`] key, so the [`Pifo`] serves the earliest deadline, O(N) per
//! decision — the cost profile the paper's §4.1 latency numbers reflect.
//! Deadline met/missed counters mirror the hardware's per-slot performance
//! counters so the two can be cross-checked.

use crate::packet::SwPacket;
use crate::pifo::{Pifo, Rank};
use serde::{Deserialize, Serialize};

/// Per-stream EDF configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdfStreamConfig {
    /// Request period `T`: spacing between successive packet deadlines.
    pub period: u64,
    /// Deadline of the stream's first packet.
    pub first_deadline: u64,
}

/// Software EDF scheduler.
pub type Edf = Pifo<EdfRank>;

/// EDF's rank: the `k`-th packet enqueued on a stream is due at
/// `first_deadline + k·period`.
#[derive(Debug)]
pub struct EdfRank {
    configs: Vec<EdfStreamConfig>,
    /// Deadline of each stream's next enqueued packet.
    next_deadline: Vec<u64>,
    /// `(met, missed)` per stream.
    counters: Vec<(u64, u64)>,
}

impl EdfRank {
    /// `(met, missed)` deadline counters for `stream`.
    /// Tests-only: `tests/discipline_golden.rs` pins the EDF met/missed counts with it.
    pub fn deadline_counters(&self, stream: usize) -> (u64, u64) {
        self.counters[stream]
    }
}

impl Rank for EdfRank {
    type Key = u64;
    const NAME: &'static str = "EDF";

    fn rank(&mut self, pkt: &SwPacket) -> u64 {
        let deadline = self.next_deadline[pkt.stream];
        self.next_deadline[pkt.stream] += self.configs[pkt.stream].period;
        deadline
    }

    fn dequeued(&mut self, pkt: &SwPacket, deadline: u64, now: u64) {
        // Transmission completes one packet-time after selection.
        let (met, missed) = &mut self.counters[pkt.stream];
        if now < deadline {
            *met += 1;
        } else {
            *missed += 1;
        }
    }
}

impl Edf {
    /// Creates a scheduler with the given per-stream configurations.
    pub fn new(configs: Vec<EdfStreamConfig>) -> Self {
        let rank = EdfRank {
            next_deadline: configs.iter().map(|c| c.first_deadline).collect(),
            counters: vec![(0, 0); configs.len()],
            configs,
        };
        Pifo::with_rank(rank.configs.len(), rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{conformance, Discipline};

    fn cfg(period: u64, first: u64) -> EdfStreamConfig {
        EdfStreamConfig {
            period,
            first_deadline: first,
        }
    }

    #[test]
    fn contract() {
        let configs = (0..4).map(|i| cfg(4, i + 1)).collect();
        conformance::check_contract(Edf::new(configs), 4, 25);
    }

    #[test]
    fn picks_earliest_deadline() {
        let mut e = Edf::new(vec![cfg(10, 9), cfg(10, 3), cfg(10, 6)]);
        for s in 0..3 {
            e.enqueue(SwPacket::new(s, 0, 0, 64));
        }
        assert_eq!(e.select(0).unwrap().stream, 1);
        assert_eq!(e.select(1).unwrap().stream, 2);
        assert_eq!(e.select(2).unwrap().stream, 0);
    }

    #[test]
    fn feasible_set_meets_all_deadlines() {
        // Two streams, each due every 2 packet-times: total demand equals
        // capacity, so EDF (optimal) must meet every deadline.
        let mut e = Edf::new(vec![cfg(2, 1), cfg(2, 2)]);
        for q in 0..200 {
            e.enqueue(SwPacket::new(0, q, 0, 64));
            e.enqueue(SwPacket::new(1, q, 0, 64));
        }
        let mut now = 0;
        while e.backlog() > 0 {
            e.select(now);
            now += 1;
        }
        for s in 0..2 {
            let (met, missed) = e.rank().deadline_counters(s);
            assert_eq!(missed, 0, "stream {s} missed deadlines");
            assert_eq!(met, 200);
        }
    }

    #[test]
    fn overload_misses_deadlines() {
        // Three streams each due every 2 packet-times: demand 1.5× capacity.
        let mut e = Edf::new(vec![cfg(2, 1), cfg(2, 1), cfg(2, 1)]);
        for q in 0..100 {
            for s in 0..3 {
                e.enqueue(SwPacket::new(s, q, 0, 64));
            }
        }
        let mut now = 0;
        while e.backlog() > 0 {
            e.select(now);
            now += 1;
        }
        let total_missed: u64 = (0..3).map(|s| e.rank().deadline_counters(s).1).sum();
        assert!(total_missed > 0);
    }

    #[test]
    fn tie_breaks_by_stream_index() {
        let mut e = Edf::new(vec![cfg(5, 3), cfg(5, 3)]);
        e.enqueue(SwPacket::new(1, 0, 0, 64));
        e.enqueue(SwPacket::new(0, 0, 0, 64));
        assert_eq!(e.select(0).unwrap().stream, 0);
    }

    #[test]
    fn deadlines_advance_per_service() {
        let mut e = Edf::new(vec![cfg(7, 7)]);
        e.enqueue(SwPacket::new(0, 0, 0, 64));
        e.enqueue(SwPacket::new(0, 1, 0, 64));
        e.select(0);
        // Served at 10: met only against the second deadline, 14.
        e.select(10);
        assert_eq!(e.rank().deadline_counters(0), (2, 0));
    }
}
