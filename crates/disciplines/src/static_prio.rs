//! Strict static-priority classes (DiffServ-style, paper Table 1).

use crate::packet::SwPacket;
use crate::pifo::{Pifo, Rank};

/// Strict priority scheduler: lower level = more urgent; FCFS within a
/// level; a level is served only when all more-urgent levels are empty.
pub type StaticPriority = Pifo<PriorityRank>;

/// Static priority's rank: `(level, arrival)`, the level fixed per stream.
#[derive(Debug)]
pub struct PriorityRank {
    levels: Vec<u8>,
}

impl Rank for PriorityRank {
    type Key = (u8, u64);
    const NAME: &'static str = "StaticPriority";

    fn rank(&mut self, pkt: &SwPacket) -> (u8, u64) {
        (self.levels[pkt.stream], pkt.arrival)
    }
}

impl StaticPriority {
    /// Creates a scheduler with a priority level per stream.
    pub fn new(levels: Vec<u8>) -> Self {
        Pifo::with_rank(levels.len(), PriorityRank { levels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{conformance, Discipline};

    #[test]
    fn contract() {
        conformance::check_contract(StaticPriority::new(vec![0, 1, 2, 3]), 4, 25);
    }

    #[test]
    fn urgent_level_preempts() {
        let mut sp = StaticPriority::new(vec![2, 0]);
        sp.enqueue(SwPacket::new(0, 0, 0, 64));
        sp.enqueue(SwPacket::new(1, 0, 5, 64));
        // Stream 1 arrived later but has the more urgent level.
        assert_eq!(sp.select(0).unwrap().stream, 1);
        assert_eq!(sp.select(1).unwrap().stream, 0);
    }

    #[test]
    fn fcfs_within_level() {
        let mut sp = StaticPriority::new(vec![1, 1]);
        sp.enqueue(SwPacket::new(1, 0, 2, 64));
        sp.enqueue(SwPacket::new(0, 0, 7, 64));
        assert_eq!(sp.select(0).unwrap().stream, 1, "earlier arrival first");
    }

    #[test]
    fn low_priority_starves_under_load() {
        // Static priority minimizes weighted delay but cannot protect the
        // background class — the paper's Table 1 "non-time-constrained"
        // caveat.
        let mut sp = StaticPriority::new(vec![0, 9]);
        sp.enqueue(SwPacket::new(1, 0, 0, 64));
        for i in 0..100 {
            sp.enqueue(SwPacket::new(0, i, i, 64));
        }
        for t in 0..100 {
            assert_eq!(sp.select(t).unwrap().stream, 0);
        }
        assert_eq!(
            sp.select(100).unwrap().stream,
            1,
            "served only after the flood"
        );
    }
}
