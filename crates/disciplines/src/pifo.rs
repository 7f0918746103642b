//! One software PIFO (push-in first-out queue) and the [`Rank`] trait.
//!
//! "Programmable Packet Scheduling" (Sivaraman et al., arXiv:1602.06045)
//! splits a scheduler into a *rank function*, run when a packet is
//! enqueued, and a PIFO that always serves the packet of least rank. Its
//! hardware PIFO is a FIFO per flow plus a sorter over the flow heads, and
//! so is [`Pifo`]: a FIFO per stream, served at the head with the least
//! `(key, stream)`. Keys are fixed at enqueue and each stream's packets
//! leave in order, so while no stream's keys decrease this serves exactly
//! what a single sorted queue would.
//!
//! The paper's Table 1 sorts disciplines by how they rank: static priority
//! classes fixed at enqueue, fair-queuing tags serialized per stream,
//! deadlines. Each of EDF, static priority, WFQ, start-time FQ and Virtual
//! Clock is one small [`Rank`] here. The head search is a linear scan, the
//! O(N) decision of §4.1's software schedulers.

use crate::packet::{Discipline, SwPacket};
use std::collections::VecDeque;

/// A rank function: the key a packet is served by, computed on enqueue.
pub trait Rank {
    /// The order packets are served in; ties break by stream index.
    type Key: Ord + Copy;

    /// Scheduler name for reports.
    const NAME: &'static str;

    /// The key of `pkt`, the next packet of its stream.
    fn rank(&mut self, pkt: &SwPacket) -> Self::Key;

    /// Called with the packet the PIFO serves at `now` and its key: where
    /// virtual time and deadline counters advance.
    fn dequeued(&mut self, _pkt: &SwPacket, _key: Self::Key, _now: u64) {}
}

/// A FIFO per stream, served at the head of least `(key, stream)`.
#[derive(Debug)]
pub struct Pifo<R: Rank> {
    rank: R,
    queues: Vec<VecDeque<(SwPacket, R::Key)>>,
    /// The sorter's view: each stream's head key, `None` when idle. Kept
    /// apart from the queues so the scan reads one dense array.
    heads: Vec<Option<R::Key>>,
    backlog: usize,
}

impl<R: Rank> Pifo<R> {
    /// An empty PIFO over `streams` streams, ranked by `rank`.
    ///
    /// # Panics
    /// Panics if `streams` is zero.
    pub fn with_rank(streams: usize, rank: R) -> Self {
        assert!(streams > 0, "need at least one stream");
        Self {
            rank,
            queues: (0..streams).map(|_| VecDeque::new()).collect(),
            heads: vec![None; streams],
            backlog: 0,
        }
    }

    /// The rank function and its state.
    pub fn rank(&self) -> &R {
        &self.rank
    }

    /// Key of the head packet of `stream`, if backlogged.
    pub fn head_key(&self, stream: usize) -> Option<R::Key> {
        self.heads[stream]
    }
}

impl<R: Rank> Discipline for Pifo<R> {
    fn name(&self) -> &'static str {
        R::NAME
    }

    fn enqueue(&mut self, pkt: SwPacket) {
        let key = self.rank.rank(&pkt);
        self.heads[pkt.stream].get_or_insert(key);
        self.queues[pkt.stream].push_back((pkt, key));
        self.backlog += 1;
    }

    fn select(&mut self, now: u64) -> Option<SwPacket> {
        let (_, best) = self
            .heads
            .iter()
            .enumerate()
            .filter_map(|(i, head)| head.map(|key| (key, i)))
            .min()?;
        let queue = &mut self.queues[best];
        let (pkt, key) = queue.pop_front().expect("a head key has a packet");
        self.heads[best] = queue.front().map(|&(_, next)| next);
        self.backlog -= 1;
        self.rank.dequeued(&pkt, key, now);
        Some(pkt)
    }

    fn backlog(&self) -> usize {
        self.backlog
    }
}
