//! Streamlet aggregation (paper §5.1, Figure 10).
//!
//! When only aggregate QoS is needed for a set of flows, many *streamlets*
//! bind to one Register Base block ("stream-slot"): the FPGA schedules the
//! slot, and each time the slot wins, the Stream processor picks which
//! streamlet's packet actually goes out — "a round-robin service policy on
//! the Stream processor between streamlets ... by cycling through active
//! queues". Figure 10 additionally demonstrates *multiple sets* of
//! streamlets within one slot, with set 1 given twice the bandwidth of
//! set 2 — a weighted round robin between sets, plain round robin within a
//! set.
//!
//! This trades FPGA state storage (expensive, 150 slices/slot) for host
//! memory (cheap), at the price of per-stream deadlines: the slot has a
//! delay bound, its streamlets only share it.

use ss_traffic::ArrivalEvent;
use std::collections::VecDeque;

/// Configuration of one streamlet set within a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamletSetConfig {
    /// Number of streamlets in the set.
    pub streamlets: usize,
    /// WRR weight of the set relative to its sibling sets.
    pub weight: u32,
}

#[derive(Debug)]
struct StreamletSet {
    weight: u32,
    credit: u32,
    queues: Vec<VecDeque<ArrivalEvent>>,
    cursor: usize,
    serviced: Vec<u64>,
    bytes: Vec<u64>,
}

impl StreamletSet {
    fn backlog(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Round-robin pop of the next backlogged streamlet.
    fn pop_rr(&mut self) -> Option<(usize, ArrivalEvent)> {
        let n = self.queues.len();
        for _ in 0..n {
            let i = self.cursor;
            self.cursor = (self.cursor + 1) % n;
            if let Some(e) = self.queues[i].pop_front() {
                self.serviced[i] += 1;
                self.bytes[i] += u64::from(e.size.bytes());
                return Some((i, e));
            }
        }
        None
    }
}

/// The per-slot streamlet multiplexer living on the Stream processor.
#[derive(Debug)]
pub struct StreamletMux {
    sets: Vec<StreamletSet>,
    set_cursor: usize,
    backlog: usize,
}

impl StreamletMux {
    /// Creates a multiplexer with the given sets.
    ///
    /// # Panics
    /// Panics if `sets` is empty, or any set has zero streamlets or weight.
    pub fn new(sets: &[StreamletSetConfig]) -> Self {
        assert!(!sets.is_empty(), "need at least one streamlet set");
        let sets = sets
            .iter()
            .map(|c| {
                assert!(c.streamlets > 0, "set needs streamlets");
                assert!(c.weight > 0, "set weight must be positive");
                StreamletSet {
                    weight: c.weight,
                    credit: c.weight,
                    queues: (0..c.streamlets).map(|_| VecDeque::new()).collect(),
                    cursor: 0,
                    serviced: vec![0; c.streamlets],
                    bytes: vec![0; c.streamlets],
                }
            })
            .collect();
        Self {
            sets,
            set_cursor: 0,
            backlog: 0,
        }
    }

    /// Deposits a packet into `(set, streamlet)`.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    pub fn deposit(&mut self, set: usize, streamlet: usize, event: ArrivalEvent) {
        self.sets[set].queues[streamlet].push_back(event);
        self.backlog += 1;
    }

    /// Total queued packets across all sets.
    pub fn backlog(&self) -> usize {
        self.backlog
    }

    /// Picks the next streamlet packet to transmit when the owning slot
    /// wins a decision: weighted round robin across sets, plain round robin
    /// within the chosen set. (Also available through the [`Iterator`]
    /// impl.)
    pub fn next_packet(&mut self) -> Option<(usize, usize, ArrivalEvent)> {
        if self.backlog == 0 {
            return None;
        }
        let n = self.sets.len();
        for _ in 0..2 {
            for _ in 0..n {
                let i = self.set_cursor;
                if self.sets[i].credit > 0 && self.sets[i].backlog() > 0 {
                    self.sets[i].credit -= 1;
                    if self.sets[i].credit == 0 {
                        self.set_cursor = (self.set_cursor + 1) % n;
                    }
                    let (sl, e) = self.sets[i].pop_rr().expect("backlog checked");
                    self.backlog -= 1;
                    return Some((i, sl, e));
                }
                self.set_cursor = (self.set_cursor + 1) % n;
            }
            for s in &mut self.sets {
                s.credit = s.weight;
            }
        }
        unreachable!("backlog > 0 but WRR found nothing after refill");
    }

    /// Packets serviced for `(set, streamlet)`.
    pub fn serviced(&self, set: usize, streamlet: usize) -> u64 {
        self.sets[set].serviced[streamlet]
    }

    /// Bytes serviced for `(set, streamlet)`.
    pub fn bytes(&self, set: usize, streamlet: usize) -> u64 {
        self.sets[set].bytes[streamlet]
    }
}

impl Iterator for StreamletMux {
    type Item = (usize, usize, ArrivalEvent);

    fn next(&mut self) -> Option<Self::Item> {
        self.next_packet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_types::{PacketSize, StreamId};

    fn ev(t: u64) -> ArrivalEvent {
        ArrivalEvent {
            time_ns: t,
            stream: StreamId::new(0).unwrap(),
            size: PacketSize(1500),
        }
    }

    /// One plain round-robin set of `n` streamlets (the paper's base
    /// aggregation case: 100 streamlets per slot).
    fn single_set(n: usize) -> StreamletMux {
        StreamletMux::new(&[StreamletSetConfig {
            streamlets: n,
            weight: 1,
        }])
    }

    #[test]
    fn round_robin_within_a_set() {
        let mut m = single_set(3);
        for sl in 0..3 {
            for q in 0..2 {
                m.deposit(0, sl, ev(q));
            }
        }
        let order: Vec<usize> = (0..6).map(|_| m.next().unwrap().1).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(m.next(), None);
    }

    #[test]
    fn skips_idle_streamlets() {
        let mut m = single_set(4);
        m.deposit(0, 2, ev(0));
        m.deposit(0, 2, ev(1));
        assert_eq!(m.next().unwrap().1, 2);
        assert_eq!(m.next().unwrap().1, 2);
    }

    #[test]
    fn weighted_sets_split_two_to_one() {
        // Figure 10's slot 4: two sets, set 0 gets twice set 1's bandwidth.
        let mut m = StreamletMux::new(&[
            StreamletSetConfig {
                streamlets: 50,
                weight: 2,
            },
            StreamletSetConfig {
                streamlets: 50,
                weight: 1,
            },
        ]);
        for set in 0..2 {
            for sl in 0..50 {
                for q in 0..40 {
                    m.deposit(set, sl, ev(q));
                }
            }
        }
        for _ in 0..3000 {
            m.next().unwrap();
        }
        let set_bytes = |set| (0..50).map(|sl| m.bytes(set, sl)).sum::<u64>();
        let (b0, b1) = (set_bytes(0), set_bytes(1));
        let ratio = b0 as f64 / b1 as f64;
        assert!((ratio - 2.0).abs() < 0.05, "set ratio {ratio}");
    }

    #[test]
    fn streamlets_within_a_set_share_equally() {
        let mut m = single_set(100);
        for sl in 0..100 {
            for q in 0..20 {
                m.deposit(0, sl, ev(q));
            }
        }
        for _ in 0..1000 {
            m.next().unwrap();
        }
        for sl in 0..100 {
            assert_eq!(m.serviced(0, sl), 10, "streamlet {sl}");
        }
    }

    #[test]
    fn per_streamlet_byte_accounting() {
        let mut m = single_set(2);
        m.deposit(0, 0, ev(0));
        m.deposit(0, 1, ev(0));
        m.next();
        m.next();
        assert_eq!(m.bytes(0, 0), 1500);
        assert_eq!(m.bytes(0, 1), 1500);
    }

    #[test]
    #[should_panic(expected = "set weight must be positive")]
    fn zero_weight_rejected() {
        StreamletMux::new(&[StreamletSetConfig {
            streamlets: 1,
            weight: 0,
        }]);
    }
}
