//! Virtual Clock (Zhang, 1990) — rate-based service tagging.
//!
//! Each stream declares a rate; packet tags advance a per-stream auxiliary
//! virtual clock by `size/rate`, anchored to real time on arrival
//! (`auxVC = max(now, auxVC) + size/rate`), and the scheduler serves the
//! smallest tag. Virtual Clock meters declared rates beautifully but has
//! the classic fairness flaw the fair-queuing literature dwells on: a
//! stream that used *idle* link capacity beyond its declared rate banks a
//! future debt — when a competitor appears, the over-user is locked out
//! until its virtual clock returns to real time, where WFQ forgets history
//! at once. Both behaviours are pinned by tests (and contrasted with
//! [`crate::Wfq`]).

use crate::packet::SwPacket;
use crate::pifo::{Pifo, Rank};

/// Fixed-point tag units per byte at rate 1 (byte/tick).
const VC_SCALE: u64 = 1 << 16;

/// The Virtual Clock scheduler.
/// Tests-only: `tests/discipline_golden.rs` pins its winner trace.
pub type VirtualClock = Pifo<VirtualClockRank>;

/// Virtual Clock's rank: the stream's auxiliary virtual clock after the
/// packet is charged to it.
#[derive(Debug)]
pub struct VirtualClockRank {
    /// Declared rate in bytes per tick of `now`, per stream.
    rates: Vec<u64>,
    /// Auxiliary virtual clock per stream (fixed point).
    aux_vc: Vec<u64>,
}

impl VirtualClockRank {
    /// The auxiliary virtual clock of `stream` (fixed point, ticks ×2¹⁶).
    /// Tests-only: `tests/discipline_golden.rs` pins its winner trace.
    pub fn aux_vc(&self, stream: usize) -> u64 {
        self.aux_vc[stream]
    }
}

impl Rank for VirtualClockRank {
    type Key = u64;
    const NAME: &'static str = "VirtualClock";

    fn rank(&mut self, pkt: &SwPacket) -> u64 {
        // Anchor to real (arrival) time, then advance by the packet's
        // service share at the declared rate.
        let aux_vc = &mut self.aux_vc[pkt.stream];
        let now_fp = pkt.arrival * VC_SCALE;
        *aux_vc =
            (*aux_vc).max(now_fp) + u64::from(pkt.size_bytes) * VC_SCALE / self.rates[pkt.stream];
        *aux_vc
    }
}

impl VirtualClock {
    /// Creates a scheduler with per-stream declared rates (bytes per time
    /// tick of the `now` passed to [`crate::Discipline::select`]).
    ///
    /// # Panics
    /// Panics if `rates` is empty or contains zero.
    pub fn new(rates: Vec<u64>) -> Self {
        assert!(rates.iter().all(|&r| r > 0), "rates must be positive");
        let rank = VirtualClockRank {
            aux_vc: vec![0; rates.len()],
            rates,
        };
        Pifo::with_rank(rank.rates.len(), rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{conformance, Discipline};
    use crate::Wfq;

    #[test]
    fn contract() {
        conformance::check_contract(VirtualClock::new(vec![100, 100, 100, 100]), 4, 25);
    }

    #[test]
    fn declared_rates_meter_backlogged_streams() {
        // Rates 1:1:2:4 with simultaneous arrivals: shares follow rates.
        let mut vc = VirtualClock::new(vec![100, 100, 200, 400]);
        for s in 0..4 {
            for q in 0..2000 {
                vc.enqueue(SwPacket::new(s, q, 0, 1000));
            }
        }
        let bytes = conformance::byte_shares(&mut vc, 4, 4000);
        let total: u64 = bytes.iter().sum();
        for (i, expect) in [0.125, 0.125, 0.25, 0.5].iter().enumerate() {
            let share = bytes[i] as f64 / total as f64;
            assert!(
                (share - expect).abs() < 0.01,
                "stream {i}: {share} vs {expect}"
            );
        }
    }

    /// The famous Virtual Clock penalty: a stream that over-used idle
    /// capacity is locked out when a competitor wakes up; WFQ (self-clocked)
    /// shares immediately. This is *the* behavioural difference between
    /// rate-anchored and virtual-time-anchored tagging.
    #[test]
    fn overuser_is_punished_where_wfq_forgives() {
        // Both streams declared at 100 B/tick. Stream 0 sends 100 packets
        // of 1000 B arriving at t=0 (10x its declared rate) and they are
        // all serviced while stream 1 idles. At t=100 stream 1 wakes.
        let lockout = |vc_mode: bool| -> usize {
            let mut vc = VirtualClock::new(vec![100, 100]);
            let mut wfq = Wfq::new(vec![1, 1]);
            for q in 0..100 {
                let p = SwPacket::new(0, q, 0, 1000);
                vc.enqueue(p);
                wfq.enqueue(p);
            }
            for t in 0..100u64 {
                if vc_mode {
                    vc.select(t);
                } else {
                    wfq.select(t);
                }
            }
            // Refill stream 0 and wake stream 1.
            for q in 100..200 {
                let p0 = SwPacket::new(0, q, 100, 1000);
                let p1 = SwPacket::new(1, q, 100, 1000);
                if vc_mode {
                    vc.enqueue(p0);
                    vc.enqueue(p1);
                } else {
                    wfq.enqueue(p0);
                    wfq.enqueue(p1);
                }
            }
            // Count consecutive stream-1 services before stream 0 is
            // served again.
            let mut run = 0;
            for t in 100..300u64 {
                let p = if vc_mode { vc.select(t) } else { wfq.select(t) };
                match p.map(|p| p.stream) {
                    Some(1) => run += 1,
                    _ => break,
                }
            }
            run
        };
        let vc_lockout = lockout(true);
        let wfq_lockout = lockout(false);
        assert!(
            vc_lockout >= 50,
            "VC must punish the over-user: {vc_lockout}"
        );
        assert!(
            wfq_lockout <= 2,
            "WFQ must forgive instantly: {wfq_lockout}"
        );
    }

    #[test]
    fn idle_stream_reanchors_to_real_time() {
        let mut vc = VirtualClock::new(vec![100]);
        vc.enqueue(SwPacket::new(0, 0, 0, 1000)); // tag = 10 ticks
        vc.select(0);
        // Long idle; next packet arrives at t=1000 → tag anchors at 1000,
        // not at the stale aux_vc.
        vc.enqueue(SwPacket::new(0, 1, 1000, 1000));
        assert_eq!(vc.rank().aux_vc(0), (1000 + 10) * (1 << 16));
    }

    #[test]
    #[should_panic(expected = "rates must be positive")]
    fn zero_rate_rejected() {
        VirtualClock::new(vec![100, 0]);
    }
}
