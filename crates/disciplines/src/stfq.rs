//! Start-time fair queuing (Goyal/Vin/Cheng SFQ — the "SFQ" column of the
//! paper's Table 1).
//!
//! Like WFQ but packets are ordered by *start* tags and the virtual clock
//! follows the start tag of the packet in service. Start-time FQ has a
//! smaller worst-case delay for low-weight streams and is cheaper to
//! compute; it is the second fair-queuing discipline the paper names. Its
//! rank is WFQ's [`FairQueueRank`] keyed by the start tag.

use crate::pifo::Pifo;
use crate::wfq::FairQueueRank;

/// Start-time fair queuing.
pub type StartTimeFq = Pifo<StfqRank>;

/// Start-time FQ's rank: the start tag.
pub type StfqRank = FairQueueRank<true>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{conformance, Discipline, SwPacket};

    #[test]
    fn contract() {
        conformance::check_contract(StartTimeFq::new(vec![2, 1, 1, 4]), 4, 25);
    }

    #[test]
    fn byte_shares_follow_weights() {
        let mut s = StartTimeFq::new(vec![1, 1, 2, 4]);
        for st in 0..4 {
            for q in 0..2000 {
                s.enqueue(SwPacket::new(st, q, 0, 500));
            }
        }
        let bytes = conformance::byte_shares(&mut s, 4, 4000);
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
    fn newly_active_stream_gets_immediate_service() {
        // Start-time FQ's selling point: a stream waking up is tagged at
        // the current virtual time and is served promptly.
        let mut s = StartTimeFq::new(vec![1, 1]);
        for q in 0..100 {
            s.enqueue(SwPacket::new(0, q, 0, 1000));
        }
        for t in 0..50 {
            s.select(t);
        }
        s.enqueue(SwPacket::new(1, 0, 50, 64));
        // Must be served within two selections.
        let first = s.select(50).unwrap();
        let second = s.select(51).unwrap();
        assert!(first.stream == 1 || second.stream == 1);
    }

    #[test]
    fn virtual_time_monotone() {
        let mut s = StartTimeFq::new(vec![3, 1]);
        for q in 0..100 {
            s.enqueue(SwPacket::new(0, q, 0, 200));
            s.enqueue(SwPacket::new(1, q, 0, 900));
        }
        let mut last = 0;
        for t in 0..200 {
            s.select(t);
            assert!(s.rank().virtual_time() >= last);
            last = s.rank().virtual_time();
        }
    }
}
