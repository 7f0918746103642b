//! Bursty generator — the Figure 9 traffic source.
//!
//! The paper: "The zig-zag formation in Figure 9 is because of the traffic
//! generator, which introduces a multi-ms inter-burst delay after the first
//! 4000 frames." This source emits `burst_len` packets back-to-back at a
//! small intra-burst spacing, then idles for `gap_ns` before the next
//! burst.

use crate::ArrivalEvent;
use ss_types::{Nanos, PacketSize, StreamId};

/// Bursts of back-to-back packets separated by long gaps.
#[derive(Debug, Clone)]
pub struct Bursty {
    stream: StreamId,
    size: PacketSize,
    intra_ns: Nanos,
    gap_ns: Nanos,
    burst_len: u64,
    next_time: Nanos,
    in_burst: u64,
    remaining: u64,
}

impl Bursty {
    /// Creates a bursty source emitting `count` packets in bursts of
    /// `burst_len`, spaced `intra_ns` within a burst and `gap_ns` between
    /// bursts.
    ///
    /// # Panics
    /// Panics if `burst_len == 0` or `intra_ns == 0`.
    pub fn new(
        stream: StreamId,
        size: PacketSize,
        burst_len: u64,
        intra_ns: Nanos,
        gap_ns: Nanos,
        start_ns: Nanos,
        count: u64,
    ) -> Self {
        assert!(burst_len > 0, "burst length must be positive");
        assert!(intra_ns > 0, "intra-burst spacing must be positive");
        Self {
            stream,
            size,
            intra_ns,
            gap_ns,
            burst_len,
            next_time: start_ns,
            in_burst: 0,
            remaining: count,
        }
    }
}

impl Iterator for Bursty {
    type Item = ArrivalEvent;

    fn next(&mut self) -> Option<ArrivalEvent> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let e = ArrivalEvent {
            time_ns: self.next_time,
            stream: self.stream,
            size: self.size,
        };
        self.in_burst += 1;
        if self.in_burst == self.burst_len {
            self.in_burst = 0;
            self.next_time += self.gap_ns;
        } else {
            self.next_time += self.intra_ns;
        }
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: u8) -> StreamId {
        StreamId::new(i).unwrap()
    }

    #[test]
    fn gap_appears_after_each_burst() {
        let events: Vec<_> = Bursty::new(sid(0), PacketSize(64), 3, 10, 1000, 0, 7).collect();
        let times: Vec<u64> = events.iter().map(|e| e.time_ns).collect();
        // Burst 1 at 0,10,20; gap; burst 2 at 1020,1030,1040; gap; 2040.
        assert_eq!(times, vec![0, 10, 20, 1020, 1030, 1040, 2040]);
    }

    #[test]
    fn single_packet_bursts_degenerate_to_gaps() {
        let events: Vec<_> = Bursty::new(sid(0), PacketSize(64), 1, 5, 100, 0, 3).collect();
        let times: Vec<u64> = events.iter().map(|e| e.time_ns).collect();
        assert_eq!(times, vec![0, 100, 200]);
    }

    #[test]
    #[should_panic(expected = "burst length must be positive")]
    fn zero_burst_rejected() {
        Bursty::new(sid(0), PacketSize(64), 0, 1, 1, 0, 1);
    }
}
