//! Constant-bit-rate generator.

use crate::ArrivalEvent;
use ss_types::{Nanos, PacketSize, StreamId};

/// Emits `count` fixed-size packets at a fixed interval, starting at
/// `start_ns`.
#[derive(Debug, Clone)]
pub struct Cbr {
    stream: StreamId,
    size: PacketSize,
    interval_ns: Nanos,
    next_time: Nanos,
    remaining: u64,
}

impl Cbr {
    /// Creates a CBR source.
    ///
    /// # Panics
    /// Panics if `interval_ns == 0`.
    pub fn new(
        stream: StreamId,
        size: PacketSize,
        interval_ns: Nanos,
        start_ns: Nanos,
        count: u64,
    ) -> Self {
        assert!(interval_ns > 0, "interval must be positive");
        Self {
            stream,
            size,
            interval_ns,
            next_time: start_ns,
            remaining: count,
        }
    }
}

impl Iterator for Cbr {
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
        self.next_time += self.interval_ns;
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
    fn emits_exact_count_at_exact_times() {
        let events: Vec<_> = Cbr::new(sid(0), PacketSize(100), 10, 5, 4).collect();
        assert_eq!(events.len(), 4);
        let times: Vec<u64> = events.iter().map(|e| e.time_ns).collect();
        assert_eq!(times, vec![5, 15, 25, 35]);
    }

    #[test]
    fn rate_is_respected_over_window() {
        // 8 MBps with 1000-byte packets (one per 125 µs) for 1 simulated
        // second.
        let events: Vec<_> = Cbr::new(sid(0), PacketSize(1000), 125_000, 0, 8_000).collect();
        assert_eq!(events.len(), 8000);
        let last = events.last().unwrap().time_ns;
        let bytes: u64 = events.iter().map(|e| u64::from(e.size.bytes())).sum();
        let rate = bytes as f64 * 1e9 / last as f64;
        assert!((rate - 8e6).abs() / 8e6 < 0.01, "rate {rate}");
    }

    #[test]
    fn size_hint_exact() {
        let c = Cbr::new(sid(0), PacketSize(64), 1, 0, 7);
        assert_eq!(c.size_hint(), (7, Some(7)));
        assert_eq!(c.count(), 7);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        Cbr::new(sid(0), PacketSize(64), 0, 0, 1);
    }
}
