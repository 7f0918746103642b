//! Pressure-aware generator throttling.
//!
//! [`Throttled`] closes the backpressure loop at the *source*: it wraps
//! any arrival iterator and stretches its inter-arrival gaps according to
//! the endsystem's published [`SharedPressure`] level, using the same
//! deterministic pacing rule the Stream-processor ingest loop applies
//! ([`SharedPressure::holdback_per_4`]): holding back `h` of every 4
//! arrivals is the same long-run rate as stretching every gap by
//! `4 / (4 - h)` — ×1 at Nominal, ×4/3 at Elevated, ×4 at Overloaded.
//!
//! The stretch applies to *gaps*, so a zero-gap burst stays back-to-back
//! (the shaper, not the throttle, owns burst conformance); only the
//! sustained rate drops. Pacing is pure integer arithmetic over the level
//! read at each event, so a replayed pressure trace reproduces the exact
//! same arrival times.

use crate::ArrivalEvent;
use ss_overload::SharedPressure;
use ss_types::Nanos;
use std::sync::Arc;

/// A backpressure-throttled arrival iterator.
#[derive(Debug)]
pub struct Throttled<I> {
    inner: I,
    shared: Arc<SharedPressure>,
    /// Last input timestamp (gap measurement).
    last_in: Nanos,
    /// Last emitted timestamp (stretched clock).
    last_out: Nanos,
    slowdowns: u64,
}

impl<I: Iterator<Item = ArrivalEvent>> Throttled<I> {
    /// Wraps `inner`, pacing it by the level published in `shared`.
    pub fn new(inner: I, shared: Arc<SharedPressure>) -> Self {
        Self {
            inner,
            shared,
            last_in: 0,
            last_out: 0,
            slowdowns: 0,
        }
    }

    /// Events whose gap was stretched (emitted while pressure was above
    /// Nominal).
    pub fn slowdowns(&self) -> u64 {
        self.slowdowns
    }
}

impl<I: Iterator<Item = ArrivalEvent>> Iterator for Throttled<I> {
    type Item = ArrivalEvent;

    fn next(&mut self) -> Option<ArrivalEvent> {
        let mut e = self.inner.next()?;
        let gap = e.time_ns.saturating_sub(self.last_in);
        self.last_in = e.time_ns;
        let hb = SharedPressure::holdback_per_4(self.shared.level()) as u64;
        let stretched = if hb == 0 {
            gap
        } else {
            self.slowdowns += 1;
            gap * 4 / (4 - hb)
        };
        self.last_out += stretched;
        e.time_ns = self.last_out;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cbr;
    use ss_overload::PressureLevel;
    use ss_types::{PacketSize, StreamId};

    fn sid(i: u8) -> StreamId {
        StreamId::new(i).unwrap()
    }

    #[test]
    fn stretch_follows_the_published_level() {
        let shared = Arc::new(SharedPressure::new());
        // 1000 ns gaps: arrivals at 0, 1000, 2000, ...
        let src = Cbr::new(sid(0), PacketSize(1000), 1000, 0, 7);
        let mut t = Throttled::new(src, Arc::clone(&shared));
        assert_eq!(t.next().unwrap().time_ns, 0);
        assert_eq!(t.next().unwrap().time_ns, 1000, "nominal passes unchanged");
        shared.publish(PressureLevel::Overloaded);
        assert_eq!(t.next().unwrap().time_ns, 5000, "gap ×4 while overloaded");
        assert_eq!(t.next().unwrap().time_ns, 9000);
        shared.publish(PressureLevel::Elevated);
        assert_eq!(t.next().unwrap().time_ns, 10333, "gap ×4/3 while elevated");
        shared.publish(PressureLevel::Nominal);
        assert_eq!(t.next().unwrap().time_ns, 11333, "recovery restores rate");
        assert_eq!(t.next().unwrap().time_ns, 12333);
        assert_eq!(t.slowdowns(), 3);
        assert!(t.next().is_none());
    }

    #[test]
    fn output_stays_monotone_and_lossless_under_any_level() {
        let shared = Arc::new(SharedPressure::new());
        let src = Cbr::new(sid(1), PacketSize(64), 100, 0, 300);
        let t = Throttled::new(src, Arc::clone(&shared));
        let mut out = Vec::new();
        for (i, e) in t.enumerate() {
            // Flip the level mid-stream, including the fail-safe decode.
            if i == 100 {
                shared.publish(PressureLevel::Overloaded);
            } else if i == 200 {
                shared.publish(PressureLevel::Nominal);
            }
            out.push(e.time_ns);
        }
        assert_eq!(out.len(), 300, "throttling delays, never drops");
        assert!(out.windows(2).all(|p| p[0] <= p[1]), "monotone");
        // The overloaded third took 4× the time of the nominal thirds.
        let nominal_span = out[100] - out[0];
        let overloaded_span = out[200] - out[100];
        assert!(overloaded_span > 3 * nominal_span);
    }
}
