//! Deterministic traffic generators for the ShareStreams experiments.
//!
//! Every generator is an iterator of [`ArrivalEvent`]s with nanosecond
//! timestamps, seeded explicitly so experiment runs are bit-reproducible:
//!
//! * [`Cbr`] — constant bit rate (the paper's 64 000-arrival Figure 8 runs).
//! * [`Bursty`] — back-to-back bursts separated by multi-millisecond gaps —
//!   the generator behind Figure 9's "zig-zag formation ... introduces a
//!   multi-ms inter-burst delay after the first 4000 frames".
//! * [`Poisson`] — memoryless arrivals for queuing-delay studies.
//! * [`OnOff`] — two-state burst model for best-effort web-like traffic.
//! * [`MpegFrames`] — I/P/B group-of-pictures frame-size pattern at a fixed
//!   frame rate (the paper's §2 example of large-granularity scheduling).
//! * [`merge()`] — deterministic time-ordered merge of per-stream sources.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bursty;
pub mod cbr;
pub mod merge;
pub mod mpeg;
pub mod onoff;
pub mod poisson;
pub mod shaper;

pub use bursty::Bursty;
pub use cbr::Cbr;
pub use merge::merge;
pub use mpeg::MpegFrames;
pub use onoff::OnOff;
pub use poisson::Poisson;
pub use shaper::Shaper;

use serde::{Deserialize, Serialize};
use ss_types::{Nanos, PacketSize, StreamId};

/// One packet arrival produced by a generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrivalEvent {
    /// Arrival timestamp in simulated nanoseconds.
    pub time_ns: Nanos,
    /// Destination stream.
    pub stream: StreamId,
    /// Packet size.
    pub size: PacketSize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_event_fields() {
        let e = ArrivalEvent {
            time_ns: 42,
            stream: StreamId::new(3).unwrap(),
            size: PacketSize(64),
        };
        assert_eq!(e.time_ns, 42);
        assert_eq!(e.stream.index(), 3);
        assert_eq!(e.size.bytes(), 64);
    }
}
