//! Shared vocabulary types for the ShareStreams QoS architecture.
//!
//! ShareStreams (IPPS 2003) is a canonical hardware/software architecture for
//! packet schedulers. The hardware stores per-stream service attributes in
//! *Register Base blocks* (stream-slots) and orders streams pairwise with
//! *Decision blocks* arranged in a recirculating shuffle-exchange network.
//!
//! This crate defines the data carried between all the other crates:
//!
//! * identifiers ([`StreamId`], [`SlotId`], [`StreamletId`]) with the exact
//!   hardware field widths (5-bit register IDs);
//! * wrapping 16-bit time tags ([`DeadlineTag`], [`ArrivalTag`]) compared with
//!   serial-number arithmetic, as a 16-bit hardware deadline field must be;
//! * the DWCS window constraint ([`WindowConstraint`]) and its exact-rational
//!   ordering;
//! * the attribute word a Register Base block presents to a Decision block
//!   ([`StreamAttrs`]);
//! * user-facing stream specifications ([`StreamSpec`], [`ServiceClass`]);
//! * packets and simple rate/bandwidth helpers.
//!
//! Everything here is `Copy`-friendly plain data: the hot scheduling paths in
//! `ss-core` move these values through simulated wires every cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrs;
pub mod bandwidth;
pub mod error;
pub mod ids;
pub mod packed;
pub mod packet;
pub mod spec;
pub mod wrap16;

pub use attrs::{ComparisonMode, StreamAttrs, WindowConstraint};
pub use bandwidth::{BitsPerSec, BytesPerSec, Ratio};
pub use error::{Error, Result};
pub use ids::{slot_bits, SlotId, StreamId, StreamletId, MAX_SLOTS, SLOT_ID_BITS};
pub use packet::{packet_time_ns, Packet, PacketId, PacketSize};
pub use spec::{ServiceClass, StreamSpec};
pub use wrap16::{ArrivalTag, DeadlineTag, Wrap16};

/// Number of hardware clock cycles (the FPGA clock domain).
pub type Cycles = u64;

/// Virtual scheduler time measured in *decision cycles* (one winner selection).
pub type DecisionCycles = u64;

/// Nanoseconds of simulated wall-clock time in the endsystem models.
pub type Nanos = u64;

/// The field widths used throughout the hardware realization, as published.
///
/// The paper (Figure 4) fixes the widths of every field a Register Base block
/// supplies to a Decision block. They are surfaced here as constants so that
/// the simulation provably cannot carry more information per wire than the
/// hardware did.
pub mod field_widths {
    /// Packet deadline field width in bits.
    pub const DEADLINE_BITS: u32 = 16;
    /// Loss-numerator (window-constraint numerator) field width in bits.
    pub const LOSS_NUM_BITS: u32 = 8;
    /// Loss-denominator (window-constraint denominator) field width in bits.
    pub const LOSS_DEN_BITS: u32 = 8;
    /// Packet arrival-time field width in bits.
    pub const ARRIVAL_BITS: u32 = 16;
    /// Register/stream ID field width in bits.
    pub const ID_BITS: u32 = 5;

    /// Total width of the attribute word routed between Decision blocks.
    pub const ATTR_WORD_BITS: u32 =
        DEADLINE_BITS + LOSS_NUM_BITS + LOSS_DEN_BITS + ARRIVAL_BITS + ID_BITS;

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn attr_word_is_53_bits() {
            // 16 + 8 + 8 + 16 + 5 = 53 bits per stream attribute word.
            assert_eq!(ATTR_WORD_BITS, 53);
        }
    }
}
