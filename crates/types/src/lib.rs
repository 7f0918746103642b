//! Shared vocabulary types for the ShareStreams QoS architecture.
//!
//! ShareStreams (IPPS 2003) is a canonical hardware/software architecture for
//! packet schedulers. The hardware stores per-stream service attributes in
//! *Register Base blocks* (stream-slots) and orders streams pairwise with
//! *Decision blocks* arranged in a recirculating shuffle-exchange network.
//!
//! This crate defines the data carried between all the other crates:
//!
//! * identifiers ([`StreamId`], [`SlotId`]) with the exact
//!   hardware field widths (5-bit register IDs);
//! * wrapping 16-bit time tags ([`DeadlineTag`], [`ArrivalTag`]) compared with
//!   serial-number arithmetic, as a 16-bit hardware deadline field must be;
//! * the DWCS window constraint ([`WindowConstraint`]) and its exact-rational
//!   ordering;
//! * the attribute word a Register Base block presents to a Decision block
//!   ([`StreamAttrs`]);
//! * user-facing stream specifications ([`StreamSpec`], [`ServiceClass`]);
//! * packet sizes and packet-times.
//!
//! Everything here is `Copy`-friendly plain data: the hot scheduling paths in
//! `ss-core` move these values through simulated wires every cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrs;
pub mod error;
pub mod ids;
pub mod packed;
pub mod packet;
pub mod spec;
pub mod wrap16;

pub use attrs::{ComparisonMode, StreamAttrs, WindowConstraint};
pub use error::{Error, Result};
pub use ids::{slot_bits, SlotId, StreamId, MAX_SLOTS, SLOT_ID_BITS};
pub use packet::{packet_time_ns, PacketSize};
pub use spec::{ServiceClass, StreamSpec};
pub use wrap16::{ArrivalTag, DeadlineTag, Wrap16};

/// Number of hardware clock cycles (the FPGA clock domain).
pub type Cycles = u64;

/// Nanoseconds of simulated wall-clock time in the endsystem models.
pub type Nanos = u64;
