//! Identifier newtypes with hardware-accurate field widths.
//!
//! The FPGA exchanges **5-bit** Stream IDs with the Stream processor, so the
//! hardware realization addresses at most 32 stream-slots per chip. Streamlets
//! (aggregated sub-streams bound to one slot) live purely on the processor
//! side and carry a wider software identifier.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Width of the hardware stream/register ID field, in bits.
pub const SLOT_ID_BITS: u32 = 5;

/// Maximum number of stream-slots addressable by a 5-bit register ID.
pub const MAX_SLOTS: usize = 1 << SLOT_ID_BITS;

/// The members of a slot set — bit `i` of `mask` is slot `i` — in
/// ascending order. A 5-bit ID space makes every set of slots (or of the
/// ≤ 16 shards that partition them) one `u32` word; this is the walk over
/// one, visiting set bits only. Registered hot path.
// lint:hot-path
#[inline]
pub fn slot_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let slot = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (slot < MAX_SLOTS).then_some(slot)
    })
}

/// Identifier of a stream known to the scheduler hardware (5-bit field).
///
/// In the endsystem realization one `StreamId` maps 1:1 onto the [`SlotId`]
/// of the Register Base block holding its state, unless aggregation binds
/// many streamlets to one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StreamId(u8);

impl StreamId {
    /// Creates a stream ID, checking the 5-bit range.
    ///
    /// Returns `None` if `raw >= 32`.
    pub const fn new(raw: u8) -> Option<Self> {
        if (raw as usize) < MAX_SLOTS {
            Some(Self(raw))
        } else {
            None
        }
    }

    /// Creates a stream ID without range checking in release builds.
    ///
    /// # Panics
    /// Panics in debug builds if `raw >= 32`.
    pub fn new_unchecked(raw: u8) -> Self {
        debug_assert!(
            (raw as usize) < MAX_SLOTS,
            "stream id {raw} exceeds 5-bit field"
        );
        Self(raw)
    }

    /// The raw 5-bit value.
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// The value as a zero-based index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Index of a Register Base block ("stream-slot") in the fabric.
///
/// Distinct from [`StreamId`] because aggregation can bind many streams to a
/// single slot; the hardware only ever sees slot indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SlotId(u8);

impl SlotId {
    /// Creates a slot ID, checking the 5-bit range.
    pub const fn new(raw: u8) -> Option<Self> {
        if (raw as usize) < MAX_SLOTS {
            Some(Self(raw))
        } else {
            None
        }
    }

    /// Creates a slot ID without range checking in release builds.
    ///
    /// # Panics
    /// Panics in debug builds if `raw >= 32`.
    pub fn new_unchecked(raw: u8) -> Self {
        debug_assert!(
            (raw as usize) < MAX_SLOTS,
            "slot id {raw} exceeds 5-bit field"
        );
        Self(raw)
    }

    /// The raw 5-bit value.
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// The value as a zero-based index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

impl From<StreamId> for SlotId {
    fn from(s: StreamId) -> Self {
        SlotId(s.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_id_rejects_out_of_range() {
        assert!(StreamId::new(31).is_some());
        assert!(StreamId::new(32).is_none());
        assert!(StreamId::new(255).is_none());
    }

    #[test]
    fn slot_id_rejects_out_of_range() {
        assert!(SlotId::new(0).is_some());
        assert!(SlotId::new(31).is_some());
        assert!(SlotId::new(32).is_none());
    }

    #[test]
    fn stream_to_slot_is_identity_without_aggregation() {
        let s = StreamId::new(7).unwrap();
        let slot: SlotId = s.into();
        assert_eq!(slot.index(), 7);
    }

    #[test]
    fn display_formats() {
        assert_eq!(StreamId::new(3).unwrap().to_string(), "S3");
        assert_eq!(SlotId::new(3).unwrap().to_string(), "slot3");
    }

    #[test]
    fn max_slots_matches_field_width() {
        assert_eq!(MAX_SLOTS, 32);
        assert_eq!(1usize << SLOT_ID_BITS, MAX_SLOTS);
    }

    #[test]
    fn slot_bits_walks_set_bits_ascending() {
        assert_eq!(slot_bits(0).count(), 0);
        assert_eq!(slot_bits(0b1010_0001).collect::<Vec<_>>(), [0, 5, 7]);
        assert_eq!(slot_bits(1 << 31).collect::<Vec<_>>(), [31]);
        assert_eq!(
            slot_bits(u32::MAX).collect::<Vec<_>>(),
            (0..32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        let a = StreamId::new(1).unwrap();
        let b = StreamId::new(2).unwrap();
        assert!(a < b);
    }
}
