//! Packed attribute codec: [`StreamAttrs`] ⇄ a single `u64` lane word.
//!
//! The hardware routes a 53-bit attribute word between Decision blocks
//! (16 + 8 + 8 + 16 + 5 bits, paper Figure 4); this module widens it to one 64-bit
//! lane, the only representation the decision hot path streams: eight
//! bytes per slot, every Table-2 field one shift away. The layout is
//! chosen so the *unsigned* value of the word already encodes the
//! validity rule:
//!
//! ```text
//!  bit 63    62........55  54..53  52........37  36..29  28..21  20.........5  4...0
//!  INVALID   static_prio   (zero)  deadline(16)  num(8)  den(8)  arrival(16)   slot(5)
//! ```
//!
//! * **Invalid words lose by construction**: bit 63 is set on `!valid`
//!   words, so `min(a, b)` over the raw `u64`s can never prefer an empty
//!   slot over an occupied one, whatever the other fields hold.
//! * Every hardware field is stored verbatim (16+8+8+16+5 = 53 bits plus
//!   the 8-bit static-priority register), so the codec round-trips
//!   exactly — the lane word carries *no more* information per wire than
//!   the published hardware word did.
//!
//! This module is the codec only. The words themselves live in
//! `ss-core`'s register file, one per slot, re-derived whenever a slot's
//! state changes — there is no separate mirror to refresh.

use crate::attrs::{StreamAttrs, WindowConstraint};
use crate::ids::SlotId;
use crate::wrap16::Wrap16;

/// Bit position of the INVALID flag (set ⇒ the word loses).
pub const INVALID_BIT: u32 = 63;
/// Shift of the 8-bit static-priority field.
pub const PRIO_SHIFT: u32 = 55;
/// Shift of the 16-bit deadline field.
pub const DEADLINE_SHIFT: u32 = 37;
/// Shift of the 8-bit window numerator field.
pub const NUM_SHIFT: u32 = 29;
/// Shift of the 8-bit window denominator field.
pub const DEN_SHIFT: u32 = 21;
/// Shift of the 16-bit arrival field.
pub const ARRIVAL_SHIFT: u32 = 5;
/// Mask of the 5-bit slot field (shift 0).
pub const SLOT_MASK: u64 = 0x1F;

/// Packs an attribute word into its `u64` lane representation.
///
/// Exact inverse of [`unpack`]; the INVALID flag occupies the top bit so
/// invalid words compare greater than (lose to) every valid word.
// lint:hot-path
#[inline]
pub fn pack(a: &StreamAttrs) -> u64 {
    (((!a.valid) as u64) << INVALID_BIT)
        | ((a.static_prio as u64) << PRIO_SHIFT)
        | ((a.deadline.raw() as u64) << DEADLINE_SHIFT)
        | ((a.window.num as u64) << NUM_SHIFT)
        | ((a.window.den as u64) << DEN_SHIFT)
        | ((a.arrival.raw() as u64) << ARRIVAL_SHIFT)
        | (a.slot.raw() as u64 & SLOT_MASK)
}

/// Unpacks a lane word back into a [`StreamAttrs`]. Exact inverse of
/// [`pack`].
// lint:hot-path
#[inline]
pub fn unpack(w: u64) -> StreamAttrs {
    StreamAttrs {
        deadline: Wrap16((w >> DEADLINE_SHIFT) as u16),
        window: WindowConstraint {
            num: (w >> NUM_SHIFT) as u8,
            den: (w >> DEN_SHIFT) as u8,
        },
        arrival: Wrap16((w >> ARRIVAL_SHIFT) as u16),
        slot: SlotId::new_unchecked((w & SLOT_MASK) as u8),
        static_prio: (w >> PRIO_SHIFT) as u8,
        valid: (w >> INVALID_BIT) == 0,
    }
}

/// `true` if the lane word carries a valid (occupied-slot) attribute word.
#[inline]
pub const fn lane_valid(w: u64) -> bool {
    (w >> INVALID_BIT) == 0
}

/// The slot index carried in a lane word.
#[inline]
pub const fn lane_slot(w: u64) -> usize {
    (w & SLOT_MASK) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn attrs(
        deadline: u16,
        num: u8,
        den: u8,
        arrival: u16,
        slot: u8,
        static_prio: u8,
        valid: bool,
    ) -> StreamAttrs {
        StreamAttrs {
            deadline: Wrap16(deadline),
            window: WindowConstraint { num, den },
            arrival: Wrap16(arrival),
            slot: SlotId::new(slot % 32).unwrap(),
            static_prio,
            valid,
        }
    }

    #[test]
    fn layout_fields_do_not_overlap() {
        // Each field alone, then all together, must round-trip exactly.
        let max = attrs(u16::MAX, u8::MAX, u8::MAX, u16::MAX, 31, u8::MAX, false);
        assert_eq!(unpack(pack(&max)), max);
        let zero = attrs(0, 0, 0, 0, 0, 0, true);
        assert_eq!(unpack(pack(&zero)), zero);
    }

    #[test]
    fn invalid_words_lose_by_construction() {
        // The most urgent possible invalid word still compares greater
        // (unsigned) than the least urgent valid word.
        let invalid = attrs(0, 0, 0, 0, 0, 0, false);
        let worst_valid = attrs(u16::MAX, u8::MAX, u8::MAX, u16::MAX, 31, u8::MAX, true);
        assert!(pack(&invalid) > pack(&worst_valid));
    }

    proptest! {
        /// pack/unpack is an exact bijection on the attribute domain.
        #[test]
        fn roundtrip(fields in any::<((u16, u8, u8), (u16, u8, u8, bool))>()) {
            let ((d, num, den), (arr, slot, prio, valid)) = fields;
            let a = attrs(d, num, den, arr, slot % 32, prio, valid);
            prop_assert_eq!(unpack(pack(&a)), a);
        }
    }
}
