//! Stream service attributes: the word a Register Base block drives onto the
//! fabric wires each SCHEDULE cycle, and the DWCS window constraint.

use crate::ids::SlotId;
use crate::wrap16::{ArrivalTag, DeadlineTag};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A DWCS window constraint (loss tolerance) `W = x / y`.
///
/// `x` packets out of every window of `y` consecutive packets in the stream
/// may be lost or serviced late. `x = 0` means no losses are tolerated.
/// The hardware stores `x` and `y` in 8-bit fields.
///
/// Ordering is by the exact rational value `x/y` (compared with 16-bit cross
/// products, never floating point), with `x = 0` treated as the value zero
/// regardless of `y`, and the degenerate `y = 0` treated as zero tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WindowConstraint {
    /// Loss numerator: packets that may be late/lost per window.
    pub num: u8,
    /// Loss denominator: window length in packets.
    pub den: u8,
}

impl WindowConstraint {
    /// The zero constraint (no losses tolerated) with a unit window.
    pub const ZERO: WindowConstraint = WindowConstraint { num: 0, den: 1 };

    /// Creates a constraint `num / den`.
    pub const fn new(num: u8, den: u8) -> Self {
        Self { num, den }
    }

    /// `true` if the constraint value is zero (no tolerance for loss).
    pub const fn is_zero(self) -> bool {
        self.num == 0 || self.den == 0
    }

    /// Compares the rational values `self.num/self.den` and `o.num/o.den`
    /// exactly using cross products.
    pub fn value_cmp(self, o: WindowConstraint) -> Ordering {
        match (self.is_zero(), o.is_zero()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => {
                let lhs = u16::from(self.num) * u16::from(o.den);
                let rhs = u16::from(o.num) * u16::from(self.den);
                lhs.cmp(&rhs)
            }
        }
    }
}

impl fmt::Display for WindowConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

/// How a Decision block interprets the attribute words (the scheduling mode
/// the Control unit programs).
///
/// ShareStreams is a *unified canonical architecture*: the same datapath maps
/// window-constrained (DWCS), pure-EDF, static-priority, and fair-queuing
/// disciplines by selecting which rule set the Decision blocks apply and
/// whether the PRIORITY_UPDATE cycle runs (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ComparisonMode {
    /// Full DWCS rule chain (paper Table 2): EDF, then window-constraint
    /// tie-breaks, then FCFS on arrival times.
    #[default]
    Dwcs,
    /// Earliest-deadline-first only; ties broken FCFS then by slot ID.
    Edf,
    /// Static priority carried in the `static_prio` field; lower value wins.
    StaticPriority,
    /// Fair-queuing service tags carried in the `deadline` field (start or
    /// finish tags); no PRIORITY_UPDATE cycle is run. Ties broken by slot ID.
    ServiceTag,
}

/// The attribute word a Register Base block supplies to a Decision block.
///
/// Field widths follow the published hardware (paper Figure 4): 16-bit
/// deadline, 8+8-bit window constraint,
/// 16-bit arrival time, 5-bit slot ID. `valid` models the slot-occupied
/// signal: empty slots always lose. `static_prio` is the priority-class
/// register used in static-priority mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StreamAttrs {
    /// Deadline of the head packet (or service tag in `ServiceTag` mode).
    pub deadline: DeadlineTag,
    /// Current window constraint `x'/y'`.
    pub window: WindowConstraint,
    /// Arrival time of the head packet.
    pub arrival: ArrivalTag,
    /// Owning stream-slot.
    pub slot: SlotId,
    /// Static priority (lower = more urgent) for priority-class mode.
    pub static_prio: u8,
    /// Slot-occupied: `false` makes this word lose every comparison.
    pub valid: bool,
}

impl StreamAttrs {
    /// An empty (invalid) attribute word for `slot`.
    pub fn empty(slot: SlotId) -> Self {
        Self {
            deadline: DeadlineTag::ZERO,
            window: WindowConstraint::ZERO,
            arrival: ArrivalTag::ZERO,
            slot,
            static_prio: u8::MAX,
            valid: false,
        }
    }
}

impl fmt::Display for StreamAttrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.valid {
            write!(
                f,
                "[{} d={} W={} a={}]",
                self.slot, self.deadline, self.window, self.arrival
            )
        } else {
            write!(f, "[{} empty]", self.slot)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn wc(num: u8, den: u8) -> WindowConstraint {
        WindowConstraint::new(num, den)
    }

    #[test]
    fn zero_constraints_compare_equal() {
        assert_eq!(wc(0, 1).value_cmp(wc(0, 200)), Ordering::Equal);
        assert_eq!(wc(0, 1).value_cmp(wc(5, 0)), Ordering::Equal);
    }

    #[test]
    fn zero_is_less_than_nonzero() {
        assert_eq!(wc(0, 7).value_cmp(wc(1, 200)), Ordering::Less);
        assert_eq!(wc(1, 200).value_cmp(wc(0, 7)), Ordering::Greater);
    }

    #[test]
    fn cross_product_ordering() {
        // 1/3 < 1/2 < 2/3 < 3/4
        assert_eq!(wc(1, 3).value_cmp(wc(1, 2)), Ordering::Less);
        assert_eq!(wc(1, 2).value_cmp(wc(2, 3)), Ordering::Less);
        assert_eq!(wc(2, 3).value_cmp(wc(3, 4)), Ordering::Less);
        // 2/4 == 1/2
        assert_eq!(wc(2, 4).value_cmp(wc(1, 2)), Ordering::Equal);
    }

    #[test]
    fn cross_product_does_not_overflow_u16() {
        // 255/1 vs 1/255 uses 255*255 = 65025, still within u16.
        assert_eq!(wc(255, 1).value_cmp(wc(1, 255)), Ordering::Greater);
    }

    #[test]
    fn empty_attrs_are_invalid() {
        let a = StreamAttrs::empty(SlotId::new(3).unwrap());
        assert!(!a.valid);
        assert_eq!(a.slot.index(), 3);
    }

    #[test]
    fn display_forms() {
        let slot = SlotId::new(1).unwrap();
        let mut a = StreamAttrs::empty(slot);
        assert_eq!(a.to_string(), "[slot1 empty]");
        a.valid = true;
        a.deadline = crate::wrap16::Wrap16(9);
        a.window = wc(1, 4);
        assert_eq!(a.to_string(), "[slot1 d=9 W=1/4 a=0]");
    }

    proptest! {
        /// value_cmp is antisymmetric.
        #[test]
        fn value_cmp_antisymmetric(a in any::<(u8, u8)>(), b in any::<(u8, u8)>()) {
            let (x, y) = (wc(a.0, a.1), wc(b.0, b.1));
            prop_assert_eq!(x.value_cmp(y), y.value_cmp(x).reverse());
        }

        /// value_cmp is transitive (checked on triples).
        #[test]
        fn value_cmp_transitive(a in any::<(u8, u8)>(), b in any::<(u8, u8)>(), c in any::<(u8, u8)>()) {
            let (x, y, z) = (wc(a.0, a.1), wc(b.0, b.1), wc(c.0, c.1));
            if x.value_cmp(y) != Ordering::Greater && y.value_cmp(z) != Ordering::Greater {
                prop_assert_ne!(x.value_cmp(z), Ordering::Greater);
            }
        }

        /// value_cmp agrees with exact rational comparison via u32 (oracle).
        #[test]
        fn value_cmp_matches_oracle(a in any::<(u8, u8)>(), b in any::<(u8, u8)>()) {
            let (x, y) = (wc(a.0, a.1), wc(b.0, b.1));
            let vx = if x.is_zero() { (0u32, 1u32) } else { (x.num as u32, x.den as u32) };
            let vy = if y.is_zero() { (0u32, 1u32) } else { (y.num as u32, y.den as u32) };
            let oracle = (vx.0 * vy.1).cmp(&(vy.0 * vx.1));
            prop_assert_eq!(x.value_cmp(y), oracle);
        }
    }
}
