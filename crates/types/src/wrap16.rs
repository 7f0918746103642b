//! Wrapping 16-bit time tags with serial-number arithmetic.
//!
//! The hardware carries deadlines and arrival times in **16-bit** fields
//! (paper Figure 4). Real deployments run far longer than 65 536 time units,
//! so the fields wrap; comparisons must therefore use serial-number
//! arithmetic (RFC 1982): `a < b` iff the signed 16-bit distance from `a` to
//! `b` is positive. This is exactly the comparator a sane RTL implementation
//! would synthesize, and it keeps ordering correct as long as live tags stay
//! within half the number space (32 768 units) of each other.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A 16-bit wrapping time value compared with serial-number arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Wrap16(pub u16);

impl Wrap16 {
    /// Zero tag.
    pub const ZERO: Wrap16 = Wrap16(0);

    /// Constructs a tag from a wider counter, truncating to 16 bits —
    /// precisely what loading a 16-bit hardware register does.
    pub const fn from_wide(t: u64) -> Self {
        Wrap16(t as u16)
    }

    /// Wrapping addition of an offset.
    #[must_use]
    pub const fn wrapping_add(self, rhs: u16) -> Self {
        Wrap16(self.0.wrapping_add(rhs))
    }

    /// Wrapping subtraction of an offset.
    #[must_use]
    pub const fn wrapping_sub(self, rhs: u16) -> Self {
        Wrap16(self.0.wrapping_sub(rhs))
    }

    /// Signed distance from `self` to `other` in the 16-bit circle.
    ///
    /// Positive when `other` lies ahead of `self` (i.e. `self` is earlier).
    pub const fn distance_to(self, other: Wrap16) -> i16 {
        other.0.wrapping_sub(self.0) as i16
    }

    /// Serial-number comparison: earlier tags order first.
    ///
    /// Exactly antipodal values (distance = −32768) are considered *greater*
    /// than `self`, an arbitrary but deterministic tie-break matching the
    /// two's-complement sign convention.
    pub fn serial_cmp(self, other: Wrap16) -> Ordering {
        if self.0 == other.0 {
            Ordering::Equal
        } else if self.distance_to(other) > 0 {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }

    /// The raw 16-bit value.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for Wrap16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A packet deadline expressed as a wrapping 16-bit tag.
pub type DeadlineTag = Wrap16;

/// A packet arrival time expressed as a wrapping 16-bit tag.
pub type ArrivalTag = Wrap16;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn plain_ordering_without_wrap() {
        let a = Wrap16(10);
        let b = Wrap16(20);
        assert_eq!(a.serial_cmp(b), Ordering::Less);
        assert_eq!(b.serial_cmp(a), Ordering::Greater);
        assert_eq!(a.serial_cmp(a), Ordering::Equal);
    }

    #[test]
    fn ordering_across_wrap_boundary() {
        // 65530 is "earlier" than 5 once the counter has wrapped.
        let late = Wrap16(65530);
        let early_next_epoch = Wrap16(5);
        assert_eq!(late.serial_cmp(early_next_epoch), Ordering::Less);
        assert_eq!(early_next_epoch.serial_cmp(late), Ordering::Greater);
    }

    #[test]
    fn distance_is_signed() {
        assert_eq!(Wrap16(0).distance_to(Wrap16(1)), 1);
        assert_eq!(Wrap16(1).distance_to(Wrap16(0)), -1);
        assert_eq!(Wrap16(65535).distance_to(Wrap16(0)), 1);
    }

    #[test]
    fn from_wide_truncates_like_a_register_load() {
        assert_eq!(Wrap16::from_wide(65536), Wrap16(0));
        assert_eq!(Wrap16::from_wide(65537 + 65536), Wrap16(1));
    }

    #[test]
    fn antipodal_value_is_greater() {
        let a = Wrap16(0);
        let b = Wrap16(32768);
        assert_eq!(a.serial_cmp(b), Ordering::Greater);
    }

    proptest! {
        /// Serial comparison is antisymmetric for non-equal, non-antipodal pairs.
        #[test]
        fn serial_cmp_antisymmetric(a in any::<u16>(), b in any::<u16>()) {
            let (wa, wb) = (Wrap16(a), Wrap16(b));
            prop_assume!(a != b && a.wrapping_add(32768) != b);
            prop_assert_eq!(wa.serial_cmp(wb), wb.serial_cmp(wa).reverse());
        }

        /// Within a half-space window, serial ordering agrees with integer ordering.
        #[test]
        fn agrees_with_integers_in_window(base in any::<u16>(), da in 0u16..16384, db in 0u16..16384) {
            let a = Wrap16(base.wrapping_add(da));
            let b = Wrap16(base.wrapping_add(db));
            prop_assert_eq!(a.serial_cmp(b), da.cmp(&db));
        }

        /// Adding then subtracting an offset round-trips.
        #[test]
        fn add_sub_roundtrip(a in any::<u16>(), d in any::<u16>()) {
            let w = Wrap16(a);
            prop_assert_eq!(w.wrapping_add(d).wrapping_sub(d), w);
        }
    }
}
