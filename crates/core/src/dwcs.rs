//! DWCS window-constraint update rules (the PRIORITY_UPDATE datapath).
//!
//! Dynamic Window-Constrained Scheduling assigns every stream a request
//! period `T` and a window constraint `W = x/y` (x losses tolerated per
//! window of y packets). After every decision cycle the *current* constraint
//! `W' = x'/y'` of each stream is adjusted so that streams which keep losing
//! gain priority. The rules here are reconstructed from West & Poellabauer
//! (RTSS 2000), the algorithm the paper maps onto the hardware:
//!
//! **Winner (head packet serviced before its deadline):**
//! one slot of the current window is consumed without a loss —
//! `y' -= 1`; when the window closes (`y'` reaches `x'`, i.e. only losses
//! "remain", or both reach zero) the window resets to the original `x/y`.
//!
//! **Loser that missed its deadline:** the loss is charged to the window —
//! `x' -= 1, y' -= 1` while tolerance remains; when the window closes it
//! resets. If no tolerance remains (`x' == 0`), the stream is *violated*:
//! its denominator is boosted (`y' += 1`), which raises its priority under
//! Table 2's rule 3 ("equal deadlines and zero constraints → highest
//! denominator first"), and a violation is recorded.
//!
//! The rule set is fixed, as it is in the Register Base blocks: one
//! [`DwcsUpdater::update`] function that the service and expiry paths call
//! directly (the paper's "compute-ahead" variant changes *when* the update
//! is evaluated, not what it computes — see `FabricConfig::compute_ahead`).

use serde::{Deserialize, Serialize};
use ss_types::WindowConstraint;

/// What happened to a stream in the decision cycle being accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateEvent {
    /// The stream's head packet was serviced before (or at) its deadline.
    ServicedOnTime,
    /// The stream's head packet missed its deadline (serviced late or
    /// still waiting past the deadline).
    MissedDeadline,
}

/// Outcome of applying an update rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateOutcome {
    /// The new current window constraint `W' = x'/y'`.
    pub window: WindowConstraint,
    /// `true` if this update closed a window (constraint reset to original).
    pub window_reset: bool,
    /// `true` if the stream entered violation (no tolerance left and missed
    /// another deadline).
    pub violation: bool,
}

/// The PRIORITY_UPDATE rule set: the standard DWCS rules described in the
/// module docs.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct DwcsUpdater;

impl DwcsUpdater {
    fn reset_if_closed(
        cur: WindowConstraint,
        original: WindowConstraint,
    ) -> (WindowConstraint, bool) {
        // The window closes when no "free" (non-loss) slots remain: y' has
        // been consumed down to x', or everything reached zero.
        if cur.den == cur.num || cur.den == 0 {
            (original, true)
        } else {
            (cur, false)
        }
    }

    /// Applies the rule for `event` to current constraint `current`, given
    /// the stream's original constraint `original`.
    #[inline]
    pub fn update(
        &self,
        current: WindowConstraint,
        original: WindowConstraint,
        event: UpdateEvent,
    ) -> UpdateOutcome {
        match event {
            UpdateEvent::ServicedOnTime => {
                // Consume one window slot without a loss.
                let next = WindowConstraint::new(current.num, current.den.saturating_sub(1));
                let (window, window_reset) = Self::reset_if_closed(next, original);
                UpdateOutcome {
                    window,
                    window_reset,
                    violation: false,
                }
            }
            UpdateEvent::MissedDeadline => {
                if current.num > 0 {
                    // Charge the loss to the window.
                    let next =
                        WindowConstraint::new(current.num - 1, current.den.saturating_sub(1));
                    let (window, window_reset) = Self::reset_if_closed(next, original);
                    UpdateOutcome {
                        window,
                        window_reset,
                        violation: false,
                    }
                } else {
                    // Violation: boost the denominator so rule 3 raises the
                    // stream's priority among zero-constraint streams.
                    let window = WindowConstraint::new(0, current.den.saturating_add(1));
                    UpdateOutcome {
                        window,
                        window_reset: false,
                        violation: true,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const U: DwcsUpdater = DwcsUpdater;

    fn wc(n: u8, d: u8) -> WindowConstraint {
        WindowConstraint::new(n, d)
    }

    #[test]
    fn win_consumes_a_window_slot() {
        let out = U.update(wc(1, 4), wc(1, 4), UpdateEvent::ServicedOnTime);
        assert_eq!(out.window, wc(1, 3));
        assert!(!out.window_reset);
        assert!(!out.violation);
    }

    #[test]
    fn win_resets_when_window_closes() {
        // x'=1, y'=2: after a win y'=1... then y'==x' → window closed → reset.
        let out = U.update(wc(1, 2), wc(1, 4), UpdateEvent::ServicedOnTime);
        assert_eq!(out.window, wc(1, 4));
        assert!(out.window_reset);
    }

    #[test]
    fn zero_tolerance_win_cycle() {
        // x=0, y=3 stream: wins consume the window; reset at zero.
        let out1 = U.update(wc(0, 3), wc(0, 3), UpdateEvent::ServicedOnTime);
        assert_eq!(out1.window, wc(0, 2));
        let out2 = U.update(wc(0, 1), wc(0, 3), UpdateEvent::ServicedOnTime);
        assert_eq!(out2.window, wc(0, 3));
        assert!(out2.window_reset);
    }

    #[test]
    fn miss_charges_the_loss() {
        let out = U.update(wc(2, 5), wc(2, 5), UpdateEvent::MissedDeadline);
        assert_eq!(out.window, wc(1, 4));
        assert!(!out.violation);
    }

    #[test]
    fn miss_resets_when_tolerance_and_window_exhaust_together() {
        let out = U.update(wc(1, 1), wc(2, 5), UpdateEvent::MissedDeadline);
        assert_eq!(out.window, wc(2, 5));
        assert!(out.window_reset);
        assert!(!out.violation);
    }

    #[test]
    fn miss_without_tolerance_is_violation_and_boosts_denominator() {
        let out = U.update(wc(0, 3), wc(0, 3), UpdateEvent::MissedDeadline);
        assert!(out.violation);
        assert_eq!(out.window, wc(0, 4));
        // A second violation keeps boosting.
        let out2 = U.update(out.window, wc(0, 3), UpdateEvent::MissedDeadline);
        assert!(out2.violation);
        assert_eq!(out2.window, wc(0, 5));
    }

    #[test]
    fn violation_boost_raises_priority_under_rule3() {
        // Two zero-constraint streams with equal deadlines: the one with
        // more violations (higher y') must win rule 3.
        use crate::decision::order;
        use ss_types::{ComparisonMode, SlotId, StreamAttrs, Wrap16};
        let mk = |slot: u8, den: u8| StreamAttrs {
            deadline: Wrap16(10),
            window: wc(0, den),
            arrival: Wrap16(0),
            slot: SlotId::new(slot).unwrap(),
            static_prio: 0,
            valid: true,
        };
        let violated = mk(1, 6);
        let fresh = mk(0, 3);
        let (ord, _) = order(&violated, &fresh, ComparisonMode::Dwcs);
        assert_eq!(ord, std::cmp::Ordering::Less);
    }

    #[test]
    fn denominator_saturates() {
        let out = U.update(wc(0, 255), wc(0, 3), UpdateEvent::MissedDeadline);
        assert_eq!(out.window, wc(0, 255));
        assert!(out.violation);
    }

    proptest! {
        /// Invariant: starting from a well-formed constraint (x <= y, y >= 1)
        /// and applying any event sequence, the current constraint always
        /// keeps x' <= y' and never underflows.
        #[test]
        fn well_formedness_preserved(
            x in 0u8..8,
            extra in 1u8..8,
            events in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let original = wc(x, x + extra);
            let mut cur = original;
            for on_time in events {
                let ev = if on_time { UpdateEvent::ServicedOnTime } else { UpdateEvent::MissedDeadline };
                let out = U.update(cur, original, ev);
                cur = out.window;
                prop_assert!(cur.num <= cur.den, "x'={} > y'={}", cur.num, cur.den);
                prop_assert!(cur.den >= 1);
            }
        }

        /// A stream serviced on time every cycle cycles through its window
        /// and resets exactly every (y - x) services.
        #[test]
        fn reset_period_on_all_wins(x in 0u8..5, extra in 1u8..10) {
            let original = wc(x, x + extra);
            let mut cur = original;
            let mut services_until_reset = 0u32;
            for _ in 0..(extra as u32) {
                let out = U.update(cur, original, UpdateEvent::ServicedOnTime);
                cur = out.window;
                services_until_reset += 1;
                if out.window_reset { break; }
            }
            prop_assert_eq!(services_until_reset, extra as u32);
            prop_assert_eq!(cur, original);
        }

        /// Violations monotonically increase the denominator (priority).
        #[test]
        fn violations_monotone(d0 in 1u8..250, k in 1u8..5) {
            let original = wc(0, d0);
            let mut cur = original;
            let mut last_den = cur.den;
            for _ in 0..k {
                let out = U.update(cur, original, UpdateEvent::MissedDeadline);
                prop_assert!(out.violation);
                prop_assert!(out.window.den > last_den || out.window.den == 255);
                last_den = out.window.den;
                cur = out.window;
            }
        }
    }
}
