//! Decision-cycle liveness watchdog.
//!
//! A healthy fabric with backlogged slots transmits every decision cycle —
//! WR picks a winner, BA drains every occupied slot. A cycle that has
//! backlog but produces nothing is therefore an unambiguous stall
//! signature: the control FSM is wedged in its SCHEDULE↔PRIORITY_UPDATE
//! loop, or the card partition is gone. The watchdog counts consecutive
//! unproductive-with-backlog cycles and trips after a threshold; the
//! sharded frontend's recovery supervisor then hands the shard to the
//! host, which keeps deciding on the shard's own register image.
//!
//! Recovery uses hysteresis in the opposite direction: the host path must
//! run a streak of consecutive healthy cycles before the supervisor
//! re-attaches the card, so a flapping card cannot bounce the shard
//! between paths every cycle.
//!
//! Deliberately independent of fault injection (it watches detached
//! fabrics too): a real deployment needs stall detection against genuine
//! hardware wedges, not only injected ones.

use serde::{Deserialize, Serialize};

/// Watchdog verdict after observing one decision cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WatchdogVerdict {
    /// The cycle made progress (or had nothing to do).
    Healthy,
    /// Unproductive with backlog, but below the trip threshold.
    Suspect,
    /// The trip threshold was reached: the scheduling path is stuck.
    Stuck,
}

/// Counts unproductive decision cycles and trips past a threshold;
/// tracks the healthy streak needed to re-attach after a hand-over.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionWatchdog {
    /// Consecutive unproductive-with-backlog cycles that mean "stuck".
    stall_threshold: u32,
    /// Consecutive healthy observations required before re-attach.
    reattach_threshold: u32,
    unproductive: u32,
    healthy_streak: u32,
    /// Times the watchdog crossed into [`WatchdogVerdict::Stuck`] (each
    /// stall counted once, not per stuck observation).
    #[serde(default)]
    trips: u64,
}

impl DecisionWatchdog {
    /// A watchdog that trips after `stall_threshold` consecutive
    /// unproductive-with-backlog cycles and clears a re-attach after
    /// `reattach_threshold` consecutive healthy observations. Both must be
    /// ≥ 1 (clamped).
    pub fn new(stall_threshold: u32, reattach_threshold: u32) -> Self {
        Self {
            stall_threshold: stall_threshold.max(1),
            reattach_threshold: reattach_threshold.max(1),
            unproductive: 0,
            healthy_streak: 0,
            trips: 0,
        }
    }

    /// Observes one cycle: `produced` = the cycle transmitted ≥ 1 packet,
    /// `had_backlog` = at least one configured slot had a queued packet
    /// when the cycle started.
    pub fn observe(&mut self, produced: bool, had_backlog: bool) -> WatchdogVerdict {
        if had_backlog && !produced {
            self.healthy_streak = 0;
            self.unproductive = self.unproductive.saturating_add(1);
            if self.unproductive >= self.stall_threshold {
                if self.unproductive == self.stall_threshold {
                    self.trips += 1;
                }
                WatchdogVerdict::Stuck
            } else {
                WatchdogVerdict::Suspect
            }
        } else {
            // Idle-with-no-backlog is healthy: there was nothing to do.
            self.unproductive = 0;
            self.healthy_streak = self.healthy_streak.saturating_add(1);
            WatchdogVerdict::Healthy
        }
    }

    /// Times the watchdog has tripped (entered `Stuck`) over its lifetime.
    /// Survives [`DecisionWatchdog::reset`] — it counts stalls, not state.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// `true` once the healthy streak satisfies the re-attach hysteresis.
    pub fn ready_to_reattach(&self) -> bool {
        self.healthy_streak >= self.reattach_threshold
    }

    /// Clears both streaks (after a hand-over or re-attach, so the next
    /// path starts with a clean slate).
    pub fn reset(&mut self) {
        self.unproductive = 0;
        self.healthy_streak = 0;
    }
}

impl Default for DecisionWatchdog {
    /// Trip after 4 stuck cycles; re-attach after 16 healthy ones. The
    /// asymmetry is intentional: handing over is cheap (the host decides
    /// on the same register image), flapping back early is not.
    fn default() -> Self {
        Self::new(4, 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold() {
        let mut w = DecisionWatchdog::new(3, 4);
        assert_eq!(w.observe(false, true), WatchdogVerdict::Suspect);
        assert_eq!(w.observe(false, true), WatchdogVerdict::Suspect);
        assert_eq!(w.observe(false, true), WatchdogVerdict::Stuck);
        assert_eq!(w.trips(), 1);
    }

    #[test]
    fn progress_resets_the_count() {
        let mut w = DecisionWatchdog::new(3, 4);
        w.observe(false, true);
        w.observe(false, true);
        assert_eq!(w.observe(true, true), WatchdogVerdict::Healthy);
        assert_eq!(w.observe(false, true), WatchdogVerdict::Suspect);
        assert_eq!(w.observe(false, true), WatchdogVerdict::Suspect, "2 of 3");
    }

    #[test]
    fn idle_without_backlog_is_healthy() {
        let mut w = DecisionWatchdog::new(2, 4);
        for _ in 0..10 {
            assert_eq!(w.observe(false, false), WatchdogVerdict::Healthy);
        }
        assert_eq!(w.observe(false, true), WatchdogVerdict::Suspect, "1 of 2");
    }

    #[test]
    fn reattach_hysteresis() {
        let mut w = DecisionWatchdog::new(2, 3);
        assert!(!w.ready_to_reattach());
        w.observe(true, true);
        w.observe(true, true);
        assert!(!w.ready_to_reattach(), "streak of 2 < threshold 3");
        w.observe(true, true);
        assert!(w.ready_to_reattach());
        // One bad cycle restarts the proof.
        w.observe(false, true);
        w.observe(true, true);
        w.observe(true, true);
        assert!(!w.ready_to_reattach(), "the streak restarted");
    }

    #[test]
    fn reset_clears_both_streaks() {
        let mut w = DecisionWatchdog::new(2, 2);
        w.observe(false, true);
        w.observe(true, true);
        w.observe(true, true);
        w.reset();
        assert!(!w.ready_to_reattach());
        assert_eq!(w.observe(false, true), WatchdogVerdict::Suspect, "1 of 2");
    }

    #[test]
    fn trips_count_stalls_once_each_and_survive_reset() {
        let mut w = DecisionWatchdog::new(2, 2);
        assert_eq!(w.trips(), 0);
        w.observe(false, true);
        w.observe(false, true); // first trip
        w.observe(false, true); // still stuck — same stall
        assert_eq!(w.trips(), 1);
        w.reset();
        assert_eq!(w.trips(), 1, "reset clears streaks, not the trip count");
        w.observe(false, true);
        w.observe(false, true); // second trip
        assert_eq!(w.trips(), 2);
    }

    #[test]
    fn thresholds_clamp_to_one() {
        let mut w = DecisionWatchdog::new(0, 0);
        assert_eq!(w.observe(false, true), WatchdogVerdict::Stuck);
        w.observe(true, true);
        assert!(w.ready_to_reattach());
    }
}
