//! Per-stream QoS accounting — the paper's Table 3 quantities as live
//! runtime state: deadlines met/missed, window-constraint (x/y)
//! violations, and winner-selection latency in decision cycles.
//!
//! The counter sources stay where the architecture keeps them (the
//! Register Base blocks' `SlotCounters`); this module supplies the
//! *schema* the layers report through, plus the [`WinLatencyTracker`]
//! recorder that instrumented fabrics embed for the one quantity the
//! registers do not track: how many decision cycles a stream waits
//! between wins.

use crate::metrics::LocalHistogram;
use crate::snapshot::HistogramSnapshot;
use serde::{Deserialize, Serialize};

/// One stream's QoS state (Table 3 row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamQos {
    /// Slot ID (global when produced by a sharded frontend).
    pub slot: u8,
    /// Packets transmitted.
    pub serviced: u64,
    /// Packets transmitted at or before their deadline.
    pub met_deadlines: u64,
    /// Late transmissions plus per-cycle head-packet expiries.
    pub missed_deadlines: u64,
    /// Window-constraint (x/y) violations: deadline missed with no loss
    /// tolerance left in the current window.
    pub violations: u64,
    /// Packets dropped by the `drop_late` policy.
    pub dropped: u64,
    /// Decision cycles in which this slot won.
    pub wins: u64,
    /// Completed windows (x'/y' resets).
    pub window_resets: u64,
    /// Winner-selection latency: decision cycles between consecutive wins
    /// (first win measured from instrumentation attach).
    pub win_latency_cycles: HistogramSnapshot,
}

/// A full per-stream QoS report: one row per slot plus the cycle count
/// the rows were observed at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct QosSet {
    /// Decision cycles completed when the rows were captured.
    pub decision_cycles: u64,
    /// One row per stream slot.
    pub streams: Vec<StreamQos>,
}

impl QosSet {
    /// Compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("qos serializes")
    }
}

/// Records winner-selection latency (decision cycles between wins) for
/// every slot of one fabric. Fixed-size after construction; recording
/// never allocates.
#[derive(Debug, Clone)]
pub struct WinLatencyTracker {
    /// Cycle of each slot's previous win (attach cycle initially).
    last_win: Vec<u64>,
    hists: Vec<LocalHistogram>,
}

impl WinLatencyTracker {
    /// A tracker for `slots` slots, measuring from `start_cycle`.
    pub fn new(slots: usize, start_cycle: u64) -> Self {
        Self {
            last_win: vec![start_cycle; slots],
            hists: vec![LocalHistogram::new(); slots],
        }
    }

    /// Records that `slot` won at `cycle`, returning the gap (in decision
    /// cycles) since the slot's previous win.
    #[inline]
    pub fn record_win(&mut self, slot: usize, cycle: u64) -> u64 {
        let gap = cycle.saturating_sub(self.last_win[slot]);
        self.last_win[slot] = cycle;
        self.hists[slot].record(gap);
        gap
    }

    /// Snapshot of one slot's latency histogram.
    pub fn snapshot(&self, slot: usize) -> HistogramSnapshot {
        self.hists[slot].snapshot()
    }

    /// All slots' cumulative histograms folded into one `LocalHistogram`
    /// (stack value — never allocates). Pair with
    /// [`Histogram::merge_cumulative_since`](crate::Histogram::merge_cumulative_since)
    /// to drain the tracker into a registry histogram without a second
    /// per-win record on the hot path.
    pub fn merged_local(&self) -> LocalHistogram {
        let mut out = LocalHistogram::new();
        for h in &self.hists {
            out.merge(h);
        }
        out
    }

    /// Number of tracked slots.
    pub fn slots(&self) -> usize {
        self.hists.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn win_latency_gaps() {
        let mut t = WinLatencyTracker::new(2, 0);
        t.record_win(0, 3);
        t.record_win(0, 5);
        t.record_win(0, 10);
        let s = t.snapshot(0);
        assert_eq!(s.count, 3);
        // gaps: 3, 2, 5.
        assert_eq!(s.sum, 10);
        assert_eq!(s.min, Some(2));
        assert_eq!(s.max, Some(5));
        assert_eq!(t.snapshot(1).count, 0, "slot 1 never won");
    }

    #[test]
    fn qos_set_round_trips_through_json() {
        let row = |slot, met, missed, serviced| StreamQos {
            slot,
            serviced,
            met_deadlines: met,
            missed_deadlines: missed,
            violations: 0,
            dropped: 0,
            wins: serviced,
            window_resets: 0,
            win_latency_cycles: HistogramSnapshot::default(),
        };
        let set = QosSet {
            decision_cycles: 100,
            streams: vec![row(0, 80, 20, 100), row(1, 60, 40, 100)],
        };
        let json = set.to_json();
        let back: QosSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, set);
    }
}
