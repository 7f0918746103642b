//! Reference software DWCS (Dynamic Window-Constrained Scheduling).
//!
//! An independent, from-the-paper implementation of DWCS used as the golden
//! model for the hardware fabric: integration tests drive this and
//! `ss_core`'s winner-only fabric with identical workloads and require
//! identical winner sequences. It is deliberately written against *wide*
//! (u64) deadlines — the idealized algorithm — so that any 16-bit artifacts
//! in the hardware model would surface as divergence.
//!
//! Per-decision cost is O(N) (a linear scan applying the Table 2 rules),
//! the cost profile behind the paper's §4.1 measurement that software DWCS
//! needs ≈50 µs per decision on a 300 MHz UltraSPARC.

use crate::packet::{Discipline, SwPacket};
use serde::{Deserialize, Serialize};
use ss_types::WindowConstraint;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Expired-head handling (independent mirror of `ss_core`'s policy so the
/// oracle stays free of the crate under test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LatePolicy {
    /// Keep the expired packet and its deadline (EDF semantics).
    #[default]
    ServeLate,
    /// Drop the expired packet, advance to the next request (DWCS loss).
    Drop,
    /// Keep the packet, renew its deadline to `now + T` (fair-share).
    Renew,
}

/// Per-stream DWCS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DwcsStreamConfig {
    /// Request period `T`.
    pub period: u64,
    /// Original window constraint `x/y`.
    pub window: WindowConstraint,
    /// Deadline of the first packet.
    pub first_deadline: u64,
    /// Expired-head handling.
    pub late_policy: LatePolicy,
}

#[derive(Debug)]
struct DwcsStream {
    config: DwcsStreamConfig,
    queue: VecDeque<SwPacket>,
    deadline: u64,
    window: WindowConstraint,
    met: u64,
    missed: u64,
    dropped: u64,
    violations: u64,
}

impl DwcsStream {
    fn win_update(&mut self) {
        // Mirror of ss-core's DwcsUpdater::ServicedOnTime (documented
        // reconstruction; see DESIGN.md §3).
        let next = WindowConstraint::new(self.window.num, self.window.den.saturating_sub(1));
        self.window = if next.den == next.num || next.den == 0 {
            self.config.window
        } else {
            next
        };
    }

    fn loss_update(&mut self) {
        if self.window.num > 0 {
            let next =
                WindowConstraint::new(self.window.num - 1, self.window.den.saturating_sub(1));
            self.window = if next.den == next.num || next.den == 0 {
                self.config.window
            } else {
                next
            };
        } else {
            self.violations += 1;
            self.window = WindowConstraint::new(0, self.window.den.saturating_add(1));
        }
    }
}

/// The reference DWCS scheduler.
#[derive(Debug)]
pub struct DwcsRef {
    streams: Vec<DwcsStream>,
    backlog: usize,
    /// EDF mode: deadlines and FCFS only — the window-constraint rules and
    /// per-decision window updates are bypassed, mirroring the fabric's
    /// `ComparisonMode::Edf` ("ShareStreams-DWCS set in EDF mode", §5.1).
    edf_mode: bool,
}

impl DwcsRef {
    /// Creates a scheduler with per-stream configurations.
    pub fn new(configs: Vec<DwcsStreamConfig>) -> Self {
        Self::with_mode(configs, false)
    }

    /// Creates a scheduler in EDF mode (window rules bypassed).
    /// Tests-only: the conformance harness (`tests/support/harness.rs`) runs its EDF traces on it.
    pub fn new_edf(configs: Vec<DwcsStreamConfig>) -> Self {
        Self::with_mode(configs, true)
    }

    fn with_mode(configs: Vec<DwcsStreamConfig>, edf_mode: bool) -> Self {
        assert!(!configs.is_empty(), "need at least one stream");
        Self {
            streams: configs
                .into_iter()
                .map(|config| DwcsStream {
                    deadline: config.first_deadline,
                    window: config.window,
                    config,
                    queue: VecDeque::new(),
                    met: 0,
                    missed: 0,
                    dropped: 0,
                    violations: 0,
                })
                .collect(),
            backlog: 0,
            edf_mode,
        }
    }

    /// `(met, missed, dropped, violations)` counters for `stream`.
    pub fn counters(&self, stream: usize) -> (u64, u64, u64, u64) {
        let s = &self.streams[stream];
        (s.met, s.missed, s.dropped, s.violations)
    }

    /// Head deadline of `stream`.
    /// Tests-only: the conformance harness (`tests/support/harness.rs`) reads deadlines with it.
    pub fn head_deadline(&self, stream: usize) -> u64 {
        self.streams[stream].deadline
    }

    /// Table 2 pairwise ordering on stream indices (both must be
    /// backlogged). `Less` means `a` orders first.
    fn pairwise(&self, a: usize, b: usize) -> Ordering {
        let (sa, sb) = (&self.streams[a], &self.streams[b]);
        // Rule 1: earliest deadline first.
        match sa.deadline.cmp(&sb.deadline) {
            Ordering::Equal => {}
            ord => return ord,
        }
        if !self.edf_mode {
            return self.dwcs_tiebreak(a, b);
        }
        // EDF mode: straight to FCFS.
        let (qa, qb) = (
            sa.queue
                .front()
                .expect("order only compares backlogged streams"),
            sb.queue
                .front()
                .expect("order only compares backlogged streams"),
        );
        qa.arrival.cmp(&qb.arrival).then(a.cmp(&b))
    }

    /// Rules 2-5 of Table 2 (full DWCS mode only).
    fn dwcs_tiebreak(&self, a: usize, b: usize) -> Ordering {
        let (sa, sb) = (&self.streams[a], &self.streams[b]);
        // Rule 2: lowest window-constraint first.
        match sa.window.value_cmp(sb.window) {
            Ordering::Equal => {}
            ord => return ord,
        }
        if sa.window.is_zero() {
            // Rule 3: zero constraints → highest denominator first.
            match sb.window.den.cmp(&sa.window.den) {
                Ordering::Equal => {}
                ord => return ord,
            }
        } else {
            // Rule 4: equal non-zero constraints → lowest numerator first.
            match sa.window.num.cmp(&sb.window.num) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        // Rule 5: FCFS on head arrival, then stream index.
        let (qa, qb) = (
            sa.queue
                .front()
                .expect("order only compares backlogged streams"),
            sb.queue
                .front()
                .expect("order only compares backlogged streams"),
        );
        qa.arrival.cmp(&qb.arrival).then(a.cmp(&b))
    }
}

impl Discipline for DwcsRef {
    fn name(&self) -> &'static str {
        "DWCS-ref"
    }

    fn enqueue(&mut self, pkt: SwPacket) {
        self.streams[pkt.stream].queue.push_back(pkt);
        self.backlog += 1;
    }

    fn select(&mut self, now: u64) -> Option<SwPacket> {
        if self.backlog == 0 {
            return None;
        }
        let backlogged: Vec<usize> = (0..self.streams.len())
            .filter(|&i| !self.streams[i].queue.is_empty())
            .collect();
        let mut best = backlogged[0];
        for &i in &backlogged[1..] {
            if self.pairwise(i, best) == Ordering::Less {
                best = i;
            }
        }
        let completion = now + 1;
        let s = &mut self.streams[best];
        let pkt = s.queue.pop_front().expect("backlogged");
        self.backlog -= 1;
        let edf_mode = self.edf_mode;
        if completion <= s.deadline {
            s.met += 1;
            if !edf_mode {
                s.win_update();
            }
        } else {
            s.missed += 1;
            if !edf_mode {
                s.loss_update();
            }
        }
        s.deadline += s.config.period;

        // Loser expiry checks (one per decision cycle, as in the fabric).
        for i in 0..self.streams.len() {
            if i == best {
                continue;
            }
            let s = &mut self.streams[i];
            if !s.queue.is_empty() && s.deadline <= completion {
                s.missed += 1;
                if !edf_mode {
                    s.loss_update();
                }
                match s.config.late_policy {
                    LatePolicy::ServeLate => {}
                    LatePolicy::Drop => {
                        s.queue.pop_front();
                        s.dropped += 1;
                        s.deadline += s.config.period;
                        self.backlog -= 1;
                    }
                    LatePolicy::Renew => s.deadline = completion + s.config.period,
                }
            }
        }
        Some(pkt)
    }

    fn backlog(&self) -> usize {
        self.backlog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edf_cfg(period: u64, first: u64) -> DwcsStreamConfig {
        DwcsStreamConfig {
            period,
            window: WindowConstraint::ZERO,
            first_deadline: first,
            late_policy: LatePolicy::ServeLate,
        }
    }

    #[test]
    fn earliest_deadline_wins() {
        let mut d = DwcsRef::new(vec![edf_cfg(10, 8), edf_cfg(10, 3)]);
        d.enqueue(SwPacket::new(0, 0, 0, 64));
        d.enqueue(SwPacket::new(1, 0, 0, 64));
        assert_eq!(d.select(0).unwrap().stream, 1);
    }

    #[test]
    fn window_constraint_breaks_deadline_ties() {
        let mut d = DwcsRef::new(vec![
            DwcsStreamConfig {
                period: 10,
                window: WindowConstraint::new(3, 4),
                first_deadline: 5,
                late_policy: LatePolicy::ServeLate,
            },
            DwcsStreamConfig {
                period: 10,
                window: WindowConstraint::new(1, 4),
                first_deadline: 5,
                late_policy: LatePolicy::ServeLate,
            },
        ]);
        d.enqueue(SwPacket::new(0, 0, 0, 64));
        d.enqueue(SwPacket::new(1, 0, 0, 64));
        assert_eq!(d.select(0).unwrap().stream, 1, "lower W' first");
    }

    #[test]
    fn violated_stream_gains_priority() {
        // Stream 0: zero tolerance, will miss and violate; its denominator
        // boost must eventually let it beat an equal-deadline peer.
        let mut d = DwcsRef::new(vec![
            DwcsStreamConfig {
                period: 1,
                window: WindowConstraint::new(0, 2),
                first_deadline: 1,
                late_policy: LatePolicy::ServeLate,
            },
            DwcsStreamConfig {
                period: 1,
                window: WindowConstraint::new(0, 2),
                first_deadline: 1,
                late_policy: LatePolicy::ServeLate,
            },
        ]);
        for q in 0..10 {
            d.enqueue(SwPacket::new(0, q, 0, 64));
            d.enqueue(SwPacket::new(1, q, 0, 64));
        }
        // Index tie-break serves stream 0 first; stream 1 misses, violates,
        // gets boosted, and must win the next decision.
        assert_eq!(d.select(0).unwrap().stream, 0);
        assert!(d.counters(1).3 >= 1, "stream 1 violated");
        assert_eq!(
            d.select(1).unwrap().stream,
            1,
            "violation boost wins rule 3"
        );
    }

    #[test]
    fn loss_tolerant_streams_absorb_alternating_misses_without_violation() {
        // Two identical 1/2-tolerance streams at 2× overload: DWCS
        // alternates them (each miss lowers W' to 0/1, which wins the next
        // tie), so each stream loses exactly every other packet — within
        // its 1-in-2 tolerance, hence zero violations.
        let wc_cfg = DwcsStreamConfig {
            period: 1,
            window: WindowConstraint::new(1, 2),
            first_deadline: 1,
            late_policy: LatePolicy::Drop,
        };
        let mut d = DwcsRef::new(vec![wc_cfg, wc_cfg]);
        for q in 0..50 {
            d.enqueue(SwPacket::new(0, q, q, 64));
            d.enqueue(SwPacket::new(1, q, q, 64));
        }
        for t in 0..40 {
            d.select(t);
        }
        for s in 0..2 {
            let (met, missed, dropped, violations) = d.counters(s);
            assert!(missed > 0, "stream {s} does take losses");
            assert_eq!(dropped, missed, "drop_late drops each expired head");
            assert_eq!(violations, 0, "1/2 tolerance absorbs alternating misses");
            assert!(met > 0);
        }
    }

    #[test]
    fn work_conserving() {
        let mut d = DwcsRef::new(vec![edf_cfg(5, 1)]);
        assert!(d.select(0).is_none());
        d.enqueue(SwPacket::new(0, 0, 0, 64));
        assert!(d.select(0).is_some());
        assert!(d.select(1).is_none());
        assert_eq!(d.backlog(), 0);
    }

    #[test]
    fn table3_shape_max_finding() {
        // A miniature of the Table 3 max-finding run: 4 streams, T=1,
        // deadlines one apart, 400 frames each serviced one per cycle.
        let mut d = DwcsRef::new(vec![
            edf_cfg(1, 1),
            edf_cfg(1, 2),
            edf_cfg(1, 3),
            edf_cfg(1, 4),
        ]);
        for s in 0..4 {
            for q in 0..400u64 {
                d.enqueue(SwPacket::new(s, q, q, 64));
            }
        }
        let mut serviced = [0u64; 4];
        let mut now = 0;
        while d.backlog() > 0 {
            let p = d.select(now).unwrap();
            serviced[p.stream] += 1;
            now += 1;
        }
        // Fair rotation: each stream serviced ~400 times over 1600 cycles.
        for (s, &count) in serviced.iter().enumerate() {
            assert!((390..=410).contains(&count), "stream {s}: {count}");
        }
        // Nearly every request misses (backlogged overload), matching the
        // paper's ≈63986/64000 per-stream magnitude.
        for s in 0..4 {
            let (_, missed, _, _) = d.counters(s);
            assert!(missed > 1500, "stream {s} missed {missed}");
        }
    }
}
