//! The Register Base block ("stream-slot"): per-stream state storage.
//!
//! Each stream-slot stores the service attributes of one stream (or one
//! aggregate of streamlets) in FPGA flip-flops: current head-packet deadline,
//! current window constraint `x'/y'`, head arrival time, plus the
//! configuration constants (request period `T`, original window `x/y`,
//! static priority) and the per-slot performance counters the paper's block
//! experiments read out ("missed deadlines being registered in performance
//! counters for each stream-slot").
//!
//! The block also models the slot's view of its per-stream queue (kept in
//! card SRAM / on-chip block RAM by the Streaming unit): a FIFO of arrival
//! tags whose front is the head packet the slot is offering for scheduling.
//!
//! ## Time width
//!
//! The wires export 16-bit deadline/arrival tags exactly as the hardware
//! does, and all *pairwise ordering* happens on those 16-bit fields. The
//! met/missed accounting, however, compares deadlines against the absolute
//! decision-cycle clock using a wide shadow copy: with heavily backlogged
//! streams (Table 3 runs 64 000 frames) head deadlines can lag the clock by
//! more than half the 16-bit space, where a 16-bit check would alias. The
//! pairwise 16-bit comparisons stay valid because backlogged heads lag
//! *together* (their mutual distances remain tiny). See DESIGN.md §3.

use crate::dwcs::{DwcsUpdater, UpdateEvent};
use serde::{Deserialize, Serialize};
use ss_types::{SlotId, StreamAttrs, StreamSpec, WindowConstraint, Wrap16};
use std::collections::VecDeque;

/// What happens to a queued head packet whose deadline expires without
/// service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LatePolicy {
    /// Keep the packet and its (now ancient) deadline: it will be serviced
    /// late, and its lateness keeps raising its EDF priority. Classic EDF
    /// semantics for admission-controlled real-time streams.
    #[default]
    ServeLate,
    /// Drop the expired packet and advance to the next request — DWCS loss
    /// semantics for window-constrained streams.
    Drop,
    /// Keep the packet but renew its deadline to `now + T`: the miss is a
    /// *skipped service slot*, not a packet loss. The right semantics for
    /// fair-share/best-effort streams, whose deadline spacing meters
    /// bandwidth — without renewal a backlogged best-effort stream would
    /// accumulate an ancient deadline and invert priority over real-time
    /// classes.
    Renew,
}

/// Configuration constants of a stream bound to a slot (loaded in the
/// LOAD state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamState {
    /// Request period `T_i`: deadline spacing between successive packets,
    /// in scheduler time units (packet-times).
    pub request_period: u64,
    /// Original window constraint `x/y`.
    pub original_window: WindowConstraint,
    /// Static priority (priority-class mode).
    pub static_prio: u8,
    /// Expired-head handling.
    pub late_policy: LatePolicy,
}

impl StreamState {
    /// Derives slot configuration from a user [`StreamSpec`].
    ///
    /// `base_period` is the deadline spacing granted to a weight-1
    /// fair-share stream (see [`StreamSpec::request_period`]).
    pub fn from_spec(spec: &StreamSpec, base_period: u16) -> Self {
        use ss_types::ServiceClass;
        let late_policy = match spec.class {
            // Window-constrained streams carry loss tolerance: expired
            // packets are dropped and charged to the window.
            ServiceClass::WindowConstrained { .. } => LatePolicy::Drop,
            // EDF streams are admission-controlled: late packets are still
            // delivered, and lateness raises priority.
            ServiceClass::EarliestDeadline { .. } => LatePolicy::ServeLate,
            // Fair-share / best-effort / priority-class streams use
            // deadline spacing only to meter bandwidth: a missed slot is
            // skipped, never banked.
            ServiceClass::FairShare { .. }
            | ServiceClass::BestEffort
            | ServiceClass::StaticPriority { .. } => LatePolicy::Renew,
        };
        Self {
            request_period: u64::from(spec.request_period(base_period)),
            original_window: spec.window_constraint(),
            static_prio: spec.static_priority(),
            late_policy,
        }
    }
}

/// Per-slot performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotCounters {
    /// Packets transmitted from this slot.
    pub serviced: u64,
    /// Packets transmitted at or before their deadline.
    pub met_deadlines: u64,
    /// Deadline misses: late transmissions plus per-decision-cycle expiry
    /// of a waiting head packet (the paper's "missed deadline counter
    /// incremented by one each decision cycle").
    pub missed_deadlines: u64,
    /// Packets dropped because their deadline expired (`drop_late` mode).
    pub dropped: u64,
    /// Decision cycles in which this slot's ID was circulated as winner.
    pub wins: u64,
    /// DWCS violations (missed a deadline with no loss tolerance left).
    pub violations: u64,
    /// Window resets (completed windows).
    pub window_resets: u64,
}

/// A Register Base block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegisterBaseBlock {
    slot: SlotId,
    state: Option<StreamState>,
    /// Wide head deadline (exported as 16-bit on the wires).
    deadline: u64,
    /// Current window constraint x'/y'.
    window: WindowConstraint,
    /// FIFO of queued arrival tags (head = packet being offered).
    queue: VecDeque<Wrap16>,
    counters: SlotCounters,
}

impl RegisterBaseBlock {
    /// Creates an unconfigured slot.
    pub fn new(slot: SlotId) -> Self {
        Self {
            slot,
            state: None,
            deadline: 0,
            window: WindowConstraint::ZERO,
            queue: VecDeque::new(),
            counters: SlotCounters::default(),
        }
    }

    /// LOAD: binds a stream to the slot with its first deadline.
    pub fn load(&mut self, state: StreamState, first_deadline: u64) {
        self.window = state.original_window;
        self.state = Some(state);
        self.deadline = first_deadline;
        self.queue.clear();
        self.counters = SlotCounters::default();
    }

    /// Unbinds the slot.
    pub fn unload(&mut self) {
        self.state = None;
        self.queue.clear();
    }

    /// The slot index.
    pub fn slot(&self) -> SlotId {
        self.slot
    }

    /// `true` if a stream is bound.
    pub fn is_configured(&self) -> bool {
        self.state.is_some()
    }

    /// The bound stream's configuration, if any.
    pub fn state(&self) -> Option<&StreamState> {
        self.state.as_ref()
    }

    /// Queued packet count.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Current head deadline (wide).
    pub fn head_deadline(&self) -> u64 {
        self.deadline
    }

    /// Current window constraint `x'/y'`.
    pub fn current_window(&self) -> WindowConstraint {
        self.window
    }

    /// Performance counters.
    pub fn counters(&self) -> &SlotCounters {
        &self.counters
    }

    /// Enqueues a packet arrival tag (Streaming unit deposits an arrival
    /// time offset into the slot's queue).
    ///
    /// `now` is the current scheduler time. A packet arriving at an *idle*
    /// slot whose deadline already passed re-anchors the deadline to
    /// `now + T` — the sporadic-stream convention (`d = max(d_prev + T,
    /// arrival + T)`): an idle stream must not bank ancient deadlines into
    /// future priority. Backlogged slots are untouched (drift-free
    /// periodic behaviour, as the Table 3 runs require).
    pub fn push_arrival(&mut self, arrival: Wrap16, now: u64) {
        if self.queue.is_empty() {
            if let Some(state) = &self.state {
                if self.deadline <= now {
                    self.deadline = now + state.request_period;
                }
            }
        }
        self.queue.push_back(arrival);
    }

    /// The attribute word this slot drives onto the fabric wires.
    ///
    /// Valid only when a stream is bound *and* a packet is queued.
    // lint:hot-path
    pub fn attrs(&self) -> StreamAttrs {
        match (&self.state, self.queue.front()) {
            (Some(state), Some(&arrival)) => StreamAttrs {
                deadline: Wrap16::from_wide(self.deadline),
                window: self.window,
                arrival,
                slot: self.slot,
                static_prio: state.static_prio,
                valid: true,
            },
            _ => StreamAttrs::empty(self.slot),
        }
    }

    /// Services the head packet, completing transmission at `completion`
    /// (absolute scheduler time). Returns `(deadline, met)` for the packet,
    /// or `None` if the slot had nothing to send.
    ///
    /// The head leaves the queue, the slot's deadline advances by `T_i`
    /// (drift-free: from the old deadline, not from `completion`), and the
    /// appropriate DWCS window update is applied. The fabric's block
    /// service loop runs one of these per transmitted packet.
    // lint:hot-path
    #[inline]
    pub fn service(&mut self, completion: u64) -> Option<(u64, bool)> {
        let state = self.state.as_ref()?;
        self.queue.pop_front()?;
        let deadline = self.deadline;
        let met = completion <= deadline;
        let period = state.request_period;
        let original = state.original_window;

        self.counters.serviced += 1;
        let event = if met {
            self.counters.met_deadlines += 1;
            UpdateEvent::ServicedOnTime
        } else {
            self.counters.missed_deadlines += 1;
            UpdateEvent::MissedDeadline
        };
        let out = DwcsUpdater.update(self.window, original, event);
        self.window = out.window;
        self.counters.violations += u64::from(out.violation);
        self.counters.window_resets += u64::from(out.window_reset);

        self.deadline = match state.late_policy {
            // Real-time classes are strictly periodic (drift-free): the
            // next request is due one period after the previous one,
            // regardless of when service actually happened.
            LatePolicy::ServeLate | LatePolicy::Drop => deadline + period,
            // Bandwidth-metering classes must not bank credit OR debt: a
            // stream served ahead of its nominal rate (work-conserving
            // under-load) anchors its next due time to the service instant,
            // so a competitor waking up later starts on equal terms — the
            // classic Virtual-Clock unfairness, avoided.
            LatePolicy::Renew => deadline.max(completion) + period,
        };
        Some((deadline, met))
    }

    /// End-of-decision-cycle expiry check for a slot that was *not*
    /// serviced: if the head packet's deadline has passed, the missed
    /// deadline counter increments by one (paper §5.1) and the loser
    /// priority update is applied. In `drop_late` mode the expired head is
    /// additionally dropped and the deadline advances to the next request.
    ///
    /// Returns `true` if a miss was recorded.
    // lint:hot-path
    #[inline]
    pub fn expiry_check(&mut self, now: u64) -> bool {
        let Some(state) = self.state.as_ref() else {
            return false;
        };
        if self.queue.is_empty() || self.deadline > now {
            return false;
        }
        let period = state.request_period;
        let original = state.original_window;
        let policy = state.late_policy;

        self.counters.missed_deadlines += 1;
        let out = DwcsUpdater.update(self.window, original, UpdateEvent::MissedDeadline);
        self.window = out.window;
        self.counters.violations += u64::from(out.violation);
        self.counters.window_resets += u64::from(out.window_reset);

        match policy {
            LatePolicy::ServeLate => {}
            LatePolicy::Drop => {
                self.queue.pop_front();
                self.counters.dropped += 1;
                self.deadline += period;
            }
            LatePolicy::Renew => {
                self.deadline = now + period;
            }
        }
        true
    }

    /// Records that this slot's ID was circulated as the decision-cycle
    /// winner.
    pub fn record_win(&mut self) {
        self.counters.wins += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_types::ServiceClass;

    fn edf_state(period: u64) -> StreamState {
        StreamState {
            request_period: period,
            original_window: WindowConstraint::ZERO,
            static_prio: 0,
            late_policy: LatePolicy::ServeLate,
        }
    }

    fn slot(i: u8) -> SlotId {
        SlotId::new(i).unwrap()
    }

    #[test]
    fn unconfigured_slot_is_invalid() {
        let r = RegisterBaseBlock::new(slot(0));
        assert!(!r.attrs().valid);
        assert!(!r.is_configured());
    }

    #[test]
    fn configured_but_empty_slot_is_invalid() {
        let mut r = RegisterBaseBlock::new(slot(0));
        r.load(edf_state(1), 1);
        assert!(!r.attrs().valid, "no queued packet: slot must not compete");
    }

    #[test]
    fn queued_packet_makes_slot_valid() {
        let mut r = RegisterBaseBlock::new(slot(3));
        r.load(edf_state(2), 7);
        r.push_arrival(Wrap16(5), 0);
        let a = r.attrs();
        assert!(a.valid);
        assert_eq!(a.deadline, Wrap16(7));
        assert_eq!(a.arrival, Wrap16(5));
        assert_eq!(a.slot, slot(3));
    }

    #[test]
    fn service_on_time_advances_deadline_drift_free() {
        let mut r = RegisterBaseBlock::new(slot(0));
        r.load(edf_state(10), 10);
        r.push_arrival(Wrap16(0), 0);
        r.push_arrival(Wrap16(1), 0);
        // Serviced early at t=4: met, next deadline = 10 + 10 (not 4 + 10).
        let (d, met) = r.service(4).unwrap();
        assert_eq!(d, 10);
        assert!(met);
        assert_eq!(r.head_deadline(), 20);
        assert_eq!(r.counters().serviced, 1);
        assert_eq!(r.counters().met_deadlines, 1);
        assert_eq!(r.backlog(), 1);
    }

    #[test]
    fn late_service_counts_as_miss() {
        let mut r = RegisterBaseBlock::new(slot(0));
        r.load(edf_state(1), 5);
        r.push_arrival(Wrap16(0), 0);
        let (_, met) = r.service(9).unwrap();
        assert!(!met);
        assert_eq!(r.counters().missed_deadlines, 1);
        assert_eq!(r.counters().serviced, 1);
        assert_eq!(r.counters().met_deadlines, 0);
    }

    #[test]
    fn service_empty_queue_returns_none() {
        let mut r = RegisterBaseBlock::new(slot(0));
        r.load(edf_state(1), 1);
        assert_eq!(r.service(1), None);
        assert_eq!(r.counters().serviced, 0);
    }

    #[test]
    fn expiry_check_counts_one_miss_per_cycle() {
        let mut r = RegisterBaseBlock::new(slot(0));
        r.load(edf_state(1), 3);
        r.push_arrival(Wrap16(0), 0);
        assert!(!r.expiry_check(2), "not yet expired");
        assert!(r.expiry_check(3), "expired at its deadline");
        assert!(r.expiry_check(4));
        // EDF semantics: head not dropped, deadline unchanged.
        assert_eq!(r.backlog(), 1);
        assert_eq!(r.head_deadline(), 3);
        assert_eq!(r.counters().missed_deadlines, 2);
        assert_eq!(r.counters().dropped, 0);
    }

    #[test]
    fn expiry_check_drop_late_mode() {
        let mut r = RegisterBaseBlock::new(slot(0));
        let mut st = edf_state(5);
        st.late_policy = LatePolicy::Drop;
        st.original_window = WindowConstraint::new(1, 2);
        r.load(st, 3);
        r.push_arrival(Wrap16(0), 0);
        r.push_arrival(Wrap16(1), 0);
        assert!(r.expiry_check(4));
        assert_eq!(r.backlog(), 1, "expired head dropped");
        assert_eq!(r.head_deadline(), 8, "deadline advanced to next request");
        assert_eq!(r.counters().dropped, 1);
    }

    #[test]
    fn expiry_check_ignores_empty_or_unbound_slots() {
        let mut r = RegisterBaseBlock::new(slot(0));
        assert!(!r.expiry_check(100));
        r.load(edf_state(1), 1);
        assert!(!r.expiry_check(100), "no packet queued");
    }

    #[test]
    fn dwcs_window_updates_flow_through_service() {
        let mut r = RegisterBaseBlock::new(slot(0));
        let st = StreamState {
            request_period: 1,
            original_window: WindowConstraint::new(1, 3),
            static_prio: 0,
            late_policy: LatePolicy::Drop,
        };
        r.load(st, 1);
        for i in 0..4 {
            r.push_arrival(Wrap16(i), 0);
        }
        // On-time service consumes window: 1/3 -> 1/2.
        r.service(1).unwrap();
        assert_eq!(r.current_window(), WindowConstraint::new(1, 2));
        // Miss charges the loss: 1/2 -> 0/1 -> ... den==num==? 0/1: den!=num
        r.expiry_check(10);
        assert_eq!(r.current_window(), WindowConstraint::new(0, 1));
        // Next miss is a violation; denominator boosted.
        r.expiry_check(20);
        assert_eq!(r.current_window(), WindowConstraint::new(0, 2));
        assert_eq!(r.counters().violations, 1);
    }

    #[test]
    fn from_spec_edf() {
        let spec = StreamSpec::new("edf", ServiceClass::EarliestDeadline { request_period: 4 });
        let st = StreamState::from_spec(&spec, 100);
        assert_eq!(st.request_period, 4);
        assert!(st.original_window.is_zero());
        assert_eq!(
            st.late_policy,
            LatePolicy::ServeLate,
            "EDF streams are serviced late"
        );
    }

    #[test]
    fn from_spec_window_constrained_drops_late() {
        let spec = StreamSpec::new(
            "wc",
            ServiceClass::WindowConstrained {
                request_period: 2,
                window: WindowConstraint::new(1, 4),
            },
        );
        let st = StreamState::from_spec(&spec, 100);
        assert_eq!(
            st.late_policy,
            LatePolicy::Drop,
            "loss-tolerant streams drop expired packets"
        );
        assert_eq!(st.original_window, WindowConstraint::new(1, 4));
    }

    #[test]
    fn load_resets_counters_and_queue() {
        let mut r = RegisterBaseBlock::new(slot(0));
        r.load(edf_state(1), 1);
        r.push_arrival(Wrap16(0), 0);
        r.service(5);
        assert_eq!(r.counters().serviced, 1);
        r.load(edf_state(2), 9);
        assert_eq!(r.counters().serviced, 0);
        assert_eq!(r.backlog(), 0);
        assert_eq!(r.head_deadline(), 9);
    }

    #[test]
    fn win_counter() {
        let mut r = RegisterBaseBlock::new(slot(0));
        r.load(edf_state(1), 1);
        r.record_win();
        r.record_win();
        assert_eq!(r.counters().wins, 2);
    }

    #[test]
    fn attrs_truncate_wide_deadline_to_16_bits() {
        let mut r = RegisterBaseBlock::new(slot(0));
        r.load(edf_state(1), 65536 + 42);
        r.push_arrival(Wrap16(0), 0);
        assert_eq!(r.attrs().deadline, Wrap16(42));
    }
}
