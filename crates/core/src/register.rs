//! The Register Base blocks ("stream-slots") as one register file.
//!
//! Each stream-slot stores the service attributes of one stream (or one
//! aggregate of streamlets) in FPGA flip-flops: current head-packet deadline,
//! current window constraint `x'/y'`, head arrival time, plus the
//! configuration constants (request period `T`, original window `x/y`,
//! static priority) and the per-slot performance counters the paper's block
//! experiments read out ("missed deadlines being registered in performance
//! counters for each stream-slot"). The rest of a stream's queue sits in card
//! SRAM / on-chip block RAM, managed by the Streaming unit.
//!
//! [`RegisterFile`] keeps that split. Every attribute is a fixed 32-entry
//! bank (the 5-bit slot field addresses 32 registers; a narrower fabric
//! leaves the upper entries unbound), and the **head** arrival tag has a
//! register of its own: only the packets *behind* the head live in a
//! growable per-slot ring, so a slot refilled at depth one — the steady
//! state of a saturated block fabric — never touches the heap.
//!
//! ## Lane words are current by construction
//!
//! The hardware drives one attribute word per slot onto the
//! shuffle-exchange every SCHEDULE cycle, straight off the flip-flops. Here
//! the packed `u64` lane word ([`ss_types::packed`]) of every slot is a bank
//! too, re-derived by whatever mutates the slot — an arrival onto an empty
//! queue, a service, an expiry, LOAD, unload — so [`RegisterFile::words`] is
//! never stale and a decision reads it in place. The word is valid only
//! when a stream is bound *and* a packet is queued.
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
use crate::fabric::ScheduledPacket;
use serde::{Deserialize, Serialize};
use ss_types::packed::{lane_slot, lane_valid, pack};
use ss_types::{SlotId, StreamAttrs, StreamSpec, WindowConstraint, Wrap16, MAX_SLOTS};
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

/// The Register Base blocks of one fabric: per-slot state in 32-entry
/// banks, indexed by slot. See the module docs for the layout. Slot
/// arguments index the banks directly and must be below 32;
/// [`crate::Fabric`] range-checks against its own width first.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    /// Slots `0..slots` exist; the upper bank entries stay unbound.
    slots: usize,
    /// Bit i set ⇔ a stream is bound to slot i.
    configured: u32,
    /// The packed lane word each slot drives onto the wires, always current.
    words: [u64; MAX_SLOTS],
    /// Wide head deadline (exported as 16-bit on the wires).
    deadline: [u64; MAX_SLOTS],
    /// Request period `T`.
    period: [u64; MAX_SLOTS],
    /// Current window constraint x'/y'.
    window: [WindowConstraint; MAX_SLOTS],
    /// Original window constraint x/y.
    original: [WindowConstraint; MAX_SLOTS],
    static_prio: [u8; MAX_SLOTS],
    late_policy: [LatePolicy; MAX_SLOTS],
    /// Queued packets, head included.
    qlen: [usize; MAX_SLOTS],
    /// Arrival tag of the head packet (the one offered for scheduling);
    /// meaningful while `qlen > 0`.
    head: [Wrap16; MAX_SLOTS],
    /// Arrival tags queued behind the head, oldest first: `qlen - 1` of
    /// them. Unallocated until a queue is two deep.
    behind: [VecDeque<Wrap16>; MAX_SLOTS],
    counters: [SlotCounters; MAX_SLOTS],
}

impl RegisterFile {
    /// A file of `slots` unconfigured slots.
    ///
    /// # Panics
    /// If `slots` exceeds the 32 a 5-bit slot field can address.
    pub fn new(slots: usize) -> Self {
        assert!(
            slots <= MAX_SLOTS,
            "{slots} slots exceed the 5-bit slot field"
        );
        let mut file = Self {
            slots,
            configured: 0,
            words: [0; MAX_SLOTS],
            deadline: [0; MAX_SLOTS],
            period: [0; MAX_SLOTS],
            window: [WindowConstraint::ZERO; MAX_SLOTS],
            original: [WindowConstraint::ZERO; MAX_SLOTS],
            static_prio: [0; MAX_SLOTS],
            late_policy: [LatePolicy::ServeLate; MAX_SLOTS],
            qlen: [0; MAX_SLOTS],
            head: [Wrap16(0); MAX_SLOTS],
            behind: std::array::from_fn(|_| VecDeque::new()),
            counters: [SlotCounters::default(); MAX_SLOTS],
        };
        (0..MAX_SLOTS).for_each(|slot| file.drive(slot));
        file
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Re-derives `slot`'s lane word from the banks. Everything that
    /// changes a field the word carries ends with this.
    // lint:hot-path
    #[inline(always)]
    fn drive(&mut self, slot: usize) {
        self.words[slot] = pack(&self.attrs(slot));
    }

    /// Removes the head packet: the next tag in the ring, if any, moves
    /// into the head register.
    // lint:hot-path
    #[inline(always)]
    fn pop_head(&mut self, slot: usize) {
        self.qlen[slot] -= 1;
        if self.qlen[slot] > 0 {
            if let Some(next) = self.behind[slot].pop_front() {
                self.head[slot] = next;
            }
        }
    }

    /// The DWCS window update of `slot` for `event`, with its counters.
    // lint:hot-path
    #[inline(always)]
    fn update_window(&mut self, slot: usize, event: UpdateEvent) {
        let out = DwcsUpdater.update(self.window[slot], self.original[slot], event);
        self.window[slot] = out.window;
        let c = &mut self.counters[slot];
        c.violations += u64::from(out.violation);
        c.window_resets += u64::from(out.window_reset);
    }

    /// LOAD: binds a stream to `slot` with its first deadline, clearing the
    /// slot's queue and counters.
    pub fn load(&mut self, slot: usize, state: StreamState, first_deadline: u64) {
        self.configured |= 1 << slot;
        self.deadline[slot] = first_deadline;
        self.period[slot] = state.request_period;
        self.window[slot] = state.original_window;
        self.original[slot] = state.original_window;
        self.static_prio[slot] = state.static_prio;
        self.late_policy[slot] = state.late_policy;
        self.qlen[slot] = 0;
        self.behind[slot].clear();
        self.counters[slot] = SlotCounters::default();
        self.drive(slot);
    }

    /// Unbinds `slot` and clears its queue.
    pub fn unload(&mut self, slot: usize) {
        self.configured &= !(1 << slot);
        self.qlen[slot] = 0;
        self.behind[slot].clear();
        self.drive(slot);
    }

    /// `true` if a stream is bound to `slot`.
    #[inline]
    pub fn is_configured(&self, slot: usize) -> bool {
        self.configured & (1 << slot) != 0
    }

    /// The configuration of the stream bound to `slot`, if any.
    pub fn state(&self, slot: usize) -> Option<StreamState> {
        self.is_configured(slot).then(|| StreamState {
            request_period: self.period[slot],
            original_window: self.original[slot],
            static_prio: self.static_prio[slot],
            late_policy: self.late_policy[slot],
        })
    }

    /// Queued packet count of `slot`.
    pub fn backlog(&self, slot: usize) -> usize {
        self.qlen[slot]
    }

    /// Queued packets summed over the file's `slots` slots: a recount of
    /// that much of the `qlen` bank (the unbound upper entries stay 0), not
    /// a running total.
    // lint:hot-path
    #[inline]
    pub fn total_backlog(&self) -> usize {
        self.qlen.iter().take(self.slots).sum()
    }

    /// Current head deadline of `slot` (wide).
    pub fn head_deadline(&self, slot: usize) -> u64 {
        self.deadline[slot]
    }

    /// Current window constraint `x'/y'` of `slot`.
    pub fn current_window(&self, slot: usize) -> WindowConstraint {
        self.window[slot]
    }

    /// Performance counters of `slot`.
    pub fn counters(&self, slot: usize) -> &SlotCounters {
        &self.counters[slot]
    }

    /// The packed lane words, one per bank entry (slots beyond
    /// [`RegisterFile::slots`] hold empty words). Never stale.
    // lint:hot-path
    #[inline]
    pub fn words(&self) -> &[u64; MAX_SLOTS] {
        &self.words
    }

    /// The attribute word `slot` drives onto the fabric wires, recomputed
    /// from the banks: `pack(&attrs(slot)) == words()[slot]` at all times.
    ///
    /// Valid only when a stream is bound *and* a packet is queued.
    // lint:hot-path
    #[inline]
    pub fn attrs(&self, slot: usize) -> StreamAttrs {
        let id = SlotId::new_unchecked(slot as u8);
        if self.is_configured(slot) && self.qlen[slot] > 0 {
            StreamAttrs {
                deadline: Wrap16::from_wide(self.deadline[slot]),
                window: self.window[slot],
                arrival: self.head[slot],
                slot: id,
                static_prio: self.static_prio[slot],
                valid: true,
            }
        } else {
            StreamAttrs::empty(id)
        }
    }

    /// Enqueues a packet arrival tag (Streaming unit deposits an arrival
    /// time offset into the slot's queue). An unconfigured slot queues the
    /// tag but keeps driving an empty word.
    ///
    /// `now` is the current scheduler time. A packet arriving at an *idle*
    /// slot whose deadline already passed re-anchors the deadline to
    /// `now + T` — the sporadic-stream convention (`d = max(d_prev + T,
    /// arrival + T)`): an idle stream must not bank ancient deadlines into
    /// future priority. Backlogged slots are untouched (drift-free
    /// periodic behaviour, as the Table 3 runs require).
    // lint:hot-path
    #[inline]
    pub fn push_arrival(&mut self, slot: usize, arrival: Wrap16, now: u64) {
        if self.qlen[slot] == 0 {
            if self.is_configured(slot) && self.deadline[slot] <= now {
                self.deadline[slot] = now + self.period[slot];
            }
            self.head[slot] = arrival;
            self.qlen[slot] = 1;
            self.drive(slot);
        } else {
            self.behind[slot].push_back(arrival);
            self.qlen[slot] += 1;
        }
    }

    /// Services the head packet of a bound, non-empty `slot`, completing
    /// transmission at `completion`. Returns `(deadline, met)`.
    // lint:hot-path
    #[inline(always)]
    fn service_head(&mut self, slot: usize, completion: u64) -> (u64, bool) {
        let deadline = self.deadline[slot];
        let met = completion <= deadline;
        let c = &mut self.counters[slot];
        c.serviced += 1;
        c.met_deadlines += u64::from(met);
        c.missed_deadlines += u64::from(!met);
        self.update_window(
            slot,
            if met {
                UpdateEvent::ServicedOnTime
            } else {
                UpdateEvent::MissedDeadline
            },
        );
        let from = match self.late_policy[slot] {
            // Real-time classes are strictly periodic (drift-free): the
            // next request is due one period after the previous one,
            // regardless of when service actually happened.
            LatePolicy::ServeLate | LatePolicy::Drop => deadline,
            // Bandwidth-metering classes must not bank credit OR debt: a
            // stream served ahead of its nominal rate (work-conserving
            // under-load) anchors its next due time to the service instant,
            // so a competitor waking up later starts on equal terms — the
            // classic Virtual-Clock unfairness, avoided.
            LatePolicy::Renew => deadline.max(completion),
        };
        self.deadline[slot] = from + self.period[slot];
        self.pop_head(slot);
        self.drive(slot);
        (deadline, met)
    }

    /// Services the head packet of `slot`, completing transmission at
    /// `completion` (absolute scheduler time). Returns `(deadline, met)` for
    /// the packet, or `None` if the slot had nothing to send.
    ///
    /// The head leaves the queue, the slot's deadline advances by `T_i`
    /// (drift-free: from the old deadline, not from `completion`), and the
    /// appropriate DWCS window update is applied.
    // lint:hot-path
    #[inline]
    pub fn service(&mut self, slot: usize, completion: u64) -> Option<(u64, bool)> {
        (self.is_configured(slot) && self.qlen[slot] > 0)
            .then(|| self.service_head(slot, completion))
    }

    /// The BA block transaction: walks the sorted `lanes` in transmission
    /// order (forward for max-first, backward for min-first) and transmits
    /// the head packet of every valid one back-to-back, the first in the
    /// packet-time after `now`. The first slot transmitted — the circulated
    /// winner — records the win. Packets land in `block` in order; returns
    /// how many there are and the mask of serviced slots (bit i = slot i).
    // lint:hot-path
    pub fn service_block(
        &mut self,
        lanes: &[u64],
        max_first: bool,
        now: u64,
        block: &mut [ScheduledPacket; MAX_SLOTS],
    ) -> (usize, u64) {
        let (len, serviced) = if max_first {
            self.transmit_all(lanes.iter(), now, block)
        } else {
            self.transmit_all(lanes.iter().rev(), now, block)
        };
        if len > 0 {
            self.record_win(block[0].slot.index());
        }
        (len, serviced)
    }

    /// [`RegisterFile::service_block`]'s walk, in the order `lanes` yields.
    // lint:hot-path
    #[inline(always)]
    fn transmit_all<'a>(
        &mut self,
        lanes: impl Iterator<Item = &'a u64>,
        now: u64,
        block: &mut [ScheduledPacket; MAX_SLOTS],
    ) -> (usize, u64) {
        let (mut t, mut serviced) = (now, 0u64);
        let mut room = block.iter_mut();
        for &w in lanes {
            if !lane_valid(w) {
                continue;
            }
            let slot = lane_slot(w);
            // A valid word always has a queued packet, and a block never
            // outgrows the bank; anything else would be a word/bank desync.
            // The hot path must not panic, so release builds skip the lane.
            if self.qlen[slot] == 0 {
                debug_assert!(false, "valid word has a queued packet");
                continue;
            }
            let Some(packet) = room.next() else {
                debug_assert!(false, "more valid lanes than slots");
                break;
            };
            t += 1;
            let (deadline, met) = self.service_head(slot, t);
            *packet = ScheduledPacket {
                slot: SlotId::new_unchecked(slot as u8),
                deadline,
                completed_at: t,
                met,
            };
            serviced |= 1u64 << slot;
        }
        ((t - now) as usize, serviced)
    }

    /// End-of-decision-cycle expiry check for a slot that was *not*
    /// serviced: if the head packet's deadline has passed, the missed
    /// deadline counter increments by one (paper §5.1) and the loser
    /// priority update is applied. In `drop_late` mode the expired head is
    /// additionally dropped and the deadline advances to the next request.
    ///
    /// Returns `true` if a miss was recorded.
    // lint:hot-path
    #[inline(always)]
    pub fn expiry_check(&mut self, slot: usize, now: u64) -> bool {
        // The three tests stay in the caller's sweep over the slots; only
        // a head that did expire pays for a call.
        let expired = self.is_configured(slot) && self.qlen[slot] > 0 && self.deadline[slot] <= now;
        if expired {
            self.expire_head(slot, now);
        }
        expired
    }

    /// The update half of [`RegisterFile::expiry_check`].
    // lint:hot-path
    fn expire_head(&mut self, slot: usize, now: u64) {
        self.counters[slot].missed_deadlines += 1;
        self.update_window(slot, UpdateEvent::MissedDeadline);
        match self.late_policy[slot] {
            LatePolicy::ServeLate => {}
            LatePolicy::Drop => {
                self.pop_head(slot);
                self.counters[slot].dropped += 1;
                self.deadline[slot] += self.period[slot];
            }
            LatePolicy::Renew => {
                self.deadline[slot] = now + self.period[slot];
            }
        }
        self.drive(slot);
    }

    /// Records that `slot`'s ID was circulated as the decision-cycle
    /// winner.
    #[inline]
    pub fn record_win(&mut self, slot: usize) {
        self.counters[slot].wins += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_types::packed::unpack;
    use ss_types::ServiceClass;

    fn edf_state(period: u64) -> StreamState {
        StreamState {
            request_period: period,
            original_window: WindowConstraint::ZERO,
            static_prio: 0,
            late_policy: LatePolicy::ServeLate,
        }
    }

    /// A file whose every mutation is followed by the invariant the fabric
    /// relies on: each lane word equals `pack(&attrs(slot))` recomputed
    /// from the banks.
    struct Checked(RegisterFile);

    impl Checked {
        fn new(slots: usize) -> Self {
            let mut file = Self(RegisterFile::new(slots));
            file.with(|_| ());
            file
        }

        fn with<R>(&mut self, f: impl FnOnce(&mut RegisterFile) -> R) -> R {
            let out = f(&mut self.0);
            for s in 0..MAX_SLOTS {
                assert_eq!(
                    self.0.words()[s],
                    pack(&self.0.attrs(s)),
                    "slot {s} word stale"
                );
            }
            out
        }
    }

    #[test]
    fn unconfigured_slot_is_invalid() {
        let r = Checked::new(4);
        assert!(!r.0.attrs(0).valid);
        assert!(!r.0.is_configured(0));
        assert_eq!(r.0.state(0), None);
        assert_eq!(r.0.slots(), 4);
    }

    #[test]
    fn configured_but_empty_slot_is_invalid() {
        let mut r = Checked::new(4);
        r.with(|r| r.load(0, edf_state(1), 1));
        assert!(
            !r.0.attrs(0).valid,
            "no queued packet: slot must not compete"
        );
        assert_eq!(r.0.state(0), Some(edf_state(1)));
    }

    #[test]
    fn queued_packet_makes_slot_valid() {
        let mut r = Checked::new(4);
        r.with(|r| r.load(3, edf_state(2), 7));
        r.with(|r| r.push_arrival(3, Wrap16(5), 0));
        let a = unpack(r.0.words()[3]);
        assert!(a.valid);
        assert_eq!(a.deadline, Wrap16(7));
        assert_eq!(a.arrival, Wrap16(5));
        assert_eq!(a.slot.index(), 3);
    }

    #[test]
    fn unconfigured_slot_queues_arrivals_but_never_drives_a_valid_word() {
        let mut r = Checked::new(4);
        r.with(|r| r.push_arrival(2, Wrap16(1), 0));
        r.with(|r| r.push_arrival(2, Wrap16(2), 0));
        assert_eq!(r.0.backlog(2), 2);
        assert!(!lane_valid(r.0.words()[2]));
        assert_eq!(r.with(|r| r.service(2, 1)), None);
        assert!(!r.with(|r| r.expiry_check(2, 100)));
        assert_eq!(r.0.backlog(2), 2, "neither serviced nor expired");
    }

    #[test]
    fn service_on_time_advances_deadline_drift_free() {
        let mut r = Checked::new(4);
        r.with(|r| r.load(0, edf_state(10), 10));
        r.with(|r| r.push_arrival(0, Wrap16(0), 0));
        r.with(|r| r.push_arrival(0, Wrap16(1), 0));
        // Serviced early at t=4: met, next deadline = 10 + 10 (not 4 + 10).
        let (d, met) = r.with(|r| r.service(0, 4)).unwrap();
        assert_eq!(d, 10);
        assert!(met);
        assert_eq!(r.0.head_deadline(0), 20);
        assert_eq!(r.0.counters(0).serviced, 1);
        assert_eq!(r.0.counters(0).met_deadlines, 1);
        assert_eq!(r.0.backlog(0), 1);
    }

    #[test]
    fn queue_is_fifo_across_head_and_ring() {
        // One head register plus four ring entries: service must hand the
        // tags back in arrival order, refilling the head from the ring.
        let mut r = Checked::new(4);
        r.with(|r| r.load(1, edf_state(1), 1));
        for tag in 10..15 {
            r.with(|r| r.push_arrival(1, Wrap16(tag), 0));
        }
        assert_eq!(r.0.backlog(1), 5);
        for (served, tag) in (10..15).enumerate() {
            assert_eq!(unpack(r.0.words()[1]).arrival, Wrap16(tag));
            r.with(|r| r.service(1, 1)).unwrap();
            assert_eq!(r.0.backlog(1), 4 - served);
        }
        assert!(!lane_valid(r.0.words()[1]), "drained");
        // A refill at depth one reuses the head register.
        r.with(|r| r.push_arrival(1, Wrap16(99), 0));
        assert_eq!(unpack(r.0.words()[1]).arrival, Wrap16(99));
    }

    #[test]
    fn late_service_counts_as_miss() {
        let mut r = Checked::new(4);
        r.with(|r| r.load(0, edf_state(1), 5));
        r.with(|r| r.push_arrival(0, Wrap16(0), 0));
        let (_, met) = r.with(|r| r.service(0, 9)).unwrap();
        assert!(!met);
        assert_eq!(r.0.counters(0).missed_deadlines, 1);
        assert_eq!(r.0.counters(0).serviced, 1);
        assert_eq!(r.0.counters(0).met_deadlines, 0);
    }

    #[test]
    fn service_empty_queue_returns_none() {
        let mut r = Checked::new(4);
        r.with(|r| r.load(0, edf_state(1), 1));
        assert_eq!(r.with(|r| r.service(0, 1)), None);
        assert_eq!(r.0.counters(0).serviced, 0);
    }

    #[test]
    fn idle_slot_with_a_passed_deadline_re_anchors_on_arrival() {
        let mut r = Checked::new(4);
        r.with(|r| r.load(0, edf_state(4), 3));
        r.with(|r| r.push_arrival(0, Wrap16(0), 10));
        assert_eq!(r.0.head_deadline(0), 14, "now + T");
        // A backlogged slot keeps its deadline.
        r.with(|r| r.push_arrival(0, Wrap16(1), 50));
        assert_eq!(r.0.head_deadline(0), 14);
    }

    #[test]
    fn expiry_check_counts_one_miss_per_cycle() {
        let mut r = Checked::new(4);
        r.with(|r| r.load(0, edf_state(1), 3));
        r.with(|r| r.push_arrival(0, Wrap16(0), 0));
        assert!(!r.with(|r| r.expiry_check(0, 2)), "not yet expired");
        assert!(r.with(|r| r.expiry_check(0, 3)), "expired at its deadline");
        assert!(r.with(|r| r.expiry_check(0, 4)));
        // EDF semantics: head not dropped, deadline unchanged.
        assert_eq!(r.0.backlog(0), 1);
        assert_eq!(r.0.head_deadline(0), 3);
        assert_eq!(r.0.counters(0).missed_deadlines, 2);
        assert_eq!(r.0.counters(0).dropped, 0);
    }

    #[test]
    fn expiry_check_drop_late_refills_the_head_from_the_ring() {
        let mut r = Checked::new(4);
        let mut st = edf_state(5);
        st.late_policy = LatePolicy::Drop;
        st.original_window = WindowConstraint::new(1, 2);
        r.with(|r| r.load(0, st, 3));
        r.with(|r| r.push_arrival(0, Wrap16(7), 0));
        r.with(|r| r.push_arrival(0, Wrap16(8), 0));
        assert!(r.with(|r| r.expiry_check(0, 4)));
        assert_eq!(r.0.backlog(0), 1, "expired head dropped");
        assert_eq!(r.0.head_deadline(0), 8, "deadline advanced to next request");
        assert_eq!(r.0.counters(0).dropped, 1);
        let a = unpack(r.0.words()[0]);
        assert_eq!((a.arrival, a.deadline), (Wrap16(8), Wrap16(8)));
        // Dropping the last packet empties the slot.
        assert!(r.with(|r| r.expiry_check(0, 9)));
        assert_eq!(r.0.backlog(0), 0);
        assert!(!lane_valid(r.0.words()[0]));
    }

    #[test]
    fn expiry_check_renew_keeps_the_packet_and_moves_the_deadline() {
        let mut r = Checked::new(4);
        let mut st = edf_state(5);
        st.late_policy = LatePolicy::Renew;
        r.with(|r| r.load(0, st, 3));
        r.with(|r| r.push_arrival(0, Wrap16(7), 0));
        assert!(r.with(|r| r.expiry_check(0, 6)));
        assert_eq!(r.0.backlog(0), 1);
        assert_eq!(r.0.head_deadline(0), 11, "now + T");
        assert_eq!(unpack(r.0.words()[0]).deadline, Wrap16(11));
        // Served ahead of the renewed deadline: next due from the later of
        // deadline and completion.
        r.with(|r| r.service(0, 7)).unwrap();
        assert_eq!(r.0.head_deadline(0), 16);
    }

    #[test]
    fn expiry_check_ignores_empty_or_unbound_slots() {
        let mut r = Checked::new(4);
        assert!(!r.with(|r| r.expiry_check(0, 100)));
        r.with(|r| r.load(0, edf_state(1), 1));
        assert!(!r.with(|r| r.expiry_check(0, 100)), "no packet queued");
    }

    #[test]
    fn dwcs_window_updates_flow_through_service() {
        let mut r = Checked::new(4);
        let st = StreamState {
            request_period: 1,
            original_window: WindowConstraint::new(1, 3),
            static_prio: 0,
            late_policy: LatePolicy::Drop,
        };
        r.with(|r| r.load(0, st, 1));
        for i in 0..4 {
            r.with(|r| r.push_arrival(0, Wrap16(i), 0));
        }
        // On-time service consumes window: 1/3 -> 1/2.
        r.with(|r| r.service(0, 1)).unwrap();
        assert_eq!(r.0.current_window(0), WindowConstraint::new(1, 2));
        // Miss charges the loss: 1/2 -> 0/1.
        r.with(|r| r.expiry_check(0, 10));
        assert_eq!(r.0.current_window(0), WindowConstraint::new(0, 1));
        // Next miss is a violation; denominator boosted.
        r.with(|r| r.expiry_check(0, 20));
        assert_eq!(r.0.current_window(0), WindowConstraint::new(0, 2));
        assert_eq!(r.0.counters(0).violations, 1);
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
    fn load_and_unload_clear_head_and_ring() {
        let mut r = Checked::new(4);
        r.with(|r| r.load(0, edf_state(1), 1));
        for tag in 0..3 {
            r.with(|r| r.push_arrival(0, Wrap16(tag), 0));
        }
        r.with(|r| r.service(0, 5));
        assert_eq!(r.0.counters(0).serviced, 1);
        // LOAD over a backlogged slot: counters, head and ring all reset.
        r.with(|r| r.load(0, edf_state(2), 9));
        assert_eq!(r.0.counters(0).serviced, 0);
        assert_eq!(r.0.backlog(0), 0);
        assert_eq!(r.0.head_deadline(0), 9);
        assert!(!lane_valid(r.0.words()[0]));
        r.with(|r| r.push_arrival(0, Wrap16(40), 0));
        assert_eq!(
            unpack(r.0.words()[0]).arrival,
            Wrap16(40),
            "no stale tag resurfaces"
        );
        r.with(|r| r.push_arrival(0, Wrap16(41), 0));
        r.with(|r| r.unload(0));
        assert!(!r.0.is_configured(0));
        assert_eq!(r.0.backlog(0), 0);
        assert_eq!(r.0.total_backlog(), 0);
        assert!(!lane_valid(r.0.words()[0]));
        // Rebinding after unload starts from an empty queue.
        r.with(|r| r.load(0, edf_state(2), 9));
        r.with(|r| r.push_arrival(0, Wrap16(50), 0));
        assert_eq!(unpack(r.0.words()[0]).arrival, Wrap16(50));
        assert_eq!(r.0.backlog(0), 1);
    }

    #[test]
    fn total_backlog_recounts_every_slot() {
        let mut r = Checked::new(8);
        for s in 0..8 {
            r.with(|r| r.load(s, edf_state(1), 1));
            for tag in 0..s as u16 {
                r.with(|r| r.push_arrival(s, Wrap16(tag), 0));
            }
        }
        assert_eq!(r.0.total_backlog(), (0..8).sum::<usize>());
        r.with(|r| r.service(7, 1));
        assert_eq!(r.0.total_backlog(), 27);
    }

    #[test]
    fn win_counter() {
        let mut r = Checked::new(4);
        r.with(|r| r.load(0, edf_state(1), 1));
        r.with(|r| r.record_win(0));
        r.with(|r| r.record_win(0));
        assert_eq!(r.0.counters(0).wins, 2);
    }

    #[test]
    fn words_truncate_wide_deadline_to_16_bits() {
        let mut r = Checked::new(4);
        r.with(|r| r.load(0, edf_state(1), 65536 + 42));
        r.with(|r| r.push_arrival(0, Wrap16(0), 0));
        assert_eq!(unpack(r.0.words()[0]).deadline, Wrap16(42));
    }

    #[test]
    fn service_block_walks_lanes_in_transmission_order() {
        let empty = [ScheduledPacket {
            slot: SlotId::new_unchecked(0),
            deadline: 0,
            completed_at: 0,
            met: false,
        }; MAX_SLOTS];
        for max_first in [true, false] {
            let mut r = Checked::new(4);
            for s in 0..4 {
                r.with(|r| r.load(s, edf_state(4), 12));
            }
            // Slot 2 stays empty: its (invalid) lane is skipped.
            for s in [0, 1, 3] {
                r.with(|r| r.push_arrival(s, Wrap16(s as u16), 0));
            }
            let lanes = [
                r.0.words()[3],
                r.0.words()[2],
                r.0.words()[0],
                r.0.words()[1],
            ];
            let mut block = empty;
            let (len, serviced) = r.with(|r| r.service_block(&lanes, max_first, 10, &mut block));
            assert_eq!((len, serviced), (3, 0b1011));
            let order: Vec<usize> = block[..len].iter().map(|p| p.slot.index()).collect();
            assert_eq!(order, if max_first { [3, 0, 1] } else { [1, 0, 3] });
            for (k, p) in block[..len].iter().enumerate() {
                assert_eq!(p.completed_at, 11 + k as u64, "back-to-back packet-times");
                assert_eq!((p.deadline, p.met), (12, p.completed_at <= 12));
            }
            // Only the first slot transmitted records the win.
            let wins: Vec<u64> = (0..4).map(|s| r.0.counters(s).wins).collect();
            assert_eq!(
                wins,
                if max_first {
                    [0, 0, 0, 1]
                } else {
                    [0, 1, 0, 0]
                }
            );
            assert_eq!(r.0.total_backlog(), 0);
            // Nothing valid any more: an empty block, no win.
            let lanes = *r.0.words();
            let (len, serviced) =
                r.with(|r| r.service_block(&lanes[..4], max_first, 13, &mut block));
            assert_eq!((len, serviced), (0, 0));
        }
    }
}
