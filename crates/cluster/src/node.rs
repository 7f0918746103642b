//! One simulated endsystem: sharded fabric + overload gate + per-node
//! fault stream, stepped on the cluster's virtual clock.
//!
//! A [`SimNode`] owns everything whose state a tick can touch, so nodes
//! are independent of one another and the simulation may run each a whole
//! epoch of ticks ahead, on any number of threads, without changing a
//! single bit of the outcome: arrival sampling is keyed by
//! `(seed, node, tick)`, the fault stream is per-node, and all cross-node
//! coupling (the shared egress linecard, the violation sink, flight
//! recording) happens in the sequential post-barrier phase owned by the
//! simulation, which reads what a node did and never writes to it.
//!
//! ## Per-tick order (fixed; determinism depends on it)
//!
//! 1. **Fault draws** — one sample per site (shard, decision, ring,
//!    admission), mapped onto unconditional APIs: crashes call
//!    [`ShardedScheduler::fail_shard`] and re-derive the dead-slot mask
//!    from the failed shards' slot sets
//!    ([`ShardedScheduler::slots_on`]; the last live shard degrades a
//!    crash to a stall so the node never goes fully dark), stalls skip
//!    upcoming decision cycles, ring bursts arm a drop budget, overload
//!    bursts add offered arrivals.
//! 2. **Arrivals** — the scenario's draws as slot sets
//!    ([`Scenario::sample_mask`]: a Bernoulli bit per slot plus whole
//!    counts), with burst extras folded into per-slot counts. Arrivals on
//!    slots stranded on crashed shards are booked first, all at once:
//!    their count (a popcount on the common tick) goes to `offered` and to
//!    [`LossSite::Shard`], the only two things they touch and two things
//!    no other arrival reads, so booking them ahead of the rest changes
//!    no outcome. The live slots are then walked in ascending slot order,
//!    each slot's arrivals back to back, through the gate
//!    ([`ss_overload::GateCore`]: admission, then a shed proposal
//!    whenever pressure is `Overloaded` — the node's one line of policy;
//!    the core refuses it for any 0/y window), then the armed ring-drop
//!    budget, then the fabric.
//!    Ring bursts only consume unprotected-stream arrivals: protected
//!    lanes are modeled as reserved ring capacity, which keeps the
//!    QoS-floor invariant exact rather than probabilistic.
//! 3. **Decision** — one `decision_cycle` unless stalled; the winner
//!    feeds the loss-window bookkeeping, the virtual-time monotonicity
//!    check, and the node's replay fingerprint.
//!
//! ## Accounting identities the invariant engine checks
//!
//! * `offered == ledger.total() + transmitted + live_backlog` — every
//!   offered arrival is admitted-and-served, admitted-and-queued, or
//!   ledgered at exactly one loss site (admission / ring / shed / shard).
//! * The incremental backlog counter equals the recomputed sum of live
//!   slots' fabric backlogs.
//! * Winner `completed_at` is strictly increasing (lock-step clocks).

use crate::scenario::Scenario;
use ss_core::{FabricConfig, FabricConfigKind, LatePolicy, ScheduledPacket, StreamState};
use ss_faults::rng::mix;
use ss_faults::{FaultInjector, FaultKind, FaultSite};
use ss_overload::{GateCore, LossLedger, LossSite, PressureLevel};
use ss_sharded::ShardedScheduler;
use ss_types::{slot_bits, Error, Wrap16, MAX_SLOTS};

/// Full protection, ‰ — a 0/y window's mandatory fraction.
pub const FULLY_PROTECTED: u16 = 1000;

/// A winner record: `(global slot, completed_at, met deadline)`.
pub type Winner = (u16, u64, bool);

/// Construction parameters for one node.
#[derive(Debug, Clone, Copy)]
pub struct NodeParams {
    /// Global slots per node (must satisfy the sharded constraints).
    pub slots: usize,
    /// Shards per node.
    pub shards: usize,
    /// Per-stream admission refill, mtok/tick.
    pub gate_rate_mtok: u32,
    /// Per-stream admission burst depth, mtok.
    pub gate_burst_mtok: u32,
    /// Capture the full winner sequence (tests; off for long soaks).
    pub record_winners: bool,
}

/// One simulated endsystem.
#[derive(Debug)]
pub struct SimNode {
    id: usize,
    sched: ShardedScheduler,
    gate: GateCore,
    /// The slot `--sabotage protected-shed` forged a shed on, if any.
    forged_shed: Option<usize>,
    /// Slots on this node.
    slots: usize,
    /// The fully-protected slots, as a mask: a slot's class is fixed at
    /// construction, so the every-tick floor check walks these and nothing
    /// else, and a ring burst skips them by one bit test.
    protected: u32,
    injector: FaultInjector,
    /// Per-slot multi-arrival counts of the current tick — whole draws
    /// plus burst extras — valid for the slots the tick's `multi` mask
    /// names; other entries are stale.
    counts: [u32; MAX_SLOTS],
    /// Slots stranded on crashed shards, as a mask — the union of the
    /// failed shards' slot sets, read off the scheduler's partition.
    dead: u32,
    /// Arrivals pushed into the fabric, per slot (live-slot sanity).
    pushed_per_slot: Vec<u64>,
    offered: u64,
    transmitted: u64,
    /// Incremental mirror of the live fabric backlog.
    backlog_ctr: u64,
    /// Decision cycles still consumed by an injected stall/wedge.
    stall: u32,
    /// Admitted arrivals the armed ring-overflow burst will consume.
    ring_drop_budget: u32,
    last_completed: u64,
    monotone_ok: bool,
    /// Consecutive non-stalled ticks with backlog but no winner.
    idle_streak: u32,
    /// An unexpected fabric error surfaced (checked by CounterSanity).
    internal_error: bool,
    shard_crashes: u64,
    fingerprint: u64,
    winners: Option<Vec<Winner>>,
}

impl SimNode {
    /// Builds node `id`: a DWCS winner-only sharded fabric with the
    /// scenario's class mix loaded, behind a fresh gate and a per-node
    /// fault stream.
    pub fn new(
        id: usize,
        params: NodeParams,
        scenario: &Scenario,
        seed: u64,
        injector: FaultInjector,
    ) -> Result<Self, Error> {
        let config = FabricConfig::dwcs(params.slots, FabricConfigKind::WinnerOnly);
        let mut sched = ShardedScheduler::new(config, params.shards)?;
        for (g, &window) in scenario.windows().iter().enumerate() {
            let state = StreamState {
                request_period: params.slots as u64,
                original_window: window,
                // Later slots get higher static priority so DWCS
                // tie-breaks stay deterministic and asymmetric.
                static_prio: (g % 8) as u8,
                late_policy: LatePolicy::ServeLate,
            };
            sched.load_stream(g, state, (g + 1) as u64)?;
        }
        let gate = GateCore::from_windows(
            scenario.windows(),
            params.gate_rate_mtok,
            params.gate_burst_mtok,
        );
        let protected = (0..params.slots)
            .filter(|&s| gate.protection(s) >= FULLY_PROTECTED)
            .fold(0, |mask, s| mask | 1 << s);
        Ok(Self {
            id,
            slots: params.slots,
            sched,
            gate,
            forged_shed: None,
            protected,
            injector,
            counts: [0; MAX_SLOTS],
            dead: 0,
            pushed_per_slot: vec![0; params.slots],
            offered: 0,
            transmitted: 0,
            backlog_ctr: 0,
            stall: 0,
            ring_drop_budget: 0,
            last_completed: 0,
            monotone_ok: true,
            idle_streak: 0,
            internal_error: false,
            shard_crashes: 0,
            fingerprint: mix(seed ^ mix(id as u64 + 0xA11CE)),
            winners: params.record_winners.then(Vec::new),
        })
    }

    /// Advances the node one virtual tick (see the module docs for the
    /// fixed phase order) and returns this tick's winner, if any.
    /// Registered hot path: no allocation beyond optional winner capture,
    /// no panic, no formatting.
    // lint:hot-path
    #[inline]
    pub fn step(&mut self, tick: u64, scenario: &Scenario, seed: u64) -> Option<Winner> {
        self.sample_faults();
        let slots = self.slots;

        // Phase 2: arrivals. Burst extras are spread round-robin from a
        // tick-derived offset so they are deterministic and don't always
        // land on slot 0; they fold into the per-slot counts.
        let mut burst_extra = 0u32;
        if let Some(FaultKind::OverloadBurst { extra }) =
            self.injector.sample_mut(FaultSite::Admission)
        {
            burst_extra = extra;
        }
        let (bits, mut multi) =
            scenario.sample_mask(seed, self.id, tick, &mut self.counts[..slots]);
        for i in 0..burst_extra as usize {
            let s = (tick as usize + i) % slots;
            self.counts[s] = self.whole(multi, s) + 1;
            multi |= 1 << s;
        }
        self.book_dead_arrivals(bits, multi);
        for s in slot_bits((bits | multi) & !self.dead) {
            let n = self.whole(multi, s) + (bits >> s & 1);
            self.offer_slot(s, n, tick);
        }

        // Phase 3: one decision cycle, unless an injected wedge holds the
        // fabric. Clocks stay lock-step inside `decision_cycle`.
        let winner = if self.stall > 0 {
            self.stall -= 1;
            None
        } else {
            match self.sched.decision_cycle() {
                Some(p) => Some(self.account_winner(p)),
                None => {
                    if self.backlog_ctr > 0 {
                        self.idle_streak += 1;
                    } else {
                        self.idle_streak = 0;
                    }
                    None
                }
            }
        };

        // The gate observes post-decision occupancy: the fabric's live
        // backlog against a nominal per-slot queue depth of 8.
        self.gate.tick(self.backlog_ctr as usize, slots * 8);
        winner
    }

    /// Samples the shard / decision / ring fault sites and arms their
    /// effects. Registered hot path.
    // lint:hot-path
    #[inline]
    fn sample_faults(&mut self) {
        match self.injector.sample_mut(FaultSite::Shard) {
            Some(FaultKind::ShardCrash) => self.crash_one_shard(),
            Some(FaultKind::ShardStall { cycles }) => self.stall += cycles,
            _ => {}
        }
        if let Some(FaultKind::StuckCycles { cycles }) =
            self.injector.sample_mut(FaultSite::DecisionCycle)
        {
            self.stall += cycles;
        }
        if let Some(FaultKind::RingOverflowBurst { len }) =
            self.injector.sample_mut(FaultSite::SpscRing)
        {
            self.ring_drop_budget += len;
        }
    }

    /// Slot `s`'s whole arrivals this tick: its `counts` entry if `multi`
    /// says the tick wrote one, else none.
    #[inline]
    fn whole(&self, multi: u32, s: usize) -> u32 {
        if multi & (1 << s) != 0 {
            self.counts[s]
        } else {
            0
        }
    }

    /// Books this tick's arrivals on dead slots — the Bernoulli bits by
    /// popcount, whole counts and burst extras by a walk of the (almost
    /// always empty) dead multi-arrival set — into `offered` and
    /// [`LossSite::Shard`] at once. Nothing else reads either, so booking
    /// them ahead of the live slots' offers moves no outcome; and no
    /// branch on the coin flip of where an arrival landed. Registered hot
    /// path.
    // lint:hot-path
    #[inline]
    fn book_dead_arrivals(&mut self, bits: u32, multi: u32) {
        let mut n = u64::from((bits & self.dead).count_ones());
        for s in slot_bits(multi & self.dead) {
            n += u64::from(self.counts[s]);
        }
        self.offered += n;
        self.gate.record_loss(LossSite::Shard, n);
    }

    /// Offers live `slot`'s `n` arrivals, back to back. Should the fabric
    /// report the slot's shard failed after all, the slot joins the dead
    /// set and the arrivals still unoffered are booked as a dead slot's
    /// would have been. Registered hot path.
    // lint:hot-path
    #[inline]
    fn offer_slot(&mut self, slot: usize, n: u32, tick: u64) {
        for left in (0..n).rev() {
            if !self.offer_one(slot, tick) {
                self.offered += u64::from(left);
                self.gate.record_loss(LossSite::Shard, u64::from(left));
                return;
            }
        }
    }

    /// Offers one arrival for live `slot` through gate → ring → fabric,
    /// ledgering the first site that consumes it; `false` when the fabric
    /// found the slot's shard failed. Registered hot path.
    // lint:hot-path
    #[inline]
    fn offer_one(&mut self, slot: usize, tick: u64) -> bool {
        self.offered += 1;
        if !self.gate.admit(slot)
            || (self.gate.level() == PressureLevel::Overloaded && self.gate.shed_if_sheddable(slot))
        {
            return true; // ledgered at admission or shed
        }
        if self.ring_drop_budget > 0 && self.protected & (1 << slot) == 0 {
            self.ring_drop_budget -= 1;
            self.gate.record_loss(LossSite::Ring, 1);
            return true;
        }
        match self.sched.push_arrival(slot, Wrap16::from_wide(tick)) {
            Ok(()) => {
                self.pushed_per_slot[slot] += 1;
                self.backlog_ctr += 1;
            }
            Err(Error::ShardFailed { .. }) => {
                self.dead |= 1 << slot;
                self.gate.record_loss(LossSite::Shard, 1);
                return false;
            }
            Err(_) => self.internal_error = true,
        }
        true
    }

    /// Books one transmitted winner: loss-window advance, virtual-time
    /// monotonicity, replay fingerprint. Registered hot path.
    // lint:hot-path
    #[inline]
    fn account_winner(&mut self, p: ScheduledPacket) -> Winner {
        self.transmitted += 1;
        self.backlog_ctr = self.backlog_ctr.saturating_sub(1);
        self.idle_streak = 0;
        let slot = p.slot.index();
        self.gate.mark_served(slot);
        if self.transmitted > 1 && p.completed_at <= self.last_completed {
            self.monotone_ok = false;
        }
        self.last_completed = p.completed_at;
        let word =
            ((slot as u64) << 48) | ((p.met as u64) << 40) | (p.completed_at & 0xFF_FFFF_FFFF);
        self.fingerprint = mix(self.fingerprint ^ mix(word));
        let w = (slot as u16, p.completed_at, p.met);
        if let Some(ws) = self.winners.as_mut() {
            ws.push(w);
        }
        w
    }

    /// Crashes one live shard (round-robin victim). The last live shard
    /// degrades the crash to a stall: a real deployment's "last replica
    /// stays up" posture, and it keeps every scenario's winner stream
    /// alive for the livelock check.
    fn crash_one_shard(&mut self) {
        let shards = self.sched.shard_count();
        let alive = (0..shards).filter(|&k| !self.sched.is_failed(k)).count();
        if alive <= 1 {
            self.stall += 4;
            return;
        }
        let start = (self.shard_crashes as usize) % shards;
        for off in 0..shards {
            let k = (start + off) % shards;
            if self.sched.is_failed(k) {
                continue;
            }
            if let Ok(lost) = self.sched.fail_shard(k) {
                self.gate.record_loss(LossSite::Shard, lost);
                self.backlog_ctr = self.backlog_ctr.saturating_sub(lost);
                // The slots homed on failed shards, as the scheduler's
                // fixed partition names them.
                self.dead = (0..shards)
                    .filter(|&f| self.sched.is_failed(f))
                    .fold(0, |dead, f| dead | self.sched.slots_on(f));
                self.shard_crashes += 1;
            }
            return;
        }
    }

    /// Sabotage: forge one phantom offered arrival that no site will ever
    /// account for — Conservation must fire on this tick.
    pub fn sabotage_phantom(&mut self) {
        self.offered += 1;
    }

    /// Sabotage: forge a shed on a fully-protected slot (slot 0 if there
    /// is none) — ProtectedShed must fire on this tick.
    pub fn sabotage_protected_shed(&mut self) {
        // The lowest protected slot; an empty mask's 32 trailing zeros
        // fall back to slot 0.
        self.forged_shed = Some(self.protected.trailing_zeros() as usize % MAX_SLOTS);
    }

    /// Recounts the live fabric backlog from the register queues
    /// (BacklogMirror's reference side — independent of `backlog_ctr`).
    /// Registered hot path: runs every tick.
    // lint:hot-path
    #[inline]
    pub fn recomputed_backlog(&self) -> u64 {
        self.sched.live_backlog()
    }

    /// Node ID.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Total arrivals offered (scenario + bursts + phantoms).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Winners transmitted.
    pub fn transmitted(&self) -> u64 {
        self.transmitted
    }

    /// The incremental backlog mirror.
    pub fn backlog_ctr(&self) -> u64 {
        self.backlog_ctr
    }

    /// The node's loss ledger.
    pub fn ledger(&self) -> &LossLedger {
        self.gate.ledger()
    }

    /// Protection (‰) of `slot`.
    pub fn protection(&self, slot: usize) -> u16 {
        self.gate.protection(slot)
    }

    /// Sheds charged to `slot` so far — the protected-floor invariant's
    /// witness (a forged shed counts, which is the point of forging it).
    pub fn sheds_for(&self, slot: usize) -> u64 {
        self.gate.sheds_for(slot) + u64::from(self.forged_shed == Some(slot))
    }

    /// Sheds charged to fully-protected slots, forged ones included — the
    /// protected-floor invariant holds while this is 0. Reads the gate's
    /// own per-slot counters, like [`sheds_for`](Self::sheds_for).
    #[inline]
    pub fn protected_sheds(&self) -> u64 {
        slot_bits(self.protected).map(|s| self.sheds_for(s)).sum()
    }

    /// `true` while virtual time has never gone backwards.
    pub fn monotone_ok(&self) -> bool {
        self.monotone_ok
    }

    /// Consecutive non-stalled ticks with backlog but no winner.
    pub fn idle_streak(&self) -> u32 {
        self.idle_streak
    }

    /// `true` if the fabric returned an unexpected error.
    pub fn internal_error(&self) -> bool {
        self.internal_error
    }

    /// `true` while an injected stall is holding the fabric.
    /// Tests-only: `crates/cluster/tests/epoch_equivalence.rs` holds every epoch length to tick
    /// order with it.
    pub fn stalled(&self) -> bool {
        self.stall > 0
    }

    /// Shards crashed so far.
    pub fn shard_crashes(&self) -> u64 {
        self.shard_crashes
    }

    /// Arrivals pushed into the fabric for `slot`.
    pub fn pushed(&self, slot: usize) -> u64 {
        self.pushed_per_slot.get(slot).copied().unwrap_or(0)
    }

    /// `true` if `slot` is stranded on a crashed shard.
    pub fn is_dead_slot(&self, slot: usize) -> bool {
        slot < self.slots && self.dead & (1 << slot) != 0
    }

    /// Slots on this node.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Per-slot fabric counters (Err on dead slots).
    pub fn slot_counters(&self, slot: usize) -> Result<&ss_core::SlotCounters, Error> {
        self.sched.slot_counters(slot)
    }

    /// Live fabric backlog of `slot` (Err on dead slots).
    pub fn slot_backlog(&self, slot: usize) -> Result<usize, Error> {
        self.sched.backlog(slot)
    }

    /// The node's running replay fingerprint (winner sequence digest).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The captured winner sequence, when recording was requested.
    /// Tests-only: `crates/cluster/tests/determinism.rs` and `epoch_equivalence.rs` fingerprint the
    /// winners with it.
    pub fn winners(&self) -> Option<&[Winner]> {
        self.winners.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultProfile;
    use crate::scenario::ScenarioSpec;

    fn node(rate_permille: u32) -> (SimNode, Scenario) {
        let scenario = Scenario::new(ScenarioSpec::steady(rate_permille), 8);
        let params = NodeParams {
            slots: 8,
            shards: 2,
            gate_rate_mtok: 375,
            gate_burst_mtok: 2_000,
            record_winners: false,
        };
        let injector = FaultProfile::Off.injector_for(1, 0);
        let node = SimNode::new(0, params, &scenario, 1, injector).expect("node builds");
        (node, scenario)
    }

    /// The node's one line of policy: a shed is proposed only while the
    /// pressure level is Overloaded, and the core disposes.
    #[test]
    fn sheds_start_with_the_overloaded_level() {
        let (mut n, scenario) = node(2_000);
        let mut tick = 0u64;
        while n.gate.level() != PressureLevel::Overloaded {
            assert_eq!(n.ledger().shed, 0, "no shed below Overloaded");
            n.step(tick, &scenario, 1);
            tick += 1;
            assert!(tick < 10_000, "2x load never reached Overloaded");
        }
        for _ in 0..2_000 {
            n.step(tick, &scenario, 1);
            tick += 1;
        }
        assert!(n.ledger().shed > 0, "sustained overload sheds");
        let mut protected = (0..n.slots())
            .filter(|&s| n.protection(s) >= FULLY_PROTECTED)
            .peekable();
        assert!(
            protected.peek().is_some(),
            "the class mix has a protected slot"
        );
        assert!(protected.all(|s| n.sheds_for(s) == 0));
    }

    #[test]
    fn forged_shed_lands_on_a_protected_slot() {
        let (mut n, _) = node(1_000);
        n.sabotage_protected_shed();
        let forged: Vec<usize> = (0..n.slots()).filter(|&s| n.sheds_for(s) != 0).collect();
        assert_eq!(forged.len(), 1);
        assert!(n.protection(forged[0]) >= FULLY_PROTECTED);
        assert_eq!(n.ledger().total(), 0, "the gate itself shed nothing");
    }
}
