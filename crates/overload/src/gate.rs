//! The gate: admission → RED proposal → QoS veto → pressure → ledger,
//! composed once.
//!
//! ```text
//!   arrival ──► token-bucket admission ──► RED backlog ──► served / popped
//!                    │ (window-aware             │ drop proposal
//!                    │  refill squeeze)          ▼
//!                    ▼                    QoS-aware veto:
//!               LossSite::Admission       sheddable (loss headroom) → LossSite::Shed
//!                                         protected (0/y window)    → re-admitted
//!                                         buffer physically full    → LossSite::Ring
//! ```
//!
//! [`GateCore`] owns the four machines — [`AdmissionController`],
//! [`QosShedder`], [`PressureSignal`], [`LossLedger`] — plus the
//! [`SharedPressure`] handle remote throttlers poll. It has no queue and
//! no opinion on *when* to shed: the embedder proposes, the core disposes
//! ([`GateCore::shed_if_sheddable`] refuses any stream without loss
//! headroom, so a `0/y` window is never shed — structurally, not by
//! policy). The cluster node drives it directly with "pressure is
//! `Overloaded`" as the proposal.
//!
//! [`Gate<T>`] puts a [`RedQueue<T>`] backlog over the core and makes RED
//! the proposer. `Gate<()>` is a zero-sized mirror of a backlog held
//! elsewhere (the endsystem's fabric); `Gate<IngressArrival>` *is* the
//! backlog (the network edge). Every [`Gate::offer`] returns one
//! [`GateReason`], and [`GateReason::site`] is the only mapping from
//! reason to [`LossSite`]: a full buffer — met by RED's tail-drop backstop
//! or by a veto that finds no room — is a [`LossSite::Ring`] overflow and
//! never touches a shed window, so "protected streams are never shed"
//! holds for every user.
//!
//! # Conservation
//!
//! `offered == served + backlog + ledger.total()` ([`Gate::conserves`]):
//! every offered packet is served, still queued, or at exactly one ledger
//! site. A popped packet is in flight until [`Gate::mark_served`] or
//! [`Gate::mark_ring_loss`] lands it.
//!
//! # Backpressure before shedding
//!
//! The backlog's occupancy feeds the hysteresis pressure signal every
//! [`Gate::tick`], and the level reaches the source (the SUBMIT_ACK byte,
//! the producer's holdback) *before* the gate refuses anything: with
//! [`PressureConfig::default`] the signal rises at half occupancy while
//! classic RED proposes nothing below a quarter-capacity *average*, which
//! lags a fill from empty. This is the
//! source-propagated rule of "Flow Control and Scheduling for Shared FIFO
//! Queues" (arXiv:1601.07597) — clients hold back before RED sheds — and
//! `pressure_rises_before_the_first_loss` pins it across capacities and
//! service rates.

use crate::red::{RedConfig, RedQueue, RedVerdict};
use crate::{
    AdmissionController, LossLedger, LossSite, PressureConfig, PressureLevel, PressureSignal,
    QosShedder, SharedPressure, StreamClass,
};
use ss_types::WindowConstraint;
use std::sync::Arc;

/// What the gate decided for one arrival, and why. [`GateReason::code`]
/// is the lifecycle trace's `GateVerdict` detail byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum GateReason {
    /// Token bucket and RED both passed; the packet is in the backlog.
    Admitted = 0,
    /// The per-stream token bucket refused admission.
    AdmissionReject = 1,
    /// RED early-drop picked this (sheddable) arrival.
    RedEarly = 2,
    /// RED forced-drop above the max threshold (sheddable stream).
    RedForced = 3,
    /// The backlog was physically full, at RED's backstop or when a veto
    /// tried to re-admit.
    TailDrop = 4,
    /// RED proposed dropping a protected (zero-headroom) stream; the QoS
    /// veto re-admitted it.
    VetoReadmit = 5,
}

impl GateReason {
    /// The stable trace-event detail code for this reason.
    #[inline]
    #[must_use]
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// The ledger site this reason booked, or `None` when the packet
    /// entered the backlog.
    #[inline]
    #[must_use]
    pub const fn site(self) -> Option<LossSite> {
        match self {
            GateReason::Admitted | GateReason::VetoReadmit => None,
            GateReason::AdmissionReject => Some(LossSite::Admission),
            GateReason::RedEarly | GateReason::RedForced => Some(LossSite::Shed),
            GateReason::TailDrop => Some(LossSite::Ring),
        }
    }

    /// `true` when the packet entered the backlog.
    #[inline]
    #[must_use]
    pub const fn admits(self) -> bool {
        self.site().is_none()
    }
}

/// One admission class per window: the same `rate_mtok`/`burst_mtok`
/// budget for every stream, protection derived from its constraint.
fn uniform_classes(
    windows: &[WindowConstraint],
    rate_mtok: u32,
    burst_mtok: u32,
) -> Vec<StreamClass> {
    windows
        .iter()
        .map(|&w| StreamClass::from_window(rate_mtok, burst_mtok, w))
        .collect()
}

/// The RED-free composition: admission, shed bookkeeping, pressure and
/// the loss ledger behind one set of calls that book each refusal once.
#[derive(Debug)]
pub struct GateCore {
    admission: AdmissionController,
    shedder: QosShedder,
    pressure: PressureSignal,
    ledger: LossLedger,
    shared: Arc<SharedPressure>,
    /// Last level written to `shared`: `tick` republishes only on change,
    /// keeping the per-packet-time path free of the cross-core store.
    /// `SharedPressure::new` starts Nominal, as this does.
    last_published: PressureLevel,
}

impl GateCore {
    /// Builds a core for one class and one window per stream.
    ///
    /// # Panics
    /// Panics if `classes` and `windows` disagree on stream count, or on
    /// an invalid pressure configuration.
    pub fn new(
        classes: Vec<StreamClass>,
        windows: &[WindowConstraint],
        pressure: PressureConfig,
    ) -> Self {
        assert_eq!(
            classes.len(),
            windows.len(),
            "one class and one window per stream"
        );
        Self {
            admission: AdmissionController::new(classes),
            shedder: QosShedder::new(windows),
            pressure: PressureSignal::new(pressure),
            ledger: LossLedger::new(),
            shared: Arc::new(SharedPressure::new()),
            last_published: PressureLevel::Nominal,
        }
    }

    /// A core whose streams all refill `rate_mtok` with `burst_mtok`
    /// depth, under the default pressure thresholds.
    pub fn from_windows(windows: &[WindowConstraint], rate_mtok: u32, burst_mtok: u32) -> Self {
        Self::new(
            uniform_classes(windows, rate_mtok, burst_mtok),
            windows,
            PressureConfig::default(),
        )
    }

    /// Spends one admission token for `slot`; `false` books the arrival at
    /// [`LossSite::Admission`]. Hot path.
    // lint:hot-path
    #[inline]
    pub fn admit(&mut self, slot: usize) -> bool {
        let ok = self.admission.try_admit(slot);
        if !ok {
            self.ledger.record(LossSite::Admission);
        }
        ok
    }

    /// Obeys a shed proposal for `slot` if its window has loss headroom:
    /// `true` books the arrival at [`LossSite::Shed`] and charges the
    /// window. A zero-headroom window returns `false` untouched. Hot path.
    // lint:hot-path
    #[inline]
    pub fn shed_if_sheddable(&mut self, slot: usize) -> bool {
        let shed = self.shedder.sheddable(slot);
        if shed {
            self.shedder.record_shed(slot);
            self.ledger.record(LossSite::Shed);
        }
        shed
    }

    /// Records a served outcome for `slot` (advances its loss window).
    /// Hot path.
    // lint:hot-path
    #[inline]
    pub fn mark_served(&mut self, slot: usize) {
        self.shedder.record_served(slot);
    }

    /// Books `n` packets lost where policy had no say — a full ring, a
    /// crashed shard, a drain write-off. Hot path.
    // lint:hot-path
    #[inline]
    pub fn record_loss(&mut self, site: LossSite, n: u64) {
        self.ledger.record_n(site, n);
    }

    /// One packet-time elapses: feeds occupancy into the pressure signal,
    /// publishes a level change to remote throttlers, and refills
    /// admission at the resulting level. Hot path.
    // lint:hot-path
    #[inline]
    pub fn tick(&mut self, occupied: usize, capacity: usize) -> PressureLevel {
        let level = self.pressure.observe(occupied, capacity);
        if level != self.last_published {
            self.shared.publish(level);
            self.last_published = level;
        }
        self.admission.tick(level);
        level
    }

    /// Current pressure level. Hot path.
    // lint:hot-path
    #[inline]
    pub fn level(&self) -> PressureLevel {
        self.pressure.level()
    }

    /// Pressure-level transitions so far (hysteresis audit).
    /// Tests-only: `run_threaded_overload` reports it for `tests/conformance.rs`.
    pub fn pressure_transitions(&self) -> u64 {
        self.pressure.transitions()
    }

    /// The shareable pressure handle (lock-free reads from any thread).
    pub fn shared_pressure(&self) -> Arc<SharedPressure> {
        Arc::clone(&self.shared)
    }

    /// The loss ledger — an exact partition of every refused packet.
    #[inline]
    pub fn ledger(&self) -> &LossLedger {
        &self.ledger
    }

    /// Packets shed from `slot` so far.
    #[inline]
    pub fn sheds_for(&self, slot: usize) -> u64 {
        self.shedder.shed(slot)
    }

    /// Protection (‰) of `slot`'s admission class; 0 when out of range.
    #[inline]
    pub fn protection(&self, slot: usize) -> u16 {
        self.admission.class(slot).map_or(0, |c| c.protection)
    }
}

/// [`Gate`] construction parameters.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Per-stream token-bucket classes (admission).
    pub classes: Vec<StreamClass>,
    /// Per-stream DWCS window constraints (shed policy).
    pub windows: Vec<WindowConstraint>,
    /// RED curve and hard capacity of the backlog.
    pub red: RedConfig,
    /// Backpressure hysteresis thresholds.
    pub pressure: PressureConfig,
    /// Seed for RED's deterministic drop draws.
    pub red_seed: u64,
}

impl GateConfig {
    /// A uniform-rate gate for `windows.len()` streams: every bucket
    /// refills `rate_mtok` millitokens per tick with `burst_mtok` depth,
    /// and each stream's shed protection is derived from its window
    /// constraint (tight windows → protected, shed last).
    pub fn from_windows(
        windows: &[WindowConstraint],
        rate_mtok: u32,
        burst_mtok: u32,
        red: RedConfig,
        red_seed: u64,
    ) -> Self {
        Self {
            classes: uniform_classes(windows, rate_mtok, burst_mtok),
            windows: windows.to_vec(),
            red,
            pressure: PressureConfig::default(),
            red_seed,
        }
    }
}

/// The composed gate: a [`GateCore`] with a RED-managed backlog of `T` in
/// front of it. Single-owner (`&mut`), so the reason sequence is a pure
/// function of the offered sequence and the seed.
#[derive(Debug)]
pub struct Gate<T> {
    core: GateCore,
    backlog: RedQueue<T>,
    offered: u64,
    served: u64,
}

impl<T: Copy> Gate<T> {
    /// Builds a gate.
    ///
    /// # Panics
    /// Panics if `classes` and `windows` disagree on stream count, or on
    /// an invalid RED/pressure configuration (delegated constructors).
    pub fn new(config: GateConfig) -> Self {
        Self {
            core: GateCore::new(config.classes, &config.windows, config.pressure),
            backlog: RedQueue::new(config.red, config.red_seed),
            offered: 0,
            served: 0,
        }
    }

    /// Offers one arrival for `slot`. When the reason
    /// [`admits`](GateReason::admits), `item` is in the backlog; otherwise
    /// it is already booked at [`GateReason::site`] and must be discarded.
    /// Hot path: integer/flag work plus one RED draw, no allocation, no
    /// panic.
    // lint:hot-path
    #[inline]
    pub fn offer(&mut self, slot: usize, item: T) -> GateReason {
        self.offered += 1;
        if !self.core.admit(slot) {
            return GateReason::AdmissionReject;
        }
        let proposal = match self.backlog.offer(item) {
            RedVerdict::Enqueued => return GateReason::Admitted,
            RedVerdict::TailDrop => return self.overflow(),
            RedVerdict::EarlyDrop => GateReason::RedEarly,
            RedVerdict::ForcedDrop => GateReason::RedForced,
        };
        if self.core.shed_if_sheddable(slot) {
            proposal
        } else if self.backlog.push_unchecked(item) {
            GateReason::VetoReadmit
        } else {
            self.overflow()
        }
    }

    /// Physically full: policy cannot help and no window is charged.
    // lint:hot-path
    #[inline]
    fn overflow(&mut self) -> GateReason {
        self.core.record_loss(LossSite::Ring, 1);
        GateReason::TailDrop
    }

    /// Pops the oldest backlogged item. The caller lands it with
    /// [`Gate::mark_served`] or [`Gate::mark_ring_loss`]. Hot path.
    // lint:hot-path
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.backlog.pop()
    }

    /// Accounts a popped packet of `slot` as served. Hot path.
    // lint:hot-path
    #[inline]
    pub fn mark_served(&mut self, slot: usize) {
        self.served += 1;
        self.core.mark_served(slot);
    }

    /// Accounts a popped packet the downstream ring refused
    /// ([`LossSite::Ring`]). Hot path.
    // lint:hot-path
    #[inline]
    pub fn mark_ring_loss(&mut self) {
        self.core.record_loss(LossSite::Ring, 1);
    }

    /// One control tick per packet-time; see [`GateCore::tick`]. The edge
    /// passes its own backlog, a mirror the occupancy it stands for.
    /// Hot path.
    // lint:hot-path
    #[inline]
    pub fn tick(&mut self, occupied: usize, capacity: usize) -> PressureLevel {
        self.core.tick(occupied, capacity)
    }

    /// Writes off the entire backlog at [`LossSite::Drain`] (the
    /// graceful-drain flush) and returns the count.
    pub fn drain_write_off(&mut self) -> u64 {
        let mut n = 0u64;
        while self.backlog.pop().is_some() {
            n += 1;
        }
        self.core.record_loss(LossSite::Drain, n);
        n
    }

    /// Accounts `n` packets that arrived after the drain cutoff and were
    /// written off without entering the backlog.
    pub fn write_off_late(&mut self, n: u64) {
        self.offered += n;
        self.core.record_loss(LossSite::Drain, n);
    }

    /// The conservation identity: every offered packet is served, still
    /// backlogged, or at exactly one ledger site.
    pub fn conserves(&self) -> bool {
        self.offered == self.served + self.backlog.len() as u64 + self.core.ledger.total()
    }

    /// Packets offered so far (including late write-offs).
    #[inline]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Packets served out of the backlog so far.
    #[inline]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Current backlog depth.
    #[inline]
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// The machines behind the backlog: ledger, pressure level and handle,
    /// per-slot sheds and protection.
    #[inline]
    pub fn core(&self) -> &GateCore {
        &self.core
    }
}

/// The mirror protocol: `Gate<()>` stands for a backlog held elsewhere
/// (the endsystem's fabric), so its queue is only a count that must move
/// in lock-step with the real one.
impl Gate<()> {
    /// One packet of `slot` left the mirrored backlog for service. Hot path.
    // lint:hot-path
    #[inline]
    pub fn mirror_served(&mut self, slot: usize) {
        let _ = self.backlog.pop();
        self.mark_served(slot);
    }

    /// One packet-time of the mirrored backlog: [`Gate::tick`] on the
    /// occupancy it stands for, then RED's idle clock. Hot path.
    // lint:hot-path
    #[inline]
    pub fn mirror_tick(&mut self, occupied: usize, capacity: usize) -> PressureLevel {
        let level = self.core.tick(occupied, capacity);
        self.backlog.idle_tick();
        level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn wc(num: u8, den: u8) -> WindowConstraint {
        WindowConstraint::new(num, den)
    }

    /// Two loss-tolerant streams (3/4) and one tight stream (0/1 → fully
    /// protected), generous buckets, small RED band so drops start early.
    fn gate() -> Gate<()> {
        Gate::new(GateConfig::from_windows(
            &[wc(3, 4), wc(3, 4), wc(0, 1)],
            1_000,
            4_000,
            RedConfig {
                min_th: 4.0,
                max_th: 12.0,
                max_p: 0.5,
                weight: 0.5,
                capacity: 32,
            },
            7,
        ))
    }

    #[test]
    fn uncongested_arrivals_all_admit() {
        let mut g = gate();
        for i in 0..12 {
            assert_eq!(g.offer(i % 3, ()), GateReason::Admitted);
            assert_eq!(g.pop(), Some(())); // drain at once: occupancy never builds
            g.mark_served(i % 3);
            g.tick(0, 64);
        }
        assert_eq!((g.served(), g.core().ledger().total()), (12, 0));
    }

    #[test]
    fn sustained_overload_sheds_tolerant_not_protected() {
        let mut g = gate();
        let mut admitted = [0u64; 3];
        let mut seen = std::collections::BTreeSet::new();
        // Offer far more than is served, draining just enough to hold
        // occupancy inside the RED band: policy decides every drop, never
        // the tail-drop backstop.
        for i in 0..300 {
            let s = i % 3;
            let reason = g.offer(s, ());
            admitted[s] += u64::from(reason.admits());
            seen.insert(reason.code());
            while g.backlog_len() > 16 {
                g.mirror_served(s);
            }
            g.tick(g.backlog_len(), 32);
        }
        let sheds = |s| g.core().sheds_for(s);
        assert!(sheds(0) + sheds(1) > 0, "tolerant streams get shed");
        assert_eq!(sheds(2), 0, "0/1-window stream is never shed");
        assert!(admitted[2] > admitted[0], "protection shows in admits");
        // Every reason but TailDrop (4), under the codes trace events carry.
        assert_eq!(seen.into_iter().collect::<Vec<u8>>(), [0, 1, 2, 3, 5]);
    }

    /// The drift the three hand-written gates had: a physically full
    /// backlog is a ring overflow, not a shed — least of all on a stream
    /// that may never be shed.
    #[test]
    fn full_backlog_books_ring_and_charges_no_window() {
        fn fill<T: Copy>(item: T) {
            let mut g = Gate::new(GateConfig::from_windows(
                &[wc(0, 1)],
                1_000_000,
                2_000_000,
                // An EWMA that is the depth itself: RED forces a drop from
                // the second arrival on, so the veto does the filling.
                RedConfig {
                    min_th: 0.5,
                    max_th: 1.0,
                    max_p: 0.1,
                    weight: 1.0,
                    capacity: 4,
                },
                7,
            ));
            for n in 0..64 {
                let expect = match n {
                    0 => GateReason::Admitted,
                    1..=3 => GateReason::VetoReadmit,
                    _ => GateReason::TailDrop,
                };
                assert_eq!(g.offer(0, item), expect);
            }
            assert_eq!(g.backlog_len(), 4);
            assert_eq!(g.core().sheds_for(0), 0, "protected stream never shed");
            assert_eq!(g.core().ledger().shed, 0);
            assert_eq!(g.core().ledger().ring, 60);
            assert!(g.conserves());
        }
        fill(()); // the endsystem's mirror
        fill((0u32, 0u16)); // the edge's payload
    }

    #[test]
    fn pressure_squeezes_admission_and_reaches_remote_throttlers() {
        // Tight buckets: 1 token per tick, burst 1. Under Overloaded
        // pressure the tolerant stream's refill is right-shifted to 0
        // every tick (1 >> 3), so only the protected stream keeps flowing.
        let mut g = Gate::<()>::new(GateConfig::from_windows(
            &[wc(3, 4), wc(0, 1)],
            1_000,
            1_000,
            RedConfig::classic(1024),
            1,
        ));
        let remote = g.core().shared_pressure();
        for _ in 0..64 {
            g.tick(1000, 1000);
        }
        assert_eq!(remote.level(), PressureLevel::Overloaded);
        let mut ok = [0u64; 2];
        for _ in 0..100 {
            for (s, count) in ok.iter_mut().enumerate() {
                if g.offer(s, ()).admits() {
                    *count += 1;
                    g.mirror_served(s);
                }
            }
            g.tick(1000, 1000);
        }
        assert!(ok[1] >= 90, "protected stream keeps its refill: {ok:?}");
        assert!(ok[0] <= ok[1] / 4, "tolerant stream squeezed: {ok:?}");
        assert_eq!(g.core().ledger().admission, g.offered() - g.served());
        for _ in 0..64 {
            g.tick(0, 1000);
        }
        assert_eq!(remote.level(), PressureLevel::Nominal);
        assert_eq!(
            remote.publishes(),
            g.core().pressure_transitions(),
            "one store per transition, none in steady state"
        );
    }

    /// The source-propagated backpressure rule (module docs): from empty,
    /// pressure is at least Elevated strictly before anything is refused.
    #[test]
    fn pressure_rises_before_the_first_loss() {
        for cap in [16usize, 64, 256, 1024] {
            for serve_every in [0u32, 2, 3, 4] {
                let mut g = Gate::<()>::new(GateConfig::from_windows(
                    &[wc(3, 4), wc(0, 4)],
                    1_000,
                    2_000,
                    RedConfig::classic(cap),
                    7,
                ));
                let mut raised = false;
                let mut n = 0u32;
                loop {
                    n += 1;
                    assert!(n < 100_000, "cap {cap}/{serve_every}: never refused");
                    let slot = (n % 2) as usize;
                    if !g.offer(slot, ()).admits() {
                        break;
                    }
                    if n.is_multiple_of(serve_every) && g.pop().is_some() {
                        g.mark_served(slot);
                    }
                    raised |= g.tick(g.backlog_len(), cap) >= PressureLevel::Elevated;
                }
                assert!(
                    raised,
                    "cap {cap}, serving every {serve_every}: offer {n} was refused \
                     before any pressure"
                );
            }
        }
    }

    /// Runs `ops` against a fresh gate, checking the ledger discipline
    /// after every step, and returns the reason sequence.
    fn drive(config: &GateConfig, ops: &[(u8, usize)]) -> Vec<GateReason> {
        let capacity = config.red.capacity;
        let slots = config.windows.len();
        let mut g = Gate::<u16>::new(config.clone());
        let mut reasons = Vec::new();
        for (i, &(op, pick)) in ops.iter().enumerate() {
            let slot = pick % slots;
            match op {
                // offer: exactly one unit lands, where `site()` says.
                0..=7 => {
                    let ledger = *g.core().ledger();
                    let backlog = g.backlog_len();
                    let reason = g.offer(slot, i as u16);
                    for site in LossSite::ALL {
                        let booked = u64::from(reason.site() == Some(site));
                        assert_eq!(g.core().ledger().at(site), ledger.at(site) + booked);
                    }
                    assert_eq!(g.backlog_len(), backlog + usize::from(reason.admits()));
                    reasons.push(reason);
                }
                8..=10 => {
                    if g.pop().is_some() {
                        g.mark_served(slot);
                    }
                }
                11 => {
                    if g.pop().is_some() {
                        g.mark_ring_loss();
                    }
                }
                12..=15 => {
                    g.tick(g.backlog_len(), capacity);
                }
                _ => {
                    g.drain_write_off();
                    g.write_off_late(pick as u64 % 3);
                }
            }
            assert!(g.conserves(), "step {i} (op {op}) broke conservation");
            assert!(g.backlog_len() <= capacity);
            for (s, w) in config.windows.iter().enumerate() {
                assert!(
                    !w.is_zero() || g.core().sheds_for(s) == 0,
                    "step {i}: protected slot {s} was shed"
                );
            }
        }
        let shed: u64 = (0..slots).map(|s| g.core().sheds_for(s)).sum();
        assert_eq!(g.core().ledger().shed, shed);
        reasons
    }

    proptest! {
        #[test]
        fn every_packet_lands_at_exactly_one_site(
            extra in proptest::collection::vec((0u8..=4, 1u8..=4), 0..6),
            protected_den in 1u8..=4,
            tolerant in (1u8..=4, 1u8..=4),
            bucket in (100u32..4_000, 1_000u32..8_000),
            capacity in 2usize..64,
            band in (0.0f64..0.6, 0.05f64..0.6, 0.0f64..=1.0, 0.002f64..=1.0),
            seed in any::<u64>(),
            ops in proptest::collection::vec((0u8..17, 0usize..64), 1..400),
        ) {
            let mut windows = vec![
                wc(0, protected_den),
                wc(tolerant.0.min(tolerant.1), tolerant.1),
            ];
            windows.extend(extra.iter().map(|&(num, den)| wc(num.min(den), den)));
            let (min_frac, width_frac, max_p, weight) = band;
            let min_th = capacity as f64 * min_frac;
            let red = RedConfig {
                min_th,
                max_th: min_th + capacity as f64 * width_frac,
                max_p,
                weight,
                capacity,
            };
            let config = GateConfig::from_windows(&windows, bucket.0, bucket.1, red, seed);
            let first = drive(&config, &ops);
            prop_assert_eq!(first, drive(&config, &ops), "same seed, same reasons");
        }
    }
}
