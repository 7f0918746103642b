//! Random Early Detection queue management.
//!
//! The paper's §5.2 comparison point — Cisco's GSR 12000 line card — pairs
//! DRR scheduling with RED queue management. This is the classic
//! Floyd/Jacobson algorithm: an EWMA of queue occupancy, no drops below
//! `min_th`, forced drops above `max_th`, and a linearly rising drop
//! probability in between (with the standard count-based spreading that
//! avoids drop bursts). Deterministic via a seeded RNG.
//!
//! Two fidelity points worth naming because regressions here are silent:
//!
//! * the drop probability is computed from the **EWMA average**, never the
//!   instantaneous depth — [`early_drop_probability`] is the single place
//!   the curve lives, and a regression test pins its exact values;
//! * the average **decays across idle time** per the paper's `(1−w)^m`
//!   rule ([`RedQueue::idle_tick`] supplies the packet-time clock). An
//!   EWMA updated only at arrivals would stay stale-high after the queue
//!   drains and keep early-dropping a freshly idle queue.
//!
//! Beyond the classic role, this queue is the *probabilistic front end* of
//! the overload shedder: [`crate::Gate`] keeps its backlog here and treats
//! Early/Forced verdicts as shed proposals, which the QoS-aware back end
//! may veto for protected streams (admitting via
//! [`RedQueue::push_unchecked`] to keep the backlog exact).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// RED parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RedConfig {
    /// No drops while the average queue is below this depth.
    pub min_th: f64,
    /// All arrivals dropped while the average is above this depth.
    pub max_th: f64,
    /// Drop probability as the average reaches `max_th`.
    pub max_p: f64,
    /// EWMA weight for the queue average (classic value: 0.002).
    pub weight: f64,
    /// Hard capacity (tail drop backstop).
    pub capacity: usize,
}

impl RedConfig {
    /// Classic gentle defaults for a queue of `capacity` packets.
    pub fn classic(capacity: usize) -> Self {
        Self {
            min_th: capacity as f64 * 0.25,
            max_th: capacity as f64 * 0.75,
            max_p: 0.1,
            weight: 0.002,
            capacity,
        }
    }
}

/// The classic RED early-drop curve, as a pure function of the
/// configuration, the EWMA queue average, and the packets enqueued since
/// the last drop (Floyd/Jacobson count-based spreading).
///
/// * `avg <= min_th` → `0.0` (no early drops);
/// * `avg >= max_th` → `1.0` (the forced-drop region);
/// * in between: `p_b = max_p · (avg − min_th)/(max_th − min_th)`,
///   spread to `p_a = p_b / (1 − count · p_b)` (saturating at `1.0` once
///   the spread denominator reaches zero).
///
/// This is the *only* place the curve lives — [`RedQueue::offer`] calls
/// it, and the `curve_is_pinned` regression test locks its exact values
/// so a refactor cannot silently bend the drop profile.
#[inline]
pub fn early_drop_probability(config: &RedConfig, avg: f64, count_since_drop: u64) -> f64 {
    if avg <= config.min_th {
        return 0.0;
    }
    if avg >= config.max_th {
        return 1.0;
    }
    let base = config.max_p * (avg - config.min_th) / (config.max_th - config.min_th);
    let spread = 1.0 - count_since_drop as f64 * base;
    if spread <= 0.0 {
        1.0
    } else {
        (base / spread).min(1.0)
    }
}

/// Why an arrival was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RedVerdict {
    /// Accepted into the queue.
    Enqueued,
    /// Probabilistically dropped (early detection).
    EarlyDrop,
    /// Dropped because the average exceeded `max_th`.
    ForcedDrop,
    /// Dropped because the physical queue is full.
    TailDrop,
}

/// A RED-managed FIFO.
#[derive(Debug)]
pub struct RedQueue<T> {
    config: RedConfig,
    queue: VecDeque<T>,
    avg: f64,
    /// Packets enqueued since the last early drop (drop spreading).
    count_since_drop: u64,
    /// Empty packet-times observed since the last arrival; folded into the
    /// EWMA as `(1-w)^m` on the next arrival.
    idle_pending: u64,
    rng: StdRng,
}

impl<T> RedQueue<T> {
    /// Creates a RED queue with a deterministic seed. The buffer is sized
    /// to `config.capacity` here, so filling it never allocates.
    ///
    /// # Panics
    /// Panics on inconsistent thresholds.
    pub fn new(config: RedConfig, seed: u64) -> Self {
        assert!(
            config.min_th >= 0.0 && config.min_th < config.max_th,
            "need 0 <= min_th < max_th"
        );
        assert!(
            (0.0..=1.0).contains(&config.max_p),
            "max_p must be a probability"
        );
        assert!(config.capacity > 0, "capacity must be positive");
        Self {
            config,
            queue: VecDeque::with_capacity(config.capacity),
            avg: 0.0,
            count_since_drop: 0,
            idle_pending: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Instantaneous depth.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Advances the packet-time clock across a cycle with no arrival.
    /// Counted only while the queue is physically empty — that is the idle
    /// period the classic algorithm decays the average over. Cheap enough
    /// to call every scheduler cycle unconditionally. Hot path.
    // lint:hot-path
    #[inline]
    pub fn idle_tick(&mut self) {
        if self.queue.is_empty() {
            self.idle_pending = self.idle_pending.saturating_add(1);
        }
    }

    /// Folds any accumulated idle time into the average: `avg ← avg·(1−w)^m`
    /// for `m` empty packet-times (Floyd/Jacobson idle-period rule).
    #[inline]
    fn decay_idle(&mut self) {
        if self.idle_pending > 0 {
            let m = self.idle_pending.min(i32::MAX as u64) as i32;
            self.avg *= (1.0 - self.config.weight).powi(m);
            self.idle_pending = 0;
        }
    }

    /// Offers an item, returning the RED verdict. The item is stored only
    /// on [`RedVerdict::Enqueued`]. Hot path.
    // lint:hot-path
    #[inline]
    pub fn offer(&mut self, item: T) -> RedVerdict {
        // Idle decay first, then the EWMA update on every arrival.
        self.decay_idle();
        self.avg += self.config.weight * (self.queue.len() as f64 - self.avg);

        if self.queue.len() >= self.config.capacity {
            return RedVerdict::TailDrop;
        }
        if self.avg >= self.config.max_th {
            self.count_since_drop = 0;
            return RedVerdict::ForcedDrop;
        }
        if self.avg > self.config.min_th {
            let p = early_drop_probability(&self.config, self.avg, self.count_since_drop);
            self.count_since_drop += 1;
            if self.rng.gen_range(0.0..1.0) < p {
                self.count_since_drop = 0;
                return RedVerdict::EarlyDrop;
            }
        } else {
            self.count_since_drop = 0;
        }
        self.queue.push_back(item);
        RedVerdict::Enqueued
    }

    /// Enqueues an item the RED verdict already rejected, without touching
    /// the EWMA (the paired [`RedQueue::offer`] for this arrival updated it
    /// already). The overload gate uses this when the QoS-aware back end
    /// vetoes a RED drop proposal for a protected stream. Only the hard
    /// capacity backstop still applies; returns `false` when physically
    /// full. Hot path.
    // lint:hot-path
    #[inline]
    pub fn push_unchecked(&mut self, item: T) -> bool {
        if self.queue.len() >= self.config.capacity {
            return false;
        }
        self.queue.push_back(item);
        true
    }

    /// Dequeues the head. Hot path.
    // lint:hot-path
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RedConfig {
        RedConfig {
            min_th: 10.0,
            max_th: 30.0,
            max_p: 0.1,
            weight: 0.2,
            capacity: 64,
        }
    }

    #[test]
    fn no_drops_below_min_threshold() {
        let mut q = RedQueue::new(cfg(), 1);
        for i in 0..8 {
            assert_eq!(q.offer(i), RedVerdict::Enqueued);
        }
    }

    #[test]
    fn forced_drops_above_max_threshold() {
        let mut q = RedQueue::new(cfg(), 1);
        // Fill well past max_th without draining so the EWMA climbs.
        let mut forced = 0;
        for i in 0..200 {
            if q.offer(i) == RedVerdict::ForcedDrop {
                forced += 1;
            }
        }
        assert!(forced > 0, "EWMA must cross max_th");
        assert!(q.avg > 30.0 * 0.8);
    }

    #[test]
    fn early_drops_between_thresholds() {
        let mut q = RedQueue::new(cfg(), 42);
        let mut early = 0;
        let mut accepted = 0;
        // Hold occupancy between thresholds: drain one per offer once deep.
        for i in 0..2000 {
            if q.len() > 18 {
                q.pop();
            }
            match q.offer(i) {
                RedVerdict::EarlyDrop => early += 1,
                RedVerdict::Enqueued => accepted += 1,
                _ => {}
            }
        }
        assert!(early > 0, "some early drops expected");
        assert!(
            accepted > early * 3,
            "drops must stay probabilistic, not dominant"
        );
    }

    #[test]
    fn tail_drop_backstop() {
        // Tiny weight keeps the EWMA low while the real queue fills: the
        // hard capacity must still protect memory.
        let config = RedConfig {
            weight: 1e-9,
            ..cfg()
        };
        let mut q = RedQueue::new(config, 1);
        let mut tail = 0;
        for i in 0..100 {
            if q.offer(i) == RedVerdict::TailDrop {
                tail += 1;
            }
        }
        assert_eq!(q.len(), 64);
        assert_eq!(tail, 36);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut q = RedQueue::new(cfg(), seed);
            let mut verdicts = Vec::new();
            for i in 0..500 {
                if q.len() > 15 {
                    q.pop();
                }
                verdicts.push(q.offer(i));
            }
            verdicts
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn ewma_tracks_occupancy() {
        let mut q = RedQueue::new(
            RedConfig {
                weight: 0.5,
                ..cfg()
            },
            1,
        );
        for i in 0..5 {
            q.offer(i);
        }
        assert!(q.avg > 0.9 && q.avg < 5.0);
        for _ in 0..5 {
            q.pop();
        }
        for i in 0..3 {
            q.offer(i); // EWMA decays toward the now-small queue
        }
        assert!(q.avg < 4.0);
    }

    #[test]
    fn curve_is_pinned() {
        // Regression pin on the exact drop curve: min_th 10, max_th 30,
        // max_p 0.1. Any change to these values is a behavior change to
        // RED and must be deliberate.
        let c = cfg();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        // Below/at min_th: never drops, regardless of count.
        assert_eq!(early_drop_probability(&c, 0.0, 0), 0.0);
        assert_eq!(early_drop_probability(&c, 10.0, 999), 0.0);
        // At/above max_th: certain drop (forced region).
        assert_eq!(early_drop_probability(&c, 30.0, 0), 1.0);
        assert_eq!(early_drop_probability(&c, 100.0, 0), 1.0);
        // Midpoint: p_b = 0.1 * (20-10)/(30-10) = 0.05.
        assert!(close(early_drop_probability(&c, 20.0, 0), 0.05));
        // Count-based spreading: p_a = p_b / (1 - count*p_b).
        assert!(close(early_drop_probability(&c, 20.0, 10), 0.1));
        assert!(close(early_drop_probability(&c, 25.0, 4), 0.075 / 0.7));
        // Spread denominator hits zero: saturate at certainty.
        assert_eq!(early_drop_probability(&c, 20.0, 19), 1.0);
        assert_eq!(early_drop_probability(&c, 20.0, 20), 1.0);
        assert_eq!(early_drop_probability(&c, 20.0, 10_000), 1.0);
        // Quarter point: p_b = 0.1 * 5/20 = 0.025.
        assert!(close(early_drop_probability(&c, 15.0, 0), 0.025));
        // Probability from the EWMA average, never instantaneous depth:
        // the curve is a pure function of (config, avg, count) only.
        assert_eq!(
            early_drop_probability(&c, 20.0, 3).to_bits(),
            early_drop_probability(&c, 20.0, 3).to_bits()
        );
    }

    #[test]
    fn idle_decay_follows_one_minus_w_pow_m() {
        let mut q = RedQueue::new(cfg(), 1);
        for i in 0..5 {
            q.offer(i);
        }
        while q.pop().is_some() {}
        let before = q.avg;
        assert!(before > 0.0);
        for _ in 0..10 {
            q.idle_tick();
        }
        // Decay is lazy: folded in at the next arrival, before the EWMA
        // update. avg' = before * 0.8^10, then EWMA toward len=0 gives one
        // more factor of (1 - w).
        q.offer(99);
        let expected = before * 0.8f64.powi(11);
        assert!(
            (q.avg - expected).abs() < 1e-12,
            "avg {} != expected {expected}",
            q.avg
        );
    }

    #[test]
    fn idle_ticks_ignored_while_queue_occupied() {
        let mut a = RedQueue::new(cfg(), 1);
        let mut b = RedQueue::new(cfg(), 1);
        for i in 0..5 {
            a.offer(i);
            b.offer(i);
            // Queue is non-empty: these must not count as idle time.
            b.idle_tick();
            b.idle_tick();
        }
        assert_eq!(a.avg.to_bits(), b.avg.to_bits());
    }

    #[test]
    fn stale_average_recovers_after_idle_period() {
        // Drive the EWMA above max_th, drain the queue, and let it sit
        // idle. The arrival-only EWMA (the old behavior) keeps forced-
        // dropping a freshly idle queue; the idle-period decay must not.
        let run = |ticks: u32| {
            let mut q = RedQueue::new(cfg(), 3);
            // Saturate the physical queue, then let tail-dropped offers
            // converge the EWMA to capacity (64), well above max_th (30).
            for i in 0..64 {
                q.push_unchecked(i);
            }
            for i in 0..300 {
                q.offer(i);
            }
            assert!(q.avg > 60.0, "setup: EWMA must sit near capacity");
            while q.pop().is_some() {}
            for _ in 0..ticks {
                q.idle_tick();
            }
            q.offer(999)
        };
        assert_eq!(run(0), RedVerdict::ForcedDrop, "stale average still drops");
        assert_eq!(run(100), RedVerdict::Enqueued, "idle decay clears it");
    }

    #[test]
    fn push_unchecked_bypasses_red_but_not_capacity() {
        let mut q = RedQueue::new(cfg(), 1);
        for i in 0..64 {
            assert!(q.push_unchecked(i));
        }
        // EWMA untouched: this path is the post-offer veto companion.
        assert_eq!(q.avg, 0.0);
        assert!(!q.push_unchecked(64), "hard capacity still applies");
        assert_eq!(q.len(), 64);
    }

    #[test]
    #[should_panic(expected = "min_th < max_th")]
    fn bad_thresholds_rejected() {
        RedQueue::<u8>::new(
            RedConfig {
                min_th: 30.0,
                max_th: 10.0,
                max_p: 0.1,
                weight: 0.1,
                capacity: 8,
            },
            0,
        );
    }
}
