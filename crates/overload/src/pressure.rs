//! Hierarchical backpressure: occupancy → pressure level, with hysteresis.
//!
//! The endsystem's loss points (SPSC rings, Queue Manager, fabric slot
//! queues) all share one shape: a bounded buffer whose occupancy says how
//! far offered load is outrunning service. [`PressureSignal`] folds those
//! occupancies into a three-level signal — [`PressureLevel::Nominal`],
//! [`PressureLevel::Elevated`], [`PressureLevel::Overloaded`] — that the
//! admission controller, the shedder, the Stream-processor ingest loop,
//! and the `ss-traffic` generators all consume.
//!
//! Oscillation is designed out twice over: each level boundary has a
//! *rise* threshold strictly above its *fall* threshold (classic
//! hysteresis band), and every transition starts a minimum-dwell countdown
//! during which further transitions are refused. A buffer hovering exactly
//! at a threshold therefore holds its level instead of chattering.
//!
//! [`SharedPressure`] is the cross-thread form: the monitor publishes the
//! level into one atomic; producers read it with a relaxed load (the
//! signal is advisory and monotonic between observations — a stale read
//! only delays throttling by a cycle).

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// How hard the endsystem is being pushed, coarsely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PressureLevel {
    /// Offered load fits: no throttling, full refill everywhere.
    Nominal,
    /// Buffers are filling: loss-tolerant streams get squeezed first.
    Elevated,
    /// Sustained overload: shed actively, throttle ingest hard.
    Overloaded,
}

impl PressureLevel {
    /// Dense encoding for the shared atomic.
    #[inline]
    pub fn as_u8(self) -> u8 {
        match self {
            PressureLevel::Nominal => 0,
            PressureLevel::Elevated => 1,
            PressureLevel::Overloaded => 2,
        }
    }

    /// Inverse of [`PressureLevel::as_u8`]; unknown encodings saturate to
    /// `Overloaded` (fail safe: an implausible wire value throttles rather
    /// than floods).
    #[inline]
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => PressureLevel::Nominal,
            1 => PressureLevel::Elevated,
            _ => PressureLevel::Overloaded,
        }
    }
}

/// Hysteresis thresholds, in per-mille of buffer capacity.
///
/// Invariant (checked at construction): each `fall_*` sits strictly below
/// its `rise_*`, so every level boundary has a dead band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PressureConfig {
    /// Occupancy (‰) at or above which Nominal → Elevated.
    pub rise_elevated: u32,
    /// Occupancy (‰) at or below which Elevated → Nominal.
    pub fall_elevated: u32,
    /// Occupancy (‰) at or above which Elevated → Overloaded.
    pub rise_overloaded: u32,
    /// Occupancy (‰) at or below which Overloaded → Elevated.
    pub fall_overloaded: u32,
    /// Cycles a new level must be held before the next transition.
    pub min_dwell: u32,
}

impl Default for PressureConfig {
    /// Rise at 50% / 85%, fall at 30% / 60%, dwell 8 cycles.
    fn default() -> Self {
        Self {
            rise_elevated: 500,
            fall_elevated: 300,
            rise_overloaded: 850,
            fall_overloaded: 600,
            min_dwell: 8,
        }
    }
}

/// The single-owner pressure state machine.
#[derive(Debug, Clone)]
pub struct PressureSignal {
    config: PressureConfig,
    level: PressureLevel,
    /// Cycles remaining before another transition is allowed.
    dwell: u32,
    transitions: u64,
}

impl PressureSignal {
    /// A signal starting at [`PressureLevel::Nominal`].
    ///
    /// # Panics
    /// Panics if a fall threshold is not strictly below its rise threshold
    /// (the configuration would oscillate by construction).
    pub fn new(config: PressureConfig) -> Self {
        assert!(
            config.fall_elevated < config.rise_elevated
                && config.fall_overloaded < config.rise_overloaded,
            "hysteresis needs fall < rise on both boundaries"
        );
        Self {
            config,
            level: PressureLevel::Nominal,
            dwell: 0,
            transitions: 0,
        }
    }

    /// Current level.
    // lint:hot-path
    #[inline]
    pub fn level(&self) -> PressureLevel {
        self.level
    }

    /// Level transitions so far (a bounded count is the no-oscillation
    /// evidence the soak asserts on).
    /// Tests-only: `run_threaded_overload` reports it for `tests/conformance.rs`.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Feeds one occupancy observation (`occupied` of `capacity` slots)
    /// and returns the — possibly updated — level. An observation inside
    /// a dwell window only counts the window down, so it returns before
    /// the occupancy is divided out. Hot path: integer-only, no
    /// allocation, no panic (`capacity == 0` reads as empty).
    // lint:hot-path
    #[inline]
    pub fn observe(&mut self, occupied: usize, capacity: usize) -> PressureLevel {
        if self.dwell > 0 {
            self.dwell -= 1;
            return self.level;
        }
        let permille = if capacity == 0 {
            0
        } else {
            ((occupied.min(capacity) as u64 * 1000) / capacity as u64) as u32
        };
        let next = match self.level {
            PressureLevel::Nominal => {
                if permille >= self.config.rise_overloaded {
                    PressureLevel::Overloaded
                } else if permille >= self.config.rise_elevated {
                    PressureLevel::Elevated
                } else {
                    PressureLevel::Nominal
                }
            }
            PressureLevel::Elevated => {
                if permille >= self.config.rise_overloaded {
                    PressureLevel::Overloaded
                } else if permille <= self.config.fall_elevated {
                    PressureLevel::Nominal
                } else {
                    PressureLevel::Elevated
                }
            }
            PressureLevel::Overloaded => {
                if permille <= self.config.fall_elevated {
                    PressureLevel::Nominal
                } else if permille <= self.config.fall_overloaded {
                    PressureLevel::Elevated
                } else {
                    PressureLevel::Overloaded
                }
            }
        };
        if next != self.level {
            self.level = next;
            self.dwell = self.config.min_dwell;
            self.transitions += 1;
        }
        self.level
    }
}

impl Default for PressureSignal {
    fn default() -> Self {
        Self::new(PressureConfig::default())
    }
}

/// The cross-thread mirror of a [`PressureSignal`]: one atomic level,
/// published by the monitor side, polled by producers and generators.
///
/// All accesses are `Relaxed`: the signal is advisory — readers only
/// modulate their own pacing — so no cross-thread data is published
/// *through* it and no ordering edge is needed.
#[derive(Debug, Default)]
pub struct SharedPressure {
    level: AtomicU8,
    publishes: AtomicU64,
}

impl SharedPressure {
    /// A shared signal starting at [`PressureLevel::Nominal`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes `level` (monitor side).
    // lint:hot-path
    #[inline]
    pub fn publish(&self, level: PressureLevel) {
        self.level.store(level.as_u8(), Ordering::Relaxed);
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads the current level (producer side).
    // lint:hot-path
    #[inline]
    pub fn level(&self) -> PressureLevel {
        PressureLevel::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Total publishes (diagnostics).
    /// Tests-only: the `shared-pressure` interleave model and `gate.rs`'s one-store-per-transition
    /// test read it.
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// A deterministic pacing hint for ingest loops: how many arrivals to
    /// *hold back* out of every 4 offered at this pressure level (0, 1, or
    /// 3). Pure function so producer throttling replays bit-identically.
    // lint:hot-path
    #[inline]
    pub fn holdback_per_4(level: PressureLevel) -> u32 {
        match level {
            PressureLevel::Nominal => 0,
            PressureLevel::Elevated => 1,
            PressureLevel::Overloaded => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PressureConfig {
        PressureConfig {
            min_dwell: 0,
            ..PressureConfig::default()
        }
    }

    #[test]
    fn rises_and_falls_with_occupancy() {
        let mut p = PressureSignal::new(quick());
        assert_eq!(p.observe(10, 100), PressureLevel::Nominal);
        assert_eq!(p.observe(55, 100), PressureLevel::Elevated);
        assert_eq!(p.observe(90, 100), PressureLevel::Overloaded);
        assert_eq!(p.observe(61, 100), PressureLevel::Overloaded, "above fall");
        assert_eq!(p.observe(60, 100), PressureLevel::Elevated);
        assert_eq!(p.observe(30, 100), PressureLevel::Nominal);
    }

    #[test]
    fn hysteresis_band_prevents_chatter() {
        let mut p = PressureSignal::new(quick());
        p.observe(55, 100);
        assert_eq!(p.level(), PressureLevel::Elevated);
        // Hover in the dead band (between fall=30% and rise=50%): the
        // level must hold, transitions must not accumulate.
        let before = p.transitions();
        for _ in 0..1000 {
            assert_eq!(p.observe(40, 100), PressureLevel::Elevated);
        }
        assert_eq!(p.transitions(), before);
    }

    #[test]
    fn dwell_blocks_immediate_reversal() {
        let mut p = PressureSignal::new(PressureConfig {
            min_dwell: 4,
            ..PressureConfig::default()
        });
        assert_eq!(p.observe(55, 100), PressureLevel::Elevated);
        // Occupancy collapses at once, but the dwell holds the level.
        for _ in 0..4 {
            assert_eq!(p.observe(0, 100), PressureLevel::Elevated);
        }
        assert_eq!(p.observe(0, 100), PressureLevel::Nominal);
        assert_eq!(p.transitions(), 2);
    }

    #[test]
    fn oscillating_input_produces_bounded_transitions() {
        let mut p = PressureSignal::new(PressureConfig {
            min_dwell: 8,
            ..PressureConfig::default()
        });
        // Square-wave occupancy across both thresholds: without dwell this
        // would transition every observation; with it, at most 1 per 9.
        for i in 0..900u32 {
            p.observe(if i % 2 == 0 { 95 } else { 5 }, 100);
        }
        assert!(
            p.transitions() <= 100,
            "dwell must bound flapping, got {}",
            p.transitions()
        );
    }

    /// `observe` as it was before it returned on dwell first: the
    /// occupancy divided out on every call, dwell or not.
    fn divide_first(p: &mut PressureSignal, occupied: usize, capacity: usize) -> PressureLevel {
        let permille = if capacity == 0 {
            0
        } else {
            ((occupied.min(capacity) as u64 * 1000) / capacity as u64) as u32
        };
        if p.dwell > 0 {
            p.dwell -= 1;
            return p.level;
        }
        let c = p.config;
        let next = match p.level {
            PressureLevel::Nominal if permille >= c.rise_overloaded => PressureLevel::Overloaded,
            PressureLevel::Nominal if permille >= c.rise_elevated => PressureLevel::Elevated,
            PressureLevel::Elevated if permille >= c.rise_overloaded => PressureLevel::Overloaded,
            PressureLevel::Elevated if permille <= c.fall_elevated => PressureLevel::Nominal,
            PressureLevel::Overloaded if permille <= c.fall_elevated => PressureLevel::Nominal,
            PressureLevel::Overloaded if permille <= c.fall_overloaded => PressureLevel::Elevated,
            level => level,
        };
        if next != p.level {
            p.level = next;
            p.dwell = c.min_dwell;
            p.transitions += 1;
        }
        p.level
    }

    /// Dwell-first equals divide-first, exhaustively: every capacity in
    /// 0..=130 (the zero-capacity case and every divisor of the ‰ scale
    /// up to it), every occupancy up to twice the capacity, swept up and
    /// back down so all three levels and every transition are reached,
    /// under dwell windows of 0, 1, 3 and the default 8.
    #[test]
    fn dwell_first_observe_equals_divide_first() {
        for min_dwell in [0, 1, 3, 8] {
            let config = PressureConfig {
                min_dwell,
                ..PressureConfig::default()
            };
            for capacity in 0..=130usize {
                let (mut fast, mut oracle) =
                    (PressureSignal::new(config), PressureSignal::new(config));
                let up = 0..=2 * capacity;
                for occupied in up.clone().chain(up.rev()) {
                    assert_eq!(
                        fast.observe(occupied, capacity),
                        divide_first(&mut oracle, occupied, capacity),
                        "dwell {min_dwell}, {occupied}/{capacity}"
                    );
                    assert_eq!(
                        (fast.dwell, fast.transitions),
                        (oracle.dwell, oracle.transitions)
                    );
                }
            }
        }
    }

    #[test]
    fn zero_capacity_reads_empty() {
        let mut p = PressureSignal::new(quick());
        assert_eq!(p.observe(10, 0), PressureLevel::Nominal);
    }

    #[test]
    fn shared_round_trips_levels() {
        let s = SharedPressure::new();
        assert_eq!(s.level(), PressureLevel::Nominal);
        s.publish(PressureLevel::Overloaded);
        assert_eq!(s.level(), PressureLevel::Overloaded);
        s.publish(PressureLevel::Elevated);
        assert_eq!(s.level(), PressureLevel::Elevated);
        assert_eq!(s.publishes(), 2);
        assert_eq!(PressureLevel::from_u8(250), PressureLevel::Overloaded);
    }

    #[test]
    fn holdback_is_monotone_in_level() {
        assert_eq!(SharedPressure::holdback_per_4(PressureLevel::Nominal), 0);
        assert_eq!(SharedPressure::holdback_per_4(PressureLevel::Elevated), 1);
        assert_eq!(SharedPressure::holdback_per_4(PressureLevel::Overloaded), 3);
    }

    #[test]
    #[should_panic(expected = "fall < rise")]
    fn inverted_band_rejected() {
        PressureSignal::new(PressureConfig {
            rise_elevated: 300,
            fall_elevated: 500,
            ..PressureConfig::default()
        });
    }
}
