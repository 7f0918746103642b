//! Window-constraint-aware token-bucket admission.
//!
//! One bucket per stream, layered in front of the Queue Manager: an
//! arrival that finds no token is rejected *at admission* (never
//! enqueued), so downstream buffers hold only work the system intends to
//! serve. Tokens are integer millitokens — one packet costs
//! [`TOKEN_COST_MTOK`] — and refill once per packet-time.
//!
//! The DWCS coupling is in the refill, not the spend: each stream carries
//! a *protection* value, the per-mille mandatory fraction `(y−x)/y` of its
//! window constraint `x/y` (see `sharestreams::framework::DwcsRequest`). Under
//! pressure the controller divides the refill of poorly-protected
//! (loss-tolerant) streams by a power of two while fully-protected
//! streams keep their whole rate — which is exactly "streams with tighter
//! loss tolerance get shed last", enforced by arithmetic rather than by a
//! priority queue on the hot path.

use crate::pressure::PressureLevel;
use serde::{Deserialize, Serialize};
use ss_types::WindowConstraint;

/// Millitokens one admitted packet costs.
pub const TOKEN_COST_MTOK: u32 = 1_000;

/// Protection (‰) at or above which a stream is never squeezed.
pub const PROTECTED_PERMILLE: u16 = 750;

/// Protection (‰) at or above which a stream is squeezed gently (½ / ¼
/// refill instead of ¼ / ⅛) — the middle tier of the refill ladder.
pub const MID_PERMILLE: u16 = 500;

/// Per-stream admission parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamClass {
    /// Refill rate in millitokens per packet-time (1000 ≈ one packet per
    /// packet-time).
    pub rate_mtok: u32,
    /// Bucket depth in millitokens (burst tolerance).
    pub burst_mtok: u32,
    /// Mandatory fraction of the stream's window constraint, per-mille.
    pub protection: u16,
}

impl StreamClass {
    /// A class refilling `rate_mtok` with `burst_mtok` depth, protected
    /// according to `window`: protection = `(y − x) / y` per-mille. The
    /// zero constraint (no tolerated losses) is fully protected.
    pub fn from_window(rate_mtok: u32, burst_mtok: u32, window: WindowConstraint) -> Self {
        let protection = if window.is_zero() {
            1000
        } else {
            let num = u32::from(window.num.min(window.den));
            (((u32::from(window.den) - num) * 1000) / u32::from(window.den)) as u16
        };
        Self {
            rate_mtok,
            burst_mtok,
            protection,
        }
    }
}

/// Cumulative packet-times per pressure level, indexed by
/// [`AdmissionController::level_index`].
type LevelTicks = [u64; 3];

/// The pressure levels in [`AdmissionController::level_index`] order.
const LEVELS: [PressureLevel; 3] = [
    PressureLevel::Nominal,
    PressureLevel::Elevated,
    PressureLevel::Overloaded,
];

/// One stream's bucket: everything a settle reads and writes, side by
/// side.
#[derive(Debug, Clone)]
struct Bucket {
    /// The refill ladder, tabulated at construction: `rate_mtok >>
    /// refill_shift(level, protection)` per level, in `LEVELS` order.
    rates: [u32; 3],
    /// Bucket depth, millitokens.
    burst: u32,
    /// Bucket level as of the last sync, millitokens. Buckets start full
    /// so an initial burst up to the configured depth is admitted.
    tokens: u32,
    /// Snapshot of the controller's `level_ticks` at the last sync.
    synced: LevelTicks,
    admitted: u64,
}

impl Bucket {
    fn new(class: &StreamClass) -> Self {
        Self {
            rates: LEVELS.map(|level| {
                class.rate_mtok >> AdmissionController::refill_shift(level, class.protection)
            }),
            burst: class.burst_mtok,
            tokens: class.burst_mtok,
            synced: [0; 3],
            admitted: 0,
        }
    }

    /// The bucket level at per-level clocks `now`: the tokens as of the
    /// last sync plus every level's clock delta times that level's
    /// tabulated rate — ticks spent at level `l` always refill at `l`'s
    /// rate, no matter when the bucket settles them — capped at the burst
    /// depth. Multiply-adds only: no ladder branch, no data-dependent
    /// branch at all.
    // lint:hot-path
    #[inline]
    fn settled(&self, now: &LevelTicks) -> u32 {
        let mut level = u64::from(self.tokens);
        for ((&now, &synced), &rate) in now.iter().zip(&self.synced).zip(&self.rates) {
            level = level.saturating_add((now - synced).saturating_mul(u64::from(rate)));
        }
        level.min(u64::from(self.burst)) as u32
    }
}

/// Per-stream token buckets with pressure- and window-aware refill.
///
/// Refill is *lazy*: a tick only bumps one of three cumulative per-level
/// clocks (O(1) regardless of stream count), and each bucket settles the
/// elapsed refill the next time it is actually touched — the per-level
/// clock deltas since the bucket's last sync, each multiplied by that
/// level's ladder rate, tabulated per stream at construction. Because
/// tokens only ever leave a bucket through
/// [`AdmissionController::try_admit`] (which syncs first), capping at the
/// burst depth once at sync time is exactly equivalent to capping every
/// tick, so the lazy controller is bit-identical to the eager one while
/// removing the O(streams) sweep from every packet-time.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    classes: Vec<StreamClass>,
    buckets: Vec<Bucket>,
    /// Packet-times elapsed at each pressure level since construction.
    level_ticks: LevelTicks,
}

impl AdmissionController {
    /// A controller with one bucket per entry of `classes`, all starting
    /// full.
    pub fn new(classes: Vec<StreamClass>) -> Self {
        Self {
            buckets: classes.iter().map(Bucket::new).collect(),
            classes,
            level_ticks: [0; 3],
        }
    }

    /// The per-level clock slot a pressure level accumulates into.
    // lint:hot-path
    #[inline]
    fn level_index(level: PressureLevel) -> usize {
        match level {
            PressureLevel::Nominal => 0,
            PressureLevel::Elevated => 1,
            PressureLevel::Overloaded => 2,
        }
    }

    /// How much refill a stream with `protection` gets at `level`,
    /// expressed as a right-shift of its configured rate. The ladder:
    /// fully-protected streams are never squeezed; mid-tier streams halve
    /// then quarter; loss-tolerant streams quarter then eighth. Read once
    /// per stream and level, at construction: the buckets keep the rates
    /// it yields.
    pub fn refill_shift(level: PressureLevel, protection: u16) -> u32 {
        if protection >= PROTECTED_PERMILLE {
            return 0;
        }
        match level {
            PressureLevel::Nominal => 0,
            PressureLevel::Elevated => {
                if protection >= MID_PERMILLE {
                    1
                } else {
                    2
                }
            }
            PressureLevel::Overloaded => {
                if protection >= MID_PERMILLE {
                    2
                } else {
                    3
                }
            }
        }
    }

    /// One packet-time elapses at pressure `level`: bumps that level's
    /// cumulative clock. Every bucket's refill is settled lazily on its
    /// next touch, so this is O(1) in the stream count. Hot path:
    /// integer-only, no allocation, no panic.
    // lint:hot-path
    #[inline]
    pub fn tick(&mut self, level: PressureLevel) {
        self.level_ticks[Self::level_index(level)] += 1;
    }

    /// Tries to admit one packet for `stream`. `true` spends a token;
    /// `false` means the arrival must be rejected at admission (and the
    /// caller records it in the loss ledger). Out-of-range streams are
    /// rejected without panicking. Hot path.
    // lint:hot-path
    #[inline]
    pub fn try_admit(&mut self, stream: usize) -> bool {
        let Some(b) = self.buckets.get_mut(stream) else {
            return false;
        };
        // Settle the elapsed refill and re-anchor the sync snapshot.
        b.tokens = b.settled(&self.level_ticks);
        b.synced = self.level_ticks;
        let ok = b.tokens >= TOKEN_COST_MTOK;
        b.tokens -= if ok { TOKEN_COST_MTOK } else { 0 };
        b.admitted += u64::from(ok);
        ok
    }

    /// Packets admitted for `stream` so far.
    pub fn admitted(&self, stream: usize) -> u64 {
        self.buckets.get(stream).map_or(0, |b| b.admitted)
    }

    /// The configured class for `stream`.
    #[inline]
    pub fn class(&self, stream: usize) -> Option<&StreamClass> {
        self.classes.get(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wc(num: u8, den: u8) -> WindowConstraint {
        WindowConstraint::new(num, den)
    }

    #[test]
    fn protection_tracks_mandatory_fraction() {
        assert_eq!(
            StreamClass::from_window(1000, 1000, wc(0, 1)).protection,
            1000
        );
        assert_eq!(
            StreamClass::from_window(1000, 1000, wc(1, 4)).protection,
            750
        );
        assert_eq!(
            StreamClass::from_window(1000, 1000, wc(1, 2)).protection,
            500
        );
        assert_eq!(
            StreamClass::from_window(1000, 1000, wc(3, 4)).protection,
            250
        );
        // Degenerate inputs stay in range instead of underflowing.
        assert_eq!(StreamClass::from_window(1000, 1000, wc(9, 4)).protection, 0);
        assert_eq!(
            StreamClass::from_window(1000, 1000, WindowConstraint::ZERO).protection,
            1000
        );
    }

    #[test]
    fn admits_at_configured_rate() {
        let mut ac = AdmissionController::new(vec![StreamClass {
            rate_mtok: 500, // one packet every 2 packet-times
            burst_mtok: 1000,
            protection: 1000,
        }]);
        let mut admitted = 0;
        for _ in 0..100 {
            ac.tick(PressureLevel::Nominal);
            if ac.try_admit(0) {
                admitted += 1;
            }
        }
        // Starts full (1 burst token) + 50 refilled over 100 ticks.
        assert!((50..=51).contains(&admitted), "got {admitted}");
        assert_eq!(ac.admitted(0), admitted);
    }

    #[test]
    fn burst_depth_caps_idle_accumulation() {
        let mut ac = AdmissionController::new(vec![StreamClass {
            rate_mtok: 1000,
            burst_mtok: 3000,
            protection: 1000,
        }]);
        for _ in 0..50 {
            ac.tick(PressureLevel::Nominal);
        }
        // The bucket saturated at burst depth: three tokens, no more.
        assert_eq!(ac.buckets[0].settled(&ac.level_ticks), 3000);
        assert!(ac.try_admit(0) && ac.try_admit(0) && ac.try_admit(0));
        assert!(!ac.try_admit(0), "burst spent");
    }

    #[test]
    fn pressure_squeezes_tolerant_streams_first() {
        // Protected (0/1) vs tolerant (3/4) stream, same demand.
        let classes = vec![
            StreamClass::from_window(1000, 1000, wc(0, 1)),
            StreamClass::from_window(1000, 1000, wc(3, 4)),
        ];
        let mut ac = AdmissionController::new(classes);
        let mut served = [0u64; 2];
        for _ in 0..400 {
            ac.tick(PressureLevel::Overloaded);
            for (s, count) in served.iter_mut().enumerate() {
                if ac.try_admit(s) {
                    *count += 1;
                }
            }
        }
        assert!(
            served[0] >= 399,
            "protected stream keeps full rate, got {}",
            served[0]
        );
        // rate >> 3 = 125 mtok/tick ⇒ one packet every 8 ticks.
        assert!(
            (45..=60).contains(&served[1]),
            "tolerant stream squeezed to ~1/8, got {}",
            served[1]
        );
    }

    #[test]
    fn refill_shift_ladder() {
        use PressureLevel::*;
        assert_eq!(AdmissionController::refill_shift(Nominal, 0), 0);
        assert_eq!(AdmissionController::refill_shift(Elevated, 1000), 0);
        assert_eq!(AdmissionController::refill_shift(Elevated, 600), 1);
        assert_eq!(AdmissionController::refill_shift(Elevated, 100), 2);
        assert_eq!(AdmissionController::refill_shift(Overloaded, 600), 2);
        assert_eq!(AdmissionController::refill_shift(Overloaded, 100), 3);
        assert_eq!(AdmissionController::refill_shift(Overloaded, 800), 0);
    }

    #[test]
    fn lazy_refill_matches_eager_reference() {
        // A brute-force eager controller (the old per-tick sweep, reading
        // the ladder through `refill_shift` every tick) replayed against
        // the lazy one, which reads rates it tabulated at construction,
        // through pressure swings, bursty spends, and long idle gaps: every
        // admit verdict and every observable bucket level must agree. Three
        // hand-picked classes, then random ones in every protection tier
        // (fully protected, the PROTECTED and MID boundaries and either
        // side of them, unprotected) with rates and bursts up to u32::MAX.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut classes = vec![
            StreamClass::from_window(700, 2_500, wc(0, 1)),
            StreamClass::from_window(1_000, 4_000, wc(1, 2)),
            StreamClass::from_window(300, 1_000, wc(3, 4)),
        ];
        let tiers = [1000, 999, PROTECTED_PERMILLE, 749, MID_PERMILLE, 499, 0];
        for i in 0..28 {
            let mut mtok = || match rng() % 4 {
                0 => u32::MAX,
                1 => rng() as u32,
                2 => u32::MAX - (rng() % 8_000) as u32,
                _ => (rng() % 8_000) as u32,
            };
            classes.push(StreamClass {
                rate_mtok: mtok(),
                burst_mtok: mtok(),
                protection: tiers[i % tiers.len()],
            });
        }
        let mut lazy = AdmissionController::new(classes.clone());
        let mut eager_tokens: Vec<u32> = classes.iter().map(|c| c.burst_mtok).collect();
        let mut rejected = 0u64;
        for step in 0..4_000u64 {
            // Regular 250-tick phases, then a level drawn every tick.
            let phase = if step < 2_000 { step / 250 } else { rng() };
            let level = LEVELS[(phase % 3) as usize];
            lazy.tick(level);
            for (tokens, class) in eager_tokens.iter_mut().zip(&classes) {
                let refill =
                    class.rate_mtok >> AdmissionController::refill_shift(level, class.protection);
                *tokens = (u64::from(*tokens) + u64::from(refill)).min(u64::from(class.burst_mtok))
                    as u32;
            }
            for (s, tokens) in eager_tokens.iter_mut().enumerate() {
                // Idle gaps: every third stream only offers every 16th
                // packet-time.
                if s % 3 == 2 && step % 16 != 0 {
                    continue;
                }
                if rng() & 1 == 0 {
                    let eager_admit = if *tokens >= TOKEN_COST_MTOK {
                        *tokens -= TOKEN_COST_MTOK;
                        true
                    } else {
                        false
                    };
                    assert_eq!(
                        lazy.try_admit(s),
                        eager_admit,
                        "verdicts diverged at step {step} stream {s}"
                    );
                    rejected += u64::from(!eager_admit);
                }
            }
            // The settle `try_admit` runs agrees with the eager level,
            // idle streams included, without disturbing the sync state.
            for (s, &tokens) in eager_tokens.iter().enumerate() {
                assert_eq!(
                    lazy.buckets[s].settled(&lazy.level_ticks),
                    tokens,
                    "levels diverged at {step} stream {s}"
                );
            }
        }
        let admitted: u64 = (0..classes.len()).map(|s| lazy.admitted(s)).sum();
        assert!(admitted > 0 && rejected > 0);
    }

    #[test]
    fn out_of_range_stream_rejected_without_panic() {
        let mut ac = AdmissionController::new(vec![]);
        assert!(!ac.try_admit(7));
        assert_eq!(ac.admitted(7), 0);
    }
}
