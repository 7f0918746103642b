//! Composable scenario generators: the offered-load side of the cluster
//! simulation.
//!
//! A [`ScenarioSpec`] is a small, fully serializable description of *what
//! load looks like* — shape, intensity, and class mix — and a [`Scenario`]
//! is its compiled per-node runtime form (weight tables and window
//! constraints, built once, read on the hot path). Five shapes cover the
//! regimes the robustness literature cares about:
//!
//! * **steady** — constant aggregate rate, uniform slot weights; the
//!   control case every other shape is compared against.
//! * **flash-crowd** — a steady baseline with a ramp → hold → decay spike
//!   (the "everyone clicks the same link" regime).
//! * **diurnal** — a triangle wave between base and peak, period
//!   `phase_ticks` (a day compressed to a soak horizon).
//! * **elephant-mice** — steady aggregate but `skew_permille` of it lands
//!   on the first quarter of the slots (heavy-tailed flow mixes).
//! * **wimax** — four service-class groups in the spirit of 802.16
//!   scheduling surveys: UGS slots are fully protected (0/1 windows),
//!   rtPS tight (1/4), nrtPS mid (1/2), BE loose (3/4), with admission
//!   rates graded to match.
//!
//! Arrival sampling is a pure function of `(seed, node, tick, slot
//! table)`: each `(node, tick)` pair gets its own keyed SplitMix64 stream,
//! so nodes can be stepped in any order — or on any number of threads —
//! and the drawn counts are bit-identical. Intensities are integer
//! per-mille (1000 = one expected arrival per node per tick); fractional
//! expectations resolve by one Bernoulli draw per slot.
//!
//! One draw loop serves two views of a tick: [`Scenario::sample_arrivals`]
//! writes each slot's count (`whole + bit`), and [`Scenario::sample_mask`]
//! hands the node the same draws as slot sets — the Bernoulli bits as one
//! `u32`, the slots with whole arrivals as another — so a tick at 2× load
//! visits only the slots that drew something. Slot sets are words because
//! slot IDs are the fabric's 5-bit field: a scenario over more than 32
//! slots is unsupported (the cluster refuses that topology first).

use serde::{Deserialize, Serialize};
use ss_faults::rng::{mix, SplitMix64};
use ss_types::{WindowConstraint, MAX_SLOTS};

/// The load shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// Constant rate, uniform slots.
    Steady,
    /// Baseline with a ramp/hold/decay spike at `phase_ticks`.
    FlashCrowd,
    /// Triangle wave between base and peak with period `phase_ticks`.
    Diurnal,
    /// Steady aggregate, heavy-tailed slot weights.
    ElephantMice,
    /// WiMAX-style UGS/rtPS/nrtPS/BE service-class groups.
    Wimax,
}

impl ScenarioKind {
    /// Stable textual name (the `parse` keyword).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Steady => "steady",
            ScenarioKind::FlashCrowd => "flash-crowd",
            ScenarioKind::Diurnal => "diurnal",
            ScenarioKind::ElephantMice => "elephant-mice",
            ScenarioKind::Wimax => "wimax",
        }
    }
}

/// A scenario description: pure data, round-trips through
/// [`ScenarioSpec::parse`] / [`std::fmt::Display`] so a repro command can
/// carry it as one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Load shape.
    pub kind: ScenarioKind,
    /// Baseline intensity, per-mille arrivals per node per tick
    /// (2000 = 2× a one-decision-per-tick service rate).
    pub base_permille: u32,
    /// Peak intensity for shapes with one (flash crowd, diurnal).
    pub peak_permille: u32,
    /// Shape phase: flash-crowd onset tick / diurnal period.
    pub phase_ticks: u64,
    /// Flash-crowd spike width (ramp + hold + decay take 2×this).
    pub width_ticks: u64,
    /// Elephant share (‰ of aggregate on the first quarter of slots).
    pub skew_permille: u32,
}

impl ScenarioSpec {
    /// A steady scenario at `base_permille`.
    pub fn steady(base_permille: u32) -> Self {
        Self {
            kind: ScenarioKind::Steady,
            base_permille,
            peak_permille: base_permille,
            phase_ticks: 0,
            width_ticks: 0,
            skew_permille: 0,
        }
    }

    /// Parses `"kind"` or `"kind:key=val,key=val"` — keys `rate` (base
    /// ‰), `peak`, `at` (phase ticks), `width`, `skew`. Unknown kinds or
    /// keys are errors so a mistyped repro command fails loudly.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (kind_s, rest) = match s.split_once(':') {
            Some((k, r)) => (k, Some(r)),
            None => (s, None),
        };
        let kind = match kind_s {
            "steady" => ScenarioKind::Steady,
            "flash-crowd" => ScenarioKind::FlashCrowd,
            "diurnal" => ScenarioKind::Diurnal,
            "elephant-mice" => ScenarioKind::ElephantMice,
            "wimax" => ScenarioKind::Wimax,
            other => return Err(format!("unknown scenario kind {other:?}")),
        };
        let mut spec = Self::steady(1000);
        spec.kind = kind;
        // Shape-appropriate defaults; explicit keys override.
        match kind {
            ScenarioKind::FlashCrowd => {
                spec.peak_permille = 3000;
                spec.phase_ticks = 2000;
                spec.width_ticks = 1000;
            }
            ScenarioKind::Diurnal => {
                spec.peak_permille = 2000;
                spec.phase_ticks = 8000;
            }
            ScenarioKind::ElephantMice => spec.skew_permille = 700,
            ScenarioKind::Steady | ScenarioKind::Wimax => {}
        }
        if let Some(rest) = rest {
            for kv in rest.split(',').filter(|kv| !kv.is_empty()) {
                let (key, val) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("scenario key {kv:?} is not key=value"))?;
                let n: u64 = val
                    .parse()
                    .map_err(|_| format!("scenario value {val:?} is not an integer"))?;
                match key {
                    "rate" => spec.base_permille = n as u32,
                    "peak" => spec.peak_permille = n as u32,
                    "at" => spec.phase_ticks = n,
                    "width" => spec.width_ticks = n,
                    "skew" => spec.skew_permille = n as u32,
                    other => return Err(format!("unknown scenario key {other:?}")),
                }
            }
        }
        if spec.base_permille == 0 {
            return Err("scenario rate must be > 0".into());
        }
        if matches!(kind, ScenarioKind::Diurnal) && spec.phase_ticks < 2 {
            return Err("diurnal period must be ≥ 2 ticks".into());
        }
        if spec.skew_permille > 1000 {
            return Err("skew is per-mille (0..=1000)".into());
        }
        Ok(spec)
    }
}

impl std::fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:rate={}", self.kind.name(), self.base_permille)?;
        match self.kind {
            ScenarioKind::FlashCrowd => write!(
                f,
                ",peak={},at={},width={}",
                self.peak_permille, self.phase_ticks, self.width_ticks
            ),
            ScenarioKind::Diurnal => {
                write!(f, ",peak={},at={}", self.peak_permille, self.phase_ticks)
            }
            ScenarioKind::ElephantMice => write!(f, ",skew={}", self.skew_permille),
            ScenarioKind::Steady | ScenarioKind::Wimax => Ok(()),
        }
    }
}

/// The compiled runtime form: per-slot weight table (‰ of the aggregate,
/// sums to exactly 1000) and per-slot window constraints, built once so
/// the per-tick sampler allocates nothing.
#[derive(Debug, Clone)]
pub struct Scenario {
    spec: ScenarioSpec,
    /// Per-slot share of the aggregate intensity, ‰. Sums to 1000.
    weights: Vec<u32>,
    /// Per-slot DWCS window constraints (the class mix).
    windows: Vec<WindowConstraint>,
    /// Per-slot `(whole, frac)` split of the expected arrivals at
    /// `base_permille` — the intensity of every tick of three shapes and
    /// of every off-spike tick of the other two — so the sampler divides
    /// only on the ticks whose intensity differs.
    base_split: Vec<(u32, u32)>,
}

/// Expected arrivals of one slot, ×10⁶ = intensity(‰) × weight(‰), split
/// into whole arrivals and the Bernoulli remainder.
#[inline]
fn split_micro(intensity: u32, weight: u32) -> (u32, u32) {
    let expect_micro = u64::from(intensity) * u64::from(weight);
    (
        (expect_micro / 1_000_000) as u32,
        (expect_micro % 1_000_000) as u32,
    )
}

impl Scenario {
    /// Compiles `spec` for `slots` slots per node. More than 32 slots
    /// (the 5-bit slot field, and the width of a slot-set word) is
    /// unsupported.
    pub fn new(spec: ScenarioSpec, slots: usize) -> Self {
        debug_assert!(
            slots <= MAX_SLOTS,
            "{slots} slots exceed the 5-bit slot field"
        );
        let mut weights = vec![0u32; slots];
        let slots_u = slots as u32;
        match spec.kind {
            ScenarioKind::Steady | ScenarioKind::FlashCrowd | ScenarioKind::Diurnal => {
                for w in weights.iter_mut() {
                    *w = 1000 / slots_u;
                }
            }
            ScenarioKind::ElephantMice => {
                // `skew_permille` of the load on the first quarter of the
                // slots (the elephants), the rest spread over the mice.
                let elephants = (slots / 4).max(1) as u32;
                let mice = slots_u - elephants;
                for (i, w) in weights.iter_mut().enumerate() {
                    *w = if (i as u32) < elephants {
                        spec.skew_permille / elephants
                    } else {
                        (1000 - spec.skew_permille).checked_div(mice).unwrap_or(0)
                    };
                }
            }
            ScenarioKind::Wimax => {
                // Graded per-class rates: UGS and rtPS carry more of the
                // aggregate than nrtPS/BE, mirroring reserved vs polled
                // grants. Class of slot i = i * 4 / slots (four groups).
                for (i, w) in weights.iter_mut().enumerate() {
                    let class = wimax_class(i, slots);
                    let class_share = [350u32, 300, 200, 150][class];
                    let group_size = group_len(class, slots) as u32;
                    *w = class_share / group_size.max(1);
                }
            }
        }
        // Exact-sum repair: hand the rounding remainder to the first slots
        // so the weights always sum to exactly 1000 (the rate proptest
        // depends on this).
        let sum: u32 = weights.iter().sum();
        let mut rem = 1000u32.saturating_sub(sum);
        for w in weights.iter_mut() {
            if rem == 0 {
                break;
            }
            *w += 1;
            rem -= 1;
        }
        let windows = (0..slots)
            .map(|i| slot_window(spec.kind, i, slots))
            .collect();
        let base_split = weights
            .iter()
            .map(|&w| split_micro(spec.base_permille, w))
            .collect();
        Self {
            spec,
            weights,
            windows,
            base_split,
        }
    }

    /// The spec this scenario was compiled from.
    /// Tests-only: `crates/cluster/tests/scenario_props.rs` checks the spec round trip with it.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Per-slot aggregate shares, ‰ (sums to 1000).
    /// Tests-only: `crates/cluster/tests/scenario_props.rs` checks the split weights with it.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Per-slot window constraints (class mix).
    pub fn windows(&self) -> &[WindowConstraint] {
        &self.windows
    }

    /// Aggregate intensity at `tick`, ‰ arrivals per node per tick.
    /// Integer-only piecewise shapes; registered hot path.
    // lint:hot-path
    #[inline]
    pub fn intensity_permille(&self, tick: u64) -> u32 {
        let s = &self.spec;
        match s.kind {
            ScenarioKind::Steady | ScenarioKind::ElephantMice | ScenarioKind::Wimax => {
                s.base_permille
            }
            ScenarioKind::FlashCrowd => {
                let w = s.width_ticks.max(1);
                if tick < s.phase_ticks {
                    s.base_permille
                } else if tick < s.phase_ticks + w / 2 {
                    // Ramp up over the first half-width.
                    let frac = (tick - s.phase_ticks) * 1000 / (w / 2).max(1);
                    lerp_permille(s.base_permille, s.peak_permille, frac as u32)
                } else if tick < s.phase_ticks + w + w / 2 {
                    // Hold the peak for a full width.
                    s.peak_permille
                } else if tick < s.phase_ticks + 2 * w {
                    // Decay over the final half-width.
                    let frac = (tick - s.phase_ticks - w - w / 2) * 1000 / (w / 2).max(1);
                    lerp_permille(s.peak_permille, s.base_permille, frac as u32)
                } else {
                    s.base_permille
                }
            }
            ScenarioKind::Diurnal => {
                // Triangle wave: base → peak over the first half-period,
                // back down over the second.
                let period = s.phase_ticks.max(2);
                let pos = tick % period;
                let half = period / 2;
                let frac = if pos < half {
                    pos * 1000 / half
                } else {
                    (period - pos) * 1000 / (period - half)
                };
                lerp_permille(s.base_permille, s.peak_permille, frac as u32)
            }
        }
    }

    /// The one draw loop: `(whole, bit)` per slot, in slot order — whole
    /// arrivals from the tick's expectation and one Bernoulli draw for its
    /// remainder, off the `(seed, node, tick)`-keyed SplitMix64 stream. The
    /// split is read from the base table whenever the tick runs at base
    /// intensity and multiplied out otherwise; the draws are the same
    /// either way.
    #[inline]
    fn draws(&self, seed: u64, node: usize, tick: u64) -> impl Iterator<Item = (u32, bool)> + '_ {
        let intensity = self.intensity_permille(tick);
        let at_base = intensity == self.spec.base_permille;
        let mut rng = SplitMix64::new(mix(seed
            ^ mix(node as u64 + 1)
            ^ (tick.wrapping_mul(0x9E37_79B9_7F4A_7C15))));
        self.base_split
            .iter()
            .zip(&self.weights)
            .map(move |(&split, &weight)| {
                let (whole, frac) = if at_base {
                    split
                } else {
                    split_micro(intensity, weight)
                };
                (whole, rng.below(1_000_000) < u64::from(frac))
            })
    }

    /// Draws this tick's arrival counts for `node` into `counts`
    /// (per-slot, `whole + bit`), returning the total. Pure function of
    /// `(seed, node, tick)` — draw order is node-local, so any stepping
    /// order or thread count produces identical counts. Registered hot
    /// path: integer-only, allocation-free, panic-free.
    // lint:hot-path
    #[inline]
    pub fn sample_arrivals(&self, seed: u64, node: usize, tick: u64, counts: &mut [u32]) -> u32 {
        let mut total = 0u32;
        for (count, (whole, bit)) in counts.iter_mut().zip(self.draws(seed, node, tick)) {
            *count = whole + u32::from(bit);
            total += *count;
        }
        total
    }

    /// The same draws as [`sample_arrivals`](Self::sample_arrivals), as
    /// slot sets: returns `(bits, multi)`, where bit `s` of `bits` is slot
    /// `s`'s Bernoulli draw and bit `s` of `multi` marks a slot with whole
    /// arrivals, whose count is written to `whole[s]` — only those entries
    /// are written, so a tick without whole arrivals (every 2× tick)
    /// stores nothing but the two words. Slot `s` drew `bits >> s & 1`
    /// arrivals, plus `whole[s]` if it is in `multi`. Registered hot path.
    // lint:hot-path
    #[inline]
    pub fn sample_mask(&self, seed: u64, node: usize, tick: u64, whole: &mut [u32]) -> (u32, u32) {
        let (mut bits, mut multi) = (0u32, 0u32);
        for (s, (out, (n, bit))) in whole
            .iter_mut()
            .zip(self.draws(seed, node, tick))
            .enumerate()
        {
            bits |= u32::from(bit) << s;
            if n != 0 {
                *out = n;
                multi |= 1 << s;
            }
        }
        (bits, multi)
    }
}

/// Linear interpolation between two ‰ intensities; `frac` in 0..=1000.
#[inline]
fn lerp_permille(from: u32, to: u32, frac: u32) -> u32 {
    let frac = frac.min(1000);
    if to >= from {
        from + (to - from) * frac / 1000
    } else {
        from - (from - to) * frac / 1000
    }
}

/// WiMAX service-class group of slot `i` (0 = UGS, 1 = rtPS, 2 = nrtPS,
/// 3 = BE): four contiguous groups of as-equal-as-possible size.
fn wimax_class(i: usize, slots: usize) -> usize {
    (i * 4 / slots.max(1)).min(3)
}

/// Number of slots in WiMAX class `c`.
fn group_len(c: usize, slots: usize) -> usize {
    (0..slots).filter(|&i| wimax_class(i, slots) == c).count()
}

/// The window constraint (class) of slot `i` under `kind`.
fn slot_window(kind: ScenarioKind, i: usize, slots: usize) -> WindowConstraint {
    match kind {
        ScenarioKind::Wimax => match wimax_class(i, slots) {
            0 => WindowConstraint::new(0, 1), // UGS: fully protected
            1 => WindowConstraint::new(1, 4), // rtPS: tight
            2 => WindowConstraint::new(1, 2), // nrtPS: mid
            _ => WindowConstraint::new(3, 4), // BE: loose
        },
        // Everything else: half the slots fully protected, the rest an
        // alternating tight/loose tolerant mix — enough diversity for the
        // shedder to have real choices while the protected floor stays
        // checkable.
        _ => {
            if i < slots / 2 {
                WindowConstraint::new(0, 1)
            } else if i.is_multiple_of(2) {
                WindowConstraint::new(1, 4)
            } else {
                WindowConstraint::new(2, 4)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trips() {
        for s in [
            "steady:rate=1000",
            "flash-crowd:rate=2000,peak=4000,at=300,width=200",
            "diurnal:rate=800,peak=2400,at=5000",
            "elephant-mice:rate=1500,skew=800",
            "wimax:rate=2000",
        ] {
            let spec = ScenarioSpec::parse(s).expect("parses");
            let shown = spec.to_string();
            assert_eq!(
                ScenarioSpec::parse(&shown).expect("re-parses"),
                spec,
                "{s} → {shown}"
            );
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ScenarioSpec::parse("tsunami").is_err());
        assert!(ScenarioSpec::parse("steady:rate=zero").is_err());
        assert!(ScenarioSpec::parse("steady:vibe=1").is_err());
        assert!(ScenarioSpec::parse("steady:rate=0").is_err());
        assert!(ScenarioSpec::parse("elephant-mice:skew=1500").is_err());
    }

    #[test]
    fn weights_sum_to_exactly_1000() {
        for kind in [
            "steady",
            "flash-crowd",
            "diurnal",
            "elephant-mice:skew=700",
            "wimax",
        ] {
            for slots in [4usize, 8, 16, 32] {
                let spec = ScenarioSpec::parse(kind).expect("parses");
                let sc = Scenario::new(spec, slots);
                assert_eq!(
                    sc.weights().iter().sum::<u32>(),
                    1000,
                    "{kind} at {slots} slots"
                );
            }
        }
    }

    #[test]
    fn flash_crowd_ramps_holds_and_decays() {
        let spec =
            ScenarioSpec::parse("flash-crowd:rate=1000,peak=3000,at=100,width=100").expect("ok");
        let sc = Scenario::new(spec, 8);
        assert_eq!(sc.intensity_permille(0), 1000);
        assert_eq!(sc.intensity_permille(99), 1000);
        assert!(sc.intensity_permille(125) > 1000, "mid-ramp");
        assert_eq!(sc.intensity_permille(150), 3000, "hold starts");
        assert_eq!(sc.intensity_permille(249), 3000, "hold ends");
        assert!(sc.intensity_permille(275) < 3000, "decaying");
        assert_eq!(sc.intensity_permille(300), 1000, "back to baseline");
    }

    #[test]
    fn diurnal_peaks_mid_period() {
        let spec = ScenarioSpec::parse("diurnal:rate=1000,peak=2000,at=100").expect("ok");
        let sc = Scenario::new(spec, 8);
        assert_eq!(sc.intensity_permille(0), 1000);
        assert_eq!(sc.intensity_permille(50), 2000);
        assert_eq!(sc.intensity_permille(100), 1000, "period wraps");
        assert_eq!(sc.intensity_permille(150), 2000);
    }

    #[test]
    fn wimax_mix_is_the_documented_ladder() {
        let sc = Scenario::new(ScenarioSpec::parse("wimax").expect("ok"), 8);
        let w = sc.windows();
        assert_eq!(w[0], WindowConstraint::new(0, 1), "UGS");
        assert_eq!(w[2], WindowConstraint::new(1, 4), "rtPS");
        assert_eq!(w[4], WindowConstraint::new(1, 2), "nrtPS");
        assert_eq!(w[6], WindowConstraint::new(3, 4), "BE");
    }

    #[test]
    fn sampling_is_node_keyed_and_reproducible() {
        let sc = Scenario::new(ScenarioSpec::steady(2000), 8);
        let mut a = [0u32; 8];
        let mut b = [0u32; 8];
        sc.sample_arrivals(42, 3, 777, &mut a);
        sc.sample_arrivals(42, 3, 777, &mut b);
        assert_eq!(a, b, "same key, same draw");
        sc.sample_arrivals(42, 4, 777, &mut b);
        assert_ne!(a, b, "different node, different stream (w.h.p.)");
    }

    #[test]
    fn elephants_receive_the_skewed_share() {
        let spec = ScenarioSpec::parse("elephant-mice:rate=1000,skew=800").expect("ok");
        let sc = Scenario::new(spec, 8);
        let elephants: u32 = sc.weights()[..2].iter().sum();
        assert!(
            (780..=820).contains(&elephants),
            "first quarter carries ~800‰, got {elephants}"
        );
    }
}
