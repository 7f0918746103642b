//! Virtex-I device table and the calibrated area/clock-rate model.
//!
//! The paper reports (§5.1) per-block areas from its placed-and-routed
//! Virtex I designs — Control & Steering logic 22 slices, Decision block 190
//! slices, Register Base block 150 slices — plus linear total-area growth,
//! and clock-rate behaviour: WR (winner-only routing) varies little from 4 to
//! 32 stream-slots, while BA (block/sorted-list) sits ≈20 % below WR at 8–16
//! slots and ≈10 % below at 32.
//!
//! Absolute MHz for Figure 7 are not recoverable from the text (the figure is
//! an image), so the clock table below is **calibrated** to the one hard
//! anchor the paper gives: §5.2's 7.6 M scheduler decisions/second at 4
//! stream-slots, which at log2(4)+1 = 3 cycles/decision implies a 22.8 MHz
//! winner-only fabric. The relative BA/WR spreads then follow the §5.1
//! narrative. EXPERIMENTS.md records this calibration explicitly.

use serde::{Deserialize, Serialize};
use ss_types::{Error, Result};
use std::fmt;

/// Slices consumed by the Control & Steering logic block (paper §5.1).
pub const CONTROL_SLICES: u32 = 22;
/// Slices consumed by one Decision block (paper §5.1).
pub const DECISION_SLICES: u32 = 190;
/// Slices consumed by one Register Base block / stream-slot (paper §5.1).
pub const REGISTER_SLICES: u32 = 150;

/// Per-slot wiring + pass-through CLB slices for the BA configuration.
///
/// The paper states the shuffle wiring area "is dependent on the stream-slot
/// count" and that total growth is linear; routing winners *and* losers needs
/// roughly twice the wire tracks of winner-only routing.
pub const BA_WIRING_SLICES_PER_SLOT: u32 = 40;
/// Per-slot wiring + pass-through CLB slices for the WR configuration.
pub const WR_WIRING_SLICES_PER_SLOT: u32 = 25;

/// The two architectural configurations evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FabricConfigKind {
    /// Base Architecture: winners and losers are both routed; each decision
    /// cycle yields a *block* (ordered list) of streams.
    Base,
    /// Max-finding: only winners are routed; each decision cycle yields the
    /// single highest-priority stream.
    WinnerOnly,
}

impl fmt::Display for FabricConfigKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricConfigKind::Base => write!(f, "BA"),
            FabricConfigKind::WinnerOnly => write!(f, "WR"),
        }
    }
}

/// A Xilinx Virtex-I device (CLB array dimensions; 1 CLB = 2 slices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VirtexDevice {
    /// Marketing name, e.g. "XCV1000".
    pub name: &'static str,
    /// CLB rows.
    pub clb_rows: u32,
    /// CLB columns.
    pub clb_cols: u32,
}

impl VirtexDevice {
    /// Total CLBs.
    pub const fn clbs(&self) -> u32 {
        self.clb_rows * self.clb_cols
    }

    /// Total slices (2 per Virtex-I CLB).
    pub const fn slices(&self) -> u32 {
        self.clbs() * 2
    }

    /// The XCV1000 on the Celoxica RC1000 card used by the paper
    /// (64 × 96 CLBs).
    pub const fn xcv1000() -> Self {
        VirtexDevice {
            name: "XCV1000",
            clb_rows: 64,
            clb_cols: 96,
        }
    }

    /// The Virtex-I family, smallest to largest.
    pub const fn family() -> [VirtexDevice; 9] {
        [
            VirtexDevice {
                name: "XCV50",
                clb_rows: 16,
                clb_cols: 24,
            },
            VirtexDevice {
                name: "XCV100",
                clb_rows: 20,
                clb_cols: 30,
            },
            VirtexDevice {
                name: "XCV150",
                clb_rows: 24,
                clb_cols: 36,
            },
            VirtexDevice {
                name: "XCV200",
                clb_rows: 28,
                clb_cols: 42,
            },
            VirtexDevice {
                name: "XCV300",
                clb_rows: 32,
                clb_cols: 48,
            },
            VirtexDevice {
                name: "XCV400",
                clb_rows: 40,
                clb_cols: 60,
            },
            VirtexDevice {
                name: "XCV600",
                clb_rows: 48,
                clb_cols: 72,
            },
            VirtexDevice {
                name: "XCV800",
                clb_rows: 56,
                clb_cols: 84,
            },
            VirtexDevice {
                name: "XCV1000",
                clb_rows: 64,
                clb_cols: 96,
            },
        ]
    }
}

/// Breakdown of the slice budget for a fabric instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AreaEstimate {
    /// Slices in Register Base blocks (N × 150).
    pub register_slices: u32,
    /// Slices in Decision blocks (N/2 × 190).
    pub decision_slices: u32,
    /// Control & Steering logic slices (22).
    pub control_slices: u32,
    /// Shuffle-network wiring and pass-through CLB slices.
    pub wiring_slices: u32,
}

impl AreaEstimate {
    /// Total slices.
    pub const fn total(&self) -> u32 {
        self.register_slices + self.decision_slices + self.control_slices + self.wiring_slices
    }

    /// Total expressed in Virtex-I CLBs (2 slices per CLB, rounded up).
    pub const fn clbs(&self) -> u32 {
        self.total().div_ceil(2)
    }
}

/// The calibrated Virtex-I area/clock model.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct VirtexModel;

/// Clock anchor table: (slots, WR MHz, BA MHz). See module docs for the
/// calibration argument.
const CLOCK_TABLE: [(usize, f64, f64); 5] = [
    (2, 23.0, 22.6),
    (4, 22.8, 21.9),
    (8, 22.4, 17.9),
    (16, 22.0, 17.6),
    (32, 21.6, 19.4),
];

impl VirtexModel {
    /// Validates a slot count: power of two, 2..=32 (5-bit stream IDs).
    pub fn validate_slots(slots: usize) -> Result<()> {
        if slots.is_power_of_two() && (2..=32).contains(&slots) {
            Ok(())
        } else {
            Err(Error::InvalidSlotCount(slots))
        }
    }

    /// Area estimate for a fabric with `slots` stream-slots.
    pub fn area(&self, slots: usize, kind: FabricConfigKind) -> Result<AreaEstimate> {
        Self::validate_slots(slots)?;
        let n = slots as u32;
        let wiring_per_slot = match kind {
            FabricConfigKind::Base => BA_WIRING_SLICES_PER_SLOT,
            FabricConfigKind::WinnerOnly => WR_WIRING_SLICES_PER_SLOT,
        };
        Ok(AreaEstimate {
            register_slices: n * REGISTER_SLICES,
            decision_slices: (n / 2) * DECISION_SLICES,
            control_slices: CONTROL_SLICES,
            wiring_slices: n * wiring_per_slot,
        })
    }

    /// Achievable clock rate in MHz for `slots` stream-slots.
    pub fn clock_mhz(&self, slots: usize, kind: FabricConfigKind) -> Result<f64> {
        Self::validate_slots(slots)?;
        let row = CLOCK_TABLE
            .iter()
            .find(|(s, _, _)| *s == slots)
            .expect("validated slot count present in clock table");
        Ok(match kind {
            FabricConfigKind::WinnerOnly => row.1,
            FabricConfigKind::Base => row.2,
        })
    }

    /// Hardware cycles per scheduling decision: log2(N) network cycles plus
    /// one PRIORITY_UPDATE cycle when the discipline updates priorities every
    /// decision (window-constrained); fair-queuing/priority-class bypass the
    /// update cycle (paper §4.3).
    pub fn cycles_per_decision(&self, slots: usize, priority_update: bool) -> Result<u64> {
        Self::validate_slots(slots)?;
        let sched = slots.trailing_zeros() as u64;
        Ok(sched + u64::from(priority_update))
    }

    /// Scheduler decisions per second.
    pub fn decision_rate_hz(
        &self,
        slots: usize,
        kind: FabricConfigKind,
        priority_update: bool,
    ) -> Result<f64> {
        let mhz = self.clock_mhz(slots, kind)?;
        let cycles = self.cycles_per_decision(slots, priority_update)? as f64;
        Ok(mhz * 1e6 / cycles)
    }

    /// Packets schedulable per second: one per decision in WR, `slots` per
    /// decision in BA block mode (the paper's block-size throughput factor).
    pub fn packet_rate_hz(
        &self,
        slots: usize,
        kind: FabricConfigKind,
        priority_update: bool,
    ) -> Result<f64> {
        let per_decision = match kind {
            FabricConfigKind::Base => slots as f64,
            FabricConfigKind::WinnerOnly => 1.0,
        };
        Ok(self.decision_rate_hz(slots, kind, priority_update)? * per_decision)
    }

    /// Checks the design fits `device`, returning the estimate.
    /// Tests-only: `tests/wire_speed.rs` checks the Virtex timing fit with it.
    pub fn fit(
        &self,
        slots: usize,
        kind: FabricConfigKind,
        device: VirtexDevice,
    ) -> Result<AreaEstimate> {
        let est = self.area(slots, kind)?;
        if est.total() <= device.slices() {
            Ok(est)
        } else {
            Err(Error::DeviceCapacityExceeded {
                required_slices: est.total(),
                available_slices: device.slices(),
            })
        }
    }

    /// Smallest Virtex-I family member that fits the design.
    pub fn smallest_device(
        &self,
        slots: usize,
        kind: FabricConfigKind,
    ) -> Result<Option<VirtexDevice>> {
        let est = self.area(slots, kind)?;
        Ok(VirtexDevice::family()
            .into_iter()
            .find(|d| d.slices() >= est.total()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: VirtexModel = VirtexModel;

    #[test]
    fn xcv1000_matches_paper_dimensions() {
        let d = VirtexDevice::xcv1000();
        assert_eq!(d.clbs(), 64 * 96);
        assert_eq!(d.slices(), 12288);
    }

    #[test]
    fn slot_count_validation() {
        for ok in [2, 4, 8, 16, 32] {
            assert!(VirtexModel::validate_slots(ok).is_ok());
        }
        for bad in [0, 1, 3, 6, 12, 64, 33] {
            assert_eq!(
                VirtexModel::validate_slots(bad),
                Err(Error::InvalidSlotCount(bad))
            );
        }
    }

    #[test]
    fn area_components_match_paper_block_sizes() {
        let est = M.area(4, FabricConfigKind::Base).unwrap();
        assert_eq!(est.register_slices, 4 * 150);
        assert_eq!(est.decision_slices, 2 * 190);
        assert_eq!(est.control_slices, 22);
    }

    #[test]
    fn area_grows_linearly() {
        // Slope between successive doublings must be constant (paper §5.1:
        // "our architecture grows linearly").
        for kind in [FabricConfigKind::Base, FabricConfigKind::WinnerOnly] {
            let a: Vec<u32> = [4, 8, 16, 32]
                .iter()
                .map(|&n| M.area(n, kind).unwrap().total())
                .collect();
            let slope1 = (a[1] - a[0]) / 4;
            let slope2 = (a[2] - a[1]) / 8;
            let slope3 = (a[3] - a[2]) / 16;
            assert_eq!(slope1, slope2);
            assert_eq!(slope2, slope3);
        }
    }

    #[test]
    fn ba_area_close_to_wr() {
        // Paper: "The BA architecture maintains almost the same area with
        // its WR counterpart for all stream-slot sizes" — within 10%.
        for n in [4, 8, 16, 32] {
            let ba = M.area(n, FabricConfigKind::Base).unwrap().total() as f64;
            let wr = M.area(n, FabricConfigKind::WinnerOnly).unwrap().total() as f64;
            assert!(ba >= wr);
            assert!(
                (ba - wr) / wr < 0.10,
                "BA/WR area gap too large at {n} slots"
            );
        }
    }

    #[test]
    fn thirty_two_slots_fit_xcv1000() {
        // Paper: "easily scales from 4 to 32 stream-slots on a single chip".
        for kind in [FabricConfigKind::Base, FabricConfigKind::WinnerOnly] {
            assert!(M.fit(32, kind, VirtexDevice::xcv1000()).is_ok());
        }
    }

    #[test]
    fn wr_flatter_than_ba() {
        // Paper: WR shows lesser clock-rate variation from 4 to 32 slots.
        let spread = |kind| {
            let rates: Vec<f64> = [4, 8, 16, 32]
                .iter()
                .map(|&n| M.clock_mhz(n, kind).unwrap())
                .collect();
            let max = rates.iter().cloned().fold(f64::MIN, f64::max);
            let min = rates.iter().cloned().fold(f64::MAX, f64::min);
            (max - min) / max
        };
        assert!(spread(FabricConfigKind::WinnerOnly) < spread(FabricConfigKind::Base));
    }

    #[test]
    fn block_mode_multiplies_throughput_by_block_size() {
        let wr = M
            .packet_rate_hz(16, FabricConfigKind::WinnerOnly, true)
            .unwrap();
        let ba = M.packet_rate_hz(16, FabricConfigKind::Base, true).unwrap();
        // BA schedules 16 packets per decision; even at a 20% lower clock it
        // is an order of magnitude faster than WR.
        assert!(ba > 10.0 * wr);
    }

    #[test]
    fn smallest_device_scales_with_slots() {
        let small = M
            .smallest_device(4, FabricConfigKind::WinnerOnly)
            .unwrap()
            .unwrap();
        let large = M
            .smallest_device(32, FabricConfigKind::Base)
            .unwrap()
            .unwrap();
        assert!(small.slices() < large.slices());
        // 32-slot BA needs 22 + 32*150 + 16*190 + 32*40 = 9142 slices → XCV800.
        assert_eq!(M.area(32, FabricConfigKind::Base).unwrap().total(), 9142);
        assert_eq!(large.name, "XCV800");
    }

    #[test]
    fn oversized_design_rejected() {
        let tiny = VirtexDevice {
            name: "toy",
            clb_rows: 4,
            clb_cols: 4,
        };
        let err = M.fit(32, FabricConfigKind::Base, tiny).unwrap_err();
        assert!(matches!(err, Error::DeviceCapacityExceeded { .. }));
    }

    #[test]
    fn display_names() {
        assert_eq!(FabricConfigKind::Base.to_string(), "BA");
        assert_eq!(FabricConfigKind::WinnerOnly.to_string(), "WR");
    }
}

/// Extra slices per stream-slot for compute-ahead Register Base blocks
/// (paper §6 future work): the predicated winner/loser next-state datapath
/// roughly doubles the update logic inside each Register Base block.
pub const COMPUTE_AHEAD_EXTRA_SLICES_PER_SLOT: u32 = 60;

/// Clock-rate derating for compute-ahead designs: the predication muxes
/// lengthen the register-file critical path slightly.
pub const COMPUTE_AHEAD_CLOCK_FACTOR: f64 = 0.95;

impl VirtexModel {
    /// Area estimate including the compute-ahead register extension.
    pub fn area_with_options(
        &self,
        slots: usize,
        kind: FabricConfigKind,
        compute_ahead: bool,
    ) -> Result<AreaEstimate> {
        let mut est = self.area(slots, kind)?;
        if compute_ahead {
            est.register_slices += slots as u32 * COMPUTE_AHEAD_EXTRA_SLICES_PER_SLOT;
        }
        Ok(est)
    }

    /// Clock rate including the compute-ahead derating.
    pub fn clock_mhz_with_options(
        &self,
        slots: usize,
        kind: FabricConfigKind,
        compute_ahead: bool,
    ) -> Result<f64> {
        let base = self.clock_mhz(slots, kind)?;
        Ok(if compute_ahead {
            base * COMPUTE_AHEAD_CLOCK_FACTOR
        } else {
            base
        })
    }

    /// Decision rate for a window-constrained discipline with optional
    /// compute-ahead (which folds the PRIORITY_UPDATE cycle away).
    pub fn wc_decision_rate_hz(
        &self,
        slots: usize,
        kind: FabricConfigKind,
        compute_ahead: bool,
    ) -> Result<f64> {
        let mhz = self.clock_mhz_with_options(slots, kind, compute_ahead)?;
        let cycles = self.cycles_per_decision(slots, !compute_ahead)? as f64;
        Ok(mhz * 1e6 / cycles)
    }
}

/// Projection onto the Xilinx Virtex-II family (paper §6: hard multipliers,
/// higher clock rates; the Teracross comparison chip used a Virtex II).
///
/// The projection keeps the cycle counts (they are structural) and scales
/// the achievable clock by a family factor; Virtex-II fabric at the -5
/// speed grade ran comparable designs ≈2.5× faster than Virtex-I.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VirtexIIProjection {
    /// Clock multiplier over the calibrated Virtex-I table.
    pub clock_scale: f64,
}

impl Default for VirtexIIProjection {
    fn default() -> Self {
        Self { clock_scale: 2.5 }
    }
}

/// A Xilinx Virtex-II device (slices directly; the family abandoned the
/// 2-slice CLB accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VirtexIIDevice {
    /// Marketing name.
    pub name: &'static str,
    /// Total slices.
    pub slices: u32,
}

impl VirtexIIDevice {
    /// The Virtex-II family, smallest to largest.
    pub const fn family() -> [VirtexIIDevice; 6] {
        [
            VirtexIIDevice {
                name: "XC2V250",
                slices: 1_536,
            },
            VirtexIIDevice {
                name: "XC2V500",
                slices: 3_072,
            },
            VirtexIIDevice {
                name: "XC2V1000",
                slices: 5_120,
            },
            VirtexIIDevice {
                name: "XC2V2000",
                slices: 10_752,
            },
            VirtexIIDevice {
                name: "XC2V4000",
                slices: 23_040,
            },
            VirtexIIDevice {
                name: "XC2V6000",
                slices: 33_792,
            },
        ]
    }
}

impl VirtexIIProjection {
    /// Projected clock rate in MHz.
    pub fn clock_mhz(&self, slots: usize, kind: FabricConfigKind) -> Result<f64> {
        Ok(VirtexModel.clock_mhz(slots, kind)? * self.clock_scale)
    }

    /// Projected decisions per second.
    pub fn decision_rate_hz(
        &self,
        slots: usize,
        kind: FabricConfigKind,
        priority_update: bool,
    ) -> Result<f64> {
        Ok(VirtexModel.decision_rate_hz(slots, kind, priority_update)? * self.clock_scale)
    }

    /// Smallest Virtex-II part that fits the design (area model carried
    /// over from Virtex-I: both families use 2×LUT+2×FF slices).
    pub fn smallest_device(
        &self,
        slots: usize,
        kind: FabricConfigKind,
    ) -> Result<Option<VirtexIIDevice>> {
        let est = VirtexModel.area(slots, kind)?;
        Ok(VirtexIIDevice::family()
            .into_iter()
            .find(|d| d.slices >= est.total()))
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    const M: VirtexModel = VirtexModel;

    #[test]
    fn compute_ahead_trades_area_for_rate() {
        for slots in [4usize, 8, 16, 32] {
            let base_rate = M
                .wc_decision_rate_hz(slots, FabricConfigKind::WinnerOnly, false)
                .unwrap();
            let ca_rate = M
                .wc_decision_rate_hz(slots, FabricConfigKind::WinnerOnly, true)
                .unwrap();
            // Folding the update cycle wins more than the clock derating
            // loses: (log2N+1)/log2N × 0.95 > 1 for N ≤ 32.
            assert!(
                ca_rate > base_rate,
                "{slots} slots: {ca_rate} vs {base_rate}"
            );
            let base_area = M
                .area_with_options(slots, FabricConfigKind::WinnerOnly, false)
                .unwrap()
                .total();
            let ca_area = M
                .area_with_options(slots, FabricConfigKind::WinnerOnly, true)
                .unwrap()
                .total();
            assert!(ca_area > base_area);
        }
    }

    #[test]
    fn compute_ahead_gain_shrinks_with_slots() {
        // The folded cycle matters most for small N: gain = (log2N+1)/log2N.
        let gain = |slots: usize| {
            let base = M
                .wc_decision_rate_hz(slots, FabricConfigKind::WinnerOnly, false)
                .unwrap();
            let ca = M
                .wc_decision_rate_hz(slots, FabricConfigKind::WinnerOnly, true)
                .unwrap();
            ca / base
        };
        assert!(gain(4) > gain(32));
        assert!((gain(4) - 1.5 * 0.95).abs() < 1e-9);
    }

    #[test]
    fn compute_ahead_still_fits_xcv1000_at_32_slots() {
        let est = M
            .area_with_options(32, FabricConfigKind::Base, true)
            .unwrap();
        assert!(est.total() <= VirtexDevice::xcv1000().slices());
    }

    #[test]
    fn virtex2_projection_scales_clock() {
        let proj = VirtexIIProjection::default();
        let v1 = M.clock_mhz(4, FabricConfigKind::WinnerOnly).unwrap();
        let v2 = proj.clock_mhz(4, FabricConfigKind::WinnerOnly).unwrap();
        assert!((v2 / v1 - 2.5).abs() < 1e-9);
        // 19 M decisions/s at 4 slots: enough for 10G MTU frames with
        // margin, approaching 10G 64-byte wire speed with block mode.
        let rate = proj
            .decision_rate_hz(4, FabricConfigKind::WinnerOnly, true)
            .unwrap();
        assert!((rate - 19e6).abs() < 1e5, "{rate}");
    }

    #[test]
    fn virtex2_fits_32_slots_in_midrange_parts() {
        let proj = VirtexIIProjection::default();
        let device = proj
            .smallest_device(32, FabricConfigKind::Base)
            .unwrap()
            .unwrap();
        assert_eq!(device.name, "XC2V2000");
    }
}
