//! Figure 7 — area–clock-rate characteristics of the architecture
//! (Virtex I), BA vs WR, 4–32 stream-slots.
//!
//! Area comes from the paper's published per-block slice counts (Decision
//! 190, Register Base 150, Control 22) plus the wiring model; clock rates
//! come from the calibrated table in `ss_core::hwsim::virtex` (anchored to
//! the §5.2 7.6 M decisions/s figure — see DESIGN.md §7).

use super::Runs;
use crate::anchors::{row, Anchor, Tolerance::*};
use crate::{banner, print_rows, write_csv_multi, write_json};
use serde::Serialize;
use ss_core::hwsim::{FabricConfigKind, TimeSeries, VirtexDevice, VirtexModel};

/// One (slots, routing) design point.
#[derive(Debug, Serialize)]
pub struct Point {
    pub(crate) slots: usize,
    pub(crate) config: String,
    pub(crate) slices: u32,
    clbs: u32,
    pub(crate) clock_mhz: f64,
    decisions_per_sec: f64,
    packets_per_sec: f64,
    smallest_device: String,
}

/// Sweeps 4–32 slots under both routings; the result is
/// `results/fig7.json`.
pub fn run() -> Vec<Point> {
    let model = VirtexModel;
    let mut points = Vec::new();
    for slots in [4usize, 8, 16, 32] {
        for kind in [FabricConfigKind::Base, FabricConfigKind::WinnerOnly] {
            let est = model
                .area(slots, kind)
                .expect("swept slot counts are valid");
            let device = model
                .smallest_device(slots, kind)
                .expect("swept slot counts are valid");
            points.push(Point {
                slots,
                config: kind.to_string(),
                slices: est.total(),
                clbs: est.clbs(),
                clock_mhz: model
                    .clock_mhz(slots, kind)
                    .expect("swept slot counts are valid"),
                decisions_per_sec: model
                    .decision_rate_hz(slots, kind, true)
                    .expect("swept slot counts are valid"),
                packets_per_sec: model
                    .packet_rate_hz(slots, kind, true)
                    .expect("swept slot counts are valid"),
                smallest_device: device.map_or("none", |d| d.name).into(),
            });
        }
    }
    points
}

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("fig7.ba_below_wr_8", 20.0, Abs(2.0), "BA clocks ≈ 20 % below WR at 8 slots (%)", ba_below_wr::<8>),
    row("fig7.ba_below_wr_16", 20.0, Abs(2.0), "BA clocks ≈ 20 % below WR at 16 slots (%)", ba_below_wr::<16>),
    row("fig7.ba_below_wr_32", 10.0, Abs(2.0), "BA clocks ≈ 10 % below WR at 32 slots (%)", ba_below_wr::<32>),
    row("fig7.linear_area", 1.0, Abs(0.0), "area grows linearly in slots (steepest / shallowest slices-per-slot step, 4 → 32)",
        linear_area),
];

/// `(WR − BA) / WR` clock, in percent, at `N` slots.
fn ba_below_wr<const N: usize>(r: &Runs) -> f64 {
    let mhz = |config: &str| {
        let p = r.fig7().iter().find(|p| p.slots == N && p.config == config);
        p.expect("a swept design point").clock_mhz
    };
    (mhz("WR") - mhz("BA")) / mhz("WR") * 100.0
}

/// The steepest over the shallowest slices-per-slot step of either routing.
fn linear_area(r: &Runs) -> f64 {
    let ratio = |config: &str| {
        let points: Vec<_> = r.fig7().iter().filter(|p| p.config == config).collect();
        let steps = points.windows(2).map(|w| {
            let (a, b) = (w[0], w[1]);
            f64::from(b.slices - a.slices) / (b.slots - a.slots) as f64
        });
        let (lo, hi) = steps.fold((f64::INFINITY, 0.0f64), |(lo, hi), s| {
            (lo.min(s), hi.max(s))
        });
        hi / lo
    };
    ratio("BA").max(ratio("WR"))
}

/// Prints the design points and writes `results/fig7{,_area,_clock}.*`.
pub fn report(runs: &Runs) {
    banner(
        "F7",
        "Area & clock-rate vs stream-slots, BA vs WR (paper Figure 7)",
    );
    let points = runs.fig7();
    print_rows(points);
    println!(
        "\n  XCV1000 capacity: {} slices (64 x 96 CLBs)",
        VirtexDevice::xcv1000().slices()
    );
    let series = |y: &str, f: fn(&Point) -> f64| {
        ["BA", "WR"].map(|config| {
            let mut s = TimeSeries::new("slots", format!("{y}_{config}"));
            let mine = points.iter().filter(|p| p.config == config);
            mine.for_each(|p| s.push(p.slots as f64, f(p)));
            s
        })
    };
    let [area_ba, area_wr] = series("slices", |p| f64::from(p.slices));
    let [clk_ba, clk_wr] = series("mhz", |p| p.clock_mhz);
    write_csv_multi(
        "fig7_area",
        "slots",
        &[("slices_BA", &area_ba), ("slices_WR", &area_wr)],
    );
    write_csv_multi(
        "fig7_clock",
        "slots",
        &[("mhz_BA", &clk_ba), ("mhz_WR", &clk_wr)],
    );
    write_json("fig7", points);
}
