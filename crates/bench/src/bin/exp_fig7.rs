//! Figure 7 — Area–clock-rate characteristics of the architecture
//! (Virtex I), BA vs WR, 4–32 stream-slots.
//!
//! Area comes from the paper's published per-block slice counts (Decision
//! 190, Register Base 150, Control 22) plus the wiring model; clock rates
//! come from the calibrated table in `ss_core::hwsim::virtex` (anchored to
//! the §5.2 7.6 M decisions/s figure — see DESIGN.md §7).

use serde::Serialize;
use ss_bench::{banner, fmt_rate, write_json};
use ss_core::hwsim::{FabricConfigKind, TimeSeries, VirtexDevice, VirtexModel};

#[derive(Debug, Serialize)]
struct Point {
    slots: usize,
    config: String,
    slices: u32,
    clbs: u32,
    clock_mhz: f64,
    decisions_per_sec: f64,
    packets_per_sec: f64,
    smallest_device: String,
}

fn main() {
    banner(
        "F7",
        "Area & clock-rate vs stream-slots, BA vs WR (paper Figure 7)",
    );
    let model = VirtexModel;
    let mut points = Vec::new();
    let mut area_ba = TimeSeries::new("slots", "slices_BA");
    let mut area_wr = TimeSeries::new("slots", "slices_WR");
    let mut clk_ba = TimeSeries::new("slots", "mhz_BA");
    let mut clk_wr = TimeSeries::new("slots", "mhz_WR");

    println!(
        "  {:>5} {:>4} {:>8} {:>7} {:>8} {:>14} {:>14} {:>9}",
        "slots", "cfg", "slices", "CLBs", "clk MHz", "decisions/s", "packets/s", "device"
    );
    for &slots in &[4usize, 8, 16, 32] {
        for kind in [FabricConfigKind::Base, FabricConfigKind::WinnerOnly] {
            let est = model.area(slots, kind).unwrap();
            let mhz = model.clock_mhz(slots, kind).unwrap();
            let dec = model.decision_rate_hz(slots, kind, true).unwrap();
            let pkt = model.packet_rate_hz(slots, kind, true).unwrap();
            let device = model
                .smallest_device(slots, kind)
                .unwrap()
                .map(|d| d.name)
                .unwrap_or("none");
            println!(
                "  {:>5} {:>4} {:>8} {:>7} {:>8.1} {:>14} {:>14} {:>9}",
                slots,
                kind.to_string(),
                est.total(),
                est.clbs(),
                mhz,
                fmt_rate(dec),
                fmt_rate(pkt),
                device
            );
            match kind {
                FabricConfigKind::Base => {
                    area_ba.push(slots as f64, est.total() as f64);
                    clk_ba.push(slots as f64, mhz);
                }
                FabricConfigKind::WinnerOnly => {
                    area_wr.push(slots as f64, est.total() as f64);
                    clk_wr.push(slots as f64, mhz);
                }
            }
            points.push(Point {
                slots,
                config: kind.to_string(),
                slices: est.total(),
                clbs: est.clbs(),
                clock_mhz: mhz,
                decisions_per_sec: dec,
                packets_per_sec: pkt,
                smallest_device: device.into(),
            });
        }
    }

    println!(
        "\n  XCV1000 capacity: {} slices (64 x 96 CLBs)",
        VirtexDevice::xcv1000().slices()
    );
    println!("  paper narrative checks:");
    let deg = |n: usize| {
        let wr = model.clock_mhz(n, FabricConfigKind::WinnerOnly).unwrap();
        let ba = model.clock_mhz(n, FabricConfigKind::Base).unwrap();
        (wr - ba) / wr * 100.0
    };
    println!(
        "    BA below WR: {:.0}% @8, {:.0}% @16, {:.0}% @32 (paper: ~20/20/10%)",
        deg(8),
        deg(16),
        deg(32)
    );
    println!("    area growth linear in slots; BA within 10% of WR area (asserted in tests)");

    ss_bench::write_csv_multi(
        "fig7_area",
        "slots",
        &[("slices_BA", &area_ba), ("slices_WR", &area_wr)],
    );
    ss_bench::write_csv_multi(
        "fig7_clock",
        "slots",
        &[("mhz_BA", &clk_ba), ("mhz_WR", &clk_wr)],
    );
    write_json("fig7", &points);
}
