//! Figure 1 — the ShareStreams architectural-solutions framework: required
//! vs achievable scheduling rate over (stream count, packet size, link
//! speed). The discipline complexity ranking prints with Table 1.

use super::Runs;
use crate::anchors::{row, Anchor, Tolerance::*};
use crate::{banner, print_rows, write_json};
use sharestreams::framework::{assess, feasibility_surface, Feasibility};
use ss_core::hwsim::FabricConfigKind;
use ss_types::PacketSize;

const GBPS: u64 = 1_000_000_000;

/// The feasibility surface and its infeasible corner under both routings.
pub struct Fig1 {
    /// `results/fig1_surface.json`: the WR DWCS surface.
    pub(crate) surface: Vec<Feasibility>,
    /// 32 slots at 10 Gbps, 64-byte frames: winner-only routing.
    pub(crate) corner_wr: Feasibility,
    /// The same corner with block decisions.
    pub(crate) corner_ba: Feasibility,
}

/// Sweeps slots × link speed × packet size, and assesses the corner.
pub fn run() -> Fig1 {
    let sizes = [PacketSize::ETH_MIN, PacketSize(512), PacketSize::ETH_MTU];
    let speeds = [GBPS, 2_500_000_000, 10 * GBPS];
    let slots = [4usize, 8, 16, 32];
    let corner =
        |kind| assess(32, kind, true, 10 * GBPS, PacketSize::ETH_MIN).expect("32 slots is valid");
    Fig1 {
        surface: feasibility_surface(&slots, FabricConfigKind::WinnerOnly, true, &speeds, &sizes)
            .expect("every swept slot count is valid"),
        corner_wr: corner(FabricConfigKind::WinnerOnly),
        corner_ba: corner(FabricConfigKind::Base),
    }
}

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("fig1.wr_corner", 1.0, Below, "winner-only: 32 slots cannot schedule 64 B frames at 10 Gbps (achievable / required)",
        |r| r.fig1().corner_wr.achievable_hz / r.fig1().corner_wr.required_hz),
    row("fig1.ba_corner", 1.0, Above, "block decisions can (achievable / required)",
        |r| r.fig1().corner_ba.achievable_hz / r.fig1().corner_ba.required_hz),
];

/// Prints the surface and writes `results/fig1_surface.json`.
pub fn report(runs: &Runs) {
    banner(
        "F1",
        "QoS bounds vs scale vs scheduling rate (paper Figure 1)",
    );
    let f1 = runs.fig1();
    println!("  winner-only (WR) fabric, DWCS (priority update every decision):");
    print_rows(&f1.surface);
    println!(
        "\n  64B @ 10G, 32 slots: WR {:.1}% sustainable; BA (block) feasible: {}",
        f1.corner_wr.sustainable_utilization * 100.0,
        f1.corner_ba.feasible
    );
    write_json("fig1_surface", &f1.surface);
}
