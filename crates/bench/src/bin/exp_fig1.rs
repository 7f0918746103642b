//! Figure 1 — the ShareStreams architectural-solutions framework: required
//! vs achievable scheduling rate over (stream count, packet size, link
//! speed), and the discipline complexity ranking.

use sharestreams::framework::{assess, complexity_ranking, feasibility_surface};
use ss_bench::{banner, write_json};
use ss_core::hwsim::FabricConfigKind;
use ss_types::PacketSize;

const GBPS: u64 = 1_000_000_000;

fn main() {
    banner(
        "F1",
        "QoS bounds vs scale vs scheduling rate (paper Figure 1)",
    );

    let sizes = [PacketSize::ETH_MIN, PacketSize(512), PacketSize::ETH_MTU];
    let speeds = [GBPS, 2_500_000_000, 10 * GBPS];
    let slots = [4usize, 8, 16, 32];

    println!("  winner-only (WR) fabric, DWCS (priority update every decision):");
    println!(
        "  {:>5} {:>8} {:>8} {:>14} {:>14} {:>9} {:>7}",
        "slots", "link", "pkt B", "required/s", "achievable/s", "feasible", "util"
    );
    let surface =
        feasibility_surface(&slots, FabricConfigKind::WinnerOnly, true, &speeds, &sizes).unwrap();
    for f in &surface {
        println!(
            "  {:>5} {:>6}G {:>8} {:>14.0} {:>14.0} {:>9} {:>6.0}%",
            f.slots,
            f.line_speed_bps as f64 / 1e9,
            f.packet_bytes,
            f.required_hz,
            f.achievable_hz,
            if f.feasible { "yes" } else { "NO" },
            f.sustainable_utilization * 100.0
        );
    }

    // The block-decision escape hatch for the infeasible corner.
    let worst_wr = assess(
        32,
        FabricConfigKind::WinnerOnly,
        true,
        10 * GBPS,
        PacketSize::ETH_MIN,
    )
    .unwrap();
    let worst_ba = assess(
        32,
        FabricConfigKind::Base,
        true,
        10 * GBPS,
        PacketSize::ETH_MIN,
    )
    .unwrap();
    println!(
        "\n  64B @ 10G, 32 slots: WR {:.1}% sustainable; BA (block) {} — block decisions\n  expand the feasible region by the block-size factor.",
        worst_wr.sustainable_utilization * 100.0,
        if worst_ba.feasible { "feasible" } else { "infeasible" }
    );
    assert!(!worst_wr.feasible && worst_ba.feasible);

    println!("\n  implementation complexity (Figure 1b ordering):");
    for row in complexity_ranking() {
        println!(
            "    {}: {} (state {} words, {} attrs/compare{})",
            row.rank,
            row.name,
            row.state_words_per_stream,
            row.attributes_compared,
            if row.per_decision_update {
                ", update every decision"
            } else {
                ""
            }
        );
    }

    write_json("fig1_surface", &surface);
}
