//! Capacity planner: the Figure-1 framework as a tool.
//!
//! ```sh
//! cargo run --example capacity_planner [-- <line_gbps> <packet_bytes> <slots>]
//! ```
//!
//! Answers the paper's framework questions for a concrete deployment: does
//! a ShareStreams fabric of N stream-slots meet the packet-times of your
//! link, in which configuration, and if not — what utilization survives,
//! or how much aggregation closes the gap?
#![allow(clippy::unwrap_used)]

use sharestreams::framework::{assess, required_decision_rate_hz};
use sharestreams::hwsim::{FabricConfigKind, VirtexModel};
use sharestreams::types::PacketSize;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let gbps: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10.0);
    let bytes: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(64);
    let slots: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(16);

    let bps = (gbps * 1e9) as u64;
    let size = PacketSize(bytes);
    println!("capacity plan: {gbps} Gbps link, {bytes}-byte packets, {slots} stream-slots\n");
    println!(
        "  required scheduling rate: {:.0} decisions/s",
        required_decision_rate_hz(bps, size)
    );

    let model = VirtexModel;
    for kind in [FabricConfigKind::WinnerOnly, FabricConfigKind::Base] {
        match assess(slots, kind, true, bps, size) {
            Ok(f) => {
                let area = model.area(slots, kind).unwrap();
                let device = model
                    .smallest_device(slots, kind)
                    .unwrap()
                    .map(|d| d.name)
                    .unwrap_or("(none in family)");
                println!(
                    "  {kind}: {:>12.0} pkt/s — {} (util {:.0}%), {} slices → {}",
                    f.achievable_hz,
                    if f.feasible { "FEASIBLE" } else { "infeasible" },
                    f.sustainable_utilization * 100.0,
                    area.total(),
                    device
                );
            }
            Err(e) => println!("  {kind}: {e}"),
        }
    }

    // If WR can't keep up, how much does aggregation or block mode help?
    let wr = assess(slots, FabricConfigKind::WinnerOnly, true, bps, size).unwrap();
    if !wr.feasible {
        println!("\n  remedies:");
        let ba = assess(slots, FabricConfigKind::Base, true, bps, size).unwrap();
        if ba.feasible {
            println!(
                "   • block decisions (BA): {}x throughput per decision closes the gap",
                slots
            );
        }
        let needed = (wr.required_hz / wr.achievable_hz).ceil() as u64;
        println!(
            "   • aggregation: bind ≥{needed} flows per stream-slot so each decision\n     covers {needed} packets of load (coarser QoS, paper §5.1)"
        );
    }
}
