//! Dump a waveform of the RTL fabric to `results/fabric.vcd`.
//!
//! ```sh
//! cargo run --example waveform && gtkwave results/fabric.vcd
//! ```
//!
//! Shows eight DWCS decisions on a 4-slot winner-only fabric, one VCD
//! timestep per hardware clock: watch the attribute words recirculate
//! through the shuffle (lanes) and the PRIORITY_UPDATE strobe fire every
//! third cycle.

use sharestreams::core::{FabricConfig, LatePolicy, RtlFabric, StreamState};
use sharestreams::hwsim::{FabricConfigKind, VcdWriter};
use sharestreams::types::{WindowConstraint, Wrap16};

fn main() {
    let config = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
    let mut fabric = RtlFabric::new(config).expect("valid config");
    for s in 0..4 {
        fabric
            .load_stream(
                s,
                StreamState {
                    request_period: 4,
                    original_window: WindowConstraint::new(1, 3),
                    static_prio: 0,
                    late_policy: LatePolicy::ServeLate,
                },
                (s + 1) as u64,
            )
            .expect("slot free");
        for q in 0..16u64 {
            fabric
                .push_arrival(s, Wrap16::from_wide(q))
                .expect("queue ok");
        }
    }

    let mut vcd = VcdWriter::new("sharestreams_fabric", "1ns");
    fabric.declare_vcd(&mut vcd).expect("declare wires");
    let blocks: Vec<Vec<usize>> = (0..8)
        .map(|_| {
            let block = fabric.run_traced(&mut vcd).expect("trace");
            block.iter().map(|p| p.slot.index()).collect()
        })
        .collect();

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/fabric.vcd", vcd.finish()).expect("write vcd");
    println!(
        "8 decisions traced ({} hardware cycles) → results/fabric.vcd",
        fabric.hw_cycles()
    );
    for (i, slots) in blocks.iter().enumerate() {
        println!("  decision {i}: {slots:?}");
    }
    println!("open with any VCD viewer (e.g. `gtkwave results/fabric.vcd`).");
}
