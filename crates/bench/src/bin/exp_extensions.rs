//! §6 — future-work extensions, implemented: compute-ahead Register Base
//! blocks and the Virtex-II projection ("use of hard multipliers in the
//! Xilinx Virtex II architecture to improve performance", "a system with
//! hundreds of streams").

use serde::Serialize;
use ss_bench::{banner, fmt_rate, write_json};
use ss_core::hwsim::{FabricConfigKind, VirtexIIProjection, VirtexModel};
use ss_types::{packet_time_ns, PacketSize};

#[derive(Debug, Serialize)]
struct Row {
    slots: usize,
    base_decisions_per_sec: f64,
    compute_ahead_decisions_per_sec: f64,
    gain: f64,
    base_slices: u32,
    compute_ahead_slices: u32,
}

fn main() {
    banner(
        "§6",
        "Future-work extensions: compute-ahead and Virtex-II projection",
    );
    let model = VirtexModel;

    println!("  compute-ahead Register Base blocks (WR, window-constrained):");
    println!(
        "  {:>5} {:>14} {:>14} {:>6} {:>9} {:>9}",
        "slots", "base dec/s", "ca dec/s", "gain", "slices", "ca slices"
    );
    let mut rows = Vec::new();
    for slots in [4usize, 8, 16, 32] {
        let base = model
            .wc_decision_rate_hz(slots, FabricConfigKind::WinnerOnly, false)
            .unwrap();
        let ca = model
            .wc_decision_rate_hz(slots, FabricConfigKind::WinnerOnly, true)
            .unwrap();
        let base_area = model
            .area_with_options(slots, FabricConfigKind::WinnerOnly, false)
            .unwrap()
            .total();
        let ca_area = model
            .area_with_options(slots, FabricConfigKind::WinnerOnly, true)
            .unwrap()
            .total();
        println!(
            "  {:>5} {:>14} {:>14} {:>5.2}x {:>9} {:>9}",
            slots,
            fmt_rate(base),
            fmt_rate(ca),
            ca / base,
            base_area,
            ca_area
        );
        rows.push(Row {
            slots,
            base_decisions_per_sec: base,
            compute_ahead_decisions_per_sec: ca,
            gain: ca / base,
            base_slices: base_area,
            compute_ahead_slices: ca_area,
        });
    }
    assert!(
        rows.iter().all(|r| r.gain > 1.0),
        "compute-ahead must net a gain"
    );

    println!("\n  Virtex-II projection (clock x2.5, same cycle structure):");
    let proj = VirtexIIProjection::default();
    for slots in [4usize, 32] {
        let rate = proj
            .decision_rate_hz(slots, FabricConfigKind::WinnerOnly, true)
            .unwrap();
        let device = proj
            .smallest_device(slots, FabricConfigKind::Base)
            .unwrap()
            .map(|d| d.name)
            .unwrap_or("none");
        println!(
            "    {slots} slots WR: {} decisions/s (fits {device} in BA config)",
            fmt_rate(rate)
        );
    }
    let v2_rate = proj
        .decision_rate_hz(4, FabricConfigKind::WinnerOnly, true)
        .unwrap();
    let budget_64b_10g = 1e9 / packet_time_ns(PacketSize::ETH_MIN, 10_000_000_000) as f64;
    println!(
        "    10G/64B needs {} decisions/s: Virtex-II WR@4 reaches {:.0}% —\n\
         \x20    with a 4-wide block (BA) it clears wire speed.",
        fmt_rate(budget_64b_10g),
        v2_rate / budget_64b_10g * 100.0
    );

    println!("\n  hundreds of streams: 32 slots x 100 streamlets = 3,200 flows on one");
    println!("  XCV1000 — exercised end-to-end in tests/aggregation_scale.rs.");

    write_json("extensions", &rows);
}
