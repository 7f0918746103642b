//! §6 — future-work extensions, implemented: compute-ahead Register Base
//! blocks and the Virtex-II projection ("use of hard multipliers in the
//! Xilinx Virtex II architecture to improve performance", "a system with
//! hundreds of streams").

use super::Runs;
use crate::anchors::{row, Anchor, Tolerance::*};
use crate::{banner, fmt_rate, print_rows, write_json};
use serde::Serialize;
use ss_core::hwsim::{FabricConfigKind, VirtexIIProjection, VirtexModel};
use ss_types::{packet_time_ns, PacketSize};

/// Compute-ahead against the base design at one slot count.
#[derive(Debug, Serialize)]
pub struct Row {
    slots: usize,
    base_decisions_per_sec: f64,
    compute_ahead_decisions_per_sec: f64,
    pub(crate) gain: f64,
    base_slices: u32,
    compute_ahead_slices: u32,
}

/// Prices compute-ahead at 4–32 slots; the result is
/// `results/extensions.json`.
pub fn run() -> Vec<Row> {
    let model = VirtexModel;
    let wr = FabricConfigKind::WinnerOnly;
    [4usize, 8, 16, 32]
        .into_iter()
        .map(|slots| {
            let rate = |ahead| {
                model
                    .wc_decision_rate_hz(slots, wr, ahead)
                    .expect("swept slot counts are valid")
            };
            let area = |ahead| {
                model
                    .area_with_options(slots, wr, ahead)
                    .expect("swept slot counts are valid")
            };
            let (base, ca) = (rate(false), rate(true));
            Row {
                slots,
                base_decisions_per_sec: base,
                compute_ahead_decisions_per_sec: ca,
                gain: ca / base,
                base_slices: area(false).total(),
                compute_ahead_slices: area(true).total(),
            }
        })
        .collect()
}

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("extensions.compute_ahead", 1.0, Above, "§6: compute-ahead nets a decision-rate gain at every slot count (smallest gain)",
        |r| r.extensions().iter().map(|e| e.gain).fold(f64::INFINITY, f64::min)),
];

/// Prints compute-ahead and the Virtex-II projection and writes
/// `results/extensions.json`.
pub fn report(runs: &Runs) {
    banner(
        "§6",
        "Future-work extensions: compute-ahead and Virtex-II projection",
    );
    let rows = runs.extensions();
    println!("  compute-ahead Register Base blocks (WR, window-constrained):");
    print_rows(rows);
    let proj = VirtexIIProjection::default();
    let rate = proj
        .decision_rate_hz(4, FabricConfigKind::WinnerOnly, true)
        .expect("4 slots is valid");
    let budget_64b_10g = 1e9 / packet_time_ns(PacketSize::ETH_MIN, 10_000_000_000) as f64;
    println!(
        "\n  Virtex-II (clock x2.5): WR@4 makes {} decisions/s, {:.0}% of 10G/64B's {};\n  \
         a 4-wide block (BA) clears wire speed.",
        fmt_rate(rate),
        rate / budget_64b_10g * 100.0,
        fmt_rate(budget_64b_10g)
    );
    write_json("extensions", rows);
}
