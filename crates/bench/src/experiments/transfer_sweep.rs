//! §4.3 ablation — push-PIO vs pull-DMA transfer strategies across batch
//! sizes, run through the double-buffered Streaming unit over the banked
//! SRAM (with the ownership-handover cost the paper calls the bottleneck).
//!
//! "For small transfers, the Stream processor can push arrival-times to
//! the FPGA PCI card. For bulk-transfers, the Stream processor will set
//! the DMA engine registers and assert the pull-start line." This sweep
//! locates the crossover.

use super::Runs;
use crate::anchors::{row, Anchor, Tolerance::*};
use crate::{banner, print_rows, write_json};
use serde::Serialize;
use ss_endsystem::{PciModel, StreamingUnit, TransferStrategy};

/// One strategy at one batch size.
#[derive(Debug, Serialize)]
pub struct Row {
    pub(crate) strategy: String,
    pub(crate) batch: u64,
    pub(crate) items_per_sec: f64,
    bank_switches: u64,
    fpga_stall_pct: f64,
}

/// Sweeps both strategies over batches of 4–4096 tags; the result is
/// `results/transfer_sweep.json`.
pub fn run() -> Vec<Row> {
    const ITEMS: u64 = 262_144;
    const FPGA_NS_PER_ITEM: u64 = 132; // 7.6M decisions/s consumption rate
    let mut rows = Vec::new();
    for batch in [4u64, 16, 64, 256, 1024, 4096] {
        for (strategy, name) in [
            (TransferStrategy::PioPush, "PIO"),
            (TransferStrategy::DmaPull, "DMA"),
        ] {
            let mut unit =
                StreamingUnit::new(PciModel::pci32_33(), strategy, batch, FPGA_NS_PER_ITEM);
            let r = unit.run(ITEMS).expect("a non-empty batch streams");
            rows.push(Row {
                strategy: name.into(),
                batch,
                items_per_sec: r.items_per_sec,
                bank_switches: r.bank_switches,
                fpga_stall_pct: r.fpga_stall_ns as f64 / r.elapsed_ns as f64 * 100.0,
            });
        }
    }
    rows
}

/// `strategy`'s tag rate over `other`'s at `batch`.
fn advantage(rows: &[Row], strategy: &str, other: &str, batch: u64) -> f64 {
    let rate = |s: &str| {
        let row = rows.iter().find(|r| r.strategy == s && r.batch == batch);
        row.expect("a swept strategy and batch").items_per_sec
    };
    rate(strategy) / rate(other)
}

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("transfer_sweep.pio_small", 1.0, Above, "§4.3: PIO pushes beat DMA pulls for small transfers (batch 4, ratio)",
        |r| advantage(r.transfer_sweep(), "PIO", "DMA", 4)),
    row("transfer_sweep.dma_bulk", 1.0, Above, "§4.3: DMA pulls beat PIO pushes for bulk transfers (batch 4096, ratio)",
        |r| advantage(r.transfer_sweep(), "DMA", "PIO", 4096)),
];

/// Prints the sweep and its crossover and writes
/// `results/transfer_sweep.json`.
pub fn report(runs: &Runs) {
    banner(
        "§4.3",
        "Push-PIO vs pull-DMA across batch sizes (streaming unit)",
    );
    let rows = runs.transfer_sweep();
    print_rows(rows);
    let crossover = rows
        .iter()
        .map(|r| r.batch)
        .find(|&b| advantage(rows, "DMA", "PIO", b) > 1.0);
    println!("\n  DMA pulls overtake PIO pushes at batch {crossover:?}");
    write_json("transfer_sweep", rows);
}
