//! §5.2 — performance comparison: the ShareStreams endsystem and line-card
//! realizations against the contemporary systems the paper cites.
//!
//! The paper's rows are reprinted verbatim; our rows come from (a) the
//! calibrated endsystem/line-card models and (b) *measured* software
//! baselines (the same decision loops, run natively on this machine —
//! expect them to be far faster than 2002 hardware; the point is the
//! relative ordering).

use super::Runs;
use crate::anchors::{host_timed, row, Anchor, Tolerance::*};
use crate::{banner, print_rows, write_json};
use serde::Serialize;
use sharestreams::linecard::Linecard;
use ss_core::hwsim::VirtexModel;
use ss_core::{FabricConfig, FabricConfigKind};
use ss_disciplines::{Discipline, Drr, StochasticFq, SwPacket, Wfq};
use ss_endsystem::{EndsystemConfig, PciModel, TransferStrategy};

/// One system's packet rate.
#[derive(Debug, Serialize)]
pub struct Row {
    system: String,
    packets_per_sec: f64,
    source: String,
}

fn rate(system: &str, packets_per_sec: f64, source: &str) -> Row {
    Row {
        system: system.into(),
        packets_per_sec,
        source: source.into(),
    }
}

/// The modeled endsystem, no PCI transfer time.
const NO_TRANSFER: &str = "ShareStreams endsystem, no PCI transfer time";
/// The modeled endsystem, per-packet PIO transfers.
const PIO: &str = "ShareStreams endsystem, PIO transfers included";
/// The modeled endsystem, batched DMA pulls.
const DMA: &str = "ShareStreams endsystem, batched DMA pulls";
/// The modeled 4-slot WR line card.
const LINECARD_4: &str = "ShareStreams line card, 4 slots, WR";
/// The measured O(1) and O(N) software baselines.
const SFQ: &str = "measured: Stochastic FQ (Click's SFQ), 64 streams";
const WFQ: &str = "measured: WFQ (per-stream tags), 64 streams";

/// The packet rate of `system` among `rows`.
fn pps(rows: &[Row], system: &str) -> f64 {
    let row = rows.iter().find(|r| r.system == system);
    row.expect("a row of this experiment").packets_per_sec
}

/// The contemporary systems the paper cites.
const CITED: [(&str, f64); 4] = [
    ("Click modular router, 700 MHz PIII (paper cite)", 333_000.0),
    (
        "Click + Stochastic Fairness Queueing (paper cite)",
        300_000.0,
    ),
    ("Qie et al. programmable router (paper cite)", 300_000.0),
    ("Router plug-ins, DRR, Pentium Pro (paper cite)", 28_279.0),
];

/// The modeled line cards.
const LINECARDS: [(&str, usize, FabricConfigKind); 3] = [
    (LINECARD_4, 4, FabricConfigKind::WinnerOnly),
    (
        "ShareStreams line card, 32 slots, WR",
        32,
        FabricConfigKind::WinnerOnly,
    ),
    (
        "ShareStreams line card, 32 slots, BA block",
        32,
        FabricConfigKind::Base,
    ),
];

/// The endsystem and line-card rows: the models and the paper's citations.
pub fn modeled() -> Vec<Row> {
    let fabric = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
    let no_transfer = EndsystemConfig::paper_endsystem(fabric);
    let mut pio = no_transfer;
    pio.transfer = Some((PciModel::pci32_33(), TransferStrategy::PioPush, 1));
    let mut dma = no_transfer;
    dma.transfer = Some((PciModel::pci32_33(), TransferStrategy::DmaPull, 256));

    let mut rows = vec![
        rate(NO_TRANSFER, no_transfer.modeled_pps(), "model"),
        rate("  (paper: 469,483)", 469_483.0, "paper"),
        rate(PIO, pio.modeled_pps(), "model"),
        rate("  (paper: 299,065)", 299_065.0, "paper"),
        rate(DMA, dma.modeled_pps(), "model"),
    ];
    rows.extend(CITED.map(|(system, pps)| rate(system, pps, "paper")));
    for (system, slots, kind) in LINECARDS {
        let t = Linecard::modeled_throughput(&VirtexModel, slots, kind, true);
        rows.push(rate(system, t.packets_per_sec, "model"));
    }
    rows
}

/// A software discipline's sustained enqueue+select rate.
fn measure<D: Discipline>(mut d: D, streams: usize) -> f64 {
    const PER_STREAM: u64 = 50_000;
    for q in 0..PER_STREAM {
        for s in 0..streams {
            d.enqueue(SwPacket::new(s, q, q, 64));
        }
    }
    let total = PER_STREAM * streams as u64;
    let start = std::time::Instant::now();
    let mut now = 0u64;
    while d.select(now).is_some() {
        now += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(now, total, "every enqueued packet is selected once");
    total as f64 / secs
}

/// The software baselines timed on this host. Host-timed.
pub fn measured() -> Vec<Row> {
    vec![
        rate(SFQ, measure(StochasticFq::new(64), 64), "measured"),
        rate(
            "measured: DRR (router plug-ins), 64 streams",
            measure(Drr::new(vec![1500; 64]), 64),
            "measured",
        ),
        rate(WFQ, measure(Wfq::new(vec![1; 64]), 64), "measured"),
    ]
}

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("perf_comparison.no_transfer", 469_483.0, Abs(10.0), "§5.2: the endsystem schedules 469 483 pkt/s without PCI transfer time",
        |r| pps(r.perf_modeled(), NO_TRANSFER)),
    row("perf_comparison.pio", 299_065.0, Rel(0.01), "§5.2: the endsystem schedules 299 065 pkt/s with per-packet PIO transfers",
        |r| pps(r.perf_modeled(), PIO)),
    row("perf_comparison.pio_beats_drr", 28_279.0, Above, "the PIO endsystem beats router plug-ins' DRR (pkt/s)",
        |r| pps(r.perf_modeled(), PIO)),
    row("perf_comparison.dma", 1.0, Above, "batched DMA pulls beat per-packet PIO transfers (ratio)",
        |r| pps(r.perf_modeled(), DMA) / pps(r.perf_modeled(), PIO)),
    row("perf_comparison.linecard_4", 7.6e6, Abs(1e3), "§5.2: the 4-slot WR line card schedules 7.6 M pkt/s",
        |r| pps(r.perf_modeled(), LINECARD_4)),
    host_timed(row("perf_comparison.sfq_beats_wfq", 1.0, Above, "O(1) SFQ outpaces O(N)-scan WFQ at 64 streams (ratio)",
        |r| pps(r.perf_measured(), SFQ) / pps(r.perf_measured(), WFQ))),
];

/// Prints the comparison and writes `results/perf_comparison.json`.
pub fn report(runs: &Runs) {
    banner("P1/P2", "Performance comparison (paper §5.2)");
    let (modeled, measured) = (runs.perf_modeled(), runs.perf_measured());
    println!("  endsystem (500 MHz PIII model) and 10 Gbps line card:");
    print_rows(modeled);
    println!("  (paper: 7.6M packets/s at 4 slots; GSR 12000: 8 DRR queues/port)");
    println!("\n  software decision loops measured on this machine (the relative");
    println!("  ordering is the reproducible claim):");
    print_rows(measured);
    let all: Vec<&Row> = modeled.iter().chain(measured).collect();
    write_json("perf_comparison", &all);
}
