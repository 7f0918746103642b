//! §5.2 — Performance comparison: the ShareStreams endsystem and line-card
//! realizations against the contemporary systems the paper cites.
//!
//! The paper's rows are reprinted verbatim; our rows come from (a) the
//! calibrated endsystem/line-card models and (b) *measured* software
//! baselines (the same decision loops, run natively on this machine —
//! expect them to be far faster than 2002 hardware; the point is the
//! relative ordering).

use serde::Serialize;
use sharestreams::linecard::Linecard;
use ss_bench::{banner, fmt_rate, write_json};
use ss_core::hwsim::VirtexModel;
use ss_core::{FabricConfig, FabricConfigKind};
use ss_disciplines::{Discipline, Drr, StochasticFq, SwPacket, Wfq};
use ss_endsystem::{EndsystemConfig, PciModel, TransferStrategy};

#[derive(Debug, Serialize)]
struct ComparisonRow {
    system: String,
    packets_per_sec: f64,
    source: String,
}

/// Measures a software discipline's sustained enqueue+select rate.
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
    assert_eq!(now, total);
    total as f64 / secs
}

fn main() {
    banner("P1/P2", "Performance comparison (paper §5.2)");
    let mut rows: Vec<ComparisonRow> = Vec::new();

    // --- Endsystem / host-router configuration -------------------------
    let fabric = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
    let no_transfer = EndsystemConfig::paper_endsystem(fabric);
    let mut pio = no_transfer;
    pio.transfer = Some((PciModel::pci32_33(), TransferStrategy::PioPush, 1));
    let mut dma = no_transfer;
    dma.transfer = Some((PciModel::pci32_33(), TransferStrategy::DmaPull, 256));

    println!("  endsystem / host-based router (500 MHz PIII model):");
    println!("  {:<52} {:>14}", "system", "packets/s");
    for (label, pps, src) in [
        (
            "ShareStreams endsystem, no PCI transfer time",
            no_transfer.modeled_pps(),
            "model",
        ),
        ("  (paper: 469,483)", 469_483.0, "paper"),
        (
            "ShareStreams endsystem, PIO transfers included",
            pio.modeled_pps(),
            "model",
        ),
        ("  (paper: 299,065)", 299_065.0, "paper"),
        (
            "ShareStreams endsystem, batched DMA pulls",
            dma.modeled_pps(),
            "model",
        ),
        (
            "Click modular router, 700 MHz PIII (paper cite)",
            333_000.0,
            "paper",
        ),
        (
            "Click + Stochastic Fairness Queueing (paper cite)",
            300_000.0,
            "paper",
        ),
        (
            "Qie et al. programmable router (paper cite)",
            300_000.0,
            "paper",
        ),
        (
            "Router plug-ins, DRR, Pentium Pro (paper cite)",
            28_279.0,
            "paper",
        ),
    ] {
        println!("  {:<52} {:>14}", label, fmt_rate(pps));
        rows.push(ComparisonRow {
            system: label.into(),
            packets_per_sec: pps,
            source: src.into(),
        });
    }
    // The headline §5.2 relations.
    assert!((no_transfer.modeled_pps() - 469_483.0).abs() < 50.0);
    assert!((pio.modeled_pps() - 299_065.0).abs() / 299_065.0 < 0.01);
    assert!(pio.modeled_pps() > 28_279.0, "beats DRR plug-ins");
    assert!(
        dma.modeled_pps() > pio.modeled_pps(),
        "DMA amortization helps"
    );

    // --- Line-card configuration ---------------------------------------
    println!("\n  10 Gbps switch line-card configuration:");
    let model = VirtexModel;
    for (label, slots, kind) in [
        (
            "ShareStreams line card, 4 slots, WR",
            4usize,
            FabricConfigKind::WinnerOnly,
        ),
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
    ] {
        let t = Linecard::modeled_throughput(&model, slots, kind, true);
        println!("  {:<52} {:>14}", label, fmt_rate(t.packets_per_sec));
        rows.push(ComparisonRow {
            system: label.into(),
            packets_per_sec: t.packets_per_sec,
            source: "model".into(),
        });
    }
    println!(
        "  {:<52} {:>14}",
        "  (paper: 7.6M packets/s at 4 slots)",
        fmt_rate(7.6e6)
    );
    println!("  Cisco GSR 12000 line card: 8 DRR queues/port; Teracross: 4 service classes;");
    println!("  ShareStreams: 32 per-flow DWCS queues on one XCV1000 (area check in tests).");

    // --- Measured software baselines on this host ----------------------
    println!("\n  software scheduler decision loops measured on THIS machine");
    println!("  (native 2026-era CPU — orders of magnitude above 2002 numbers;");
    println!("   the relative ordering is the reproducible claim):");
    let measured = [
        (
            "Stochastic FQ (Click's SFQ), 64 streams",
            measure(StochasticFq::new(64), 64),
        ),
        (
            "DRR (router plug-ins), 64 streams",
            measure(Drr::new(vec![1500; 64]), 64),
        ),
        (
            "WFQ (per-stream tags), 64 streams",
            measure(Wfq::new(vec![1; 64]), 64),
        ),
    ];
    for (label, pps) in &measured {
        println!("  {:<52} {:>14}", label, fmt_rate(*pps));
        rows.push(ComparisonRow {
            system: format!("measured: {label}"),
            packets_per_sec: *pps,
            source: "measured".into(),
        });
    }
    // O(1) structures beat the O(N)-scan WFQ — the ordering behind Click's
    // SFQ choice.
    assert!(
        measured[0].1 > measured[2].1,
        "SFQ (O(1)) outpaces WFQ (O(N) scan)"
    );

    write_json("perf_comparison", &rows);
}
