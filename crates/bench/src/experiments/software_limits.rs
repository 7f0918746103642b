//! §4.1 — performance and limits of processor-resident packet schedulers.
//!
//! The paper's evidence that software cannot meet multi-gigabit
//! packet-times: ≈50 µs/decision for window-constrained scheduling on a
//! 300 MHz UltraSPARC, ≈67 µs on a 66 MHz i960RD, ≈35 µs for DRR on a
//! 233 MHz Pentium, 7–10 µs for H-FSC on a 200 MHz Pentium — against
//! packet-times of 12 µs (1500 B @ 1 G), 512 ns (64 B @ 1 G), 1.2 µs
//! (1500 B @ 10 G) and 51 ns (64 B @ 10 G).
//!
//! This experiment times the same decision loops natively (host-timed) and
//! evaluates the same feasibility question for *this* machine, next to the
//! paper's 2002-era numbers.

use super::Runs;
use crate::anchors::{host_timed, row, Anchor, Tolerance::*};
use crate::{banner, print_rows, write_json};
use serde::Serialize;
use ss_disciplines::{
    Discipline, Drr, DwcsRef, DwcsStreamConfig, Edf, EdfStreamConfig, LatePolicy, StochasticFq,
    SwPacket, Wfq,
};
use ss_types::{packet_time_ns, PacketSize, WindowConstraint};

/// One discipline's measured decision latency at one stream count.
#[derive(Debug, Serialize)]
pub struct Row {
    pub(crate) discipline: String,
    pub(crate) streams: usize,
    pub(crate) ns_per_decision: f64,
}

fn measure_ns<D: Discipline>(mut d: D, streams: usize) -> f64 {
    const PER_STREAM: u64 = 20_000;
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
    start.elapsed().as_nanos() as f64 / total as f64
}

fn dwcs(streams: usize) -> DwcsRef {
    let config = |s: usize| DwcsStreamConfig {
        period: streams as u64,
        window: WindowConstraint::new(1, 2),
        first_deadline: s as u64 + 1,
        late_policy: LatePolicy::ServeLate,
    };
    DwcsRef::new((0..streams).map(config).collect())
}

fn edf(streams: usize) -> Edf {
    let config = |s: usize| EdfStreamConfig {
        period: streams as u64,
        first_deadline: s as u64 + 1,
    };
    Edf::new((0..streams).map(config).collect())
}

/// The software DWCS row (see [`run`]).
const DWCS: &str = "DWCS (reference)";

/// Times every discipline at 8, 32 and 64 streams; the result is
/// `results/software_limits.json`. Host-timed.
pub fn run() -> Vec<Row> {
    let cases: [(&str, &dyn Fn(usize) -> f64); 5] = [
        (DWCS, &|n| measure_ns(dwcs(n), n)),
        ("EDF", &|n| measure_ns(edf(n), n)),
        ("WFQ", &|n| measure_ns(Wfq::new(vec![1; n]), n)),
        ("DRR", &|n| measure_ns(Drr::new(vec![1500; n]), n)),
        ("Stochastic FQ", &|n| {
            measure_ns(StochasticFq::new(n.max(8)), n)
        }),
    ];
    let rows = cases.into_iter().flat_map(|(name, probe)| {
        [8usize, 32, 64].map(|streams| Row {
            discipline: name.into(),
            streams,
            ns_per_decision: probe(streams),
        })
    });
    rows.collect()
}

/// The four packet-time budgets, in ns.
pub(crate) fn budgets() -> [(&'static str, u64); 4] {
    [
        ("64B @ 1G", PacketSize::ETH_MIN, 1_000_000_000),
        ("1500B @ 1G", PacketSize::ETH_MTU, 1_000_000_000),
        ("64B @ 10G", PacketSize::ETH_MIN, 10_000_000_000),
        ("1500B @ 10G", PacketSize::ETH_MTU, 10_000_000_000),
    ]
    .map(|(label, size, bps)| (label, packet_time_ns(size, bps)))
}

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("software_limits.dwcs_2002", 50_000.0, Below, "2002 software DWCS (≈ 50 µs a decision) misses the 1500 B @ 1 Gbps packet-time (ns)",
        |_| budget("1500B @ 1G")),
    row("software_limits.hfsc_mtu", 10_000.0, Above, "7–10 µs H-FSC meets the 1500 B @ 1 Gbps packet-time (ns)",
        |_| budget("1500B @ 1G")),
    row("software_limits.hfsc_min", 10_000.0, Below, "… but not the 64 B @ 1 Gbps one (ns)", |_| budget("64B @ 1G")),
    host_timed(row("software_limits.dwcs_10g", 51.0, Above, "software DWCS at 32 streams still misses the 64 B @ 10 Gbps packet-time (ns a decision)",
        |r| r.software_limits().iter().find(|s| s.discipline == DWCS && s.streams == 32).map_or(0.0, |s| s.ns_per_decision))),
];

fn budget(label: &str) -> f64 {
    let budgets = budgets();
    let row = budgets.iter().find(|b| b.0 == label);
    row.expect("a listed packet-time budget").1 as f64
}

/// Prints the latency table and budgets and writes
/// `results/software_limits.json`.
pub fn report(runs: &Runs) {
    banner("§4.1", "Limits of processor-resident packet schedulers");
    let rows = runs.software_limits();
    println!("  measured decision latency on this machine:");
    print_rows(rows);
    println!("\n  paper-cited 2002 measurements:");
    println!("    DWCS, 300 MHz UltraSPARC          ~50,000 ns");
    println!("    DWCS, 66 MHz i960RD               ~67,000 ns");
    println!("    DRR, 233 MHz Pentium (NetBSD)     ~35,000 ns");
    println!("    H-FSC, 200 MHz Pentium             7,000-10,000 ns");
    println!("\n  packet-time budgets:");
    for (label, ns) in budgets() {
        println!("    {label:<14} {ns:>7} ns");
    }
    write_json("software_limits", rows);
}
