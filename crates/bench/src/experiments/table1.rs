//! Table 1 — comparing scheduling disciplines, each qualitative cell backed
//! by a demonstration on this repository's schedulers.

use super::Runs;
use crate::anchors::{row, Anchor, Tolerance::*};
use crate::{banner, print_rows};
use sharestreams::framework::complexity_ranking;
use ss_core::hwsim::VirtexModel;
use ss_core::{FabricConfig, FabricConfigKind};
use ss_disciplines::{Discipline, StaticPriority, SwPacket, Wfq};

/// The demonstrations behind Table 1's cells.
pub struct Table1 {
    /// The stream a static-priority scheduler serves first when a class-0
    /// packet is enqueued after a class-3 one: priority is fixed at enqueue.
    pub(crate) priority_class_first: usize,
    /// Two successive WFQ finish tags of one stream: tags are serialized
    /// per stream.
    pub(crate) fair_queuing_tags: (u64, u64),
    /// PRIORITY_UPDATE cycles a DWCS decision pays beyond a service-tag one.
    pub(crate) extra_update_cycles: u64,
    /// `(slots, network cycles, window-constrained decision cycles)` for 4,
    /// 8, 16 and 32 stream-slots.
    pub(crate) cycles: Vec<(usize, u64, u64)>,
}

/// Runs the three demonstrations and tabulates the decision-cycle counts.
pub fn run() -> Table1 {
    let mut sp = StaticPriority::new(vec![0, 3]);
    sp.enqueue(SwPacket::new(1, 0, 0, 64));
    sp.enqueue(SwPacket::new(0, 0, 10, 64));
    let served = sp.select(0).expect("two packets are queued");

    let mut wfq = Wfq::new(vec![1, 1]);
    wfq.enqueue(SwPacket::new(0, 0, 0, 100));
    wfq.enqueue(SwPacket::new(0, 1, 0, 100));
    let first = wfq.head_finish_tag(0).expect("stream 0 is backlogged");
    wfq.select(0);
    let second = wfq
        .head_finish_tag(0)
        .expect("stream 0 has a second packet");

    let update = |config: FabricConfig| u64::from(config.priority_update);
    let dwcs = update(FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly));
    let service_tag = update(FabricConfig::service_tag(4, FabricConfigKind::WinnerOnly));

    let model = VirtexModel;
    let cycles = |n, update| {
        model
            .cycles_per_decision(n, update)
            .expect("power of two ≤ 32")
    };
    Table1 {
        priority_class_first: served.stream,
        fair_queuing_tags: (first, second),
        extra_update_cycles: dwcs - service_tag,
        cycles: [4, 8, 16, 32]
            .map(|n| (n, cycles(n, false), cycles(n, true)))
            .to_vec(),
    }
}

/// The paper's Table 1.
#[rustfmt::skip]
const CELLS: [[&str; 4]; 6] = [
    ["characteristic", "priority-class", "fair-queuing", "window-constrained"],
    ["priority", "stream-level dynamic", "stream-level dynamic", "stream-level dynamic"],
    ["grain", "packet-level fixed", "packet-level fixed", "packet-level dynamic"],
    ["input queue", "priority queue", "priority queue", "simple circular queue"],
    ["service-tag", "concurrent", "per-stream serialized", "winner of previous cycle"],
    ["concurrency", "decisions pipeline", "decisions pipeline", "decisions serialized"],
];

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("table1.priority_class", 0.0, Abs(0.0), "priority-class: a class-0 packet enqueued after a class-3 one is served first (stream id)",
        |r| r.table1().priority_class_first as f64),
    row("table1.fair_queuing", 0.0, Above, "fair-queuing: a stream's second finish tag exceeds its first (tags serialized per stream)",
        |r| r.table1().fair_queuing_tags.1 as f64 - r.table1().fair_queuing_tags.0 as f64),
    row("table1.update_cycle", 1.0, Abs(0.0), "window-constrained: a decision pays one PRIORITY_UPDATE cycle more than a service-tag one",
        |r| r.table1().extra_update_cycles as f64),
    row("table1.network_cycles_4", 2.0, Abs(0.0), "§5.1: the network sorts 4 slots in log₂N = 2 cycles", network_cycles::<4>),
    row("table1.network_cycles_8", 3.0, Abs(0.0), "§5.1: the network sorts 8 slots in 3 cycles", network_cycles::<8>),
    row("table1.network_cycles_16", 4.0, Abs(0.0), "§5.1: the network sorts 16 slots in 4 cycles", network_cycles::<16>),
    row("table1.network_cycles_32", 5.0, Abs(0.0), "§5.1: the network sorts 32 slots in 5 cycles", network_cycles::<32>),
    row("table1.decision_cycles_32", 6.0, Abs(0.0), "a window-constrained decision at 32 slots takes log₂N + 1 = 6 cycles",
        |r| cycles(r, 32).2 as f64),
];

fn cycles(r: &Runs, slots: usize) -> (usize, u64, u64) {
    let row = r.table1().cycles.iter().find(|c| c.0 == slots);
    *row.expect("a tabulated slot count")
}

fn network_cycles<const N: usize>(r: &Runs) -> f64 {
    cycles(r, N).1 as f64
}

/// Prints Table 1, its demonstrations and the complexity ranking (no
/// artifact).
pub fn report(runs: &Runs) {
    banner("T1", "Comparing scheduling disciplines (paper Table 1)");
    for [a, b, c, d] in CELLS {
        println!("  {a:<16} {b:<22} {c:<22} {d:<24}");
    }
    let t = runs.table1();
    let (first, second) = t.fair_queuing_tags;
    println!(
        "\n  priority-class: served first: stream {}",
        t.priority_class_first
    );
    println!("  fair-queuing: one stream's successive finish tags {first} → {second}");
    println!(
        "  window-constrained: +{} PRIORITY_UPDATE cycle",
        t.extra_update_cycles
    );
    for (slots, network, decision) in &t.cycles {
        println!("  {slots:>2} slots: {network} network cycles, {decision} with the update");
    }
    println!("\n  implementation-complexity ranking (Figure 1b axes):");
    print_rows(&complexity_ranking());
}
