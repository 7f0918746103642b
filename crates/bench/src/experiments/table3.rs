//! Table 3 — comparing block decisions and max-finding.
//!
//! The paper's setup (§5.1): four streams, one per stream-slot, successive
//! deadlines one time unit apart, each stream requested every decision
//! cycle (T_i = 1 decision cycle), ShareStreams-DWCS in EDF mode, 64 000
//! frames scheduled in total. Three configurations:
//!
//! * **Max-finding (WR)** — one frame per decision cycle; conflicting
//!   deadlines make the other streams miss every cycle.
//! * **Block, max-first** — the whole block is transmitted per decision in
//!   priority order; conflicting deadlines are absorbed by scheduling
//!   streams "together in a block, along with streams requiring service in
//!   future packet-times" → zero misses.
//! * **Block, min-first** — the block transmits in reverse order; early
//!   deadlines transmit last and miss.
//!
//! Miss-accounting fidelity: EXPERIMENTS.md discusses why the min-first
//! magnitudes cannot be exactly recovered from the paper's text; the
//! orderings (0 < min-first < max-finding) and the 4× decision-cycle
//! reduction are the reproduced claims.

use super::Runs;
use crate::anchors::{row, Anchor, Tolerance::*};
use crate::{banner, print_rows, write_json};
use serde::Serialize;
use ss_core::{BlockOrder, Fabric, FabricConfig, FabricConfigKind, LatePolicy, StreamState};
use ss_types::{WindowConstraint, Wrap16};

/// Frames queued per stream (64 000 in total).
pub const FRAMES_PER_STREAM: u64 = 16_000;
/// Streams, one per stream-slot.
pub const STREAMS: usize = 4;

/// One stream's outcome under one configuration.
#[derive(Debug, Serialize)]
pub struct Row {
    stream: usize,
    pub(crate) missed_deadlines: u64,
    pub(crate) winner_decision_cycles: u64,
    frames_transmitted: u64,
}

/// One configuration's outcome.
#[derive(Debug, Serialize)]
pub struct RunResult {
    configuration: String,
    pub(crate) rows: Vec<Row>,
    pub(crate) total_missed: u64,
    pub(crate) total_decision_cycles: u64,
    total_frames: u64,
}

/// `results/table3.json`: the three configurations.
#[derive(Debug, Serialize)]
pub struct Table3 {
    pub(crate) max_finding: RunResult,
    pub(crate) block_max_first: RunResult,
    pub(crate) block_min_first: RunResult,
}

/// A fabric loaded with Table 3's streams and all of their frames.
pub fn fabric(kind: FabricConfigKind, order: BlockOrder) -> Fabric {
    let mut config = FabricConfig::edf(STREAMS, kind);
    config.block_order = order;
    let mut fabric = Fabric::new(config).expect("4 slots is a valid fabric");

    // T_i = 1 decision cycle. A WR decision spans one packet-time; a BA
    // decision spans `STREAMS` packet-times (the block transaction), so the
    // per-stream request period in packet-times is the decision span.
    let period = match kind {
        FabricConfigKind::WinnerOnly => 1,
        FabricConfigKind::Base => STREAMS as u64,
    };
    for s in 0..STREAMS {
        let state = StreamState {
            request_period: period,
            original_window: WindowConstraint::ZERO,
            static_prio: 0,
            late_policy: LatePolicy::ServeLate,
        };
        // Successive deadlines one time unit apart.
        fabric.load_stream(s, state, (s + 1) as u64).expect("s < 4");
        for q in 0..FRAMES_PER_STREAM {
            fabric.push_arrival(s, Wrap16::from_wide(q)).expect("s < 4");
        }
    }
    fabric
}

fn drain(kind: FabricConfigKind, order: BlockOrder) -> RunResult {
    let mut fabric = fabric(kind, order);
    let mut frames = [0u64; STREAMS];
    let mut transmitted = 0u64;
    while transmitted < FRAMES_PER_STREAM * STREAMS as u64 {
        for p in fabric.decision_cycle_into() {
            frames[p.slot.index()] += 1;
            transmitted += 1;
        }
    }
    let rows: Vec<Row> = (0..STREAMS)
        .map(|s| {
            let c = fabric.slot_counters(s).expect("s < 4");
            Row {
                stream: s + 1,
                missed_deadlines: c.missed_deadlines,
                winner_decision_cycles: c.wins,
                frames_transmitted: frames[s],
            }
        })
        .collect();
    RunResult {
        configuration: match (kind, order) {
            (FabricConfigKind::WinnerOnly, _) => "max-finding (WR)".into(),
            (FabricConfigKind::Base, BlockOrder::MaxFirst) => "block, max-first (BA)".into(),
            (FabricConfigKind::Base, BlockOrder::MinFirst) => "block, min-first (BA)".into(),
        },
        total_missed: rows.iter().map(|r| r.missed_deadlines).sum(),
        total_decision_cycles: fabric.decision_count(),
        total_frames: transmitted,
        rows,
    }
}

/// Drains all 64 000 frames under each configuration.
pub fn run() -> Table3 {
    Table3 {
        max_finding: drain(FabricConfigKind::WinnerOnly, BlockOrder::MaxFirst),
        block_max_first: drain(FabricConfigKind::Base, BlockOrder::MaxFirst),
        block_min_first: drain(FabricConfigKind::Base, BlockOrder::MinFirst),
    }
}

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("table3.max_first_misses", 0.0, Abs(0.0), "block, max-first: no stream misses a deadline (total misses)",
        |r| r.table3().block_max_first.total_missed as f64),
    row("table3.max_finding_misses", 255_950.0, Abs(50.0), "max-finding: ≈ 4 misses per decision cycle, at most 4 (total misses)",
        |r| r.table3().max_finding.total_missed as f64),
    row("table3.max_finding_transient", 32.0, Abs(32.0), "max-finding: every stream misses every cycle after a start-up of at most 64 misses (4 · cycles − misses)",
        |r| 4.0 * r.table3().max_finding.total_decision_cycles as f64 - r.table3().max_finding.total_missed as f64),
    row("table3.max_finding_cycles", 64_000.0, Abs(0.0), "max-finding: one decision cycle per frame",
        |r| r.table3().max_finding.total_decision_cycles as f64),
    row("table3.cycle_cut", 4.0, Abs(0.0), "block decisions need 4× fewer decision cycles than max-finding",
        |r| r.table3().max_finding.total_decision_cycles as f64 / r.table3().block_max_first.total_decision_cycles as f64),
    row("table3.max_finding_wins", 16_000.0, Abs(0.0), "max-finding: every stream wins 16 000 decision cycles (worst stream)",
        |r| r.table3().max_finding.rows.iter().map(|s| s.winner_decision_cycles).max_by_key(|w| w.abs_diff(16_000)).unwrap_or(0) as f64),
    row("table3.min_first_misses", 0.0, Above, "block, min-first: early deadlines transmit last and miss (total misses)",
        |r| r.table3().block_min_first.total_missed as f64),
    row("table3.min_first_below_max_finding", 1.0, Below, "block, min-first misses fewer deadlines than max-finding (ratio)",
        |r| r.table3().block_min_first.total_missed as f64 / r.table3().max_finding.total_missed as f64),
];

/// Prints the three configurations and writes `results/table3.json`.
pub fn report(runs: &Runs) {
    banner("T3", "Block decisions vs max-finding (paper Table 3)");
    let t = runs.table3();
    for r in [&t.max_finding, &t.block_max_first, &t.block_min_first] {
        println!("\n  {}:", r.configuration);
        print_rows(&r.rows);
        println!(
            "  total: {} missed, {} decision cycles, {} frames",
            r.total_missed, r.total_decision_cycles, r.total_frames
        );
    }
    println!("\n  paper Table 3 (for comparison):");
    println!("    max-finding:  misses 63986/63987/63988/63989 (total 255950), 64000 cycles");
    println!("    block max-first: misses 0/0/0/0, winners 4000 each, 16000 cycles");
    println!("    block min-first: misses 27839/27214/22621/29311 (total 106985)");
    write_json("table3", t);
}
