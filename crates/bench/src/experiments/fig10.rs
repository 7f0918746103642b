//! Figure 10 — aggregation of 100 streamlets into a stream-slot.
//!
//! The paper binds 100 streamlet queues to each of four stream-slots
//! (slots allocated 1:1:2:4 = 2.0/2.0/4.0/8.0 MB/s on the 16 MB/s
//! streaming path), serves streamlets round-robin on the Stream processor,
//! and plots per-streamlet bandwidth. Stream-slot 4 carries **two sets**
//! of streamlets, set 1 at twice set 2's bandwidth.

use super::{fair_share_pipeline, Runs, WEIGHTS};
use crate::anchors::{row, Anchor, Tolerance::*};
use crate::{banner, print_rows, write_json};
use serde::Serialize;
use ss_endsystem::StreamletSetConfig;
use ss_traffic::ArrivalEvent;
use ss_types::PacketSize;

const STREAMLETS_PER_SLOT: usize = 100;
const FRAMES_PER_STREAMLET: u64 = 120;

/// One stream-slot's bandwidth and its streamlet sets.
#[derive(Debug, Serialize)]
pub struct SlotRow {
    slot: usize,
    weight: u32,
    pub(crate) slot_rate_mbps: f64,
    expected_slot_mbps: f64,
    pub(crate) sets: Vec<SetRow>,
}

/// One streamlet set's per-streamlet service.
#[derive(Debug, Serialize)]
pub struct SetRow {
    set: usize,
    streamlets: usize,
    pub(crate) mean_streamlet_kbps: f64,
    pub(crate) min_streamlet_frames: u64,
    pub(crate) max_streamlet_frames: u64,
}

/// The run's rows (`results/fig10.json`).
pub struct Fig10 {
    pub(crate) rows: Vec<SlotRow>,
    total_packets: u64,
    sim_seconds: f64,
}

/// Binds 100 streamlets to each slot (two sets on slot 4) and drains them.
pub fn run() -> Fig10 {
    let (mut pipe, ids) = fair_share_pipeline("slot", |_| {});

    // Slots 1-3: one RR set of 100 streamlets. Slot 4: two sets of 50,
    // set 1 at twice set 2's bandwidth.
    let set = |streamlets, weight| StreamletSetConfig { streamlets, weight };
    for &id in &ids[..3] {
        pipe.attach_mux(id, &[set(STREAMLETS_PER_SLOT, 1)]);
    }
    let half = STREAMLETS_PER_SLOT / 2;
    pipe.attach_mux(ids[3], &[set(half, 2), set(half, 1)]);

    // Deposit backlogged streamlet traffic with demand proportional to each
    // streamlet's allocated rate, so every queue stays backlogged until the
    // common drain instant (the regime the figure measures). Per-streamlet
    // frame budgets for a common ~7.5 s drain at 2/2/4/8 MB/s:
    //   slots 1-2: 100, slot 3: 200, slot 4 set 1: 533, set 2: 267.
    let budgets: [&[(usize, usize, u64)]; 4] = [
        &[(0, 100, FRAMES_PER_STREAMLET)],
        &[(0, 100, FRAMES_PER_STREAMLET)],
        &[(0, 100, 2 * FRAMES_PER_STREAMLET)],
        &[
            (0, 50, 16 * FRAMES_PER_STREAMLET / 3),
            (1, 50, 8 * FRAMES_PER_STREAMLET / 3),
        ],
    ];
    // Arrival timestamps staggered one packet-time apart across slots so
    // FCFS tie-breaks alternate fairly among equal-weight slots instead of
    // collapsing onto the lowest slot ID.
    const PKT_TIME_NS: u64 = 93_750; // 1500 B at 16 MB/s
    for (slot_idx, &id) in ids.iter().enumerate() {
        for &(set, count, frames) in budgets[slot_idx] {
            for sl in 0..count {
                for q in 0..frames {
                    let arrival = ArrivalEvent {
                        time_ns: (q * 4 + slot_idx as u64) * PKT_TIME_NS,
                        stream: id,
                        size: PacketSize(1500),
                    };
                    pipe.deposit_streamlet(id, set, sl, arrival);
                }
            }
        }
    }

    let report = pipe.run(&[]);
    let sim_s = report.sim_seconds;
    let rows = ids
        .iter()
        .enumerate()
        .map(|(slot_idx, &id)| {
            let w = WEIGHTS[slot_idx];
            let mux = pipe.mux(id).expect("every slot has a mux attached");
            let sets = budgets[slot_idx]
                .iter()
                .map(|&(set, n, _)| {
                    let frames: Vec<u64> = (0..n).map(|sl| mux.serviced(set, sl)).collect();
                    let bytes: u64 = (0..n).map(|sl| mux.bytes(set, sl)).sum();
                    SetRow {
                        set: set + 1,
                        streamlets: n,
                        mean_streamlet_kbps: bytes as f64 / n as f64 / sim_s / 1e3,
                        min_streamlet_frames: frames.iter().copied().min().unwrap_or(0),
                        max_streamlet_frames: frames.iter().copied().max().unwrap_or(0),
                    }
                })
                .collect();
            SlotRow {
                slot: slot_idx + 1,
                weight: w,
                slot_rate_mbps: report.streams[slot_idx].mean_rate / 1e6,
                expected_slot_mbps: 16.0 * f64::from(w) / 8.0,
                sets,
            }
        })
        .collect();
    Fig10 {
        rows,
        total_packets: report.total_packets,
        sim_seconds: sim_s,
    }
}

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("fig10.slot_3", 2.0, Rel(0.08), "slot 3 (weight 2) runs at 2× slot 1", |r| r.fig10().rows[2].slot_rate_mbps / r.fig10().rows[0].slot_rate_mbps),
    row("fig10.slot_4", 4.0, Rel(0.08), "slot 4 (weight 4) runs at 4× slot 1", |r| r.fig10().rows[3].slot_rate_mbps / r.fig10().rows[0].slot_rate_mbps),
    row("fig10.round_robin", 0.0, Abs(2.0), "round-robin equalizes a set's streamlets (max − min frames, widest set)",
        |r| r.fig10().rows.iter().flat_map(|s| &s.sets).map(|s| s.max_streamlet_frames - s.min_streamlet_frames).max().unwrap_or(0) as f64),
    row("fig10.two_sets", 2.0, Abs(0.15), "slot 4's set 1 gets 2× set 2 per streamlet",
        |r| r.fig10().rows[3].sets[0].mean_streamlet_kbps / r.fig10().rows[3].sets[1].mean_streamlet_kbps),
];

/// Prints per-slot and per-set bandwidth and writes `results/fig10.json`.
pub fn report(runs: &Runs) {
    banner("F10", "100 streamlets per stream-slot (paper Figure 10)");
    let f10 = runs.fig10();
    print_rows(&f10.rows);
    println!(
        "  total: {} frames in {:.2} s",
        f10.total_packets, f10.sim_seconds
    );
    write_json("fig10", &f10.rows);
}
