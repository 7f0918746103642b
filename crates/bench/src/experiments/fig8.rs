//! Figure 8 — fair bandwidth allocation of four streams at ratios 1:1:2:4.
//!
//! The paper transfers 64 000 16-bit packet arrival times from each of the
//! four queues through the endsystem (Pentium III 500 MHz host + Celoxica
//! card), sets service constraints for a 1:1:2:4 allocation, and plots
//! per-stream output bandwidth over time (no socket syscalls in the path).
//!
//! Here the same run drives the deterministic endsystem pipeline on a
//! 16 MB/s streaming capacity (matching Figure 10's 2/2/4/8 MB/s scale).
//! Heavier streams get proportionally more of the 64 000-frame budget so
//! every queue stays backlogged for the full measurement window, which is
//! the regime in which the figure's flat 1:1:2:4 lines exist.

use super::{fair_share_pipeline, Runs, WEIGHTS};
use crate::anchors::{row, Anchor, Tolerance::*};
use crate::{banner, print_rows, write_csv_multi, write_json};
use serde::Serialize;
use ss_core::hwsim::TimeSeries;
use ss_traffic::{merge, ArrivalEvent, Cbr};
use ss_types::PacketSize;

const TOTAL_FRAMES: u64 = 64_000;

/// One stream's bandwidth.
#[derive(Debug, Serialize)]
pub struct Row {
    stream: usize,
    weight: u32,
    frames: u64,
    pub(crate) mean_rate_mbps: f64,
    expected_mbps: f64,
    pub(crate) share_pct: f64,
}

/// The run's rows (`results/fig8.json`) and per-stream bandwidth series
/// (`results/fig8_bandwidth.csv`).
pub struct Fig8 {
    pub(crate) rows: Vec<Row>,
    series: Vec<TimeSeries>,
    total_packets: u64,
    sim_seconds: f64,
}

/// Pushes 64 000 frames, split by weight, through the endsystem.
pub fn run() -> Fig8 {
    // 100 ms bandwidth windows.
    let (mut pipe, ids) = fair_share_pipeline("stream", |c| c.bandwidth_window_ns = 100_000_000);

    // Budget split by weight so all queues drain together (total 64 000).
    let weight_sum: u32 = WEIGHTS.iter().sum();
    let sources: Vec<Box<dyn Iterator<Item = ArrivalEvent>>> = ids
        .iter()
        .zip(WEIGHTS)
        .map(|(&id, w)| {
            let count = TOTAL_FRAMES * u64::from(w) / u64::from(weight_sum);
            Box::new(Cbr::new(id, PacketSize(1500), 1_000, 0, count))
                as Box<dyn Iterator<Item = ArrivalEvent>>
        })
        .collect();
    let arrivals: Vec<ArrivalEvent> = merge(sources).collect();
    let report = pipe.run(&arrivals);

    let total_bytes: u64 = report.streams.iter().map(|s| s.bytes).sum();
    let rows = report
        .streams
        .iter()
        .zip(WEIGHTS)
        .map(|(row, w)| Row {
            stream: row.stream + 1,
            weight: w,
            frames: row.serviced,
            mean_rate_mbps: row.mean_rate / 1e6,
            expected_mbps: 16.0 * f64::from(w) / f64::from(weight_sum),
            share_pct: row.bytes as f64 / total_bytes as f64 * 100.0,
        })
        .collect();
    Fig8 {
        rows,
        series: ids.iter().map(|&id| pipe.bandwidth_series(id)).collect(),
        total_packets: report.total_packets,
        sim_seconds: report.sim_seconds,
    }
}

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("fig8.share_1", 12.5, Abs(0.75), "stream 1 (weight 1) gets 1/8 of the bytes (%)", |r| r.fig8().rows[0].share_pct),
    row("fig8.share_2", 12.5, Abs(0.75), "stream 2 (weight 1) gets 1/8 of the bytes (%)", |r| r.fig8().rows[1].share_pct),
    row("fig8.share_3", 25.0, Abs(1.5), "stream 3 (weight 2) gets 1/4 of the bytes (%)", |r| r.fig8().rows[2].share_pct),
    row("fig8.share_4", 50.0, Abs(1.5), "stream 4 (weight 4) gets 1/2 of the bytes (%)", |r| r.fig8().rows[3].share_pct),
    row("fig8.rate_4", 8.0, Rel(0.10), "stream 4 runs at 8 of the link's 16 MB/s", |r| r.fig8().rows[3].mean_rate_mbps),
];

/// Prints the shares and writes `results/fig8.json` and the bandwidth CSV.
pub fn report(runs: &Runs) {
    banner("F8", "Fair bandwidth allocation 1:1:2:4 (paper Figure 8)");
    let f8 = runs.fig8();
    print_rows(&f8.rows);
    println!(
        "  total: {} frames in {:.2} s of link time",
        f8.total_packets, f8.sim_seconds
    );
    let labels = ["w1_a", "w1_b", "w2", "w4"];
    let labeled: Vec<(&str, &TimeSeries)> = labels.into_iter().zip(&f8.series).collect();
    write_csv_multi("fig8_bandwidth", "t_sec", &labeled);
    write_json("fig8", &f8.rows);
}
