//! Figure 9 — queuing delay of streams 1–4 under the bursty generator.
//!
//! The paper: "The zig-zag formation in Figure 9 is because of the traffic
//! generator, which introduces a multi-ms inter-burst delay after the
//! first 4000 frames. Note that the reduced delay for Stream 4 is
//! consistent with Figure 8."
//!
//! Generator parameterization (EXPERIMENTS.md): 4000-frame bursts per
//! stream at 150 µs intra-burst spacing (aggregate burst arrival rate
//! ≈ 2.5× the 16 MB/s drain rate, so delay ramps within each burst) with
//! an inter-burst gap long enough to drain the backlog — producing the
//! paper's saw-tooth with per-stream amplitudes ordered inversely to
//! weight.

use super::{fair_share_pipeline, Runs, WEIGHTS};
use crate::anchors::{row, Anchor, Tolerance::*};
use crate::{banner, print_rows, write_csv_multi, write_json};
use serde::Serialize;
use ss_core::hwsim::TimeSeries;
use ss_traffic::{merge, ArrivalEvent, Bursty};
use ss_types::PacketSize;

const FRAMES_PER_STREAM: u64 = 12_000; // three bursts of 4000

/// One stream's queuing delay.
#[derive(Debug, Serialize)]
pub struct Row {
    stream: usize,
    weight: u32,
    frames: u64,
    pub(crate) mean_delay_ms: f64,
    p99_delay_ms: f64,
    pub(crate) max_delay_ms: f64,
    jitter_ms: f64,
}

/// The run's rows (`results/fig9.json`) and per-stream delay series
/// (`results/fig9_delay_us.csv`).
pub struct Fig9 {
    pub(crate) rows: Vec<Row>,
    series: Vec<TimeSeries>,
}

/// Pushes three 4000-frame bursts per stream through the endsystem.
pub fn run() -> Fig9 {
    let (mut pipe, ids) = fair_share_pipeline("stream", |c| c.delay_decimate = 16);

    // 4000-frame bursts; 1.5 s inter-burst gap drains the residual backlog.
    let sources: Vec<Box<dyn Iterator<Item = ArrivalEvent>>> = ids
        .iter()
        .map(|&id| {
            let bursts = Bursty::new(
                id,
                PacketSize(1500),
                4_000,
                150_000,
                1_500_000_000,
                0,
                FRAMES_PER_STREAM,
            );
            Box::new(bursts) as Box<dyn Iterator<Item = ArrivalEvent>>
        })
        .collect();
    let arrivals: Vec<ArrivalEvent> = merge(sources).collect();
    let report = pipe.run(&arrivals);

    let rows = report
        .streams
        .iter()
        .zip(WEIGHTS)
        .map(|(row, w)| Row {
            stream: row.stream + 1,
            weight: w,
            frames: row.serviced,
            mean_delay_ms: row.mean_delay_us / 1e3,
            p99_delay_ms: row.p99_delay_us / 1e3,
            max_delay_ms: row.max_delay_us / 1e3,
            jitter_ms: row.jitter_us / 1e3,
        })
        .collect();
    Fig9 {
        rows,
        series: ids
            .iter()
            .map(|&id| pipe.delay_series(id).clone())
            .collect(),
    }
}

#[rustfmt::skip]
pub(crate) const ANCHORS: &[Anchor] = &[
    row("fig9.heavy_stream_delay", 1.0, Below, "stream 4's mean delay is below stream 1's (ratio)",
        |r| r.fig9().rows[3].mean_delay_ms / r.fig9().rows[0].mean_delay_ms),
    row("fig9.saw_tooth", 1.0, Above, "every stream's delay zig-zags (max / mean delay, flattest stream)",
        |r| r.fig9().rows.iter().map(|s| s.max_delay_ms / s.mean_delay_ms).fold(f64::INFINITY, f64::min)),
];

/// Prints the delays and writes `results/fig9.json` and the delay CSV.
pub fn report(runs: &Runs) {
    banner("F9", "Queuing delay under bursty arrivals (paper Figure 9)");
    let f9 = runs.fig9();
    print_rows(&f9.rows);
    let labels = ["w1_a", "w1_b", "w2", "w4"];
    let labeled: Vec<(&str, &TimeSeries)> = labels.into_iter().zip(&f9.series).collect();
    write_csv_multi("fig9_delay_us", "t_sec", &labeled);
    write_json("fig9", &f9.rows);
}
