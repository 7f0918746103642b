//! Figure 8 — Fair bandwidth allocation of four streams at ratios 1:1:2:4.
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

use serde::Serialize;
use ss_bench::{banner, write_csv_multi, write_json};
use ss_core::hwsim::TimeSeries;
use ss_core::{FabricConfig, FabricConfigKind};
use ss_endsystem::{EndsystemConfig, EndsystemPipeline};
use ss_traffic::{merge, ArrivalEvent, Cbr};
use ss_types::{PacketSize, ServiceClass, StreamId, StreamSpec};

const WEIGHTS: [u32; 4] = [1, 1, 2, 4];
const TOTAL_FRAMES: u64 = 64_000;

#[derive(Debug, Serialize)]
struct Row {
    stream: usize,
    weight: u32,
    frames: u64,
    mean_rate_mbps: f64,
    expected_mbps: f64,
    share_pct: f64,
}

fn main() {
    banner("F8", "Fair bandwidth allocation 1:1:2:4 (paper Figure 8)");
    let fabric = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
    let mut cfg = EndsystemConfig::paper_endsystem(fabric);
    cfg.bandwidth_window_ns = 100_000_000; // 100 ms windows
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
    let mut rows = Vec::new();
    println!(
        "  {:>7} {:>7} {:>8} {:>12} {:>13} {:>8}",
        "stream", "weight", "frames", "rate MB/s", "expected MB/s", "share %"
    );
    for (row, w) in report.streams.iter().zip(WEIGHTS) {
        let expected = 16.0 * f64::from(w) / f64::from(weight_sum);
        let rate = row.mean_rate / 1e6;
        let share = row.bytes as f64 / total_bytes as f64 * 100.0;
        println!(
            "  {:>7} {:>7} {:>8} {:>12.2} {:>13.2} {:>8.2}",
            row.stream + 1,
            w,
            row.serviced,
            rate,
            expected,
            share
        );
        rows.push(Row {
            stream: row.stream + 1,
            weight: w,
            frames: row.serviced,
            mean_rate_mbps: rate,
            expected_mbps: expected,
            share_pct: share,
        });
    }
    println!(
        "  total: {} frames in {:.2} s of link time",
        report.total_packets, report.sim_seconds
    );

    for (row, w) in rows.iter().zip(WEIGHTS) {
        let expected_share = 100.0 * f64::from(w) / f64::from(WEIGHTS.iter().sum::<u32>());
        assert!(
            (row.share_pct - expected_share).abs() < 1.5,
            "stream w{w}: share {:.2}% vs {:.2}%",
            row.share_pct,
            expected_share
        );
    }
    println!("  shape check passed: byte shares match 1:1:2:4 within 1.5 points");

    let series: Vec<_> = ids.iter().map(|&id| pipe.bandwidth_series(id)).collect();
    let labeled: Vec<(&str, &TimeSeries)> = ["w1_a", "w1_b", "w2", "w4"]
        .iter()
        .zip(&series)
        .map(|(l, s)| (*l, s))
        .collect();
    write_csv_multi("fig8_bandwidth", "t_sec", &labeled);
    write_json("fig8", &rows);
}
