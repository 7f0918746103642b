//! End-to-end endsystem scenarios spanning traffic generation, the Queue
//! Manager, the fabric, and the Transmission Engine.
#![allow(clippy::unwrap_used)]

use sharestreams::endsystem::{PciModel, TransferStrategy};
use sharestreams::prelude::*;
use sharestreams::traffic::{merge, Bursty, Cbr, OnOff, Poisson};

fn pipeline(weights: &[u32]) -> (EndsystemPipeline, Vec<StreamId>) {
    let slots = weights.len().next_power_of_two().max(2);
    let fabric = FabricConfig::dwcs(slots, FabricConfigKind::WinnerOnly);
    let mut pipe = EndsystemPipeline::new(EndsystemConfig::paper_endsystem(fabric)).unwrap();
    let ids = weights
        .iter()
        .map(|&w| {
            pipe.register(StreamSpec::new(
                format!("w{w}"),
                ServiceClass::FairShare { weight: w },
            ))
            .unwrap()
        })
        .collect();
    (pipe, ids)
}

#[test]
fn every_deposited_frame_is_transmitted() {
    let (mut pipe, ids) = pipeline(&[1, 2, 3]);
    let sources: Vec<Box<dyn Iterator<Item = ArrivalEvent>>> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            Box::new(Cbr::new(
                id,
                PacketSize(1000),
                50_000 + i as u64 * 7,
                0,
                1_000,
            )) as Box<dyn Iterator<Item = ArrivalEvent>>
        })
        .collect();
    let arrivals: Vec<ArrivalEvent> = merge(sources).collect();
    let report = pipe.run(&arrivals);
    assert_eq!(report.total_packets, 3_000);
    assert_eq!(report.dropped, 0);
    for row in &report.streams {
        assert_eq!(row.serviced, 1_000, "{}", row.name);
        assert_eq!(row.bytes, 1_000_000);
    }
}

#[test]
fn mixed_generators_conserve_packets() {
    let (mut pipe, ids) = pipeline(&[1, 1, 1, 1]);
    let sources: Vec<Box<dyn Iterator<Item = ArrivalEvent>>> = vec![
        Box::new(Cbr::new(ids[0], PacketSize(512), 200_000, 0, 800)),
        Box::new(Poisson::new(ids[1], PacketSize(512), 250_000.0, 42, 800)),
        Box::new(OnOff::new(
            ids[2],
            PacketSize(512),
            100_000,
            12.0,
            2_000_000.0,
            7,
            800,
        )),
        Box::new(Bursty::new(
            ids[3],
            PacketSize(512),
            100,
            50_000,
            5_000_000,
            0,
            800,
        )),
    ];
    let arrivals: Vec<ArrivalEvent> = merge(sources).collect();
    let report = pipe.run(&arrivals);
    assert_eq!(report.total_packets, 3_200);
    for row in &report.streams {
        assert_eq!(row.serviced, 800, "{}", row.name);
    }
}

#[test]
fn underloaded_pipeline_has_small_delays() {
    // Arrivals at 10% of link capacity: delays stay near one service time.
    let (mut pipe, ids) = pipeline(&[1, 1]);
    let service_ns = 1500 * 1_000_000_000 / 16_000_000; // 93.75 µs
    let sources: Vec<Box<dyn Iterator<Item = ArrivalEvent>>> = ids
        .iter()
        .map(|&id| {
            Box::new(Cbr::new(id, PacketSize(1500), service_ns * 20, 0, 500))
                as Box<dyn Iterator<Item = ArrivalEvent>>
        })
        .collect();
    let arrivals: Vec<ArrivalEvent> = merge(sources).collect();
    let report = pipe.run(&arrivals);
    for row in &report.streams {
        assert!(
            row.mean_delay_us < 3.0 * service_ns as f64 / 1e3,
            "{}: mean delay {}µs",
            row.name,
            row.mean_delay_us
        );
    }
}

#[test]
fn pci_transfer_costs_reduce_throughput_monotonically() {
    let fabric = FabricConfig::dwcs(2, FabricConfigKind::WinnerOnly);
    let base = EndsystemConfig::paper_endsystem(fabric);
    let mut pio1 = base;
    pio1.transfer = Some((PciModel::pci32_33(), TransferStrategy::PioPush, 1));
    let mut pio64 = base;
    pio64.transfer = Some((PciModel::pci32_33(), TransferStrategy::PioPush, 64));
    let mut dma256 = base;
    dma256.transfer = Some((PciModel::pci32_33(), TransferStrategy::DmaPull, 256));

    let no_transfer = base.modeled_pps();
    assert!(pio1.modeled_pps() < pio64.modeled_pps());
    assert!(pio64.modeled_pps() < no_transfer);
    assert!(dma256.modeled_pps() < no_transfer);
    assert!(dma256.modeled_pps() > pio1.modeled_pps());
}

#[test]
fn queue_capacity_drops_are_reported() {
    let fabric = FabricConfig::dwcs(2, FabricConfigKind::WinnerOnly);
    let mut cfg = EndsystemConfig::paper_endsystem(fabric);
    cfg.queue_capacity = 16;
    let mut pipe = EndsystemPipeline::new(cfg).unwrap();
    let a = pipe
        .register(StreamSpec::new("a", ServiceClass::BestEffort))
        .unwrap();
    // A huge instantaneous burst overruns the 16-slot queue.
    let arrivals: Vec<ArrivalEvent> = (0..1000)
        .map(|_| ArrivalEvent {
            time_ns: 0,
            stream: a,
            size: PacketSize(1500),
        })
        .collect();
    let report = pipe.run(&arrivals);
    assert!(report.dropped > 0);
    assert_eq!(report.total_packets + report.dropped, 1000);
}

#[test]
fn burst_delay_ramps_and_recovers() {
    // The Figure 9 mechanism in miniature: delay grows within an
    // overloading burst and the inter-burst gap drains it back down.
    let (mut pipe, ids) = pipeline(&[1, 1, 2, 4]);
    let sources: Vec<Box<dyn Iterator<Item = ArrivalEvent>>> = ids
        .iter()
        .map(|&id| {
            Box::new(Bursty::new(
                id,
                PacketSize(1500),
                400,
                150_000,
                200_000_000,
                0,
                800,
            )) as Box<dyn Iterator<Item = ArrivalEvent>>
        })
        .collect();
    let arrivals: Vec<ArrivalEvent> = merge(sources).collect();
    let report = pipe.run(&arrivals);
    // w4 (stream index 3) sees lower delay than w1 (index 0).
    assert!(report.streams[3].mean_delay_us < report.streams[0].mean_delay_us);
    // Ramp visible: max delay far above the single-service floor.
    assert!(report.streams[0].max_delay_us > 10.0 * 93.75);
    // Delay series is non-monotone (rises within bursts, falls after):
    let series = pipe.delay_series(ids[0]);
    let ys: Vec<f64> = series.points.iter().map(|p| p.1).collect();
    let rises = ys.windows(2).filter(|w| w[1] > w[0]).count();
    let falls = ys.windows(2).filter(|w| w[1] < w[0]).count();
    assert!(
        rises > 0 && falls > 0,
        "zig-zag expected: {rises} rises, {falls} falls"
    );
}
