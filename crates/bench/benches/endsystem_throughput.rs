//! Criterion bench: endsystem data-path components.
//!
//! * SPSC ring transfer cost (the sync-free circular queue the paper's
//!   concurrency rests on);
//! * the deterministic pipeline's per-frame cost;
//! * push-PIO vs pull-DMA transfer strategies (the paper's §4.3 tradeoff);
//! * streamlet-mux service cost (the aggregation hot path).
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ss_core::{Fabric, FabricConfig, FabricConfigKind, LatePolicy, StreamState};
use ss_endsystem::{
    spsc_ring, EndsystemConfig, EndsystemPipeline, PciModel, StreamletMux, StreamletSetConfig,
    TransferStrategy,
};
use ss_traffic::{merge, ArrivalEvent, Cbr};
use ss_types::{PacketSize, ServiceClass, StreamId, StreamSpec, WindowConstraint, Wrap16};
use std::hint::black_box;

fn bench_spsc(c: &mut Criterion) {
    let mut group = c.benchmark_group("endsystem/spsc");
    group.throughput(Throughput::Elements(1));
    let (mut tx, mut rx) = spsc_ring::<u64>(1024);
    for i in 0..512 {
        tx.push(i).unwrap();
    }
    group.bench_function("push_pop", |b| {
        b.iter(|| {
            tx.push(black_box(7)).unwrap();
            black_box(rx.pop().unwrap())
        })
    });
    group.finish();
}

/// The scheduler thread's inner loop, isolated: one batched arrival deposit
/// (`push_arrivals`) followed by enough zero-allocation decision cycles
/// (`decision_cycle_into`) to drain the batch. This is the allocation-free
/// path `run_threaded` executes between ring drains.
fn bench_scheduler_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("endsystem/scheduler_core");
    const BATCH: usize = 64;
    group.throughput(Throughput::Elements(BATCH as u64));
    for slots in [4usize, 16] {
        let mut fabric =
            Fabric::new(FabricConfig::dwcs(slots, FabricConfigKind::WinnerOnly)).unwrap();
        for s in 0..slots {
            fabric
                .load_stream(
                    s,
                    StreamState {
                        request_period: slots as u64,
                        original_window: WindowConstraint::new(1, 2),
                        static_prio: 0,
                        late_policy: LatePolicy::ServeLate,
                    },
                    (s + 1) as u64,
                )
                .unwrap();
        }
        let batch: Vec<(usize, Wrap16)> = (0..BATCH)
            .map(|i| (i % slots, Wrap16::from_wide(i as u64)))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("batch_deposit_drain", slots),
            &slots,
            |b, _| {
                b.iter(|| {
                    fabric.push_arrivals(&batch).unwrap();
                    let mut sent = 0usize;
                    while sent < BATCH {
                        sent += fabric.decision_cycle_into().len();
                    }
                    black_box(sent)
                })
            },
        );
    }
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("endsystem/pipeline");
    const FRAMES: u64 = 4_000;
    group.throughput(Throughput::Elements(4 * FRAMES));
    group.sample_size(10);
    group.bench_function("run_16k_frames", |b| {
        b.iter(|| {
            let fabric = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
            let mut pipe =
                EndsystemPipeline::new(EndsystemConfig::paper_endsystem(fabric)).unwrap();
            let ids: Vec<StreamId> = [1u32, 1, 2, 4]
                .iter()
                .map(|&w| {
                    pipe.register(StreamSpec::new(
                        format!("w{w}"),
                        ServiceClass::FairShare { weight: w },
                    ))
                    .unwrap()
                })
                .collect();
            let sources: Vec<Box<dyn Iterator<Item = ArrivalEvent>>> = ids
                .iter()
                .map(|&id| {
                    Box::new(Cbr::new(id, PacketSize(1500), 1_000, 0, FRAMES))
                        as Box<dyn Iterator<Item = ArrivalEvent>>
                })
                .collect();
            let arrivals: Vec<ArrivalEvent> = merge(sources).collect();
            black_box(pipe.run(&arrivals).total_packets)
        })
    });
    group.finish();
}

fn bench_transfer_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("endsystem/pci_model");
    let model = PciModel::pci32_33();
    for batch in [1u64, 16, 256] {
        group.bench_with_input(BenchmarkId::new("pio", batch), &batch, |b, &n| {
            b.iter(|| black_box(model.per_packet_overhead_ns(n, TransferStrategy::PioPush)))
        });
        group.bench_with_input(BenchmarkId::new("dma", batch), &batch, |b, &n| {
            b.iter(|| black_box(model.per_packet_overhead_ns(n, TransferStrategy::DmaPull)))
        });
    }
    group.finish();
}

fn bench_streamlet_mux(c: &mut Criterion) {
    let mut group = c.benchmark_group("endsystem/streamlet_mux");
    group.throughput(Throughput::Elements(1));
    let mut mux = StreamletMux::new(&[
        StreamletSetConfig {
            streamlets: 50,
            weight: 2,
        },
        StreamletSetConfig {
            streamlets: 50,
            weight: 1,
        },
    ]);
    let ev = ArrivalEvent {
        time_ns: 0,
        stream: StreamId::new(0).unwrap(),
        size: PacketSize(1500),
    };
    for set in 0..2 {
        for sl in 0..50 {
            for _ in 0..8 {
                mux.deposit(set, sl, ev);
            }
        }
    }
    group.bench_function("wrr_next_refill", |b| {
        b.iter(|| {
            let (set, sl, e) = mux.next().expect("backlogged");
            mux.deposit(set, sl, e);
            black_box(sl)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_spsc,
    bench_scheduler_core,
    bench_pipeline,
    bench_transfer_strategies,
    bench_streamlet_mux
);
criterion_main!(benches);
