//! Criterion bench: hardware priority-queue baselines vs the recirculating
//! shuffle — the §3 related-work argument, measured.
//!
//! Two workloads per structure:
//! * `static_tags` — fair-queuing style: insert + extract-min, no resort;
//! * `wc_resort` — window-constrained style: every stored key changes each
//!   decision, forcing a drain-and-refill (the cost the shuffle avoids).
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ss_bench::priorityq::{
    ComparatorTree, HwPriorityQueue, PipelinedHeap, PqEntry, ShiftRegisterChain, SystolicQueue,
};
use ss_core::{Fabric, FabricConfig, FabricConfigKind, LatePolicy, StreamState};
use ss_types::{WindowConstraint, Wrap16};
use std::hint::black_box;

const N: usize = 16;

fn bench_static_tags(c: &mut Criterion) {
    let mut group = c.benchmark_group("priorityq/static_tags");
    fn run<Q: HwPriorityQueue>(q: &mut Q, key: &mut u64) -> u32 {
        q.insert(PqEntry {
            key: *key,
            id: (*key % 97) as u32,
        });
        *key += 1;
        let (e, _) = q.extract_min();
        black_box(e.expect("non-empty").id)
    }
    macro_rules! bench_q {
        ($name:literal, $ctor:expr) => {{
            let mut q = $ctor;
            for i in 0..N as u64 / 2 {
                q.insert(PqEntry {
                    key: i,
                    id: i as u32,
                });
            }
            let mut key = 1000u64;
            group.bench_function(BenchmarkId::new($name, N), |b| {
                b.iter(|| run(&mut q, &mut key))
            });
        }};
    }
    bench_q!("heap", PipelinedHeap::new(N));
    bench_q!("systolic", SystolicQueue::new(N));
    bench_q!("shift_register", ShiftRegisterChain::new(N));
    bench_q!("comparator_tree", ComparatorTree::new(N));
    group.finish();
}

fn bench_wc_resort(c: &mut Criterion) {
    let mut group = c.benchmark_group("priorityq/wc_resort");
    // Window-constrained decision: extract the winner, then every
    // remaining key changes → drain and reinsert all N entries.
    fn resort<Q: HwPriorityQueue>(q: &mut Q, epoch: &mut u64) -> u64 {
        let mut drained = Vec::with_capacity(N);
        while let (Some(e), _) = q.extract_min() {
            drained.push(e);
        }
        *epoch += 1;
        let mut cycles = 0u64;
        for (i, e) in drained.into_iter().enumerate() {
            cycles += q.insert(PqEntry {
                key: e.key.wrapping_add(*epoch + i as u64 % 3),
                id: e.id,
            });
        }
        black_box(cycles)
    }
    macro_rules! bench_q {
        ($name:literal, $ctor:expr) => {{
            let mut q = $ctor;
            for i in 0..N as u64 {
                q.insert(PqEntry {
                    key: i,
                    id: i as u32,
                });
            }
            let mut epoch = 0u64;
            group.bench_function(BenchmarkId::new($name, N), |b| {
                b.iter(|| resort(&mut q, &mut epoch))
            });
        }};
    }
    bench_q!("heap", PipelinedHeap::new(N));
    bench_q!("systolic", SystolicQueue::new(N));
    bench_q!("shift_register", ShiftRegisterChain::new(N));
    bench_q!("comparator_tree", ComparatorTree::new(N));

    // The shuffle's equivalent: one decision cycle IS the resort.
    let mut fabric = Fabric::new(FabricConfig::dwcs(N, FabricConfigKind::Base)).unwrap();
    for s in 0..N {
        fabric
            .load_stream(
                s,
                StreamState {
                    request_period: N as u64,
                    original_window: WindowConstraint::new(1, 2),
                    static_prio: 0,
                    late_policy: LatePolicy::ServeLate,
                },
                (s + 1) as u64,
            )
            .unwrap();
        for q in 0..16u64 {
            fabric.push_arrival(s, Wrap16::from_wide(q)).unwrap();
        }
    }
    group.bench_function(BenchmarkId::new("sharestreams_shuffle", N), |b| {
        b.iter(|| {
            let outcome = fabric.decision_cycle();
            for p in outcome.packets() {
                fabric.push_arrival(p.slot.index(), Wrap16::ZERO).unwrap();
            }
            black_box(outcome.packets().len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_static_tags, bench_wc_resort);
criterion_main!(benches);
