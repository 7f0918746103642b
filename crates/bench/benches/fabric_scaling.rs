//! Criterion bench: full decision cycles across the Figure 7 design space.
//!
//! Sweeps stream-slots × {BA, WR} (the paper's Figure 7 axes) plus the
//! network-level bitonic-vs-shuffle-exchange ablation (DESIGN.md §3) and
//! the PRIORITY_UPDATE bypass (fair-queuing mapping). Simulated-cycle
//! counts are deterministic (log2 N per decision); this measures the
//! *simulator's* cost per decision so the experiment binaries' runtimes
//! stay predictable.
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ss_core::decision::compare_batch;
use ss_core::{
    network, BlockOrder, DecisionBlock, Fabric, FabricConfig, FabricConfigKind, LatePolicy,
    RtlFabric, RuleCounters, ScheduledPacket, StreamState,
};
use ss_sharded::ShardedScheduler;
use ss_types::packed::pack;
use ss_types::{ComparisonMode, SlotId, StreamAttrs, WindowConstraint, Wrap16};
use std::hint::black_box;

/// The benches' stream: DWCS window 1/2, serve-late, one request per
/// `period` packet-times.
fn stream(period: u64) -> StreamState {
    StreamState {
        request_period: period,
        original_window: WindowConstraint::new(1, 2),
        static_prio: 0,
        late_policy: LatePolicy::ServeLate,
    }
}

fn backlogged_fabric(config: FabricConfig) -> Fabric {
    let mut fabric = Fabric::new(config).unwrap();
    for s in 0..config.slots {
        fabric
            .load_stream(s, stream(config.slots as u64), (s + 1) as u64)
            .unwrap();
        // Modest initial backlog; the measured loop refills what it
        // consumes so the fabric never runs dry.
        for q in 0..64u64 {
            fabric.push_arrival(s, Wrap16::from_wide(q)).unwrap();
        }
    }
    fabric
}

/// One decision cycle with refill: every serviced slot gets a replacement
/// arrival, keeping the backlog (and therefore the work) constant across
/// criterion iterations.
fn steady_state_cycle(fabric: &mut Fabric) -> usize {
    let outcome = fabric.decision_cycle();
    let n = outcome.packets().len();
    for p in outcome.packets() {
        fabric.push_arrival(p.slot.index(), Wrap16::ZERO).unwrap();
    }
    black_box(n)
}

fn bench_ba_vs_wr(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric/decision_cycle");
    for slots in [4usize, 8, 16, 32] {
        for kind in [FabricConfigKind::Base, FabricConfigKind::WinnerOnly] {
            let mut fabric = backlogged_fabric(FabricConfig::dwcs(slots, kind));
            group.bench_with_input(BenchmarkId::new(kind.to_string(), slots), &slots, |b, _| {
                b.iter(|| steady_state_cycle(&mut fabric))
            });
        }
    }
    group.finish();
}

/// Same steady-state cycle through the allocation-free view: the packets
/// stay in the fabric's persistent block buffer and the refill reads them
/// by index, so the measured loop never touches the heap.
fn steady_state_cycle_into(fabric: &mut Fabric) -> usize {
    let n = fabric.decision_cycle_into().len();
    for i in 0..n {
        let slot = fabric.last_block()[i].slot.index();
        fabric.push_arrival(slot, Wrap16::ZERO).unwrap();
    }
    black_box(n)
}

fn bench_alloc_free(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric/alloc_free");
    for slots in [4usize, 8, 16, 32] {
        for kind in [FabricConfigKind::Base, FabricConfigKind::WinnerOnly] {
            let mut fabric = backlogged_fabric(FabricConfig::dwcs(slots, kind));
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}_into"), slots),
                &slots,
                |b, _| b.iter(|| steady_state_cycle_into(&mut fabric)),
            );
        }
        // Batched driver: 64 cycles per iteration through a preallocated
        // sink, amortizing dispatch over the batch.
        let mut fabric = backlogged_fabric(FabricConfig::dwcs(slots, FabricConfigKind::WinnerOnly));
        let mut sink: Vec<ScheduledPacket> = Vec::with_capacity(64 * slots);
        group.bench_with_input(BenchmarkId::new("wr_batched_64", slots), &slots, |b, _| {
            b.iter(|| {
                sink.clear();
                let n = fabric.decision_cycles(64, &mut sink);
                for p in &sink {
                    fabric.push_arrival(p.slot.index(), Wrap16::ZERO).unwrap();
                }
                black_box(n)
            })
        });
    }
    group.finish();
}

fn bench_sharded(c: &mut Criterion) {
    // Inline winner-merge frontend: bit-exact against the single fabric,
    // with per-shard decisions of width N/K.
    let mut group = c.benchmark_group("fabric/sharded_inline");
    let slots = 32usize;
    for shards in [1usize, 2, 4, 8] {
        let mut sharded = ShardedScheduler::new(
            FabricConfig::dwcs(slots, FabricConfigKind::WinnerOnly),
            shards,
        )
        .unwrap();
        for s in 0..slots {
            sharded
                .load_stream(s, stream(slots as u64), (s + 1) as u64)
                .unwrap();
            for q in 0..64u64 {
                sharded.push_arrival(s, Wrap16::from_wide(q)).unwrap();
            }
        }
        group.bench_with_input(BenchmarkId::new("32_slots", shards), &shards, |b, _| {
            b.iter(|| {
                let p = sharded.decision_cycle();
                if let Some(p) = p {
                    sharded.push_arrival(p.slot.index(), Wrap16::ZERO).unwrap();
                }
                black_box(p.is_some())
            })
        });
    }
    group.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric/ablations");

    // Bitonic full sort (10 passes) vs log2(N) shuffle-exchange (4 passes)
    // at the network level, on the same 16 scrambled words and the same
    // eight Decision blocks — no fabric runs the bitonic schedule.
    let words: Vec<StreamAttrs> = (0..16u8)
        .map(|i| StreamAttrs {
            deadline: Wrap16(u16::from(i) * 37 % 101),
            window: WindowConstraint::new(1, 2),
            arrival: Wrap16(0),
            slot: SlotId::new_unchecked(i),
            static_prio: 0,
            valid: true,
        })
        .collect();
    let mut blocks: Vec<DecisionBlock> = (0..8).map(|_| DecisionBlock::new()).collect();
    let (mut a, mut scratch) = (words.clone(), words.clone());
    group.bench_function("shuffle_16", |b| {
        b.iter(|| {
            a.copy_from_slice(&words);
            let (in_a, _) = network::ba_decision_ping_pong(
                &mut a,
                &mut scratch,
                &mut blocks,
                ComparisonMode::Dwcs,
            );
            black_box(if in_a { a[0] } else { scratch[0] })
        })
    });
    group.bench_function("bitonic_16", |b| {
        b.iter(|| {
            black_box(network::bitonic_decision(&words, &mut blocks, ComparisonMode::Dwcs).0[0])
        })
    });

    // PRIORITY_UPDATE bypass (fair-queuing mapping) vs full DWCS.
    let mut svc_tag =
        backlogged_fabric(FabricConfig::service_tag(16, FabricConfigKind::WinnerOnly));
    group.bench_function("service_tag_bypass_16", |b| {
        b.iter(|| steady_state_cycle(&mut svc_tag))
    });

    // Min-first vs max-first block circulation.
    let mut min_first = backlogged_fabric(FabricConfig {
        block_order: BlockOrder::MinFirst,
        ..FabricConfig::edf(16, FabricConfigKind::Base)
    });
    group.bench_function("block_min_first_16", |b| {
        b.iter(|| steady_state_cycle(&mut min_first))
    });
    group.finish();
}

fn bench_rtl_vs_functional(c: &mut Criterion) {
    // Simulator-cost comparison: the two-phase RTL kernel pays for its
    // cycle-accurate visibility; this quantifies the overhead per decision.
    let mut group = c.benchmark_group("fabric/rtl_vs_functional");
    let config = FabricConfig::dwcs(16, FabricConfigKind::WinnerOnly);
    let mut functional = backlogged_fabric(config);
    group.bench_function("functional_16", |b| {
        b.iter(|| steady_state_cycle(&mut functional))
    });

    let mut rtl = RtlFabric::new(config).unwrap();
    for s in 0..16 {
        rtl.load_stream(s, stream(16), (s + 1) as u64).unwrap();
        for q in 0..64u64 {
            rtl.push_arrival(s, Wrap16::from_wide(q)).unwrap();
        }
    }
    group.bench_function("rtl_16", |b| {
        b.iter(|| {
            let outcome = rtl.run_decision();
            for p in outcome.packets() {
                rtl.push_arrival(p.slot.index(), Wrap16::ZERO).unwrap();
            }
            black_box(outcome.packets().len())
        })
    });
    group.finish();
}

/// The two BA networks behind `network::ba_decision_from_planes` on 32
/// lanes, and what a block that turns out to tie pays for having tried the
/// key network first — the side `BENCHMARK.json` has no workload for.
/// `key_32` and `word_32` decide the same tie-free words (`word_32` is the
/// fallback's own code, five `compare_batch` passes); the `all_tied` rows
/// share one deadline, so `key_then_word − word` is the declined attempt.
fn bench_ba_networks(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric/ba_networks");
    let mode = ComparisonMode::Dwcs;
    let lanes = |deadline: fn(u8) -> u16| -> [u64; 32] {
        std::array::from_fn(|i| {
            pack(&StreamAttrs {
                deadline: Wrap16(deadline(i as u8)),
                window: WindowConstraint::new(i as u8 % 4, 4),
                arrival: Wrap16(i as u16),
                slot: SlotId::new_unchecked(i as u8),
                static_prio: 0,
                valid: true,
            })
        })
    };
    let staggered = lanes(|i| 1 + u16::from(i) * 37 % 101);
    let tied = lanes(|_| 500);
    let (mut a, mut b) = ([0u64; 32], [0u64; 32]);
    let mut counters = RuleCounters::default();

    let mut word_network = |words: &[u64; 32]| {
        compare_batch(words, &mut b, mode, &mut counters);
        compare_batch(&b, &mut a, mode, &mut counters);
        compare_batch(&a, &mut b, mode, &mut counters);
        compare_batch(&b, &mut a, mode, &mut counters);
        compare_batch(&a, &mut b, mode, &mut counters);
        black_box(b[0])
    };
    group.bench_function("word_32", |bch| {
        bch.iter(|| word_network(black_box(&staggered)))
    });
    group.bench_function("word_32_all_tied", |bch| {
        bch.iter(|| word_network(black_box(&tied)))
    });

    let mut either_network = |words: &[u64; 32]| {
        let in_a = network::ba_decision_from_planes(words, &mut a, &mut b, mode, &mut counters);
        black_box(if in_a { a[0] } else { b[0] })
    };
    group.bench_function("key_32", |bch| {
        bch.iter(|| either_network(black_box(&staggered)))
    });
    group.bench_function("key_then_word_32_all_tied", |bch| {
        bch.iter(|| either_network(black_box(&tied)))
    });
    group.finish();
}

/// The winner-only path as every system workload drives it: one arrival,
/// one decision, the winner's slot refilled so queue depths never move.
/// `on_time` (period = slots, one packet queued) is the regime a
/// backlogged periodic stream set lives in — every head due within a
/// period of `now`, no loser ever late; `all_late` (period 2 over an
/// 8-deep preload) is 2–16× overload, where all the losers expire every
/// cycle. The ablation rows of EXPERIMENTS.md "The winner-only path".
fn bench_wr_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric/wr_cycle");
    for slots in [4usize, 8, 32] {
        for (regime, period, preload) in [("on_time", slots as u64, 1), ("all_late", 2, 8)] {
            let config = FabricConfig::dwcs(slots, FabricConfigKind::WinnerOnly);
            let mut fabric = Fabric::new(config).unwrap();
            for s in 0..slots {
                fabric
                    .load_stream(s, stream(period), (s + 1) as u64)
                    .unwrap();
                for q in 0..preload {
                    fabric.push_arrival(s, Wrap16::from_wide(q)).unwrap();
                }
            }
            // The first iteration's arrival lands where the first winner
            // will leave a gap one cycle later.
            let mut refill = 0usize;
            let mut tag = 0u16;
            group.bench_function(BenchmarkId::new(slots.to_string(), regime), |b| {
                b.iter(|| {
                    tag = tag.wrapping_add(1);
                    fabric.push_arrival(refill, Wrap16(tag)).unwrap();
                    if let Some(p) = fabric.decision_cycle_into().first() {
                        refill = p.slot.index();
                    }
                    black_box(refill)
                })
            });
        }
    }
    group.finish();
}

/// One global cycle of the inline sharded frontend, `<total slots>x<K>`,
/// each winner's slot refilled. `8x2_one_excluded` is the soak lab's node
/// after its light-fault schedule has taken a shard: one live 4-slot
/// fabric behind the frontend.
fn bench_inline_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded/inline_cycle");
    for (name, slots, shards, excluded) in [
        ("8x2_one_excluded", 8usize, 2usize, Some(1usize)),
        ("8x2", 8, 2, None),
        ("32x1", 32, 1, None),
        ("32x2", 32, 2, None),
        ("32x4", 32, 4, None),
    ] {
        let config = FabricConfig::dwcs(slots, FabricConfigKind::WinnerOnly);
        let mut sharded = ShardedScheduler::new(config, shards).unwrap();
        for s in 0..slots {
            sharded
                .load_stream(s, stream(slots as u64), (s + 1) as u64)
                .unwrap();
            sharded.push_arrival(s, Wrap16::ZERO).unwrap();
        }
        if let Some(k) = excluded {
            sharded.fail_shard(k).unwrap();
        }
        let mut tag = 0u16;
        group.bench_function(name, |b| {
            b.iter(|| {
                let p = sharded.decision_cycle();
                if let Some(p) = p {
                    tag = tag.wrapping_add(1);
                    sharded.push_arrival(p.slot.index(), Wrap16(tag)).unwrap();
                }
                black_box(p.is_some())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_wr_cycle,
    bench_inline_cycle,
    bench_ba_vs_wr,
    bench_alloc_free,
    bench_sharded,
    bench_ablations,
    bench_ba_networks,
    bench_rtl_vs_functional
);
criterion_main!(benches);
