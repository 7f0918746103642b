//! Criterion bench: the single-cycle Decision block.
//!
//! Measures the software cost of the combinational rule chain per mode and
//! per firing rule — the hot inner loop of every fabric simulation. (In
//! hardware this is one cycle by construction; here the numbers bound the
//! simulator's fidelity-per-second.)
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ss_core::DecisionBlock;
use ss_types::{ComparisonMode, SlotId, StreamAttrs, WindowConstraint, Wrap16};
use std::hint::black_box;

fn attrs(slot: u8, deadline: u16, num: u8, den: u8, arrival: u16) -> StreamAttrs {
    StreamAttrs {
        deadline: Wrap16(deadline),
        window: WindowConstraint::new(num, den),
        arrival: Wrap16(arrival),
        slot: SlotId::new(slot).unwrap(),
        static_prio: slot,
        valid: true,
    }
}

fn bench_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("decision_block/modes");
    let a = attrs(0, 100, 1, 4, 5);
    let b = attrs(1, 101, 1, 2, 9);
    for mode in [
        ComparisonMode::Dwcs,
        ComparisonMode::Edf,
        ComparisonMode::StaticPriority,
        ComparisonMode::ServiceTag,
    ] {
        group.bench_function(format!("{mode:?}"), |bench| {
            bench.iter_batched(
                DecisionBlock::new,
                |mut blk| black_box(blk.compare(black_box(a), black_box(b), mode)),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_rule_depth(c: &mut Criterion) {
    // Each case is decided by a successively deeper Table 2 rule.
    let mut group = c.benchmark_group("decision_block/rule_depth");
    let cases = [
        (
            "rule1_deadline",
            attrs(0, 10, 1, 2, 0),
            attrs(1, 20, 1, 2, 0),
        ),
        ("rule2_window", attrs(0, 10, 1, 4, 0), attrs(1, 10, 1, 2, 0)),
        (
            "rule3_denominator",
            attrs(0, 10, 0, 5, 0),
            attrs(1, 10, 0, 2, 0),
        ),
        (
            "rule4_numerator",
            attrs(0, 10, 1, 2, 0),
            attrs(1, 10, 2, 4, 0),
        ),
        ("rule5_fcfs", attrs(0, 10, 1, 2, 3), attrs(1, 10, 1, 2, 7)),
        (
            "slot_tiebreak",
            attrs(0, 10, 1, 2, 3),
            attrs(1, 10, 1, 2, 3),
        ),
    ];
    for (name, a, b) in cases {
        group.bench_function(name, |bench| {
            bench.iter_batched(
                DecisionBlock::new,
                |mut blk| black_box(blk.compare(black_box(a), black_box(b), ComparisonMode::Dwcs)),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_modes, bench_rule_depth);
criterion_main!(benches);
