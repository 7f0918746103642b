//! The "unified canonical architecture" claim: one fabric maps
//! priority-class, fair-queuing, and window-constrained disciplines
//! (paper §2/§4.3), cross-checked against the software disciplines crate.

use sharestreams::core::{Fabric, FabricConfig, FabricConfigKind, LatePolicy, StreamState};
use sharestreams::disciplines::{Discipline, StaticPriority, SwPacket, Wfq};
use sharestreams::prelude::*;

/// Fair-queuing mapping: the fabric in ServiceTag mode with constant tag
/// increments must divide bandwidth like software WFQ with the matching
/// weights (fixed packet sizes → constant per-packet finish-tag increments,
/// exactly what a 16-bit hardware tag field can carry).
#[test]
fn service_tag_mode_matches_wfq_shares() {
    let periods = [8u64, 8, 4, 2]; // tag increments ∝ 1/weight
    let weights = vec![1u32, 1, 2, 4];

    let mut fabric =
        Fabric::new(FabricConfig::service_tag(4, FabricConfigKind::WinnerOnly)).unwrap();
    for (s, &p) in periods.iter().enumerate() {
        fabric
            .load_stream(
                s,
                StreamState {
                    request_period: p,
                    original_window: WindowConstraint::new(1, 1),
                    static_prio: 0,
                    late_policy: LatePolicy::ServeLate,
                },
                p,
            )
            .unwrap();
        for q in 0..4000u64 {
            fabric.push_arrival(s, Wrap16::from_wide(q)).unwrap();
        }
    }
    let mut fabric_counts = [0u64; 4];
    for _ in 0..4000 {
        if let Some(p) = fabric.decision_cycle_into().first() {
            fabric_counts[p.slot.index()] += 1;
        }
    }

    let mut wfq = Wfq::new(weights);
    for s in 0..4 {
        for q in 0..4000u64 {
            wfq.enqueue(SwPacket::new(s, q, q, 1000));
        }
    }
    let mut wfq_counts = [0u64; 4];
    for t in 0..4000u64 {
        wfq_counts[wfq.select(t).unwrap().stream] += 1;
    }

    for s in 0..4 {
        let f = fabric_counts[s] as f64 / 4000.0;
        let w = wfq_counts[s] as f64 / 4000.0;
        assert!(
            (f - w).abs() < 0.02,
            "stream {s}: fabric share {f:.3} vs WFQ share {w:.3}"
        );
    }
}

/// Priority-class mapping: StaticPriority mode must agree with the
/// software strict-priority scheduler on which class is served while
/// higher classes are backlogged.
#[test]
fn static_priority_mode_matches_software() {
    let levels = [3u8, 0, 2, 1];
    let mut fabric = Fabric::new(FabricConfig::static_priority(
        4,
        FabricConfigKind::WinnerOnly,
    ))
    .unwrap();
    for (s, &level) in levels.iter().enumerate() {
        fabric
            .load_stream(
                s,
                StreamState {
                    request_period: 1,
                    original_window: WindowConstraint::new(1, 1),
                    static_prio: level,
                    late_policy: LatePolicy::ServeLate,
                },
                100,
            )
            .unwrap();
    }
    let mut sw = StaticPriority::new(levels.to_vec());

    // Backlog depths differ per stream so the urgent classes drain first.
    let depths = [5u64, 3, 4, 2];
    for (s, &d) in depths.iter().enumerate() {
        for q in 0..d {
            fabric.push_arrival(s, Wrap16::from_wide(q)).unwrap();
            sw.enqueue(SwPacket::new(s, q, q, 64));
        }
    }
    let total: u64 = depths.iter().sum();
    for t in 0..total {
        let &[p] = fabric.decision_cycle_into() else {
            panic!("decision {t}: one winner expected")
        };
        let fw = p.slot.index();
        let sww = sw.select(t).unwrap().stream;
        assert_eq!(fw, sww, "decision {t}");
    }
}

/// The update-cycle bypass: fair-queuing and priority-class mappings spend
/// log2(N) cycles per decision; window-constrained spends log2(N)+1 — the
/// structural difference Table 1 tabulates.
#[test]
fn update_cycle_bypass_accounting() {
    type ConfigCtor = fn(usize, FabricConfigKind) -> FabricConfig;
    for (slots, log2n) in [(4usize, 2u64), (8, 3), (16, 4), (32, 5)] {
        let cases: [(ConfigCtor, u64); 4] = [
            (FabricConfig::dwcs, log2n + 1),
            (FabricConfig::edf, log2n + 1),
            (FabricConfig::service_tag, log2n),
            (FabricConfig::static_priority, log2n),
        ];
        for (mk, cycles) in cases {
            let mut fabric = Fabric::new(mk(slots, FabricConfigKind::WinnerOnly)).unwrap();
            let before = fabric.hw_cycles();
            fabric.decision_cycle_into();
            assert_eq!(fabric.hw_cycles() - before, cycles, "slots {slots}");
        }
    }
}

/// Mixed classes on one DWCS fabric: each class keeps its contract
/// simultaneously (the §1 motivation scenario).
#[test]
fn mixed_classes_keep_contracts() {
    let config = FabricConfig::dwcs(8, FabricConfigKind::WinnerOnly);
    let mut sched = ShareStreamsScheduler::new(config, 8).unwrap();
    // Total nominal demand exactly 1.0 link: 1/8 + 1/8 + 1/2 + 1/8 + 1/8.
    let edf = sched
        .register(StreamSpec::new(
            "edf",
            ServiceClass::EarliestDeadline { request_period: 8 },
        ))
        .unwrap();
    let wc = sched
        .register(StreamSpec::new(
            "wc",
            ServiceClass::WindowConstrained {
                request_period: 8,
                window: WindowConstraint::new(1, 2),
            },
        ))
        .unwrap();
    let heavy = sched
        .register(StreamSpec::new(
            "heavy",
            ServiceClass::FairShare { weight: 4 },
        ))
        .unwrap();
    let light = sched
        .register(StreamSpec::new(
            "light",
            ServiceClass::FairShare { weight: 1 },
        ))
        .unwrap();
    let be = sched
        .register(StreamSpec::new("be", ServiceClass::BestEffort))
        .unwrap();

    // Demand proportional to nominal share so no queue drains mid-run.
    for (id, count) in [
        (edf, 4000u64),
        (wc, 4000),
        (heavy, 16_000),
        (light, 4000),
        (be, 4000),
    ] {
        for q in 0..count {
            sched.enqueue(id, Wrap16::from_wide(q)).unwrap();
        }
    }
    sched.run_until_frames(10_000, 100_000);
    let report = sched.report();

    // EDF (1 per 4 slots, feasible) never misses.
    assert_eq!(report.streams[edf.index()].counters.missed_deadlines, 0);
    // The window-constrained stream never violates its 1-in-2 tolerance.
    assert_eq!(report.streams[wc.index()].counters.violations, 0);
    // Fair-share weights are honored among the fair-share pair.
    let h = report.streams[heavy.index()].counters.serviced as f64;
    let l = report.streams[light.index()].counters.serviced as f64;
    assert!((h / l - 4.0).abs() < 0.5, "heavy/light ratio {}", h / l);
    // Best effort still progresses (no starvation).
    assert!(report.streams[be.index()].counters.serviced > 0);
}
