//! Property tests over randomized fabric workloads: conservation and
//! counter-consistency invariants that must hold for *any* stream mix,
//! any routing configuration, and any arrival pattern.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sharestreams::core::{
    BlockOrder, DecisionOutcome, Fabric, FabricConfig, FabricConfigKind, LatePolicy, StreamState,
};
use sharestreams::types::{WindowConstraint, Wrap16};

#[derive(Debug, Clone)]
struct RandomStream {
    period: u64,
    window: (u8, u8),
    policy: LatePolicy,
    arrivals: u64,
}

fn arb_stream() -> impl Strategy<Value = RandomStream> {
    (
        1u64..12,
        (0u8..4, 1u8..6),
        prop_oneof![
            Just(LatePolicy::ServeLate),
            Just(LatePolicy::Drop),
            Just(LatePolicy::Renew)
        ],
        0u64..60,
    )
        .prop_map(|(period, window, policy, arrivals)| RandomStream {
            period,
            window,
            policy,
            arrivals,
        })
}

fn arb_config() -> impl Strategy<Value = FabricConfig> {
    (
        prop_oneof![Just(4usize), Just(8)],
        prop_oneof![
            Just(FabricConfigKind::Base),
            Just(FabricConfigKind::WinnerOnly)
        ],
        any::<bool>(),
        prop_oneof![Just(BlockOrder::MaxFirst), Just(BlockOrder::MinFirst)],
        any::<bool>(),
    )
        .prop_map(|(slots, kind, edf, block_order, compute_ahead)| {
            let base = if edf {
                FabricConfig::edf(slots, kind)
            } else {
                FabricConfig::dwcs(slots, kind)
            };
            FabricConfig {
                block_order,
                compute_ahead,
                ..base
            }
        })
}

fn build(config: FabricConfig, streams: &[RandomStream]) -> Fabric {
    let mut fabric = Fabric::new(config).unwrap();
    for (s, rs) in streams.iter().enumerate().take(config.slots) {
        fabric
            .load_stream(
                s,
                StreamState {
                    request_period: rs.period,
                    original_window: WindowConstraint::new(
                        rs.window.0.min(rs.window.1),
                        rs.window.1,
                    ),
                    static_prio: 0,
                    late_policy: rs.policy,
                },
                (s as u64 % 3) + 1,
            )
            .unwrap();
        for q in 0..rs.arrivals {
            fabric
                .push_arrival(s, Wrap16::from_wide(q * 8 + s as u64))
                .unwrap();
        }
    }
    fabric
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packet conservation: arrivals = transmitted + dropped + residual
    /// backlog, per slot, for any workload and configuration.
    #[test]
    fn packets_are_conserved(
        config in arb_config(),
        streams in proptest::collection::vec(arb_stream(), 8),
        decisions in 1u64..300,
    ) {
        let mut fabric = build(config, &streams);
        let mut transmitted = vec![0u64; config.slots];
        for _ in 0..decisions {
            match fabric.decision_cycle() {
                DecisionOutcome::Winner(Some(p)) => transmitted[p.slot.index()] += 1,
                DecisionOutcome::Winner(None) => {}
                DecisionOutcome::Block(v) => {
                    for p in v {
                        transmitted[p.slot.index()] += 1;
                    }
                }
            }
        }
        for (s, rs) in streams.iter().enumerate().take(config.slots) {
            let c = fabric.slot_counters(s).unwrap();
            let backlog = fabric.backlog(s).unwrap() as u64;
            prop_assert_eq!(
                rs.arrivals,
                transmitted[s] + c.dropped + backlog,
                "slot {} conservation", s
            );
            prop_assert_eq!(c.serviced, transmitted[s], "slot {} serviced counter", s);
        }
    }

    /// Counter consistency: met ≤ serviced; met + (late services) = serviced;
    /// wins ≤ decisions; violations only on zero-tolerance misses.
    #[test]
    fn counters_are_consistent(
        config in arb_config(),
        streams in proptest::collection::vec(arb_stream(), 8),
        decisions in 1u64..300,
    ) {
        let mut fabric = build(config, &streams);
        for _ in 0..decisions {
            fabric.decision_cycle();
        }
        let mut total_wins = 0;
        for s in 0..config.slots {
            let c = fabric.slot_counters(s).unwrap();
            prop_assert!(c.met_deadlines <= c.serviced);
            prop_assert!(c.dropped <= c.missed_deadlines,
                "every drop is recorded as a miss first");
            prop_assert!(c.violations <= c.missed_deadlines);
            total_wins += c.wins;
        }
        prop_assert!(total_wins <= fabric.decision_count());
    }

    /// Time advances exactly one packet-time per WR decision, and by the
    /// block size (or one, when idle) per BA decision.
    #[test]
    fn time_advance_matches_transmissions(
        config in arb_config(),
        streams in proptest::collection::vec(arb_stream(), 8),
        decisions in 1u64..200,
    ) {
        let mut fabric = build(config, &streams);
        for _ in 0..decisions {
            let before = fabric.now();
            let outcome = fabric.decision_cycle();
            let sent = outcome.packets().len() as u64;
            let expected = match config.kind {
                FabricConfigKind::WinnerOnly => 1,
                FabricConfigKind::Base => sent.max(1),
            };
            prop_assert_eq!(fabric.now() - before, expected);
        }
    }

    /// Hardware-cycle accounting is exact for every configuration.
    #[test]
    fn hw_cycles_are_exact(
        config in arb_config(),
        streams in proptest::collection::vec(arb_stream(), 8),
        decisions in 1u64..100,
    ) {
        let mut fabric = build(config, &streams);
        let loads = fabric.hw_cycles(); // one LOAD per configured slot
        prop_assert_eq!(loads, config.slots as u64);
        for _ in 0..decisions {
            fabric.decision_cycle();
        }
        let log2n = config.slots.trailing_zeros() as u64;
        let per_decision = log2n + u64::from(config.priority_update && !config.compute_ahead);
        prop_assert_eq!(fabric.hw_cycles(), loads + decisions * per_decision);
    }
}
