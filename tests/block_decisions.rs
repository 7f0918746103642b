//! The Table 3 claims, each a row of the anchor table (`ss_bench::anchors()`)
//! evaluated at the paper's scale, plus block-mode invariants the paper's
//! §5.1 discussion relies on.
#![allow(clippy::unwrap_used)]

use sharestreams::core::{
    BlockOrder, Fabric, FabricConfig, FabricConfigKind, LatePolicy, StreamState,
};
use sharestreams::types::{WindowConstraint, Wrap16};
use ss_bench::experiments::table3::{self, FRAMES_PER_STREAM, STREAMS};
use ss_bench::{anchor, Runs};

/// Checks the anchor rows `ids` on one set of runs.
fn holds(ids: &[&str]) {
    let runs = Runs::default();
    for id in ids {
        anchor(id).check(&runs).unwrap();
    }
}

#[test]
fn max_first_block_meets_every_deadline() {
    holds(&["table3.max_first_misses"]);
}

#[test]
fn block_mode_needs_4x_fewer_decision_cycles() {
    holds(&["table3.max_finding_cycles", "table3.cycle_cut"]);
}

#[test]
fn max_finding_misses_once_per_stream_per_cycle() {
    holds(&["table3.max_finding_misses", "table3.max_finding_transient"]);
}

#[test]
fn min_first_sits_strictly_between() {
    holds(&[
        "table3.min_first_misses",
        "table3.min_first_below_max_finding",
    ]);
}

#[test]
fn winner_counts_split_evenly_in_max_finding() {
    holds(&["table3.max_finding_wins"]);
}

#[test]
fn block_transaction_preserves_per_stream_order() {
    // Within every block, each slot contributes exactly its head packet —
    // per-stream FIFO order is preserved across blocks.
    let mut fabric = table3::fabric(FabricConfigKind::Base, BlockOrder::MaxFirst);
    let mut last_deadline = [0u64; STREAMS];
    for _ in 0..FRAMES_PER_STREAM {
        let packets = fabric.decision_cycle_into();
        assert_eq!(packets.len(), STREAMS);
        let mut seen = [false; STREAMS];
        for p in packets {
            let s = p.slot.index();
            assert!(!seen[s], "slot {s} appeared twice in one block");
            seen[s] = true;
            assert!(p.deadline > last_deadline[s], "stream {s} reordered");
            last_deadline[s] = p.deadline;
        }
    }
    // Every frame of the drained max-first run met its deadline.
    for s in 0..STREAMS {
        let met = fabric.slot_counters(s).unwrap().met_deadlines;
        assert_eq!(met, FRAMES_PER_STREAM, "stream {s}");
    }
}

#[test]
fn fair_share_skews_under_block_transmission() {
    // Paper §5.1: "For fair-share streams requiring fair bandwidth
    // allocation, transmitting the block ... can skew bandwidth
    // allocations considerably." With 1:4 weights, block mode transmits
    // every backlogged head each cycle → equal service regardless of
    // weights; WR honors the 1:4 split.
    let weights: [u64; 4] = [8, 8, 8, 2]; // periods (weight ∝ 1/period)
    let run = |kind: FabricConfigKind| -> Vec<u64> {
        let mut fabric = Fabric::new(FabricConfig::dwcs(4, kind)).unwrap();
        for (s, &period) in weights.iter().enumerate() {
            fabric
                .load_stream(
                    s,
                    StreamState {
                        request_period: period,
                        original_window: WindowConstraint::new(1, 1),
                        static_prio: 0,
                        late_policy: LatePolicy::Renew,
                    },
                    period,
                )
                .unwrap();
            for q in 0..2000u64 {
                fabric.push_arrival(s, Wrap16::from_wide(q)).unwrap();
            }
        }
        for _ in 0..1000 {
            fabric.decision_cycle_into();
        }
        (0..4)
            .map(|s| fabric.slot_counters(s).unwrap().serviced)
            .collect()
    };
    let wr = run(FabricConfigKind::WinnerOnly);
    let ba = run(FabricConfigKind::Base);
    // WR: stream 3 (period 2) gets ~4x stream 0 (period 8).
    let wr_ratio = wr[3] as f64 / wr[0] as f64;
    assert!(wr_ratio > 3.0, "WR should honor the weights: {wr:?}");
    // BA block mode: everyone transmits every block → ratio collapses to 1.
    let ba_ratio = ba[3] as f64 / ba[0] as f64;
    assert!(
        (ba_ratio - 1.0).abs() < 0.05,
        "block transmission skews fair shares to equality: {ba:?}"
    );
}
