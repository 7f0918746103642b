//! Long-run soak tests, in two gears:
//!
//! * **smoke gear** (default, runs on every CI leg): the same invariant
//!   bodies at `SMOKE_DECISIONS` (100 000) decisions, which crosses the 16-bit
//!   tag wrap while staying sub-second;
//! * **full gear** (`--ignored`): the original million-decision runs.
//!
//! ```sh
//! cargo test --release --test soak                    # smoke gear
//! cargo test --release --test soak -- --ignored       # full gear
//! ```
//!
//! The same invariants also run continuously inside the cluster
//! simulator's per-tick checker set (`ss-cluster`'s `CounterSanity`), so
//! long-horizon coverage no longer depends on remembering `--ignored`.
//!
//! Invariants checked far past where the ordinary suite looks: 16-bit
//! tag wrap-around epochs, counter consistency over long horizons, and
//! fabric/RTL lock-step at scale.
#![allow(clippy::unwrap_used)]

use sharestreams::core::{
    Fabric, FabricConfig, FabricConfigKind, LatePolicy, RtlFabric, StreamState,
};
use sharestreams::types::{WindowConstraint, Wrap16};

/// Decision horizon of the smoke gear, past the 16-bit tag wrap.
const SMOKE_DECISIONS: u64 = 100_000;

fn state(period: u64, policy: LatePolicy) -> StreamState {
    StreamState {
        request_period: period,
        original_window: WindowConstraint::new(1, 3),
        static_prio: 0,
        late_policy: policy,
    }
}

/// Tags wrap the 16-bit space every ~65k decisions; conservation and
/// counter invariants must hold throughout `decisions` of them.
fn run_decision_conservation(decisions: u64) {
    const N: usize = 8;
    let mut fabric = Fabric::new(FabricConfig::dwcs(N, FabricConfigKind::WinnerOnly)).unwrap();
    let policies = [LatePolicy::ServeLate, LatePolicy::Drop, LatePolicy::Renew];
    for s in 0..N {
        fabric
            .load_stream(
                s,
                state((s as u64 % 4) + 1, policies[s % 3]),
                (s + 1) as u64,
            )
            .unwrap();
    }
    let mut pushed = [0u64; N];
    let mut transmitted = [0u64; N];
    let check_every = (decisions / 10).max(1);
    for d in 0..decisions {
        // Keep a rolling backlog; arrival tags wrap naturally.
        for (s, count) in pushed.iter_mut().enumerate() {
            while fabric.backlog(s).unwrap() < 4 {
                fabric.push_arrival(s, Wrap16::from_wide(*count)).unwrap();
                *count += 1;
            }
        }
        for p in fabric.decision_cycle_into() {
            transmitted[p.slot.index()] += 1;
        }
        if d % check_every == 0 {
            for s in 0..N {
                let c = fabric.slot_counters(s).unwrap();
                assert_eq!(
                    pushed[s],
                    transmitted[s] + c.dropped + fabric.backlog(s).unwrap() as u64,
                    "conservation at decision {d}, slot {s}"
                );
                assert!(c.met_deadlines <= c.serviced);
            }
        }
    }
    assert_eq!(fabric.decision_count(), decisions);
    let total: u64 = transmitted.iter().sum();
    assert_eq!(
        total, decisions,
        "WR transmits exactly one packet per decision when backlogged"
    );
}

/// Fabric and RTL stay in lock-step across `decisions` interleaved
/// decision cycles.
fn run_differential_lock_step(decisions: u64) {
    const N: usize = 4;
    let config = FabricConfig::dwcs(N, FabricConfigKind::Base);
    let mut functional = Fabric::new(config).unwrap();
    let mut rtl = RtlFabric::new(config).unwrap();
    for s in 0..N {
        let st = state((s as u64 % 3) + 2, LatePolicy::Drop);
        functional
            .load_stream(s, st.clone(), (s + 1) as u64)
            .unwrap();
        rtl.load_stream(s, st, (s + 1) as u64).unwrap();
    }
    let mut seq = 0u64;
    for d in 0..decisions {
        // Pseudo-random-ish arrival pattern without an RNG: push to the
        // slot selected by a linear congruence, twice every three cycles.
        if d % 3 != 0 {
            let slot = ((d.wrapping_mul(2654435761)) >> 7) as usize % N;
            let tag = Wrap16::from_wide(seq);
            seq += 1;
            functional.push_arrival(slot, tag).unwrap();
            rtl.push_arrival(slot, tag).unwrap();
        }
        assert_eq!(
            functional.decision_cycle_into(),
            rtl.run_decision(),
            "decision {d}"
        );
    }
    for s in 0..N {
        assert_eq!(
            *functional.slot_counters(s).unwrap(),
            rtl.slot_counters(s).unwrap()
        );
    }
}

/// The 16-bit deadline field wraps epochs without disturbing pairwise
/// ordering (live deadlines stay within a half-space of each other).
fn run_deadline_wrap_epochs(decisions: u64) {
    const N: usize = 4;
    let mut fabric = Fabric::new(FabricConfig::edf(N, FabricConfigKind::WinnerOnly)).unwrap();
    for s in 0..N {
        fabric
            .load_stream(s, state(4, LatePolicy::Renew), (s + 1) as u64)
            .unwrap();
    }
    let mut pushed = [0u64; N];
    for _ in 0..decisions {
        for (s, count) in pushed.iter_mut().enumerate() {
            while fabric.backlog(s).unwrap() < 2 {
                fabric.push_arrival(s, Wrap16::from_wide(*count)).unwrap();
                *count += 1;
            }
        }
        fabric.decision_cycle_into();
    }
    // Renewed deadlines track `now`; equal periods → equal service within
    // rounding across the whole run.
    let counts: Vec<u64> = (0..N)
        .map(|s| fabric.slot_counters(s).unwrap().serviced)
        .collect();
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    assert!(
        max - min <= 2,
        "equal-rate streams drifted apart across wrap epochs: {counts:?}"
    );
}

// ---- smoke gear: every CI leg, env-scalable ----

#[test]
fn decision_conservation_smoke() {
    run_decision_conservation(SMOKE_DECISIONS);
}

#[test]
fn differential_lock_step_smoke() {
    run_differential_lock_step(SMOKE_DECISIONS);
}

#[test]
fn deadline_wrap_epochs_smoke() {
    run_deadline_wrap_epochs(SMOKE_DECISIONS);
}

// ---- full gear: `--ignored` ----

/// A million decisions: tags wrap the 16-bit space ~15 times.
#[test]
#[ignore = "soak: ~1M decisions"]
fn million_decision_conservation() {
    run_decision_conservation(1_000_000);
}

/// Fabric and RTL stay in lock-step across 200k interleaved decisions.
#[test]
#[ignore = "soak: 200k differential decisions"]
fn long_differential_lock_step() {
    run_differential_lock_step(200_000);
}

/// 500k decisions ≈ 7.6 wraps of the 16-bit space at 1 packet-time each.
#[test]
#[ignore = "soak: tag wrap epochs"]
fn deadline_wrap_epochs_stay_ordered() {
    run_deadline_wrap_epochs(500_000);
}
