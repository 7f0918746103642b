//! Admission control meets simulation: request sets the framework admits
//! run violation-free on the fabric; sets it rejects violate.
#![allow(clippy::unwrap_used)]

use sharestreams::core::{Fabric, FabricConfig, FabricConfigKind, LatePolicy, StreamState};
use sharestreams::framework::{dwcs_admissible, dwcs_min_utilization, DwcsRequest};
use sharestreams::types::{WindowConstraint, Wrap16};

fn simulate_violations(reqs: &[DwcsRequest], decisions: u64) -> u64 {
    let slots = reqs.len().next_power_of_two().max(2);
    let mut fabric = Fabric::new(FabricConfig::dwcs(slots, FabricConfigKind::WinnerOnly)).unwrap();
    for (s, r) in reqs.iter().enumerate() {
        fabric
            .load_stream(
                s,
                StreamState {
                    request_period: r.period,
                    original_window: WindowConstraint::new(r.loss_num, r.loss_den),
                    static_prio: 0,
                    late_policy: if r.loss_num > 0 {
                        LatePolicy::Drop
                    } else {
                        LatePolicy::ServeLate
                    },
                },
                r.period, // first deadline one period out
            )
            .unwrap();
        for q in 0..decisions {
            fabric
                .push_arrival(s, Wrap16::from_wide(q * reqs.len() as u64 + s as u64))
                .unwrap();
        }
    }
    for _ in 0..decisions {
        fabric.decision_cycle_into();
    }
    (0..reqs.len())
        .map(|s| fabric.slot_counters(s).unwrap().violations)
        .sum()
}

#[test]
fn admissible_equal_period_set_runs_violation_free() {
    // 4 streams, T = 2, tolerance 1/2: raw demand 2.0 links, mandatory
    // load exactly 1.0 — admissible, and DWCS's violation boost keeps every
    // window within tolerance.
    let reqs = vec![
        DwcsRequest {
            period: 2,
            loss_num: 1,
            loss_den: 2
        };
        4
    ];
    assert!(dwcs_admissible(&reqs));
    let violations = simulate_violations(&reqs, 4000);
    assert_eq!(violations, 0, "admitted set must not violate");
}

#[test]
fn comfortably_admissible_set_runs_violation_free() {
    // Mandatory load 0.75.
    let reqs = vec![
        DwcsRequest {
            period: 4,
            loss_num: 0,
            loss_den: 1,
        },
        DwcsRequest {
            period: 4,
            loss_num: 1,
            loss_den: 2,
        },
        DwcsRequest {
            period: 4,
            loss_num: 1,
            loss_den: 4,
        },
        DwcsRequest {
            period: 8,
            loss_num: 1,
            loss_den: 2,
        },
    ];
    assert!(dwcs_min_utilization(&reqs) < 1.0);
    assert!(dwcs_admissible(&reqs));
    assert_eq!(simulate_violations(&reqs, 4000), 0);
}

#[test]
fn rejected_set_violates_in_simulation() {
    // 4 streams, T = 2, tolerance only 1/4: mandatory load 1.5 — the
    // framework rejects it and the fabric indeed violates.
    let reqs = vec![
        DwcsRequest {
            period: 2,
            loss_num: 1,
            loss_den: 4
        };
        4
    ];
    assert!(!dwcs_admissible(&reqs));
    let violations = simulate_violations(&reqs, 4000);
    assert!(violations > 0, "over-admitted set must violate");
}

#[test]
fn utilization_is_monotone_in_tolerance() {
    let tighter = vec![
        DwcsRequest {
            period: 2,
            loss_num: 1,
            loss_den: 4
        };
        4
    ];
    let looser = vec![
        DwcsRequest {
            period: 2,
            loss_num: 3,
            loss_den: 4
        };
        4
    ];
    assert!(dwcs_min_utilization(&looser) < dwcs_min_utilization(&tighter));
}
