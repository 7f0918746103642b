//! The compute-ahead extension (paper §6 future work): identical schedules
//! at log2(N) cycles per window-constrained decision instead of log2(N)+1.
#![allow(clippy::unwrap_used)]

use sharestreams::core::{
    Fabric, FabricConfig, FabricConfigKind, LatePolicy, RtlFabric, StreamState,
};
use sharestreams::hwsim::VirtexModel;
use sharestreams::types::{WindowConstraint, Wrap16};

fn state(period: u64) -> StreamState {
    StreamState {
        request_period: period,
        original_window: WindowConstraint::new(1, 3),
        static_prio: 0,
        late_policy: LatePolicy::ServeLate,
    }
}

fn loaded(config: FabricConfig, frames: u64) -> Fabric {
    let n = config.slots;
    let mut f = Fabric::new(config).unwrap();
    for s in 0..n {
        f.load_stream(s, state(n as u64), (s + 1) as u64).unwrap();
        for q in 0..frames {
            f.push_arrival(s, Wrap16::from_wide(q * n as u64 + s as u64))
                .unwrap();
        }
    }
    f
}

#[test]
fn schedules_are_bit_identical() {
    let base = FabricConfig::dwcs(8, FabricConfigKind::WinnerOnly);
    let ca = FabricConfig {
        compute_ahead: true,
        ..base
    };
    let mut f_base = loaded(base, 300);
    let mut f_ca = loaded(ca, 300);
    for d in 0..2000 {
        assert_eq!(
            f_base.decision_cycle(),
            f_ca.decision_cycle(),
            "decision {d}"
        );
    }
    for s in 0..8 {
        assert_eq!(
            f_base.slot_counters(s).unwrap(),
            f_ca.slot_counters(s).unwrap()
        );
    }
}

#[test]
fn compute_ahead_saves_one_cycle_per_decision() {
    for slots in [4usize, 8, 16, 32] {
        let log2n = slots.trailing_zeros() as u64;
        let base = FabricConfig::dwcs(slots, FabricConfigKind::WinnerOnly);
        let ca = FabricConfig {
            compute_ahead: true,
            ..base
        };
        let mut f_base = loaded(base, 4);
        let mut f_ca = loaded(ca, 4);
        let (b0, c0) = (f_base.hw_cycles(), f_ca.hw_cycles());
        f_base.decision_cycle();
        f_ca.decision_cycle();
        assert_eq!(f_base.hw_cycles() - b0, log2n + 1);
        assert_eq!(f_ca.hw_cycles() - c0, log2n);
    }
}

#[test]
fn rtl_fabric_supports_compute_ahead() {
    let ca = FabricConfig {
        compute_ahead: true,
        ..FabricConfig::dwcs(8, FabricConfigKind::WinnerOnly)
    };
    let mut rtl = RtlFabric::new(ca).unwrap();
    let mut f = loaded(ca, 100);
    for s in 0..8 {
        rtl.load_stream(s, state(8), (s + 1) as u64).unwrap();
        for q in 0..100u64 {
            rtl.push_arrival(s, Wrap16::from_wide(q * 8 + s as u64))
                .unwrap();
        }
    }
    for d in 0..500 {
        assert_eq!(rtl.run_decision(), f.decision_cycle(), "decision {d}");
    }
    // RTL cycle accounting: log2(8) = 3 cycles per decision, no update.
    assert_eq!(rtl.hw_cycles(), 500 * 3);
}

#[test]
fn block_mode_compute_ahead_matches_too() {
    let base = FabricConfig::dwcs(4, FabricConfigKind::Base);
    let ca = FabricConfig {
        compute_ahead: true,
        ..base
    };
    let mut f_base = loaded(base, 100);
    let mut f_ca = loaded(ca, 100);
    for _ in 0..100 {
        assert_eq!(f_base.decision_cycle(), f_ca.decision_cycle());
    }
}

#[test]
fn model_projects_net_throughput_gain() {
    let model = VirtexModel;
    // At 4 slots: 3 cycles → 2 cycles at 0.95 clock = 1.425x decisions/s.
    let base = model
        .wc_decision_rate_hz(4, FabricConfigKind::WinnerOnly, false)
        .unwrap();
    let ca = model
        .wc_decision_rate_hz(4, FabricConfigKind::WinnerOnly, true)
        .unwrap();
    assert!((ca / base - 1.425).abs() < 1e-9, "{}", ca / base);
    // That pushes the 4-slot line card from 7.6M to ~10.8M decisions/s.
    assert!(ca > 10.0e6);
}
