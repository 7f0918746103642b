//! Wire-speed claims across the framework, hwsim model, and line card —
//! the three must tell one consistent story.

use sharestreams::framework::{assess, required_decision_rate_hz};
use sharestreams::hwsim::{FabricConfigKind, VirtexDevice, VirtexModel};
use sharestreams::linecard::Linecard;
use sharestreams::types::{packet_time_ns, PacketSize};

const GBPS: u64 = 1_000_000_000;

#[test]
fn framework_and_linecard_agree_on_feasibility() {
    use sharestreams::core::{FabricConfig, LatePolicy, StreamState};
    for slots in [4usize, 8, 16, 32] {
        for kind in [FabricConfigKind::WinnerOnly, FabricConfigKind::Base] {
            let mut card = Linecard::new(FabricConfig::dwcs(slots, kind), 16).unwrap();
            for s in 0..slots {
                card.load_stream(
                    s,
                    StreamState {
                        request_period: slots as u64,
                        original_window: sharestreams::types::WindowConstraint::ZERO,
                        static_prio: 0,
                        late_policy: LatePolicy::ServeLate,
                    },
                    (s + 1) as u64,
                )
                .unwrap();
            }
            for bps in [GBPS, 10 * GBPS] {
                for size in [PacketSize::ETH_MIN, PacketSize::ETH_MTU] {
                    let fw = assess(slots, kind, true, bps, size).unwrap();
                    let lc = card.wire_speed_report(bps, size);
                    assert_eq!(
                        fw.feasible, lc.sustains_wire_speed,
                        "disagreement at {slots} slots {kind:?} {bps} {size}"
                    );
                }
            }
        }
    }
}

#[test]
fn model_rate_matches_simulated_cycle_accounting() {
    // The analytic cycles-per-decision must equal what the simulated
    // fabric actually spends.
    use sharestreams::core::{Fabric, FabricConfig};
    let model = VirtexModel;
    for slots in [4usize, 8, 16, 32] {
        let mut fabric =
            Fabric::new(FabricConfig::dwcs(slots, FabricConfigKind::WinnerOnly)).unwrap();
        let before = fabric.hw_cycles();
        fabric.decision_cycle_into();
        let simulated = fabric.hw_cycles() - before;
        let modeled = model.cycles_per_decision(slots, true).unwrap();
        assert_eq!(simulated, modeled, "slots {slots}");
    }
}

#[test]
fn packet_time_budget_consistency() {
    // required rate × packet-time == 1 second (up to rounding).
    for bps in [GBPS, 10 * GBPS] {
        for size in [PacketSize::ETH_MIN, PacketSize(512), PacketSize::ETH_MTU] {
            let rate = required_decision_rate_hz(bps, size);
            let pt = packet_time_ns(size, bps) as f64;
            assert!((rate * pt / 1e9 - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn every_design_point_fits_the_family() {
    let model = VirtexModel;
    for slots in [2usize, 4, 8, 16, 32] {
        for kind in [FabricConfigKind::WinnerOnly, FabricConfigKind::Base] {
            let device = model.smallest_device(slots, kind).unwrap();
            assert!(
                device.is_some(),
                "{slots} slots {kind:?} must fit some Virtex-I"
            );
            assert!(model.fit(slots, kind, VirtexDevice::xcv1000()).is_ok());
        }
    }
}

#[test]
fn paper_wire_speed_sentence_holds() {
    // §5.1: "Our Virtex I implementation can easily meet the packet-time
    // requirements of all frame sizes (64-byte and 1500-byte) on gigabit
    // links, and 1500-byte frames on 10Gbps links."
    let cases = [
        (GBPS, PacketSize::ETH_MIN, true),
        (GBPS, PacketSize::ETH_MTU, true),
        (10 * GBPS, PacketSize::ETH_MTU, true),
    ];
    for slots in [4usize, 8, 16, 32] {
        for (bps, size, expect) in cases {
            let f = assess(slots, FabricConfigKind::WinnerOnly, true, bps, size).unwrap();
            assert_eq!(f.feasible, expect, "{slots} slots @ {bps} {size}");
        }
    }
}
