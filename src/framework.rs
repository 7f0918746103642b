//! The ShareStreams architectural framework (paper §2, Figure 1).
//!
//! Figure 1(a) relates *QoS bounds*, *scale* (stream count, granularity,
//! aggregation degree) and *scheduling rate*; Figure 1(b) asks whether the
//! required rate is realizable in silicon or reconfigurable logic given the
//! implementation complexity of the discipline. This module turns that
//! reasoning into code:
//!
//! * [`required_decision_rate_hz`] — the rate a link/packet-size pair
//!   demands;
//! * [`Feasibility`] / [`assess`] — required vs achievable for a concrete
//!   fabric configuration, including the paper's "what is the degradation
//!   in QoS if only a lower rate can be realized?" question (answered as
//!   the sustainable utilization fraction);
//! * [`DisciplineComplexity`] — the Figure 1(b) / Table 1 complexity
//!   ranking along the paper's three axes (state storage, attribute
//!   comparison complexity, priority-update rate);
//! * [`feasibility_surface`] — the full sweep used by `exp fig1`;
//! * [`dwcs_admissible`] — the DWCS minimum-utilization admission test.

use serde::{Deserialize, Serialize};
use ss_core::hwsim::{FabricConfigKind, VirtexModel};
use ss_types::{packet_time_ns, PacketSize};

/// Scheduling decisions per second a link demands: one decision per
/// packet-time.
pub fn required_decision_rate_hz(line_speed_bps: u64, size: PacketSize) -> f64 {
    1e9 / packet_time_ns(size, line_speed_bps) as f64
}

/// Verdict for one (link, packet size, fabric) combination.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Feasibility {
    /// Stream-slots in the fabric.
    pub slots: usize,
    /// Routing configuration.
    pub kind: FabricConfigKind,
    /// Link speed, bits/sec.
    pub line_speed_bps: u64,
    /// Packet size examined.
    pub packet_bytes: u32,
    /// Decisions/sec the link demands.
    pub required_hz: f64,
    /// Packets/sec the fabric schedules (block mode counts the whole
    /// block).
    pub achievable_hz: f64,
    /// `true` if achievable ≥ required.
    pub feasible: bool,
    /// If infeasible, the fraction of link capacity that can be kept
    /// scheduled (the paper's "degradation in QoS" question); 1.0 when
    /// feasible.
    pub sustainable_utilization: f64,
}

/// Assesses a fabric configuration against a link.
pub fn assess(
    slots: usize,
    kind: FabricConfigKind,
    priority_update: bool,
    line_speed_bps: u64,
    size: PacketSize,
) -> ss_types::Result<Feasibility> {
    let model = VirtexModel;
    let required = required_decision_rate_hz(line_speed_bps, size);
    let achievable = model.packet_rate_hz(slots, kind, priority_update)?;
    let feasible = achievable >= required;
    Ok(Feasibility {
        slots,
        kind,
        line_speed_bps,
        packet_bytes: size.bytes(),
        required_hz: required,
        achievable_hz: achievable,
        feasible,
        sustainable_utilization: if feasible { 1.0 } else { achievable / required },
    })
}

/// Sweeps slots × links × packet sizes (the `exp fig1` surface).
pub fn feasibility_surface(
    slot_counts: &[usize],
    kind: FabricConfigKind,
    priority_update: bool,
    line_speeds: &[u64],
    sizes: &[PacketSize],
) -> ss_types::Result<Vec<Feasibility>> {
    let mut out = Vec::new();
    for &slots in slot_counts {
        for &bps in line_speeds {
            for &size in sizes {
                out.push(assess(slots, kind, priority_update, bps, size)?);
            }
        }
    }
    Ok(out)
}

/// The paper's three complexity axes (§2, "Implementation complexity ...
/// dependent on the following factors").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DisciplineComplexity {
    /// Discipline name.
    pub name: &'static str,
    /// Per-stream state words that must be stored and updated.
    pub state_words_per_stream: u32,
    /// Attributes compared per pairwise ordering decision.
    pub attributes_compared: u32,
    /// Whether priorities update every decision cycle (vs at enqueue).
    pub per_decision_update: bool,
    /// Relative rank in Figure 1(b) (higher = more complex).
    pub rank: u32,
}

/// The Figure 1(b) ranking: FCFS < static-priority < EDF < fair-queuing <
/// window-constrained.
pub fn complexity_ranking() -> Vec<DisciplineComplexity> {
    vec![
        DisciplineComplexity {
            name: "FCFS",
            state_words_per_stream: 0,
            attributes_compared: 1,
            per_decision_update: false,
            rank: 0,
        },
        DisciplineComplexity {
            name: "static-priority",
            state_words_per_stream: 1,
            attributes_compared: 1,
            per_decision_update: false,
            rank: 1,
        },
        DisciplineComplexity {
            name: "EDF",
            state_words_per_stream: 2,
            attributes_compared: 1,
            per_decision_update: false,
            rank: 2,
        },
        DisciplineComplexity {
            name: "fair-queuing (WFQ/SFQ)",
            state_words_per_stream: 3,
            attributes_compared: 1,
            per_decision_update: false,
            rank: 3,
        },
        DisciplineComplexity {
            name: "window-constrained (DWCS)",
            state_words_per_stream: 5,
            attributes_compared: 4,
            per_decision_update: true,
            rank: 4,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS: u64 = 1_000_000_000;

    #[test]
    fn required_rate_matches_packet_times() {
        // 64-byte at 1 Gbps: 512 ns packet-time → ~1.95 M decisions/s.
        let r = required_decision_rate_hz(GBPS, PacketSize::ETH_MIN);
        assert!((r - 1_953_125.0).abs() < 1e3, "{r}");
        // 1500-byte at 10 Gbps: 1.2 µs → ~833 k/s.
        let r = required_decision_rate_hz(10 * GBPS, PacketSize::ETH_MTU);
        assert!((r - 833_333.0).abs() < 1e3, "{r}");
    }

    #[test]
    fn paper_feasibility_claims() {
        // §5.1: Virtex I meets all frame sizes at 1G and MTU frames at 10G.
        for (bps, size, expect) in [
            (GBPS, PacketSize::ETH_MIN, true),
            (GBPS, PacketSize::ETH_MTU, true),
            (10 * GBPS, PacketSize::ETH_MTU, true),
            (10 * GBPS, PacketSize::ETH_MIN, false),
        ] {
            let f = assess(4, FabricConfigKind::WinnerOnly, true, bps, size).unwrap();
            assert_eq!(f.feasible, expect, "{bps} bps, {size}: {f:?}");
        }
    }

    #[test]
    fn degradation_fraction_when_infeasible() {
        let f = assess(
            4,
            FabricConfigKind::WinnerOnly,
            true,
            10 * GBPS,
            PacketSize::ETH_MIN,
        )
        .unwrap();
        assert!(!f.feasible);
        // 7.6M achievable / 19.6M required ≈ 0.39.
        assert!((f.sustainable_utilization - 0.389).abs() < 0.01, "{f:?}");
    }

    #[test]
    fn block_mode_expands_the_feasible_region() {
        let wr = assess(
            32,
            FabricConfigKind::WinnerOnly,
            true,
            10 * GBPS,
            PacketSize::ETH_MIN,
        )
        .unwrap();
        let ba = assess(
            32,
            FabricConfigKind::Base,
            true,
            10 * GBPS,
            PacketSize::ETH_MIN,
        )
        .unwrap();
        assert!(!wr.feasible);
        assert!(ba.feasible, "block scheduling reaches 10G minimum frames");
    }

    #[test]
    fn surface_dimensions() {
        let surface = feasibility_surface(
            &[4, 8, 16, 32],
            FabricConfigKind::WinnerOnly,
            true,
            &[GBPS, 10 * GBPS],
            &[PacketSize::ETH_MIN, PacketSize::ETH_MTU],
        )
        .unwrap();
        assert_eq!(surface.len(), 16);
        assert!(surface.iter().any(|f| f.feasible));
        assert!(surface.iter().any(|f| !f.feasible));
    }

    #[test]
    fn complexity_ranking_is_ordered() {
        let ranking = complexity_ranking();
        assert_eq!(ranking.len(), 5);
        for (i, row) in ranking.iter().enumerate() {
            assert_eq!(row.rank as usize, i);
        }
        // DWCS is the only per-decision-update discipline and compares the
        // most attributes (Table 1 / Table 2).
        let dwcs = ranking.last().unwrap();
        assert!(dwcs.per_decision_update);
        assert!(ranking[..4].iter().all(|r| !r.per_decision_update));
        assert!(dwcs.attributes_compared > 1);
    }

    #[test]
    fn mpeg_frames_need_tiny_rates() {
        // §2: MPEG frames at tens of frames/second need no high scheduling
        // rate — even a software scheduler would do.
        let r = required_decision_rate_hz(4_000_000, PacketSize(16_000));
        assert!(r < 100.0, "{r}");
    }
}

/// A stream's DWCS service request for admission control.
/// Tests-only: `tests/admission_control.rs` checks the DWCS admission bound with it.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DwcsRequest {
    /// Request period `T` in packet-times.
    pub period: u64,
    /// Window constraint numerator `x` (losses tolerated per window).
    pub loss_num: u8,
    /// Window constraint denominator `y` (window length in packets).
    pub loss_den: u8,
}

impl DwcsRequest {
    /// The fraction of this stream's packets that must be serviced on time:
    /// `(y - x) / y` (1.0 for zero-tolerance streams).
    /// Tests-only: `tests/admission_control.rs` checks the DWCS admission bound with it.
    pub fn mandatory_fraction(&self) -> f64 {
        if self.loss_den == 0 {
            return 1.0;
        }
        let x = self.loss_num.min(self.loss_den);
        f64::from(self.loss_den - x) / f64::from(self.loss_den)
    }
}

/// The DWCS *minimum aggregate utilization* (West & Poellabauer): each
/// stream must receive at least `(y-x)/y` of its packets, each consuming
/// one packet-time every `T` — so the mandatory load is
/// `Σ (1 - x_i/y_i) / T_i`.
/// Tests-only: `tests/admission_control.rs` checks the DWCS admission bound with it.
pub fn dwcs_min_utilization(requests: &[DwcsRequest]) -> f64 {
    requests
        .iter()
        .map(|r| r.mandatory_fraction() / r.period.max(1) as f64)
        .sum()
}

/// DWCS admission test: a request set is admissible when its minimum
/// utilization does not exceed the link (≤ 1.0). For unit-time packets
/// with equal request periods this bound is exact; for heterogeneous
/// periods it is the standard necessary condition (see the RTSS 2000
/// analysis the paper builds on).
/// Tests-only: `tests/admission_control.rs` checks the DWCS admission bound with it.
pub fn dwcs_admissible(requests: &[DwcsRequest]) -> bool {
    dwcs_min_utilization(requests) <= 1.0 + 1e-9
}

#[cfg(test)]
mod admission_tests {
    use super::*;

    fn req(period: u64, x: u8, y: u8) -> DwcsRequest {
        DwcsRequest {
            period,
            loss_num: x,
            loss_den: y,
        }
    }

    #[test]
    fn zero_tolerance_is_plain_utilization() {
        // 4 EDF streams at T = 4: U = 1.0, admissible at the boundary.
        let reqs = vec![req(4, 0, 1); 4];
        assert!((dwcs_min_utilization(&reqs) - 1.0).abs() < 1e-12);
        assert!(dwcs_admissible(&reqs));
        // A fifth stream breaks it.
        let mut over = reqs.clone();
        over.push(req(4, 0, 1));
        assert!(!dwcs_admissible(&over));
    }

    #[test]
    fn loss_tolerance_buys_admission() {
        // 4 streams at T = 2 demand 2.0 links of raw bandwidth — but with
        // 1-in-2 loss tolerance the mandatory load is exactly 1.0.
        let raw = vec![req(2, 0, 1); 4];
        assert!(!dwcs_admissible(&raw));
        let tolerant = vec![req(2, 1, 2); 4];
        assert!((dwcs_min_utilization(&tolerant) - 1.0).abs() < 1e-12);
        assert!(dwcs_admissible(&tolerant));
    }

    #[test]
    fn degenerate_windows_are_safe() {
        // y = 0 is treated as zero tolerance; x > y clamps.
        assert_eq!(req(4, 3, 0).mandatory_fraction(), 1.0);
        assert_eq!(req(4, 9, 3).mandatory_fraction(), 0.0);
        assert_eq!(dwcs_min_utilization(&[]), 0.0);
        assert!(dwcs_admissible(&[]));
    }

    #[test]
    fn mixed_set_example() {
        // The quickstart mix: EDF T=8, DWCS T=8 W=1/2, fair T=2 W=1/1,
        // fair T=8 W=1/1, best-effort T=8 W=1/1.
        let reqs = [
            req(8, 0, 1),
            req(8, 1, 2),
            req(2, 1, 1),
            req(8, 1, 1),
            req(8, 1, 1),
        ];
        let u = dwcs_min_utilization(&reqs);
        assert!((u - (0.125 + 0.0625)).abs() < 1e-12);
        assert!(dwcs_admissible(&reqs));
    }
}
