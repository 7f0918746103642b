//! The assembled line card: dual-ported SRAM + scheduler fabric +
//! wire-speed accounting.

use super::dpram::DualPortSram;
use serde::{Deserialize, Serialize};
use ss_core::hwsim::{FabricConfigKind, VirtexModel};
use ss_core::{DecisionOutcome, Fabric, FabricConfig, StreamState};
use ss_types::{packet_time_ns, PacketSize, Result, Wrap16};

/// Modeled line-card throughput for a configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinecardThroughput {
    /// Stream-slots.
    pub slots: usize,
    /// Routing configuration.
    pub kind: FabricConfigKind,
    /// Scheduler decisions per second.
    pub decisions_per_sec: f64,
    /// Packets per second (block mode schedules `slots` per decision).
    pub packets_per_sec: f64,
}

/// Wire-speed feasibility report: can the card keep up with a link?
/// Tests-only: `tests/wire_speed.rs` checks §5.2's wire-speed claims with it.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinecardReport {
    /// The modeled throughput.
    pub throughput: LinecardThroughput,
    /// Link speed examined, bits/sec.
    pub line_speed_bps: u64,
    /// Packet size examined.
    pub packet_bytes: u32,
    /// Packets/sec the link can carry.
    pub link_packets_per_sec: f64,
    /// `true` if the scheduler keeps up with the link.
    pub sustains_wire_speed: bool,
}

/// The line-card realization: fabric + dual-ported SRAM.
pub struct Linecard {
    fabric: Fabric,
    sram: DualPortSram,
    model: VirtexModel,
}

impl Linecard {
    /// Builds a line card with per-stream SRAM queues of `queue_capacity`.
    pub fn new(config: FabricConfig, queue_capacity: usize) -> Result<Self> {
        Ok(Self {
            fabric: Fabric::new(config)?,
            sram: DualPortSram::new(config.slots, queue_capacity),
            model: VirtexModel,
        })
    }

    /// Loads a stream into a slot.
    pub fn load_stream(
        &mut self,
        slot: usize,
        state: StreamState,
        first_deadline: u64,
    ) -> Result<()> {
        self.fabric.load_stream(slot, state, first_deadline)
    }

    /// Switch fabric deposits a packet arrival for `stream`.
    /// Tests-only: `LinecardPipeline::run_backlogged` drives it for the §5.2 anchor tests in
    /// `linecard::pipeline`.
    pub fn packet_arrival(&mut self, stream: usize, arrival: Wrap16) -> Result<()> {
        self.sram.fabric_write_arrival(stream, arrival)?;
        // The SRAM interface concurrently makes the arrival visible to the
        // scheduler's Register Base block.
        let tag = self
            .sram
            .scheduler_read_arrival(stream)
            .expect("just deposited");
        self.fabric.push_arrival(stream, tag)
    }

    /// Runs one decision cycle; winner IDs land in the SRAM partition for
    /// the transceiver.
    pub fn decision_cycle(&mut self) -> DecisionOutcome {
        let outcome = self.fabric.decision_cycle();
        for p in outcome.packets() {
            self.sram.scheduler_write_winner(p.slot.raw());
        }
        outcome
    }

    /// Transceiver drains the next scheduled stream ID.
    /// Tests-only: `LinecardPipeline::run_backlogged` drives it for the §5.2 anchor tests in
    /// `linecard::pipeline`.
    pub fn next_winner_id(&mut self) -> Option<u8> {
        self.sram.transceiver_read_winner()
    }

    /// The underlying fabric.
    /// Tests-only: `tests/block_decisions.rs` and `tests/reconfiguration.rs` reach the card's
    /// fabric with it.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The SRAM model.
    /// Tests-only: `LinecardPipeline::run_backlogged` drives it for the §5.2 anchor tests in
    /// `linecard::pipeline`.
    pub fn sram(&self) -> &DualPortSram {
        &self.sram
    }

    /// Modeled throughput of this configuration.
    /// Tests-only: `wire_speed_report` and the `paper_anchor_7_6m_packets_at_4_slots` test
    /// (§5.2's 7.6 M pkt/s) read it.
    pub fn throughput(&self) -> LinecardThroughput {
        let cfg = self.fabric.config();
        Self::modeled_throughput(&self.model, cfg.slots, cfg.kind, cfg.priority_update)
    }

    /// Closed-form throughput for any configuration.
    pub fn modeled_throughput(
        model: &VirtexModel,
        slots: usize,
        kind: FabricConfigKind,
        priority_update: bool,
    ) -> LinecardThroughput {
        let decisions = model
            .decision_rate_hz(slots, kind, priority_update)
            .expect("valid slot count");
        let packets = model
            .packet_rate_hz(slots, kind, priority_update)
            .expect("valid slot count");
        LinecardThroughput {
            slots,
            kind,
            decisions_per_sec: decisions,
            packets_per_sec: packets,
        }
    }

    /// Wire-speed feasibility of this card against a link.
    /// Tests-only: `tests/wire_speed.rs` checks §5.2's wire-speed claims with it.
    pub fn wire_speed_report(&self, line_speed_bps: u64, size: PacketSize) -> LinecardReport {
        let throughput = self.throughput();
        let pt_ns = packet_time_ns(size, line_speed_bps);
        let link_pps = 1e9 / pt_ns as f64;
        LinecardReport {
            throughput,
            line_speed_bps,
            packet_bytes: size.bytes(),
            link_packets_per_sec: link_pps,
            sustains_wire_speed: throughput.packets_per_sec >= link_pps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::LatePolicy;
    use ss_types::WindowConstraint;

    fn edf_card(slots: usize, kind: FabricConfigKind) -> Linecard {
        let mut card = Linecard::new(FabricConfig::edf(slots, kind), 64).unwrap();
        for s in 0..slots {
            card.load_stream(
                s,
                StreamState {
                    request_period: 1,
                    original_window: WindowConstraint::ZERO,
                    static_prio: 0,
                    late_policy: LatePolicy::ServeLate,
                },
                (s + 1) as u64,
            )
            .unwrap();
        }
        card
    }

    #[test]
    fn paper_anchor_7_6m_packets_at_4_slots() {
        let t = edf_card(4, FabricConfigKind::WinnerOnly).throughput();
        ss_bench::anchor("perf_comparison.linecard_4")
            .judge(t.packets_per_sec)
            .unwrap();
    }

    #[test]
    fn arrival_to_winner_roundtrip() {
        let mut card = edf_card(4, FabricConfigKind::WinnerOnly);
        for s in 0..4 {
            card.packet_arrival(s, Wrap16(0)).unwrap();
        }
        card.decision_cycle();
        // Earliest deadline (slot 0) wins and its ID reaches the
        // transceiver partition.
        assert_eq!(card.next_winner_id(), Some(0));
        assert_eq!(card.next_winner_id(), None);
    }

    #[test]
    fn wire_speed_1g_all_sizes() {
        // Paper §5.1: "easily meets the packet-time requirements of all
        // frame sizes on gigabit links".
        let card = edf_card(4, FabricConfigKind::WinnerOnly);
        for size in [PacketSize::ETH_MIN, PacketSize::ETH_MTU] {
            let r = card.wire_speed_report(1_000_000_000, size);
            assert!(r.sustains_wire_speed, "1G {size:?}: {r:?}");
        }
    }

    #[test]
    fn wire_speed_10g_mtu_but_not_min_frames() {
        // Paper §5.1: "and 1500-byte frames on 10 Gbps links" — but not
        // 64-byte frames at 10G in winner-only mode.
        let card = edf_card(4, FabricConfigKind::WinnerOnly);
        let mtu = card.wire_speed_report(10_000_000_000, PacketSize::ETH_MTU);
        assert!(mtu.sustains_wire_speed, "{mtu:?}");
        let min = card.wire_speed_report(10_000_000_000, PacketSize::ETH_MIN);
        assert!(!min.sustains_wire_speed, "{min:?}");
    }

    #[test]
    fn block_mode_closes_the_10g_min_frame_gap() {
        // Block decisions multiply throughput by the block size — the
        // paper's block-scheduling throughput argument at line rate.
        let card = edf_card(32, FabricConfigKind::Base);
        let r = card.wire_speed_report(10_000_000_000, PacketSize::ETH_MIN);
        assert!(r.sustains_wire_speed, "{r:?}");
    }

    #[test]
    fn gsr_comparison_32_queues_on_one_chip() {
        // §5.2: ShareStreams supports 32 queues with DWCS on a single
        // XCV1000 where the GSR line card offers 8 DRR queues/port.
        let model = VirtexModel;
        let est = model.area(32, FabricConfigKind::Base).unwrap();
        assert!(est.total() <= ss_core::hwsim::VirtexDevice::xcv1000().slices());
        let t = Linecard::modeled_throughput(&model, 32, FabricConfigKind::Base, true);
        assert!(
            t.packets_per_sec > 7.6e6,
            "block mode at 32 slots: {}",
            t.packets_per_sec
        );
    }
}
