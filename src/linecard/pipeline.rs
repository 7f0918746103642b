//! The line-card pipeline: switch fabric → per-stream SRAM queues →
//! scheduler → transceiver, against a real wall clock.
//!
//! The endsystem pipeline measures QoS on a host-paced path; the line-card
//! question is different — **can the scheduler keep the transceiver busy at
//! wire speed?** Here both sides run on physical time: the scheduler
//! produces winner IDs every `cycles_per_decision / clock` seconds (from
//! the calibrated Virtex model, or an explicit clock), the transceiver
//! consumes one packet per packet-time, and whichever is slower paces the
//! card. The achieved utilization must match the analytic
//! `framework::assess` number — an integration test holds the two to
//! within a fraction of a percent.

use super::card::Linecard;
use serde::{Deserialize, Serialize};
use ss_core::hwsim::VirtexModel;
use ss_core::{FabricConfig, StreamState};
use ss_types::{packet_time_ns, Nanos, PacketSize, Result, Wrap16};

/// Line-card pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinecardPipelineConfig {
    /// Scheduler fabric configuration.
    pub fabric: FabricConfig,
    /// Output line speed, bits/sec.
    pub line_speed_bps: u64,
    /// Fixed packet size on this port.
    pub packet_size: PacketSize,
    /// Per-stream SRAM queue capacity.
    pub queue_capacity: usize,
    /// Override the fabric clock (MHz); `None` uses the Virtex-I model.
    pub clock_mhz: Option<f64>,
}

/// Results of a line-card run.
/// Tests-only: the §5.2 anchor tests in `linecard::pipeline` run it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinecardRunReport {
    /// Packets transmitted.
    pub transmitted: u64,
    /// Packets dropped at full SRAM queues.
    pub dropped: u64,
    /// Per-stream transmit counts.
    pub per_stream: Vec<u64>,
    /// Simulated time, ns.
    pub elapsed_ns: Nanos,
    /// Achieved packets/second.
    pub achieved_pps: f64,
    /// Fraction of the line rate actually carried (0..=1).
    pub link_utilization: f64,
    /// `true` when the scheduler (not the link) was the bottleneck.
    pub scheduler_limited: bool,
}

/// The line-card pipeline.
/// Tests-only: the §5.2 anchor tests in `linecard::pipeline` run it.
pub struct LinecardPipeline {
    card: Linecard,
    config: LinecardPipelineConfig,
    /// Nanoseconds per scheduler decision.
    decision_ns: f64,
    /// Nanoseconds per packet on the wire.
    packet_time: Nanos,
}

impl LinecardPipeline {
    /// Builds the pipeline; streams must then be loaded with
    /// [`Self::load_stream`].
    pub fn new(config: LinecardPipelineConfig) -> Result<Self> {
        let card = Linecard::new(config.fabric, config.queue_capacity)?;
        let model = VirtexModel;
        let clock_mhz = match config.clock_mhz {
            Some(mhz) => mhz,
            None => model.clock_mhz(config.fabric.slots, config.fabric.kind)?,
        };
        let cycles = model.cycles_per_decision(
            config.fabric.slots,
            config.fabric.priority_update && !config.fabric.compute_ahead,
        )?;
        Ok(Self {
            card,
            config,
            decision_ns: cycles as f64 * 1e3 / clock_mhz,
            packet_time: packet_time_ns(config.packet_size, config.line_speed_bps),
        })
    }

    /// Loads a stream into `slot`.
    pub fn load_stream(
        &mut self,
        slot: usize,
        state: StreamState,
        first_deadline: u64,
    ) -> Result<()> {
        self.card.load_stream(slot, state, first_deadline)
    }

    /// Runs with every stream continuously backlogged ("packet arrival
    /// times supplied in dual-ported memory by action of the switch
    /// fabric", §5.2) until `target_packets` have been transmitted.
    /// Tests-only: the §5.2 anchor tests in `linecard::pipeline` run it.
    pub fn run_backlogged(&mut self, target_packets: u64) -> Result<LinecardRunReport> {
        let slots = self.config.fabric.slots;
        // Keep a rolling backlog in the card's SRAM queues.
        let mut seq = vec![0u64; slots];
        let refill = |card: &mut Linecard, seq: &mut Vec<u64>| {
            for (s, q) in seq.iter_mut().enumerate() {
                while card.fabric().backlog(s).expect("slot index is in range") < 8 {
                    card.packet_arrival(s, Wrap16::from_wide(*q))
                        .expect("refill keeps the SRAM queue below capacity");
                    *q += 1;
                }
            }
        };

        let mut per_stream = vec![0u64; slots];
        let mut transmitted = 0u64;
        // Scheduler and transceiver each have a "free at" clock; the card
        // paces at the slower of the two.
        let mut sched_free = 0.0f64;
        let mut tx_free: Nanos = 0;
        let mut last_completion: Nanos = 0;

        while transmitted < target_packets {
            refill(&mut self.card, &mut seq);
            let outcome = self.card.decision_cycle();
            sched_free += self.decision_ns;
            for p in outcome.packets() {
                // The transceiver may not start before the scheduler
                // produced the ID, nor before the wire is free.
                let start = tx_free.max(sched_free.ceil() as Nanos);
                last_completion = start + self.packet_time;
                tx_free = last_completion;
                per_stream[p.slot.index()] += 1;
                transmitted += 1;
                // Drain the winner ID partition.
                self.card.next_winner_id();
            }
        }

        let elapsed = last_completion;
        let achieved = transmitted as f64 * 1e9 / elapsed as f64;
        let line_pps = 1e9 / self.packet_time as f64;
        Ok(LinecardRunReport {
            transmitted,
            dropped: self.card.sram().drops(),
            per_stream,
            elapsed_ns: elapsed,
            achieved_pps: achieved,
            link_utilization: (achieved / line_pps).min(1.0),
            scheduler_limited: achieved < line_pps * 0.999,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::{FabricConfigKind, LatePolicy};
    use ss_types::WindowConstraint;

    fn pipeline(
        slots: usize,
        kind: FabricConfigKind,
        line_speed_bps: u64,
        size: PacketSize,
    ) -> LinecardPipeline {
        let config = LinecardPipelineConfig {
            fabric: FabricConfig::edf(slots, kind),
            line_speed_bps,
            packet_size: size,
            queue_capacity: 64,
            clock_mhz: None,
        };
        let mut p = LinecardPipeline::new(config).unwrap();
        for s in 0..slots {
            p.load_stream(
                s,
                StreamState {
                    request_period: slots as u64,
                    original_window: WindowConstraint::ZERO,
                    static_prio: 0,
                    late_policy: LatePolicy::ServeLate,
                },
                (s + 1) as u64,
            )
            .unwrap();
        }
        p
    }

    const GBPS: u64 = 1_000_000_000;

    #[test]
    fn gigabit_minimum_frames_run_at_wire_speed() {
        // 1G/64B: link wants 1.95M pps, the 4-slot WR fabric makes 7.6M —
        // the wire is the bottleneck, utilization ≈ 100%.
        let mut p = pipeline(4, FabricConfigKind::WinnerOnly, GBPS, PacketSize::ETH_MIN);
        let r = p.run_backlogged(40_000).unwrap();
        assert!(!r.scheduler_limited, "{r:?}");
        assert!(r.link_utilization > 0.999, "{r:?}");
    }

    #[test]
    fn ten_gig_minimum_frames_are_scheduler_limited() {
        // 10G/64B: link wants 19.6M pps, WR@4 delivers 7.6M → ~39%.
        let mut p = pipeline(
            4,
            FabricConfigKind::WinnerOnly,
            10 * GBPS,
            PacketSize::ETH_MIN,
        );
        let r = p.run_backlogged(40_000).unwrap();
        assert!(r.scheduler_limited, "{r:?}");
        assert!((r.achieved_pps - 7.6e6).abs() / 7.6e6 < 0.01, "{r:?}");
    }

    #[test]
    fn simulation_matches_analytic_utilization() {
        // The discrete-event run must land on framework::assess's number.
        use crate::framework::assess;
        for (slots, bps, size) in [
            (4usize, 10 * GBPS, PacketSize::ETH_MIN),
            (8, 10 * GBPS, PacketSize::ETH_MIN),
            (4, GBPS, PacketSize::ETH_MTU),
        ] {
            let f = assess(slots, FabricConfigKind::WinnerOnly, true, bps, size).unwrap();
            let mut p = pipeline(slots, FabricConfigKind::WinnerOnly, bps, size);
            let r = p.run_backlogged(30_000).unwrap();
            assert!(
                (r.link_utilization - f.sustainable_utilization).abs() < 0.005,
                "{slots} slots @ {bps}: sim {} vs model {}",
                r.link_utilization,
                f.sustainable_utilization
            );
        }
    }

    #[test]
    fn block_mode_restores_wire_speed_at_10g() {
        let mut p = pipeline(32, FabricConfigKind::Base, 10 * GBPS, PacketSize::ETH_MIN);
        let r = p.run_backlogged(64_000).unwrap();
        assert!(!r.scheduler_limited, "{r:?}");
        assert!(r.link_utilization > 0.999, "{r:?}");
    }

    #[test]
    fn backlogged_edf_shares_evenly() {
        let mut p = pipeline(4, FabricConfigKind::WinnerOnly, GBPS, PacketSize::ETH_MTU);
        let r = p.run_backlogged(8_000).unwrap();
        for (s, &count) in r.per_stream.iter().enumerate() {
            assert_eq!(count, 2_000, "stream {s}");
        }
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn compute_ahead_raises_scheduler_ceiling() {
        let base = {
            let mut p = pipeline(
                4,
                FabricConfigKind::WinnerOnly,
                10 * GBPS,
                PacketSize::ETH_MIN,
            );
            p.run_backlogged(30_000).unwrap().achieved_pps
        };
        let ca = {
            let config = LinecardPipelineConfig {
                fabric: FabricConfig {
                    compute_ahead: true,
                    ..FabricConfig::edf(4, FabricConfigKind::WinnerOnly)
                },
                line_speed_bps: 10 * GBPS,
                packet_size: PacketSize::ETH_MIN,
                queue_capacity: 64,
                // Compute-ahead derates the clock by 5%.
                clock_mhz: Some(22.8 * 0.95),
            };
            let mut p = LinecardPipeline::new(config).unwrap();
            for s in 0..4 {
                p.load_stream(
                    s,
                    StreamState {
                        request_period: 4,
                        original_window: WindowConstraint::ZERO,
                        static_prio: 0,
                        late_policy: LatePolicy::ServeLate,
                    },
                    (s + 1) as u64,
                )
                .unwrap();
            }
            p.run_backlogged(30_000).unwrap().achieved_pps
        };
        assert!((ca / base - 1.425).abs() < 0.02, "gain {}", ca / base);
    }
}
