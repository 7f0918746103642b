//! The user-facing scheduler facade.
//!
//! [`ShareStreamsScheduler`] wraps a [`Fabric`] with the systems-software
//! view: streams are registered by [`StreamSpec`] (EDF, window-constrained,
//! fair-share, static-priority, best-effort), packet arrivals are enqueued
//! by stream, and decision cycles produce transmitted packets plus per-slot
//! QoS reports. A mix of service classes runs on a single DWCS fabric
//! (the paper's headline flexibility claim).

use crate::fabric::{DecisionOutcome, Fabric, FabricConfig, ScheduledPacket};
use crate::register::{SlotCounters, StreamState};
use serde::{Deserialize, Serialize};
use ss_types::{Error, Result, StreamId, StreamSpec, Wrap16};
use std::fmt;

/// Per-stream line of a [`SchedulerReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamReport {
    /// Stream ID (and slot; 1:1 without aggregation).
    pub stream: StreamId,
    /// Registered name.
    pub name: String,
    /// Service class description.
    pub class: String,
    /// Counters snapshot.
    pub counters: SlotCounters,
    /// Fraction of all transmitted packets that came from this stream.
    pub bandwidth_share: f64,
}

/// Snapshot of scheduler state across all registered streams.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedulerReport {
    /// Per-stream rows, in slot order.
    pub streams: Vec<StreamReport>,
    /// Decision cycles run.
    pub decision_cycles: u64,
    /// Hardware cycles consumed.
    pub hw_cycles: u64,
    /// Scheduler time (packet-times elapsed).
    pub now: u64,
    /// Total packets transmitted.
    pub total_serviced: u64,
    /// Total deadline misses.
    pub total_missed: u64,
}

impl fmt::Display for SchedulerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:<22} {:>9} {:>9} {:>9} {:>7} {:>7}",
            "stream", "class", "serviced", "met", "missed", "wins", "share%"
        )?;
        for s in &self.streams {
            writeln!(
                f,
                "{:<12} {:<22} {:>9} {:>9} {:>9} {:>7} {:>7.2}",
                format!("{} ({})", s.stream, s.name),
                s.class,
                s.counters.serviced,
                s.counters.met_deadlines,
                s.counters.missed_deadlines,
                s.counters.wins,
                s.bandwidth_share * 100.0
            )?;
        }
        writeln!(
            f,
            "total: {} serviced, {} missed, {} decisions, {} hw cycles, t = {}",
            self.total_serviced, self.total_missed, self.decision_cycles, self.hw_cycles, self.now
        )
    }
}

/// The ShareStreams scheduler: fabric + stream registry.
#[derive(Debug)]
pub struct ShareStreamsScheduler {
    fabric: Fabric,
    specs: Vec<Option<StreamSpec>>,
    /// Deadline spacing granted to a weight-1 fair-share stream.
    base_period: u16,
}

impl ShareStreamsScheduler {
    /// Creates a scheduler over a fabric configuration.
    ///
    /// `base_period` is the deadline spacing (packet-times) granted to a
    /// weight-1 fair-share stream; heavier weights are due proportionally
    /// more often. A sensible default is the slot count.
    pub fn new(config: FabricConfig, base_period: u16) -> Result<Self> {
        if base_period == 0 {
            return Err(Error::Config("base_period must be positive".into()));
        }
        let slots = config.slots;
        Ok(Self {
            fabric: Fabric::new(config)?,
            specs: vec![None; slots],
            base_period,
        })
    }

    /// Registers a stream in the first free slot.
    pub fn register(&mut self, spec: StreamSpec) -> Result<StreamId> {
        let slot = self
            .specs
            .iter()
            .position(|s| s.is_none())
            .ok_or(Error::Config("all stream-slots occupied".into()))?;
        let state = StreamState::from_spec(&spec, self.base_period);
        let first_deadline = self.fabric.now() + state.request_period;
        self.fabric.load_stream(slot, state, first_deadline)?;
        self.specs[slot] = Some(spec);
        Ok(StreamId::new_unchecked(slot as u8))
    }

    /// Removes a stream, freeing its slot.
    /// Tests-only: `tests/reconfiguration.rs` checks §1's reconfiguration with it.
    pub fn unregister(&mut self, stream: StreamId) -> Result<()> {
        let slot = stream.index();
        if self.specs.get(slot).map(|s| s.is_some()) != Some(true) {
            return Err(Error::Config(format!("stream {stream} not registered")));
        }
        self.fabric.unload_stream(slot)?;
        self.specs[slot] = None;
        Ok(())
    }

    /// Enqueues a packet arrival for `stream` with an explicit arrival tag.
    pub fn enqueue(&mut self, stream: StreamId, arrival: Wrap16) -> Result<()> {
        self.fabric.push_arrival(stream.index(), arrival)
    }

    /// Runs one decision cycle.
    pub fn run_decision(&mut self) -> DecisionOutcome {
        self.fabric.decision_cycle()
    }

    /// Runs decision cycles until `frames` packets have been transmitted
    /// (or `max_cycles` decisions elapse), returning the transmissions.
    pub fn run_until_frames(&mut self, frames: usize, max_cycles: u64) -> Vec<ScheduledPacket> {
        let mut out = Vec::with_capacity(frames);
        let mut cycles = 0;
        while out.len() < frames && cycles < max_cycles {
            let outcome = self.fabric.decision_cycle();
            out.extend_from_slice(outcome.packets());
            cycles += 1;
        }
        out
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Queue depth for a stream.
    pub fn backlog(&self, stream: StreamId) -> Result<usize> {
        self.fabric.backlog(stream.index())
    }

    /// Builds a QoS report across registered streams.
    pub fn report(&self) -> SchedulerReport {
        let mut streams = Vec::new();
        let mut total_serviced = 0u64;
        let mut total_missed = 0u64;
        for (slot, spec) in self.specs.iter().enumerate() {
            if let Some(spec) = spec {
                let counters = *self.fabric.slot_counters(slot).expect("slot in range");
                total_serviced += counters.serviced;
                total_missed += counters.missed_deadlines;
                streams.push(StreamReport {
                    stream: StreamId::new_unchecked(slot as u8),
                    name: spec.name.clone(),
                    class: spec.class.to_string(),
                    counters,
                    bandwidth_share: 0.0,
                });
            }
        }
        for s in &mut streams {
            s.bandwidth_share = if total_serviced > 0 {
                s.counters.serviced as f64 / total_serviced as f64
            } else {
                0.0
            };
        }
        SchedulerReport {
            streams,
            decision_cycles: self.fabric.decision_count(),
            hw_cycles: self.fabric.hw_cycles(),
            now: self.fabric.now(),
            total_serviced,
            total_missed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hwsim::FabricConfigKind;
    use ss_types::{ServiceClass, WindowConstraint};

    fn dwcs_sched(slots: usize) -> ShareStreamsScheduler {
        ShareStreamsScheduler::new(
            FabricConfig::dwcs(slots, FabricConfigKind::WinnerOnly),
            slots as u16,
        )
        .unwrap()
    }

    #[test]
    fn register_assigns_slots_in_order() {
        let mut s = dwcs_sched(4);
        let a = s
            .register(StreamSpec::new("a", ServiceClass::BestEffort))
            .unwrap();
        let b = s
            .register(StreamSpec::new("b", ServiceClass::BestEffort))
            .unwrap();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn register_fails_when_full() {
        let mut s = dwcs_sched(2);
        s.register(StreamSpec::new("a", ServiceClass::BestEffort))
            .unwrap();
        s.register(StreamSpec::new("b", ServiceClass::BestEffort))
            .unwrap();
        assert!(s
            .register(StreamSpec::new("c", ServiceClass::BestEffort))
            .is_err());
    }

    #[test]
    fn unregister_frees_the_slot() {
        let mut s = dwcs_sched(2);
        let a = s
            .register(StreamSpec::new("a", ServiceClass::BestEffort))
            .unwrap();
        s.unregister(a).unwrap();
        let a2 = s
            .register(StreamSpec::new("a2", ServiceClass::BestEffort))
            .unwrap();
        assert_eq!(a2.index(), 0);
        assert!(
            s.unregister(StreamId::new(1).unwrap()).is_err(),
            "never registered"
        );
    }

    #[test]
    fn zero_base_period_rejected() {
        assert!(
            ShareStreamsScheduler::new(FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly), 0)
                .is_err()
        );
    }

    #[test]
    fn fair_share_weights_divide_bandwidth() {
        // The paper's 1:1:2:4 allocation (Figure 8) at scheduler level.
        let mut s =
            ShareStreamsScheduler::new(FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly), 8)
                .unwrap();
        let ids: Vec<StreamId> = [1u32, 1, 2, 4]
            .iter()
            .map(|&w| {
                s.register(StreamSpec::new(
                    format!("w{w}"),
                    ServiceClass::FairShare { weight: w },
                ))
                .unwrap()
            })
            .collect();
        // Keep all queues backlogged.
        for &id in &ids {
            for i in 0..4000u64 {
                s.enqueue(id, Wrap16::from_wide(i)).unwrap();
            }
        }
        let packets = s.run_until_frames(8000, 100_000);
        assert_eq!(packets.len(), 8000);
        let report = s.report();
        let shares: Vec<f64> = report.streams.iter().map(|r| r.bandwidth_share).collect();
        // Expected 1/8, 1/8, 2/8, 4/8 within 5%.
        for (share, expect) in shares.iter().zip([0.125, 0.125, 0.25, 0.5]) {
            assert!(
                (share / expect - 1.0).abs() <= 0.05,
                "share {share} vs expected {expect}"
            );
        }
    }

    #[test]
    fn edf_stream_meets_deadlines_at_feasible_load() {
        let mut s =
            ShareStreamsScheduler::new(FabricConfig::dwcs(2, FabricConfigKind::WinnerOnly), 4)
                .unwrap();
        let edf = s
            .register(StreamSpec::new(
                "edf",
                ServiceClass::EarliestDeadline { request_period: 2 },
            ))
            .unwrap();
        let be = s
            .register(StreamSpec::new("bg", ServiceClass::BestEffort))
            .unwrap();
        for i in 0..100u64 {
            s.enqueue(edf, Wrap16::from_wide(i * 2)).unwrap();
            s.enqueue(be, Wrap16::from_wide(i)).unwrap();
        }
        s.run_until_frames(150, 10_000);
        let report = s.report();
        let edf_row = &report.streams[edf.index()];
        // EDF stream due every 2 packet-times, link serves 1 packet/time:
        // feasible, so every serviced EDF packet must meet its deadline.
        assert!(edf_row.counters.serviced > 0);
        assert_eq!(edf_row.counters.missed_deadlines, 0, "{report}");
    }

    #[test]
    fn mixed_classes_coexist() {
        let mut s =
            ShareStreamsScheduler::new(FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly), 4)
                .unwrap();
        let ids = [
            s.register(StreamSpec::new(
                "edf",
                ServiceClass::EarliestDeadline { request_period: 4 },
            ))
            .unwrap(),
            s.register(StreamSpec::new(
                "wc",
                ServiceClass::WindowConstrained {
                    request_period: 4,
                    window: WindowConstraint::new(1, 2),
                },
            ))
            .unwrap(),
            s.register(StreamSpec::new(
                "fair",
                ServiceClass::FairShare { weight: 2 },
            ))
            .unwrap(),
            s.register(StreamSpec::new("be", ServiceClass::BestEffort))
                .unwrap(),
        ];
        for &id in &ids {
            for i in 0..1000u64 {
                s.enqueue(id, Wrap16::from_wide(i)).unwrap();
            }
        }
        let packets = s.run_until_frames(3000, 100_000);
        assert_eq!(packets.len(), 3000);
        let report = s.report();
        for row in &report.streams {
            assert!(
                row.counters.serviced > 0,
                "every class gets service: {report}"
            );
        }
    }

    #[test]
    fn report_shares_sum_to_one() {
        let mut s = dwcs_sched(2);
        let a = s
            .register(StreamSpec::new("a", ServiceClass::BestEffort))
            .unwrap();
        let b = s
            .register(StreamSpec::new("b", ServiceClass::BestEffort))
            .unwrap();
        for i in 0..100u64 {
            s.enqueue(a, Wrap16::from_wide(i)).unwrap();
            s.enqueue(b, Wrap16::from_wide(i)).unwrap();
        }
        s.run_until_frames(100, 10_000);
        let report = s.report();
        let sum: f64 = report.streams.iter().map(|r| r.bandwidth_share).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(!report.to_string().is_empty());
    }
}
