//! The deterministic endsystem pipeline: traffic → Queue Manager → (PCI) →
//! scheduler fabric → Transmission Engine, on one virtual clock.
//!
//! This is the harness behind Figures 8, 9 and 10 and the §5.2 endsystem
//! throughput model. Two costs pace the pipeline:
//!
//! * the **output link** (bytes/sec) — the capacity the 1:1:2:4 bandwidth
//!   allocations divide;
//! * the **host path** — per-packet Stream-processor work plus (optionally)
//!   the PCI transfer model, which is what the §5.2 packets/second numbers
//!   measure ("we do not include ... socket system calls").
//!
//! Delay accounting is end-to-end: a frame's queuing delay is its link
//! transmission completion minus its arrival at the Queue Manager.

use crate::aggregation::{StreamletMux, StreamletSetConfig};
use crate::pci::{PciModel, TransferStrategy};
use crate::queue_manager::QueueManager;
use crate::transmission::TransmissionEngine;
use serde::{Deserialize, Serialize};
use ss_core::hwsim::TimeSeries;
use ss_core::{FabricConfig, ShareStreamsScheduler};
use ss_traffic::ArrivalEvent;
use ss_types::{Nanos, PacketSize, Result, StreamId, StreamSpec, Wrap16};

/// Endsystem pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct EndsystemConfig {
    /// Scheduler fabric configuration.
    pub fabric: FabricConfig,
    /// Deadline spacing for a weight-1 fair-share stream (packet-times).
    pub base_period: u16,
    /// Output link capacity in bytes/second.
    pub link_bytes_per_sec: u64,
    /// Per-packet Stream-processor cost (queuing, batching, TE work), ns.
    pub host_per_packet_ns: Nanos,
    /// PCI transfer model; `None` reproduces the paper's "without PCI
    /// transfer time" measurement.
    pub transfer: Option<(PciModel, TransferStrategy, u64)>,
    /// Bandwidth rate-meter window, ns.
    pub bandwidth_window_ns: Nanos,
    /// Sample every k-th packet into the delay plot series.
    pub delay_decimate: u64,
    /// Queue Manager per-stream capacity.
    pub queue_capacity: usize,
}

impl EndsystemConfig {
    /// The paper's testbed shape: host cost calibrated to 469 483 pkt/s
    /// (500 MHz PIII, Linux 2.4), 16 MB/s streaming capacity, no transfer
    /// costs.
    pub fn paper_endsystem(fabric: FabricConfig) -> Self {
        Self {
            fabric,
            // Deadline spacing for a weight-1 stream, sized so that weight
            // sums up to 2·slots stay admissible (Σ w_i / base ≤ 1). The
            // Renew late-policy used by fair-share streams assumes
            // admission-controlled periods.
            base_period: 2 * fabric.slots as u16,
            link_bytes_per_sec: 16_000_000,
            host_per_packet_ns: 2_130,
            transfer: None,
            bandwidth_window_ns: 50_000_000,
            delay_decimate: 64,
            queue_capacity: 1 << 17,
        }
    }

    /// Modeled host-limited throughput in packets/second.
    pub fn modeled_pps(&self) -> f64 {
        let pci_ns = self
            .transfer
            .map(|(m, s, b)| m.per_packet_overhead_ns(b, s))
            .unwrap_or(0.0);
        1e9 / (self.host_per_packet_ns as f64 + pci_ns)
    }
}

/// Per-stream results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamPipelineStats {
    /// Stream index.
    pub stream: usize,
    /// Registered name.
    pub name: String,
    /// Frames transmitted.
    pub serviced: u64,
    /// Bytes transmitted.
    pub bytes: u64,
    /// Mean output rate, bytes/sec.
    pub mean_rate: f64,
    /// Mean queuing delay, µs.
    pub mean_delay_us: f64,
    /// 99th-percentile queuing delay, µs.
    pub p99_delay_us: f64,
    /// Maximum queuing delay, µs.
    pub max_delay_us: f64,
    /// Delay-jitter: standard deviation of inter-departure intervals, µs.
    pub jitter_us: f64,
    /// Deadline misses recorded by the stream's slot.
    pub missed_deadlines: u64,
}

/// Whole-run results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EndsystemReport {
    /// Per-stream rows.
    pub streams: Vec<StreamPipelineStats>,
    /// Total frames transmitted.
    pub total_packets: u64,
    /// Simulated link time, seconds.
    pub sim_seconds: f64,
    /// Host-limited throughput: packets / host-path seconds.
    pub host_pps: f64,
    /// The closed-form modeled throughput for this configuration.
    pub modeled_pps: f64,
    /// Frames dropped at full Queue Manager queues.
    pub dropped: u64,
}

/// The pipeline.
pub struct EndsystemPipeline {
    config: EndsystemConfig,
    scheduler: ShareStreamsScheduler,
    qm: QueueManager,
    te: TransmissionEngine,
    muxes: Vec<Option<StreamletMux>>,
    names: Vec<String>,
    now_ns: Nanos,
    host_ns: Nanos,
    per_packet_pci_ns: Nanos,
}

impl EndsystemPipeline {
    /// Builds a pipeline.
    pub fn new(config: EndsystemConfig) -> Result<Self> {
        let slots = config.fabric.slots;
        let per_packet_pci_ns = config
            .transfer
            .map(|(m, s, b)| m.per_packet_overhead_ns(b, s).round() as Nanos)
            .unwrap_or(0);
        Ok(Self {
            scheduler: ShareStreamsScheduler::new(config.fabric, config.base_period)?,
            qm: QueueManager::new(slots, config.queue_capacity),
            te: TransmissionEngine::new(
                slots,
                config.link_bytes_per_sec,
                config.bandwidth_window_ns,
                config.delay_decimate,
            ),
            muxes: (0..slots).map(|_| None).collect(),
            names: Vec::new(),
            now_ns: 0,
            host_ns: 0,
            per_packet_pci_ns,
            config,
        })
    }

    /// Registers a stream.
    pub fn register(&mut self, spec: StreamSpec) -> Result<StreamId> {
        let name = spec.name.clone();
        let id = self.scheduler.register(spec)?;
        if self.names.len() <= id.index() {
            self.names.resize(id.index() + 1, String::new());
        }
        self.names[id.index()] = name;
        Ok(id)
    }

    /// Binds a streamlet multiplexer to `stream`'s slot (aggregation mode).
    pub fn attach_mux(&mut self, stream: StreamId, sets: &[StreamletSetConfig]) {
        self.muxes[stream.index()] = Some(StreamletMux::new(sets));
    }

    /// Access the mux on `stream`'s slot, if any.
    pub fn mux(&self, stream: StreamId) -> Option<&StreamletMux> {
        self.muxes[stream.index()].as_ref()
    }

    fn packet_time_ns(&self, size: PacketSize) -> Nanos {
        self.te.service_time_ns(size)
    }

    fn deposit(&mut self, event: ArrivalEvent) {
        let slot = event.stream;
        if self.qm.deposit(event).is_ok() {
            let unit = self.packet_time_ns(event.size).max(1);
            let tag = Wrap16(QueueManager::arrival_offset(&event, unit));
            self.scheduler
                .enqueue(slot, tag)
                .expect("slot registered before arrivals");
        }
    }

    /// Deposits a streamlet arrival (requires an attached mux).
    pub fn deposit_streamlet(
        &mut self,
        stream: StreamId,
        set: usize,
        streamlet: usize,
        event: ArrivalEvent,
    ) {
        let unit = self.packet_time_ns(event.size).max(1);
        let tag = Wrap16(QueueManager::arrival_offset(&event, unit));
        self.muxes[stream.index()]
            .as_mut()
            .expect("mux attached")
            .deposit(set, streamlet, event);
        self.scheduler
            .enqueue(stream, tag)
            .expect("slot registered");
    }

    /// Runs the pipeline over a time-sorted arrival sequence until every
    /// deposited frame has been transmitted.
    ///
    /// # Panics
    /// Panics if `arrivals` is not sorted by time.
    pub fn run(&mut self, arrivals: &[ArrivalEvent]) -> EndsystemReport {
        assert!(
            arrivals.windows(2).all(|p| p[0].time_ns <= p[1].time_ns),
            "arrivals must be time-sorted (use ss_traffic::merge)"
        );
        let mut idx = 0;

        loop {
            // Deposit everything that has arrived by link-time `now_ns`.
            while idx < arrivals.len() && arrivals[idx].time_ns <= self.now_ns {
                self.deposit(arrivals[idx]);
                idx += 1;
            }

            let backlog: usize = (0..self.config.fabric.slots)
                .map(|s| self.scheduler.fabric().backlog(s).unwrap_or(0))
                .sum();

            if backlog == 0 {
                if idx >= arrivals.len() {
                    break;
                }
                // Idle: jump to the next arrival.
                self.now_ns = arrivals[idx].time_ns;
                self.host_ns = self.host_ns.max(self.now_ns);
                continue;
            }

            let outcome = self.scheduler.run_decision();
            for p in outcome.packets() {
                let slot = p.slot.index();
                // The actual frame: from the streamlet mux if aggregated,
                // else from the per-stream queue.
                let frame = if let Some(mux) = self.muxes[slot].as_mut() {
                    mux.next().map(|(_, _, e)| e)
                } else {
                    self.qm.pop(slot)
                };
                let Some(frame) = frame else { continue };
                self.host_ns += self.config.host_per_packet_ns + self.per_packet_pci_ns;
                let ready = self.host_ns.max(frame.time_ns);
                self.te.transmit(slot, frame.size, ready, frame.time_ns);
            }
            // Reconcile drops: window-constrained slots discard expired
            // heads inside the fabric; mirror those drops in the Queue
            // Manager so both sides stay in lock-step.
            for slot in 0..self.config.fabric.slots {
                if self.muxes[slot].is_some() {
                    continue;
                }
                let fabric_backlog = self.scheduler.fabric().backlog(slot).unwrap_or(0);
                while self.qm.backlog(slot) > fabric_backlog {
                    self.qm.pop(slot);
                }
            }
            self.now_ns = self.te.busy_until().max(self.host_ns);
        }

        self.build_report()
    }

    fn build_report(&self) -> EndsystemReport {
        let mut streams = Vec::new();
        let mut total = 0u64;
        for (i, name) in self.names.iter().enumerate() {
            let serviced = self.te.count(i);
            total += serviced;
            let h = self.te.delay_histogram(i);
            let missed = self
                .scheduler
                .fabric()
                .slot_counters(i)
                .map(|c| c.missed_deadlines)
                .unwrap_or(0);
            streams.push(StreamPipelineStats {
                stream: i,
                name: name.clone(),
                serviced,
                bytes: self.te.bytes(i),
                mean_rate: self.te.mean_rate(i),
                mean_delay_us: h.mean().unwrap_or(0.0) / 1e3,
                p99_delay_us: h.quantile(0.99).unwrap_or(0) as f64 / 1e3,
                max_delay_us: h.max().unwrap_or(0) as f64 / 1e3,
                jitter_us: self.te.interdeparture(i).std_dev().unwrap_or(0.0) / 1e3,
                missed_deadlines: missed,
            });
        }
        let sim_seconds = self.te.busy_until() as f64 / 1e9;
        let host_seconds = self.host_ns as f64 / 1e9;
        EndsystemReport {
            streams,
            total_packets: total,
            sim_seconds,
            host_pps: if host_seconds > 0.0 {
                total as f64 / host_seconds
            } else {
                0.0
            },
            modeled_pps: self.config.modeled_pps(),
            dropped: self.qm.dropped(),
        }
    }

    /// Per-stream bandwidth series (Figure 8/10 plot data).
    pub fn bandwidth_series(&self, stream: StreamId) -> TimeSeries {
        self.te.bandwidth_series(stream.index())
    }

    /// Per-stream delay series (Figure 9 plot data).
    pub fn delay_series(&self, stream: StreamId) -> &TimeSeries {
        self.te.delay_series(stream.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::FabricConfigKind;
    use ss_traffic::{merge, Cbr};
    use ss_types::ServiceClass;

    fn fair_pipeline() -> (EndsystemPipeline, Vec<StreamId>) {
        let fabric = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
        let mut p = EndsystemPipeline::new(EndsystemConfig::paper_endsystem(fabric)).unwrap();
        let ids: Vec<StreamId> = [1u32, 1, 2, 4]
            .iter()
            .map(|&w| {
                p.register(StreamSpec::new(
                    format!("w{w}"),
                    ServiceClass::FairShare { weight: w },
                ))
                .unwrap()
            })
            .collect();
        (p, ids)
    }

    fn backlogged_arrivals(streams: usize, count: u64) -> Vec<ArrivalEvent> {
        backlogged_arrivals_weighted(&vec![count; streams])
    }

    /// Per-stream packet counts, all arriving far faster than the link
    /// drains them (every queue backlogged until it empties).
    fn backlogged_arrivals_weighted(counts: &[u64]) -> Vec<ArrivalEvent> {
        let sources: Vec<Box<dyn Iterator<Item = ArrivalEvent>>> = counts
            .iter()
            .enumerate()
            .map(|(s, &count)| {
                Box::new(Cbr::new(
                    StreamId::new(s as u8).unwrap(),
                    PacketSize(1500),
                    100, // 10M frames/s: far beyond the link → backlogged
                    0,
                    count,
                )) as Box<dyn Iterator<Item = ArrivalEvent>>
            })
            .collect();
        merge(sources).collect()
    }

    #[test]
    fn heavier_stream_sees_lower_delay() {
        // Figure 9's companion observation: "the reduced delay for Stream 4
        // is consistent with Figure 8".
        let (mut p, _ids) = fair_pipeline();
        let arrivals = backlogged_arrivals(4, 2000);
        let report = p.run(&arrivals);
        assert!(
            report.streams[3].mean_delay_us < report.streams[0].mean_delay_us,
            "w4 delay {} vs w1 delay {}",
            report.streams[3].mean_delay_us,
            report.streams[0].mean_delay_us
        );
    }

    #[test]
    fn host_pps_tracks_model() {
        let fabric = FabricConfig::dwcs(2, FabricConfigKind::WinnerOnly);
        let mut cfg = EndsystemConfig::paper_endsystem(fabric);
        cfg.link_bytes_per_sec = 10_000_000_000; // link not the bottleneck
        let mut p = EndsystemPipeline::new(cfg).unwrap();
        for w in [1u32, 1] {
            p.register(StreamSpec::new(
                format!("s{w}"),
                ServiceClass::FairShare { weight: w },
            ))
            .unwrap();
        }
        let arrivals = backlogged_arrivals(2, 5000);
        let report = p.run(&arrivals);
        assert!(
            (report.host_pps / report.modeled_pps - 1.0).abs() <= 0.02,
            "measured {} vs modeled {}",
            report.host_pps,
            report.modeled_pps
        );
    }

    #[test]
    fn idle_gaps_are_skipped() {
        let fabric = FabricConfig::dwcs(2, FabricConfigKind::WinnerOnly);
        let mut p = EndsystemPipeline::new(EndsystemConfig::paper_endsystem(fabric)).unwrap();
        let a = p
            .register(StreamSpec::new("a", ServiceClass::BestEffort))
            .unwrap();
        let arrivals = vec![
            ArrivalEvent {
                time_ns: 0,
                stream: a,
                size: PacketSize(1500),
            },
            ArrivalEvent {
                time_ns: 1_000_000_000,
                stream: a,
                size: PacketSize(1500),
            },
        ];
        let report = p.run(&arrivals);
        assert_eq!(report.total_packets, 2);
        assert!(
            report.sim_seconds >= 1.0,
            "second frame waits for its arrival"
        );
    }

    #[test]
    fn unsorted_arrivals_rejected() {
        let fabric = FabricConfig::dwcs(2, FabricConfigKind::WinnerOnly);
        let mut p = EndsystemPipeline::new(EndsystemConfig::paper_endsystem(fabric)).unwrap();
        let a = p
            .register(StreamSpec::new("a", ServiceClass::BestEffort))
            .unwrap();
        let arrivals = vec![
            ArrivalEvent {
                time_ns: 10,
                stream: a,
                size: PacketSize(64),
            },
            ArrivalEvent {
                time_ns: 5,
                stream: a,
                size: PacketSize(64),
            },
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.run(&arrivals)));
        assert!(result.is_err());
    }

    #[test]
    fn aggregated_slot_serves_streamlets() {
        let fabric = FabricConfig::dwcs(2, FabricConfigKind::WinnerOnly);
        let mut p = EndsystemPipeline::new(EndsystemConfig::paper_endsystem(fabric)).unwrap();
        let agg = p
            .register(StreamSpec::new(
                "agg",
                ServiceClass::FairShare { weight: 1 },
            ))
            .unwrap();
        let solo = p
            .register(StreamSpec::new(
                "solo",
                ServiceClass::FairShare { weight: 1 },
            ))
            .unwrap();
        p.attach_mux(
            agg,
            &[StreamletSetConfig {
                streamlets: 10,
                weight: 1,
            }],
        );
        // Deposit 10 packets per streamlet + matching solo traffic.
        let mut arrivals = Vec::new();
        for q in 0..100u64 {
            p.deposit_streamlet(
                agg,
                0,
                (q % 10) as usize,
                ArrivalEvent {
                    time_ns: q,
                    stream: agg,
                    size: PacketSize(1500),
                },
            );
            arrivals.push(ArrivalEvent {
                time_ns: q,
                stream: solo,
                size: PacketSize(1500),
            });
        }
        let report = p.run(&arrivals);
        assert_eq!(report.total_packets, 200);
        let mux = p.mux(agg).unwrap();
        for sl in 0..10 {
            assert_eq!(mux.serviced(0, sl), 10, "streamlet {sl} share");
        }
    }
}
