//! # ShareStreams
//!
//! A from-scratch Rust reproduction of **"Leveraging Block Decisions and
//! Aggregation in the ShareStreams QoS Architecture"** (Krishnamurthy,
//! Yalamanchili, Schwan, West — IPPS 2003): a unified canonical
//! architecture for packet schedulers — priority-class, fair-queuing, and
//! window-constrained (DWCS) disciplines on one hardware fabric — realized
//! here as a cycle-level simulation with the paper's endsystem and
//! line-card system realizations, software baselines, and a full
//! experiment harness regenerating every table and figure.
//!
//! ## Quick start
//!
//! ```
//! use sharestreams::prelude::*;
//!
//! // A 4-slot DWCS fabric in winner-only (max-finding) configuration.
//! let config = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
//! let mut sched = ShareStreamsScheduler::new(config, 4).unwrap();
//!
//! // Mix service classes on the same fabric — the paper's headline claim.
//! let video = sched
//!     .register(StreamSpec::new("video", ServiceClass::EarliestDeadline { request_period: 2 }))
//!     .unwrap();
//! let web = sched
//!     .register(StreamSpec::new("web", ServiceClass::BestEffort))
//!     .unwrap();
//!
//! for t in 0..100u64 {
//!     sched.enqueue(video, Wrap16::from_wide(t)).unwrap();
//!     sched.enqueue(web, Wrap16::from_wide(t)).unwrap();
//! }
//! let packets = sched.run_until_frames(150, 10_000);
//! assert_eq!(packets.len(), 150);
//!
//! let report = sched.report();
//! // The feasible EDF stream never misses a deadline.
//! assert_eq!(report.streams[video.index()].counters.missed_deadlines, 0);
//! println!("{report}");
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`types`] | IDs, wrapping 16-bit tags, window constraints, packets |
//! | [`core`] | **the canonical architecture**: Decision blocks, Register Base blocks, recirculating shuffle-exchange, control FSM, scheduler facade |
//! | [`hwsim`] | `core::hwsim` re-exported: cycle-simulation kernel, event queue, stats, Virtex model |
//! | [`disciplines`] | software reference schedulers (DWCS, EDF, WFQ, SFQ, DRR, …) |
//! | [`traffic`] | deterministic workload generators |
//! | [`endsystem`] | host-router realization: SPSC rings and their one wait, the one worker-thread lifecycle, QM, PCI/SRAM models, TE, aggregation, pipeline |
//! | [`sharded`] | scale-out frontend: K fabric shards with a Table-2 comparator winner-merge, inline (exact) and thread-per-shard modes, per-shard recovery onto the host |
//! | [`linecard`] | switch line-card realization with dual-ported SRAM |
//! | [`overload`] | overload control plane (always built, off until armed): window-aware admission, RED, hierarchical backpressure, QoS-aware shedding, the one composed gate, per-shard breakers |
//! | [`cluster`] | deterministic cluster-scale simulation + soak lab: scenario generators, per-tick invariant engine, flight-dump repro pipeline, `soak` binary |
//! | [`framework`] | Figure-1 feasibility reasoning and DWCS admission control |
//! | `ingress` | hardened TCP edge: length-prefixed frame protocol, edge admission gate, lifecycle robustness, socket chaos soak |
//! | [`telemetry`] | lock-free metric registry, Table-3 QoS accounting, per-packet stage-event tracing + flight recorder, JSON/Prometheus/Perfetto exporters; schedulers attach it through the `Traced` instantiation ([`core::telem`]) |
//!
//! The related-work hardware priority queues (heap, systolic, shift-register,
//! tree) live in the bench crate as `ss_bench::priorityq`: their one user is
//! `exp priority_queues`, which prices them against the shuffle.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results; `cargo run --release -p ss-bench --bin exp`
//! regenerates everything and checks the paper's anchors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod framework;
pub mod linecard;

pub use ss_cluster as cluster;
pub use ss_core as core;
pub use ss_core::hwsim;
pub use ss_disciplines as disciplines;
pub use ss_endsystem as endsystem;
pub use ss_faults as faults;
pub use ss_ingress as ingress;
pub use ss_overload as overload;
pub use ss_sharded as sharded;
pub use ss_telemetry as telemetry;
pub use ss_traffic as traffic;
pub use ss_types as types;

/// Publishes an `ss_build_info` gauge (value 1) carrying the crate version
/// as a label — the standard Prometheus idiom for joining metrics against
/// build metadata. There is one build, so the version names it.
/// Tests-only: `tests/trace_lifecycle.rs` checks the build-info gauge with it.
pub fn publish_build_info(registry: &ss_telemetry::Registry) {
    registry
        .gauge_labeled(
            "ss_build_info",
            &[("version", env!("CARGO_PKG_VERSION"))],
            "Build metadata (constant 1; the label carries the version)",
        )
        .set(1);
}

/// The most commonly used items in one import.
pub mod prelude {
    pub use ss_core::{
        BlockOrder, DecisionOutcome, DecisionWatchdog, Fabric, FabricConfig, FabricConfigKind,
        ScheduledPacket, SchedulerReport, ShareStreamsScheduler, StreamState, Traced,
        WatchdogVerdict,
    };
    pub use ss_endsystem::{EndsystemConfig, EndsystemPipeline, StreamletSetConfig};
    pub use ss_overload::{LossLedger, LossSite, PressureLevel};
    pub use ss_sharded::{ShardedScheduler, StreamletReport, ThreadedShards};
    pub use ss_traffic::ArrivalEvent;
    pub use ss_types::{
        ComparisonMode, PacketSize, ServiceClass, SlotId, StreamId, StreamSpec, WindowConstraint,
        Wrap16,
    };
}
