//! Observability for the ShareStreams fabric, endsystem, and sharded
//! frontends — built so it can run under heavy traffic without perturbing
//! the allocation-free hot path.
//!
//! The paper evaluates ShareStreams entirely through externally observed
//! quantities — decision-cycle latency, winner throughput, per-stream
//! window-constraint violations (Table 3), PCI transfer cost. This crate
//! makes those quantities first-class at runtime:
//!
//! * [`metrics`] — a lock-free metric registry with monotonic
//!   [`Counter`]s, [`Gauge`]s, and log2-bucketed [`Histogram`]s. Hot-path
//!   updates are relaxed atomic adds striped across per-thread cells (no
//!   shared cache line between recording threads); stripes are merged only
//!   on [`Registry::snapshot`]. [`LocalHistogram`] is the workspace's one
//!   single-owner histogram, its resolution a sub-bucket parameter: the
//!   registry's log2 layout at 0 bits, 1/16 octave at 4.
//! * [`qos`] — per-stream QoS accounting matching the paper's Table 3
//!   quantities: deadlines met/missed, window-constraint (x/y) violations,
//!   and winner-selection latency in decision cycles.
//! * [`snapshot`] — the one reporting schema ([`Snapshot`],
//!   [`HistogramSnapshot`], [`SummarySnapshot`]) shared by the live
//!   schedulers and the simulated endsystem's Transmission Engine, with
//!   JSON and Prometheus-text exporters.
//! * [`stats`] — [`Summary`], the Welford mean/variance accumulator.
//! * [`span`] / [`clock`] / [`recorder`] / [`export`] — the one event
//!   model: 32-byte [`StageEvent`]s recorded into fixed-capacity,
//!   drop-counting [`StageRing`]s with `rdtsc`-class timestamps
//!   ([`clock::now_tsc`]). Packet events carry an 8-byte [`TraceTag`]
//!   minted at admission; machine events (expiry passes, blocked decision
//!   cycles, recovery path switches, watchdog trips) carry
//!   [`TraceTag::CONTROL`]. Per-thread span tracks feed an exporter that
//!   stitches them into causally-ordered Chrome/Perfetto trace JSON plus
//!   per-stage latency histograms merged into this crate's snapshot
//!   schema; an always-on bounded [`FlightRecorder`] is dumped on watchdog
//!   trip / violation / panic.
//!
//! # Instrumentation as a type
//!
//! This crate has no cargo feature, and neither do its consumers' hooks:
//! `ss_core::Fabric` and the sharded frontend take a
//! `T: ss_core::Telemetry` that defaults to `()`, whose hooks are
//! inlined empty functions on zero-sized types, so the default
//! instantiation is the uninstrumented decision core. Their
//! `ss_core::Traced` instantiation holds this crate's handles, attached at
//! runtime. `tests/zero_alloc.rs` proves both instantiations allocate
//! nothing in steady state.
//!
//! # Metric naming
//!
//! Metrics follow the Prometheus convention
//! `ss_<layer>_<quantity>_<unit>`, e.g. `ss_fabric_decision_cycles_total`,
//! `ss_sharded_merge_latency_ns`. Per-shard series carry a
//! `shard="<k>"` label.

// `clock::now_tsc` needs the `_rdtsc` intrinsic on x86-64 — the one
// sanctioned unsafe site in this crate (exempt from the workspace's
// `unsafe_code = "deny"`, with a `// SAFETY:` argument). Every other target promises safety outright.
#![cfg_attr(not(target_arch = "x86_64"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod metrics;
pub mod qos;
pub mod recorder;
pub mod snapshot;
pub mod span;
pub mod stats;

pub use export::{perfetto_json, validate_causal, validate_perfetto_schema, StageLatencies};
pub use metrics::{Counter, Gauge, Histogram, LocalHistogram, Registry};
pub use qos::{QosSet, StreamQos, WinLatencyTracker};
pub use recorder::{
    install_panic_hook, stitch, DumpReason, FlightDump, FlightRecorder, SharedFlightRecorder,
    SpanRecorder, StageRing, TrackDump, TrackRecorder,
};
pub use snapshot::{
    Bucket, HistogramSnapshot, MetricSnapshot, MetricValue, Snapshot, SummarySnapshot,
};
pub use span::{Stage, StageEvent, TraceTag};
pub use stats::Summary;
