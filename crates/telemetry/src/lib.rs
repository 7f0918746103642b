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
//!   on [`Registry::snapshot`].
//! * [`qos`] — per-stream QoS accounting matching the paper's Table 3
//!   quantities: deadlines met/missed, window-constraint (x/y) violations,
//!   and winner-selection latency in decision cycles.
//! * [`snapshot`] — the one reporting schema ([`Snapshot`],
//!   [`HistogramSnapshot`], [`SummarySnapshot`]) shared by the live
//!   schedulers and the `ss_core::hwsim` measurement instruments, with JSON and
//!   Prometheus-text exporters.
//! * [`stats`] — [`Summary`], the Welford mean/variance accumulator
//!   (moved here from `ss_core::hwsim` so both report through one schema).
//! * [`span`] / [`clock`] / [`recorder`] / [`export`] — the one event
//!   model: 32-byte [`StageEvent`]s recorded into fixed-capacity,
//!   drop-counting [`StageRing`]s with `rdtsc`-class timestamps
//!   ([`clock::now_tsc`]). Packet events carry an 8-byte [`TraceTag`]
//!   minted at admission; machine events (expiry passes, blocked decision
//!   cycles, failovers, rung changes, ladder sheds, watchdog trips) carry
//!   [`TraceTag::CONTROL`]. Per-thread span tracks feed an exporter that
//!   stitches them into causally-ordered Chrome/Perfetto trace JSON plus
//!   per-stage latency histograms merged into this crate's snapshot
//!   schema; an always-on bounded [`FlightRecorder`] is dumped on watchdog
//!   trip / rung change / breaker open / panic.
//!
//! # Feature gating
//!
//! This crate always compiles its real types. The *consumers* (`ss-core`,
//! `ss-endsystem`, `ss-sharded`, the `sharestreams` facade) each expose a
//! `telemetry` cargo feature; with the feature off their instrumentation
//! shims compile to inlined empty functions on zero-sized types, so the
//! decision core's zero-allocation guarantees and throughput are exactly
//! the uninstrumented build's. `tests/zero_alloc.rs` additionally proves
//! the *enabled* path allocates nothing in steady state.
//!
//! # Metric naming
//!
//! Metrics follow the Prometheus convention
//! `ss_<layer>_<quantity>_<unit>`, e.g. `ss_fabric_decision_cycles_total`,
//! `ss_sharded_merge_latency_ns`. Per-shard series carry a
//! `shard="<k>"` label.

// `clock::now_tsc` needs the `_rdtsc` intrinsic on x86-64 — the one
// sanctioned unsafe site in this crate (allow-listed in lint.toml with a
// `// SAFETY:` argument). Every other target promises safety outright.
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
pub use qos::{jain_fairness, QosSet, StreamQos, WinLatencyTracker};
pub use recorder::{
    install_panic_hook, stitch, DumpReason, FlightDump, FlightRecorder, SharedFlightRecorder,
    SpanRecorder, StageRing, TrackDump, TrackRecorder,
};
pub use snapshot::{
    Bucket, HistogramSnapshot, MetricSnapshot, MetricValue, Snapshot, SummarySnapshot,
};
pub use span::{Stage, StageEvent, TraceTag};
pub use stats::Summary;
