//! The ShareStreams overload-control plane.
//!
//! The paper's endsystem realization (host Stream processor → SPSC rings →
//! Queue Manager → PCI → decision fabric) assumes offered load fits the
//! fabric's service rate of one decision per packet-time. This crate is
//! what happens when it doesn't: a per-stream / per-shard control plane
//! that decides whether to **admit**, **delay**, or **shed** work, and
//! propagates backpressure end to end instead of dropping silently.
//!
//! Cooperating pieces, each usable on its own:
//!
//! * [`AdmissionController`] — per-stream token buckets whose refill is
//!   *window-constraint aware*: a stream with a tight DWCS loss tolerance
//!   `x/y` (high mandatory fraction `(y-x)/y`) keeps its full refill rate
//!   under pressure, while loss-tolerant streams are squeezed first — so
//!   tight-window streams get shed *last*.
//! * [`PressureSignal`] / [`SharedPressure`] — hierarchical backpressure:
//!   SPSC ring high-water marks and fabric backlog feed a three-level
//!   signal with hysteresis (distinct rise/fall thresholds plus a minimum
//!   dwell), so the signal never oscillates cycle-to-cycle. The shared
//!   atomic form crosses the producer/scheduler thread boundary.
//! * [`QosShedder`] — chooses shed victims among streams whose window
//!   constraints are *currently satisfied* (loss headroom left in the
//!   sliding `x/y` window), maximizing Table-3 deadlines-met under
//!   overload.
//! * [`RedQueue`] — Floyd/Jacobson RED, the probabilistic front end that
//!   decides *when* occupancy warrants a drop proposal.
//!
//! [`gate`] composes them, once: [`GateCore`] books every admission
//! refusal, shed and external loss at exactly one [`LossLedger`] site, and
//! [`Gate<T>`] adds the RED backlog whose proposals the shedder may veto.
//! The endsystem mirror, the cluster node and the network edge are all
//! configurations of those two types.
//!
//! Loss is never silent: every rejection is classified by site in a
//! [`LossLedger`] whose partition (admission / ring / shed / shard /
//! drain) must sum *exactly* to total loss — the chaos soaks assert it.
//!
//! Everything here is deterministic, integer-only on the hot paths apart
//! from RED's EWMA, and allocation-free after construction (the
//! `// lint:hot-path` functions are held to the ss-lint hot-path-reachability
//! gate and covered by `tests/zero_alloc.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod gate;
pub mod ledger;
pub mod pressure;
pub mod red;
pub mod shed;

pub use bucket::{AdmissionController, StreamClass};
pub use gate::{Gate, GateConfig, GateCore, GateReason};
pub use ledger::{LossLedger, LossSite};
pub use pressure::{PressureConfig, PressureLevel, PressureSignal, SharedPressure};
pub use red::{early_drop_probability, RedConfig, RedQueue, RedVerdict};
pub use shed::QosShedder;
