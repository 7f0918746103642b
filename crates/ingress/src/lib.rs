//! Hardened network ingress for the ShareStreams endsystem.
//!
//! Every byte the reproduction scheduled before this crate was generated
//! in-process, so none of the robustness machinery (deterministic fault
//! injection, the overload gate, the loss ledger, the flight recorder)
//! had ever faced the failure modes a real edge produces: half-open
//! connections, torn frames, slow or stalled peers, resets, and listener
//! restarts. This crate is that edge, built robustness-first and without
//! heavy frameworks:
//!
//! * [`frame`] — a small length-prefixed wire protocol
//!   (HELLO / REGISTER_STREAM / SUBMIT batches / DRAIN / GOODBYE) with a
//!   bounded, allocation-free, panic-free incremental decoder whose every
//!   failure is a typed [`frame::FrameError`];
//! * [`gate`] — the edge admission gate: ss-overload's composed gate
//!   (token buckets → RED proposal → QoS veto) holding the decoded
//!   packets, publishing a [`SharedPressure`] level that becomes the
//!   backpressure reply code throttling well-behaved clients *before* RED
//!   sheds them (the rule lives in `ss_overload::gate`). Every refused
//!   packet lands at exactly one [`LossSite`], so conservation is exact;
//! * [`server`] — the TCP listener: per-connection reader threads with
//!   hello deadlines, idle timeouts, bounded read buffers and slow-peer
//!   (slowloris) eviction, feeding admitted packets to the endsystem SPSC
//!   ring; a graceful drain path writes every unserved packet off at
//!   [`LossSite::Drain`] and auto-dumps the flight recorder when the
//!   drain deadline is exceeded;
//! * [`client`] — a reconnecting client: capped exponential backoff with
//!   seeded jitter, idempotent re-registration via stream epochs, and
//!   batch-sequence resubmission the server deduplicates, so delivery is
//!   exactly-once across resets;
//! * [`soak`] — the pinned-seed chaos soak: socket-site faults from
//!   ss-faults' keyed-draw schedule at ≥1.5× load, with a replay
//!   fingerprint that is bit-identical per seed and a ledger partition
//!   that sums exactly (admitted + shed + ring-lost + drain-written-off
//!   = offered).
//!
//! [`SharedPressure`]: ss_overload::SharedPressure
//! [`LossSite`]: ss_overload::LossSite
//! [`LossSite::Drain`]: ss_overload::LossSite::Drain

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod gate;
pub mod server;
pub mod soak;

pub use client::{ClientConfig, ClientError, ClientStats, IngressClient, SubmitOutcome};
// Re-exported so feature-gated facade users can configure injectors
// without naming ss-faults directly (the facade's `faults` feature may be
// off while `ingress` is on).
pub use frame::{Frame, FrameDecoder, FrameError, SubmitView};
pub use gate::{EdgeGate, EdgeVerdict, IngressArrival};
pub use server::{DrainReport, EdgeMode, IngressConfig, IngressServer, IngressTotals};
pub use soak::{run_chaos_soak, SoakOptions, SoakReport};
pub use ss_faults::{FaultConfig, FaultInjector};
