//! The ShareStreams canonical scheduler architecture (the paper's primary
//! contribution), simulated at hardware-cycle granularity.
//!
//! # Architecture
//!
//! ```text
//!            ┌────────────────────────────────────────────────┐
//!            │          Control & Steering logic (FSM)        │
//!            │   LOAD ──► SCHEDULE ◄──► PRIORITY_UPDATE       │
//!            └──────┬──────────────────────────▲──────────────┘
//!    attrs          │ mux select               │ winner ID
//!  ┌─────────┐   ┌──▼──────────────────────────┴───┐
//!  │Register │──►│                                 │
//!  │Base blk │   │  N/2 Decision blocks in a       │
//!  │ (slot 0)│◄──│  single-stage recirculating     │
//!  ├─────────┤   │  shuffle-exchange network       │
//!  │  ...    │──►│  (log2 N cycles per decision)   │
//!  ├─────────┤   │                                 │
//!  │ slot N-1│◄──│  BA: winners+losers routed      │
//!  └─────────┘   │  WR: winners only (max-finding) │
//!                └─────────────────────────────────┘
//! ```
//!
//! * [`decision`] — the single-cycle multi-attribute Decision block
//!   implementing the paper's Table 2 ordering rules, with rule-firing
//!   counters.
//! * [`dwcs`] — the DWCS winner/loser window-constraint update rules applied
//!   during PRIORITY_UPDATE (reconstructed from West & Poellabauer, RTSS'00;
//!   see DESIGN.md §3).
//! * [`register`] — the Register Base blocks ("stream-slots") as one
//!   register file: per-stream state in 32-entry banks, always-current lane
//!   words, winner/loser updates, the block service walk, performance
//!   counters.
//! * [`network`] — the recirculating shuffle-exchange network (BA) and the
//!   winner-only tournament (WR).
//! * [`control`] — the Control & Steering FSM and its timeline trace
//!   (paper Figure 6).
//! * [`fabric`] — the assembled fabric: runs decision cycles, counts hardware
//!   cycles, produces winners (WR) or blocks (BA).
//! * [`scheduler`] — the user-facing [`ShareStreamsScheduler`]: register
//!   streams by [`ss_types::StreamSpec`], enqueue packet arrivals, run
//!   decisions, read QoS counters.
//! * [`hwsim`] — the simulation substrate under all of the above: the
//!   two-phase cycle kernel, the event queue, the measurement instruments,
//!   the VCD writer and the calibrated Virtex area/clock model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod decision;
pub mod dwcs;
pub mod fabric;
pub mod faults;
pub mod hwsim;
pub mod network;
pub mod register;
pub mod rtl;
pub mod scheduler;
pub mod telem;
pub mod watchdog;

pub use control::{ControlFsm, FsmState, TimelineEntry};
pub use decision::{DecisionBlock, DecisionRule, RuleCounters};
pub use dwcs::{DwcsUpdater, UpdateEvent};
pub use fabric::{BlockOrder, Fabric, FabricConfig, RegisterSnapshot, ScheduledPacket};
pub use faults::{FabricFaults, RecoveryLedger};
pub use register::{LatePolicy, RegisterFile, SlotCounters, StreamState};
pub use rtl::{RtlFabric, RtlWires};
pub use scheduler::{SchedulerReport, ShareStreamsScheduler};
pub use telem::{FabricTelemetry, MergeHooks, SupervisorHooks, SupervisorTrace, Telemetry, Traced};
pub use watchdog::{DecisionWatchdog, WatchdogVerdict};

// Re-export the hwsim configuration enum used throughout.
pub use hwsim::FabricConfigKind;
