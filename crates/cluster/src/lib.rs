//! `ss-cluster`: deterministic cluster-scale simulation and the
//! long-horizon soak lab.
//!
//! This crate closes the loop the single-endsystem crates leave open:
//! ShareStreams is a *cluster* architecture (endsystem schedulers feeding
//! linecard aggregation), and its robustness claims — loss accounting
//! that always balances, QoS floors that hold under overload, virtual
//! time that never runs backwards — are only meaningful over long
//! horizons with faults and overload layered on. `ss-cluster` provides:
//!
//! * a **discrete-event simulator** ([`sim::ClusterSim`]) running many
//!   endsystems (each a sharded DWCS fabric behind an ss-overload gate)
//!   plus a bounded linecard egress aggregator on one shared virtual
//!   clock;
//! * **composable scenario generators** ([`scenario`]) — steady state,
//!   flash crowd, diurnal wave, elephant/mice mix, WiMAX-style service
//!   ladders — with ss-faults schedules layered on top ([`faults`]);
//! * a **continuous invariant engine** ([`invariant`]) checking
//!   conservation, protected floors, virtual-time monotonicity and
//!   liveness on every virtual tick; the first violation yields a
//!   one-line repro command and a flight dump replayed from it;
//! * the **soak binary** (`--bin soak`) that runs bounded-wall-clock long
//!   horizons and appends trend points to `BENCH_soak.json` for the
//!   nightly CI leg.
//!
//! Every run is a pure function of `(seed, scenario)`: replays are
//! bit-identical — same winner sequence, same loss-ledger partition, same
//! fingerprint — including across `--threads` settings and epoch lengths,
//! because each node runs an epoch of ticks by itself (on the sim thread
//! or on a persistent worker its partition is handed to) and all
//! cross-node coupling happens afterwards, in a sequential phase that
//! replays the epoch in tick order, node order within a tick, and never
//! feeds back into a node.
//!
//! # Feature hygiene
//!
//! `ss-cluster` is built unconditionally (the facade depends on it with
//! no feature gate), so it must depend **only on feature-free surfaces**
//! of the workspace: `ss-types`, `ss-core`, `ss-sharded` (base API),
//! `ss-overload`, `ss-faults`, `ss-telemetry`, and the serde shims. It
//! must never enable another crate's cargo feature — unification would
//! silently turn that feature on for every build and invalidate the CI
//! feature-matrix off-state legs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod faults;
pub mod invariant;
pub mod node;
pub mod report;
pub mod scenario;
pub mod sim;

pub use cli::{parse_args, repro_command, SoakArgs};
pub use faults::FaultProfile;
pub use invariant::{EgressView, Invariant, InvariantEngine, Violation};
pub use node::{NodeParams, SimNode, Winner, FULLY_PROTECTED};
pub use report::{append_trend, RunReport, TrendFile, TrendPoint, ViolationReport};
pub use scenario::{Scenario, ScenarioKind, ScenarioSpec};
pub use sim::{ClusterConfig, ClusterSim, Sabotage, SabotageKind};
