//! The cluster simulation: many endsystems + a shared linecard on one
//! virtual clock, with continuous invariant checking.
//!
//! ## Virtual-clock model
//!
//! One tick = one fabric packet-time, cluster-wide. The clock advances an
//! **epoch** — up to `EPOCH_TICKS` (32) ticks — at a time, in two phases with
//! a barrier between them:
//!
//! 1. **node phase, node-major** (parallelizable) — every [`SimNode`]
//!    runs the whole epoch on its own: per tick it samples faults, draws
//!    arrivals, runs one decision cycle, takes the sabotage plan if this
//!    `(node, tick)` is its mark, and probes its own invariants, leaving
//!    one cell per tick — the winner's `(slot, met)` and any failed
//!    probe — in its partition's epoch buffer. Nodes share no mutable
//!    state, all randomness is keyed by `(seed, node, tick)`, and nothing
//!    the cluster phase does ever reaches a node, so any epoch length and
//!    any thread count produce bit-identical results; `threads` is purely
//!    a wall-clock knob. Beyond the first, each partition has a
//!    long-lived worker that is *sent* the partition for the epoch and
//!    sends it back: ownership transfer is the barrier.
//! 2. **cluster phase, tick order** (sequential, sim thread) — for each
//!    tick of the epoch: winners in node order feed the bounded egress
//!    aggregator (the "linecard": drains `egress_per_tick`, drops above
//!    `egress_queue_cap`, every drop counted), then the tick's failed
//!    node probes are booked in node order, then the egress identity is
//!    checked.
//!
//! An epoch of one tick is the tick-major order this replaces, and what
//! `run_chunk(1)` runs: the oracle `tests/epoch_equivalence.rs` holds
//! every other epoch length to.
//!
//! A violation is booked and renders a one-line repro command
//! (`crate::cli::repro_command`) that replays the exact `(seed, scenario,
//! topology, faults, sabotage)` tuple. A run is a pure function of its
//! config, so the config is the undo log and the flight recorder both:
//! under `halt_on_violation` the cluster phase stops on that tick while
//! the nodes have already run to the end of the epoch, and they are
//! rebuilt and replayed to it (`ClusterSim::rewind_nodes`); the flight
//! dump is rebuilt the same way when asked for ([`ClusterSim::dump`]).

use crate::cli;
use crate::faults::FaultProfile;
use crate::invariant::{EgressView, Invariant, InvariantEngine, Violation};
use crate::node::{NodeParams, SimNode, Winner};
use crate::report::{RunReport, ViolationReport};
use crate::scenario::{Scenario, ScenarioSpec};
use serde::Serialize;
use ss_endsystem::spsc::{spsc_ring, Consumer, Producer};
use ss_endsystem::Worker;
use ss_faults::rng::mix;
use ss_overload::LossLedger;
use ss_telemetry::{DumpReason, FlightDump, FlightRecorder, Stage, StageEvent};
use ss_types::{Error, MAX_SLOTS};

/// What a `--sabotage` plan breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SabotageKind {
    /// Forge a phantom offered arrival (trips `Conservation`).
    Phantom,
    /// Forge a shed on a fully-protected slot (trips `ProtectedShed`).
    ShedProtected,
}

/// A deliberate invariant violation, pinned to `(node, tick)` — the
/// acceptance test for the violation → flight-dump → repro pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Sabotage {
    /// What to break.
    pub kind: SabotageKind,
    /// Node to break it on.
    pub node: usize,
    /// Virtual tick to break it at.
    pub tick: u64,
}

impl Sabotage {
    /// Parses `"phantom@N:T"` / `"shed-protected@N:T"`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (kind_s, at) = s
            .split_once('@')
            .ok_or_else(|| format!("sabotage {s:?} is not kind@node:tick"))?;
        let kind = match kind_s {
            "phantom" => SabotageKind::Phantom,
            "shed-protected" => SabotageKind::ShedProtected,
            other => return Err(format!("unknown sabotage kind {other:?}")),
        };
        let (node_s, tick_s) = at
            .split_once(':')
            .ok_or_else(|| format!("sabotage {s:?} is not kind@node:tick"))?;
        let node = node_s
            .parse()
            .map_err(|_| format!("sabotage node {node_s:?} is not an integer"))?;
        let tick = tick_s
            .parse()
            .map_err(|_| format!("sabotage tick {tick_s:?} is not an integer"))?;
        Ok(Self { kind, node, tick })
    }
}

impl std::fmt::Display for Sabotage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            SabotageKind::Phantom => "phantom",
            SabotageKind::ShedProtected => "shed-protected",
        };
        write!(f, "{kind}@{}:{}", self.node, self.tick)
    }
}

/// Everything a run is a pure function of. `(seed, scenario, topology,
/// faults, sabotage)` determine every bit of the outcome; `threads` and
/// `record_winners` never do.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Master seed: arrival draws and fault streams all derive from it.
    pub seed: u64,
    /// Offered-load shape and class mix.
    pub scenario: ScenarioSpec,
    /// Endsystems in the cluster.
    pub nodes: usize,
    /// Shards per endsystem.
    pub shards: usize,
    /// Stream slots per endsystem.
    pub slots: usize,
    /// Virtual ticks to run.
    pub ticks: u64,
    /// Worker threads for the node phase (wall-clock only; 1 = inline).
    pub threads: usize,
    /// Fault schedule intensity.
    pub faults: FaultProfile,
    /// Optional deliberate violation.
    pub sabotage: Option<Sabotage>,
    /// Linecard drain rate, winners per tick.
    pub egress_per_tick: u64,
    /// Linecard queue bound; overflow is counted drop.
    pub egress_queue_cap: u64,
    /// Per-stream admission refill, mtok/tick.
    pub gate_rate_mtok: u32,
    /// Per-stream admission burst depth, mtok.
    pub gate_burst_mtok: u32,
    /// Capture full winner sequences (tests; memory-heavy on long runs).
    pub record_winners: bool,
    /// Stop at the first violation (soak keeps the dump either way).
    pub halt_on_violation: bool,
}

impl ClusterConfig {
    /// A config with production-shaped defaults: linecard oversubscribed
    /// at ¾ of the cluster's peak winner rate (so sustained saturation
    /// visibly queues and sheds at egress), per-stream admission at 3× a
    /// fair slot share.
    pub fn new(
        seed: u64,
        scenario: ScenarioSpec,
        nodes: usize,
        shards: usize,
        slots: usize,
    ) -> Self {
        Self {
            seed,
            scenario,
            nodes,
            shards,
            slots,
            ticks: 10_000,
            threads: 1,
            faults: FaultProfile::Off,
            sabotage: None,
            egress_per_tick: ((nodes as u64) * 3 / 4).max(1),
            egress_queue_cap: (nodes as u64) * 16,
            gate_rate_mtok: (3_000 / slots.max(1) as u32).max(200),
            gate_burst_mtok: 2_000,
            record_winners: false,
            halt_on_violation: true,
        }
    }
}

/// Ticks per epoch: how far the node phase runs one node before it
/// touches the next. Long enough that a node's ≈ 12.6 KB of state is
/// loaded into L1d once per epoch rather than once per tick (four such
/// nodes do not fit beside each other) and that a worker hand-off is
/// paid once per 32 node-ticks; short enough that the epoch buffer (2 B
/// per node-tick) stays a rounding error beside the node it sits next to
/// and a halt replays at most one epoch of cluster-phase work it then
/// discards. Not configurable: no outcome depends on it.
const EPOCH_TICKS: u64 = 32;

/// Events a flight dump holds: the last of them before the violation.
const FLIGHT_CAPACITY: usize = 4_096;

/// Why rebuilding a running simulation's nodes cannot fail.
const REBUILT: &str = "the constructor accepted these nodes once already";

/// What the cluster phase reads of one `(tick, node)`: not the node, not
/// the 24-byte [`Winner`].
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    /// Whether the node produced a winner on the tick.
    won: bool,
    /// The first invariant the node's own probe found broken.
    failed: Option<Invariant>,
}

/// Everything a node's tick is a function of besides the node itself.
/// Read-only; every thread of the node phase owns a copy.
#[derive(Debug, Clone)]
struct NodeCtx {
    scenario: Scenario,
    seed: u64,
    sabotage: Option<Sabotage>,
}

impl NodeCtx {
    /// One node-tick: the step, then the sabotage plan if this is its
    /// `(node, tick)` — before any probe, so the forged state is caught
    /// on the tick it was planted.
    #[inline]
    fn advance(&self, node: &mut SimNode, tick: u64) -> Option<Winner> {
        let winner = node.step(tick, &self.scenario, self.seed);
        if let Some(sab) = self.sabotage {
            if sab.tick == tick && sab.node == node.id() {
                match sab.kind {
                    SabotageKind::Phantom => node.sabotage_phantom(),
                    SabotageKind::ShedProtected => node.sabotage_protected_shed(),
                }
            }
        }
        winner
    }
}

/// A contiguous run of nodes and the epoch buffer they fill: the unit of
/// the node phase, moved whole to a worker and back.
#[derive(Debug, Default)]
struct Partition {
    nodes: Vec<SimNode>,
    /// `[tick of the epoch][node of the partition]`, `EPOCH_TICKS` rows
    /// allocated once.
    cells: Vec<Cell>,
}

impl Partition {
    fn new(nodes: Vec<SimNode>) -> Self {
        let cells = vec![Cell::default(); nodes.len() * EPOCH_TICKS as usize];
        Self { nodes, cells }
    }

    /// The node phase: each node in turn runs ticks `start..start + len`
    /// and leaves its column of the epoch buffer. Registered hot path.
    // lint:hot-path
    fn node_phase(&mut self, ctx: &NodeCtx, start: u64, len: u64) {
        let width = self.nodes.len();
        for (local, node) in self.nodes.iter_mut().enumerate() {
            let column = self.cells.iter_mut().skip(local).step_by(width);
            for (tick, cell) in (start..start + len).zip(column) {
                let winner = ctx.advance(node, tick);
                *cell = Cell {
                    won: winner.is_some(),
                    failed: InvariantEngine::probe(node, tick),
                };
            }
        }
    }

    /// What this partition's nodes did on tick `t` of the epoch.
    #[inline]
    fn row(&self, t: usize) -> &[Cell] {
        let width = self.nodes.len();
        &self.cells[t * width..(t + 1) * width]
    }
}

/// Tick `t` of the epoch across all partitions, in node order.
#[inline]
fn cells_at(parts: &[Partition], t: usize) -> impl Iterator<Item = &Cell> {
    parts.iter().flat_map(move |p| p.row(t))
}

/// An epoch of work for a worker: the partition by value.
struct Job {
    part: Partition,
    start: u64,
    len: u64,
    /// Makes the worker panic instead of working.
    #[cfg(test)]
    poisoned: bool,
}

/// A long-lived node-phase thread and the two capacity-1 rings its
/// partition travels over; between chunks it sleeps in the rings' wait.
struct PoolWorker {
    jobs: Producer<Job>,
    done: Consumer<Partition>,
    thread: Worker<()>,
}

impl PoolWorker {
    fn spawn(ctx: &NodeCtx) -> Self {
        let (jobs, job_rx) = spsc_ring(1);
        let (done_tx, done) = spsc_ring(1);
        let ctx = ctx.clone();
        let thread = Worker::spawn("ss-node-phase", move || worker_loop(&ctx, job_rx, done_tx))
            .expect("spawning a node-phase worker thread");
        Self { jobs, done, thread }
    }
}

/// A worker's life: take a partition, run its epoch, give it back; leave
/// when the simulation hangs up. Registered hot path.
// lint:hot-path
fn worker_loop(ctx: &NodeCtx, mut jobs: Consumer<Job>, mut done: Producer<Partition>) {
    while let Some(mut job) = jobs.pop_waiting() {
        #[cfg(test)]
        assert!(!job.poisoned, "poisoned epoch at tick {}", job.start);
        job.part.node_phase(ctx, job.start, job.len);
        done.push_spinning(job.part, || false);
    }
}

/// The persistent workers of partitions `1..`: spawned at the first epoch
/// that has such partitions, joined when the simulation drops.
#[derive(Default)]
struct Pool {
    workers: Vec<PoolWorker>,
    /// Poisons the jobs of every later epoch.
    #[cfg(test)]
    poisoned: bool,
}

impl Pool {
    /// Sends each of `parts` to its worker, leaving empty husks behind.
    fn dispatch(&mut self, parts: &mut [Partition], ctx: &NodeCtx, start: u64, len: u64) {
        if self.workers.is_empty() {
            self.workers
                .extend((0..parts.len()).map(|_| PoolWorker::spawn(ctx)));
        }
        for (part, worker) in parts.iter_mut().zip(&mut self.workers) {
            let job = Job {
                part: std::mem::take(part),
                start,
                len,
                #[cfg(test)]
                poisoned: self.poisoned,
            };
            // A consumer only drops with its thread, taking the job along;
            // `collect` finds the same corpse and reports how it died.
            worker.jobs.push_spinning(job, || false);
        }
    }

    /// Takes each of `parts` back from its worker — the epoch's barrier.
    /// A worker that died instead dies again here, on the sim thread.
    fn collect(&mut self, parts: &mut [Partition]) {
        for (p, home) in parts.iter_mut().enumerate() {
            match self.workers[p].done.pop_waiting() {
                Some(part) => *home = part,
                None => match self.workers.remove(p).thread.join() {
                    Err(panic) => std::panic::resume_unwind(panic),
                    Ok(()) => panic!("a node-phase worker exited mid-run"),
                },
            }
        }
    }

    /// Hangs up on every worker — the stop signal, whether it is spinning
    /// or asleep — and waits for each to leave. Returns how many left
    /// cleanly; a panic was re-raised by `collect` already, or the sim is
    /// unwinding from something else, so none is re-raised from here.
    fn join_all(&mut self) -> usize {
        let mut clean = 0;
        for PoolWorker { jobs, done, thread } in self.workers.drain(..) {
            drop((jobs, done));
            clean += usize::from(thread.join().is_ok());
        }
        clean
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.join_all();
    }
}

/// Everything the sequential cluster phase owns: the clock, the linecard,
/// the violation sink.
struct ClusterPhase {
    engine: InvariantEngine,
    tick: u64,
    /// Winners handed to the linecard so far.
    transmitted_total: u64,
    /// Winners forwarded onto the wire.
    egressed: u64,
    /// Winners waiting in the bounded egress queue.
    egress_queue: u64,
    /// Winners dropped at the full egress queue.
    egress_dropped: u64,
    halted: bool,
}

impl ClusterPhase {
    /// Replays `len` ticks of node-phase output in tick order: linecard
    /// enqueue in node order, drain, bound, the tick's failed probes in
    /// node order, the egress identity. Stops on the tick of a halting
    /// violation, `tick` not advanced past it. Registered hot path.
    // lint:hot-path
    fn replay(&mut self, config: &ClusterConfig, parts: &[Partition], len: u64) {
        for t in 0..len as usize {
            let tick = self.tick;
            let mut any_failed = false;
            for cell in cells_at(parts, t) {
                any_failed |= cell.failed.is_some();
                if cell.won {
                    self.transmitted_total += 1;
                    self.egress_queue += 1;
                }
            }
            let drained = self.egress_queue.min(config.egress_per_tick);
            self.egressed += drained;
            self.egress_queue -= drained;
            if self.egress_queue > config.egress_queue_cap {
                self.egress_dropped += self.egress_queue - config.egress_queue_cap;
                self.egress_queue = config.egress_queue_cap;
            }

            if any_failed {
                for (i, cell) in cells_at(parts, t).enumerate() {
                    if let Some(invariant) = cell.failed {
                        self.engine.record(i as u32, tick, invariant);
                        self.halted = config.halt_on_violation;
                        if self.halted {
                            return;
                        }
                    }
                }
            }
            let view = EgressView {
                transmitted: self.transmitted_total,
                egressed: self.egressed,
                queued: self.egress_queue,
                dropped: self.egress_dropped,
            };
            if self.engine.check_egress(view, tick).is_some() {
                self.halted = config.halt_on_violation;
                if self.halted {
                    return;
                }
            }
            self.tick += 1;
        }
    }
}

/// The simulation.
pub struct ClusterSim {
    config: ClusterConfig,
    ctx: NodeCtx,
    /// The nodes, in `threads` contiguous partitions. All are home between
    /// epochs; during one, only the first is.
    parts: Vec<Partition>,
    pool: Pool,
    cluster: ClusterPhase,
}

impl ClusterSim {
    /// Builds the cluster: `nodes` endsystems, each a `shards`-way
    /// sharded DWCS fabric over `slots` slots with the scenario's class
    /// mix, plus per-node fault streams. No thread starts here. More than
    /// 32 slots per node is a `Config` error, returned before anything is
    /// built: slot sets are 32-bit words all the way down.
    pub fn new(config: ClusterConfig) -> Result<Self, Error> {
        if config.slots > MAX_SLOTS {
            return Err(Error::Config(format!(
                "{} slots per node exceed the 5-bit slot field",
                config.slots
            )));
        }
        let ctx = NodeCtx {
            scenario: Scenario::new(config.scenario, config.slots),
            seed: config.seed,
            sabotage: config.sabotage,
        };
        let threads = config.threads.clamp(1, config.nodes.max(1));
        let mut nodes = replay_nodes(&config, &ctx, 0, |_, _, _| {})?.into_iter();
        let parts = (0..threads)
            .map(|p| {
                let width = (p + 1) * config.nodes / threads - p * config.nodes / threads;
                Partition::new(nodes.by_ref().take(width).collect())
            })
            .collect();
        let cluster = ClusterPhase {
            engine: InvariantEngine::new(),
            tick: 0,
            transmitted_total: 0,
            egressed: 0,
            egress_queue: 0,
            egress_dropped: 0,
            halted: false,
        };
        Ok(Self {
            config,
            ctx,
            parts,
            pool: Pool::default(),
            cluster,
        })
    }

    /// The current virtual tick.
    pub fn tick(&self) -> u64 {
        self.cluster.tick
    }

    /// `true` once a violation halted the run.
    /// Tests-only: `crates/cluster/tests/violation_dump.rs` and `epoch_equivalence.rs` check
    /// halting on a violation with it.
    pub fn halted(&self) -> bool {
        self.cluster.halted
    }

    /// Node `i` (read access for tests and reporting).
    pub fn node(&self, i: usize) -> &SimNode {
        self.nodes()
            .nth(i)
            .expect("node index below the node count")
    }

    fn nodes(&self) -> impl Iterator<Item = &SimNode> {
        self.parts.iter().flat_map(|p| &p.nodes)
    }

    /// The run configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Violations detected so far.
    pub fn violations(&self) -> &[Violation] {
        self.cluster.engine.violations()
    }

    /// The flight dump of the first violation, if any: the last
    /// `FLIGHT_CAPACITY` events through it — a `Service` per winner in
    /// tick then node order, the `InvariantViolation` last — replayed from
    /// the config on each call, O(violation tick), stamped in virtual
    /// ticks (`tsc == cycle`, one tick per microsecond).
    pub fn dump(&self) -> Option<FlightDump> {
        let first = *self.violations().first()?;
        let mut flight = FlightRecorder::new(FLIGHT_CAPACITY);
        let mut record = |tick, node: u32, stage, detail, arg| {
            let track = node.min(u32::from(u16::MAX)) as u16;
            flight.record(StageEvent::control(tick, tick, track, stage, detail, arg));
        };
        let service = |tick, node: usize, (slot, _, met): Winner| {
            record(tick, node as u32, Stage::Service, met.into(), slot.into());
        };
        replay_nodes(&self.config, &self.ctx, first.tick + 1, service).expect(REBUILT);
        let (tick, node, code) = (first.tick, first.node, first.invariant as u8);
        record(tick, node, Stage::InvariantViolation, code, node);
        Some(FlightDump {
            ticks_per_us: 1.0,
            ..flight.dump(DumpReason::InvariantViolation, first.tick)
        })
    }

    /// Runs to the configured horizon (or the first violation).
    pub fn run(&mut self) -> RunReport {
        self.run_chunk(u64::MAX);
        self.report()
    }

    /// Runs at most `ticks` further ticks (the soak binary's wall-clock
    /// budget loop), returning how many actually ran.
    pub fn run_chunk(&mut self, ticks: u64) -> u64 {
        let start = self.cluster.tick;
        let target = start.saturating_add(ticks).min(self.config.ticks);
        while self.cluster.tick < target && !self.cluster.halted {
            self.epoch((target - self.cluster.tick).min(EPOCH_TICKS));
        }
        self.cluster.tick - start
    }

    /// One epoch of `len` ticks: node phase on every partition, the
    /// barrier, the cluster phase, and the rewind if it halted early.
    fn epoch(&mut self, len: u64) {
        let start = self.cluster.tick;
        let (own, sent) = self.parts.split_at_mut(1);
        self.pool.dispatch(sent, &self.ctx, start, len);
        own[0].node_phase(&self.ctx, start, len);
        self.pool.collect(sent);
        self.cluster.replay(&self.config, &self.parts, len);
        if self.cluster.halted && self.cluster.tick + 1 < start + len {
            self.rewind_nodes(self.cluster.tick);
        }
    }

    /// Puts every node back where tick-major order leaves it on a halt at
    /// `halt_tick` — stepped through that tick and no further — by
    /// replaying the node side alone: no egress, no checks.
    /// O(`halt_tick`), once, on a run that is over; the price of keeping
    /// no snapshot on the runs that are not.
    fn rewind_nodes(&mut self, halt_tick: u64) {
        let fresh = replay_nodes(&self.config, &self.ctx, halt_tick + 1, |_, _, _| {});
        let nodes = self.parts.iter_mut().flat_map(|p| &mut p.nodes);
        for (node, fresh) in nodes.zip(fresh.expect(REBUILT)) {
            *node = fresh;
        }
    }

    /// Builds the final report: merged ledger, protected-floor stats,
    /// per-node and cluster replay fingerprints, rendered violations.
    pub fn report(&self) -> RunReport {
        let mut ledger = LossLedger::new();
        let mut offered = 0u64;
        let mut transmitted = 0u64;
        let mut shard_crashes = 0u64;
        let mut protected_serviced = 0u64;
        let mut protected_met = 0u64;
        let mut node_fingerprints = Vec::with_capacity(self.config.nodes);
        let mut fingerprint = mix(self.config.seed);
        for node in self.nodes() {
            ledger.merge(node.ledger());
            offered += node.offered();
            transmitted += node.transmitted();
            shard_crashes += node.shard_crashes();
            for s in 0..node.slots() {
                if node.protection(s) >= crate::node::FULLY_PROTECTED {
                    if let Ok(c) = node.slot_counters(s) {
                        protected_serviced += c.serviced;
                        protected_met += c.met_deadlines;
                    }
                }
            }
            node_fingerprints.push(node.fingerprint());
            fingerprint = mix(fingerprint ^ node.fingerprint());
        }
        fingerprint = mix(fingerprint
            ^ mix(ledger.total())
            ^ mix(self.cluster.egressed)
            ^ mix(self.cluster.egress_dropped)
            ^ mix(transmitted));
        let repro = cli::repro_command(&self.config);
        let violations = self
            .violations()
            .iter()
            .map(|v| ViolationReport {
                node: i64::from(v.node as i32),
                tick: v.tick,
                invariant: v.invariant.name().to_string(),
                detail: v.invariant.describe().to_string(),
                repro: repro.clone(),
            })
            .collect();
        RunReport {
            ticks_run: self.cluster.tick,
            nodes: self.config.nodes as u64,
            offered,
            transmitted,
            egressed: self.cluster.egressed,
            egress_queued: self.cluster.egress_queue,
            egress_dropped: self.cluster.egress_dropped,
            ledger,
            protected_serviced,
            protected_met,
            shard_crashes,
            node_fingerprints,
            fingerprint,
            violations,
        }
    }
}

/// `config`'s nodes built afresh and stepped tick-major through ticks
/// `0..ticks`, each tick's winners handed to `winner` in node order as
/// `(tick, node, winner)`: the node side of a run — the one constructor,
/// for the first build (no ticks), the rewind and the flight dump.
fn replay_nodes(
    config: &ClusterConfig,
    ctx: &NodeCtx,
    ticks: u64,
    mut winner: impl FnMut(u64, usize, Winner),
) -> Result<Vec<SimNode>, Error> {
    let params = NodeParams {
        slots: config.slots,
        shards: config.shards,
        gate_rate_mtok: config.gate_rate_mtok,
        gate_burst_mtok: config.gate_burst_mtok,
        record_winners: config.record_winners,
    };
    let mut nodes = (0..config.nodes)
        .map(|id| {
            let injector = config.faults.injector_for(config.seed, id);
            SimNode::new(id, params, &ctx.scenario, config.seed, injector)
        })
        .collect::<Result<Vec<_>, _>>()?;
    for tick in 0..ticks {
        for (id, node) in nodes.iter_mut().enumerate() {
            if let Some(w) = ctx.advance(node, tick) {
                winner(tick, id, w);
            }
        }
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn config(nodes: usize, threads: usize) -> ClusterConfig {
        let scenario = ScenarioSpec::parse("steady:rate=1500").expect("spec");
        let mut config = ClusterConfig::new(0x5EED, scenario, nodes, 2, 8);
        config.ticks = 500;
        config.faults = FaultProfile::Light;
        config.threads = threads;
        config
    }

    #[test]
    fn more_than_32_slots_is_a_config_error() {
        for slots in [33, 64] {
            let mut c = config(2, 1);
            c.slots = slots;
            assert!(
                matches!(ClusterSim::new(c), Err(Error::Config(_))),
                "{slots}"
            );
        }
        let mut c = config(2, 1);
        c.slots = 32;
        assert!(ClusterSim::new(c).is_ok());
    }

    #[test]
    fn one_thread_never_spawns_one() {
        let mut sim = ClusterSim::new(config(4, 1)).expect("builds");
        sim.run();
        assert_eq!(sim.parts.len(), 1);
        assert!(sim.pool.workers.is_empty());
    }

    #[test]
    fn more_threads_than_nodes_clamps_to_one_node_each() {
        let mut wide = ClusterSim::new(config(3, 64)).expect("builds");
        assert_eq!(wide.parts.len(), 3);
        assert!(wide.parts.iter().all(|p| p.nodes.len() == 1));
        assert!(wide.pool.workers.is_empty(), "workers start with the run");
        let report = wide.run();
        assert_eq!(wide.pool.workers.len(), 2, "the sim thread keeps node 0");
        let mut narrow = ClusterSim::new(config(3, 1)).expect("builds");
        assert_eq!(report.fingerprint, narrow.run().fingerprint);
        assert_eq!(
            (0..3).map(|i| wide.node(i).id()).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    #[test]
    fn a_worker_panic_surfaces_on_the_sim_thread_with_its_message() {
        let mut sim = ClusterSim::new(config(4, 2)).expect("builds");
        assert_eq!(sim.run_chunk(64), 64, "a healthy pool first");
        sim.pool.poisoned = true;
        let panic = catch_unwind(AssertUnwindSafe(|| sim.run_chunk(64)))
            .expect_err("the hand-off must fail, not hang");
        let message = panic
            .downcast_ref::<String>()
            .expect("the worker's own payload");
        assert!(message.contains("poisoned epoch at tick 64"), "{message}");
        // Dropping the wreck must not hang or panic again.
        drop(sim);
    }

    #[test]
    fn dropping_the_sim_stops_spinning_and_sleeping_workers_alike() {
        // Straight after a chunk the workers are still inside their spin.
        let mut sim = ClusterSim::new(config(6, 3)).expect("builds");
        sim.run_chunk(64);
        assert_eq!(sim.pool.join_all(), 2, "both left, neither by panic");
        // A pause far beyond the spin bound finds them blocked in `recv`.
        // (Nothing observable says "asleep"; if a worker were still
        // spinning this checks the first case twice, never a wrong one.)
        let mut sim = ClusterSim::new(config(6, 3)).expect("builds");
        sim.run_chunk(64);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(sim.pool.join_all(), 2);
        // And `Drop` is that call.
        let mut sim = ClusterSim::new(config(6, 3)).expect("builds");
        sim.run_chunk(64);
        drop(sim);
    }

    /// Tick-major booking order — tick, then node — with more than one
    /// node failing per tick, which no `--sabotage` plan can arrange:
    /// nodes 1 and 3 (on different partitions at two threads) carry a
    /// phantom from tick 0.
    #[test]
    fn violations_are_booked_tick_then_node_at_any_epoch_length() {
        let run = |threads: usize, chunk: u64| {
            let mut c = config(4, threads);
            c.ticks = 70;
            c.halt_on_violation = false;
            let mut sim = ClusterSim::new(c).expect("builds");
            for id in [1, 3] {
                let part = sim
                    .parts
                    .iter_mut()
                    .find(|p| p.nodes.iter().any(|n| n.id() == id));
                let part = part.expect("every node has a partition");
                let node = part.nodes.iter_mut().find(|n| n.id() == id);
                node.expect("found above").sabotage_phantom();
            }
            while sim.run_chunk(chunk) > 0 {}
            sim.violations().to_vec()
        };
        let oracle = run(1, 1);
        assert_eq!(oracle.len(), 140);
        for (t, pair) in oracle.chunks(2).enumerate() {
            assert_eq!((pair[0].tick, pair[0].node), (t as u64, 1));
            assert_eq!((pair[1].tick, pair[1].node), (t as u64, 3));
        }
        for (threads, chunk) in [(1, 32), (1, 7), (2, 32), (4, 1000)] {
            assert_eq!(
                run(threads, chunk),
                oracle,
                "threads={threads} chunk={chunk}"
            );
        }
    }
}
