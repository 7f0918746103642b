//! The cluster simulation: many endsystems + a shared linecard on one
//! virtual clock, with continuous invariant checking.
//!
//! ## Virtual-clock model
//!
//! One tick = one fabric packet-time, cluster-wide. Each tick has two
//! phases with a barrier between them:
//!
//! 1. **node phase** (parallelizable) — every [`SimNode`] independently
//!    samples faults, draws arrivals, and runs one decision cycle. Nodes
//!    share no mutable state and all randomness is keyed by
//!    `(seed, node, tick)`, so any thread count produces bit-identical
//!    results; `threads` is purely a wall-clock knob.
//! 2. **cluster phase** (sequential, node order) — winners feed the
//!    bounded egress aggregator (the "linecard": drains
//!    `egress_per_tick`, drops above `egress_queue_cap`, every drop
//!    counted), flight-recorder events are recorded (into a recorder
//!    this phase alone owns — no lock — under one timestamp per tick),
//!    the sabotage plan fires, and the [`InvariantEngine`] sweeps every
//!    node plus the egress identity.
//!
//! A violation records an [`ss_telemetry::Stage::InvariantViolation`]
//! control event, auto-dumps the flight recorder with
//! [`ss_telemetry::DumpReason::InvariantViolation`], and renders a
//! one-line repro command (`crate::cli::repro_command`) that replays the
//! exact `(seed, scenario, topology, faults, sabotage)` tuple.

use crate::cli;
use crate::faults::FaultProfile;
use crate::invariant::{EgressView, Invariant, InvariantEngine, Violation};
use crate::node::{NodeParams, SimNode, Winner};
use crate::report::{RunReport, ViolationReport};
use crate::scenario::{Scenario, ScenarioSpec};
use serde::Serialize;
use ss_faults::rng::mix;
use ss_overload::LossLedger;
use ss_telemetry::clock::now_tsc;
use ss_telemetry::{DumpReason, FlightDump, FlightRecorder, Stage, StageEvent};
use ss_types::Error;

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
/// the capture/flight knobs never do.
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
    /// Flight-recorder ring capacity (events).
    pub flight_capacity: usize,
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
            flight_capacity: 4_096,
            halt_on_violation: true,
        }
    }
}

/// The simulation.
pub struct ClusterSim {
    config: ClusterConfig,
    scenario: Scenario,
    nodes: Vec<SimNode>,
    engine: InvariantEngine,
    /// Single-owner: only the sequential cluster phase records or dumps.
    flight: FlightRecorder,
    winner_scratch: Vec<Option<Winner>>,
    tick: u64,
    /// Winners handed to the linecard so far.
    transmitted_total: u64,
    /// Winners forwarded onto the wire.
    egressed: u64,
    /// Winners waiting in the bounded egress queue.
    egress_queue: u64,
    /// Winners dropped at the full egress queue.
    egress_dropped: u64,
    /// The auto-dump taken at the first violation.
    dump: Option<FlightDump>,
    halted: bool,
}

impl ClusterSim {
    /// Builds the cluster: `nodes` endsystems, each a `shards`-way
    /// sharded DWCS fabric over `slots` slots with the scenario's class
    /// mix, plus per-node fault streams.
    pub fn new(config: ClusterConfig) -> Result<Self, Error> {
        let scenario = Scenario::new(config.scenario, config.slots);
        let params = NodeParams {
            slots: config.slots,
            shards: config.shards,
            gate_rate_mtok: config.gate_rate_mtok,
            gate_burst_mtok: config.gate_burst_mtok,
            record_winners: config.record_winners,
        };
        let mut nodes = Vec::with_capacity(config.nodes);
        for id in 0..config.nodes {
            let injector = config.faults.injector_for(config.seed, id);
            nodes.push(SimNode::new(id, params, &scenario, config.seed, injector)?);
        }
        let flight = FlightRecorder::new(config.flight_capacity.max(16));
        let winner_scratch = vec![None; config.nodes];
        Ok(Self {
            config,
            scenario,
            nodes,
            engine: InvariantEngine::new(),
            flight,
            winner_scratch,
            tick: 0,
            transmitted_total: 0,
            egressed: 0,
            egress_queue: 0,
            egress_dropped: 0,
            dump: None,
            halted: false,
        })
    }

    /// The current virtual tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// `true` once a violation halted the run.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Node `i` (read access for tests and reporting).
    pub fn node(&self, i: usize) -> &SimNode {
        &self.nodes[i]
    }

    /// The run configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Violations detected so far.
    pub fn violations(&self) -> &[Violation] {
        self.engine.violations()
    }

    /// The flight dump taken at the first violation, if any.
    pub fn dump(&self) -> Option<&FlightDump> {
        self.dump.as_ref()
    }

    /// Advances one virtual tick (no-op once halted).
    pub fn step_tick(&mut self) {
        if self.halted || self.tick >= self.config.ticks {
            return;
        }
        let tick = self.tick;
        self.step_nodes(tick);

        // Sequential cluster phase. Sabotage fires before the sweep so
        // the forged state is caught on the tick it was planted.
        if let Some(sab) = self.config.sabotage {
            if sab.tick == tick && sab.node < self.nodes.len() {
                match sab.kind {
                    SabotageKind::Phantom => self.nodes[sab.node].sabotage_phantom(),
                    SabotageKind::ShedProtected => self.nodes[sab.node].sabotage_protected_shed(),
                }
            }
        }

        // One timestamp read covers the whole cluster phase: ring order,
        // not the stamp, is the tiebreak among a tick's events.
        let tsc = now_tsc();

        // Linecard aggregation in node order: enqueue → drain → bound.
        for i in 0..self.nodes.len() {
            if let Some((slot, _, met)) = self.winner_scratch[i] {
                self.transmitted_total += 1;
                self.egress_queue += 1;
                self.flight.record(StageEvent::control(
                    tsc,
                    tick,
                    i as u16,
                    Stage::Service,
                    u8::from(met),
                    u32::from(slot),
                ));
            }
        }
        let drained = self.egress_queue.min(self.config.egress_per_tick);
        self.egressed += drained;
        self.egress_queue -= drained;
        if self.egress_queue > self.config.egress_queue_cap {
            let overflow = self.egress_queue - self.config.egress_queue_cap;
            self.egress_dropped += overflow;
            self.egress_queue = self.config.egress_queue_cap;
        }

        // Invariant sweep: every node, then the egress identity.
        for i in 0..self.nodes.len() {
            if let Some(inv) = self.engine.check_node(&self.nodes[i], tick) {
                self.on_violation(inv, i as u32, tick, tsc);
                if self.halted {
                    return;
                }
            }
        }
        let view = EgressView {
            transmitted: self.transmitted_total,
            egressed: self.egressed,
            queued: self.egress_queue,
            dropped: self.egress_dropped,
        };
        if let Some(inv) = self.engine.check_egress(view, tick) {
            self.on_violation(inv, u32::MAX, tick, tsc);
            if self.halted {
                return;
            }
        }
        self.tick += 1;
    }

    /// Runs to the configured horizon (or the first violation).
    pub fn run(&mut self) -> RunReport {
        while self.tick < self.config.ticks && !self.halted {
            self.step_tick();
        }
        self.report()
    }

    /// Runs at most `ticks` further ticks (the soak binary's wall-clock
    /// budget loop), returning how many actually ran.
    pub fn run_chunk(&mut self, ticks: u64) -> u64 {
        let start = self.tick;
        let target = (start + ticks).min(self.config.ticks);
        while self.tick < target && !self.halted {
            self.step_tick();
        }
        self.tick - start
    }

    /// The node phase: possibly parallel, always bit-identical.
    fn step_nodes(&mut self, tick: u64) {
        let scenario = &self.scenario;
        let seed = self.config.seed;
        let threads = self.config.threads.max(1).min(self.nodes.len().max(1));
        if threads <= 1 {
            for (node, w) in self.nodes.iter_mut().zip(self.winner_scratch.iter_mut()) {
                *w = node.step(tick, scenario, seed);
            }
            return;
        }
        let chunk = self.nodes.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (nodes, winners) in self
                .nodes
                .chunks_mut(chunk)
                .zip(self.winner_scratch.chunks_mut(chunk))
            {
                scope.spawn(move || {
                    for (node, w) in nodes.iter_mut().zip(winners.iter_mut()) {
                        *w = node.step(tick, scenario, seed);
                    }
                });
            }
        });
    }

    /// Violation path: control event → auto-dump (first violation only)
    /// → halt if configured.
    fn on_violation(&mut self, invariant: Invariant, node: u32, tick: u64, tsc: u64) {
        self.flight.record(StageEvent::control(
            tsc,
            tick,
            node.min(u32::from(u16::MAX)) as u16,
            Stage::InvariantViolation,
            invariant as u8,
            node,
        ));
        if self.dump.is_none() {
            self.dump = Some(self.flight.dump(DumpReason::InvariantViolation, tick));
        }
        if self.config.halt_on_violation {
            self.halted = true;
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
        let mut node_fingerprints = Vec::with_capacity(self.nodes.len());
        let mut fingerprint = mix(self.config.seed);
        for node in &self.nodes {
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
            ^ mix(self.egressed)
            ^ mix(self.egress_dropped)
            ^ mix(transmitted));
        let repro = cli::repro_command(&self.config);
        let violations = self
            .engine
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
            ticks_run: self.tick,
            nodes: self.nodes.len() as u64,
            offered,
            transmitted,
            egressed: self.egressed,
            egress_queued: self.egress_queue,
            egress_dropped: self.egress_dropped,
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
