//! `cluster_soak`: the soak lab's own speed.
//!
//! `ClusterSim` at `steady:rate=2000` (2× overload), 4 nodes × 2 inline
//! shards × 8 slots, fault profile `light`, one thread, driven with
//! `run_chunk(32)`. The horizon crosses the 16-bit time wrap every 2¹⁶
//! ticks, continuously. The work is spread over `cluster.node` (gate,
//! inline shard merge, fabric), `cluster.invariant` and
//! `cluster.scenario`; there are no sockets and no threads, so nothing
//! done to the ingress path may move it. `threads = 1` because the
//! scoped-thread node phase spawns threads every tick and collapses on
//! small hosts; that collapse is a per-layer number
//! (`cluster.sim.parallel2_*`), not a gated one.

use crate::fabric_block::stream_state;
use crate::harness::{interleave, measure, setup_best, Budget, Rig, Timed};
use crate::metrics::{Metrics, RunResult, PER_LAYER};
use crate::span::{Kind, Recorder};
use crate::stats::{self, Hist};
use crate::{end_to_end, finish_per_layer, write_trace, Checks, RunOptions};
use ss_cluster::{
    ClusterConfig, ClusterSim, FaultProfile, InvariantEngine, NodeParams, RunReport, Scenario,
    ScenarioSpec, SimNode,
};
use ss_core::{FabricConfig, FabricConfigKind};
use ss_sharded::ShardedScheduler;
use ss_types::Wrap16;
use std::time::Instant;

/// Ticks per op (`run_chunk(32)`).
pub const CHUNK_TICKS: u64 = 32;
/// Ops per timed slice (≈ 9 ms on the 2-core build host).
pub const OPS_PER_SLICE: u64 = 250;
/// Ops of the untimed warm-up slice (part of `setup_s`).
pub const WARMUP_OPS: u64 = 40;

const NODES: usize = 4;
const SHARDS: usize = 2;
const SLOTS: usize = 8;
const CHUNK: &str = "cluster.sim.run_chunk";
const SAMPLE: &str = "cluster.scenario.sample_arrivals";
const STEP: &str = "cluster.node.step";
const CHECK: &str = "cluster.invariant.check_node";
const SHARD_DECIDE: &str = "sharded.decision_cycle";

fn config(seed: u64, threads: usize) -> ClusterConfig {
    let mut c = ClusterConfig::new(seed, ScenarioSpec::steady(2000), NODES, SHARDS, SLOTS);
    c.faults = FaultProfile::Light;
    c.threads = threads;
    // No horizon of its own: the slice loop decides when the run ends.
    c.ticks = 1 << 62;
    c
}

struct SimRig {
    sim: ClusterSim,
    rec: Recorder,
    chunk: Kind,
    ops: u64,
    /// Ops that ran fewer than 32 ticks (the sim halted on a violation).
    short_ops: u64,
}

impl SimRig {
    fn new(opts: &RunOptions, threads: usize, mut rec: Recorder) -> Self {
        let sim = ClusterSim::new(config(opts.seed, threads))
            .expect("4 nodes x 2 shards x 8 slots is a valid topology");
        let chunk = rec.kind(CHUNK);
        let mut rig = Self {
            sim,
            rec,
            chunk,
            ops: 0,
            short_ops: 0,
        };
        let mut scratch = Hist::new();
        for _ in 0..opts.scaled(WARMUP_OPS) {
            rig.op(&mut scratch);
        }
        rig
    }

    fn check(&self, checks: &mut Checks) -> RunReport {
        let report = self.sim.report();
        checks.fail_ops(
            report.violations.len() as u64 + self.short_ops,
            "invariant violations or ops cut short by a halt",
        );
        for v in &report.violations {
            checks.require(false, || {
                format!("{} at node {} tick {}", v.invariant, v.node, v.tick)
            });
        }
        checks.require(report.ticks_run == self.ops * CHUNK_TICKS, || {
            format!("{} ticks from {} ops", report.ticks_run, self.ops)
        });
        report
    }
}

impl Rig for SimRig {
    #[inline]
    fn op(&mut self, hist: &mut Hist) {
        self.rec.begin_op(self.ops);
        self.ops += 1;
        let t = Instant::now();
        self.rec.enter(self.chunk);
        let ran = self.sim.run_chunk(CHUNK_TICKS);
        self.rec.exit(ran);
        hist.record(t.elapsed().as_nanos() as u64);
        if ran != CHUNK_TICKS {
            self.short_ops += 1;
        }
    }

    fn packets(&self) -> u64 {
        (0..NODES).map(|i| self.sim.node(i).transmitted()).sum()
    }
}

/// The sim's tick, taken apart: the benchmark drives the scenario, the
/// nodes and the invariant engine itself for `ticks` ticks, one span per
/// layer per tick, and returns the node fingerprints so the caller can
/// check it did the work the sim does.
fn decompose(seed: u64, ticks: u64, rec: &mut Recorder) -> Vec<u64> {
    let cfg = config(seed, 1);
    let scenario = Scenario::new(cfg.scenario, SLOTS);
    let params = NodeParams {
        slots: SLOTS,
        shards: SHARDS,
        gate_rate_mtok: cfg.gate_rate_mtok,
        gate_burst_mtok: cfg.gate_burst_mtok,
        record_winners: false,
    };
    let mut nodes: Vec<SimNode> = (0..NODES)
        .map(|id| {
            let injector = cfg.faults.injector_for(seed, id);
            SimNode::new(id, params, &scenario, seed, injector)
                .expect("the topology the sim itself accepted")
        })
        .collect();
    let mut engine = InvariantEngine::new();
    let (sample, step, check) = (rec.kind(SAMPLE), rec.kind(STEP), rec.kind(CHECK));
    let mut counts = [0u32; SLOTS];
    for tick in 0..ticks {
        rec.begin_op(tick / CHUNK_TICKS);
        // `step` samples its own arrivals; this span prices that call.
        rec.enter(sample);
        for id in 0..NODES {
            std::hint::black_box(scenario.sample_arrivals(seed, id, tick, &mut counts));
        }
        rec.exit(1);
        rec.enter(step);
        for node in &mut nodes {
            std::hint::black_box(node.step(tick, &scenario, seed));
        }
        rec.exit(1);
        rec.enter(check);
        for node in &nodes {
            std::hint::black_box(engine.check_node(node, tick));
        }
        rec.exit(1);
    }
    nodes.iter().map(SimNode::fingerprint).collect()
}

/// An inline K-shard scheduler over 32 slots, one arrival per slot and
/// 32 merged decisions per op.
struct ShardRig {
    sched: ShardedScheduler,
    tag: u16,
    rec: Recorder,
    decide: Kind,
    idle: u64,
}

impl ShardRig {
    fn new(shards: usize) -> Self {
        let mut rec = Recorder::new(Instant::now(), 3, true);
        let decide = rec.kind(SHARD_DECIDE);
        Self {
            sched: loaded_sharded(shards),
            tag: 0,
            rec,
            decide,
            idle: 0,
        }
    }

    fn op(&mut self) {
        for s in 0..32 {
            self.tag = self.tag.wrapping_add(1);
            if self.sched.push_arrival(s, Wrap16(self.tag)).is_err() {
                self.idle += 1;
            }
        }
        self.rec.enter(self.decide);
        for _ in 0..32 {
            if self.sched.decision_cycle().is_none() {
                self.idle += 1;
            }
        }
        self.rec.exit(32);
    }
}

fn loaded_sharded(shards: usize) -> ShardedScheduler {
    let mut sched =
        ShardedScheduler::new(FabricConfig::dwcs(32, FabricConfigKind::WinnerOnly), shards)
            .expect("1, 2 and 4 divide 32 slots");
    for s in 0..32 {
        sched
            .load_stream(s, stream_state(s, 32), (s + 1) as u64)
            .expect("each slot is loaded once");
    }
    sched
}

/// Merged packets per second through the threaded frontend at `shards`
/// shards: median of five runs of `cycles` cycles.
fn threaded_pkts_per_s(shards: usize, cycles: u64) -> f64 {
    let mut rates = Vec::with_capacity(5);
    for _ in 0..5 {
        let mut sched = loaded_sharded(shards);
        let per_slot = cycles * shards as u64 / 32 + 2;
        for s in 0..32 {
            for q in 0..per_slot {
                sched
                    .push_arrival(s, Wrap16::from_wide(q))
                    .expect("slot index below 32");
            }
        }
        let mut threaded = sched.into_threaded(4096);
        let t = Instant::now();
        let report = threaded.run_cycles(cycles);
        let dt = t.elapsed().as_secs_f64();
        threaded.join();
        rates.push(report.packets.len() as f64 / dt);
    }
    stats::percentile(&mut rates, 0.5).expect("five runs")
}

fn delivered_share(report: &RunReport) -> f64 {
    report.transmitted as f64 / report.offered.max(1) as f64
}

/// Runs the workload.
pub fn run(opts: RunOptions) -> RunResult {
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let ops_per_slice = opts.scaled(OPS_PER_SLICE);
    if !opts.trace {
        let (mut rig, setup_s) = setup_best(|| SimRig::new(&opts, 1, Recorder::disabled()), drop);
        let t = measure(&mut rig, ops_per_slice, opts.budget);
        let report = rig.check(&mut checks);
        notes.push(format!(
            "{} ticks, fingerprint {:#018x}",
            report.ticks_run, report.fingerprint
        ));
        let metrics = end_to_end(setup_s, &t, delivered_share(&report), &mut notes);
        return checks.into_result(t.ops, metrics, notes, report.fingerprint);
    }

    // Traced run. The untraced pass fixes the tick count; the traced sim
    // and the taken-apart tick then run exactly that many ticks, so all
    // three must agree on every fingerprint.
    let epoch = Instant::now();
    let mut plain = SimRig::new(&opts, 1, Recorder::disabled());
    let untraced = measure(&mut plain, ops_per_slice, opts.budget.share(0.2));
    let reference = plain.check(&mut checks);
    let mut rig = SimRig::new(&opts, 1, Recorder::new(epoch, 1, true));
    let same_work = Budget::Slices(untraced.slices.len() as u32);
    let t: Timed = measure(&mut rig, ops_per_slice, same_work);
    let report = rig.check(&mut checks);
    checks.require(report.fingerprint == reference.fingerprint, || {
        format!(
            "fingerprint: traced {:#x} != untraced {:#x}",
            report.fingerprint, reference.fingerprint
        )
    });
    let mut parts = Recorder::new(epoch, 2, true);
    let node_fingerprints = decompose(opts.seed, report.ticks_run, &mut parts);
    checks.require(node_fingerprints == report.node_fingerprints, || {
        "the taken-apart tick did not reproduce the sim's node fingerprints".to_string()
    });

    let mut two = SimRig::new(&opts, 2, Recorder::disabled());
    let parallel = measure(&mut two, opts.scaled(64), opts.budget.share(0.1));
    two.check(&mut checks);

    let mut inline = [ShardRig::new(1), ShardRig::new(2), ShardRig::new(4)];
    let [k1, k2, k4] = &mut inline;
    let slice = |rig: &mut ShardRig| {
        for _ in 0..opts.scaled(20_000) {
            rig.op();
        }
    };
    interleave(
        opts.budget.share(0.15),
        &mut [&mut || slice(k1), &mut || slice(k2), &mut || slice(k4)],
    );
    let idle: u64 = inline.iter().map(|r| r.idle).sum();
    checks.fail_ops(
        idle,
        "idle or refused cycles in a backlogged sharded scheduler",
    );
    let threaded_cycles = opts.scaled(200_000).max(64);
    let (threaded1, threaded2) = (
        threaded_pkts_per_s(1, threaded_cycles),
        threaded_pkts_per_s(2, threaded_cycles),
    );

    let mut m = Metrics::new(PER_LAYER);
    let per_tick = |r: &Recorder, name: &str| {
        r.total(name).total_ns as f64 / r.total(name).items.max(1) as f64
    };
    let (chunk, sample, step, check) = (
        per_tick(&rig.rec, CHUNK),
        per_tick(&parts, SAMPLE),
        per_tick(&parts, STEP),
        per_tick(&parts, CHECK),
    );
    let ticks = report.ticks_run;
    m.set("cluster.scenario.sample_ns_per_tick", sample, ticks);
    m.set("cluster.node.step_ns_per_tick", step - sample, ticks);
    m.set("cluster.invariant.check_ns_per_tick", check, ticks);
    m.set("cluster.sim.self_ns_per_tick", chunk - step - check, ticks);
    m.set(
        "cluster.sim.parallel2_decisions_per_s",
        parallel.best_rate(),
        parallel.slices.len() as u64,
    );
    m.set(
        "cluster.sim.parallel2_speedup",
        parallel.best_rate() / untraced.best_rate().max(f64::MIN_POSITIVE),
        parallel.slices.len() as u64,
    );
    m.set(
        "cluster.sim.loss_share",
        report.ledger.total() as f64 / report.offered.max(1) as f64,
        report.offered,
    );
    m.set(
        "cluster.sim.protected_met_share",
        report.protected_met as f64 / report.protected_serviced.max(1) as f64,
        report.protected_serviced,
    );
    m.set("cluster.sim.violations", report.violations.len() as f64, 0);
    m.set(
        "cluster.sim.fingerprint",
        (report.fingerprint & 0xFFFF_FFFF_FFFF) as f64,
        0,
    );
    for (name, rig) in [
        "sharded.inline_ns_per_decision.k1",
        "sharded.inline_ns_per_decision.k2",
        "sharded.inline_ns_per_decision.k4",
    ]
    .into_iter()
    .zip(&inline)
    {
        let total = rig.rec.total(SHARD_DECIDE);
        m.set(name, total.self_ns_per_item(), total.calls);
    }
    m.set("sharded.threaded_pkts_per_s.k2", threaded2, 5);
    m.set(
        "sharded.threaded_efficiency.k2",
        threaded2 / threaded1.max(f64::MIN_POSITIVE) / 2.0,
        5,
    );
    notes.push(format!(
        "{ticks} ticks, fingerprint {:#018x}, run_chunk {chunk:.1} ns/tick",
        report.fingerprint
    ));
    notes.push(write_trace(
        crate::Workload::ClusterSoak,
        opts.seed,
        &[&rig.rec, &parts],
    ));
    let metrics = finish_per_layer(m, &checks, &untraced, &t);
    checks.into_result(t.ops, metrics, notes, report.fingerprint)
}
