//! The gated benchmark of the ShareStreams workspace.
//!
//! One command builds the stack through public APIs only, runs one of
//! four workloads for a fixed time, checks the outputs, and prints every
//! metric by name with its unit. `--trace 0` prints the end-to-end
//! metrics ([`metrics::END_TO_END`]) from an untraced run; `--trace 1`
//! prints the per-layer metrics ([`metrics::PER_LAYER`]) from a run that
//! records spans around the calls into each layer. See the README for
//! why each workload and metric exists and how to compare two commits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster_soak;
pub mod compare;
pub mod fabric_block;
pub mod harness;
pub mod loopback;
pub mod metrics;
pub mod span;
pub mod stats;

use harness::{Budget, Timed};
use metrics::{Metric, Metrics, RunResult, END_TO_END};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop SUBMITs over 127.0.0.1 through gate, ring, fabric and
    /// transmitter; everything admitted.
    LoopbackPipeline,
    /// The same path refusing: admission rejects, RED sheds, pressure
    /// acks, client holdback.
    LoopbackOverload,
    /// A 32-slot block (BA) fabric in process, steady-state refill.
    FabricBlock,
    /// The cluster simulator under light faults, one thread.
    ClusterSoak,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LoopbackPipeline,
        Workload::LoopbackOverload,
        Workload::FabricBlock,
        Workload::ClusterSoak,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LoopbackPipeline => "loopback_pipeline",
            Workload::LoopbackOverload => "loopback_overload",
            Workload::FabricBlock => "fabric_block",
            Workload::ClusterSoak => "cluster_soak",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How to run one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Shapes the generated inputs only (slot order, tags, scenario
    /// draws); the program receives the inputs, never the seed's meaning.
    pub seed: u64,
    /// How long to measure.
    pub budget: Budget,
    /// Record spans and report the per-layer table.
    pub trace: bool,
    /// Divides every slice and warm-up size (1 for real runs; the tests
    /// use 1000).
    pub scale: u64,
}

impl RunOptions {
    pub(crate) fn scaled(&self, ops: u64) -> u64 {
        (ops / self.scale.max(1)).max(1)
    }
}

/// Runs `workload` and returns what it measured and whether its outputs
/// were correct.
pub fn run(workload: Workload, opts: RunOptions) -> RunResult {
    match workload {
        Workload::LoopbackPipeline => loopback::run(false, opts),
        Workload::LoopbackOverload => loopback::run(true, opts),
        Workload::FabricBlock => fabric_block::run(opts),
        Workload::ClusterSoak => cluster_soak::run(opts),
    }
}

/// Output checks of one run: every failed check is a line, and some
/// also fail ops.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    failures: Vec<String>,
    failed_ops: u64,
}

impl Checks {
    /// Records `what` as failed unless `ok`.
    pub(crate) fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts `n` failed ops, with a line saying why when `n > 0`.
    pub(crate) fn fail_ops(&mut self, n: u64, why: &str) {
        if n > 0 {
            self.failed_ops += n;
            self.failures.push(format!("{n} {why}"));
        }
    }

    pub(crate) fn failed_share(&self, attempted: u64) -> f64 {
        self.failed_ops.min(attempted) as f64 / attempted.max(1) as f64
    }

    pub(crate) fn into_result(
        self,
        attempted: u64,
        metrics: Vec<Metric>,
        notes: Vec<String>,
        digest: u64,
    ) -> RunResult {
        RunResult {
            correct: self.failures.is_empty(),
            attempted: attempted.max(1),
            failed: self.failed_ops.min(attempted),
            metrics,
            failures: self.failures,
            notes,
            digest,
        }
    }
}

/// The end-to-end table from one untraced pass.
pub(crate) fn end_to_end(
    setup_s: f64,
    t: &Timed,
    delivered_share: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let column =
        |value: fn(&harness::Slice) -> f64| -> Vec<f64> { t.slices.iter().map(value).collect() };
    for (name, values) in [
        ("packets/s", column(|s| s.rate)),
        ("op p50 ns", column(|s| s.p50_ns)),
    ] {
        let s = stats::summarize(&values).expect("a pass has at least one slice");
        notes.push(format!(
            "{name} over {} slices: q1 {:.1}  median {:.1}  q3 {:.1}",
            s.n, s.q1, s.median, s.q3
        ));
    }
    notes.push(format!(
        "whole pass: {:.0} packets/s, op p50 {:.1} ns over {} ops, cpu {:.1} ns/pkt",
        t.overall_rate(),
        t.hist.percentile(0.5).unwrap_or(0.0),
        t.hist.count(),
        t.proc_end.cpu_s_since(&t.proc_start) * 1e9 / t.packets.max(1) as f64,
    ));
    let slices = t.slices.len() as u64;
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", setup_s, harness::SETUPS as u64);
    m.set("packets_per_s", t.best_rate(), slices);
    m.set("op_latency_us_p50", t.best_p50_ns() / 1e3, slices);
    m.set("delivered_share", delivered_share, t.packets);
    m.set("cpu_ns_per_pkt", t.best_cpu_ns_per_pkt(), slices);
    m.set("peak_rss_mb", harness::peak_rss_mb(), 1);
    m.finish()
}

/// What every traced run reports alike — the failed share, the process
/// counters of the traced pass `t`, and what tracing cost against the
/// `untraced` pass — and 0 for every layer the workload did not report.
pub(crate) fn finish_per_layer(
    mut m: Metrics,
    checks: &Checks,
    untraced: &Timed,
    t: &Timed,
) -> Vec<Metric> {
    m.set("failed_share", checks.failed_share(t.ops), t.ops);
    let switches = t
        .proc_end
        .ctx_switches
        .saturating_sub(t.proc_start.ctx_switches);
    m.set(
        "process.ctx_switches_per_kpkt",
        switches as f64 * 1e3 / t.packets.max(1) as f64,
        switches,
    );
    let cpu = t.proc_end.cpu_s_since(&t.proc_start);
    let sys = t.proc_end.sys_s - t.proc_start.sys_s;
    m.set(
        "process.sys_share",
        if cpu > 0.0 { sys / cpu } else { 0.0 },
        t.packets,
    );
    let overhead = match untraced.best_rate() {
        0.0 => 0.0,
        base => 1.0 - t.best_rate() / base,
    };
    m.set(
        "harness.trace_overhead_share",
        overhead,
        t.slices.len() as u64,
    );
    m.zero_rest();
    m.finish()
}

/// Writes the full spans of a traced run as Chrome-trace JSON under the
/// build directory and returns the path (or why it could not be written
/// — a trace file is a by-product, not an output the run is judged on).
pub(crate) fn write_trace(workload: Workload, seed: u64, recorders: &[&span::Recorder]) -> String {
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("benchmark");
    let path = dir.join(format!("{}-seed{seed}.trace.json", workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, span::chrome_trace(recorders)));
    match written {
        Ok(()) => format!("chrome trace: {}", path.display()),
        Err(e) => format!("chrome trace not written ({e})"),
    }
}
