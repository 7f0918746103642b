//! Telemetry overhead: off vs detached vs attached decision cycles at 32
//! slots, all in one binary.
//!
//! Instrumentation is the fabric's type parameter, so every column is the
//! same `Fabric` code under a different instantiation or attachment:
//!
//! * **off** — `Fabric<()>`, the default: every hook is an empty body on a
//!   zero-sized state, so this is the uninstrumented decision core;
//! * **detached** — `Fabric<Traced>` with nothing attached: the hooks are
//!   compiled in and each costs a branch;
//! * **attached** — `Fabric<Traced>` after `attach_*`: the real per-cycle
//!   work, i.e. local delta accumulation, the win-gap histogram, QoS
//!   latency tracking and the amortized every-4096-decisions flush into
//!   the striped registry. The traced row attaches a lifecycle-span track
//!   instead, so every decision win also stamps a timestamped `StageEvent`
//!   into the per-thread span ring — that path gets its own, looser gate
//!   (≤8% vs ≤5%).
//!
//! The gates judge detached → attached, as they always have. The off →
//! detached cost (`detached_cost_pct`) is reported and not gated: it is
//! why the default instantiation is `()` and not a detached `Traced`.
//!
//! Measurement is drift-hardened: the three columns run in rotating ~1 ms
//! slices (so background load lands on all of them), the overhead of each
//! pass is a paired ratio, and the reported figure is the median across
//! passes.
//!
//! Emits `BENCH_telemetry_overhead.json` at the workspace root: decisions/s
//! off, detached and attached for WR and BA (scalar and batched) at 32
//! slots, plus the overhead gates. The gates only fail the process under
//! `SS_BENCH_ENFORCE=1` — untuned CI containers report without gating.
#![allow(clippy::unwrap_used)]

use serde::Serialize;
use ss_bench::banner;
use ss_core::{
    Fabric, FabricConfig, FabricConfigKind, LatePolicy, ScheduledPacket, StreamState, Telemetry,
    Traced,
};
use ss_types::{WindowConstraint, Wrap16};
use std::hint::black_box;
use std::time::Instant;

const SLOTS: usize = 32;
/// Cycles per interleaved slice (sub-millisecond): small enough that a
/// background-load burst lands on adjacent detached/attached slices
/// roughly equally instead of contaminating one column.
const CHUNK: u64 = 1_000;
/// Slices per pass per column.
const SLICES: u64 = 40;
/// Total measured cycles per pass per column.
const CYCLES: u64 = CHUNK * SLICES;
/// Independent passes; the reported overhead is the median across passes
/// (single-CPU CI containers show ±5% per-pass tails from OS housekeeping,
/// so the median needs enough samples to shrug off a few bad passes).
const REPS: usize = 11;

/// What instrumentation the measured column attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    /// `Traced`, nothing attached — the baseline column.
    Detached,
    /// Metric registry attached (`attach_telemetry`).
    Attached,
    /// Lifecycle-span track only (`attach_spans`): every win records a
    /// timestamped `StageEvent`. Metrics stay detached so the row
    /// isolates tracing cost instead of re-measuring the attached rows.
    Traced,
}

fn stream_state() -> StreamState {
    StreamState {
        request_period: SLOTS as u64,
        original_window: WindowConstraint::new(1, 2),
        static_prio: 0,
        late_policy: LatePolicy::ServeLate,
    }
}

/// Builds a fully backlogged fabric instrumented by `T` with enough queued
/// arrivals to cover one pass.
fn build<T: Telemetry>(kind: FabricConfigKind, batched: bool) -> Fabric<T> {
    let mut f = Fabric::with_telemetry(FabricConfig::dwcs(SLOTS, kind)).unwrap();
    f.set_batched(batched);
    for s in 0..SLOTS {
        f.load_stream(s, stream_state(), (s + 1) as u64).unwrap();
        for q in 0..CYCLES {
            f.push_arrival(s, Wrap16::from_wide(q)).unwrap();
        }
    }
    f
}

/// A `Traced` fabric with `level` attached before the measured spans.
fn build_traced(kind: FabricConfigKind, batched: bool, level: Level) -> Fabric<Traced> {
    let mut f = build(kind, batched);
    if level == Level::Attached {
        // The registry handle outlives the fabric's Attached state (Arc
        // inside); a per-fabric registry keeps the columns independent.
        let registry = ss_telemetry::Registry::new();
        f.attach_telemetry(&registry, 0);
    }
    if level == Level::Traced {
        // The span shared state is Arc'd into the track; the recorder
        // handle itself need not outlive the attach.
        let spans = ss_telemetry::SpanRecorder::new(4096);
        f.attach_spans(&spans, 0, "bench");
    }
    f
}

/// Seconds to run one `CHUNK`-cycle slice on `f`.
fn slice_seconds<T: Telemetry>(f: &mut Fabric<T>, sink: &mut Vec<ScheduledPacket>) -> f64 {
    let start = Instant::now();
    let cycles = f.decision_cycles(CHUNK, sink);
    let elapsed = start.elapsed().as_secs_f64();
    black_box(cycles);
    elapsed
}

/// One pass: off, detached and instrumented fabrics measured in rotating
/// ~1 ms slices, so machine-load drift lands on every column instead of
/// skewing the ratios. Returns (off, detached, instrumented) decisions/s.
fn measure_pass(kind: FabricConfigKind, batched: bool, level: Level) -> [f64; 3] {
    let mut off = build::<()>(kind, batched);
    let mut det = build_traced(kind, batched, Level::Detached);
    let mut ins = build_traced(kind, batched, level);
    let cap = CYCLES as usize * SLOTS;
    let mut sinks: [Vec<ScheduledPacket>; 3] = std::array::from_fn(|_| Vec::with_capacity(cap));
    let mut t = [0.0f64; 3];
    for slice in 0..SLICES {
        // Rotate which column goes first so warmup and frequency scaling
        // don't consistently favor one side.
        for k in 0..3 {
            let col = (slice as usize + k) % 3;
            let sink = &mut sinks[col];
            t[col] += match col {
                0 => slice_seconds(&mut off, sink),
                1 => slice_seconds(&mut det, sink),
                _ => slice_seconds(&mut ins, sink),
            };
        }
    }
    black_box(ins.qos_snapshot().streams.len());
    t.map(|secs| CYCLES as f64 / secs)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

#[derive(Debug, Serialize)]
struct Row {
    kind: String,
    /// "attached" (metrics only) or "traced" (metrics + lifecycle spans).
    mode: String,
    /// This row's overhead gate, percent.
    target_pct: f64,
    /// `Fabric<()>`: no hooks compiled in.
    off_decisions_per_s: f64,
    detached_decisions_per_s: f64,
    attached_decisions_per_s: f64,
    /// Slowdown of detached `Traced` against `()` in percent (not gated).
    detached_cost_pct: f64,
    /// Slowdown of the attached run against detached in percent (negative
    /// = attached was faster, i.e. below measurement noise).
    overhead_pct: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    slots: usize,
    cycles_per_run: u64,
    reps: usize,
    rows: Vec<Row>,
    /// Worst attached (metrics-only) overhead vs its 5% gate.
    max_overhead_pct: f64,
    within_5_pct: bool,
    /// Worst traced overhead vs its 8% gate.
    max_traced_overhead_pct: f64,
    traced_within_8_pct: bool,
}

fn main() {
    banner(
        "telemetry-overhead",
        "Off vs detached vs attached instrumentation cost at 32 slots",
    );

    let mut rows = Vec::new();
    println!(
        "  {:<18} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "kind", "off", "detached", "attached", "det. cost", "overhead"
    );
    for (kind, batched, level, label, target) in [
        (
            FabricConfigKind::WinnerOnly,
            false,
            Level::Attached,
            "WR",
            5.0,
        ),
        (FabricConfigKind::Base, false, Level::Attached, "BA", 5.0),
        (
            FabricConfigKind::Base,
            true,
            Level::Attached,
            "BA-batched",
            5.0,
        ),
        // The traced gate runs on WR only: one win event per decision
        // cycle, so the row cleanly isolates per-event recording cost
        // against the shortest cycle in the suite. A BA row would record
        // one event per packet in the block, making its percentage track
        // block length rather than tracing cost.
        (
            FabricConfigKind::WinnerOnly,
            false,
            Level::Traced,
            "WR-traced",
            8.0,
        ),
    ] {
        let mut rates: [Vec<f64>; 3] = std::array::from_fn(|_| Vec::with_capacity(REPS));
        let mut costs = Vec::with_capacity(REPS);
        let mut overheads = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let pass = measure_pass(kind, batched, level);
            for (col, r) in rates.iter_mut().zip(pass) {
                col.push(r);
            }
            let [o, d, a] = pass;
            costs.push((o / d - 1.0) * 100.0);
            overheads.push((d / a - 1.0) * 100.0);
            if std::env::var_os("SS_BENCH_VERBOSE").is_some() {
                eprintln!("    pass {label}: {:+.2}%", (d / a - 1.0) * 100.0);
            }
        }
        let [off, detached, attached] = rates.map(|mut col| median(&mut col));
        // Median of the per-pass paired ratios, not the ratio of medians:
        // each pass's columns are interleaved slice-by-slice, so its ratio
        // is drift-free even when absolute rates wander between passes.
        let cost = median(&mut costs);
        let overhead = median(&mut overheads);
        println!(
            "  {label:<18} {off:>14.0} {detached:>14.0} {attached:>14.0} {cost:>9.2}% {overhead:>9.2}%"
        );
        rows.push(Row {
            kind: label.into(),
            mode: match level {
                Level::Traced => "traced".into(),
                _ => "attached".into(),
            },
            target_pct: target,
            off_decisions_per_s: off,
            detached_decisions_per_s: detached,
            attached_decisions_per_s: attached,
            detached_cost_pct: cost,
            overhead_pct: overhead,
        });
    }

    let worst = |mode: &str| {
        rows.iter()
            .filter(|r| r.mode == mode)
            .map(|r| r.overhead_pct)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let max_overhead = worst("attached");
    let within = max_overhead <= 5.0;
    let max_traced = worst("traced");
    let traced_within = max_traced <= 8.0;
    let verdict = |ok: bool| if ok { "PASS" } else { "FAIL" };
    println!(
        "\n  max attached overhead: {max_overhead:.2}% (target ≤ 5%) — {}",
        verdict(within)
    );
    println!(
        "  max traced overhead:   {max_traced:.2}% (target ≤ 8%) — {}",
        verdict(traced_within)
    );

    let report = Report {
        slots: SLOTS,
        cycles_per_run: CYCLES,
        reps: REPS,
        rows,
        max_overhead_pct: max_overhead,
        within_5_pct: within,
        max_traced_overhead_pct: max_traced,
        traced_within_8_pct: traced_within,
    };
    // The trajectory artifact lives at the workspace root (ISSUE contract),
    // unlike the lowercase per-figure artifacts under results/.
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_telemetry_overhead.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write BENCH_telemetry_overhead.json");
    println!("  → {}", path.display());
    // A failed gate fails the run — but only when enforcement is asked for
    // (SS_BENCH_ENFORCE=1): untuned CI containers report without gating.
    let enforce = std::env::var_os("SS_BENCH_ENFORCE").is_some_and(|v| v == "1");
    if enforce && !(within && traced_within) {
        std::process::exit(1);
    }
}
