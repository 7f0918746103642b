//! Telemetry overhead: attached vs detached decision cycles at 32 slots.
//!
//! The telemetry contract is "zero overhead when off, negligible when on":
//! with the `telemetry` feature disabled the instrumentation hooks are
//! zero-sized no-ops (nothing to measure — on/off builds are bit-identical
//! on the hot path), so this bench quantifies the *enabled-but-attached*
//! cost instead. All columns come from one feature-on build of the same
//! `Fabric`; the only difference is what `attach_*` calls ran. The
//! attached run pays the real per-cycle work: local delta accumulation,
//! the win-gap histogram, QoS latency tracking, and the amortized
//! every-4096-decisions flush into the striped registry. The
//! traced rows additionally attach a lifecycle-span track, so every
//! decision win also stamps a timestamped `StageEvent` into the per-thread
//! span ring — that path gets its own, looser gate (≤8% vs ≤5%).
//!
//! Measurement is drift-hardened: the two columns run in alternating ~1 ms
//! slices (so background load lands on both), the overhead of each pass is
//! a paired ratio, and the reported figure is the median across passes.
//!
//! Emits `BENCH_telemetry_overhead.json` at the workspace root: decisions/s
//! detached vs attached for WR and BA (scalar and batched) at 32 slots,
//! plus the overhead gates. The gates only fail the process under
//! `SS_BENCH_ENFORCE=1` — untuned CI containers report without gating.
//! Without the feature the binary still runs and writes the artifact, with
//! the attached column absent.

use serde::Serialize;
use ss_bench::banner;
use ss_core::{Fabric, FabricConfig, FabricConfigKind, LatePolicy, ScheduledPacket, StreamState};
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
    /// Feature on, nothing attached — the baseline column.
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

/// Builds a fully backlogged fabric with enough queued arrivals to cover
/// one pass. `level` selects what gets attached before the measured spans;
/// it is ignored (always detached) when the feature is off, and the caller
/// skips those columns.
fn build(kind: FabricConfigKind, batched: bool, level: Level) -> Fabric {
    let mut f = Fabric::new(FabricConfig::dwcs(SLOTS, kind)).unwrap();
    f.set_batched(batched);
    #[cfg(feature = "telemetry")]
    {
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
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = level;
    for s in 0..SLOTS {
        f.load_stream(s, stream_state(), (s + 1) as u64).unwrap();
        for q in 0..CYCLES {
            f.push_arrival(s, Wrap16::from_wide(q)).unwrap();
        }
    }
    f
}

/// Seconds to run one `CHUNK`-cycle slice on `f`.
fn slice_seconds(f: &mut Fabric, sink: &mut Vec<ScheduledPacket>) -> f64 {
    let start = Instant::now();
    let cycles = f.decision_cycles(CHUNK, sink);
    let elapsed = start.elapsed().as_secs_f64();
    black_box(cycles);
    elapsed
}

/// One pass: detached and instrumented fabrics measured in alternating
/// ~1 ms slices, so machine-load drift lands on both columns instead of
/// skewing the ratio. Returns (detached, instrumented) decisions/s;
/// instrumented is NaN when the feature is off (the caller drops it).
fn measure_pass(kind: FabricConfigKind, batched: bool, level: Level) -> (f64, f64) {
    let feature_on = cfg!(feature = "telemetry");
    let mut det = build(kind, batched, Level::Detached);
    let mut ins = build(kind, batched, level);
    let cap = CYCLES as usize * SLOTS;
    let mut sink_det: Vec<ScheduledPacket> = Vec::with_capacity(cap);
    let mut sink_ins: Vec<ScheduledPacket> = Vec::with_capacity(cap);
    let (mut t_det, mut t_ins) = (0.0f64, 0.0f64);
    for slice in 0..SLICES {
        // Alternate which column goes first so warmup and frequency
        // scaling don't consistently favor one side.
        if slice % 2 == 0 {
            t_det += slice_seconds(&mut det, &mut sink_det);
            if feature_on {
                t_ins += slice_seconds(&mut ins, &mut sink_ins);
            }
        } else {
            if feature_on {
                t_ins += slice_seconds(&mut ins, &mut sink_ins);
            }
            t_det += slice_seconds(&mut det, &mut sink_det);
        }
    }
    #[cfg(feature = "telemetry")]
    black_box(ins.qos_snapshot().streams.len());
    (CYCLES as f64 / t_det, CYCLES as f64 / t_ins)
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
    detached_decisions_per_s: f64,
    attached_decisions_per_s: Option<f64>,
    /// Slowdown of the attached run in percent (negative = attached was
    /// faster, i.e. below measurement noise).
    overhead_pct: Option<f64>,
}

#[derive(Debug, Serialize)]
struct Report {
    slots: usize,
    cycles_per_run: u64,
    reps: usize,
    telemetry_feature: bool,
    rows: Vec<Row>,
    /// Worst attached (metrics-only) overhead vs its 5% gate.
    max_overhead_pct: Option<f64>,
    within_5_pct: Option<bool>,
    /// Worst traced overhead vs its 8% gate.
    max_traced_overhead_pct: Option<f64>,
    traced_within_8_pct: Option<bool>,
}

fn main() {
    banner(
        "telemetry-overhead",
        "Attached vs detached instrumentation cost at 32 slots",
    );
    let feature_on = cfg!(feature = "telemetry");
    if !feature_on {
        println!("  (built without --features telemetry: detached column only)");
    }

    let mut rows = Vec::new();
    println!(
        "  {:<18} {:>14} {:>14} {:>10}",
        "kind", "detached", "attached", "overhead"
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
        let mut det_rates = Vec::with_capacity(REPS);
        let mut overheads = Vec::with_capacity(REPS);
        let mut att_rates = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let (d, a) = measure_pass(kind, batched, level);
            det_rates.push(d);
            if feature_on {
                att_rates.push(a);
                overheads.push((d / a - 1.0) * 100.0);
                if std::env::var_os("SS_BENCH_VERBOSE").is_some() {
                    eprintln!("    pass {label}: {:+.2}%", (d / a - 1.0) * 100.0);
                }
            }
        }
        let detached = median(&mut det_rates);
        let attached = feature_on.then(|| median(&mut att_rates));
        // Median of the per-pass paired ratios, not the ratio of medians:
        // each pass's columns are interleaved slice-by-slice, so its ratio
        // is drift-free even when absolute rates wander between passes.
        let overhead = feature_on.then(|| median(&mut overheads));
        match (attached, overhead) {
            (Some(a), Some(o)) => {
                println!("  {label:<18} {detached:>14.0} {a:>14.0} {o:>9.2}%");
            }
            _ => println!("  {label:<18} {detached:>14.0} {:>14} {:>10}", "-", "-"),
        }
        rows.push(Row {
            kind: label.into(),
            mode: match level {
                Level::Traced => "traced".into(),
                _ => "attached".into(),
            },
            target_pct: target,
            detached_decisions_per_s: detached,
            attached_decisions_per_s: attached,
            overhead_pct: overhead,
        });
    }

    let worst = |mode: &str| {
        rows.iter()
            .filter(|r| r.mode == mode)
            .filter_map(|r| r.overhead_pct)
            .fold(None, |acc: Option<f64>, o| {
                Some(acc.map_or(o, |a| a.max(o)))
            })
    };
    let max_overhead = worst("attached");
    let within = max_overhead.map(|o| o <= 5.0);
    let max_traced = worst("traced");
    let traced_within = max_traced.map(|o| o <= 8.0);
    if let (Some(o), Some(ok)) = (max_overhead, within) {
        println!(
            "\n  max attached overhead: {o:.2}% (target ≤ 5%) — {}",
            if ok { "PASS" } else { "FAIL" }
        );
    }
    if let (Some(o), Some(ok)) = (max_traced, traced_within) {
        println!(
            "  max traced overhead:   {o:.2}% (target ≤ 8%) — {}",
            if ok { "PASS" } else { "FAIL" }
        );
    }

    let report = Report {
        slots: SLOTS,
        cycles_per_run: CYCLES,
        reps: REPS,
        telemetry_feature: feature_on,
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
    if enforce && (within == Some(false) || traced_within == Some(false)) {
        std::process::exit(1);
    }
}
