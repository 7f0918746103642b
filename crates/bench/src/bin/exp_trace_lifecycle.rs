//! Generates the annotated lifecycle-trace example committed under
//! `results/`: a pinned-seed traced chaos run through the threaded
//! endsystem, exported as Chrome/Perfetto trace-event JSON
//! (`results/trace_lifecycle_example.json`) plus the automatic
//! watchdog-trip flight dump from a deliberately wedged run
//! (`results/trace_flight_dump_example.json`).
//!
//! Requires `--features faults` (`required-features` in the manifest).

use ss_bench::banner;
use ss_core::{FabricConfig, FabricConfigKind, LatePolicy, StreamState};
use ss_endsystem::{run_threaded_traced, TraceConfig};
use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
use ss_telemetry::{perfetto_json, stitch, validate_causal, validate_perfetto_schema, Stage};
use std::sync::Arc;

fn main() {
    banner(
        "trace-lifecycle",
        "Pinned-seed traced chaos run → Perfetto JSON + flight-dump artifacts",
    );

    let results = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&results).expect("create results/");

    let slots = 8usize;
    let per_slot = 400u64;
    let states = |n: usize| -> Vec<StreamState> {
        (0..n)
            .map(|_| StreamState {
                request_period: n as u64,
                original_window: ss_types::WindowConstraint::ZERO,
                static_prio: 0,
                late_policy: LatePolicy::ServeLate,
            })
            .collect()
    };

    // --- Healthy-but-harassed run: the committed Perfetto example. ---
    // Same pinned seed and rates as the chaos soak's first schedule, so
    // the artifact is regenerable bit-for-bit modulo timestamps.
    let inj = Arc::new(FaultInjector::new(
        0xC0FF_EE00,
        FaultConfig {
            spsc_rate_ppm: 10_000,
            decision_rate_ppm: 3_000,
            ..FaultConfig::quiet()
        },
    ));
    let mut trace = TraceConfig::new(1 << 16, 512);
    trace.faults = Some((inj, RetryPolicy::default()));
    let out = run_threaded_traced(
        FabricConfig::edf(slots, FabricConfigKind::WinnerOnly),
        states(slots),
        per_slot,
        trace,
    )
    .expect("traced chaos run completes");

    let stitched = stitch(&out.tracks);
    validate_causal(&stitched).expect("stitched stream is causally ordered");
    let json = perfetto_json(&out.tracks, out.ticks_per_us);
    validate_perfetto_schema(&json).expect("export is Perfetto-loadable");
    let trace_path = results.join("trace_lifecycle_example.json");
    std::fs::write(&trace_path, &json).expect("write trace example");
    println!(
        "  {} events across {} tracks ({} served, {} lost) → {}",
        stitched.len(),
        out.tracks.len(),
        out.report.total,
        out.report.lost,
        trace_path.display()
    );

    // --- Wedged run: the committed flight-dump example. ---
    let inj = Arc::new(FaultInjector::new(
        13,
        FaultConfig {
            decision_rate_ppm: 1_000_000,
            ..FaultConfig::quiet()
        },
    ));
    let mut trace = TraceConfig::new(1 << 14, 256);
    trace.faults = Some((inj, RetryPolicy::default()));
    let out = run_threaded_traced(
        FabricConfig::edf(4, FabricConfigKind::WinnerOnly),
        states(4),
        200,
        trace,
    )
    .expect("wedged run still reports");
    let dump = out
        .flight_dump
        .expect("watchdog trip produced an automatic dump");
    assert!(
        dump.events.iter().any(|e| e.stage == Stage::WatchdogTrip),
        "dump window contains the trip"
    );
    let dump_path = results.join("trace_flight_dump_example.json");
    std::fs::write(&dump_path, dump.to_json()).expect("write flight dump example");
    println!(
        "  watchdog trip at cycle {} dumped {} events → {}",
        dump.at_cycle,
        dump.events.len(),
        dump_path.display()
    );
}
