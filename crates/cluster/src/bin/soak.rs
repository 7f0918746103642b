//! Long-horizon soak runner: the nightly CI leg.
//!
//! Runs a cluster simulation under a wall-clock budget, appends one
//! [`TrendPoint`](ss_cluster::report::TrendPoint) to `BENCH_soak.json`,
//! and on any invariant violation writes the replayed flight dump to
//! disk, prints the one-line repro command, and exits non-zero.
//!
//! ```text
//! cargo run --release -p ss-cluster --bin soak -- \
//!     --seed 0xc0ffee00 --scenario steady:rate=2000 --nodes 4 \
//!     --shards 4 --slots 8 --ticks 200000 --faults light \
//!     --bench BENCH_soak.json --budget-ms 60000
//! ```

use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use ss_cluster::cli::{self, SoakArgs};
use ss_cluster::report::TrendPoint;
use ss_cluster::sim::ClusterSim;

/// Ticks per budget check: big enough to amortize the clock read, small
/// enough to respect the budget within a fraction of a second.
const CHUNK_TICKS: u64 = 1024;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("soak: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("soak: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: SoakArgs) -> Result<bool, String> {
    let config = args.config.clone();
    let repro = cli::repro_command(&config);
    eprintln!(
        "soak: seed={:#x} scenario={} nodes={} shards={} slots={} ticks={} faults={} threads={}",
        config.seed,
        config.scenario,
        config.nodes,
        config.shards,
        config.slots,
        config.ticks,
        config.faults,
        config.threads,
    );

    let mut sim =
        ClusterSim::new(config.clone()).map_err(|e| format!("building cluster: {e:?}"))?;
    let start = Instant::now();
    loop {
        let ran = sim.run_chunk(CHUNK_TICKS);
        if ran == 0 {
            break;
        }
        if let Some(budget) = args.budget_ms {
            if start.elapsed().as_millis() as u64 >= budget {
                eprintln!(
                    "soak: wall budget {budget} ms spent at tick {} / {}",
                    sim.tick(),
                    config.ticks
                );
                break;
            }
        }
    }
    let wall_ms = (start.elapsed().as_millis() as u64).max(1);
    let report = sim.report();

    let unix_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let point = TrendPoint {
        unix_s,
        seed: config.seed,
        scenario: config.scenario.to_string(),
        faults: config.faults.to_string(),
        nodes: config.nodes as u64,
        shards: config.shards as u64,
        slots: config.slots as u64,
        ticks: report.ticks_run,
        decisions: report.transmitted,
        wall_ms,
        decisions_per_s: report.transmitted as f64 * 1000.0 / wall_ms as f64,
        loss_permille: report.loss_permille(),
        protected_met_permille: report.protected_met_permille(),
        egress_drop_permille: report.egress_drop_permille(),
        violations: report.violations.len() as u64,
        fingerprint: report.fingerprint,
    };
    eprintln!(
        "soak: {} ticks, {} decisions in {} ms ({:.0}/s), loss {}‰, protected-met {}‰, \
         egress-drop {}‰, fingerprint {:#018x}",
        point.ticks,
        point.decisions,
        point.wall_ms,
        point.decisions_per_s,
        point.loss_permille,
        point.protected_met_permille,
        point.egress_drop_permille,
        point.fingerprint,
    );
    if let Some(bench) = &args.bench_path {
        ss_cluster::report::append_trend(std::path::Path::new(bench), point)?;
        eprintln!("soak: trend point appended to {bench}");
    }

    if report.violations.is_empty() {
        return Ok(true);
    }

    // Violation path: write the replayed flight dump, print the repro, fail.
    for v in &report.violations {
        eprintln!(
            "soak: INVARIANT VIOLATION {} at tick {} on node {}: {}",
            v.invariant, v.tick, v.node, v.detail
        );
    }
    if let Some(dump) = sim.dump() {
        let path = args
            .dump_path
            .clone()
            .unwrap_or_else(|| "soak_flight_dump.json".to_string());
        std::fs::write(&path, dump.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        // Also render the window as a Perfetto-loadable trace (open it at
        // ui.perfetto.dev; a tick reads as a microsecond). Flight events
        // are time-ordered; one synthetic track carries the whole window.
        let track = ss_telemetry::TrackDump {
            track: 0,
            name: "cluster-flight".to_string(),
            events: dump.events.clone(),
            dropped: dump.dropped,
            total: dump.total,
        };
        let perfetto = ss_telemetry::perfetto_json(std::slice::from_ref(&track), dump.ticks_per_us);
        let perfetto_path = format!("{path}.perfetto.json");
        std::fs::write(&perfetto_path, perfetto)
            .map_err(|e| format!("writing {perfetto_path}: {e}"))?;
        eprintln!(
            "soak: flight dump ({} events) written to {path}; Perfetto trace at {perfetto_path}",
            dump.events.len()
        );
    }
    eprintln!("soak: reproduce with:\n  {repro}");
    Ok(false)
}
