//! `exp [NAME]`: every experiment of the paper's evaluation, or only `NAME`
//! (one of `ss_bench::EXPERIMENTS`, e.g. `table3`). Each prints its rows,
//! writes its `results/` artifacts and checks its rows of the anchor table,
//! host-timed rows included; a miss makes the exit status non-zero. A full
//! run also writes `results/run_summary.json`: pass/fail and duration per
//! experiment in the `ss-telemetry` snapshot schema.

use ss_bench::{results_dir, Experiment, Runs, EXPERIMENTS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Reports `e`, then checks its anchor rows: `false` on a miss or a panic.
fn run(e: &Experiment, runs: &Runs) -> bool {
    let checked = catch_unwind(AssertUnwindSafe(|| {
        (e.report)(runs);
        let mut held = true;
        for a in e.anchors {
            match a.check(runs) {
                Ok(m) => println!(
                    "  ✓ {}: paper {}, measured {m} ({})",
                    a.id, a.paper, a.tolerance
                ),
                Err(miss) => {
                    println!("  ✗ {miss}");
                    held = false;
                }
            }
        }
        held
    }));
    checked.unwrap_or(false)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Experiment> = match args.as_slice() {
        [] => EXPERIMENTS.iter().collect(),
        [name] => EXPERIMENTS.iter().filter(|e| e.name == name).collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("usage: exp [NAME], NAME one of: {}", names.join(", "));
        return ExitCode::FAILURE;
    }

    let registry = ss_telemetry::Registry::new();
    let passed = "Experiments whose anchor rows all held";
    let passed = registry.counter("ss_bench_experiments_passed_total", passed);
    let failed = "Experiments with a missed anchor row or a panic";
    let failed = registry.counter("ss_bench_experiments_failed_total", failed);
    let (runs, mut failures) = (Runs::default(), Vec::new());
    for e in &selected {
        let start = Instant::now();
        let ok = run(e, &runs);
        let label = format!("exp_{}", e.name);
        let labels: &[(&str, &str)] = &[("experiment", &label)];
        let help = "1 when the experiment's anchor rows all held, else 0";
        let gauge = registry.gauge_labeled("ss_bench_experiment_ok", labels, help);
        gauge.set(i64::from(ok));
        let help = "Wall-clock runtime of the experiment and its checks";
        let gauge = registry.gauge_labeled("ss_bench_experiment_duration_ms", labels, help);
        gauge.set(start.elapsed().as_millis() as i64);
        if ok {
            passed.inc();
        } else {
            failed.inc();
            failures.push(e.name);
        }
    }

    println!("\n=== reproduction summary ===");
    println!("  {} experiments, failed: {failures:?}", selected.len());
    if args.is_empty() {
        let path = results_dir().join("run_summary.json");
        let summary = registry.snapshot().to_json_pretty();
        std::fs::write(&path, summary).expect("write run_summary.json");
        println!("  → {}", path.display());
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
