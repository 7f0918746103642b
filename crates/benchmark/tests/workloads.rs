//! Every workload at 1/1000 scale: it emits every named metric exactly
//! once with a unit, passes its output checks, reproduces every exact
//! metric and its output digest bit for bit on a second run with the
//! same seed, and produces different outputs with a different seed.
//! And `BENCHMARK.json` names exactly what the crate emits.

use serde_json::Value;
use ss_benchmark::harness::Budget;
use ss_benchmark::metrics::{MetricSpec, RunResult, END_TO_END, PER_LAYER};
use ss_benchmark::{run, RunOptions, Workload};

fn small(workload: Workload, seed: u64, trace: bool) -> RunResult {
    let opts = RunOptions {
        seed,
        budget: Budget::Slices(400),
        trace,
        scale: 1000,
    };
    let result = run(workload, opts);
    assert!(
        result.correct && result.failed == 0,
        "{} seed {seed} trace {trace}: {:?}",
        workload.name(),
        result.failures
    );
    assert!(result.attempted >= 1);
    result
}

fn assert_table(result: &RunResult, table: &[MetricSpec]) {
    let got: Vec<(&str, &str)> = result
        .metrics
        .iter()
        .map(|m| (m.spec.name, m.spec.unit))
        .collect();
    let want: Vec<(&str, &str)> = table.iter().map(|s| (s.name, s.unit)).collect();
    assert_eq!(got, want, "every named metric, once, in table order");
    assert!(result.metrics.iter().all(|m| m.value.is_finite()));
    let json: Value = serde_json::from_str(&result.to_json()).expect("valid JSON");
    let printed = json
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert_eq!(printed.len(), table.len());
    for (name, m) in printed {
        assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
        assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
    }
}

fn exact_values(result: &RunResult) -> Vec<(&'static str, u64)> {
    result
        .metrics
        .iter()
        .filter(|m| m.spec.exact)
        .map(|m| (m.spec.name, m.value.to_bits()))
        .collect()
}

fn check_workload(workload: Workload) {
    for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
        let first = small(workload, 7, trace);
        assert_table(&first, table);
        let again = small(workload, 7, trace);
        assert_eq!(exact_values(&first), exact_values(&again), "same seed");
        assert_eq!(first.digest, again.digest, "same seed, same outputs");
        let other = small(workload, 8, trace);
        assert_ne!(first.digest, other.digest, "another seed, other outputs");
        if !trace {
            assert!(first.value("packets_per_s").expect("named") > 0.0);
            assert!(first.value("op_latency_us_p50").expect("named") > 0.0);
            assert!(first.value("setup_s").expect("named") > 0.0);
            assert!(first.value("peak_rss_mb").expect("named") > 0.0);
        } else {
            assert_eq!(first.value("failed_share"), Some(0.0));
        }
    }
}

#[test]
fn loopback_pipeline_at_small_scale() {
    check_workload(Workload::LoopbackPipeline);
    let e2e = small(Workload::LoopbackPipeline, 7, false);
    assert_eq!(e2e.value("delivered_share"), Some(1.0));
    let layers = small(Workload::LoopbackPipeline, 7, true);
    for (name, want) in [
        ("ingress.gate.admitted_share", 1.0),
        ("ingress.gate.admission_refused_share", 0.0),
        ("ingress.gate.shed_share", 0.0),
        ("endsystem.spsc.ring_loss", 0.0),
        ("ingress.server.duplicate_batches", 0.0),
        ("ingress.client.reconnects", 0.0),
    ] {
        assert_eq!(layers.value(name), Some(want), "{name}");
    }
    assert!(layers.value("ingress.socket.rtt_us_p50").expect("named") > 0.0);
    assert!(
        layers
            .value("ingress.frame.wire_bytes_per_pkt")
            .expect("named")
            > 6.0
    );
}

#[test]
fn loopback_overload_at_small_scale() {
    check_workload(Workload::LoopbackOverload);
    let e2e = small(Workload::LoopbackOverload, 7, false);
    let delivered = e2e.value("delivered_share").expect("named");
    assert!(delivered > 0.3 && delivered < 0.9, "{delivered}");
    let layers = small(Workload::LoopbackOverload, 7, true);
    // The refuse path is actually taken, and differently per seed.
    assert!(
        layers
            .value("ingress.gate.admission_refused_share")
            .expect("named")
            > 0.1
    );
    assert!(
        layers
            .value("ingress.server.throttle_reply_share")
            .expect("named")
            > 0.0
    );
    let other = small(Workload::LoopbackOverload, 8, true);
    assert_ne!(exact_values(&layers), exact_values(&other));
}

#[test]
fn fabric_block_at_small_scale() {
    check_workload(Workload::FabricBlock);
    let e2e = small(Workload::FabricBlock, 7, false);
    assert_eq!(e2e.value("delivered_share"), Some(1.0));
    let layers = small(Workload::FabricBlock, 7, true);
    assert_eq!(
        layers.value("core.fabric.sim_cycles_per_decision.n32"),
        Some(6.0),
        "log2(32) + 1 simulated cycles per decision"
    );
    assert!(
        layers
            .value("core.fabric.decision_ns_per_pkt.ba32")
            .expect("named")
            > 0.0
    );
    assert_eq!(layers.value("ingress.socket.rtt_us_p50"), Some(0.0));
}

#[test]
fn cluster_soak_at_small_scale() {
    check_workload(Workload::ClusterSoak);
    let layers = small(Workload::ClusterSoak, 7, true);
    assert_eq!(layers.value("cluster.sim.violations"), Some(0.0));
    assert!(
        layers
            .value("cluster.node.step_ns_per_tick")
            .expect("named")
            > 0.0
    );
    assert!(
        layers
            .value("sharded.inline_ns_per_decision.k2")
            .expect("named")
            > 0.0
    );
}

#[test]
fn benchmark_json_names_what_the_crate_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let doc: Value = serde_json::from_str(&text).expect("valid JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("a list")
            .iter()
            .map(|m| {
                assert_eq!(
                    m.as_object().expect("object").len(),
                    fields.len() + 1,
                    "{m:?}"
                );
                let mut row = vec![m
                    .get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()];
                row.extend(fields.iter().map(|f| match m.get(f).expect("field") {
                    Value::String(s) => s.clone(),
                    other => other.as_f64().expect("number").to_string(),
                }));
                row
            })
            .collect()
    };
    let names = |rows: &[Vec<String>]| -> Vec<(String, String)> {
        rows.iter().map(|r| (r[0].clone(), r[1].clone())).collect()
    };
    let table = |t: &[MetricSpec]| -> Vec<(String, String)> {
        t.iter()
            .map(|s| (s.name.to_string(), s.unit.to_string()))
            .collect()
    };
    let e2e = list("end_to_end", &["unit", "better", "bound"]);
    assert_eq!(names(&e2e), table(END_TO_END));
    for row in &e2e {
        assert!(matches!(row[2].as_str(), "higher" | "lower"));
        let bound: f64 = row[3].parse().expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{row:?}");
    }
    assert!(e2e
        .iter()
        .any(|r| r[0] == "setup_s" && r[1] == "s" && r[2] == "lower"));
    assert_eq!(
        names(&list("per_layer", &["unit", "better"])),
        table(PER_LAYER)
    );
    let workloads: Vec<String> = list("workloads", &["why"])
        .into_iter()
        .map(|r| r[0].clone())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
    // 4 + 22 runs per workload, their set-up and two builds, in 3420 s.
    assert!((4 + 22 * ours.len() as u64) * (seconds + 6) + 600 <= 3420);
}
