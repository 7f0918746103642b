//! The metric names, their units, and the result a run prints.
//!
//! The two tables here are the benchmark's vocabulary: `BENCHMARK.json`
//! lists exactly these names and units (a test holds them together), and
//! a run fails if it reports a name that is not in its table, reports one
//! twice, or leaves one out.

use serde_json::{json, Value};

/// One named metric of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// The value is a count or a ratio of counts that is a pure function
    /// of (workload, seed, slice count): it must repeat bit for bit.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        exact: true,
    }
}

/// What a user of the system sees; printed by the untraced run
/// (`--trace 0`). Every one is defined and nonzero on every workload.
/// `failed_share` is not here because it is 0 on a healthy run and a
/// gated metric may never be 0: it is the `failed`/`attempted` pair of
/// the result, and a per-layer metric.
pub const END_TO_END: &[MetricSpec] = &[
    timed("setup_s", "s"),
    timed("packets_per_s", "1/s"),
    timed("op_latency_us_p50", "us"),
    exact("delivered_share", "ratio"),
    timed("cpu_ns_per_pkt", "ns"),
    timed("peak_rss_mb", "MiB"),
];

/// Single layers; printed by the traced run (`--trace 1`). A layer the
/// workload does not run reports 0.
pub const PER_LAYER: &[MetricSpec] = &[
    exact("failed_share", "ratio"),
    timed("ingress.frame.encode_ns_per_pkt", "ns"),
    timed("ingress.frame.decode_ns_per_pkt", "ns"),
    exact("ingress.frame.wire_bytes_per_pkt", "B"),
    timed("ingress.gate.offer_ns_per_pkt", "ns"),
    timed("ingress.gate.serve_ns_per_pkt", "ns"),
    exact("ingress.gate.admitted_share", "ratio"),
    exact("ingress.gate.admission_refused_share", "ratio"),
    exact("ingress.gate.shed_share", "ratio"),
    exact("ingress.gate.backlog_hwm", "count"),
    timed("ingress.socket.rtt_us_p50", "us"),
    timed("ingress.socket.rtt_us_p99", "us"),
    timed("ingress.socket.self_ns_per_pkt", "ns"),
    timed("ingress.socket.tax_ratio", "ratio"),
    exact("ingress.server.throttle_reply_share", "ratio"),
    exact("ingress.client.holdback_share", "ratio"),
    exact("ingress.server.duplicate_batches", "count"),
    exact("ingress.client.reconnects", "count"),
    timed("pipeline.submit_to_transmit_us_p50", "us"),
    timed("pipeline.submit_to_transmit_us_p99", "us"),
    timed("endsystem.spsc.push_pop_ns_per_pkt", "ns"),
    timed("endsystem.spsc.ring_hwm", "count"),
    exact("endsystem.spsc.rejections", "count"),
    exact("endsystem.spsc.ring_loss", "count"),
    timed("endsystem.tx.transmit_ns_per_pkt", "ns"),
    timed("core.fabric.push_arrival_ns_per_pkt", "ns"),
    timed("core.fabric.decision_ns_per_pkt.ba32", "ns"),
    timed("core.fabric.decision_ns_per_pkt.wr32", "ns"),
    timed("core.fabric.decision_ns_per_pkt.wr8", "ns"),
    timed("core.fabric.decision_ns_per_pkt.ba32_batched", "ns"),
    timed("core.fabric.batched_vs_scalar.ba32", "ratio"),
    exact("core.fabric.sim_cycles_per_decision.n32", "cycles"),
    exact("core.fabric.deadlines_met_share", "ratio"),
    timed("sharded.inline_ns_per_decision.k1", "ns"),
    timed("sharded.inline_ns_per_decision.k2", "ns"),
    timed("sharded.inline_ns_per_decision.k4", "ns"),
    timed("sharded.threaded_pkts_per_s.k2", "1/s"),
    timed("sharded.threaded_efficiency.k2", "ratio"),
    timed("cluster.scenario.sample_ns_per_tick", "ns"),
    timed("cluster.node.step_ns_per_tick", "ns"),
    timed("cluster.invariant.check_ns_per_tick", "ns"),
    timed("cluster.sim.self_ns_per_tick", "ns"),
    timed("cluster.sim.parallel2_decisions_per_s", "1/s"),
    timed("cluster.sim.parallel2_speedup", "ratio"),
    exact("cluster.sim.loss_share", "ratio"),
    exact("cluster.sim.protected_met_share", "ratio"),
    exact("cluster.sim.violations", "count"),
    exact("cluster.sim.fingerprint", "hash48"),
    timed("process.ctx_switches_per_kpkt", "count"),
    timed("process.sys_share", "ratio"),
    timed("harness.generator_ns_per_pkt", "ns"),
    timed("harness.trace_overhead_share", "ratio"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its entry in [`END_TO_END`] or [`PER_LAYER`].
    pub spec: MetricSpec,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value (ops, slices, spans; 0 for plain counts).
    pub samples: u64,
}

/// The metrics of one run, checked against one of the tables.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [MetricSpec],
    values: Vec<Metric>,
}

impl Metrics {
    /// An empty set over `table`.
    pub fn new(table: &'static [MetricSpec]) -> Self {
        Self {
            table,
            values: Vec::with_capacity(table.len()),
        }
    }

    /// Reports `name`. Panics on a name outside the table or reported
    /// twice — both are bugs in the benchmark, not outcomes of a run.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let spec = *self
            .table
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(
            self.values.iter().all(|m| m.spec.name != name),
            "metric {name} reported twice"
        );
        self.values.push(Metric {
            spec,
            value,
            samples,
        });
    }

    /// Reports 0 for every metric not yet set: the layers this workload
    /// does not run.
    pub fn zero_rest(&mut self) {
        for spec in self.table {
            if self.values.iter().all(|m| m.spec.name != spec.name) {
                self.set(spec.name, 0.0, 0);
            }
        }
    }

    /// The values in table order. Panics if one is missing.
    pub fn finish(mut self) -> Vec<Metric> {
        let table = self.table;
        for spec in table {
            assert!(
                self.values.iter().any(|m| m.spec.name == spec.name),
                "metric {} was not reported",
                spec.name
            );
        }
        self.values
            .sort_by_key(|m| table.iter().position(|s| s.name == m.spec.name));
        self.values
    }
}

/// What one invocation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed and no op failed.
    pub correct: bool,
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that failed (see the README for what fails an op).
    pub failed: u64,
    /// Every metric of the table the run was asked for.
    pub metrics: Vec<Metric>,
    /// One line per failed output check.
    pub failures: Vec<String>,
    /// Informational lines (slice quartiles, sample counts, trace path).
    pub notes: Vec<String>,
    /// Digest of the exact outputs (per-slot counts, ledger, block or
    /// winner sequence): equal for equal (workload, seed, slice count),
    /// different for another seed.
    pub digest: u64,
}

impl RunResult {
    /// A metric's value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.spec.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let metrics = Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    let v = json!({"value": (m.value), "unit": (m.spec.unit)});
                    (m.spec.name.to_string(), v)
                })
                .collect(),
        );
        let doc = json!({
            "correct": (self.correct),
            "attempted": (self.attempted),
            "failed": (self.failed),
            "metrics": metrics
        });
        serde_json::to_string(&doc).expect("a Value tree always serializes")
    }

    /// A table of every metric with its unit and sample count.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<46} {:>18.6} {:<7} n={}{}",
                m.spec.name,
                m.value,
                m.spec.unit,
                m.samples,
                if m.spec.exact { "  (exact)" } else { "" }
            );
        }
        let _ = writeln!(out, "  output digest {:#018x}", self.digest);
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  CHECK FAILED: {f}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&MetricSpec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, s) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|o| o.name != s.name), "{}", s.name);
            assert!(s.name.len() <= 64 && s.unit.len() <= 16);
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_prints_exactly_the_contract_keys() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.0125, 5);
        m.zero_rest();
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: m.finish(),
            failures: Vec::new(),
            notes: Vec::new(),
            digest: 0,
        };
        let doc: Value = serde_json::from_str(&r.to_json()).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(
            setup.and_then(|s| s.get("value")).and_then(Value::as_f64),
            Some(0.0125)
        );
        assert_eq!(
            setup.and_then(|s| s.get("unit")).and_then(Value::as_str),
            Some("s")
        );
        assert_eq!(r.metrics.len(), END_TO_END.len());
        assert!(!r.to_json().contains('\n'));
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn a_metric_cannot_be_reported_twice() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 1.0, 1);
        m.set("setup_s", 2.0, 1);
    }
}
