//! Trace export: Perfetto/Chrome trace-event JSON, per-stage latency
//! histograms, and the causal-order validator.
//!
//! The exporter is strictly offline: recording threads fill
//! [`TrackDump`]s (see [`crate::recorder`]); after the run, this module
//! turns them into
//!
//! * [`perfetto_json`] — Chrome trace-event JSON (`chrome://tracing` /
//!   [ui.perfetto.dev]) with one named track per recording ring, an
//!   instant event per stage crossing, and complete (`"X"`) slices for
//!   each packet's consecutive stage pairs so the time-in-stage is
//!   visible as bars;
//! * [`StageLatencies`] — log2-bucketed per-stage latency histograms
//!   (admission-wait, ring-residency, decision-latency, service-latency)
//!   published into the existing [`Registry`]/Prometheus schema as
//!   `ss_trace_*_us`;
//! * [`validate_causal`] — the invariant the tests pin: per packet tag,
//!   lifecycle stages never regress.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::metrics::{LocalHistogram, Registry};
use crate::recorder::{stitch, TrackDump};
use crate::span::{Stage, StageEvent};

/// Escapes a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microseconds (for Perfetto's `ts` field) from a raw tick count.
fn us(tsc: u64, t0: u64, ticks_per_us: f64) -> f64 {
    tsc.saturating_sub(t0) as f64 / ticks_per_us
}

/// Renders drained tracks as Chrome trace-event JSON.
///
/// Layout: process 1 with one thread per track (named via `"M"` metadata
/// events); each stage crossing is an `"i"` instant scoped to its
/// thread; each *consecutive stage pair of one packet tag* additionally
/// becomes an `"X"` complete slice named `from→to` on the downstream
/// track, so stage residency shows up as bars. Timestamps are rebased to
/// the earliest event so traces start at `ts = 0`.
#[must_use]
pub fn perfetto_json(tracks: &[TrackDump], ticks_per_us: f64) -> String {
    let tpus = if ticks_per_us > 0.0 {
        ticks_per_us
    } else {
        1.0
    };
    let t0 = tracks
        .iter()
        .flat_map(|t| t.events.iter())
        .map(|e| e.tsc)
        .min()
        .unwrap_or(0);

    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut push_event = |out: &mut String, body: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&body);
    };

    for t in tracks {
        push_event(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.track,
                json_escape(&t.name)
            ),
        );
    }

    for t in tracks {
        for e in &t.events {
            push_event(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"tag\":\"{:#018x}\",\
                     \"cycle\":{},\"detail\":{},\"arg\":{}}}}}",
                    e.stage.name(),
                    us(e.tsc, t0, tpus),
                    e.track,
                    e.tag,
                    e.cycle,
                    e.detail,
                    e.arg
                ),
            );
        }
    }

    // Per-tag stage-residency slices: walk the stitched stream and emit
    // an "X" slice between each packet's consecutive lifecycle events.
    let stitched = stitch(tracks);
    let mut last_seen: HashMap<u64, StageEvent> = HashMap::new();
    for e in &stitched {
        if e.trace_tag().is_control() || e.stage.lifecycle_rank().is_none() {
            continue;
        }
        if let Some(prev) = last_seen.insert(e.tag, *e) {
            let start = us(prev.tsc, t0, tpus);
            let dur = us(e.tsc, prev.tsc, tpus);
            push_event(
                &mut out,
                format!(
                    "{{\"name\":\"{}\\u2192{}\",\"ph\":\"X\",\"ts\":{start:.3},\
                     \"dur\":{dur:.3},\"pid\":1,\"tid\":{},\
                     \"args\":{{\"tag\":\"{:#018x}\"}}}}",
                    prev.stage.name(),
                    e.stage.name(),
                    e.track,
                    e.tag
                ),
            );
        }
    }

    out.push_str("]}");
    out
}

/// Per-stage latency accumulators over a stitched event stream.
///
/// The four quantities the paper's host-path analysis needs, in
/// microseconds (log2 buckets):
///
/// * **admission-wait** — `Admitted` → `RingEnqueue` (gate + producer);
/// * **ring-residency** — `RingEnqueue` → `RingDequeue` (SPSC queueing);
/// * **decision-latency** — `FabricArrival` → `DecisionWin`/`MergeWin`
///   (time queued in the fabric before winning);
/// * **service-latency** — win → `Service` (handoff + transmit).
#[derive(Debug, Default)]
pub struct StageLatencies {
    /// `Admitted` → `RingEnqueue`, µs.
    pub admission_wait_us: LocalHistogram,
    /// `RingEnqueue` → `RingDequeue`, µs.
    pub ring_residency_us: LocalHistogram,
    /// `FabricArrival` → selection, µs.
    pub decision_latency_us: LocalHistogram,
    /// Selection → `Service`, µs.
    pub service_latency_us: LocalHistogram,
}

impl StageLatencies {
    /// Accumulates stage gaps from a causally-ordered event stream (use
    /// [`stitch`] first). Control tags are skipped.
    #[must_use]
    pub fn from_events(events: &[StageEvent], ticks_per_us: f64) -> Self {
        let tpus = if ticks_per_us > 0.0 {
            ticks_per_us
        } else {
            1.0
        };
        let mut out = Self::default();
        // (last stage rank-point, its tsc) per live tag.
        let mut last: HashMap<u64, StageEvent> = HashMap::new();
        for e in events {
            if e.trace_tag().is_control() || e.stage.lifecycle_rank().is_none() {
                continue;
            }
            if let Some(prev) = last.insert(e.tag, *e) {
                let gap_us = (e.tsc.saturating_sub(prev.tsc) as f64 / tpus) as u64;
                match (prev.stage, e.stage) {
                    (Stage::Admitted, Stage::RingEnqueue) => {
                        out.admission_wait_us.record(gap_us);
                    }
                    (Stage::RingEnqueue, Stage::RingDequeue) => {
                        out.ring_residency_us.record(gap_us);
                    }
                    (Stage::FabricArrival, Stage::DecisionWin | Stage::MergeWin) => {
                        out.decision_latency_us.record(gap_us);
                    }
                    (Stage::DecisionWin | Stage::MergeWin, Stage::Service) => {
                        out.service_latency_us.record(gap_us);
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Merges the accumulators into `registry` as `ss_trace_*_us`
    /// histograms, joining the existing snapshot/Prometheus schema.
    pub fn publish(&self, registry: &Registry) {
        registry
            .histogram(
                "ss_trace_admission_wait_us",
                "Admitted -> ring enqueue latency (us)",
            )
            .merge_local(&self.admission_wait_us);
        registry
            .histogram(
                "ss_trace_ring_residency_us",
                "SPSC ring enqueue -> dequeue residency (us)",
            )
            .merge_local(&self.ring_residency_us);
        registry
            .histogram(
                "ss_trace_decision_latency_us",
                "Fabric arrival -> decision win latency (us)",
            )
            .merge_local(&self.decision_latency_us);
        registry
            .histogram(
                "ss_trace_service_latency_us",
                "Decision win -> service latency (us)",
            )
            .merge_local(&self.service_latency_us);
    }
}

/// Checks the causal invariant over a stitched stream: for every packet
/// tag, lifecycle ranks never decrease. Control tags and unranked stages
/// are exempt.
///
/// # Errors
/// Returns a description of the first regression found (tag, stages,
/// ranks) — test-assertion friendly.
pub fn validate_causal(events: &[StageEvent]) -> Result<(), String> {
    let mut last: HashMap<u64, (Stage, u8)> = HashMap::new();
    for e in events {
        if e.trace_tag().is_control() {
            continue;
        }
        let Some(rank) = e.stage.lifecycle_rank() else {
            continue;
        };
        if let Some(&(prev_stage, prev_rank)) = last.get(&e.tag) {
            if rank < prev_rank {
                return Err(format!(
                    "tag {:#018x}: stage {} (rank {}) after {} (rank {})",
                    e.tag,
                    e.stage.name(),
                    rank,
                    prev_stage.name(),
                    prev_rank
                ));
            }
        }
        last.insert(e.tag, (e.stage, rank));
    }
    Ok(())
}

/// Structural schema check for [`perfetto_json`] output: a JSON object
/// with a `traceEvents` array whose members each carry a string `name`,
/// a one-character `ph` from the emitted set, integer `pid`/`tid`, and —
/// for non-metadata phases — a numeric `ts` (plus `dur` on `"X"`).
///
/// # Errors
/// Returns a description of the first malformed event.
pub fn validate_perfetto_schema(json: &str) -> Result<(), String> {
    let value: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("not JSON: {e}"))?;
    let events = value
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        let obj = || format!("traceEvents[{i}]");
        ev.as_object()
            .ok_or_else(|| format!("{} not an object", obj()))?;
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{} missing string name", obj()))?;
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{} missing ph", obj()))?;
        if !matches!(ph, "i" | "X" | "M") {
            return Err(format!("{} has unexpected ph {ph:?}", obj()));
        }
        for key in ["pid", "tid"] {
            ev.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("{} ({name}) missing integer {key}", obj()))?;
        }
        if ph != "M" {
            ev.get("ts")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{} ({name}) missing numeric ts", obj()))?;
        }
        if ph == "X" {
            ev.get("dur")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{} ({name}) missing numeric dur", obj()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{detail, TraceTag};

    fn ev(tag: u64, tsc: u64, track: u16, stage: Stage) -> StageEvent {
        StageEvent {
            tag,
            tsc,
            cycle: 0,
            track,
            stage,
            detail: 0,
            arg: 0,
        }
    }

    fn sample_tracks() -> Vec<TrackDump> {
        let tag = TraceTag::new(0, 2, 0).0;
        vec![
            TrackDump {
                track: 0,
                name: "producer".into(),
                events: vec![
                    ev(tag, 100, 0, Stage::Admitted),
                    ev(tag, 110, 0, Stage::RingEnqueue),
                ],
                dropped: 0,
                total: 2,
            },
            TrackDump {
                track: 1,
                name: "scheduler \"shard 0\"".into(),
                events: vec![
                    ev(tag, 150, 1, Stage::RingDequeue),
                    ev(tag, 160, 1, Stage::FabricArrival),
                    ev(tag, 400, 1, Stage::DecisionWin),
                    ev(TraceTag::CONTROL.0, 500, 1, Stage::WatchdogTrip),
                ],
                dropped: 0,
                total: 4,
            },
            TrackDump {
                track: 2,
                name: "transmitter".into(),
                events: vec![ev(tag, 450, 2, Stage::Service)],
                dropped: 0,
                total: 1,
            },
        ]
    }

    #[test]
    fn perfetto_json_is_schema_valid_and_rebased() {
        let json = perfetto_json(&sample_tracks(), 1.0);
        validate_perfetto_schema(&json).unwrap();
        // Earliest event rebases to ts 0.
        assert!(json.contains("\"ts\":0.000"));
        // Track names flow into thread metadata, escaped.
        assert!(json.contains("scheduler \\\"shard 0\\\""));
        // Residency slices exist.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("ring_enqueue\\u2192ring_dequeue"));
    }

    #[test]
    fn schema_validator_rejects_garbage() {
        assert!(validate_perfetto_schema("not json").is_err());
        assert!(validate_perfetto_schema("{\"traceEvents\":7}").is_err());
        assert!(
            validate_perfetto_schema("{\"traceEvents\":[{\"ph\":\"i\"}]}")
                .unwrap_err()
                .contains("name")
        );
        assert!(validate_perfetto_schema(
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Q\",\"pid\":1,\"tid\":1,\"ts\":0}]}"
        )
        .unwrap_err()
        .contains("unexpected ph"));
    }

    #[test]
    fn causal_validation_passes_ordered_and_catches_regression() {
        let stitched = stitch(&sample_tracks());
        validate_causal(&stitched).unwrap();

        let tag = TraceTag::new(0, 1, 1).0;
        let bad = vec![
            ev(tag, 10, 0, Stage::Service),
            ev(tag, 20, 0, Stage::RingEnqueue),
        ];
        let err = validate_causal(&bad).unwrap_err();
        assert!(err.contains("ring_enqueue"), "{err}");
        assert!(err.contains("service"), "{err}");
    }

    #[test]
    fn control_events_are_exempt_from_causality() {
        // The same CONTROL tag hops stages arbitrarily — never an error.
        let evs = vec![
            ev(TraceTag::CONTROL.0, 10, 0, Stage::Service),
            ev(TraceTag::CONTROL.0, 20, 0, Stage::Admitted),
        ];
        validate_causal(&evs).unwrap();
    }

    #[test]
    fn stage_latencies_accumulate_the_four_gaps() {
        let stitched = stitch(&sample_tracks());
        // ticks are "ticks"; with 1 tick/us the gaps are literal.
        let lat = StageLatencies::from_events(&stitched, 1.0);
        assert_eq!(lat.admission_wait_us.count(), 1); // 100 -> 110
        assert_eq!(lat.ring_residency_us.count(), 1); // 110 -> 150
        assert_eq!(lat.decision_latency_us.count(), 1); // 160 -> 400
        assert_eq!(lat.service_latency_us.count(), 1); // 400 -> 450
        let registry = Registry::new();
        lat.publish(&registry);
        let snap = registry.snapshot();
        let prom = snap.to_prometheus();
        assert!(prom.contains("ss_trace_admission_wait_us"));
        assert!(prom.contains("ss_trace_service_latency_us"));
    }

    #[test]
    fn detail_codes_survive_into_json_args() {
        let mut tracks = sample_tracks();
        tracks[0].events[0].detail = detail::GATE_ADMITTED;
        let json = perfetto_json(&tracks, 1.0);
        validate_perfetto_schema(&json).unwrap();
        assert!(json.contains("\"detail\":0"));
    }
}
