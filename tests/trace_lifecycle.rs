//! Lifecycle-tracing contract, end to end: a traced run must leave
//! artifacts an operator can actually use.
//!
//! * **Causal order** — stitching every thread's span track by timestamp
//!   yields a stream where no packet's lifecycle ranks regress, even
//!   under a pinned chaos schedule (events really were recorded in the
//!   order the packet moved);
//! * **Perfetto-loadable** — the exported Chrome trace-event JSON passes
//!   the structural schema `chrome://tracing` / Perfetto require;
//! * **Automatic flight dumps** — a watchdog trip snapshots the lead-up
//!   without being asked, and the dump survives a JSON round trip
//!   byte-for-byte (proptest over arbitrary event windows);
//! * **Joined schema** — stage latencies and build metadata land in the
//!   same registry/Prometheus namespace as the existing metrics.
//!
//! Chaos schedules are pinned (`ss-faults` SplitMix64 streams), so a
//! failure here is a reproducible bug report, not a flaky roll.

use proptest::prelude::*;
use sharestreams::core::LatePolicy;
use sharestreams::prelude::*;
use sharestreams::telemetry::span::detail;
use sharestreams::telemetry::{
    stitch, validate_causal, DumpReason, FlightDump, Registry, SpanRecorder, Stage, StageEvent,
    TraceTag,
};

fn edf_state(period: u64) -> StreamState {
    StreamState {
        request_period: period,
        original_window: WindowConstraint::ZERO,
        static_prio: 0,
        late_policy: LatePolicy::ServeLate,
    }
}

/// Every `Stage` discriminant, for arbitrary-event generation.
const ALL_STAGES: [Stage; 15] = [
    Stage::Admitted,
    Stage::GateVerdict,
    Stage::RingEnqueue,
    Stage::RingDequeue,
    Stage::FabricArrival,
    Stage::DecisionWin,
    Stage::MergeWin,
    Stage::Service,
    Stage::Shed,
    Stage::PciTransfer,
    Stage::DecisionExpire,
    Stage::Failover,
    Stage::RungChange,
    Stage::BreakerOpen,
    Stage::WatchdogTrip,
];

fn arb_stage() -> impl Strategy<Value = Stage> {
    (0usize..ALL_STAGES.len()).prop_map(|i| ALL_STAGES[i])
}

fn arb_event() -> impl Strategy<Value = StageEvent> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u16>(),
        arb_stage(),
        any::<u8>(),
        any::<u32>(),
    )
        .prop_map(|(tag, tsc, cycle, track, stage, detail, arg)| StageEvent {
            tag,
            tsc,
            cycle,
            track,
            stage,
            detail,
            arg,
        })
}

fn arb_reason() -> impl Strategy<Value = DumpReason> {
    prop_oneof![
        Just(DumpReason::WatchdogTrip),
        Just(DumpReason::RungChange),
        Just(DumpReason::BreakerOpen),
        Just(DumpReason::Panic),
        Just(DumpReason::Manual),
    ]
}

proptest! {
    /// A flight dump is a post-mortem artifact: whatever window the
    /// recorder held — any stages, any tags, any loss accounting — must
    /// survive serialization to JSON and back unchanged.
    #[test]
    fn flight_dump_round_trips_through_json(
        events in proptest::collection::vec(arb_event(), 0..48),
        reason in arb_reason(),
        at_cycle in any::<u64>(),
        capacity in 1usize..4096,
        dropped in any::<u64>(),
    ) {
        let total = dropped.saturating_add(events.len() as u64);
        let dump = FlightDump {
            reason,
            at_cycle,
            capacity,
            dropped,
            total,
            ticks_per_us: 2_995.2,
            events,
        };
        let back = FlightDump::from_json(&dump.to_json()).expect("round trip parses");
        prop_assert_eq!(back, dump);
    }
}

/// A healthy traced chaos soak (pinned seed, injected ring-overflow
/// bursts and decision wedges) still yields: conserved accounting, a
/// causally-ordered stitched stream, Perfetto-loadable JSON, and stage
/// latencies that join the Prometheus schema.
#[cfg(feature = "faults")]
#[test]
fn traced_chaos_run_is_causal_and_perfetto_loadable() {
    use sharestreams::endsystem::{run_threaded_traced, TraceConfig};
    use sharestreams::telemetry::{perfetto_json, validate_perfetto_schema, StageLatencies};
    use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
    use std::sync::Arc;

    let slots = 8usize;
    let per_slot = 2_000u64;
    let offered = slots as u64 * per_slot;
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
    let states = (0..slots).map(|_| edf_state(slots as u64)).collect();
    let out = run_threaded_traced(
        FabricConfig::edf(slots, FabricConfigKind::WinnerOnly),
        states,
        per_slot,
        trace,
    )
    .expect("traced chaos run completes");

    assert_eq!(
        out.report.total + out.report.lost,
        offered,
        "offered load is conserved under chaos"
    );
    assert_eq!(out.tracks.len(), 3, "producer, scheduler, transmitter");

    let stitched = stitch(&out.tracks);
    validate_causal(&stitched).expect("stitched stream is causally ordered");
    let admitted = stitched
        .iter()
        .filter(|e| e.stage == Stage::Admitted)
        .count() as u64;
    assert_eq!(admitted, offered, "every offered packet was tag-stamped");

    let json = perfetto_json(&out.tracks, out.ticks_per_us);
    validate_perfetto_schema(&json).expect("export is Perfetto-loadable");

    // Stage latencies from the same stream join the metrics schema.
    let lat = StageLatencies::from_events(&stitched, out.ticks_per_us);
    assert!(
        lat.ring_residency_us.count() > 0 && lat.service_latency_us.count() > 0,
        "stage-gap histograms accumulated samples"
    );
    let registry = Registry::new();
    lat.publish(&registry);
    let prom = registry.snapshot().to_prometheus();
    assert!(
        prom.contains("ss_trace_ring_residency_us") && prom.contains("ss_trace_service_latency_us"),
        "latency histograms export through Prometheus"
    );
}

/// When the injector wedges every decision cycle, the watchdog trips and
/// the flight recorder dumps *automatically* — and the dump names the
/// trip, survives serde, and still reads causally.
#[cfg(feature = "faults")]
#[test]
fn watchdog_trip_takes_automatic_flight_dump() {
    use sharestreams::endsystem::{run_threaded_traced, TraceConfig};
    use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
    use std::sync::Arc;

    let slots = 4usize;
    let inj = Arc::new(FaultInjector::new(
        13,
        FaultConfig {
            decision_rate_ppm: 1_000_000,
            ..FaultConfig::quiet()
        },
    ));
    let mut trace = TraceConfig::new(1 << 14, 256);
    trace.faults = Some((inj, RetryPolicy::default()));
    let states = (0..slots).map(|_| edf_state(slots as u64)).collect();
    let out = run_threaded_traced(
        FabricConfig::edf(slots, FabricConfigKind::WinnerOnly),
        states,
        500,
        trace,
    )
    .expect("stuck run still returns a report");

    assert!(
        out.watchdog_trips >= 1,
        "the watchdog declared the path stuck"
    );
    let dump = out.flight_dump.expect("trip produced an automatic dump");
    assert_eq!(dump.reason, DumpReason::WatchdogTrip);
    assert!(
        dump.events.iter().any(|e| e.stage == Stage::WatchdogTrip),
        "the dump window contains the trip event itself"
    );
    let back = FlightDump::from_json(&dump.to_json()).expect("dump parses back");
    assert_eq!(back, dump, "post-mortem artifact survives serde");
    validate_causal(&dump.events).expect("dump window reads causally");
}

/// Sharded merge provenance: with spans attached, every merge decision
/// leaves a `MergeWin` whose detail names a real decision rule (or the
/// only-candidate marker), and the merged track joins a causal stitch.
#[test]
fn sharded_merge_spans_are_causal_with_valid_provenance() {
    let slots = 16usize;
    let recorder = SpanRecorder::new(1 << 12);
    let config = FabricConfig::edf(slots, FabricConfigKind::WinnerOnly);
    let mut sched = ShardedScheduler::<Traced>::with_telemetry(config, 4).unwrap();
    for s in 0..slots {
        sched
            .load_stream(s, edf_state(slots as u64), (s + 1) as u64)
            .unwrap();
        for a in 0..8u64 {
            sched.push_arrival(s, Wrap16::from_wide(a)).unwrap();
        }
    }
    sched.attach_spans(&recorder);
    let mut served = 0u64;
    for _ in 0..64 {
        if sched.decision_cycle().is_some() {
            served += 1;
        }
    }
    sched.detach_spans();
    assert!(served > 0, "the backlogged scheduler served packets");

    let tracks = recorder.drain();
    assert_eq!(tracks.len(), 1, "one merge track");
    let stitched = stitch(&tracks);
    validate_causal(&stitched).expect("merge track reads causally");
    let wins: Vec<&StageEvent> = stitched
        .iter()
        .filter(|e| e.stage == Stage::MergeWin)
        .collect();
    assert_eq!(
        wins.len(),
        served as usize,
        "one MergeWin per served packet"
    );
    for w in wins {
        assert!(
            w.detail <= 8 || w.detail == detail::MERGE_ONLY_CANDIDATE,
            "detail {} names a DecisionRule or the only-candidate marker",
            w.detail
        );
        let tag = w.trace_tag();
        assert_eq!(
            tag.slot() as u32,
            w.arg,
            "tag slot field carries the winning global slot"
        );
        assert_eq!(
            tag.origin() as usize,
            w.arg as usize * 4 / slots,
            "tag origin names the winning shard"
        );
    }
}

/// `publish_build_info` exposes version + compiled features as the
/// standard `ss_build_info` join gauge, in the same registry namespace
/// as everything else.
#[test]
fn build_info_gauge_carries_version_and_features() {
    let registry = Registry::new();
    sharestreams::publish_build_info(&registry);
    let snap = registry.snapshot();
    let info = snap
        .metrics
        .iter()
        .find(|m| m.name == "ss_build_info")
        .expect("ss_build_info present");
    let label = |key: &str| {
        info.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    assert_eq!(label("version"), env!("CARGO_PKG_VERSION"));
    let compiled = if cfg!(feature = "faults") {
        "faults"
    } else {
        ""
    };
    assert_eq!(label("features"), compiled, "names the compiled features");
    assert!(registry
        .snapshot()
        .to_prometheus()
        .contains("ss_build_info"));
}

proptest! {
    /// The 8-byte trace tag's packing is part of the wire format: fields
    /// round-trip exactly and the control tag is unmistakable.
    #[test]
    fn trace_tag_packing_round_trips(origin in any::<u16>(), slot in any::<u16>(), seq in any::<u32>()) {
        let tag = TraceTag::new(origin, slot, seq);
        prop_assert_eq!(tag.origin(), origin);
        prop_assert_eq!(tag.slot(), slot);
        prop_assert_eq!(tag.seq(), seq);
        prop_assert!(!tag.is_control() || tag.0 == u64::MAX);
    }
}
