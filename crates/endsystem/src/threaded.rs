//! A real multi-threaded endsystem pipeline over the SPSC rings.
//!
//! Three threads mirror the paper's concurrency design (§4.2, "concurrency
//! between packet queuing, scheduling and transmission"):
//!
//! * **producer** — generates arrivals and pushes them into an SPSC ring
//!   (the per-stream circular queues);
//! * **scheduler** — drains the arrival ring into the fabric simulation,
//!   runs decision cycles, and pushes winning stream IDs into a second
//!   SPSC ring;
//! * **transmitter** — consumes stream IDs and accounts per-stream service.
//!
//! No locks anywhere on the data path — only the two rings. This is the
//! engine behind the `host_router` example and the threaded-throughput
//! bench; [`run_threaded`] returns per-stream counts and the measured
//! end-to-end rate.

use crate::faults::EndsystemFaults;
use crate::spsc::{spsc_ring, RingStats};
use ss_core::{DecisionWatchdog, Fabric, FabricConfig, WatchdogVerdict};
use ss_core::{LatePolicy, StreamState};
use ss_overload::{Gate, GateConfig, LossLedger, LossSite};
use ss_types::{Error, Result, Wrap16};
use std::time::Instant;

/// An arrival message on the producer → scheduler ring.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalMsg {
    /// Destination slot.
    pub slot: usize,
    /// 16-bit arrival tag.
    pub tag: Wrap16,
}

/// Results of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// Packets transmitted per slot.
    pub per_slot: Vec<u64>,
    /// Total packets through the pipeline.
    pub total: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// End-to-end packets/second.
    pub pps: f64,
    /// Producer → scheduler arrival-ring statistics (pushes, backpressure
    /// rejections, occupancy high-water). Rejections here mean the producer
    /// observed a full ring and had to retry — previously invisible.
    pub arr_ring: RingStats,
    /// Scheduler → transmitter winner-ID-ring statistics.
    pub id_ring: RingStats,
    /// Packets lost to faults: dropped at an overflowing arrival ring, or
    /// abandoned when the scheduler's watchdog declared the fabric stuck.
    /// Always 0 in a fault-free run — loss is bounded and *counted*, never
    /// silent. Equals `loss.total()` exactly; kept as a scalar for
    /// backward compatibility.
    pub lost: u64,
    /// The same loss, classified by the unique site that consumed each
    /// packet (admission / ring / shed / shard). Earlier revisions folded
    /// everything into the one scalar above, which made it impossible to
    /// tell an overflowing ring from an abandoned backlog — and easy to
    /// count a packet at two sites. The ledger partition is exact:
    /// `loss.total() == lost`, asserted in tests.
    pub loss: LossLedger,
}

/// Runs the three-thread pipeline: `arrivals_per_slot` packets are pushed
/// for each configured slot, scheduled by a fabric built from `config` and
/// `states`, and drained by the transmitter.
///
/// # Panics
/// Panics if `states.len() != config.slots`.
pub fn run_threaded(
    config: FabricConfig,
    states: Vec<StreamState>,
    arrivals_per_slot: u64,
) -> Result<ThreadedReport> {
    run_threaded_inner(
        config,
        states,
        arrivals_per_slot,
        EndsystemFaults::new(),
        |_| {},
    )
    .map(|(report, _)| report)
}

/// Like [`run_threaded`], but wires both the fabric and the endsystem seams
/// to a shared fault injector: decision cycles can wedge or crash, arrival
/// enqueues can hit injected overflow bursts (dropped and counted, never
/// spun on forever), and the scheduler's watchdog abandons the backlog —
/// counted into [`ThreadedReport::lost`] and the injector's
/// `lost_packets` — if the fabric stays stuck past its threshold.
#[cfg(feature = "faults")]
pub fn run_threaded_faulted(
    config: FabricConfig,
    states: Vec<StreamState>,
    arrivals_per_slot: u64,
    injector: std::sync::Arc<ss_faults::FaultInjector>,
    policy: ss_faults::RetryPolicy,
) -> Result<ThreadedReport> {
    let mut faults = EndsystemFaults::new();
    faults.attach(injector.clone(), policy);
    run_threaded_inner(config, states, arrivals_per_slot, faults, move |f| {
        f.attach_faults(injector)
    })
    .map(|(report, _)| report)
}

/// Like [`run_threaded`], but attaches the fabric to a telemetry registry
/// (shard 0) before the pipeline starts and returns the per-stream QoS
/// report alongside the throughput report. Ring and pipeline statistics
/// are published into the registry (`ss_endsystem_*`) after the run.
#[cfg(feature = "telemetry")]
pub fn run_threaded_instrumented(
    config: FabricConfig,
    states: Vec<StreamState>,
    arrivals_per_slot: u64,
    registry: &ss_telemetry::Registry,
    trace_capacity: usize,
) -> Result<(ThreadedReport, ss_telemetry::QosSet)> {
    let reg = registry.clone();
    let (report, mut fabric) = run_threaded_inner(
        config,
        states,
        arrivals_per_slot,
        EndsystemFaults::new(),
        move |f| f.attach_telemetry(&reg, 0, trace_capacity),
    )?;
    // The fabric batches its observations locally; drain them so the
    // registry is complete before this function's snapshot-style returns.
    fabric.flush_telemetry();
    publish_ring_stats(registry, "arrivals", &report.arr_ring);
    publish_ring_stats(registry, "ids", &report.id_ring);
    registry
        .counter(
            "ss_endsystem_packets_total",
            "Packets through the threaded pipeline",
        )
        .add(report.total);
    registry
        .gauge(
            "ss_endsystem_pps",
            "End-to-end packets per second of the last threaded run",
        )
        .set(report.pps as i64);
    Ok((report, fabric.qos_snapshot()))
}

#[cfg(feature = "telemetry")]
fn publish_ring_stats(registry: &ss_telemetry::Registry, ring: &str, stats: &RingStats) {
    let labels: &[(&str, &str)] = &[("ring", ring)];
    registry
        .counter_labeled(
            "ss_endsystem_ring_pushes_total",
            labels,
            "Successful SPSC ring enqueues",
        )
        .add(stats.pushes);
    registry
        .counter_labeled(
            "ss_endsystem_ring_rejections_total",
            labels,
            "SPSC ring enqueues rejected by a full ring (backpressure)",
        )
        .add(stats.rejections);
    registry
        .gauge_labeled(
            "ss_endsystem_ring_high_water",
            labels,
            "Producer-observed SPSC ring occupancy high-water mark",
        )
        .fetch_max(stats.high_water as i64);
}

/// Results of an overload-gated threaded run: the plain report plus the
/// gate's accounting.
#[derive(Debug, Clone)]
pub struct OverloadRunReport {
    /// The underlying pipeline report. `report.loss` merges the ring/shard
    /// sites from the pipeline with the gate's ledger; the partition stays
    /// exact: `report.lost == report.loss.total()` and
    /// `report.total + report.lost == offered`.
    pub report: ThreadedReport,
    /// Arrivals offered to the gate by the scheduler thread.
    pub offered: u64,
    /// Arrivals the gate admitted into the fabric.
    pub admitted: u64,
    /// Pressure-level transitions over the run (hysteresis audit: bounded
    /// even under oscillating load).
    pub pressure_transitions: u64,
    /// Producer pacing pauses taken in response to published backpressure.
    pub holdbacks: u64,
}

/// Like [`run_threaded`], but with the overload control plane engaged end
/// to end: the scheduler thread runs every drained arrival through an
/// [`ss_overload::Gate`] mirroring the fabric backlog (token-bucket
/// admission squeezed by pressure, RED + QoS-aware shedding), publishes the
/// hysteresis pressure level through the gate's
/// [`ss_overload::SharedPressure`], and the producer thread throttles its
/// ingest on that signal (the hierarchical backpressure path: fabric
/// backlog → pressure level → Stream-processor pacing; the rule is stated
/// in [`ss_overload::gate`]). Loss is classified by site and conserved
/// exactly.
pub fn run_threaded_overload(
    config: FabricConfig,
    states: Vec<StreamState>,
    arrivals_per_slot: u64,
    gate_config: GateConfig,
) -> Result<OverloadRunReport> {
    assert_eq!(states.len(), config.slots, "one StreamState per slot");
    let slots = config.slots;
    let mut fabric = Fabric::new(config)?;
    for (i, st) in states.into_iter().enumerate() {
        let period = st.request_period;
        fabric.load_stream(i, st, period)?;
    }
    let mut gate = Gate::<()>::new(gate_config);
    let shared = gate.core().shared_pressure();

    let (mut arr_tx, mut arr_rx) = spsc_ring::<ArrivalMsg>(4096);
    let (mut id_tx, mut id_rx) = spsc_ring::<u8>(4096);

    let start = Instant::now();

    let producer = std::thread::spawn(move || {
        let mut holdbacks = 0u64;
        let mut seq = 0u64;
        for q in 0..arrivals_per_slot {
            for slot in 0..slots {
                // Hierarchical backpressure: the published pressure level
                // asks this thread to hold back 0, 1 or 3 of every 4
                // arrivals' worth of pacing. A holdback is a bounded yield,
                // not a drop — ingest slows, nothing is lost here.
                let hb = ss_overload::SharedPressure::holdback_per_4(shared.level()) as u64;
                if hb > 0 && seq % 4 < hb {
                    holdbacks += 1;
                    std::thread::yield_now();
                }
                seq += 1;
                let mut msg = ArrivalMsg {
                    slot,
                    tag: Wrap16::from_wide(q),
                };
                loop {
                    match arr_tx.push(msg) {
                        Ok(()) => break,
                        Err(back) => {
                            msg = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        }
        holdbacks
    });

    let ring_capacity = 4096usize;
    let scheduler = std::thread::spawn(move || {
        let mut pending = 0u64;
        let mut loss = LossLedger::new();
        let mut watchdog = DecisionWatchdog::new(SCHEDULER_STALL_THRESHOLD, 1);
        let mut arr_batch: Vec<(usize, Wrap16)> = Vec::with_capacity(4096);
        loop {
            arr_batch.clear();
            while arr_batch.len() < arr_batch.capacity() {
                match arr_rx.pop() {
                    // Refusals are already in the gate's ledger.
                    Some(msg) if msg.slot < slots => {
                        if gate.offer(msg.slot, ()).admits() {
                            arr_batch.push((msg.slot, msg.tag));
                        }
                    }
                    Some(_) => loss.record(LossSite::Ring),
                    None => break,
                }
            }
            match fabric.push_arrivals(&arr_batch) {
                Ok(()) => pending += arr_batch.len() as u64,
                Err(_) => loss.record_n(LossSite::Ring, arr_batch.len() as u64),
            }
            // One control tick per scheduler sweep: ring occupancy plus the
            // fabric backlog against their combined budget drives the
            // pressure signal (and through it admission refill and the
            // producer's pacing).
            let occupied = arr_rx.len() + pending.min(ring_capacity as u64) as usize;
            gate.mirror_tick(occupied, 2 * ring_capacity);
            if pending == 0 {
                if arr_rx.is_disconnected() && arr_rx.is_empty() {
                    break;
                }
                std::hint::spin_loop();
                continue;
            }
            let packets = fabric.decision_cycle_into();
            let produced = packets.len() as u64;
            pending -= produced;
            for p in packets {
                gate.mirror_served(p.slot.index());
                let mut id = p.slot.raw();
                loop {
                    match id_tx.push(id) {
                        Ok(()) => break,
                        Err(back) => {
                            id = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
            if watchdog.observe(produced > 0, pending > 0) == WatchdogVerdict::Stuck {
                loss.record_n(LossSite::Shard, pending);
                loop {
                    match arr_rx.pop() {
                        Some(_) => loss.record(LossSite::Shard),
                        None => {
                            if arr_rx.is_disconnected() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
                break;
            }
        }
        (arr_rx.stats(), gate, loss)
    });

    let mut per_slot = vec![0u64; slots];
    let expected = arrivals_per_slot * slots as u64;
    let mut got = 0u64;
    while got < expected {
        match id_rx.pop() {
            Some(id) => {
                per_slot[id as usize] += 1;
                got += 1;
            }
            None => {
                if id_rx.is_disconnected() && id_rx.is_empty() {
                    break;
                }
                std::hint::spin_loop();
            }
        }
    }

    let holdbacks = producer.join().map_err(|_| Error::DegradedMode {
        reason: "endsystem producer thread panicked".into(),
    })?;
    let (arr_ring, gate, mut loss) = scheduler.join().map_err(|_| Error::DegradedMode {
        reason: "endsystem scheduler thread panicked".into(),
    })?;
    let id_ring = id_rx.stats();

    loss.merge(gate.core().ledger());
    let wall_seconds = start.elapsed().as_secs_f64();
    let total: u64 = per_slot.iter().sum();
    Ok(OverloadRunReport {
        report: ThreadedReport {
            per_slot,
            total,
            wall_seconds,
            pps: total as f64 / wall_seconds,
            arr_ring,
            id_ring,
            lost: loss.total(),
            loss,
        },
        offered: gate.offered(),
        admitted: gate.served() + gate.backlog_len() as u64,
        pressure_transitions: gate.core().pressure_transitions(),
        holdbacks,
    })
}

/// Tracing knobs for [`run_threaded_traced`].
#[cfg(feature = "telemetry")]
#[derive(Clone)]
pub struct TraceConfig {
    /// Capacity (events) of each per-thread span track.
    pub span_capacity: usize,
    /// Capacity (events) of the always-on flight recorder.
    pub flight_capacity: usize,
    /// Overload gate in front of the fabric (runs on the scheduler
    /// thread), if any.
    pub gate: Option<GateConfig>,
    /// Fault injector wired into the fabric and the producer's ring
    /// seam, if any — the chaos half of a traced chaos soak.
    #[cfg(feature = "faults")]
    pub faults: Option<(
        std::sync::Arc<ss_faults::FaultInjector>,
        ss_faults::RetryPolicy,
    )>,
}

#[cfg(feature = "telemetry")]
impl TraceConfig {
    /// Tracing with the given capacities and no gate or faults.
    pub fn new(span_capacity: usize, flight_capacity: usize) -> Self {
        Self {
            span_capacity,
            flight_capacity,
            gate: None,
            #[cfg(feature = "faults")]
            faults: None,
        }
    }
}

/// Results of a traced threaded run: the plain report plus the lifecycle
/// artifacts (span tracks, flight dump).
#[cfg(feature = "telemetry")]
#[derive(Debug)]
pub struct TracedReport {
    /// The underlying pipeline report.
    pub report: ThreadedReport,
    /// Drained span tracks (producer, scheduler, transmitter), ready for
    /// [`ss_telemetry::stitch`] / [`ss_telemetry::perfetto_json`].
    pub tracks: Vec<ss_telemetry::TrackDump>,
    /// The automatic flight-recorder dump taken when the scheduler's
    /// watchdog tripped; `None` in a healthy run.
    pub flight_dump: Option<ss_telemetry::FlightDump>,
    /// Watchdog trips observed by the scheduler thread.
    pub watchdog_trips: u64,
    /// Timestamp scale for the events' `tsc` fields.
    pub ticks_per_us: f64,
}

/// An arrival on the traced producer → scheduler ring: the plain message
/// plus the full 8-byte trace tag (the untraced rings stay unwidened —
/// this runner has its own ring type).
#[cfg(feature = "telemetry")]
#[derive(Debug, Clone, Copy)]
struct TracedArrival {
    slot: usize,
    tag16: Wrap16,
    trace: u64,
}

/// Like [`run_threaded`], but with per-packet lifecycle tracing on: the
/// producer mints an 8-byte trace tag per arrival and each thread records
/// its stage crossings (admission, SPSC enqueue/dequeue, gate verdict,
/// fabric arrival, decision win, service, shed) into a per-thread span
/// track, while a shared flight recorder keeps the most recent events and
/// dumps automatically when the scheduler's watchdog trips. The
/// [`TraceConfig`] can also engage the gate and (with the `faults`
/// feature) a fault injector, so a chaos soak leaves a causally-ordered
/// post-mortem artifact instead of just pass/fail.
#[cfg(feature = "telemetry")]
pub fn run_threaded_traced(
    config: FabricConfig,
    states: Vec<StreamState>,
    arrivals_per_slot: u64,
    trace: TraceConfig,
) -> Result<TracedReport> {
    use ss_telemetry::span::detail;
    use ss_telemetry::{clock, DumpReason, SharedFlightRecorder, SpanRecorder, Stage, StageEvent, TraceTag};
    use std::collections::VecDeque;

    assert_eq!(states.len(), config.slots, "one StreamState per slot");
    let slots = config.slots;
    let mut fabric = Fabric::new(config)?;
    for (i, st) in states.into_iter().enumerate() {
        let period = st.request_period;
        fabric.load_stream(i, st, period)?;
    }

    #[cfg_attr(not(feature = "faults"), allow(unused_mut))]
    let mut es_faults = EndsystemFaults::new();
    #[cfg(feature = "faults")]
    if let Some((inj, pol)) = &trace.faults {
        es_faults.attach(inj.clone(), *pol);
        fabric.attach_faults(inj.clone());
    }
    let mut gate = trace.gate.clone().map(Gate::<()>::new);

    let spans = SpanRecorder::new(trace.span_capacity);
    let flight = SharedFlightRecorder::new(trace.flight_capacity);

    let (mut arr_tx, mut arr_rx) = spsc_ring::<TracedArrival>(4096);
    let (mut id_tx, mut id_rx) = spsc_ring::<(u8, u64)>(4096);

    let start = Instant::now();

    let prod_spans = spans.clone();
    let prod_faults = es_faults;
    let producer = std::thread::spawn(move || {
        let mut track = prod_spans.track("producer");
        let mut loss = LossLedger::new();
        for q in 0..arrivals_per_slot {
            for slot in 0..slots {
                let tag = TraceTag::new(0, slot as u16, q as u32).0;
                track.record(tag, 0, Stage::Admitted, 0, slot as u32);
                let mut msg = TracedArrival {
                    slot,
                    tag16: Wrap16::from_wide(q),
                    trace: tag,
                };
                let mut fresh_episode = true;
                let mut pushed = true;
                loop {
                    match arr_tx.push(msg) {
                        Ok(()) => break,
                        Err(back) => {
                            if fresh_episode && prod_faults.ring_overflows() {
                                // Injected overflow burst: drop, account,
                                // and leave a terminal Shed on the trace.
                                loss.record(LossSite::Ring);
                                track.record(tag, 0, Stage::Shed, detail::SHED_RING, slot as u32);
                                pushed = false;
                                break;
                            }
                            fresh_episode = false;
                            msg = back;
                            std::hint::spin_loop();
                        }
                    }
                }
                if pushed {
                    track.record(tag, 0, Stage::RingEnqueue, 0, slot as u32);
                }
            }
        }
        loss
    });

    let sched_spans = spans.clone();
    let sched_flight = flight.clone();
    let scheduler = std::thread::spawn(move || {
        let mut track = sched_spans.track("scheduler");
        let sched_track = track.id();
        let mut pending = 0u64;
        let mut loss = LossLedger::new();
        let mut watchdog = DecisionWatchdog::new(SCHEDULER_STALL_THRESHOLD, 1);
        let mut arr_batch: Vec<(usize, Wrap16)> = Vec::with_capacity(4096);
        let mut batch_tags: Vec<u64> = Vec::with_capacity(4096);
        let mut win_buf = Vec::with_capacity(4096);
        // Admitted-but-unserved trace tags, FIFO per slot: the fabric
        // serves each slot's queue in arrival order, so the front of a
        // slot's queue is exactly the packet its next win (or expiry)
        // consumes — this is how wins map back to tags without widening
        // the fabric's wire types.
        let mut admitted_tags: Vec<VecDeque<u64>> = vec![VecDeque::new(); slots];
        // Per-slot fabric drop counters at the last sweep; a delta means
        // `DropLate` expiries consumed head packets.
        let mut seen_dropped: Vec<u64> = vec![0; slots];
        let ring_capacity = 4096usize;
        loop {
            arr_batch.clear();
            batch_tags.clear();
            while arr_batch.len() < arr_batch.capacity() {
                match arr_rx.pop() {
                    Some(msg) if msg.slot < slots => {
                        track.record(msg.trace, 0, Stage::RingDequeue, 0, msg.slot as u32);
                        if let Some(g) = &mut gate {
                            let reason = g.offer(msg.slot, ());
                            track.record(
                                msg.trace,
                                0,
                                Stage::GateVerdict,
                                reason.code(),
                                msg.slot as u32,
                            );
                            if !reason.admits() {
                                // Refusals are in the gate's ledger.
                                track.record(
                                    msg.trace,
                                    0,
                                    Stage::Shed,
                                    reason.code(),
                                    msg.slot as u32,
                                );
                                sched_flight.record(StageEvent {
                                    tag: msg.trace,
                                    tsc: clock::now_tsc(),
                                    cycle: fabric.decision_count(),
                                    track: sched_track,
                                    stage: Stage::Shed,
                                    detail: reason.code(),
                                    arg: msg.slot as u32,
                                });
                                continue;
                            }
                        }
                        arr_batch.push((msg.slot, msg.tag16));
                        batch_tags.push(msg.trace);
                    }
                    Some(msg) => {
                        loss.record(LossSite::Ring);
                        track.record(msg.trace, 0, Stage::Shed, detail::SHED_RING, 0);
                    }
                    None => break,
                }
            }
            match fabric.push_arrivals(&arr_batch) {
                Ok(()) => {
                    pending += arr_batch.len() as u64;
                    let cycle = fabric.decision_count();
                    for (&(slot, _), &tag) in arr_batch.iter().zip(&batch_tags) {
                        track.record(tag, cycle, Stage::FabricArrival, 0, slot as u32);
                        admitted_tags[slot].push_back(tag);
                    }
                }
                // Unreachable after validation; counted rather than panicked.
                Err(_) => loss.record_n(LossSite::Ring, arr_batch.len() as u64),
            }
            if let Some(g) = &mut gate {
                let occupied = arr_rx.len() + pending.min(ring_capacity as u64) as usize;
                g.mirror_tick(occupied, 2 * ring_capacity);
            }
            if pending == 0 {
                if arr_rx.is_disconnected() && arr_rx.is_empty() {
                    break;
                }
                std::hint::spin_loop();
                continue;
            }
            let packets = fabric.decision_cycle_into();
            let produced = packets.len() as u64;
            pending -= produced;
            win_buf.clear();
            win_buf.extend(packets.iter().map(|p| p.slot));
            let cycle = fabric.decision_count();
            let arm = if fabric.is_batched() {
                detail::DECISION_BATCHED
            } else {
                detail::DECISION_SCALAR
            };
            for p in &win_buf {
                let slot = p.index();
                let tag = admitted_tags[slot]
                    .pop_front()
                    .unwrap_or(ss_telemetry::TraceTag::CONTROL.0);
                track.record(tag, cycle, Stage::DecisionWin, arm, slot as u32);
                sched_flight.record(StageEvent {
                    tag,
                    tsc: clock::now_tsc(),
                    cycle,
                    track: sched_track,
                    stage: Stage::DecisionWin,
                    detail: arm,
                    arg: slot as u32,
                });
                if let Some(g) = &mut gate {
                    g.mirror_served(slot);
                }
                let mut id = (p.raw(), tag);
                loop {
                    match id_tx.push(id) {
                        Ok(()) => break,
                        Err(back) => {
                            id = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
            // `DropLate` expiries consume head packets without a win:
            // surface them as terminal Shed events so the tag queues stay
            // aligned with the fabric's per-slot FIFOs.
            for slot in 0..slots {
                let dropped = fabric
                    .slot_counters(slot)
                    .map(|c| c.dropped)
                    .unwrap_or(seen_dropped[slot]);
                while seen_dropped[slot] < dropped {
                    seen_dropped[slot] += 1;
                    pending = pending.saturating_sub(1);
                    if let Some(tag) = admitted_tags[slot].pop_front() {
                        track.record(tag, cycle, Stage::Shed, detail::SHED_EXPIRED, slot as u32);
                    }
                }
            }
            if watchdog.observe(produced > 0, pending > 0) == WatchdogVerdict::Stuck {
                // Stuck path: leave the trip on both recording surfaces,
                // write the backlog off (counted), and take the automatic
                // flight dump — the post-mortem artifact.
                track.record(
                    ss_telemetry::TraceTag::CONTROL.0,
                    cycle,
                    Stage::WatchdogTrip,
                    0,
                    watchdog.trips() as u32,
                );
                sched_flight.record_control(
                    cycle,
                    sched_track,
                    Stage::WatchdogTrip,
                    0,
                    watchdog.trips() as u32,
                );
                loss.record_n(LossSite::Shard, pending);
                for (slot, tags) in admitted_tags.iter_mut().enumerate() {
                    while let Some(tag) = tags.pop_front() {
                        track.record(tag, cycle, Stage::Shed, detail::SHED_SHARD, slot as u32);
                    }
                }
                loop {
                    match arr_rx.pop() {
                        Some(msg) => {
                            loss.record(LossSite::Shard);
                            track.record(
                                msg.trace,
                                cycle,
                                Stage::Shed,
                                detail::SHED_SHARD,
                                msg.slot as u32,
                            );
                        }
                        None => {
                            if arr_rx.is_disconnected() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
                sched_flight.auto_dump(DumpReason::WatchdogTrip, cycle);
                break;
            }
        }
        if let Some(g) = &gate {
            loss.merge(g.core().ledger());
        }
        (arr_rx.stats(), loss, watchdog.trips())
    });

    // Transmitter runs on the calling thread, recording Service events.
    let mut tx_track = spans.track("transmitter");
    let mut per_slot = vec![0u64; slots];
    let expected = arrivals_per_slot * slots as u64;
    let mut got = 0u64;
    while got < expected {
        match id_rx.pop() {
            Some((id, tag)) => {
                per_slot[id as usize] += 1;
                got += 1;
                tx_track.record(tag, 0, Stage::Service, 0, id as u32);
            }
            None => {
                if id_rx.is_disconnected() && id_rx.is_empty() {
                    break;
                }
                std::hint::spin_loop();
            }
        }
    }
    drop(tx_track);

    let prod_loss = producer.join().map_err(|_| Error::DegradedMode {
        reason: "endsystem producer thread panicked".into(),
    })?;
    let (arr_ring, sched_loss, watchdog_trips) =
        scheduler.join().map_err(|_| Error::DegradedMode {
            reason: "endsystem scheduler thread panicked".into(),
        })?;
    let id_ring = id_rx.stats();

    let wall_seconds = start.elapsed().as_secs_f64();
    let total: u64 = per_slot.iter().sum();
    let mut loss = prod_loss;
    loss.merge(&sched_loss);
    Ok(TracedReport {
        report: ThreadedReport {
            per_slot,
            total,
            wall_seconds,
            pps: total as f64 / wall_seconds,
            arr_ring,
            id_ring,
            lost: loss.total(),
            loss,
        },
        tracks: spans.drain(),
        flight_dump: flight.take_last_dump(),
        watchdog_trips,
        ticks_per_us: clock::ticks_per_us(),
    })
}

/// How many consecutive unproductive-with-backlog decision cycles the
/// scheduler thread tolerates before declaring the fabric stuck. Must
/// comfortably exceed any transient injected wedge
/// ([`ss_faults::FaultConfig::max_stuck_cycles`] defaults to 8) so only
/// crashes and chained wedges trip it.
const SCHEDULER_STALL_THRESHOLD: u32 = 64;

fn run_threaded_inner(
    config: FabricConfig,
    states: Vec<StreamState>,
    arrivals_per_slot: u64,
    faults: EndsystemFaults,
    attach: impl FnOnce(&mut Fabric),
) -> Result<(ThreadedReport, Fabric)> {
    assert_eq!(states.len(), config.slots, "one StreamState per slot");
    let slots = config.slots;
    let mut fabric = Fabric::new(config)?;
    for (i, st) in states.into_iter().enumerate() {
        let period = st.request_period;
        fabric.load_stream(i, st, period)?;
    }
    attach(&mut fabric);

    let (mut arr_tx, mut arr_rx) = spsc_ring::<ArrivalMsg>(4096);
    let (mut id_tx, mut id_rx) = spsc_ring::<u8>(4096);

    let prod_faults = faults.clone();
    #[cfg(feature = "faults")]
    let sched_faults = faults;
    #[cfg(not(feature = "faults"))]
    let _ = faults; // zero-sized stand-in; only the producer's copy is used

    let start = Instant::now();

    let producer = std::thread::spawn(move || {
        let mut loss = LossLedger::new();
        for q in 0..arrivals_per_slot {
            for slot in 0..slots {
                let mut msg = ArrivalMsg {
                    slot,
                    tag: Wrap16::from_wide(q),
                };
                // One fault sample per full-ring episode (not per spin), so
                // the injected-count stays proportional to real
                // backpressure events rather than spin frequency.
                let mut fresh_episode = true;
                loop {
                    match arr_tx.push(msg) {
                        Ok(()) => break,
                        Err(back) => {
                            if fresh_episode && prod_faults.ring_overflows() {
                                // Injected overflow burst on a full ring:
                                // drop the packet and account it instead of
                                // spinning against the pressure spike.
                                loss.record(LossSite::Ring);
                                #[cfg(feature = "faults")]
                                if let Some(inj) = prod_faults.injector() {
                                    inj.stats()
                                        .lost_packets
                                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                                break;
                            }
                            fresh_episode = false;
                            msg = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        }
        // Dropping arr_tx disconnects the ring: the scheduler sees
        // empty + disconnected and finishes.
        loss
    });

    let scheduler = std::thread::spawn(move || {
        let mut pending = 0u64;
        let mut loss = LossLedger::new();
        let mut watchdog = DecisionWatchdog::new(SCHEDULER_STALL_THRESHOLD, 1);
        // Reusable batch buffer: arrivals are drained from the ring in one
        // sweep and deposited with `push_arrivals`, and the decision cycle
        // runs through the zero-allocation `decision_cycle_into` view — the
        // scheduler thread's steady-state loop never touches the heap.
        let mut arr_batch: Vec<(usize, Wrap16)> = Vec::with_capacity(4096);
        loop {
            // Drain arrivals into the fabric (one batched deposit). Slots
            // are validated here — a corrupt message is counted as lost, so
            // `push_arrivals` below cannot fail and nothing panics.
            arr_batch.clear();
            while arr_batch.len() < arr_batch.capacity() {
                match arr_rx.pop() {
                    Some(msg) if msg.slot < slots => arr_batch.push((msg.slot, msg.tag)),
                    // Corrupted in the ring: the ring consumed it.
                    Some(_) => loss.record(LossSite::Ring),
                    None => break,
                }
            }
            match fabric.push_arrivals(&arr_batch) {
                Ok(()) => pending += arr_batch.len() as u64,
                // Unreachable after validation; counted rather than panicked.
                Err(_) => loss.record_n(LossSite::Ring, arr_batch.len() as u64),
            }
            if pending == 0 {
                if arr_rx.is_disconnected() && arr_rx.is_empty() {
                    break;
                }
                std::hint::spin_loop();
                continue;
            }
            let packets = fabric.decision_cycle_into();
            let produced = packets.len() as u64;
            pending -= produced;
            for p in packets {
                let mut id = p.slot.raw();
                loop {
                    match id_tx.push(id) {
                        Ok(()) => break,
                        Err(back) => {
                            id = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
            if watchdog.observe(produced > 0, pending > 0) == WatchdogVerdict::Stuck {
                // The fabric stayed unproductive past the threshold — a
                // crashed card or chained stuck windows, not a transient
                // wedge. Abandon the backlog (counted, bounded) and drain
                // the producer dry so it can never deadlock pushing into a
                // full ring nobody reads. Everything written off here —
                // the deposited backlog and the still-ringed arrivals —
                // is lost to the dead scheduling path, not to the rings:
                // one site per packet, no double count.
                loss.record_n(LossSite::Shard, pending);
                loop {
                    match arr_rx.pop() {
                        Some(_) => loss.record(LossSite::Shard),
                        None => {
                            if arr_rx.is_disconnected() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
                #[cfg(feature = "faults")]
                if let Some(inj) = sched_faults.injector() {
                    use std::sync::atomic::Ordering;
                    inj.stats().detected.fetch_add(1, Ordering::Relaxed);
                    inj.stats()
                        .lost_packets
                        .fetch_add(loss.total(), Ordering::Relaxed);
                }
                break;
            }
        }
        // The loop only exits once the producer disconnected, so its final
        // ring stats are published and exact here.
        (arr_rx.stats(), fabric, loss)
    });

    // Transmitter runs on the calling thread. It stops at the expected
    // count or — if the scheduler abandoned a stuck fabric — when the
    // winner ring disconnects, so loss upstream never hangs this loop.
    let mut per_slot = vec![0u64; slots];
    let expected = arrivals_per_slot * slots as u64;
    let mut got = 0u64;
    while got < expected {
        match id_rx.pop() {
            Some(id) => {
                per_slot[id as usize] += 1;
                got += 1;
            }
            None => {
                if id_rx.is_disconnected() && id_rx.is_empty() {
                    break;
                }
                std::hint::spin_loop();
            }
        }
    }

    let prod_loss = producer.join().map_err(|_| Error::DegradedMode {
        reason: "endsystem producer thread panicked".into(),
    })?;
    let (arr_ring, fabric, sched_loss) = scheduler.join().map_err(|_| Error::DegradedMode {
        reason: "endsystem scheduler thread panicked".into(),
    })?;
    // The scheduler has dropped its id_tx endpoint — its stats are final.
    let id_ring = id_rx.stats();

    let wall_seconds = start.elapsed().as_secs_f64();
    let total: u64 = per_slot.iter().sum();
    let mut loss = prod_loss;
    loss.merge(&sched_loss);
    Ok((
        ThreadedReport {
            per_slot,
            total,
            wall_seconds,
            pps: total as f64 / wall_seconds,
            arr_ring,
            id_ring,
            lost: loss.total(),
            loss,
        },
        fabric,
    ))
}

/// Convenience: an EDF fabric of `slots` always-backlogged streams
/// (request period = slot count, staggered first deadlines), run through
/// the threaded pipeline. Used by the examples and benches.
pub fn run_threaded_edf(
    slots: usize,
    kind: ss_hwsim::FabricConfigKind,
    arrivals_per_slot: u64,
) -> Result<ThreadedReport> {
    let config = FabricConfig::edf(slots, kind);
    let states = (0..slots)
        .map(|_| StreamState {
            request_period: slots as u64,
            original_window: ss_types::WindowConstraint::ZERO,
            static_prio: 0,
            late_policy: LatePolicy::ServeLate,
        })
        .collect();
    run_threaded(config, states, arrivals_per_slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_hwsim::FabricConfigKind;

    #[test]
    fn threaded_pipeline_conserves_packets() {
        let report = run_threaded_edf(4, FabricConfigKind::WinnerOnly, 2_000).unwrap();
        assert_eq!(report.total, 8_000);
        for (slot, &count) in report.per_slot.iter().enumerate() {
            assert_eq!(count, 2_000, "slot {slot}");
        }
        assert!(report.pps > 0.0);
        // Transmission conservation, now visible end to end: every arrival
        // entered the arrival ring and every winner ID left the ID ring.
        assert_eq!(report.arr_ring.pushes, 8_000);
        assert_eq!(report.id_ring.pushes, 8_000);
        assert!(report.arr_ring.high_water <= report.arr_ring.capacity);
        assert!(report.id_ring.high_water >= 1);
        assert_eq!(report.lost, 0, "fault-free run loses nothing");
        assert_eq!(report.loss.total(), 0, "ledger agrees: no loss anywhere");
    }

    #[cfg(feature = "faults")]
    #[test]
    fn quiet_injector_run_matches_fault_free() {
        use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
        use std::sync::Arc;
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let states = (0..4)
            .map(|_| StreamState {
                request_period: 4,
                original_window: ss_types::WindowConstraint::ZERO,
                static_prio: 0,
                late_policy: LatePolicy::ServeLate,
            })
            .collect();
        let inj = Arc::new(FaultInjector::new(11, FaultConfig::quiet()));
        let report =
            run_threaded_faulted(config, states, 1_000, inj.clone(), RetryPolicy::default())
                .unwrap();
        assert_eq!(report.total, 4_000);
        assert_eq!(report.lost, 0);
        assert_eq!(inj.stats().snapshot().total_injected(), 0);
        assert_eq!(inj.stats().snapshot().lost_packets, 0);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn stuck_fabric_trips_watchdog_and_bounds_loss() {
        use ss_faults::{FaultConfig, FaultInjector, FaultSite, RetryPolicy};
        use std::sync::atomic::Ordering;
        use std::sync::Arc;
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let states = (0..4)
            .map(|_| StreamState {
                request_period: 4,
                original_window: ss_types::WindowConstraint::ZERO,
                static_prio: 0,
                late_policy: LatePolicy::ServeLate,
            })
            .collect();
        // Every decision cycle wedges, and wedges chain: the fabric never
        // produces again, so the scheduler's watchdog must trip instead of
        // the run hanging or panicking.
        let inj = Arc::new(FaultInjector::new(
            13,
            FaultConfig {
                decision_rate_ppm: 1_000_000,
                ..FaultConfig::quiet()
            },
        ));
        let report =
            run_threaded_faulted(config, states, 500, inj.clone(), RetryPolicy::default()).unwrap();
        assert!(report.lost > 0, "watchdog abandoned the backlog");
        assert_eq!(
            report.total + report.lost,
            2_000,
            "every arrival is either transmitted or counted lost"
        );
        let stats = inj.stats();
        assert!(stats.detected.load(Ordering::Relaxed) >= 1, "trip detected");
        assert_eq!(
            stats.lost_packets.load(Ordering::Relaxed),
            report.lost,
            "injector ledger matches the report"
        );
        assert!(stats.injected(FaultSite::DecisionCycle) >= 1);
        // Site classification: every packet the watchdog wrote off belongs
        // to the dead scheduling path, none to the rings — and the
        // partition sums exactly to the scalar.
        assert_eq!(report.loss.total(), report.lost, "partition is exact");
        assert_eq!(report.loss.shard, report.lost, "all loss at the shard site");
        assert_eq!(report.loss.ring, 0);
        assert_eq!(report.loss.admission, 0);
        assert_eq!(report.loss.shed, 0);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn ring_burst_loss_classified_at_ring_site() {
        use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
        use std::sync::Arc;
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let states = (0..4)
            .map(|_| StreamState {
                request_period: 4,
                original_window: ss_types::WindowConstraint::ZERO,
                static_prio: 0,
                late_policy: LatePolicy::ServeLate,
            })
            .collect();
        // Only SPSC overflow bursts are armed: any loss must be classified
        // at the ring site, and the by-site partition must equal the scalar
        // exactly (the double-count this ledger was introduced to rule out).
        let inj = Arc::new(FaultInjector::new(
            21,
            FaultConfig {
                spsc_rate_ppm: 400_000,
                ..FaultConfig::quiet()
            },
        ));
        let report =
            run_threaded_faulted(config, states, 2_000, inj, RetryPolicy::default()).unwrap();
        assert_eq!(
            report.total + report.lost,
            8_000,
            "transmitted + lost covers every arrival exactly once"
        );
        assert_eq!(report.loss.total(), report.lost, "partition is exact");
        assert_eq!(report.loss.ring, report.lost, "only ring-site loss armed");
        assert_eq!(report.loss.shard, 0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn instrumented_run_publishes_metrics_and_qos() {
        use ss_telemetry::{MetricValue, Registry};
        let registry = Registry::new();
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let states = (0..4)
            .map(|_| StreamState {
                request_period: 4,
                original_window: ss_types::WindowConstraint::ZERO,
                static_prio: 0,
                late_policy: LatePolicy::ServeLate,
            })
            .collect();
        let (report, qos) = run_threaded_instrumented(config, states, 500, &registry, 128).unwrap();
        assert_eq!(report.total, 2_000);
        assert_eq!(qos.streams.len(), 4);
        let qos_serviced: u64 = qos.streams.iter().map(|s| s.serviced).sum();
        assert_eq!(qos_serviced, 2_000);
        assert!(qos.service_fairness() > 0.9, "EDF round-robins equally");
        let snap = registry.snapshot();
        let pushes: u64 = snap
            .metrics
            .iter()
            .filter(|m| m.name == "ss_endsystem_ring_pushes_total")
            .map(|m| match m.value {
                MetricValue::Counter(c) => c,
                _ => panic!("counter expected"),
            })
            .sum();
        assert_eq!(pushes, 4_000, "both rings carried every packet");
        assert!(snap
            .metrics
            .iter()
            .any(|m| m.name == "ss_fabric_decision_cycles_total"));
        assert!(snap
            .to_prometheus()
            .contains("ss_endsystem_ring_high_water"));
    }

    #[test]
    fn overload_run_with_headroom_loses_nothing() {
        use ss_overload::RedConfig;
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let states: Vec<StreamState> = (0..4)
            .map(|_| StreamState {
                request_period: 4,
                original_window: ss_types::WindowConstraint::ZERO,
                static_prio: 0,
                late_policy: LatePolicy::ServeLate,
            })
            .collect();
        let windows = vec![ss_types::WindowConstraint::ZERO; 4];
        // Generous buckets + a RED band far above any real occupancy: the
        // gate must be transparent when there is headroom.
        let gate = GateConfig::from_windows(
            &windows,
            1_000_000,
            4_000_000,
            RedConfig::classic(1 << 20),
            3,
        );
        let run = run_threaded_overload(config, states, 2_000, gate).unwrap();
        assert_eq!(run.report.total, 8_000);
        assert_eq!(run.report.lost, 0, "no loss with headroom");
        assert_eq!(run.offered, 8_000);
        assert_eq!(run.admitted, 8_000);
        assert_eq!(run.report.loss.total(), 0);
    }

    #[test]
    fn overload_run_conserves_under_starved_admission() {
        use ss_overload::RedConfig;
        use ss_overload::StreamClass;
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let states: Vec<StreamState> = (0..4)
            .map(|_| StreamState {
                request_period: 4,
                original_window: ss_types::WindowConstraint::ZERO,
                static_prio: 0,
                late_policy: LatePolicy::ServeLate,
            })
            .collect();
        // Buckets refill a fraction of a token per scheduler sweep: most
        // arrivals must be refused at admission — classified, conserved,
        // and panic-free.
        let mut gate = GateConfig::from_windows(
            &[ss_types::WindowConstraint { num: 3, den: 4 }; 4],
            1_000_000,
            4_000_000,
            RedConfig::classic(1 << 20),
            5,
        );
        gate.classes = (0..4)
            .map(|_| StreamClass {
                rate_mtok: 10,
                burst_mtok: 2_000,
                protection: 0,
            })
            .collect();
        let run = run_threaded_overload(config, states, 2_000, gate).unwrap();
        assert_eq!(run.offered, 8_000);
        assert!(run.report.loss.admission > 0, "starved buckets refuse");
        assert_eq!(
            run.report.total + run.report.lost,
            8_000,
            "transmitted + classified loss covers every arrival"
        );
        assert_eq!(run.report.loss.total(), run.report.lost, "partition exact");
    }

    #[test]
    fn block_mode_also_conserves() {
        let report = run_threaded_edf(8, FabricConfigKind::Base, 500).unwrap();
        assert_eq!(report.total, 4_000);
        for &count in &report.per_slot {
            assert_eq!(count, 500);
        }
    }

    #[test]
    fn two_slot_minimal_run() {
        let report = run_threaded_edf(2, FabricConfigKind::WinnerOnly, 100).unwrap();
        assert_eq!(report.total, 200);
    }

    #[cfg(feature = "telemetry")]
    fn edf_states(slots: usize) -> Vec<StreamState> {
        (0..slots)
            .map(|_| StreamState {
                request_period: slots as u64,
                original_window: ss_types::WindowConstraint::ZERO,
                static_prio: 0,
                late_policy: LatePolicy::ServeLate,
            })
            .collect()
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn traced_run_covers_full_lifecycle() {
        use ss_telemetry::span::detail;
        use ss_telemetry::{stitch, validate_causal, validate_perfetto_schema, Stage};
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let run = run_threaded_traced(config, edf_states(4), 500, TraceConfig::new(1 << 15, 256))
            .unwrap();
        assert_eq!(run.report.total, 2_000);
        assert_eq!(run.report.lost, 0);
        assert_eq!(run.watchdog_trips, 0);
        assert!(run.flight_dump.is_none(), "healthy run: no automatic dump");
        assert_eq!(run.tracks.len(), 3, "producer, scheduler, transmitter");
        for t in &run.tracks {
            assert_eq!(t.dropped, 0, "track {} overflowed", t.name);
        }
        let events = stitch(&run.tracks);
        // Every arrival crosses every stage exactly once: admission and
        // enqueue on the producer, dequeue/deposit/win on the scheduler,
        // service on the transmitter.
        for (stage, want) in [
            (Stage::Admitted, 2_000),
            (Stage::RingEnqueue, 2_000),
            (Stage::RingDequeue, 2_000),
            (Stage::FabricArrival, 2_000),
            (Stage::DecisionWin, 2_000),
            (Stage::Service, 2_000),
        ] {
            let got = events.iter().filter(|e| e.stage == stage).count();
            assert_eq!(got, want, "stage {}", stage.name());
        }
        // The packed kernel is every fabric's default arm.
        assert!(events
            .iter()
            .filter(|e| e.stage == Stage::DecisionWin)
            .all(|e| e.detail == detail::DECISION_BATCHED));
        validate_causal(&events).expect("lifecycle order holds per tag");
        let json = ss_telemetry::perfetto_json(&run.tracks, run.ticks_per_us);
        validate_perfetto_schema(&json).expect("trace-event schema");
        assert!(run.ticks_per_us > 0.0);
    }

    #[cfg(all(feature = "telemetry", feature = "faults"))]
    #[test]
    fn traced_stuck_run_auto_dumps_flight() {
        use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
        use ss_telemetry::{stitch, validate_causal, DumpReason, Stage};
        use std::sync::Arc;
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let inj = Arc::new(FaultInjector::new(
            13,
            FaultConfig {
                decision_rate_ppm: 1_000_000,
                ..FaultConfig::quiet()
            },
        ));
        let mut trace = TraceConfig::new(1 << 15, 512);
        trace.faults = Some((inj, RetryPolicy::default()));
        let run = run_threaded_traced(config, edf_states(4), 500, trace).unwrap();
        assert!(run.watchdog_trips >= 1, "chained wedge trips the watchdog");
        assert_eq!(run.report.total + run.report.lost, 2_000, "conserved");
        let dump = run.flight_dump.expect("watchdog trip dumps the recorder");
        assert_eq!(dump.reason, DumpReason::WatchdogTrip);
        assert!(!dump.events.is_empty(), "dump holds recent events");
        let round = ss_telemetry::FlightDump::from_json(&dump.to_json()).unwrap();
        assert_eq!(round.reason, dump.reason);
        assert_eq!(round.events.len(), dump.events.len());
        let events = stitch(&run.tracks);
        assert!(events.iter().any(|e| e.stage == Stage::WatchdogTrip));
        // Written-off packets get a terminal Shed, and the order still holds.
        assert!(events.iter().any(|e| e.stage == Stage::Shed));
        validate_causal(&events).expect("causal even through the trip");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn traced_gate_records_verdicts_and_shed_reasons() {
        use ss_overload::RedConfig;
        use ss_overload::StreamClass;
        use ss_telemetry::span::detail;
        use ss_telemetry::{stitch, validate_causal, Stage};
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let mut gate = GateConfig::from_windows(
            &[ss_types::WindowConstraint { num: 3, den: 4 }; 4],
            1_000_000,
            4_000_000,
            RedConfig::classic(1 << 20),
            5,
        );
        // Starved buckets: most arrivals are refused at admission, so the
        // trace must carry both admit and refuse verdicts with reasons.
        gate.classes = (0..4)
            .map(|_| StreamClass {
                rate_mtok: 10,
                burst_mtok: 2_000,
                protection: 0,
            })
            .collect();
        let mut trace = TraceConfig::new(1 << 16, 256);
        trace.gate = Some(gate);
        let run = run_threaded_traced(config, edf_states(4), 2_000, trace).unwrap();
        assert_eq!(run.report.total + run.report.lost, 8_000, "conserved");
        assert!(run.report.loss.admission > 0, "starved buckets refuse");
        let events = stitch(&run.tracks);
        let verdicts: Vec<_> = events
            .iter()
            .filter(|e| e.stage == Stage::GateVerdict)
            .collect();
        assert_eq!(verdicts.len(), 8_000, "one verdict per dequeued arrival");
        assert!(verdicts.iter().any(|e| e.detail == detail::GATE_ADMITTED));
        assert!(verdicts
            .iter()
            .any(|e| e.detail == detail::GATE_ADMISSION_REJECT));
        let refused = events
            .iter()
            .filter(|e| {
                e.stage == Stage::Shed && e.detail == detail::GATE_ADMISSION_REJECT
            })
            .count() as u64;
        assert_eq!(refused, run.report.loss.admission, "shed trail matches ledger");
        validate_causal(&events).expect("gate verdicts rank after dequeue");
    }
}
