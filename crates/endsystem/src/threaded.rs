//! A real multi-threaded endsystem pipeline over the SPSC rings.
//!
//! Three threads mirror the paper's concurrency design (§4.2, "concurrency
//! between packet queuing, scheduling and transmission"):
//!
//! * **producer** — generates arrivals and pushes them into an SPSC ring
//!   (the per-stream circular queues), pacing itself on the published
//!   pressure level whenever a gate is configured;
//! * **scheduler** — drains the arrival ring (through the gate, if any)
//!   into the fabric simulation, runs decision cycles, and pushes winning
//!   stream IDs into a second SPSC ring;
//! * **transmitter** — consumes stream IDs and accounts per-stream service.
//!
//! No locks anywhere on the data path — only the two rings. The pipeline
//! is written once: `Scheduler::with_rings` builds the fabric, the gate and
//! both rings, `run_stages` runs the three threads over them. The public
//! `run_threaded*` entry points are wrappers that choose the inputs — the
//! fault seams, an optional overload gate, what is done to the loaded
//! fabric before the threads start, and an `Observer` (module `observer`):
//! `()`, whose hooks are empty and whose tag is `()`, or the lifecycle
//! tracer, whose 8-byte tag rides the rings next to each packet.
//!
//! Every packet ends transmitted or at exactly one [`LossSite`]: `Ring`
//! (an injected overflow burst, a corrupt slot), `Admission`/`Shed`/`Ring`
//! from the gate, `Shed` again for a head the fabric dropped at its
//! deadline ([`LatePolicy::Drop`]), `Shard` for everything the watchdog
//! wrote off behind a stuck fabric — so `total + loss.total()` is the
//! offered load on every entry point.

mod observer;

use self::observer::{Crossing, Observer, Traced};
use crate::faults::EndsystemFaults;
use crate::spsc::{back_off, spsc_ring, Consumer, Producer, RingStats};
use crate::worker::Worker;
use ss_core::{DecisionWatchdog, Fabric, FabricConfig, WatchdogVerdict};
use ss_core::{LatePolicy, StreamState};
use ss_overload::{Gate, GateConfig, LossLedger, LossSite, SharedPressure};
use ss_telemetry::{clock, SharedFlightRecorder, SpanRecorder};
use ss_types::{Error, Result, Wrap16};
use std::sync::Arc;
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
    /// observed a full ring and had to retry.
    pub arr_ring: RingStats,
    /// Scheduler → transmitter winner-ID-ring statistics.
    pub id_ring: RingStats,
    /// Packets offered but not transmitted — dropped at an overflowing
    /// arrival ring, refused by the gate, dropped by the fabric at their
    /// deadline ([`LatePolicy::Drop`] expiry), or abandoned when the
    /// scheduler's watchdog declared the fabric stuck — classified by the
    /// unique site that consumed each packet (admission / ring / shed /
    /// shard; expiry drops are `shed`). Loss is bounded and *counted*,
    /// never silent: `total + loss.total()` is the offered load, so an
    /// overflowing ring is never mistaken for an abandoned backlog and no
    /// packet is counted at two sites.
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
    let stages = Scheduler::with_rings(config, states, None, EndsystemFaults::new(), ())?;
    run_stages(stages, arrivals_per_slot, (), ()).map(|run| run.report)
}

/// Like [`run_threaded`], but wires both the fabric and the endsystem seams
/// to a shared fault injector: decision cycles can wedge or crash, arrival
/// enqueues can hit injected overflow bursts (dropped and counted, never
/// spun on forever), and the scheduler's watchdog abandons the backlog —
/// counted into [`ThreadedReport::loss`] and the injector's
/// `lost_packets` — if the fabric stays stuck past its threshold.
/// Tests-only: `tests/chaos.rs` and `tests/conformance.rs` run the faulted pipeline through it.
pub fn run_threaded_faulted(
    config: FabricConfig,
    states: Vec<StreamState>,
    arrivals_per_slot: u64,
    injector: Arc<ss_faults::FaultInjector>,
    policy: ss_faults::RetryPolicy,
) -> Result<ThreadedReport> {
    let mut faults = EndsystemFaults::new();
    faults.attach(injector, policy);
    let stages = Scheduler::with_rings(config, states, None, faults, ())?;
    run_stages(stages, arrivals_per_slot, (), ()).map(|run| run.report)
}

/// Results of an overload-gated threaded run: the plain report plus the
/// gate's accounting.
/// Tests-only: `tests/conformance.rs` holds the overload pipeline to the uniform totals through it.
#[derive(Debug, Clone)]
pub struct OverloadRunReport {
    /// The underlying pipeline report. `report.loss` merges the pipeline's
    /// own sites (ring, expiry shed, shard) with the gate's ledger, and
    /// `report.total + report.loss.total() == offered`.
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
/// Tests-only: `tests/conformance.rs` holds the overload pipeline to the uniform totals through it.
pub fn run_threaded_overload(
    config: FabricConfig,
    states: Vec<StreamState>,
    arrivals_per_slot: u64,
    gate_config: GateConfig,
) -> Result<OverloadRunReport> {
    let faults = EndsystemFaults::new();
    let stages = Scheduler::with_rings(config, states, Some(gate_config), faults, ())?;
    let run = run_stages(stages, arrivals_per_slot, (), ())?;
    let gate = run
        .gate
        .expect("the pipeline returns the gate it was given");
    Ok(OverloadRunReport {
        report: run.report,
        offered: gate.offered(),
        admitted: gate.offered() - gate.core().ledger().total(),
        pressure_transitions: gate.core().pressure_transitions(),
        holdbacks: run.holdbacks,
    })
}

/// Tracing knobs for [`run_threaded_traced`].
#[derive(Clone)]
pub struct TraceConfig {
    /// Capacity (events) of each per-thread span track.
    pub span_capacity: usize,
    /// Capacity (events) of the always-on flight recorder.
    pub flight_capacity: usize,
    /// Overload gate in front of the fabric (runs on the scheduler
    /// thread, and paces the producer), if any.
    pub gate: Option<GateConfig>,
    /// Fault injector wired into the fabric and the producer's ring
    /// seam, if any — the chaos half of a traced chaos soak.
    pub faults: Option<(Arc<ss_faults::FaultInjector>, ss_faults::RetryPolicy)>,
}

impl TraceConfig {
    /// Tracing with the given capacities and no gate or faults.
    pub fn new(span_capacity: usize, flight_capacity: usize) -> Self {
        Self {
            span_capacity,
            flight_capacity,
            gate: None,
            faults: None,
        }
    }
}

/// Results of a traced threaded run: the plain report plus the lifecycle
/// artifacts (span tracks, flight dump).
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

/// Like [`run_threaded`], but with per-packet lifecycle tracing on: the
/// producer mints an 8-byte trace tag per arrival and each thread records
/// its stage crossings (admission, SPSC enqueue/dequeue, gate verdict,
/// fabric arrival, decision win, service, shed) into a per-thread span
/// track, while a shared flight recorder keeps the most recent events and
/// dumps automatically when the scheduler's watchdog trips. The
/// [`TraceConfig`] can also engage the gate and attach a fault injector,
/// so a chaos soak leaves a causally-ordered
/// post-mortem artifact instead of just pass/fail.
pub fn run_threaded_traced(
    config: FabricConfig,
    states: Vec<StreamState>,
    arrivals_per_slot: u64,
    trace: TraceConfig,
) -> Result<TracedReport> {
    let spans = SpanRecorder::new(trace.span_capacity);
    let flight = SharedFlightRecorder::new(trace.flight_capacity);
    let [prod_obs, sched_obs, tx_obs] = ["producer", "scheduler", "transmitter"]
        .map(|thread| Traced::new(&spans, &flight, thread, config.slots));
    let mut faults = EndsystemFaults::new();
    if let Some((injector, policy)) = trace.faults {
        faults.attach(injector, policy);
    }
    let stages = Scheduler::with_rings(config, states, trace.gate, faults, sched_obs)?;
    let run = run_stages(stages, arrivals_per_slot, prod_obs, tx_obs)?;
    Ok(TracedReport {
        report: run.report,
        tracks: spans.drain(),
        flight_dump: flight.take_last_dump(),
        watchdog_trips: run.watchdog_trips,
        ticks_per_us: clock::ticks_per_us(),
    })
}

/// Convenience: an EDF fabric of `slots` always-backlogged streams
/// (request period = slot count, staggered first deadlines), run through
/// the threaded pipeline. Used by the `host_router` example and
/// `tests/conformance.rs`.
pub fn run_threaded_edf(
    slots: usize,
    kind: ss_core::FabricConfigKind,
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

/// How many consecutive unproductive-with-backlog decision cycles the
/// scheduler thread tolerates before declaring the fabric stuck. Must
/// comfortably exceed any transient injected wedge
/// ([`ss_faults::FaultConfig::max_stuck_cycles`] defaults to 8) so only
/// crashes and chained wedges trip it.
const SCHEDULER_STALL_THRESHOLD: u32 = 64;

/// Capacity of both rings, and of the scheduler's per-sweep batch.
const RING_CAPACITY: usize = 4096;

/// The scheduler thread's state: fabric, optional gate, both ring ends.
struct Scheduler<O: Observer> {
    fabric: Fabric,
    gate: Option<Gate<()>>,
    faults: EndsystemFaults,
    obs: O,
    arr_rx: Consumer<(ArrivalMsg, O::Tag)>,
    id_tx: Producer<(u8, O::Tag)>,
    /// Packets in the fabric's queues: deposited, not yet served or
    /// expired. Follows [`Fabric::total_backlog`] after every cycle.
    pending: u64,
    loss: LossLedger,
    watchdog: DecisionWatchdog,
    /// Reusable batch buffers: a sweep drains the ring into these and
    /// deposits them with one `push_arrivals`, and the decision cycle runs
    /// through the zero-allocation `decision_cycle_into` view — the
    /// steady-state loop never touches the heap.
    arr_batch: Vec<(usize, Wrap16)>,
    tag_batch: Vec<O::Tag>,
}

/// A pipeline before its threads start: the producer's ring end, the
/// scheduler, the transmitter's ring end.
type Stages<O> = (
    Producer<(ArrivalMsg, <O as Observer>::Tag)>,
    Scheduler<O>,
    Consumer<(u8, <O as Observer>::Tag)>,
);

impl<O: Observer> Scheduler<O> {
    /// Builds the fabric (wired to `faults`' injector, if attached), the
    /// gate and both rings.
    fn with_rings(
        config: FabricConfig,
        states: Vec<StreamState>,
        gate: Option<GateConfig>,
        faults: EndsystemFaults,
        obs: O,
    ) -> Result<Stages<O>> {
        assert_eq!(states.len(), config.slots, "one StreamState per slot");
        let mut fabric = Fabric::new(config)?;
        for (i, st) in states.into_iter().enumerate() {
            let period = st.request_period;
            fabric.load_stream(i, st, period)?;
        }
        faults.ledger().wire(&mut fabric);
        let (arr_tx, arr_rx) = spsc_ring(RING_CAPACITY);
        let (id_tx, id_rx) = spsc_ring(RING_CAPACITY);
        let scheduler = Self {
            fabric,
            gate: gate.map(Gate::new),
            faults,
            obs,
            arr_rx,
            id_tx,
            pending: 0,
            loss: LossLedger::new(),
            watchdog: DecisionWatchdog::new(SCHEDULER_STALL_THRESHOLD, 1),
            arr_batch: Vec::with_capacity(RING_CAPACITY),
            tag_batch: Vec::with_capacity(RING_CAPACITY),
        };
        Ok((arr_tx, scheduler, id_rx))
    }

    /// One sweep of the scheduler's steady state: drain the arrival ring
    /// through the gate into the fabric (one batched deposit), tick the
    /// gate, run one decision cycle, publish the winners, and reconcile
    /// `pending` with what the fabric still holds. `None` when there was
    /// nothing to schedule, else the watchdog's verdict on the cycle.
    // lint:hot-path
    fn sweep(&mut self) -> Option<WatchdogVerdict> {
        let cycle = self.fabric.decision_count();
        self.arr_batch.clear();
        self.tag_batch.clear();
        while self.arr_batch.len() < RING_CAPACITY {
            let Some((msg, tag)) = self.arr_rx.pop() else {
                break;
            };
            // Slots are validated here — a corrupt message is counted as
            // lost to the ring, so `push_arrivals` below cannot fail.
            if msg.slot >= self.fabric.config().slots {
                self.loss.record(LossSite::Ring);
                self.obs.crossed(Crossing::RingShed, tag, msg.slot, cycle);
                continue;
            }
            self.obs
                .crossed(Crossing::RingDequeue, tag, msg.slot, cycle);
            if let Some(gate) = &mut self.gate {
                let reason = gate.offer(msg.slot, ());
                self.obs.gate_verdict(tag, msg.slot, reason, cycle);
                if !reason.admits() {
                    continue; // booked in the gate's ledger
                }
            }
            self.arr_batch.push((msg.slot, msg.tag));
            self.tag_batch.push(tag);
        }
        let deposited = self.arr_batch.len() as u64;
        match self.fabric.push_arrivals(&self.arr_batch) {
            Ok(()) => {
                self.pending += deposited;
                self.obs.deposited(&self.arr_batch, &self.tag_batch, cycle);
            }
            // Unreachable after validation; counted rather than panicked.
            Err(_) => self.loss.record_n(LossSite::Ring, deposited),
        }
        // One control tick per sweep: ring occupancy plus the fabric
        // backlog against their combined budget drives the pressure signal
        // (and through it admission refill and the producer's pacing).
        if let Some(gate) = &mut self.gate {
            let occupied = self.arr_rx.len() + self.pending.min(RING_CAPACITY as u64) as usize;
            gate.mirror_tick(occupied, 2 * RING_CAPACITY);
        }
        if self.pending == 0 {
            return None;
        }
        let batched = self.fabric.is_batched();
        self.fabric.decision_cycle_into();
        let cycle = self.fabric.decision_count();
        let winners = self.fabric.last_block();
        for p in winners {
            let tag = self.obs.won(p.slot.index(), cycle, batched);
            if let Some(gate) = &mut self.gate {
                gate.mirror_served(p.slot.index());
            }
            self.id_tx.push_spinning((p.slot.raw(), tag), || false);
        }
        let produced = winners.len() as u64;
        // `pending` follows the fabric: what left its queues without
        // winning was dropped at its deadline (`LatePolicy::Drop`) — shed,
        // by the fabric rather than the gate, and ledgered as such, so a
        // healthy fabric that drops late heads never looks stuck.
        let backlog = self.fabric.total_backlog() as u64;
        let expired = self.pending.saturating_sub(produced + backlog);
        self.pending = backlog;
        if expired > 0 {
            self.loss.record_n(LossSite::Shed, expired);
            if let Some(gate) = &mut self.gate {
                // The mirror follows the backlog; the pipeline's ledger,
                // not the gate's, books what the fabric dropped.
                for _ in 0..expired {
                    let _ = gate.pop();
                }
            }
            self.obs.expired(&self.fabric, cycle);
        }
        Some(self.watchdog.observe(produced + expired > 0, backlog > 0))
    }

    /// The fabric stayed unproductive past the threshold — a crashed card
    /// or chained stuck windows, not a transient wedge. Abandon the backlog
    /// (counted, bounded) and drain the producer dry so it can never
    /// deadlock pushing into a full ring nobody reads. Everything written
    /// off here — the deposited backlog and the still-ringed arrivals — is
    /// lost to the dead scheduling path, not to the rings: one site per
    /// packet, no double count.
    fn write_off(&mut self) {
        let cycle = self.fabric.decision_count();
        self.obs.watchdog_tripped(cycle, self.watchdog.trips());
        let (mut lost, obs) = (self.pending, &mut self.obs);
        while let Some((msg, tag)) = self.arr_rx.pop_waiting() {
            lost += 1;
            obs.crossed(Crossing::WrittenOff, tag, msg.slot, cycle);
        }
        self.loss.record_n(LossSite::Shard, lost);
        self.faults.ledger().tally(1, lost);
    }

    /// The scheduler thread: sweeps until the producer is done and the
    /// fabric is empty, or the watchdog trips. An idle sweep waits the
    /// rings' one wait, restarted by every decision cycle. Returning drops
    /// `id_tx`, which is what ends the transmitter after a loss.
    fn run(mut self) -> (RingStats, Option<Gate<()>>, LossLedger, u64) {
        let mut waits = 0;
        loop {
            match self.sweep() {
                Some(WatchdogVerdict::Stuck) => {
                    self.write_off();
                    break;
                }
                Some(_) => waits = 0,
                None if self.arr_rx.finished() => break,
                None => back_off(&mut waits),
            }
        }
        // The producer has disconnected, so its final ring stats are
        // published and exact here.
        let trips = self.watchdog.trips();
        (self.arr_rx.stats(), self.gate, self.loss, trips)
    }
}

/// The scheduler stage with the no-op observer, assembled outside the
/// pipeline so its steady state can be driven on one thread over pre-filled
/// rings (`tests/zero_alloc.rs` counts its allocations).
/// Tests-only: `tests/zero_alloc.rs` counts the sweep's allocations (zero) through it.
pub struct SchedulerStage(Scheduler<()>);

impl SchedulerStage {
    /// Builds the stage between the ring ends a producer and a transmitter
    /// would hold.
    ///
    /// # Panics
    /// Panics if `states.len() != config.slots`.
    #[allow(clippy::type_complexity)]
    pub fn new(
        config: FabricConfig,
        states: Vec<StreamState>,
        gate: Option<GateConfig>,
    ) -> Result<(Producer<(ArrivalMsg, ())>, Self, Consumer<(u8, ())>)> {
        let faults = EndsystemFaults::new();
        let (arr_tx, scheduler, id_rx) = Scheduler::with_rings(config, states, gate, faults, ())?;
        Ok((arr_tx, Self(scheduler), id_rx))
    }

    /// One scheduler sweep; `true` when a decision cycle ran. Spins while
    /// the winner ring is full, so drain it between sweeps.
    /// Tests-only: `tests/zero_alloc.rs` counts the sweep's allocations (zero) through it.
    // lint:hot-path
    pub fn sweep(&mut self) -> bool {
        self.0.sweep().is_some()
    }
}

/// Everything a wrapper may want back from [`run_stages`].
struct Run {
    report: ThreadedReport,
    gate: Option<Gate<()>>,
    holdbacks: u64,
    watchdog_trips: u64,
}

/// The three-thread pipeline, written once: the producer and the scheduler
/// are [`Worker`]s, the transmitter runs on the calling thread. What the
/// wrappers vary went into [`Scheduler::with_rings`] — the fault seams (the
/// producer's ring seam uses the scheduler's copy), the gate (which also
/// paces the producer) and the scheduler's observer — or was done to the
/// loaded fabric before this call.
fn run_stages<O: Observer>(
    (mut arr_tx, scheduler, mut id_rx): Stages<O>,
    arrivals_per_slot: u64,
    mut prod_obs: O,
    mut tx_obs: O,
) -> Result<Run> {
    let slots = scheduler.fabric.config().slots;
    let faults = scheduler.faults.clone();
    let pressure = scheduler.gate.as_ref().map(|g| g.core().shared_pressure());
    let start = Instant::now();

    let producer = Worker::spawn("ss-es-producer", move || {
        let mut loss = LossLedger::new();
        let (mut holdbacks, mut seq) = (0u64, 0u64);
        for q in 0..arrivals_per_slot {
            for slot in 0..slots {
                // Hierarchical backpressure: the published pressure level
                // asks this thread to hold back 0, 1 or 3 of every 4
                // arrivals' worth of pacing. A holdback is a bounded yield,
                // not a drop — ingest slows, nothing is lost here.
                let level = pressure.as_ref().map(|p| p.level());
                let holdback = level.map_or(0, SharedPressure::holdback_per_4);
                if seq % 4 < u64::from(holdback) {
                    holdbacks += 1;
                    std::thread::yield_now();
                }
                seq += 1;
                let tag = prod_obs.admitted(slot, q);
                let msg = (
                    ArrivalMsg {
                        slot,
                        tag: Wrap16::from_wide(q),
                    },
                    tag,
                );
                // Stamped before the push, once however long it spins: the
                // scheduler may dequeue (and stamp) the arrival the instant
                // it lands, and the trace must read enqueue → dequeue.
                prod_obs.crossed(Crossing::RingEnqueue, tag, slot, 0);
                if !arr_tx.push_spinning(msg, || faults.ring_overflows()) {
                    // Injected overflow burst on a full ring: dropped and
                    // accounted instead of spun on.
                    loss.record(LossSite::Ring);
                    faults.ledger().tally(0, 1);
                    prod_obs.crossed(Crossing::RingShed, tag, slot, 0);
                }
            }
        }
        // Dropping `arr_tx` disconnects the ring: the scheduler sees it
        // `finished` and winds down.
        (loss, holdbacks)
    })
    .expect("spawning the endsystem producer thread");
    let scheduler = Worker::spawn("ss-es-scheduler", move || scheduler.run())
        .expect("spawning the endsystem scheduler thread");

    // The transmitter runs on the calling thread until the scheduler is done
    // (served everything, or wrote the rest off) and the winner ring is dry.
    let mut per_slot = vec![0u64; slots];
    while let Some((id, tag)) = id_rx.pop_waiting() {
        per_slot[id as usize] += 1;
        tx_obs.crossed(Crossing::Service, tag, id as usize, 0);
    }
    drop(tx_obs);

    let panicked = |thread: &str| Error::DegradedMode {
        reason: format!("endsystem {thread} thread panicked"),
    };
    // Both joined before either verdict: a dropped unjoined worker would
    // re-raise its panic instead of reporting it.
    let (produced, scheduled) = (producer.join(), scheduler.join());
    let (mut loss, holdbacks) = produced.map_err(|_| panicked("producer"))?;
    let (arr_ring, gate, sched_loss, watchdog_trips) =
        scheduled.map_err(|_| panicked("scheduler"))?;
    // The scheduler has dropped its id_tx endpoint — its stats are final.
    let id_ring = id_rx.stats();

    let wall_seconds = start.elapsed().as_secs_f64();
    let total: u64 = per_slot.iter().sum();
    loss.merge(&sched_loss);
    if let Some(gate) = &gate {
        loss.merge(gate.core().ledger());
    }
    let report = ThreadedReport {
        per_slot,
        total,
        wall_seconds,
        pps: total as f64 / wall_seconds,
        arr_ring,
        id_ring,
        loss,
    };
    Ok(Run {
        report,
        gate,
        holdbacks,
        watchdog_trips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::FabricConfigKind;

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
        assert_eq!(report.loss.total(), 0, "fault-free run loses nothing");
    }

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
        assert_eq!(report.loss.total(), 0);
        assert_eq!(inj.stats().snapshot().total_injected(), 0);
        assert_eq!(inj.stats().snapshot().lost_packets, 0);
    }

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
        assert!(report.loss.total() > 0, "watchdog abandoned the backlog");
        assert_eq!(
            report.total + report.loss.total(),
            2_000,
            "every arrival is either transmitted or counted lost"
        );
        let stats = inj.stats();
        assert!(stats.detected.load(Ordering::Relaxed) >= 1, "trip detected");
        assert_eq!(
            stats.lost_packets.load(Ordering::Relaxed),
            report.loss.total(),
            "injector ledger matches the report"
        );
        assert!(stats.snapshot().injected[FaultSite::DecisionCycle.index()] >= 1);
        // Site classification: every packet the watchdog wrote off belongs
        // to the dead scheduling path, none to the rings.
        assert_eq!(
            report.loss.shard,
            report.loss.total(),
            "all loss at the shard site"
        );
        assert_eq!(report.loss.ring, 0);
        assert_eq!(report.loss.admission, 0);
        assert_eq!(report.loss.shed, 0);
    }

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
        // at the ring site, and transmitted plus lost must cover every
        // arrival exactly once (no packet counted at two sites).
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
            report.total + report.loss.total(),
            8_000,
            "transmitted + lost covers every arrival exactly once"
        );
        assert_eq!(
            report.loss.ring,
            report.loss.total(),
            "only ring-site loss armed"
        );
        assert_eq!(report.loss.shard, 0);
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
        assert_eq!(run.report.loss.total(), 0, "no loss with headroom");
        assert_eq!(run.offered, 8_000);
        assert_eq!(run.admitted, 8_000);
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
            run.report.total + run.report.loss.total(),
            8_000,
            "transmitted + classified loss covers every arrival"
        );
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

    #[test]
    fn traced_run_covers_full_lifecycle() {
        use ss_telemetry::span::detail;
        use ss_telemetry::{stitch, validate_causal, validate_perfetto_schema, Stage};
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let run = run_threaded_traced(config, edf_states(4), 500, TraceConfig::new(1 << 15, 256))
            .unwrap();
        assert_eq!(run.report.total, 2_000);
        assert_eq!(run.report.loss.total(), 0);
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
        assert_eq!(
            run.report.total + run.report.loss.total(),
            2_000,
            "conserved"
        );
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

    #[test]
    fn traced_gate_records_verdicts_and_shed_reasons() {
        use ss_overload::RedConfig;
        use ss_overload::{GateReason, StreamClass};
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
        assert_eq!(
            run.report.total + run.report.loss.total(),
            8_000,
            "conserved"
        );
        assert!(run.report.loss.admission > 0, "starved buckets refuse");
        let events = stitch(&run.tracks);
        let verdicts: Vec<_> = events
            .iter()
            .filter(|e| e.stage == Stage::GateVerdict)
            .collect();
        assert_eq!(verdicts.len(), 8_000, "one verdict per dequeued arrival");
        assert!(verdicts
            .iter()
            .any(|e| e.detail == GateReason::Admitted.code()));
        assert!(verdicts
            .iter()
            .any(|e| e.detail == GateReason::AdmissionReject.code()));
        let refused = events
            .iter()
            .filter(|e| e.stage == Stage::Shed && e.detail == GateReason::AdmissionReject.code())
            .count() as u64;
        assert_eq!(
            refused, run.report.loss.admission,
            "shed trail matches ledger"
        );
        validate_causal(&events).expect("gate verdicts rank after dequeue");
    }

    fn states(slots: usize, period: u64, num: u8, late_policy: LatePolicy) -> Vec<StreamState> {
        let original_window = ss_types::WindowConstraint { num, den: 4 };
        (0..slots)
            .map(|_| StreamState {
                request_period: period,
                original_window,
                static_prio: 0,
                late_policy,
            })
            .collect()
    }

    /// Generous buckets and a RED band far above any real occupancy: a
    /// gate that refuses nothing.
    fn headroom_gate(num: u8) -> GateConfig {
        let windows = [ss_types::WindowConstraint { num, den: 4 }; 4];
        let red = ss_overload::RedConfig::classic(1 << 20);
        GateConfig::from_windows(&windows, 1_000_000, 4_000_000, red, 3)
    }

    /// The conservation identities of a run whose only loss is the fabric
    /// dropping late heads: everything offered is transmitted or at `shed`,
    /// and nothing was written off as a crashed shard.
    fn assert_expiry_drops_are_shed(report: &ThreadedReport, offered: u64, what: &str) {
        assert_eq!(
            report.total + report.loss.total(),
            offered,
            "{what}: conserved"
        );
        assert_eq!(
            report.loss.shard, 0,
            "{what}: a healthy fabric is not a crashed shard"
        );
        assert_eq!(
            report.loss.shed,
            report.loss.total(),
            "{what}: expiry drops are shed"
        );
    }

    /// `LatePolicy::Drop` is what `StreamState::from_spec` gives every
    /// window-constrained stream. Transmitted counts depend on thread
    /// timing; the identities do not.
    #[test]
    fn drop_late_expiry_is_shed_on_every_entry_point() {
        for period in [1, 3] {
            let config = || FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
            let late = || states(4, period, 3, LatePolicy::Drop);
            let plain = run_threaded(config(), late(), 2_000).unwrap();
            assert_expiry_drops_are_shed(&plain, 8_000, "plain");
            let gated = run_threaded_overload(config(), late(), 2_000, headroom_gate(3)).unwrap();
            assert_expiry_drops_are_shed(&gated.report, 8_000, "overload");
            assert_eq!((gated.offered, gated.admitted), (8_000, 8_000));
            {
                use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
                let inj = Arc::new(FaultInjector::new(11, FaultConfig::quiet()));
                let policy = RetryPolicy::default();
                let faulted =
                    run_threaded_faulted(config(), late(), 2_000, inj.clone(), policy).unwrap();
                assert_expiry_drops_are_shed(&faulted, 8_000, "faulted");
                let stats = inj.stats().snapshot();
                assert_eq!(
                    (stats.detected, stats.lost_packets),
                    (0, 0),
                    "no fault, no tally"
                );
            }
            {
                use ss_telemetry::{span::detail, stitch, validate_causal, Stage};
                let trace = TraceConfig::new(1 << 17, 256);
                let run = run_threaded_traced(config(), late(), 2_000, trace).unwrap();
                assert_expiry_drops_are_shed(&run.report, 8_000, "traced");
                assert_eq!(run.watchdog_trips, 0);
                assert!(run.flight_dump.is_none(), "healthy run: no automatic dump");
                assert!(run.tracks.iter().all(|t| t.dropped == 0));
                let events = stitch(&run.tracks);
                let expired = events
                    .iter()
                    .filter(|e| e.stage == Stage::Shed && e.detail == detail::SHED_EXPIRED)
                    .count() as u64;
                assert_eq!(
                    expired,
                    run.report.loss.total(),
                    "one terminal Shed per dropped packet"
                );
                validate_causal(&events).expect("expiry sheds rank after the deposit");
            }
        }
    }

    /// The write-off drain's exit check, against a scripted ring: the drain
    /// pops `None`, the producer then pushes its last items and drops, and
    /// only then does the drain look at the disconnect.
    #[test]
    fn write_off_drain_counts_arrivals_that_land_before_the_disconnect() {
        let (mut tx, mut rx) = spsc_ring::<u32>(8);
        assert!(rx.pop().is_none(), "the drain sees an empty ring");
        for late in 0..3 {
            tx.push(late).unwrap();
        }
        drop(tx);
        assert!(
            rx.is_disconnected(),
            "the disconnect alone would end the drain here"
        );
        assert!(!rx.finished(), "but three arrivals are still on the ring");
        let mut counted = 0;
        while rx.pop_waiting().is_some() {
            counted += 1;
        }
        assert_eq!(counted, 3);
        assert!(rx.finished());
    }

    /// 300 always-wedged runs: whatever instant the producer finishes at,
    /// every arrival is transmitted or written off at `shard`.
    #[test]
    fn wedged_runs_conserve_every_arrival() {
        use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
        let wedged = FaultConfig {
            decision_rate_ppm: 1_000_000,
            ..FaultConfig::quiet()
        };
        for seed in 13..313 {
            let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
            let inj = Arc::new(FaultInjector::new(seed, wedged));
            let policy = RetryPolicy::default();
            let serve_late = states(4, 4, 0, LatePolicy::ServeLate);
            let report =
                run_threaded_faulted(config, serve_late, 1_500, inj.clone(), policy).unwrap();
            assert_eq!(
                report.total + report.loss.total(),
                6_000,
                "seed {seed}: conserved"
            );
            assert_eq!(
                report.loss.shard,
                report.loss.total(),
                "seed {seed}: all loss at shard"
            );
            assert_eq!(
                inj.stats().snapshot().lost_packets,
                report.loss.total(),
                "seed {seed}"
            );
        }
    }

    /// Pacing applies to every gated run because it lives in the one
    /// producer loop. The gate here latches `Overloaded` at the first tick
    /// that sees a handful of queued packets (its dwell outlasts the run),
    /// and the load is several times what the ring and one scheduler batch
    /// hold — so the producer is still offering when the level is
    /// published, whatever the thread timing, and pauses from then on.
    #[test]
    fn producer_holds_back_once_the_gate_publishes_pressure() {
        let mut gate = headroom_gate(0);
        gate.pressure = ss_overload::PressureConfig {
            rise_elevated: 1,
            fall_elevated: 0,
            rise_overloaded: 1,
            fall_overloaded: 0,
            min_dwell: u32::MAX,
        };
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let serve_late = states(4, 4, 0, LatePolicy::ServeLate);
        let run = run_threaded_overload(config, serve_late, 10_000, gate).unwrap();
        assert!(run.holdbacks > 0, "the producer paced itself");
        assert_eq!(run.pressure_transitions, 1, "latched");
        assert_eq!(
            (run.report.total, run.report.loss.total()),
            (40_000, 0),
            "a pause is not a drop"
        );
    }

    /// The no-op observer costs the plain path nothing: unit tags leave the
    /// ring entries at the bare message and the winner's byte.
    #[test]
    fn plain_ring_entries_carry_no_tag() {
        use std::mem::size_of;
        type Tag = <() as Observer>::Tag;
        assert_eq!(size_of::<(ArrivalMsg, Tag)>(), size_of::<ArrivalMsg>());
        assert_eq!(size_of::<(u8, Tag)>(), size_of::<u8>());
    }
}
