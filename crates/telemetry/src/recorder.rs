//! Per-thread stage-event rings and the always-on flight recorder.
//!
//! Two recording surfaces share the [`crate::span::StageEvent`] format and
//! the one ring type, [`StageRing`] (anything that is only a count — idle
//! cycles, priority updates, block lengths — is a [`crate::metrics`]
//! counter, not an event):
//!
//! * **Span tracks** ([`SpanRecorder`] / [`TrackRecorder`]) — each
//!   recording thread owns a [`TrackRecorder`] and pushes into it with no
//!   synchronization at all; the shared [`SpanRecorder`] is touched only
//!   at track creation and at drain/drop, so the record path is exactly a
//!   ring store plus a timestamp. [`stitch`] merges drained tracks into
//!   one causally-ordered event stream for export.
//! * **Flight recorder** ([`FlightRecorder`] / [`SharedFlightRecorder`])
//!   — a bounded last-N-events ring kept *always* warm so that when
//!   something trips (watchdog stall, invariant violation, panic), the
//!   machine can dump the events leading up to the trip
//!   as a post-mortem artifact, black-box style. The shared form wraps a
//!   mutex but records through `try_lock`: a contended record is dropped
//!   rather than ever blocking a decision path.
//!
//! Every buffer is allocated at construction; record paths never
//! allocate (proved by `tests/zero_alloc.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use crate::clock::{now_tsc, ticks_per_us};
use crate::span::{Stage, StageEvent};

/// Fixed-capacity, drop-counting ring of [`StageEvent`]s — the
/// workspace's one event ring. Pushes are plain stores into a buffer
/// allocated at construction; when full, the *oldest* event is overwritten
/// and the overwrite counted, so the ring always holds the most recent
/// `capacity` events and [`StageRing::dropped`] tells a complete window
/// from a truncated one.
#[derive(Debug, Clone)]
pub struct StageRing {
    buf: Vec<StageEvent>,
    cap: usize,
    head: usize,
    dropped: u64,
    total: u64,
}

impl StageRing {
    /// A ring holding at most `capacity` events; the buffer is allocated
    /// here, once.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "stage ring capacity must be positive");
        Self {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            dropped: 0,
            total: 0,
        }
    }

    /// Records an event, overwriting (and counting) the oldest when full.
    // lint:hot-path
    #[inline]
    pub fn push(&mut self, event: StageEvent) {
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            // Compare-and-reset instead of `% cap`: an integer divide on
            // the steady-state (ring full) hot path costs more than the
            // store itself.
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Events currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events lost to overwrite.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events ever recorded.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Copies the held events (oldest → newest) into a fresh `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<StageEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
            .copied()
            .collect()
    }

    /// Empties the ring and resets the drop/total counters.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
        self.total = 0;
    }
}

/// One drained track: the events a single recording thread held, plus
/// its loss accounting. Serializable so dumps survive the process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackDump {
    /// Track ID (matches [`StageEvent::track`] on the held events).
    pub track: u16,
    /// Human-readable track name (thread/stage role).
    pub name: String,
    /// Held events, oldest → newest.
    pub events: Vec<StageEvent>,
    /// Events lost to ring overwrite on this track.
    pub dropped: u64,
    /// Events ever recorded on this track.
    pub total: u64,
}

struct SpanShared {
    capacity: usize,
    next_track: AtomicU64,
    drained: Mutex<Vec<TrackDump>>,
}

/// Factory + collection point for per-thread [`TrackRecorder`]s.
///
/// Clone-cheap (`Arc`-backed): hand one clone to each recording thread,
/// let each mint its own track, then [`SpanRecorder::drain`] after the
/// threads finish (track recorders flush on drop).
#[derive(Clone)]
pub struct SpanRecorder {
    shared: Arc<SpanShared>,
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl SpanRecorder {
    /// A recorder whose tracks each hold `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span track capacity must be positive");
        Self {
            shared: Arc::new(SpanShared {
                capacity,
                next_track: AtomicU64::new(0),
                drained: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Mints a new track. The returned recorder is `Send` but not
    /// `Sync` — exactly one thread records on it.
    #[must_use]
    pub fn track(&self, name: &str) -> TrackRecorder {
        let id = self.shared.next_track.fetch_add(1, Ordering::Relaxed);
        TrackRecorder {
            track: id.min(u16::MAX as u64) as u16,
            name: name.to_string(),
            ring: StageRing::with_capacity(self.shared.capacity),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Collects every track flushed so far (i.e. whose [`TrackRecorder`]
    /// was dropped), ordered by track ID.
    #[must_use]
    pub fn drain(&self) -> Vec<TrackDump> {
        let mut tracks = std::mem::take(
            &mut *self
                .shared
                .drained
                .lock()
                .expect("span recorder mutex poisoned"),
        );
        tracks.sort_by_key(|t| t.track);
        tracks
    }
}

/// A single thread's stage-event sink. Recording is a ring store plus a
/// [`now_tsc`] stamp — no locks, no allocation. Flushes its events into
/// the parent [`SpanRecorder`] on drop.
pub struct TrackRecorder {
    track: u16,
    name: String,
    ring: StageRing,
    shared: Arc<SpanShared>,
}

impl TrackRecorder {
    /// This track's ID (stamped into every event it records).
    #[must_use]
    pub fn id(&self) -> u16 {
        self.track
    }

    /// Records one stage crossing, stamped with the current timestamp.
    // lint:hot-path
    #[inline]
    pub fn record(&mut self, tag: u64, cycle: u64, stage: Stage, detail: u8, arg: u32) {
        self.record_at(now_tsc(), tag, cycle, stage, detail, arg);
    }

    /// Reads the timestamp this track would stamp right now. Pair with
    /// [`record_at`](Self::record_at) to record a burst of events (e.g.
    /// every win in one BA block) under a single timestamp read instead
    /// of paying `rdtsc` per event.
    // lint:hot-path
    #[inline]
    #[must_use]
    pub fn stamp(&self) -> u64 {
        now_tsc()
    }

    /// Records one stage crossing under a caller-provided timestamp
    /// (from [`stamp`](Self::stamp)). Within a track, ring order — not
    /// the timestamp — is the intra-burst tiebreak, so same-stamp events
    /// keep their recording order through a stable export sort.
    // lint:hot-path
    #[inline]
    pub fn record_at(
        &mut self,
        tsc: u64,
        tag: u64,
        cycle: u64,
        stage: Stage,
        detail: u8,
        arg: u32,
    ) {
        self.ring.push(StageEvent {
            tag,
            tsc,
            cycle,
            track: self.track,
            stage,
            detail,
            arg,
        });
    }

    /// Events recorded so far (held + overwritten).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.ring.total_recorded()
    }
}

impl std::fmt::Debug for TrackRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackRecorder")
            .field("track", &self.track)
            .field("name", &self.name)
            .field("recorded", &self.ring.total_recorded())
            .finish_non_exhaustive()
    }
}

impl Drop for TrackRecorder {
    fn drop(&mut self) {
        let dump = TrackDump {
            track: self.track,
            name: std::mem::take(&mut self.name),
            events: self.ring.to_vec(),
            dropped: self.ring.dropped(),
            total: self.ring.total_recorded(),
        };
        if let Ok(mut drained) = self.shared.drained.lock() {
            drained.push(dump);
        }
    }
}

/// Merges drained tracks into one event stream ordered by `(tsc,
/// lifecycle rank, track)`. The rank tie-break resolves same-timestamp
/// events recorded by different threads for the same packet (possible at
/// coarse fallback-clock resolution) into lifecycle order; the sort is
/// stable, so same-track order — which is always causal — survives ties.
#[must_use]
pub fn stitch(tracks: &[TrackDump]) -> Vec<StageEvent> {
    let mut all: Vec<StageEvent> = tracks
        .iter()
        .flat_map(|t| t.events.iter().copied())
        .collect();
    all.sort_by_key(|e| (e.tsc, e.stage.lifecycle_rank().unwrap_or(u8::MAX), e.track));
    all
}

/// Why a flight-recorder dump was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DumpReason {
    /// The decision watchdog declared the scheduling path stuck.
    WatchdogTrip,
    /// The process panicked (panic-hook fire).
    Panic,
    /// Explicit operator/test request.
    Manual,
    /// A continuously-checked simulation/soak invariant failed.
    InvariantViolation,
    /// A graceful ingress drain exceeded its deadline with work still in
    /// flight.
    DrainTimeout,
}

/// A flight-recorder snapshot: the last-N events before `reason` fired,
/// with loss accounting and the timestamp scale needed to read them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// What tripped the dump.
    pub reason: DumpReason,
    /// Decision-cycle count at the tripping component when it dumped.
    pub at_cycle: u64,
    /// Ring capacity at dump time.
    pub capacity: usize,
    /// Events lost to overwrite before the dump (window truncation).
    pub dropped: u64,
    /// Events ever recorded into the ring.
    pub total: u64,
    /// Timestamp scale ([`crate::clock::ticks_per_us`]) for the `tsc`
    /// fields.
    pub ticks_per_us: f64,
    /// The held window, oldest → newest.
    pub events: Vec<StageEvent>,
}

impl FlightDump {
    /// Serializes the dump to JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| String::from("{}"))
    }

    /// Parses a dump back from JSON.
    ///
    /// # Errors
    /// Returns the serde error message when `json` is not a dump.
    /// Tests-only: `tests/trace_lifecycle.rs` and `crates/cluster/tests/violation_dump.rs` check
    /// with it that dumps round-trip.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// The single-owner flight recorder: a bounded ring of the most recent
/// stage events, kept warm so a trip can snapshot the lead-up.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: StageRing,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: StageRing::with_capacity(capacity),
        }
    }

    /// Records one event into the window.
    // lint:hot-path
    #[inline]
    pub fn record(&mut self, event: StageEvent) {
        self.ring.push(event);
    }

    /// Snapshots the current window. The ring keeps recording afterwards
    /// (the window is copied, not drained).
    #[must_use]
    pub fn dump(&self, reason: DumpReason, at_cycle: u64) -> FlightDump {
        FlightDump {
            reason,
            at_cycle,
            capacity: self.ring.capacity(),
            dropped: self.ring.dropped(),
            total: self.ring.total_recorded(),
            ticks_per_us: ticks_per_us(),
            events: self.ring.to_vec(),
        }
    }

    /// Events ever recorded.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.ring.total_recorded()
    }
}

struct FlightShared {
    recorder: Mutex<FlightRecorder>,
    last_dump: Mutex<Option<FlightDump>>,
}

/// A flight recorder shared across threads (producer, scheduler, shard
/// workers, supervisor). `record` is `try_lock`-based: contention drops
/// the event and counts it instead of ever stalling the caller.
#[derive(Clone)]
pub struct SharedFlightRecorder {
    shared: Arc<FlightShared>,
}

impl SharedFlightRecorder {
    /// A shared recorder holding the last `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            shared: Arc::new(FlightShared {
                recorder: Mutex::new(FlightRecorder::new(capacity)),
                last_dump: Mutex::new(None),
            }),
        }
    }

    /// Records one event unless another thread holds the ring this
    /// instant (then the event is dropped — the record path never blocks
    /// a decision cycle).
    // lint:hot-path
    #[inline]
    pub fn record(&self, event: StageEvent) {
        if let Ok(mut rec) = self.shared.recorder.try_lock() {
            rec.record(event);
        }
    }

    /// Convenience: stamp and record a control-plane event.
    pub fn record_control(&self, cycle: u64, track: u16, stage: Stage, detail: u8, arg: u32) {
        self.record(StageEvent::control(
            now_tsc(),
            cycle,
            track,
            stage,
            detail,
            arg,
        ));
    }

    /// Snapshots the window and stores it as the recorder's last dump
    /// (readable via [`SharedFlightRecorder::take_last_dump`]). Returns
    /// the dump. Trips are rare, so this path may block briefly.
    pub fn auto_dump(&self, reason: DumpReason, at_cycle: u64) -> FlightDump {
        let dump = self
            .shared
            .recorder
            .lock()
            .expect("flight recorder mutex poisoned")
            .dump(reason, at_cycle);
        *self
            .shared
            .last_dump
            .lock()
            .expect("flight dump mutex poisoned") = Some(dump.clone());
        dump
    }

    /// Takes the most recent automatic dump, if one fired.
    #[must_use]
    pub fn take_last_dump(&self) -> Option<FlightDump> {
        self.shared
            .last_dump
            .lock()
            .expect("flight dump mutex poisoned")
            .take()
    }

    /// Events ever recorded (excluding drops under contention).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.shared
            .recorder
            .lock()
            .expect("flight recorder mutex poisoned")
            .total_recorded()
    }
}

/// Installs a process-wide panic hook that dumps `recorder`'s window as
/// JSON to stderr (reason [`DumpReason::Panic`]) before delegating to
/// the previous hook. Installs at most one hook per process; later calls
/// retarget it to the new recorder.
pub fn install_panic_hook(recorder: &SharedFlightRecorder) {
    static TARGET: OnceLock<Mutex<Option<SharedFlightRecorder>>> = OnceLock::new();
    let first = TARGET.get().is_none();
    let target = TARGET.get_or_init(|| Mutex::new(None));
    *target.lock().expect("panic hook target poisoned") = Some(recorder.clone());
    if first {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(target) = TARGET.get() {
                if let Ok(guard) = target.lock() {
                    if let Some(rec) = guard.as_ref() {
                        let dump = rec.auto_dump(DumpReason::Panic, 0);
                        eprintln!("ss-flight-recorder panic dump: {}", dump.to_json());
                    }
                }
            }
            prev(info);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{detail, TraceTag};

    fn ev(tag: u64, tsc: u64, stage: Stage) -> StageEvent {
        StageEvent {
            tag,
            tsc,
            cycle: 0,
            track: 0,
            stage,
            detail: 0,
            arg: 0,
        }
    }

    #[test]
    fn stage_ring_overwrites_oldest() {
        let mut r = StageRing::with_capacity(3);
        for i in 0..5u64 {
            r.push(ev(i, i, Stage::Admitted));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let tags: Vec<u64> = r.to_vec().iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![2, 3, 4]);
    }

    #[test]
    fn tracks_flush_on_drop_and_drain_in_id_order() {
        let rec = SpanRecorder::new(16);
        let mut a = rec.track("producer");
        let mut b = rec.track("scheduler");
        b.record(TraceTag::new(0, 1, 0).0, 5, Stage::RingDequeue, 0, 0);
        a.record(TraceTag::new(0, 1, 0).0, 0, Stage::RingEnqueue, 0, 0);
        assert!(rec.drain().is_empty(), "live tracks are not drained");
        drop(b);
        drop(a);
        let tracks = rec.drain();
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracks[0].track, 0);
        assert_eq!(tracks[0].name, "producer");
        assert_eq!(tracks[1].name, "scheduler");
        assert_eq!(tracks[0].events.len(), 1);
        assert_eq!(rec.drain().len(), 0, "drain takes");
    }

    #[test]
    fn stitch_orders_by_tsc_then_rank() {
        let tag = TraceTag::new(0, 3, 7).0;
        let tracks = vec![
            TrackDump {
                track: 1,
                name: "b".into(),
                events: vec![ev(tag, 100, Stage::RingDequeue)],
                dropped: 0,
                total: 1,
            },
            TrackDump {
                track: 0,
                name: "a".into(),
                // Same tsc as the dequeue above: the rank tie-break must
                // put the enqueue first.
                events: vec![
                    ev(tag, 100, Stage::RingEnqueue),
                    ev(tag, 90, Stage::Admitted),
                ],
                dropped: 0,
                total: 2,
            },
        ];
        let stitched = stitch(&tracks);
        let stages: Vec<Stage> = stitched.iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            vec![Stage::Admitted, Stage::RingEnqueue, Stage::RingDequeue]
        );
    }

    #[test]
    fn flight_dump_round_trips_through_json() {
        let mut fr = FlightRecorder::new(8);
        fr.record(StageEvent {
            tag: TraceTag::CONTROL.0,
            tsc: 42,
            cycle: 9,
            track: 2,
            stage: Stage::WatchdogTrip,
            detail: 0,
            arg: 0,
        });
        fr.record(ev(TraceTag::new(1, 2, 3).0, 50, Stage::Shed));
        let dump = fr.dump(DumpReason::WatchdogTrip, 9);
        let back = FlightDump::from_json(&dump.to_json()).unwrap();
        assert_eq!(back, dump);
        assert_eq!(back.events.len(), 2);
        assert_eq!(back.reason, DumpReason::WatchdogTrip);
        assert!(back.ticks_per_us > 0.0);
    }

    #[test]
    fn dump_written_before_decision_stall_existed_still_round_trips() {
        // Byte-for-byte what the commit before `Stage::DecisionStall` /
        // the retired ladder's shed code wrote for these three events.
        let old = "{\"reason\":\"WatchdogTrip\",\"at_cycle\":11,\"capacity\":4,\"dropped\":0,\
            \"total\":3,\"ticks_per_us\":2.5,\"events\":[\
            {\"tag\":18446744073709551615,\"tsc\":42,\"cycle\":9,\"track\":2,\"stage\":\"Failover\",\"detail\":1,\"arg\":1},\
            {\"tag\":281483566645251,\"tsc\":50,\"cycle\":10,\"track\":0,\"stage\":\"Shed\",\"detail\":12,\"arg\":2},\
            {\"tag\":18446744073709551615,\"tsc\":60,\"cycle\":11,\"track\":2,\"stage\":\"InvariantViolation\",\"detail\":3,\"arg\":1}]}";
        let dump = FlightDump::from_json(old).unwrap();
        assert_eq!(dump.events[0].stage, Stage::Failover);
        assert_eq!(dump.events[1].detail, detail::SHED_EXPIRED);
        assert_eq!(dump.events[2].stage as u8, 38);
        assert_eq!(dump.to_json(), old);
    }

    #[test]
    fn shared_flight_recorder_dumps_and_counts() {
        let fr = SharedFlightRecorder::new(4);
        for i in 0..6u64 {
            fr.record(ev(i, i, Stage::Service));
        }
        assert_eq!(fr.total_recorded(), 6);
        assert!(fr.take_last_dump().is_none());
        let dump = fr.auto_dump(DumpReason::WatchdogTrip, 77);
        assert_eq!(dump.at_cycle, 77);
        assert_eq!(dump.events.len(), 4);
        assert_eq!(dump.dropped, 2);
        let last = fr.take_last_dump().expect("auto_dump stores last");
        assert_eq!(last, dump);
        assert!(fr.take_last_dump().is_none(), "take empties the slot");
    }

    #[test]
    fn record_control_stamps_the_reserved_tag() {
        let fr = SharedFlightRecorder::new(4);
        fr.record_control(3, 1, Stage::Failover, 2, 0);
        let dump = fr.auto_dump(DumpReason::Manual, 3);
        assert_eq!(dump.events.len(), 1);
        assert!(dump.events[0].trace_tag().is_control());
        assert_eq!(dump.events[0].stage, Stage::Failover);
        assert_eq!(dump.events[0].detail, 2);
        assert!(dump.events[0].tsc > 0);
    }

    #[test]
    fn gate_detail_codes_ride_events() {
        let rec = SpanRecorder::new(4);
        let mut t = rec.track("gate");
        t.record(
            TraceTag::new(0, 5, 0).0,
            0,
            Stage::GateVerdict,
            detail::SHED_RING,
            0,
        );
        drop(t);
        let tracks = rec.drain();
        assert_eq!(tracks[0].events[0].detail, detail::SHED_RING);
    }
}
