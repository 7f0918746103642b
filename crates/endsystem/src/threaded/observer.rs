//! What a threaded run records at each stage crossing: the [`Observer`]
//! the one pipeline is generic over, the no-op `()` observer of the plain
//! path, and the lifecycle tracer [`run_threaded_traced`](super::run_threaded_traced)
//! runs.

use ss_core::Fabric;
use ss_overload::GateReason;
use ss_telemetry::{
    clock, span::detail, DumpReason, SharedFlightRecorder, SpanRecorder, Stage, StageEvent,
    TraceTag, TrackRecorder,
};
use ss_types::Wrap16;

/// The stage crossings that are one span event and nothing else.
#[derive(Debug, Clone, Copy)]
pub(super) enum Crossing {
    /// The producer is about to push the arrival onto the ring (stamped
    /// first, so it precedes the consumer's `RingDequeue`; an injected
    /// overflow may still turn the attempt into a `RingShed`).
    RingEnqueue,
    RingDequeue,
    /// A ring consumed the packet: an injected overflow burst at the
    /// producer, a corrupt slot at the scheduler.
    RingShed,
    /// Drained from the arrival ring behind a stuck fabric.
    WrittenOff,
    Service,
}

/// What a run records at each stage crossing, one value per thread. `Tag`
/// is the per-packet identity that rides both rings. The default bodies
/// are the no-op observer: with `Tag = ()` the ring entries are the bare
/// `ArrivalMsg` / `u8` and every hook compiles away.
pub(super) trait Observer: Send + 'static {
    type Tag: Copy + Default + Send + 'static;

    /// Producer: arrival `seq` of `slot` is offered; mints its tag.
    #[inline]
    fn admitted(&mut self, _slot: usize, _seq: u64) -> Self::Tag {
        Self::Tag::default()
    }
    /// Any thread: the packet made a single-event [`Crossing`].
    #[inline]
    fn crossed(&mut self, _what: Crossing, _tag: Self::Tag, _slot: usize, _cycle: u64) {}
    /// Scheduler: the gate ruled on the arrival (a refusal is terminal).
    #[inline]
    fn gate_verdict(&mut self, _tag: Self::Tag, _slot: usize, _reason: GateReason, _cycle: u64) {}
    /// Scheduler: the sweep's batch is in the fabric's per-slot queues.
    #[inline]
    fn deposited(&mut self, _batch: &[(usize, Wrap16)], _tags: &[Self::Tag], _cycle: u64) {}
    /// Scheduler: `slot`'s head won a decision; returns its tag.
    #[inline]
    fn won(&mut self, _slot: usize, _cycle: u64, _batched: bool) -> Self::Tag {
        Self::Tag::default()
    }
    /// Scheduler: the fabric dropped late heads this cycle (wins are
    /// already reported); its per-slot backlogs say whose.
    #[inline]
    fn expired(&mut self, _fabric: &Fabric, _cycle: u64) {}
    /// Scheduler: the watchdog declared the fabric stuck; everything still
    /// queued in it is written off.
    #[inline]
    fn watchdog_tripped(&mut self, _cycle: u64, _trips: u64) {}
}

/// The no-op observer.
impl Observer for () {
    type Tag = ();
}

/// The lifecycle tracer: one span track per thread plus the shared flight
/// recorder, with the 8-byte [`TraceTag`] on the rings.
pub(super) struct Traced {
    track: TrackRecorder,
    flight: SharedFlightRecorder,
    /// Scheduler half: admitted-but-unserved tags, FIFO per slot. The
    /// fabric serves each slot's queue in arrival order, so the front is
    /// exactly the packet its next win (or expiry) consumes — wins map back
    /// to tags without widening the fabric's wire types.
    in_fabric: Vec<std::collections::VecDeque<u64>>,
}

impl Traced {
    pub(super) fn new(
        spans: &SpanRecorder,
        flight: &SharedFlightRecorder,
        thread: &str,
        slots: usize,
    ) -> Self {
        Self {
            track: spans.track(thread),
            flight: flight.clone(),
            in_fabric: vec![Default::default(); slots],
        }
    }

    /// One event on this thread's span track; `arg` is the slot (the trip
    /// count, for a watchdog trip).
    // lint:hot-path
    fn mark(&mut self, tag: u64, cycle: u64, stage: Stage, detail: u8, arg: usize) {
        self.track.record(tag, cycle, stage, detail, arg as u32);
    }

    /// [`Traced::mark`], plus a copy in the flight recorder's window.
    // lint:hot-path
    fn mark_both(&mut self, tag: u64, cycle: u64, stage: Stage, detail: u8, arg: usize) {
        self.mark(tag, cycle, stage, detail, arg);
        let (tsc, track, arg) = (clock::now_tsc(), self.track.id(), arg as u32);
        let event = StageEvent {
            tag,
            tsc,
            cycle,
            track,
            stage,
            detail,
            arg,
        };
        self.flight.record(event);
    }
}

impl Observer for Traced {
    type Tag = u64;

    // lint:hot-path
    fn admitted(&mut self, slot: usize, seq: u64) -> u64 {
        let tag = TraceTag::new(0, slot as u16, seq as u32).0;
        self.mark(tag, 0, Stage::Admitted, 0, slot);
        tag
    }
    // lint:hot-path
    fn crossed(&mut self, what: Crossing, tag: u64, slot: usize, cycle: u64) {
        let (stage, detail) = match what {
            Crossing::RingEnqueue => (Stage::RingEnqueue, 0),
            Crossing::RingDequeue => (Stage::RingDequeue, 0),
            Crossing::RingShed => (Stage::Shed, detail::SHED_RING),
            Crossing::WrittenOff => (Stage::Shed, detail::SHED_SHARD),
            Crossing::Service => (Stage::Service, 0),
        };
        self.mark(tag, cycle, stage, detail, slot);
    }
    // lint:hot-path
    fn gate_verdict(&mut self, tag: u64, slot: usize, reason: GateReason, cycle: u64) {
        self.mark(tag, cycle, Stage::GateVerdict, reason.code(), slot);
        if !reason.admits() {
            self.mark_both(tag, cycle, Stage::Shed, reason.code(), slot);
        }
    }
    // lint:hot-path
    fn deposited(&mut self, batch: &[(usize, Wrap16)], tags: &[u64], cycle: u64) {
        for (&(slot, _), &tag) in batch.iter().zip(tags) {
            self.mark(tag, cycle, Stage::FabricArrival, 0, slot);
            self.in_fabric[slot].push_back(tag);
        }
    }
    // lint:hot-path
    fn won(&mut self, slot: usize, cycle: u64, batched: bool) -> u64 {
        let tag = self.in_fabric[slot].pop_front();
        let tag = tag.unwrap_or(TraceTag::CONTROL.0);
        let arm = if batched {
            detail::DECISION_BATCHED
        } else {
            detail::DECISION_SCALAR
        };
        self.mark_both(tag, cycle, Stage::DecisionWin, arm, slot);
        tag
    }
    // lint:hot-path
    fn expired(&mut self, fabric: &Fabric, cycle: u64) {
        for slot in 0..self.in_fabric.len() {
            let queued = fabric.backlog(slot).unwrap_or(0);
            for _ in queued..self.in_fabric[slot].len() {
                if let Some(tag) = self.in_fabric[slot].pop_front() {
                    self.mark(tag, cycle, Stage::Shed, detail::SHED_EXPIRED, slot);
                }
            }
        }
    }
    /// Leaves the trip on both recording surfaces, gives every tag still in
    /// the fabric its terminal `Shed`, and takes the automatic flight dump
    /// — the post-mortem artifact.
    fn watchdog_tripped(&mut self, cycle: u64, trips: u64) {
        let control = TraceTag::CONTROL.0;
        self.mark_both(control, cycle, Stage::WatchdogTrip, 0, trips as usize);
        for slot in 0..self.in_fabric.len() {
            while let Some(tag) = self.in_fabric[slot].pop_front() {
                self.mark(tag, cycle, Stage::Shed, detail::SHED_SHARD, slot);
            }
        }
        self.flight.auto_dump(DumpReason::WatchdogTrip, cycle);
    }
}
