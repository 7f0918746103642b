//! Per-packet lifecycle trace tags and fixed-size stage events.
//!
//! The paper's evaluation hinges on knowing *where* a packet's time goes
//! — host queues, PCI transfer, decision network, service. The aggregate
//! layer ([`crate::metrics`], [`crate::qos`]) answers "how much, on
//! average"; this module answers "what happened to *this* packet": every
//! admitted arrival is stamped with a compact 8-byte [`TraceTag`], and
//! each pipeline stage it crosses appends one 32-byte [`StageEvent`] to
//! the recording thread's ring (see [`crate::recorder`]).
//!
//! # Trace-tag wire format
//!
//! A tag is one `u64`, packed so it rides in existing message types
//! without widening them:
//!
//! ```text
//! bits 63..48   origin   u16   recording origin (shard ID, 0 unsharded)
//! bits 47..32   slot     u16   stream slot the packet belongs to
//! bits 31..0    seq      u32   per-(origin, slot) admission sequence
//! ```
//!
//! `u64::MAX` ([`TraceTag::CONTROL`]) is reserved for control-plane
//! events that describe the machine rather than a packet (watchdog trips,
//! failovers, violations). The encoding is
//! collision-free for runs of under 2³² admissions per slot — beyond any
//! soak this workspace runs — and per-slot FIFO order through the SPSC
//! rings and fabric queues makes the sequence number reconstructible at
//! every stage without threading the tag through wire structs.
//!
//! # Stage vocabulary and causal order
//!
//! [`Stage`] names each instrumented point. Lifecycle stages carry a
//! total order ([`Stage::lifecycle_rank`]): a packet's events must pass
//! through non-decreasing ranks (admission → SPSC ring → gate → fabric →
//! decision → service, or → shed). The gate ranks *after* the ring
//! stages because that is where it runs: the scheduler thread drains the
//! ring and offers each arrival to the overload gate before depositing
//! it into the fabric. Control stages have no rank and are exempt from
//! the causal check in [`crate::export::validate_causal`].

use serde::{Deserialize, Serialize};

/// Compact 8-byte per-packet trace tag (see module docs for the layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceTag(pub u64);

impl TraceTag {
    /// The reserved control-plane tag: events about the machine, not a
    /// packet. Never produced by [`TraceTag::new`] (sequence numbers wrap
    /// within 32 bits).
    pub const CONTROL: TraceTag = TraceTag(u64::MAX);

    /// Packs (origin, slot, seq) into a tag.
    #[inline]
    #[must_use]
    pub const fn new(origin: u16, slot: u16, seq: u32) -> Self {
        TraceTag(((origin as u64) << 48) | ((slot as u64) << 32) | seq as u64)
    }

    /// The recording origin (shard ID; 0 for unsharded runs).
    /// Tests-only: `tests/trace_lifecycle.rs` checks with it that tags round-trip.
    #[inline]
    #[must_use]
    pub const fn origin(self) -> u16 {
        (self.0 >> 48) as u16
    }

    /// The stream slot the packet belongs to.
    /// Tests-only: `tests/trace_lifecycle.rs` checks with it that tags round-trip.
    #[inline]
    #[must_use]
    pub const fn slot(self) -> u16 {
        (self.0 >> 32) as u16
    }

    /// The per-(origin, slot) admission sequence number.
    /// Tests-only: `tests/trace_lifecycle.rs` checks with it that tags round-trip.
    #[inline]
    #[must_use]
    pub const fn seq(self) -> u32 {
        self.0 as u32
    }

    /// `true` for the reserved control tag.
    #[inline]
    #[must_use]
    pub const fn is_control(self) -> bool {
        self.0 == u64::MAX
    }
}

/// An instrumented point in the packet pipeline (or the control plane).
///
/// Discriminants are part of the dump wire format — append new stages,
/// never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Stage {
    /// Arrival admitted into the endsystem (tag minted here).
    Admitted = 0,
    /// The overload gate ruled on the arrival (in the scheduler thread,
    /// after the ring); `detail` carries the [`gate reason`](detail)
    /// code.
    GateVerdict = 1,
    /// Producer pushed the arrival into an SPSC ring.
    RingEnqueue = 2,
    /// Scheduler popped the arrival from an SPSC ring.
    RingDequeue = 3,
    /// Arrival deposited into the fabric's per-slot queue.
    FabricArrival = 4,
    /// A decision cycle selected this packet (scalar or batched arm —
    /// `detail` distinguishes; `arg` is the winner's slot).
    DecisionWin = 5,
    /// The sharded merge chose this shard's candidate; `detail` carries
    /// the decisive `DecisionRule` index (255 = only candidate).
    MergeWin = 6,
    /// Packet handed to the transmitter / service completed.
    Service = 7,
    /// Packet dropped by the overload plane; `detail` carries the
    /// [`gate reason`](detail) / loss-site code. Terminal.
    Shed = 8,
    /// Control: a PCI block transfer was modeled (`arg` = modeled
    /// nanoseconds). Nothing records it since the traced PCI transfers
    /// went; the code stays because stage codes are append-only.
    PciTransfer = 32,
    /// Control: an expiry pass dropped `arg` late head packets.
    DecisionExpire = 33,
    /// Control: a shard's recovery supervisor switched paths (`detail` 1 =
    /// to the host, 0 = re-attach to the card).
    Failover = 34,
    /// Reserved: the retired degradation ladder's rung change. Nothing
    /// records it; the code stays because stage codes are append-only.
    RungChange = 35,
    /// Control: a shard circuit breaker opened (`arg` = shard). The
    /// breakers are retired and nothing records it; the code stays
    /// because stage codes are append-only.
    BreakerOpen = 36,
    /// Control: the decision watchdog declared the path stuck.
    WatchdogTrip = 37,
    /// Control: a continuously-checked simulation invariant failed
    /// (`detail` = invariant code, `arg` = node).
    InvariantViolation = 38,
    /// Control: a decision or expiry attempt was consumed by a fault — the
    /// packet-time elapsed and nothing was scheduled (`detail` 0 = stuck
    /// decision FSM, 1 = crashed fabric/shard).
    DecisionStall = 39,
    /// Control: a graceful ingress drain wrote work off (`detail` 0 = the
    /// drain cutoff flushed `arg` backlogged packets, 1 = the drain
    /// deadline hard-stopped `arg` live readers).
    DrainWriteOff = 40,
}

impl Stage {
    /// Position in the packet lifecycle, if this is a lifecycle stage.
    ///
    /// Ranks are non-decreasing along any valid packet history;
    /// [`Stage::DecisionWin`] and [`Stage::MergeWin`] share a rank (a
    /// sharded run records both for one selection, in either tsc order).
    /// Control stages return `None` and are exempt from causal checks.
    #[inline]
    #[must_use]
    pub const fn lifecycle_rank(self) -> Option<u8> {
        match self {
            Stage::Admitted => Some(0),
            Stage::RingEnqueue => Some(1),
            Stage::RingDequeue => Some(2),
            Stage::GateVerdict => Some(3),
            Stage::FabricArrival => Some(4),
            Stage::DecisionWin | Stage::MergeWin => Some(5),
            Stage::Service => Some(6),
            Stage::Shed => Some(7),
            Stage::PciTransfer
            | Stage::DecisionExpire
            | Stage::Failover
            | Stage::RungChange
            | Stage::BreakerOpen
            | Stage::WatchdogTrip
            | Stage::InvariantViolation
            | Stage::DecisionStall
            | Stage::DrainWriteOff => None,
        }
    }

    /// Short stable name used in Perfetto event names.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Admitted => "admitted",
            Stage::GateVerdict => "gate_verdict",
            Stage::RingEnqueue => "ring_enqueue",
            Stage::RingDequeue => "ring_dequeue",
            Stage::FabricArrival => "fabric_arrival",
            Stage::DecisionWin => "decision_win",
            Stage::MergeWin => "merge_win",
            Stage::Service => "service",
            Stage::Shed => "shed",
            Stage::PciTransfer => "pci_transfer",
            Stage::DecisionExpire => "decision_expire",
            Stage::Failover => "failover",
            Stage::RungChange => "rung_change",
            Stage::BreakerOpen => "breaker_open",
            Stage::WatchdogTrip => "watchdog_trip",
            Stage::InvariantViolation => "invariant_violation",
            Stage::DecisionStall => "decision_stall",
            Stage::DrainWriteOff => "drain_write_off",
        }
    }
}

/// Stable codes carried in [`StageEvent::detail`].
///
/// One shared `u8` namespace per stage; the stage disambiguates. Codes
/// are wire format — append, never renumber.
pub mod detail {
    /// [`super::Stage::DecisionWin`]: the scalar decision arm won.
    pub const DECISION_SCALAR: u8 = 0;
    /// [`super::Stage::DecisionWin`]: the batched packed-lane arm won.
    pub const DECISION_BATCHED: u8 = 1;

    // Gate verdicts carry `ss_overload::GateReason::code` (0..=5).

    /// [`super::Stage::Shed`]: dropped at an overflowing SPSC ring.
    pub const SHED_RING: u8 = 10;
    /// [`super::Stage::Shed`]: abandoned when the watchdog declared the
    /// scheduling path stuck (shard-site loss).
    pub const SHED_SHARD: u8 = 11;
    /// [`super::Stage::Shed`]: head packet expired in the fabric
    /// (`DropLate` policy).
    pub const SHED_EXPIRED: u8 = 12;
    // 13 was the retired degradation ladder's ingest refusal: never reuse.

    /// [`super::Stage::MergeWin`]: the winner was the only live candidate.
    pub const MERGE_ONLY_CANDIDATE: u8 = 255;
}

/// One fixed-size (32-byte) lifecycle event.
///
/// `tsc` is a raw timestamp from [`crate::clock::now_tsc`] — convert to
/// wall time with the dump's `ticks_per_us`. `cycle` is the recording
/// component's decision-cycle count where one is meaningful (0 on
/// threads that don't run cycles). `track` identifies the recording ring
/// (thread/shard); the exporter maps it to a Perfetto track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageEvent {
    /// Packet tag, or [`TraceTag::CONTROL`].
    pub tag: u64,
    /// Raw timestamp ([`crate::clock::now_tsc`]).
    pub tsc: u64,
    /// Decision-cycle count at the recorder (0 where not meaningful).
    pub cycle: u64,
    /// Recording track (thread/shard) ID.
    pub track: u16,
    /// The instrumented point.
    pub stage: Stage,
    /// Stage-specific code (see [`detail`]).
    pub detail: u8,
    /// Stage-specific argument (winner slot, modeled ns, rung, shard…).
    pub arg: u32,
}

impl StageEvent {
    /// A control-plane event (tag [`TraceTag::CONTROL`]) under a
    /// caller-provided timestamp, so a burst can share one clock read.
    // lint:hot-path
    #[inline]
    #[must_use]
    pub const fn control(
        tsc: u64,
        cycle: u64,
        track: u16,
        stage: Stage,
        detail: u8,
        arg: u32,
    ) -> Self {
        Self {
            tag: TraceTag::CONTROL.0,
            tsc,
            cycle,
            track,
            stage,
            detail,
            arg,
        }
    }

    /// The event's tag, typed.
    #[inline]
    #[must_use]
    pub const fn trace_tag(&self) -> TraceTag {
        TraceTag(self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_packs_and_unpacks() {
        let t = TraceTag::new(0xBEEF, 0x0102, 0xDEAD_CAFE);
        assert_eq!(t.origin(), 0xBEEF);
        assert_eq!(t.slot(), 0x0102);
        assert_eq!(t.seq(), 0xDEAD_CAFE);
        assert!(!t.is_control());
        assert!(TraceTag::CONTROL.is_control());
    }

    #[test]
    fn control_tag_unreachable_from_new() {
        // Even the all-ones field values differ from CONTROL only if new()
        // could produce u64::MAX — it can, with all fields saturated; the
        // recorder never mints origin/slot 0xFFFF, so the reserved value
        // stays unambiguous in practice. Document the edge:
        let saturated = TraceTag::new(u16::MAX, u16::MAX, u32::MAX);
        assert!(saturated.is_control(), "saturated fields alias CONTROL");
    }

    #[test]
    fn lifecycle_ranks_are_monotone_over_the_happy_path() {
        let path = [
            Stage::Admitted,
            Stage::RingEnqueue,
            Stage::RingDequeue,
            Stage::GateVerdict,
            Stage::FabricArrival,
            Stage::DecisionWin,
            Stage::Service,
        ];
        let ranks: Vec<u8> = path.iter().filter_map(|s| s.lifecycle_rank()).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted);
        assert_eq!(
            Stage::DecisionWin.lifecycle_rank(),
            Stage::MergeWin.lifecycle_rank(),
            "selection stages share a rank"
        );
        assert!(Stage::WatchdogTrip.lifecycle_rank().is_none());
    }

    #[test]
    fn appended_codes_leave_the_wire_format_alone() {
        // Append, never renumber: the last pre-existing control stage and
        // shed code keep their values, the new ones take the next.
        assert_eq!(Stage::InvariantViolation as u8, 38);
        assert_eq!(Stage::DecisionStall as u8, 39);
        assert!(Stage::DecisionStall.lifecycle_rank().is_none());
        assert_eq!(Stage::DecisionStall.name(), "decision_stall");
        assert_eq!(Stage::DrainWriteOff as u8, 40);
        assert!(Stage::DrainWriteOff.lifecycle_rank().is_none());
        assert_eq!(Stage::DrainWriteOff.name(), "drain_write_off");
        assert_eq!(detail::SHED_EXPIRED, 12);
    }

    #[test]
    fn stage_event_is_32_bytes() {
        assert_eq!(std::mem::size_of::<StageEvent>(), 32);
    }

    #[test]
    fn stage_event_serde_round_trips() {
        let e = StageEvent {
            tag: TraceTag::new(1, 7, 42).0,
            tsc: 123_456,
            cycle: 99,
            track: 3,
            stage: Stage::GateVerdict,
            detail: detail::SHED_EXPIRED,
            arg: 7,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: StageEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
