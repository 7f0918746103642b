//! The continuous invariant engine: every virtual tick, every node.
//!
//! Each check is a pure read over node/egress state and returns a dense
//! [`Invariant`] code — no formatting, no allocation on the per-tick path;
//! human-readable descriptions are rendered only after a violation, off
//! the hot loop. The catalog (see DESIGN.md §"Cluster simulation & soak
//! lab" for the prose version):
//!
//! | code | checked | identity |
//! |------|---------|----------|
//! | `Conservation` | every tick | `offered == ledger.total() + transmitted + live_backlog` |
//! | `BacklogMirror` | every tick | incremental backlog counter == recomputed fabric sum |
//! | `VirtualTimeMonotone` | every tick | winner `completed_at` strictly increasing per node |
//! | `ProtectedShed` | every tick | shed count on fully-protected slots is identically 0 |
//! | `Livelock` | every tick | backlog > 0 never starves for > 256 non-stalled ticks |
//! | `CounterSanity` | every 64 ticks | per live slot: `met ≤ serviced`, `pushed == serviced + backlog` |
//! | `EgressConservation` | every tick | winners == egressed + egress queue + egress drops |
//! | `InternalError` | every tick | the fabric never returns an unexpected error |
//!
//! `CounterSanity` ports `tests/soak.rs`'s million-decision invariants
//! (rolling conservation + `met_deadlines ≤ serviced`) into the
//! continuously-checked set, so they now run on every CI leg instead of
//! only under `--ignored`.

use crate::node::SimNode;
use serde::Serialize;

/// Ticks between `CounterSanity` sweeps (per-slot O(slots) reads).
pub const COUNTER_SANITY_PERIOD: u64 = 64;

/// Non-stalled starved ticks after which a backlog is declared livelocked.
pub const LIVELOCK_STREAK: u32 = 256;

/// A continuously-checked invariant. Codes are stable: they ride in
/// flight-recorder events (`detail` byte) and repro output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[repr(u8)]
pub enum Invariant {
    /// Node loss-ledger conservation.
    Conservation = 0,
    /// Incremental vs recomputed backlog.
    BacklogMirror = 1,
    /// Winner virtual time strictly increasing.
    VirtualTimeMonotone = 2,
    /// Fully-protected streams never shed.
    ProtectedShed = 3,
    /// Backlogged fabric keeps producing winners.
    Livelock = 4,
    /// Per-slot fabric counters are self-consistent.
    CounterSanity = 5,
    /// Cluster egress conserves winners.
    EgressConservation = 6,
    /// The fabric surfaced an unexpected error.
    InternalError = 7,
}

impl Invariant {
    /// Stable short name.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::Conservation => "conservation",
            Invariant::BacklogMirror => "backlog-mirror",
            Invariant::VirtualTimeMonotone => "virtual-time-monotone",
            Invariant::ProtectedShed => "protected-shed",
            Invariant::Livelock => "livelock",
            Invariant::CounterSanity => "counter-sanity",
            Invariant::EgressConservation => "egress-conservation",
            Invariant::InternalError => "internal-error",
        }
    }

    /// One-line description of what failed.
    pub fn describe(self) -> &'static str {
        match self {
            Invariant::Conservation => {
                "offered != ledger.total() + transmitted + live_backlog: a packet was lost \
                 without a ledger site or conjured from nowhere"
            }
            Invariant::BacklogMirror => {
                "the incremental backlog counter disagrees with the recomputed fabric backlog"
            }
            Invariant::VirtualTimeMonotone => {
                "a winner completed at a virtual time not after its predecessor"
            }
            Invariant::ProtectedShed => {
                "a fully-protected (0/y window) stream recorded a shed: the QoS floor broke"
            }
            Invariant::Livelock => {
                "a backlogged fabric produced no winner for too many consecutive live ticks"
            }
            Invariant::CounterSanity => {
                "per-slot fabric counters went inconsistent (met > serviced, or pushed != \
                 serviced + backlog), or the fabric returned an unexpected error"
            }
            Invariant::EgressConservation => {
                "linecard egress lost winners: transmitted != egressed + queued + dropped"
            }
            Invariant::InternalError => "the sharded fabric returned an unexpected error",
        }
    }
}

/// A detected violation, located in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Violation {
    /// Node the check failed on (egress checks report node 0's index
    /// space: `u32::MAX` marks cluster-level checks).
    pub node: u32,
    /// Virtual tick of detection.
    pub tick: u64,
    /// Which invariant failed.
    pub invariant: Invariant,
}

/// Cluster-level egress accounting fed to the engine each tick.
#[derive(Debug, Clone, Copy)]
pub struct EgressView {
    /// Winners handed to the linecard aggregator so far.
    pub transmitted: u64,
    /// Winners forwarded onto the wire.
    pub egressed: u64,
    /// Winners waiting in the bounded egress queue.
    pub queued: u64,
    /// Winners dropped at the full egress queue.
    pub dropped: u64,
}

/// The engine: stateless between ticks except for the violation sink —
/// all witness state lives in the nodes, so parallel stepping never races
/// a check.
#[derive(Debug, Default)]
pub struct InvariantEngine {
    violations: Vec<Violation>,
}

impl InvariantEngine {
    /// A fresh engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the per-node catalog against `node` at `tick`, recording (and
    /// returning) the first violated invariant. Registered hot path: the
    /// every-tick checks are O(slots) integer reads; formatting happens
    /// only in violation reporting, outside this function.
    // lint:hot-path
    #[inline]
    pub fn check_node(&mut self, node: &SimNode, tick: u64) -> Option<Invariant> {
        let failed = Self::probe(node, tick);
        if let Some(invariant) = failed {
            self.record(node.id() as u32, tick, invariant);
        }
        failed
    }

    /// Books a violation found by [`probe`](Self::probe) — possibly on
    /// another thread, an epoch ago: detection order is booking order.
    pub(crate) fn record(&mut self, node: u32, tick: u64, invariant: Invariant) {
        self.violations.push(Violation {
            node,
            tick,
            invariant,
        });
    }

    /// The per-node checks, first failure wins: a pure read of `node`, so
    /// the node phase can run it wherever the node is. Registered hot path.
    // lint:hot-path
    #[inline]
    pub fn probe(node: &SimNode, tick: u64) -> Option<Invariant> {
        let live_backlog = node.recomputed_backlog();
        if node.backlog_ctr() != live_backlog {
            return Some(Invariant::BacklogMirror);
        }
        if node.offered() != node.ledger().total() + node.transmitted() + live_backlog {
            return Some(Invariant::Conservation);
        }
        if !node.monotone_ok() {
            return Some(Invariant::VirtualTimeMonotone);
        }
        if node.protected_sheds() != 0 {
            return Some(Invariant::ProtectedShed);
        }
        if node.idle_streak() > LIVELOCK_STREAK {
            return Some(Invariant::Livelock);
        }
        if node.internal_error() {
            return Some(Invariant::InternalError);
        }
        if tick.is_multiple_of(COUNTER_SANITY_PERIOD) {
            for s in 0..node.slots() {
                if node.is_dead_slot(s) {
                    continue;
                }
                let (counters, backlog) = match (node.slot_counters(s), node.slot_backlog(s)) {
                    (Ok(c), Ok(b)) => (c, b),
                    _ => return Some(Invariant::CounterSanity),
                };
                if counters.met_deadlines > counters.serviced {
                    return Some(Invariant::CounterSanity);
                }
                // ServeLate fabric: nothing is dropped, so every pushed
                // arrival is serviced or still queued.
                if node.pushed(s) != counters.serviced + backlog as u64 {
                    return Some(Invariant::CounterSanity);
                }
            }
        }
        None
    }

    /// Checks cluster-level egress conservation. Registered hot path.
    // lint:hot-path
    #[inline]
    pub fn check_egress(&mut self, egress: EgressView, tick: u64) -> Option<Invariant> {
        if egress.transmitted != egress.egressed + egress.queued + egress.dropped {
            self.record(u32::MAX, tick, Invariant::EgressConservation);
            return Some(Invariant::EgressConservation);
        }
        None
    }

    /// All violations detected so far, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_codes_are_stable() {
        assert_eq!(Invariant::Conservation as u8, 0);
        assert_eq!(Invariant::ProtectedShed as u8, 3);
        assert_eq!(Invariant::EgressConservation.name(), "egress-conservation");
        for inv in [
            Invariant::Conservation,
            Invariant::BacklogMirror,
            Invariant::VirtualTimeMonotone,
            Invariant::ProtectedShed,
            Invariant::Livelock,
            Invariant::CounterSanity,
            Invariant::EgressConservation,
            Invariant::InternalError,
        ] {
            assert!(!inv.describe().is_empty());
        }
    }

    #[test]
    fn egress_conservation_detects_a_lost_winner() {
        let mut engine = InvariantEngine::new();
        assert_eq!(
            engine.check_egress(
                EgressView {
                    transmitted: 10,
                    egressed: 7,
                    queued: 2,
                    dropped: 1
                },
                5
            ),
            None
        );
        assert_eq!(
            engine.check_egress(
                EgressView {
                    transmitted: 10,
                    egressed: 7,
                    queued: 2,
                    dropped: 0
                },
                6
            ),
            Some(Invariant::EgressConservation)
        );
        assert_eq!(engine.violations().len(), 1);
        assert_eq!(engine.violations()[0].node, u32::MAX);
    }
}
