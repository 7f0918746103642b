//! Decision-cycle fault hooks, attached at runtime.
//!
//! [`FabricFaults`] optionally holds an `Arc<ss_faults::FaultInjector>`
//! and consults it at the top of every decision cycle: a sampled
//! `ss_faults::FaultKind::StuckCycles` fault wedges the control FSM in its
//! SCHEDULE↔PRIORITY_UPDATE loop for that many cycles — attempts during
//! the window consume a packet-time but produce nothing and advance no
//! register state — and a crash blocks the fabric permanently (modelling a
//! lost card partition). It is detached by default: a fabric with no
//! injector and no crash runs every cycle clean, and no hook allocates
//! (`tests/zero_alloc.rs` drives attached fabrics too).
//!
//! Detection is deliberately *not* in here: [`crate::watchdog`] watches
//! every fabric, because a real deployment needs the watchdog against
//! genuine hardware wedges, not only injected ones.
//!
//! [`RecoveryLedger`] is the supervisors' half of the same contract: the
//! handle the sharded frontend and the endsystem pipeline hold to book
//! what their recovery paths did (exclusions, hand-overs to the host,
//! re-attaches, written-off packets) on the injector's `FaultStats`, and
//! to wire a fabric back to the same injector when it returns to its card.
//! Detached, every booking is one branch that books nothing.

use ss_faults::{FaultInjector, FaultKind, FaultSite};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Per-fabric fault state. Detached by default — cycles run clean until
/// [`FabricFaults::attach`] wires an injector.
#[derive(Debug, Default)]
pub struct FabricFaults {
    injector: Option<Arc<FaultInjector>>,
    /// Remaining cycles of the current stuck-FSM wedge.
    stuck_remaining: u32,
    /// Permanently blocked (crashed card partition / dead shard).
    crashed: bool,
}

impl FabricFaults {
    /// Detached fault state: every cycle runs clean.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wires this fabric to a shared injector. Sampling draws from the
    /// injector's [`FaultSite::DecisionCycle`] stream.
    pub fn attach(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Clears any wedge or crash and drops the injector: the hand-over to
    /// a host path, which draws no card faults.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Marks the fabric permanently blocked, as a shard-crash fault
    /// does. Subsequent cycles produce nothing.
    pub fn crash(&mut self) {
        self.crashed = true;
    }

    /// `true` once the fabric has been crashed.
    #[inline]
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Hook: called at the top of each decision/expiry cycle. Returns
    /// `true` if the cycle is blocked (wedged or crashed) — the fabric
    /// then burns the packet-time idle without touching register state.
    #[inline]
    pub fn begin_cycle(&mut self) -> bool {
        if self.crashed {
            if let Some(inj) = &self.injector {
                inj.stats().stalled_cycles.fetch_add(1, Ordering::Relaxed);
            }
            return true;
        }
        if self.stuck_remaining > 0 {
            self.stuck_remaining -= 1;
            if let Some(inj) = &self.injector {
                inj.stats().stalled_cycles.fetch_add(1, Ordering::Relaxed);
            }
            return true;
        }
        let Some(inj) = &self.injector else {
            return false;
        };
        match inj.sample(FaultSite::DecisionCycle) {
            Some(FaultKind::StuckCycles { cycles }) => {
                // This cycle is the first of the wedge.
                self.stuck_remaining = cycles.saturating_sub(1);
                inj.stats().stalled_cycles.fetch_add(1, Ordering::Relaxed);
                true
            }
            // The DecisionCycle stream only emits StuckCycles; any
            // other kind would be an injector bug — treat as clean
            // rather than wedge on unknown input.
            _ => false,
        }
    }
}

/// A supervisor's handle on the shared injector's recovery ledger.
/// Detached by default — every booking is a cheap branch until
/// [`RecoveryLedger::attach`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryLedger {
    injector: Option<Arc<FaultInjector>>,
}

impl RecoveryLedger {
    /// A detached ledger: bookings go nowhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// Books on (and wires fabrics to) `injector` from now on.
    pub fn attach(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// The shared injector, for the holder's own fault sampling.
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Wires `fabric`'s decision cycles to the attached injector (a
    /// fabric going back to its card).
    pub fn wire<T: crate::Telemetry>(&self, fabric: &mut crate::Fabric<T>) {
        if let Some(inj) = &self.injector {
            fabric.attach_faults(Arc::clone(inj));
        }
    }

    /// Books `detected` recovery detections and `lost` written-off
    /// packets.
    #[inline]
    pub fn tally(&self, detected: u64, lost: u64) {
        if let Some(inj) = &self.injector {
            inj.stats().detected.fetch_add(detected, Ordering::Relaxed);
            inj.stats().lost_packets.fetch_add(lost, Ordering::Relaxed);
        }
    }

    /// Books one shard excluded from the winner merge: one detection,
    /// one exclusion, `lost` packets written off with it.
    #[inline]
    pub fn shard_excluded(&self, lost: u64) {
        if let Some(inj) = &self.injector {
            inj.stats().shards_excluded.fetch_add(1, Ordering::Relaxed);
        }
        self.tally(1, lost);
    }

    /// Books one hand-over from the card to the host (a detection).
    #[inline]
    pub fn failed_over(&self) {
        if let Some(inj) = &self.injector {
            inj.stats().failovers.fetch_add(1, Ordering::Relaxed);
        }
        self.tally(1, 0);
    }

    /// Books one re-attach from the host to the card.
    #[inline]
    pub fn reattached(&self) {
        if let Some(inj) = &self.injector {
            inj.stats().reattaches.fetch_add(1, Ordering::Relaxed);
        }
    }
}
