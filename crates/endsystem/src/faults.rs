//! Endsystem fault hooks, attached at runtime.
//!
//! [`EndsystemFaults`] is the one object the endsystem's host↔card seams
//! consult: PCI transfers ask it to run their cost through the bounded
//! retry loop, the banked SRAM asks for handover stalls and wrong-owner
//! races, and the SPSC producers ask whether an overflow burst hits this
//! enqueue. Detached (the default) every method answers nominally after
//! one branch, so a transfer costs exactly the nominal cost model.

use ss_core::RecoveryLedger;
use ss_faults::{retry_with_backoff, FaultInjector, FaultKind, FaultSite, RetryPolicy};
use ss_types::{Nanos, Result};
use std::sync::Arc;

/// Endsystem fault state. Detached by default — every seam behaves
/// nominally until [`EndsystemFaults::attach`].
#[derive(Debug, Clone, Default)]
pub struct EndsystemFaults {
    ledger: RecoveryLedger,
    policy: RetryPolicy,
}

impl EndsystemFaults {
    /// Detached fault state: transfers never fail, no stalls, no races.
    pub fn new() -> Self {
        Self {
            ledger: RecoveryLedger::new(),
            policy: RetryPolicy::default(),
        }
    }

    /// Wires the endsystem seams to a shared injector with the given
    /// retry policy for PCI transfers.
    pub fn attach(&mut self, injector: Arc<FaultInjector>, policy: RetryPolicy) {
        self.ledger.attach(injector);
        self.policy = policy;
    }

    /// `true` once an injector is attached.
    pub fn is_attached(&self) -> bool {
        self.ledger.injector().is_some()
    }

    /// Runs one PCI transfer of nominal cost `base_cost_ns` through the
    /// seeded fault schedule: each attempt samples the
    /// [`FaultSite::PciTransfer`] stream, failed attempts burn their
    /// cost plus exponential backoff, and exhaustion surfaces as
    /// [`ss_types::Error::TransferTimeout`]. Returns the total
    /// simulated cost on success.
    #[inline]
    pub fn transfer_ns(&self, base_cost_ns: Nanos) -> Result<Nanos> {
        let Some(inj) = self.ledger.injector() else {
            return Ok(base_cost_ns);
        };
        let outcome = retry_with_backoff(&self.policy, Some(inj.stats()), |_attempt| {
            match inj.sample(FaultSite::PciTransfer) {
                // Both flavors burn the full transfer before the
                // failure is observed: a timeout waits it out, a
                // corrupt word is only caught by the receiver's check.
                Some(FaultKind::TransferTimeout) | Some(FaultKind::CorruptWord) => {
                    Err(base_cost_ns)
                }
                _ => Ok(((), base_cost_ns)),
            }
        })?;
        Ok(outcome.elapsed_ns)
    }

    /// Extra arbitration latency injected into one bank-ownership
    /// handover (0 = nominal).
    #[inline]
    pub fn handover_extra_ns(&self) -> Nanos {
        match self
            .ledger
            .injector()
            .and_then(|inj| inj.sample(FaultSite::SramHandover))
        {
            Some(FaultKind::BankStall { extra_ns }) => extra_ns,
            _ => 0,
        }
    }

    /// `true` if this bank access loses an arbitration race: the grant
    /// is revoked out from under the accessor.
    #[inline]
    pub fn access_races(&self) -> bool {
        matches!(
            self.ledger
                .injector()
                .and_then(|inj| inj.sample(FaultSite::SramAccess)),
            Some(FaultKind::WrongOwner)
        )
    }

    /// `true` if this SPSC enqueue is hit by an injected overflow
    /// burst (the producer drops instead of retrying).
    #[inline]
    pub fn ring_overflows(&self) -> bool {
        matches!(
            self.ledger
                .injector()
                .and_then(|inj| inj.sample(FaultSite::SpscRing)),
            Some(FaultKind::RingOverflowBurst { .. })
        )
    }

    /// The attached injector's recovery ledger: where the pipeline
    /// books fault-caused loss and wires the fabric it builds.
    pub fn ledger(&self) -> &RecoveryLedger {
        &self.ledger
    }
}
