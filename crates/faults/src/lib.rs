//! # ss-faults — deterministic fault injection and recovery accounting
//!
//! ShareStreams splits scheduling across a host↔card boundary: the Stream
//! processor feeds arrivals over PCI, banked SRAM hands packet state
//! between host and card, and the decision fabric (or its software
//! fallback) picks winners. Every one of those seams can fail — transfers
//! time out, bank arbitration races, ring buffers overflow, FSMs wedge,
//! shards die. This crate provides the machinery to *cause* those failures
//! on purpose, deterministically, and to account for the recovery paths
//! that handle them:
//!
//! * [`FaultInjector`] — seed-driven, per-site SplitMix64 streams; the k-th
//!   query at a site yields the same verdict for the same seed no matter
//!   how threads interleave. Shared via `Arc`, sampled with one atomic add.
//! * [`retry_with_backoff`] — bounded retry under a simulated-time budget
//!   (no sleeps), producing [`ss_types::Error::TransferTimeout`] on
//!   exhaustion.
//! * [`FaultStats`] — lock-free counters reconciling the injected schedule
//!   against what the recovery machinery detected, retried, recovered,
//!   failed over, or lost. The chaos soak asserts the two sides agree.
//!
//! ## Zero cost when off
//!
//! Downstream crates (`ss-core`, `ss-endsystem`, `ss-sharded`) gate their
//! hooks behind their own `faults` cargo feature, mirroring the
//! `ss-telemetry` pattern: with the feature off the hook types are
//! zero-sized and every call is an empty `#[inline(always)]` body, so the
//! zero-allocation decision core and its benchmarks are untouched. This
//! crate itself is feature-free — it is only ever linked when somebody
//! turned faults on.
//!
//! [`FaultInjector::publish`] exports every
//! counter into an [`ss_telemetry`] registry so chaos runs flow through the
//! same Prometheus/JSON pipeline as regular runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod injector;
pub mod rng;

pub use backoff::{retry_with_backoff, RetryOutcome, RetryPolicy};
pub use injector::{
    FaultConfig, FaultInjector, FaultKind, FaultSite, FaultStats, FaultStatsSnapshot, SITE_COUNT,
};
pub use rng::SplitMix64;

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any seed/rate: the injector's own counters equal an external
        /// tally of its verdicts.
        #[test]
        fn injected_counts_always_reconcile(seed in any::<u64>(), rate in 0u32..400_000) {
            let inj = FaultInjector::new(seed, FaultConfig::uniform(rate));
            let mut tally = [0u64; SITE_COUNT];
            for _ in 0..256 {
                for site in FaultSite::ALL {
                    if inj.sample(site).is_some() {
                        tally[site.index()] += 1;
                    }
                }
            }
            prop_assert_eq!(inj.stats().snapshot().injected, tally);
        }

        /// Retry accounting: detected = failures observed, and exactly one
        /// of recovered/gave_up fires per operation.
        #[test]
        fn retry_accounting_is_consistent(fail_first in 0u32..6, max_attempts in 1u32..6) {
            let policy = RetryPolicy {
                max_attempts,
                budget_ns: u64::MAX,
                ..RetryPolicy::default()
            };
            let stats = FaultStats::default();
            let result = retry_with_backoff(&policy, Some(&stats), |attempt| {
                if attempt < fail_first { Err(100u64) } else { Ok(((), 100u64)) }
            });
            let snap = stats.snapshot();
            if fail_first < max_attempts {
                prop_assert!(result.is_ok());
                prop_assert_eq!(snap.detected, u64::from(fail_first));
                prop_assert_eq!(snap.recovered, u64::from(fail_first > 0));
                prop_assert_eq!(snap.gave_up, 0);
            } else {
                prop_assert!(result.is_err());
                prop_assert_eq!(snap.detected, u64::from(max_attempts));
                prop_assert_eq!(snap.recovered, 0);
                prop_assert_eq!(snap.gave_up, 1);
            }
        }
    }
}
