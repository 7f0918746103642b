//! Bounded retry with exponential backoff under a simulated-time budget.
//!
//! The endsystem models PCI cost in nanoseconds of simulated time, so the
//! retry machinery does too: a failed attempt *costs* its transfer time plus
//! a backoff delay, and the whole operation carries a deadline budget. When
//! the accumulated cost would exceed the budget the operation fails with
//! [`ss_types::Error::TransferTimeout`]. Nothing here sleeps — determinism
//! is preserved and tests run at full speed.

use crate::injector::FaultStats;
use serde::{Deserialize, Serialize};
use ss_types::{Error, Result};
use std::sync::atomic::Ordering;

/// Retry policy: attempt cap, backoff shape, and total time budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum attempts (initial try included). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry, ns.
    pub base_backoff_ns: u64,
    /// Backoff ceiling, ns (doubling clamps here).
    pub max_backoff_ns: u64,
    /// Total simulated-time budget for the operation, ns.
    pub budget_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Sized against the PCI cost model: a PIO word is ~121–242 ns, a
        // DMA setup 2 µs; four attempts with µs-scale backoff comfortably
        // cover transient glitches without letting one op stall a cycle.
        Self {
            max_attempts: 4,
            base_backoff_ns: 500,
            max_backoff_ns: 8_000,
            budget_ns: 50_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay before retry number `retry` (0-based), ns.
    /// Tests-only: the PCI transfer path that `tests/chaos.rs` drives retries through it.
    #[inline]
    pub fn backoff_ns(&self, retry: u32) -> u64 {
        let shifted = self.base_backoff_ns.saturating_shl(retry.min(63));
        shifted.min(self.max_backoff_ns)
    }
}

/// Saturating left shift (std's `checked_shl` caps the shift, not the value).
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> Self;
}
impl SaturatingShl for u64 {
    #[inline]
    fn saturating_shl(self, rhs: u32) -> u64 {
        if self == 0 {
            0
        } else if rhs >= self.leading_zeros() {
            u64::MAX
        } else {
            self << rhs
        }
    }
}

/// Outcome of a successful retried operation.
/// Tests-only: the PCI transfer path that `tests/chaos.rs` drives retries through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryOutcome<T> {
    /// The operation's value.
    pub value: T,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Total simulated cost, ns: every attempt's cost plus backoff delays.
    pub elapsed_ns: u64,
}

/// Runs `op` up to `policy.max_attempts` times under `policy.budget_ns` of
/// simulated time.
///
/// `op(attempt)` returns `Ok((value, cost_ns))` on success or
/// `Err(cost_ns)` with the simulated time the failed attempt burned. The
/// accumulated cost includes backoff delays between attempts. On exhaustion
/// (attempt cap or budget) returns [`Error::TransferTimeout`].
///
/// `stats`, when given, receives the accounting: each extra attempt bumps
/// `retries`, a success after ≥1 failure bumps `recovered`, exhaustion
/// bumps `gave_up`. (`detected` is bumped once per failed attempt —
/// detection is the act of observing the fault.)
/// Tests-only: the PCI transfer path that `tests/chaos.rs` drives retries through it.
pub fn retry_with_backoff<T>(
    policy: &RetryPolicy,
    mut stats: Option<&FaultStats>,
    mut op: impl FnMut(u32) -> std::result::Result<(T, u64), u64>,
) -> Result<RetryOutcome<T>> {
    let mut elapsed: u64 = 0;
    let mut attempts: u32 = 0;
    loop {
        attempts += 1;
        match op(attempts - 1) {
            Ok((value, cost)) => {
                elapsed = elapsed.saturating_add(cost);
                if let Some(s) = stats.take() {
                    if attempts > 1 {
                        s.recovered.fetch_add(1, Ordering::Relaxed);
                    }
                }
                return Ok(RetryOutcome {
                    value,
                    attempts,
                    elapsed_ns: elapsed,
                });
            }
            Err(cost) => {
                elapsed = elapsed.saturating_add(cost);
                if let Some(s) = stats {
                    s.detected.fetch_add(1, Ordering::Relaxed);
                }
                let backoff = policy.backoff_ns(attempts - 1);
                let next_elapsed = elapsed.saturating_add(backoff);
                if attempts >= policy.max_attempts || next_elapsed > policy.budget_ns {
                    if let Some(s) = stats {
                        s.gave_up.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(Error::TransferTimeout {
                        attempts,
                        budget_ns: policy.budget_ns,
                    });
                }
                if let Some(s) = stats {
                    s.retries.fetch_add(1, Ordering::Relaxed);
                }
                elapsed = next_elapsed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_try_success_costs_nothing_extra() {
        let out = retry_with_backoff(&RetryPolicy::default(), None, |_| Ok(((), 121u64)))
            .expect("succeeds");
        assert_eq!(out.attempts, 1);
        assert_eq!(out.elapsed_ns, 121);
    }

    #[test]
    fn recovers_after_transient_failures() {
        let policy = RetryPolicy::default();
        let stats = FaultStats::default();
        let out = retry_with_backoff(&policy, Some(&stats), |attempt| {
            if attempt < 2 {
                Err(242u64)
            } else {
                Ok((7u32, 242u64))
            }
        })
        .expect("third attempt succeeds");
        assert_eq!(out.value, 7);
        assert_eq!(out.attempts, 3);
        // Two failed attempts (242 each) + backoffs (500, 1000) + success.
        assert_eq!(out.elapsed_ns, 242 + 500 + 242 + 1000 + 242);
        let snap = stats.snapshot();
        assert_eq!(snap.detected, 2);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.recovered, 1);
        assert_eq!(snap.gave_up, 0);
    }

    #[test]
    fn exhausts_attempt_cap() {
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let stats = FaultStats::default();
        let err = retry_with_backoff::<()>(&policy, Some(&stats), |_| Err(100u64))
            .expect_err("never succeeds");
        match err {
            Error::TransferTimeout {
                attempts,
                budget_ns,
            } => {
                assert_eq!(attempts, 3);
                assert_eq!(budget_ns, policy.budget_ns);
            }
            other => panic!("unexpected {other:?}"),
        }
        let snap = stats.snapshot();
        assert_eq!(snap.detected, 3);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.gave_up, 1);
        assert_eq!(snap.recovered, 0);
    }

    #[test]
    fn exhausts_time_budget_before_attempt_cap() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_backoff_ns: 1_000,
            max_backoff_ns: 1_000_000,
            budget_ns: 5_000,
        };
        let err = retry_with_backoff::<()>(&policy, None, |_| Err(1_500u64))
            .expect_err("budget exhausted");
        match err {
            Error::TransferTimeout { attempts, .. } => {
                assert!(attempts < 100, "stopped by budget, got {attempts}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        let p = RetryPolicy {
            base_backoff_ns: 500,
            max_backoff_ns: 3_000,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ns(0), 500);
        assert_eq!(p.backoff_ns(1), 1_000);
        assert_eq!(p.backoff_ns(2), 2_000);
        assert_eq!(p.backoff_ns(3), 3_000);
        assert_eq!(p.backoff_ns(40), 3_000);
        assert_eq!(p.backoff_ns(63), 3_000);
    }
}
