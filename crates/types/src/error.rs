//! Error types shared across the workspace.

use std::fmt;

/// Errors raised by ShareStreams components.
///
/// Marked `#[non_exhaustive]`: fault-handling layers grow new variants as
/// recovery machinery is added, and downstream matches must keep a
/// catch-all arm rather than assume the failure taxonomy is closed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A slot index exceeded the configured fabric size.
    SlotOutOfRange {
        /// Offending index.
        slot: usize,
        /// Configured number of slots.
        slots: usize,
    },
    /// The requested slot count is unsupported by the fabric (must be a
    /// power of two between 2 and 32).
    InvalidSlotCount(usize),
    /// A stream was registered twice or a slot is already occupied.
    SlotBusy(usize),
    /// A per-stream queue overflowed its configured capacity.
    QueueFull {
        /// Queue owner.
        slot: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// The design does not fit the targeted FPGA device.
    DeviceCapacityExceeded {
        /// Slices required.
        required_slices: u32,
        /// Slices available on the device.
        available_slices: u32,
    },
    /// Configuration rejected with a human-readable reason.
    Config(String),
    /// A host↔card transfer did not complete within its retry budget.
    TransferTimeout {
        /// Attempts made (initial try + retries).
        attempts: u32,
        /// Deadline budget that was exhausted, ns.
        budget_ns: u64,
    },
    /// An SRAM bank was touched by a side that does not own it, or the
    /// ownership handover itself failed arbitration.
    BankContention {
        /// Offending bank index.
        bank: usize,
    },
    /// A scheduler shard crashed or stalled and was excluded from the
    /// winner merge.
    ShardFailed {
        /// Failed shard index.
        shard: usize,
    },
    /// A shard index exceeded the configured shard count. Structured (not
    /// a [`Error::Config`] string) so constructing it never allocates —
    /// shard management is reachable from the fault-injection path.
    ShardOutOfRange {
        /// Offending shard index.
        shard: usize,
        /// Configured number of shards.
        shards: usize,
    },
    /// The scheduler is running degraded and cannot finish the operation
    /// (a pipeline thread panicked).
    DegradedMode {
        /// What degraded and why, human-readable.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SlotOutOfRange { slot, slots } => {
                write!(f, "slot {slot} out of range (fabric has {slots} slots)")
            }
            Error::InvalidSlotCount(n) => {
                write!(
                    f,
                    "invalid slot count {n}: must be a power of two in 2..=32"
                )
            }
            Error::SlotBusy(slot) => write!(f, "slot {slot} already occupied"),
            Error::QueueFull { slot, capacity } => {
                write!(f, "queue for slot {slot} full (capacity {capacity})")
            }
            Error::DeviceCapacityExceeded {
                required_slices,
                available_slices,
            } => write!(
                f,
                "design needs {required_slices} slices but device has {available_slices}"
            ),
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
            Error::TransferTimeout {
                attempts,
                budget_ns,
            } => write!(
                f,
                "transfer failed after {attempts} attempts ({budget_ns} ns budget exhausted)"
            ),
            Error::BankContention { bank } => {
                write!(f, "SRAM bank {bank} contended: accessed without ownership")
            }
            Error::ShardFailed { shard } => {
                write!(f, "shard {shard} failed and was excluded from the merge")
            }
            Error::ShardOutOfRange { shard, shards } => {
                write!(f, "no shard {shard} (scheduler has {shards} shards)")
            }
            Error::DegradedMode { reason } => {
                write!(f, "scheduler degraded: {reason}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            Error::SlotOutOfRange { slot: 9, slots: 8 }.to_string(),
            "slot 9 out of range (fabric has 8 slots)"
        );
        assert_eq!(
            Error::InvalidSlotCount(6).to_string(),
            "invalid slot count 6: must be a power of two in 2..=32"
        );
        assert_eq!(Error::SlotBusy(3).to_string(), "slot 3 already occupied");
        assert!(Error::QueueFull {
            slot: 1,
            capacity: 64
        }
        .to_string()
        .contains("capacity 64"));
        assert!(Error::Config("bad".into()).to_string().contains("bad"));
        assert_eq!(
            Error::TransferTimeout {
                attempts: 4,
                budget_ns: 10_000
            }
            .to_string(),
            "transfer failed after 4 attempts (10000 ns budget exhausted)"
        );
        assert!(Error::BankContention { bank: 1 }
            .to_string()
            .contains("bank 1"));
        assert!(Error::ShardFailed { shard: 2 }
            .to_string()
            .contains("shard 2"));
        assert!(Error::DegradedMode {
            reason: "fabric stuck".into()
        }
        .to_string()
        .contains("fabric stuck"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::SlotBusy(0));
    }
}
