//! Sharded parallel scheduler frontend: scale past one fabric.
//!
//! A single ShareStreams fabric is capped at 32 stream-slots and its
//! decision latency grows with log2(N). This crate partitions M streams
//! contiguously across K independent fabric shards — global slot `g` lives
//! on shard `g / (M/K)` as local slot `g % (M/K)` — and rebuilds the global
//! schedule with a **winner-merge**: the paper's Table 2 pairwise
//! comparator applied across the K shard winners, exactly the comparator
//! tree a K-ported hardware frontend would instantiate after the per-shard
//! tournaments. Shards propose packed `u64` lane words
//! ([`ss_types::packed`]) and the merge orders them with the fabric's own
//! lane comparator ([`ss_core::decision::lane_order`]): a proposal is never
//! unpacked unless its deadline ties, and an idle shard's empty word loses
//! on its top bit.
//!
//! Two drive modes share the same shards:
//!
//! * **Inline** ([`ShardedScheduler::decision_cycle`]) — deterministic,
//!   single-threaded, *exact*, and split where K hardware fabrics split a
//!   cycle: every live shard *proposes* — one counted WR tournament,
//!   [`ss_core::Fabric::propose`] — the merge picks the global winner
//!   among the proposed words (slot ties broken by global slot ID, so the
//!   contiguous partition reproduces the single-fabric total order), the
//!   winning shard is *granted* its own word
//!   ([`ss_core::Fabric::grant`]) and every other live shard *passes*
//!   ([`ss_core::Fabric::expire_cycle`]). No shard is ranked twice.
//!   Because the Table 2 rule chain is a total order, `min` over shard
//!   minima is the global minimum — the merged schedule is bit-identical
//!   to a single M-slot WR fabric (`tests/conformance.rs` holds it there).
//! * **Threaded** ([`ShardedScheduler::into_threaded`]) — each shard's
//!   fabric moves onto its own worker thread, fed arrivals and batch
//!   commands over the endsystem's lock-free SPSC rings, and streams one
//!   proposal per cycle back (`propose` → `grant`: every shard
//!   transmits). The merger orders each cycle's ≤K shard winners into a
//!   *streamlet* with the same comparator. All K shards
//!   service their own winner every cycle (a K-lane aggregate link), so
//!   throughput scales with K; per-stream accounting is shard-local. The
//!   documented **streamlet tolerance** versus a single fabric is this mode's
//!   reordering window: within one streamlet (≤K packets) transmission order
//!   is comparator-exact, across streamlets each shard has serviced exactly
//!   one packet per cycle regardless of global load imbalance.
//!
//! The crate is three modules over one idea. `frontend` holds what both
//! modes need and writes each shared rule once: slot routing, the merge
//! order (incumbent keeps a full tie), exclusion booking and
//! merge-telemetry recording. `inline` and `threaded` own only what
//! differs — the fabrics and breakers here, the rings and workers there —
//! and [`ShardedScheduler::into_threaded`] moves the frontend whole.
//! Supervisor hooks are off until attached: the fault ledger
//! ([`ss_core::RecoveryLedger`]) books nothing while detached, and the
//! merge trace and merge metrics are zero-sized for the default
//! `ShardedScheduler<()>` (the [`ss_core::Traced`] instantiation carries
//! them), so the drive modes carry no `cfg` on fields or statements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frontend;
mod inline;
mod threaded;

#[cfg(test)]
mod tests;

pub use inline::ShardedScheduler;
pub use threaded::{StreamletReport, ThreadedShards};
