//! The sharded frontend against a single fabric on seeded workloads. The
//! inline winner merge is exact: the rule chain with the slot tie-break is
//! a total order, so the minimum over shard minima is the global minimum,
//! and every merged winner, verdict and expiry lands as on the single
//! fabric. Each test replays one seeded class of the conformance harness
//! (`support/harness.rs`) on every path it holds, inline sharding at
//! K = 1, 2, 4 and 8 among them. The threaded streamlet mode is held to
//! totals in `conformance.rs`.

#[path = "support/harness.rs"]
mod harness;

use harness::{check, seeded};
use sharestreams::core::FabricConfig;
use sharestreams::core::FabricConfigKind::WinnerOnly;

#[test]
fn inline_sharded_exactly_matches_single_fabric_edf() {
    check(seeded(FabricConfig::edf(32, WinnerOnly), 0xE0F1));
}

#[test]
fn inline_sharded_exactly_matches_single_fabric_dwcs() {
    check(seeded(FabricConfig::dwcs(32, WinnerOnly), 0xD3C51));
}

#[test]
fn inline_sharded_exactly_matches_single_fabric_service_tag() {
    check(seeded(FabricConfig::service_tag(16, WinnerOnly), 0x5EF1));
}
