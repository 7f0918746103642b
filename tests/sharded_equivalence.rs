//! The sharded frontend against a single fabric on seeded workloads. The
//! inline winner merge is exact: the rule chain with the slot tie-break is
//! a total order, so the minimum over shard minima is the global minimum,
//! and every merged winner, verdict and expiry lands as on the single
//! fabric. Each test replays one seeded class of the conformance harness
//! (`support/harness.rs`) on every path it holds, inline sharding at
//! K = 1, 2, 4 and 8 among them. The threaded mode is held to a single
//! fabric's per-slot totals.

#[path = "support/harness.rs"]
mod harness;

use harness::{check, replay, seeded, start, uniform, Op, Path, Run};
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

/// `ShardedScheduler::into_threaded` at K = 2 and 4 serves every slot what
/// a single fabric serves it on the uniform class.
#[test]
fn threaded_sharded_conserves_against_single_fabric() {
    let trace = uniform();
    let single = replay(&trace, &[Path::Scalar]).expect("one path cannot disagree");
    let counters = single.counters.expect("a replay ends with its counters");
    let want: Vec<u64> = counters.iter().map(|c| c.serviced).collect();
    let total = want.iter().sum::<u64>();
    for (shards, path) in [(2, Path::Sharded2), (4, Path::Sharded4)] {
        let mut run = start(path, &trace);
        for op in &trace.ops {
            if let Op::Arrive(s, tag) = op {
                run.arrive(*s, *tag);
            }
        }
        let Run::Sharded(sharded) = run else {
            unreachable!("a sharded path")
        };
        // One packet per shard per cycle: each shard drains its share.
        let (mut threaded, cycles) = (sharded.into_threaded(8192), total / shards as u64);
        let report = threaded.run_cycles(cycles);
        let mut per_slot = vec![0u64; 32];
        for p in &report.packets {
            per_slot[p.slot.index()] += 1;
        }
        assert_eq!(per_slot, want, "into_threaded K={shards}");
        assert_eq!(report.decisions, cycles * shards as u64);
        threaded.join();
    }
}
