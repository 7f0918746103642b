//! One trace, every path: the conformance harness's own classes.
//!
//! The harness lives in `support/harness.rs` (its module docs say how it
//! works). This target replays the cluster generators, the wrap and edge
//! classes, the BA classes, the threaded totals and the mutant; the classes
//! that stand in for the old pairwise suites run under those suites' names
//! in `fabric_vs_reference.rs`, `rtl_differential.rs` and
//! `sharded_equivalence.rs`.

#[path = "support/harness.rs"]
mod harness;

use harness::*;
use sharestreams::core::FabricConfigKind::{Base, WinnerOnly};
use sharestreams::endsystem::{run_threaded, run_threaded_edf, run_threaded_overload};
use sharestreams::endsystem::{run_threaded_faulted, run_threaded_traced, TraceConfig};
use sharestreams::faults::{FaultConfig, FaultInjector, RetryPolicy};
use sharestreams::overload::{GateConfig, RedConfig};
use sharestreams::types::WindowConstraint;
use std::sync::Arc;

/// Every `RESTRICTIONS` row says why its path leaves the class: a paper
/// section (`§…`), or an open ROADMAP item (`item N`) that would lift it.
#[test]
fn every_restriction_cites_its_reason() {
    let roadmap = concat!(env!("CARGO_MANIFEST_DIR"), "/ROADMAP.md");
    let roadmap = std::fs::read_to_string(roadmap).expect("ROADMAP.md is readable");
    let open = roadmap
        .split("\n## Open items")
        .nth(1)
        .expect("an open-items section");
    let open = open.split("\n## ").next().expect("the section's text");
    for (path, _, why) in RESTRICTIONS {
        let items: Vec<&str> = why
            .split("item ")
            .skip(1)
            .map(|rest| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()
                    .expect("split yields")
            })
            .collect();
        assert!(
            why.contains('§') || !items.is_empty(),
            "{path:?}: `{why}` cites neither a paper section nor a ROADMAP item"
        );
        for n in items {
            assert!(
                !n.is_empty() && open.contains(&format!("\n**{n}. ")),
                "{path:?}: `{why}` cites item `{n}`, which is not an open ROADMAP item"
            );
        }
    }
}

#[test]
fn wr_paths_agree_on_the_cluster_generators() {
    for kind in GENERATORS {
        check(generated(kind, false, SEEDS[0], 512));
        check(generated(kind, true, SEEDS[0], 512));
    }
}

#[test]
fn wr_paths_agree_on_the_edge_cases() {
    let end = check(wrap(WinnerOnly, (1 << 16) + 64));
    assert!(end.now > 1 << 16, "the clock crossed the 16-bit wrap");
    check(wrap_backlogged(1 << 12));
    for t in edge_cases(WinnerOnly) {
        check(t);
    }
    check(backlog("backlog/dwcs-renew"));
    check(uniform());
}

#[test]
fn ba_paths_agree_block_for_block() {
    check(refill(true, 500));
    check(refill(false, 500));
    let end = check(wrap(Base, 1 << 15));
    assert!(end.now > 1 << 16, "the clock crossed the 16-bit wrap");
    edge_cases(Base).into_iter().for_each(|t| drop(check(t)));
    check(partial_block());
}

/// The threaded wrappers, held to the uniform class's per-slot totals and an
/// all-zero loss ledger: every `run_threaded*` wrapper compiled on this leg.
/// `ShardedScheduler::into_threaded` is held to the same totals in
/// `sharded_equivalence.rs`.
#[test]
fn threaded_paths_keep_the_uniform_totals() {
    let (trace, anchor) = (uniform(), check(uniform()));
    let counters = anchor.counters.unwrap();
    let want: Vec<u64> = counters.iter().map(|c| c.serviced).collect();
    let (config, total) = (trace.config, want.iter().sum::<u64>());
    let (arrivals, states) = (total / 32, || vec![st(32, 0, 1, 0); 32]);
    let windows = [WindowConstraint::ZERO; 32];
    let red = RedConfig::classic(1 << 20);
    let gate = || GateConfig::from_windows(&windows, 1 << 20, 1 << 22, red, 3);
    let gated = run_threaded_overload(config, states(), arrivals, gate()).unwrap();
    assert_eq!((gated.offered, gated.admitted), (total, total));
    let plain = run_threaded(config, states(), arrivals).unwrap();
    let edf = run_threaded_edf(32, WinnerOnly, arrivals).unwrap();
    let mut reports = vec![("plain", plain), ("edf", edf), ("overload", gated.report)];
    let quiet = Arc::new(FaultInjector::new(11, FaultConfig::quiet()));
    let faulted = run_threaded_faulted(config, states(), arrivals, quiet, RetryPolicy::default());
    reports.push(("faulted", faulted.unwrap()));
    for gate in [None, Some(gate())] {
        let mut tracing = TraceConfig::new(1 << 15, 256);
        tracing.gate = gate;
        let traced = run_threaded_traced(config, states(), arrivals, tracing);
        reports.push(("traced", traced.unwrap().report));
    }
    for (what, r) in &reports {
        assert_eq!(r.per_slot, want, "{what}");
        assert_eq!((r.total, r.loss.total()), (total, 0), "{what}");
        let pushes = (r.arr_ring.pushes, r.id_ring.pushes);
        assert_eq!(pushes, (total, total), "{what}");
    }
}

/// The harness can fail: a packed arm that swaps two winners of tick
/// `MUTANT_AT`'s block is caught there, and the report names the class,
/// seed, path pair, tick and both winner lists.
#[test]
fn a_mutant_path_fails_the_harness() {
    let trace = refill(true, 2 * MUTANT_AT);
    replay(&trace, &[Path::Scalar, Path::Packed]).expect("the packed arm agrees");
    let m = replay(&trace, &[Path::Scalar, Path::Mutant]).expect_err("caught");
    assert_eq!(m.pair, (Path::Scalar, Path::Mutant));
    assert_eq!(m.tick, Some(MUTANT_AT));
    let head = "class refill/staggered (seed 0xfab): Scalar vs Mutant at tick 100: winners [";
    let lists = m
        .report
        .strip_prefix(head)
        .expect("class, seed, pair and tick");
    let (want, got) = lists.split_once("] vs [").expect("both winner lists");
    let slots = |s: &str| -> Vec<String> { s.split("), ").map(String::from).collect() };
    let (want, mut got) = (slots(want), slots(got.strip_suffix(']').unwrap()));
    got.swap(0, 1);
    assert_eq!(want, got, "the two lists differ by the one swap");
}

/// Every path past three 16-bit wraps, and every cluster generator at both
/// seeds, under and over load, over the same horizon.
#[test]
#[ignore = "full gear: cargo test --release --test conformance -- --ignored"]
fn full_gear() {
    const HORIZON: u64 = 3 << 16;
    for kind in [WinnerOnly, Base] {
        assert!(check(wrap(kind, HORIZON + 64)).now > HORIZON);
    }
    check(wrap_backlogged(HORIZON));
    check(refill(true, 10_000));
    check(refill(false, 10_000));
    for (seed, kind) in SEEDS.into_iter().flat_map(|s| GENERATORS.map(|k| (s, k))) {
        check(generated(kind, false, seed, HORIZON));
        check(generated(kind, true, seed, HORIZON));
    }
}
