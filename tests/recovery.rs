//! One recovery path: the sharded frontend's per-shard supervisor
//! (`ShardedScheduler::enable_recovery`). A crashed or stuck shard is handed
//! to the host, which keeps deciding on the shard's own register image in
//! the same merge, and the card is re-attached after the watchdog's healthy
//! streak. Nothing is written off, and the switches are ledgered and traced.

#![allow(clippy::unwrap_used)]

use sharestreams::core::{LatePolicy, Telemetry};
use sharestreams::prelude::*;
use sharestreams::types::Error;
use ss_faults::{FaultConfig, FaultInjector};
use ss_telemetry::{DumpReason, SharedFlightRecorder, Stage};
use std::sync::Arc;

fn edf_state(period: u64) -> StreamState {
    StreamState {
        request_period: period,
        original_window: WindowConstraint::ZERO,
        static_prio: 0,
        late_policy: LatePolicy::ServeLate,
    }
}

fn wr_edf(slots: usize) -> FabricConfig {
    FabricConfig::edf(slots, FabricConfigKind::WinnerOnly)
}

/// A K = 1 merge over `slots` with recovery armed.
fn recovering<T: Telemetry>(slots: usize, watchdog: DecisionWatchdog) -> ShardedScheduler<T> {
    let mut s = ShardedScheduler::with_telemetry(wr_edf(slots), 1).unwrap();
    s.enable_recovery(watchdog);
    s
}

#[test]
fn fault_free_run_matches_bare_fabric() {
    let mut bare = Fabric::new(wr_edf(4)).unwrap();
    let mut sup: ShardedScheduler = recovering(4, DecisionWatchdog::default());
    for s in 0..4 {
        bare.load_stream(s, edf_state(2), (s + 1) as u64).unwrap();
        sup.load_stream(s, edf_state(2), (s + 1) as u64).unwrap();
        for a in 0..6u64 {
            bare.push_arrival(s, Wrap16::from_wide(a)).unwrap();
            sup.push_arrival(s, Wrap16::from_wide(a)).unwrap();
        }
    }
    for _ in 0..30 {
        let expected = bare.decision_cycle_into().first().copied();
        assert_eq!(sup.decision_cycle(), expected);
    }
    assert_eq!(sup.failovers(), 0);
    assert!(!sup.on_host(0));
    assert_eq!(sup.now(), bare.now());
}

#[test]
fn crash_hands_over_to_host_and_reattaches() {
    let mut sup: ShardedScheduler = recovering(2, DecisionWatchdog::new(2, 4));
    sup.load_stream(0, edf_state(2), 1).unwrap();
    sup.load_stream(1, edf_state(2), 2).unwrap();
    let total = 60u64;
    for a in 0..total / 2 {
        sup.push_arrival(0, Wrap16::from_wide(a)).unwrap();
        sup.push_arrival(1, Wrap16::from_wide(a)).unwrap();
    }
    let mut served = 0u64;
    for _ in 0..10 {
        served += u64::from(sup.decision_cycle().is_some());
    }
    assert_eq!(served, 10, "a healthy card serves every cycle");

    sup.inject_shard_crash(0);
    let mut last_completed = 0;
    for cycle in 0..20 {
        let p = sup
            .decision_cycle()
            .expect("the crash costs no packet-time");
        assert!(p.completed_at > last_completed, "time stays monotone");
        last_completed = p.completed_at;
        served += 1;
        assert_eq!(sup.on_host(0), cycle < 3, "back on the card after 4 cycles");
    }
    assert_eq!((sup.failovers(), sup.reattaches()), (1, 1));

    // Drain the rest: nothing was lost across the two switches.
    for _ in 0..200 {
        served += u64::from(sup.decision_cycle().is_some());
    }
    assert_eq!(served, total, "every enqueued packet was served");
    assert_eq!(sup.lost_packets(), 0);
}

#[test]
fn host_path_takes_loads_and_unloads() {
    // The host path is the shard's own fabric, so it takes every verb.
    let mut sup: ShardedScheduler = recovering(2, DecisionWatchdog::new(1, 64));
    sup.load_stream(0, edf_state(1), 1).unwrap();
    sup.push_arrival(0, Wrap16(0)).unwrap();
    sup.inject_shard_crash(0);
    assert!(sup.decision_cycle().is_some());
    assert!(sup.on_host(0));
    sup.load_stream(1, edf_state(1), 5).unwrap();
    sup.push_arrival(0, Wrap16(1)).unwrap();
    sup.push_arrival(1, Wrap16(1)).unwrap();
    assert_eq!(sup.decision_cycle().unwrap().slot.index(), 0);
    sup.unload_stream(0).unwrap();
    assert_eq!(sup.decision_cycle().unwrap().slot.index(), 1);
    assert!(sup.on_host(0));
}

#[test]
fn path_switches_are_traced_and_ledgered() {
    let mut sup: ShardedScheduler<Traced> = recovering(2, DecisionWatchdog::new(2, 3));
    let flight = SharedFlightRecorder::new(64);
    sup.attach_flight_recorder(&flight);
    let inj = Arc::new(FaultInjector::new(5, FaultConfig::quiet()));
    sup.attach_faults(Arc::clone(&inj));
    sup.load_stream(0, edf_state(1), 1).unwrap();
    for a in 0..30u64 {
        sup.push_arrival(0, Wrap16::from_wide(a)).unwrap();
    }
    sup.inject_shard_crash(0);
    for _ in 0..12 {
        sup.decision_cycle();
    }
    let stats = inj.stats().snapshot();
    assert_eq!(stats.failovers, sup.failovers());
    assert_eq!(stats.reattaches, sup.reattaches());
    assert_eq!((sup.failovers(), sup.reattaches()), (1, 1));
    // One sink, one event per switch: out to the host, then back.
    let dump = flight.auto_dump(DumpReason::Manual, sup.now());
    let switches: Vec<u8> = dump
        .events
        .iter()
        .filter(|e| e.stage == Stage::Failover)
        .map(|e| e.detail)
        .collect();
    assert_eq!(switches, [1, 0]);
}

#[test]
fn failover_takes_automatic_flight_dump() {
    // Every cycle wedges: the watchdog trips after two unproductive grants
    // and the hand-over drops the injector, so the host serves from then.
    let mut sup: ShardedScheduler<Traced> = recovering(2, DecisionWatchdog::new(2, 64));
    let flight = SharedFlightRecorder::new(64);
    sup.attach_flight_recorder(&flight);
    let wedged = FaultConfig {
        decision_rate_ppm: 1_000_000,
        max_stuck_cycles: 1_000,
        ..FaultConfig::quiet()
    };
    sup.attach_faults(Arc::new(FaultInjector::new(3, wedged)));
    sup.load_stream(0, edf_state(1), 1).unwrap();
    for a in 0..10u64 {
        sup.push_arrival(0, Wrap16::from_wide(a)).unwrap();
    }
    let served: Vec<bool> = (0..6).map(|_| sup.decision_cycle().is_some()).collect();
    assert_eq!(served, [false, false, true, true, true, true]);
    assert_eq!(sup.failovers(), 1);
    let dump = flight
        .take_last_dump()
        .expect("the hand-over dumps the recorder");
    assert_eq!(dump.reason, DumpReason::WatchdogTrip);
    assert!(dump
        .events
        .iter()
        .any(|e| e.stage == Stage::Failover && e.detail == 1));
}

/// K = 2 overloaded, shard 1 crashed at tick 100 with its arrivals in:
/// `(offered, served, shard 1's backlog at the crash)` and the scheduler
/// after 400 ticks.
fn crash_under_load(recover: bool) -> (u64, u64, u64, ShardedScheduler) {
    let mut s = ShardedScheduler::new(wr_edf(8), 2).unwrap();
    if recover {
        s.enable_recovery(DecisionWatchdog::default());
    }
    for g in 0..8 {
        s.load_stream(g, edf_state(4), (g + 1) as u64).unwrap();
    }
    let (mut offered, mut served, mut crashed_backlog) = (0u64, 0u64, 0u64);
    for t in 0..400u64 {
        for g in (0..8).filter(|g| t % 4 == 0 || g % 2 == 0) {
            match s.push_arrival(g, Wrap16::from_wide(t)) {
                Ok(()) => offered += 1,
                Err(Error::ShardFailed { shard: 1 }) => assert!(!recover),
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        if t == 100 {
            crashed_backlog = s.shard(1).total_backlog() as u64;
            s.inject_shard_crash(1);
        }
        served += u64::from(s.decision_cycle().is_some());
    }
    (offered, served, crashed_backlog, s)
}

#[test]
fn recovery_keeps_the_backlog_exclusion_writes_off() {
    let (offered, served, crashed_backlog, s) = crash_under_load(true);
    assert!(crashed_backlog > 0, "the trace overloads the merge");
    assert_eq!(s.lost_packets(), 0);
    assert_eq!(offered, served + s.live_backlog());
    assert!(s.failed_shards().is_empty());
    assert_eq!((s.failovers(), s.reattaches()), (1, 1));

    let (offered, served, crashed, s) = crash_under_load(false);
    assert_eq!(crashed, crashed_backlog, "the same trace up to the crash");
    assert_eq!(s.failed_shards(), [1]);
    assert_eq!(s.lost_packets(), crashed_backlog);
    assert_eq!(offered, served + s.lost_packets() + s.live_backlog());
}

#[test]
fn backlog_reads_zero_on_an_excluded_home() {
    // Globals 0, 1 on shard 0 and 4, 5 on shard 1; the other four free.
    let mut s = ShardedScheduler::new(wr_edf(8), 2).unwrap();
    let loaded = [0, 1, 4, 5];
    for g in loaded {
        s.load_stream(g, edf_state(8), (g + 1) as u64).unwrap();
    }
    let (mut offered, mut served) = (0u64, 0u64);
    let mut run = |s: &mut ShardedScheduler, ticks: u64| {
        for t in 0..ticks {
            for g in loaded {
                offered += u64::from(s.push_arrival(g, Wrap16::from_wide(t)).is_ok());
            }
            served += u64::from(s.decision_cycle().is_some());
        }
        (offered, served)
    };
    let conserved = |s: &ShardedScheduler, (offered, served): (u64, u64)| {
        let queued: u64 = (0..8).map(|g| s.backlog(g).unwrap() as u64).sum();
        assert_eq!(offered, served + s.lost_packets() + queued);
    };
    let counts = run(&mut s, 40);
    conserved(&s, counts);
    assert!(s.fail_shard(1).unwrap() > 0, "shard 1 had a backlog");
    conserved(&s, counts);
    // The unloaded tenants 2 and 3 swap onto the dead home.
    assert_eq!(s.redistribute(1).unwrap(), [(4, 0), (5, 0)]);
    assert_eq!(s.slots_on(1), 0b1100_1100);
    for g in [2, 3, 6, 7] {
        assert_eq!(
            s.backlog(g).unwrap(),
            0,
            "global {g} is homed on the dead shard"
        );
    }
    let counts = run(&mut s, 40);
    conserved(&s, counts);
}
