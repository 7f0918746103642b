use crate::ShardedScheduler;
use proptest::prelude::*;
use ss_core::decision::DecisionRule;
use ss_core::{Fabric, FabricConfig, FabricConfigKind, LatePolicy, StreamState, Telemetry, Traced};
use ss_types::{Error, WindowConstraint, Wrap16};

fn edf_state(period: u64) -> StreamState {
    StreamState {
        request_period: period,
        original_window: WindowConstraint::ZERO,
        static_prio: 0,
        late_policy: LatePolicy::ServeLate,
    }
}

fn backlogged(total: usize, shards: usize, arrivals: usize) -> ShardedScheduler {
    backlogged_with(total, shards, arrivals)
}

fn backlogged_with<T: Telemetry>(
    total: usize,
    shards: usize,
    arrivals: usize,
) -> ShardedScheduler<T> {
    let mut s = ShardedScheduler::with_telemetry(
        FabricConfig::edf(total, FabricConfigKind::WinnerOnly),
        shards,
    )
    .unwrap();
    for g in 0..total {
        s.load_stream(g, edf_state(1), (g + 1) as u64).unwrap();
        for a in 0..arrivals {
            s.push_arrival(g, Wrap16::from_wide(a as u64)).unwrap();
        }
    }
    s
}

#[test]
fn config_validation() {
    let base = FabricConfig::edf(8, FabricConfigKind::Base);
    assert!(ShardedScheduler::new(base, 2).is_err(), "BA rejected");
    let wr = FabricConfig::edf(8, FabricConfigKind::WinnerOnly);
    assert!(ShardedScheduler::new(wr, 3).is_err(), "3 does not divide 8");
    assert!(ShardedScheduler::new(wr, 0).is_err());
    assert!(
        ShardedScheduler::new(wr, 8).is_err(),
        "1-slot shards rejected by the fabric"
    );
    let wr32 = FabricConfig::edf(32, FabricConfigKind::WinnerOnly);
    assert!(
        matches!(ShardedScheduler::new(wr32, 32), Err(Error::Config(_))),
        "more than 16 shards is refused before any shard mask is built"
    );
    let s = ShardedScheduler::new(wr, 2).unwrap();
    assert_eq!(s.shard_count(), 2);
    assert_eq!(s.per_shard(), 4);
}

#[test]
fn global_slot_routing() {
    let mut s = backlogged(8, 2, 1);
    assert_eq!(s.backlog(0).unwrap(), 1);
    assert_eq!(s.backlog(7).unwrap(), 1);
    assert!(s.backlog(8).is_err());
    assert!(s.push_arrival(8, Wrap16(0)).is_err());
    // Slot 5 lives on shard 1, local slot 1.
    s.push_arrival(5, Wrap16(9)).unwrap();
    assert_eq!(s.shard(1).backlog(1).unwrap(), 2);
}

#[test]
fn merge_picks_global_earliest_deadline() {
    // Deadlines 1..=8 across two shards: global slot 0 (shard 0) wins
    // first, then 1, ... regardless of shard boundary.
    let mut s = backlogged(8, 2, 4);
    let first = s.decision_cycle().expect("backlogged");
    assert_eq!(first.slot.index(), 0);
    assert_eq!(first.deadline, 1);
    let second = s.decision_cycle().expect("backlogged");
    assert_eq!(second.slot.index(), 1);
}

#[test]
fn idle_shards_advance_time() {
    let mut s =
        ShardedScheduler::new(FabricConfig::edf(8, FabricConfigKind::WinnerOnly), 2).unwrap();
    for g in 0..8 {
        s.load_stream(g, edf_state(1), (g + 1) as u64).unwrap();
    }
    assert_eq!(s.decision_cycle(), None);
    assert_eq!(s.now(), 1);
    for k in 0..2 {
        assert_eq!(s.shard(k).now(), 1, "shard {k} ticked");
    }
}

#[test]
fn threaded_mode_conserves_and_merges() {
    let total = 8usize;
    let arrivals = 100usize;
    let s = backlogged(total, 4, arrivals);
    let mut t = s.into_threaded(4096);
    // Every shard is fully backlogged: 2 slots × 100 arrivals each →
    // exactly 100 cycles drain half of every queue per... each cycle
    // services one packet per shard, so 200 cycles drain everything.
    let report = t.run_cycles(2 * arrivals as u64);
    assert_eq!(report.decisions, 2 * arrivals as u64 * 4);
    assert_eq!(report.packets.len(), total * arrivals);
    let mut per_slot = vec![0u64; total];
    for p in &report.packets {
        per_slot[p.slot.index()] += 1;
    }
    for (g, &count) in per_slot.iter().enumerate() {
        assert_eq!(count, arrivals as u64, "global slot {g}");
    }
    // Within each streamlet (4 packets per cycle here), comparator
    // order holds: deadlines ascend within the streamlet for EDF when
    // all words are valid and distinct.
    for streamlet in report.packets.chunks(4) {
        for pair in streamlet.windows(2) {
            assert!(
                pair[0].deadline <= pair[1].deadline,
                "streamlet out of comparator order: {pair:?}"
            );
        }
    }
    let fabrics = t.join();
    assert_eq!(fabrics.len(), 4);
    for f in &fabrics {
        assert_eq!(f.decision_count(), 200);
    }
}

#[test]
fn threaded_arrivals_via_rings() {
    let total = 4usize;
    let s = ShardedScheduler::new(FabricConfig::edf(total, FabricConfigKind::WinnerOnly), 2)
        .map(|mut s| {
            for g in 0..total {
                s.load_stream(g, edf_state(1), (g + 1) as u64).unwrap();
            }
            s
        })
        .unwrap();
    let mut t = s.into_threaded(1024);
    for g in 0..total {
        t.push_arrival(g, Wrap16(0)).unwrap();
    }
    assert!(t.push_arrival(9, Wrap16(0)).is_err());
    let report = t.run_cycles(4);
    assert_eq!(report.packets.len(), 4, "one packet per slot");
    t.join();
}

#[test]
fn failed_shard_is_excluded_and_loss_is_counted() {
    let mut s = backlogged(8, 2, 3);
    assert_eq!(s.failed_shards(), Vec::<usize>::new());
    // Shard 1 holds globals 4..8, 3 queued packets each.
    let lost = s.fail_shard(1).unwrap();
    assert_eq!(lost, 12, "backlog written off, counted");
    assert_eq!(s.lost_packets(), 12);
    assert!(s.is_failed(1));
    assert_eq!(s.failed_shards(), vec![1]);
    assert!(matches!(
        s.fail_shard(1),
        Err(Error::ShardFailed { shard: 1 })
    ));
    assert!(s.fail_shard(9).is_err());
    // Data-path operations against the dead shard error; the surviving
    // shard keeps scheduling.
    assert!(matches!(
        s.push_arrival(5, Wrap16(0)),
        Err(Error::ShardFailed { shard: 1 })
    ));
    assert!(s.push_arrival(2, Wrap16(9)).is_ok());
    let mut served = 0;
    while let Some(p) = s.decision_cycle() {
        assert!(p.slot.index() < 4, "only surviving slots transmit");
        served += 1;
    }
    assert_eq!(served, 13, "shard 0 backlog + the late arrival");
}

#[test]
fn surviving_set_is_bit_exact_with_a_standalone_fabric() {
    // Exclusion without rehoming: after shard 1 dies, the merged
    // schedule over shard 0's streams must be bit-identical to a
    // standalone 4-slot fabric running those same streams.
    let total = 8usize;
    let arrivals = 50usize;
    let mut s = backlogged(total, 2, arrivals);
    s.fail_shard(1).unwrap();
    let mut reference = Fabric::new(FabricConfig::edf(4, FabricConfigKind::WinnerOnly)).unwrap();
    for g in 0..4 {
        reference
            .load_stream(g, edf_state(1), (g + 1) as u64)
            .unwrap();
        for a in 0..arrivals {
            reference
                .push_arrival(g, Wrap16::from_wide(a as u64))
                .unwrap();
        }
    }
    for cycle in 0..(4 * arrivals as u64) {
        let sharded = s.decision_cycle();
        let single = reference.decision_cycle_into().first().copied();
        match (sharded, single) {
            (Some(a), Some(b)) => {
                assert_eq!(a.slot, b.slot, "cycle {cycle}");
                assert_eq!(a.deadline, b.deadline, "cycle {cycle}");
                assert_eq!(a.completed_at, b.completed_at, "cycle {cycle}");
            }
            (a, b) => assert_eq!(a.is_none(), b.is_none(), "cycle {cycle}: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn redistribute_rehomes_streams_onto_surviving_capacity() {
    // Only shard 1's globals (4..8) are loaded; shard 0 is empty, so
    // after shard 1 dies every stream finds a new home on shard 0.
    let total = 8usize;
    let mut s =
        ShardedScheduler::new(FabricConfig::edf(total, FabricConfigKind::WinnerOnly), 2).unwrap();
    for g in 4..total {
        s.load_stream(g, edf_state(1), (g + 1) as u64).unwrap();
    }
    s.fail_shard(1).unwrap();
    assert!(
        s.redistribute(0).is_err(),
        "only failed shards redistribute"
    );
    let moves = s.redistribute(1).unwrap();
    assert_eq!(moves.len(), 4);
    for &(g, new_shard) in &moves {
        assert!((4..8).contains(&g));
        assert_eq!(new_shard, 0, "rehomed onto the survivor");
    }
    // The global IDs still work end to end: arrivals route through the
    // indirection and transmitted packets come back in global coords.
    for g in 4..total {
        s.push_arrival(g, Wrap16(0)).unwrap();
    }
    let mut seen = Vec::new();
    for _ in 0..16 {
        if let Some(p) = s.decision_cycle() {
            seen.push(p.slot.index());
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![4, 5, 6, 7], "global coordinates preserved");
    for g in 4..total {
        assert_eq!(s.slot_counters(g).unwrap().serviced, 1);
    }
}

/// `slots_on` reads the reverse map, so a redistribution moves the rehomed
/// global slot's bit from the failed shard's mask to its survivor's — and
/// the empty tenant it swapped with the other way. The contiguous
/// partition's arithmetic (`k * per_shard ..`) would still name the old
/// home.
#[test]
fn slots_on_follows_a_rehomed_slot() {
    let mut s =
        ShardedScheduler::new(FabricConfig::edf(8, FabricConfigKind::WinnerOnly), 2).unwrap();
    // Shard 0 holds globals 0..4, one of them (3) unloaded: room for one.
    for g in (0..3).chain(4..8) {
        s.load_stream(g, edf_state(1), (g + 1) as u64).unwrap();
    }
    assert_eq!((s.slots_on(0), s.slots_on(1)), (0x0F, 0xF0));
    assert_eq!(s.slots_on(2), 0, "out of range is the empty set");
    s.fail_shard(1).unwrap();
    let moves = s.redistribute(1).unwrap();
    assert_eq!(moves, vec![(4, 0)], "one free slot on the survivor");
    assert_ne!(s.slots_on(0) & 1 << 4, 0, "the survivor gains global 4");
    assert_eq!(s.slots_on(1) & 1 << 4, 0, "the failed shard loses it");
    assert_eq!((s.slots_on(0), s.slots_on(1)), (0x17, 0xE8));
    assert_eq!(s.slots_on(0) & s.slots_on(1), 0, "still a partition");
    assert!(s.push_arrival(4, Wrap16(0)).is_ok());
    assert!(matches!(
        s.push_arrival(3, Wrap16(0)),
        Err(Error::ShardFailed { shard: 1 })
    ));
}

/// The widest frontend: 16 two-slot shards, so the failed set uses every
/// bit a shard mask has. Failures land out of order; `failed_shards`
/// comes back ascending, and the merge and the threaded runtime both skip
/// exactly those shards.
#[test]
fn the_sixteenth_shard_fails_like_any_other() {
    let mut s = backlogged(32, 16, 2);
    for k in [15, 3, 9] {
        assert_eq!(s.fail_shard(k).unwrap(), 4, "2 slots x 2 queued");
    }
    assert_eq!(s.failed_shards(), vec![3, 9, 15]);
    assert!(s.is_failed(15) && !s.is_failed(14) && !s.is_failed(16));
    assert_eq!(s.slots_on(15), 0b11 << 30);
    assert!(matches!(
        s.push_arrival(31, Wrap16(0)),
        Err(Error::ShardFailed { shard: 15 })
    ));
    assert_eq!(s.live_backlog(), 13 * 4);
    let mut served = 0;
    while let Some(p) = s.decision_cycle() {
        assert!(![3, 9, 15].contains(&(p.slot.index() / 2)), "{p:?}");
        served += 1;
    }
    assert_eq!(served, 13 * 4, "every live shard drains");
    let mut s = backlogged(32, 16, 1);
    s.fail_shard(15).unwrap();
    let mut t = s.into_threaded(64);
    assert_eq!(t.dead_shards(), vec![15]);
    let report = t.run_cycles(2);
    assert_eq!(report.decisions, 2 * 15);
    assert_eq!(
        report.packets.len(),
        30,
        "one slot per live shard per cycle"
    );
    t.join();
}

/// `into_threaded` moves the frontend whole, so a redistribution that
/// happened inline is the routing the threaded runtime uses — in both
/// directions: arrivals for a rehomed global slot reach its *new* shard's
/// ring, and the packets come back under the same global ID.
#[test]
fn a_rehomed_slot_keeps_its_global_id_across_into_threaded() {
    let total = 8usize;
    let mut s =
        ShardedScheduler::new(FabricConfig::edf(total, FabricConfigKind::WinnerOnly), 2).unwrap();
    for g in 4..total {
        s.load_stream(g, edf_state(1), (g + 1) as u64).unwrap();
    }
    s.fail_shard(1).unwrap();
    assert_eq!(
        s.redistribute(1).unwrap().len(),
        4,
        "4..8 now live on shard 0"
    );
    let mut t = s.into_threaded(1024);
    assert_eq!(t.dead_shards(), vec![1], "the exclusion moved too");
    for g in 4..total {
        t.push_arrival(g, Wrap16(0)).unwrap();
    }
    // The empty tenants swapped onto the dead home: unreachable, not lost.
    assert!(matches!(
        t.push_arrival(0, Wrap16(0)),
        Err(Error::ShardFailed { shard: 1 })
    ));
    let report = t.run_cycles(8);
    assert_eq!(report.decisions, 8, "one live shard");
    let mut seen: Vec<usize> = report.packets.iter().map(|p| p.slot.index()).collect();
    seen.sort_unstable();
    assert_eq!(seen, vec![4, 5, 6, 7], "global coordinates preserved");
    let fabrics = t.join();
    assert_eq!(fabrics[0].total_backlog(), 0, "shard 0 served all four");
    assert_eq!(fabrics[1].decision_count(), 0, "the dead shard never ran");
}

#[test]
fn open_breaker_sheds_ingest_while_survivors_flow() {
    use ss_overload::{BreakerConfig, BreakerState, LossSite};
    let mut s = backlogged(8, 2, 2);
    // Trip on a 4-deep backlog after 2 lagging cycles; shard 1 holds
    // 4 slots × 2 arrivals = 8 queued, over the limit even after a win.
    s.enable_breakers(BreakerConfig {
        trip_lag_cycles: 2,
        trip_backlog: 4,
        cooldown_cycles: 64,
        probe_quota: 2,
    });
    assert_eq!(s.breaker_state(1), Some(BreakerState::Closed));
    for _ in 0..2 {
        s.decision_cycle();
    }
    assert_eq!(s.breaker_state(0), Some(BreakerState::Open));
    assert_eq!(s.breaker_state(1), Some(BreakerState::Open));
    // Open breaker: ingest refused with Overloaded, counted as Shed.
    assert!(matches!(
        s.push_arrival(5, Wrap16(9)),
        Err(Error::Overloaded {
            slot: 5,
            site: "breaker"
        })
    ));
    assert_eq!(s.overload_ledger().at(LossSite::Shed), 1);
    assert_eq!(s.breaker_trips(), 2);
    // The shard keeps cycling while open: its queued backlog drains
    // through the merge, nothing hangs. 16 queued minus the 2 already
    // served by the tripping cycles.
    let mut served = 0;
    while s.decision_cycle().is_some() {
        served += 1;
    }
    assert_eq!(served, 14, "queued packets still drain while open");
}

#[test]
fn breaker_recloses_after_drain_and_probes() {
    use ss_overload::{BreakerConfig, BreakerState};
    let mut s = backlogged(8, 2, 2);
    s.enable_breakers(BreakerConfig {
        trip_lag_cycles: 1,
        trip_backlog: 4,
        cooldown_cycles: 2,
        probe_quota: 2,
    });
    // One cycle trips (8 > 4 backlog); the merge then drains both
    // shards while the breakers cool down, half-open, and prove
    // themselves on empty-backlog probes.
    for _ in 0..40 {
        s.decision_cycle();
    }
    assert_eq!(s.breaker_state(0), Some(BreakerState::Closed));
    assert_eq!(s.breaker_state(1), Some(BreakerState::Closed));
    assert!(s.breaker_trips() >= 2, "each shard tripped at least once");
    // Closed again: ingest flows.
    s.push_arrival(5, Wrap16(0)).unwrap();
}

/// The split cycle's one semantic change: a shard fabric's rule counters
/// count one tournament per global cycle it *competed* in — what K
/// hardware fabrics do — not one per cycle it won. A stalled shard
/// proposes nothing (and still expires, in lockstep); an excluded one
/// stops for good.
#[test]
fn every_live_shard_counts_one_tournament_per_cycle() {
    const CYCLES: u64 = 60;
    let (shards, per_shard) = (4usize, 4u64);
    let mut s = backlogged(16, shards, 40);
    let mut proposals = 0u64;
    for cycle in 0..CYCLES {
        if cycle == 10 {
            s.stall_shard(1, 7);
        }
        if cycle == CYCLES / 2 {
            s.fail_shard(3).unwrap();
        }
        let live = (0..shards).filter(|&k| !s.is_failed(k)).count() as u64;
        proposals += live - u64::from((10..17).contains(&cycle));
        let oracle = s.merge_pick_with_reason().map(|(k, _)| k);
        let p = s.decision_cycle().expect("backlogged");
        assert_eq!(Some(p.slot.index() / per_shard as usize), oracle);
    }
    assert_eq!(proposals, 30 * 4 + 30 * 3 - 7);
    let tallied: u64 = (0..shards)
        .map(|k| s.shard(k).rule_counters().total())
        .sum();
    assert_eq!(tallied, proposals * (per_shard - 1));
    assert_eq!(s.shard(3).rule_counters().total(), 30 * (per_shard - 1));
    assert_eq!(
        s.shard(1).rule_counters().total(),
        (CYCLES - 7) * (per_shard - 1)
    );
    assert_eq!(s.shard(1).now(), s.shard(0).now(), "a stalled shard passes");
}

/// The breakers judge the words the shards proposed this cycle, not a
/// scan of their own. A wedged fabric still proposes (the tournament reads
/// the register words; the wedge blocks the grant), so a wedged,
/// backlogged shard is "progressing" by its word and trips on its backlog
/// alone: 4 queued against a limit of 4 for 6 cycles, which a healthy
/// merge drains first (seed 80 never trips). The figures are the parent
/// commit's, where a third `peek_winner` scan fed the breakers.
#[test]
fn breakers_see_the_cycles_proposals() {
    use ss_faults::{FaultConfig, FaultInjector};
    use ss_overload::{BreakerConfig, BreakerState};
    use std::sync::Arc;
    let mut s = backlogged(8, 2, 1);
    s.attach_faults(Arc::new(FaultInjector::new(
        79,
        FaultConfig {
            decision_rate_ppm: 400_000,
            max_stuck_cycles: 6,
            ..FaultConfig::quiet()
        },
    )));
    s.enable_breakers(BreakerConfig {
        trip_lag_cycles: 6,
        trip_backlog: 4,
        cooldown_cycles: 16,
        probe_quota: 2,
    });
    let mut first_open = [None; 2];
    let mut served = 0u64;
    for cycle in 1..=60u64 {
        served += u64::from(s.decision_cycle().is_some());
        for (k, first) in first_open.iter_mut().enumerate() {
            if first.is_none() && s.breaker_state(k) == Some(BreakerState::Open) {
                *first = Some(cycle);
            }
        }
    }
    assert_eq!(first_open, [Some(6), Some(6)], "first trip, per shard");
    assert_eq!((s.breaker_trips(), served), (3, 8));
}

#[test]
fn injected_crash_auto_excludes_the_shard() {
    use ss_faults::{FaultConfig, FaultInjector};
    use std::sync::Arc;
    let mut s = backlogged(8, 2, 5);
    let inj = Arc::new(FaultInjector::new(31, FaultConfig::quiet()));
    s.attach_faults(inj.clone());
    s.inject_shard_crash(1);
    // The next cycle's health sweep excludes the crashed shard; the
    // surviving shard drains its 20 packets alone.
    let mut served = 0;
    while let Some(p) = s.decision_cycle() {
        assert!(p.slot.index() < 4);
        served += 1;
    }
    assert_eq!(served, 20);
    assert_eq!(s.failed_shards(), vec![1]);
    assert_eq!(s.lost_packets(), 20, "crashed shard's backlog written off");
    use std::sync::atomic::Ordering as AOrd;
    assert_eq!(inj.stats().shards_excluded.load(AOrd::Relaxed), 1);
    assert_eq!(inj.stats().lost_packets.load(AOrd::Relaxed), 20);
}

#[test]
fn threaded_worker_crash_is_excluded_not_hung() {
    use ss_faults::{FaultConfig, FaultInjector};
    use std::sync::Arc;
    let s = backlogged(8, 4, 50);
    let mut s = s;
    let inj = Arc::new(FaultInjector::new(37, FaultConfig::quiet()));
    s.attach_faults(inj.clone());
    s.inject_shard_crash(2);
    let mut t = s.into_threaded(1024);
    let report = t.run_cycles(50);
    assert_eq!(report.excluded, vec![2], "crashed worker excluded");
    assert!(report.missed_proposals > 0);
    assert_eq!(t.dead_shards(), vec![2]);
    // Surviving shards each drained their 2 slots × 50 arrivals... at
    // one packet per shard-cycle, 50 cycles move 50 packets per
    // surviving shard; the crashed shard contributes at most its
    // pre-crash cycle.
    let mut per_slot = [0u64; 8];
    for p in &report.packets {
        per_slot[p.slot.index()] += 1;
    }
    let crashed_lane: u64 = per_slot[4..6].iter().sum();
    let surviving: u64 = per_slot.iter().sum::<u64>() - crashed_lane;
    assert!(crashed_lane <= 1, "crashed lane stops immediately");
    assert_eq!(surviving, 150, "three surviving lanes × 50 cycles");
    // Pushing to the dead shard's slots now errors instead of filling a
    // ring nobody drains.
    assert!(matches!(
        t.push_arrival(4, Wrap16(0)),
        Err(Error::ShardFailed { shard: 2 })
    ));
    let fabrics = t.join();
    assert_eq!(fabrics.len(), 4, "crashed worker still returns its fabric");
    use std::sync::atomic::Ordering as AOrd;
    assert_eq!(inj.stats().shards_excluded.load(AOrd::Relaxed), 1);
}

/// One exclusion rule, two detectors: the inline health sweep and the
/// threaded merger (a finished proposal ring) both end in
/// `Frontend::exclude`, so an injected crash leaves the same `detected` /
/// `shards_excluded` deltas on the recovery ledger in either mode.
///
/// `lost_packets` is what the excluding side could *see* queued on the
/// shard. Inline that is the dead fabric's whole backlog. The threaded
/// merger sees none of it — the backlog is on the worker, which still owns
/// the fabric — so it books 0 and the stranded packets are read off the
/// fabric `join()` hands back; the cycles the shard will never answer are
/// the report's `missed_proposals`.
#[test]
fn exclusion_is_booked_identically_in_both_modes() {
    use ss_faults::{FaultConfig, FaultInjector};
    use std::sync::Arc;
    let crashed = |seed: u64| {
        let mut s = backlogged(8, 2, 5);
        let inj = Arc::new(FaultInjector::new(seed, FaultConfig::quiet()));
        s.attach_faults(inj.clone());
        s.inject_shard_crash(1);
        (s, inj)
    };

    let (mut s, inj) = crashed(41);
    s.decision_cycle();
    assert_eq!(s.failed_shards(), vec![1]);
    let inline = inj.stats().snapshot();
    assert_eq!((inline.detected, inline.shards_excluded), (1, 1));
    assert_eq!(inline.lost_packets, 20, "4 slots x 5 queued, all visible");
    assert_eq!(s.lost_packets(), 20);

    let (s, inj) = crashed(41);
    let mut t = s.into_threaded(1024);
    let report = t.run_cycles(4);
    assert_eq!(report.excluded, vec![1]);
    assert_eq!(
        report.missed_proposals, 3,
        "it answered its crash cycle only"
    );
    let threaded = inj.stats().snapshot();
    assert_eq!(
        (threaded.detected, threaded.shards_excluded),
        (inline.detected, inline.shards_excluded)
    );
    assert_eq!(threaded.lost_packets, 0, "the backlog is on the worker");
    let fabrics = t.join();
    assert_eq!(
        fabrics[1].total_backlog(),
        20,
        "stranded, and readable here"
    );
}

#[test]
fn telemetry_counts_inline_wins_and_fairness() {
    // Interleave deadlines across the shard boundary — shard 0 holds
    // the odd deadlines 1,3,5,7 and shard 1 the even 2,4,6,8 — with one
    // arrival per slot, so the 8 winners alternate shards: 4 wins each.
    let config = FabricConfig::edf(8, FabricConfigKind::WinnerOnly);
    let mut s = ShardedScheduler::<Traced>::with_telemetry(config, 2).unwrap();
    for g in 0..8 {
        let deadline = if g < 4 { 2 * g + 1 } else { 2 * (g - 4) + 2 };
        s.load_stream(g, edf_state(1), deadline as u64).unwrap();
        s.push_arrival(g, Wrap16(0)).unwrap();
    }
    assert_eq!(s.shard_fairness(), None, "detached until attach");
    let registry = ss_telemetry::Registry::new();
    s.attach_telemetry(&registry);
    for _ in 0..8 {
        s.decision_cycle().expect("backlogged");
    }
    let fairness = s.shard_fairness().expect("attached");
    assert!((fairness - 1.0).abs() < 1e-9, "balanced wins: {fairness}");
    let snap = registry.snapshot();
    let wins: Vec<u64> = ["0", "1"]
        .iter()
        .map(|k| {
            snap.metrics
                .iter()
                .find(|m| {
                    m.name == "ss_sharded_shard_wins_total" && m.labels.iter().any(|(_, v)| v == k)
                })
                .and_then(|m| match m.value {
                    ss_telemetry::MetricValue::Counter(c) => Some(c),
                    _ => None,
                })
                .expect("win counter")
        })
        .collect();
    assert_eq!(wins, vec![4, 4]);
    assert!(
        snap.metrics
            .iter()
            .any(|m| m.name == "ss_sharded_merge_latency_ns"),
        "merge latency registered"
    );
    // Shard fabrics were attached with shard labels: global QoS rows
    // cover all 8 slots with one win each.
    let qos = s.qos_snapshot();
    assert_eq!(qos.streams.len(), 8);
    let mut slots: Vec<u8> = qos.streams.iter().map(|r| r.slot).collect();
    slots.sort_unstable();
    assert_eq!(slots, (0..8).collect::<Vec<u8>>(), "global slot remap");
    for row in &qos.streams {
        assert_eq!(row.wins, 1, "slot {} wins", row.slot);
    }
}

#[test]
fn merge_reason_names_the_deciding_rule() {
    // Distinct deadlines across shards: the cross-shard comparison is
    // decided by EDF, and the provenance says so.
    let mut s = backlogged(8, 2, 2);
    let (k, reason) = s.merge_pick_with_reason().expect("backlogged");
    assert_eq!(k, 0, "deadline 1 lives on shard 0");
    assert_eq!(reason, Some(DecisionRule::EarliestDeadline));
    // With shard 1 failed, shard 0 competes alone: no comparison ran.
    s.fail_shard(1).unwrap();
    let (k, reason) = s.merge_pick_with_reason().expect("survivor backlogged");
    assert_eq!(k, 0);
    assert_eq!(reason, None, "only candidate: nothing to compare");
}

#[test]
fn merge_wins_leave_provenance_span_events() {
    use ss_telemetry::span::detail;
    use ss_telemetry::{Stage, TraceTag};
    let mut s = backlogged_with::<Traced>(8, 2, 2);
    let recorder = ss_telemetry::SpanRecorder::new(256);
    s.attach_spans(&recorder);
    for _ in 0..16 {
        s.decision_cycle();
    }
    s.detach_spans();
    let tracks = recorder.drain();
    assert_eq!(tracks.len(), 1);
    assert_eq!(tracks[0].name, "merge");
    let wins: Vec<_> = tracks[0]
        .events
        .iter()
        .filter(|e| e.stage == Stage::MergeWin)
        .collect();
    assert_eq!(wins.len(), 16, "one MergeWin per serviced cycle");
    for e in &wins {
        let tag = TraceTag(e.tag);
        assert_eq!(
            tag.origin() as usize,
            e.arg as usize / 4,
            "origin names the winning shard of global slot {}",
            e.arg
        );
        assert_eq!(tag.slot() as u32, e.arg, "tag slot is the global slot");
        assert_ne!(e.detail, detail::MERGE_ONLY_CANDIDATE, "2 shards competed");
    }
    // 2 arrivals per slot → per-slot win sequences 0 then 1.
    let mut seqs: Vec<u32> = wins
        .iter()
        .filter(|e| e.arg == 0)
        .map(|e| TraceTag(e.tag).seq())
        .collect();
    seqs.sort_unstable();
    assert_eq!(seqs, vec![0, 1]);
}

#[test]
fn breaker_open_takes_automatic_flight_dump() {
    use ss_overload::BreakerConfig;
    use ss_telemetry::{DumpReason, SharedFlightRecorder, SpanRecorder, Stage};
    let mut s = backlogged_with::<Traced>(8, 2, 2);
    let recorder = SpanRecorder::new(256);
    let flight = SharedFlightRecorder::new(64);
    s.attach_spans(&recorder);
    s.attach_flight_recorder(&flight);
    s.enable_breakers(BreakerConfig {
        trip_lag_cycles: 2,
        trip_backlog: 4,
        cooldown_cycles: 64,
        probe_quota: 2,
    });
    for _ in 0..2 {
        s.decision_cycle();
    }
    assert_eq!(s.breaker_state(0), Some(ss_overload::BreakerState::Open));
    let dump = flight.take_last_dump().expect("open transition dumps");
    assert_eq!(dump.reason, DumpReason::BreakerOpen);
    assert!(dump
        .events
        .iter()
        .any(|e| e.stage == Stage::BreakerOpen && e.trace_tag().is_control()));
    s.detach_spans();
    let tracks = recorder.drain();
    assert!(tracks[0]
        .events
        .iter()
        .any(|e| e.stage == Stage::BreakerOpen));
}

#[test]
fn telemetry_survives_into_threaded() {
    let registry = ss_telemetry::Registry::new();
    let mut s = backlogged_with::<Traced>(8, 4, 10);
    s.attach_telemetry(&registry);
    let mut t = s.into_threaded(1024);
    // 4 shards × 2 slots × 10 arrivals: each shard services one packet
    // per cycle, so 10 cycles drain 40 packets.
    let report = t.run_cycles(10);
    assert_eq!(report.packets.len(), 40);
    // Every shard serviced its lane every cycle: 10 wins apiece.
    let fairness = t.shard_fairness().expect("carried across spawn");
    assert!((fairness - 1.0).abs() < 1e-9, "lane fairness: {fairness}");
    let snap = registry.snapshot();
    let merge = snap
        .metrics
        .iter()
        .find(|m| m.name == "ss_sharded_merge_latency_ns")
        .expect("merge histogram");
    match &merge.value {
        ss_telemetry::MetricValue::Histogram(h) => {
            assert_eq!(h.count, 10, "one merge per cycle")
        }
        other => panic!("expected histogram, got {other:?}"),
    }
    t.join();
}

/// The winner scan and the streamlet sort as they were written before they
/// shared `Frontend::merge_before`, kept as the oracle for the proptest.
mod before_the_split {
    use ss_core::decision::lane_order;
    use ss_core::decision::DecisionRule::{self, SlotId};
    use ss_types::packed::lane_valid;
    use ss_types::ComparisonMode;

    pub fn linear_scan(
        words: &[u64],
        mode: ComparisonMode,
    ) -> Option<(usize, Option<DecisionRule>)> {
        let mut best: Option<(usize, u64)> = None;
        let mut reason = None;
        for (k, &w) in words.iter().enumerate() {
            match best {
                None => best = Some((k, w)),
                Some((_, b)) => {
                    let (wins, rule) = lane_order(w, b, mode);
                    reason = Some(rule);
                    if wins && rule != SlotId {
                        best = Some((k, w));
                    }
                }
            }
        }
        best.and_then(|(k, w)| lane_valid(w).then_some((k, reason)))
    }

    pub fn insertion_sort<P>(scratch: &mut [(u64, P, usize)], mode: ComparisonMode) {
        for i in 1..scratch.len() {
            let mut j = i;
            while j > 0 {
                let (wins, rule) = lane_order(scratch[j].0, scratch[j - 1].0, mode);
                if wins && rule != SlotId {
                    scratch.swap(j - 1, j);
                    j -= 1;
                } else {
                    break;
                }
            }
        }
    }
}

proptest! {
    /// `merge_before` over K lane words picks the shard the old linear scan
    /// picked (with the same reason) and sorts a streamlet the way the old
    /// insertion sort did, in every mode and at every tie depth. Fields
    /// come from two-valued domains so ties are the common case, and
    /// `tie_mask` forces whole fields equal across all K words: 0x1f ties
    /// everything but the slot field (every comparison a `SlotId` verdict
    /// between different local slots), 0x3f the slot field as well.
    #[test]
    fn merge_before_matches_the_scan_and_the_sort_it_replaced(
        seeds in collection::vec(any::<u16>(), 2..=8usize),
        tie_mask in 0u16..0x40,
        mode_idx in 0usize..4,
    ) {
        use crate::frontend::Frontend;
        use ss_types::packed::pack;
        use ss_types::{ComparisonMode, SlotId, StreamAttrs};
        let mode = [ComparisonMode::Dwcs, ComparisonMode::Edf,
                    ComparisonMode::StaticPriority, ComparisonMode::ServiceTag][mode_idx];
        let words: Vec<u64> = seeds
            .iter()
            .map(|&seed| {
                let bits = (seed & !tie_mask) | (seeds[0] & tie_mask);
                let bit = |i: u16| (bits >> i) & 1;
                pack(&StreamAttrs {
                    deadline: Wrap16(5 + bit(0)),
                    window: WindowConstraint { num: bit(1) as u8, den: 2 + bit(2) as u8 },
                    arrival: Wrap16(bit(3)),
                    static_prio: bit(4) as u8,
                    slot: SlotId::new_unchecked((bits >> 5) as u8 & 3),
                    // One word in eight is an empty slot.
                    valid: seed >> 13 != 0,
                })
            })
            .collect();
        let k = words.len();
        let config = FabricConfig { mode, ..FabricConfig::edf(4 * k, FabricConfigKind::WinnerOnly) };
        let front = Frontend::<()>::new(&config, k);

        prop_assert_eq!(
            front.pick(words.iter().copied().enumerate()),
            before_the_split::linear_scan(&words, mode)
        );

        let packet = |k: usize| ss_core::ScheduledPacket {
            slot: SlotId::new_unchecked(0),
            deadline: k as u64,
            completed_at: 0,
            met: true,
        };
        let mut lanes: Vec<_> = words.iter().enumerate().map(|(k, &w)| (w, packet(k), k)).collect();
        let mut old = lanes.clone();
        front.sort_streamlet(&mut lanes);
        before_the_split::insertion_sort(&mut old, mode);
        prop_assert_eq!(lanes, old);
    }
}
