//! Mid-run reconfiguration: the systems software re-enters LOAD between
//! decisions to bind, unbind, and replace streams while the rest of the
//! fabric keeps scheduling ("interoperability of scheduling disciplines"
//! and per-application customization, paper §1).
#![allow(clippy::unwrap_used)]

use sharestreams::prelude::*;

fn backlog(sched: &mut ShareStreamsScheduler, id: StreamId, n: u64) {
    for q in 0..n {
        sched.enqueue(id, Wrap16::from_wide(q)).unwrap();
    }
}

#[test]
fn slot_reuse_resets_state_and_counters() {
    let config = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
    let mut sched = ShareStreamsScheduler::new(config, 8).unwrap();
    let a = sched
        .register(StreamSpec::new("a", ServiceClass::FairShare { weight: 1 }))
        .unwrap();
    let b = sched
        .register(StreamSpec::new("b", ServiceClass::FairShare { weight: 1 }))
        .unwrap();
    backlog(&mut sched, a, 500);
    backlog(&mut sched, b, 500);
    sched.run_until_frames(400, 10_000);
    let before = sched.report();
    assert!(before.streams[a.index()].counters.serviced > 0);
    // Work-conserving under-load served b far ahead of its nominal 1/8
    // rate: its deadline banks that credit (DWCS reservation semantics).
    let b_deadline = sched
        .fabric()
        .register_snapshot(b.index())
        .unwrap()
        .expect("b is bound")
        .head_deadline;
    assert!(
        b_deadline > sched.fabric().now() + 100,
        "b is ahead of schedule"
    );

    // Replace stream a with a new EDF stream in the same slot.
    sched.unregister(a).unwrap();
    let a2 = sched
        .register(StreamSpec::new(
            "a2",
            ServiceClass::EarliestDeadline { request_period: 4 },
        ))
        .unwrap();
    assert_eq!(a2.index(), a.index(), "slot is reused");
    backlog(&mut sched, a2, 500);

    // The newcomer is behind schedule relative to b's banked credit, so it
    // gets strict catch-up priority first (faithful DWCS deadline
    // semantics)…
    let first_burst = sched.run_until_frames(100, 10_000);
    assert!(
        first_burst.iter().all(|p| p.slot == a2.into()),
        "catch-up priority"
    );
    // …and once deadlines reach parity, b resumes service.
    sched.run_until_frames(500, 100_000);
    let after = sched.report();
    let row = after.streams.iter().find(|r| r.name == "a2").unwrap();
    assert!(row.counters.serviced > 0, "replacement stream gets service");
    assert!(
        row.counters.serviced <= 600,
        "counters were reset on reload: {}",
        row.counters.serviced
    );
    assert!(
        after.streams[b.index()].counters.serviced > before.streams[b.index()].counters.serviced,
        "b resumes after the newcomer catches up: {after}"
    );
}

#[test]
fn unbound_slot_never_wins() {
    let config = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
    let mut sched = ShareStreamsScheduler::new(config, 8).unwrap();
    let a = sched
        .register(StreamSpec::new("a", ServiceClass::BestEffort))
        .unwrap();
    let b = sched
        .register(StreamSpec::new("b", ServiceClass::BestEffort))
        .unwrap();
    backlog(&mut sched, a, 100);
    backlog(&mut sched, b, 100);
    sched.run_until_frames(50, 1_000);
    sched.unregister(b).unwrap();
    // b's remaining queue went with its registration; only a transmits.
    let packets = sched.run_until_frames(100, 10_000);
    assert!(packets.iter().all(|p| p.slot.index() == a.index()));
}

#[test]
fn enqueue_to_unregistered_stream_fails_cleanly() {
    let config = FabricConfig::dwcs(2, FabricConfigKind::WinnerOnly);
    let mut sched = ShareStreamsScheduler::new(config, 4).unwrap();
    let a = sched
        .register(StreamSpec::new("a", ServiceClass::BestEffort))
        .unwrap();
    sched.unregister(a).unwrap();
    // The slot is unconfigured: arrivals are still queued at the fabric
    // level but the slot cannot compete; the scheduler stays sane.
    sched.enqueue(a, Wrap16::ZERO).unwrap();
    let outcome = sched.run_decision();
    assert_eq!(outcome.packets().len(), 0, "unbound slot must not transmit");
}

#[test]
fn discipline_swap_changes_behavior_in_place() {
    // Same slot, same traffic: as fair-share(1) vs fair-share(7), the
    // slot's measured share should differ — proving the LOAD path applies
    // the new parameters.
    let share_with_weight = |w: u32| -> f64 {
        let config = FabricConfig::dwcs(2, FabricConfigKind::WinnerOnly);
        let mut sched = ShareStreamsScheduler::new(config, 8).unwrap();
        let x = sched
            .register(StreamSpec::new("x", ServiceClass::FairShare { weight: w }))
            .unwrap();
        let y = sched
            .register(StreamSpec::new("y", ServiceClass::FairShare { weight: 1 }))
            .unwrap();
        backlog(&mut sched, x, 4000);
        backlog(&mut sched, y, 4000);
        sched.run_until_frames(2000, 100_000);
        let report = sched.report();
        report.streams[x.index()].bandwidth_share
    };
    let light = share_with_weight(1);
    let heavy = share_with_weight(7);
    assert!(
        (light - 0.5).abs() < 0.05,
        "equal weights split evenly: {light}"
    );
    // Period quantization (ceil(8/7) = 2 packet-times) caps the heavy
    // stream at 4/5 of the link.
    assert!(heavy >= 0.75, "weight 7 of 8 dominates: {heavy}");
}
