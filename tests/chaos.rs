//! Chaos soak: seeded fault schedules driven through every host↔card seam
//! at once, asserting the robustness contract end to end:
//!
//! * **no panics** — every injected fault surfaces as a `Result`, a retry,
//!   a hand-over to the host, or counted loss;
//! * **bounded, counted loss** — `total + lost` always equals the offered
//!   load; nothing disappears silently;
//! * **eventual recovery** — transient wedges clear, crashed shards are
//!   excluded (not hung on), a recovering shard keeps packets flowing on
//!   the host and re-attaches;
//! * **ledger reconciliation** — the `ss-faults` counters written by the
//!   injector agree with what the recovery machinery reports.
//!
//! Every schedule is pinned: the injector's per-site SplitMix64 streams
//! make the k-th fault decision at a site a pure function of (seed, site,
//! k), so these runs are reproducible bug reports, not flaky dice rolls.

#![allow(clippy::unwrap_used)]

use sharestreams::core::LatePolicy;
use sharestreams::endsystem::{
    run_threaded_faulted, CardLink, PciModel, QueueManager, TransferStrategy,
};
use sharestreams::prelude::*;
use sharestreams::types::{Error, PacketSize, StreamId};
use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
use std::sync::Arc;

/// Pinned chaos seeds (≥3 per the robustness acceptance bar). Each drives
/// a different but fully reproducible fault schedule.
const SEEDS: [u64; 4] = [0xC0FF_EE00, 1_234, 98_765, 31_337];

fn edf_state(period: u64) -> StreamState {
    StreamState {
        request_period: period,
        original_window: WindowConstraint::ZERO,
        static_prio: 0,
        late_policy: LatePolicy::ServeLate,
    }
}

/// Threaded endsystem pipeline under ring-overflow bursts and stuck-FSM
/// wedges: the run completes, loss is counted (never silent), and the
/// report's loss agrees with the injector's ledger.
#[test]
fn threaded_endsystem_survives_seeded_chaos() {
    let slots = 8usize;
    let per_slot = 2_000u64;
    let expected = slots as u64 * per_slot;
    let mut chaos_happened = 0u64;
    for seed in SEEDS {
        let inj = Arc::new(FaultInjector::new(
            seed,
            FaultConfig {
                spsc_rate_ppm: 10_000,
                decision_rate_ppm: 3_000,
                ..FaultConfig::quiet()
            },
        ));
        let states = (0..slots).map(|_| edf_state(slots as u64)).collect();
        let report = run_threaded_faulted(
            FabricConfig::edf(slots, FabricConfigKind::WinnerOnly),
            states,
            per_slot,
            Arc::clone(&inj),
            RetryPolicy::default(),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: pipeline died: {e}"));

        assert_eq!(
            report.total + report.lost,
            expected,
            "seed {seed}: offered load is conserved (served + counted loss)"
        );
        assert!(
            report.lost <= expected / 5,
            "seed {seed}: loss stays bounded, got {} of {expected}",
            report.lost
        );
        assert_eq!(
            report.per_slot.iter().sum::<u64>(),
            report.total,
            "seed {seed}: per-slot accounting matches the total"
        );
        let stats = inj.stats().snapshot();
        assert_eq!(
            stats.lost_packets, report.lost,
            "seed {seed}: report loss and injector ledger agree"
        );
        if stats.injected[ss_faults::FaultSite::DecisionCycle.index()] > 0 {
            assert!(
                stats.stalled_cycles > 0,
                "seed {seed}: injected wedges consumed cycles"
            );
        }
        chaos_happened += stats.total_injected();
    }
    assert!(
        chaos_happened > 0,
        "the seed set must actually inject faults somewhere"
    );
}

/// Inline sharded frontend under shard stalls and permanent crashes:
/// crashed shards are excluded from the merge (never hung on), their
/// written-off backlog is counted, and accepted == served + lost + live
/// backlog holds exactly.
#[test]
fn sharded_frontend_survives_shard_chaos() {
    let slots = 8usize;
    let cycles = 600u64;
    for seed in SEEDS {
        let inj = Arc::new(FaultInjector::new(
            seed,
            FaultConfig {
                shard_rate_ppm: 5_000,
                shard_crash_weight_pct: 50,
                ..FaultConfig::quiet()
            },
        ));
        let mut sched =
            ShardedScheduler::new(FabricConfig::edf(slots, FabricConfigKind::WinnerOnly), 4)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        sched.attach_faults(Arc::clone(&inj));
        for g in 0..slots {
            sched
                .load_stream(g, edf_state(slots as u64), (g + 1) as u64)
                .unwrap();
        }

        let mut accepted = 0u64;
        let mut served = 0u64;
        let mut dead_globals = vec![false; slots];
        for t in 0..cycles {
            for (g, dead) in dead_globals.iter_mut().enumerate() {
                match sched.push_arrival(g, Wrap16::from_wide(t)) {
                    Ok(()) => accepted += 1,
                    Err(Error::ShardFailed { .. }) => *dead = true,
                    Err(other) => panic!("seed {seed}: unexpected {other:?}"),
                }
            }
            if sched.decision_cycle().is_some() {
                served += 1;
            }
        }
        // Final liveness probe: a crash in the very last cycle can kill a
        // stream after its last accepted push.
        for (g, dead) in dead_globals.iter_mut().enumerate() {
            match sched.push_arrival(g, Wrap16::from_wide(cycles)) {
                Ok(()) => accepted += 1,
                Err(Error::ShardFailed { .. }) => *dead = true,
                Err(other) => panic!("seed {seed}: unexpected {other:?}"),
            }
        }

        let live_backlog: u64 = (0..slots)
            .filter(|&g| !dead_globals[g])
            .map(|g| sched.backlog(g).unwrap() as u64)
            .sum();
        assert_eq!(
            accepted,
            served + sched.lost_packets() + live_backlog,
            "seed {seed}: every accepted packet is served, counted lost, or still queued"
        );
        assert!(served > 0, "seed {seed}: the merge kept producing winners");

        let stats = inj.stats().snapshot();
        assert_eq!(
            stats.shards_excluded,
            sched.failed_shards().len() as u64,
            "seed {seed}: exclusions ledgered once each"
        );
        assert_eq!(
            stats.lost_packets,
            sched.lost_packets(),
            "seed {seed}: written-off backlog matches the ledger"
        );
        for g in (0..slots).filter(|&g| dead_globals[g]) {
            assert_eq!(
                sched.backlog(g).unwrap(),
                0,
                "seed {seed}: a dead global's backlog was written off"
            );
        }
        // Streams on dead shards are exactly the failed shards' tenants.
        if !sched.failed_shards().is_empty() {
            assert!(
                dead_globals.iter().any(|&d| d),
                "seed {seed}: a failed shard strands its tenants"
            );
        }
    }
}

/// The same sharded chaos schedule replayed from the same seed is
/// bit-identical: winner sequence and fault ledger both reproduce.
#[test]
fn chaos_schedules_replay_deterministically() {
    let run = |seed: u64| {
        let inj = Arc::new(FaultInjector::new(
            seed,
            FaultConfig {
                shard_rate_ppm: 8_000,
                shard_crash_weight_pct: 40,
                ..FaultConfig::quiet()
            },
        ));
        let mut sched =
            ShardedScheduler::new(FabricConfig::edf(8, FabricConfigKind::WinnerOnly), 4).unwrap();
        sched.attach_faults(Arc::clone(&inj));
        for g in 0..8 {
            sched.load_stream(g, edf_state(8), (g + 1) as u64).unwrap();
        }
        let mut winners = Vec::new();
        for t in 0..400u64 {
            for g in 0..8 {
                let _ = sched.push_arrival(g, Wrap16::from_wide(t));
            }
            if let Some(p) = sched.decision_cycle() {
                winners.push((p.slot.index(), p.completed_at, p.met));
            }
        }
        let ledger = serde_json::to_string(&inj.stats().snapshot()).unwrap();
        (winners, ledger, sched.failed_shards())
    };
    for seed in SEEDS {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.0, b.0, "seed {seed}: winner sequence replays");
        assert_eq!(a.1, b.1, "seed {seed}: fault ledger replays");
        assert_eq!(a.2, b.2, "seed {seed}: same shards die");
    }
}

/// A recovering K = 1 merge under decision-cycle wedges long enough to trip
/// the watchdog: scheduling keeps flowing across card→host→card switches,
/// time stays monotone, and nothing is lost.
#[test]
fn failover_supervisor_survives_decision_chaos() {
    let cycles = 800u64;
    let mut total_failovers = 0u64;
    for seed in SEEDS {
        let inj = Arc::new(FaultInjector::new(
            seed,
            FaultConfig {
                decision_rate_ppm: 25_000,
                max_stuck_cycles: 12,
                ..FaultConfig::quiet()
            },
        ));
        let mut sup =
            ShardedScheduler::new(FabricConfig::edf(4, FabricConfigKind::WinnerOnly), 1).unwrap();
        sup.enable_recovery(DecisionWatchdog::new(6, 10));
        sup.attach_faults(Arc::clone(&inj));
        for s in 0..4 {
            sup.load_stream(s, edf_state(4), (s + 1) as u64).unwrap();
        }

        let mut enqueued = 0u64;
        let mut served = 0u64;
        let mut last_completed = 0u64;
        for t in 0..cycles {
            if t % 4 == 0 {
                for s in 0..4 {
                    sup.push_arrival(s, Wrap16::from_wide(t)).unwrap();
                    enqueued += 1;
                }
            }
            if let Some(p) = sup.decision_cycle() {
                assert!(
                    p.completed_at > last_completed,
                    "seed {seed}: global time is monotone across path switches"
                );
                last_completed = p.completed_at;
                served += 1;
            }
        }

        assert_eq!(
            enqueued,
            served + sup.live_backlog(),
            "seed {seed}: both path switches conserve the backlog exactly"
        );
        assert!(
            served >= enqueued / 2,
            "seed {seed}: the stream never silently stops (served {served}/{enqueued})"
        );
        let stats = inj.stats().snapshot();
        assert_eq!(stats.failovers, sup.failovers(), "seed {seed}");
        assert_eq!(stats.reattaches, sup.reattaches(), "seed {seed}");
        assert!(
            sup.reattaches() <= sup.failovers(),
            "seed {seed}: can only re-attach after failing over"
        );
        total_failovers += sup.failovers();
    }
    assert!(
        total_failovers > 0,
        "the seed set must trip the watchdog at least once"
    );
}

/// PCI drains under heavy transfer faults: timeouts requeue at the front
/// (never lose packets), retries recover the rest, and the retry ledger
/// reconciles with the observed errors.
#[test]
fn pci_chaos_delays_but_never_loses_packets() {
    let n = 64u64;
    for seed in SEEDS {
        let inj = Arc::new(FaultInjector::new(
            seed,
            FaultConfig {
                pci_rate_ppm: 300_000,
                ..FaultConfig::quiet()
            },
        ));
        let mut qm = QueueManager::new(1, n as usize);
        for t in 0..n {
            qm.deposit(ArrivalEvent {
                time_ns: t,
                stream: StreamId::new(0).unwrap(),
                size: PacketSize(64),
            })
            .unwrap();
        }
        let mut link = CardLink::new(PciModel::pci32_33());
        link.attach_faults(Arc::clone(&inj), RetryPolicy::default());

        let mut out = Vec::new();
        let mut timeouts = 0u64;
        let mut attempts = 0u64;
        while qm.backlog(0) > 0 {
            attempts += 1;
            assert!(attempts < 10_000, "seed {seed}: drain must terminate");
            match qm.drain_to_card(0, 8, &link, TransferStrategy::PioPush, &mut out) {
                Ok(_) => {}
                Err(Error::TransferTimeout { .. }) => timeouts += 1,
                Err(other) => panic!("seed {seed}: unexpected {other:?}"),
            }
        }
        assert_eq!(
            out.len() as u64,
            n,
            "seed {seed}: every packet eventually crossed the bus"
        );
        // FIFO order survives every requeue.
        for (i, ev) in out.iter().enumerate() {
            assert_eq!(ev.time_ns, i as u64, "seed {seed}: order preserved");
        }
        let stats = inj.stats().snapshot();
        assert_eq!(
            stats.gave_up, timeouts,
            "seed {seed}: every exhausted budget surfaced as an error"
        );
        assert!(
            stats.detected >= stats.gave_up,
            "seed {seed}: detections cover give-ups"
        );
        if stats.retries > 0 {
            assert!(
                stats.recovered + stats.gave_up > 0,
                "seed {seed}: retries resolve one way or the other"
            );
        }
    }
}

/// Fault/recovery counters flow into the shared telemetry registry, so
/// chaos runs are observable through the same exporters as regular runs.
#[test]
fn fault_ledger_publishes_into_telemetry() {
    use sharestreams::telemetry::{MetricValue, Registry};
    let inj = Arc::new(FaultInjector::new(
        SEEDS[0],
        FaultConfig {
            shard_rate_ppm: 20_000,
            shard_crash_weight_pct: 100,
            ..FaultConfig::quiet()
        },
    ));
    let mut sched =
        ShardedScheduler::new(FabricConfig::edf(8, FabricConfigKind::WinnerOnly), 4).unwrap();
    sched.attach_faults(Arc::clone(&inj));
    for g in 0..8 {
        sched.load_stream(g, edf_state(8), (g + 1) as u64).unwrap();
    }
    for t in 0..200u64 {
        for g in 0..8 {
            let _ = sched.push_arrival(g, Wrap16::from_wide(t));
        }
        sched.decision_cycle();
    }
    let registry = Registry::new();
    inj.publish(&registry);
    let snap = registry.snapshot();
    let get = |name: &str| {
        snap.metrics
            .iter()
            .find(|m| m.name == name && m.labels.is_empty())
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    assert_eq!(
        get("ss_faults_shards_excluded").value,
        MetricValue::Gauge(sched.failed_shards().len() as i64)
    );
    assert_eq!(
        get("ss_faults_lost_packets").value,
        MetricValue::Gauge(sched.lost_packets() as i64)
    );
    assert!(
        snap.metrics
            .iter()
            .any(|m| m.name == "ss_faults_injected" && !m.labels.is_empty()),
        "per-site injection gauges are labeled"
    );
}

/// Overload soak: the same pinned seeds drive a 2× offered load — two
/// arrivals per decision cycle against a one-packet-per-cycle fabric —
/// plus seeded `OverloadBurst` spikes at the admission point. The deadline demand is deliberately infeasible
/// (4 streams at `T=6` plus 4 at `T=8` want 7/6 of the service rate), so
/// an unmanaged fabric drifts behind on *every* stream, while the managed
/// run's admission plan passes a feasible mix that gives the tight-window
/// streams their full rate. Contract: no panics, memory bounded by the
/// RED mirror's hard capacity, every refusal partitioned exactly by loss
/// site, tight-window (`0/4`) streams meeting strictly more deadlines
/// than the unmanaged baseline, and bit-identical replay.
mod overload_soak {
    use super::*;
    use sharestreams::endsystem::{Gate, GateConfig, RedConfig};
    use sharestreams::overload::{PressureConfig, StreamClass};
    use ss_faults::{FaultKind, FaultSite};

    const SLOTS: usize = 8;
    /// Slots `0..TIGHT` carry a zero-tolerance `0/4` window and the tight
    /// `T=6` period; the rest tolerate 3 losses in 4 at `T=8` and are the
    /// shedder's preferred victims.
    const TIGHT: usize = 4;
    const CYCLES: u64 = 4_000;
    const RED_CAP: usize = 64;

    fn window(slot: usize) -> WindowConstraint {
        if slot < TIGHT {
            WindowConstraint { num: 0, den: 4 }
        } else {
            WindowConstraint { num: 3, den: 4 }
        }
    }

    fn period(slot: usize) -> u64 {
        if slot < TIGHT {
            6
        } else {
            8
        }
    }

    /// The managed run's admission plan: tight streams get their full
    /// `1000/6` demand, tolerant streams split what remains, so the
    /// admitted aggregate (4×166 + 4×83 = 996 mtok) fits the fabric's
    /// 1000 mtok/cycle service rate with the shed policy still protecting
    /// the zero-loss windows.
    fn class(slot: usize) -> StreamClass {
        StreamClass {
            rate_mtok: if slot < TIGHT { 166 } else { 83 },
            burst_mtok: 2_000,
            protection: if slot < TIGHT { 1_000 } else { 250 },
        }
    }

    /// Everything a soak run produces, in one comparable value so replay
    /// checks are a single `assert_eq!`.
    #[derive(Debug, PartialEq, Eq)]
    struct Soak {
        transmitted: Vec<(usize, u64, bool)>,
        tight_met: u64,
        offered: u64,
        still_queued: u64,
        max_backlog: usize,
        /// `[admission, ring, shed, shard]` ledger counts.
        ledger: [u64; 4],
        bursts: u64,
        conserved: bool,
    }

    fn soak(seed: u64, managed: bool) -> Soak {
        // EDF mode: the fabric itself gives tight windows no special
        // treatment (a DWCS fabric would starve the tolerant slots to
        // protect them on its own), so any tight-window advantage in the
        // managed run is attributable to the gate's shed policy.
        let mut fabric =
            Fabric::new(FabricConfig::edf(SLOTS, FabricConfigKind::WinnerOnly)).unwrap();
        let windows: Vec<WindowConstraint> = (0..SLOTS).map(window).collect();
        for (slot, w) in windows.iter().enumerate() {
            fabric
                .load_stream(
                    slot,
                    StreamState {
                        request_period: period(slot),
                        original_window: *w,
                        static_prio: 0,
                        // ServeLate keeps the fabric loss-free, so every
                        // missing packet must appear in the gate's ledger.
                        late_policy: LatePolicy::ServeLate,
                    },
                    (slot + 1) as u64,
                )
                .unwrap();
        }
        // Seeded offered-load spikes on top of the steady 2× base load.
        let injector = FaultInjector::new(
            seed,
            FaultConfig {
                admission_rate_ppm: 20_000,
                max_overload_burst: 6,
                ..FaultConfig::quiet()
            },
        );
        let mut gate = if managed {
            Some(Gate::<()>::new(GateConfig {
                classes: (0..SLOTS).map(class).collect(),
                windows,
                red: RedConfig::classic(RED_CAP),
                pressure: PressureConfig::default(),
                red_seed: seed,
            }))
        } else {
            None
        };
        let mut out = Soak {
            transmitted: Vec::new(),
            tight_met: 0,
            offered: 0,
            still_queued: 0,
            max_backlog: 0,
            ledger: [0; 4],
            bursts: 0,
            conserved: false,
        };
        let mut tag = 0u64;
        for cycle in 0..CYCLES {
            let mut arrivals = 2u64;
            if let Some(FaultKind::OverloadBurst { extra }) = injector.sample(FaultSite::Admission)
            {
                arrivals += u64::from(extra);
                out.bursts += 1;
            }
            for k in 0..arrivals {
                let slot = ((cycle * 2 + k) as usize + seed as usize) % SLOTS;
                out.offered += 1;
                let admit = match gate.as_mut() {
                    Some(g) => g.offer(slot, ()).admits(),
                    None => true,
                };
                if admit {
                    fabric.push_arrival(slot, Wrap16::from_wide(tag)).unwrap();
                    tag += 1;
                }
            }
            if let DecisionOutcome::Winner(Some(p)) = fabric.decision_cycle() {
                if let Some(g) = gate.as_mut() {
                    g.mirror_served(p.slot.index());
                }
                if p.slot.index() < TIGHT && p.met {
                    out.tight_met += 1;
                }
                out.transmitted
                    .push((p.slot.index(), p.completed_at, p.met));
            }
            let backlog: usize = (0..SLOTS).map(|s| fabric.backlog(s).unwrap()).sum();
            out.max_backlog = out.max_backlog.max(backlog);
            if let Some(g) = gate.as_mut() {
                g.mirror_tick(backlog, 2 * RED_CAP);
            }
        }
        out.still_queued = (0..SLOTS)
            .map(|s| fabric.backlog(s).unwrap())
            .sum::<usize>() as u64;
        match gate.as_ref() {
            Some(g) => {
                let l = g.core().ledger();
                out.ledger = [l.admission, l.ring, l.shed, l.shard];
                // The gate's own identity, and its mirror agreeing with
                // the fabric it stands for.
                out.conserved = g.conserves()
                    && g.served() == out.transmitted.len() as u64
                    && g.backlog_len() as u64 == out.still_queued;
            }
            None => {
                // Unmanaged: nothing is ever refused, so conservation is
                // just "everything offered is transmitted or still queued".
                out.conserved = out.offered == out.transmitted.len() as u64 + out.still_queued;
            }
        }
        out
    }

    #[test]
    fn overload_soak_sheds_exactly_and_keeps_tight_windows_ahead() {
        for seed in SEEDS {
            let managed = soak(seed, true);
            let unmanaged = soak(seed, false);
            assert_eq!(
                managed.offered, unmanaged.offered,
                "seed {seed}: both runs see the identical arrival schedule"
            );
            assert!(managed.bursts > 0, "seed {seed}: the spike site fired");
            assert!(
                managed.conserved,
                "seed {seed}: offered == transmitted + queued + admission + shed ({managed:?})"
            );
            assert!(
                unmanaged.conserved,
                "seed {seed}: the loss-free baseline conserves trivially"
            );
            assert!(
                managed.max_backlog <= RED_CAP,
                "seed {seed}: backlog never exceeds the RED hard capacity \
                 (saw {})",
                managed.max_backlog
            );
            assert!(
                unmanaged.max_backlog > 4 * RED_CAP,
                "seed {seed}: the baseline really is overloaded (backlog {})",
                unmanaged.max_backlog
            );
            assert!(
                managed.ledger[0] + managed.ledger[2] > 0,
                "seed {seed}: 2× load forces admission rejects or sheds"
            );
            assert_eq!(
                managed.ledger[1] + managed.ledger[3],
                0,
                "seed {seed}: no ring/shard losses exist in this harness"
            );
            assert!(
                managed.tight_met > unmanaged.tight_met,
                "seed {seed}: managed tight-window deadlines-met ({}) must \
                 strictly beat the unmanaged baseline ({})",
                managed.tight_met,
                unmanaged.tight_met
            );
        }
    }

    #[test]
    fn overload_soak_replays_bit_identically() {
        for seed in SEEDS {
            let a = soak(seed, true);
            let b = soak(seed, true);
            assert_eq!(a, b, "seed {seed}: pinned soak runs are bit-identical");
        }
    }
}
