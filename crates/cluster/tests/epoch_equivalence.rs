//! The epoch loop against its oracle.
//!
//! `run_chunk(1)` is an epoch of one tick, which is tick-major order: the
//! simulation the epoch loop replaced. Every other way of driving the same
//! config — `run()`, `run_chunk(k)` for epoch-splitting, epoch-sized and
//! epoch-spanning `k`, on any number of node-phase threads — must leave
//! the same simulation behind: the whole serialized report, everything
//! `node(i)` exposes, the recorded winner sequences, the violation list in
//! booking order, and the flight dump whole, stamps included: they are
//! the virtual clock.

use ss_cluster::{
    ClusterConfig, ClusterSim, FaultProfile, Sabotage, ScenarioSpec, SimNode, Violation, Winner,
};
use ss_telemetry::{FlightDump, Stage};

#[derive(Debug, Clone, Copy)]
enum Drive {
    Run,
    Chunk(u64),
}

const DRIVES: [Drive; 4] = [
    Drive::Run,
    Drive::Chunk(7),
    Drive::Chunk(32),
    Drive::Chunk(1000),
];
const THREADS: [usize; 4] = [1, 2, 4, 6];

/// Everything a finished (or halted) simulation lets a caller see.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: String,
    tick: u64,
    halted: bool,
    nodes: Vec<String>,
    winners: Vec<Option<Vec<Winner>>>,
    violations: Vec<Violation>,
    dump: Option<FlightDump>,
}

/// Every read accessor of a node, rendered.
fn node_view(n: &SimNode) -> String {
    let per_slot: Vec<String> = (0..n.slots())
        .map(|s| {
            format!(
                "{s}: prot={} sheds={} pushed={} dead={} counters={:?} backlog={:?}",
                n.protection(s),
                n.sheds_for(s),
                n.pushed(s),
                n.is_dead_slot(s),
                n.slot_counters(s),
                n.slot_backlog(s),
            )
        })
        .collect();
    format!(
        "id={} offered={} transmitted={} backlog_ctr={} recount={} ledger={:?} monotone={} \
         idle={} internal_error={} stalled={} crashes={} protected_sheds={} fingerprint={:#x} \
         slots={per_slot:#?}",
        n.id(),
        n.offered(),
        n.transmitted(),
        n.backlog_ctr(),
        n.recomputed_backlog(),
        n.ledger(),
        n.monotone_ok(),
        n.idle_streak(),
        n.internal_error(),
        n.stalled(),
        n.shard_crashes(),
        n.protected_sheds(),
        n.fingerprint(),
    )
}

fn outcome(mut config: ClusterConfig, threads: usize, drive: Drive) -> Outcome {
    config.threads = threads;
    let nodes = config.nodes;
    let mut sim = ClusterSim::new(config).expect("cluster builds");
    let report = match drive {
        Drive::Run => sim.run(),
        Drive::Chunk(k) => {
            while sim.run_chunk(k) > 0 {}
            sim.report()
        }
    };
    assert_eq!(sim.run_chunk(1), 0, "a finished or halted run stays put");
    Outcome {
        report: serde_json::to_string(&report).expect("report serializes"),
        tick: sim.tick(),
        halted: sim.halted(),
        nodes: (0..nodes).map(|i| node_view(sim.node(i))).collect(),
        winners: (0..nodes)
            .map(|i| sim.node(i).winners().map(<[Winner]>::to_vec))
            .collect(),
        violations: sim.violations().to_vec(),
        dump: sim.dump(),
    }
}

/// Holds every drive × thread count to the tick-major oracle.
fn assert_all_drives_match(config: &ClusterConfig, what: &str) -> Outcome {
    let oracle = outcome(config.clone(), 1, Drive::Chunk(1));
    for drive in DRIVES {
        for threads in THREADS {
            let got = outcome(config.clone(), threads, drive);
            assert_eq!(got, oracle, "{what}: {drive:?} at threads={threads}");
        }
    }
    oracle
}

#[test]
fn the_pinned_chaos_run_is_the_same_at_every_epoch_length_and_thread_count() {
    // `determinism.rs`'s config: 2× overload with a flash crowd to 4×,
    // chaos faults, six nodes, winners recorded.
    let scenario =
        ScenarioSpec::parse("flash-crowd:rate=2000,peak=4000,at=1000,width=1500").expect("spec");
    let mut config = ClusterConfig::new(0xDEC1_5105_0AC3_D001, scenario, 6, 4, 8);
    config.ticks = 4_000;
    config.faults = FaultProfile::Chaos;
    config.record_winners = true;
    let oracle = assert_all_drives_match(&config, "chaos");
    assert_eq!(oracle.tick, 4_000);
    assert!(oracle.violations.is_empty() && oracle.dump.is_none());
    assert!(oracle
        .winners
        .iter()
        .all(|w| w.as_ref().is_some_and(|w| w.len() > 1_000)));
}

fn sabotaged(plan: &str, halt: bool) -> ClusterConfig {
    let scenario = ScenarioSpec::parse("steady:rate=1500").expect("spec");
    let mut config = ClusterConfig::new(0xBAD_5EED, scenario, 4, 4, 8);
    config.ticks = 300;
    config.faults = FaultProfile::Light;
    config.record_winners = true;
    config.halt_on_violation = halt;
    config.sabotage = Some(Sabotage::parse(plan).expect("plan parses"));
    config
}

/// The first, an interior and the last tick of the 32-tick epoch
/// `[64, 96)` that `run()` and the epoch-sized chunks cut (the 7-tick
/// chunks cut theirs elsewhere, which is the point of having them), on a
/// node that lives on a worker as soon as there is one.
const PLANS: [(&str, u32, u64); 6] = [
    ("phantom@3:64", 3, 64),
    ("phantom@2:77", 2, 77),
    ("phantom@1:95", 1, 95),
    ("shed-protected@1:64", 1, 64),
    ("shed-protected@3:77", 3, 77),
    ("shed-protected@2:95", 2, 95),
];

#[test]
fn a_halting_violation_rewinds_the_nodes_to_the_tick_major_state() {
    for (plan, node, tick) in PLANS {
        let oracle = assert_all_drives_match(&sabotaged(plan, true), plan);
        assert!(oracle.halted);
        assert_eq!(oracle.tick, tick, "{plan}: halted on the planted tick");
        assert_eq!(oracle.violations.len(), 1, "{plan}");
        assert_eq!(
            (oracle.violations[0].node, oracle.violations[0].tick),
            (node, tick)
        );
        let dump = oracle.dump.expect("the violation dumped");
        assert_eq!(dump.at_cycle, tick);
        let last = dump.events.last().expect("non-empty window");
        assert_eq!((last.cycle, last.stage), (tick, Stage::InvariantViolation));
        // The nodes stand where tick-major order leaves them: stepped
        // through the halt tick and not one further. A node that ran to
        // the end of its epoch would have recorded more winners than the
        // linecard was ever handed.
        let recorded: usize = oracle.winners.iter().flatten().map(Vec::len).sum();
        let handed = dump
            .events
            .iter()
            .filter(|e| e.stage == Stage::Service)
            .count();
        assert_eq!(
            recorded as u64,
            dump.total - 1,
            "{plan}: winners == Service events"
        );
        assert_eq!(handed as u64 + dump.dropped, dump.total - 1);
    }
}

#[test]
fn soak_mode_books_violations_in_tick_major_order() {
    for (plan, node, tick) in PLANS {
        let oracle = assert_all_drives_match(&sabotaged(plan, false), plan);
        assert!(!oracle.halted);
        assert_eq!(oracle.tick, 300, "{plan}: soak mode runs through");
        // The forged state is permanent, so the planted node fails on
        // every tick from the plant on — and is booked tick by tick, not
        // a node's whole epoch at a time.
        let want: Vec<(u32, u64)> = (tick..300).map(|t| (node, t)).collect();
        let got: Vec<(u32, u64)> = oracle.violations.iter().map(|v| (v.node, v.tick)).collect();
        assert_eq!(got, want, "{plan}");
        assert_eq!(
            oracle.dump.expect("dumped once").at_cycle,
            tick,
            "{plan}: first dump kept"
        );
    }
}
