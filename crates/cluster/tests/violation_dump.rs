//! Acceptance: a deliberately injected invariant violation produces a
//! flight dump (reason `InvariantViolation`, carrying the violation
//! event) and a repro command that — parsed back through the same CLI —
//! reproduces the identical `(node, tick, invariant)`.

use ss_cluster::{cli, ClusterConfig, ClusterSim, FaultProfile, Invariant, Sabotage, ScenarioSpec};
use ss_telemetry::{DumpReason, FlightDump, Stage};

/// [`digest`] of the `phantom@2:1111` dump as the cluster phase recorded
/// it while the run went, at commit 64ddbb5 — before the dump was
/// replayed from the config instead.
const RECORDED_HALTING: u64 = 0xf20c_116e_50c0_262f;
/// The same for `phantom@0:100` with `halt_on_violation = false`.
const RECORDED_SOAK: u64 = 0x9157_5ce1_8c51_c11f;

/// FNV-1a over every event's `(tag, cycle, track, stage, detail, arg)`,
/// then `capacity`, `dropped` and `total`: everything a dump says but its
/// clock.
fn digest(dump: &FlightDump) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for e in &dump.events {
        for x in [
            e.tag,
            e.cycle,
            u64::from(e.track),
            e.stage as u64,
            u64::from(e.detail),
            u64::from(e.arg),
        ] {
            eat(x);
        }
    }
    for x in [dump.capacity as u64, dump.dropped, dump.total] {
        eat(x);
    }
    h
}

/// The stamps are the virtual clock: each event's tick, a tick a
/// microsecond.
fn assert_virtual_stamps(dump: &FlightDump) {
    assert_eq!(dump.ticks_per_us, 1.0);
    assert!(dump.events.iter().all(|e| e.tsc == e.cycle));
}

fn sabotaged_config(plan: &str) -> ClusterConfig {
    let scenario = ScenarioSpec::parse("steady:rate=1500").expect("spec");
    let mut config = ClusterConfig::new(0xBAD_5EED, scenario, 4, 4, 8);
    config.ticks = 3_000;
    config.faults = FaultProfile::Light;
    config.sabotage = Some(Sabotage::parse(plan).expect("plan parses"));
    config
}

#[test]
fn phantom_arrival_trips_conservation_and_dumps_flight() {
    let mut sim = ClusterSim::new(sabotaged_config("phantom@2:1111")).expect("builds");
    let report = sim.run();

    // The run halted at the sabotage tick with exactly the planted fault.
    assert_eq!(report.violations.len(), 1);
    let v = &report.violations[0];
    assert_eq!(v.invariant, "conservation");
    assert_eq!(v.node, 2);
    assert_eq!(v.tick, 1111);
    assert!(sim.halted());
    assert_eq!(report.ticks_run, 1111, "halted on the violation tick");

    // The flight dump shipped, with the right reason and the violation
    // event in its window.
    let dump = sim.dump().expect("violation dumped");
    assert_eq!(digest(&dump), RECORDED_HALTING, "replayed == recorded");
    assert_virtual_stamps(&dump);
    assert_eq!(dump.reason, DumpReason::InvariantViolation);
    assert_eq!(dump.at_cycle, 1111);
    let violation_events: Vec<_> = dump
        .events
        .iter()
        .filter(|e| e.stage == Stage::InvariantViolation)
        .collect();
    assert_eq!(violation_events.len(), 1);
    assert_eq!(
        violation_events[0].detail,
        Invariant::Conservation as u8,
        "the invariant code rides in the event's detail byte"
    );
    assert_eq!(violation_events[0].arg, 2, "the node rides in arg");

    // The window is the lead-up, in order: the Service events of the
    // ticks before the violation and the violation itself last.
    assert_eq!(dump.capacity, 4_096);
    assert_eq!(dump.total, dump.events.len() as u64 + dump.dropped);
    let last = dump.events.last().expect("non-empty window");
    assert_eq!(last.stage, Stage::InvariantViolation);
    assert_eq!(last.cycle, 1111);
    let services = &dump.events[..dump.events.len() - 1];
    assert!(services.iter().all(|e| e.stage == Stage::Service));
    assert!(services.iter().all(|e| e.trace_tag().is_control()));
    assert!(services.len() > 1_000, "a thousand ticks of winners held");
    assert!(services.iter().any(|e| e.cycle < 1111));
    for pair in dump.events.windows(2) {
        assert!(pair[0].cycle <= pair[1].cycle, "ring order is tick order");
        if pair[0].cycle == pair[1].cycle {
            assert!(
                pair[0].track < pair[1].track || pair[1].stage == Stage::InvariantViolation,
                "within a tick, ring order is node order"
            );
        }
    }

    // The dump survives a JSON round-trip (what the soak binary writes).
    let json = dump.to_json();
    let parsed = ss_telemetry::FlightDump::from_json(&json).expect("dump parses");
    assert_eq!(parsed, dump);
}

#[test]
fn repro_command_reproduces_the_same_violation() {
    let mut sim = ClusterSim::new(sabotaged_config("shed-protected@1:777")).expect("builds");
    let report = sim.run();
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].invariant, "protected-shed");

    // Take the rendered repro line, parse it with the production CLI
    // parser, and run what it says.
    let repro = &report.violations[0].repro;
    assert!(repro.starts_with("cargo run --release -p ss-cluster --bin soak -- "));
    let args: Vec<String> = repro
        .split_whitespace()
        .map(str::to_string)
        .skip_while(|a| a != "--")
        .skip(1)
        .collect();
    let parsed = cli::parse_args(&args).expect("the repro line parses");
    let mut replay = ClusterSim::new(parsed.config).expect("replay builds");
    let replayed = replay.run();

    assert_eq!(replayed.violations.len(), 1);
    assert_eq!(replayed.violations[0].invariant, "protected-shed");
    assert_eq!(replayed.violations[0].node, 1);
    assert_eq!(replayed.violations[0].tick, 777);
    assert_eq!(
        replayed.fingerprint, report.fingerprint,
        "the repro replays the run bit-identically, not just the verdict"
    );
}

#[test]
fn clean_runs_neither_halt_nor_dump() {
    let scenario = ScenarioSpec::parse("steady:rate=1500").expect("spec");
    let mut config = ClusterConfig::new(0xBAD_5EED, scenario, 4, 4, 8);
    config.ticks = 3_000;
    config.faults = FaultProfile::Light;
    let mut sim = ClusterSim::new(config).expect("builds");
    let report = sim.run();
    assert!(report.violations.is_empty());
    assert!(!sim.halted());
    assert!(sim.dump().is_none(), "no dump without a violation");
    assert_eq!(report.ticks_run, 3_000);
}

#[test]
fn halt_on_violation_false_keeps_running_but_keeps_the_first_dump() {
    let mut config = sabotaged_config("phantom@0:100");
    config.halt_on_violation = false;
    let mut sim = ClusterSim::new(config).expect("builds");
    let report = sim.run();
    assert_eq!(report.ticks_run, 3_000, "soak mode runs through violations");
    // A phantom offered arrival breaks conservation permanently, so the
    // sweep keeps flagging node 0; the dump is pinned to first detection.
    assert!(report.violations.len() > 1);
    let dump = sim.dump().expect("dumped");
    assert_eq!(dump.at_cycle, 100);
    assert_eq!(digest(&dump), RECORDED_SOAK, "replayed == recorded");
    assert_virtual_stamps(&dump);
}
