//! Acceptance: a pinned-seed cluster run with ≥4 endsystems, faults and
//! overload enabled, replays bit-identically — same winner sequences,
//! same loss-ledger partition, same fingerprint — across invocations and
//! across thread counts.

use ss_cluster::{ClusterConfig, ClusterSim, FaultProfile, RunReport, ScenarioSpec, Winner};

fn pinned_config(threads: usize) -> ClusterConfig {
    // 2× sustained overload with a flash crowd to 4×, chaos faults:
    // crashes, stalls, ring bursts and overload bursts all exercised.
    let scenario =
        ScenarioSpec::parse("flash-crowd:rate=2000,peak=4000,at=1000,width=1500").expect("spec");
    let mut config = ClusterConfig::new(0xDEC1_5105_0AC3_D001, scenario, 6, 4, 8);
    config.ticks = 4_000;
    config.faults = FaultProfile::Chaos;
    config.threads = threads;
    config.record_winners = true;
    config
}

/// The outcome of `pinned_config`, captured once (at commit caa2c21) and
/// never recomputed: run-against-run comparisons cannot see a change that
/// moves every run; these can.
const PINNED_FINGERPRINT: u64 = 0x6648_da6c_99c7_af25;
const PINNED_NODE_FINGERPRINTS: [u64; 6] = [
    0x55ec_9296_7eff_26f9,
    0x43e4_3d70_c633_4055,
    0x2eed_3e29_bb2e_4877,
    0xe5d3_92a1_ca1b_8656,
    0x1eda_1a1c_1359_0fc7,
    0x1821_2470_8dd0_be26,
];
/// `(admission, ring, shed, shard)` losses.
type Ledger = (u64, u64, u64, u64);
const PINNED_LEDGER: Ledger = (31_182, 3_203, 4_346, 7_410);

fn run(threads: usize) -> (RunReport, Vec<Vec<Winner>>) {
    let mut sim = ClusterSim::new(pinned_config(threads)).expect("cluster builds");
    let report = sim.run();
    let winners = (0..6)
        .map(|i| sim.node(i).winners().expect("recording on").to_vec())
        .collect();
    (report, winners)
}

#[test]
fn pinned_seed_replays_bit_identically() {
    let (a, wa) = run(1);
    let (b, wb) = run(1);

    assert!(
        a.violations.is_empty(),
        "chaos at 2–4× overload stays invariant-clean: {:?}",
        a.violations
    );
    assert_eq!(a.fingerprint, b.fingerprint, "cluster fingerprint replays");
    assert_eq!(a.node_fingerprints, b.node_fingerprints);
    assert_eq!(wa, wb, "full winner sequences replay");

    // The ledger partition replays site by site, not just in total.
    assert_eq!(a.ledger.admission, b.ledger.admission);
    assert_eq!(a.ledger.ring, b.ledger.ring);
    assert_eq!(a.ledger.shed, b.ledger.shed);
    assert_eq!(a.ledger.shard, b.ledger.shard);

    assert_eq!(a.offered, b.offered);
    assert_eq!(a.transmitted, b.transmitted);
    assert_eq!(a.egressed, b.egressed);
    assert_eq!(a.egress_dropped, b.egress_dropped);
    assert_eq!(a.shard_crashes, b.shard_crashes);
}

#[test]
fn pinned_outcome_has_not_moved() {
    for threads in [1, 2, 4, 6] {
        let (r, _) = run(threads);
        assert_eq!(r.fingerprint, PINNED_FINGERPRINT, "threads={threads}");
        assert_eq!(
            r.node_fingerprints, PINNED_NODE_FINGERPRINTS,
            "threads={threads}"
        );
        assert_eq!(
            (
                r.ledger.admission,
                r.ledger.ring,
                r.ledger.shed,
                r.ledger.shard
            ),
            PINNED_LEDGER,
            "threads={threads}"
        );
    }
}

#[test]
fn thread_count_is_invisible_to_the_outcome() {
    let (a, wa) = run(1);
    for threads in [2, 4, 6] {
        let (b, wb) = run(threads);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "threads={threads} changed the fingerprint"
        );
        assert_eq!(a.node_fingerprints, b.node_fingerprints);
        assert_eq!(wa, wb, "threads={threads} changed a winner sequence");
        assert_eq!(a.ledger.admission, b.ledger.admission);
        assert_eq!(a.ledger.ring, b.ledger.ring);
        assert_eq!(a.ledger.shed, b.ledger.shed);
        assert_eq!(a.ledger.shard, b.ledger.shard);
    }
}

#[test]
fn the_run_actually_exercises_the_hard_paths() {
    // Guard against the acceptance run degenerating into a quiet one:
    // the chaos profile must actually crash shards, the overload scenario
    // must actually shed, and the ¾-subscribed linecard must actually
    // drop — otherwise the determinism assertions above prove nothing.
    let (report, _) = run(1);
    assert!(report.shard_crashes > 0, "chaos crashed at least one shard");
    assert!(report.ledger.shed > 0, "2–4× overload shed admitted work");
    assert!(report.ledger.admission > 0, "admission rejected work");
    assert!(report.egress_dropped > 0, "the linecard queue overflowed");
    assert!(
        report.protected_met_permille() == 1000,
        "the protected floor held through all of it: {}‰",
        report.protected_met_permille()
    );
    assert!(report.transmitted > 10_000, "the fabrics kept deciding");
}

/// Whole-count scenarios: at `steady:rate=9000` every slot draws one whole
/// arrival per tick plus a Bernoulli extra, and at
/// `elephant-mice:rate=3000,skew=900` the two elephants do while the mice
/// draw bits only — the multi-arrival slots the common 2× tick never has,
/// landing on crashed shards under chaos.
fn whole_count_config(spec: &str, threads: usize) -> ClusterConfig {
    let scenario = ScenarioSpec::parse(spec).expect("spec");
    let mut config = ClusterConfig::new(0x5107_5E75, scenario, 4, 2, 8);
    config.ticks = 3_000;
    config.faults = FaultProfile::Chaos;
    config.threads = threads;
    config
}

/// `(spec, fingerprint, ledger)`, captured at commit 1e599a3 — before the
/// sampler became a Bernoulli mask plus whole counts — and never
/// recomputed.
const PINNED_WHOLE_COUNT: [(&str, u64, Ledger); 2] = [
    (
        "steady:rate=9000",
        0x3dac_0aa9_885b_eafa,
        (59_978, 2_189, 1_627, 30_849),
    ),
    (
        "elephant-mice:rate=3000,skew=900",
        0x0b82_e0c4_85c2_4902,
        (12_297, 1_957, 22, 17_827),
    ),
];

#[test]
fn whole_count_outcomes_have_not_moved() {
    for (spec, fingerprint, ledger) in PINNED_WHOLE_COUNT {
        for threads in [1, 2] {
            let mut sim = ClusterSim::new(whole_count_config(spec, threads)).expect("builds");
            let r = sim.run();
            assert!(r.violations.is_empty(), "{spec}: {:?}", r.violations);
            assert!(r.shard_crashes > 0, "{spec}: chaos crashed a shard");
            assert_eq!(r.fingerprint, fingerprint, "{spec} threads={threads}");
            assert_eq!(
                (
                    r.ledger.admission,
                    r.ledger.ring,
                    r.ledger.shed,
                    r.ledger.shard
                ),
                ledger,
                "{spec} threads={threads}"
            );
        }
    }
}

#[test]
fn distinct_seeds_diverge() {
    let (a, _) = run(1);
    let mut config = pinned_config(1);
    config.seed ^= 1;
    let mut sim = ClusterSim::new(config).expect("cluster builds");
    let b = sim.run();
    assert_ne!(
        a.fingerprint, b.fingerprint,
        "the fingerprint is sensitive to the seed"
    );
}
