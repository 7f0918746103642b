//! Property tests: scenario generators respect their configured aggregate
//! rates and class mixes for any spec, and full cluster runs replay
//! bit-identically across thread counts for any (seed, scenario).

use proptest::prelude::*;
use ss_cluster::{ClusterConfig, ClusterSim, FaultProfile, Scenario, ScenarioKind, ScenarioSpec};
use ss_faults::rng::{mix, SplitMix64};

fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (0u8..5, 200u32..3000, 1u32..3, 64u64..512, 0u32..900).prop_map(
        |(kind, rate, peak_mul, phase, skew)| {
            let s = match kind {
                0 => format!("steady:rate={rate}"),
                1 => format!(
                    "flash-crowd:rate={rate},peak={},at={phase},width={phase}",
                    rate * (1 + peak_mul)
                ),
                2 => format!(
                    "diurnal:rate={rate},peak={},at={}",
                    rate * (1 + peak_mul),
                    phase * 2
                ),
                3 => format!("elephant-mice:rate={rate},skew={skew}"),
                _ => format!("wimax:rate={rate}"),
            };
            ScenarioSpec::parse(&s).expect("generated spec parses")
        },
    )
}

/// `sample_arrivals` as it was before `Scenario::new` tabulated the split
/// at the base intensity: every slot's expectation multiplied out and
/// divided on every tick, one Bernoulli draw per slot in slot order.
fn formula_arrivals(scenario: &Scenario, seed: u64, node: usize, tick: u64) -> Vec<u32> {
    let intensity = u64::from(scenario.intensity_permille(tick));
    let mut rng = SplitMix64::new(mix(seed
        ^ mix(node as u64 + 1)
        ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    scenario
        .weights()
        .iter()
        .map(|&weight| {
            let expect_micro = intensity * u64::from(weight);
            let extra = rng.below(1_000_000) < expect_micro % 1_000_000;
            (expect_micro / 1_000_000) as u32 + u32::from(extra)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tabulated split is the formula: same counts, slot for slot, on
    /// the ticks that take the table (intensity at base — all of steady,
    /// elephant-mice and wimax, the off-spike ticks of the other two) and
    /// on the ticks that cannot (mid-ramp, peak, the diurnal slopes).
    #[test]
    fn tabulated_split_equals_the_formula(spec in arb_spec(), seed in any::<u64>(), node in 0usize..8) {
        let slots = 8;
        let scenario = Scenario::new(spec, slots);
        let mut counts = vec![0u32; slots];
        let (mut at_base, mut off_base) = (0u32, 0u32);
        for tick in 0..1_280u64 {
            let total = scenario.sample_arrivals(seed, node, tick, &mut counts);
            let want = formula_arrivals(&scenario, seed, node, tick);
            prop_assert_eq!(&counts, &want, "tick {}", tick);
            prop_assert_eq!(total, want.iter().sum::<u32>());
            if scenario.intensity_permille(tick) == spec.base_permille {
                at_base += 1;
            } else {
                off_base += 1;
            }
        }
        // Both arms ran wherever the shape has both.
        prop_assert!(at_base > 0);
        if matches!(spec.kind, ScenarioKind::FlashCrowd | ScenarioKind::Diurnal) {
            prop_assert!(off_base > 0, "{:?} never left its base intensity", spec.kind);
        } else {
            prop_assert_eq!(off_base, 0);
        }
    }

    /// The sampler's realized aggregate rate tracks the configured
    /// intensity integral: over a long horizon, arrivals/tick ≈ the mean
    /// of `intensity_permille` within Bernoulli noise.
    #[test]
    fn aggregate_rate_matches_the_spec(spec in arb_spec(), seed in any::<u64>(), node in 0usize..8) {
        let slots = 8;
        let scenario = Scenario::new(spec, slots);
        let ticks = 4_096u64;
        let mut counts = vec![0u32; slots];
        let mut total = 0u64;
        let mut expected_micro = 0u64;
        for tick in 0..ticks {
            total += u64::from(scenario.sample_arrivals(seed, node, tick, &mut counts));
            expected_micro += u64::from(scenario.intensity_permille(tick)) * 1_000;
        }
        let expected = expected_micro / 1_000_000;
        // 4096 Bernoulli-ish draws: allow 15% + a small absolute floor.
        let slack = expected / 7 + 32;
        prop_assert!(
            total + slack >= expected && total <= expected + slack,
            "realized {} vs expected {} (±{})", total, expected, slack
        );
    }

    /// Per-slot arrival shares follow the scenario's class weights: a slot
    /// with twice the weight draws about twice the arrivals.
    #[test]
    fn class_mix_follows_the_weights(spec in arb_spec(), seed in any::<u64>()) {
        let slots = 8;
        let scenario = Scenario::new(spec, slots);
        let mut counts = vec![0u32; slots];
        let mut sums = vec![0u64; slots];
        for tick in 0..8_192u64 {
            scenario.sample_arrivals(seed, 0, tick, &mut counts);
            for (sum, &c) in sums.iter_mut().zip(counts.iter()) {
                *sum += u64::from(c);
            }
        }
        let total: u64 = sums.iter().sum();
        prop_assume!(total > 1_000);
        for (s, &c) in sums.iter().enumerate() {
            let realized_permille = c * 1000 / total;
            let want = u64::from(scenario.weights()[s]);
            let slack = want / 4 + 25;
            prop_assert!(
                realized_permille + slack >= want && realized_permille <= want + slack,
                "slot {}: realized {}‰ vs weight {}‰ (±{})",
                s, realized_permille, want, slack
            );
        }
    }

    /// Sampling is a pure function of `(seed, node, tick)`: recomputing
    /// any tick reproduces it exactly, independent of visit order.
    #[test]
    fn sampling_is_order_independent(spec in arb_spec(), seed in any::<u64>()) {
        let scenario = Scenario::new(spec, 8);
        let mut scratch = vec![0u32; 8];
        let mut forward = vec![0u64; 8];
        let mut backward = vec![0u64; 8];
        for tick in 0..256u64 {
            scenario.sample_arrivals(seed, 3, tick, &mut scratch);
            for (sum, &c) in forward.iter_mut().zip(scratch.iter()) {
                *sum += u64::from(c);
            }
        }
        for tick in (0..256u64).rev() {
            scenario.sample_arrivals(seed, 3, tick, &mut scratch);
            for (sum, &c) in backward.iter_mut().zip(scratch.iter()) {
                *sum += u64::from(c);
            }
        }
        prop_assert_eq!(forward, backward);
    }
}

/// The node books every drawn arrival, once, on the tick it was drawn:
/// per tick, `offered` grows by the scenario's total plus the overload
/// burst's extras (read off a second copy of the node's fault stream — the
/// admission site's draws are a stream of their own), and the `Shard`
/// ledger by the arrivals that landed on dead slots plus, on a crash tick,
/// the backlog the crashed shard held. Every shape, every fault profile;
/// the whole-count specs put one or more whole arrivals on a slot per
/// tick, so multi-arrival slots meet crashed shards too.
#[test]
fn node_books_every_drawn_arrival_once() {
    use ss_cluster::{NodeParams, SimNode};
    use ss_faults::{FaultKind, FaultSite};
    const SLOTS: usize = 8;
    let specs = [
        "steady:rate=9000",
        "flash-crowd:rate=2000,peak=9000,at=300,width=400",
        "diurnal:rate=1500,peak=9000,at=800",
        "elephant-mice:rate=3000,skew=900",
        "wimax:rate=6000",
    ];
    let (mut multi_ticks, mut dead_arrivals, mut crashes) = (0u64, 0u64, 0u64);
    for (i, spec) in specs.iter().enumerate() {
        let scenario = Scenario::new(ScenarioSpec::parse(spec).expect("spec"), SLOTS);
        for profile in [FaultProfile::Off, FaultProfile::Light, FaultProfile::Chaos] {
            for seed in [0x5EED_u64, 0xC0FFEE] {
                let id = i % 4;
                let config = ClusterConfig::new(seed, *scenario.spec(), 4, 2, SLOTS);
                let params = NodeParams {
                    slots: SLOTS,
                    shards: 2,
                    gate_rate_mtok: config.gate_rate_mtok,
                    gate_burst_mtok: config.gate_burst_mtok,
                    record_winners: false,
                };
                let mut node =
                    SimNode::new(id, params, &scenario, seed, profile.injector_for(seed, id))
                        .expect("node builds");
                let mut shadow = profile.injector_for(seed, id);
                let mut counts = [0u32; SLOTS];
                for tick in 0..3_000u64 {
                    let mut total = scenario.sample_arrivals(seed, id, tick, &mut counts);
                    multi_ticks += u64::from(counts.iter().any(|&c| c > 1));
                    if let Some(FaultKind::OverloadBurst { extra }) =
                        shadow.sample_mut(FaultSite::Admission)
                    {
                        for e in 0..extra as usize {
                            counts[(tick as usize + e) % SLOTS] += 1;
                        }
                        total += extra;
                    }
                    let dead_before: Vec<bool> = (0..SLOTS).map(|s| node.is_dead_slot(s)).collect();
                    let backlog: Vec<usize> = (0..SLOTS)
                        .map(|s| node.slot_backlog(s).expect("in range"))
                        .collect();
                    let (offered, shard) = (node.offered(), node.ledger().shard);
                    node.step(tick, &scenario, seed);
                    let ctx = format!("{spec} {profile} seed {seed:#x} tick {tick}");
                    assert_eq!(node.offered() - offered, u64::from(total), "{ctx}");
                    let dead = (0..SLOTS).filter(|&s| node.is_dead_slot(s));
                    let on_dead: u64 = dead.clone().map(|s| u64::from(counts[s])).sum();
                    let written_off: u64 = dead
                        .filter(|&s| !dead_before[s])
                        .map(|s| backlog[s] as u64)
                        .sum();
                    assert_eq!(node.ledger().shard - shard, on_dead + written_off, "{ctx}");
                    dead_arrivals += on_dead;
                }
                crashes += node.shard_crashes();
            }
        }
    }
    assert!(
        multi_ticks > 0 && dead_arrivals > 0 && crashes > 0,
        "the hard paths ran"
    );
}

proptest! {
    // Full cluster runs are expensive; fewer, stronger cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any (seed, scenario), the cluster fingerprint — winners, ledger
    /// partition, egress — is identical at 1 and 4 threads.
    #[test]
    fn replay_is_thread_count_invariant(spec in arb_spec(), seed in any::<u64>()) {
        let run = |threads: usize| {
            let mut config = ClusterConfig::new(seed, spec, 5, 2, 8);
            config.ticks = 600;
            config.faults = FaultProfile::Chaos;
            config.threads = threads;
            let mut sim = ClusterSim::new(config).expect("builds");
            let report = sim.run();
            (report.fingerprint, report.node_fingerprints.clone(),
             (report.ledger.admission, report.ledger.ring, report.ledger.shed, report.ledger.shard))
        };
        prop_assert_eq!(run(1), run(4));
    }
}
