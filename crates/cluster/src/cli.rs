//! Argument parsing for the `soak` binary — in the library so a test can
//! take a rendered repro command, parse it with the same code, and re-run
//! it bit-identically.

use crate::faults::FaultProfile;
use crate::scenario::ScenarioSpec;
use crate::sim::{ClusterConfig, Sabotage};

/// Parsed `soak` invocation: the deterministic run config plus the
/// binary-only knobs (trend path, dump path, wall budget).
#[derive(Debug, Clone)]
pub struct SoakArgs {
    /// The run, fully determined.
    pub config: ClusterConfig,
    /// Where to append the trend point (`None` = don't).
    pub bench_path: Option<String>,
    /// Where to write the flight dump on violation.
    pub dump_path: Option<String>,
    /// Wall-clock budget; the run stops at a chunk boundary once spent.
    pub budget_ms: Option<u64>,
}

/// Default pinned seed (shared with the chaos suite's first seed).
pub const DEFAULT_SEED: u64 = 0xC0FF_EE00;

fn default_config() -> Result<ClusterConfig, String> {
    // Sustained 2× load with light faults: the nightly default.
    let scenario = ScenarioSpec::parse("steady:rate=2000")?;
    let mut config = ClusterConfig::new(DEFAULT_SEED, scenario, 4, 4, 8);
    config.ticks = 200_000;
    config.faults = FaultProfile::Light;
    Ok(config)
}

/// Parses `soak` arguments (everything after `--`). Flags:
/// `--seed N --scenario S --nodes N --shards K --slots M --ticks T
///  --threads H --faults off|light|chaos --sabotage kind@node:tick
///  --bench PATH --dump PATH --budget-ms MS`.
/// Unknown flags are errors so a mistyped repro fails loudly.
pub fn parse_args(args: &[String]) -> Result<SoakArgs, String> {
    let mut config = default_config()?;
    let mut bench_path = None;
    let mut dump_path = None;
    let mut budget_ms = None;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--seed" => {
                let v = value(&mut i, flag)?;
                config.seed = parse_u64(&v, flag)?;
            }
            "--scenario" => config.scenario = ScenarioSpec::parse(&value(&mut i, flag)?)?,
            "--nodes" => config.nodes = parse_u64(&value(&mut i, flag)?, flag)? as usize,
            "--shards" => config.shards = parse_u64(&value(&mut i, flag)?, flag)? as usize,
            "--slots" => config.slots = parse_u64(&value(&mut i, flag)?, flag)? as usize,
            "--ticks" => config.ticks = parse_u64(&value(&mut i, flag)?, flag)?,
            "--threads" => config.threads = parse_u64(&value(&mut i, flag)?, flag)? as usize,
            "--faults" => config.faults = FaultProfile::parse(&value(&mut i, flag)?)?,
            "--sabotage" => config.sabotage = Some(Sabotage::parse(&value(&mut i, flag)?)?),
            "--bench" => bench_path = Some(value(&mut i, flag)?),
            "--dump" => dump_path = Some(value(&mut i, flag)?),
            "--budget-ms" => budget_ms = Some(parse_u64(&value(&mut i, flag)?, flag)?),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if config.nodes == 0 {
        return Err("--nodes must be ≥ 1".into());
    }
    if config.shards == 0 || config.slots % config.shards != 0 {
        return Err("--shards must divide --slots".into());
    }
    // A plan off the end of the topology or the horizon never fires: the
    // run would exit clean and the repro pipeline would pass untested.
    if let Some(sab) = config.sabotage {
        if sab.node >= config.nodes {
            return Err(format!(
                "--sabotage {sab} names node {} but --nodes is {}",
                sab.node, config.nodes
            ));
        }
        if sab.tick >= config.ticks {
            return Err(format!(
                "--sabotage {sab} fires at tick {} but --ticks is {}",
                sab.tick, config.ticks
            ));
        }
    }
    // The defaults derived from the topology must re-derive when the
    // topology changed: rebuild through the constructor, carrying over
    // the explicit knobs.
    let derived = ClusterConfig::new(
        config.seed,
        config.scenario,
        config.nodes,
        config.shards,
        config.slots,
    );
    config.egress_per_tick = derived.egress_per_tick;
    config.egress_queue_cap = derived.egress_queue_cap;
    config.gate_rate_mtok = derived.gate_rate_mtok;
    config.gate_burst_mtok = derived.gate_burst_mtok;
    Ok(SoakArgs {
        config,
        bench_path,
        dump_path,
        budget_ms,
    })
}

fn parse_u64(v: &str, flag: &str) -> Result<u64, String> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    }
    .map_err(|_| format!("{flag} value {v:?} is not an integer"))
}

/// Renders the one-line command that replays `config` bit-identically.
/// Everything the outcome is a pure function of is on the line; wall-only
/// knobs (threads, budget) are deliberately absent.
pub fn repro_command(config: &ClusterConfig) -> String {
    let mut cmd = format!(
        "cargo run --release -p ss-cluster --bin soak -- --seed {:#x} --scenario {} \
         --nodes {} --shards {} --slots {} --ticks {} --faults {}",
        config.seed,
        config.scenario,
        config.nodes,
        config.shards,
        config.slots,
        config.ticks,
        config.faults,
    );
    if let Some(sab) = config.sabotage {
        cmd.push_str(&format!(" --sabotage {sab}"));
    }
    cmd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SabotageKind;

    fn split(cmd: &str) -> Vec<String> {
        cmd.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn repro_command_round_trips_through_parse() {
        let scenario =
            ScenarioSpec::parse("flash-crowd:rate=2000,peak=4000,at=300,width=200").expect("ok");
        let mut config = ClusterConfig::new(0xBEEF, scenario, 6, 2, 8);
        config.ticks = 12_345;
        config.faults = FaultProfile::Chaos;
        config.sabotage = Some(Sabotage {
            kind: SabotageKind::Phantom,
            node: 3,
            tick: 777,
        });
        let cmd = repro_command(&config);
        let args: Vec<String> = split(&cmd)
            .into_iter()
            .skip_while(|a| a != "--")
            .skip(1)
            .collect();
        let parsed = parse_args(&args).expect("repro parses");
        assert_eq!(parsed.config.seed, 0xBEEF);
        assert_eq!(parsed.config.scenario, config.scenario);
        assert_eq!(parsed.config.nodes, 6);
        assert_eq!(parsed.config.shards, 2);
        assert_eq!(parsed.config.slots, 8);
        assert_eq!(parsed.config.ticks, 12_345);
        assert_eq!(parsed.config.faults, FaultProfile::Chaos);
        assert_eq!(parsed.config.sabotage, config.sabotage);
    }

    #[test]
    fn unknown_flags_and_bad_topologies_fail_loudly() {
        let bad = |s: &str| parse_args(&split(s));
        assert!(bad("--frobnicate 1").is_err());
        assert!(bad("--seed banana").is_err());
        assert!(bad("--nodes 0").is_err());
        assert!(bad("--slots 8 --shards 3").is_err());
        assert!(bad("--sabotage phantom@oops").is_err());
    }

    /// A plan that can never fire is a mistyped repro, not a clean run.
    #[test]
    fn sabotage_beyond_the_topology_or_horizon_fails_loudly() {
        let parse = |s: &str| parse_args(&split(s));
        let err = parse("--nodes 4 --sabotage phantom@4:10").expect_err("node 4 of 4");
        assert!(err.contains("--nodes is 4"), "{err}");
        let err =
            parse("--ticks 100 --sabotage shed-protected@0:100").expect_err("tick 100 of 100");
        assert!(err.contains("--ticks is 100"), "{err}");
        // Flag order does not matter: the plan is checked against the
        // final topology and horizon, defaults included.
        assert!(parse("--sabotage phantom@5:10 --nodes 6").is_ok());
        assert!(
            parse("--sabotage phantom@5:10").is_err(),
            "default is 4 nodes"
        );
        assert!(
            parse("--sabotage phantom@3:199999").is_ok(),
            "last default tick"
        );
        assert!(parse("--sabotage phantom@3:200000").is_err());
    }

    #[test]
    fn defaults_are_a_runnable_nightly_profile() {
        let args = parse_args(&[]).expect("defaults parse");
        assert_eq!(args.config.nodes, 4);
        assert_eq!(args.config.faults, FaultProfile::Light);
        assert!(args.config.ticks >= 100_000);
        assert!(args.config.sabotage.is_none());
    }
}
