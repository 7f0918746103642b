//! Cluster-level fault schedules: named profiles over `ss-faults`.
//!
//! The sharded scheduler's own injection hooks
//! (`ShardedScheduler::attach_faults`) stay detached here: the
//! *simulation* owns fault modeling instead. Each node holds its own
//! [`FaultInjector`] seeded from `(run seed, node)`, samples the shard /
//! decision / ring / admission sites once per tick, and maps the drawn
//! faults onto the unconditional APIs (`fail_shard`, skipped decision
//! cycles, counted ring drops, extra offered load). Draw order is
//! node-local, so the schedule is independent of stepping order and
//! thread count.

use serde::{Deserialize, Serialize};
use ss_faults::rng::mix;
use ss_faults::{FaultConfig, FaultInjector};

/// A named fault intensity for the cluster sim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultProfile {
    /// No faults: the injector is a pure query counter.
    Off,
    /// Occasional stalls and bursts; shard crashes possible but rare.
    Light,
    /// Aggressive: frequent stalls/bursts, crashes expected on long runs.
    Chaos,
}

impl FaultProfile {
    /// Stable textual name (the `parse` keyword and the trend-point tag).
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::Off => "off",
            FaultProfile::Light => "light",
            FaultProfile::Chaos => "chaos",
        }
    }

    /// Parses a profile name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(FaultProfile::Off),
            "light" => Ok(FaultProfile::Light),
            "chaos" => Ok(FaultProfile::Chaos),
            other => Err(format!("unknown fault profile {other:?}")),
        }
    }

    /// The per-site ppm rates this profile injects at.
    pub fn config(self) -> FaultConfig {
        match self {
            FaultProfile::Off => FaultConfig::quiet(),
            FaultProfile::Light => FaultConfig {
                shard_rate_ppm: 120,
                decision_rate_ppm: 800,
                spsc_rate_ppm: 800,
                admission_rate_ppm: 400,
                shard_crash_weight_pct: 10,
                max_shard_stall_cycles: 8,
                max_stuck_cycles: 4,
                max_burst_len: 16,
                max_overload_burst: 32,
                ..FaultConfig::quiet()
            },
            FaultProfile::Chaos => FaultConfig {
                shard_rate_ppm: 1_500,
                decision_rate_ppm: 6_000,
                spsc_rate_ppm: 6_000,
                admission_rate_ppm: 3_000,
                shard_crash_weight_pct: 25,
                max_shard_stall_cycles: 16,
                max_stuck_cycles: 8,
                max_burst_len: 48,
                max_overload_burst: 128,
                ..FaultConfig::quiet()
            },
        }
    }

    /// One injector per node: seeded `mix(seed ^ mix(0xF001 + node))`, so
    /// every node owns an independent, reproducible fault stream.
    pub fn injector_for(self, seed: u64, node: usize) -> FaultInjector {
        FaultInjector::new(mix(seed ^ mix(0xF001 + node as u64)), self.config())
    }
}

impl std::fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_faults::FaultSite;

    #[test]
    fn parse_round_trips() {
        for p in [FaultProfile::Off, FaultProfile::Light, FaultProfile::Chaos] {
            assert_eq!(FaultProfile::parse(p.name()), Ok(p));
        }
        assert!(FaultProfile::parse("loud").is_err());
    }

    #[test]
    fn node_streams_are_independent_and_reproducible() {
        let a0 = FaultProfile::Chaos.injector_for(7, 0);
        let a0b = FaultProfile::Chaos.injector_for(7, 0);
        let a1 = FaultProfile::Chaos.injector_for(7, 1);
        let draws = |inj: &FaultInjector| {
            (0..256)
                .map(|_| inj.sample(FaultSite::DecisionCycle).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(&a0), draws(&a0b), "same (seed, node) replays");
        assert_ne!(draws(&a0), draws(&a1), "nodes draw independently");
    }

    #[test]
    fn off_profile_never_fires() {
        let inj = FaultProfile::Off.injector_for(1, 0);
        for _ in 0..10_000 {
            for site in FaultSite::ALL {
                assert!(inj.sample(site).is_none());
            }
        }
    }
}
