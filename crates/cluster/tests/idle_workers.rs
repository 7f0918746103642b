//! Idle pool workers sleep: a two-thread sim left alone between
//! `run_chunk` calls costs its node-phase worker next to no CPU. This file
//! holds one test, so no other test's threads come and go in the process
//! while it counts.

#![cfg(target_os = "linux")]

use ss_cluster::{ClusterConfig, ClusterSim, ScenarioSpec};
use std::time::Duration;

#[path = "../../endsystem/tests/support/proc_tasks.rs"]
mod proc_tasks;

#[test]
fn a_sim_between_chunks_costs_its_pool_almost_no_cpu() {
    let scenario = ScenarioSpec::parse("steady:rate=2000").expect("spec");
    let mut config = ClusterConfig::new(5, scenario, 4, 2, 8);
    config.ticks = 1_000_000;
    config.threads = 2;
    let mut sim = ClusterSim::new(config).expect("cluster builds");
    let others = proc_tasks::tasks();
    assert_eq!(sim.run_chunk(4_096), 4_096, "the pool works first");

    let (names, idle) = proc_tasks::idle_cost(&others, Duration::from_secs(2));
    assert_eq!(names, ["ss-node-phase"]);
    assert!(
        idle <= 100,
        "an idle pool worker burned {idle} ms of CPU in 2 s"
    );
    assert_eq!(sim.run_chunk(64), 64, "and still answers");
}
