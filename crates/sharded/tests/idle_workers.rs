//! Idle shard workers sleep: a threaded frontend with nothing to do costs
//! its workers next to no CPU. This file holds one test, so no other
//! test's threads come and go in the process while it counts.

#![cfg(target_os = "linux")]

use ss_core::{FabricConfig, FabricConfigKind, LatePolicy, StreamState};
use ss_sharded::ShardedScheduler;
use ss_types::{WindowConstraint, Wrap16};
use std::time::Duration;

#[path = "../../endsystem/tests/support/proc_tasks.rs"]
mod proc_tasks;

#[test]
fn an_idle_threaded_frontend_costs_its_workers_almost_no_cpu() {
    let config = FabricConfig::edf(8, FabricConfigKind::WinnerOnly);
    let state = StreamState {
        request_period: 1,
        original_window: WindowConstraint::ZERO,
        static_prio: 0,
        late_policy: LatePolicy::ServeLate,
    };
    let mut sched = ShardedScheduler::new(config, 2).expect("8 slots over 2 shards");
    for s in 0..8 {
        sched.load_stream(s, state.clone(), 1).expect("loads");
    }
    let others = proc_tasks::tasks();
    let mut threaded = sched.into_threaded(64);
    for s in 0..8 {
        threaded
            .push_arrival(s, Wrap16::from_wide(0))
            .expect("routes");
    }
    assert_eq!(
        threaded.run_cycles(4).packets.len(),
        8,
        "both shards work first"
    );

    let (names, idle) = proc_tasks::idle_cost(&others, Duration::from_secs(2));
    assert_eq!(names, ["ss-shard-0", "ss-shard-1"]);
    assert!(
        idle <= 100,
        "two idle shard workers burned {idle} ms of CPU in 2 s"
    );
    assert_eq!(threaded.join().len(), 2, "both workers still answer");
}
