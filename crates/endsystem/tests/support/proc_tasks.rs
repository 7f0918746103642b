//! This process's threads as Linux lists them under `/proc/self/task`,
//! for tests that count what the workspace's threads cost or leave behind.
//! Shared by path: `#[path = ".../endsystem/tests/support/proc_tasks.rs"]`.

#![allow(dead_code)] // each test uses its own part

use std::collections::BTreeMap;
use std::time::Duration;

/// This process's threads by task id: name (Linux keeps its first 15
/// bytes) and CPU time so far, ms (utime + stime, in 10 ms clock ticks).
pub fn tasks() -> BTreeMap<u32, (String, u64)> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .flatten()
        .filter_map(|task| {
            let tid = task.file_name().to_str()?.parse().ok()?;
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            let stat = std::fs::read_to_string(task.path().join("stat")).ok()?;
            // Fields resume after the parenthesised comm; utime and stime
            // are the 14th and 15th fields of the whole line.
            let mut times = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
            let utime: u64 = times.next()?.parse().ok()?;
            let stime: u64 = times.next()?.parse().ok()?;
            Some((tid, (comm.trim_end().to_owned(), (utime + stime) * 10)))
        })
        .collect()
}

/// How many of this process's threads have a name starting with `prefix`.
pub fn threads_named(prefix: &str) -> usize {
    tasks()
        .values()
        .filter(|(name, _)| name.starts_with(prefix))
        .count()
}

/// Sleeps for `idle` and reports the threads not in `others` (a [`tasks`]
/// snapshot taken before they were spawned): their names, by task id, and
/// the CPU they used meanwhile, ms.
pub fn idle_cost(others: &BTreeMap<u32, (String, u64)>, idle: Duration) -> (Vec<String>, u64) {
    let before = tasks();
    let spawned: Vec<u32> = before
        .keys()
        .filter(|t| !others.contains_key(t))
        .copied()
        .collect();
    std::thread::sleep(idle);
    let after = tasks();
    let names = spawned.iter().map(|t| before[t].0.clone()).collect();
    let cpu = spawned.iter().map(|t| after[t].1 - before[t].1).sum();
    (names, cpu)
}
