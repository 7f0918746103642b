//! The whole gate, one command: what CI runs, runnable locally.
//!
//! ```text
//! cargo run -p ss-lint --release --bin verify            # every group
//! cargo run -p ss-lint --release --bin verify -- faults  # one group
//! ```
//!
//! A group is one feature leg (`default`, `faults`) or `once`, the checks
//! no leg changes. Every step
//! runs from the workspace root with incremental builds and debuginfo off
//! (debug legs fill the disk otherwise). The run stops at the first failing
//! step and prints its command; a wall-time table per step closes it.
//!
//! Exit status: 0 when every step passed, 1 on a failing step, 2 on usage.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The feature legs, each a group that runs the `LEG` rows.
const LEGS: [&str; 2] = ["default", "faults"];
const LEG: &str = "each leg";

/// The gate: group, step, cargo arguments (`{features}` is the leg's
/// `--features` flag) and the text a line of its stdout must contain,
/// which is echoed. The four fixed-work digests are pinned here and
/// nowhere else: a change that moves one must explain and re-pin it.
#[rustfmt::skip]
const STEPS: &[(&str, &str, &str, &str)] = &[
    (LEG, "test", "test --workspace{features}", ""),
    (LEG, "ss-lint", "run -q -p ss-lint --release -- --workspace-root .{features}", "hot roots"),
    (LEG, "clippy", "clippy --workspace --all-targets{features} -- -D warnings", ""),
    ("once", "test --release", "test --release --workspace", ""),
    ("once", "conformance full gear", "test --release --test conformance -- --ignored", ""),
    ("once", "bench compile", "bench --no-run --workspace", ""),
    ("once", "rustfmt", "fmt --all --check", ""),
    // ss-benchmark is left out only for its one private `replay` link in
    // `loopback.rs` (ROADMAP item 4's stale prose); the row covers it once
    // that link is fixed.
    ("once", "doc", "doc --workspace --no-deps --exclude ss-benchmark", ""),
    ("once", "digest loopback_pipeline", "run -q --release -p ss-benchmark -- --workload loopback_pipeline --seed 5 --slices 60", "output digest 0xd284b066b201f648"),
    ("once", "digest loopback_overload", "run -q --release -p ss-benchmark -- --workload loopback_overload --seed 5 --slices 60", "output digest 0x965a9780775302f9"),
    ("once", "digest fabric_block", "run -q --release -p ss-benchmark -- --workload fabric_block --seed 5 --slices 60", "output digest 0x9921faa37804e1e5"),
    ("once", "digest cluster_soak", "run -q --release -p ss-benchmark -- --workload cluster_soak --seed 5 --slices 60", "output digest 0xc09e4b3671610608"),
];

/// Environment for every step.
const ENV: &str = "CARGO_INCREMENTAL=0 CARGO_PROFILE_DEV_DEBUG=0 CARGO_PROFILE_TEST_DEBUG=0";

/// One step of one group, with its arguments expanded.
struct Step {
    group: &'static str,
    name: &'static str,
    args: String,
    expect: &'static str,
}

/// `STEPS` with the `LEG` rows expanded once per leg, in run order.
fn steps() -> Vec<Step> {
    let mut out = Vec::new();
    for group in LEGS.into_iter().chain(["once"]) {
        let leg = group != "once";
        let flag = match group {
            "default" | "once" => String::new(),
            f => format!(" --features {f}"),
        };
        for &(_, name, args, expect) in STEPS.iter().filter(|r| r.0 == group || leg && r.0 == LEG) {
            let args = args.replace("{features}", &flag);
            out.push(Step {
                group,
                name,
                args,
                expect,
            });
        }
    }
    out
}

fn command_line(s: &Step) -> String {
    format!("{ENV} cargo {}", s.args)
}

/// Runs one step; `Err` carries why it failed.
fn run(root: &Path, s: &Step) -> Result<(), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = Command::new(cargo);
    let env = ENV.split(' ').filter_map(|kv| kv.split_once('='));
    cmd.args(s.args.split_whitespace())
        .current_dir(root)
        .envs(env);
    let started = |e: std::io::Error| format!("cannot start cargo: {e}");
    if s.expect.is_empty() {
        let status = cmd.status().map_err(started)?;
        return status.success().then_some(()).ok_or(format!("{status}"));
    }
    let out = cmd.stderr(Stdio::inherit()).output().map_err(started)?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.contains(s.expect));
    match (out.status.success(), line) {
        (true, Some(line)) => {
            println!("[{}] {}: {}", s.group, s.name, line.trim());
            Ok(())
        }
        (ok, _) => {
            print!("{stdout}");
            let missing = format!("no output line contains `{}`", s.expect);
            Err(if ok { missing } else { out.status.to_string() })
        }
    }
}

fn table(rows: &[(&Step, f64, bool)]) {
    println!("\n{:<18} {:<26} {:>9}  result", "group", "step", "wall (s)");
    for (s, secs, ok) in rows {
        let result = if *ok { "ok" } else { "FAILED" };
        println!("{:<18} {:<26} {secs:>9.1}  {result}", s.group, s.name);
    }
    let total: f64 = rows.iter().map(|r| r.1).sum();
    println!("{:<18} {:<26} {total:>9.1}", "total", "");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let groups: Vec<&str> = LEGS.into_iter().chain(["once"]).collect();
    let selected = match args.as_slice() {
        [] => None,
        [g] if groups.contains(&g.as_str()) => Some(g.as_str()),
        _ => {
            eprintln!("usage: verify [GROUP]   (GROUP: {})", groups.join(" | "));
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let all = steps();
    let mut rows = Vec::new();
    for s in all.iter().filter(|s| selected.is_none_or(|g| s.group == g)) {
        println!("\n==> [{}] {}: {}", s.group, s.name, command_line(s));
        let start = Instant::now();
        let outcome = run(&root, s);
        rows.push((s, start.elapsed().as_secs_f64(), outcome.is_ok()));
        if let Err(why) = outcome {
            table(&rows);
            eprintln!("\nverify: [{}] {} failed ({why})", s.group, s.name);
            eprintln!("  command: {}", command_line(s));
            return ExitCode::FAILURE;
        }
    }
    table(&rows);
    ExitCode::SUCCESS
}
