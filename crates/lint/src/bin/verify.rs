//! The whole gate, one command: what CI runs, runnable locally.
//!
//! ```text
//! cargo run -p ss-lint --release --bin verify             # every step
//! cargo run -p ss-lint --release --bin verify -- release  # one group
//! ```
//!
//! One leg: the workspace has no cargo features, so every step checks the
//! one build. The steps fall into two groups only so CI can run them as two
//! parallel jobs: `debug` (the workspace tests, ss-lint, clippy) and
//! `release` (release tests, the conformance full gear, rustfmt, rustdoc and
//! the digests). Clippy's `--all-targets` compiles every target, the
//! examples and bench binaries included. Every step runs from the workspace
//! root with incremental builds and debuginfo off (debug builds fill the
//! disk otherwise). The run stops at the first failing step and prints its
//! command; a wall-time table per step follows, and a passing run ends with
//! the ss-lint step's public-surface census counts (when that step ran) and
//! the workspace's line count: plain `.rs` lines outside every `tests/`
//! directory, `shims/` and `target/` (ROADMAP item 13's count).
//!
//! Exit status: 0 when every step passed, 1 on a failing step, 2 on usage.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The groups, in run order.
const GROUPS: [&str; 2] = ["debug", "release"];

/// The gate: group, step, cargo arguments and the text a line of its stdout
/// must contain, which is echoed. The four fixed-work digests are pinned
/// here and nowhere else: a change that moves one must explain and re-pin
/// it.
#[rustfmt::skip]
const STEPS: &[(&str, &str, &str, &str)] = &[
    ("debug", "test", "test --workspace", ""),
    ("debug", "ss-lint", "run -q -p ss-lint --release -- --workspace-root .", "hot roots"),
    ("debug", "clippy", "clippy --workspace --all-targets -- -D warnings", ""),
    ("release", "test --release", "test --release --workspace", ""),
    ("release", "conformance full gear", "test --release --test conformance -- --ignored", ""),
    ("release", "rustfmt", "fmt --all --check", ""),
    // ss-benchmark is left out only for its one private `replay` link in
    // `loopback.rs` (ROADMAP item 4's stale prose); the row covers it once
    // that link is fixed.
    ("release", "doc", "doc --workspace --no-deps --exclude ss-benchmark", ""),
    ("release", "digest loopback_pipeline", "run -q --release -p ss-benchmark -- --workload loopback_pipeline --seed 5 --slices 60", "output digest 0xd284b066b201f648"),
    ("release", "digest loopback_overload", "run -q --release -p ss-benchmark -- --workload loopback_overload --seed 5 --slices 60", "output digest 0x965a9780775302f9"),
    ("release", "digest fabric_block", "run -q --release -p ss-benchmark -- --workload fabric_block --seed 5 --slices 60", "output digest 0x9921faa37804e1e5"),
    ("release", "digest cluster_soak", "run -q --release -p ss-benchmark -- --workload cluster_soak --seed 5 --slices 60", "output digest 0xc09e4b3671610608"),
];

/// Environment for every step.
const ENV: &str = "CARGO_INCREMENTAL=0 CARGO_PROFILE_DEV_DEBUG=0 CARGO_PROFILE_TEST_DEBUG=0";

/// One row of `STEPS`.
struct Step {
    group: &'static str,
    name: &'static str,
    args: &'static str,
    expect: &'static str,
}

fn steps() -> impl Iterator<Item = Step> {
    STEPS.iter().map(|&(group, name, args, expect)| Step {
        group,
        name,
        args,
        expect,
    })
}

fn command_line(s: &Step) -> String {
    format!("{ENV} cargo {}", s.args)
}

/// Runs one step, returning the stdout it captured (none for a step that
/// expects no line); `Err` carries why it failed.
fn run(root: &Path, s: &Step) -> Result<String, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = Command::new(cargo);
    let env = ENV.split(' ').filter_map(|kv| kv.split_once('='));
    cmd.args(s.args.split_whitespace())
        .current_dir(root)
        .envs(env);
    let started = |e: std::io::Error| format!("cannot start cargo: {e}");
    if s.expect.is_empty() {
        let status = cmd.status().map_err(started)?;
        return status
            .success()
            .then(String::new)
            .ok_or(format!("{status}"));
    }
    let out = cmd.stderr(Stdio::inherit()).output().map_err(started)?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.contains(s.expect));
    match (out.status.success(), line) {
        (true, Some(line)) => {
            println!("[{}] {}: {}", s.group, s.name, line.trim());
            Ok(stdout.into_owned())
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

/// Newlines in the `.rs` files under `dir`, skipping every `tests/` and
/// `target/` directory, hidden directories, and `shims/` at the root
/// (`top`): what `wc -l` reads over the same files.
fn line_count(dir: &Path, top: bool) -> std::io::Result<usize> {
    let mut lines = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            let skipped = ["tests", "target"].contains(&name)
                || name.starts_with('.')
                || (top && name == "shims");
            if !skipped {
                lines += line_count(&path, false)?;
            }
        } else if name.ends_with(".rs") {
            lines += std::fs::read(&path)?
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
        }
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = match args.as_slice() {
        [] => None,
        [g] if GROUPS.contains(&g.as_str()) => Some(g.as_str()),
        _ => {
            eprintln!("usage: verify [GROUP]   (GROUP: {})", GROUPS.join(" | "));
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let all: Vec<Step> = steps().collect();
    let mut rows = Vec::new();
    let mut census = None;
    for s in all.iter().filter(|s| selected.is_none_or(|g| s.group == g)) {
        println!("\n==> [{}] {}: {}", s.group, s.name, command_line(s));
        let start = Instant::now();
        let outcome = run(&root, s);
        rows.push((s, start.elapsed().as_secs_f64(), outcome.is_ok()));
        match outcome {
            Ok(stdout) => {
                let line = stdout
                    .lines()
                    .map(str::trim)
                    .find(|l| l.starts_with("census:"));
                census = census.or(line.map(str::to_string));
            }
            Err(why) => {
                table(&rows);
                eprintln!("\nverify: [{}] {} failed ({why})", s.group, s.name);
                eprintln!("  command: {}", command_line(s));
                return ExitCode::FAILURE;
            }
        }
    }
    table(&rows);
    if let Some(line) = census {
        println!("\n{line}");
    }
    match line_count(&root, true) {
        Ok(n) => println!("\nlines: {n} (.rs outside tests/, shims/ and target/)"),
        Err(e) => println!("\nlines: unreadable ({e})"),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::line_count;

    #[test]
    fn line_count_skips_tests_shims_and_target() {
        let root = std::env::temp_dir().join(format!("verify-lines-{}", std::process::id()));
        let files = [
            ("a.rs", "1\n2\n"),
            ("src/b.rs", "3\n"),
            ("crates/shims/c.rs", "4\n"),
            ("src/tests/d.rs", "x\n"),
            ("tests/e.rs", "x\n"),
            ("shims/f.rs", "x\n"),
            ("crates/target/g.rs", "x\n"),
            (".git/h.rs", "x\n"),
            ("notes.md", "x\n"),
        ];
        for (file, text) in files {
            let path = root.join(file);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }
        let counted = line_count(&root, true);
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(counted.unwrap(), 4);
    }
}
