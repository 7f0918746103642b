//! `ss-benchmark`: run a workload, or compare two run sets.
//!
//! ```text
//! ss-benchmark --workload <name> [--seed <u64>] [--seconds <n> | --slices <n>]
//!              [--trace [0|1]] [--out <run-set file>]
//! ss-benchmark --all [the same options]
//! ss-benchmark compare <a> <b> [--bounds <BENCHMARK.json>]
//! ```
//!
//! A run prints its context, every metric by name with its unit, and as
//! the last line of standard output one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`. It exits 0 only if
//! every output check passed.

#![forbid(unsafe_code)]

use ss_benchmark::harness::{context_block, Budget};
use ss_benchmark::{compare, run, RunOptions, Workload};
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage: ss-benchmark (--workload <name> | --all) [--seed <u64>] \
[--seconds <n> | --slices <n>] [--trace [0|1]] [--out <file>]\n       \
ss-benchmark compare <a> <b> [--bounds <BENCHMARK.json>]\n\
workloads: loopback_pipeline loopback_overload fabric_block cluster_soak";

struct Args {
    workloads: Vec<Workload>,
    opts: RunOptions,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workloads = Vec::new();
    let mut opts = RunOptions {
        seed: 1,
        budget: Budget::Seconds(20.0),
        trace: false,
        scale: 1,
    };
    let mut out = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workloads.push(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--all" => workloads = Workload::ALL.to_vec(),
            "--seed" => {
                opts.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                opts.budget = Budget::Seconds(s);
            }
            "--slices" => {
                let n: u32 = value("a count")?
                    .parse()
                    .map_err(|e| format!("--slices: {e}"))?;
                opts.budget = Budget::Slices(n.max(1));
            }
            "--trace" => {
                // Bare `--trace` means 1; the driver passes 0 or 1.
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => out = Some(value("a file")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workloads.is_empty() {
        return Err("name a workload with --workload, or --all".into());
    }
    Ok(Args {
        workloads,
        opts,
        out,
    })
}

fn run_workloads(args: &Args) -> Result<bool, String> {
    // The benchmark measures the checkout it was built from: refuse to
    // run from anywhere but that checkout's root.
    if !["Cargo.toml", "BENCHMARK.json", "crates/core/Cargo.toml"]
        .iter()
        .all(|f| std::path::Path::new(f).is_file())
    {
        return Err("run from the root of the repository checkout".into());
    }
    let mut all_correct = true;
    for &workload in &args.workloads {
        println!(
            "== {} seed {} {:?} trace {} ==",
            workload.name(),
            args.opts.seed,
            args.opts.budget,
            u8::from(args.opts.trace)
        );
        print!("{}", context_block());
        let result = run(workload, args.opts);
        print!("{}", result.render());
        all_correct &= result.correct;
        let json = result.to_json();
        if let Some(path) = &args.out {
            let record = format!(
                "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"result\":{json}}}\n",
                workload.name(),
                args.opts.seed,
                u8::from(args.opts.trace)
            );
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(record.as_bytes()))
                .map_err(|e| format!("{path}: {e}"))?;
        }
        println!("{json}");
    }
    Ok(all_correct)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let (mut files, mut bounds_path) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            bounds_path = it.next().ok_or("--bounds needs a file")?.clone();
        } else {
            files.push(a);
        }
    }
    let [a, b] = files[..] else {
        return Err("compare takes two run-set files".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds = compare::parse_bounds(&read(&bounds_path)?)?;
    let (set_a, set_b) = (
        compare::parse_run_set(&read(a)?)?,
        compare::parse_run_set(&read(b)?)?,
    );
    let (table, regressed) = compare::compare(&bounds, &set_a, &set_b);
    print!("{table}");
    Ok(regressed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        _ => parse(&args).and_then(|a| run_workloads(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ss-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
