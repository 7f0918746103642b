//! CLI for `ss-lint`. See the library docs for the rule set.
//!
//! ```text
//! cargo run -p ss-lint --release -- --workspace-root .
//! cargo run -p ss-lint --release -- --rule atomics-ordering
//! ```
//!
//! Exit status: 0 when clean, 1 on any violation, 2 on usage/config/IO
//! errors.

#![forbid(unsafe_code)]

use ss_lint::analyze::census::Class;
use ss_lint::config::Config;
use ss_lint::workspace::Workspace;
use ss_lint::{run_all, run_rule, Report, RULE_IDS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    rule: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        rule: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace-root" => {
                args.root = PathBuf::from(it.next().ok_or("--workspace-root needs a path")?)
            }
            "--rule" => {
                let r = it.next().ok_or("--rule needs a rule id")?;
                if !RULE_IDS.contains(&r.as_str()) {
                    return Err(format!(
                        "unknown rule `{r}` (known: {})",
                        RULE_IDS.join(", ")
                    ));
                }
                args.rule = Some(r);
            }
            "--help" | "-h" => {
                println!(
                    "ss-lint: workspace static analysis\n\n  --workspace-root <path>   workspace to analyze (default: .)\n  --rule <id>               run a single rule ({})",
                    RULE_IDS.join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ss-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let config_path = args.root.join("lint.toml");
    let config_src = match std::fs::read_to_string(&config_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ss-lint: cannot read {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };
    let cfg = match Config::parse(&config_src) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ss-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let ws = match Workspace::load(&args.root, &cfg.exclude) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("ss-lint: cannot load workspace: {e}");
            return ExitCode::from(2);
        }
    };

    let report = match &args.rule {
        Some(rule) => {
            let mut r = Report::default();
            run_rule(rule, &ws, &cfg, &mut r);
            r
        }
        None => run_all(&ws, &cfg),
    };

    println!("ss-lint: {} files analyzed", ws.files.len());
    for (name, n) in &report.stats {
        println!("  {n:6} {name}");
    }
    if !report.census.is_empty() {
        let count = |c: Class| report.census.iter().filter(|e| e.class == c).count();
        let counts: Vec<String> = Class::ALL
            .iter()
            .map(|&c| format!("{} {}", count(c), c.name()))
            .collect();
        println!(
            "  census: {} (public items by what reaches them)",
            counts.join(", ")
        );
        for e in report.census.iter().take_while(|e| e.class < Class::Bench) {
            println!(
                "    {:<10} {}:{} {}",
                e.class.name(),
                e.file,
                e.line,
                e.item
            );
        }
    }
    if report.is_clean() {
        println!("  clean — no violations");
        ExitCode::SUCCESS
    } else {
        println!();
        for v in &report.violations {
            println!("{v}");
        }
        println!("\nss-lint: {} violation(s)", report.violations.len());
        ExitCode::FAILURE
    }
}
