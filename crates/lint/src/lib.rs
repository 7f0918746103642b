//! `ss-lint` — workspace-aware static analysis for the ShareStreams
//! invariants the compiler cannot see.
//!
//! The paper's performance story rests on hand-maintained properties: the
//! single-cycle Decision blocks demand a zero-allocation, panic-free
//! fabric hot path, and the endsystem's "synchronization-free" SPSC
//! circular buffers are a hand-rolled acquire/release protocol. What a
//! compiler can check is left to it: the workspace manifest denies rustc's
//! `unsafe_code` (the four files that opt out of it are the whole unsafe
//! surface) and clippy's `undocumented_unsafe_blocks`,
//! `missing_safety_doc` and `unwrap_used`. This tool turns the rest into
//! machine-checked rules, run on every commit:
//!
//! | rule id            | invariant                                             |
//! |--------------------|-------------------------------------------------------|
//! | `atomics-ordering` | every `Ordering::` site matches the declared protocol (SeqCst banned, undeclared acq/rel flagged) |
//! | `call-graph`       | every `// lint:hot-path` annotation attaches to a function definition |
//! | `hot-path-reachability` | nothing reachable from a `// lint:hot-path` function contains a panic/alloc/format token (witness call path printed) |
//! | `spsc-interleave`  | the lock-free protocols survive exhaustive bounded interleaving with the orderings extracted from source |
//!
//! Configuration lives in the checked-in `lint.toml` at the workspace
//! root. Individual sites can be waived with
//! `// lint:allow(rule-id) -- rationale` (the rationale is mandatory).
//! The waivers themselves are audited under [`WAIVERS_ID`].
//! The tool is dependency-free: it carries its own minimal Rust lexer
//! (`lexer`), a TOML-subset reader (`config`), and the rule passes
//! (`rules`). Run as:
//!
//! ```text
//! cargo run -p ss-lint --release -- --workspace-root .
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod config;
pub mod lexer;
pub mod rules;
pub mod workspace;

use config::Config;
use std::collections::BTreeMap;
use std::fmt;
use workspace::Workspace;

/// Every rule id, in report order. The first is the per-file token rule;
/// the last three are the workspace-level analyses built on the symbol
/// table and call graph (see [`analyze`]).
pub const RULE_IDS: [&str; 4] = [
    rules::atomics::ID,
    analyze::callgraph::ID,
    analyze::reachability::ID,
    analyze::interleave::ID,
];

/// The id the waiver audit reports under: a `lint:allow` naming an unknown
/// rule, or a `.ci/tsan-suppressions.txt` entry without a rationale. It is
/// not a rule: it cannot be selected with `--rule` or waived.
pub const WAIVERS_ID: &str = "waivers";

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that fired.
    pub rule: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// The outcome of a run: findings plus audit statistics.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations, in rule order then file order.
    pub violations: Vec<Violation>,
    /// Counters ("ordering sites audited", "waivers honored", ...).
    pub stats: BTreeMap<&'static str, u64>,
}

impl Report {
    fn violation(&mut self, rule: &'static str, file: &str, line: usize, msg: String) {
        self.violations.push(Violation {
            rule,
            file: file.to_string(),
            line,
            msg,
        });
    }

    fn stat(&mut self, name: &'static str) {
        *self.stats.entry(name).or_insert(0) += 1;
    }

    /// `true` when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one rule by id. Panics on an unknown id (caller validates).
///
/// The two call-graph rules each rebuild the call graph when run alone
/// via `--rule`; [`run_all`] builds it once and shares it.
pub fn run_rule(rule: &str, ws: &Workspace, cfg: &Config, report: &mut Report) {
    match rule {
        "atomics-ordering" => rules::atomics::check(ws, cfg, report),
        "call-graph" => {
            let analysis = analyze::callgraph::Analysis::build(ws, cfg);
            analyze::callgraph::check(&analysis, report);
        }
        "hot-path-reachability" => {
            let analysis = analyze::callgraph::Analysis::build(ws, cfg);
            analyze::reachability::check(&analysis, report);
        }
        "spsc-interleave" => analyze::interleave::check(ws, cfg, report),
        other => unreachable!("unknown rule id `{other}` — caller validates against RULE_IDS"),
    }
}

/// Runs all four rules plus waiver-syntax validation and the sanitizer-
/// suppression staleness check, sharing one call graph across the
/// analysis passes.
pub fn run_all(ws: &Workspace, cfg: &Config) -> Report {
    let mut report = Report::default();
    rules::atomics::check(ws, cfg, &mut report);
    let analysis = analyze::callgraph::Analysis::build(ws, cfg);
    analyze::callgraph::check(&analysis, &mut report);
    analyze::reachability::check(&analysis, &mut report);
    analyze::interleave::check(ws, cfg, &mut report);
    waiver_syntax(ws, &mut report);
    tsan_suppressions(ws, &mut report);
    report
}

/// `.ci/tsan-suppressions.txt` staleness check (reported under
/// [`WAIVERS_ID`]: a suppression is a waiver of the race detector): every
/// active suppression line must be preceded by a `# rationale:`
/// comment naming why the race report is a false positive, so entries
/// can't silently accrete without a written argument.
fn tsan_suppressions(ws: &Workspace, report: &mut Report) {
    let rel = ".ci/tsan-suppressions.txt";
    let path = ws.root.join(rel);
    let Ok(text) = std::fs::read_to_string(&path) else {
        return; // no suppression file, nothing to go stale
    };
    let mut prev_rationale = false;
    for (idx, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() {
            prev_rationale = false;
            continue;
        }
        if let Some(comment) = t.strip_prefix('#') {
            if comment.trim_start().starts_with("rationale:") {
                prev_rationale = true;
            }
            continue;
        }
        report.stat("tsan suppressions audited");
        if !prev_rationale {
            report.violation(
                WAIVERS_ID,
                rel,
                idx + 1,
                format!(
                    "suppression `{t}` has no preceding `# rationale:` comment — every TSan waiver must name why the report is a false positive"
                ),
            );
        }
        prev_rationale = false;
    }
}

/// Validates waiver comments themselves: the rule id must exist and the
/// `-- rationale` tail is mandatory. A malformed waiver is a violation of
/// the rule it names (or of [`WAIVERS_ID`] when the rule is unknown), so a
/// typo can never silently disable a check.
fn waiver_syntax(ws: &Workspace, report: &mut Report) {
    for f in &ws.files {
        for w in &f.waivers {
            match RULE_IDS.iter().find(|id| **id == w.rule) {
                None => report.violation(
                    WAIVERS_ID,
                    &f.rel,
                    w.line,
                    format!(
                        "waiver names unknown rule `{}` (known: {})",
                        w.rule,
                        RULE_IDS.join(", ")
                    ),
                ),
                Some(id) => {
                    if w.rationale.is_empty() {
                        report.violation(
                            id,
                            &f.rel,
                            w.line,
                            "waiver missing its mandatory ` -- rationale` tail".to_string(),
                        );
                    }
                }
            }
        }
    }
}
