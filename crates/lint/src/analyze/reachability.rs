//! `hot-path-reachability` — transitive hot-path purity.
//!
//! The one hot-path rule. Starting from every hot root — a function
//! carrying a `// lint:hot-path` annotation at its definition site; the
//! annotations are the only list of hot functions — it walks the
//! conservative call graph and reports every forbidden sink in a root's
//! own body or reachable from it, printing a witness call path:
//!
//! ```text
//! crates/cluster/src/node.rs:88: [hot-path-reachability] forbidden token
//!   `format!` reachable from hot path: step → offer_one → describe_drop
//!   (call at crates/cluster/src/node.rs:121) → `format!` at
//!   crates/cluster/src/report.rs:40
//! ```
//!
//! Waiver points, both with the usual `-- rationale` tail:
//!
//! * at the **sink line** — "this token is fine here";
//! * at the **call-site line** in the caller —
//!   "this edge leaves the hot path" (e.g. a cold failure-reporting branch).
//!   The walk does not traverse a waived edge.
//!
//! Items whose `cfg` is dead under the active `--features` set are neither
//! roots nor traversed — each feature-matrix CI leg re-runs the analyzer
//! with its own feature set, so every live configuration is covered.

use super::callgraph::Analysis;
use crate::config::Config;
use crate::Report;
use std::collections::{BTreeSet, VecDeque};

/// The rule id.
pub const ID: &str = "hot-path-reachability";

/// Hot-root symbol indices: annotated definitions live under the active
/// feature set.
pub fn roots(analysis: &Analysis<'_>, cfg: &Config) -> BTreeSet<usize> {
    analysis
        .fns
        .iter()
        .enumerate()
        .filter(|(_, s)| s.hot_annotated && s.live(&cfg.active_features) && !s.test_only())
        .map(|(i, _)| i)
        .collect()
}

/// Runs the transitive pass.
pub fn check(analysis: &Analysis<'_>, cfg: &Config, report: &mut Report) {
    let roots = roots(analysis, cfg);
    // Multi-source BFS with parent tracking: each reachable function gets
    // one (shortest) witness chain back to a root, so every sink is
    // reported exactly once rather than once per root.
    let n = analysis.fns.len();
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; n]; // (caller, call line)
    let mut reached = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in &roots {
        reached[r] = true;
        queue.push_back(r);
    }
    while let Some(i) = queue.pop_front() {
        let caller_file = analysis.file_of(&analysis.fns[i]);
        for e in &analysis.edges[i] {
            let callee = &analysis.fns[e.callee];
            if reached[e.callee] || callee.test_only() || !callee.live(&cfg.active_features) {
                continue;
            }
            // A call under a dead statement-level `#[cfg]` is not compiled
            // in this configuration.
            if !e.cfg.iter().all(|a| a.live(&cfg.active_features)) {
                continue;
            }
            if caller_file.waived(ID, e.line) {
                report.stat("waivers honored");
                continue;
            }
            reached[e.callee] = true;
            parent[e.callee] = Some((i, e.line));
            queue.push_back(e.callee);
        }
    }

    let mut hot_set = 0u64;
    for (i, &is_reached) in reached.iter().enumerate() {
        if !is_reached {
            continue;
        }
        hot_set += 1;
        let sym = &analysis.fns[i];
        let f = analysis.file_of(sym);
        for sink in &analysis.sinks[i] {
            if !sink.cfg.iter().all(|a| a.live(&cfg.active_features)) {
                continue;
            }
            if f.waived(ID, sink.line) {
                report.stat("waivers honored");
                continue;
            }
            report.violation(
                ID,
                &f.rel,
                sink.line,
                format!(
                    "forbidden token `{}` reachable from hot path: {} → `{}` at {}:{}",
                    sink.token,
                    witness(analysis, &parent, i),
                    sink.token,
                    f.rel,
                    sink.line
                ),
            );
        }
    }
    report.stats.insert("transitive hot-set size", hot_set);
    for _ in &roots {
        report.stat("hot roots");
    }
}

/// Renders the root → … → sink-holder chain, annotating each hop with its
/// call-site location so the path is mechanically checkable.
fn witness(analysis: &Analysis<'_>, parent: &[Option<(usize, usize)>], mut i: usize) -> String {
    // chain[0] is the root; each later entry carries the call-site line
    // (which lives in the *previous* entry's file).
    let mut chain: Vec<(usize, Option<usize>)> = Vec::new();
    loop {
        match parent[i] {
            Some((p, line)) => {
                chain.push((i, Some(line)));
                i = p;
            }
            None => {
                chain.push((i, None));
                break;
            }
        }
    }
    chain.reverse();
    let mut out = String::new();
    for (k, &(idx, line)) in chain.iter().enumerate() {
        let sym = &analysis.fns[idx];
        if k > 0 {
            let caller = &analysis.fns[chain[k - 1].0];
            out.push_str(&format!(
                " → {} (call at {}:{})",
                sym.name,
                analysis.file_of(caller).rel,
                line.expect("non-root entries carry their call line")
            ));
        } else {
            out.push_str(&sym.name);
        }
    }
    out
}
