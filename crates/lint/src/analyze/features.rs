//! `feature-cfg` — feature-gate consistency over the symbol table.
//!
//! The workspace's feature hooks follow one idiom (DESIGN.md §8): a type
//! gated `#[cfg(feature = "f")]` with a same-named zero-sized twin under
//! `#[cfg(not(feature = "f"))]`, re-exported under one name, so call
//! sites compile in every configuration and the off-state erases to
//! nothing. Two checks keep that idiom honest:
//!
//! 1. **Matching arms** — every item declared under `not(feature = "f")`
//!    must have a same-named on-arm (`feature = "f"`) in the same file. An
//!    off-arm with no on-arm twin is rot: it only ever existed to mirror
//!    something.
//! 2. **No unguarded calls into gated items** — a call site whose *every*
//!    resolved candidate requires `feature = "f"` must itself be guarded
//!    on `f` (enclosing item cfg or statement-level `#[cfg]`). If any
//!    candidate is an off-arm or ungated, the call compiles everywhere
//!    and passes.
//!
//! That an off-arm is zero-sized is the compiler's to check: each stub
//! carries its own `const _: () = assert!(size_of::<T>() == 0);`.
//!
//! Check 2 runs on name-resolution evidence and only on **same-crate**
//! edges: a cross-crate call into a gated item is already compile-checked
//! by cargo — the dependent crate must enable the feature in its
//! `Cargo.toml`, or the symbol does not exist and the per-leg build
//! fails. Within one crate both caller and callee compile under the same
//! feature set, which is exactly the case the compiler does *not* police
//! (both arms exist somewhere in the crate) and this pass does.

use super::callgraph::Analysis;
use super::symbols::CfgAtom;
use crate::config::Config;
use crate::Report;
use std::collections::BTreeMap;

/// The rule id.
pub const ID: &str = "feature-cfg";

/// Runs the pass.
pub fn check(analysis: &Analysis<'_>, _cfg: &Config, report: &mut Report) {
    matching_arms(analysis, report);
    unguarded_calls(analysis, report);
}

fn feature_of(cfg: &[CfgAtom]) -> Option<(&str, bool)> {
    // (feature, on-arm?) — first feature-shaped atom wins; multi-feature
    // gating is rare enough that per-atom reporting would be noise.
    cfg.iter().find_map(|a| match a {
        CfgAtom::Feature(f) => Some((f.as_str(), true)),
        CfgAtom::NotFeature(f) => Some((f.as_str(), false)),
        _ => None,
    })
}

fn matching_arms(analysis: &Analysis<'_>, report: &mut Report) {
    // (file, feature, name) → has on-arm / off-arm, per item namespace.
    let mut types: BTreeMap<(usize, String, String), (bool, bool)> = BTreeMap::new();
    for t in &analysis.types {
        if let Some((f, on)) = feature_of(&t.cfg) {
            let e = types
                .entry((t.file, f.to_string(), t.name.clone()))
                .or_insert((false, false));
            if on {
                e.0 = true;
            } else {
                e.1 = true;
            }
        }
    }
    for t in &analysis.types {
        let Some((feat, false)) = feature_of(&t.cfg) else {
            continue;
        };
        let file = analysis.ws.files[analysis.files[t.file]].rel.clone();
        let key = (t.file, feat.to_string(), t.name.clone());
        report.stat("feature off-arms audited");
        if !types[&key].0 {
            report.violation(
                ID,
                &file,
                t.line,
                format!(
                    "off-arm `{}` (cfg(not(feature = \"{feat}\")))  has no matching on-arm in this file",
                    t.name
                ),
            );
        }
    }
    // Off-arm *functions* (free-fn hooks, e.g. core::faults::jitter when
    // the feature is off) — same matching-arm requirement.
    let mut fns: BTreeMap<(usize, String, String), (bool, bool)> = BTreeMap::new();
    for s in &analysis.fns {
        if let Some((f, on)) = feature_of(&s.cfg) {
            // Methods pair within their owner type's arms, which check 1
            // already covers via the type; only pair free functions here.
            if s.owner.is_some() {
                continue;
            }
            let e = fns
                .entry((s.file, f.to_string(), s.name.clone()))
                .or_insert((false, false));
            if on {
                e.0 = true;
            } else {
                e.1 = true;
            }
        }
    }
    for ((file, feat, name), (on, off)) in &fns {
        if *off && !*on {
            let rel = &analysis.ws.files[analysis.files[*file]].rel;
            let line = analysis
                .fns
                .iter()
                .find(|s| s.file == *file && &s.name == name && s.owner.is_none())
                .map(|s| s.line)
                .unwrap_or(1);
            report.violation(
                ID,
                rel,
                line,
                format!(
                    "off-arm fn `{name}` (cfg(not(feature = \"{feat}\"))) has no matching on-arm in this file"
                ),
            );
        }
    }
}

fn unguarded_calls(analysis: &Analysis<'_>, report: &mut Report) {
    for (caller, edges) in analysis.edges.iter().enumerate() {
        let caller_sym = &analysis.fns[caller];
        if caller_sym.test_only() {
            continue;
        }
        let caller_crate = super::callgraph::crate_prefix(&analysis.file_of(caller_sym).rel);
        // Group candidates by call site. Cross-crate edges are cargo's
        // jurisdiction (see module docs) and stay out of the audit.
        let mut sites: BTreeMap<(usize, String), Vec<&super::callgraph::Edge>> = BTreeMap::new();
        for e in edges {
            let callee_rel = &analysis.file_of(&analysis.fns[e.callee]).rel;
            if super::callgraph::crate_prefix(callee_rel) != caller_crate {
                continue;
            }
            sites
                .entry((e.line, analysis.fns[e.callee].name.clone()))
                .or_default()
                .push(e);
        }
        for ((line, name), cands) in &sites {
            // Features required by every candidate.
            let mut required: Option<Vec<&str>> = None;
            for e in cands {
                let feats: Vec<&str> = analysis.fns[e.callee]
                    .cfg
                    .iter()
                    .filter_map(|a| match a {
                        CfgAtom::Feature(f) => Some(f.as_str()),
                        _ => None,
                    })
                    .collect();
                required = Some(match required {
                    None => feats,
                    Some(prev) => prev.into_iter().filter(|f| feats.contains(f)).collect(),
                });
            }
            let required = required.unwrap_or_default();
            if required.is_empty() {
                continue; // some candidate exists in every configuration
            }
            report.stat("gated call sites audited");
            let guard_atoms: Vec<&CfgAtom> = caller_sym
                .cfg
                .iter()
                .chain(cands.iter().flat_map(|e| e.cfg.iter()))
                .collect();
            for feat in required {
                let guarded = guard_atoms.iter().any(|a| match a {
                    CfgAtom::Feature(f) => f == feat,
                    _ => false,
                });
                if guarded {
                    continue;
                }
                let f = analysis.file_of(caller_sym);
                if f.waived(ID, *line) {
                    report.stat("waivers honored");
                    continue;
                }
                report.violation(
                    ID,
                    &f.rel,
                    *line,
                    format!(
                        "`{}` calls `{name}`, which only exists with feature \"{feat}\", from code not guarded on that feature",
                        caller_sym.name
                    ),
                );
            }
        }
    }
}
