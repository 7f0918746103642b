//! Fixture-driven self-tests: each rule fires exactly as seeded on its
//! known-bad fixture under `tests/fixtures/` (once, except the hot-path
//! rule's direct + transitive pair), the waiver machinery suppresses
//! exactly one more, the waiver audit flags an unknown rule id and an
//! unexplained TSan suppression, the CLI exit codes hold, the real
//! workspace's hot-root count and the manifest's compiler lints are pinned,
//! no member declares a cargo feature, and — the gate that matters — the
//! real workspace lints clean under the checked-in `lint.toml`.

use ss_lint::config::Config;
use ss_lint::workspace::Workspace;
use ss_lint::{run_all, run_rule, Report, WAIVERS_ID};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

fn load(root: &Path) -> (Workspace, Config) {
    let cfg =
        Config::parse(&std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml exists"))
            .expect("lint.toml parses");
    let ws = Workspace::load(root, &cfg.exclude).expect("workspace loads");
    (ws, cfg)
}

fn run_fixture_rule(rule: &str) -> Report {
    let (ws, cfg) = load(&fixtures_root());
    let mut report = Report::default();
    run_rule(rule, &ws, &cfg, &mut report);
    report
}

#[test]
fn atomics_ordering_fires_exactly_once_and_honors_the_waiver() {
    let r = run_fixture_rule("atomics-ordering");
    assert_eq!(r.violations.len(), 1, "{:#?}", r.violations);
    let v = &r.violations[0];
    assert_eq!(v.file, "atomics_seqcst.rs");
    assert!(v.msg.contains("SeqCst"), "{}", v.msg);
    assert_eq!(
        r.stats.get("ordering sites audited"),
        Some(&9),
        "the Relaxed sites (including interleave_bad.rs's six) and the waived SeqCst are audited"
    );
    assert_eq!(
        r.stats.get("waivers honored"),
        Some(&1),
        "atomics_waived.rs carries a waiver with rationale"
    );
}

#[test]
fn call_graph_fires_exactly_once_on_the_orphan_annotation() {
    let r = run_fixture_rule("call-graph");
    assert_eq!(r.violations.len(), 1, "{:#?}", r.violations);
    let v = &r.violations[0];
    assert_eq!(v.file, "callgraph_orphan.rs");
    assert_eq!(v.line, 4);
    assert!(v.msg.contains("does not attach"), "{}", v.msg);
}

#[test]
fn hot_path_reachability_fires_on_the_direct_hit_and_on_the_transitive_one() {
    let r = run_fixture_rule("hot-path-reachability");
    assert_eq!(r.violations.len(), 2, "{:#?}", r.violations);
    assert_eq!(r.stats.get("hot roots"), Some(&2));
    let (direct, transitive) = (&r.violations[0], &r.violations[1]);
    assert_eq!(direct.file, "reach_transitive.rs");
    assert_eq!(direct.line, 11, "the root's own panic!, not cold_helper's");
    assert!(
        direct.msg.contains("hot path: decide → `panic!`"),
        "a root's own body needs no hops: {}",
        direct.msg
    );
    assert_eq!(transitive.file, "reach_transitive.rs");
    assert!(
        transitive.msg.contains("fast_entry → helper")
            && transitive.msg.contains("→ deep")
            && transitive.msg.contains("`panic!`"),
        "witness path renders every hop: {}",
        transitive.msg
    );
}

#[test]
fn spsc_interleave_fires_exactly_once_with_a_counterexample() {
    let r = run_fixture_rule("spsc-interleave");
    assert_eq!(r.violations.len(), 1, "{:#?}", r.violations);
    let v = &r.violations[0];
    assert_eq!(v.file, "interleave_bad.rs");
    assert!(
        v.msg.contains("data race") && v.msg.contains("producer"),
        "counterexample schedule names the race and the threads: {}",
        v.msg
    );
}

/// The waiver audit is not a rule, so only `run_all` reaches it: a
/// `lint:allow` naming an unknown rule and a TSan suppression with no
/// `# rationale:` line (`tests/fixtures/.ci/tsan-suppressions.txt`) each
/// report once under [`WAIVERS_ID`].
#[test]
fn waiver_audit_flags_an_unknown_rule_and_an_unexplained_suppression() {
    let (ws, cfg) = load(&fixtures_root());
    let report = run_all(&ws, &cfg);
    let found: Vec<(&str, usize)> = report
        .violations
        .iter()
        .filter(|v| v.rule == WAIVERS_ID)
        .map(|v| (v.file.as_str(), v.line))
        .collect();
    assert_eq!(
        found,
        [("waiver_unknown.rs", 6), (".ci/tsan-suppressions.txt", 6)],
        "{:#?}",
        report.violations
    );
    assert_eq!(report.stats.get("tsan suppressions audited"), Some(&2));
}

#[test]
fn all_rules_together_find_exactly_the_seeded_violations() {
    let (ws, cfg) = load(&fixtures_root());
    let report = run_all(&ws, &cfg);
    assert_eq!(report.violations.len(), 7, "{:#?}", report.violations);
    let mut rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    assert_eq!(rules, {
        let mut all = ss_lint::RULE_IDS.to_vec();
        all.push(WAIVERS_ID);
        all.sort_unstable();
        all
    });
}

/// The `// lint:hot-path` annotations are the only list of hot functions,
/// so losing one — deleted with a refactor, or orphaned by a rename that
/// re-created the function without it — silently shrinks what the
/// reachability rule covers. Pin the root count of the real workspace (the
/// `hot roots` stat every run prints); a change here is either that
/// accident or a deliberate add/remove, in which case update the pin in the
/// same commit.
#[test]
fn hot_root_count_of_the_real_workspace_is_pinned() {
    // 132 / 143 → 135 / 146 with the soak lab's epoch loop, +3 on every
    // leg (`InvariantEngine::first_failure` became the public `probe` and
    // kept its annotation):
    // + `Partition::node_phase` — a partition's nodes, one epoch each,
    //   node-major; the root that now reaches `SimNode::step` and `probe`
    //   from the simulation itself;
    // + `ClusterPhase::replay` — the cluster phase, tick order (its two
    //   `on_violation` edges are waived at the call: a violation ends the
    //   steady state);
    // + `worker_loop` — the same node phase behind the ownership hand-off.
    // 135 / 146 → 138 / 149 with slot sets as words on the node tick, +6 −3
    // on every leg:
    // + `ss_types::slot_bits` — the ascending walk over a slot or shard
    //   mask that every new loop below is;
    // + `Scenario::sample_mask` — the tick's draws as a Bernoulli mask plus
    //   whole counts;
    // + `SimNode::book_dead_arrivals` and `SimNode::offer_slot` — the dead
    //   slots' arrivals booked at once, a live slot's offered back to back;
    // + `Frontend::live` — the live-shard mask both drive modes walk;
    // + `Bucket::settled` — the admission settle over tabulated rates,
    //   which replaces `AdmissionController::pending_refill` and `sync`
    //   (−2) and leaves `refill_shift` a construction-time table builder
    //   (−1, annotation dropped).
    // 138 / 149 → 149 on both legs when telemetry became a type parameter
    // (`Fabric<Traced>`) instead of a cargo feature, so every annotated
    // hook is live in every build: −4 for the deleted feature-off
    // `FabricTelemetry` stub hooks (`on_arrival`, `on_decision`,
    // `on_fault_stall`, `on_expire_cycle`); +7 for the live
    // `FabricTelemetry` hooks (those four, both `flush`es and
    // `expiry_and_update`); +8 for the threaded pipeline's lifecycle tracer
    // (`Traced::mark`, `mark_both`, `admitted`, `crossed`, `gate_verdict`,
    // `deposited`, `won`, `expired`).
    // 149 stays 149 when fault injection became a runtime attachment
    // instead of the `faults` cargo feature: the feature only ever gated
    // unannotated code, so the one build has the roots both legs had. What
    // changes is reach: the injector's sampling path below the decision
    // cycle is walked in every build (the transitive hot set is the old
    // `faults` leg's 224, not the default leg's 221), and it holds no
    // forbidden token (no new waiver).
    let (ws, cfg) = load(&workspace_root());
    let mut report = Report::default();
    run_rule("hot-path-reachability", &ws, &cfg, &mut report);
    assert_eq!(
        report.stats.get("hot roots"),
        Some(&149),
        "`// lint:hot-path` roots changed"
    );
}

/// The value of `key` in `[table]` of a TOML file (`table` empty for the
/// top level), as written: a line scan that is enough for the manifests'
/// plain `key = value` lines.
fn toml_value<'a>(text: &'a str, table: &str, key: &str) -> Option<&'a str> {
    let mut current = "";
    for line in text.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            current = header;
        } else if let Some((k, v)) = line.split_once('=') {
            if current == table && k.trim() == key {
                return Some(v.split('#').next().unwrap_or_default().trim());
            }
        }
    }
    None
}

/// Every manifest of the workspace: the root package, then every directory
/// the root's `members` globs name.
fn member_manifests(root: &Path, manifest: &str) -> Vec<PathBuf> {
    let members = toml_value(manifest, "workspace", "members").expect("members listed");
    let mut manifests = vec![root.join("Cargo.toml")];
    for glob in members.trim_matches(['[', ']']).split(',') {
        let dir = glob.trim().trim_matches('"').trim_end_matches("/*");
        for entry in std::fs::read_dir(root.join(dir)).expect("member directory") {
            let path = entry.expect("directory entry").path().join("Cargo.toml");
            if path.exists() {
                manifests.push(path);
            }
        }
    }
    assert!(manifests.len() > 2, "{manifests:?}");
    manifests
}

/// Unsafe and unwrap discipline are the compiler's: rustc's `unsafe_code`
/// and clippy's `undocumented_unsafe_blocks`, `missing_safety_doc` and
/// `unwrap_used` at `deny` in the root manifest, inherited by every member
/// through `[lints] workspace = true`, with clippy's test allowance in
/// `clippy.toml`. Nothing else would notice one of them going missing, so
/// pin them.
#[test]
fn compiler_lints_stay_denied_in_every_member() {
    let root = workspace_root();
    let read = |p: PathBuf| std::fs::read_to_string(&p).expect("manifest exists");
    let manifest = read(root.join("Cargo.toml"));
    for (table, lint) in [
        ("workspace.lints.rust", "unsafe_code"),
        ("workspace.lints.clippy", "undocumented_unsafe_blocks"),
        ("workspace.lints.clippy", "missing_safety_doc"),
        ("workspace.lints.clippy", "unwrap_used"),
        ("workspace.lints.rustdoc", "broken_intra_doc_links"),
        ("workspace.lints.rustdoc", "private_intra_doc_links"),
        ("workspace.lints.rustdoc", "redundant_explicit_links"),
    ] {
        assert_eq!(
            toml_value(&manifest, table, lint),
            Some("\"deny\""),
            "[{table}] {lint}"
        );
    }
    for path in &member_manifests(&root, &manifest) {
        assert_eq!(
            toml_value(&read(path.clone()), "lints", "workspace"),
            Some("true"),
            "{} must inherit the workspace lints",
            path.display()
        );
    }
    assert_eq!(
        toml_value(&read(root.join("clippy.toml")), "", "allow-unwrap-in-tests"),
        Some("true")
    );
}

/// One build: tests, the gate and the benchmark compile the same program,
/// so no first-party member declares a `[features]` table (fault injection
/// and telemetry are runtime attachments instead). The vendored stand-ins
/// under `shims/` mirror their upstream manifests and are not ours.
#[test]
fn no_member_declares_cargo_features() {
    let root = workspace_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("manifest exists");
    let shims = root.join("shims");
    for path in member_manifests(&root, &manifest) {
        if path.starts_with(&shims) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("manifest exists");
        assert!(
            !text.lines().any(|l| l.trim() == "[features]"),
            "{} declares cargo features",
            path.display()
        );
    }
}

#[test]
fn cli_exits_nonzero_on_fixtures_and_names_every_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_ss-lint"))
        .args(["--workspace-root"])
        .arg(fixtures_root())
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "seeded violations exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in ss_lint::RULE_IDS.into_iter().chain([WAIVERS_ID]) {
        assert!(stdout.contains(rule), "stdout names {rule}:\n{stdout}");
    }
}

#[test]
fn cli_exits_zero_on_the_real_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_ss-lint"))
        .args(["--workspace-root"])
        .arg(workspace_root())
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must lint clean:\n{stdout}"
    );
}

/// The gate the CI step depends on, in library form (faster to debug than
/// the subprocess test when it fails).
#[test]
fn real_workspace_is_clean() {
    let (ws, cfg) = load(&workspace_root());
    let report = run_all(&ws, &cfg);
    assert!(
        report.is_clean(),
        "workspace violations:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
