//! The paper's anchors: every row of `ss_bench::anchors()` (Tables 1–3,
//! Figs 1 and 6–10, §3, §4.1, §4.3, §5.2, §6) checked at the paper's scale.
//! Host-timed rows need a release build, so `exp` checks them; here they
//! print as skipped (`cargo test --test paper_anchors -- --nocapture`).

use ss_bench::{anchor, anchors, Runs};

#[test]
fn every_anchor_holds() {
    let runs = Runs::default();
    let mut misses = Vec::new();
    for a in anchors() {
        if a.host_timed {
            println!("{}: skipped: host-timed, checked by `exp` in release", a.id);
        } else if let Err(miss) = a.check(&runs) {
            misses.push(miss);
        }
    }
    assert!(misses.is_empty(), "{}", misses.join("\n"));
}

/// Ids are unique, so `anchor(id)` names one row.
#[test]
fn anchor_ids_are_unique() {
    let ids: Vec<&str> = anchors().map(|a| a.id).collect();
    for (i, id) in ids.iter().enumerate() {
        assert!(!ids[..i].contains(id), "{id} twice");
    }
}

/// The table can fail: a model row judged against a value moved by twice
/// its tolerance misses, and the miss names the claim, the paper value, the
/// measured value and the tolerance.
#[test]
fn a_moved_value_misses_its_row() {
    let row = anchor("perf_comparison.no_transfer");
    let miss = row
        .judge(469_483.0 + 2.0 * 10.0)
        .expect_err("twice the tolerance");
    assert_eq!(
        miss,
        "perf_comparison.no_transfer missed: §5.2: the endsystem schedules 469 483 pkt/s \
         without PCI transfer time — paper 469483, measured 469503, tolerance ±10"
    );
    row.judge(469_483.0 + 10.0)
        .expect("the tolerance's edge holds");
}
