//! The fabric against `DwcsRef`, the wide-integer software oracle: each
//! test replays one preloaded-backlog class of the conformance harness
//! (`support/harness.rs`) on every path it holds, the `Reference` row
//! among them. `DwcsRef` has no idle re-anchor, so its classes stay
//! backlogged: decided half-way, no queue drains.

#[path = "support/harness.rs"]
mod harness;

use harness::{backlog, check};

/// Four EDF streams of one period: the winner sequences match exactly.
#[test]
fn edf_winner_sequences_match_exactly() {
    check(backlog("backlog/edf"));
}

/// Eight EDF streams with prime periods 2 to 19.
#[test]
fn edf_with_heterogeneous_periods_matches() {
    check(backlog("backlog/edf-periods"));
}

/// DWCS with 0/1, 1/2, 1/4 and 2/3 windows.
#[test]
fn dwcs_with_window_constraints_matches() {
    check(backlog("backlog/dwcs-windows"));
}

/// DWCS with the Drop late policy and lossy windows at period 2.
#[test]
fn dwcs_with_drop_semantics_matches() {
    check(backlog("backlog/dwcs-drop"));
}

/// Four EDF streams of period 1 on one link: met, missed and dropped agree
/// on every slot.
#[test]
fn counters_agree_under_overload() {
    check(backlog("backlog/edf-overload"));
}
