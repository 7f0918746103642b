//! The RTL fabric against the functional fabric on randomly interleaved
//! operations: arrivals mid-run, idle decisions and bursts, so fabrics
//! empty, slots drain and refill (the idle-deadline re-anchor) and blocks
//! come out partial. Each test replays one pinned-seed interleaving class
//! of the conformance harness (`support/harness.rs`) on every path it
//! holds, the `Rtl` and `RtlAhead` rows among them.

#[path = "support/harness.rs"]
mod harness;

use harness::{check, interleaved};
use sharestreams::core::FabricConfigKind::{Base, WinnerOnly};
use sharestreams::types::ComparisonMode as Mode;

#[test]
fn wr_dwcs_interleaved() {
    check(interleaved(WinnerOnly, Mode::Dwcs, 0xD1FF, 3000));
}

#[test]
fn ba_dwcs_interleaved() {
    check(interleaved(Base, Mode::Dwcs, 0xD1FF, 3000));
}

#[test]
fn wr_edf_interleaved() {
    check(interleaved(WinnerOnly, Mode::Edf, 0xD1FF, 3000));
}

/// A second WR DWCS interleaving. Compute-ahead folds the priority update
/// into the next decision, and the `RtlAhead` row's `hw_cycles` counts that
/// saved cycle back in.
#[test]
fn compute_ahead_interleaved() {
    check(interleaved(WinnerOnly, Mode::Dwcs, 0xA4EAD, 3000));
}
