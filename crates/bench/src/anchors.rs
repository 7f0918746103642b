//! The paper's anchors: one row per claim, with the paper's value, a
//! tolerance and the function that measures it from the experiments'
//! results ([`Runs`]). Each experiment module holds its own rows next to
//! its `run` ([`Experiment::anchors`]); `exp` checks the rows of every
//! experiment it runs, and `tests/paper_anchors.rs` checks every row that
//! is not host-timed on every `cargo test`.

use crate::experiments::{Runs, EXPERIMENTS};
use std::fmt;
use Tolerance::{Above, Abs, Below, Rel};

/// How far a measured value may sit from the paper's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Within this many units either side.
    Abs(f64),
    /// Within this fraction of the paper value either side.
    Rel(f64),
    /// Strictly above the paper value: the claim is a floor.
    Above,
    /// Strictly below the paper value: the claim is a ceiling.
    Below,
}

impl Tolerance {
    fn admits(self, paper: f64, measured: f64) -> bool {
        match self {
            Abs(d) => (measured - paper).abs() <= d,
            Rel(f) => (measured - paper).abs() <= f * paper.abs(),
            Above => measured > paper,
            Below => measured < paper,
        }
    }
}

impl fmt::Display for Tolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Abs(d) => write!(f, "±{d}"),
            Rel(r) => write!(f, "±{}%", r * 100.0),
            Above => write!(f, "above the paper value"),
            Below => write!(f, "below the paper value"),
        }
    }
}

/// One claim of the paper.
pub struct Anchor {
    /// `<experiment>.<claim>`, unique across experiments.
    pub id: &'static str,
    /// The value the paper gives (or the bound it states).
    pub paper: f64,
    /// How far the measured value may sit from [`Anchor::paper`].
    pub tolerance: Tolerance,
    /// The claim, in words.
    pub claim: &'static str,
    /// Measures the claim from the experiments' results.
    pub measure: fn(&Runs) -> f64,
    /// Timed on this host: meaningful only in a release build, so only
    /// `exp` checks it.
    pub host_timed: bool,
}

impl Anchor {
    /// Judges `measured` against the paper value and tolerance; a miss
    /// names the row, the claim, both values and the tolerance.
    pub fn judge(&self, measured: f64) -> Result<f64, String> {
        let (id, claim, paper, tolerance) = (self.id, self.claim, self.paper, self.tolerance);
        match tolerance.admits(paper, measured) {
            true => Ok(measured),
            false => Err(format!(
                "{id} missed: {claim} — paper {paper}, measured {measured}, tolerance {tolerance}"
            )),
        }
    }

    /// Measures the claim from `runs` and judges it.
    pub fn check(&self, runs: &Runs) -> Result<f64, String> {
        self.judge((self.measure)(runs))
    }
}

/// The anchor table: every experiment's rows, in `exp`'s order.
pub fn anchors() -> impl Iterator<Item = &'static Anchor> {
    EXPERIMENTS.iter().flat_map(|e| e.anchors)
}

/// The row named `id`.
pub fn anchor(id: &str) -> &'static Anchor {
    let row = anchors().find(|a| a.id == id);
    row.unwrap_or_else(|| panic!("no anchor {id}"))
}

/// A row checked in every build.
pub(crate) const fn row(
    id: &'static str,
    paper: f64,
    tolerance: Tolerance,
    claim: &'static str,
    measure: fn(&Runs) -> f64,
) -> Anchor {
    Anchor {
        id,
        paper,
        tolerance,
        claim,
        measure,
        host_timed: false,
    }
}

/// `anchor`, marked host-timed.
pub(crate) const fn host_timed(anchor: Anchor) -> Anchor {
    Anchor {
        host_timed: true,
        ..anchor
    }
}
