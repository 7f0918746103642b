//! Every table and figure of the paper's evaluation, one module each.
//!
//! A module's `run` is the experiment's computation: it returns the rows
//! that `results/<name>.json` (and the experiment's CSVs) serialize. Its
//! `report` prints the human-readable table and writes those artifacts.
//! `ANCHORS` are the paper's claims about the result ([`crate::Anchor`]).
//! [`Runs`] computes each result once, on first use, so `exp` and the
//! anchor rows read the same numbers.

use crate::Anchor;
use ss_core::{FabricConfig, FabricConfigKind};
use ss_endsystem::{EndsystemConfig, EndsystemPipeline};
use ss_types::{ServiceClass, StreamId, StreamSpec};
use std::cell::OnceCell;

/// One experiment of the reproduction.
pub struct Experiment {
    /// `exp <name>` runs it alone.
    pub name: &'static str,
    /// Prints the experiment's table and writes its `results/` artifacts.
    pub report: fn(&Runs),
    /// The paper's claims about the result.
    pub anchors: &'static [Anchor],
}

/// Declares the experiment modules and [`EXPERIMENTS`]: an experiment's
/// `exp` name is its module's.
macro_rules! experiments {
    ($($name:ident,)*) => {
        $(pub mod $name;)*

        /// Every experiment, in the order `exp` runs them.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            report: $name::report,
            anchors: $name::ANCHORS,
        },)*];
    };
}

experiments! {
    table1, table2, table3, fig1, fig6, fig7, fig8, fig9, fig10, software_limits,
    perf_comparison, extensions, transfer_sweep, priority_queues,
}

macro_rules! runs {
    ($($name:ident: $ty:ty = $run:path,)*) => {
        /// Every experiment's result, computed on first use and then kept.
        #[derive(Default)]
        pub struct Runs {
            $($name: OnceCell<$ty>,)*
        }

        impl Runs {
            $(
                #[doc = concat!("The result of `", stringify!($run), "`.")]
                pub fn $name(&self) -> &$ty {
                    self.$name.get_or_init($run)
                }
            )*
        }
    };
}

runs! {
    table1: table1::Table1 = table1::run,
    table2: ss_core::RuleCounters = table2::run,
    table3: table3::Table3 = table3::run,
    fig1: fig1::Fig1 = fig1::run,
    fig6: fig6::Fig6 = fig6::run,
    fig7: Vec<fig7::Point> = fig7::run,
    fig8: fig8::Fig8 = fig8::run,
    fig9: fig9::Fig9 = fig9::run,
    fig10: fig10::Fig10 = fig10::run,
    software_limits: Vec<software_limits::Row> = software_limits::run,
    perf_modeled: Vec<perf_comparison::Row> = perf_comparison::modeled,
    perf_measured: Vec<perf_comparison::Row> = perf_comparison::measured,
    extensions: Vec<extensions::Row> = extensions::run,
    transfer_sweep: Vec<transfer_sweep::Row> = transfer_sweep::run,
    priority_queues: Vec<crate::priorityq::CostModel> = priority_queues::run,
}

/// The stream weights of Figures 8–10.
const WEIGHTS: [u32; 4] = [1, 1, 2, 4];

/// The paper's endsystem (4-slot WR DWCS fabric) with one fair-share stream
/// per weight of [`WEIGHTS`], named `<prefix>-w<weight>`.
fn fair_share_pipeline(
    prefix: &str,
    tune: impl FnOnce(&mut EndsystemConfig),
) -> (EndsystemPipeline, Vec<StreamId>) {
    let fabric = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
    let mut cfg = EndsystemConfig::paper_endsystem(fabric);
    tune(&mut cfg);
    let mut pipe = EndsystemPipeline::new(cfg).expect("the paper endsystem is a valid config");
    let ids = WEIGHTS
        .iter()
        .map(|&w| {
            let spec = StreamSpec::new(
                format!("{prefix}-w{w}"),
                ServiceClass::FairShare { weight: w },
            );
            pipe.register(spec).expect("four streams fit four slots")
        })
        .collect();
    (pipe, ids)
}
