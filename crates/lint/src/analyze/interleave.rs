//! `spsc-interleave` — a bounded-exhaustive two-thread interleaving
//! checker for the workspace's hand-rolled lock-free protocols.
//!
//! This is a miniature loom: a [`Model`] describes each thread as a state
//! machine over atomic locations and non-atomic cells, and [`explore`]
//! enumerates *every* two-thread interleaving up to a preemption bound,
//! under a view-based acquire/release memory model:
//!
//! * each atomic location keeps its full store history; a load may read
//!   **any** store at or after the thread's per-location floor (this is
//!   what models stale cached pointers and cross-location reordering);
//! * a `Release` store snapshots the storing thread's view into the
//!   message; an `Acquire` load of a released store joins that view —
//!   plain `Relaxed` traffic moves values but never views;
//! * non-atomic cells (the ring slots) are versioned: any access from a
//!   thread whose view has not caught up with the cell's current version
//!   is a **data race** and fails the exploration with a counterexample
//!   trace.
//!
//! The models themselves ([`super::models`]) are parameterized by the
//! `Ordering`s extracted from the real source (see [`check`]), so
//! weakening a fence in `spsc.rs` or `pressure.rs` turns into a failing
//! lint with a concrete interleaving, not a latent heisenbug.
//!
//! Exploration is exhaustive up to the configured preemption bound
//! (context switches at points where the running thread could have
//! continued); unforced switches at block/finish boundaries are free, per
//! CHESS. The bound, the ring capacity, and the operation counts are
//! fixed in the models and documented in DESIGN.md §8.

use super::models;
use crate::config::{Config, InterleaveProtocol};
use crate::lexer::find_fn_bodies;
use crate::rules::find_token;
use crate::workspace::{SourceFile, Workspace};
use crate::Report;

/// The rule id.
pub const ID: &str = "spsc-interleave";

/// Exploration budget: exceeding it means the model/bound combination is
/// mis-sized, which is itself a finding (never silently truncate).
const MAX_EXECUTIONS: u64 = 4_000_000;

/// A memory ordering, as written in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOrd {
    /// `Ordering::Relaxed`.
    Relaxed,
    /// `Ordering::Acquire`.
    Acquire,
    /// `Ordering::Release`.
    Release,
    /// `Ordering::AcqRel`.
    AcqRel,
    /// `Ordering::SeqCst`.
    SeqCst,
}

impl MemOrd {
    /// Parses the `Ordering::` variant name.
    pub fn parse(s: &str) -> Option<MemOrd> {
        Some(match s {
            "Relaxed" => MemOrd::Relaxed,
            "Acquire" => MemOrd::Acquire,
            "Release" => MemOrd::Release,
            "AcqRel" => MemOrd::AcqRel,
            "SeqCst" => MemOrd::SeqCst,
            _ => return None,
        })
    }

    fn acquires(self) -> bool {
        matches!(self, MemOrd::Acquire | MemOrd::AcqRel | MemOrd::SeqCst)
    }

    fn releases(self) -> bool {
        matches!(self, MemOrd::Release | MemOrd::AcqRel | MemOrd::SeqCst)
    }

    /// Rough strength rank, used to keep the *weakest* ordering when one
    /// (fn, atomic, op) triple has several sites.
    fn strength(self) -> u8 {
        match self {
            MemOrd::Relaxed => 0,
            MemOrd::Acquire | MemOrd::Release => 1,
            MemOrd::AcqRel => 2,
            MemOrd::SeqCst => 3,
        }
    }
}

/// One visible step a thread wants to take next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Atomic load of `loc`.
    Load {
        /// Location index.
        loc: usize,
        /// Ordering at the site.
        ord: MemOrd,
    },
    /// Atomic store of `val` to `loc`.
    Store {
        /// Location index.
        loc: usize,
        /// Value stored.
        val: u64,
        /// Ordering at the site.
        ord: MemOrd,
    },
    /// Atomic `fetch_add(add)` on `loc`.
    Rmw {
        /// Location index.
        loc: usize,
        /// Addend.
        add: u64,
        /// Ordering at the site.
        ord: MemOrd,
    },
    /// Non-atomic write of `val` into slot `cell`.
    CellWrite {
        /// Cell index.
        cell: usize,
        /// Value written.
        val: u64,
    },
    /// Non-atomic destructive read of slot `cell`.
    CellTake {
        /// Cell index.
        cell: usize,
    },
    /// The thread has no more steps.
    Done,
}

/// A two-thread protocol model: a deterministic state machine per thread
/// whose only nondeterminism is scheduling and load-value choice (both
/// explored by the engine).
pub trait Model: Clone {
    /// Number of atomic locations.
    fn locs(&self) -> usize;
    /// Number of non-atomic cells.
    fn cells(&self) -> usize;
    /// Display name of an atomic location.
    fn loc_name(&self, loc: usize) -> &'static str;
    /// Display name of a thread (0 and 1).
    fn thread_name(&self, tid: usize) -> &'static str;
    /// The next visible step of `tid` (must be pure).
    fn next(&self, tid: usize) -> Action;
    /// Advances `tid` past its current action. `loaded` carries the value
    /// read by `Load`/`Rmw`/`CellTake`. `Err` is a protocol violation.
    fn apply(&mut self, tid: usize, loaded: Option<u64>) -> Result<(), String>;
    /// End-of-execution assertion once both threads are `Done`.
    fn finished(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Exploration statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stats {
    /// Complete interleavings examined.
    pub executions: u64,
    /// Total steps taken across all interleavings.
    pub steps: u64,
}

/// A failing interleaving.
#[derive(Debug)]
pub struct Counterexample {
    /// What went wrong.
    pub error: String,
    /// The schedule that produced it, one line per step.
    pub trace: Vec<String>,
}

/// A thread's view: per-location store floors and per-cell versions it
/// has synchronized with.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct View {
    locs: Vec<usize>,
    cells: Vec<u64>,
}

impl View {
    fn join(&mut self, other: &View) {
        for (a, b) in self.locs.iter_mut().zip(&other.locs) {
            *a = (*a).max(*b);
        }
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a = (*a).max(*b);
        }
    }
}

#[derive(Debug, Clone)]
struct StoreElem {
    val: u64,
    view: View,
    release: bool,
}

#[derive(Debug, Clone)]
struct Exec<M: Model> {
    model: M,
    hist: Vec<Vec<StoreElem>>,
    cell_val: Vec<u64>,
    cell_ver: Vec<u64>,
    views: [View; 2],
    current: Option<usize>,
    preemptions: usize,
    /// The schedule so far as `(tid, load choice)` — cheap to clone on
    /// every branch; human-readable trace lines are regenerated from it
    /// only when a counterexample is found.
    path: Vec<(u8, u32)>,
    /// When set, [`Exec::step`] appends a description line per step.
    record: bool,
    trace: Vec<String>,
}

impl<M: Model> Exec<M> {
    fn new(model: M) -> Exec<M> {
        let empty = View {
            locs: vec![0; model.locs()],
            cells: vec![0; model.cells()],
        };
        Exec {
            hist: (0..model.locs())
                .map(|_| {
                    vec![StoreElem {
                        val: 0,
                        view: empty.clone(),
                        release: false,
                    }]
                })
                .collect(),
            cell_val: vec![0; model.cells()],
            cell_ver: vec![0; model.cells()],
            views: [empty.clone(), empty],
            current: None,
            preemptions: 0,
            path: Vec::new(),
            record: false,
            trace: Vec::new(),
            model,
        }
    }

    /// Executes `action` for `tid` (`load_idx` picks the store a `Load`
    /// reads). `Err` is a counterexample at this prefix.
    fn step(&mut self, tid: usize, action: Action, load_idx: usize) -> Result<(), String> {
        self.path.push((tid as u8, load_idx as u32));
        let who = self.model.thread_name(tid);
        match action {
            Action::Load { loc, ord } => {
                let elem = self.hist[loc][load_idx].clone();
                let floor = &mut self.views[tid].locs[loc];
                *floor = (*floor).max(load_idx);
                if ord.acquires() && elem.release {
                    let view = elem.view.clone();
                    self.views[tid].join(&view);
                }
                if self.record {
                    self.trace.push(format!(
                        "{who}: load {} -> {} ({ord:?}, store #{load_idx})",
                        self.model.loc_name(loc),
                        elem.val
                    ));
                }
                self.model.apply(tid, Some(elem.val))
            }
            Action::Store { loc, val, ord } => {
                let idx = self.hist[loc].len();
                self.views[tid].locs[loc] = idx;
                let view = if ord.releases() {
                    self.views[tid].clone()
                } else {
                    View {
                        locs: vec![0; self.model.locs()],
                        cells: vec![0; self.model.cells()],
                    }
                };
                self.hist[loc].push(StoreElem {
                    val,
                    view,
                    release: ord.releases(),
                });
                if self.record {
                    self.trace.push(format!(
                        "{who}: store {} <- {val} ({ord:?})",
                        self.model.loc_name(loc)
                    ));
                }
                self.model.apply(tid, None)
            }
            Action::Rmw { loc, add, ord } => {
                // An RMW always reads the latest store (atomicity).
                let idx = self.hist[loc].len() - 1;
                let elem = self.hist[loc][idx].clone();
                if ord.acquires() && elem.release {
                    let view = elem.view.clone();
                    self.views[tid].join(&view);
                }
                let new_idx = idx + 1;
                self.views[tid].locs[loc] = new_idx;
                // Release sequence: the RMW carries forward the read
                // store's view even when itself relaxed.
                let mut view = elem.view.clone();
                if ord.releases() {
                    view.join(&self.views[tid]);
                }
                self.hist[loc].push(StoreElem {
                    val: elem.val + add,
                    view,
                    release: ord.releases() || elem.release,
                });
                if self.record {
                    self.trace.push(format!(
                        "{who}: fetch_add {} {} -> {} ({ord:?})",
                        self.model.loc_name(loc),
                        add,
                        elem.val + add
                    ));
                }
                self.model.apply(tid, Some(elem.val))
            }
            Action::CellWrite { cell, val } => {
                if self.record {
                    self.trace.push(format!("{who}: slot[{cell}] <- {val}"));
                }
                if self.views[tid].cells[cell] != self.cell_ver[cell] {
                    return Err(format!(
                        "data race: {who} writes slot[{cell}] at version {} but has only synchronized with version {}",
                        self.cell_ver[cell], self.views[tid].cells[cell]
                    ));
                }
                self.cell_ver[cell] += 1;
                self.cell_val[cell] = val;
                self.views[tid].cells[cell] = self.cell_ver[cell];
                self.model.apply(tid, None)
            }
            Action::CellTake { cell } => {
                if self.record {
                    self.trace.push(format!("{who}: take slot[{cell}]"));
                }
                if self.views[tid].cells[cell] != self.cell_ver[cell] {
                    return Err(format!(
                        "data race: {who} takes slot[{cell}] at version {} but has only synchronized with version {}",
                        self.cell_ver[cell], self.views[tid].cells[cell]
                    ));
                }
                let val = self.cell_val[cell];
                self.cell_ver[cell] += 1;
                self.views[tid].cells[cell] = self.cell_ver[cell];
                self.model.apply(tid, Some(val))
            }
            Action::Done => unreachable!("Done threads are never scheduled"),
        }
    }
}

/// Replays a recorded choice path against a fresh execution to regenerate
/// the human-readable trace (the exploration itself records only the
/// cheap `(tid, choice)` pairs).
fn describe<M: Model>(model: &M, path: &[(u8, u32)]) -> Vec<String> {
    let mut exec = Exec::new(model.clone());
    exec.record = true;
    for &(tid, idx) in path {
        let action = exec.model.next(tid as usize);
        if exec.step(tid as usize, action, idx as usize).is_err() {
            break; // the final step is the failing one
        }
    }
    exec.trace
}

/// Exhaustively explores all two-thread interleavings of `model` with at
/// most `bound` preemptions. `Ok` carries statistics; `Err` the first
/// failing interleaving found.
pub fn explore<M: Model>(model: &M, bound: usize) -> Result<Stats, Box<Counterexample>> {
    let mut stats = Stats::default();
    let exec = Exec::new(model.clone());
    dfs(model, &exec, bound, &mut stats)?;
    Ok(stats)
}

fn dfs<M: Model>(
    initial: &M,
    exec: &Exec<M>,
    bound: usize,
    stats: &mut Stats,
) -> Result<(), Box<Counterexample>> {
    let runnable: Vec<usize> = (0..2)
        .filter(|&t| !matches!(exec.model.next(t), Action::Done))
        .collect();
    if runnable.is_empty() {
        stats.executions += 1;
        if stats.executions > MAX_EXECUTIONS {
            return Err(Box::new(Counterexample {
                error: format!(
                    "exploration budget exceeded ({MAX_EXECUTIONS} executions) — shrink the model or the preemption bound"
                ),
                trace: Vec::new(),
            }));
        }
        return exec.model.finished().map_err(|error| {
            Box::new(Counterexample {
                error,
                trace: describe(initial, &exec.path),
            })
        });
    }
    for &tid in &runnable {
        let preempt = match exec.current {
            Some(cur) => tid != cur && runnable.contains(&cur),
            None => false,
        };
        if preempt && exec.preemptions >= bound {
            continue;
        }
        let action = exec.model.next(tid);
        // A load forks once per eligible store; everything else is a
        // single branch.
        let choices: Vec<usize> = match action {
            Action::Load { loc, .. } => (exec.views[tid].locs[loc]..exec.hist[loc].len()).collect(),
            _ => vec![0],
        };
        for idx in choices {
            let mut next = exec.clone();
            next.current = Some(tid);
            if preempt {
                next.preemptions += 1;
            }
            stats.steps += 1;
            if let Err(error) = next.step(tid, action, idx) {
                return Err(Box::new(Counterexample {
                    error,
                    trace: describe(initial, &next.path),
                }));
            }
            dfs(initial, &next, bound, stats)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Ordering extraction + the rule
// ---------------------------------------------------------------------------

/// The weakest `Ordering` used on `atomic.op(...)` inside any fn body
/// named `func` in `f`. `Err` when no such site exists — a renamed field
/// or function must fail loudly, not silently verify nothing.
pub fn extract_ord(f: &SourceFile, func: &str, atomic: &str, op: &str) -> Result<MemOrd, String> {
    let mut weakest: Option<MemOrd> = None;
    for (start, end) in find_fn_bodies(&f.masked.text, func) {
        let body = &f.masked.text[start..end];
        let bytes = body.as_bytes();
        for off in find_token(body, atomic) {
            let mut j = off + atomic.len();
            let Some(rest) = body[j..].strip_prefix('.') else {
                continue;
            };
            let Some(rest) = rest.strip_prefix(op) else {
                continue;
            };
            if !rest.starts_with('(') {
                continue;
            }
            j += 1 + op.len();
            let mut depth = 0usize;
            let mut close = body.len();
            for (k, &b) in bytes.iter().enumerate().skip(j) {
                match b {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            close = k;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let args = &body[j..close];
            let Some(pos) = args.find("Ordering::") else {
                continue;
            };
            let name: String = args[pos + "Ordering::".len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            let Some(ord) = MemOrd::parse(&name) else {
                return Err(format!(
                    "unrecognized ordering `{name}` on `{atomic}.{op}` in `{func}` ({})",
                    f.rel
                ));
            };
            weakest = Some(match weakest {
                Some(w) if w.strength() <= ord.strength() => w,
                _ => ord,
            });
        }
    }
    weakest.ok_or_else(|| {
        format!(
            "no `{atomic}.{op}(… Ordering::…)` site found in fn `{func}` of {} — the interleaving model no longer matches the code",
            f.rel
        )
    })
}

fn line_of_fn(f: &SourceFile, func: &str) -> usize {
    find_fn_bodies(&f.masked.text, func)
        .first()
        .map(|&(s, _)| f.masked.line_of(s))
        .unwrap_or(1)
}

/// Runs the rule: for each `[[interleave.protocols]]` entry, rebuild the
/// protocol model from the *actual* orderings in the source and explore
/// every interleaving up to the preemption bound.
pub fn check(ws: &Workspace, cfg: &Config, report: &mut Report) {
    for proto in &cfg.interleave {
        let Some(f) = ws.files.iter().find(|f| f.rel == proto.file) else {
            report.violation(
                ID,
                &proto.file,
                1,
                "interleave protocol names a file that does not exist".to_string(),
            );
            continue;
        };
        let outcome = match proto.model.as_str() {
            "spsc-ring" => check_spsc(f, proto),
            "shared-pressure" => check_pressure(f, proto),
            other => Err((
                1,
                format!("unknown interleave model `{other}` (known: spsc-ring, shared-pressure)"),
            )),
        };
        match outcome {
            Ok(stats) => {
                *report.stats.entry("interleavings explored").or_insert(0) += stats.executions;
            }
            Err((line, msg)) => report.violation(ID, &f.rel, line, msg),
        }
    }
}

fn render(ce: &Counterexample) -> String {
    let mut steps: Vec<String> = ce.trace.iter().take(24).cloned().collect();
    if ce.trace.len() > 24 {
        steps.push(format!("… {} more steps", ce.trace.len() - 24));
    }
    format!("{}; interleaving: [{}]", ce.error, steps.join("; "))
}

fn check_spsc(f: &SourceFile, proto: &InterleaveProtocol) -> Result<Stats, (usize, String)> {
    let line = line_of_fn(f, "push");
    let ords = models::SpscOrds {
        push_own_load: extract_ord(f, "push", "write", "load").map_err(|e| (line, e))?,
        push_read_load: extract_ord(f, "push", "read", "load").map_err(|e| (line, e))?,
        push_write_store: extract_ord(f, "push", "write", "store").map_err(|e| (line, e))?,
        pop_own_load: extract_ord(f, "pop", "read", "load").map_err(|e| (line, e))?,
        pop_write_load: extract_ord(f, "pop", "write", "load").map_err(|e| (line, e))?,
        pop_read_store: extract_ord(f, "pop", "read", "store").map_err(|e| (line, e))?,
    };
    let model = models::SpscModel::new(ords);
    explore(&model, proto.preemption_bound).map_err(|ce| (line, render(&ce)))
}

fn check_pressure(f: &SourceFile, proto: &InterleaveProtocol) -> Result<Stats, (usize, String)> {
    let line = line_of_fn(f, "publish");
    let ords = models::PressureOrds {
        store_level: extract_ord(f, "publish", "level", "store").map_err(|e| (line, e))?,
        rmw_publishes: extract_ord(f, "publish", "publishes", "fetch_add")
            .map_err(|e| (line, e))?,
        load_level: extract_ord(f, "level", "level", "load").map_err(|e| (line, e))?,
        load_publishes: extract_ord(f, "publishes", "publishes", "load").map_err(|e| (line, e))?,
    };
    let model = models::SharedPressureModel::new(ords, false);
    explore(&model, proto.preemption_bound).map_err(|ce| (line, render(&ce)))
}
