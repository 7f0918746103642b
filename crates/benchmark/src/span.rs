//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the product crates, around the calls
//! into each layer. Every span is counted — calls, items covered, total
//! time and self time per span name — and one op in [`SAMPLE_EVERY`]
//! (chosen by op index, so the choice repeats) also keeps its full spans
//! (name, start, end, parent, op id) in a preallocated buffer that is
//! written out as Chrome-trace JSON when the run ends.
//!
//! A span's self time is its duration minus the part of that interval
//! its child spans cover. One recorder belongs to one thread; recorders
//! of one run share an epoch so their spans line up in the trace.
//!
//! A span costs two clock reads (≈ 50 ns). The callers therefore wrap a
//! layer's whole loop over a batch, not each call in it, and pass the
//! number of items the loop covered to [`Recorder::exit`].

use serde_json::{json, Value};
use std::time::Instant;

/// One op in this many keeps its full spans.
pub const SAMPLE_EVERY: u64 = 64;
/// Full spans kept per recorder; later ones are still counted.
const SPAN_CAP: usize = 1 << 16;
const NO_PARENT: u32 = u32::MAX;

/// Index of a registered span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kind(u16);

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    kind: u16,
    /// Index of the enclosing span in the same recorder, if any.
    parent: u32,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Counters for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans closed.
    pub calls: u64,
    /// Items (packets, ticks) the spans covered.
    pub items: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of span self times, ns.
    pub self_ns: u64,
}

impl Total {
    /// Self time per covered item, ns (0 when nothing was covered).
    pub fn self_ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.items as f64
        }
    }
}

struct Open {
    kind: u16,
    start_ns: u64,
    child_ns: u64,
    /// Slot reserved in `spans` when the op is sampled.
    index: u32,
}

/// A per-thread span recorder. A disabled recorder reads no clock.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    names: Vec<&'static str>,
    totals: Vec<Total>,
    open: Vec<Open>,
    spans: Vec<Span>,
    op: u64,
    sampled: bool,
}

impl Recorder {
    /// A recorder for thread `tid`, measuring from `epoch`.
    pub fn new(epoch: Instant, tid: u32, enabled: bool) -> Self {
        Self {
            enabled,
            epoch,
            tid,
            names: Vec::new(),
            totals: Vec::new(),
            open: Vec::with_capacity(8),
            spans: Vec::with_capacity(if enabled { SPAN_CAP } else { 0 }),
            op: 0,
            sampled: false,
        }
    }

    /// A recorder that records nothing (the untraced run).
    pub fn disabled() -> Self {
        Self::new(Instant::now(), 0, false)
    }

    /// Registers `name` (once) and returns its index.
    pub fn kind(&mut self, name: &'static str) -> Kind {
        let i = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| {
                self.names.push(name);
                self.totals.push(Total::default());
                self.names.len() - 1
            });
        Kind(i as u16)
    }

    /// Starts op `op`: later spans carry its id, and are kept in full if
    /// the op index selects it.
    #[inline]
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.sampled = self.enabled && op.is_multiple_of(SAMPLE_EVERY);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `kind` inside the innermost open span.
    #[inline]
    pub fn enter(&mut self, kind: Kind) {
        if !self.enabled {
            return;
        }
        let mut index = NO_PARENT;
        if self.sampled && self.spans.len() < SPAN_CAP {
            index = self.spans.len() as u32;
            self.spans.push(Span {
                kind: kind.0,
                parent: self.open.last().map_or(NO_PARENT, |o| o.index),
                op: self.op,
                start_ns: 0,
                end_ns: 0,
            });
        }
        let start_ns = self.now_ns();
        self.open.push(Open {
            kind: kind.0,
            start_ns,
            child_ns: 0,
            index,
        });
    }

    /// Closes the innermost open span, which covered `items` items.
    #[inline]
    pub fn exit(&mut self, items: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let Some(o) = self.open.pop() else {
            return;
        };
        let dur = end_ns - o.start_ns;
        let t = &mut self.totals[o.kind as usize];
        t.calls += 1;
        t.items += items;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(o.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(s) = self.spans.get_mut(o.index as usize) {
            s.start_ns = o.start_ns;
            s.end_ns = end_ns;
        }
    }

    /// Counters for `name` (zero if never recorded).
    pub fn total(&self, name: &str) -> Total {
        self.names
            .iter()
            .position(|n| *n == name)
            .map_or_else(Total::default, |i| self.totals[i])
    }

    fn events(&self, out: &mut Vec<Value>) {
        for s in &self.spans {
            let parent = self
                .spans
                .get(s.parent as usize)
                .map_or("", |p| self.names[p.kind as usize]);
            out.push(json!({
                "name": (self.names[s.kind as usize]),
                "ph": "X",
                "pid": 1,
                "tid": (self.tid),
                "ts": (s.start_ns as f64 / 1e3),
                "dur": ((s.end_ns - s.start_ns) as f64 / 1e3),
                "args": {"op": (s.op), "parent": parent}
            }));
        }
    }
}

/// Renders the full spans of `recorders` as one Chrome-trace document
/// (`chrome://tracing`, Perfetto).
pub fn chrome_trace(recorders: &[&Recorder]) -> String {
    let mut events = Vec::new();
    for r in recorders {
        r.events(&mut events);
    }
    let doc = json!({"displayTimeUnit": "ns", "traceEvents": events});
    serde_json::to_string(&doc).expect("a Value tree always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(Instant::now(), 1, true);
        let (outer, a, b) = (r.kind("outer"), r.kind("a"), r.kind("b"));
        r.begin_op(0);
        r.enter(outer);
        busy(Duration::from_micros(300));
        r.enter(a);
        busy(Duration::from_micros(200));
        r.exit(4);
        r.enter(b);
        busy(Duration::from_micros(100));
        r.exit(4);
        r.exit(1);

        let (to, ta, tb) = (r.total("outer"), r.total("a"), r.total("b"));
        assert_eq!((to.calls, ta.calls, tb.calls), (1, 1, 1));
        assert_eq!(ta.items, 4);
        // Leaves: self == total. Parent: self == total − children, exactly.
        assert_eq!(ta.self_ns, ta.total_ns);
        assert_eq!(to.self_ns, to.total_ns - ta.total_ns - tb.total_ns);
        assert!(ta.total_ns >= 200_000 && tb.total_ns >= 100_000);
        assert!(to.self_ns >= 300_000 && to.self_ns < to.total_ns);
        assert!((ta.self_ns_per_item() - ta.self_ns as f64 / 4.0).abs() < 1e-9);
        assert_eq!(r.total("never"), Total::default());
    }

    #[test]
    fn grandchildren_count_once_in_the_root() {
        let mut r = Recorder::new(Instant::now(), 1, true);
        let (root, mid, leaf) = (r.kind("root"), r.kind("mid"), r.kind("leaf"));
        r.begin_op(0);
        r.enter(root);
        r.enter(mid);
        r.enter(leaf);
        busy(Duration::from_micros(50));
        r.exit(1);
        r.exit(1);
        r.exit(1);
        // The root's children cover `mid` only; `leaf` is inside `mid`.
        assert_eq!(
            r.total("root").self_ns,
            r.total("root").total_ns - r.total("mid").total_ns
        );
        assert_eq!(
            r.total("mid").self_ns,
            r.total("mid").total_ns - r.total("leaf").total_ns
        );
    }

    #[test]
    fn full_spans_are_kept_for_sampled_ops_only() {
        let mut r = Recorder::new(Instant::now(), 7, true);
        let (outer, inner) = (r.kind("outer"), r.kind("inner"));
        assert_eq!(r.kind("outer"), outer, "registration is idempotent");
        for op in 0..2 * SAMPLE_EVERY {
            r.begin_op(op);
            r.enter(outer);
            r.enter(inner);
            r.exit(1);
            r.exit(1);
        }
        assert_eq!(r.total("outer").calls, 2 * SAMPLE_EVERY);
        let spans = &r.spans;
        assert_eq!(spans.len(), 4, "ops 0 and 64, two spans each");
        assert_eq!((spans[0].op, spans[0].parent), (0, NO_PARENT));
        assert_eq!((spans[3].op, spans[3].parent), (SAMPLE_EVERY, 2));
        assert!(spans[3].start_ns >= spans[2].start_ns && spans[3].end_ns <= spans[2].end_ns);

        let doc: Value = serde_json::from_str(&chrome_trace(&[&r])).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("event list");
        assert_eq!(events.len(), 4);
        assert_eq!(events[3].get("name").and_then(Value::as_str), Some("inner"));
        let args = events[3].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Value::as_str), Some("outer"));
        assert_eq!(args.get("op").and_then(Value::as_u64), Some(SAMPLE_EVERY));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        let k = r.kind("x");
        r.begin_op(0);
        r.enter(k);
        r.exit(32);
        assert_eq!(r.total("x"), Total::default());
        assert!(r.spans.is_empty());
    }
}
