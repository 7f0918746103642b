//! Golden winner traces of the software disciplines: one seeded
//! interleaving of enqueues and selections per discipline, hashed.
//!
//! The hashes were captured against the disciplines as they stood at commit
//! 87d7259, before the tag-based schedulers were rewritten as rank
//! functions over one PIFO, and pin that every such rewrite keeps each
//! discipline's selections bit for bit.

use sharestreams::disciplines::{
    Discipline, Edf, EdfStreamConfig, Fcfs, HfqSpec, HierarchicalFq, StartTimeFq, StaticPriority,
    SwPacket, VirtualClock, Wfq,
};

/// Streams in every trace.
const STREAMS: usize = 10;
/// Steps of the interleaving.
const STEPS: usize = 6_000;

const EDF: u64 = 0xb030_3839_2a73_d45d;
const STATIC_PRIORITY: u64 = 0x2274_094f_572c_b484;
const WFQ: u64 = 0x2b3a_8ef7_ed48_e7dc;
const START_TIME_FQ: u64 = 0x7b0b_f135_4c8a_6009;
const VIRTUAL_CLOCK: u64 = 0x664c_1d8b_7685_3a9f;
const HIERARCHICAL_FQ: u64 = 0x84c3_6d63_c801_725c;
const FCFS: u64 = 0x3efc_39bd_7213_0450;

/// FNV-1a over little-endian `u64`s.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// SplitMix64: the trace's only source of randomness.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn select(d: &mut impl Discipline, now: u64, h: &mut Fnv) {
    match d.select(now) {
        Some(p) => {
            h.eat(p.stream as u64);
            h.eat(p.seq);
        }
        None => h.eat(u64::MAX),
    }
}

/// Runs the seeded trace through `d` and returns the hash of its
/// selections. Streams 7–9 are sparse, so they go idle while the others
/// advance virtual time; every so often the whole scheduler drains and the
/// clock jumps, so every stream re-enters after an idle gap. Sizes are
/// multiples of 64 B, so fair-queuing tags tie and the stream-index tie
/// break decides.
fn trace(d: &mut impl Discipline) -> Fnv {
    let mut rng = SplitMix(0x5eed_0087_d725_9eca);
    let mut seq = [0u64; STREAMS];
    let mut now = 0u64;
    let mut h = Fnv::new();
    for _ in 0..STEPS {
        match rng.below(100) {
            0..=29 => {
                let stream = rng.below(STREAMS as u64) as usize;
                if stream >= 7 && rng.below(4) != 0 {
                    continue;
                }
                for _ in 0..1 + rng.below(3) {
                    let size = 64 * (1 + rng.below(23)) as u32;
                    d.enqueue(SwPacket::new(stream, seq[stream], now, size));
                    seq[stream] += 1;
                }
            }
            30..=96 => {
                select(d, now, &mut h);
                now += 1;
            }
            _ => {
                while d.backlog() > 0 {
                    select(d, now, &mut h);
                    now += 1;
                }
                now += 20 + rng.below(200);
            }
        }
    }
    while d.backlog() > 0 {
        select(d, now, &mut h);
        now += 1;
    }
    select(d, now, &mut h);
    h
}

fn check(name: &str, h: Fnv, pinned: u64) {
    assert_eq!(
        h.0, pinned,
        "{name}: golden trace hash {:#018x} != pinned {pinned:#018x}",
        h.0
    );
}

const WEIGHTS: [u32; STREAMS] = [1, 2, 3, 5, 8, 1, 4, 2, 7, 3];

#[test]
fn edf_trace_is_pinned() {
    // Streams 1–2, 3–4 and 7–8 share a period and a first deadline, so
    // their deadlines tie.
    let periods = [29u64, 41, 41, 67, 67, 83, 97, 211, 211, 401];
    let first = [1u64, 5, 5, 9, 9, 3, 7, 11, 11, 13];
    let configs = periods
        .iter()
        .zip(first)
        .map(|(&period, first_deadline)| EdfStreamConfig {
            period,
            first_deadline,
        })
        .collect();
    let mut edf = Edf::new(configs);
    let mut h = trace(&mut edf);
    let mut met_missed = [0u64; 2];
    for s in 0..STREAMS {
        let (met, missed) = edf.rank().deadline_counters(s);
        h.eat(met);
        h.eat(missed);
        met_missed[0] += met;
        met_missed[1] += missed;
    }
    assert!(met_missed.iter().all(|&n| n > 0), "{met_missed:?}");
    check("EDF", h, EDF);
}

#[test]
fn static_priority_trace_is_pinned() {
    let mut sp = StaticPriority::new(vec![0, 1, 1, 2, 2, 2, 3, 0, 3, 1]);
    check("StaticPriority", trace(&mut sp), STATIC_PRIORITY);
}

#[test]
fn wfq_trace_is_pinned() {
    let mut wfq = Wfq::new(WEIGHTS.to_vec());
    let mut h = trace(&mut wfq);
    h.eat(wfq.rank().virtual_time());
    check("WFQ", h, WFQ);
}

#[test]
fn start_time_fq_trace_is_pinned() {
    let mut stfq = StartTimeFq::new(WEIGHTS.to_vec());
    let mut h = trace(&mut stfq);
    h.eat(stfq.rank().virtual_time());
    check("StartTimeFQ", h, START_TIME_FQ);
}

#[test]
fn virtual_clock_trace_is_pinned() {
    let rates = WEIGHTS.iter().map(|&w| 40 * u64::from(w)).collect();
    let mut vc = VirtualClock::new(rates);
    let mut h = trace(&mut vc);
    for s in 0..STREAMS {
        h.eat(vc.rank().aux_vc(s));
    }
    check("VirtualClock", h, VIRTUAL_CLOCK);
}

#[test]
fn hierarchical_fq_trace_is_pinned() {
    let leaf = |s: usize| HfqSpec::stream(WEIGHTS[s], s);
    let mut hfq = HierarchicalFq::new(HfqSpec::class(
        1,
        vec![
            HfqSpec::class(3, (0..3).map(leaf).collect()),
            HfqSpec::class(
                2,
                vec![HfqSpec::class(1, (3..6).map(leaf).collect()), leaf(6)],
            ),
            HfqSpec::class(1, (7..STREAMS).map(leaf).collect()),
        ],
    ));
    check("HierarchicalFQ", trace(&mut hfq), HIERARCHICAL_FQ);
}

#[test]
fn fcfs_trace_is_pinned() {
    check("FCFS", trace(&mut Fcfs::new()), FCFS);
}
