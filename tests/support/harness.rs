//! One trace, every path: the conformance harness.
//!
//! The paper's Decision block is one datapath; this repository implements
//! it several ways. Each seeded [`Trace`] replays in lock-step on every
//! [`Path`] the [`RESTRICTIONS`] table holds to its class, against the
//! anchor, the scalar reference arm: per tick the transmitted packets, at
//! the end the clock, every slot's `SlotCounters`, and `RuleCounters` and
//! `hw_cycles` where both sides keep them. A path leaves a class only for a
//! reason in the table, every exclusion is printed (`-- --nocapture`), and
//! the properties a class declares are checked on the anchor. The threaded
//! paths order packets by thread timing, so they are held to per-slot
//! totals and the loss ledger instead.
//!
//! Tier-1 runs every class short. The `#[ignore]`d full gear runs the wrap
//! classes past 3·2¹⁶ ticks and every cluster generator at both seeds:
//! `cargo test --release --test conformance -- --ignored`.
//!
//! Four test targets include this module with `#[path]`: `conformance.rs`
//! and, one test per class they used to cover pairwise,
//! `fabric_vs_reference.rs`, `rtl_differential.rs` and
//! `sharded_equivalence.rs`. Each uses part of it.

#![allow(dead_code)]
#![allow(clippy::unwrap_used)]

use sharestreams::cluster::{Scenario, ScenarioKind, ScenarioSpec};
use sharestreams::core::{DecisionWatchdog, Fabric, FabricConfig, FabricConfigKind, LatePolicy};
use sharestreams::core::{RtlFabric, RuleCounters, ScheduledPacket, SlotCounters, StreamState};
use sharestreams::core::{Telemetry, Traced};
use sharestreams::disciplines::LatePolicy as SwLate;
use sharestreams::disciplines::{Discipline, DwcsRef, DwcsStreamConfig, SwPacket};
use sharestreams::endsystem::Consumer;
use sharestreams::ingress::{ClientConfig, EdgeMode, FaultConfig, FaultInjector, IngressArrival};
use sharestreams::ingress::{IngressClient, IngressConfig, IngressServer};
use sharestreams::sharded::ShardedScheduler;
use sharestreams::telemetry::{MetricValue, Registry, SpanRecorder};
use sharestreams::types::{ComparisonMode as Mode, SlotId, WindowConstraint, Wrap16};
use std::sync::Arc;
use FabricConfigKind::{Base, WinnerOnly};

/// One step of a trace; a tick is the ops up to and including its `Decide`.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// An arrival tag for a slot.
    Arrive(usize, u16),
    /// Unload the slot and load it again, first deadline `now + offset`.
    Reload(usize, StreamState, u64),
    Decide,
}

// Class properties. The first five are declared by a class and checked on
// the anchor; the rest follow from its configuration.
/// An arrival lands on an empty queue after the first decision.
pub(crate) const REFILLS: u16 = 1;
/// Live heads tie on deadline, so a later rule decides.
pub(crate) const TIES: u16 = 1 << 1;
/// Slots are unloaded and reloaded mid-run.
pub(crate) const CHURN: u16 = 1 << 2;
/// A deadline 2¹⁵ from the clock: the comparator stops being an order.
pub(crate) const ANTIPODE: u16 = 1 << 3;
/// A packet goes out with no slack, at or past its deadline.
pub(crate) const DUE: u16 = 1 << 4;
/// Block (BA) routing.
pub(crate) const BLOCK: u16 = 1 << 5;
/// A comparison mode other than DWCS or EDF.
pub(crate) const FAIR: u16 = 1 << 6;
/// Fewer than 4, 8 or 16 slots.
pub(crate) const UNDER_4: u16 = 1 << 7;
pub(crate) const UNDER_8: u16 = 1 << 8;
pub(crate) const UNDER_16: u16 = 1 << 9;

/// A seeded arrival trace and the fabric shape it runs on.
pub(crate) struct Trace {
    pub(crate) class: String,
    pub(crate) seed: u64,
    pub(crate) config: FabricConfig,
    /// Slot `s` loads `streams[s]` before the first op; `None` stays empty.
    streams: Vec<Option<(StreamState, u64)>>,
    pub(crate) ops: Vec<Op>,
    props: u16,
    /// `Some(true)`: every anchor verdict is rule 1 (BA's key network);
    /// `Some(false)`: none is (the word network).
    rule1: Option<bool>,
}

impl Trace {
    /// Slot `s` loads `stream(s)`: its state and first deadline.
    fn new(class: &str, config: FabricConfig, stream: impl Fn(usize) -> Stream) -> Self {
        let streams = (0..config.slots).map(|s| Some(stream(s))).collect();
        let (class, ops, rule1) = (class.to_string(), Vec::new(), None);
        Self {
            class,
            seed: 0,
            config,
            streams,
            ops,
            props: 0,
            rule1,
        }
    }

    fn props(&self) -> u16 {
        let (c, mut p) = (self.config, self.props);
        p |= when(c.kind == Base, BLOCK);
        p |= when(!matches!(c.mode, Mode::Dwcs | Mode::Edf), FAIR);
        p |= when(c.slots < 4, UNDER_4) | when(c.slots < 8, UNDER_8);
        p | when(c.slots < 16, UNDER_16)
    }

    /// An arrival whose 16-bit tag is `tag`'s low half.
    fn arrive(&mut self, slot: usize, tag: u64) {
        self.ops.push(Op::Arrive(slot, tag as u16));
    }

    /// `frames` arrivals per loaded slot, tagged `q × slots + s`.
    fn preload(&mut self, frames: usize) {
        let n = self.config.slots;
        for q in 0..frames {
            for s in (0..n).filter(|&s| self.streams[s].is_some()) {
                self.ops.push(Op::Arrive(s, (q * n + s) as u16));
            }
        }
    }

    fn decide(&mut self, n: u64) {
        self.ops.extend((0..n).map(|_| Op::Decide));
    }

    /// `ticks` ticks of Bernoulli arrivals, one in `one_in` per loaded slot
    /// per tick, tagged with the tick; with `churn`, a slot is also
    /// reloaded once in 97 with a fresh state, first deadline just ahead.
    fn random(mut self, ticks: u64, one_in: u64, churn: bool) -> Self {
        let mut rng = Rng(self.seed);
        let loaded: Vec<_> = (0..self.config.slots)
            .filter(|&s| self.streams[s].is_some())
            .collect();
        for tick in 0..ticks {
            for &s in &loaded {
                let r = rng.below(u64::MAX);
                if r.is_multiple_of(one_in) {
                    self.arrive(s, tick);
                }
                if churn && r % 97 == 1 {
                    let fresh = StreamState {
                        static_prio: (r % 13) as u8,
                        ..st(1 + r % 2, r as usize % 3, 2, 0)
                    };
                    self.ops.push(Op::Reload(s, fresh, 1 + r % 5));
                }
            }
            self.decide(1);
        }
        self
    }
}

pub(crate) type Stream = (StreamState, u64);

/// `flag` where `on` holds.
pub(crate) fn when(on: bool, flag: u16) -> u16 {
    if on {
        flag
    } else {
        0
    }
}

/// Every scheduling path the harness drives in lock-step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Path {
    /// `Fabric` on the scalar reference arm: the anchor.
    Scalar,
    /// `Fabric` on the packed arm (on BA, the key and word networks).
    Packed,
    /// `Fabric<Traced>` on the packed arm with a registry and a span track
    /// attached: instrumentation must not change a winner.
    Traced,
    /// `DwcsRef`, the wide-integer software oracle.
    Reference,
    /// `ShardedScheduler` inline at K = 1, 2, 4, 8 shards.
    Sharded1,
    Sharded2,
    Sharded4,
    Sharded8,
    /// `RtlFabric`, plain and compute-ahead.
    Rtl,
    RtlAhead,
    /// `ShardedScheduler` at K = 1 with recovery armed; its card crashes a
    /// third of the way in, the host takes over on the shard's own
    /// register image and the card re-attaches.
    Failover,
    /// Through `IngressServer` over loopback TCP into a consumer `Fabric`.
    Loopback,
    /// Test-only: the packed arm with two winners swapped (see `Mutant`).
    Mutant,
}

#[rustfmt::skip]
pub(crate) const PATHS: [Path; 12] = [
    Path::Scalar, Path::Packed, Path::Traced, Path::Reference, Path::Sharded1, Path::Sharded2, Path::Sharded4,
    Path::Sharded8, Path::Rtl, Path::RtlAhead, Path::Failover, Path::Loopback,
];

/// Why a path leaves a class: a path is held to every class that has none
/// of the properties listed against it. Every reason cites a paper section
/// (`§…`) or the open ROADMAP item (`item N`) that would lift it
/// (`conformance::every_restriction_cites_its_reason`).
#[rustfmt::skip]
pub(crate) const RESTRICTIONS: &[(Path, u16, &str)] = &[
    (Path::Reference, REFILLS, "no idle re-anchor: a refilled queue keeps its stale deadline (item 22(a))"),
    (Path::Reference, ANTIPODE, "wide deadlines: its order is not the fabric's there (item 19)"),
    (Path::Reference, CHURN, "no unload (item 22(a))"),
    (Path::Reference, BLOCK, "one winner per decision: §3's WR max-finding, not a BA block"),
    (Path::Reference, FAIR, "models the DWCS and EDF comparison modes of §2 only"),
    (Path::Failover, BLOCK, "a recovering K = 1 merge: winners, not blocks (see Sharded1; item 9)"),
    (Path::Failover, ANTIPODE, "a recovering K = 1 merge: the grant's linear-min check (see Sharded1; item 19)"),
    (Path::Sharded1, BLOCK, "the frontend merges winners, not blocks (item 9)"),
    (Path::Sharded2, BLOCK | UNDER_4, "a winner merge over shards of at least 2 slots (item 9)"),
    (Path::Sharded4, BLOCK | UNDER_8, "a winner merge over shards of at least 2 slots (item 9)"),
    (Path::Sharded8, BLOCK | UNDER_16, "a winner merge over shards of at least 2 slots (item 9)"),
    (Path::Sharded1, ANTIPODE, "the grant checks the tournament against a linear min: another order (item 19)"),
    (Path::Sharded2, ANTIPODE, "the merge re-compares shard winners: another comparison tree (item 19)"),
    (Path::Sharded4, ANTIPODE, "the merge re-compares shard winners: another comparison tree (item 19)"),
    (Path::Sharded8, ANTIPODE, "the merge re-compares shard winners: another comparison tree (item 19)"),
    (Path::Rtl, CHURN, "RtlFabric has no unload_stream (item 22(a))"),
    (Path::RtlAhead, CHURN, "RtlFabric has no unload_stream (item 22(a))"),
    (Path::Loopback, BLOCK, "the socket carries arrivals; the consumer's BA routing is the packed row (item 9)"),
];

/// The paths held to `trace`, printing every exclusion with its reason.
pub(crate) fn held(trace: &Trace) -> Vec<Path> {
    let props = trace.props();
    let why = |p: Path| RESTRICTIONS.iter().find(|r| r.0 == p && r.1 & props != 0);
    let (held, out): (Vec<_>, Vec<_>) = PATHS.into_iter().partition(|&p| why(p).is_none());
    for (p, r) in out.into_iter().filter_map(|p| Some((p, why(p)?))) {
        println!("{}: {p:?} excluded: {}", trace.class, r.2);
    }
    held
}

/// What a path keeps at the end of a run. `partial` counters keep only
/// met / missed / dropped / violations.
#[derive(Debug, Default)]
pub(crate) struct End {
    pub(crate) now: u64,
    pub(crate) counters: Option<Vec<SlotCounters>>,
    partial: bool,
    rules: Option<RuleCounters>,
    hw_cycles: Option<u64>,
}

pub(crate) fn end(now: u64, counters: impl Iterator<Item = SlotCounters>) -> End {
    let counters = Some(counters.collect());
    End {
        now,
        counters,
        ..End::default()
    }
}

pub(crate) fn fabric_end<T: Telemetry>(f: &Fabric<T>) -> End {
    let counters = (0..f.config().slots).map(|s| *f.slot_counters(s).unwrap());
    let mut end = end(f.now(), counters);
    (end.rules, end.hw_cycles) = (Some(f.rule_counters()), Some(f.hw_cycles()));
    end
}

/// The tick at which the mutant swaps two winners.
pub(crate) const MUTANT_AT: u64 = 100;

/// One scheduling path, driven through the harness's verbs.
#[allow(clippy::large_enum_variant)] // at most a dozen per trace
pub(crate) enum Run {
    /// The scalar or the packed arm.
    Fabric(Fabric),
    /// The packed arm, instrumented and attached, and its registry.
    Traced(Fabric<Traced>, Registry),
    /// The packed arm with the first two packets of tick `MUTANT_AT`'s
    /// block swapped, and its tick.
    Mutant(Fabric, u64),
    /// `RtlFabric` and the LOAD cycles it does not clock: the fabric
    /// charges one per stream load (its register-file write port).
    Rtl(RtlFabric, u64),
    Sharded(ShardedScheduler),
    Reference(Reference),
    /// The recovering K = 1 merge, its tick, and the tick at which its card
    /// crashes. The sweep hands the shard to the host before it proposes
    /// and the watchdog re-attaches it after 16 healthy cycles; neither
    /// switch costs a packet-time, so everything must be the fabric's.
    Failover(ShardedScheduler, u64, u64),
    Loopback(Box<Loopback>),
}

impl Run {
    fn load(&mut self, slot: usize, state: &StreamState, first: u64) {
        let state = state.clone();
        match self {
            Run::Fabric(f) | Run::Mutant(f, _) => f.load_stream(slot, state, first).unwrap(),
            Run::Traced(f, _) => f.load_stream(slot, state, first).unwrap(),
            Run::Rtl(rtl, loads) => {
                *loads += 1;
                rtl.load_stream(slot, state, first).unwrap()
            }
            Run::Sharded(s) | Run::Failover(s, ..) => s.load_stream(slot, state, first).unwrap(),
            Run::Reference(r) => r.load(slot, state, first),
            Run::Loopback(l) => l.fabric.load_stream(slot, state, first).unwrap(),
        }
    }

    pub(crate) fn arrive(&mut self, slot: usize, tag: u16) {
        match self {
            Run::Fabric(f) | Run::Mutant(f, _) => f.push_arrival(slot, Wrap16(tag)).unwrap(),
            Run::Traced(f, _) => f.push_arrival(slot, Wrap16(tag)).unwrap(),
            Run::Rtl(rtl, _) => rtl.push_arrival(slot, Wrap16(tag)).unwrap(),
            Run::Sharded(s) | Run::Failover(s, ..) => s.push_arrival(slot, Wrap16(tag)).unwrap(),
            Run::Reference(r) => r.arrive(slot, tag),
            Run::Loopback(l) => l.batch.push((slot as u32, tag)),
        }
    }

    /// Unloads `slot` and loads `state`, first deadline `offset` ahead.
    fn reload(&mut self, slot: usize, state: &StreamState, offset: u64) {
        let (state, now) = (state.clone(), self.now());
        let reloaded = match self {
            Run::Fabric(f) | Run::Mutant(f, _) => f.unload_stream(slot),
            Run::Traced(f, _) => f.unload_stream(slot),
            Run::Sharded(s) | Run::Failover(s, ..) => s.unload_stream(slot),
            Run::Loopback(l) => l.flush().fabric.unload_stream(slot),
            _ => unreachable!("the restriction table keeps this path off churn classes"),
        };
        reloaded.unwrap();
        self.load(slot, &state, now + offset);
    }

    fn now(&self) -> u64 {
        match self {
            Run::Fabric(f) | Run::Mutant(f, _) => f.now(),
            Run::Traced(f, _) => f.now(),
            Run::Rtl(rtl, _) => rtl.now(),
            Run::Sharded(s) | Run::Failover(s, ..) => s.now(),
            Run::Reference(r) => r.now,
            Run::Loopback(l) => l.fabric.now(),
        }
    }

    fn decide(&mut self, out: &mut Vec<ScheduledPacket>) {
        match self {
            Run::Fabric(f) => out.extend_from_slice(f.decision_cycle_into()),
            Run::Traced(f, _) => out.extend_from_slice(f.decision_cycle_into()),
            Run::Mutant(f, tick) => {
                let at = out.len();
                out.extend_from_slice(f.decision_cycle_into());
                if *tick == MUTANT_AT {
                    out.swap(at, at + 1);
                }
                *tick += 1;
            }
            Run::Rtl(rtl, _) => out.extend_from_slice(rtl.run_decision()),
            Run::Sharded(s) => out.extend(s.decision_cycle()),
            Run::Reference(r) => out.extend(r.decide()),
            Run::Failover(s, tick, crash_at) => {
                if *tick == *crash_at {
                    s.inject_shard_crash(0);
                }
                *tick += 1;
                out.extend(s.decision_cycle());
            }
            Run::Loopback(l) => out.extend_from_slice(l.flush().fabric.decision_cycle_into()),
        }
    }

    fn end(self) -> End {
        let now = self.now();
        match self {
            Run::Fabric(f) | Run::Mutant(f, _) => fabric_end(&f),
            Run::Traced(mut f, registry) => {
                f.flush_telemetry();
                let (snap, name) = (registry.snapshot(), "ss_fabric_decision_cycles_total");
                let counted = snap.metrics.iter().find(|m| m.name == name);
                let want = MetricValue::Counter(f.decision_count());
                assert_eq!(
                    counted.map(|m| &m.value),
                    Some(&want),
                    "a cycle went unseen"
                );
                fabric_end(&f)
            }
            Run::Rtl(rtl, loads) => {
                let c = rtl.config();
                let mut end = end(now, (0..c.slots).map(|s| rtl.slot_counters(s).unwrap()));
                // Compute-ahead folds the priority-update cycle into the next
                // decision's network passes: one cycle saved per decision.
                let folded = u64::from(c.compute_ahead && c.priority_update) * rtl.decision_count();
                end.hw_cycles = Some(rtl.hw_cycles() + loads + folded);
                end
            }
            Run::Sharded(s) => {
                let counters = (0..s.total_slots()).map(|k| *s.slot_counters(k).unwrap());
                end(now, counters)
            }
            Run::Failover(s, tick, crash_at) => {
                // Crashed if a decision ran at `crash_at`; back on the card
                // once 16 decisions ran from the crash on.
                let switches = (tick > crash_at, tick >= crash_at + 16);
                let switches = (u64::from(switches.0), u64::from(switches.1));
                assert_eq!((s.failovers(), s.reattaches()), switches);
                assert_eq!(s.lost_packets(), 0, "the host path loses nothing");
                let counters = (0..s.total_slots()).map(|k| *s.slot_counters(k).unwrap());
                end(now, counters)
            }
            Run::Reference(mut r) => {
                let counters: Vec<_> = (0..r.configs.len()).map(|s| r.counters(s)).collect();
                End {
                    partial: true,
                    ..end(now, counters.into_iter())
                }
            }
            Run::Loopback(mut l) => {
                l.client.goodbye();
                let loss = l.server.shutdown().totals.loss;
                assert_eq!(loss.total(), 0, "the socket gate's ledger: {loss:?}");
                assert!(l.ring.pop().is_none(), "nothing served beyond the trace");
                fabric_end(&l.fabric)
            }
        }
    }
}

/// `DwcsRef` on the harness's clock, one packet-time per decision, built
/// from the loaded configurations at the first arrival. Tags widen as they
/// are: FCFS decides only between tied heads, and no class the reference
/// joins ties past the 16-bit wrap.
#[derive(Default)]
pub(crate) struct Reference {
    edf: bool,
    configs: Vec<DwcsStreamConfig>,
    dwcs: Option<DwcsRef>,
    now: u64,
}

impl Reference {
    fn dwcs(&mut self) -> &mut DwcsRef {
        let new = [DwcsRef::new, DwcsRef::new_edf][usize::from(self.edf)];
        let configs = &self.configs;
        self.dwcs.get_or_insert_with(|| new(configs.clone()))
    }

    fn load(&mut self, slot: usize, state: StreamState, first_deadline: u64) {
        assert_eq!(slot, self.configs.len(), "every slot loaded, in order");
        let late = LATE.iter().position(|&p| p == state.late_policy).unwrap();
        let late_policy = [SwLate::ServeLate, SwLate::Drop, SwLate::Renew][late];
        let (period, window) = (state.request_period, state.original_window);
        let config = DwcsStreamConfig {
            period,
            window,
            first_deadline,
            late_policy,
        };
        self.configs.push(config);
    }

    fn arrive(&mut self, slot: usize, tag: u16) {
        let tag = u64::from(tag);
        self.dwcs().enqueue(SwPacket::new(slot, tag, tag, 64));
    }

    fn decide(&mut self) -> Option<ScheduledPacket> {
        let now = self.now;
        self.now += 1;
        let p = self.dwcs().select(now)?;
        // `select` advanced the winner's deadline by one period.
        let deadline = self.dwcs().head_deadline(p.stream) - self.configs[p.stream].period;
        Some(sent(p.stream, deadline, self.now))
    }

    fn counters(&mut self, slot: usize) -> SlotCounters {
        let mut c = SlotCounters::default();
        (c.met_deadlines, c.missed_deadlines, c.dropped, c.violations) = self.dwcs().counters(slot);
        c
    }
}

/// The socket path: a tick's arrivals go out as one SUBMIT, the consumer
/// pops exactly those from the server's ring into its fabric, then decides
/// once. The gate admits everything, which `end` checks on its ledger, so
/// the socket run sees the same trace.
pub(crate) struct Loopback {
    server: IngressServer,
    client: IngressClient,
    ring: Consumer<IngressArrival>,
    fabric: Fabric,
    batch: Vec<(u32, u16)>,
}

impl Loopback {
    fn new(trace: &Trace) -> Self {
        let mut cfg = IngressConfig::default();
        (cfg.service_per_batch, cfg.edge_capacity) = (4096, 1 << 16);
        (cfg.rate_mtok, cfg.burst_mtok) = (1_000_000, 2_000_000);
        let idle = (st(1, 0, 1, 0), 0);
        let window = |s: &Option<_>| s.as_ref().unwrap_or(&idle).0.original_window;
        let windows: Vec<_> = trace.streams.iter().map(window).collect();
        let quiet = Arc::new(FaultInjector::new(1, FaultConfig::quiet()));
        let edge = EdgeMode::Ring { capacity: 4096 };
        let mut server = IngressServer::start(cfg, &windows, edge, quiet.clone(), None).unwrap();
        let connected = IngressClient::connect(server.addr(), ClientConfig::new(1, 1), quiet);
        let mut client = connected.unwrap();
        for s in (0..windows.len()).filter(|&s| trace.streams[s].is_some()) {
            assert!(client.register(s as u32, 1).unwrap());
        }
        let ring = server.take_consumer().unwrap();
        let (fabric, batch) = (Fabric::new(trace.config).unwrap(), Vec::new());
        Self {
            server,
            client,
            ring,
            fabric,
            batch,
        }
    }

    /// SUBMITs the buffered arrivals and moves exactly those into the fabric.
    fn flush(&mut self) -> &mut Self {
        for chunk in self.batch.chunks(512) {
            let outcome = self.client.submit(chunk).unwrap();
            assert_eq!(outcome.rejected, 0, "the gate admits all");
            for &(slot, tag) in chunk {
                let a = self.ring.pop().expect("served before the ack");
                assert_eq!((a.slot, a.tag), (slot, tag), "the socket reorders nothing");
                let tag = Wrap16(tag);
                self.fabric.push_arrival(slot as usize, tag).unwrap();
            }
        }
        self.batch.clear();
        self
    }
}

/// Builds `path` for `trace` and loads the trace's streams.
pub(crate) fn start(path: Path, trace: &Trace) -> Run {
    let config = trace.config;
    let fabric = |batched| {
        let mut f = Fabric::new(config).unwrap();
        assert_eq!(f.set_batched(batched), batched);
        f
    };
    let shards = |k| Run::Sharded(ShardedScheduler::new(config, k).unwrap());
    let rtl = |compute_ahead| {
        let mut config = config;
        config.compute_ahead = compute_ahead;
        Run::Rtl(RtlFabric::new(config).unwrap(), 0)
    };
    let decisions = trace.ops.iter().filter(|op| matches!(op, Op::Decide));
    let crash_at = decisions.count() as u64 / 3;
    let mut run = match path {
        Path::Scalar => Run::Fabric(fabric(false)),
        Path::Packed => Run::Fabric(fabric(true)),
        Path::Traced => {
            let (mut f, registry) = (Fabric::with_telemetry(config).unwrap(), Registry::new());
            f.attach_telemetry(&registry, 0);
            // The track's ring is `Arc`-backed: the fabric keeps it alive.
            f.attach_spans(&SpanRecorder::new(1024), 0, "traced");
            Run::Traced(f, registry)
        }
        Path::Reference => {
            let edf = config.mode == Mode::Edf;
            Run::Reference(Reference {
                edf,
                ..Default::default()
            })
        }
        Path::Sharded1 => shards(1),
        Path::Sharded2 => shards(2),
        Path::Sharded4 => shards(4),
        Path::Sharded8 => shards(8),
        Path::Rtl => rtl(false),
        Path::RtlAhead => rtl(true),
        Path::Failover => {
            let mut s = ShardedScheduler::new(config, 1).unwrap();
            s.enable_recovery(DecisionWatchdog::new(1, 16));
            Run::Failover(s, 0, crash_at)
        }
        Path::Loopback => Run::Loopback(Box::new(Loopback::new(trace))),
        Path::Mutant => Run::Mutant(fabric(true), 0),
    };
    for (s, load) in trace.streams.iter().enumerate() {
        if let Some((state, first)) = load {
            run.load(s, state, *first);
        }
    }
    run
}

/// Where two paths first disagreed: the pair, the tick of a winner
/// mismatch (`None` for the end-of-run state), and the whole report.
#[derive(Debug)]
pub(crate) struct Mismatch {
    pub(crate) pair: (Path, Path),
    pub(crate) tick: Option<u64>,
    pub(crate) report: String,
}

/// A packet of `slot` transmitted at `completed_at`.
pub(crate) fn sent(slot: usize, deadline: u64, completed_at: u64) -> ScheduledPacket {
    let (slot, met) = (SlotId::new_unchecked(slot as u8), completed_at <= deadline);
    ScheduledPacket {
        slot,
        deadline,
        completed_at,
        met,
    }
}

pub(crate) fn winners(packets: &[ScheduledPacket]) -> String {
    let one = |p: &ScheduledPacket| {
        let (slot, deadline, done) = (p.slot.index(), p.deadline, p.completed_at);
        format!("slot {slot} (deadline {deadline}, done {done})")
    };
    let all: Vec<_> = packets.iter().map(one).collect();
    format!("[{}]", all.join(", "))
}

/// Replays `trace` on `paths` in lock-step; `paths[0]` is the anchor. Then
/// checks the properties the class declares against the anchor, and
/// returns the anchor's end state.
pub(crate) fn replay(trace: &Trace, paths: &[Path]) -> Result<End, Mismatch> {
    let mut runs: Vec<_> = paths.iter().map(|&p| (p, start(p, trace))).collect();
    let mismatch = |path, tick: Option<u64>, what| {
        let (class, seed, (a, b)) = (&trace.class, trace.seed, (paths[0], path));
        let at = tick.map_or("at the end".into(), |t| format!("at tick {t}"));
        let report = format!("class {class} (seed {seed:#x}): {a:?} vs {b:?} {at}: {what}");
        Mismatch {
            pair: (a, b),
            tick,
            report,
        }
    };
    let (mut want, mut got, mut tick, mut seen) = (Vec::new(), Vec::new(), 0, 0);
    for op in &trace.ops {
        match op {
            Op::Arrive(slot, tag) => {
                let empty = matches!(&runs[0].1, Run::Fabric(f) if f.backlog(*slot).unwrap() == 0);
                seen |= when(tick > 0 && empty, REFILLS);
                runs.iter_mut().for_each(|(_, r)| r.arrive(*slot, *tag));
            }
            Op::Reload(s, state, offset) => {
                runs.iter_mut().for_each(|r| r.1.reload(*s, state, *offset))
            }
            Op::Decide => {
                want.clear();
                runs[0].1.decide(&mut want);
                for p in &want {
                    seen |= when(p.completed_at >= p.deadline, DUE);
                    seen |= when(p.deadline.abs_diff(p.completed_at) >= 1 << 15, ANTIPODE);
                }
                for (path, run) in &mut runs[1..] {
                    got.clear();
                    run.decide(&mut got);
                    if got != want {
                        let what = format!("winners {} vs {}", winners(&want), winners(&got));
                        return Err(mismatch(*path, Some(tick), what));
                    }
                }
                tick += 1;
            }
        }
    }
    let mut ends = runs.into_iter().map(|(p, r)| (p, r.end()));
    let anchor = ends.next().unwrap().1;
    // DwcsRef keeps no window state in EDF mode, so no violations.
    let windowed = u64::from(trace.config.mode != Mode::Edf);
    let kept = |c: &SlotCounters| {
        let (met, missed) = (c.met_deadlines, c.missed_deadlines);
        [met, missed, c.dropped, c.violations * windowed]
    };
    for (path, end) in ends {
        let fail = |what| Err(mismatch(path, None, what));
        if anchor.now != end.now {
            return fail(format!("clock {} vs {}", anchor.now, end.now));
        }
        if let Some((a, b)) = anchor.rules.zip(end.rules).filter(|(a, b)| a != b) {
            return fail(format!("rule counters {a:?} vs {b:?}"));
        }
        if let Some((a, b)) = anchor.hw_cycles.zip(end.hw_cycles).filter(|(a, b)| a != b) {
            return fail(format!("hw cycles {a} vs {b}"));
        }
        let partial = anchor.partial || end.partial;
        let differ = |a, b| if partial { kept(a) != kept(b) } else { a != b };
        let both = anchor.counters.iter().zip(&end.counters);
        let mut slots = both.flat_map(|(a, b)| a.iter().zip(b)).enumerate();
        if let Some((s, (a, b))) = slots.find(|(_, (a, b))| differ(a, b)) {
            return fail(format!("slot {s} counters {a:?} vs {b:?}"));
        }
    }
    if let Some(rc) = anchor.rules {
        // Two empty lanes fall through to the slot ID too; tied live heads
        // show as verdicts from the rules in between.
        let (rule1, decided) = (rc.earliest_deadline, rc.validity + rc.slot_id);
        seen |= when(rc.total() > rule1 + decided, TIES);
        let all = |all| rule1 == if all { rc.total() } else { 0 };
        assert!(trace.rule1.is_none_or(all), "{}: {rc:?}", trace.class);
    }
    let undeclared = seen & !trace.props;
    assert_eq!(undeclared, 0, "{}: undeclared properties", trace.class);
    Ok(anchor)
}

/// Replays `trace` on every path the table holds to it; panics with the
/// mismatch, which names the class, seed, path pair, tick and winners.
pub(crate) fn check(trace: Trace) -> End {
    let paths = held(&trace);
    replay(&trace, &paths).unwrap_or_else(|m| panic!("{}", m.report))
}

/// Pinned SplitMix64: deterministic across runs and platforms.
pub(crate) struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

pub(crate) const LATE: [LatePolicy; 3] =
    [LatePolicy::ServeLate, LatePolicy::Drop, LatePolicy::Renew];

/// A stream of `period` with window `x/y` and late policy `LATE[late]`.
pub(crate) fn st(period: u64, x: usize, y: usize, late: usize) -> StreamState {
    let (request_period, late_policy) = (period, LATE[late]);
    let original_window = WindowConstraint::new(x as u8, y as u8);
    StreamState {
        request_period,
        original_window,
        static_prio: 0,
        late_policy,
    }
}

pub(crate) const SEEDS: [u64; 2] = [0xC0FF_EE00, 0xDEC1_5105];
#[rustfmt::skip]
pub(crate) const GENERATORS: [ScenarioKind; 5] = [
    ScenarioKind::Steady, ScenarioKind::FlashCrowd, ScenarioKind::Diurnal,
    ScenarioKind::ElephantMice, ScenarioKind::Wimax,
];

/// A cluster scenario's arrivals (node 0, windows from its class mix) on a
/// 32-slot DWCS fabric with staggered first deadlines. Under load (period
/// 32) queues drain and refill. Over load each slot starts 32 deep and
/// outruns its share, so queues stay live; a packet-time of slack and
/// period 33 keep every head ahead of its deadline and no two tied. The
/// exception is elephant-mice: its mice drain, and its elephants outrun
/// their period at either load, so their deadlines outrun the clock, past
/// the half-space after ≈ 26 k (under) and ≈ 50 k (over) ticks.
pub(crate) fn generated(kind: ScenarioKind, over: bool, seed: u64, ticks: u64) -> Trace {
    let mut spec = ScenarioSpec::steady(if over { 2000 } else { 800 });
    (spec.kind, spec.peak_permille, spec.skew_permille) = (kind, 2 * spec.base_permille, 700);
    (spec.phase_ticks, spec.width_ticks) = (ticks / 4, ticks / 4);
    let (scenario, o) = (Scenario::new(spec, 32), usize::from(over));
    let stream = |s: usize| {
        let mut state = st(32 + o as u64, 0, 1, [s % 3, 0][o]);
        state.original_window = scenario.windows()[s];
        (state, (s + 1 + o) as u64)
    };
    let class = format!("{}/{}", kind.name(), ["under", "over"][o]);
    let mut t = Trace::new(&class, FabricConfig::dwcs(32, WinnerOnly), stream);
    let elephants = kind == ScenarioKind::ElephantMice;
    t.seed = seed;
    t.props = when(!over || elephants, REFILLS | TIES | DUE);
    t.props |= when(elephants, ANTIPODE);
    t.preload(32 * o);
    let mut counts = [0u32; 32];
    for tick in 0..ticks {
        scenario.sample_arrivals(seed, 0, tick, &mut counts);
        for (s, &n) in counts.iter().enumerate() {
            (0..n).for_each(|_| t.arrive(s, tick));
        }
        t.decide(1);
    }
    t
}

/// Randomly interleaved arrivals (any tag in the half-space), decisions and
/// bursts of up to 7 on 4 slots with every late policy: a fabric that
/// empties, slots that drain and refill, partial blocks.
pub(crate) fn interleaved(kind: FabricConfigKind, mode: Mode, seed: u64, len: usize) -> Trace {
    let mut config = FabricConfig::dwcs(4, kind);
    config.mode = mode;
    let stream = |s: usize| (st(s as u64 % 3 + 2, 1, 3, s % 3), s as u64 + 1);
    let mut t = Trace::new(&format!("interleaved/{kind:?}/{mode:?}"), config, stream);
    (t.seed, t.props) = (seed, REFILLS | TIES | DUE);
    let mut rng = Rng(t.seed);
    for _ in 0..len {
        match rng.below(7) {
            0..=2 => {
                let slot = rng.below(4) as usize;
                t.arrive(slot, rng.below(1 << 15));
            }
            3..=5 => t.decide(1),
            _ => t.decide(1 + rng.below(7)),
        }
    }
    t
}

/// `fabric_block`'s op on 32 BA slots: one arrival per slot in a rotated
/// order, then a decision. Staggered first deadlines never tie, so every
/// comparison takes the key network; equal ones, with one tag per op, tie
/// every comparison, so every one takes the word network.
pub(crate) fn refill(staggered: bool, ops: u64) -> Trace {
    let rank = |s: usize| (s * 13 + 5) % 32;
    let first = |s: usize| [1, rank(s) as u64 + 1][usize::from(staggered)];
    let stream = |s: usize| (st(32, rank(s) % 4, 4, 0), first(s));
    let class = ["refill/all-tied", "refill/staggered"][usize::from(staggered)];
    let mut t = Trace::new(class, FabricConfig::dwcs(32, Base), stream);
    (t.seed, t.rule1) = (0xFAB, Some(staggered));
    t.props = REFILLS | DUE | when(!staggered, TIES);
    let (mut rng, mut tag) = (Rng(t.seed), 0);
    for _ in 0..ops {
        let start = rng.below(32) as usize;
        for j in 0..32 {
            tag += u64::from(staggered || j == 0);
            t.arrive((start + j) % 32, tag);
        }
        t.decide(1);
    }
    t
}

/// Past the 16-bit deadline and tag wrap at a load that keeps deadlines
/// tracking the clock: WR is offered about one packet per decision, BA one
/// per slot every four ticks. Queues drain and refill throughout.
pub(crate) fn wrap(kind: FabricConfigKind, ticks: u64) -> Trace {
    let state = |s: usize| st(8 - (s as u64 % 2), s % 3, 2 + s % 3, s % 2);
    let stream = |s: usize| (state(s), s as u64 + 1);
    let mut t = Trace::new(
        &format!("wrap/{kind:?}"),
        FabricConfig::dwcs(8, kind),
        stream,
    );
    (t.seed, t.props) = (0x9E37_79B9, REFILLS | TIES | DUE);
    t.random(ticks, if kind == WinnerOnly { 9 } else { 4 }, false)
}

/// Round-robin arrivals, one per tick, into a preloaded 8-slot fabric whose
/// staggered deadlines (period 9, a packet-time of slack) rotate with them:
/// backlogged, tie-free and never due, drifting ahead of the clock by an
/// eighth of the ticks (inside the half-space at 3·2¹⁶), so the reference
/// and the failover path cross the wrap too.
pub(crate) fn wrap_backlogged(ticks: u64) -> Trace {
    let stream = |s: usize| (st(9, s % 3, 3, 0), s as u64 + 2);
    let mut t = Trace::new("wrap/backlogged", FabricConfig::dwcs(8, WinnerOnly), stream);
    t.preload(2);
    for tick in 0..ticks {
        t.arrive(tick as usize % 8, tick);
        t.decide(1);
    }
    t
}

/// The cases the pairwise suites skipped, as WR or BA classes.
pub(crate) fn edge_cases(kind: FabricConfigKind) -> Vec<Trace> {
    // Live deadlines a quarter-circle apart: 1 and 0x8001 sit at each
    // other's antipode, and the four form a cycle.
    let stream = |s: usize| (st(4, 1, 2, 0), 1 + 0x4000 * s as u64);
    let mut antipode = Trace::new(
        &format!("antipode/{kind:?}"),
        FabricConfig::dwcs(4, kind),
        stream,
    );
    antipode.props = ANTIPODE | TIES | DUE;
    antipode.preload(16);
    antipode.decide(48);
    // All 32 slots identical: every comparison falls through to the slot ID.
    let same = |_| (st(32, 1, 2, 0), 500);
    let mut tied = Trace::new(
        &format!("all-tied/{kind:?}"),
        FabricConfig::dwcs(32, kind),
        same,
    );
    tied.props = TIES;
    (0..64).for_each(|a| tied.arrive(a / 2, 7));
    tied.decide(65);
    // Windows x = y (every packet may be lost) and 0/y (none may), equal
    // deadlines so rules 2-4 order them, kept backlogged round-robin; a BA
    // block drains every slot, so there the queues refill.
    let (x, y) = ([1, 2, 3, 0, 0, 0, 1, 3], [1, 2, 3, 1, 2, 4, 2, 4]);
    let stream = |s: usize| (st(8, x[s], y[s], 0), 1);
    let mut window = Trace::new(
        &format!("windows/{kind:?}"),
        FabricConfig::dwcs(8, kind),
        stream,
    );
    window.props = TIES | DUE | when(kind == Base, REFILLS);
    window.preload(4);
    for tick in 0..1000 {
        window.arrive(tick as usize % 8, tick + 4);
        window.decide(1);
    }
    let mut out = vec![antipode, tied, window];
    // Slot churn in every mode at every width.
    #[rustfmt::skip]
    let shapes = [(4, Mode::Dwcs), (4, Mode::Edf), (8, Mode::Dwcs), (8, Mode::ServiceTag),
        (16, Mode::Dwcs), (16, Mode::StaticPriority), (32, Mode::Dwcs), (32, Mode::Edf)];
    for (slots, mode) in shapes {
        let mut config = FabricConfig::dwcs(slots, kind);
        config.mode = mode;
        config.priority_update = matches!(mode, Mode::Dwcs | Mode::Edf);
        let stream = |s: usize| {
            let mut state = st(1 + s as u64 % 3, s % 5, 1 + s % 4, 0);
            state.static_prio = (s * 7 % 11) as u8;
            (state, s as u64 + 1)
        };
        let mut t = Trace::new(&format!("churn/{kind:?}/{slots}/{mode:?}"), config, stream);
        (t.seed, t.props) = (0x5DEE_CE66D + slots as u64, CHURN | REFILLS | TIES | DUE);
        out.push(t.random(400, 4, true));
    }
    out
}

/// Preloaded backlogs decided half-way, so no queue drains, in EDF and
/// DWCS mode with every late policy: the reference's home ground.
pub(crate) fn backlogs() -> Vec<Trace> {
    let (zero, some) = (&[(0, 1)][..], &[(0, 1), (1, 2), (1, 4), (2, 3)][..]);
    let lossy = &[(1, 2), (1, 2), (2, 4), (1, 3)][..];
    let lossless = &[(1, 2), (0, 2), (2, 4), (1, 3)][..];
    #[rustfmt::skip]
    let cases: [(_, _, &[u64], &[_], _, _, _); 6] = [
        ("backlog/edf", Mode::Edf, &[4, 4, 4, 4], zero, 0, 1000, 0),
        ("backlog/edf-periods", Mode::Edf, &[2, 3, 5, 7, 11, 13, 17, 19], zero, 0, 500, TIES),
        ("backlog/dwcs-windows", Mode::Dwcs, &[4, 4, 4, 4], some, 0, 1000, 0),
        ("backlog/dwcs-drop", Mode::Dwcs, &[2, 2, 2, 2], lossy, 1, 800, TIES),
        ("backlog/edf-overload", Mode::Edf, &[1, 1, 1, 1], zero, 0, 500, TIES),
        ("backlog/dwcs-renew", Mode::Dwcs, &[2, 2, 2, 2], lossless, 2, 800, TIES),
    ];
    let mut out = Vec::new();
    for (class, mode, periods, windows, late, frames, props) in cases {
        let (n, w) = (periods.len(), |s: usize| windows[s % windows.len()]);
        let stream = |s: usize| (st(periods[s], w(s).0, w(s).1, late), s as u64 + 1);
        let mut config = FabricConfig::dwcs(n, WinnerOnly);
        config.mode = mode;
        let mut t = Trace::new(class, config, stream);
        t.props = props | DUE;
        t.preload(frames);
        t.decide((frames * n / 2) as u64);
        out.push(t);
    }
    out
}

/// The backlog class named `class`.
pub(crate) fn backlog(class: &str) -> Trace {
    let mut all = backlogs().into_iter();
    all.find(|t| t.class == class).expect("a backlog class")
}

/// Random per-slot states (periods 1–5, windows up to 7) and arrivals on a
/// quarter of the slots per tick: the sharded merge's suite.
pub(crate) fn seeded(config: FabricConfig, seed: u64) -> Trace {
    let mut rng = Rng(seed);
    let mut draw = |_| {
        let num = 1 + rng.below(3) as usize;
        let den = num + rng.below(8 - num as u64) as usize;
        (st(1 + rng.below(5), num, den, 0), 1 + rng.below(9))
    };
    let streams: Vec<_> = (0..config.slots).map(&mut draw).collect();
    let (class, stream) = (format!("seeded/{:?}", config.mode), |s: usize| {
        streams[s].clone()
    });
    let mut t = Trace::new(&class, config, stream);
    (t.seed, t.props) = (seed, REFILLS | TIES | DUE);
    t.random(600, 4, false)
}

/// A BA fabric with half its slots unloaded and sparse arrivals on the
/// rest: blocks come out partially empty.
pub(crate) fn partial_block() -> Trace {
    let stream = |s: usize| (st(4, 1, 4, s % 3), s as u64 + 1);
    let mut t = Trace::new("partial-block", FabricConfig::dwcs(8, Base), stream);
    [1, 4, 5, 7].into_iter().for_each(|s| t.streams[s] = None);
    (t.seed, t.props) = (0xB10C, REFILLS | TIES | DUE);
    t.random(1000, 3, false)
}

/// `run_threaded_edf`'s shape: 32 EDF slots of period 32, 50 packets each,
/// decided to empty. Tie-free, so the lock-step paths join it too.
pub(crate) fn uniform() -> Trace {
    let config = FabricConfig::edf(32, WinnerOnly);
    let mut t = Trace::new("uniform", config, |s| (st(32, 0, 1, 0), s as u64 + 1));
    t.props = DUE;
    t.preload(50);
    t.decide(32 * 50);
    t
}
