//! Steady-state heap guard: the decision core must not allocate.
//!
//! A counting global allocator wraps the system allocator; after a warmup
//! that lets every buffer (fabric scratch, per-slot VecDeques, sinks) reach
//! its high-water capacity, thousands of decision cycles — WR, BA, batched,
//! the inline sharded merge (WR, BA and the merge again with a fault
//! injector attached), and the cluster simulation's epoch loop — must leave
//! the allocation counter untouched. This file holds exactly one `#[test]`
//! so no sibling test thread can pollute the counter, and the counter
//! itself is per-thread:
//! the libtest harness thread occasionally allocates while the test runs
//! (timing-dependent), and a process-wide count would misattribute that
//! to the decision core. The thread-local is const-initialized and holds
//! a plain `Cell<u64>`, so reading it inside the allocator neither lazily
//! initializes TLS nor registers a destructor — no recursion.
#![allow(unsafe_code)]
#![allow(clippy::unwrap_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sharestreams::core::{Fabric, LatePolicy, StreamState, Telemetry, Traced};
use sharestreams::prelude::*;
use sharestreams::sharded::ShardedScheduler;

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: pure pass-through to `System`, which upholds the GlobalAlloc
// contract; the only addition is a thread-local counter bump, which never
// allocates (const-initialized `Cell`, no lazy TLS init, no destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller obligations (valid layout) are forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as ours; layout passed through untouched.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: caller obligations are forwarded unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as ours; layout passed through untouched.
        unsafe { System.alloc_zeroed(layout) }
    }
    // SAFETY: caller obligations (ptr from this allocator, matching layout)
    // are forwarded unchanged — we hand out exactly `System`'s pointers.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: ptr originated from `System` via our alloc; layout and
        // size obligations pass through untouched.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    // SAFETY: caller obligations are forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr originated from `System` via our alloc/realloc.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.with(|c| c.get())
}

fn edf_state() -> StreamState {
    StreamState {
        request_period: 1,
        original_window: WindowConstraint::ZERO,
        static_prio: 0,
        late_policy: LatePolicy::ServeLate,
    }
}

/// Builds a fully backlogged fabric with `depth` queued arrivals per slot.
fn backlogged(slots: usize, kind: FabricConfigKind, depth: usize) -> Fabric {
    backlogged_with(slots, kind, depth)
}

fn backlogged_with<T: Telemetry>(slots: usize, kind: FabricConfigKind, depth: usize) -> Fabric<T> {
    let mut f = Fabric::with_telemetry(FabricConfig::edf(slots, kind)).unwrap();
    for s in 0..slots {
        f.load_stream(s, edf_state(), (s + 1) as u64).unwrap();
        for a in 0..depth {
            f.push_arrival(s, Wrap16::from_wide(a as u64)).unwrap();
        }
    }
    f
}

/// Refills exactly the slots serviced this cycle, so queue depth — and thus
/// VecDeque capacity — never grows past the warmed-up high-water mark.
fn refill<T: Telemetry>(f: &mut Fabric<T>, tag: &mut u64) {
    for i in 0..f.last_block().len() {
        let slot = f.last_block()[i].slot.index();
        *tag += 1;
        f.push_arrival(slot, Wrap16::from_wide(*tag)).unwrap();
    }
}

/// One steady-state cycle. WR runs the split cycle a shard behind a
/// frontend runs — `propose` → `grant`, then `propose` → the
/// `expire_cycle` pass — so the spans prove the in-place tournament, the
/// grant and the pass heap-free; BA runs the whole cycle (the lane
/// ping-pong and the block walk) and a grant-less expiry.
fn cycle(f: &mut Fabric, tag: &mut u64) {
    let split = f.config().kind == FabricConfigKind::WinnerOnly;
    if split {
        let word = f.propose();
        f.grant(word);
    } else {
        f.decision_cycle_into();
    }
    refill(f, tag);
    if split {
        std::hint::black_box(f.propose());
    }
    f.expire_cycle();
}

/// One inline sharded cycle: the winner's slot is refilled.
fn sharded_cycle<T: Telemetry>(sharded: &mut ShardedScheduler<T>, tag: &mut u64) {
    if let Some(p) = sharded.decision_cycle() {
        *tag += 1;
        sharded
            .push_arrival(p.slot.index(), Wrap16::from_wide(*tag))
            .unwrap();
    }
}

#[test]
fn steady_state_decision_cycles_do_not_allocate() {
    const SLOTS: usize = 32;
    const DEPTH: usize = 16;
    const WARMUP: u64 = 200;
    const MEASURED: u64 = 5_000;

    let mut tag = 0u64;

    // --- Per-cycle API, BA and WR, both decision arms ---
    // The packed kernel is the default arm; pinning both explicitly keeps
    // the scalar reference covered too.
    for kind in [FabricConfigKind::Base, FabricConfigKind::WinnerOnly] {
        for batched in [false, true] {
            let mut f = backlogged(SLOTS, kind, DEPTH);
            assert_eq!(f.set_batched(batched), batched);
            for _ in 0..WARMUP {
                cycle(&mut f, &mut tag);
            }
            let before = allocations();
            for _ in 0..MEASURED {
                cycle(&mut f, &mut tag);
            }
            assert_eq!(
                allocations() - before,
                0,
                "{kind:?} decision_cycle_into (batched={batched}) allocated in steady state"
            );
        }
    }

    // --- Batched API with a preallocated sink ---
    let mut batch = backlogged(SLOTS, FabricConfigKind::Base, DEPTH);
    let mut sink: Vec<ScheduledPacket> =
        Vec::with_capacity((MEASURED as usize + WARMUP as usize) * SLOTS);
    batch.decision_cycles(WARMUP, &mut sink);
    let before = allocations();
    batch.decision_cycles(MEASURED / 10, &mut sink);
    assert_eq!(
        allocations() - before,
        0,
        "decision_cycles allocated with a preallocated sink"
    );

    // --- Inline sharded winner-merge ---
    // K = 2 is the soak lab's node shape, K = 4 the wider merge: every
    // shard proposes, the winner is granted, the rest pass. Odd slots are
    // loaded but never fed, so each shard's tournament and the merge also
    // take the empty-slot arms of the comparator; the per-tick backlog
    // recount rides along.
    for shards in [2, 4] {
        let config = FabricConfig::edf(SLOTS, FabricConfigKind::WinnerOnly);
        let mut sharded = ShardedScheduler::new(config, shards).unwrap();
        for s in 0..SLOTS {
            sharded.load_stream(s, edf_state(), (s + 1) as u64).unwrap();
            for a in 0..DEPTH * (1 - s % 2) {
                sharded
                    .push_arrival(s, Wrap16::from_wide(a as u64))
                    .unwrap();
            }
        }
        let cycle = |sharded: &mut ShardedScheduler, tag: &mut u64| {
            sharded_cycle(sharded, tag);
            assert_eq!(sharded.live_backlog(), (SLOTS / 2 * DEPTH) as u64);
        };
        for _ in 0..WARMUP {
            cycle(&mut sharded, &mut tag);
        }
        let before = allocations();
        for _ in 0..MEASURED {
            cycle(&mut sharded, &mut tag);
        }
        assert_eq!(
            allocations() - before,
            0,
            "sharded inline decision_cycle (K={shards}) allocated in steady state"
        );
    }

    // --- Attached fault injection: every fault hook stays heap-free ---
    // The injector is a runtime attachment in every build. A BA-32 and a
    // WR-8 fabric and an inline 32 × 2 merge each run three spans: a quiet
    // injector attached (every cycle samples, nothing fires), a profile
    // that wedges decision cycles (`StuckCycles`; the merge's shard stream
    // adds `ShardStall`s), and a crash (`inject_crash`; the merge detects
    // and excludes the crashed shard inside the span).
    {
        use sharestreams::faults::{FaultConfig, FaultInjector, FaultSite};
        use std::sync::Arc;
        let quiet = || Arc::new(FaultInjector::new(7, FaultConfig::quiet()));
        let stuck = FaultConfig {
            decision_rate_ppm: 50_000,
            shard_rate_ppm: 5_000,
            ..FaultConfig::quiet()
        };
        let fired =
            |inj: &FaultInjector, site: FaultSite| inj.stats().snapshot().injected[site.index()];
        for (slots, kind) in [
            (SLOTS, FabricConfigKind::Base),
            (8, FabricConfigKind::WinnerOnly),
        ] {
            let mut f = backlogged(slots, kind, DEPTH);
            let stuck = Arc::new(FaultInjector::new(7, stuck));
            for phase in ["quiet", "stuck", "crashed"] {
                match phase {
                    "quiet" => f.attach_faults(quiet()),
                    "stuck" => f.attach_faults(Arc::clone(&stuck)),
                    _ => f.inject_crash(),
                }
                for _ in 0..WARMUP {
                    cycle(&mut f, &mut tag);
                }
                let before = allocations();
                for _ in 0..MEASURED {
                    cycle(&mut f, &mut tag);
                }
                assert_eq!(
                    allocations() - before,
                    0,
                    "{kind:?}-{slots} with a {phase} injector allocated in steady state"
                );
            }
            assert!(fired(&stuck, FaultSite::DecisionCycle) > 0, "wedges fired");
            assert!(f.is_crashed());
        }

        let config = FabricConfig::edf(SLOTS, FabricConfigKind::WinnerOnly);
        let mut sharded = ShardedScheduler::new(config, 2).unwrap();
        for s in 0..SLOTS {
            sharded.load_stream(s, edf_state(), (s + 1) as u64).unwrap();
            for a in 0..DEPTH {
                sharded
                    .push_arrival(s, Wrap16::from_wide(a as u64))
                    .unwrap();
            }
        }
        let stuck = Arc::new(FaultInjector::new(7, stuck));
        for phase in ["quiet", "stuck", "crashed"] {
            match phase {
                "quiet" => sharded.attach_faults(quiet()),
                "stuck" => sharded.attach_faults(Arc::clone(&stuck)),
                _ => {}
            }
            for _ in 0..WARMUP {
                sharded_cycle(&mut sharded, &mut tag);
            }
            if phase == "crashed" {
                sharded.inject_shard_crash(1);
            }
            let before = allocations();
            for _ in 0..MEASURED {
                sharded_cycle(&mut sharded, &mut tag);
            }
            assert_eq!(
                allocations() - before,
                0,
                "sharded inline decision_cycle with a {phase} injector allocated in steady state"
            );
        }
        assert!(fired(&stuck, FaultSite::DecisionCycle) > 0, "wedges fired");
        assert!(fired(&stuck, FaultSite::Shard) > 0, "shard stalls fired");
        assert_eq!(
            stuck.stats().snapshot().shards_excluded,
            1,
            "the crash was detected"
        );
    }

    // --- Attached telemetry: hooks and periodic flushes stay heap-free ---
    // All instrumentation buffers (latency tracker, registry entries) are
    // allocated at attach time; the measured span crosses the
    // 4096-decision auto-flush boundary, so the counter also proves the
    // local-accumulator drain into the striped registry never allocates.
    {
        let registry = sharestreams::telemetry::Registry::new();
        let mut wr = backlogged_with::<Traced>(SLOTS, FabricConfigKind::WinnerOnly, DEPTH);
        wr.attach_telemetry(&registry, 0);
        for _ in 0..WARMUP {
            wr.decision_cycle_into();
            refill(&mut wr, &mut tag);
        }
        let before = allocations();
        for _ in 0..MEASURED {
            wr.decision_cycle_into();
            refill(&mut wr, &mut tag);
        }
        wr.flush_telemetry();
        assert_eq!(
            allocations() - before,
            0,
            "attached WR decision_cycle_into allocated in steady state"
        );

        let config = FabricConfig::edf(SLOTS, FabricConfigKind::WinnerOnly);
        let mut sharded = ShardedScheduler::<Traced>::with_telemetry(config, 4).unwrap();
        for s in 0..SLOTS {
            sharded.load_stream(s, edf_state(), (s + 1) as u64).unwrap();
            for a in 0..DEPTH {
                sharded
                    .push_arrival(s, Wrap16::from_wide(a as u64))
                    .unwrap();
            }
        }
        sharded.attach_telemetry(&registry);
        for _ in 0..WARMUP {
            sharded_cycle(&mut sharded, &mut tag);
        }
        let before = allocations();
        for _ in 0..MEASURED {
            sharded_cycle(&mut sharded, &mut tag);
        }
        assert_eq!(
            allocations() - before,
            0,
            "attached sharded decision_cycle allocated in steady state"
        );

        // --- Lifecycle tracing: span recording stays heap-free ---
        // The span ring (capacity 256) is allocated at attach; MEASURED
        // cycles push ~MEASURED win events, so the ring wraps many times
        // over and the measured span covers the overwrite path, not just
        // the initial fill.
        let spans = sharestreams::telemetry::SpanRecorder::new(256);
        let mut traced = backlogged_with::<Traced>(SLOTS, FabricConfigKind::WinnerOnly, DEPTH);
        traced.attach_spans(&spans, 0, "zero-alloc");
        for _ in 0..WARMUP {
            traced.decision_cycle_into();
            refill(&mut traced, &mut tag);
        }
        let before = allocations();
        for _ in 0..MEASURED {
            traced.decision_cycle_into();
            refill(&mut traced, &mut tag);
        }
        assert_eq!(
            allocations() - before,
            0,
            "traced WR decision_cycle_into allocated in steady state"
        );

        // --- Flight recorder: the always-on record path stays heap-free ---
        // `record` is a try-lock push into a preallocated overwrite ring;
        // 4× capacity wraps it fully, and the auto_dump clone below is
        // *allowed* to allocate (post-mortem path), so only `record` sits
        // inside the measured span.
        use sharestreams::telemetry::{DumpReason, SharedFlightRecorder, Stage, StageEvent};
        let flight = SharedFlightRecorder::new(128);
        let before = allocations();
        for i in 0..512u64 {
            flight.record(StageEvent {
                tag: i,
                tsc: i,
                cycle: i,
                track: 0,
                stage: Stage::Service,
                detail: 0,
                arg: 0,
            });
        }
        assert_eq!(
            allocations() - before,
            0,
            "flight recorder record() allocated in steady state"
        );
        assert_eq!(flight.auto_dump(DumpReason::Manual, 512).events.len(), 128);
    }

    // --- Ingress frame decode + edge gate: the wire fast path stays
    // heap-free --- The decoder's buffer is a fixed Box<[u8]> and every
    // SUBMIT entry is read through a borrowed view, so steady-state
    // decode → offer → serve → tick must never touch the heap.
    {
        use sharestreams::endsystem::RedConfig;
        use sharestreams::ingress::{frame, EdgeGate, Frame, FrameDecoder, IngressArrival};
        let entries: Vec<(u32, u16)> = (0..16)
            .map(|i| (i as u32 % SLOTS as u32, i as u16))
            .collect();
        let mut encoded = Vec::new();
        frame::encode_submit(&mut encoded, 1, &entries);
        let windows: Vec<WindowConstraint> = (0..SLOTS)
            .map(|s| WindowConstraint::new((s % 4) as u8, 4))
            .collect();
        let mut dec = FrameDecoder::new(4096);
        let mut gate = EdgeGate::new(&windows, 1_000, 4_000, RedConfig::classic(64), 7);
        let spin = |dec: &mut FrameDecoder, gate: &mut EdgeGate, cycles: u64| {
            for _ in 0..cycles {
                dec.push(&encoded).unwrap();
                while let Ok(Some(f)) = dec.next() {
                    if let Frame::Submit(v) = f {
                        for e in v.iter() {
                            let _ = gate.offer(IngressArrival {
                                slot: e.slot,
                                tag: e.tag,
                            });
                        }
                    }
                }
                while let Some(a) = gate.pop_backlog() {
                    gate.mark_served(a.slot as usize);
                }
                gate.tick();
            }
        };
        spin(&mut dec, &mut gate, WARMUP);
        let before = allocations();
        spin(&mut dec, &mut gate, MEASURED);
        assert_eq!(
            allocations() - before,
            0,
            "ingress decode/offer/serve/tick allocated in steady state"
        );
    }

    // --- Overload gate: the admit/shed/tick fast path stays heap-free ---
    // The 2-offers-per-serve loop holds occupancy inside the RED band, so
    // the measured span exercises every verdict — token-bucket rejects,
    // RED sheds, protected-stream vetoes, and plain admits — plus the
    // pressure/ledger bookkeeping behind them.
    {
        use sharestreams::endsystem::{Gate, GateConfig, RedConfig};
        let windows: Vec<WindowConstraint> = (0..SLOTS)
            .map(|s| WindowConstraint {
                num: (s % 4) as u8,
                den: 4,
            })
            .collect();
        let mut gate = Gate::<()>::new(GateConfig::from_windows(
            &windows,
            400,
            4_000,
            RedConfig::classic(64),
            7,
        ));
        let mut next = 0usize;
        let mut drive = |gate: &mut Gate<()>, cycles: u64| {
            for _ in 0..cycles {
                let mut admitted = 0u32;
                for _ in 0..2 {
                    next = (next + 1) % SLOTS;
                    admitted += u32::from(gate.offer(next, ()).admits());
                }
                if admitted > 0 {
                    gate.mirror_served(next);
                }
                let occupied = gate.core().ledger().total() as usize % 128;
                gate.mirror_tick(occupied, 128);
            }
        };
        drive(&mut gate, WARMUP);
        let before = allocations();
        drive(&mut gate, MEASURED);
        assert_eq!(
            allocations() - before,
            0,
            "overload gate offer/served/tick allocated in steady state"
        );

        // Cold fill: a fresh gate holding real payloads (slot, tag — the
        // edge's arrival shape) takes its first `capacity` packets, and
        // the overflow behind them, without growing the backlog buffer.
        let mut cold = Gate::<(u32, u16)>::new(GateConfig::from_windows(
            &windows,
            1_000_000,
            2_000_000,
            RedConfig::classic(256),
            7,
        ));
        let before = allocations();
        for i in 0..300u32 {
            let _ = cold.offer(i as usize % SLOTS, (i % SLOTS as u32, i as u16));
        }
        assert_eq!(allocations() - before, 0, "cold gate fill allocated");
        assert_eq!(cold.backlog_len(), 256, "filled to hard capacity");
    }

    // --- Threaded endsystem: the scheduler thread's sweep stays heap-free ---
    // One thread plays all three: it refills the arrival ring with one
    // arrival per transmitted winner, so every sweep drains the ring (through
    // the gate, in the second pass), deposits, ticks, runs a decision cycle
    // and publishes its winner at a constant queue depth.
    for gated in [false, true] {
        use sharestreams::endsystem::threaded::{ArrivalMsg, SchedulerStage};
        use sharestreams::endsystem::{GateConfig, RedConfig};
        let gate = gated.then(|| {
            let red = RedConfig::classic(4 * SLOTS * DEPTH);
            GateConfig::from_windows(
                &[WindowConstraint::ZERO; SLOTS],
                1_000_000,
                4_000_000,
                red,
                7,
            )
        });
        let config = FabricConfig::edf(SLOTS, FabricConfigKind::WinnerOnly);
        let states = (0..SLOTS).map(|_| edf_state()).collect();
        let (mut arr_tx, mut stage, mut id_rx) = SchedulerStage::new(config, states, gate).unwrap();
        let mut offer = |slot: usize| {
            tag += 1;
            let msg = ArrivalMsg {
                slot,
                tag: Wrap16::from_wide(tag),
            };
            arr_tx.push((msg, ())).unwrap();
        };
        (0..SLOTS * DEPTH).for_each(|i| offer(i % SLOTS));
        let mut sweeps = |n: u64| {
            for _ in 0..n {
                assert!(stage.sweep(), "a backlogged fabric always cycles");
                while let Some((slot, ())) = id_rx.pop() {
                    offer(slot as usize);
                }
            }
        };
        sweeps(WARMUP);
        let before = allocations();
        sweeps(MEASURED);
        assert_eq!(
            allocations() - before,
            0,
            "threaded scheduler sweep (gated={gated}) allocated in steady state"
        );
    }

    // --- Cluster simulation: the epoch loop stays heap-free ---
    // `cluster_soak`'s shape (4 nodes × 2 shards × 8 slots, 2× load, light
    // faults) driven as the benchmark drives it. The warm-up is long
    // because the nodes' per-slot queues find their high-water mark under
    // fault bursts, not on the first tick; the run is a pure function of
    // its config, so where that mark is reached is too. On one thread the
    // span covers the node phase, the epoch buffer and the cluster-phase
    // replay. On two it covers the sim thread's side of the hand-off —
    // this counter is per-thread, and the worker runs the node phase the
    // one-thread span already vouches for: partitions and buffers travel
    // by value through channels sized at spawn, so an epoch allocates
    // nothing. The only allowance is std's: the first time a wait
    // outlasts its spin, the channel builds the thread's parking context
    // and its waiter list — once per thread and channel, whenever the
    // scheduler makes that happen, never per epoch.
    //
    // The second configuration puts the rest of the node tick's slot-set
    // paths under the same guard: chaos faults have crashed a shard on
    // every node before the span, so every tick books arrivals on dead
    // slots, and overload bursts fold extras into per-slot counts; a
    // flash crowd runs the sampler off its base intensity for almost the
    // whole span. The crowd *thins* the load (peak below base): a rising
    // one grows slot queues past their warmed-up depth, which is the
    // fabric's own growth, not the tick's. Chaos keeps finding new queue
    // depths long after a crash, too; seed 5 at this warm-up is a run whose
    // span finds none (as the light run's does).
    use sharestreams::cluster::{ClusterConfig, ClusterSim, FaultProfile, Scenario, ScenarioSpec};
    const SPAN_START: u64 = 5 * WARMUP * 32;
    let crowd = "flash-crowd:rate=2000,peak=1000,at=33000,width=8000";
    for (spec, faults) in [
        ("steady:rate=2000", FaultProfile::Light),
        (crowd, FaultProfile::Chaos),
    ] {
        let spec = ScenarioSpec::parse(spec).unwrap();
        for (threads, allowed) in [(1, 0), (2, 8)] {
            let mut config = ClusterConfig::new(5, spec, 4, 2, 8);
            config.faults = faults;
            config.ticks = u64::MAX;
            config.threads = threads;
            let mut sim = ClusterSim::new(config).unwrap();
            let chunks = |sim: &mut ClusterSim, n: u64| {
                for _ in 0..n {
                    assert_eq!(sim.run_chunk(32), 32, "no violation cuts a chunk short");
                }
            };
            chunks(&mut sim, 5 * WARMUP);
            assert_eq!(sim.tick(), SPAN_START);
            if faults == FaultProfile::Chaos {
                let scenario = Scenario::new(spec, 8);
                let span = SPAN_START..SPAN_START + MEASURED / 10 * 32;
                let off_base = span.filter(|&t| scenario.intensity_permille(t) != 2000);
                assert!(off_base.count() > 14_000, "the crowd fills the span");
                assert!(
                    (0..4).all(|i| sim.node(i).shard_crashes() > 0),
                    "dead slots"
                );
            }
            let before = allocations();
            chunks(&mut sim, MEASURED / 10);
            let allocated = allocations() - before;
            assert!(
                allocated <= allowed,
                "ClusterSim::run_chunk(32) on {spec} ({faults}) at threads={threads} \
                 allocated {allocated} times over {} epochs in steady state",
                MEASURED / 10
            );
        }
    }
}
