//! `fabric_block`: the paper's title mechanism, alone.
//!
//! One thread, no ingress: a 32-slot block (BA) DWCS fabric in steady
//! state. Each op pushes one arrival per slot and runs decision cycles
//! until 32 packets are out — one block decision. `core.fabric` does all
//! the work, so an ingress change must not move this workload and a
//! fabric change moves no other workload's end-to-end numbers as much.
//! The refill is steady-state on purpose: a deep preload (the legacy
//! benches' 20 000 arrivals per slot) never touches the arrival path.

use crate::harness::{interleave, measure, setup_best, Rig, Timed};
use crate::metrics::{Metrics, RunResult, PER_LAYER};
use crate::span::{Kind, Recorder};
use crate::stats::Hist;
use crate::{end_to_end, finish_per_layer, write_trace, Checks, RunOptions};
use ss_core::{Fabric, FabricConfig, FabricConfigKind, LatePolicy, ScheduledPacket, StreamState};
use ss_faults::rng::mix;
use ss_faults::SplitMix64;
use ss_types::{WindowConstraint, Wrap16};
use std::time::Instant;

/// Ops per timed slice (≈ 9 ms on the 2-core build host).
pub const OPS_PER_SLICE: u64 = 8_000;
/// Ops of the untimed warm-up slice (part of `setup_s`).
pub const WARMUP_OPS: u64 = 1_000;
/// Ops over which the scalar and batched block sequences are compared.
pub const HASH_OPS: u64 = 10_000;

const PUSH: &str = "core.fabric.push_arrival";
const DECIDE: &str = "core.fabric.decision_cycle";

/// Stream number `rank` of a `slots`-wide scheduler: windows cycle 0/4,
/// 1/4, 2/4, 3/4 so every comparison rule of the decision block is
/// exercised.
pub(crate) fn stream_state(rank: usize, slots: usize) -> StreamState {
    StreamState {
        request_period: slots as u64,
        original_window: WindowConstraint::new((rank % 4) as u8, 4),
        static_prio: 0,
        late_policy: LatePolicy::ServeLate,
    }
}

/// A fabric with every slot loaded. The seed deals the streams to the
/// slots, so which slot holds which window and first deadline — and
/// with it the order of every block — differs from seed to seed.
fn loaded_fabric(kind: FabricConfigKind, slots: usize, rng: &mut SplitMix64) -> Fabric {
    let mut fabric = Fabric::new(FabricConfig::dwcs(slots, kind))
        .expect("slot counts used here are powers of two in 2..=32");
    let mut rank: Vec<usize> = (0..slots).collect();
    for i in (1..slots).rev() {
        rank.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for (s, &r) in rank.iter().enumerate() {
        fabric
            .load_stream(s, stream_state(r, slots), (r + 1) as u64)
            .expect("each slot is loaded once");
    }
    fabric
}

/// A fabric driven one block of arrivals at a time.
pub(crate) struct FabricRig {
    fabric: Fabric,
    slots: usize,
    rng: SplitMix64,
    tag: u16,
    rec: Recorder,
    push: Kind,
    decide: Kind,
    ops: u64,
    packets: u64,
    met: u64,
    /// Ops that did not yield exactly one packet per slot.
    bad_ops: u64,
    last: Instant,
}

impl FabricRig {
    /// `batched`: `None` keeps the fabric's own dispatch (what ships).
    pub(crate) fn new(
        kind: FabricConfigKind,
        slots: usize,
        batched: Option<bool>,
        seed: u64,
        mut rec: Recorder,
    ) -> Self {
        let mut rng = SplitMix64::new(mix(seed ^ 0xFAB));
        let mut fabric = loaded_fabric(kind, slots, &mut rng);
        if let Some(on) = batched {
            fabric.set_batched(on);
        }
        let tag = rng.next_u64() as u16;
        let (push, decide) = (rec.kind(PUSH), rec.kind(DECIDE));
        Self {
            fabric,
            slots,
            rng,
            tag,
            rec,
            push,
            decide,
            ops: 0,
            packets: 0,
            met: 0,
            bad_ops: 0,
            last: Instant::now(),
        }
    }

    /// One op: a seeded rotation decides the order the slots' arrivals
    /// are pushed in, then decisions run until every slot's packet is
    /// out. `visit` sees every transmitted packet in order.
    #[inline]
    fn block(&mut self, mut visit: impl FnMut(&ScheduledPacket)) {
        let n = self.slots;
        self.rec.begin_op(self.ops);
        self.ops += 1;
        let start = self.rng.next_u64() as usize;
        let mut ok = true;
        self.rec.enter(self.push);
        for j in 0..n {
            self.tag = self.tag.wrapping_add(1);
            ok &= self
                .fabric
                .push_arrival((start + j) & (n - 1), Wrap16(self.tag))
                .is_ok();
        }
        self.rec.exit(n as u64);
        self.rec.enter(self.decide);
        let (mut out, mut seen) = (0usize, 0u64);
        while out < n {
            let block = self.fabric.decision_cycle_into();
            if block.is_empty() {
                break;
            }
            for p in block {
                seen |= 1 << p.slot.index();
                self.met += u64::from(p.met);
                visit(p);
            }
            out += block.len();
        }
        self.rec.exit(out as u64);
        self.packets += out as u64;
        if !ok || out != n || seen != (1u64 << n) - 1 {
            self.bad_ops += 1;
        }
    }

    /// Runs `ops` ops without timing them (spans still record).
    fn run(&mut self, ops: u64) {
        for _ in 0..ops {
            self.block(|_| {});
        }
        self.last = Instant::now();
    }

    /// Self time per packet of the decision spans, ns.
    pub(crate) fn decision_ns_per_pkt(&self) -> f64 {
        self.rec.total(DECIDE).self_ns_per_item()
    }
}

impl Rig for FabricRig {
    #[inline]
    fn op(&mut self, hist: &mut Hist) {
        self.block(|_| {});
        // One clock read per op: this op ends where the next begins.
        let now = Instant::now();
        hist.record(now.duration_since(self.last).as_nanos() as u64);
        self.last = now;
    }

    fn packets(&self) -> u64 {
        self.packets
    }
}

/// Hash of the transmitted block sequence over `ops` ops.
fn block_sequence_hash(batched: bool, seed: u64, ops: u64) -> u64 {
    let mut rig = FabricRig::new(
        FabricConfigKind::Base,
        32,
        Some(batched),
        seed,
        Recorder::disabled(),
    );
    let mut hash = 0u64;
    for _ in 0..ops {
        rig.block(|p| {
            hash = mix(hash
                ^ p.slot.index() as u64
                ^ (u64::from(p.met) << 8)
                ^ (p.deadline << 16)
                ^ (p.completed_at << 40));
        });
    }
    hash
}

fn build(opts: &RunOptions, rec: Recorder) -> FabricRig {
    let mut rig = FabricRig::new(FabricConfigKind::Base, 32, None, opts.seed, rec);
    rig.run(opts.scaled(WARMUP_OPS));
    rig
}

/// Runs the output checks; returns the block-sequence hash.
fn check(rig: &FabricRig, t: &Timed, opts: &RunOptions, checks: &mut Checks) -> u64 {
    checks.fail_ops(
        rig.bad_ops,
        "ops did not yield exactly 32 packets, one per slot",
    );
    checks.require(t.packets == t.ops * 32, || {
        format!("{} packets from {} ops", t.packets, t.ops)
    });
    let ops = opts.scaled(HASH_OPS).max(10);
    let (scalar, batched) = (
        block_sequence_hash(false, opts.seed, ops),
        block_sequence_hash(true, opts.seed, ops),
    );
    checks.require(scalar == batched, || {
        format!("block sequence over {ops} ops: scalar {scalar:#x} != batched {batched:#x}")
    });
    scalar
}

/// Runs the workload.
pub fn run(opts: RunOptions) -> RunResult {
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let ops_per_slice = opts.scaled(OPS_PER_SLICE);
    if !opts.trace {
        let (mut rig, setup_s) = setup_best(|| build(&opts, Recorder::disabled()), drop);
        let t = measure(&mut rig, ops_per_slice, opts.budget);
        let digest = check(&rig, &t, &opts, &mut checks);
        // Every offered arrival is transmitted unless an op went wrong.
        let delivered = t.packets as f64 / (t.ops * 32) as f64;
        let metrics = end_to_end(setup_s, &t, delivered, &mut notes);
        return checks.into_result(t.ops, metrics, notes, digest);
    }

    // Traced run: an untraced reference pass, the same pass with spans,
    // then the dispatch arms and fabric shapes interleaved.
    let epoch = Instant::now();
    let mut plain = build(&opts, Recorder::disabled());
    let untraced = measure(&mut plain, ops_per_slice, opts.budget.share(0.25));
    let mut rig = build(&opts, Recorder::new(epoch, 1, true));
    let (cycles0, decisions0) = (rig.fabric.hw_cycles(), rig.fabric.decision_count());
    let t = measure(&mut rig, ops_per_slice, opts.budget.share(0.25));
    let digest = check(&rig, &t, &opts, &mut checks);

    let arm = |kind, slots, batched| {
        let mut r = FabricRig::new(
            kind,
            slots,
            batched,
            opts.seed,
            Recorder::new(epoch, 2, true),
        );
        r.run(opts.scaled(WARMUP_OPS));
        r
    };
    let mut scalar = arm(FabricConfigKind::Base, 32, Some(false));
    let mut batched = arm(FabricConfigKind::Base, 32, Some(true));
    let mut wr32 = arm(FabricConfigKind::WinnerOnly, 32, None);
    let mut wr8 = arm(FabricConfigKind::WinnerOnly, 8, None);
    let slice = |rig: &mut FabricRig| rig.run(opts.scaled(OPS_PER_SLICE / 8));
    interleave(
        opts.budget.share(0.5),
        &mut [
            &mut || slice(&mut scalar),
            &mut || slice(&mut batched),
            &mut || slice(&mut wr32),
            &mut || slice(&mut wr8),
        ],
    );
    for r in [&scalar, &batched, &wr32, &wr8] {
        checks.fail_ops(
            r.bad_ops,
            "ops of a dispatch arm lost or duplicated a packet",
        );
    }

    let mut m = Metrics::new(PER_LAYER);
    let push = rig.rec.total(PUSH);
    m.set(
        "core.fabric.push_arrival_ns_per_pkt",
        push.self_ns_per_item(),
        push.calls,
    );
    for (name, r) in [
        ("core.fabric.decision_ns_per_pkt.ba32", &scalar),
        ("core.fabric.decision_ns_per_pkt.ba32_batched", &batched),
        ("core.fabric.decision_ns_per_pkt.wr32", &wr32),
        ("core.fabric.decision_ns_per_pkt.wr8", &wr8),
    ] {
        m.set(name, r.decision_ns_per_pkt(), r.rec.total(DECIDE).calls);
    }
    m.set(
        "core.fabric.batched_vs_scalar.ba32",
        scalar.decision_ns_per_pkt() / batched.decision_ns_per_pkt().max(f64::MIN_POSITIVE),
        batched.rec.total(DECIDE).calls,
    );
    let decisions = rig.fabric.decision_count() - decisions0;
    m.set(
        "core.fabric.sim_cycles_per_decision.n32",
        (rig.fabric.hw_cycles() - cycles0) as f64 / decisions.max(1) as f64,
        decisions,
    );
    m.set(
        "core.fabric.deadlines_met_share",
        rig.met as f64 / rig.packets.max(1) as f64,
        rig.packets,
    );
    notes.push(format!(
        "default dispatch decision span: {:.2} ns/pkt (is_batched = {})",
        rig.decision_ns_per_pkt(),
        rig.fabric.is_batched()
    ));
    notes.push(write_trace(
        crate::Workload::FabricBlock,
        opts.seed,
        &[&rig.rec],
    ));
    let metrics = finish_per_layer(m, &checks, &untraced, &t);
    checks.into_result(t.ops, metrics, notes, digest)
}
