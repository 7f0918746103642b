//! `loopback_pipeline` and `loopback_overload`: the path every networked
//! packet takes, admitting and refusing.
//!
//! One `IngressClient` on one connection submits batches of 32 packets
//! over 127.0.0.1 to an `IngressServer` in ring mode; a consumer thread
//! owned by the benchmark pops the ring into an 8-slot winner-only DWCS
//! fabric and hands every winner to a `TransmissionEngine`. The loop is
//! closed: the protocol is stop-and-wait per batch, and the client also
//! never lets admitted − transmitted pass half the ring, so ring loss is
//! structurally 0.
//!
//! * `loopback_pipeline` — every window 3/4, ample tokens, the whole
//!   batch served per SUBMIT: every packet is admitted and transmitted.
//!   `ingress.socket` does almost all the work of an op.
//! * `loopback_overload` — the refuse side of the same layers: a
//!   UGS/rtPS/nrtPS/BE window ladder, 3 tokens per tick, 20 of 32 served
//!   per batch; the client is well behaved and withholds
//!   `SharedPressure::holdback_per_4` of every 4 batches as the ack's
//!   pressure byte dictates. A change that speeds the admit path by
//!   skipping gate work, or pipelines SUBMITs past the backpressure
//!   signal, shows here. The gate ticks once per SUBMIT, so every count
//!   is an exact function of the seed and the number of ops.
//!
//! Because the server-side layers run on the server's own reader thread
//! and cannot be timed from outside, [`replay`] pushes the same generated
//! batches through the same public calls on one thread — encode → decode
//! → gate → ack → ring → fabric → transmit. Gate-only, it is the
//! reference every run's ledger is checked against; in full, with spans,
//! it prices each layer of the traced run.

use crate::harness::{measure, setup_best, Rig, Timed};
use crate::metrics::{Metrics, RunResult, PER_LAYER};
use crate::span::{Kind, Recorder};
use crate::stats::{self, Hist};
use crate::{end_to_end, finish_per_layer, write_trace, Checks, RunOptions};
use ss_core::{Fabric, FabricConfig, FabricConfigKind, LatePolicy, ScheduledPacket, StreamState};
use ss_endsystem::{spsc_ring, Consumer, RedConfig, RingStats, TransmissionEngine};
use ss_faults::rng::mix;
use ss_faults::SplitMix64;
use ss_ingress::frame::{encode_submit, encode_submit_ack};
use ss_ingress::{
    ClientConfig, ClientStats, DrainReport, EdgeGate, EdgeMode, EdgeVerdict, FaultConfig,
    FaultInjector, Frame, FrameDecoder, IngressArrival, IngressClient, IngressConfig,
    IngressServer,
};
use ss_overload::{LossLedger, PressureLevel, SharedPressure};
use ss_types::{PacketSize, WindowConstraint, Wrap16};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Packets per SUBMIT batch.
pub const BATCH: usize = 32;
/// Stream slots.
pub const SLOTS: usize = 8;
/// Ops (attempted batches) per timed slice (≈ 10 ms on the build host).
pub const OPS_PER_SLICE: u64 = 1_250;
/// Ops of the untimed warm-up slice (part of `setup_s`).
pub const WARMUP_OPS: u64 = 200;
const RING: usize = 65_536;
/// Arrivals the endsystem takes off the ring per pass.
const DRAIN_CHUNK: usize = 256;
/// How long the consumer sleeps on an empty ring, so that its CPU time is
/// cost and not idle spin.
const IDLE_SLEEP: Duration = Duration::from_micros(50);
/// The traced client logs every this-many-th submitted batch.
const LOG_EVERY: u64 = 16;

const GENERATE: &str = "harness.generator";
const SUBMIT: &str = "ingress.socket.submit";
const ENCODE: &str = "ingress.frame.encode";
const DECODE: &str = "ingress.frame.decode";
const OFFER: &str = "ingress.gate.offer";
const SERVE: &str = "ingress.gate.serve";
const RING_PUSH: &str = "endsystem.spsc.push";
const RING_POP: &str = "endsystem.spsc.pop";
const PUSH_ARRIVAL: &str = "core.fabric.push_arrival";
const DECIDE: &str = "core.fabric.decision_cycle";
const TRANSMIT: &str = "endsystem.tx.transmit";
/// What one SUBMIT round trip waits for, besides the socket itself.
const CRITICAL_PATH: [&str; 5] = [ENCODE, DECODE, OFFER, SERVE, RING_PUSH];
const CONSUMER_SIDE: [&str; 4] = [RING_POP, PUSH_ARRIVAL, DECIDE, TRANSMIT];

fn windows(overload: bool) -> Vec<WindowConstraint> {
    (0..SLOTS)
        .map(|s| WindowConstraint::new(if overload { (s / 2) as u8 } else { 3 }, 4))
        .collect()
}

fn ingress_config(overload: bool) -> IngressConfig {
    let (service_per_batch, rate_mtok, burst_mtok) = if overload {
        (20, 3_000, 8_000)
    } else {
        (2 * BATCH, 1_000_000, 2_000_000)
    };
    IngressConfig {
        service_per_batch,
        edge_capacity: 256,
        rate_mtok,
        burst_mtok,
        ..IngressConfig::default()
    }
}

/// The seeded batch generator: slots are uniform draws, tags count up
/// from a seeded start.
struct BatchGen {
    rng: SplitMix64,
    tag: u16,
}

impl BatchGen {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(mix(seed ^ 0x10_0BAC));
        let tag = rng.next_u64() as u16;
        Self { rng, tag }
    }

    #[inline]
    fn fill(&mut self, entries: &mut Vec<(u32, u16)>) {
        entries.clear();
        let mut bits = 0u64;
        for j in 0..BATCH {
            if j % 21 == 0 {
                bits = self.rng.next_u64();
            }
            self.tag = self.tag.wrapping_add(1);
            entries.push(((bits & 7) as u32, self.tag));
            bits >>= 3;
        }
    }
}

/// `true` when a well-behaved client withholds attempt `b` at `pressure`.
#[inline]
fn withheld(overload: bool, b: u64, pressure: u8) -> bool {
    overload
        && b % 4
            < u64::from(SharedPressure::holdback_per_4(PressureLevel::from_u8(
                pressure,
            )))
}

struct EndsystemKinds {
    pop: Kind,
    push: Kind,
    decide: Kind,
    transmit: Kind,
}

/// What sits behind the ring: fabric and transmitter.
struct Endsystem {
    fabric: Fabric,
    te: TransmissionEngine,
    arrivals: Vec<IngressArrival>,
    winners: Vec<ScheduledPacket>,
    pending: usize,
    transmitted: u64,
    per_slot: [u64; SLOTS],
    /// Decisions that produced nothing with arrivals pending, or arrivals
    /// the fabric refused.
    faults: u64,
    rec: Recorder,
    kinds: EndsystemKinds,
}

impl Endsystem {
    fn new(overload: bool, mut rec: Recorder) -> Self {
        let mut fabric = Fabric::new(FabricConfig::dwcs(SLOTS, FabricConfigKind::WinnerOnly))
            .expect("8 slots is a valid fabric width");
        for (s, &window) in windows(overload).iter().enumerate() {
            let state = StreamState {
                request_period: SLOTS as u64,
                original_window: window,
                static_prio: 0,
                late_policy: LatePolicy::ServeLate,
            };
            fabric
                .load_stream(s, state, (s + 1) as u64)
                .expect("each slot is loaded once");
        }
        let kinds = EndsystemKinds {
            pop: rec.kind(RING_POP),
            push: rec.kind(PUSH_ARRIVAL),
            decide: rec.kind(DECIDE),
            transmit: rec.kind(TRANSMIT),
        };
        Self {
            fabric,
            // 1 Gb/s link, 1 s rate windows, a delay sample per 2²⁰
            // packets: the engine's own series stay small on long runs.
            te: TransmissionEngine::new(SLOTS, 125_000_000, 1_000_000_000, 1 << 20),
            arrivals: Vec::with_capacity(DRAIN_CHUNK),
            winners: Vec::with_capacity(2 * DRAIN_CHUNK),
            pending: 0,
            transmitted: 0,
            per_slot: [0; SLOTS],
            faults: 0,
            rec,
            kinds,
        }
    }

    /// Takes up to [`DRAIN_CHUNK`] arrivals off the ring, schedules them
    /// and transmits the winners. Returns how many it took.
    fn drain(&mut self, ring: &mut Consumer<IngressArrival>) -> usize {
        self.rec.enter(self.kinds.pop);
        self.arrivals.clear();
        while self.arrivals.len() < DRAIN_CHUNK {
            match ring.pop() {
                Some(a) => self.arrivals.push(a),
                None => break,
            }
        }
        let n = self.arrivals.len();
        self.rec.exit(n as u64);
        if n == 0 {
            return 0;
        }
        self.rec.enter(self.kinds.push);
        for a in &self.arrivals {
            match self.fabric.push_arrival(a.slot as usize, Wrap16(a.tag)) {
                Ok(()) => self.pending += 1,
                Err(_) => self.faults += 1,
            }
        }
        self.rec.exit(n as u64);
        self.rec.enter(self.kinds.decide);
        self.winners.clear();
        while self.winners.len() < self.pending {
            let won = self.fabric.decision_cycle_into();
            if won.is_empty() {
                self.faults += 1;
                break;
            }
            self.winners.extend_from_slice(won);
        }
        self.rec.exit(self.winners.len() as u64);
        self.rec.enter(self.kinds.transmit);
        for p in &self.winners {
            // One minimum-size frame per packet-time of 512 ns.
            let at = p.completed_at * 512;
            self.te
                .transmit(p.slot.index(), PacketSize::ETH_MIN, at, at);
            self.per_slot[p.slot.index()] += 1;
        }
        self.rec.exit(self.winners.len() as u64);
        self.pending -= self.winners.len();
        self.transmitted += self.winners.len() as u64;
        n
    }
}

/// What the consumer thread hands back when the ring disconnects.
struct ConsumerOut {
    es: Endsystem,
    ring: RingStats,
    /// Deepest ring the consumer found. `RingStats::high_water` is the
    /// producer's view through its cached read pointer, which it only
    /// refreshes on a full ring, so it always climbs to the capacity.
    ring_hwm: usize,
    /// (time ns, packets transmitted so far), one entry per pass.
    log: Vec<(u64, u64)>,
}

fn consumer_thread(
    mut ring: Consumer<IngressArrival>,
    mut es: Endsystem,
    transmitted: Arc<AtomicU64>,
    epoch: Instant,
    log_cap: usize,
) -> ConsumerOut {
    let mut log = Vec::with_capacity(log_cap);
    let (mut pass, mut ring_hwm) = (0u64, 0usize);
    loop {
        es.rec.begin_op(pass);
        ring_hwm = ring_hwm.max(ring.len());
        if es.drain(&mut ring) == 0 {
            if ring.is_disconnected() {
                if ring.is_empty() {
                    break;
                }
                continue;
            }
            std::thread::sleep(IDLE_SLEEP);
            continue;
        }
        pass += 1;
        // A statistic read by the client for flow control and by the
        // slice loop for counting; it publishes no other data.
        transmitted.store(es.transmitted, Ordering::Relaxed);
        if log.len() < log_cap {
            log.push((epoch.elapsed().as_nanos() as u64, es.transmitted));
        }
    }
    ConsumerOut {
        ring: ring.stats(),
        ring_hwm,
        es,
        log,
    }
}

/// Server, client and consumer, built and warmed up.
struct SocketRig {
    overload: bool,
    server: IngressServer,
    client: IngressClient,
    consumer: JoinHandle<ConsumerOut>,
    transmitted: Arc<AtomicU64>,
    gen: BatchGen,
    entries: Vec<(u32, u16)>,
    attempted: u64,
    submitted: u64,
    withheld: u64,
    failed: u64,
    admitted: u64,
    rec: Recorder,
    generate: Kind,
    submit: Kind,
    epoch: Instant,
    /// (send time ns, packets admitted so far including this batch).
    send_log: Vec<(u64, u64)>,
}

/// Everything a finished socket run leaves behind.
struct SocketOutcome {
    report: DrainReport,
    client: ClientStats,
    consumer: ConsumerOut,
    attempted: u64,
    submitted: u64,
    withheld: u64,
    failed: u64,
    rec: Recorder,
    send_log: Vec<(u64, u64)>,
}

impl SocketRig {
    fn new(overload: bool, opts: &RunOptions, traced: bool, epoch: Instant) -> Self {
        let quiet = || Arc::new(FaultInjector::new(1, FaultConfig::quiet()));
        ss_endsystem::pin_current_thread(0);
        let mut server = IngressServer::start(
            ingress_config(overload),
            &windows(overload),
            EdgeMode::Ring { capacity: RING },
            quiet(),
            None,
        )
        .expect("binding a loopback listener");
        let ring = server
            .take_consumer()
            .expect("ring mode has a consumer endpoint");
        let transmitted = Arc::new(AtomicU64::new(0));
        let es = Endsystem::new(overload, Recorder::new(epoch, 2, traced));
        let consumer = {
            let transmitted = Arc::clone(&transmitted);
            let log_cap = if traced { 1 << 19 } else { 0 };
            std::thread::Builder::new()
                .name("ss-benchmark-consumer".into())
                .spawn(move || {
                    ss_endsystem::pin_current_thread(1);
                    consumer_thread(ring, es, transmitted, epoch, log_cap)
                })
                .expect("spawning the consumer thread")
        };
        let mut client =
            IngressClient::connect(server.addr(), ClientConfig::new(0xBE4C, 1), quiet())
                .expect("connecting over loopback");
        for slot in 0..SLOTS as u32 {
            client.register(slot, 1).expect("registering a stream slot");
        }
        let mut rec = Recorder::new(epoch, 1, traced);
        let (generate, submit) = (rec.kind(GENERATE), rec.kind(SUBMIT));
        let mut rig = Self {
            overload,
            server,
            client,
            consumer,
            transmitted,
            gen: BatchGen::new(opts.seed),
            entries: Vec::with_capacity(BATCH),
            attempted: 0,
            submitted: 0,
            withheld: 0,
            failed: 0,
            admitted: 0,
            rec,
            generate,
            submit,
            epoch,
            send_log: Vec::with_capacity(if traced { 1 << 18 } else { 0 }),
        };
        let mut scratch = Hist::new();
        for _ in 0..opts.scaled(WARMUP_OPS) {
            rig.op(&mut scratch);
        }
        rig
    }

    /// Drains, says goodbye, shuts the server down and joins the consumer.
    fn finish(mut self) -> SocketOutcome {
        // The final drain writes the edge backlog off; that is intended.
        let _ = self.client.drain();
        let client = self.client.stats();
        self.client.goodbye();
        let report = self.server.shutdown();
        let consumer = self
            .consumer
            .join()
            .expect("the consumer thread does not panic");
        SocketOutcome {
            report,
            client,
            consumer,
            attempted: self.attempted,
            submitted: self.submitted,
            withheld: self.withheld,
            failed: self.failed,
            rec: self.rec,
            send_log: self.send_log,
        }
    }
}

impl Rig for SocketRig {
    #[inline]
    fn op(&mut self, hist: &mut Hist) {
        let b = self.attempted;
        self.attempted += 1;
        if withheld(self.overload, b, self.client.pressure()) {
            self.withheld += 1;
            return;
        }
        self.rec.begin_op(b);
        self.rec.enter(self.generate);
        self.gen.fill(&mut self.entries);
        self.rec.exit(BATCH as u64);
        while self.admitted - self.transmitted.load(Ordering::Relaxed) > (RING / 2) as u64 {
            std::thread::sleep(IDLE_SLEEP);
        }
        let sent = Instant::now();
        self.rec.enter(self.submit);
        let outcome = self.client.submit(&self.entries);
        self.rec.exit(BATCH as u64);
        hist.record(sent.elapsed().as_nanos() as u64);
        self.submitted += 1;
        match outcome {
            Ok(o) => self.admitted += u64::from(o.admitted),
            Err(_) => self.failed += 1,
        }
        if self.submitted.is_multiple_of(LOG_EVERY)
            && self.send_log.len() < self.send_log.capacity()
        {
            let at = sent.duration_since(self.epoch).as_nanos() as u64;
            self.send_log.push((at, self.admitted));
        }
    }

    fn packets(&self) -> u64 {
        self.transmitted.load(Ordering::Relaxed)
    }
}

/// What the in-process replay of a run's batches produced.
struct ReplayOutcome {
    offered: u64,
    served: u64,
    per_slot_served: Vec<u64>,
    ledger: LossLedger,
    /// Backlog left in the gate: what the final drain writes off.
    backlog: u64,
    backlog_hwm: usize,
    /// Packets shed from streams whose window tolerates no loss.
    protected_sheds: u64,
    throttle_replies: u64,
    withheld: u64,
    submitted: u64,
    wire_bytes: u64,
    /// Frames that did not decode to what was encoded, and ring refusals.
    faults: u64,
    /// The replay's fabric and transmitter, and the recorder of every
    /// layer's spans.
    es: Endsystem,
}

/// Pushes the batches of `attempts` ops through the same public calls
/// the server, ring and consumer make, on this thread. `full = false`
/// runs the gate alone (the reference for the ledger); `full = true`
/// runs every layer, with a span per layer per batch when `rec` records.
fn replay(overload: bool, seed: u64, attempts: u64, full: bool, rec: Recorder) -> ReplayOutcome {
    let cfg = ingress_config(overload);
    let win = windows(overload);
    let mut gate = EdgeGate::new(
        &win,
        cfg.rate_mtok,
        cfg.burst_mtok,
        RedConfig::classic(cfg.edge_capacity),
        cfg.red_seed,
    );
    // One recorder for every layer: the endsystem owns it.
    let mut es = Endsystem::new(overload, rec);
    let rec = &mut es.rec;
    let (generate, encode, decode) = (rec.kind(GENERATE), rec.kind(ENCODE), rec.kind(DECODE));
    let (offer, serve, ring_push) = (rec.kind(OFFER), rec.kind(SERVE), rec.kind(RING_PUSH));
    let (mut ring_tx, mut ring_rx) = spsc_ring::<IngressArrival>(RING);
    let (mut server_dec, mut client_dec) = (FrameDecoder::new(16 * 1024), FrameDecoder::new(1024));
    let mut gen = BatchGen::new(seed);
    let mut entries = Vec::with_capacity(BATCH);
    let mut decoded: Vec<IngressArrival> = Vec::with_capacity(BATCH);
    let mut served: Vec<IngressArrival> = Vec::with_capacity(cfg.service_per_batch);
    let (mut wire, mut ack) = (Vec::with_capacity(512), Vec::with_capacity(64));
    let (mut pressure, mut seq) = (0u8, 1u64);
    let (mut skipped, mut throttle_replies, mut wire_bytes, mut faults) = (0u64, 0u64, 0u64, 0u64);
    let mut backlog_hwm = 0usize;

    for b in 0..attempts {
        if withheld(overload, b, pressure) {
            skipped += 1;
            continue;
        }
        let rec = &mut es.rec;
        rec.begin_op(b);
        rec.enter(generate);
        gen.fill(&mut entries);
        rec.exit(BATCH as u64);
        decoded.clear();
        if full {
            rec.enter(encode);
            wire.clear();
            encode_submit(&mut wire, seq, &entries);
            rec.exit(BATCH as u64);
            rec.enter(decode);
            let pushed = server_dec.push(&wire).is_ok();
            match server_dec.next() {
                Ok(Some(Frame::Submit(view))) if pushed && view.batch_seq == seq => {
                    decoded.extend(view.iter().map(|e| IngressArrival {
                        slot: e.slot,
                        tag: e.tag,
                    }));
                }
                _ => faults += 1,
            }
            rec.exit(BATCH as u64);
        } else {
            decoded.extend(
                entries
                    .iter()
                    .map(|&(slot, tag)| IngressArrival { slot, tag }),
            );
        }
        rec.enter(offer);
        let mut admitted = 0u32;
        for &a in &decoded {
            admitted += u32::from(gate.offer(a) == EdgeVerdict::Admitted);
        }
        rec.exit(BATCH as u64);
        backlog_hwm = backlog_hwm.max(gate.backlog_len());
        rec.enter(serve);
        served.clear();
        for _ in 0..cfg.service_per_batch {
            let Some(a) = gate.pop_backlog() else { break };
            gate.mark_served(a.slot as usize);
            served.push(a);
        }
        gate.tick();
        pressure = gate.reply_code();
        rec.exit(BATCH as u64);
        throttle_replies += u64::from(pressure > 0);
        if full {
            rec.enter(ring_push);
            for &a in &served {
                faults += u64::from(ring_tx.push(a).is_err());
            }
            rec.exit(BATCH as u64);
            // The ack's encode and decode join the frame layer's totals
            // without counting the batch's packets twice.
            rec.enter(encode);
            ack.clear();
            encode_submit_ack(&mut ack, seq, pressure, admitted, BATCH as u32 - admitted);
            rec.exit(0);
            rec.enter(decode);
            let pushed = client_dec.push(&ack).is_ok();
            let acked = matches!(
                client_dec.next(),
                Ok(Some(Frame::SubmitAck { acked_seq, .. })) if acked_seq == seq
            );
            faults += u64::from(!(pushed && acked));
            rec.exit(0);
            wire_bytes += (wire.len() + ack.len()) as u64;
            es.drain(&mut ring_rx);
        }
        seq += 1;
    }
    let protected_sheds = win
        .iter()
        .enumerate()
        .filter(|(_, w)| w.num == 0)
        .map(|(s, _)| gate.sheds_for(s))
        .sum();
    ReplayOutcome {
        offered: gate.offered(),
        served: gate.served(),
        per_slot_served: gate.served_per_slot().to_vec(),
        ledger: *gate.ledger(),
        backlog: gate.backlog_len() as u64,
        backlog_hwm,
        protected_sheds,
        throttle_replies,
        withheld: skipped,
        submitted: seq - 1,
        wire_bytes,
        faults: faults + es.faults,
        es,
    }
}

/// The output checks of one socket run against its replay.
fn check(run: &SocketOutcome, reference: &ReplayOutcome, overload: bool, checks: &mut Checks) {
    let totals = &run.report.totals;
    let es = &run.consumer.es;
    checks.fail_ops(run.failed, "submits returned an error");
    checks.fail_ops(
        totals.loss.ring,
        "packets lost at the ring or the full edge buffer",
    );
    checks.fail_ops(
        reference.protected_sheds,
        "packets shed from a stream whose window tolerates no loss",
    );
    checks.fail_ops(
        es.faults + reference.faults,
        "faults in the fabric or the replay",
    );
    checks.require(run.report.conserved && !run.report.timed_out, || {
        format!(
            "drain: conserved {} timed_out {}",
            run.report.conserved, run.report.timed_out
        )
    });
    checks.require(
        totals.served + totals.loss.total() == totals.offered,
        || format!("served + losses != offered: {totals:?}"),
    );
    checks.require(es.transmitted == totals.served, || {
        format!("transmitted {} != served {}", es.transmitted, totals.served)
    });
    checks.require(es.per_slot[..] == totals.per_slot_served[..], || {
        "per-slot transmitted != per-slot served".to_string()
    });
    checks.require(
        totals.duplicate_batches == 0 && run.client.reconnects == 0,
        || {
            format!(
                "{} duplicate batches, {} reconnects on a quiet link",
                totals.duplicate_batches, run.client.reconnects
            )
        },
    );
    // Drain write-offs are the final drain's and nothing else.
    let replayed = (
        reference.offered,
        reference.served,
        &reference.per_slot_served,
        reference.ledger.admission,
        reference.ledger.shed,
        reference.ledger.ring,
        reference.backlog,
        reference.throttle_replies,
        reference.withheld,
        reference.submitted,
    );
    let measured = (
        totals.offered,
        totals.served,
        &totals.per_slot_served,
        totals.loss.admission,
        totals.loss.shed,
        totals.loss.ring,
        totals.loss.drain,
        totals.throttle_replies,
        run.withheld,
        run.submitted,
    );
    checks.require(replayed == measured, || {
        format!("replay {replayed:?} != socket run {measured:?}")
    });
    if !overload {
        checks.require(totals.served == run.submitted * BATCH as u64, || {
            format!(
                "pipeline delivered {} of {}",
                totals.served,
                run.submitted * BATCH as u64
            )
        });
    }
}

/// Folds the run's exact outputs — the server's fingerprint of every
/// batch's entries and verdicts, and the per-slot transmit counts.
fn digest(run: &SocketOutcome) -> u64 {
    run.consumer
        .es
        .per_slot
        .iter()
        .fold(run.report.totals.reply_fingerprint, |h, &n| mix(h ^ n))
}

fn delivered_share(run: &SocketOutcome) -> f64 {
    run.consumer.es.transmitted as f64 / run.report.totals.offered.max(1) as f64
}

/// Time from a batch's send to the transmit of its last admitted packet,
/// joined from the client's and the consumer's logs; ns.
fn submit_to_transmit(send_log: &[(u64, u64)], consumer_log: &[(u64, u64)]) -> Vec<f64> {
    let mut out = Vec::with_capacity(send_log.len());
    let mut c = 0usize;
    for &(sent, admitted) in send_log {
        while c < consumer_log.len() && consumer_log[c].1 < admitted {
            c += 1;
        }
        let Some(&(done, _)) = consumer_log.get(c) else {
            break;
        };
        out.push(done.saturating_sub(sent) as f64);
    }
    out
}

/// Runs `loopback_pipeline` (`overload = false`) or `loopback_overload`.
pub fn run(overload: bool, opts: RunOptions) -> RunResult {
    let workload = if overload {
        crate::Workload::LoopbackOverload
    } else {
        crate::Workload::LoopbackPipeline
    };
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let ops_per_slice = opts.scaled(OPS_PER_SLICE);
    let epoch = Instant::now();
    if !opts.trace {
        let (mut rig, setup_s) = setup_best(
            || SocketRig::new(overload, &opts, false, epoch),
            |rig| drop(rig.finish()),
        );
        let t = measure(&mut rig, ops_per_slice, opts.budget);
        let outcome = rig.finish();
        let reference = replay(
            overload,
            opts.seed,
            outcome.attempted,
            false,
            Recorder::disabled(),
        );
        check(&outcome, &reference, overload, &mut checks);
        let metrics = end_to_end(setup_s, &t, delivered_share(&outcome), &mut notes);
        return checks.into_result(t.ops, metrics, notes, digest(&outcome));
    }

    // Traced run: an untraced reference pass, (a) the socket run with
    // spans on the client and the consumer, (b) the full replay of (a)'s
    // batches with a span per layer.
    let mut plain = SocketRig::new(overload, &opts, false, epoch);
    let untraced = measure(&mut plain, ops_per_slice, opts.budget.share(0.25));
    drop(plain.finish());
    let mut rig = SocketRig::new(overload, &opts, true, epoch);
    let t: Timed = measure(&mut rig, ops_per_slice, opts.budget.share(0.35));
    let a = rig.finish();
    let b = replay(
        overload,
        opts.seed,
        a.attempted,
        true,
        Recorder::new(epoch, 3, true),
    );
    check(&a, &b, overload, &mut checks);
    checks.require(
        b.es.transmitted == a.consumer.es.transmitted && b.es.per_slot == a.consumer.es.per_slot,
        || "the replay's transmitter did not see what the socket run's did".to_string(),
    );

    let totals = &a.report.totals;
    let offered = totals.offered.max(1) as f64;
    let mut m = Metrics::new(PER_LAYER);
    for (name, span) in [
        ("ingress.frame.encode_ns_per_pkt", ENCODE),
        ("ingress.frame.decode_ns_per_pkt", DECODE),
        ("ingress.gate.offer_ns_per_pkt", OFFER),
        ("ingress.gate.serve_ns_per_pkt", SERVE),
        ("endsystem.tx.transmit_ns_per_pkt", TRANSMIT),
        ("core.fabric.push_arrival_ns_per_pkt", PUSH_ARRIVAL),
        ("core.fabric.decision_ns_per_pkt.wr8", DECIDE),
    ] {
        let total = b.es.rec.total(span);
        m.set(name, total.self_ns_per_item(), total.calls);
    }
    m.set(
        "endsystem.spsc.push_pop_ns_per_pkt",
        (b.es.rec.total(RING_PUSH).self_ns + b.es.rec.total(RING_POP).self_ns) as f64
            / b.served.max(1) as f64,
        b.es.rec.total(RING_PUSH).calls,
    );
    m.set(
        "ingress.frame.wire_bytes_per_pkt",
        b.wire_bytes as f64 / offered,
        0,
    );
    let lost = totals.loss.admission + totals.loss.shed + totals.loss.ring;
    m.set(
        "ingress.gate.admitted_share",
        1.0 - lost as f64 / offered,
        0,
    );
    m.set(
        "ingress.gate.admission_refused_share",
        totals.loss.admission as f64 / offered,
        0,
    );
    m.set(
        "ingress.gate.shed_share",
        totals.loss.shed as f64 / offered,
        0,
    );
    m.set("ingress.gate.backlog_hwm", b.backlog_hwm as f64, 0);

    let rtt_p50 = t.best_p50_ns();
    m.set(
        "ingress.socket.rtt_us_p50",
        rtt_p50 / 1e3,
        t.slices.len() as u64,
    );
    m.set(
        "ingress.socket.rtt_us_p99",
        t.hist.tail(0.99).unwrap_or(0.0) / 1e3,
        t.hist.count(),
    );
    let self_ns = |names: &[&str]| -> f64 {
        names.iter().map(|n| b.es.rec.total(n).self_ns).sum::<u64>() as f64
    };
    let critical_per_pkt = self_ns(&CRITICAL_PATH) / offered;
    m.set(
        "ingress.socket.self_ns_per_pkt",
        rtt_p50 / BATCH as f64 - critical_per_pkt,
        t.hist.count(),
    );
    // How many times longer a packet's share of an op takes over the
    // socket than the same layers take in process.
    m.set(
        "ingress.socket.tax_ratio",
        rtt_p50 / BATCH as f64 / critical_per_pkt.max(f64::MIN_POSITIVE),
        t.hist.count(),
    );
    m.set(
        "ingress.server.throttle_reply_share",
        totals.throttle_replies as f64 / a.submitted.max(1) as f64,
        a.submitted,
    );
    m.set(
        "ingress.client.holdback_share",
        a.withheld as f64 / a.attempted.max(1) as f64,
        a.attempted,
    );
    m.set(
        "ingress.server.duplicate_batches",
        totals.duplicate_batches as f64,
        0,
    );
    m.set("ingress.client.reconnects", a.client.reconnects as f64, 0);

    let mut latencies = submit_to_transmit(&a.send_log, &a.consumer.log);
    let joined = latencies.len() as u64;
    m.set(
        "pipeline.submit_to_transmit_us_p50",
        stats::percentile(&mut latencies, 0.5).unwrap_or(0.0) / 1e3,
        joined,
    );
    m.set(
        "pipeline.submit_to_transmit_us_p99",
        stats::tail(&mut latencies, 0.99).unwrap_or(0.0) / 1e3,
        joined,
    );
    m.set(
        "endsystem.spsc.ring_hwm",
        a.consumer.ring_hwm as f64,
        a.consumer.ring.pushes,
    );
    m.set(
        "endsystem.spsc.rejections",
        a.consumer.ring.rejections as f64,
        0,
    );
    m.set("endsystem.spsc.ring_loss", totals.loss.ring as f64, 0);
    let generated = a.rec.total(GENERATE);
    m.set(
        "harness.generator_ns_per_pkt",
        generated.self_ns_per_item(),
        generated.calls,
    );

    notes.push(format!(
        "op p50 {:.0} ns = {} x ({:.1} socket self + {:.1} replayed layers) ns/pkt; \
         consumer-side layers {:.1} ns/pkt run off the client's critical path",
        rtt_p50,
        BATCH,
        rtt_p50 / BATCH as f64 - critical_per_pkt,
        critical_per_pkt,
        self_ns(&CONSUMER_SIDE) / b.es.transmitted.max(1) as f64,
    ));
    notes.push(format!(
        "untraced pass: op p50 {:.0} ns, {:.0} pkt/s; traced pass: {:.0} pkt/s",
        untraced.best_p50_ns(),
        untraced.best_rate(),
        t.best_rate(),
    ));
    notes.push(write_trace(
        workload,
        opts.seed,
        &[&a.rec, &a.consumer.es.rec, &b.es.rec],
    ));
    let metrics = finish_per_layer(m, &checks, &untraced, &t);
    checks.into_result(t.ops, metrics, notes, digest(&a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_join_pairs_each_send_with_the_first_covering_pass() {
        let sends = [(100, 32), (200, 64), (300, 96), (400, 128)];
        let passes = [(150, 40), (350, 100)];
        // 32 ≤ 40 at t=150; 64 and 96 ≤ 100 at t=350; 128 never covered.
        assert_eq!(submit_to_transmit(&sends, &passes), vec![50.0, 150.0, 50.0]);
        assert!(submit_to_transmit(&sends, &[]).is_empty());
    }

    #[test]
    fn generator_repeats_per_seed_and_differs_across_seeds() {
        let batch = |seed| {
            let mut e = Vec::new();
            BatchGen::new(seed).fill(&mut e);
            e
        };
        assert_eq!(batch(7), batch(7));
        assert_ne!(batch(7), batch(8));
        assert!(batch(7).iter().all(|&(slot, _)| (slot as usize) < SLOTS));
        assert_eq!(batch(7).len(), BATCH);
    }

    #[test]
    fn gate_only_and_full_replay_agree() {
        for overload in [false, true] {
            let gate = replay(overload, 3, 400, false, Recorder::disabled());
            let full = replay(overload, 3, 400, true, Recorder::disabled());
            assert_eq!(
                (gate.offered, gate.served, gate.ledger, gate.withheld),
                (full.offered, full.served, full.ledger, full.withheld)
            );
            assert_eq!(full.es.transmitted, full.served);
            assert_eq!(full.faults + gate.faults + gate.protected_sheds, 0);
            assert_eq!(overload, gate.ledger.total() > 0);
        }
    }
}
