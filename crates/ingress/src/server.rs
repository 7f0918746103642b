//! The ingress TCP server: listener, per-connection reader threads, the
//! shared edge core, and the graceful-drain state machine.
//!
//! # Threading model
//!
//! One accept loop, blocked in `accept()` until a peer or the stopping
//! dial arrives, plus one blocking-with-timeout reader thread per
//! connection, all [`ss_endsystem::Worker`]s. Readers decode frames from
//! a bounded [`FrameDecoder`] and funnel every protocol action through the
//! single [`Mutex`]-guarded edge core, so the [`EdgeGate`] observes one
//! globally serialized arrival sequence — which is what makes chaos-soak
//! replays bit-identical.
//!
//! # Connection lifecycle
//!
//! A connection must HELLO within `hello_deadline` and show bytes at
//! least every `idle_timeout`; a peer that trickles a partial frame and
//! stalls (slowloris) is evicted on the same clock. Every decode error is
//! typed ([`crate::frame::FrameError`]) and evicts; nothing panics on
//! wire input.
//!
//! # Graceful drain
//!
//! A client DRAIN frame or [`IngressServer::shutdown`] flips the edge's
//! draining flag: the edge backlog is written off at
//! [`ss_overload::LossSite::Drain`], and late SUBMITs are acked but
//! written off — conservation stays exact through the teardown. A client
//! DRAIN does not stop the accept loop: new connections are still
//! accepted. Only `shutdown` (and dropping the server) stops it;
//! `shutdown` then waits for the readers, and if any is still alive at
//! `drain_deadline` it hard-stops them and auto-dumps the flight recorder
//! with [`DumpReason::DrainTimeout`].

use crate::frame::{self, Frame, FrameDecoder};
use crate::gate::{EdgeGate, EdgeVerdict, IngressArrival};
use serde::Serialize;
use ss_endsystem::{spsc_ring, Consumer, Producer, RedConfig, Worker};
use ss_faults::rng::mix;
use ss_faults::{FaultInjector, FaultKind, FaultSite};
use ss_overload::{LossLedger, SharedPressure};
use ss_telemetry::{DumpReason, SharedFlightRecorder, Stage};
use ss_types::WindowConstraint;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning for the ingress server.
#[derive(Debug, Clone)]
pub struct IngressConfig {
    /// Concurrent connection cap; further accepts are refused.
    pub max_connections: usize,
    /// Per-connection decode buffer (bounds memory per peer and the
    /// largest reassemblable frame).
    pub decode_buffer: usize,
    /// A connection must HELLO within this much of accept time.
    pub hello_deadline: Duration,
    /// A connection showing no bytes for this long is evicted — this is
    /// also the slowloris bound (a stalled partial frame counts as idle).
    pub idle_timeout: Duration,
    /// Reader poll quantum (socket read timeout between liveness checks).
    pub read_poll: Duration,
    /// Socket write timeout for replies.
    pub write_timeout: Duration,
    /// How long `shutdown` waits for readers before hard-stopping and
    /// auto-dumping the flight recorder.
    pub drain_deadline: Duration,
    /// Backlog entries served (popped toward the endsystem) per SUBMIT.
    pub service_per_batch: usize,
    /// Edge backlog (RED queue) capacity.
    pub edge_capacity: usize,
    /// Admission token rate, millitokens per tick.
    pub rate_mtok: u32,
    /// Admission bucket burst depth, millitokens.
    pub burst_mtok: u32,
    /// Seed for the RED front end's drop randomness.
    pub red_seed: u64,
}

impl Default for IngressConfig {
    fn default() -> Self {
        Self {
            max_connections: 16,
            decode_buffer: 16 * 1024,
            hello_deadline: Duration::from_millis(500),
            idle_timeout: Duration::from_secs(2),
            read_poll: Duration::from_millis(10),
            write_timeout: Duration::from_secs(1),
            drain_deadline: Duration::from_secs(2),
            service_per_batch: 8,
            edge_capacity: 256,
            rate_mtok: 1000,
            burst_mtok: 2000,
            red_seed: 0x5EED_0001,
        }
    }
}

/// Where admitted packets go after the edge backlog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeMode {
    /// Served packets are counted at the gate only — the fully
    /// deterministic mode the chaos soak replays.
    Deterministic,
    /// Served packets are pushed into an endsystem SPSC ring of this
    /// capacity; take the consumer with [`IngressServer::take_consumer`].
    /// A full ring records [`ss_overload::LossSite::Ring`].
    Ring {
        /// Ring capacity (rounded up to a power of two).
        capacity: usize,
    },
}

/// Aggregate server counters — the deterministic subset feeds the chaos
/// soak's replay fingerprint.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IngressTotals {
    /// Connections accepted and handed to a reader.
    pub connections: u64,
    /// Connections refused at the edge (cap reached, or no reader thread).
    pub refused_connections: u64,
    /// Frames decoded and handled.
    pub frames: u64,
    /// Typed wire-decode failures (each evicts its connection).
    pub decode_errors: u64,
    /// Protocol-order violations (frame before HELLO, unregistered slot,
    /// server-bound ack types).
    pub protocol_errors: u64,
    /// Connections evicted (timeouts, decode errors, protocol errors).
    pub evictions: u64,
    /// SUBMIT batches deduplicated by sequence (reconnect resubmissions).
    pub duplicate_batches: u64,
    /// Accepted sockets dropped by an injected `AcceptFail` fault.
    pub accept_faults: u64,
    /// SUBMIT_ACKs that carried a nonzero backpressure code.
    pub throttle_replies: u64,
    /// Packets offered to the edge gate (late write-offs included).
    pub offered: u64,
    /// Packets served out of the edge backlog.
    pub served: u64,
    /// Served counts per stream slot.
    pub per_slot_served: Vec<u64>,
    /// The exact loss partition.
    pub loss: LossLedger,
    /// Folded fingerprint of every fresh batch's entries, verdicts, and
    /// reply code — bit-identical across replays of the same seed.
    pub reply_fingerprint: u64,
    /// Packets written off at the drain cutoff (backlog flush plus late
    /// arrivals).
    pub drain_writeoffs: u64,
}

/// Outcome of a graceful [`IngressServer::shutdown`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DrainReport {
    /// Whether the drain deadline expired with readers still alive (a
    /// flight-recorder dump was taken if a recorder was attached).
    pub timed_out: bool,
    /// Packets written off unserved by the drain (also in `totals`).
    pub written_off: u64,
    /// Final counters.
    pub totals: IngressTotals,
    /// Whether the conservation identity held at teardown:
    /// served + losses == offered with an empty backlog.
    pub conserved: bool,
}

/// Per-slot registration state.
#[derive(Debug, Clone, Copy)]
struct SlotReg {
    epoch: u32,
}

/// Everything the reader threads share, behind one mutex.
struct EdgeCore {
    gate: EdgeGate,
    slots: Vec<Option<SlotReg>>,
    /// client_id → highest batch sequence processed (the dedup line).
    clients: BTreeMap<u64, u64>,
    out: Option<Producer<IngressArrival>>,
    recorder: Option<Arc<SharedFlightRecorder>>,
    draining: bool,
    connections: u64,
    refused: u64,
    frames: u64,
    decode_errors: u64,
    protocol_errors: u64,
    evictions: u64,
    duplicates: u64,
    accept_faults: u64,
    throttle_replies: u64,
    reply_fingerprint: u64,
    drain_writeoffs: u64,
}

impl EdgeCore {
    fn totals(&self) -> IngressTotals {
        IngressTotals {
            connections: self.connections,
            refused_connections: self.refused,
            frames: self.frames,
            decode_errors: self.decode_errors,
            protocol_errors: self.protocol_errors,
            evictions: self.evictions,
            duplicate_batches: self.duplicates,
            accept_faults: self.accept_faults,
            throttle_replies: self.throttle_replies,
            offered: self.gate.offered(),
            served: self.gate.served(),
            per_slot_served: self.gate.served_per_slot().to_vec(),
            loss: *self.gate.ledger(),
            reply_fingerprint: self.reply_fingerprint,
            drain_writeoffs: self.drain_writeoffs,
        }
    }

    /// Flushes the edge backlog at the drain site and logs a control
    /// event so a post-drain flight dump is never empty.
    fn drain_cutoff(&mut self) -> u64 {
        self.draining = true;
        let n = self.gate.drain_write_off();
        self.drain_writeoffs += n;
        if let Some(rec) = &self.recorder {
            rec.record_control(self.gate.served(), 0, Stage::DrainWriteOff, 0, n as u32);
        }
        n
    }
}

/// Locks the core, recovering from a poisoned mutex (a panicked reader
/// must not wedge the drain path — counters stay usable).
fn lock_core(core: &Mutex<EdgeCore>) -> MutexGuard<'_, EdgeCore> {
    core.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What the reader does after handling one frame.
enum Step {
    Continue,
    /// Orderly close (GOODBYE).
    Close,
    /// Eviction — counters already updated by the handler.
    Evict,
}

/// What the server, its accept loop and every reader share.
struct Shared {
    core: Mutex<EdgeCore>,
    /// Raised before the wake-up dial: the accept loop stops.
    draining: AtomicBool,
    /// Raised at the drain deadline or on drop: readers stop.
    hard_stop: AtomicBool,
    /// Readers alive.
    live: AtomicUsize,
}

/// The ingress TCP server handle.
pub struct IngressServer {
    addr: SocketAddr,
    cfg: IngressConfig,
    shared: Arc<Shared>,
    /// The accept loop, which hands back its readers; `None` once stopped.
    accept: Option<Worker<Vec<Worker<()>>>>,
    consumer: Option<Consumer<IngressArrival>>,
    recorder: Option<Arc<SharedFlightRecorder>>,
    shared_pressure: Arc<SharedPressure>,
    /// Wake-up dials that fail before any is made, as one would out of
    /// descriptors.
    #[cfg(test)]
    failing_dials: u32,
}

impl IngressServer {
    /// Binds a loopback listener and starts the accept loop.
    ///
    /// `injector` drives server-side socket faults (one keyed draw per
    /// accepted connection; an `AcceptFail` draw drops the socket).
    /// `recorder`, when given, receives drain/panic auto-dumps.
    ///
    /// # Errors
    ///
    /// Propagates listener bind/configuration failures.
    pub fn start(
        cfg: IngressConfig,
        windows: &[WindowConstraint],
        mode: EdgeMode,
        injector: Arc<FaultInjector>,
        recorder: Option<Arc<SharedFlightRecorder>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;

        let gate = EdgeGate::new(
            windows,
            cfg.rate_mtok,
            cfg.burst_mtok,
            RedConfig::classic(cfg.edge_capacity),
            cfg.red_seed,
        );
        let shared_pressure = gate.shared_pressure();
        let (out, consumer) = match mode {
            EdgeMode::Deterministic => (None, None),
            EdgeMode::Ring { capacity } => {
                let (p, c) = spsc_ring(capacity);
                (Some(p), Some(c))
            }
        };
        if let Some(rec) = &recorder {
            ss_telemetry::install_panic_hook(rec);
        }
        let core = Mutex::new(EdgeCore {
            gate,
            slots: vec![None; windows.len()],
            clients: BTreeMap::new(),
            out,
            recorder: recorder.clone(),
            draining: false,
            connections: 0,
            refused: 0,
            frames: 0,
            decode_errors: 0,
            protocol_errors: 0,
            evictions: 0,
            duplicates: 0,
            accept_faults: 0,
            throttle_replies: 0,
            reply_fingerprint: 0,
            drain_writeoffs: 0,
        });
        let shared = Arc::new(Shared {
            core,
            draining: AtomicBool::new(false),
            hard_stop: AtomicBool::new(false),
            live: AtomicUsize::new(0),
        });
        let accept = {
            let (cfg, shared) = (cfg.clone(), Arc::clone(&shared));
            Worker::spawn("ss-ingress-accept", move || {
                accept_loop(&listener, &cfg, &shared, &injector)
            })?
        };

        Ok(Self {
            addr,
            cfg,
            shared,
            accept: Some(accept),
            consumer,
            recorder,
            shared_pressure,
            #[cfg(test)]
            failing_dials: 0,
        })
    }

    /// The bound loopback address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Takes the endsystem-side consumer (Ring mode only; `None` in
    /// Deterministic mode or if already taken).
    pub fn take_consumer(&mut self) -> Option<Consumer<IngressArrival>> {
        self.consumer.take()
    }

    /// The gate's published pressure level, readable from any thread.
    pub fn shared_pressure(&self) -> Arc<SharedPressure> {
        Arc::clone(&self.shared_pressure)
    }

    /// A snapshot of the aggregate counters.
    pub fn totals(&self) -> IngressTotals {
        lock_core(&self.shared.core).totals()
    }

    /// Graceful drain: stop accepting, flush the backlog to the drain
    /// ledger site, wait for readers up to `drain_deadline`, hard-stop
    /// and auto-dump the flight recorder on timeout, then report.
    pub fn shutdown(mut self) -> DrainReport {
        let readers = self.stop_accepting();
        lock_core(&self.shared.core).drain_cutoff();

        let deadline = Instant::now() + self.cfg.drain_deadline;
        while self.shared.live.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        let timed_out = self.shared.live.load(Ordering::Acquire) > 0;
        if timed_out {
            self.shared.hard_stop.store(true, Ordering::Release);
            if let Some(rec) = &self.recorder {
                let c = lock_core(&self.shared.core);
                let (served, live) = (c.gate.served(), self.shared.live.load(Ordering::Acquire));
                rec.record_control(served, 0, Stage::DrainWriteOff, 1, live as u32);
                drop(c);
                rec.auto_dump(DumpReason::DrainTimeout, served);
            }
        }
        // Hard-stopped readers notice within a read poll; every one is
        // joined, and a panic in any of them is dumped.
        let panicked = readers
            .into_iter()
            .map(Worker::join)
            .filter(Result::is_err)
            .count();
        if panicked > 0 {
            if let Some(rec) = &self.recorder {
                rec.auto_dump(DumpReason::Panic, 0);
            }
        }

        let mut c = lock_core(&self.shared.core);
        // Catch packets admitted between the cutoff and reader exit.
        let late = c.gate.drain_write_off();
        c.drain_writeoffs += late;
        c.out = None; // disconnect the ring so the consumer can finish
        let totals = c.totals();
        let conserved = c.gate.conserves();
        let written_off = c.drain_writeoffs;
        drop(c);
        DrainReport {
            timed_out,
            written_off,
            totals,
            conserved,
        }
    }

    /// Raises `draining`, dials the blocked `accept()` awake (never booked
    /// as a peer) until the loop has ended — a dial can fail, out of
    /// descriptors say — and joins it: its readers, if it still ran.
    fn stop_accepting(&mut self) -> Vec<Worker<()>> {
        let Some(accept) = self.accept.take() else {
            return Vec::new();
        };
        self.shared.draining.store(true, Ordering::Release);
        let mut pause = Duration::from_micros(50);
        while !accept.is_finished() {
            self.dial_accept();
            thread::sleep(pause);
            pause = (pause * 2).min(Duration::from_millis(20));
        }
        accept.join().unwrap_or_default()
    }

    /// One wake-up dial; whether it connected shows in the loop ending.
    fn dial_accept(&mut self) {
        #[cfg(test)]
        if self.failing_dials > 0 {
            self.failing_dials -= 1;
            return;
        }
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for IngressServer {
    /// Without [`IngressServer::shutdown`]: stop accepting, hard-stop and
    /// join the readers, so no thread outlives the server. Nothing drains.
    fn drop(&mut self) {
        let readers = self.stop_accepting();
        self.shared.hard_stop.store(true, Ordering::Release);
        readers.into_iter().for_each(|reader| drop(reader.join()));
    }
}

fn accept_loop(
    listener: &TcpListener,
    cfg: &IngressConfig,
    shared: &Arc<Shared>,
    injector: &FaultInjector,
) -> Vec<Worker<()>> {
    let (core, live) = (&shared.core, &shared.live);
    let mut readers = Vec::new();
    loop {
        let accepted = listener.accept();
        // Checked after every return from `accept()`: the stopping dial
        // lands here, and so does any peer that raced it.
        if shared.draining.load(Ordering::Acquire) {
            break;
        }
        match accepted {
            Ok((sock, _peer)) => {
                if live.load(Ordering::Acquire) >= cfg.max_connections {
                    lock_core(core).refused += 1;
                    continue;
                }
                // One keyed draw per accepted connection: an AcceptFail
                // kills the socket before a reader ever starts; other
                // kinds are client-side behaviors and are no-ops here.
                if matches!(
                    injector.sample(FaultSite::Socket),
                    Some(FaultKind::AcceptFail)
                ) {
                    lock_core(core).accept_faults += 1;
                    continue;
                }
                lock_core(core).connections += 1;
                live.fetch_add(1, Ordering::AcqRel);
                let (reader_cfg, reader_shared) = (cfg.clone(), Arc::clone(shared));
                let spawned = Worker::spawn("ss-ingress-reader", move || {
                    run_reader(sock, &reader_cfg, &reader_shared);
                });
                match spawned {
                    Ok(reader) => readers.push(reader),
                    Err(_) => {
                        live.fetch_sub(1, Ordering::AcqRel);
                        lock_core(core).refused += 1;
                    }
                }
            }
            // Interrupted, out of descriptors or the like: look again a
            // little later.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
    readers
}

fn run_reader(mut sock: TcpStream, cfg: &IngressConfig, shared: &Shared) {
    let core = &shared.core;
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(Some(cfg.read_poll));
    let _ = sock.set_write_timeout(Some(cfg.write_timeout));
    let mut dec = FrameDecoder::new(cfg.decode_buffer);
    let mut reply = Vec::with_capacity(256);
    let mut client_id: Option<u64> = None;
    let accepted_at = Instant::now();
    let mut last_activity = Instant::now();
    let mut buf = [0u8; 4096];

    'conn: loop {
        if shared.hard_stop.load(Ordering::Acquire) {
            break;
        }
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                last_activity = Instant::now();
                if dec.push(&buf[..n]).is_err() {
                    let mut c = lock_core(core);
                    c.decode_errors += 1;
                    c.evictions += 1;
                    break;
                }
                loop {
                    reply.clear();
                    let step = match dec.next() {
                        Ok(None) => break,
                        Ok(Some(f)) => handle_frame(f, &mut client_id, core, cfg, &mut reply),
                        Err(_e) => {
                            let mut c = lock_core(core);
                            c.decode_errors += 1;
                            c.evictions += 1;
                            Step::Evict
                        }
                    };
                    if !reply.is_empty() && sock.write_all(&reply).is_err() {
                        break 'conn;
                    }
                    match step {
                        Step::Continue => {}
                        Step::Close | Step::Evict => break 'conn,
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                let now = Instant::now();
                let hello_late =
                    client_id.is_none() && now.duration_since(accepted_at) >= cfg.hello_deadline;
                let idle = now.duration_since(last_activity) >= cfg.idle_timeout;
                if hello_late || idle {
                    // A stalled partial frame (slowloris) and a silent
                    // peer land here identically: evict on the clock.
                    let mut c = lock_core(core);
                    c.evictions += 1;
                    if dec.has_partial() {
                        c.protocol_errors += 1;
                    }
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    shared.live.fetch_sub(1, Ordering::AcqRel);
}

fn protocol_evict(c: &mut EdgeCore) -> Step {
    c.protocol_errors += 1;
    c.evictions += 1;
    Step::Evict
}

fn handle_frame(
    f: Frame<'_>,
    client_id: &mut Option<u64>,
    core: &Mutex<EdgeCore>,
    cfg: &IngressConfig,
    reply: &mut Vec<u8>,
) -> Step {
    let mut c = lock_core(core);
    c.frames += 1;
    match f {
        Frame::Hello { client_id: id } => {
            *client_id = Some(id);
            c.clients.entry(id).or_insert(0);
            let code = c.gate.reply_code();
            frame::encode_hello_ack(reply, code);
            Step::Continue
        }
        Frame::Register { slot, epoch } => {
            if client_id.is_none() {
                return protocol_evict(&mut c);
            }
            let n = c.gate.slots();
            if slot as usize >= n {
                return protocol_evict(&mut c);
            }
            let cur = c.slots[slot as usize];
            // Idempotent re-registration: the same or a newer epoch is
            // accepted (reconnects replay their registrations); only a
            // strictly older epoch is refused as stale.
            let accepted = cur.is_none_or(|r| epoch >= r.epoch);
            let on_record = if accepted {
                c.slots[slot as usize] = Some(SlotReg { epoch });
                epoch
            } else {
                cur.map_or(epoch, |r| r.epoch)
            };
            frame::encode_register_ack(reply, slot, on_record, accepted);
            Step::Continue
        }
        Frame::Submit(view) => {
            let Some(id) = *client_id else {
                return protocol_evict(&mut c);
            };
            let seq = view.batch_seq;
            let count = view.count();
            if c.draining {
                // Past the drain cutoff: ack (so a draining client is
                // not stuck resubmitting) but write the batch off.
                c.gate.write_off_late(count as u64);
                c.drain_writeoffs += count as u64;
                let prev = c.clients.entry(id).or_insert(0);
                if seq > *prev {
                    *prev = seq;
                }
                let code = c.gate.reply_code();
                frame::encode_submit_ack(reply, seq, code, 0, count as u32);
                return Step::Continue;
            }
            let last = c.clients.get(&id).copied().unwrap_or(0);
            if seq <= last {
                // Resubmission of an already-processed batch (the
                // reconnect path): exactly-once means ack, don't offer.
                c.duplicates += 1;
                let code = c.gate.reply_code();
                frame::encode_submit_ack(reply, last, code, 0, 0);
                return Step::Continue;
            }
            for e in view.iter() {
                let bad = e.slot as usize >= c.gate.slots() || c.slots[e.slot as usize].is_none();
                if bad {
                    return protocol_evict(&mut c);
                }
            }
            let mut admitted = 0u32;
            let mut rejected = 0u32;
            let mut fold = mix(seq ^ 0x9E37_79B9_7F4A_7C15);
            for e in view.iter() {
                let v = c.gate.offer(IngressArrival {
                    slot: e.slot,
                    tag: e.tag,
                });
                let vcode: u64 = match v {
                    EdgeVerdict::Admitted => 0,
                    EdgeVerdict::RejectedAdmission => 1,
                    EdgeVerdict::Shed => 2,
                    EdgeVerdict::Overflow => 3,
                };
                if vcode == 0 {
                    admitted += 1;
                } else {
                    rejected += 1;
                }
                fold = mix(fold ^ (u64::from(e.slot) << 24) ^ (u64::from(e.tag) << 8) ^ vcode);
            }
            let cr = &mut *c;
            for _ in 0..cfg.service_per_batch {
                let Some(a) = cr.gate.pop_backlog() else {
                    break;
                };
                match cr.out.as_mut() {
                    None => cr.gate.mark_served(a.slot as usize),
                    Some(p) => match p.push(a) {
                        Ok(()) => cr.gate.mark_served(a.slot as usize),
                        Err(_) => cr.gate.mark_ring_loss(),
                    },
                }
            }
            c.gate.tick();
            let code = c.gate.reply_code();
            if code > 0 {
                c.throttle_replies += 1;
            }
            c.reply_fingerprint = mix(c.reply_fingerprint
                ^ fold
                ^ (u64::from(code) << 56)
                ^ u64::from(admitted)
                ^ (u64::from(rejected) << 32));
            c.clients.insert(id, seq);
            frame::encode_submit_ack(reply, seq, code, admitted, rejected);
            Step::Continue
        }
        Frame::Drain => {
            if client_id.is_none() {
                return protocol_evict(&mut c);
            }
            let n = c.drain_cutoff();
            frame::encode_drain_ack(reply, n);
            Step::Continue
        }
        Frame::Goodbye => Step::Close,
        Frame::HelloAck { .. }
        | Frame::RegisterAck { .. }
        | Frame::SubmitAck { .. }
        | Frame::DrainAck { .. } => protocol_evict(&mut c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_faults::FaultConfig;

    fn quiet_injector() -> Arc<FaultInjector> {
        Arc::new(FaultInjector::new(1, FaultConfig::quiet()))
    }

    fn dial(addr: SocketAddr) -> TcpStream {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_millis(50)))
            .expect("timeout");
        s
    }

    fn read_one(sock: &mut TcpStream, dec: &mut FrameDecoder) -> Option<Vec<u8>> {
        // Returns the raw bytes of one reply frame re-encoded is overkill;
        // tests use the decoder directly below instead.
        let mut buf = [0u8; 1024];
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            match sock.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => {
                    dec.push(&buf[..n]).expect("push");
                    return Some(buf[..n].to_vec());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => return None,
            }
        }
        None
    }

    fn start_quiet() -> IngressServer {
        let windows = [WindowConstraint::new(3, 4)];
        IngressServer::start(
            IngressConfig::default(),
            &windows,
            EdgeMode::Deterministic,
            quiet_injector(),
            None,
        )
        .expect("start")
    }

    #[test]
    fn stopping_outlasts_failed_wake_up_dials() {
        // Each stop runs on its own thread, so a stop that hangs in
        // `accept()` fails the test instead of stalling it.
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let mut server = start_quiet();
            server.failing_dials = 3;
            tx.send(server.shutdown()).expect("the test is listening");
        });
        let report = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown returns");
        assert_eq!(report.totals.refused_connections, 0);
        assert!(report.conserved);

        let mut server = start_quiet();
        server.failing_dials = 3;
        let addr = server.addr();
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            drop(server);
            tx.send(()).expect("the test is listening");
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("drop returns");
        assert!(TcpStream::connect(addr).is_err(), "the listener is closed");
    }

    #[test]
    fn accepts_hello_and_reports_totals() {
        let windows = [WindowConstraint::new(3, 4)];
        let server = IngressServer::start(
            IngressConfig::default(),
            &windows,
            EdgeMode::Deterministic,
            quiet_injector(),
            None,
        )
        .expect("start");
        let mut sock = dial(server.addr());
        let mut out = Vec::new();
        frame::encode_hello(&mut out, 42);
        sock.write_all(&out).expect("write");
        let mut dec = FrameDecoder::new(1024);
        read_one(&mut sock, &mut dec);
        let got = dec.next().expect("decode");
        assert!(matches!(got, Some(Frame::HelloAck { .. })));
        drop(sock);
        let report = server.shutdown();
        assert!(!report.timed_out);
        assert!(report.conserved);
        assert_eq!(report.totals.connections, 1);
        assert_eq!(report.totals.frames, 1);
    }

    #[test]
    fn hello_deadline_evicts_silent_connection() {
        let cfg = IngressConfig {
            hello_deadline: Duration::from_millis(60),
            idle_timeout: Duration::from_millis(200),
            ..IngressConfig::default()
        };
        let windows = [WindowConstraint::new(3, 4)];
        let server = IngressServer::start(
            cfg,
            &windows,
            EdgeMode::Deterministic,
            quiet_injector(),
            None,
        )
        .expect("start");
        let sock = dial(server.addr());
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.totals().evictions == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.totals().evictions, 1, "silent peer evicted");
        drop(sock);
        let report = server.shutdown();
        assert!(report.conserved);
    }
}
