//! A reconnecting ingress client with deterministic fault application.
//!
//! The client is lockstep: every request frame is followed by one awaited
//! reply, and socket faults are sampled from the injector's keyed-draw
//! schedule at exactly two points per operation — once before the send,
//! once before the awaited reply — so a single-threaded client performs a
//! seed-reproducible number of draws regardless of kernel read chunking
//! or poll timing. That is the property the chaos soak's bit-identical
//! replay rests on.
//!
//! Recovery is the point, not the exception:
//!
//! * any I/O failure (injected or real) tears the socket down and enters
//!   a capped exponential backoff with seeded jitter, up to
//!   [`ClientConfig::max_reconnect_attempts`];
//! * reconnection replays HELLO (same `client_id`) and re-registers every
//!   stream at its recorded epoch — registration is idempotent
//!   server-side;
//! * an unacknowledged SUBMIT is resubmitted with its original batch
//!   sequence; the server deduplicates by `(client_id, batch_seq)`, so
//!   delivery is exactly-once across resets.

use crate::frame::{self, Frame, FrameDecoder};
use serde::Serialize;
use ss_faults::{FaultInjector, FaultKind, FaultSite, SplitMix64};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Stable identity across reconnects — the server's dedup key.
    pub client_id: u64,
    /// Seed for backoff jitter (distinct from the injector's seed).
    pub seed: u64,
    /// Reconnect attempts per operation before giving up.
    pub max_reconnect_attempts: u32,
    /// Backoff before the first reconnect attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling (doubling clamps here).
    pub max_backoff: Duration,
    /// Socket read poll quantum while awaiting a reply.
    pub read_poll: Duration,
    /// How long to await a reply before declaring the connection dead.
    pub ack_deadline: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
}

impl ClientConfig {
    /// Defaults for loopback testing.
    pub fn new(client_id: u64, seed: u64) -> Self {
        Self {
            client_id,
            seed,
            max_reconnect_attempts: 8,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            read_poll: Duration::from_millis(10),
            write_timeout: Duration::from_secs(1),
            ack_deadline: Duration::from_secs(2),
        }
    }
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (the reconnect loop consumes these; one
    /// surfacing means the loop was exhausted mid-operation).
    Io(std::io::Error),
    /// Reconnect budget exhausted.
    GaveUp {
        /// Attempts consumed before giving up.
        attempts: u32,
    },
    /// The server replied out of protocol.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "ingress client i/o: {e}"),
            ClientError::GaveUp { attempts } => {
                write!(
                    f,
                    "ingress client gave up after {attempts} reconnect attempts"
                )
            }
            ClientError::Protocol(what) => write!(f, "ingress protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Client-side counters. Fault-application counts are deterministic per
/// seed; reconnect/retry counts can race with server-side RST handling
/// and are excluded from replay fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ClientStats {
    /// Successful connection establishments (initial connect included).
    pub connects: u64,
    /// Reconnect attempts entered (backoff slept).
    pub reconnects: u64,
    /// Operations retried after a re-establish.
    pub op_retries: u64,
    /// Operations abandoned after exhausting the reconnect budget.
    pub gave_up: u64,
    /// Injected torn writes applied.
    pub torn_writes: u64,
    /// Injected peer resets applied.
    pub resets: u64,
    /// Injected stalls applied.
    pub stalls: u64,
    /// Injected frame corruptions applied.
    pub corrupt_frames: u64,
}

/// Result of an acknowledged SUBMIT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// Entries admitted past the edge gate.
    pub admitted: u32,
    /// Entries refused (admission / shed / overflow / drain write-off).
    pub rejected: u32,
    /// Backpressure code from the ack — feed this to
    /// [`ss_overload::SharedPressure::holdback_per_4`].
    pub pressure: u8,
    /// Cumulative acknowledged batch sequence.
    pub acked_seq: u64,
}

/// The reconnecting ingress client.
pub struct IngressClient {
    addr: SocketAddr,
    cfg: ClientConfig,
    injector: Arc<FaultInjector>,
    sock: Option<TcpStream>,
    dec: FrameDecoder,
    /// Registrations to replay on reconnect: (slot, epoch).
    registered: Vec<(u32, u32)>,
    next_seq: u64,
    /// The batch in flight, held for resubmission under its original
    /// sequence after a reconnect. One buffer for the client's lifetime:
    /// refilled per submit, never reallocated once it has seen the
    /// largest batch.
    pending: Vec<(u32, u16)>,
    last_pressure: u8,
    stats: ClientStats,
    rng: SplitMix64,
    out: Vec<u8>,
    /// Socket read buffer for reply frames.
    rbuf: [u8; 4096],
}

/// Caps an injected stall so a chaotic schedule cannot freeze a test.
const MAX_STALL_MS: u64 = 50;

impl IngressClient {
    /// Dials `addr`, performs HELLO, and returns a ready client.
    ///
    /// # Errors
    ///
    /// Fails if the initial connection (with reconnect budget) cannot be
    /// established.
    pub fn connect(
        addr: SocketAddr,
        cfg: ClientConfig,
        injector: Arc<FaultInjector>,
    ) -> Result<Self, ClientError> {
        let rng = SplitMix64::new(cfg.seed ^ 0xC11E_47BA_C0FF_EE00);
        let mut client = Self {
            addr,
            cfg,
            injector,
            sock: None,
            dec: FrameDecoder::new(16 * 1024),
            registered: Vec::new(),
            next_seq: 1,
            pending: Vec::new(),
            last_pressure: 0,
            stats: ClientStats::default(),
            rng,
            out: Vec::with_capacity(4096),
            rbuf: [0; 4096],
        };
        let mut attempts = 0u32;
        loop {
            match client.establish() {
                Ok(()) => return Ok(client),
                Err(_) if attempts < client.cfg.max_reconnect_attempts => {
                    attempts += 1;
                    client.backoff_sleep(attempts);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Last backpressure code the server sent.
    pub fn pressure(&self) -> u8 {
        self.last_pressure
    }

    /// Client-side counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Registers `slot` at `epoch` (idempotent server-side) and records
    /// it for replay on reconnect. Returns whether the server accepted.
    ///
    /// # Errors
    ///
    /// [`ClientError::GaveUp`] if the reconnect budget is exhausted.
    pub fn register(&mut self, slot: u32, epoch: u32) -> Result<bool, ClientError> {
        let accepted = self.run_op(|c| {
            c.out.clear();
            frame::encode_register(&mut c.out, slot, epoch);
            c.send_out()?;
            c.await_register_ack(slot)
        })?;
        match self.registered.iter_mut().find(|(s, _)| *s == slot) {
            Some(entry) => entry.1 = entry.1.max(epoch),
            None => self.registered.push((slot, epoch)),
        }
        Ok(accepted)
    }

    /// Submits one packet batch with exactly-once delivery: the batch
    /// keeps its sequence number across reconnect resubmissions and the
    /// server deduplicates.
    ///
    /// # Errors
    ///
    /// [`ClientError::GaveUp`] if the reconnect budget is exhausted (the
    /// batch may or may not have been processed; the sequence is not
    /// advanced, so a later submit resolves the ambiguity).
    pub fn submit(&mut self, entries: &[(u32, u16)]) -> Result<SubmitOutcome, ClientError> {
        let seq = self.next_seq;
        self.pending.clear();
        self.pending.extend_from_slice(entries);
        let outcome = self.run_op(|c| {
            c.out.clear();
            frame::encode_submit(&mut c.out, seq, &c.pending);
            c.send_out()?;
            c.await_submit_ack(seq)
        })?;
        self.next_seq = seq + 1;
        self.last_pressure = outcome.pressure;
        Ok(outcome)
    }

    /// Requests a graceful drain; returns the server's write-off count.
    ///
    /// # Errors
    ///
    /// [`ClientError::GaveUp`] if the reconnect budget is exhausted.
    pub fn drain(&mut self) -> Result<u64, ClientError> {
        self.run_op(|c| {
            c.out.clear();
            frame::encode_drain(&mut c.out);
            c.send_out()?;
            c.await_drain_ack()
        })
    }

    /// Sends a best-effort GOODBYE and closes the connection.
    pub fn goodbye(&mut self) {
        if let Some(sock) = self.sock.as_mut() {
            let mut out = Vec::with_capacity(frame::HEADER_LEN);
            frame::encode_goodbye(&mut out);
            let _ = sock.write_all(&out);
            let _ = sock.shutdown(Shutdown::Both);
        }
        self.sock = None;
    }

    // ---- connection management ----

    /// Runs one lockstep operation under the reconnect loop. Any I/O
    /// error tears the socket down, sleeps a jittered backoff, and
    /// re-establishes (HELLO + re-registration) before retrying.
    fn run_op<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> std::io::Result<T>,
    ) -> Result<T, ClientError> {
        let mut attempts = 0u32;
        let mut retried = false;
        loop {
            if self.sock.is_some() {
                match op(self) {
                    Ok(v) => {
                        if retried {
                            self.stats.op_retries += 1;
                        }
                        return Ok(v);
                    }
                    Err(_) => {
                        self.sock = None;
                        retried = true;
                    }
                }
            }
            if attempts >= self.cfg.max_reconnect_attempts {
                self.stats.gave_up += 1;
                return Err(ClientError::GaveUp { attempts });
            }
            attempts += 1;
            self.stats.reconnects += 1;
            self.backoff_sleep(attempts);
            // A failed establish consumes the attempt; loop re-checks.
            let _ = self.establish();
        }
    }

    /// Dials, configures timeouts, performs HELLO, and replays every
    /// recorded registration at its epoch.
    fn establish(&mut self) -> std::io::Result<()> {
        self.sock = None;
        self.dec.clear();
        let sock = TcpStream::connect(self.addr)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(Some(self.cfg.read_poll))?;
        sock.set_write_timeout(Some(self.cfg.write_timeout))?;
        self.sock = Some(sock);
        self.out.clear();
        frame::encode_hello(&mut self.out, self.cfg.client_id);
        self.send_out()?;
        self.last_pressure = self.await_hello_ack()?;
        let regs = self.registered.clone();
        for (slot, epoch) in regs {
            self.out.clear();
            frame::encode_register(&mut self.out, slot, epoch);
            self.send_out()?;
            // A stale-epoch refusal is fine here: some earlier connection
            // already moved the slot forward.
            let _ = self.await_register_ack(slot)?;
        }
        self.stats.connects += 1;
        Ok(())
    }

    /// Sleeps `min(base << (attempt-1), max)` plus up to 25% seeded
    /// jitter — the capped exponential backoff the soak asserts bounded.
    fn backoff_sleep(&mut self, attempt: u32) {
        let base = self.cfg.base_backoff.as_micros() as u64;
        let cap = self.cfg.max_backoff.as_micros() as u64;
        let shift = (attempt.saturating_sub(1)).min(20);
        let delay = base.saturating_mul(1u64 << shift).min(cap);
        let jitter = if delay > 0 {
            self.rng.below(delay / 4 + 1)
        } else {
            0
        };
        std::thread::sleep(Duration::from_micros(delay + jitter));
    }

    // ---- faulted I/O primitives ----

    /// Writes the staged frame in `self.out`, applying at most one
    /// injected fault sampled before the write.
    fn send_out(&mut self) -> std::io::Result<()> {
        let fault = self.injector.sample(FaultSite::Socket);
        let Some(sock) = self.sock.as_mut() else {
            return Err(std::io::Error::from(ErrorKind::NotConnected));
        };
        match fault {
            Some(FaultKind::TornWrite { limit }) => {
                self.stats.torn_writes += 1;
                let cut = (limit as usize).clamp(1, self.out.len().max(1));
                let (head, tail) = self.out.split_at(cut.min(self.out.len()));
                sock.write_all(head)?;
                // Let the torn prefix land as its own segment so the
                // server decoder must reassemble.
                std::thread::sleep(Duration::from_micros(200));
                sock.write_all(tail)
            }
            Some(FaultKind::PeerReset) => {
                self.stats.resets += 1;
                let _ = sock.shutdown(Shutdown::Both);
                Err(std::io::Error::from(ErrorKind::ConnectionReset))
            }
            Some(FaultKind::CorruptFrame) => {
                self.stats.corrupt_frames += 1;
                let mut dup = self.out.clone();
                if !dup.is_empty() {
                    dup[0] ^= 0xFF;
                }
                // The server decodes BadMagic and evicts; the awaited
                // reply never comes and the reconnect path takes over.
                sock.write_all(&dup)
            }
            Some(FaultKind::PeerStall { ms }) => {
                self.stats.stalls += 1;
                std::thread::sleep(Duration::from_millis(u64::from(ms).min(MAX_STALL_MS)));
                sock.write_all(&self.out)
            }
            _ => sock.write_all(&self.out),
        }
    }

    /// Polls for reply frames, applying at most one injected fault
    /// sampled before the first read. Calls `accept` on each decoded
    /// frame until it yields, the deadline lapses, or the peer drops.
    fn await_reply<T>(
        &mut self,
        mut accept: impl FnMut(&Frame<'_>) -> Option<std::io::Result<T>>,
    ) -> std::io::Result<T> {
        match self.injector.sample(FaultSite::Socket) {
            Some(FaultKind::PeerReset) => {
                self.stats.resets += 1;
                if let Some(sock) = self.sock.as_mut() {
                    let _ = sock.shutdown(Shutdown::Both);
                }
                return Err(std::io::Error::from(ErrorKind::ConnectionReset));
            }
            Some(FaultKind::PeerStall { ms }) => {
                self.stats.stalls += 1;
                std::thread::sleep(Duration::from_millis(u64::from(ms).min(MAX_STALL_MS)));
            }
            Some(FaultKind::CorruptFrame) => {
                // Model the reply being corrupted in flight: drop the
                // connection rather than trust the bytes.
                self.stats.corrupt_frames += 1;
                return Err(std::io::Error::from(ErrorKind::InvalidData));
            }
            _ => {}
        }
        let Some(mut sock) = self.sock.take() else {
            return Err(std::io::Error::from(ErrorKind::NotConnected));
        };
        let deadline = Instant::now() + self.cfg.ack_deadline;
        let result = 'outer: loop {
            if Instant::now() >= deadline {
                break Err(std::io::Error::from(ErrorKind::TimedOut));
            }
            match sock.read(&mut self.rbuf) {
                Ok(0) => break Err(std::io::Error::from(ErrorKind::UnexpectedEof)),
                Ok(n) => {
                    if self.dec.push(&self.rbuf[..n]).is_err() {
                        break Err(std::io::Error::from(ErrorKind::InvalidData));
                    }
                    loop {
                        match self.dec.next() {
                            Ok(None) => break,
                            Ok(Some(f)) => {
                                if let Some(r) = accept(&f) {
                                    break 'outer r;
                                }
                            }
                            Err(_) => {
                                break 'outer Err(std::io::Error::from(ErrorKind::InvalidData))
                            }
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        if result.is_ok() {
            self.sock = Some(sock);
        }
        result
    }

    fn await_hello_ack(&mut self) -> std::io::Result<u8> {
        self.await_reply(|f| match f {
            Frame::HelloAck { pressure } => Some(Ok(*pressure)),
            _ => Some(Err(protocol_io("expected HELLO_ACK"))),
        })
    }

    fn await_register_ack(&mut self, slot: u32) -> std::io::Result<bool> {
        self.await_reply(|f| match f {
            Frame::RegisterAck {
                slot: s, accepted, ..
            } if *s == slot => Some(Ok(*accepted)),
            _ => Some(Err(protocol_io("expected REGISTER_ACK"))),
        })
    }

    fn await_submit_ack(&mut self, seq: u64) -> std::io::Result<SubmitOutcome> {
        self.await_reply(|f| match f {
            Frame::SubmitAck {
                acked_seq,
                pressure,
                admitted,
                rejected,
            } if *acked_seq >= seq => Some(Ok(SubmitOutcome {
                admitted: *admitted,
                rejected: *rejected,
                pressure: *pressure,
                acked_seq: *acked_seq,
            })),
            // A lower cumulative ack can only be a stale reply; keep
            // waiting for ours.
            Frame::SubmitAck { .. } => None,
            _ => Some(Err(protocol_io("expected SUBMIT_ACK"))),
        })
    }

    fn await_drain_ack(&mut self) -> std::io::Result<u64> {
        self.await_reply(|f| match f {
            Frame::DrainAck { written_off } => Some(Ok(*written_off)),
            _ => Some(Err(protocol_io("expected DRAIN_ACK"))),
        })
    }
}

fn protocol_io(what: &'static str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeMode, IngressConfig, IngressServer};
    use ss_faults::FaultConfig;
    use ss_types::WindowConstraint;

    #[test]
    fn submit_reuses_its_buffers() {
        let injector = Arc::new(FaultInjector::new(1, FaultConfig::quiet()));
        let server = IngressServer::start(
            IngressConfig::default(),
            &[WindowConstraint::new(3, 4)],
            EdgeMode::Deterministic,
            Arc::clone(&injector),
            None,
        )
        .expect("server start");
        let mut client = IngressClient::connect(server.addr(), ClientConfig::new(7, 7), injector)
            .expect("connect");
        assert!(client.register(0, 1).expect("register"));
        let batch: Vec<(u32, u16)> = (0..32u16).map(|t| (0, t)).collect();
        // The first full-size batch sizes both buffers; from then on no
        // submit, of any size up to that, may move or regrow them.
        client.submit(&batch).expect("submit");
        let pending = (client.pending.as_ptr(), client.pending.capacity());
        let out = (client.out.as_ptr(), client.out.capacity());
        for i in 0..1_000usize {
            let outcome = client.submit(&batch[..1 + i % 32]).expect("submit");
            assert_eq!(outcome.acked_seq, i as u64 + 2);
            assert_eq!(
                (client.pending.as_ptr(), client.pending.capacity()),
                pending
            );
            assert_eq!((client.out.as_ptr(), client.out.capacity()), out);
        }
        assert_eq!(client.stats().reconnects, 0);
        client.goodbye();
        assert!(server.shutdown().conserved);
    }
}
