//! The pinned-seed socket chaos soak: one deterministic client driving
//! one deterministic-mode server at ~1.5× service capacity while both
//! sides sample socket faults from keyed SplitMix64 schedules.
//!
//! Two runs with the same [`SoakOptions`] produce bit-identical
//! [`SoakReport::replay_fingerprint`]s because every nondeterministic
//! surface is pinned:
//!
//! * the client is single-threaded and lockstep, sampling exactly one
//!   fault draw per frame sent and one per reply awaited — never per
//!   syscall, so kernel chunking and poll timing cannot shift the
//!   schedule;
//! * the server samples exactly one draw per accepted connection (the
//!   `AcceptFail` site) from a *separate* injector (`seed + 1`), so
//!   client and server never interleave on one stream;
//! * the edge core is mutex-serialized, so the gate observes one global
//!   arrival order — the client's;
//! * counts that genuinely race with TCP reset semantics (evictions,
//!   decode errors, reconnects — a RST can discard unread bytes either
//!   side) are *excluded* from the fingerprint; the packet-conservation
//!   fields are not racy and are all included.
//!
//! Conservation is asserted exactly: `served + admission + shed + ring +
//! drain == offered`, with the drain write-off closing the books on the
//! backlog at teardown.

use crate::client::{ClientConfig, ClientStats, IngressClient};
use crate::server::{EdgeMode, IngressConfig, IngressServer, IngressTotals};
use serde::Serialize;
use ss_faults::rng::mix;
use ss_faults::{FaultConfig, FaultInjector};
use ss_overload::{PressureLevel, SharedPressure};
use ss_telemetry::SharedFlightRecorder;
use ss_types::WindowConstraint;
use std::sync::Arc;
use std::time::Duration;

/// Chaos-soak parameters. Load factor is
/// `batch_len / service_per_batch` — the defaults give 1.5×.
/// Tests-only: `crates/ingress/tests/chaos_soak.rs` pins the chaos-soak fingerprints through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SoakOptions {
    /// Master seed: client faults draw from `seed`, server faults from
    /// `seed + 1`, backoff jitter from a further derivation.
    pub seed: u64,
    /// SUBMIT batches attempted.
    pub batches: u32,
    /// Entries per batch.
    pub batch_len: usize,
    /// Backlog entries served per batch (sets the overload factor).
    pub service_per_batch: usize,
    /// Socket fault rate, parts per million per draw.
    pub fault_rate_ppm: u32,
    /// Stream slots (even slots protected 0/1, odd tolerant 3/4).
    pub slots: u32,
}

impl SoakOptions {
    /// 1.5×-overload defaults at a given seed and fault rate.
    pub fn new(seed: u64, fault_rate_ppm: u32) -> Self {
        Self {
            seed,
            batches: 160,
            batch_len: 12,
            service_per_batch: 8,
            fault_rate_ppm,
            slots: 4,
        }
    }
}

/// Everything a soak run produced.
/// Tests-only: `crates/ingress/tests/chaos_soak.rs` pins the chaos-soak fingerprints through it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SoakReport {
    /// The options that produced this report.
    pub options: SoakOptions,
    /// Batches withheld client-side by backpressure holdback
    /// (deterministic — the reply-code sequence is deterministic).
    pub skipped_batches: u64,
    /// Batches abandoned after the reconnect budget (deterministic per
    /// seed; nonzero only at extreme fault rates).
    pub failed_batches: u64,
    /// Whether the graceful drain missed its deadline (a flight dump was
    /// taken if so).
    pub drain_timed_out: bool,
    /// Packets written off unserved at drain.
    pub written_off: u64,
    /// Whether `served + losses == offered` held exactly at teardown.
    pub conserved: bool,
    /// Final server counters.
    pub totals: IngressTotals,
    /// Final client counters (reconnects, applied faults).
    pub client: ClientStats,
}

impl SoakReport {
    /// Folds the deterministic subset of the report into one word: the
    /// conservation fields, per-slot service, the server's reply
    /// fingerprint, and the holdback count. Timing-racy counters
    /// (evictions, reconnects, duplicates) are deliberately excluded —
    /// see the module docs.
    /// Tests-only: `crates/ingress/tests/chaos_soak.rs` pins the chaos-soak fingerprints through
    /// it.
    pub fn replay_fingerprint(&self) -> u64 {
        let t = &self.totals;
        let mut fp = mix(self.options.seed ^ 0x1236_7894_ABCD_EF01);
        fp = mix(fp ^ t.offered);
        fp = mix(fp ^ t.served);
        for &s in &t.per_slot_served {
            fp = mix(fp ^ s);
        }
        for site in ss_overload::LossSite::ALL {
            fp = mix(fp ^ t.loss.at(site));
        }
        fp = mix(fp ^ t.reply_fingerprint);
        fp = mix(fp ^ self.skipped_batches);
        fp
    }
}

/// Runs one chaos soak to completion. Panics only on harness-level
/// failures (server start); wire chaos is absorbed and reported.
/// Tests-only: `crates/ingress/tests/chaos_soak.rs` pins the chaos-soak fingerprints through it.
pub fn run_chaos_soak(opts: SoakOptions) -> SoakReport {
    let windows: Vec<WindowConstraint> = (0..opts.slots)
        .map(|s| {
            if s % 2 == 0 {
                WindowConstraint::new(0, 1)
            } else {
                WindowConstraint::new(3, 4)
            }
        })
        .collect();
    let server_cfg = IngressConfig {
        service_per_batch: opts.service_per_batch,
        edge_capacity: 64,
        hello_deadline: Duration::from_secs(1),
        idle_timeout: Duration::from_secs(5),
        drain_deadline: Duration::from_secs(3),
        read_poll: Duration::from_millis(5),
        red_seed: opts.seed ^ 0x0BAD_5EED,
        ..IngressConfig::default()
    };
    let server_injector = Arc::new(FaultInjector::new(
        opts.seed.wrapping_add(1),
        FaultConfig::socket_only(opts.fault_rate_ppm),
    ));
    let client_injector = Arc::new(FaultInjector::new(
        opts.seed,
        FaultConfig::socket_only(opts.fault_rate_ppm),
    ));
    let recorder = Arc::new(SharedFlightRecorder::new(512));
    let server = IngressServer::start(
        server_cfg,
        &windows,
        EdgeMode::Deterministic,
        server_injector,
        Some(Arc::clone(&recorder)),
    )
    .expect("soak server start");

    let mut client_cfg = ClientConfig::new(0x00C0_FFEE ^ opts.seed, opts.seed);
    client_cfg.read_poll = Duration::from_millis(5);
    let mut skipped = 0u64;
    let mut failed = 0u64;

    match IngressClient::connect(server.addr(), client_cfg, client_injector) {
        Ok(mut client) => {
            let mut registered_all = true;
            for slot in 0..opts.slots {
                if client.register(slot, 1).is_err() {
                    registered_all = false;
                    break;
                }
            }
            if registered_all {
                let mut entries: Vec<(u32, u16)> = Vec::with_capacity(opts.batch_len);
                for b in 0..opts.batches {
                    // Source-propagated backpressure: honor the last
                    // reply code by withholding the advertised share of
                    // batches (0, 1, or 3 of every 4).
                    let level = PressureLevel::from_u8(client.pressure());
                    let holdback = u64::from(SharedPressure::holdback_per_4(level));
                    if u64::from(b % 4) < holdback {
                        skipped += 1;
                        continue;
                    }
                    entries.clear();
                    for j in 0..opts.batch_len {
                        let slot = (u64::from(b) * 7 + j as u64) % u64::from(opts.slots);
                        let tag = (u64::from(b) * opts.batch_len as u64 + j as u64) as u16;
                        entries.push((slot as u32, tag));
                    }
                    if client.submit(&entries).is_err() {
                        failed += 1;
                    }
                }
            } else {
                failed += u64::from(opts.batches);
            }
            let _ = client.drain();
            let stats = client.stats();
            client.goodbye();
            let report = server.shutdown();
            SoakReport {
                options: opts,
                skipped_batches: skipped,
                failed_batches: failed,
                drain_timed_out: report.timed_out,
                written_off: report.written_off,
                conserved: report.conserved,
                totals: report.totals,
                client: stats,
            }
        }
        Err(_) => {
            // Even total connection failure tears down cleanly.
            let report = server.shutdown();
            SoakReport {
                options: opts,
                skipped_batches: 0,
                failed_batches: u64::from(opts.batches),
                drain_timed_out: report.timed_out,
                written_off: report.written_off,
                conserved: report.conserved,
                totals: report.totals,
                client: ClientStats::default(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_soak_conserves_and_replays() {
        let opts = SoakOptions {
            batches: 60,
            ..SoakOptions::new(0xDEAD_BEEF, 0)
        };
        let a = run_chaos_soak(opts);
        let b = run_chaos_soak(opts);
        assert!(a.conserved, "conservation: {:?}", a.totals.loss);
        assert!(!a.drain_timed_out);
        assert_eq!(a.failed_batches, 0, "clean run cannot fail batches");
        assert_eq!(
            a.replay_fingerprint(),
            b.replay_fingerprint(),
            "clean replay must be bit-identical"
        );
        assert!(
            a.totals.offered > 0 && a.totals.served > 0,
            "load actually flowed: {:?}",
            a.totals
        );
        assert!(
            a.totals.loss.total() > 0,
            "1.5x overload must shed or drain something: {:?}",
            a.totals.loss
        );
    }

    #[test]
    fn faulted_soak_conserves_and_replays() {
        let opts = SoakOptions {
            batches: 60,
            ..SoakOptions::new(0x5EED_0002, 120_000)
        };
        let a = run_chaos_soak(opts);
        let b = run_chaos_soak(opts);
        assert!(a.conserved, "conservation under chaos: {:?}", a.totals);
        assert_eq!(
            a.replay_fingerprint(),
            b.replay_fingerprint(),
            "chaos replay must be bit-identical:\n a={a:?}\n b={b:?}"
        );
        let faults =
            a.client.torn_writes + a.client.resets + a.client.stalls + a.client.corrupt_frames;
        assert!(faults > 0, "12% rate must inject something: {:?}", a.client);
    }
}
