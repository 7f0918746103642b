//! Connection-lifecycle robustness over real loopback sockets: timeouts,
//! slowloris eviction, typed decode eviction, the connection cap,
//! registration epochs, exactly-once dedup across reconnects, ring-mode
//! conservation, and the drain-timeout flight dump.

use ss_faults::{FaultConfig, FaultInjector};
use ss_ingress::frame::{self, Frame, FrameDecoder};
use ss_ingress::{
    ClientConfig, EdgeMode, IngressClient, IngressConfig, IngressServer, SubmitOutcome,
};
use ss_telemetry::{DumpReason, SharedFlightRecorder, Stage};
use ss_types::WindowConstraint;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn quiet() -> Arc<FaultInjector> {
    Arc::new(FaultInjector::new(1, FaultConfig::quiet()))
}

fn windows() -> Vec<WindowConstraint> {
    vec![WindowConstraint::new(0, 1), WindowConstraint::new(3, 4)]
}

fn start(cfg: IngressConfig, mode: EdgeMode) -> IngressServer {
    IngressServer::start(cfg, &windows(), mode, quiet(), None).expect("server start")
}

fn dial(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    s.set_nodelay(true).expect("nodelay");
    s
}

/// Reads until `want` decodable reply frames arrived, applying `visit`
/// to each; panics after two seconds.
fn pump(
    sock: &mut TcpStream,
    dec: &mut FrameDecoder,
    want: usize,
    visit: &mut dyn FnMut(&Frame<'_>),
) {
    let mut seen = 0usize;
    let mut buf = [0u8; 2048];
    let deadline = Instant::now() + Duration::from_secs(2);
    while seen < want {
        assert!(
            Instant::now() < deadline,
            "timed out awaiting {want} replies"
        );
        match sock.read(&mut buf) {
            Ok(0) => panic!("peer closed with {seen}/{want} replies"),
            Ok(n) => {
                dec.push(&buf[..n]).expect("push");
                while let Some(f) = dec.next().expect("decode reply") {
                    visit(&f);
                    seen += 1;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if done() {
            return true;
        }
        thread::sleep(Duration::from_millis(10));
    }
    done()
}

#[test]
fn slowloris_partial_frame_is_evicted_on_the_idle_clock() {
    let cfg = IngressConfig {
        idle_timeout: Duration::from_millis(120),
        read_poll: Duration::from_millis(10),
        ..IngressConfig::default()
    };
    let server = start(cfg, EdgeMode::Deterministic);
    let mut sock = dial(server.addr());
    let mut hello = Vec::new();
    frame::encode_hello(&mut hello, 9);
    sock.write_all(&hello).expect("hello");
    let mut dec = FrameDecoder::new(512);
    pump(&mut sock, &mut dec, 1, &mut |f| {
        assert!(matches!(f, Frame::HelloAck { .. }));
    });
    // Trickle half a SUBMIT header, then stall.
    let mut submit = Vec::new();
    frame::encode_submit(&mut submit, 1, &[(0, 1), (1, 2)]);
    sock.write_all(&submit[..5]).expect("partial write");
    assert!(
        wait_until(Duration::from_secs(2), || server.totals().evictions == 1),
        "stalled partial frame must be evicted"
    );
    let totals = server.totals();
    assert_eq!(
        totals.protocol_errors, 1,
        "slowloris counted as protocol error"
    );
    assert_eq!(totals.offered, 0, "partial frame never reached the gate");
    let report = server.shutdown();
    assert!(report.conserved);
}

#[test]
fn corrupt_magic_is_a_typed_eviction_not_a_panic() {
    let server = start(IngressConfig::default(), EdgeMode::Deterministic);
    let mut sock = dial(server.addr());
    let mut hello = Vec::new();
    frame::encode_hello(&mut hello, 5);
    sock.write_all(&hello).expect("hello");
    let mut dec = FrameDecoder::new(512);
    pump(&mut sock, &mut dec, 1, &mut |_| {});
    // Flip the magic: the server must record a decode error and evict.
    let mut bad = Vec::new();
    frame::encode_submit(&mut bad, 1, &[(0, 1)]);
    bad[0] ^= 0xFF;
    sock.write_all(&bad).expect("bad write");
    assert!(
        wait_until(Duration::from_secs(2), || server.totals().decode_errors
            == 1),
        "corrupt magic must surface as a typed decode error"
    );
    // The connection is gone: reads hit EOF.
    let mut buf = [0u8; 64];
    let eof = wait_until(Duration::from_secs(2), || {
        matches!(sock.read(&mut buf), Ok(0))
    });
    assert!(eof, "evicted connection must close");
    let totals = server.totals();
    assert_eq!(totals.evictions, 1);
    assert_eq!(totals.offered, 0);
    let report = server.shutdown();
    assert!(report.conserved);
}

#[test]
fn connection_cap_refuses_excess_peers() {
    let cfg = IngressConfig {
        max_connections: 1,
        ..IngressConfig::default()
    };
    let server = start(cfg, EdgeMode::Deterministic);
    let mut first = dial(server.addr());
    let mut hello = Vec::new();
    frame::encode_hello(&mut hello, 1);
    first.write_all(&hello).expect("hello");
    let mut dec = FrameDecoder::new(512);
    pump(&mut first, &mut dec, 1, &mut |_| {});
    assert_eq!(server.totals().connections, 1);

    let mut second = dial(server.addr());
    let mut buf = [0u8; 64];
    let refused = wait_until(Duration::from_secs(2), || {
        server.totals().refused_connections >= 1 && matches!(second.read(&mut buf), Ok(0))
    });
    assert!(refused, "second connection must be refused and closed");
    assert_eq!(
        server.totals().connections,
        1,
        "no reader was spawned for it"
    );
    drop(first);
    let report = server.shutdown();
    assert!(report.conserved);
}

#[test]
fn registration_epochs_are_idempotent_and_reject_stale() {
    let server = start(IngressConfig::default(), EdgeMode::Deterministic);
    let mut client = IngressClient::connect(server.addr(), ClientConfig::new(77, 3), quiet())
        .expect("client connect");
    assert!(
        client.register(0, 2).expect("register"),
        "fresh epoch accepted"
    );
    assert!(
        client.register(0, 2).expect("re-register"),
        "same epoch is idempotent (the reconnect replay path)"
    );
    assert!(
        !client.register(0, 1).expect("stale register"),
        "older epoch refused"
    );
    assert!(
        client.register(0, 3).expect("newer register"),
        "newer epoch accepted"
    );
    client.goodbye();
    let report = server.shutdown();
    assert!(report.conserved);
}

#[test]
fn duplicate_batches_are_deduplicated_across_reconnects() {
    let server = start(IngressConfig::default(), EdgeMode::Deterministic);
    let addr = server.addr();

    let submit_once = |expect_dup: bool| -> SubmitOutcome {
        let mut sock = dial(addr);
        let mut out = Vec::new();
        frame::encode_hello(&mut out, 1234);
        frame::encode_register(&mut out, 1, 1);
        frame::encode_submit(&mut out, 1, &[(1, 10), (1, 11), (1, 12)]);
        sock.write_all(&out).expect("write");
        let mut dec = FrameDecoder::new(1024);
        let mut outcome = None;
        pump(&mut sock, &mut dec, 3, &mut |f| {
            if let Frame::SubmitAck {
                acked_seq,
                admitted,
                rejected,
                pressure,
            } = f
            {
                outcome = Some(SubmitOutcome {
                    admitted: *admitted,
                    rejected: *rejected,
                    pressure: *pressure,
                    acked_seq: *acked_seq,
                });
            }
        });
        let outcome = outcome.expect("submit ack");
        if expect_dup {
            assert_eq!(
                outcome.admitted + outcome.rejected,
                0,
                "duplicate not re-offered"
            );
        } else {
            assert_eq!(
                outcome.admitted + outcome.rejected,
                3,
                "fresh batch fully judged"
            );
        }
        outcome
    };

    // Same client_id, same batch_seq, two connections: the second is a
    // resubmission after a "crash" and must not double-count.
    submit_once(false);
    submit_once(true);

    let totals = server.totals();
    assert_eq!(totals.offered, 3, "three packets offered exactly once");
    assert_eq!(totals.duplicate_batches, 1);
    let report = server.shutdown();
    assert!(
        report.conserved,
        "conservation across dedup: {:?}",
        report.totals
    );
}

#[test]
fn ring_mode_hands_served_packets_to_the_consumer_exactly() {
    let cfg = IngressConfig {
        service_per_batch: 64,
        ..IngressConfig::default()
    };
    let server = IngressServer::start(
        cfg,
        &windows(),
        EdgeMode::Ring { capacity: 64 },
        quiet(),
        None,
    )
    .expect("server start");
    let mut server = server;
    let mut consumer = server.take_consumer().expect("ring consumer");

    let mut client = IngressClient::connect(server.addr(), ClientConfig::new(8, 4), quiet())
        .expect("client connect");
    client.register(0, 1).expect("register 0");
    client.register(1, 1).expect("register 1");
    let mut admitted = 0u64;
    for b in 0..20u16 {
        let entries: Vec<(u32, u16)> = (0..8u16).map(|j| ((j % 2) as u32, b * 8 + j)).collect();
        let outcome = client.submit(&entries).expect("submit");
        admitted += u64::from(outcome.admitted);
    }
    client.goodbye();
    let report = server.shutdown();
    assert!(
        report.conserved,
        "ring-mode conservation: {:?}",
        report.totals
    );

    // After shutdown the producer is dropped; drain what was served.
    let mut popped = 0u64;
    while let Some(a) = consumer.pop() {
        assert!(a.slot < 2);
        popped += 1;
    }
    assert_eq!(
        popped, report.totals.served,
        "every served packet is in the ring exactly once"
    );
    assert!(
        admitted >= report.totals.served,
        "served never exceeds admitted"
    );
    assert!(popped > 0, "load actually flowed");
}

#[test]
fn drain_timeout_auto_dumps_the_flight_recorder() {
    let cfg = IngressConfig {
        idle_timeout: Duration::from_secs(60),
        read_poll: Duration::from_millis(10),
        drain_deadline: Duration::from_millis(150),
        ..IngressConfig::default()
    };
    let recorder = Arc::new(SharedFlightRecorder::new(64));
    let server = IngressServer::start(
        cfg,
        &windows(),
        EdgeMode::Deterministic,
        quiet(),
        Some(Arc::clone(&recorder)),
    )
    .expect("server start");
    // A client that HELLOs and then holds the connection open silently:
    // the reader cannot exit before its (long) idle clock, so the drain
    // deadline must fire.
    let mut sock = dial(server.addr());
    let mut hello = Vec::new();
    frame::encode_hello(&mut hello, 2);
    sock.write_all(&hello).expect("hello");
    let mut dec = FrameDecoder::new(512);
    pump(&mut sock, &mut dec, 1, &mut |_| {});

    let report = server.shutdown();
    assert!(
        report.timed_out,
        "silent holder must trip the drain deadline"
    );
    let dump = recorder.take_last_dump().expect("drain-timeout dump");
    assert_eq!(dump.reason, DumpReason::DrainTimeout);
    let stop = dump
        .events
        .iter()
        .find(|e| e.stage == Stage::DrainWriteOff && e.detail == 1)
        .expect("the hard stop is in the dump");
    assert_eq!(stop.arg, 1, "the silent holder is the one live reader");
    assert!(report.conserved);
}

#[test]
fn post_drain_submits_are_acked_but_written_off() {
    let server = start(IngressConfig::default(), EdgeMode::Deterministic);
    let mut client = IngressClient::connect(server.addr(), ClientConfig::new(3, 9), quiet())
        .expect("client connect");
    client.register(1, 1).expect("register");
    let before = client.submit(&[(1, 1), (1, 2)]).expect("submit");
    assert_eq!(before.admitted + before.rejected, 2);
    let written = client.drain().expect("drain");
    // Whatever was still backlogged is now on the drain ledger site.
    let after = client
        .submit(&[(1, 3), (1, 4), (1, 5)])
        .expect("late submit");
    assert_eq!(after.admitted, 0, "post-drain packets are never admitted");
    assert_eq!(after.rejected, 3, "post-drain packets are written off");
    client.goodbye();
    let report = server.shutdown();
    assert!(
        report.conserved,
        "conservation through drain: {:?}",
        report.totals
    );
    assert_eq!(
        report.totals.loss.drain,
        written + 3,
        "drain site holds the flush plus the late batch"
    );
    assert_eq!(report.totals.offered, 5);
}
