//! The server's own threads end with it: a server dropped without
//! `shutdown` closes its listener and leaves no accept or reader thread
//! behind, and a `shutdown`'s wake-up dial is not a refused peer. The
//! tests take turns on one lock, because the first counts this process's
//! threads by name.

use ss_ingress::{EdgeMode, FaultConfig, FaultInjector, IngressConfig, IngressServer};
use ss_types::WindowConstraint;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn start() -> IngressServer {
    let injector = Arc::new(FaultInjector::new(1, FaultConfig::quiet()));
    let windows = [WindowConstraint::new(0, 1), WindowConstraint::new(3, 4)];
    IngressServer::start(
        IngressConfig::default(),
        &windows,
        EdgeMode::Deterministic,
        injector,
        None,
    )
    .expect("server start")
}

#[cfg(target_os = "linux")]
#[path = "../../endsystem/tests/support/proc_tasks.rs"]
mod proc_tasks;
#[cfg(target_os = "linux")]
use proc_tasks::threads_named;

#[test]
fn a_dropped_server_closes_its_listener_and_leaves_no_thread() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let server = start();
    let addr = server.addr();
    // A connected, silent peer: its reader must be stopped too.
    let _peer = TcpStream::connect(addr).expect("connect");
    #[cfg(target_os = "linux")]
    {
        let reader_up = Instant::now() + Duration::from_secs(1);
        while threads_named("ss-ingress-read") == 0 {
            assert!(Instant::now() < reader_up, "the peer gets a reader");
            std::thread::yield_now();
        }
        assert_eq!(threads_named("ss-ingress-acce"), 1);
    }

    let dropped = Instant::now();
    drop(server);
    assert!(
        dropped.elapsed() < Duration::from_secs(1),
        "drop returns promptly"
    );
    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener is closed once drop returns"
    );
    #[cfg(target_os = "linux")]
    {
        assert_eq!(
            threads_named("ss-ingress-acce"),
            0,
            "the accept thread is gone"
        );
        assert_eq!(threads_named("ss-ingress-read"), 0, "and so is the reader");
    }
}

#[test]
fn a_shutdown_with_no_clients_refuses_no_one() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for _ in 0..20 {
        let report = start().shutdown();
        assert_eq!(report.totals.refused_connections, 0);
        assert!(report.conserved);
    }
}
