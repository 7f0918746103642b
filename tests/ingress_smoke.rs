//! Loopback ingress smoke test: dial, register, submit, drain — through
//! the facade re-export.

use sharestreams::ingress::{
    ClientConfig, EdgeMode, FaultConfig, FaultInjector, IngressClient, IngressConfig, IngressServer,
};
use sharestreams::types::WindowConstraint;
use std::sync::Arc;

#[test]
fn loopback_register_submit_drain_conserves() {
    let windows = [WindowConstraint::new(0, 1), WindowConstraint::new(3, 4)];
    let injector = Arc::new(FaultInjector::new(1, FaultConfig::quiet()));
    let server = IngressServer::start(
        IngressConfig::default(),
        &windows,
        EdgeMode::Deterministic,
        injector.clone(),
        None,
    )
    .expect("server start");

    let mut client = IngressClient::connect(server.addr(), ClientConfig::new(11, 7), injector)
        .expect("client connect");
    assert!(client.register(0, 1).expect("register 0"));
    assert!(client.register(1, 1).expect("register 1"));

    let mut judged = 0u64;
    for b in 0..10u16 {
        let entries: Vec<(u32, u16)> = (0..6u16).map(|j| ((j % 2) as u32, b * 6 + j)).collect();
        let outcome = client.submit(&entries).expect("submit");
        judged += u64::from(outcome.admitted) + u64::from(outcome.rejected);
    }
    assert_eq!(judged, 60, "every packet got a verdict");
    let _ = client.drain().expect("drain");
    client.goodbye();

    let report = server.shutdown();
    assert!(!report.timed_out);
    assert!(report.conserved, "conservation: {:?}", report.totals);
    assert_eq!(report.totals.offered, 60);
    assert!(report.totals.served > 0);
}
