//! Differential test of the two front ends: the same seeded, contended
//! four-connection load through the run-to-completion reactor and through
//! the threaded reference (`frontend = threaded`, kept this one PR for
//! exactly this purpose). Scheduling differs — which top falls to which
//! deadlock differs — but the outcome the client sees must not: every top
//! of the seeded workload commits (victims are retried to completion),
//! the same number of them, and both recorded histories pass Theorem 17.

use nt_net::{
    fetch_and_certify, run_load, ConnConfig, Frontend, LoadConfig, NetServer, ServerConfig,
};

fn run(frontend: Frontend, batch: usize) -> (u64, u64, u64) {
    let server = NetServer::bind(ServerConfig {
        frontend,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let load = LoadConfig {
        addr: addr.clone(),
        connections: 4,
        tops_per_conn: 24,
        objects: 4,
        hotspot: 0.6,
        read_ratio: 0.3,
        max_depth: 2,
        seed: 41,
        // Generous: a victim is retried until it commits, so the set of
        // committed tops is the whole workload on either front end.
        top_retries: 200,
        batch,
        ..LoadConfig::default()
    };
    let report = run_load(&addr, &load).expect("load runs");
    let cert = fetch_and_certify(&addr, ConnConfig::from(&load)).expect("certify");
    assert_eq!(cert.violations, 0, "{frontend:?}: history has violations");
    assert!(cert.is_serially_correct(), "{frontend:?}: not certified");
    let engine = handle.engine();
    let rescues = engine.timeout_rescues();
    handle.wait();
    (report.committed_tops, report.gave_up, rescues)
}

#[test]
fn reactor_and_threaded_commit_the_same_tops_and_both_certify() {
    for batch in [1, 8] {
        let (reactor_tops, reactor_gave_up, reactor_rescues) = run(Frontend::Reactor, batch);
        let (threaded_tops, threaded_gave_up, threaded_rescues) = run(Frontend::Threaded, batch);
        assert_eq!((reactor_gave_up, threaded_gave_up), (0, 0), "batch {batch}");
        assert_eq!(reactor_tops, 4 * 24, "batch {batch}: reactor lost tops");
        assert_eq!(reactor_tops, threaded_tops, "batch {batch}");
        // Continuations have no park backstop; the threaded reference's
        // blocking wrapper has one and must not have needed it.
        assert_eq!((reactor_rescues, threaded_rescues), (0, 0), "batch {batch}");
    }
}
