//! The run-to-completion server's lock-wait cases, end to end.
//!
//! *A deadlock on the wire is answered with no timer and no third party:*
//! two connections cross their lock requests; the first `ACCESS` parks as
//! a continuation, the second closes the wait-for cycle and the detector
//! runs inside its execution, so one side is `Aborted` and the other
//! granted in that same poll round, the frames pipelined behind each are
//! answered in request order, and the history passes Theorem 17 both post
//! hoc and live.
//!
//! *The poll thread stays live with continuations parked (DESIGN §8j):*
//! two connections wait behind one holder — no cycle, so nothing resolves
//! them but the holder's `COMMIT` — while a third is served and the
//! wait-for graph names who waits for what.

use nested_sgt::model::Op;
use nested_sgt::net::{
    certify_history, Conn, ConnConfig, NetServer, Request, Response, ServerConfig, ServerHandle,
};
use nt_obs::json::Json;
use std::time::{Duration, Instant};

fn begin_top(c: &mut Conn) -> u32 {
    match c.request(&Request::BeginTop).expect("begin top") {
        Response::Begun { tx } => tx,
        other => panic!("expected Begun, got {other:?}"),
    }
}

fn write(parent: u32, obj: u32, v: i64) -> Request {
    Request::Access {
        parent,
        obj,
        op: Op::Write(v),
    }
}

/// A live-certifying server and `n` connections, accepted in order (so
/// the server's connection ids are 1..=n).
fn serve(n: u64) -> (ServerHandle, Vec<Conn>) {
    let server = NetServer::bind(ServerConfig {
        live_certify: true,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let cfg = ConnConfig {
        timeout_ms: 5_000,
        ..ConnConfig::default()
    };
    let conns = (1..=n)
        .map(|id| Conn::connect(&addr, id, cfg).expect("connect"))
        .collect();
    (handle, conns)
}

/// Poll `STATS` over `c` until `want` continuations are parked; the
/// `(conn, obj)` of every wait-for edge, sorted.
fn parked_edges(c: &mut Conn, want: f64) -> Vec<(f64, f64)> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let doc = Json::parse(&c.stats().expect("stats while parked")).expect("stats json");
        let parked = doc
            .get("reactor")
            .and_then(|r| r.get("parked_now"))
            .and_then(Json::as_num);
        if parked == Some(want) {
            break doc;
        }
        assert!(Instant::now() < deadline, "never saw {want} frames parked");
        std::thread::sleep(Duration::from_millis(2));
    };
    let Some(Json::Arr(edges)) = stats.get("wait_for").and_then(|w| w.get("wait_for")) else {
        panic!("no wait_for edges in {stats:?}");
    };
    let mut parked: Vec<(f64, f64)> = edges
        .iter()
        .map(|e| {
            let num = |k: &str| e.get(k).and_then(Json::as_num).expect("edge field");
            assert!(
                matches!(e.get("blockers"), Some(Json::Arr(holders)) if !holders.is_empty()),
                "a parked continuation names its holders"
            );
            (num("conn"), num("obj"))
        })
        .collect();
    parked.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    parked
}

/// The fetched history passes the Theorem 17 gate post hoc, and the live
/// certifier agrees and has stepped every action of it.
fn certifies_post_hoc_and_live(c: &mut Conn) {
    let (tree, actions) = c.fetch_history().expect("history");
    let cert = certify_history(&tree, &actions);
    assert!(cert.is_serially_correct(), "{} violations", cert.violations);
    let live = Json::parse(&c.cert().expect("cert")).expect("cert json");
    assert_eq!(live.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        live.get("processed").and_then(Json::as_num),
        Some(actions.len() as f64),
        "the live verdict covers the whole recorded history"
    );
}

#[test]
fn two_connection_lock_cycle_is_broken_by_the_access_that_closes_it() {
    let (handle, mut conns) = serve(3);
    let [a, b, c] = &mut conns[..] else {
        unreachable!()
    };
    let (ta, tb) = (begin_top(a), begin_top(b));
    assert!(matches!(
        a.request(&write(ta, 0, 10)),
        Ok(Response::AccessOk { .. })
    ));
    assert!(matches!(
        b.request(&write(tb, 1, 20)),
        Ok(Response::AccessOk { .. })
    ));
    // a crosses over, with a Ping pipelined behind the access: it parks.
    let (sa, pa) = (
        a.send(&write(ta, 1, 11)).expect("send"),
        a.send(&Request::Ping).expect("send"),
    );
    a.flush().expect("flush");
    assert_eq!(parked_edges(c, 1.0), vec![(1.0, 1.0)]);
    let engine = handle.engine();
    assert_eq!(engine.detector_passes(), 1, "one enqueue, one pass");
    assert!(engine.victims().is_empty());

    // b crosses over and closes the cycle. From here on nobody else sends
    // a frame and there is no timer to wait for: the round that executes
    // b's ACCESS dooms one side and answers both.
    let (sb, pb) = (
        b.send(&write(tb, 0, 21)).expect("send"),
        b.send(&Request::Ping).expect("send"),
    );
    b.flush().expect("flush");
    let (ra, rb) = (a.recv(sa).expect("a's access"), b.recv(sb).expect("b's"));
    let (a_won, victim) = match (&ra, &rb) {
        (Response::AccessOk { .. }, Response::Aborted { victim }) => (true, *victim),
        (Response::Aborted { victim }, Response::AccessOk { .. }) => (false, *victim),
        other => panic!("exactly one side must fall: {other:?}"),
    };
    assert_eq!(
        victim,
        if a_won { tb } else { ta },
        "the whole top is doomed"
    );
    assert!(matches!(a.recv(pa), Ok(Response::Pong)));
    assert!(matches!(b.recv(pb), Ok(Response::Pong)));
    let (winner, won_top) = if a_won { (a, ta) } else { (b, tb) };
    assert!(matches!(
        winner.request(&Request::Commit { tx: won_top }),
        Ok(Response::Committed)
    ));

    assert_eq!(engine.victims().len(), 1);
    assert_eq!(engine.lock_blocks(), 2, "both accesses queued");
    assert_eq!(
        engine.detector_passes(),
        3,
        "the closing enqueue ran two passes (a victim, then none); nothing polls"
    );
    assert_eq!(
        engine.timeout_rescues(),
        0,
        "no thread parked, none rescued"
    );
    certifies_post_hoc_and_live(c);
    drop(conns);
    let report = handle.wait();
    let journaled = |l: &&String| l.contains("deadlock_victim");
    assert_eq!(report.journal.iter().filter(journaled).count(), 1);
}

#[test]
fn two_waiters_park_behind_one_holder_while_a_third_connection_is_served() {
    let (handle, mut conns) = serve(4);
    let [h, a, b, c] = &mut conns[..] else {
        unreachable!()
    };
    let (th, ta, tb) = (begin_top(h), begin_top(a), begin_top(b));
    assert!(matches!(
        h.request(&write(th, 0, 1)),
        Ok(Response::AccessOk { .. })
    ));
    // Both want the holder's object, each with a Ping pipelined behind.
    let (sa, pa) = (
        a.send(&write(ta, 0, 2)).expect("send"),
        a.send(&Request::Ping).expect("send"),
    );
    a.flush().expect("flush");
    let (sb, pb) = (
        b.send(&write(tb, 0, 3)).expect("send"),
        b.send(&Request::Ping).expect("send"),
    );
    b.flush().expect("flush");
    // Two continuations parked at once; the poll thread is waiting on
    // neither, so the fourth connection gets its answers (these STATS
    // round trips and the pings).
    assert_eq!(
        parked_edges(c, 2.0),
        vec![(2.0, 0.0), (3.0, 0.0)],
        "each parked continuation shows its connection and object"
    );
    for _ in 0..3 {
        assert!(matches!(c.request(&Request::Ping), Ok(Response::Pong)));
    }
    // No cycle: only the holder's COMMIT releases them, one at a time
    // (the waiters conflict with each other), in arrival order.
    assert!(matches!(
        h.request(&Request::Commit { tx: th }),
        Ok(Response::Committed)
    ));
    assert!(matches!(a.recv(sa), Ok(Response::AccessOk { .. })));
    assert!(matches!(a.recv(pa), Ok(Response::Pong)));
    assert_eq!(parked_edges(c, 1.0), vec![(3.0, 0.0)]);
    assert!(matches!(
        a.request(&Request::Commit { tx: ta }),
        Ok(Response::Committed)
    ));
    assert!(matches!(b.recv(sb), Ok(Response::AccessOk { .. })));
    assert!(matches!(b.recv(pb), Ok(Response::Pong)));
    assert!(matches!(
        b.request(&Request::Commit { tx: tb }),
        Ok(Response::Committed)
    ));

    let engine = handle.engine();
    assert!(engine.victims().is_empty());
    assert_eq!(engine.lock_blocks(), 2);
    assert_eq!(engine.timeout_rescues(), 0);
    certifies_post_hoc_and_live(c);
    drop(conns);
    handle.wait();
}
