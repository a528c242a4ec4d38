//! The run-to-completion server's liveness case, end to end: two
//! connections close a lock cycle, so BOTH of their `ACCESS` frames are
//! parked as continuations on the single poll thread — which must keep
//! serving a third connection, let the detector doom a victim, resume the
//! victim's frame with `Aborted` and the survivor's with its grant, answer
//! the frames pipelined behind each in request order, and leave a history
//! that passes Theorem 17 both post hoc and live.

use nested_sgt::model::Op;
use nested_sgt::net::{
    certify_history, Conn, ConnConfig, NetServer, Request, Response, ServerConfig,
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

#[test]
fn two_connection_lock_cycle_parks_both_and_the_detector_breaks_it() {
    // A slow detector keeps the cycle standing long enough to look at it.
    let server = NetServer::bind(ServerConfig {
        detector_period_us: 150_000,
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
    let mut a = Conn::connect(&addr, 1, cfg).expect("connect a");
    let mut b = Conn::connect(&addr, 2, cfg).expect("connect b");
    let mut c = Conn::connect(&addr, 3, cfg).expect("connect c");

    let (ta, tb) = (begin_top(&mut a), begin_top(&mut b));
    assert!(matches!(
        a.request(&write(ta, 0, 10)),
        Ok(Response::AccessOk { .. })
    ));
    assert!(matches!(
        b.request(&write(tb, 1, 20)),
        Ok(Response::AccessOk { .. })
    ));
    // Cross over, each with a Ping pipelined behind the access.
    let (sa, pa) = (
        a.send(&write(ta, 1, 11)).expect("send"),
        a.send(&Request::Ping).expect("send"),
    );
    let (sb, pb) = (
        b.send(&write(tb, 0, 21)).expect("send"),
        b.send(&Request::Ping).expect("send"),
    );

    // Both frames park; the poll thread stays responsive and says so.
    let deadline = Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let doc = Json::parse(&c.stats().expect("stats while parked")).expect("stats json");
        let parked = doc
            .get("reactor")
            .and_then(|r| r.get("parked_now"))
            .and_then(Json::as_num);
        if parked == Some(2.0) {
            break doc;
        }
        assert!(Instant::now() < deadline, "never saw both frames parked");
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
    assert_eq!(
        parked,
        vec![(1.0, 1.0), (2.0, 0.0)],
        "each parked continuation shows its connection and object"
    );

    // The detector dooms one side; its frame resumes Aborted, the other's
    // with the grant; the Pings behind them follow in request order.
    let (ra, rb) = (a.recv(sa).expect("a's access"), b.recv(sb).expect("b's"));
    let (a_won, victim) = match (&ra, &rb) {
        (Response::AccessOk { .. }, Response::Aborted { victim }) => (true, *victim),
        (Response::Aborted { victim }, Response::AccessOk { .. }) => (false, *victim),
        other => panic!("exactly one side must fall to the detector: {other:?}"),
    };
    assert_eq!(
        victim,
        if a_won { tb } else { ta },
        "the whole top is doomed"
    );
    assert!(matches!(a.recv(pa), Ok(Response::Pong)));
    assert!(matches!(b.recv(pb), Ok(Response::Pong)));
    let (winner, won_top) = if a_won { (&mut a, ta) } else { (&mut b, tb) };
    assert!(matches!(
        winner.request(&Request::Commit { tx: won_top }),
        Ok(Response::Committed)
    ));

    let engine = handle.engine();
    assert_eq!(engine.victims().len(), 1);
    assert_eq!(engine.lock_blocks(), 2, "both accesses queued");
    assert_eq!(
        engine.timeout_rescues(),
        0,
        "no thread parked, none rescued"
    );

    // Post hoc: the fetched history passes the Theorem 17 gate.
    let (tree, actions) = c.fetch_history().expect("history");
    let cert = certify_history(&tree, &actions);
    assert!(cert.is_serially_correct(), "{} violations", cert.violations);
    // Live: the CERT barrier (itself a parked continuation) agrees, and
    // covers every action recorded before it.
    let live = Json::parse(&c.cert().expect("cert")).expect("cert json");
    assert_eq!(live.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        live.get("processed").and_then(Json::as_num),
        Some(actions.len() as f64),
        "the live verdict covers the whole recorded history"
    );
    drop((a, b, c));
    handle.wait();
}
