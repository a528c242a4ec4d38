//! End-to-end tests for the static admission gate: a `--static-gate`
//! style server refuses declared tops whose potential conflict component
//! could close a serialization cycle, admits single-pair overlaps (the
//! weight-2 criterion, not naive disjointness), releases ledger entries
//! on commit/abort and connection close, refuses accesses outside a
//! declared top's declaration, and degrades `BEGIN_TOP_DECLARED` to
//! `BEGIN_TOP` when the gate is off.

use nt_model::{Op, Value};
use nt_net::wire::err_code;
use nt_net::{Conn, ConnConfig, NetServer, Request, Response, ServerConfig};

fn start_gated() -> (String, nt_net::ServerHandle) {
    let server = NetServer::bind(ServerConfig {
        static_gate: true,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    (addr, server.serve())
}

fn begun(r: Result<Result<u32, (u16, String)>, nt_net::WireError>) -> u32 {
    r.expect("transport").expect("admitted")
}

fn refused(r: Result<Result<u32, (u16, String)>, nt_net::WireError>) -> (u16, String) {
    r.expect("transport").expect_err("refused")
}

fn commit(conn: &mut Conn, tx: u32) {
    match conn.request(&Request::Commit { tx }).expect("commit") {
        Response::Committed => {}
        other => panic!("expected Committed, got {other:?}"),
    }
}

#[test]
fn crossing_declarations_are_refused_with_the_typed_code() {
    let (addr, handle) = start_gated();
    let mut conn = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");

    let a = begun(conn.begin_top_declared(&[], &[0, 1]));
    // Two shared conflict objects: both serialization orientations are
    // realizable, so the gate must refuse before any lock is taken.
    let (code, msg) = refused(conn.begin_top_declared(&[], &[0, 1]));
    assert_eq!(code, err_code::STATIC_GATE);
    assert!(msg.contains("weight 2"), "{msg}");
    assert!(msg.contains("X0") && msg.contains("X1"), "{msg}");
    // A read crossing one write-object and writing the other is just as
    // cyclic a shape.
    let (code, _) = refused(conn.begin_top_declared(&[0], &[1]));
    assert_eq!(code, err_code::STATIC_GATE);

    // One shared object is a single conflict pair: admitted, and Moss
    // locking orders it dynamically.
    let c = begun(conn.begin_top_declared(&[], &[0]));
    commit(&mut conn, c);

    // Committing the blocker reopens admission.
    commit(&mut conn, a);
    let b = begun(conn.begin_top_declared(&[], &[0, 1]));
    commit(&mut conn, b);

    conn.shutdown_server().expect("shutdown");
    handle.wait();
}

#[test]
fn chained_components_accumulate_across_connections() {
    let (addr, handle) = start_gated();
    let mut conn1 = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");
    let mut conn2 = Conn::connect(&addr, 2, ConnConfig::default()).expect("connect");

    // T_a writes X0; T_b (other connection) writes X0,X1 — weight 1
    // each step, admitted.
    let a = begun(conn1.begin_top_declared(&[], &[0]));
    let b = begun(conn2.begin_top_declared(&[], &[0, 1]));
    // A third top touching only X1 would close the chain a–b–cand.
    let (code, msg) = refused(conn1.begin_top_declared(&[], &[1]));
    assert_eq!(code, err_code::STATIC_GATE);
    assert!(msg.contains("weight 2"), "{msg}");

    // Aborting the middle of the chain splits the component.
    match conn2.request(&Request::Abort { tx: b }).expect("abort") {
        Response::AbortOk => {}
        other => panic!("expected AbortOk, got {other:?}"),
    }
    let d = begun(conn1.begin_top_declared(&[], &[1]));
    commit(&mut conn1, d);
    commit(&mut conn1, a);

    conn1.shutdown_server().expect("shutdown");
    handle.wait();
}

#[test]
fn closing_a_connection_releases_its_declared_tops() {
    let (addr, handle) = start_gated();
    {
        let mut conn1 = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");
        let _a = begun(conn1.begin_top_declared(&[], &[0, 1]));
        // conn1 drops here without committing: the server aborts its
        // open tops and must free their admission slots.
    }
    let mut conn2 = Conn::connect(&addr, 2, ConnConfig::default()).expect("connect");
    // The abort is asynchronous with the close; retry briefly.
    let mut admitted = None;
    for _ in 0..100 {
        match conn2.begin_top_declared(&[], &[0, 1]).expect("transport") {
            Ok(tx) => {
                admitted = Some(tx);
                break;
            }
            Err((code, _)) => {
                assert_eq!(code, err_code::STATIC_GATE);
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }
    let tx = admitted.expect("declared top admitted after its owner's connection closed");
    commit(&mut conn2, tx);

    conn2.shutdown_server().expect("shutdown");
    handle.wait();
}

fn access(conn: &mut Conn, parent: u32, obj: u32, op: Op) -> Response {
    conn.request(&Request::Access { parent, obj, op })
        .expect("access")
}

fn begin(conn: &mut Conn, req: Request) -> u32 {
    match conn.request(&req).expect("begin") {
        Response::Begun { tx } => tx,
        other => panic!("expected Begun, got {other:?}"),
    }
}

fn gate_refusal(resp: Response) -> String {
    match resp {
        Response::Error { code, msg } if code == err_code::STATIC_GATE => msg,
        other => panic!("expected a STATIC_GATE refusal, got {other:?}"),
    }
}

#[test]
fn accesses_outside_the_declaration_are_refused_before_they_register() {
    let (addr, handle) = start_gated();
    let engine = handle.engine();
    let mut conn = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");
    let mut other = Conn::connect(&addr, 2, ConnConfig::default()).expect("connect");

    let a = begun(conn.begin_top_declared(&[0], &[1]));
    let ok = Response::AccessOk { value: Value::Ok };
    // Inside the declaration: a write to the write object, reads of both.
    assert_eq!(access(&mut conn, a, 1, Op::Write(4)), ok);
    assert_eq!(
        access(&mut conn, a, 0, Op::Read),
        Response::AccessOk {
            value: Value::Int(0)
        }
    );
    assert_eq!(
        access(&mut conn, a, 1, Op::Read),
        Response::AccessOk {
            value: Value::Int(4)
        }
    );

    // Outside it — a write to a read-only object, a read of an undeclared
    // one, and the same from a subtransaction — nothing is registered.
    let child = begin(&mut conn, Request::BeginChild { parent: a });
    let registered = engine.tx_count();
    let msg = gate_refusal(access(&mut conn, a, 0, Op::Write(9)));
    assert!(msg.contains("write of X0"), "{msg}");
    assert!(msg.contains("reads {X0}, writes {X1}"), "{msg}");
    gate_refusal(access(&mut conn, a, 2, Op::Read));
    gate_refusal(access(&mut conn, child, 2, Op::Write(1)));
    assert_eq!(engine.tx_count(), registered, "a refused access registers");

    // ... and takes no lock: another connection's plain top (which the
    // gate never checks) writes X2 and commits without waiting.
    let b = begin(&mut other, Request::BeginTop);
    assert_eq!(access(&mut other, b, 2, Op::Write(2)), ok);
    commit(&mut other, b);

    // Errors the session owns keep their own codes.
    match access(&mut conn, 999, 0, Op::Write(1)) {
        Response::Error { code, .. } => assert_eq!(code, err_code::UNKNOWN_TX),
        other => panic!("expected UNKNOWN_TX, got {other:?}"),
    }
    commit(&mut conn, child);
    commit(&mut conn, a);

    // A committed declaration no longer binds: a plain top on the same
    // connection writes X0.
    let c = begin(&mut conn, Request::BeginTop);
    assert_eq!(access(&mut conn, c, 0, Op::Write(3)), ok);
    commit(&mut conn, c);

    let (tree, actions) = conn.fetch_history().expect("history");
    let cert = nt_net::client::certify_history(&tree, &actions);
    assert!(cert.is_serially_correct());
    conn.shutdown_server().expect("shutdown");
    handle.wait();
}

#[test]
fn without_the_gate_declared_begin_degrades_to_begin_top() {
    let server = NetServer::bind(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let mut conn = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");

    // Crossing declarations sail through when the gate is off.
    let a = begun(conn.begin_top_declared(&[], &[0, 1]));
    let b = begun(conn.begin_top_declared(&[], &[0, 1]));
    commit(&mut conn, a);
    commit(&mut conn, b);

    conn.shutdown_server().expect("shutdown");
    handle.wait();
}
