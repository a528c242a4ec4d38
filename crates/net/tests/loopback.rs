//! End-to-end loopback tests: a real `NetServer` on 127.0.0.1, real
//! `Conn` clients, contended multi-connection load, transport faults
//! with client retries, graceful drain, and malformed-frame handling —
//! every run's recorded history is fetched over the wire and certified
//! with the Theorem 17 post-hoc pipeline.

use nt_faults::TransportPlan;
use nt_model::{Op, Value};
use nt_net::client::tx_reply;
use nt_net::wire::{
    crc32, decode_batch_response, decode_frame, encode_batch_request, err_code, parse_response,
    read_frame, WireError, CRC_LEN, KIND_BATCH_RESP, VERSION,
};
use nt_net::{
    fetch_and_certify, run_load, Conn, ConnConfig, LoadConfig, NetServer, Request, Response,
    ServerConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;

fn start_server(cfg: ServerConfig) -> (String, nt_net::ServerHandle) {
    let server = NetServer::bind(cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (addr, server.serve())
}

#[test]
fn single_session_runs_a_nested_transaction_end_to_end() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut conn = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");

    assert!(matches!(conn.request(&Request::Ping), Ok(Response::Pong)));

    let top = match conn.request(&Request::BeginTop).expect("begin top") {
        Response::Begun { tx } => tx,
        other => panic!("expected Begun, got {other:?}"),
    };
    let wrote = conn
        .request(&Request::Access {
            parent: top,
            obj: 0,
            op: Op::Write(42),
        })
        .expect("write");
    assert!(matches!(wrote, Response::AccessOk { .. }));

    let child = match conn
        .request(&Request::BeginChild { parent: top })
        .expect("begin child")
    {
        Response::Begun { tx } => tx,
        other => panic!("expected Begun, got {other:?}"),
    };
    // The child sees its ancestor's uncommitted write (Moss rules).
    match conn
        .request(&Request::Access {
            parent: child,
            obj: 0,
            op: Op::Read,
        })
        .expect("read")
    {
        Response::AccessOk { value } => assert_eq!(value, Value::Int(42)),
        other => panic!("expected AccessOk, got {other:?}"),
    }
    assert!(matches!(
        conn.request(&Request::Commit { tx: child }),
        Ok(Response::Committed)
    ));
    assert!(matches!(
        conn.request(&Request::Commit { tx: top }),
        Ok(Response::Committed)
    ));

    // Unknown transaction ids come back as typed errors, not closes.
    match conn.request(&Request::Commit { tx: 9999 }).expect("reply") {
        Response::Error { code, .. } => assert_eq!(code, err_code::UNKNOWN_TX),
        other => panic!("expected Error, got {other:?}"),
    }

    let (tree, actions) = conn.fetch_history().expect("history");
    let cert = nt_net::certify_history(&tree, &actions);
    assert!(
        cert.is_serially_correct(),
        "violations: {}",
        cert.violations
    );
    assert!(cert.actions > 0);

    conn.shutdown_server().expect("shutdown");
    drop(conn);
    let report = handle.wait();
    assert!(report.stats.executed > 0);
    assert_eq!(report.victims, 0);
}

/// The server caps the frames it writes as it caps the frames it reads:
/// a history that outgrows `max_frame_len` is refused with a typed error
/// naming the frame length and the cap, instead of a frame every client
/// reading with that cap drops, and the connection keeps serving.
#[test]
fn an_answer_past_max_frame_len_is_refused_typed_and_the_connection_lives() {
    let (addr, handle) = start_server(ServerConfig {
        max_frame_len: 4096,
        ..ServerConfig::default()
    });
    let mut conn = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");
    for i in 0..48 {
        let top = match conn.request(&Request::BeginTop).expect("begin top") {
            Response::Begun { tx } => tx,
            other => panic!("expected Begun, got {other:?}"),
        };
        let (obj, op) = (i as u32 % 4, Op::Write(i));
        let wrote = conn.request(&Request::Access {
            parent: top,
            obj,
            op,
        });
        assert!(matches!(wrote, Ok(Response::AccessOk { .. })), "{wrote:?}");
        let done = conn.request(&Request::Commit { tx: top });
        assert!(matches!(done, Ok(Response::Committed)), "{done:?}");
    }
    let fetched = conn.request(&Request::HistoryFetch);
    match fetched.expect("a reply, not a dropped frame") {
        Response::Error { code, msg } => {
            assert_eq!(code, err_code::FRAME_TOO_LARGE, "{msg}");
            assert!(msg.contains("max_frame_len 4096"), "{msg}");
        }
        other => panic!(
            "expected the frame-cap refusal, got kind {:#04x}",
            other.kind()
        ),
    }
    assert!(matches!(conn.request(&Request::Ping), Ok(Response::Pong)));
    conn.shutdown_server().expect("shutdown");
    drop(conn);
    handle.wait();
}

/// A `BATCH_RESP` never passes the server's own `max_frame_len`: members
/// whose answers grow with server state are refused inside it, before any
/// member runs, and the connection lives. The reply is read with the
/// server's cap, as a client with the same limit would read it.
#[test]
fn a_batch_of_history_fetches_is_refused_within_max_frame_len() {
    const CAP: usize = 4096;
    let (addr, handle) = start_server(ServerConfig {
        max_frame_len: CAP,
        ..ServerConfig::default()
    });
    let mut conn = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");
    for i in 0..8 {
        let top = match conn.request(&Request::BeginTop).expect("begin top") {
            Response::Begun { tx } => tx,
            other => panic!("expected Begun, got {other:?}"),
        };
        let wrote = conn.request(&Request::Access {
            parent: top,
            obj: i as u32 % 4,
            op: Op::Write(i),
        });
        assert!(matches!(wrote, Ok(Response::AccessOk { .. })), "{wrote:?}");
        let done = conn.request(&Request::Commit { tx: top });
        assert!(matches!(done, Ok(Response::Committed)), "{done:?}");
    }
    let mut raw = TcpStream::connect(&addr).expect("connect raw");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("timeout");
    let base = Conn::seq_base(2);
    let ops: Vec<(u64, Request)> = (1..=16)
        .map(|k| (base + k, Request::HistoryFetch))
        .collect();
    raw.write_all(&encode_batch_request(base, &ops).expect("encode"))
        .expect("send batch");
    let mut fb = nt_reactor::FrameBuf::new();
    let frame = read_frame(&mut fb, &mut raw, CAP)
        .expect("the BATCH_RESP fits the server's cap")
        .expect("a reply");
    let f = decode_frame(frame).expect("a sound frame");
    assert_eq!((f.kind, f.seq), (KIND_BATCH_RESP, base));
    let members = decode_batch_response(f.body).expect("entries");
    assert_eq!(members.len(), 16);
    for (k, (seq, resp)) in members.into_iter().enumerate() {
        assert_eq!(seq, base + 1 + k as u64);
        match resp {
            Response::Error { code, msg } => assert_eq!(code, err_code::UNBATCHABLE, "{msg}"),
            other => panic!(
                "member {k}: expected the refusal, got kind {:#04x}",
                other.kind()
            ),
        }
    }
    let ping = nt_net::wire::encode_request(base + 17, &Request::Ping).expect("encode");
    raw.write_all(&ping).expect("send ping");
    let frame = read_frame(&mut fb, &mut raw, CAP)
        .expect("read")
        .expect("a reply");
    assert_eq!(parse_response(frame), Ok((base + 17, Response::Pong)));
    // Sent alone, a fetch is answered.
    assert!(matches!(
        conn.request(&Request::HistoryFetch),
        Ok(Response::History(_))
    ));
    drop((conn, raw));
    handle.wait();
}

/// A `BATCH` with more members than one `BATCH_RESP` within the cap can
/// answer is a protocol error, and none of its members runs.
#[test]
fn a_batch_longer_than_one_reply_frame_can_answer_runs_nothing() {
    let (addr, handle) = start_server(ServerConfig {
        max_frame_len: 4096,
        ..ServerConfig::default()
    });
    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("timeout");
    let registered = handle.engine().tx_count();
    let ops: Vec<(u64, Request)> = (1..=64).map(|k| (k, Request::BeginTop)).collect();
    raw.write_all(&encode_batch_request(100, &ops).expect("encode"))
        .expect("send batch");
    let mut fb = nt_reactor::FrameBuf::new();
    let frame = read_frame(&mut fb, &mut raw, 4096)
        .expect("read")
        .expect("a reply");
    match parse_response(frame) {
        Ok((0, Response::Error { code, msg })) => {
            assert_eq!(code, err_code::PROTOCOL, "{msg}");
            assert!(msg.contains("64 members"), "{msg}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert_eq!(handle.engine().tx_count(), registered, "no member ran");
    drop(raw);
    handle.wait();
}

/// `recv` of a seq this connection is not awaiting — never sent, or its
/// answer already taken — is a typed error at once: no wait, no resend.
#[test]
fn recv_of_a_seq_not_in_flight_is_refused_at_once() {
    let (addr, handle) = start_server(ServerConfig::default());
    let cfg = ConnConfig {
        timeout_ms: 2_000,
        ..ConnConfig::default()
    };
    let mut conn = Conn::connect(&addr, 1, cfg).expect("connect");
    let seq = conn.send(&Request::Ping).expect("send");
    assert_eq!(conn.recv(seq), Ok(Response::Pong));
    let start = std::time::Instant::now();
    assert_eq!(conn.recv(seq), Err(WireError::NotInFlight(seq)), "taken");
    let never = seq + 1_000;
    assert_eq!(conn.recv(never), Err(WireError::NotInFlight(never)));
    assert!(
        start.elapsed() < std::time::Duration::from_millis(500),
        "waited {:?}",
        start.elapsed()
    );
    assert_eq!(conn.retries, 0);
    assert!(conn.journal.is_empty(), "{:?}", conn.journal);
    drop(conn);
    handle.wait();
}

/// A client can name any `u32` object. `u32::MAX` is refused with a typed
/// error; `u32::MAX - 1` is served, and the history fetched afterwards —
/// its tree counts `u32::MAX` objects — is built and certified without
/// anything sized by the largest id.
#[test]
fn object_ids_at_the_top_of_the_range_neither_crash_nor_exhaust_the_server() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut conn = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");
    let top = match conn.request(&Request::BeginTop).expect("begin top") {
        Response::Begun { tx } => tx,
        other => panic!("expected Begun, got {other:?}"),
    };
    let access = |obj, op| Request::Access {
        parent: top,
        obj,
        op,
    };
    match conn
        .request(&access(u32::MAX, Op::Write(1)))
        .expect("reply")
    {
        Response::Error { code, .. } => assert_eq!(code, err_code::BAD_OBJECT),
        other => panic!("expected Error, got {other:?}"),
    }
    let high = u32::MAX - 1;
    let wrote = conn.request(&access(high, Op::Write(7))).expect("write");
    assert!(matches!(wrote, Response::AccessOk { .. }), "{wrote:?}");
    match conn.request(&access(high, Op::Read)).expect("read") {
        Response::AccessOk { value } => assert_eq!(value, Value::Int(7)),
        other => panic!("expected AccessOk, got {other:?}"),
    }
    assert!(matches!(
        conn.request(&Request::Commit { tx: top }),
        Ok(Response::Committed)
    ));

    let (tree, actions) = conn.fetch_history().expect("history");
    assert_eq!(tree.len(), 4, "T0, the top and its two accesses");
    assert_eq!(tree.num_objects(), u32::MAX as usize);
    let cert = nt_net::certify_history(&tree, &actions);
    assert!(cert.is_serially_correct(), "{}", cert.verdict.name());

    conn.shutdown_server().expect("shutdown");
    drop(conn);
    handle.wait();
}

#[test]
fn contended_connections_certify_acyclic() {
    let (addr, handle) = start_server(ServerConfig::default());
    let load = LoadConfig {
        addr: addr.clone(),
        connections: 4,
        tops_per_conn: 16,
        objects: 3,
        hotspot: 0.7,
        read_ratio: 0.4,
        max_depth: 2,
        seed: 23,
        top_retries: 10,
        ..LoadConfig::default()
    };
    let report = run_load(&addr, &load).expect("load runs");
    // Under this contention some tops may exhaust even a generous retry
    // budget on a loaded host; the invariant is that the bulk of the work
    // commits and the recorded history certifies clean, not that every
    // deadlock victim is salvaged.
    assert!(
        report.committed_tops >= 32,
        "too little committed: {report:?}"
    );

    let cert = fetch_and_certify(&addr, ConnConfig::from(&load)).expect("certify");
    assert_eq!(cert.violations, 0);
    assert!(cert.is_serially_correct());
    assert!(cert.sg_nodes as u64 >= report.committed_tops);

    handle.wait();
}

/// Every top of a seeded, contended workload commits — victims are
/// retried to completion — single-op and batched, the recorded history
/// passes Theorem 17, and no lock grant was found by the blocking
/// wrapper's backstop: continuations have none, and the server never
/// enters the wrapper that has.
#[test]
fn every_seeded_top_commits_unbatched_and_batched_with_no_rescues() {
    for batch in [1, 8] {
        let (addr, handle) = start_server(ServerConfig::default());
        let load = LoadConfig {
            addr: addr.clone(),
            connections: 4,
            tops_per_conn: 24,
            objects: 4,
            hotspot: 0.6,
            read_ratio: 0.3,
            max_depth: 2,
            seed: 41,
            // Generous: a victim is retried until it commits, so the set
            // of committed tops is the whole workload.
            top_retries: 200,
            batch,
            ..LoadConfig::default()
        };
        let report = run_load(&addr, &load).expect("load runs");
        let cert = fetch_and_certify(&addr, ConnConfig::from(&load)).expect("certify");
        assert_eq!(cert.violations, 0, "batch {batch}: history has violations");
        assert!(cert.is_serially_correct(), "batch {batch}: not certified");
        assert_eq!(report.gave_up, 0, "batch {batch}");
        assert_eq!(report.committed_tops, 4 * 24, "batch {batch}: lost tops");
        assert_eq!(handle.engine().timeout_rescues(), 0, "batch {batch}");
        handle.wait();
    }
}

#[test]
fn faulty_transport_still_certifies_with_retries() {
    let fault = TransportPlan {
        drop_period: 11,
        dup_period: 7,
        delay_period: 5,
        delay_us: 200,
    };
    let (addr, handle) = start_server(ServerConfig {
        fault: Some(fault),
        ..ServerConfig::default()
    });
    let load = LoadConfig {
        addr: addr.clone(),
        connections: 4,
        tops_per_conn: 10,
        objects: 4,
        hotspot: 0.5,
        read_ratio: 0.5,
        max_depth: 2,
        seed: 31,
        timeout_ms: 50,
        ..LoadConfig::default()
    };
    let report = run_load(&addr, &load).expect("load survives faults");
    assert!(report.committed_tops > 0);
    assert!(
        report.retries > 0,
        "the drop plan must have forced client resends"
    );

    let cert = fetch_and_certify(&addr, ConnConfig::from(&load)).expect("certify");
    assert_eq!(cert.violations, 0);
    assert!(cert.is_serially_correct());

    let drained = handle.wait();
    assert!(drained.stats.dropped > 0);
    assert!(drained.stats.duplicated > 0);
    assert!(drained.stats.delayed > 0);
    // Duplicated frames were answered from the response cache, never
    // executed twice.
    assert!(drained.stats.cache_hits > 0);
}

#[test]
fn graceful_drain_answers_all_queued_work() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut conn = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");

    // Pipeline a burst, then a Shutdown *behind* it: the executor must
    // answer everything already queued before the drain takes hold.
    let top_seq = conn.send(&Request::BeginTop).expect("send");
    let top = match conn.recv(top_seq).expect("recv") {
        Response::Begun { tx } => tx,
        other => panic!("expected Begun, got {other:?}"),
    };
    let mut pending = Vec::new();
    for i in 0..8 {
        pending.push(
            conn.send(&Request::Access {
                parent: top,
                obj: 0,
                op: Op::Write(i),
            })
            .expect("send access"),
        );
    }
    pending.push(
        conn.send(&Request::Commit { tx: top })
            .expect("send commit"),
    );
    let down_seq = conn.send(&Request::Shutdown).expect("send shutdown");

    for seq in pending {
        let resp = conn.recv(seq).expect("queued work answered");
        assert!(tx_reply(resp).is_ok(), "queued request was rejected");
    }
    assert!(matches!(conn.recv(down_seq), Ok(Response::ShuttingDown)));
    drop(conn);

    let report = handle.wait();
    // BeginTop + 8 writes + commit + shutdown, all executed exactly once.
    assert_eq!(report.stats.executed, 11);
    assert_eq!(report.stats.cache_hits, 0);
}

/// A deadlock victim is journaled by the poll thread in the round that
/// doomed it, so a drain right behind the doom cannot lose the line. (A
/// sampling thread used to write these, and stopped at the drain without
/// a last pass.)
#[test]
fn a_victim_doomed_just_before_a_drain_is_journaled() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut a = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect a");
    let mut b = Conn::connect(&addr, 2, ConnConfig::default()).expect("connect b");
    let begin = |c: &mut Conn| match c.request(&Request::BeginTop).expect("begin top") {
        Response::Begun { tx } => tx,
        other => panic!("expected Begun, got {other:?}"),
    };
    let (ta, tb) = (begin(&mut a), begin(&mut b));
    let write = |parent, obj| Request::Access {
        parent,
        obj,
        op: Op::Write(1),
    };
    for (c, t, x) in [(&mut a, ta, 0), (&mut b, tb, 1)] {
        assert!(matches!(
            c.request(&write(t, x)),
            Ok(Response::AccessOk { .. })
        ));
    }
    // Cross over; b's access closes the cycle and both are answered.
    let sa = a.send(&write(ta, 1)).expect("send");
    a.flush().expect("flush");
    let rb = b.request(&write(tb, 0)).expect("b's access");
    let ra = a.recv(sa).expect("a's access");
    assert!(
        matches!(
            (&ra, &rb),
            (Response::AccessOk { .. }, Response::Aborted { .. })
                | (Response::Aborted { .. }, Response::AccessOk { .. })
        ),
        "exactly one side falls: {ra:?} / {rb:?}"
    );
    let report = handle.wait();
    assert_eq!(report.victims, 1);
    let lines = report
        .journal
        .iter()
        .filter(|l| l.contains("deadlock_victim"))
        .count();
    assert_eq!(lines, report.victims, "{:?}", report.journal);
}

/// One recorder, one sequence: under a transport fault plan and a forced
/// deadlock, the drained journal is numbered contiguously from 0, the
/// flight dump is a tail of those very lines (same `seq`), and the
/// auto-derived `ev.*` counters count each net event under its own name.
#[test]
fn journal_flight_dump_and_counters_are_one_sequence() {
    use nt_obs::json::Json;
    let (addr, handle) = start_server(ServerConfig {
        fault: Some(TransportPlan {
            drop_period: 11,
            dup_period: 7,
            delay_period: 5,
            delay_us: 200,
        }),
        ..ServerConfig::default()
    });
    let probe = handle.probe();
    let cfg = ConnConfig {
        timeout_ms: 50,
        ..ConnConfig::default()
    };
    // The deadlock pair sends three frames each: too few to meet the plan.
    let mut a = Conn::connect(&addr, 1, cfg).expect("connect a");
    let mut b = Conn::connect(&addr, 2, cfg).expect("connect b");
    let begin = |c: &mut Conn| match c.request(&Request::BeginTop).expect("begin top") {
        Response::Begun { tx } => tx,
        other => panic!("expected Begun, got {other:?}"),
    };
    let (ta, tb) = (begin(&mut a), begin(&mut b));
    let write = |parent, obj| Request::Access {
        parent,
        obj,
        op: Op::Write(1),
    };
    for (c, t, x) in [(&mut a, ta, 0), (&mut b, tb, 1)] {
        assert!(matches!(
            c.request(&write(t, x)),
            Ok(Response::AccessOk { .. })
        ));
    }
    let sa = a.send(&write(ta, 1)).expect("send");
    a.flush().expect("flush");
    b.request(&write(tb, 0)).expect("b's access");
    a.recv(sa).expect("a's access");
    // A third connection pings through a delay, a duplicate and a drop.
    let mut c = Conn::connect(&addr, 3, cfg).expect("connect c");
    for _ in 0..12 {
        assert!(matches!(c.request(&Request::Ping), Ok(Response::Pong)));
    }
    drop((a, b, c));

    let dump = probe
        .telemetry()
        .flight_dump("test")
        .expect("events were recorded");
    let report = handle.wait();
    let field = |line: &str, key: &str| {
        let doc = Json::parse(line).expect("journal line parses");
        doc.get(key).cloned().expect("stamped field")
    };
    for (i, line) in report.journal.iter().enumerate() {
        assert_eq!(field(line, "seq").as_num(), Some(i as f64), "{line}");
        assert_eq!(field(line, "round").as_num(), Some(0.0));
    }
    let kinds: Vec<String> = report
        .journal
        .iter()
        .map(|l| field(l, "type").as_str().expect("type").to_string())
        .collect();
    let count = |kind: &str| kinds.iter().filter(|k| *k == kind).count() as u64;
    let s = report.stats;
    assert_eq!(count("conn_accepted"), 3);
    assert_eq!(count("conn_closed"), 3);
    assert_eq!(count("deadlock_victim"), 1);
    assert!(s.dropped > 0 && s.duplicated > 0 && s.delayed > 0, "{s:?}");
    assert_eq!(count("frame_fault"), s.dropped + s.duplicated + s.delayed);
    assert_eq!(kinds.last().map(String::as_str), Some("server_drained"));

    // The dump: a header, then journal lines verbatim at their own `seq`.
    let tail: Vec<&str> = dump.lines().skip(1).collect();
    assert!(!tail.is_empty());
    for line in tail {
        let seq = field(line, "seq").as_num().expect("seq") as usize;
        assert_eq!(report.journal[seq], line);
    }

    let m = probe.telemetry().metrics_snapshot().expect("recorder");
    assert_eq!(m.counter("ev.conn_accepted"), s.conns);
    assert_eq!(
        m.counter("ev.frame_fault"),
        s.dropped + s.duplicated + s.delayed
    );
    assert_eq!(m.counter("ev.other"), 0);
}

#[test]
fn malformed_frame_yields_protocol_error_then_close() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut stream = TcpStream::connect(&addr).expect("connect raw");

    // A syntactically framed request with the wrong magic.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0xAAAAu16.to_le_bytes()); // bad magic
    payload.push(VERSION);
    payload.push(0x07); // Ping
    payload.extend_from_slice(&1u64.to_le_bytes()); // seq
    payload.extend_from_slice(&0u64.to_le_bytes()); // acked_below
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&crc32(&payload).to_le_bytes());
    wire.extend_from_slice(&payload);
    stream.write_all(&wire).expect("write garbage");

    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("response length");
    let mut body = vec![0u8; CRC_LEN + u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).expect("response frame");
    let (seq, resp) = parse_response(&body).expect("typed response");
    assert_eq!(seq, 0);
    match resp {
        Response::Error { code, .. } => assert_eq!(code, err_code::PROTOCOL),
        other => panic!("expected Error, got {other:?}"),
    }

    // The server closes the connection after a protocol error.
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).expect("clean close");
    assert_eq!(n, 0);
    drop(stream);

    handle.drain();
    let report = handle.wait();
    assert_eq!(report.stats.executed, 0);
}

/// A fault-plan `Delay` parks its frame as a deadline on the poll thread,
/// it does not sleep there: while connection A's third frame sits out a
/// 150 ms delay (with a fourth queued behind it), connection B's round
/// trips finish well inside that window — and A's replies still come back
/// in request order once the deadline passes.
#[test]
fn fault_plan_delay_on_one_connection_does_not_delay_another() {
    let delay = std::time::Duration::from_millis(150);
    let (addr, handle) = start_server(ServerConfig {
        fault: Some(TransportPlan {
            delay_period: 3,
            delay_us: delay.as_micros() as u64,
            ..TransportPlan::default()
        }),
        ..ServerConfig::default()
    });
    let cfg = ConnConfig {
        timeout_ms: 5_000,
        ..ConnConfig::default()
    };
    let mut a = Conn::connect(&addr, 1, cfg).expect("connect a");
    let mut b = Conn::connect(&addr, 2, cfg).expect("connect b");
    let start = std::time::Instant::now();
    // A's frames 1..=4; the plan delays its third.
    let seqs: Vec<u64> = (0..4)
        .map(|_| a.send(&Request::Ping).expect("send"))
        .collect();
    a.flush().expect("flush");
    // B's frames 1 and 2 are untouched by the plan.
    for _ in 0..2 {
        assert!(matches!(b.request(&Request::Ping), Ok(Response::Pong)));
    }
    let b_done = start.elapsed();
    assert!(
        b_done < delay / 2,
        "B's pings took {b_done:?} beside a {delay:?} delay on A"
    );
    for (k, seq) in seqs.into_iter().enumerate() {
        assert!(matches!(a.recv(seq), Ok(Response::Pong)), "frame {}", k + 1);
        if k == 2 {
            assert!(
                start.elapsed() >= delay,
                "the delayed frame came back early"
            );
        }
    }
    drop((a, b));
    let report = handle.wait();
    assert_eq!(report.stats.delayed, 1);
}
