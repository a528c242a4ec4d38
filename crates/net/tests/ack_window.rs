//! The exactly-once cache as a window: every request carries the client's
//! cumulative ack, and a connection keeps only the replies its client may
//! still resend. A resend below the ack is refused with `ACKED` and runs
//! nothing; under a faulty transport the cache stays within one pipelined
//! run however many ops the connection serves.

use nt_faults::TransportPlan;
use nt_model::Op;
use nt_net::wire::{
    decode_frame, encode_request_acked, parse_response, read_frame, Request, CRC_LEN,
    DEFAULT_MAX_FRAME, KIND_BATCH_REQ,
};
use nt_net::{certify_history, Conn, ConnConfig, NetServer, Response, ServerConfig, ServerStats};
use nt_reactor::FrameBuf;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;

fn start_server(cfg: ServerConfig) -> (String, nt_net::ServerHandle) {
    let server = NetServer::bind(cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (addr, server.serve())
}

fn begin_top(conn: &mut Conn) -> u32 {
    match conn.request(&Request::BeginTop).expect("begin top") {
        Response::Begun { tx } => tx,
        other => panic!("expected Begun, got {other:?}"),
    }
}

fn write(parent: u32, obj: u32) -> Request {
    Request::Access {
        parent,
        obj,
        op: Op::Write(i64::from(obj) + 1),
    }
}

/// A relay between one client and `server` that forwards both directions
/// untouched, except that after the first `PING` it sends the first
/// `BATCH` frame it saw once more: a resend that arrives after the
/// client's ack has passed that batch's first member.
fn spawn_relay(server: String) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let addr = listener.local_addr().expect("relay addr").to_string();
    let relay = std::thread::spawn(move || {
        let (mut client, _) = listener.accept().expect("accept client");
        let mut upstream = TcpStream::connect(server).expect("connect server");
        let (mut down_from, mut down_to) = (
            upstream.try_clone().expect("clone"),
            client.try_clone().expect("clone"),
        );
        let down = std::thread::spawn(move || {
            let _ = std::io::copy(&mut down_from, &mut down_to);
        });
        let mut fr = FrameBuf::new();
        let (mut batch, mut replayed) = (None, false);
        while let Ok(Some(frame)) = read_frame(&mut fr, &mut client, DEFAULT_MAX_FRAME) {
            let mut wire = ((frame.len() - CRC_LEN) as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(frame);
            upstream.write_all(&wire).expect("forward");
            let kind = decode_frame(frame).expect("a client frame").kind;
            if kind == KIND_BATCH_REQ && batch.is_none() {
                batch = Some(wire);
            } else if kind == Request::Ping.kind() && !replayed {
                upstream
                    .write_all(batch.as_ref().expect("a batch went first"))
                    .expect("replay");
                replayed = true;
            }
        }
        let _ = upstream.shutdown(Shutdown::Write);
        down.join().expect("downstream copy");
    });
    (addr, relay)
}

/// A `BATCH` resent after the client received its first member and its
/// next frame acknowledged it: the server answers that member `ACKED` and
/// the rest from cache, runs nothing twice, and the `Conn` — which no
/// longer awaits the acked member — drops that entry and carries on.
#[test]
fn a_batch_resent_past_its_acked_member_runs_nothing_twice() {
    let (addr, handle) = start_server(ServerConfig::default());
    let (relay_addr, relay) = spawn_relay(addr);
    let mut conn = Conn::connect(&relay_addr, 1, ConnConfig::default()).expect("connect");
    let top = begin_top(&mut conn);
    let seqs = conn
        .send_batch(&[write(top, 0), write(top, 1), write(top, 2)])
        .expect("send batch");
    assert!(matches!(conn.recv(seqs[0]), Ok(Response::AccessOk { .. })));
    let stats = |h: &nt_net::ServerHandle| -> ServerStats { h.probe().stats().1 };
    let executed = stats(&handle).executed;
    // Acks `seqs[0]`; the relay then replays the whole batch behind it.
    assert!(matches!(conn.request(&Request::Ping), Ok(Response::Pong)));
    // The replayed batch's reply reaches the `Conn` before this one's.
    assert!(matches!(
        conn.request(&Request::Commit { tx: top }),
        Ok(Response::Committed)
    ));
    for seq in &seqs[1..] {
        assert!(matches!(conn.recv(*seq), Ok(Response::AccessOk { .. })));
    }
    let s = stats(&handle);
    assert_eq!(
        s.executed,
        executed + 2,
        "the ping and the commit, nothing else"
    );
    assert_eq!((s.acked_refusals, s.cache_hits), (1, 2));
    let (tree, actions) = conn.fetch_history().expect("history");
    assert!(certify_history(&tree, &actions).is_serially_correct());
    drop(conn);
    relay.join().expect("relay");
    handle.wait();
}

/// A frame the fault plan dropped is resent after a later seq already ran
/// and was cached: the resend executes once, late, and its reply takes the
/// out-of-order slot before that later seq's. A second resend is answered
/// from that slot byte for byte, and nothing runs twice.
#[test]
fn a_dropped_frame_resent_after_later_seqs_executes_once_and_is_cached_in_order() {
    let (addr, handle) = start_server(ServerConfig {
        fault: Some(TransportPlan {
            drop_period: 4,
            ..TransportPlan::default()
        }),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut fb = FrameBuf::new();
    let mut exchange = |wire: &[u8]| -> Vec<u8> {
        stream.write_all(wire).expect("send");
        let frame = read_frame(&mut fb, &mut stream, DEFAULT_MAX_FRAME).expect("read");
        frame.expect("a reply").to_vec()
    };
    let b = Conn::seq_base(1);
    let frame = |seq, acked_below, req: &Request| {
        encode_request_acked(seq, acked_below, req).expect("encode")
    };
    // Frames 1–3 are delivered.
    let top = match parse_response(&exchange(&frame(b, b, &Request::BeginTop))) {
        Ok((_, Response::Begun { tx })) => tx,
        other => panic!("expected Begun, got {other:?}"),
    };
    let registered = handle.engine().tx_count();
    for seq in [b + 1, b + 2] {
        exchange(&frame(seq, seq, &Request::Ping));
    }
    // Pipelined in one write: frame 4, the write to object 0, is dropped;
    // frame 5 writes object 1 under the next seq, still acknowledging
    // only below the first.
    let lost = frame(b + 3, b + 3, &write(top, 0));
    let later = exchange(&[lost.clone(), frame(b + 4, b + 3, &write(top, 1))].concat());
    assert_eq!(parse_response(&later).expect("a reply").0, b + 4);
    let stats = |h: &nt_net::ServerHandle| -> ServerStats { h.probe().stats().1 };
    assert_eq!((stats(&handle).dropped, stats(&handle).reply_cache), (1, 1));
    // Frame 6 resends the lost write: it runs now, after seq b + 4.
    let first = exchange(&lost);
    assert!(matches!(
        parse_response(&first),
        Ok((seq, Response::AccessOk { .. })) if seq == b + 3
    ));
    assert_eq!(stats(&handle).reply_cache, 2, "both writes are held");
    // Frame 7 resends it again: answered from the cache, byte for byte.
    let executed = stats(&handle).executed;
    assert_eq!(exchange(&lost), first);
    let s = stats(&handle);
    assert_eq!(
        (s.executed, s.cache_hits),
        (executed, 1),
        "nothing ran twice"
    );
    assert_eq!(
        handle.engine().tx_count(),
        registered + 2,
        "the two writes, each registered once"
    );
    // The client now has the write's answer: an ack past it, but not
    // past the later seq, frees exactly that slot. (Frame 8, a ping,
    // is dropped; frame 9 carries the same ack.)
    let acked = [
        frame(b + 5, b + 4, &Request::Ping),
        frame(b + 6, b + 4, &Request::Ping),
    ];
    let pong = exchange(&acked.concat());
    assert_eq!(parse_response(&pong), Ok((b + 6, Response::Pong)));
    assert_eq!(
        stats(&handle).reply_cache,
        1,
        "only the later write is held"
    );
    drop(stream);
    handle.wait();
}

/// Ops the soak runs; a tenth of them before the first reading.
const SOAK_OPS: u64 = 20_000;
/// Accesses per `BATCH`: the longest pipelined run the soak sends.
const RUN: u32 = 16;

fn reply_cache_max(conn: &mut Conn) -> f64 {
    let stats = conn.stats().expect("stats");
    let v = nt_obs::json::Json::parse(&stats).expect("stats parses");
    v.get("reply_cache_max")
        .and_then(nt_obs::json::Json::as_num)
        .unwrap_or_else(|| panic!("reply_cache_max present: {stats}"))
}

/// Twenty thousand mutating ops over one `Conn`, batched 16 to a frame,
/// through a transport that drops, duplicates and delays frames: the
/// connection's cache never holds more than one batch, is no larger at the
/// end than after the first 2,000 ops, and the duplicates were still
/// answered from it.
#[test]
fn the_reply_cache_stays_within_one_pipelined_run_under_a_faulty_soak() {
    let (addr, handle) = start_server(ServerConfig {
        fault: Some(TransportPlan {
            drop_period: 53,
            dup_period: 7,
            delay_period: 11,
            delay_us: 100,
        }),
        ..ServerConfig::default()
    });
    let cfg = ConnConfig {
        timeout_ms: 10,
        backoff_round_us: 100,
        ..ConnConfig::default()
    };
    let mut conn = Conn::connect(&addr, 1, cfg).expect("connect");
    let (mut ops, mut early, mut tops) = (0u64, None, 0u32);
    while ops < SOAK_OPS {
        let top = begin_top(&mut conn);
        let run: Vec<Request> = (0..RUN)
            .map(|k| write(top, (tops * RUN + k) % 4096))
            .collect();
        for resp in conn.batch_request(&run).expect("batch") {
            assert!(matches!(resp, Response::AccessOk { .. }), "{resp:?}");
        }
        assert!(matches!(
            conn.request(&Request::Commit { tx: top }),
            Ok(Response::Committed)
        ));
        tops += 1;
        ops += u64::from(RUN) + 2;
        if early.is_none() && ops >= SOAK_OPS / 10 {
            early = Some(reply_cache_max(&mut conn));
        }
    }
    let late = reply_cache_max(&mut conn);
    let early = early.expect("read after the first 2,000 ops");
    assert!(late <= f64::from(RUN), "the cache held {late} replies");
    assert_eq!(late, early, "the cache grew with ops served");
    let (tree, actions) = conn.fetch_history().expect("history");
    assert!(certify_history(&tree, &actions).is_serially_correct());
    assert!(conn.retries > 0, "the drops forced resends");
    drop(conn);
    let s = handle.wait().stats;
    assert!(s.executed >= SOAK_OPS, "{s:?}");
    assert!(
        s.cache_hits > 0,
        "duplicates are answered from cache: {s:?}"
    );
    assert!(s.dropped > 0 && s.duplicated > 0 && s.delayed > 0, "{s:?}");
    assert_eq!(s.reply_cache, 0, "a closed connection holds nothing");
}
