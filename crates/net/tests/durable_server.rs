//! Durable-server loopback tests: a `NetServer` mounted on an
//! `nt-store` data directory survives a drain/restart cycle with its
//! committed state, recovery report, and response cache intact (under
//! contended batched load too, certified live and after reopen) — and
//! `nt-serve` drains gracefully on `SIGTERM` exactly as it does for a
//! wire `Shutdown`.

use nt_engine::DurabilityMode;
use nt_model::{Op, Value};
use nt_net::wire::{encode_request, parse_response, CRC_LEN};
use nt_net::{
    fetch_and_certify, run_load, Conn, ConnConfig, LoadConfig, NetServer, Request, Response,
    ServerConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

/// A per-test scratch dir (fresh on entry, removed on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("nt-net-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_cfg(dir: &Scratch, durability: DurabilityMode) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.path()),
        durability,
        ..ServerConfig::default()
    }
}

/// Read one length-prefixed frame off a raw socket, returning it *with*
/// the prefix (the length counts the payload, not the CRC before it).
fn read_frame(s: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    s.read_exact(&mut len).expect("frame length");
    let n = u32::from_le_bytes(len) as usize;
    let mut frame = vec![0u8; 4 + CRC_LEN + n];
    frame[..4].copy_from_slice(&len);
    s.read_exact(&mut frame[4..]).expect("frame body");
    frame
}

fn begin_top(conn: &mut Conn) -> u32 {
    match conn.request(&Request::BeginTop).expect("begin top") {
        Response::Begun { tx } => tx,
        other => panic!("expected Begun, got {other:?}"),
    }
}

fn commit_write(conn: &mut Conn, obj: u32, val: i64) {
    let top = begin_top(conn);
    assert!(matches!(
        conn.request(&Request::Access {
            parent: top,
            obj,
            op: Op::Write(val),
        }),
        Ok(Response::AccessOk { .. })
    ));
    assert!(matches!(
        conn.request(&Request::Commit { tx: top }),
        Ok(Response::Committed)
    ));
}

fn read_committed(conn: &mut Conn, obj: u32) -> Value {
    let top = begin_top(conn);
    let got = match conn
        .request(&Request::Access {
            parent: top,
            obj,
            op: Op::Read,
        })
        .expect("read")
    {
        Response::AccessOk { value } => value,
        other => panic!("expected AccessOk, got {other:?}"),
    };
    assert!(matches!(
        conn.request(&Request::Commit { tx: top }),
        Ok(Response::Committed)
    ));
    got
}

#[test]
fn durable_server_state_survives_a_drain_and_restart() {
    let dir = Scratch::new("restart");

    // First life: a fresh data dir reports an empty (but certified)
    // recovery, takes two committed writes, and drains cleanly.
    let server = NetServer::bind(durable_cfg(&dir, DurabilityMode::FsyncPerCommit)).expect("bind");
    let report = server.recovery_report().expect("store mounted");
    assert_eq!(report.history_len, 0);
    assert!(report.certified);
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let mut conn = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");
    commit_write(&mut conn, 0, 41);
    commit_write(&mut conn, 1, 7);
    drop(conn);
    handle.wait();

    // Second life: the recovered history certifies, the committed values
    // are served to a fresh client, and the journaled response cache
    // came back non-empty (every mutating ack was persisted).
    let server =
        NetServer::bind(durable_cfg(&dir, DurabilityMode::FsyncPerCommit)).expect("rebind");
    let report = server.recovery_report().expect("store mounted");
    assert!(report.certified, "recovered history must pass Theorem 17");
    assert!(report.history_len > 0);
    assert!(report.cache_entries > 0);
    assert!(report.losers.is_empty(), "clean drain leaves no losers");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    // A fresh connection id: ids must not be reused against the same
    // data dir (the durable cache is keyed by seq band).
    let mut conn = Conn::connect(&addr, 2, ConnConfig::default()).expect("connect");
    assert_eq!(read_committed(&mut conn, 0), Value::Int(41));
    assert_eq!(read_committed(&mut conn, 1), Value::Int(7));
    drop(conn);
    handle.wait();
}

/// Exactly-once across restart for *batched* ops: a client that never
/// saw the server's batch reply resends the identical `BATCH` frame to
/// the restarted server, and every per-op reply comes back byte-
/// identical from the recovered durable cache — no double-execution.
#[test]
fn whole_batch_resend_across_restart_replies_byte_identical() {
    use nt_net::wire::{encode_batch_request, parse_frame, KIND_BATCH_RESP};

    let dir = Scratch::new("batch-resend");
    // Seqs from connection 7's band, exactly as a real client would draw
    // them — the durable cache is keyed by these across restarts.
    let base: u64 = (7u64 + 1) << 32 | 1;

    // First life: begin a top, then a batch of three mutating ops
    // (two writes + the commit). Capture the batch reply bytes.
    let server = NetServer::bind(durable_cfg(&dir, DurabilityMode::FsyncPerCommit)).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.write_all(&encode_request(base, &Request::BeginTop).expect("encode"))
        .expect("send begin");
    let top = match parse_response(&read_frame(&mut s)[4..]).expect("decode begun") {
        (_, Response::Begun { tx }) => tx,
        other => panic!("expected Begun, got {other:?}"),
    };
    let ops = vec![
        (
            base + 2,
            Request::Access {
                parent: top,
                obj: 0,
                op: Op::Write(5),
            },
        ),
        (
            base + 3,
            Request::Access {
                parent: top,
                obj: 1,
                op: Op::Write(6),
            },
        ),
        (base + 4, Request::Commit { tx: top }),
    ];
    let batch = encode_batch_request(base + 1, &ops).expect("encode batch");
    s.write_all(&batch).expect("send batch");
    let first_reply = read_frame(&mut s);
    let (kind, seq, _) = parse_frame(&first_reply[4..]).expect("parse batch reply");
    assert_eq!(kind, KIND_BATCH_RESP);
    assert_eq!(seq, base + 1);
    s.write_all(&encode_request(base + 5, &Request::Shutdown).expect("encode"))
        .expect("send shutdown");
    let _ = read_frame(&mut s); // ShuttingDown ack
    drop(s);
    handle.wait();

    // Second life: the recovered cache answers the very same frame —
    // byte-identical per-op replies, nothing re-executed.
    let server =
        NetServer::bind(durable_cfg(&dir, DurabilityMode::FsyncPerCommit)).expect("rebind");
    let report = server.recovery_report().expect("store mounted");
    assert!(report.certified);
    assert!(report.cache_entries >= 3, "per-op acks must be durable");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let mut s = TcpStream::connect(&addr).expect("reconnect");
    s.write_all(&batch).expect("resend identical batch");
    let second_reply = read_frame(&mut s);
    assert_eq!(
        first_reply, second_reply,
        "resent batch must answer byte-identically from the durable cache"
    );
    drop(s);

    // And the committed state is the first run's, applied exactly once.
    let mut conn = Conn::connect(&addr, 9, ConnConfig::default()).expect("connect");
    assert_eq!(read_committed(&mut conn, 0), Value::Int(5));
    assert_eq!(read_committed(&mut conn, 1), Value::Int(6));
    conn.shutdown_server().expect("shutdown");
    drop(conn);
    handle.wait();
}

/// A number from a connection's `STATS` document.
fn stat(conn: &mut Conn, key: &str) -> f64 {
    let stats = conn.stats().expect("stats");
    let v = nt_obs::json::Json::parse(&stats).expect("stats parses");
    v.get(key)
        .and_then(nt_obs::json::Json::as_num)
        .unwrap_or_else(|| panic!("{key} present: {stats}"))
}

/// The recovered cache is a window too: after a restart, a `Conn` that
/// carries on in its band acks past its pre-restart seqs and the server
/// forgets those recovered replies, while a raw resend from another band
/// still gets its byte-identical pre-restart reply.
#[test]
fn an_ack_after_restart_prunes_its_band_from_the_recovered_cache() {
    let dir = Scratch::new("recovered-ack");
    let server = NetServer::bind(durable_cfg(&dir, DurabilityMode::FsyncPerCommit)).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let mut conn = Conn::connect(&addr, 3, ConnConfig::default()).expect("connect");
    commit_write(&mut conn, 0, 41);
    commit_write(&mut conn, 1, 7);
    // Connection 5's band: one exchange, kept byte for byte, acking nothing.
    let mut raw = TcpStream::connect(&addr).expect("connect raw");
    let seq = Conn::seq_base(5);
    let request = encode_request(seq, &Request::BeginTop).expect("encode");
    raw.write_all(&request).expect("send begin");
    let reply = read_frame(&mut raw);
    drop(raw);
    handle.wait();

    let server = NetServer::bind(durable_cfg(&dir, DurabilityMode::None)).expect("rebind");
    let report = server.recovery_report().expect("store mounted");
    assert_eq!(report.cache_entries, 7, "six writes' replies and one begin");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let mut observer = Conn::connect(&addr, 9, ConnConfig::default()).expect("connect");
    assert_eq!(stat(&mut observer, "recovered_cache"), 7.0);
    // Connection 3 picks up where it was: its first frame acks all six.
    conn.reconnect(&addr).expect("reconnect");
    assert!(matches!(conn.request(&Request::Ping), Ok(Response::Pong)));
    assert_eq!(stat(&mut observer, "recovered_cache"), 1.0);
    assert_eq!(read_committed(&mut conn, 0), Value::Int(41));
    let mut raw = TcpStream::connect(&addr).expect("reconnect raw");
    raw.write_all(&request).expect("resend begin");
    assert_eq!(read_frame(&mut raw), reply, "another band's reply survives");
    drop((raw, conn, observer));
    handle.wait();
}

/// A second load against a restarted server runs its own requests: its
/// connections are numbered above every band the recovered cache holds,
/// so not one request is answered from the first run's replies.
#[test]
fn a_second_load_after_restart_executes_every_request() {
    let dir = Scratch::new("second-load");
    let load = LoadConfig {
        connections: 3,
        tops_per_conn: 8,
        objects: 8,
        seed: 23,
        ..LoadConfig::default()
    };
    let server = NetServer::bind(durable_cfg(&dir, DurabilityMode::None)).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let first = run_load(&addr, &load).expect("first load");
    assert!(first.committed_tops > 0);
    handle.wait();

    let server = NetServer::bind(durable_cfg(&dir, DurabilityMode::None)).expect("rebind");
    assert!(server.recovery_report().expect("mounted").cache_entries > 0);
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let mut observer = Conn::connect(&addr, 0, ConnConfig::default()).expect("connect");
    let band_max = stat(&mut observer, "recovered_band_max");
    assert_eq!(band_max, 4.0, "connections 1–3 use bands 2–4");
    drop(observer);
    let executed_before = handle.probe().stats().1.executed;
    let second = run_load(&addr, &load).expect("second load");
    assert!(second.committed_tops > 0);
    let drained = handle.wait();
    assert_eq!(
        drained.stats.cache_hits, 0,
        "a request hit the first run's replies"
    );
    assert!(
        drained.stats.executed - executed_before >= second.requests,
        "{} executed for {} requests",
        drained.stats.executed - executed_before,
        second.requests
    );
}

#[test]
fn wal_counters_surface_in_the_stats_document() {
    let dir = Scratch::new("stats");
    let server = NetServer::bind(durable_cfg(&dir, DurabilityMode::FsyncPerCommit)).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let mut conn = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");
    commit_write(&mut conn, 0, 5);
    let stats = conn.stats().expect("stats");
    let v = nt_obs::json::Json::parse(&stats).expect("stats parses");
    let appended = v
        .get("wal_appended")
        .and_then(nt_obs::json::Json::as_num)
        .expect("wal_appended present");
    assert!(appended > 0.0, "WAL must have taken appends: {stats}");
    assert_eq!(
        v.get("wal_generation").and_then(nt_obs::json::Json::as_num),
        Some(1.0)
    );
    drop(conn);
    handle.wait();
}

/// The poll round is the group commit: mutating frames that reach the
/// server together — three pipelined in one TCP write on each of two
/// connections — are acked behind **one** fsync per round, not one each.
/// Losing the round barrier (syncing per frame) makes `wal_syncs` equal
/// the number of mutating acks; losing the barrier altogether fails the
/// reopen, which must find every acked op in the durable cache and pass
/// Theorem 17.
#[test]
fn one_round_barrier_covers_pipelined_mutating_frames_on_two_connections() {
    let dir = Scratch::new("round-barrier");
    let server = NetServer::bind(durable_cfg(&dir, DurabilityMode::FsyncPerCommit)).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let mut mutating_acks = 0u64;
    let mut socks = Vec::new();
    for k in 0..2u64 {
        let mut s = TcpStream::connect(&addr).expect("connect");
        let base = Conn::seq_base(k + 1);
        s.write_all(&encode_request(base, &Request::BeginTop).expect("encode"))
            .expect("send begin");
        let top = match parse_response(&read_frame(&mut s)[4..]).expect("begun") {
            (_, Response::Begun { tx }) => tx,
            other => panic!("expected Begun, got {other:?}"),
        };
        mutating_acks += 1;
        socks.push((s, base, top, k));
    }
    // Disjoint objects, so no frame waits on a lock. Each connection's
    // burst is one `write`: the server reads (and executes) the three
    // frames in one poll round.
    for (s, base, top, k) in &mut socks {
        let obj = *k as u32 * 2;
        let mut burst = Vec::new();
        for (i, req) in [
            Request::Access {
                parent: *top,
                obj,
                op: Op::Write(10 + *k as i64),
            },
            Request::Access {
                parent: *top,
                obj: obj + 1,
                op: Op::Write(20 + *k as i64),
            },
            Request::Commit { tx: *top },
        ]
        .iter()
        .enumerate()
        {
            burst.extend(encode_request(*base + 1 + i as u64, req).expect("encode"));
        }
        s.write_all(&burst).expect("send burst");
    }
    for (s, base, ..) in &mut socks {
        for i in 0..3 {
            let (seq, resp) = parse_response(&read_frame(s)[4..]).expect("ack");
            assert_eq!(seq, *base + 1 + i, "replies keep request order");
            assert!(nt_net::client::tx_reply(resp).is_ok(), "frame rejected");
            mutating_acks += 1;
        }
    }
    drop(socks);
    let mut conn = Conn::connect(&addr, 9, ConnConfig::default()).expect("connect");
    let stats = conn.stats().expect("stats");
    let v = nt_obs::json::Json::parse(&stats).expect("stats parses");
    let syncs = v
        .get("wal_syncs")
        .and_then(nt_obs::json::Json::as_num)
        .expect("wal_syncs present");
    assert!(syncs > 0.0, "acks must have been synced: {stats}");
    assert!(
        syncs < mutating_acks as f64,
        "{syncs} syncs for {mutating_acks} mutating acks: the round barrier is gone"
    );
    // The round is the group for the append too: one extent (one
    // `write(2)`) per poll round that logged anything, however many
    // records its frames staged — never one per record or per ack.
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&v, |at, key| at.get(key))
            .and_then(nt_obs::json::Json::as_num)
            .unwrap_or_else(|| panic!("{path:?} present: {stats}"))
    };
    let (extents, records) = (num(&["wal_extents"]), num(&["wal_appended"]));
    assert!(extents > 0.0, "acks must have been written: {stats}");
    assert!(
        extents <= syncs && extents <= num(&["reactor", "poll_rounds"]),
        "an extent without a round barrier: {stats}"
    );
    assert!(
        extents < mutating_acks as f64 && records > 4.0 * extents,
        "{extents} extents for {mutating_acks} mutating acks and {records} records: \
         the WAL is writing by the record again"
    );
    assert!(num(&["wal_bytes"]) > records, "{stats}");
    assert_eq!(v.get("wal_failed"), Some(&nt_obs::json::Json::Bool(false)));
    drop(conn);
    handle.wait();

    let server = NetServer::bind(durable_cfg(&dir, DurabilityMode::None)).expect("rebind");
    let report = server.recovery_report().expect("store mounted");
    assert!(report.certified, "recovered history must pass Theorem 17");
    assert!(report.cache_entries >= mutating_acks as usize);
    assert!(report.losers.is_empty(), "both tops committed");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let mut conn = Conn::connect(&addr, 10, ConnConfig::default()).expect("connect");
    assert_eq!(read_committed(&mut conn, 1), Value::Int(20));
    assert_eq!(read_committed(&mut conn, 3), Value::Int(21));
    drop(conn);
    handle.wait();
}

/// Contended batched load on an `fsync` server: the history fetched over
/// the wire passes Theorem 17 while the server runs, the round barrier
/// pays fewer fsyncs than the load sent requests, and the drained
/// directory reopens certified with every top resolved.
#[test]
fn contended_batched_fsync_load_certifies_live_and_after_reopen() {
    let dir = Scratch::new("batched-load");
    let server = NetServer::bind(durable_cfg(&dir, DurabilityMode::FsyncPerCommit)).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let load = LoadConfig {
        connections: 4,
        tops_per_conn: 16,
        batch: 16,
        objects: 6,
        hotspot: 0.5,
        read_ratio: 0.5,
        max_depth: 2,
        seed: 19,
        top_retries: 20,
        ..LoadConfig::default()
    };
    let report = run_load(&addr, &load).expect("load runs");
    assert!(report.committed_tops > 0, "the load committed nothing");
    assert_eq!(report.gave_up, 0, "tops exhausted their retry budget");
    let cert = fetch_and_certify(&addr, ConnConfig::from(&load)).expect("history fetched");
    assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
    let mut conn = Conn::connect(&addr, 9, ConnConfig::default()).expect("connect");
    let stats = conn.stats().expect("stats");
    let v = nt_obs::json::Json::parse(&stats).expect("stats parses");
    let syncs = v
        .get("wal_syncs")
        .and_then(nt_obs::json::Json::as_num)
        .expect("wal_syncs present");
    assert!(syncs > 0.0, "fsync mode must have synced: {stats}");
    assert!(
        syncs < report.requests as f64,
        "{syncs} syncs for {} requests: the round barrier is gone",
        report.requests
    );
    drop(conn);
    handle.wait();

    let server = NetServer::bind(durable_cfg(&dir, DurabilityMode::None)).expect("rebind");
    let report = server.recovery_report().expect("store mounted");
    assert!(report.certified, "recovered history must pass Theorem 17");
    assert!(report.losers.is_empty(), "a drain leaves no losers");
    assert!(report.history_len > 0, "empty recovered history");
    server.serve().wait();
}

/// The `Act` records of the WAL at `dir`, in file order.
fn wal_acts(dir: &std::path::Path) -> Vec<(u64, nt_model::Action)> {
    let bytes = std::fs::read(dir.join(nt_store::WAL_FILE)).expect("read wal");
    let decoded = nt_store::decode_stream(&bytes);
    assert!(decoded.torn.is_none(), "{:?}", decoded.torn);
    decoded
        .records
        .into_iter()
        .filter_map(|r| match r {
            nt_store::Record::Act { stamp, action } => Some((stamp, action)),
            _ => None,
        })
        .collect()
}

/// Every action a quiet server recorded, three ways: the WAL's `Act`
/// records, the engine's history snapshot and the live certifier's step
/// count. They must be one sequence, stamped `0, 1, 2, …` in that order.
fn one_order(handle: &nt_net::ServerHandle, dir: &std::path::Path) -> Vec<nt_model::Action> {
    let engine = handle.engine();
    let (_, history) = engine.history_snapshot();
    let acts = wal_acts(dir);
    let stamps: Vec<u64> = acts.iter().map(|(s, _)| *s).collect();
    assert!(
        stamps.iter().copied().eq(0..history.len() as u64),
        "WAL stamps are not 0..{}: {stamps:?}",
        history.len()
    );
    assert!(acts.iter().map(|(_, a)| a).eq(history.iter()));
    let live = engine.live_status().expect("live certify");
    assert_eq!(live.processed, history.len() as u64);
    assert!(live.ok);
    history
}

/// Two connections of mixed load on a durable, live-certified server, a
/// crash with a top in flight, and a second life on the crash image: the
/// WAL, the history snapshot and the certifier see one sequence in both
/// lives, and the second life's stamps continue the first's without a
/// gap — the recovered head, then the loser's synthesized abort, then the
/// new actions.
#[test]
fn wal_history_and_certifier_see_one_order_across_a_crash_restart() {
    let dir = Scratch::new("one-order");
    let image = Scratch::new("one-order-image");
    let cfg = |d: &Scratch| ServerConfig {
        live_certify: true,
        ..durable_cfg(d, DurabilityMode::None)
    };
    let mixed = |a: &mut Conn, b: &mut Conn, base: u32| {
        commit_write(a, base, 1);
        commit_write(b, base + 1, 2);
        let top = begin_top(a);
        let child = match a.request(&Request::BeginChild { parent: top }) {
            Ok(Response::Begun { tx }) => tx,
            other => panic!("expected Begun, got {other:?}"),
        };
        for (parent, obj, op) in [(child, base, Op::Read), (child, base + 1, Op::Write(3))] {
            assert!(matches!(
                a.request(&Request::Access { parent, obj, op }),
                Ok(Response::AccessOk { .. })
            ));
        }
        assert!(matches!(
            a.request(&Request::Commit { tx: child }),
            Ok(Response::Committed)
        ));
        let doomed = begin_top(b);
        assert!(matches!(
            b.request(&Request::Access {
                parent: doomed,
                obj: base + 2,
                op: Op::Write(4),
            }),
            Ok(Response::AccessOk { .. })
        ));
        assert!(matches!(
            b.request(&Request::Abort { tx: doomed }),
            Ok(Response::AbortOk)
        ));
        assert!(matches!(
            a.request(&Request::Commit { tx: top }),
            Ok(Response::Committed)
        ));
        assert_eq!(read_committed(b, base + 1), Value::Int(3));
    };

    let server = NetServer::bind(cfg(&dir)).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let mut a = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");
    let mut b = Conn::connect(&addr, 2, ConnConfig::default()).expect("connect");
    mixed(&mut a, &mut b, 0);
    // A top left in flight: its write was answered, so it is in the file.
    let loser = begin_top(&mut b);
    assert!(matches!(
        b.request(&Request::Access {
            parent: loser,
            obj: 5,
            op: Op::Write(99),
        }),
        Ok(Response::AccessOk { .. })
    ));
    let first = one_order(&handle, &dir.0);
    // The crash image: the file as a kill -9 would leave it now.
    std::fs::create_dir_all(&image.0).expect("mkdir image");
    std::fs::copy(
        dir.0.join(nt_store::WAL_FILE),
        image.0.join(nt_store::WAL_FILE),
    )
    .expect("copy wal");
    drop((a, b));
    handle.wait();

    let server = NetServer::bind(cfg(&image)).expect("rebind");
    let report = server.recovery_report().expect("store mounted");
    assert_eq!(report.losers, vec![loser]);
    assert_eq!(report.history_len, first.len() + report.synthesized_actions);
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let head = one_order(&handle, &image.0);
    assert_eq!(head.len(), report.history_len);
    assert_eq!(head[..first.len()], first[..]);
    assert_eq!(
        head[first.len()],
        nt_model::Action::Abort(nt_model::TxId(loser))
    );
    let mut a = Conn::connect(&addr, 3, ConnConfig::default()).expect("connect");
    let mut b = Conn::connect(&addr, 4, ConnConfig::default()).expect("connect");
    mixed(&mut a, &mut b, 10);
    let second = one_order(&handle, &image.0);
    assert!(second.len() > head.len());
    assert_eq!(second[..head.len()], head[..]);
    drop((a, b));
    handle.wait();
}

/// A flag or mode that was removed is refused with a message naming what
/// replaced it — never accepted as a silent alias.
#[test]
fn nt_serve_refuses_retired_flags_naming_the_replacement() {
    let serve = env!("CARGO_BIN_EXE_nt-serve");
    let load = env!("CARGO_BIN_EXE_nt-load");
    for (bin, args, names) in [
        (
            serve,
            &["--threaded"][..],
            "the reactor is the only front end",
        ),
        (serve, &["--durability", "group:100"][..], "fsync"),
        (serve, &["--static-gate"][..], "Theorem 17"),
        (load, &["--gate-probe"][..], "Theorem 17"),
    ] {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("spawn the binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(names), "{args:?}: {stderr}");
    }
}

#[cfg(unix)]
mod signals {
    use super::Scratch;
    use nt_net::{Conn, ConnConfig, Request, Response};
    use std::process::{Child, Command, Stdio};
    use std::time::{Duration, Instant};

    fn wait_port_file(path: &std::path::Path, child: &mut Child) -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(s) = std::fs::read_to_string(path) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    return s;
                }
            }
            if let Some(status) = child.try_wait().expect("try_wait") {
                panic!("nt-serve exited early: {status}");
            }
            assert!(Instant::now() < deadline, "nt-serve never wrote its port");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn sigterm_drains_nt_serve_gracefully() {
        let dir = Scratch::new("sigterm");
        std::fs::create_dir_all(&dir.0).expect("scratch dir");
        let port_file = dir.0.join("port");
        let mut child = Command::new(env!("CARGO_BIN_EXE_nt-serve"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--port-file",
                port_file.to_str().expect("utf8 path"),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn nt-serve");
        let addr = wait_port_file(&port_file, &mut child);

        // Queue real work so the drain has something to finish.
        let mut conn = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");
        assert!(matches!(conn.request(&Request::Ping), Ok(Response::Pong)));
        super::commit_write(&mut conn, 0, 3);
        drop(conn);

        assert!(
            sigshim::send(child.id(), sigshim::SIGTERM),
            "kill(SIGTERM) failed"
        );
        let out = child.wait_with_output().expect("nt-serve exits");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "SIGTERM must drain, not kill: {out:?}"
        );
        // The graceful path still prints the one-line drain summary.
        assert!(
            stdout.contains("\"suite\":\"nt-serve\""),
            "missing drain summary in: {stdout}"
        );
    }
}
