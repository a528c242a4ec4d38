//! Telemetry integration over real sockets: the `STATS` wire op (plain
//! and under transport faults), phase-stamped request spans, coherent
//! counter snapshots under concurrent load, and the live certifier's
//! `CERT` wire op, health gauges and watermark-GC ceiling.

use nt_faults::TransportPlan;
use nt_net::{
    run_load, Conn, ConnConfig, LoadConfig, NetServer, Request, Response, ServerConfig,
    ServerHandle, ServerProbe,
};
use nt_obs::json::Json;
use std::time::Duration;

fn start(cfg: ServerConfig) -> (String, ServerHandle) {
    let server = NetServer::bind(cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (addr, server.serve())
}

fn telemetry_cfg() -> ServerConfig {
    ServerConfig {
        telemetry: true,
        ..ServerConfig::default()
    }
}

fn gauge_of(probe: &ServerProbe, name: &str) -> Option<u64> {
    let gauges = probe.telemetry().gauges();
    gauges.into_iter().find(|(n, _)| *n == name).map(|(_, v)| v)
}

fn small_load(addr: &str) -> LoadConfig {
    LoadConfig {
        addr: addr.to_string(),
        connections: 2,
        tops_per_conn: 8,
        objects: 4,
        hotspot: 0.5,
        seed: 41,
        ..LoadConfig::default()
    }
}

#[test]
fn stats_round_trips_over_the_wire() {
    let (addr, handle) = start(telemetry_cfg());
    let load = small_load(&addr);
    run_load(&addr, &load).expect("load runs");

    let mut conn = Conn::connect(&addr, 9, ConnConfig::default()).expect("connect");
    let doc = conn.stats().expect("stats answered");
    let v = Json::parse(&doc).expect("stats document parses");
    assert_eq!(
        v.get("schema").and_then(Json::as_str),
        Some("nt-net/stats/v3")
    );
    // One engine lock: the lock-table totals are one number each, not
    // per-shard arrays.
    assert!(v.get("lock_hold_us").and_then(Json::as_num).is_some());
    assert!(v.get("shard_grants").is_none() && v.get("shard_hold_us").is_none());
    let executed = v.get("executed").and_then(Json::as_num).expect("executed");
    let frames = v.get("frames").and_then(Json::as_num).expect("frames");
    assert!(executed > 0.0);
    assert!(frames >= executed);
    assert!(v.get("lock_grants").and_then(Json::as_num).unwrap_or(0.0) > 0.0);
    // The telemetry section carries per-phase histograms whose total
    // phase saw every span-recorded request.
    let total = v
        .get("telemetry")
        .and_then(|t| t.get("phases"))
        .and_then(|p| p.get("total"))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_num)
        .expect("total phase count");
    assert!(total > 0.0);
    // The wait-for dump is present (usually empty once the load drained).
    assert!(v.get("wait_for").is_some());

    conn.shutdown_server().expect("shutdown");
    drop(conn);
    handle.wait();
}

#[test]
fn stats_survives_a_faulty_transport() {
    let (addr, handle) = start(ServerConfig {
        fault: Some(TransportPlan {
            drop_period: 3,
            dup_period: 2,
            delay_period: 5,
            delay_us: 100,
        }),
        ..telemetry_cfg()
    });
    let cfg = ConnConfig {
        timeout_ms: 50,
        ..ConnConfig::default()
    };
    let mut conn = Conn::connect(&addr, 1, cfg).expect("connect");
    // Drive enough STATS requests that the plan drops and duplicates
    // some; retries plus the per-seq cache must still answer every one
    // with a parsable document.
    for _ in 0..12 {
        let doc = conn.stats().expect("stats despite faults");
        Json::parse(&doc).expect("stats document parses");
    }
    conn.shutdown_server().expect("shutdown");
    drop(conn);
    let report = handle.wait();
    assert!(report.stats.dropped + report.stats.duplicated > 0);
}

#[test]
fn request_spans_are_monotone_with_dual_stamps() {
    let (addr, handle) = start(telemetry_cfg());
    let probe = handle.probe();
    let load = small_load(&addr);
    run_load(&addr, &load).expect("load runs");

    let spans = probe.telemetry().spans();
    assert!(!spans.is_empty(), "telemetry retained no spans");
    for s in &spans {
        assert!(s.monotone(), "non-monotone span: {s:?}");
        let phase_sum = s.queue_wait_us() + s.execute_us();
        assert!(
            s.total_us() >= phase_sum,
            "phases exceed total: {s:?} (total {} < phases {phase_sum})",
            s.total_us()
        );
        assert!(
            s.lock_wait_us <= s.execute_us(),
            "lock wait outside execute: {s:?}"
        );
        assert!(s.seq_finished >= s.seq_started, "logical clock regressed");
        assert!(s.conn > 0, "span missing its connection id");
    }
    // The Chrome export of the live ring is a valid trace document
    // (JSON-array format: metadata record plus two slices per span).
    let trace = probe.chrome_trace().expect("telemetry enabled");
    let v = Json::parse(&trace).expect("chrome trace parses");
    let Json::Arr(events) = v else {
        panic!("chrome trace is not an event array");
    };
    assert_eq!(events.len(), spans.len() * 2 + 1);
    for e in &events {
        assert!(e.get("ph").is_some(), "event missing phase field: {e:?}");
    }
    handle.wait();
}

#[test]
fn counter_snapshots_are_coherent_under_live_load() {
    let (addr, handle) = start(telemetry_cfg());
    let probe = handle.probe();
    let load = LoadConfig {
        tops_per_conn: 24,
        connections: 4,
        ..small_load(&addr)
    };
    let driver = {
        let addr = addr.clone();
        std::thread::spawn(move || run_load(&addr, &load).expect("load runs"))
    };
    let mut last_generation = 0u64;
    let mut polled = 0u32;
    while !driver.is_finished() {
        let (generation, s) = probe.stats();
        assert!(
            s.executed + s.cache_hits <= s.frames,
            "torn snapshot: executed {} + cache_hits {} > frames {}",
            s.executed,
            s.cache_hits,
            s.frames
        );
        assert!(generation >= last_generation, "generation regressed");
        last_generation = generation;
        polled += 1;
        std::thread::sleep(Duration::from_micros(200));
    }
    driver.join().expect("driver thread");
    assert!(polled > 0);
    let (_, finished) = probe.stats();
    assert!(finished.executed > 0);
    handle.wait();
}

#[test]
fn live_certifier_publishes_health_gauges() {
    let (addr, handle) = start(ServerConfig {
        live_certify: true,
        ..telemetry_cfg()
    });
    let probe = handle.probe();
    let load = small_load(&addr);
    run_load(&addr, &load).expect("load runs");

    // The recording thread steps the certifier, so the verdict (and the
    // gauges published at each top's resolution) already covers every
    // action the load recorded — a finished load's history must certify.
    let mut conn = Conn::connect(&addr, 9, ConnConfig::default()).expect("connect");
    let doc = conn.cert().expect("cert answered");
    let v = Json::parse(&doc).expect("cert document parses");
    assert_eq!(
        v.get("schema").and_then(Json::as_str),
        Some("nt-sgt/cert/v1")
    );
    assert_eq!(v.get("mode").and_then(Json::as_str), Some("live"));
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{doc}");
    assert!(v.get("processed").and_then(Json::as_num).unwrap_or(0.0) > 0.0);
    assert!(v.get("watermark").and_then(Json::as_num).unwrap_or(0.0) > 0.0);

    let gauge = |name: &str| gauge_of(&probe, name);
    assert_eq!(
        gauge("sgt.live.ok"),
        Some(1),
        "drained history must certify"
    );
    // `sgt.live.nodes` reports *resident* graph size: after the load
    // drains, the watermark GC may have pruned the committed prefix all
    // the way down — the gauge must exist, but 0 is the healthy steady
    // state (that's the bounded-memory property).
    assert!(
        gauge("sgt.live.nodes").is_some(),
        "sgt.live.nodes published"
    );
    assert!(gauge("sgt.live.watermark").unwrap_or(0) > 0);
    assert!(gauge("sgt.live.samples").unwrap_or(0) > 0);
    // One name per value: the PR 7 monitor's aliases are gone.
    assert_eq!(gauge("sgt.ok"), None);
    assert_eq!(probe.telemetry().gauges().len(), 6);

    // STATS carries the same state, read at request time, plus the lag.
    let stats = Json::parse(&conn.stats().expect("stats answered")).expect("stats parse");
    let live = stats.get("sgt_live").expect("sgt_live section");
    assert_eq!(live.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(live.get("processed"), v.get("processed"));
    assert_eq!(live.get("lag").and_then(Json::as_num), Some(0.0));

    conn.shutdown_server().expect("shutdown");
    drop(conn);
    handle.wait();
}

/// The stranded-stamp regression (PR 10 – PR 15): the root log's
/// `Create(T0)` at stamp 0 sat in a feed buffer until a `CERT` flushed it,
/// so the maintainer — which advances through contiguous stamps — parked
/// every later action and "live" certification saw nothing. This server
/// is never sent `CERT`: the certifier must still have stepped everything.
#[test]
fn certifier_keeps_up_without_ever_being_asked() {
    let (addr, handle) = start(ServerConfig {
        live_certify: true,
        ..telemetry_cfg()
    });
    let probe = handle.probe();
    let engine = handle.engine();
    let sgt_live = |key: &str| {
        let doc = Json::parse(&probe.stats_json()).expect("stats parse");
        let live = doc.get("sgt_live").expect("sgt_live section");
        live.get(key).and_then(Json::as_num).expect("numeric key") as u64
    };
    let gauge = |name: &str| gauge_of(&probe, name);

    // An open top pins the GC watermark at its first stamp, so every top
    // the load resolves meanwhile stays resident: what the samples below
    // see does not depend on timing.
    let mut pin = Conn::connect(&addr, 9, ConnConfig::default()).expect("connect");
    let Ok(Response::Begun { tx }) = pin.request(&Request::BeginTop) else {
        panic!("begin refused");
    };
    let driver = {
        let load = small_load(&addr);
        std::thread::spawn(move || run_load(&load.addr.clone(), &load).expect("load runs"))
    };
    let mut mid_load_nodes = 0;
    while !driver.is_finished() {
        mid_load_nodes = mid_load_nodes.max(sgt_live("nodes"));
        std::thread::sleep(Duration::from_micros(200));
    }
    driver.join().expect("driver thread");
    mid_load_nodes = mid_load_nodes.max(sgt_live("nodes"));
    assert!(mid_load_nodes > 0, "no resident node seen under load");
    assert!(gauge("sgt.live.nodes").unwrap_or(0) > 0, "resident gauge");
    assert!(
        gauge("sgt.live.watermark").unwrap_or(0) > 0,
        "watermark gauge"
    );

    // Quiescent: every stamp the clock issued has been stepped.
    assert!(matches!(
        pin.request(&Request::Commit { tx }),
        Ok(Response::Committed)
    ));
    assert_eq!(sgt_live("processed"), engine.clock_now());
    assert_eq!(sgt_live("lag"), 0);
    assert_eq!(sgt_live("nodes"), 0, "nothing pinned: the graph prunes");
    let status = engine.certifier().expect("live_certify").status();
    assert!(status.ok);

    pin.shutdown_server().expect("shutdown");
    drop(pin);
    handle.wait();
}

/// The watermark GC's memory ceiling: one server under repeated waves of
/// contended load, each with a fresh seed. Between waves the server is
/// quiescent, so the verdict covers every stamp issued, the graph has
/// pruned to nothing and the watermark has moved past the wave; during
/// the waves the resident graph stays below the total committed work,
/// which it would reach if the GC never pruned.
#[test]
fn resident_graph_stays_bounded_across_load_waves() {
    const WAVES: u64 = 8;
    let (addr, handle) = start(ServerConfig {
        live_certify: true,
        ..ServerConfig::default()
    });
    let probe = handle.probe();
    let engine = handle.engine();
    let sgt_live = |key: &str| {
        let doc = Json::parse(&probe.stats_json()).expect("stats parse");
        let live = doc.get("sgt_live").expect("sgt_live section");
        live.get(key).and_then(Json::as_num).expect("numeric key") as u64
    };
    let mut conn = Conn::connect(&addr, 9, ConnConfig::default()).expect("connect");
    let mut last_watermark = 0;
    let mut committed_total = 0;
    let mut max_nodes = 0;
    for wave in 0..WAVES {
        let driver = {
            let load = LoadConfig {
                connections: 4,
                seed: 1000 + wave,
                ..small_load(&addr)
            };
            std::thread::spawn(move || run_load(&load.addr.clone(), &load).expect("wave runs"))
        };
        while !driver.is_finished() {
            max_nodes = max_nodes.max(sgt_live("nodes"));
            std::thread::sleep(Duration::from_micros(200));
        }
        committed_total += driver.join().expect("driver thread").committed_tops;

        let cert = Json::parse(&conn.cert().expect("cert answered")).expect("cert parses");
        assert_eq!(cert.get("ok"), Some(&Json::Bool(true)), "wave {wave}");
        assert_eq!(sgt_live("lag"), 0, "wave {wave}");
        assert_eq!(sgt_live("processed"), engine.clock_now(), "wave {wave}");
        assert_eq!(sgt_live("nodes"), 0, "wave {wave}: quiescent graph prunes");
        let watermark = cert.get("watermark").and_then(Json::as_num).unwrap_or(0.0) as u64;
        assert!(
            watermark > last_watermark,
            "wave {wave}: watermark {last_watermark} -> {watermark}"
        );
        last_watermark = watermark;
    }
    assert!(committed_total > 0, "the waves committed nothing");
    assert!(
        max_nodes < committed_total,
        "resident graph reached {max_nodes} nodes for {committed_total} committed tops"
    );

    conn.shutdown_server().expect("shutdown");
    drop(conn);
    handle.wait();
}

/// A violation surfaces when it closes, not at drain: the poll thread
/// journals it (once) on the first flush after the verdict flips. The
/// cycle is planted straight into the server's certifier — the crossed
/// two-top history, under transaction names the engine never issued.
#[test]
fn violation_is_journaled_on_the_next_flush_once() {
    use nt_model::{Action, ObjId, Op, TxId, Value};
    let (addr, handle) = start(ServerConfig {
        live_certify: true,
        ..ServerConfig::default()
    });
    let engine = handle.engine();
    let live = engine.certifier().expect("live_certify");
    let [a, b, ax, ay, bx, by] = [900, 901, 902, 903, 904, 905].map(TxId);
    let (x, y) = (ObjId(0), ObjId(1));
    live.tree_add(a, TxId::ROOT, None);
    live.tree_add(b, TxId::ROOT, None);
    live.tree_add(ax, a, Some((x, Op::Write(1))));
    live.tree_add(ay, a, Some((y, Op::Read)));
    live.tree_add(bx, b, Some((x, Op::Read)));
    live.tree_add(by, b, Some((y, Op::Write(2))));
    let crossed = [
        Action::RequestCreate(a),
        Action::RequestCreate(b),
        Action::RequestCommit(ax, Value::Ok),
        Action::Commit(ax),
        Action::RequestCommit(by, Value::Ok),
        Action::Commit(by),
        Action::RequestCommit(bx, Value::Int(1)),
        Action::Commit(bx),
        Action::RequestCommit(ay, Value::Int(2)),
        Action::Commit(ay),
        Action::Commit(a),
        Action::Commit(b),
    ];
    // No session has recorded yet, so the clock is where the maintainer is.
    let base = engine.clock_now();
    for (i, act) in crossed.iter().enumerate() {
        live.act(base + i as u64, act);
    }
    assert!(!live.ok());

    let mut conn = Conn::connect(&addr, 4, ConnConfig::default()).expect("connect");
    for _ in 0..3 {
        assert!(matches!(conn.request(&Request::Ping), Ok(Response::Pong)));
    }
    conn.shutdown_server().expect("shutdown");
    drop(conn);
    let journal = handle.wait().journal;
    let at = |needle: &str| -> Vec<usize> {
        let hits = journal
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains(needle));
        hits.map(|(i, _)| i).collect()
    };
    let violations = at("live certifier found a serialization cycle");
    assert_eq!(violations.len(), 1, "journaled once: {journal:?}");
    let closed = at("conn_closed");
    assert!(
        violations[0] < *closed.first().expect("the pinging connection closed"),
        "journaled while serving, not at drain: {journal:?}"
    );
}

#[test]
fn cert_reports_disabled_without_live_certify() {
    let (addr, handle) = start(ServerConfig::default());
    let mut conn = Conn::connect(&addr, 3, ConnConfig::default()).expect("connect");
    let doc = conn.cert().expect("cert answered");
    let v = Json::parse(&doc).expect("cert document parses");
    assert_eq!(
        v.get("schema").and_then(Json::as_str),
        Some("nt-sgt/cert/v1")
    );
    assert_eq!(v.get("mode").and_then(Json::as_str), Some("disabled"));
    conn.shutdown_server().expect("shutdown");
    drop(conn);
    handle.wait();
}

#[test]
fn telemetry_off_by_default_keeps_the_fast_path_dark() {
    let (addr, handle) = start(ServerConfig::default());
    let probe = handle.probe();
    let mut conn = Conn::connect(&addr, 1, ConnConfig::default()).expect("connect");
    for _ in 0..4 {
        assert!(matches!(conn.request(&Request::Ping), Ok(Response::Pong)));
    }
    assert!(!probe.telemetry().is_timed());
    assert_eq!(probe.telemetry().span_count(), 0);
    assert!(probe.chrome_trace().is_none());
    assert_eq!(probe.telemetry().to_json(), "{}");
    assert!(probe.telemetry().gauges().is_empty());
    assert!(!handle.engine().telemetry().enabled(), "engine probes dark");
    // STATS still answers — counters and the wait-for dump don't need
    // the telemetry handle, only the histogram section is empty.
    let doc = conn.stats().expect("stats answered");
    let v = Json::parse(&doc).expect("stats document parses");
    assert!(v.get("executed").and_then(Json::as_num).unwrap_or(0.0) > 0.0);
    assert!(v.get("telemetry").is_some());
    conn.shutdown_server().expect("shutdown");
    drop(conn);
    handle.wait();
}
