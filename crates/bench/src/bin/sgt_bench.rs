//! Live-certifier overhead and memory-ceiling harness (experiment E20).
//!
//! Two measurements against real loopback servers:
//!
//! 1. **Overhead sweep** — the E16 closed-loop contended workload at each
//!    connection count, run twice per cell on fresh servers: live
//!    certification off, then on (same seed, same total top count). The
//!    reported overhead is the throughput delta — the certifier is stepped
//!    by the recording thread, so all of its cost lands there on any
//!    host. The live cell's `CERT` verdict must be `ok` with an advanced
//!    watermark.
//! 2. **Watermark-GC soak** — one persistent `--live-certify` server
//!    driven by repeated load waves while the `CERT` document is sampled
//!    both between waves and, from a second connection, during them: the
//!    watermark must advance monotonically and the resident graph
//!    (nodes/edges) must stay bounded — far below the total number of
//!    tops processed — demonstrating the GC's memory ceiling. Default soak is a few seconds so the committed artifact is
//!    reproducible in CI; `--soak-secs 600` runs the full ten-minute soak
//!    from the issue.
//!
//! Results land in `BENCH_sgt.json` (gated by `tools/check_benches.sh`).
//!
//! ```sh
//! cargo run --release -p nt-bench --bin sgt_bench                  # sweep + short soak
//! cargo run --release -p nt-bench --bin sgt_bench -- --soak-secs 600
//! cargo run --release -p nt-bench --bin sgt_bench -- --smoke       # CI gate
//! ```

use nt_bench::SmokeLine;
use nt_net::{run_load, Conn, ConnConfig, LoadConfig, NetServer, ServerConfig};
use nt_obs::json::{Json, JsonObj};
use std::time::{Duration, Instant};

const CONN_SWEEP: [usize; 4] = [1, 2, 4, 8];
const TOTAL_TOPS: usize = 64;
/// Short default so the committed artifact regenerates quickly; the
/// full issue soak is `--soak-secs 600`.
const DEFAULT_SOAK_SECS: u64 = 5;
/// Soak-server transaction arena (the engine's arena is fixed-capacity
/// by design, so the soak carries a large one and stops before it is
/// spent — the certifier's resident graph is what must stay flat).
const SOAK_CAPACITY: usize = 1 << 21;

fn sweep_load(connections: usize) -> LoadConfig {
    LoadConfig {
        connections,
        tops_per_conn: TOTAL_TOPS / connections,
        objects: 6,
        hotspot: 0.5,
        read_ratio: 0.5,
        max_depth: 2,
        seed: 20,
        ..LoadConfig::default()
    }
}

/// The live serialization-graph certificate of a running server.
struct Cert {
    ok: bool,
    watermark: u64,
    processed: u64,
    nodes: u64,
    edges: u64,
}

fn fetch_cert(addr: &str, load: &LoadConfig) -> Cert {
    let mut conn = Conn::connect(addr, 0, ConnConfig::from(load)).expect("connect for CERT");
    let doc = conn.cert().expect("CERT answered");
    let v = Json::parse(&doc).expect("cert document parses");
    assert_eq!(v.get("mode").and_then(Json::as_str), Some("live"), "{doc}");
    let num = |k: &str| v.get(k).and_then(Json::as_num).unwrap_or(0.0) as u64;
    Cert {
        ok: v.get("ok") == Some(&Json::Bool(true)),
        watermark: num("watermark"),
        processed: num("processed"),
        nodes: num("nodes"),
        edges: num("edges"),
    }
}

struct CellRun {
    committed: u64,
    wall_us: u64,
    cert: Option<Cert>,
}

impl CellRun {
    fn throughput(&self) -> f64 {
        self.committed as f64 / (self.wall_us as f64 / 1e6)
    }
}

/// One cell: a fresh loopback server with live certification on or off,
/// driven by the standard closed-loop load. Best-of-3 wall clock.
fn run_cell(connections: usize, live: bool) -> CellRun {
    let mut best: Option<CellRun> = None;
    for _ in 0..3 {
        let server = NetServer::bind(ServerConfig {
            live_certify: live,
            ..ServerConfig::default()
        })
        .expect("bind loopback");
        let addr = server.local_addr().to_string();
        let handle = server.serve();
        let load = sweep_load(connections);
        let report = run_load(&addr, &load).expect("load runs");
        let cert = live.then(|| fetch_cert(&addr, &load));
        handle.wait();
        if let Some(c) = &cert {
            assert!(c.ok, "{connections} conns: live certifier found a cycle");
            assert!(c.watermark > 0, "{connections} conns: watermark stuck");
            assert!(c.processed > 0, "{connections} conns: nothing processed");
        }
        let run = CellRun {
            committed: report.committed_tops,
            wall_us: report.wall_us,
            cert,
        };
        best = match best {
            Some(b) if b.wall_us <= run.wall_us => Some(b),
            _ => Some(run),
        };
    }
    best.expect("two runs happened")
}

struct Row {
    connections: usize,
    committed: u64,
    tput_off: f64,
    tput_on: f64,
    overhead_pct: f64,
    cert_ok: bool,
    watermark: u64,
    resident_nodes: u64,
    resident_edges: u64,
}

impl Row {
    fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.num("connections", self.connections as u64)
            .num("committed_tops", self.committed)
            .float("throughput_off_tps", self.tput_off)
            .float("throughput_live_tps", self.tput_on)
            .float("overhead_pct", self.overhead_pct)
            .bool("cert_ok", self.cert_ok)
            .num("watermark", self.watermark)
            .num("resident_nodes", self.resident_nodes)
            .num("resident_edges", self.resident_edges);
        o.build()
    }
}

fn run_sweep() -> Vec<Row> {
    println!(
        "| {:5} | {:9} | {:12} | {:12} | {:8} | {:9} | {:9} |",
        "conns", "committed", "tput_off_tps", "tput_live_tps", "ovhd_%", "watermark", "res_nodes"
    );
    println!(
        "|-------|-----------|--------------|--------------|----------|-----------|-----------|"
    );
    CONN_SWEEP
        .iter()
        .map(|&connections| {
            let off = run_cell(connections, false);
            let mut on = run_cell(connections, true);
            let overhead_pct = 100.0 * (off.throughput() - on.throughput()) / off.throughput();
            let cert = on.cert.take().expect("live cell fetched a cert");
            let row = Row {
                connections,
                committed: on.committed,
                tput_off: off.throughput(),
                tput_on: on.throughput(),
                overhead_pct,
                cert_ok: cert.ok,
                watermark: cert.watermark,
                resident_nodes: cert.nodes,
                resident_edges: cert.edges,
            };
            println!(
                "| {:5} | {:9} | {:12.1} | {:12.1} | {:8.2} | {:9} | {:9} |",
                row.connections,
                row.committed,
                row.tput_off,
                row.tput_on,
                row.overhead_pct,
                row.watermark,
                row.resident_nodes,
            );
            assert!(row.committed > 0, "live cell committed nothing");
            row
        })
        .collect()
}

struct Soak {
    secs: f64,
    waves: u64,
    tops_total: u64,
    processed: u64,
    max_nodes: u64,
    max_edges: u64,
    watermark_start: u64,
    watermark_end: u64,
}

/// One persistent live-certify server under repeated load waves, the
/// `CERT` document sampled after each: the watermark must only advance
/// and the resident graph must stay far below the total work processed.
fn run_soak(soak_secs: u64) -> Soak {
    let server = NetServer::bind(ServerConfig {
        live_certify: true,
        capacity: SOAK_CAPACITY,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let deadline = Instant::now() + Duration::from_secs(soak_secs);
    let start = Instant::now();
    let mut s = Soak {
        secs: 0.0,
        waves: 0,
        tops_total: 0,
        processed: 0,
        max_nodes: 0,
        max_edges: 0,
        watermark_start: 0,
        watermark_end: 0,
    };
    let mut last_watermark = 0u64;
    // The between-wave samples below see a quiescent, fully pruned graph;
    // this sampler's `CERT`s land inside the waves, where the resident
    // graph — and so the GC ceiling — actually shows. `CERT` reads the
    // certifier's state as it is, so sampling perturbs nothing.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let stop = std::sync::Arc::clone(&stop);
        let addr = addr.clone();
        std::thread::spawn(move || {
            let load = sweep_load(1);
            let mut max = (0u64, 0u64);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let cert = fetch_cert(&addr, &load);
                max.0 = max.0.max(cert.nodes);
                max.1 = max.1.max(cert.edges);
                std::thread::sleep(Duration::from_millis(20));
            }
            max
        })
    };
    // Every wire request registers at most one transaction, so cumulative
    // requests bound arena consumption; stop at 3/4 before exhaustion.
    let request_budget = (SOAK_CAPACITY as u64 / 4) * 3;
    let mut requests_total = 0u64;
    while Instant::now() < deadline {
        if requests_total >= request_budget {
            println!(
                "soak: stopping after {} waves — arena request budget spent ({requests_total})",
                s.waves
            );
            break;
        }
        let load = LoadConfig {
            seed: 1000 + s.waves,
            ..sweep_load(4)
        };
        let report = run_load(&addr, &load).expect("soak wave runs");
        s.waves += 1;
        s.tops_total += report.committed_tops;
        requests_total += report.requests;
        let cert = fetch_cert(&addr, &load);
        assert!(
            cert.ok,
            "soak wave {}: live certifier found a cycle",
            s.waves
        );
        assert!(
            cert.watermark >= last_watermark,
            "soak wave {}: watermark regressed {} -> {}",
            s.waves,
            last_watermark,
            cert.watermark
        );
        if s.waves == 1 {
            s.watermark_start = cert.watermark;
        }
        last_watermark = cert.watermark;
        s.watermark_end = cert.watermark;
        s.processed = cert.processed;
        s.max_nodes = s.max_nodes.max(cert.nodes);
        s.max_edges = s.max_edges.max(cert.edges);
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let (mid_nodes, mid_edges) = sampler.join().expect("sampler thread");
    assert!(mid_nodes > 0, "no sample landed inside a wave");
    s.max_nodes = s.max_nodes.max(mid_nodes);
    s.max_edges = s.max_edges.max(mid_edges);
    handle.wait();
    s.secs = start.elapsed().as_secs_f64();
    assert!(s.waves >= 2, "soak too short to observe watermark movement");
    assert!(
        s.watermark_end > s.watermark_start,
        "watermark never advanced across the soak"
    );
    assert!(
        s.max_nodes < s.tops_total,
        "resident graph ({} nodes) grew to the total top count ({}) — GC is not pruning",
        s.max_nodes,
        s.tops_total
    );
    println!(
        "soak: {:.1}s, {} waves, {} tops, processed {}, max resident {} nodes / {} edges, watermark {} -> {}",
        s.secs,
        s.waves,
        s.tops_total,
        s.processed,
        s.max_nodes,
        s.max_edges,
        s.watermark_start,
        s.watermark_end
    );
    s
}

fn smoke() {
    // The CI gate: one 4-connection live cell; the CERT verdict must be
    // ok with an advanced watermark and a pruned resident graph.
    let server = NetServer::bind(ServerConfig {
        live_certify: true,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let load = LoadConfig {
        tops_per_conn: 8,
        ..sweep_load(4)
    };
    let report = run_load(&addr, &load).expect("load runs");
    let cert = fetch_cert(&addr, &load);
    handle.wait();
    SmokeLine::new("sgt-bench-smoke")
        .num("committed_tops", report.committed_tops)
        .bool("cert_ok", cert.ok)
        .num("watermark", cert.watermark)
        .num("processed", cert.processed)
        .num("resident_nodes", cert.nodes)
        .num("resident_edges", cert.edges)
        .emit();
    assert!(cert.ok, "sgt smoke: live certifier found a cycle");
    assert!(cert.watermark > 0, "sgt smoke: watermark never advanced");
    assert!(report.committed_tops > 0, "sgt smoke committed nothing");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let mut soak_secs = DEFAULT_SOAK_SECS;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--soak-secs" => {
                soak_secs = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("usage: sgt_bench [--smoke] [--soak-secs SECS]");
                i += 2;
            }
            other => {
                panic!("unknown argument {other:?} (usage: sgt_bench [--smoke] [--soak-secs SECS])")
            }
        }
    }
    let rows = run_sweep();
    let soak = run_soak(soak_secs);
    let mut doc = JsonObj::new();
    doc.str("benchmark", "sgt_bench")
        .num(
            "host_cores",
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        )
        .num("total_tops", TOTAL_TOPS as u64)
        .raw(
            "rows",
            format!(
                "[{}]",
                rows.iter().map(Row::to_json).collect::<Vec<_>>().join(",")
            ),
        );
    let mut s = JsonObj::new();
    s.float("secs", soak.secs)
        .num("waves", soak.waves)
        .num("tops_total", soak.tops_total)
        .num("processed", soak.processed)
        .num("max_resident_nodes", soak.max_nodes)
        .num("max_resident_edges", soak.max_edges)
        .num("watermark_start", soak.watermark_start)
        .num("watermark_end", soak.watermark_end);
    doc.raw("soak", s.build());
    std::fs::write("BENCH_sgt.json", doc.build()).expect("write BENCH_sgt.json");
    eprintln!("wrote BENCH_sgt.json ({} cells + soak)", rows.len());
}
