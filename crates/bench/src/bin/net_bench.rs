//! Throughput harness for the networked server (`nt-net`), experiments
//! E16 and E21.
//!
//! E16 sweeps client connection counts over a contended closed-loop
//! workload against a fresh loopback server per cell, keeping the
//! *total* number of top-level transactions constant so cells are
//! comparable: more connections means the same work arriving with more
//! concurrency.
//!
//! E21 pushes the reactor out to 64 connections with `BATCH` framing:
//! per-connection work is held constant (so offered load scales with the
//! connection count) and every pipelined sibling-access run goes out as
//! batch frames — one syscall round-trip per frame. A final cell mounts
//! a WAL in `fsync` durability with batching on — E19's durable
//! configuration with fewer, fuller poll rounds — to show the round's
//! barrier amortizing.
//!
//! Each cell's recorded history is fetched over the wire and certified
//! against Theorem 17 post-hoc; a cell that fails certification fails
//! the whole harness. Results land in `BENCH_net.json`.
//!
//! ```sh
//! cargo run --release -p nt-bench --bin net_bench               # sweep
//! cargo run --release -p nt-bench --bin net_bench -- --smoke    # CI gate
//! cargo run --release -p nt-bench --bin net_bench -- --gc-sweep # debug:
//! #   just the group-commit cell across batch sizes 1..16
//! ```

use nt_bench::SmokeLine;
use nt_engine::DurabilityMode;
use nt_net::{fetch_and_certify, run_load, ConnConfig, LoadConfig, NetServer, ServerConfig};
use nt_obs::json::JsonObj;
use nt_obs::Histogram;

const CONN_SWEEP: [usize; 4] = [1, 2, 4, 8];
const TOTAL_TOPS: usize = 64;

/// E21: the batched reactor sweep. Per-connection work is fixed at
/// [`E21_TOPS_PER_CONN`] so the offered load grows with the sweep.
const E21_SWEEP: [usize; 4] = [8, 16, 32, 64];
const E21_TOPS_PER_CONN: usize = 8;
const E21_BATCH: usize = 16;

fn sweep_load(connections: usize) -> LoadConfig {
    LoadConfig {
        connections,
        tops_per_conn: TOTAL_TOPS / connections,
        objects: 6,
        hotspot: 0.5,
        read_ratio: 0.5,
        max_depth: 2,
        seed: 16,
        // Closed-loop cells retry until the work commits: a cell's tops
        // are its denominator, so a gave-up top would skew the sweep.
        top_retries: 20,
        ..LoadConfig::default()
    }
}

fn e21_load(connections: usize) -> LoadConfig {
    LoadConfig {
        connections,
        tops_per_conn: E21_TOPS_PER_CONN,
        batch: E21_BATCH,
        // E21 measures *connection handling*, not lock contention: a wide
        // cold object space keeps 2PL conflicts (and their abort/backoff
        // noise) out of the sweep, so throughput tracks how the front end
        // scales with sockets — the thing the reactor changes.
        objects: 512,
        hotspot: 0.0,
        read_ratio: 0.7,
        max_depth: 2,
        seed: 21,
        top_retries: 20,
        ..LoadConfig::default()
    }
}

struct Row {
    connections: usize,
    batch: usize,
    committed: u64,
    aborted: u64,
    gave_up: u64,
    requests: u64,
    retries: u64,
    wall_us: u64,
    req_hist: Histogram,
    top_hist: Histogram,
    certified: bool,
    sg_nodes: usize,
    sg_edges: usize,
}

impl Row {
    fn throughput(&self) -> f64 {
        self.committed as f64 / (self.wall_us as f64 / 1e6)
    }

    fn to_json(&self) -> String {
        let (rp50, rp95, rp99) = self.req_hist.p50_p95_p99();
        let (tp50, tp95, tp99) = self.top_hist.p50_p95_p99();
        let mut o = JsonObj::new();
        o.num("connections", self.connections as u64)
            .num("batch", self.batch as u64)
            .float("wall_ms", self.wall_us as f64 / 1e3)
            .num("committed_tops", self.committed)
            .num("aborted_tops", self.aborted)
            .num("gave_up", self.gave_up)
            .num("requests", self.requests)
            .num("retries", self.retries)
            .float("throughput_tps", self.throughput())
            .num("request_us_p50", rp50)
            .num("request_us_p95", rp95)
            .num("request_us_p99", rp99)
            .num("top_us_p50", tp50)
            .num("top_us_p95", tp95)
            .num("top_us_p99", tp99)
            .bool("certified", self.certified)
            .num("sg_nodes", self.sg_nodes as u64)
            .num("sg_edges", self.sg_edges as u64);
        o.build()
    }
}

/// Run one sweep cell against a fresh loopback server.
fn run_cell(cfg: ServerConfig, load: &LoadConfig) -> Row {
    let connections = load.connections;
    let server = NetServer::bind(cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let report = run_load(&addr, load).expect("load runs");
    let cert = fetch_and_certify(&addr, ConnConfig::from(load)).expect("history certifies");
    handle.wait();
    let row = Row {
        connections,
        batch: load.batch.max(1),
        committed: report.committed_tops,
        aborted: report.aborted_tops,
        gave_up: report.gave_up,
        requests: report.requests,
        retries: report.retries,
        wall_us: report.wall_us,
        req_hist: report.req_hist.clone(),
        top_hist: report.top_hist.clone(),
        certified: cert.is_serially_correct(),
        sg_nodes: cert.sg_nodes,
        sg_edges: cert.sg_edges,
    };
    let (rp50, rp95, _) = row.req_hist.p50_p95_p99();
    println!(
        "| {:5} | {:5} | {:8.1} | {:9} | {:7} | {:8} | {:10.1} | {:7} | {:7} | {:9} |",
        row.connections,
        row.batch,
        row.wall_us as f64 / 1e3,
        row.committed,
        row.aborted,
        row.requests,
        row.throughput(),
        rp50,
        rp95,
        if row.certified { "acyclic" } else { "FAILED" },
    );
    assert!(
        row.certified,
        "{connections} connections: recorded history failed certification"
    );
    assert_eq!(row.gave_up, 0, "tops exhausted their retry budget");
    row
}

/// The batched group-commit cell: E19's durable configuration (`fsync`)
/// re-run with `BATCH` framing, so the round's one `wait_durable` barrier
/// covers whole frames of ops. Compared in `tools/check_benches.sh`
/// against the unbatched `fsync` row of `BENCH_store.json`.
fn run_group_commit_cell(batch: usize) -> Row {
    let dir = std::env::temp_dir().join(format!("nt-net-bench-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        data_dir: Some(dir.to_string_lossy().into_owned()),
        durability: DurabilityMode::FsyncPerCommit,
        ..ServerConfig::default()
    };
    // The E19 shape: 4 connections, 64 total tops — but batched.
    let load = LoadConfig {
        batch,
        ..sweep_load(4)
    };
    let row = run_cell(cfg, &load);
    let _ = std::fs::remove_dir_all(&dir);
    row
}

fn smoke() {
    // The CI gate: one 4-connection contended cell, certified, exit 0.
    let server = NetServer::bind(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let load = LoadConfig {
        tops_per_conn: 8,
        ..sweep_load(4)
    };
    let report = run_load(&addr, &load).expect("load runs");
    let cert = fetch_and_certify(&addr, ConnConfig::from(&load)).expect("history certifies");
    handle.wait();
    SmokeLine::new("net-bench-smoke")
        .num("connections", load.connections as u64)
        .num("committed_tops", report.committed_tops)
        .num("aborted_tops", report.aborted_tops)
        .num("requests", report.requests)
        .num("sg_nodes", cert.sg_nodes as u64)
        .num("sg_edges", cert.sg_edges as u64)
        .percentiles("request_us", &report.req_hist)
        .percentiles("top_us", &report.top_hist)
        .bool("serially_correct", cert.is_serially_correct())
        .emit();
    assert!(cert.is_serially_correct(), "net smoke failed certification");
    assert!(report.committed_tops > 0, "net smoke committed nothing");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    if std::env::args().any(|a| a == "--gc-sweep") {
        // Debug mode: just the group-commit cell across batch sizes.
        for b in [1usize, 2, 4, 8, 16] {
            let _ = run_group_commit_cell(b);
        }
        return;
    }
    println!(
        "| {:5} | {:5} | {:8} | {:9} | {:7} | {:8} | {:10} | {:7} | {:7} | {:9} |",
        "conns",
        "batch",
        "wall_ms",
        "committed",
        "aborted",
        "requests",
        "tput_tps",
        "p50_us",
        "p95_us",
        "SGT"
    );
    println!(
        "|-------|-------|----------|-----------|---------|----------|------------|---------|---------|-----------|"
    );
    // E16: fixed total work, unbatched.
    let rows: Vec<Row> = CONN_SWEEP
        .iter()
        .map(|&c| run_cell(ServerConfig::default(), &sweep_load(c)))
        .collect();
    // E21: offered load scales with connections, batch frames on.
    let e21_rows: Vec<Row> = E21_SWEEP
        .iter()
        .map(|&c| run_cell(ServerConfig::default(), &e21_load(c)))
        .collect();
    // The batched group-commit cell (vs E19's unbatched fsync row).
    let gc = run_group_commit_cell(E21_BATCH);
    let mut doc = JsonObj::new();
    doc.str("benchmark", "net_bench")
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
        )
        .raw(
            "e21_rows",
            format!(
                "[{}]",
                e21_rows
                    .iter()
                    .map(Row::to_json)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        )
        .raw("group_commit", gc.to_json());
    std::fs::write("BENCH_net.json", doc.build()).expect("write BENCH_net.json");
    eprintln!(
        "wrote BENCH_net.json ({} + {} cells + group-commit)",
        rows.len(),
        e21_rows.len()
    );
    assert!(
        rows.iter().chain(&e21_rows).all(|r| r.committed > 0) && gc.committed > 0,
        "every cell must commit work"
    );
}
