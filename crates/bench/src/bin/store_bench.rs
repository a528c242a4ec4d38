//! Durability-cost harness for the WAL-backed store (`nt-store`),
//! experiment E19.
//!
//! Sweeps the server's [`DurabilityMode`] — no durability wait, and an
//! fsync before the mutating acks of each poll round — over the *same*
//! contended closed-loop workload on a fresh data directory per cell, so
//! the only variable is whether the ack barrier is paid. Each cell
//! records with runtime telemetry enabled: the durability wait is the
//! `coalesce` phase histogram (one barrier per poll round, covering
//! every connection's burst), and the server's WAL counters report the
//! fsync amortization (`syncs / committed top`). Every cell's history
//! is fetched and certified (Theorem 17) and every cell's data dir is
//! reopened afterward to prove the recovery path certifies what the
//! load left behind. Results land in `BENCH_store.json`.
//!
//! ```sh
//! cargo run --release -p nt-bench --bin store_bench            # sweep
//! cargo run --release -p nt-bench --bin store_bench -- --smoke # CI gate
//! ```

use nt_bench::SmokeLine;
use nt_engine::DurabilityMode;
use nt_net::{fetch_and_certify, run_load, ConnConfig, LoadConfig, NetServer, ServerConfig};
use nt_obs::json::{Json, JsonObj};
use std::path::PathBuf;

const TOTAL_TOPS: usize = 64;
const CONNECTIONS: usize = 4;

const MODES: [DurabilityMode; 2] = [DurabilityMode::None, DurabilityMode::FsyncPerCommit];

fn sweep_load() -> LoadConfig {
    LoadConfig {
        connections: CONNECTIONS,
        tops_per_conn: TOTAL_TOPS / CONNECTIONS,
        objects: 6,
        hotspot: 0.5,
        read_ratio: 0.5,
        max_depth: 2,
        seed: 19,
        ..LoadConfig::default()
    }
}

struct Row {
    mode: String,
    committed: u64,
    requests: u64,
    wall_us: u64,
    wal_appends: u64,
    wal_syncs: u64,
    coalesce_mean_us: f64,
    coalesce_p95_us: u64,
    req_p50_us: u64,
    req_p95_us: u64,
    req_p99_us: u64,
    certified: bool,
    reopen_certified: bool,
    reopen_history_len: u64,
}

impl Row {
    fn throughput(&self) -> f64 {
        self.committed as f64 / (self.wall_us as f64 / 1e6)
    }

    fn syncs_per_commit(&self) -> f64 {
        self.wal_syncs as f64 / self.committed.max(1) as f64
    }

    fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("mode", &self.mode)
            .float("wall_ms", self.wall_us as f64 / 1e3)
            .num("committed_tops", self.committed)
            .num("requests", self.requests)
            .float("throughput_tps", self.throughput())
            .num("wal_appends", self.wal_appends)
            .num("wal_syncs", self.wal_syncs)
            .float("syncs_per_commit", self.syncs_per_commit())
            .float("coalesce_mean_us", self.coalesce_mean_us)
            .num("coalesce_p95_us", self.coalesce_p95_us)
            .num("request_us_p50", self.req_p50_us)
            .num("request_us_p95", self.req_p95_us)
            .num("request_us_p99", self.req_p99_us)
            .bool("certified", self.certified)
            .bool("reopen_certified", self.reopen_certified)
            .num("reopen_history_len", self.reopen_history_len);
        o.build()
    }
}

fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v.clone();
    for k in path {
        cur = cur.get(k).cloned().unwrap_or(Json::Null);
    }
    cur.as_num().unwrap_or(0.0)
}

/// Run one durability cell on a fresh data dir, then reopen the dir
/// through the recovery path to prove what the run left is certifiable.
fn run_cell(mode: DurabilityMode, dir: &PathBuf) -> Row {
    let tag = mode.tag();
    let _ = std::fs::remove_dir_all(dir);
    let cfg = ServerConfig {
        data_dir: Some(dir.to_string_lossy().into_owned()),
        durability: mode,
        telemetry: true,
        ..ServerConfig::default()
    };
    let server = NetServer::bind(cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let probe = handle.probe();
    let load = sweep_load();
    let report = run_load(&addr, &load).expect("load runs");
    let cert = fetch_and_certify(&addr, ConnConfig::from(&load)).expect("history certifies");
    let stats = Json::parse(&probe.stats_json()).expect("stats parse");
    let tele = Json::parse(&probe.telemetry().to_json()).expect("telemetry parse");
    handle.wait();

    // Reopen through recovery: the drained dir must come back certified
    // with the whole history intact.
    let reopen = NetServer::bind(ServerConfig {
        data_dir: Some(dir.to_string_lossy().into_owned()),
        durability: DurabilityMode::None,
        ..ServerConfig::default()
    })
    .expect("reopen data dir");
    let rep = reopen.recovery_report().expect("store mounted");
    let (reopen_certified, reopen_history_len) = (rep.certified, rep.history_len as u64);
    reopen.serve().wait();

    let row = Row {
        mode: tag.to_string(),
        committed: report.committed_tops,
        requests: report.requests,
        wall_us: report.wall_us,
        wal_appends: num(&stats, &["wal_appended"]) as u64,
        wal_syncs: num(&stats, &["wal_syncs"]) as u64,
        coalesce_mean_us: num(&tele, &["phases", "coalesce", "mean_us"]),
        coalesce_p95_us: num(&tele, &["phases", "coalesce", "p95_us"]) as u64,
        req_p50_us: report.req_hist.p50_p95_p99().0,
        req_p95_us: report.req_hist.p50_p95_p99().1,
        req_p99_us: report.req_hist.p50_p95_p99().2,
        certified: cert.is_serially_correct(),
        reopen_certified,
        reopen_history_len,
    };
    println!(
        "| {:9} | {:8.1} | {:9} | {:10.1} | {:9} | {:8.2} | {:12.1} | {:7} | {:9} |",
        row.mode,
        row.wall_us as f64 / 1e3,
        row.committed,
        row.throughput(),
        row.wal_syncs,
        row.syncs_per_commit(),
        row.coalesce_mean_us,
        row.req_p95_us,
        if row.certified && row.reopen_certified {
            "acyclic"
        } else {
            "FAILED"
        },
    );
    assert!(row.certified, "{tag}: live history failed certification");
    assert!(
        row.reopen_certified,
        "{tag}: recovery re-certification failed"
    );
    let _ = std::fs::remove_dir_all(dir);
    row
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nt-store-bench-{}-{name}", std::process::id()))
}

fn smoke() {
    // The CI gate: one fsync cell plus its recovery reopen, exit 0.
    let dir = scratch("smoke");
    let row = run_cell(DurabilityMode::FsyncPerCommit, &dir);
    SmokeLine::new("store-bench-smoke")
        .str("mode", &row.mode)
        .num("committed_tops", row.committed)
        .num("wal_appends", row.wal_appends)
        .num("wal_syncs", row.wal_syncs)
        .num("reopen_history_len", row.reopen_history_len)
        .bool("serially_correct", row.certified)
        .bool("reopen_certified", row.reopen_certified)
        .emit();
    assert!(row.committed > 0, "store smoke committed nothing");
    assert!(row.wal_syncs > 0, "fsync mode must have synced");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    println!(
        "| {:9} | {:8} | {:9} | {:10} | {:9} | {:8} | {:12} | {:7} | {:9} |",
        "mode",
        "wall_ms",
        "committed",
        "tput_tps",
        "wal_sync",
        "sync/ct",
        "barrier_us",
        "p95_us",
        "SGT"
    );
    println!(
        "|-----------|----------|-----------|------------|-----------|----------|--------------|---------|-----------|"
    );
    let rows: Vec<Row> = MODES
        .iter()
        .map(|mode| run_cell(*mode, &scratch(mode.tag())))
        .collect();
    let mut doc = JsonObj::new();
    doc.str("benchmark", "store_bench")
        .num(
            "host_cores",
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        )
        .num("total_tops", TOTAL_TOPS as u64)
        .num("connections", CONNECTIONS as u64)
        .raw(
            "rows",
            format!(
                "[{}]",
                rows.iter().map(Row::to_json).collect::<Vec<_>>().join(",")
            ),
        );
    std::fs::write("BENCH_store.json", doc.build()).expect("write BENCH_store.json");
    eprintln!("wrote BENCH_store.json ({} cells)", rows.len());
    assert!(
        rows.iter().all(|r| r.committed > 0),
        "every cell must commit work"
    );
}
