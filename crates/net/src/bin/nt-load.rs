//! `nt-load`: drive load at an nt-net server, then fetch and certify
//! the server's recorded history over the wire.
//!
//! ```text
//! nt-load [--config FILE.net.json] [--addr HOST:PORT] [--smoke]
//!         [--cert] [--shutdown] [--batch N] [--conns N,N,...]
//! ```
//!
//! * `--addr` targets a running server (overrides the config's `addr`).
//!   With `--smoke` and no address, an in-process server is started
//!   instead, so the smoke gate is self-contained.
//! * `--smoke` runs a small contended preset and asserts the run
//!   certifies serially correct; output is one machine-readable JSON
//!   line on stdout.
//! * `--gate-probe` is refused (exit 2): the static admission gate it
//!   probed is gone.
//! * `--cert` fetches the server's live serialization-graph certificate
//!   (the `CERT` wire op) after the run, embeds it in the output line,
//!   and fails if a live certifier reports a violation. A server running
//!   without `--live-certify` answers `"mode":"disabled"`, which passes.
//! * `--shutdown` sends a wire `Shutdown` after the run (CI uses this to
//!   stop an `nt-serve` it spawned).
//! * `--batch N` chunks pipelined sibling-access runs into `BATCH`
//!   frames of up to N ops each — one syscall round-trip and one
//!   durability barrier per frame instead of per op.
//! * `--conns N,N,...` sweeps the run over each connection count in
//!   turn (e.g. `--conns 1,8,64`), emitting one JSON cell line per
//!   count with throughput and latency percentiles, then the usual
//!   summary line. Each cell re-certifies the server's cumulative
//!   history over the wire; any violation fails the sweep.
//!
//! Exit status is non-zero if certification finds any violation, if no
//! top-level transaction committed, or on transport failure.

use nt_faults::TransportPlan;
use nt_net::client::{fetch_and_certify, Conn, ConnConfig};
use nt_net::config::STATIC_GATE_RETIRED;
use nt_net::{run_load, LoadConfig, NetConfig, NetServer, ServerConfig};
use nt_obs::json::{Json, JsonObj};
use nt_obs::SmokeLine;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: nt-load [--config FILE.net.json] [--addr HOST:PORT] [--smoke] [--cert] [--shutdown] [--batch N] [--conns N,N,...]"
    );
    ExitCode::from(2)
}

/// The smoke preset: contended, faulty, small enough for CI.
fn smoke_load() -> LoadConfig {
    LoadConfig {
        connections: 4,
        tops_per_conn: 12,
        objects: 4,
        hotspot: 0.6,
        read_ratio: 0.5,
        max_depth: 2,
        seed: 15,
        ..LoadConfig::default()
    }
}

/// The transport fault plan the self-hosted smoke server runs.
fn smoke_fault() -> TransportPlan {
    TransportPlan {
        drop_period: 13,
        dup_period: 7,
        delay_period: 5,
        delay_us: 200,
    }
}

/// Run the load once per connection count, emitting one `net-sweep`
/// JSON cell line per count with throughput and per-connection latency
/// percentiles. Each cell re-certifies the server's cumulative recorded
/// history over the wire. `Err` means transport failure; `Ok(false)`
/// means some cell failed certification or committed nothing.
fn run_sweep(addr: &str, base: &LoadConfig, sweep: &[usize]) -> Result<bool, String> {
    let mut all_ok = true;
    for &conns in sweep {
        let mut cell = base.clone();
        cell.connections = conns;
        let report = run_load(addr, &cell)
            .map_err(|e| format!("sweep cell conns={conns}: load failed: {e}"))?;
        let cert = fetch_and_certify(addr, ConnConfig::from(&cell))
            .map_err(|e| format!("sweep cell conns={conns}: history fetch failed: {e}"))?;
        let ok = cert.is_serially_correct() && report.committed_tops > 0;
        all_ok &= ok;
        let tps = if report.wall_us > 0 {
            report.committed_tops as f64 / (report.wall_us as f64 / 1e6)
        } else {
            0.0
        };
        SmokeLine::new("net-sweep")
            .num("conns", conns as u64)
            .num("batch", cell.batch.max(1) as u64)
            .num("committed_tops", report.committed_tops)
            .num("aborted_tops", report.aborted_tops)
            .num("gave_up", report.gave_up)
            .num("requests", report.requests)
            .num("retries", report.retries)
            .num("wall_us", report.wall_us)
            .float("tops_per_sec", tps)
            .percentiles("request_us", &report.req_hist)
            .percentiles("top_us", &report.top_hist)
            .num("violations", cert.violations as u64)
            .bool("serially_correct", cert.is_serially_correct())
            .emit();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg: Option<LoadConfig> = None;
    let mut addr_override = None;
    let mut smoke = false;
    let mut cert_probe = false;
    let mut shutdown = false;
    let mut batch_override: Option<usize> = None;
    let mut conns_sweep: Option<Vec<usize>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--config" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("nt-load: cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                match NetConfig::from_json(&text) {
                    Ok(NetConfig::Load(c)) => cfg = Some(c),
                    Ok(NetConfig::Server(_)) => {
                        eprintln!("nt-load: {path} is a server config, not a load config");
                        return ExitCode::from(2);
                    }
                    Err(e) => {
                        eprintln!("nt-load: {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--addr" => {
                let Some(a) = args.get(i + 1) else {
                    return usage();
                };
                addr_override = Some(a.clone());
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--gate-probe" => {
                eprintln!("nt-load: --gate-probe was removed: {STATIC_GATE_RETIRED}");
                return ExitCode::from(2);
            }
            "--cert" => {
                cert_probe = true;
                i += 1;
            }
            "--shutdown" => {
                shutdown = true;
                i += 1;
            }
            "--batch" => {
                let Some(n) = args.get(i + 1) else {
                    return usage();
                };
                match n.parse::<usize>() {
                    Ok(n) if n > 0 => batch_override = Some(n),
                    _ => {
                        eprintln!("nt-load: bad batch size {n:?}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--conns" => {
                let Some(list) = args.get(i + 1) else {
                    return usage();
                };
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(|s| s.trim().parse::<usize>()).collect();
                match parsed {
                    Ok(v) if !v.is_empty() && v.iter().all(|&n| n > 0) => conns_sweep = Some(v),
                    _ => {
                        eprintln!("nt-load: bad connection sweep {list:?}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            _ => return usage(),
        }
    }
    let mut load = cfg.unwrap_or_else(|| {
        if smoke {
            smoke_load()
        } else {
            LoadConfig::default()
        }
    });
    if let Some(a) = addr_override {
        load.addr = a;
    }
    if let Some(b) = batch_override {
        load.batch = b;
    }
    let problems = load.problems();
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("nt-load: config problem: {p}");
        }
        return ExitCode::from(2);
    }

    // Self-host a faulty server when smoking without a target.
    let own_server = if load.addr.is_empty() {
        if !smoke {
            eprintln!("nt-load: no server address (give --addr or a config with one)");
            return ExitCode::from(2);
        }
        let server = match NetServer::bind(ServerConfig {
            fault: Some(smoke_fault()),
            ..ServerConfig::default()
        }) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("nt-load: cannot self-host smoke server: {e}");
                return ExitCode::FAILURE;
            }
        };
        load.addr = server.local_addr().to_string();
        Some(server.serve())
    } else {
        None
    };

    let addr = load.addr.clone();
    if let Some(sweep) = &conns_sweep {
        let swept = run_sweep(&addr, &load, sweep);
        if shutdown || own_server.is_some() {
            let sent = Conn::connect(&addr, 0, ConnConfig::from(&load))
                .and_then(|mut c| c.shutdown_server());
            if let Err(e) = sent {
                eprintln!("nt-load: shutdown request failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(handle) = own_server {
            let _ = handle.wait();
        }
        return match swept {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("nt-load: sweep observed violations or empty cells");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("nt-load: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match run_load(&addr, &load) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nt-load: load failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cert = match fetch_and_certify(&addr, ConnConfig::from(&load)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("nt-load: history fetch failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let live_cert = if cert_probe {
        match Conn::connect(&addr, 0, ConnConfig::from(&load)).and_then(|mut c| c.cert()) {
            Ok(json) => Some(json),
            Err(e) => {
                eprintln!("nt-load: cert fetch failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    if shutdown || own_server.is_some() {
        let sent =
            Conn::connect(&addr, 0, ConnConfig::from(&load)).and_then(|mut c| c.shutdown_server());
        if let Err(e) = sent {
            eprintln!("nt-load: shutdown request failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(handle) = own_server {
        let _ = handle.wait();
    }

    let mut o = JsonObj::new();
    o.str("suite", if smoke { "net-smoke" } else { "net-load" })
        .num("committed_tops", report.committed_tops)
        .num("aborted_tops", report.aborted_tops)
        .num("gave_up", report.gave_up)
        .num("requests", report.requests)
        .num("retries", report.retries)
        .num("wall_us", report.wall_us)
        .num("violations", cert.violations as u64)
        .bool("serially_correct", cert.is_serially_correct())
        .num("sg_nodes", cert.sg_nodes as u64)
        .num("sg_edges", cert.sg_edges as u64);
    let (p50, p95, p99) = report.req_hist.p50_p95_p99();
    o.num("request_us_p50", p50)
        .num("request_us_p95", p95)
        .num("request_us_p99", p99);
    let (p50, p95, p99) = report.top_hist.p50_p95_p99();
    o.num("top_us_p50", p50)
        .num("top_us_p95", p95)
        .num("top_us_p99", p99);
    if let Some(json) = &live_cert {
        o.raw("live_cert", json.clone());
    }
    println!("{}", o.build());
    if !smoke {
        eprintln!("{}", report.to_json());
    }
    if !cert.is_serially_correct() {
        eprintln!("nt-load: certification found violations");
        return ExitCode::FAILURE;
    }
    if let Some(json) = &live_cert {
        let parsed = Json::parse(json).unwrap_or(Json::Null);
        let mode = parsed.get("mode").and_then(Json::as_str).unwrap_or("");
        if mode == "live" && parsed.get("ok") != Some(&Json::Bool(true)) {
            eprintln!("nt-load: live certifier reported a violation: {json}");
            return ExitCode::FAILURE;
        }
    }
    if report.committed_tops == 0 {
        eprintln!("nt-load: no top-level transaction committed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
