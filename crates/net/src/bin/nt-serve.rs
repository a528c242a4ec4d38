//! `nt-serve`: run the networked nested-transaction server until a
//! client asks it to shut down.
//!
//! ```text
//! nt-serve [--config FILE.net.json] [--addr HOST:PORT]
//!          [--port-file FILE] [--journal FILE] [--static-gate]
//!          [--metrics-out FILE] [--trace-out FILE] [--live-certify]
//!          [--data-dir DIR] [--durability none|fsync]
//! ```
//!
//! Binds (port 0 = ephemeral), prints `nt-serve listening on ADDR`,
//! optionally writes the resolved address to `--port-file` (for CI
//! orchestration), serves until a wire `Shutdown` request drains it, and
//! prints a one-line JSON drain summary. `--journal` dumps the
//! observability event lines after the drain. `--static-gate` turns on
//! the static admission gate: `BEGIN_TOP_DECLARED` requests whose
//! declared read/write sets could close a potential serialization cycle
//! against the live declared tops are refused with a typed
//! `STATIC_GATE` error before they acquire any lock.
//!
//! `--metrics-out FILE` enables runtime telemetry and rewrites `FILE`
//! with a live `nt-net/stats/v3` snapshot every `metrics_period_ms`
//! (plus a final post-drain snapshot). `--trace-out FILE` enables
//! telemetry and writes the retained request spans as a Chrome
//! `trace_event` document after the drain. Either flag also turns on
//! the live serialization-graph certifier, so snapshots carry the
//! `sgt.live.*` gauges the certifier publishes as tops resolve.
//! `--live-certify` turns the certifier on by itself: every recorded
//! action steps the incremental Theorem 17 gate inline and the `CERT`
//! wire op serves the live verdict (`nt-sgt/cert/v1`).
//!
//! `--data-dir DIR` mounts an `nt-store` WAL + checkpoint under the
//! engine: every applied action is journaled, and on startup the dir is
//! recovered (crash losers rolled back, Theorem 17 re-certification)
//! before the listener accepts work. The recovery report is printed as
//! one JSON line (`nt-serve recovery {...}`) *before* the listening
//! line, so orchestration can gate on it. `--durability` picks the ack
//! barrier (default `none`): under `fsync` no mutating ack is written
//! before an fsync covering it returns — one per poll round, shared by
//! every connection that round served (the round is the group commit).
//!
//! Connections are served by the run-to-completion `nt-reactor` event
//! loop, the only front end: one thread multiplexes every socket *and*
//! executes every frame inline, a lock wait parks its connection as a
//! continuation instead of a thread, and replies coalesce. The server's
//! thread count does not depend on the number of connections.
//!
//! `SIGTERM`/`SIGINT` initiate the same graceful drain as a wire
//! `Shutdown`: in-flight work finishes, the store rotates into a fresh
//! checkpoint, and the drain summary is still printed.
//!
//! All output files (`--port-file`, `--journal`, `--metrics-out`,
//! `--trace-out`) are written atomically (temp file + rename), so a
//! reader never observes a torn snapshot.

use nt_engine::DurabilityMode;
use nt_net::{NetConfig, NetServer, ServerConfig};
use nt_obs::json::JsonObj;
use nt_store::write_atomic;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: nt-serve [--config FILE.net.json] [--addr HOST:PORT] [--port-file FILE] [--journal FILE] [--static-gate] [--metrics-out FILE] [--trace-out FILE] [--live-certify] [--data-dir DIR] [--durability none|fsync]\n(the reactor is the only front end and takes no flag; fsync covers a poll round, the only group commit)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServerConfig::default();
    let mut addr_override = None;
    let mut port_file = None;
    let mut journal_file = None;
    let mut static_gate = false;
    let mut live_certify = false;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut durability: Option<DurabilityMode> = None;
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
                        eprintln!("nt-serve: cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                match NetConfig::from_json(&text) {
                    Ok(NetConfig::Server(c)) => cfg = c,
                    Ok(NetConfig::Load(_)) => {
                        eprintln!("nt-serve: {path} is a load config, not a server config");
                        return ExitCode::from(2);
                    }
                    Err(e) => {
                        eprintln!("nt-serve: {path}: {e}");
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
            "--port-file" => {
                let Some(f) = args.get(i + 1) else {
                    return usage();
                };
                port_file = Some(f.clone());
                i += 2;
            }
            "--journal" => {
                let Some(f) = args.get(i + 1) else {
                    return usage();
                };
                journal_file = Some(f.clone());
                i += 2;
            }
            "--static-gate" => {
                static_gate = true;
                i += 1;
            }
            "--live-certify" => {
                live_certify = true;
                i += 1;
            }
            "--metrics-out" => {
                let Some(f) = args.get(i + 1) else {
                    return usage();
                };
                metrics_out = Some(f.clone());
                i += 2;
            }
            "--trace-out" => {
                let Some(f) = args.get(i + 1) else {
                    return usage();
                };
                trace_out = Some(f.clone());
                i += 2;
            }
            "--data-dir" => {
                let Some(d) = args.get(i + 1) else {
                    return usage();
                };
                data_dir = Some(d.clone());
                i += 2;
            }
            "--durability" => {
                let Some(m) = args.get(i + 1) else {
                    return usage();
                };
                match DurabilityMode::from_tag(m) {
                    Ok(mode) => durability = Some(mode),
                    Err(e) => {
                        eprintln!("nt-serve: {e}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            _ => return usage(),
        }
    }
    if let Some(a) = addr_override {
        cfg.addr = a;
    }
    if static_gate {
        cfg.static_gate = true;
    }
    if let Some(d) = data_dir {
        cfg.data_dir = Some(d);
    }
    if let Some(m) = durability {
        cfg.durability = m;
    }
    if metrics_out.is_some() || trace_out.is_some() {
        // A traced server should also report SGT health: the live
        // certifier publishes the `sgt.live.*` gauges those snapshots carry.
        cfg.telemetry = true;
        cfg.live_certify = true;
    }
    if live_certify {
        cfg.live_certify = true;
    }
    let metrics_period_ms = cfg.metrics_period_ms.max(1);
    let problems = cfg.problems();
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("nt-serve: config problem: {p}");
        }
        return ExitCode::from(2);
    }
    let server = match NetServer::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("nt-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The recovery report precedes the listening line so orchestration
    // (CI, the crash-campaign driver) can gate on certification before
    // pointing load at the server.
    if let Some(report) = server.recovery_report() {
        println!("nt-serve recovery {}", report.to_json());
    }
    let addr = server.local_addr();
    println!("nt-serve listening on {addr}");
    if let Some(f) = &port_file {
        if let Err(e) = write_atomic(Path::new(f), format!("{addr}\n").as_bytes()) {
            eprintln!("nt-serve: cannot write port file {f}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Park until a wire `Shutdown` (or SIGTERM/SIGINT) initiates the
    // drain. A metrics writer rewrites the snapshot file each period
    // until the drain begins.
    let handle = server.serve();
    let probe = handle.probe();
    let signal_thread = sigshim::install_exit_handlers().then(|| {
        let probe = probe.clone();
        std::thread::spawn(move || {
            while !probe.is_draining() {
                if sigshim::last_signal().is_some() {
                    probe.drain();
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    });
    let metrics_thread = metrics_out.clone().map(|f| {
        let probe = probe.clone();
        std::thread::spawn(move || {
            while !probe.is_draining() {
                if write_atomic(Path::new(&f), (probe.stats_json() + "\n").as_bytes()).is_err() {
                    break;
                }
                let mut slept = 0u64;
                while slept < metrics_period_ms && !probe.is_draining() {
                    let step = metrics_period_ms.min(20);
                    std::thread::sleep(Duration::from_millis(step));
                    slept += step;
                }
            }
        })
    });
    let report = handle.join();
    if let Some(t) = metrics_thread {
        let _ = t.join();
    }
    if let Some(t) = signal_thread {
        let _ = t.join();
    }
    if let Some(f) = &metrics_out {
        if let Err(e) = write_atomic(Path::new(f), (probe.stats_json() + "\n").as_bytes()) {
            eprintln!("nt-serve: cannot write metrics file {f}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(f) = &trace_out {
        let trace = probe.chrome_trace().unwrap_or_else(|| "{}".to_string());
        if let Err(e) = write_atomic(Path::new(f), trace.as_bytes()) {
            eprintln!("nt-serve: cannot write trace file {f}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(f) = &journal_file {
        let mut text = report.journal.join("\n");
        text.push('\n');
        if let Err(e) = write_atomic(Path::new(f), text.as_bytes()) {
            eprintln!("nt-serve: cannot write journal {f}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut o = JsonObj::new();
    o.str("suite", "nt-serve")
        .num("conns", report.stats.conns)
        .num("frames", report.stats.frames)
        .num("dropped", report.stats.dropped)
        .num("duplicated", report.stats.duplicated)
        .num("delayed", report.stats.delayed)
        .num("executed", report.stats.executed)
        .num("cache_hits", report.stats.cache_hits)
        .num("tx_count", report.tx_count as u64)
        .num("victims", report.victims as u64);
    println!("{}", o.build());
    ExitCode::SUCCESS
}
