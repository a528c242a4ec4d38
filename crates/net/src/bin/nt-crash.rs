//! `nt-crash`: the whole-process crash–restart campaign driver.
//!
//! ```text
//! nt-crash [--plan FILE.json] [--runs N] [--seed S]
//!          [--durability none|fsync]
//!          [--smoke] [--out FILE] [--serve-bin PATH] [--scratch DIR]
//! ```
//!
//! Each run: spawn `nt-serve` on a fresh data directory, drive
//! committing load at it, `SIGKILL` the process at the plan's seeded
//! point, restart it on the same directory, and verify the durability
//! contract — recovery passes the Theorem 17 gate (in-process and
//! client-side), no acknowledged commit is lost, and resending a
//! pre-crash acknowledged frame returns the byte-identical cached
//! response. One JSON line per run on stdout, then a summary line;
//! exit 1 if any run failed an obligation. `--smoke` selects the small
//! fixed CI plan; `--out` writes the full campaign document
//! atomically.

use nt_faults::CrashPlan;
use nt_net::crashdrv::{run_campaign, sibling_serve_bin};
use nt_obs::json::JsonObj;
use nt_store::write_atomic;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: nt-crash [--plan FILE.json] [--runs N] [--seed S] [--durability MODE] [--smoke] [--out FILE] [--serve-bin PATH] [--scratch DIR]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut plan = CrashPlan::default();
    let mut out: Option<String> = None;
    let mut serve_bin: Option<PathBuf> = None;
    let mut scratch: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--plan" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("nt-crash: cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                match CrashPlan::from_json(&text) {
                    Ok(p) => plan = p,
                    Err(e) => {
                        eprintln!("nt-crash: {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--runs" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                plan.runs = n;
                i += 2;
            }
            "--seed" => {
                let Some(s) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                plan.base_seed = s;
                i += 2;
            }
            "--durability" => {
                let Some(m) = args.get(i + 1) else {
                    return usage();
                };
                plan.durability = m.clone();
                i += 2;
            }
            "--smoke" => {
                plan = CrashPlan::ci_smoke();
                i += 1;
            }
            "--out" => {
                let Some(f) = args.get(i + 1) else {
                    return usage();
                };
                out = Some(f.clone());
                i += 2;
            }
            "--serve-bin" => {
                let Some(p) = args.get(i + 1) else {
                    return usage();
                };
                serve_bin = Some(PathBuf::from(p));
                i += 2;
            }
            "--scratch" => {
                let Some(d) = args.get(i + 1) else {
                    return usage();
                };
                scratch = Some(PathBuf::from(d));
                i += 2;
            }
            _ => return usage(),
        }
    }
    let serve_bin = match serve_bin.map_or_else(sibling_serve_bin, Ok) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("nt-crash: {e} (pass --serve-bin)");
            return ExitCode::from(2);
        }
    };
    let scratch = scratch
        .unwrap_or_else(|| std::env::temp_dir().join(format!("nt-crash-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("nt-crash: cannot create scratch {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }

    let reports = match run_campaign(&plan, &serve_bin, &scratch, |r| println!("{}", r.to_json())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nt-crash: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failed = reports.iter().filter(|r| !r.ok()).count() as u64;
    let mut o = JsonObj::new();
    o.str("suite", "nt-crash")
        .raw("plan", plan.to_json())
        .num("runs", reports.len() as u64)
        .num("failed", failed)
        .num(
            "acked_commits",
            reports.iter().map(|r| r.acked_commits).sum::<u64>(),
        )
        .num(
            "lost_commits",
            reports.iter().map(|r| r.lost_commits).sum::<u64>(),
        )
        .num("resends", reports.iter().map(|r| r.resends).sum::<u64>())
        .num(
            "resends_matched",
            reports.iter().map(|r| r.resends_matched).sum::<u64>(),
        )
        .num("losers", reports.iter().map(|r| r.losers).sum::<u64>());
    let summary = o.build();
    println!("{summary}");
    if let Some(f) = &out {
        let mut doc = JsonObj::new();
        doc.raw("summary", summary.clone()).raw(
            "runs",
            format!(
                "[{}]",
                reports
                    .iter()
                    .map(|r| r.to_json())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        );
        if let Err(e) = write_atomic(std::path::Path::new(f), (doc.build() + "\n").as_bytes()) {
            eprintln!("nt-crash: cannot write {f}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
