//! Correctness gates, outside the timed trials: the per-workload verify
//! pass (history fetched over the wire and certified by Theorem 17 post
//! hoc) and, for the WAL workload, the barrier pass (fsync per commit,
//! exact sync and byte counts, then reopen and re-certify).

use crate::harness::{BenchError, Rig, RunCtx};
use nt_engine::DurabilityMode;
use nt_model::{Action, TxId, TxTree};
use nt_net::{certify_history, Conn, ConnConfig};
use nt_obs::json::Json;
use nt_store::{Store, WAL_FILE};
use std::time::Instant;

/// Tops in the verify pass.
pub const VERIFY_TOPS: usize = 256;
/// Tops in the barrier pass.
pub const BARRIER_TOPS: usize = 2000;

/// What the verify pass found.
pub struct Verified {
    /// Every check passed.
    pub ok: bool,
    /// What failed, for the log.
    pub problems: Vec<String>,
    /// The history fetched over the wire: naming tree and actions.
    pub history: (TxTree, Vec<Action>),
    /// Serialization-graph edges the post-hoc certifier built.
    pub sg_edges: usize,
    /// Wall time of the post-hoc certification, ms.
    pub posthoc_ms: f64,
}

fn json_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_num).map(|n| n as u64)
}

/// Run [`VERIFY_TOPS`] tops against a fresh server with the workload's own
/// configuration, fetch the recorded history over the wire and certify it.
/// A live-certifier workload must also report `ok` with every recorded
/// action processed.
pub fn verify_pass(ctx: &mut RunCtx<'_>) -> Result<Verified, BenchError> {
    let w = ctx.workload;
    let dir = match w.wal {
        true => Some(ctx.fresh_dir("verify")?),
        false => None,
    };
    let cfg = w.server_config(
        dir.as_ref().map(|d| d.display().to_string()),
        DurabilityMode::None,
    );
    let mut rig = Rig::start(cfg, w.connections, ctx.load)?;
    let templates = &ctx.pool[..VERIFY_TOPS.min(ctx.pool.len())];
    let (_, samples) = rig.run(templates, ctx.load, None, 0);
    let mut problems = Vec::new();
    if samples.failed > 0 || samples.committed != templates.len() as u64 {
        problems.push(format!(
            "verify pass committed {} of {} tops ({} failed)",
            samples.committed,
            templates.len(),
            samples.failed
        ));
    }
    let mut conn = Conn::connect(&rig.addr, 0, ConnConfig::from(ctx.load))
        .map_err(|e| format!("verify connect: {e:?}"))?;
    let cert_json = conn.cert().map_err(|e| format!("cert: {e:?}"))?;
    let (tree, actions) = conn
        .fetch_history()
        .map_err(|e| format!("history fetch: {e:?}"))?;
    drop(conn);
    let start = Instant::now();
    let cert = certify_history(&tree, &actions);
    let posthoc_ms = start.elapsed().as_secs_f64() * 1e3;
    if !cert.is_serially_correct() {
        problems.push(format!(
            "Theorem 17 gate rejected the fetched history: {:?}",
            cert.verdict
        ));
    }
    if w.live_certify {
        match Json::parse(&cert_json) {
            Ok(doc) => {
                let ok = doc.get("ok") == Some(&Json::Bool(true));
                let processed = json_u64(&doc, "processed").unwrap_or(0);
                if !ok || processed != actions.len() as u64 {
                    problems.push(format!(
                        "live certificate ok={ok} processed={processed}, recorded {}",
                        actions.len()
                    ));
                }
            }
            Err(e) => problems.push(format!("live certificate does not parse: {e}")),
        }
    }
    rig.stop();
    if let Some(dir) = dir {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove verify dir: {e}"))?;
    }
    Ok(Verified {
        ok: problems.is_empty(),
        problems,
        history: (tree, actions),
        sg_edges: cert.sg_edges,
        posthoc_ms,
    })
}

/// What the barrier pass found.
pub struct Barrier {
    /// The directory reopened certified with every acked top present.
    pub ok: bool,
    /// What failed, for the log.
    pub problems: Vec<String>,
    /// Tops acknowledged.
    pub acked: u64,
    /// WAL file bytes ÷ acked tops.
    pub wal_bytes_per_top: f64,
    /// `Wal::sync_count()` ÷ acked tops.
    pub wal_syncs_per_top: f64,
    /// WAL records appended ÷ acked tops.
    pub records_per_top: f64,
    /// Wall time of `Store::open` on the directory, s.
    pub recover_s: f64,
    /// Wall time of the pass's tops, s (device time; informational).
    pub wall_s: f64,
}

/// Read `(wal_appended, wal_syncs)` off a server's stats document.
pub fn wal_counters(stats_json: &str) -> Option<(u64, u64)> {
    let doc = Json::parse(stats_json).ok()?;
    Some((
        json_u64(&doc, "wal_appended")?,
        json_u64(&doc, "wal_syncs")?,
    ))
}

/// [`BARRIER_TOPS`] tops with an fsync before every acknowledgment, in a
/// fresh directory; then drain, reopen (recovery + Theorem 17 gate) and
/// check that every acknowledged top is there, committed.
pub fn barrier_pass(ctx: &mut RunCtx<'_>) -> Result<Barrier, BenchError> {
    let w = ctx.workload;
    let dir = ctx.fresh_dir("barrier")?;
    let cfg = w.server_config(
        Some(dir.display().to_string()),
        DurabilityMode::FsyncPerCommit,
    );
    let mut rig = Rig::start(cfg, w.connections, ctx.load)?;
    let start = Instant::now();
    let mut acked = 0;
    let mut failed = 0;
    for k in 0..BARRIER_TOPS.div_ceil(crate::workloads::TOPS_PER_TRIAL) {
        let (_, samples) = rig.run(ctx.block(k), ctx.load, None, 0);
        acked += samples.committed;
        failed += samples.failed;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    if failed > 0 {
        problems.push(format!("{failed} barrier-pass tops failed"));
    }
    // Read the counts while the server is up: the drain folds the WAL into
    // a checkpoint and resets it.
    let (appended, syncs) = wal_counters(&rig.handle.probe().stats_json())
        .ok_or("stats document carries no WAL counters")?;
    let wal_bytes = std::fs::metadata(dir.join(WAL_FILE))
        .map_err(|e| format!("stat WAL: {e}"))?
        .len();
    rig.stop();
    let start = Instant::now();
    let opened = Store::open(&dir, DurabilityMode::None);
    let recover_s = start.elapsed().as_secs_f64();
    match opened {
        Ok((store, recovered)) => {
            let report = &recovered.report;
            // A top is acknowledged exactly when it committed, so the
            // committed children of T0 that come back must be the acked
            // tops, one for one, with no crash-time losers.
            let seed = &recovered.seed;
            let tops_back = seed
                .committed
                .iter()
                .filter(|t| {
                    t.index()
                        .checked_sub(1)
                        .and_then(|i| seed.nodes.get(i))
                        .is_some_and(|(parent, _)| *parent == TxId::ROOT)
                })
                .count() as u64;
            if !report.certified || !report.losers.is_empty() || tops_back != acked {
                problems.push(format!(
                    "reopen: certified={} losers={} committed tops={tops_back} acked={acked}",
                    report.certified,
                    report.losers.len(),
                ));
            }
            store.close();
        }
        Err(e) => problems.push(format!("reopen refused: {e:?}")),
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove barrier dir: {e}"))?;
    let tops = acked.max(1) as f64;
    Ok(Barrier {
        ok: problems.is_empty(),
        problems,
        acked,
        wal_bytes_per_top: wal_bytes as f64 / tops,
        wal_syncs_per_top: syncs as f64 / tops,
        records_per_top: appended as f64 / tops,
        recover_s,
        wall_s,
    })
}
