//! The load driver: turns an `nt-sim` workload spec into wire traffic.
//!
//! The driver generates a deterministic workload with
//! `WorkloadSpec::generate` (same seeds, same trees as the simulator and
//! `run_plan`), extracts each top-level subtree as a *template*,
//! and stripes the templates across client connections round-robin. Each
//! connection replays its templates through the session protocol —
//! `BeginTop`, nested `BeginChild`/`Access`, `Commit` — pipelining runs
//! of sibling accesses (send all, then await all). When a response says
//! the subtree died (`Aborted{victim}`), the driver unwinds to the
//! victim's frame and moves on; a top-level death is retried as a fresh
//! top with capped exponential backoff, mirroring the paper's selling
//! point that aborts are contained at their subtree.

use crate::client::{Conn, ConnConfig};
use crate::config::{LoadConfig, LoadMode};
use crate::wire::{Request, Response, WireError};
use nt_model::{Op, TxId, TxTree};
use nt_obs::json::JsonObj;
use nt_obs::Histogram;
use nt_sim::{OpMix, WorkloadSpec};
use std::time::{Duration, Instant};

/// One node of a top-level transaction template.
#[derive(Clone, Debug)]
enum TNode {
    /// An inner transaction with its child slots in order.
    Sub(Vec<TNode>),
    /// A read/write access.
    Access(u32, Op),
}

/// Extract the per-top templates from a generated workload tree.
fn templates(tree: &TxTree) -> Vec<TNode> {
    fn node(tree: &TxTree, t: TxId) -> TNode {
        if tree.is_access(t) {
            let obj = tree.object_of(t).expect("access has an object").0;
            let op = tree.op_of(t).expect("access has an op").clone();
            TNode::Access(obj, op)
        } else {
            TNode::Sub(tree.children(t).iter().map(|&c| node(tree, c)).collect())
        }
    }
    tree.children(TxId::ROOT)
        .iter()
        .map(|&t| node(tree, t))
        .collect()
}

/// Map a [`LoadConfig`] onto the simulator's workload generator.
pub fn workload_spec(cfg: &LoadConfig) -> WorkloadSpec {
    WorkloadSpec {
        top_level: cfg.connections * cfg.tops_per_conn,
        objects: cfg.objects,
        max_depth: cfg.max_depth,
        min_children: cfg.min_children,
        max_children: cfg.max_children,
        subtx_prob: cfg.subtx_prob,
        sequential_prob: 0.0,
        mix: OpMix::ReadWrite {
            read_ratio: cfg.read_ratio,
        },
        hotspot: cfg.hotspot,
        object_partitions: 0,
        seed: cfg.seed,
        orphan_activity: false,
        retry_attempts: 0,
    }
}

/// How one template run ended.
enum TopEnd {
    Committed,
    /// The top itself died (retry candidate).
    TopAborted,
}

/// What `run_children` propagates upward.
enum Unwind {
    /// Every child slot completed (some subtrees may have died and been
    /// skipped — that is containment, not failure).
    Done,
    /// An ancestor at `victim` is dead: unwind until the frame matches.
    To(u32),
}

fn run_children(
    conn: &mut Conn,
    parent: u32,
    kids: &[TNode],
    stack: &[u32],
    batch: usize,
) -> Result<Unwind, WireError> {
    let mut i = 0;
    while i < kids.len() {
        // Pipeline a maximal run of sibling accesses: send every request
        // first, then await the responses in order. With `batch > 1` the
        // run goes out as `BATCH` frames of up to `batch` ops — one
        // syscall round-trip and one durability barrier per frame
        // instead of per op.
        if matches!(kids[i], TNode::Access(..)) {
            let mut reqs = Vec::new();
            let mut j = i;
            while j < kids.len() {
                let TNode::Access(obj, op) = &kids[j] else {
                    break;
                };
                reqs.push(Request::Access {
                    parent,
                    obj: *obj,
                    op: op.clone(),
                });
                j += 1;
            }
            let mut seqs = Vec::with_capacity(reqs.len());
            if batch > 1 {
                for chunk in reqs.chunks(batch) {
                    seqs.extend(conn.send_batch(chunk)?);
                }
            } else {
                for req in &reqs {
                    seqs.push(conn.send(req)?);
                }
            }
            let mut unwind = None;
            for seq in seqs {
                match conn.recv(seq)? {
                    Response::AccessOk { .. } => {}
                    Response::Aborted { victim } => {
                        // First death wins; later responses for the same
                        // dead subtree repeat the same victim.
                        if unwind.is_none() {
                            unwind = Some(victim);
                        }
                    }
                    Response::Error { code, msg } => {
                        return Err(WireError::BadPayload(format!("server error {code}: {msg}")))
                    }
                    other => {
                        return Err(WireError::BadPayload(format!(
                            "expected access reply, got {other:?}"
                        )))
                    }
                }
            }
            if let Some(victim) = unwind {
                return Ok(Unwind::To(victim));
            }
            i = j;
            continue;
        }
        let TNode::Sub(grandkids) = &kids[i] else {
            unreachable!("access handled above")
        };
        i += 1;
        let child = match conn.request(&Request::BeginChild { parent })? {
            Response::Begun { tx } => tx,
            Response::Aborted { victim } => return Ok(Unwind::To(victim)),
            other => {
                return Err(WireError::BadPayload(format!(
                    "expected begin reply, got {other:?}"
                )))
            }
        };
        let mut deeper = Vec::with_capacity(stack.len() + 1);
        deeper.extend_from_slice(stack);
        deeper.push(child);
        match run_children(conn, child, grandkids, &deeper, batch)? {
            Unwind::Done => match conn.request(&Request::Commit { tx: child })? {
                Response::Committed => {}
                Response::Aborted { victim } => {
                    if victim != child {
                        return Ok(Unwind::To(victim));
                    }
                    // The child subtree died; containment: move on.
                }
                other => {
                    return Err(WireError::BadPayload(format!(
                        "expected commit reply, got {other:?}"
                    )))
                }
            },
            Unwind::To(victim) => {
                if victim != child {
                    return Ok(Unwind::To(victim));
                }
                // Unwound exactly to this child: its subtree is gone,
                // siblings continue.
            }
        }
    }
    Ok(Unwind::Done)
}

fn run_top(conn: &mut Conn, template: &TNode, batch: usize) -> Result<TopEnd, WireError> {
    let TNode::Sub(kids) = template else {
        unreachable!("top-level transactions are inner nodes")
    };
    let top = match conn.request(&Request::BeginTop)? {
        Response::Begun { tx } => tx,
        other => {
            return Err(WireError::BadPayload(format!(
                "expected begin reply, got {other:?}"
            )))
        }
    };
    match run_children(conn, top, kids, &[top], batch)? {
        Unwind::Done => match conn.request(&Request::Commit { tx: top })? {
            Response::Committed => Ok(TopEnd::Committed),
            Response::Aborted { .. } => Ok(TopEnd::TopAborted),
            other => Err(WireError::BadPayload(format!(
                "expected commit reply, got {other:?}"
            ))),
        },
        Unwind::To(_) => Ok(TopEnd::TopAborted),
    }
}

/// Aggregated results of one load run.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Top-level transactions that committed.
    pub committed_tops: u64,
    /// Top-level attempts that aborted (before any retry succeeded).
    pub aborted_tops: u64,
    /// Tops whose retry budget ran out without a commit.
    pub gave_up: u64,
    /// Requests sent across all connections (including resends).
    pub requests: u64,
    /// Frame resends (client-side retries).
    pub retries: u64,
    /// Wall-clock time of the whole run, microseconds.
    pub wall_us: u64,
    /// Per-request round-trip latency, merged across connections.
    pub req_hist: Histogram,
    /// Per-committed-top latency, merged across connections.
    pub top_hist: Histogram,
    /// Merged client event journals (`net_retry` lines).
    pub journal: Vec<String>,
}

impl LoadReport {
    /// One-line JSON summary.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.num("committed_tops", self.committed_tops)
            .num("aborted_tops", self.aborted_tops)
            .num("gave_up", self.gave_up)
            .num("requests", self.requests)
            .num("retries", self.retries)
            .num("wall_us", self.wall_us);
        if self.req_hist.count() > 0 {
            o.float("request_us_mean", self.req_hist.mean());
        }
        if self.top_hist.count() > 0 {
            o.float("top_us_mean", self.top_hist.mean());
        }
        let (p50, p95, p99) = self.req_hist.p50_p95_p99();
        o.num("request_us_p50", p50)
            .num("request_us_p95", p95)
            .num("request_us_p99", p99);
        let (p50, p95, p99) = self.top_hist.p50_p95_p99();
        o.num("top_us_p50", p50)
            .num("top_us_p95", p95)
            .num("top_us_p99", p99);
        if self.wall_us > 0 {
            o.float(
                "tops_per_sec",
                self.committed_tops as f64 / (self.wall_us as f64 / 1e6),
            );
        }
        o.build()
    }
}

/// Drive the configured load against `addr` and gather the report.
pub fn run_load(addr: &str, cfg: &LoadConfig) -> Result<LoadReport, WireError> {
    let spec = workload_spec(cfg);
    let workload = spec.generate();
    let all_templates = templates(&workload.tree);
    let start = Instant::now();
    // Open-loop pacing: the aggregate rate divides into a per-connection
    // schedule; each connection starts its k-th top at `k * interval`
    // regardless of how the previous one is doing.
    let interval_us = match cfg.mode {
        LoadMode::Closed => 0,
        LoadMode::Open { rate_tps } => {
            if rate_tps == 0 {
                return Err(WireError::BadPayload("open-loop rate_tps is 0".to_string()));
            }
            (1_000_000 * cfg.connections as u64) / rate_tps
        }
    };
    let conn_cfg = ConnConfig::from(cfg);
    let mut handles = Vec::new();
    for c in 0..cfg.connections {
        // Stripe templates round-robin: connection c drives tops c,
        // c + connections, c + 2*connections, …
        let mine: Vec<TNode> = all_templates
            .iter()
            .skip(c)
            .step_by(cfg.connections)
            .cloned()
            .collect();
        let addr = addr.to_string();
        let top_retries = cfg.top_retries;
        let backoff = cfg.backoff;
        let backoff_round_us = cfg.backoff_round_us;
        let batch = cfg.batch.max(1);
        handles.push(std::thread::spawn(
            move || -> Result<LoadReport, WireError> {
                let mut conn = Conn::connect(&addr, c as u64 + 1, conn_cfg)?;
                let mut rep = LoadReport::default();
                for (k, template) in mine.iter().enumerate() {
                    let top_start = if interval_us > 0 {
                        let target = Duration::from_micros(k as u64 * interval_us);
                        let elapsed = start.elapsed();
                        if target > elapsed {
                            std::thread::sleep(target - elapsed);
                        }
                        // Latency is measured from the *scheduled* start, so
                        // falling behind schedule shows up as queuing delay —
                        // the open-loop measurement discipline.
                        start + target
                    } else {
                        Instant::now()
                    };
                    let mut attempt: u32 = 0;
                    loop {
                        match run_top(&mut conn, template, batch)? {
                            TopEnd::Committed => {
                                rep.committed_tops += 1;
                                let us = top_start.elapsed().as_micros().min(u128::from(u64::MAX))
                                    as u64;
                                rep.top_hist.observe(us);
                                break;
                            }
                            TopEnd::TopAborted => {
                                rep.aborted_tops += 1;
                                attempt += 1;
                                if attempt > top_retries {
                                    rep.gave_up += 1;
                                    break;
                                }
                                std::thread::sleep(Duration::from_micros(
                                    backoff.delay(attempt) * backoff_round_us,
                                ));
                            }
                        }
                    }
                }
                rep.requests = conn.requests_sent();
                rep.retries = conn.retries;
                rep.req_hist.merge(&conn.req_hist);
                rep.journal.append(&mut conn.journal);
                Ok(rep)
            },
        ));
    }
    let mut merged = LoadReport::default();
    let mut first_err = None;
    for h in handles {
        match h.join() {
            Ok(Ok(rep)) => {
                merged.committed_tops += rep.committed_tops;
                merged.aborted_tops += rep.aborted_tops;
                merged.gave_up += rep.gave_up;
                merged.requests += rep.requests;
                merged.retries += rep.retries;
                merged.req_hist.merge(&rep.req_hist);
                merged.top_hist.merge(&rep.top_hist);
                merged.journal.extend(rep.journal);
            }
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err =
                    first_err.or_else(|| Some(WireError::Io("load thread panicked".to_string())))
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    merged.wall_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    Ok(merged)
}
