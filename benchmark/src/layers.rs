//! The traced run (`--trace 1`): one epoch replayed with spans around the
//! calls into each layer, paired on/off legs for the optional layers, and
//! small probes that time each layer's public functions from outside.
//! Everything here is informational; end-to-end metrics are measured with
//! tracing off, in `harness`.

use crate::gates::{wal_counters, Barrier, Verified};
use crate::harness::{
    cost_ns, fast_level_us, kept_trials, kept_trials_at, median_of, BenchError, Raw, Rig, RunCtx,
    Trial,
};
use crate::host::{cpu_kernel_us, cpu_time_us, ctx_switches, fsync_us};
use crate::metrics::Values;
use crate::spans::{totals_by_name, Spans};
use crate::stats::{median, percentile_sorted};
use crate::workloads::{Node, Template, TOPS_PER_TRIAL};
use nt_engine::{
    AccessOutcome, BeginOutcome, CommitOutcome, DurabilityMode, LockTable, SeqClock, Session,
    SessionEngine, StatusTable, WorkerLog,
};
use nt_model::rw::RwInitials;
use nt_model::{Action, ObjId, Op, TxId, TxTree, Value};
use nt_net::wire::{
    decode_batch_request, encode_batch_request, encode_request, encode_response, parse_frame,
    parse_request, parse_response,
};
use nt_net::{certify_history, Conn, ConnConfig, Request, Response, ServerConfig};
use nt_obs::json::Json;
use nt_reactor::{Drainer, ReactorConfig, ReplySink, Service, ServiceFactory};
use nt_sgt_live::{SgtConfig, SgtMaintainer};
use nt_store::{Record, Store, WAL_FILE};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traced + untraced trials of the traced epoch (half each, interleaved).
const TRACED_EPOCH_TRIALS: usize = 12;
/// Trials per leg of an on/off pair (interleaved A B B A …).
const PAIR_TRIALS: usize = 4;
/// Round trips of the Ping and bare-reactor probes.
const PING_ROUNDS: usize = 2000;
/// Tops of the in-process session probe.
const INPROC_TOPS: usize = 2000;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// The trials of `leg` that count against fast level `level_us`; when that
/// leaves none of a short leg, every trial that committed, with the mean
/// of its brackets. These numbers are informational, and one from a
/// restless host says more than none.
fn kept_or_every(leg: &[Trial], level_us: f64) -> Vec<(&Trial, f64)> {
    let kept = kept_trials_at(leg, level_us);
    if !kept.is_empty() {
        return kept;
    }
    leg.iter()
        .filter(|t| t.committed > 0)
        .map(|t| (t, (t.before + t.after) / 2.0 * 1e3))
        .collect()
}

/// How much dearer a top is in `on` than in `off`, percent of `off`'s
/// `top_cost_x`; both legs are judged against the fast level of the two
/// together.
fn on_cost_pct(on: &[Trial], off: &[Trial]) -> f64 {
    let level_us = fast_level_us(&[on, off].concat());
    let cost_x = |leg: &[Trial]| median_of(&kept_or_every(leg, level_us), |t, r| cost_ns(t) / r);
    (cost_x(on) / cost_x(off) - 1.0) * 100.0
}

/// Counters read off the engine around the traced epoch's trials.
#[derive(Clone, Copy, Default)]
struct EngineCounters {
    grants: u64,
    blocks: u64,
    rescues: u64,
    victims: u64,
    passes: u64,
    tx: u64,
}

impl EngineCounters {
    fn read(e: &SessionEngine) -> EngineCounters {
        EngineCounters {
            grants: e.lock_grants(),
            blocks: e.lock_blocks(),
            rescues: e.timeout_rescues(),
            victims: e.victims().len() as u64,
            passes: e.detector_passes(),
            tx: e.tx_count() as u64,
        }
    }
}

/// Tallies over the traced epoch's trials (traced and untraced alike).
#[derive(Default)]
struct EpochTally {
    committed: u64,
    failed: u64,
    aborted_attempts: u64,
    retry_sleep_us: u64,
    wall_ns: u64,
}

impl EpochTally {
    fn add(&mut self, t: &Trial) {
        self.committed += t.committed;
        self.failed += t.failed;
        self.aborted_attempts += t.aborted_attempts;
        self.retry_sleep_us += t.retry_sleep_us;
        self.wall_ns += t.wall_ns;
    }
}

/// What the traced run's trials add up to.
#[derive(Default)]
pub struct Tally {
    /// Tops attempted.
    pub attempted: u64,
    /// Tops failed.
    pub failed: u64,
    /// Every reference bracket taken, µs.
    pub brackets: Vec<f64>,
    /// Trials the host was not in its fast state for.
    pub dropped: usize,
}

impl Tally {
    fn add_trials(&mut self, trials: &[Trial]) {
        for t in trials {
            self.attempted += t.committed + t.failed;
            self.failed += t.failed;
            self.brackets.push(t.after);
        }
        self.dropped += trials.len() - kept_trials(trials).len();
    }
}

// --- The traced epoch ------------------------------------------------------

/// Replay one epoch with the span recorder on every other trial. Sets the
/// `raw.*`, `wire.*_per_top`, `locktable.*` (counter-based), `detector.*`,
/// `engine.*`, `recorder.*` (epoch-based), `client.*`, `trace.*` and
/// `sgt_live.drain_ms` metrics and returns the spans.
fn traced_epoch(
    ctx: &mut RunCtx<'_>,
    v: &mut Values,
    tally: &mut Tally,
) -> Result<Spans, BenchError> {
    let w = ctx.workload;
    let dir = match w.wal {
        true => Some(ctx.fresh_dir("traced")?),
        false => None,
    };
    let cfg = w.server_config(
        dir.as_ref().map(|d| d.display().to_string()),
        DurabilityMode::None,
    );
    let (mut rig, setup) = ctx.setup_epoch(cfg, ctx.block(0))?;
    v.set("raw.setup_s", setup.wall_ns as f64 / 1e9);
    let epoch = Instant::now();
    let mut lanes: Vec<Spans> = (0..w.connections)
        .map(|_| Spans::new(epoch, TOPS_PER_TRIAL * TRACED_EPOCH_TRIALS * 16))
        .collect();
    let engine = rig.handle.engine();
    let c0 = EngineCounters::read(&engine);
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let mut epoch_tally = EpochTally::default();
    let (mut plain_cpu_us, mut plain_frames) = (0u64, 0u64);
    let mut before = setup.after;
    for i in 0..TRACED_EPOCH_TRIALS {
        let tracing = i % 2 == 1;
        let block = ctx.block(1 + i);
        let cpu0 = cpu_time_us();
        let (wall_ns, samples) = rig.run(
            block,
            ctx.load,
            tracing.then_some(&mut lanes[..]),
            (i * TOPS_PER_TRIAL) as u32,
        );
        let cpu = cpu_time_us() - cpu0;
        let after = ctx.take_ref()?;
        let trial = Trial::reduce(before, after, wall_ns, samples);
        before = after;
        epoch_tally.add(&trial);
        if tracing {
            traced.push(trial);
        } else {
            plain_cpu_us += cpu;
            plain_frames += trial.frames;
            plain.push(trial);
        }
    }
    let c1 = EngineCounters::read(&engine);
    tally.add_trials(&traced);
    tally.add_trials(&plain);

    // The drain barrier, then the snapshot, on the epoch's own server.
    let mut conn = Conn::connect(&rig.addr, 0, ConnConfig::from(ctx.load))
        .map_err(|e| format!("connect: {e:?}"))?;
    let start = Instant::now();
    conn.cert().map_err(|e| format!("cert: {e:?}"))?;
    v.set("sgt_live.drain_ms", ms(start));
    drop(conn);
    let start = Instant::now();
    let (_, history) = engine.history_snapshot();
    v.set("recorder.history_snapshot_ms", ms(start));
    let tally = epoch_tally;
    let warm_and_trials = (tally.committed + TOPS_PER_TRIAL as u64) as f64;
    v.set(
        "recorder.actions_per_top",
        history.len() as f64 / warm_and_trials,
    );
    drop(history);
    drop(engine);
    rig.stop();
    if let Some(dir) = dir {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove traced dir: {e}"))?;
    }

    let raw = Raw::of(&kept_or_every(&plain, fast_level_us(&plain)));
    v.set("raw.tops_per_s", raw.tops_per_s);
    v.set("raw.top_us_p50", raw.top_us_p50);
    v.set("raw.top_us_p99", raw.top_us_p99);
    v.set("raw.req_us_p50", raw.req_us_p50);
    let plain_committed: u64 = plain.iter().map(|t| t.committed).sum();
    let per_plain_top = |x: u64| x as f64 / plain_committed.max(1) as f64;
    v.set("raw.cpu_us_per_top", per_plain_top(plain_cpu_us));
    v.set("wire.frames_per_top", per_plain_top(plain_frames));
    let traced_sum = |f: fn(&Trial) -> u64| traced.iter().map(f).sum::<u64>();
    v.set(
        "wire.bytes_per_top",
        traced_sum(|t| t.bytes) as f64 / traced_sum(|t| t.committed).max(1) as f64,
    );
    v.set("trace.overhead_pct", on_cost_pct(&traced, &plain));

    let committed = tally.committed.max(1) as f64;
    let attempts = (tally.committed + tally.failed + tally.aborted_attempts).max(1) as f64;
    v.set("session.tx_per_top", (c1.tx - c0.tx) as f64 / committed);
    v.set(
        "locktable.wait_share",
        (c1.blocks - c0.blocks) as f64 / (c1.grants - c0.grants).max(1) as f64,
    );
    v.set(
        "locktable.timeout_rescues",
        (c1.rescues - c0.rescues) as f64,
    );
    v.set(
        "detector.victims_per_ktop",
        (c1.victims - c0.victims) as f64 * 1000.0 / committed,
    );
    // Passes are counted across trials and brackets alike; so is the clock.
    v.set(
        "detector.passes_per_s",
        (c1.passes - c0.passes) as f64 / epoch.elapsed().as_secs_f64(),
    );
    v.set(
        "engine.abort_share",
        tally.aborted_attempts as f64 / attempts,
    );
    v.set(
        "engine.retry_sleep_us_per_top",
        tally.retry_sleep_us as f64 / committed,
    );

    let mut spans = lanes.remove(0);
    for lane in lanes {
        spans.absorb(lane);
    }
    let totals = totals_by_name(spans.spans());
    let ns = |name: &str, f: fn(&crate::spans::NameTotals) -> u64| totals.get(name).map_or(0, f);
    let client_self = ns("top", |t| t.self_ns)
        + ns("conn.send", |t| t.total_ns)
        + ns("conn.send_batch", |t| t.total_ns);
    let traced_frames: u64 = traced.iter().map(|t| t.frames).sum();
    v.set(
        "client.self_us_per_req",
        client_self as f64 / 1e3 / traced_frames.max(1) as f64,
    );
    Ok(spans)
}

// --- Paired on/off legs ----------------------------------------------------

/// What the telemetry-on leg's sampler saw.
#[derive(Default)]
struct GaugeMax {
    nodes: u64,
    edges: u64,
    lag: u64,
}

/// Two servers alive at once, trials alternating A B B A, so both legs see
/// the same host. Stops leg A and returns how much dearer a top was on B,
/// B's trials and B's server, still up for the caller to read.
fn paired(
    ctx: &mut RunCtx<'_>,
    tally: &mut Tally,
    a: &Leg,
    b: &Leg,
    mut during_b: impl FnMut(&Rig),
) -> Result<(f64, Vec<Trial>, Rig), BenchError> {
    let (mut rig_a, _) = ctx.setup_epoch(a.cfg.clone(), ctx.block(0))?;
    let (mut rig_b, setup_b) = ctx.setup_epoch(b.cfg.clone(), ctx.block(0))?;
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    let mut before = setup_b.after;
    for i in 0..2 * PAIR_TRIALS {
        let on_b = matches!(i % 4, 1 | 2);
        let block = ctx.block(1 + i / 2);
        let (wall_ns, samples) = if on_b {
            let out = rig_b.run(block, ctx.load, None, 0);
            during_b(&rig_b);
            out
        } else {
            rig_a.run(block, ctx.load, None, 0)
        };
        let after = ctx.take_ref()?;
        let trial = Trial::reduce(before, after, wall_ns, samples);
        before = after;
        if on_b {
            tb.push(trial);
        } else {
            ta.push(trial);
        }
    }
    tally.add_trials(&ta);
    tally.add_trials(&tb);
    rig_a.stop();
    a.remove_dir()?;
    Ok((on_cost_pct(&tb, &ta), tb, rig_b))
}

fn gauge(gauges: &[(&'static str, u64)], name: &str) -> u64 {
    gauges
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| *v)
}

/// What the logged leg of the WAL pair left behind, measured from outside.
struct Logged {
    records_per_top: f64,
    wal_bytes_per_top: f64,
    wal_syncs_per_top: f64,
}

/// One leg of a pair: the workload's own server configuration with one
/// layer switched, and the data directory it logs to, if any.
struct Leg {
    cfg: ServerConfig,
    dir: Option<std::path::PathBuf>,
}

impl Leg {
    /// The workload's own configuration (`wal` overrides whether a WAL is
    /// mounted), then `switch` applied.
    fn new(
        ctx: &RunCtx<'_>,
        tag: &str,
        wal: bool,
        switch: impl FnOnce(&mut ServerConfig),
    ) -> Result<Leg, BenchError> {
        let dir = match wal {
            true => Some(ctx.fresh_dir(tag)?),
            false => None,
        };
        let mut cfg = ctx.workload.server_config(
            dir.as_ref().map(|d| d.display().to_string()),
            DurabilityMode::None,
        );
        switch(&mut cfg);
        Ok(Leg { cfg, dir })
    }

    fn remove_dir(&self) -> Result<(), BenchError> {
        match &self.dir {
            Some(dir) => std::fs::remove_dir_all(dir).map_err(|e| format!("remove pair dir: {e}")),
            None => Ok(()),
        }
    }
}

/// The three on/off pairs on this workload's own traffic: live certifier,
/// telemetry, WAL. Each pair differs in that one switch only.
fn pairs(ctx: &mut RunCtx<'_>, v: &mut Values, tally: &mut Tally) -> Result<Logged, BenchError> {
    let w = ctx.workload;

    // Live certifier: off vs on.
    let off = Leg::new(ctx, "pair-a", w.wal, |c| c.live_certify = false)?;
    let on = Leg::new(ctx, "pair-b", w.wal, |c| c.live_certify = true)?;
    let (pct, _, rb) = paired(ctx, tally, &off, &on, |_| ())?;
    v.set("sgt_live.on_cost_pct", pct);
    rb.stop();
    on.remove_dir()?;

    // Telemetry: off vs on. The on leg also carries the certifier's gauges
    // and the lock-wait histogram.
    let off = Leg::new(ctx, "pair-a", w.wal, |c| c.telemetry = false)?;
    let on = Leg::new(ctx, "pair-b", w.wal, |c| c.telemetry = true)?;
    let mut seen = GaugeMax::default();
    let (pct, tb, rb) = paired(ctx, tally, &off, &on, |rig| {
        // Sampled at trial ends: the certifier is then as far behind as the
        // trial left it.
        let probe = rig.handle.probe();
        let gauges = probe.telemetry().gauges();
        seen.nodes = seen.nodes.max(gauge(&gauges, "sgt.live.nodes"));
        seen.edges = seen.edges.max(gauge(&gauges, "sgt.live.edges"));
        if w.live_certify {
            let clock = rig.handle.engine().clock_now();
            seen.lag = seen
                .lag
                .max(clock.saturating_sub(gauge(&gauges, "sgt.live.watermark")));
        }
    })?;
    v.set("telemetry.on_cost_pct", pct);
    v.set("sgt_live.resident_nodes_max", seen.nodes as f64);
    v.set("sgt_live.resident_edges_max", seen.edges as f64);
    v.set("sgt_live.lag_actions_max", seen.lag as f64);
    let blocked_us = Json::parse(&rb.handle.probe().telemetry().to_json())
        .ok()
        .and_then(|doc| {
            let h = doc.get("lock_blocked")?;
            Some(h.get("count")?.as_num()? * h.get("mean_us")?.as_num()?)
        })
        .unwrap_or(0.0);
    let on_tops: u64 = tb.iter().map(|t| t.committed).sum::<u64>() + TOPS_PER_TRIAL as u64;
    v.set(
        "locktable.wait_us_per_top",
        blocked_us / on_tops.max(1) as f64,
    );
    rb.stop();
    on.remove_dir()?;

    // WAL: off vs on (append, never wait).
    let off = Leg::new(ctx, "pair-a", false, |_| ())?;
    let on = Leg::new(ctx, "pair-logged", true, |_| ())?;
    let log_dir = on.dir.clone().expect("the logged leg has a directory");
    let (pct, tb, rb) = paired(ctx, tally, &off, &on, |_| ())?;
    v.set("store.on_cost_pct", pct);
    let logged_tops = (tb.iter().map(|t| t.committed).sum::<u64>() + TOPS_PER_TRIAL as u64) as f64;
    let (appended, syncs) = wal_counters(&rb.handle.probe().stats_json())
        .ok_or("stats document carries no WAL counters")?;
    let wal_bytes = std::fs::metadata(log_dir.join(WAL_FILE))
        .map_err(|e| format!("stat WAL: {e}"))?
        .len();
    rb.stop();
    on.remove_dir()?;

    // The append path alone, on a fresh log.
    let dir = ctx.fresh_dir("append")?;
    let (store, _) =
        Store::open(&dir, DurabilityMode::None).map_err(|e| format!("open append probe: {e:?}"))?;
    let wal = store.wal();
    let rec = Record::Cache {
        seq: 1,
        resp: vec![0u8; 24],
    };
    const APPENDS: usize = 20_000;
    let start = Instant::now();
    for _ in 0..APPENDS {
        wal.append(&rec);
    }
    v.set(
        "store.append_ns_per_record",
        us(start) * 1e3 / APPENDS as f64,
    );
    let mut flushes: Vec<u64> = (0..25)
        .map(|_| {
            wal.append(&rec);
            let start = Instant::now();
            wal.flush_durable();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    flushes.sort_unstable();
    v.set(
        "store.flush_durable_us_p50",
        percentile_sorted(&flushes, 0.5) as f64 / 1e3,
    );
    store.close();
    drop(store);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove append dir: {e}"))?;
    Ok(Logged {
        records_per_top: appended as f64 / logged_tops,
        wal_bytes_per_top: wal_bytes as f64 / logged_tops,
        wal_syncs_per_top: syncs as f64 / logged_tops,
    })
}

/// Recovery from outside: log one block of this workload's tops, drain,
/// then time `Store::open` (recovery + Theorem 17 gate), `Store::checkpoint`
/// and `nt_store::analyze` on the directory. Returns the `Store::open`
/// wall in seconds. One block keeps the post-hoc certification, whose cost
/// grows faster than the history, within the run's time.
fn recover_probe(ctx: &mut RunCtx<'_>, v: &mut Values) -> Result<f64, BenchError> {
    let leg = Leg::new(ctx, "recover", true, |_| ())?;
    let dir = leg.dir.clone().expect("the recover probe logs");
    let mut rig = Rig::start(leg.cfg.clone(), ctx.workload.connections, ctx.load)?;
    let (_, samples) = rig.run(ctx.block(0), ctx.load, None, 0);
    rig.stop();
    if samples.failed > 0 {
        return Err(format!("{} recover-probe tops failed", samples.failed));
    }
    let start = Instant::now();
    let (store, recovered) =
        Store::open(&dir, DurabilityMode::None).map_err(|e| format!("reopen: {e:?}"))?;
    let recover_s = start.elapsed().as_secs_f64();
    let records = (recovered.report.ckpt_records + recovered.report.wal_records).max(1);
    let start = Instant::now();
    store
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e:?}"))?;
    v.set("store.checkpoint_ms", ms(start));
    store.close();
    drop(store);
    let start = Instant::now();
    nt_store::analyze(&dir).map_err(|e| format!("analyze: {e:?}"))?;
    v.set(
        "store.analyze_ms_per_krecord",
        ms(start) * 1000.0 / records as f64,
    );
    leg.remove_dir()?;
    Ok(recover_s)
}

// --- Wire codec ------------------------------------------------------------

/// The request frames one clean run of `templates` sends, with the replies
/// a clean run gets: stand-alone `(request, response)` pairs, and `BATCH`
/// groups when the workload batches.
struct Frames {
    singles: Vec<(Request, Response)>,
    batches: Vec<Vec<(u64, Request)>>,
}

fn frames_of(templates: &[Template], batch: usize) -> Frames {
    fn walk(nodes: &[Node], parent: u32, next_tx: &mut u32, batch: usize, out: &mut Frames) {
        let mut i = 0;
        while i < nodes.len() {
            match &nodes[i] {
                Node::Access(..) => {
                    let run: Vec<(u64, Request)> = nodes[i..]
                        .iter()
                        .map_while(|n| match n {
                            Node::Access(obj, op) => Some(Request::Access {
                                parent,
                                obj: *obj,
                                op: op.clone(),
                            }),
                            Node::Sub(_) => None,
                        })
                        .enumerate()
                        .map(|(k, r)| (k as u64, r))
                        .collect();
                    i += run.len();
                    *next_tx += run.len() as u32;
                    if batch > 1 {
                        out.batches.extend(run.chunks(batch).map(<[_]>::to_vec));
                    } else {
                        out.singles.extend(run.into_iter().map(|(_, r)| {
                            let value = match &r {
                                Request::Access { op: Op::Read, .. } => Value::Int(0),
                                _ => Value::Ok,
                            };
                            (r, Response::AccessOk { value })
                        }));
                    }
                }
                Node::Sub(kids) => {
                    i += 1;
                    *next_tx += 1;
                    let tx = *next_tx;
                    out.singles
                        .push((Request::BeginChild { parent }, Response::Begun { tx }));
                    walk(kids, tx, next_tx, batch, out);
                    out.singles
                        .push((Request::Commit { tx }, Response::Committed));
                }
            }
        }
    }
    let mut out = Frames {
        singles: Vec::new(),
        batches: Vec::new(),
    };
    let mut next_tx = 0;
    for t in templates {
        next_tx += 1;
        let tx = next_tx;
        out.singles
            .push((Request::BeginTop, Response::Begun { tx }));
        walk(&t.0, tx, &mut next_tx, batch, &mut out);
        out.singles
            .push((Request::Commit { tx }, Response::Committed));
    }
    out
}

/// Time the codec over the workload's own frames. Sets `wire.encode_*`,
/// `wire.decode_*` and `budget.wire_us`; adds codec spans to `spans`.
fn codec_probe(ctx: &RunCtx<'_>, v: &mut Values, spans: &mut Spans) -> Result<(), BenchError> {
    let frames = frames_of(ctx.block(0), ctx.load.batch);
    let wire = |e| format!("codec: {e:?}");
    const REPS: usize = 20;
    let count = (frames.singles.len() + frames.batches.len()) * REPS;
    let start = Instant::now();
    for _ in 0..REPS {
        for (seq, (req, _)) in frames.singles.iter().enumerate() {
            black_box(encode_request(seq as u64, req).map_err(wire)?);
        }
        for (seq, ops) in frames.batches.iter().enumerate() {
            black_box(encode_batch_request(seq as u64, ops).map_err(wire)?);
        }
    }
    v.set("wire.encode_ns_per_frame", us(start) * 1e3 / count as f64);
    let singles: Vec<Vec<u8>> = frames
        .singles
        .iter()
        .map(|(req, _)| encode_request(7, req))
        .collect::<Result<_, _>>()
        .map_err(wire)?;
    let batches: Vec<Vec<u8>> = frames
        .batches
        .iter()
        .map(|ops| encode_batch_request(7, ops))
        .collect::<Result<_, _>>()
        .map_err(wire)?;
    let start = Instant::now();
    for _ in 0..REPS {
        for f in &singles {
            black_box(parse_request(&f[4..]).map_err(wire)?);
        }
        for f in &batches {
            let (_, _, body) = parse_frame(&f[4..]).map_err(wire)?;
            black_box(decode_batch_request(body).map_err(wire)?);
        }
    }
    v.set("wire.decode_ns_per_frame", us(start) * 1e3 / count as f64);

    // The budget's wire row: all four codec calls of a stand-alone frame.
    let replies: Vec<Vec<u8>> = frames
        .singles
        .iter()
        .map(|(_, resp)| encode_response(7, resp))
        .collect::<Result<_, _>>()
        .map_err(wire)?;
    let start = Instant::now();
    for _ in 0..REPS {
        for ((req, resp), (f, r)) in frames.singles.iter().zip(singles.iter().zip(&replies)) {
            black_box(encode_request(7, req).map_err(wire)?);
            black_box(parse_request(&f[4..]).map_err(wire)?);
            black_box(encode_response(7, resp).map_err(wire)?);
            black_box(parse_response(&r[4..]).map_err(wire)?);
        }
    }
    v.set(
        "budget.wire_us",
        us(start) / (frames.singles.len() * REPS).max(1) as f64,
    );

    let root = spans.open("codec.pass");
    for ((req, _), f) in frames.singles.iter().zip(&singles).take(1000) {
        spans.time("wire.encode_request", || {
            black_box(encode_request(7, req)).is_ok()
        });
        spans.time("wire.parse_request", || {
            black_box(parse_request(&f[4..])).is_ok()
        });
    }
    for (ops, f) in frames.batches.iter().zip(&batches).take(1000) {
        spans.time("wire.encode_batch_request", || {
            black_box(encode_batch_request(7, ops)).is_ok()
        });
        spans.time("wire.decode_batch_request", || {
            parse_frame(&f[4..])
                .is_ok_and(|(_, _, body)| black_box(decode_batch_request(body)).is_ok())
        });
    }
    spans.close(root);
    Ok(())
}

// --- Reactor and server round trips ---------------------------------------

struct EchoService(ReplySink);

impl Service for EchoService {
    fn frame(&mut self, frame: Vec<u8>, _enqueued: Instant) {
        let mut reply = (frame.len() as u32).to_le_bytes().to_vec();
        reply.extend_from_slice(&frame);
        self.0.send(reply, 1);
    }
}

struct EchoFactory;

impl ServiceFactory for EchoFactory {
    fn open(&self, _conn: u64, sink: ReplySink) -> Box<dyn Service> {
        Box::new(EchoService(sink))
    }
}

/// Mean round trip of a 32-byte frame through a bare `nt_reactor` with an
/// echo service, µs.
fn reactor_echo_us() -> Result<f64, BenchError> {
    let io = |e: std::io::Error| format!("reactor probe: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let drainer = Drainer::new();
    let handle = nt_reactor::spawn(
        listener,
        ReactorConfig::default(),
        Arc::new(EchoFactory),
        drainer.clone(),
    )
    .map_err(io)?;
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut out = 32u32.to_le_bytes().to_vec();
    out.extend_from_slice(&[0x5a; 32]);
    let mut back = [0u8; 36];
    let mut round = |n: usize| -> Result<(), BenchError> {
        for _ in 0..n {
            stream.write_all(&out).map_err(io)?;
            stream.read_exact(&mut back).map_err(io)?;
        }
        Ok(())
    };
    round(200)?;
    let start = Instant::now();
    round(PING_ROUNDS)?;
    let rtt = us(start) / PING_ROUNDS as f64;
    drop(stream);
    drainer.drain();
    handle.join();
    Ok(rtt)
}

/// Ping through a full default server: `(round trip µs, context switches
/// per round trip)`.
fn server_ping(ctx: &RunCtx<'_>) -> Result<(f64, f64), BenchError> {
    let cfg = ctx.workload.server_config(None, DurabilityMode::None);
    let mut rig = Rig::start(
        ServerConfig {
            data_dir: None,
            ..cfg
        },
        1,
        ctx.load,
    )?;
    let conn = &mut rig.conns[0];
    let mut round = |n: usize| -> Result<(), BenchError> {
        for _ in 0..n {
            match conn.request(&Request::Ping) {
                Ok(Response::Pong) => {}
                other => return Err(format!("ping: {other:?}")),
            }
        }
        Ok(())
    };
    round(200)?;
    let switches = ctx_switches();
    let start = Instant::now();
    round(PING_ROUNDS)?;
    let rtt = us(start) / PING_ROUNDS as f64;
    let switches = (ctx_switches() - switches) as f64 / PING_ROUNDS as f64;
    rig.stop();
    Ok((rtt, switches))
}

// --- In-process session ----------------------------------------------------

/// Time `f` as a span when a recorder is given.
fn spanned<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans.as_deref_mut() {
        Some(sp) => sp.time(name, f),
        None => f(),
    }
}

fn inproc_children(
    s: &mut Session,
    parent: TxId,
    nodes: &[Node],
    spans: &mut Option<&mut Spans>,
) -> Result<(), BenchError> {
    let bad = |e| format!("in-process session: {e:?}");
    for n in nodes {
        match n {
            Node::Access(obj, op) => {
                let out = spanned(spans, "session.access", || {
                    s.access(parent, ObjId(*obj), op.clone())
                });
                if !matches!(out.map_err(bad)?, AccessOutcome::Done(_)) {
                    return Err("in-process access aborted with one session".into());
                }
            }
            Node::Sub(kids) => {
                let out = spanned(spans, "session.begin_child", || s.begin_child(parent));
                let BeginOutcome::Fresh(child) = out.map_err(bad)? else {
                    return Err("in-process begin_child aborted with one session".into());
                };
                inproc_children(s, child, kids, spans)?;
                let out = spanned(spans, "session.commit", || s.commit(child));
                if out.map_err(bad)? != CommitOutcome::Committed {
                    return Err("in-process commit aborted with one session".into());
                }
            }
        }
    }
    Ok(())
}

fn inproc_tops(
    s: &mut Session,
    templates: &[Template],
    mut spans: Option<&mut Spans>,
) -> Result<(), BenchError> {
    let bad = |e| format!("in-process session: {e:?}");
    for (k, t) in templates.iter().enumerate() {
        let root = spans.as_deref_mut().map(|sp| {
            sp.set_trace(k as u32);
            sp.open("inproc.top")
        });
        let top = spanned(&mut spans, "session.begin_top", || s.begin_top()).map_err(bad)?;
        inproc_children(s, top, &t.0, &mut spans)?;
        let out = spanned(&mut spans, "session.commit", || s.commit(top)).map_err(bad)?;
        if let (Some(sp), Some(root)) = (spans.as_deref_mut(), root) {
            sp.close(root);
        }
        if out != CommitOutcome::Committed {
            return Err("in-process top aborted with one session".into());
        }
    }
    Ok(())
}

/// The same templates through the session engine, no sockets: µs per top.
fn inproc_probe(ctx: &RunCtx<'_>, spans: &mut Spans) -> Result<f64, BenchError> {
    let engine = SessionEngine::start(
        crate::workloads::SERVER_CAPACITY,
        ServerConfig::default().shards,
        Duration::from_micros(ServerConfig::default().detector_period_us),
    );
    let mut session = engine.open_session();
    let templates: Vec<Template> = (0..INPROC_TOPS.div_ceil(TOPS_PER_TRIAL))
        .flat_map(|k| ctx.block(k).to_vec())
        .collect();
    inproc_tops(&mut session, &templates[..200.min(templates.len())], None)?;
    let start = Instant::now();
    inproc_tops(&mut session, &templates, None)?;
    let per_top = us(start) / templates.len().max(1) as f64;
    inproc_tops(
        &mut session,
        &templates[..500.min(templates.len())],
        Some(spans),
    )?;
    drop(session);
    engine.shutdown();
    Ok(per_top)
}

// --- Lock table, recorder, certifiers --------------------------------------

/// Uncontended `acquire` and `release_inherit`, ns each.
fn locktable_probe() -> (f64, f64) {
    const TOPS: usize = 2000;
    const PER_TOP: usize = 8;
    let mut tree = TxTree::new();
    tree.add_objects(TOPS * PER_TOP);
    let mut accesses = Vec::with_capacity(TOPS * PER_TOP);
    for top in 0..TOPS {
        let t = tree.add_inner(TxId::ROOT);
        for k in 0..PER_TOP {
            let x = ObjId((top * PER_TOP + k) as u32);
            let op = if k % 2 == 0 {
                Op::Read
            } else {
                Op::Write(k as i64)
            };
            accesses.push((tree.add_access(t, x, op.clone()), x, op));
        }
    }
    let status = Arc::new(StatusTable::new(tree.len()));
    let table = LockTable::new(
        Arc::new(tree),
        status,
        Arc::new(SeqClock::new()),
        RwInitials::uniform(0),
        ServerConfig::default().shards,
    );
    let start = Instant::now();
    for (t, x, op) in &accesses {
        black_box(table.acquire(*t, *x, op));
    }
    let acquire = us(start) * 1e3 / accesses.len() as f64;
    let start = Instant::now();
    for (t, x, _) in &accesses {
        table.release_inherit(*t, [*x]);
    }
    let release = us(start) * 1e3 / accesses.len() as f64;
    (acquire, release)
}

/// `WorkerLog::record` with neither sink nor feed, ns per action.
fn recorder_probe() -> f64 {
    const ACTIONS: u32 = 200_000;
    let clock = SeqClock::new();
    let mut log = WorkerLog::new();
    let start = Instant::now();
    for k in 0..ACTIONS {
        log.record(&clock, Action::Create(TxId(k)));
    }
    black_box(log.len());
    us(start) * 1e3 / f64::from(ACTIONS)
}

/// The live maintainer and the post-hoc certifier over the verify pass's
/// history. Sets `sgt_live.apply_*`, `sgt_live.edges_*`, `sgt.posthoc_*`.
fn certifier_probe(verified: &Verified, v: &mut Values, spans: &mut Spans) {
    let (tree, actions) = &verified.history;
    let accesses = tree.accesses().count().max(1) as f64;
    let n = actions.len().max(1) as f64;
    let mut reps = 0;
    let start = Instant::now();
    while reps < 3 || start.elapsed() < Duration::from_millis(100) {
        black_box(SgtMaintainer::replay(tree, actions, SgtConfig::default()).ok());
        reps += 1;
    }
    v.set(
        "sgt_live.apply_ns_per_action",
        us(start) * 1e3 / (n * f64::from(reps)),
    );
    let full = SgtMaintainer::replay(
        tree,
        actions,
        SgtConfig {
            gc: false,
            ..SgtConfig::default()
        },
    );
    v.set(
        "sgt_live.edges_per_access",
        full.edge_count() as f64 / accesses,
    );
    // One more certification, timed alone: the verify pass's own run had
    // the history's fetch and decode still warm in cache.
    let start = Instant::now();
    let cert = certify_history(tree, actions);
    let posthoc_ms = ms(start).min(verified.posthoc_ms);
    v.set("sgt.posthoc_ms_per_kaction", posthoc_ms * 1000.0 / n);
    v.set(
        "sgt.posthoc_edges_per_access",
        cert.sg_edges.max(verified.sg_edges) as f64 / accesses,
    );

    let mut m = SgtMaintainer::new(SgtConfig::default());
    m.seed_tree(tree);
    let root = spans.open("sgt_live.pass");
    for (i, a) in actions.iter().enumerate().take(4000) {
        let id = spans.open("sgt_live.apply");
        m.apply(i as u64, a.clone());
        spans.close(id);
    }
    spans.close(root);
}

// --- The whole traced run --------------------------------------------------

/// Run every layer probe for `ctx.workload`, set every per-layer metric,
/// write the spans file. `barrier` is the barrier pass's result on the WAL
/// workload.
pub fn run(
    ctx: &mut RunCtx<'_>,
    verified: &Verified,
    barrier: Option<&Barrier>,
    spans_path: &std::path::Path,
) -> Result<(Values, Tally), BenchError> {
    let mut v = Values::default();
    let mut tops = Tally::default();
    let start_ref = ctx.take_ref()?;
    let start_cpu_us = cpu_kernel_us();

    let mut spans = traced_epoch(ctx, &mut v, &mut tops)?;
    let logged = pairs(ctx, &mut v, &mut tops)?;
    codec_probe(ctx, &mut v, &mut spans)?;

    // Round trips, each beside its own reading of the host's echo.
    let echo_before = ctx.take_ref()?;
    let reactor_us = reactor_echo_us()?;
    let (ping_us, switches) = server_ping(ctx)?;
    let echo_us = (echo_before + ctx.take_ref()?) / 2.0;
    v.set("reactor.echo_x", reactor_us / echo_us);
    v.set("server.ping_x", ping_us / echo_us);
    v.set("server.handoff_x", (ping_us - reactor_us) / echo_us);
    v.set("server.ctx_switches_per_req", switches);

    let inproc_us = inproc_probe(ctx, &mut spans)?;
    v.set("session.inproc_us_per_top", inproc_us);
    let frames_per_top = v.get("wire.frames_per_top").unwrap_or(1.0).max(1e-9);
    let loopback_us_per_top = 1e6 / v.get("raw.tops_per_s").unwrap_or(f64::NAN);
    v.set(
        "net.loopback_delta_us_per_req",
        (loopback_us_per_top - inproc_us) / frames_per_top,
    );

    let (acquire_ns, release_ns) = locktable_probe();
    v.set("locktable.acquire_ns", acquire_ns);
    v.set("locktable.release_inherit_ns", release_ns);
    v.set("recorder.record_ns_per_action", recorder_probe());
    certifier_probe(verified, &mut v, &mut spans);

    // The ladder: rows that should add up to one stand-alone round trip.
    let wire_us = v.get("budget.wire_us").unwrap_or(0.0);
    let session_us = inproc_us / frames_per_top;
    v.set("budget.reactor_us", reactor_us);
    v.set("budget.handoff_us", ping_us - reactor_us);
    v.set("budget.session_us", session_us);
    let sum = wire_us + reactor_us + (ping_us - reactor_us) + session_us;
    v.set("budget.sum_us", sum);
    v.set(
        "budget.coverage",
        sum / v.get("raw.req_us_p50").unwrap_or(f64::NAN),
    );

    // The store rows: the barrier pass on the WAL workload, the logged leg
    // elsewhere.
    let end_ref = ctx.take_ref()?;
    let cpu_us = (start_cpu_us + cpu_kernel_us()) / 2.0;
    let probe_recover_s = recover_probe(ctx, &mut v)?;
    let (records, bytes, syncs, recover_s) = match barrier {
        Some(b) => (
            b.records_per_top,
            b.wal_bytes_per_top,
            b.wal_syncs_per_top,
            b.recover_s,
        ),
        None => (
            logged.records_per_top,
            logged.wal_bytes_per_top,
            logged.wal_syncs_per_top,
            probe_recover_s,
        ),
    };
    v.set("store.records_per_top", records);
    v.set("store.wal_bytes_per_top", bytes);
    v.set("store.wal_syncs_per_top", syncs);
    v.set("raw.recover_s", recover_s);
    v.set("store.recover_x", recover_s * 1e6 / cpu_us);
    v.set(
        "host.fsync_us",
        fsync_us(ctx.out_dir, 20).map_err(|e| format!("fsync probe: {e}"))?,
    );

    tops.brackets.extend([start_ref, end_ref]);
    let brackets = std::mem::take(&mut tops.brackets);
    v.set("host.echo_us", median(&brackets));
    v.set("host.cpu_us", cpu_us);
    v.set(
        "host.ref_spread_pct",
        100.0 * crate::stats::iqr_share(&brackets),
    );
    v.set("host.trials_dropped", tops.dropped as f64);

    std::fs::create_dir_all(ctx.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    spans
        .write_jsonl(spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    Ok((v, tops))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_of_counts_one_frame_per_round_trip() {
        let t = Template(vec![
            Node::Access(1, Op::Read),
            Node::Access(2, Op::Write(5)),
            Node::Sub(vec![Node::Access(3, Op::Read)]),
            Node::Access(4, Op::Read),
        ]);
        let unbatched = frames_of(std::slice::from_ref(&t), 1);
        // begin, 2 accesses, begin child, access, commit child, access, commit
        assert_eq!(unbatched.singles.len(), 8);
        assert!(unbatched.batches.is_empty());
        let batched = frames_of(std::slice::from_ref(&t), 16);
        assert_eq!(batched.singles.len(), 4);
        assert_eq!(
            batched.batches.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![2, 1, 1]
        );
    }

    #[test]
    fn small_probes_give_positive_numbers() {
        let (a, r) = locktable_probe();
        assert!(a > 0.0 && r > 0.0);
        assert!(recorder_probe() > 0.0);
        assert!(reactor_echo_us().unwrap() > 0.0);
    }
}
