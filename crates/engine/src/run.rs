//! The engine proper: a pool of OS-thread workers executing a workload's
//! script plans under the sharded lock table, with a detector thread on the
//! side and a post-hoc certification hook.
//!
//! ## Execution model
//!
//! Workers claim top-level slots from a shared counter and execute each
//! claimed subtree *depth-first* on one thread — a legal interleaving for
//! both `Parallel` and `Sequential` child orders (transaction
//! well-formedness never requires intra-transaction concurrency).
//! Concurrency happens between top-level transactions, which is where the
//! paper's serializability questions live.
//!
//! Every serial action a frame performs is stamped into the worker's
//! private log; object-level actions (`REQUEST_COMMIT` answers,
//! `INFORM_*`) are stamped by the lock table while the owning shard mutex
//! is held. Merging all logs by stamp therefore yields a history that
//! refines both per-worker program order and each object's actual
//! serialization — the history the run *really* performed, which
//! [`EngineReport::certify`] then proves serially correct (or not) via
//! `nt_sgt::certify_recorded`.
//!
//! ## Doom and unwinding
//!
//! The detector (or watchdog) dooms a victim through the status table; the
//! victim's worker notices at its next blocked acquire, frame entry, or
//! commit attempt, unwinds its call stack to the victim's frame
//! ([`TxResult::Doomed`] carries the target), aborts exactly that subtree
//! (one `ABORT`, one `INFORM_ABORT` per touched object, one
//! `REPORT_ABORT`), and — when the config enables backoff — re-runs the
//! slot with the workload's next pre-materialized replica after a real
//! wall-clock backoff sleep.

use crate::config::EngineConfig;
pub use crate::detector::Victim;
use crate::detector::{detect_loop, DetectorOutcome};
use crate::locktable::{Acquired, LockTable};
use crate::recorder::{merge, SeqClock, WorkerLog};
use crate::status::StatusTable;
use nt_faults::{RetryLedger, RetryOutcome, RetryRecord};
use nt_model::rw::RwInitials;
use nt_model::{Action, ObjId, TxId, TxTree, Value};
use nt_obs::{Event, TraceHandle};
use nt_serial::ObjectTypes;
use nt_sgt::{certify_recorded, ConflictSource, RecordedCertificate};
use nt_sgt_live::{LiveCertifier, LiveStatus, SgtConfig};
use nt_sim::{ScriptPlan, Workload};
use nt_telemetry::{HistSnapshot, TelemetryHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything the engine needs to execute a workload, decoupled from the
/// simulator's automata: the naming tree, per-transaction scripts, retry
/// chains, initial values, and serial types (for certification).
pub struct EnginePlan {
    /// The frozen naming tree.
    pub tree: Arc<TxTree>,
    /// Script plan per non-access transaction (including replicas).
    pub plans: BTreeMap<TxId, ScriptPlan>,
    /// Top-level transactions, in slot order.
    pub top: Vec<TxId>,
    /// Replica chains per slot parent (see `Workload::retry_chains`).
    pub retry_chains: BTreeMap<TxId, Vec<Vec<TxId>>>,
    /// Initial object values.
    pub initials: RwInitials,
    /// Serial types (certification).
    pub types: ObjectTypes,
}

impl EnginePlan {
    /// Extract the plan of a generated workload.
    pub fn from_workload(w: &Workload) -> Self {
        EnginePlan {
            tree: Arc::clone(&w.tree),
            plans: w.script_plans(),
            top: w.top.clone(),
            retry_chains: w.retry_chains.clone(),
            initials: w.initials.clone(),
            types: w.types.clone(),
        }
    }

    /// Structural validation: every inner transaction has a plan, every
    /// access is a read/write-register operation (the lock table implements
    /// Moss' read/write rules; other data types belong to the simulator's
    /// commutativity-based protocols).
    fn validate(&self) -> Result<(), String> {
        for t in self.tree.all_tx() {
            if t == TxId::ROOT {
                continue;
            }
            if self.tree.is_access(t) {
                let op = self.tree.op_of(t).expect("access carries an op");
                if !op.is_rw_read() && !op.is_rw_write() {
                    return Err(format!(
                        "access {t} uses non-read/write op {op:?}; the engine's \
                         Moss lock table only supports read/write registers"
                    ));
                }
            } else if !self.plans.contains_key(&t) {
                return Err(format!("inner transaction {t} has no script plan"));
            }
        }
        Ok(())
    }
}

/// Lock-table counters of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Lock grants.
    pub granted: u64,
    /// Acquisitions that parked at least once.
    pub blocked: u64,
    /// Grants that landed only after a timed-out condvar wait (see
    /// [`LockTable::timeout_rescues`]).
    pub timeout_rescues: u64,
    /// Deadlock-detector scan passes.
    pub detector_passes: u64,
}

/// The outcome of one threaded run.
pub struct EngineReport {
    /// The tree the run executed (for certification).
    pub tree: Arc<TxTree>,
    /// Serial types (for certification).
    pub types: ObjectTypes,
    /// The merged recorded history, in stamp order.
    pub history: Vec<Action>,
    /// Top-level slots where some attempt committed.
    pub committed_top: usize,
    /// Top-level slots that failed (every attempt aborted).
    pub aborted_top: usize,
    /// Deadlock victims, in doom order.
    pub victims: Vec<Victim>,
    /// Per-slot retry ledger (only slots that carry replica chains).
    pub ledger: RetryLedger,
    /// Did the wall-clock watchdog abandon the run?
    pub gave_up: bool,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Lock-table and detector counters.
    pub stats: EngineStats,
    /// Per-top-level-slot latency (claim to resolution, including retry
    /// backoff), microseconds — merged across workers for p50/p95/p99.
    pub top_latency: HistSnapshot,
    /// Final status of the live serialization-graph certifier, when
    /// `cfg.live_certify` stepped one along with the run (`None` otherwise).
    /// `live.ok == false` means the maintainer caught a cycle *during*
    /// the run, with the inserting edge in `live.violation`.
    pub live: Option<LiveStatus>,
}

impl EngineReport {
    /// Certify the recorded history against Theorem 17 post-hoc: simple-
    /// behavior constraints, appropriate return values, acyclic `SG`, and
    /// a validated witness.
    pub fn certify(&self) -> RecordedCertificate {
        certify_recorded(
            &self.tree,
            &self.history,
            &self.types,
            ConflictSource::ReadWrite,
        )
    }

    /// Journal the run through an observability sink: `run_start`, one
    /// `deadlock_victim` per doomed transaction, `run_end`.
    pub fn journal(&self, trace: &TraceHandle, seed: u64) {
        if !trace.enabled() {
            return;
        }
        trace.record(Event::RunStart {
            protocol: "engine-moss",
            seed,
        });
        for v in &self.victims {
            trace.record(Event::DeadlockVictim {
                victim: v.victim.0,
                waiter: v.waiter.0,
                blocker: v.blocker.0,
            });
        }
        trace.record(Event::RunEnd {
            steps: self.history.len() as u64,
            rounds: self.stats.detector_passes,
            quiescent: !self.gave_up,
        });
    }
}

/// A fresh log, stepping `certifier` when the run has one.
fn new_log(certifier: &Option<LiveCertifier>) -> WorkerLog {
    match certifier {
        Some(c) => WorkerLog::new().with_certifier(c.clone()),
        None => WorkerLog::new(),
    }
}

/// How one frame of the depth-first execution resolved.
enum TxResult {
    Committed,
    Aborted,
    /// A *proper ancestor* of this frame was doomed: unwind (recording
    /// nothing) until the ancestor's own frame aborts it.
    Doomed(TxId),
}

/// How one child slot (original + optional replica attempts) resolved.
enum SlotResult {
    Committed,
    Failed,
    Doomed(TxId),
}

/// Shared per-run context.
struct Ctx<'a> {
    plan: &'a EnginePlan,
    cfg: &'a EngineConfig,
    table: &'a LockTable,
    status: &'a StatusTable,
    clock: &'a SeqClock,
    next_slot: &'a AtomicUsize,
    certifier: Option<LiveCertifier>,
}

/// One worker thread's state.
struct Worker<'a> {
    ctx: &'a Ctx<'a>,
    log: WorkerLog,
    /// Objects whose locks each live transaction currently holds (from this
    /// worker's subtrees). Inherited upward on commit, discarded on abort.
    held: BTreeMap<TxId, BTreeSet<ObjId>>,
    records: Vec<RetryRecord>,
    committed_top: usize,
    aborted_top: usize,
    top_lat: HistSnapshot,
}

impl<'a> Worker<'a> {
    fn new(ctx: &'a Ctx<'a>) -> Self {
        let log = new_log(&ctx.certifier);
        Worker {
            ctx,
            log,
            held: BTreeMap::new(),
            records: Vec::new(),
            committed_top: 0,
            aborted_top: 0,
            top_lat: HistSnapshot::new(),
        }
    }

    fn tree(&self) -> &TxTree {
        &self.ctx.plan.tree
    }

    /// Pull and run top-level slots until the shared counter runs out.
    fn run(&mut self) {
        loop {
            let i = self.ctx.next_slot.fetch_add(1, Ordering::Relaxed);
            if i >= self.ctx.plan.top.len() {
                return;
            }
            let original = self.ctx.plan.top[i];
            let slot_start = Instant::now();
            match self.run_slot(TxId::ROOT, i, original) {
                SlotResult::Committed => self.committed_top += 1,
                SlotResult::Failed => self.aborted_top += 1,
                SlotResult::Doomed(_) => {
                    // Unreachable: a top-level frame has no proper ancestor
                    // below T0 to unwind to. Count it as failed defensively.
                    debug_assert!(false, "top-level slot cannot unwind past T0");
                    self.aborted_top += 1;
                }
            }
            self.top_lat
                .observe(slot_start.elapsed().as_micros() as u64);
        }
    }

    /// Run slot `slot_idx` of `parent`: the original child, then — when the
    /// config enables backoff — each pre-materialized replica after a real
    /// backoff sleep. A failed slot does not prevent the parent's commit
    /// (mirroring `ScriptedTx`).
    fn run_slot(&mut self, parent: TxId, slot_idx: usize, original: TxId) -> SlotResult {
        static EMPTY: Vec<TxId> = Vec::new();
        let chain: &Vec<TxId> = if self.ctx.cfg.backoff.is_some() {
            self.ctx
                .plan
                .retry_chains
                .get(&parent)
                .map(|chains| &chains[slot_idx])
                .unwrap_or(&EMPTY)
        } else {
            &EMPTY
        };
        for (k, &attempt) in std::iter::once(&original).chain(chain.iter()).enumerate() {
            if k > 0 {
                if self.ctx.table.gave_up() {
                    break;
                }
                let policy = self.ctx.cfg.backoff.as_ref().expect("chain implies policy");
                let rounds = policy.delay(k as u32);
                std::thread::sleep(Duration::from_micros(
                    rounds * self.ctx.cfg.backoff_round_us,
                ));
            }
            self.log
                .record(self.ctx.clock, Action::RequestCreate(attempt));
            match self.run_tx(attempt) {
                TxResult::Committed => {
                    if !chain.is_empty() {
                        self.records.push(RetryRecord {
                            original: original.0,
                            retries: k as u32,
                            outcome: RetryOutcome::Committed,
                        });
                    }
                    return SlotResult::Committed;
                }
                TxResult::Aborted => continue,
                TxResult::Doomed(d) => return SlotResult::Doomed(d),
            }
        }
        if !chain.is_empty() {
            self.records.push(RetryRecord {
                original: original.0,
                retries: chain.len() as u32,
                outcome: RetryOutcome::Exhausted,
            });
        }
        SlotResult::Failed
    }

    /// Execute transaction `t` (its `REQUEST_CREATE` is already recorded).
    fn run_tx(&mut self, t: TxId) -> TxResult {
        if let Some(d) = self.doomed_ancestor_or_giveup(t) {
            return if d == t {
                self.abort_tx(t);
                TxResult::Aborted
            } else {
                TxResult::Doomed(d)
            };
        }
        self.log.record(self.ctx.clock, Action::Create(t));
        if self.tree().is_access(t) {
            self.run_access(t)
        } else {
            self.run_inner(t)
        }
    }

    /// `doomed_ancestor`, also treating watchdog give-up as dooming the
    /// frame's top-level ancestor (so stragglers stop starting new work).
    fn doomed_ancestor_or_giveup(&self, t: TxId) -> Option<TxId> {
        self.ctx.status.doomed_ancestor(self.tree(), t).or_else(|| {
            if self.ctx.table.gave_up() {
                Some(self.tree().child_toward(TxId::ROOT, t))
            } else {
                None
            }
        })
    }

    /// An access: acquire the Moss lock (blocking), hold it across the
    /// configured storage latency, then commit and pass the lock up.
    fn run_access(&mut self, t: TxId) -> TxResult {
        let x = self.tree().object_of(t).expect("access names an object");
        let op = self.tree().op_of(t).expect("access carries an op").clone();
        match self.ctx.table.acquire(t, x, &op) {
            Acquired::Doomed(d) => {
                if d == t {
                    self.abort_tx(t);
                    TxResult::Aborted
                } else {
                    TxResult::Doomed(d)
                }
            }
            Acquired::Granted(v) => {
                self.held.entry(t).or_default().insert(x);
                if self.ctx.cfg.access_latency_us > 0 {
                    std::thread::sleep(Duration::from_micros(self.ctx.cfg.access_latency_us));
                }
                self.commit_tx(t, v)
            }
        }
    }

    /// An inner transaction: run every child slot depth-first, then request
    /// commit and commit (unless doomed meanwhile).
    fn run_inner(&mut self, t: TxId) -> TxResult {
        let children = self.ctx.plan.plans[&t].children.clone();
        for (i, &c) in children.iter().enumerate() {
            match self.run_slot(t, i, c) {
                SlotResult::Committed | SlotResult::Failed => {}
                SlotResult::Doomed(d) => {
                    return if d == t {
                        self.abort_tx(t);
                        TxResult::Aborted
                    } else {
                        TxResult::Doomed(d)
                    };
                }
            }
        }
        self.log
            .record(self.ctx.clock, Action::RequestCommit(t, Value::Ok));
        self.commit_tx(t, Value::Ok)
    }

    /// Commit `t` through the status CAS; on success inherit its locks to
    /// the parent, on failure (doomed meanwhile) take the abort path.
    fn commit_tx(&mut self, t: TxId, v: Value) -> TxResult {
        if self.ctx.status.try_commit(t) {
            self.log.record(self.ctx.clock, Action::Commit(t));
            if let Some(objs) = self.held.remove(&t) {
                self.ctx.table.release_inherit(t, objs.iter().copied());
                let parent = self.tree().parent(t).expect("non-root commits");
                self.held.entry(parent).or_default().extend(objs);
            }
            self.log.record(self.ctx.clock, Action::ReportCommit(t, v));
            TxResult::Committed
        } else {
            let d = self.doomed_ancestor_or_giveup(t).unwrap_or(t);
            if d == t {
                self.abort_tx(t);
                TxResult::Aborted
            } else {
                TxResult::Doomed(d)
            }
        }
    }

    /// Abort `t`: `ABORT`, one `INFORM_ABORT` per object a descendant-or-
    /// self holds locks on (discarding them), `REPORT_ABORT`.
    fn abort_tx(&mut self, t: TxId) {
        self.ctx.status.mark_aborted(t);
        self.log.record(self.ctx.clock, Action::Abort(t));
        let mut discarded: BTreeSet<ObjId> = BTreeSet::new();
        let dead: Vec<TxId> = self
            .held
            .keys()
            .copied()
            .filter(|&h| self.tree().is_ancestor(t, h))
            .collect();
        for h in dead {
            if let Some(objs) = self.held.remove(&h) {
                discarded.extend(objs);
            }
        }
        if !discarded.is_empty() {
            self.ctx.table.discard(t, discarded.iter().copied());
        }
        self.log.record(self.ctx.clock, Action::ReportAbort(t));
    }
}

/// Run a generated workload on the threaded engine.
pub fn run_workload(w: &Workload, cfg: &EngineConfig) -> Result<EngineReport, String> {
    run_plan(&EnginePlan::from_workload(w), cfg)
}

/// A pre-flight admission check run against the plan before any worker
/// starts. `Err` rejects the whole run with the gate's message. The static
/// serializability analyzer (`nt_lint::engine_preflight`) is the canonical
/// gate; keeping the signature a plain callback keeps the dependency
/// arrow pointing from the analyzer to the engine, not back.
pub type PreflightGate = dyn Fn(&EnginePlan) -> Result<(), String>;

/// [`run_plan`] with an optional pre-flight analyze step: the gate sees
/// the validated plan and can veto execution (e.g. because some schedule
/// of it could produce a cyclic serialization graph).
pub fn run_plan_gated(
    plan: &EnginePlan,
    cfg: &EngineConfig,
    gate: Option<&PreflightGate>,
) -> Result<EngineReport, String> {
    cfg.validate()?;
    plan.validate()?;
    if let Some(g) = gate {
        g(plan).map_err(|e| format!("pre-flight gate rejected the plan: {e}"))?;
    }
    run_plan(plan, cfg)
}

/// Run an [`EnginePlan`] on the threaded engine: `cfg.threads` workers, a
/// sharded lock table, a detector thread, and a merged recorded history.
pub fn run_plan(plan: &EnginePlan, cfg: &EngineConfig) -> Result<EngineReport, String> {
    cfg.validate()?;
    plan.validate()?;
    let status = Arc::new(StatusTable::new(plan.tree.len()));
    let clock = Arc::new(SeqClock::new());
    // Live certification: the whole (static) naming tree seeds the
    // maintainer before any action is stamped, then every log sharing
    // the clock carries the handle (the maintainer advances through a
    // contiguous stamp sequence, so none may be left out).
    let certifier = cfg.live_certify.then(|| {
        let c = LiveCertifier::new(SgtConfig::default(), TelemetryHandle::disabled());
        c.seed_tree(&plan.tree);
        c
    });
    let mut table = LockTable::new(
        Arc::clone(&plan.tree),
        Arc::clone(&status),
        Arc::clone(&clock),
        plan.initials.clone(),
        cfg.shards,
    );
    if let Some(c) = &certifier {
        table = table.with_certifier(c.clone());
    }
    let table = table;
    let next_slot = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let ctx = Ctx {
        plan,
        cfg,
        table: &table,
        status: &status,
        clock: &clock,
        next_slot: &next_slot,
        certifier: certifier.clone(),
    };
    let mut main_log = new_log(&certifier);
    main_log.record(&clock, Action::Create(TxId::ROOT));
    let start = Instant::now();
    let (workers, detector) = std::thread::scope(|s| {
        let detector_handle = s.spawn(|| {
            detect_loop(
                &plan.tree,
                &status,
                &table,
                &plan.top,
                Duration::from_micros(cfg.detector_period_us),
                Duration::from_millis(cfg.max_wall_ms),
                start,
                &stop,
            )
        });
        let worker_handles: Vec<_> = (0..cfg.threads)
            .map(|_| {
                s.spawn(|| {
                    let mut w = Worker::new(&ctx);
                    w.run();
                    (w.log, w.records, w.committed_top, w.aborted_top, w.top_lat)
                })
            })
            .collect();
        let workers: Vec<_> = worker_handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        stop.store(true, Ordering::Release);
        let detector: DetectorOutcome = detector_handle.join().expect("detector panicked");
        (workers, detector)
    });
    let wall = start.elapsed();
    let mut committed_top = 0;
    let mut aborted_top = 0;
    let mut records = Vec::new();
    let mut logs = vec![main_log];
    let mut top_latency = HistSnapshot::new();
    for (log, recs, c, a, lat) in workers {
        logs.push(log);
        records.extend(recs);
        committed_top += c;
        aborted_top += a;
        top_latency.merge(&lat);
    }
    logs.extend(table.drain_logs());
    let history = merge(logs);
    Ok(EngineReport {
        tree: Arc::clone(&plan.tree),
        types: plan.types.clone(),
        history,
        committed_top,
        aborted_top,
        victims: detector.victims,
        ledger: RetryLedger { records },
        gave_up: detector.gave_up,
        wall,
        stats: EngineStats {
            granted: table.granted(),
            blocked: table.blocked(),
            timeout_rescues: table.timeout_rescues(),
            detector_passes: detector.passes,
        },
        top_latency,
        // Every recording thread has been joined: the status is final.
        live: certifier.map(|c| c.status()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_sim::WorkloadSpec;

    #[test]
    fn single_thread_run_certifies() {
        let w = WorkloadSpec::default().generate();
        let cfg = EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        };
        let r = run_workload(&w, &cfg).expect("runs");
        assert_eq!(r.committed_top + r.aborted_top, w.top.len());
        assert!(r.committed_top > 0);
        let cert = r.certify();
        assert!(
            cert.is_serially_correct(),
            "single-threaded run must certify: {:?}",
            cert.verdict.name()
        );
        assert_eq!(cert.violations, 0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let w = WorkloadSpec::default().generate();
        let cfg = EngineConfig {
            threads: 0,
            ..EngineConfig::default()
        };
        assert!(run_workload(&w, &cfg).is_err());
    }

    #[test]
    fn non_rw_workloads_are_rejected() {
        let w = WorkloadSpec {
            mix: nt_sim::OpMix::Counter { read_ratio: 0.5 },
            ..WorkloadSpec::default()
        }
        .generate();
        assert!(run_workload(&w, &EngineConfig::default()).is_err());
    }

    #[test]
    fn multi_thread_contended_run_certifies() {
        let w = WorkloadSpec {
            top_level: 12,
            objects: 3,
            hotspot: 0.5,
            seed: 7,
            ..WorkloadSpec::default()
        }
        .generate();
        let cfg = EngineConfig {
            threads: 4,
            shards: 4,
            ..EngineConfig::default()
        };
        let r = run_workload(&w, &cfg).expect("runs");
        assert!(!r.gave_up, "watchdog must not fire on a small workload");
        let cert = r.certify();
        assert!(
            cert.is_serially_correct(),
            "contended run must certify: {}",
            cert.verdict.name()
        );
    }

    #[test]
    fn live_certify_agrees_with_posthoc() {
        let w = WorkloadSpec {
            top_level: 12,
            objects: 3,
            hotspot: 0.5,
            seed: 11,
            ..WorkloadSpec::default()
        }
        .generate();
        let cfg = EngineConfig {
            threads: 4,
            shards: 4,
            live_certify: true,
            ..EngineConfig::default()
        };
        let r = run_workload(&w, &cfg).expect("runs");
        let live = r.live.as_ref().expect("live status present when enabled");
        assert!(live.ok, "live certifier must agree with post-hoc");
        assert!(live.violation.is_none());
        assert_eq!(live.processed, r.history.len() as u64);
        // Stamps are drawn under the certifier lock, so no worker ever
        // steps the maintainer ahead of another's stamp.
        assert!(
            live.parked_max <= cfg.threads,
            "reorder heap grew to {} with {} recording threads",
            live.parked_max,
            cfg.threads
        );
        assert!(
            live.watermark > 0,
            "committed work must advance the GC watermark"
        );
        let cert = r.certify();
        assert!(cert.is_serially_correct(), "{}", cert.verdict.name());

        // Disabled by default: no live status.
        let r2 = run_workload(&w, &EngineConfig::default()).expect("runs");
        assert!(r2.live.is_none());
    }

    #[test]
    fn preflight_gate_can_veto_and_pass() {
        let w = WorkloadSpec {
            top_level: 2,
            objects: 2,
            seed: 1,
            ..WorkloadSpec::default()
        }
        .generate();
        let plan = EnginePlan::from_workload(&w);
        let cfg = EngineConfig::default();
        let veto: Box<PreflightGate> = Box::new(|_| Err("not on my watch".into()));
        let err = match run_plan_gated(&plan, &cfg, Some(veto.as_ref())) {
            Err(e) => e,
            Ok(_) => panic!("gate must veto the run"),
        };
        assert!(err.contains("pre-flight gate"), "{err}");
        assert!(err.contains("not on my watch"), "{err}");
        let pass: Box<PreflightGate> = Box::new(|_| Ok(()));
        let r = run_plan_gated(&plan, &cfg, Some(pass.as_ref())).expect("gate passes");
        assert!(r.certify().is_serially_correct());
    }
}
