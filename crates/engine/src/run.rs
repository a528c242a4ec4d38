//! `run_plan`: a plan *driver* over the session engine, with a post-hoc
//! certification hook.
//!
//! ## Execution model
//!
//! There is one execution core, [`SessionEngine`]: the driver starts
//! one, and each of `cfg.threads` workers
//! opens a [`Session`] and plays the plan through the public session API
//! — `begin_top` / `begin_child` / `access` / `commit` — exactly as a
//! network client would. Every recorded action of a run is therefore
//! recorded by the code the server runs; this module records none and
//! touches no lock, status or clock state.
//!
//! What the driver adds on top: workers claim top-level slots from a
//! shared counter and walk each claimed subtree *depth-first* on one
//! thread — a legal interleaving for both `Parallel` and `Sequential`
//! child orders (transaction well-formedness never requires intra-
//! transaction concurrency), so concurrency happens between top-level
//! transactions, which is where the paper's serializability questions
//! live; `access_latency_us` is slept after each access returns (its
//! parent then holds the lock, as on the server); and the main thread is
//! the `max_wall_ms` watchdog ([`SessionEngine::give_up`]).
//!
//! Sessions name transactions as they begin them, so a run's ids are not
//! the plan's: [`EngineReport::plan_ids`] maps one to the other. The
//! report's tree, history and victims are self-consistent in run ids,
//! which is all [`EngineReport::certify`] needs.
//!
//! ## Doom and unwinding
//!
//! A deadlock check (run by whichever worker's lock request queued) or
//! the watchdog dooms a victim; the session API reports it
//! as `Aborted(victim)` from the victim's worker's next call inside that
//! subtree, having aborted exactly that subtree (one `ABORT`, one
//! `INFORM_ABORT` per touched object, one `REPORT_ABORT`). The driver
//! unwinds its call stack to the frame that began `victim` and — when the
//! config enables backoff — re-runs the slot with the workload's next
//! pre-materialized replica after a real wall-clock backoff sleep.

use crate::config::EngineConfig;
pub use crate::detector::Victim;
use crate::session::{
    AccessOutcome, BeginOutcome, CommitOutcome, RecoveredSeed, Session, SessionEngine,
};
use nt_faults::{RetryLedger, RetryOutcome, RetryRecord};
use nt_model::rw::RwInitials;
use nt_model::{Action, ObjId, TxId, TxTree};
use nt_obs::{Event, Histogram, TraceHandle};
use nt_serial::ObjectTypes;
use nt_sgt::{certify_recorded, ConflictSource, RecordedCertificate};
use nt_sgt_live::{LiveCertifier, LiveStatus, SgtConfig};
use nt_sim::{ScriptPlan, Workload};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
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

    /// Structural validation — what the driver relies on without
    /// checking again. Every inner transaction has a plan and every access
    /// is a read/write-register operation (the lock table implements Moss'
    /// read/write rules; other data types belong to the simulator's
    /// commutativity-based protocols); top-level slots are inner children
    /// of `T0`; a plan's children are its transaction's children; and a
    /// retry chain set has one chain per child slot, of replicas that are
    /// siblings of the original and of its kind.
    fn validate(&self) -> Result<(), String> {
        let tree = &self.tree;
        for t in tree.all_tx() {
            if t == TxId::ROOT {
                continue;
            }
            if tree.is_access(t) {
                let op = tree.op_of(t).expect("access carries an op");
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
        let child_of = |c: TxId, p: TxId| c.index() < tree.len() && tree.parent(c) == Some(p);
        for &t in &self.top {
            if !child_of(t, TxId::ROOT) || tree.is_access(t) {
                return Err(format!(
                    "top-level slot {t} is not an inner child of T0 (sessions \
                     cannot run an access directly under T0)"
                ));
            }
        }
        for (&t, script) in &self.plans {
            if let Some(c) = script.children.iter().find(|&&c| !child_of(c, t)) {
                return Err(format!("the plan of {t} lists {c}, which is not its child"));
            }
        }
        for (&p, chains) in &self.retry_chains {
            let slots: &[TxId] = if p == TxId::ROOT {
                &self.top
            } else {
                self.plans.get(&p).map_or(&[], |script| &script.children)
            };
            if chains.len() != slots.len() {
                return Err(format!(
                    "{p} has {} child slots but {} retry chains",
                    slots.len(),
                    chains.len()
                ));
            }
            for (&original, chain) in slots.iter().zip(chains) {
                let same_kind =
                    |r: TxId| child_of(r, p) && tree.is_access(r) == tree.is_access(original);
                if let Some(r) = chain.iter().find(|&&r| !same_kind(r)) {
                    return Err(format!(
                        "replica {r} of slot {original} is not a child of {p} of \
                         the same kind (access or inner) as the original"
                    ));
                }
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
    /// [`SessionEngine::timeout_rescues`]).
    pub timeout_rescues: u64,
    /// Deadlock-detector passes (one per queued request, one per victim).
    pub detector_passes: u64,
}

/// The outcome of one threaded run.
pub struct EngineReport {
    /// The tree the run grew (for certification): the instantiated part of
    /// the plan's tree, in run ids.
    pub tree: Arc<TxTree>,
    /// Serial types (for certification).
    pub types: ObjectTypes,
    /// The recorded history, in stamp order.
    pub history: Vec<Action>,
    /// Run id → plan id: which transaction of the executed plan each
    /// transaction of `tree` (and so each name in `history` and `victims`)
    /// instantiated.
    pub plan_ids: BTreeMap<TxId, TxId>,
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
    pub top_latency: Histogram,
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

/// A validated plan never misuses the session API.
const LEGAL: &str = "a validated plan drives the session API legally";

/// What one worker hands back when the slot counter runs out.
#[derive(Default)]
struct Tally {
    /// Run id → plan id of every transaction this worker began.
    ids: BTreeMap<TxId, TxId>,
    /// Plan accesses attempted under each run parent, in call order
    /// (sessions do not report an access's id; see `run_plan`).
    accesses: BTreeMap<TxId, Vec<TxId>>,
    records: Vec<RetryRecord>,
    committed_top: usize,
    aborted_top: usize,
    top_lat: Histogram,
}

/// One worker thread: a session and the plan it plays through it.
struct Driver<'a> {
    plan: &'a EnginePlan,
    cfg: &'a EngineConfig,
    engine: &'a SessionEngine,
    session: Session,
    next_slot: &'a AtomicUsize,
    out: Tally,
}

impl Driver<'_> {
    /// Pull and run top-level slots until the shared counter runs out.
    fn run(&mut self) {
        loop {
            let i = self.next_slot.fetch_add(1, Ordering::Relaxed);
            let Some(&original) = self.plan.top.get(i) else {
                return;
            };
            let slot_start = Instant::now();
            match self.run_slot(TxId::ROOT, TxId::ROOT, i, original) {
                Ok(true) => self.out.committed_top += 1,
                Ok(false) => self.out.aborted_top += 1,
                Err(v) => unreachable!("{v} was aborted above a top-level slot"),
            }
            self.out
                .top_lat
                .observe(slot_start.elapsed().as_micros() as u64);
        }
    }

    /// Run slot `slot_idx` of plan transaction `plan_parent`, begun as
    /// `parent`: the original child, then — when the config enables backoff
    /// — each pre-materialized replica after a real backoff sleep. `Ok`
    /// says whether some attempt committed (a failed slot does not prevent
    /// the parent's commit, mirroring `ScriptedTx`); `Err(v)` means `v`, an
    /// open frame at or above `parent`, was aborted: unwind to it.
    fn run_slot(
        &mut self,
        parent: TxId,
        plan_parent: TxId,
        slot_idx: usize,
        original: TxId,
    ) -> Result<bool, TxId> {
        let plan = self.plan;
        let chain: &[TxId] = match (&self.cfg.backoff, plan.retry_chains.get(&plan_parent)) {
            (Some(_), Some(chains)) => &chains[slot_idx],
            _ => &[],
        };
        for (k, &attempt) in std::iter::once(&original).chain(chain).enumerate() {
            if self.engine.gave_up() {
                break;
            }
            if k > 0 {
                let policy = self.cfg.backoff.as_ref().expect("chain implies policy");
                let rounds = policy.delay(k as u32);
                std::thread::sleep(Duration::from_micros(rounds * self.cfg.backoff_round_us));
            }
            if self.attempt(parent, attempt)? {
                if !chain.is_empty() {
                    self.out.records.push(RetryRecord {
                        original: original.0,
                        retries: k as u32,
                        outcome: RetryOutcome::Committed,
                    });
                }
                return Ok(true);
            }
        }
        if !chain.is_empty() {
            self.out.records.push(RetryRecord {
                original: original.0,
                retries: chain.len() as u32,
                outcome: RetryOutcome::Exhausted,
            });
        }
        Ok(false)
    }

    /// Play plan transaction `p` once, under `parent` (`T0` for a top).
    /// `Ok(true)`: it committed. `Ok(false)`: the session aborted it — the
    /// victim was `p`'s own instance. `Err(v)`: the victim `v` is an open
    /// frame above it.
    fn attempt(&mut self, parent: TxId, p: TxId) -> Result<bool, TxId> {
        let plan = self.plan;
        if let Some(x) = plan.tree.object_of(p) {
            let op = plan.tree.op_of(p).expect("access carries an op").clone();
            self.out.accesses.entry(parent).or_default().push(p);
            return match self.session.access(parent, x, op).expect(LEGAL) {
                AccessOutcome::Done(_) => {
                    if self.cfg.access_latency_us > 0 {
                        std::thread::sleep(Duration::from_micros(self.cfg.access_latency_us));
                    }
                    Ok(true)
                }
                // Every open frame is in `ids`; the access itself is not.
                AccessOutcome::Aborted(v) if self.out.ids.contains_key(&v) => Err(v),
                AccessOutcome::Aborted(_) => Ok(false),
            };
        }
        let t = if parent == TxId::ROOT {
            self.session.begin_top().expect(LEGAL)
        } else {
            match self.session.begin_child(parent).expect(LEGAL) {
                BeginOutcome::Fresh(t) => t,
                BeginOutcome::Aborted(v) => return Err(v),
            }
        };
        self.out.ids.insert(t, p);
        match self.children_then_commit(t, p) {
            Ok(()) => Ok(true),
            Err(v) if v == t => Ok(false),
            Err(v) => Err(v),
        }
    }

    /// The body of inner transaction `p`, begun as `t`: every child slot
    /// depth-first, then the commit. `Err` names the aborted victim.
    fn children_then_commit(&mut self, t: TxId, p: TxId) -> Result<(), TxId> {
        let plan = self.plan;
        for (i, &c) in plan.plans[&p].children.iter().enumerate() {
            self.run_slot(t, p, i, c)?;
        }
        match self.session.commit(t).expect(LEGAL) {
            CommitOutcome::Committed => Ok(()),
            CommitOutcome::Aborted(v) => Err(v),
        }
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

/// Run an [`EnginePlan`]: one [`SessionEngine`] sized to the plan (each
/// plan transaction is begun at most once), `cfg.threads` workers driving
/// sessions, the calling thread as watchdog, and the engine's
/// recorded history.
pub fn run_plan(plan: &EnginePlan, cfg: &EngineConfig) -> Result<EngineReport, String> {
    cfg.validate()?;
    plan.validate()?;
    let seed = RecoveredSeed {
        initials: (0..plan.tree.num_objects() as u32)
            .map(|x| (ObjId(x), plan.initials.initial(ObjId(x))))
            .collect(),
        ..RecoveredSeed::default()
    };
    let certifier = cfg
        .live_certify
        .then(|| LiveCertifier::new(SgtConfig::default(), TraceHandle::disabled()));
    let engine = SessionEngine::start_recovered(
        plan.tree.len(),
        TraceHandle::disabled(),
        seed,
        None,
        certifier,
    )
    .expect("a seed without recovered nodes replays nothing");
    let (engine, next_slot) = (&engine, &AtomicUsize::new(0));
    let start = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let (done_tx, done_rx) = mpsc::channel();
        for _ in 0..cfg.threads {
            let done_tx = done_tx.clone();
            s.spawn(move || {
                let mut driver = Driver {
                    plan,
                    cfg,
                    engine,
                    session: engine.open_session(),
                    next_slot,
                    out: Tally::default(),
                };
                driver.run();
                // The receiver lives until every sender is gone.
                let _ = done_tx.send(driver.out);
            });
        }
        drop(done_tx);
        let deadline = start + Duration::from_millis(cfg.max_wall_ms);
        let mut tallies = Vec::new();
        while tallies.len() < cfg.threads {
            match done_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(tally) => tallies.push(tally),
                // The watchdog: abandon the run, then wait for the workers
                // (every lock wait resolves doomed, every retry loop stops).
                Err(RecvTimeoutError::Timeout) => {
                    engine.give_up();
                    tallies.extend(done_rx.iter());
                }
                // A worker panicked; the scope re-raises it.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        tallies
    });
    let wall = start.elapsed();
    let (tree, history) = engine.history_snapshot();
    let mut committed_top = 0;
    let mut aborted_top = 0;
    let mut records = Vec::new();
    let mut top_latency = Histogram::new();
    let mut plan_ids = BTreeMap::new();
    for tally in tallies {
        committed_top += tally.committed_top;
        aborted_top += tally.aborted_top;
        records.extend(tally.records);
        top_latency.merge(&tally.top_lat);
        plan_ids.extend(tally.ids);
        // A session does not report the id of an access it ran. One
        // thread made the calls under each parent, and only the last of
        // them can have been refused before it registered anything, so
        // the registered accesses are the attempted ones, in order.
        for (parent, attempted) in tally.accesses {
            let registered = tree.children(parent).iter().filter(|&&c| tree.is_access(c));
            plan_ids.extend(registered.copied().zip(attempted));
        }
    }
    Ok(EngineReport {
        tree: Arc::new(tree),
        types: plan.types.clone(),
        history,
        plan_ids,
        committed_top,
        aborted_top,
        victims: engine.victims(),
        ledger: RetryLedger { records },
        gave_up: engine.gave_up(),
        wall,
        stats: EngineStats {
            granted: engine.lock_grants(),
            blocked: engine.lock_blocks(),
            timeout_rescues: engine.timeout_rescues(),
            detector_passes: engine.detector_passes(),
        },
        top_latency,
        // Every recording thread has been joined: the status is final.
        live: engine.certifier().map(LiveCertifier::status),
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
        // One session names its transactions sequentially and nothing
        // ever waits, so the run is a function of the plan.
        let again = run_workload(&w, &cfg).expect("runs");
        assert_eq!(format!("{:?}", r.history), format!("{:?}", again.history));
        assert_eq!(r.plan_ids, again.plan_ids);
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

    /// A valid two-top plan with one replica per top-level slot, for the
    /// validation rules to break one at a time.
    fn small_plan() -> EnginePlan {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let mut plans = BTreeMap::new();
        let tops: Vec<TxId> = (0..4)
            .map(|i| {
                let t = tree.add_inner(TxId::ROOT);
                let children = vec![tree.add_access(t, x, nt_model::Op::Write(i))];
                let order = nt_sim::ChildOrder::Sequential;
                plans.insert(t, ScriptPlan { children, order });
                t
            })
            .collect();
        EnginePlan {
            tree: Arc::new(tree),
            plans,
            top: tops[..2].to_vec(),
            retry_chains: BTreeMap::from([(TxId::ROOT, vec![vec![tops[2]], vec![tops[3]]])]),
            initials: RwInitials::uniform(0),
            types: ObjectTypes::uniform(1, Arc::new(nt_serial::RwRegister::new(0))),
        }
    }

    fn refusal(plan: &EnginePlan) -> String {
        match run_plan(plan, &EngineConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("the plan must be refused"),
        }
    }

    #[test]
    fn top_level_slots_must_be_inner_children_of_t0() {
        let mut plan = small_plan();
        assert!(run_plan(&plan, &EngineConfig::default()).is_ok());
        let access = plan.plans[&plan.top[0]].children[0];
        plan.top[0] = access;
        let e = refusal(&plan);
        assert!(e.contains("cannot run an access directly under T0"), "{e}");
    }

    #[test]
    fn plan_children_must_be_children() {
        let mut plan = small_plan();
        let (a, b) = (plan.top[0], plan.top[1]);
        let stolen = plan.plans[&b].children[0];
        plan.plans.get_mut(&a).expect("plan").children.push(stolen);
        let e = refusal(&plan);
        assert!(e.contains("which is not its child"), "{e}");
    }

    #[test]
    fn retry_chains_must_match_the_slots() {
        // One chain short of the slots.
        let mut plan = small_plan();
        plan.retry_chains
            .get_mut(&TxId::ROOT)
            .expect("chains")
            .pop();
        let e = refusal(&plan);
        assert!(e.contains("2 child slots but 1 retry chains"), "{e}");
        // A replica of another kind than its original.
        let mut plan = small_plan();
        let access = plan.plans[&plan.top[0]].children[0];
        plan.retry_chains.get_mut(&TxId::ROOT).expect("chains")[0] = vec![access];
        let e = refusal(&plan);
        assert!(e.contains("of the same kind"), "{e}");
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
            live_certify: true,
            ..EngineConfig::default()
        };
        let r = run_workload(&w, &cfg).expect("runs");
        let live = r.live.as_ref().expect("live status present when enabled");
        assert!(live.ok, "live certifier must agree with post-hoc");
        assert!(live.violation.is_none());
        assert_eq!(live.processed, r.history.len() as u64);
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
