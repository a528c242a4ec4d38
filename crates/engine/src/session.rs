//! Session-scoped transaction handles: the engine's one execution core.
//! The networked server (`nt-net`) drives one session per connection, the
//! plan driver ([`run_plan`](crate::run_plan)) one per worker thread.
//!
//! Each session *interactively* grows the tree — `begin_top` /
//! `begin_child` / `access` / `commit` / `abort` — against a shared
//! [`SessionTree`], one status table, and one [`LockTable`] whose mutex,
//! the engine lock, also guards the one [`History`], the victims list and
//! the counters. The engine starts no thread. A wait-for
//! cycle can only close when a lock request queues, so the critical
//! section that queues it runs the detector right there, dooming one
//! victim per cycle until none stands; a session discovers the doom when
//! the sweep resolves its queued request or at its next operation on the
//! victim's subtree, aborts precisely that subtree (one `ABORT`, the
//! `INFORM_ABORT`s, one `REPORT_ABORT`), and reports the victim to the
//! client so it can retry.
//!
//! A session step takes the engine lock once and records its actions
//! there: a begin's registration with its `REQUEST_CREATE`/`CREATE`, an
//! access's registration and creation with its lock request, a commit's
//! `REQUEST_COMMIT` through `REPORT_COMMIT` with the inheritance between,
//! an abort's `ABORT` through `REPORT_ABORT`. So
//! [`SessionEngine::history_snapshot`] reads a recorded history that
//! refines both each session's program order and each object's actual
//! serialization — certifiable by `nt_sgt::certify_recorded`, also across
//! a process boundary.

pub use crate::detector::Victim;
use crate::locktable::{Acquired, Acquisition, LockTable, Ticket, WakeHandle};
use crate::recorder::{ActionSink, History, SeqClock};
use crate::session_tree::{SessionTree, TreeError};
use crate::status::StatusTable;
use nt_model::rw::RwInitials;
use nt_model::{Action, ObjId, Op, TreeView, TxId, TxTree, Value};
use nt_obs::json::JsonObj;
use nt_obs::TraceHandle;
use nt_sgt_live::{LiveCertifier, LiveStatus};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a session operation was refused (protocol misuse or admission
/// control — distinct from the benign [`Aborted`](BeginOutcome::Aborted)
/// outcomes, which are part of normal contention).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The server's transaction arena is full.
    Capacity,
    /// The named transaction does not exist.
    UnknownTx(TxId),
    /// The named transaction belongs to another session.
    NotOwned(TxId),
    /// The named parent is an access (accesses are leaves).
    NotInner(TxId),
    /// The named transaction already completed.
    Completed(TxId),
    /// The access op is not a read/write-register operation.
    NonRwOp,
    /// The object id is out of range: `ObjId(u32::MAX)` is reserved,
    /// because a history counts its objects as one past the largest id
    /// in a `u32`.
    BadObject(ObjId),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Capacity => write!(f, "transaction capacity exhausted"),
            SessionError::UnknownTx(t) => write!(f, "unknown transaction {t}"),
            SessionError::NotOwned(t) => write!(f, "transaction {t} belongs to another session"),
            SessionError::NotInner(t) => write!(f, "transaction {t} is an access (a leaf)"),
            SessionError::Completed(t) => write!(f, "transaction {t} already completed"),
            SessionError::NonRwOp => {
                write!(f, "only read/write-register operations are supported")
            }
            SessionError::BadObject(x) => write!(f, "object id {} is out of range", x.0),
        }
    }
}

impl From<TreeError> for SessionError {
    fn from(e: TreeError) -> Self {
        match e {
            TreeError::Capacity => SessionError::Capacity,
            TreeError::UnknownParent(t) => SessionError::UnknownTx(t),
            TreeError::ParentIsAccess(t) => SessionError::NotInner(t),
        }
    }
}

/// Outcome of `begin_child`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BeginOutcome {
    /// The child was created.
    Fresh(TxId),
    /// The parent's subtree was already doomed/aborted; `victim` is the
    /// highest aborted ancestor, whose whole subtree is gone.
    Aborted(TxId),
}

/// Outcome of `access`.
#[derive(Clone, Debug, PartialEq)]
pub enum AccessOutcome {
    /// Granted and committed; the access's `REQUEST_COMMIT` return value.
    Done(Value),
    /// A deadlock victim (ancestor-or-self) was aborted instead.
    Aborted(TxId),
}

/// One step of a resumable access ([`Session::access_start`]).
pub enum AccessStep {
    /// The access finished.
    Done(AccessOutcome),
    /// Its lock request is queued; the [`WakeHandle`] fires when it
    /// resolves, and [`Session::access_resume`] then finishes it.
    Parked(ParkedAccess),
}

/// An access whose lock request is queued: created and recorded, not yet
/// answered. Give it back to its session — `access_resume` once woken,
/// or `access_cancel` if the client goes away first.
pub struct ParkedAccess {
    parent: TxId,
    ticket: Ticket,
    /// Park time, kept only while telemetry is enabled.
    since: Option<Instant>,
}

impl ParkedAccess {
    /// The access transaction that waits.
    pub fn tx(&self) -> TxId {
        self.ticket.tx()
    }

    /// The object it waits for.
    pub fn obj(&self) -> ObjId {
        self.ticket.obj()
    }
}

/// Outcome of `commit`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Committed; locks inherited by the parent.
    Committed,
    /// The transaction (or an ancestor) was doomed; the named victim's
    /// subtree was aborted.
    Aborted(TxId),
}

/// State recovered from a durable store, carried across a crash–restart
/// boundary into [`SessionEngine::start_recovered`]. The recovered
/// history (with its crash-time losers already rolled back) becomes the
/// prefix of the restarted engine's recorded history, so one
/// `certify_recorded` pass covers pre- and post-crash work as a single
/// behavior.
///
/// [`RecoveredSeed::replay`] decides `committed`, `aborted` and
/// `initials`: what the lock table's transitions leave after the
/// recovered history. They stay fields because the benchmark's durability
/// gate reads them from a seed it never boots (until ROADMAP 6(a)).
#[derive(Clone, Debug, Default)]
pub struct RecoveredSeed {
    /// Tree registrations in `TxId` order starting at `TxId(1)`: each
    /// entry is `(parent, access)` where accesses carry object and op.
    pub nodes: Vec<(TxId, Option<(ObjId, Op)>)>,
    /// Transactions recovered as committed, in id order.
    pub committed: Vec<TxId>,
    /// Transactions recovered as aborted, in id order (loser subtree
    /// roots included; their descendants stay `Running`, exactly as a
    /// live abort leaves them).
    pub aborted: Vec<TxId>,
    /// Per-object committed values, in id order (objects not listed keep
    /// the default initial value 0).
    pub initials: Vec<(ObjId, i64)>,
    /// The recovered history: `entries[i]` is the action stamped `i`, so
    /// it covers stamps `0..entries.len()` (recovery refuses a hole).
    pub entries: Vec<Action>,
    /// First stamp the restarted clock issues (past every recovered one).
    pub next_stamp: u64,
}

impl RecoveredSeed {
    /// Rebuild the state a durable prefix leaves through the lock table's
    /// own transitions, over `tree` (`nodes`, frozen) and a status table,
    /// with no sink and no certifier. `history[i]` is the action stamped
    /// `i`; every action but `CREATE(T0)` must name a transaction of
    /// `tree`. β applies in stamp order; then every topmost running
    /// transaction (a crash-time loser) aborts through the session's
    /// abort, after whichever of its `REQUEST_CREATE`/`CREATE` the cut
    /// lost, and committed holders get the `INFORM_COMMIT`s the cut lost,
    /// all appended to the history. Returns the seed and the losers.
    pub fn replay(
        tree: Arc<TxTree>,
        nodes: Vec<(TxId, Option<(ObjId, Op)>)>,
        mut history: Vec<Action>,
    ) -> (RecoveredSeed, Vec<TxId>) {
        let status = Arc::new(StatusTable::new(tree.len()));
        let table = LockTable::recording(
            Arc::clone(&tree),
            None,
            Arc::clone(&status),
            History::recovered(Vec::new(), history.len() as u64, None, None),
            RwInitials::uniform(0),
            TraceHandle::disabled(),
        );
        let mut eng = table.lock();
        eng.apply(&history);
        let (mut requested, mut created) = (vec![false; tree.len()], vec![false; tree.len()]);
        for action in &history {
            match *action {
                Action::RequestCreate(t) => requested[t.index()] = true,
                Action::Create(t) => created[t.index()] = true,
                _ => {}
            }
        }
        let mut losers = Vec::new();
        for v in tree.all_tx().skip(1) {
            let mut above = tree.ancestors(v).skip(1);
            if status.is_complete(v) || !above.all(|u| u == TxId::ROOT || status.is_committed(u)) {
                continue;
            }
            if !requested[v.index()] {
                eng.record(Action::RequestCreate(v));
            }
            if !created[v.index()] {
                eng.record(Action::Create(v));
            }
            let objs = eng.held_under(v);
            eng.abort(v, objs);
            losers.push(v);
        }
        eng.inform_committed();
        let initials = eng.root_values();
        history.extend(eng.snapshot());
        let ids = || tree.all_tx().skip(1);
        let seed = RecoveredSeed {
            nodes,
            committed: ids().filter(|&t| status.is_committed(t)).collect(),
            aborted: ids().filter(|&t| status.is_aborted(t)).collect(),
            initials,
            next_stamp: history.len() as u64,
            entries: history,
        };
        (seed, losers)
    }
}

/// The shared engine a server embeds: one growable tree, one status
/// table, one lock table behind the engine lock — and no thread of its
/// own.
pub struct SessionEngine {
    tree: Arc<SessionTree>,
    status: Arc<StatusTable>,
    /// Its mutex is the engine lock: it also guards the history, the
    /// victims and the counters.
    table: Arc<LockTable<Arc<SessionTree>>>,
    /// The history's clock, read without the engine lock.
    clock: Arc<SeqClock>,
    telemetry: TraceHandle,
}

impl SessionEngine {
    /// Start an engine with room for `capacity` transactions. Objects all
    /// start at value 0. `shards` and the `Duration` (the lock-table shard
    /// count and the detector thread's period) are vestigial and read by
    /// nobody: the signature is pinned by the benchmark crate until
    /// ROADMAP 6(a).
    pub fn start(capacity: usize, _shards: usize, _unused: Duration) -> Arc<SessionEngine> {
        SessionEngine::start_recovered(
            capacity,
            TraceHandle::disabled(),
            RecoveredSeed::default(),
            None,
            None,
        )
        .expect("empty seed always replays")
    }

    /// Start an engine from a [`RecoveredSeed`], optionally teeing every
    /// new registration and action into a durable sink (the WAL). A timed
    /// `telemetry` recorder makes the lock table feed its blocked/hold
    /// histograms and sessions attribute lock wait per request; a disabled
    /// or events-only one keeps every probe site off the clock. With a
    /// recovered seed, the tree is replayed without the sink (the
    /// registrations are already durable), completed transactions are
    /// pre-marked in the status table, per-object committed values seed
    /// the lock table's initials, and the clock resumes past the recovered
    /// stamps.
    ///
    /// With a live `certifier`, it reads the engine's session tree and
    /// every recorded action steps it in the critical section that
    /// records it: the recovered registrations replay into the tree
    /// first, then the recovered history preloads (its unresolved tops
    /// finalize as aborted — recovery rolled them back), and only then
    /// does live recording begin, so the certifier sees one seamless
    /// behavior across the crash boundary.
    pub fn start_recovered(
        capacity: usize,
        telemetry: TraceHandle,
        seed: RecoveredSeed,
        sink: Option<Arc<dyn ActionSink>>,
        mut certifier: Option<LiveCertifier>,
    ) -> Result<Arc<SessionEngine>, TreeError> {
        let (tree, mut appends) = SessionTree::new(capacity);
        for (parent, access) in seed.nodes {
            tree.add(&mut appends, parent, access)?;
        }
        let tree = Arc::new(tree);
        // The certifier reads the recovered tree, then preloads the
        // recovered head here, before any live action is recorded.
        if let Some(c) = &mut certifier {
            c.read_tree(Arc::clone(&tree) as Arc<dyn TreeView>);
        }
        let fresh = seed.entries.is_empty();
        let history = History::recovered(seed.entries, seed.next_stamp, sink, certifier);
        let clock = Arc::clone(history.clock());
        let status = Arc::new(StatusTable::new(capacity));
        for &t in &seed.committed {
            assert!(status.try_commit(t), "recovered commit marks a fresh slot");
        }
        for &t in &seed.aborted {
            status.mark_aborted(t);
        }
        let mut initials = RwInitials::uniform(0);
        for &(x, v) in &seed.initials {
            initials.set(x, v);
        }
        let table = LockTable::recording(
            Arc::clone(&tree),
            Some(appends),
            Arc::clone(&status),
            history,
            initials,
            telemetry.clone(),
        );
        if fresh {
            table.lock().record(Action::Create(TxId::ROOT));
        }
        Ok(Arc::new(SessionEngine {
            tree,
            status,
            table: Arc::new(table),
            clock,
            telemetry,
        }))
    }

    /// Nothing to stop — the engine runs no thread. Kept (like
    /// [`SessionEngine::start`]'s `Duration`) because the benchmark crate
    /// calls it.
    pub fn shutdown(&self) {}

    /// Abandon everything in flight (a wall-clock watchdog's last resort):
    /// doom every incomplete top-level transaction and resolve every
    /// current and future lock wait as doomed, so each session aborts its
    /// tops at its next operation on them.
    pub fn give_up(&self) {
        for i in 1..self.tree.len() {
            let t = TxId(i as u32);
            if self.tree.parent(t) == Some(TxId::ROOT) {
                self.status.mark_doomed(t);
            }
        }
        self.table.give_up();
    }

    /// Has [`SessionEngine::give_up`] been called?
    pub fn gave_up(&self) -> bool {
        self.table.gave_up()
    }

    /// Open a fresh session (one per client connection).
    pub fn open_session(self: &Arc<Self>) -> Session {
        Session {
            engine: Arc::clone(self),
            held: BTreeMap::new(),
            tops: BTreeSet::new(),
            lock_wait_us: 0,
        }
    }

    /// Transactions registered so far (including `T0`).
    pub fn tx_count(&self) -> usize {
        self.tree.len()
    }

    /// Deadlock victims doomed so far, in doom order.
    pub fn victims(&self) -> Vec<Victim> {
        self.table.lock().victims().to_vec()
    }

    /// Victims from the `n`-th on, in doom order, so a caller can poll it
    /// every round.
    pub fn victims_from(&self, n: usize) -> Vec<Victim> {
        self.table
            .lock()
            .victims()
            .get(n..)
            .map_or_else(Vec::new, <[Victim]>::to_vec)
    }

    /// Detector passes so far: one per lock request that queued, plus one
    /// per victim.
    pub fn detector_passes(&self) -> u64 {
        self.table.lock().counters().detector_passes
    }

    /// The recorder handle this engine records into.
    pub fn telemetry(&self) -> &TraceHandle {
        &self.telemetry
    }

    /// Current logical-clock reading (stamps issued so far) — a
    /// non-advancing peek, for dual wall/logical request stamps.
    pub fn clock_now(&self) -> u64 {
        self.clock.issued()
    }

    /// Lock grants so far.
    pub fn lock_grants(&self) -> u64 {
        self.table.granted()
    }

    /// Lock acquires that parked at least once.
    pub fn lock_blocks(&self) -> u64 {
        self.table.blocked()
    }

    /// Grants a blocking [`Session::access`] found only after a
    /// timed-out park (lost-wakeup backstop metric; see
    /// [`LockTable::timeout_rescues`]).
    pub fn timeout_rescues(&self) -> u64 {
        self.table.timeout_rescues()
    }

    /// Total lock hold time released so far, microseconds (tracked only
    /// while telemetry is enabled).
    pub fn lock_hold_us(&self) -> u64 {
        self.table.lock().counters().hold_us
    }

    /// On-demand wait-for-graph snapshot as one JSON object:
    /// `{"wait_for": [{"waiter": t, "obj": x, "conn": c, "blockers":
    /// [u, ...]}, ...]}`. Each edge is a queued lock request — a parked
    /// continuation of connection `c` (0 for a blocking in-process
    /// wait) — and the holders currently blocking it: the same relation
    /// the deadlock detector folds into cycles.
    pub fn wait_for_json(&self) -> String {
        let snapshot = self.table.waiting_snapshot();
        let edges: Vec<String> = snapshot
            .iter()
            .map(|e| {
                let mut o = JsonObj::new();
                o.num("waiter", u64::from(e.waiter.0))
                    .num("obj", u64::from(e.obj.0))
                    .num("conn", e.owner);
                let ids: Vec<u64> = e.blockers.iter().map(|b| u64::from(b.0)).collect();
                o.num_arr("blockers", &ids);
                o.build()
            })
            .collect();
        let mut o = JsonObj::new();
        o.num("edges", edges.len() as u64)
            .raw("wait_for", format!("[{}]", edges.join(",")));
        o.build()
    }

    /// Run `f` on the live certifier under the engine lock (`None` unless
    /// the engine was started with one). Every action recorded before the
    /// call has been stepped.
    pub fn with_certifier<R>(&self, f: impl FnOnce(&mut LiveCertifier) -> R) -> Option<R> {
        self.table.lock().certifier().map(f)
    }

    /// The live certifier's state (`None` without one).
    pub fn live_status(&self) -> Option<LiveStatus> {
        self.with_certifier(|c| c.status())
    }

    /// `Some(false)` iff the live certifier has found a cycle (`None`
    /// without one).
    pub fn live_ok(&self) -> Option<bool> {
        self.with_certifier(|c| c.ok())
    }

    /// Snapshot the run so far: the frozen tree and the recorded history,
    /// a prefix of β. The history is read *before* the tree is
    /// snapshotted, so every transaction a recorded action names is
    /// present in the tree (actions are recorded only after their
    /// transaction is registered, and the tree grows monotonically).
    pub fn history_snapshot(&self) -> (TxTree, Vec<Action>) {
        let history = self.table.lock().snapshot();
        let tree = self.tree.to_tx_tree();
        (tree, history)
    }
}

/// One client's handle: owns the top-level transactions it began and the
/// lock bookkeeping for their subtrees (a session drives its subtrees
/// itself, so the bookkeeping needs no sharing).
pub struct Session {
    engine: Arc<SessionEngine>,
    held: BTreeMap<TxId, BTreeSet<ObjId>>,
    tops: BTreeSet<TxId>,
    /// Microseconds this session spent inside lock acquisition since the
    /// last [`Session::take_lock_wait_us`] — the per-request lock-wait
    /// attribution the server drains after each executed request.
    /// Accumulated only while the engine's telemetry is enabled.
    lock_wait_us: u64,
}

impl Session {
    /// Drain the lock-wait time accumulated since the last call.
    pub fn take_lock_wait_us(&mut self) -> u64 {
        std::mem::take(&mut self.lock_wait_us)
    }

    fn tree(&self) -> &SessionTree {
        &self.engine.tree
    }

    /// The top-level ancestor-or-self of `t`, once validated that `t`
    /// exists and this session began that top.
    fn owned_top(&self, t: TxId) -> Result<TxId, SessionError> {
        if t == TxId::ROOT || t.index() >= self.tree().len() {
            return Err(SessionError::UnknownTx(t));
        }
        let top = if self.tree().parent(t) == Some(TxId::ROOT) {
            t
        } else {
            self.tree().child_toward(TxId::ROOT, t)
        };
        if !self.tops.contains(&top) {
            return Err(SessionError::NotOwned(t));
        }
        Ok(top)
    }

    /// The highest (closest to `T0`, excluding `T0`) doomed-or-aborted
    /// ancestor-or-self of `t` — the transaction whose whole subtree is
    /// (or must become) gone.
    fn dead_ancestor(&self, t: TxId) -> Option<TxId> {
        let mut highest = None;
        let mut cur = Some(t);
        while let Some(u) = cur {
            if u == TxId::ROOT {
                break;
            }
            if self.engine.status.is_doomed(u) || self.engine.status.is_aborted(u) {
                highest = Some(u);
            }
            cur = self.tree().parent(u);
        }
        highest
    }

    /// Abort `v`'s subtree if not already aborted, in one critical section
    /// that discards every lock this session's bookkeeping says a
    /// descendant-or-self of `v` holds. Returns `v` for reporting.
    fn ensure_aborted(&mut self, v: TxId) -> TxId {
        if self.engine.status.is_aborted(v) {
            return v;
        }
        let (tree, mut discarded) = (&self.engine.tree, BTreeSet::new());
        self.held.retain(|&h, objs| {
            let dead = tree.is_ancestor(v, h);
            if dead {
                discarded.append(objs);
            }
            !dead
        });
        self.engine.table.lock().abort(v, discarded);
        v
    }

    /// Begin a fresh top-level transaction.
    pub fn begin_top(&mut self) -> Result<TxId, SessionError> {
        let t = self.engine.table.lock().create(TxId::ROOT, None)?;
        self.tops.insert(t);
        Ok(t)
    }

    /// Begin a child transaction under `parent` (which this session owns).
    pub fn begin_child(&mut self, parent: TxId) -> Result<BeginOutcome, SessionError> {
        self.owned_top(parent)?;
        if self.tree().is_access(parent) {
            return Err(SessionError::NotInner(parent));
        }
        if self.engine.status.is_committed(parent) {
            return Err(SessionError::Completed(parent));
        }
        if let Some(v) = self.dead_ancestor(parent) {
            return Ok(BeginOutcome::Aborted(self.ensure_aborted(v)));
        }
        let t = self.engine.table.lock().create(parent, None)?;
        Ok(BeginOutcome::Fresh(t))
    }

    /// Run one access under `parent`: create the access transaction,
    /// acquire its Moss lock (blocking this thread while it is queued),
    /// commit it, and inherit the lock to `parent`. A park-on-ticket
    /// wrapper over [`Session::access_start`].
    pub fn access(
        &mut self,
        parent: TxId,
        x: ObjId,
        op: Op,
    ) -> Result<AccessOutcome, SessionError> {
        match self.access_begin(parent, x, op, None)? {
            AccessStep::Done(out) => Ok(out),
            AccessStep::Parked(p) => {
                let (t, x) = (p.tx(), p.obj());
                let acquired = self.engine.table.park(p.ticket);
                self.note_lock_wait(p.since);
                Ok(self.finish_access(t, p.parent, x, acquired))
            }
        }
    }

    /// [`Session::access`] without blocking: when the lock request has to
    /// queue, the access comes back [`AccessStep::Parked`] and `wake`
    /// fires (from whichever thread releases the lock or dooms the
    /// waiter) once [`Session::access_resume`] can finish it. The wake may
    /// fire before this call returns — from a releaser on another thread,
    /// or from this call's own deadlock check when the enqueue closed a
    /// cycle and this access fell with the victim — so a wake that finds
    /// no [`ParkedAccess`] stored yet must not be lost (the server's wake
    /// only posts to the poll thread, which is the caller).
    pub fn access_start(
        &mut self,
        parent: TxId,
        x: ObjId,
        op: Op,
        wake: &WakeHandle,
    ) -> Result<AccessStep, SessionError> {
        self.access_begin(parent, x, op, Some(wake))
    }

    /// Finish a parked access whose wake fired. A request that has not
    /// resolved after all comes back [`AccessStep::Parked`] unchanged.
    pub fn access_resume(&mut self, p: ParkedAccess) -> AccessStep {
        let (t, x) = (p.tx(), p.obj());
        match self.engine.table.try_resolve(p.ticket) {
            Ok(acquired) => {
                self.note_lock_wait(p.since);
                AccessStep::Done(self.finish_access(t, p.parent, x, acquired))
            }
            Err(ticket) => AccessStep::Parked(ParkedAccess { ticket, ..p }),
        }
    }

    /// Withdraw a parked access (the client hung up). A request that had
    /// already resolved is finished normally, so a granted lock is owned
    /// by this session's bookkeeping and goes away with its top.
    pub fn access_cancel(&mut self, p: ParkedAccess) {
        let (t, x) = (p.tx(), p.obj());
        if let Some(acquired) = self.engine.table.cancel(p.ticket) {
            self.finish_access(t, p.parent, x, acquired);
        }
    }

    fn note_lock_wait(&mut self, since: Option<Instant>) {
        if let Some(since) = since {
            self.lock_wait_us += since.elapsed().as_micros() as u64;
        }
    }

    fn access_begin(
        &mut self,
        parent: TxId,
        x: ObjId,
        op: Op,
        wake: Option<&WakeHandle>,
    ) -> Result<AccessStep, SessionError> {
        if !op.is_rw_read() && !op.is_rw_write() {
            return Err(SessionError::NonRwOp);
        }
        if x.0 == u32::MAX {
            return Err(SessionError::BadObject(x));
        }
        self.owned_top(parent)?;
        if self.tree().is_access(parent) {
            return Err(SessionError::NotInner(parent));
        }
        if self.engine.status.is_committed(parent) {
            return Err(SessionError::Completed(parent));
        }
        if let Some(v) = self.dead_ancestor(parent) {
            let out = AccessOutcome::Aborted(self.ensure_aborted(v));
            return Ok(AccessStep::Done(out));
        }
        // Registered, created and requested in one critical section; a
        // request that queues has run the deadlock detector before it
        // returns.
        let mut eng = self.engine.table.lock();
        let t = eng.create(parent, Some((x, op.clone())))?;
        let acquisition = eng.try_acquire(t, x, &op, wake);
        drop(eng);
        let acquired = match acquisition {
            Acquisition::Granted(v) => Acquired::Granted(v),
            Acquisition::Doomed(d) => Acquired::Doomed(d),
            Acquisition::Queued(ticket) => {
                return Ok(AccessStep::Parked(ParkedAccess {
                    parent,
                    ticket,
                    since: self.engine.telemetry.is_timed().then(Instant::now),
                }));
            }
        };
        Ok(AccessStep::Done(self.finish_access(t, parent, x, acquired)))
    }

    /// The access's lock request resolved: commit it and pass the lock
    /// up (`COMMIT` through `REPORT_COMMIT`, one critical section), or
    /// abort the doomed subtree.
    fn finish_access(
        &mut self,
        t: TxId,
        parent: TxId,
        x: ObjId,
        acquired: Acquired,
    ) -> AccessOutcome {
        match acquired {
            Acquired::Doomed(d) => AccessOutcome::Aborted(self.ensure_aborted(d)),
            Acquired::Granted(v) => {
                if self.engine.status.try_commit(t) {
                    let mut eng = self.engine.table.lock();
                    eng.record(Action::Commit(t));
                    eng.release_inherit(t, [x]);
                    eng.record(Action::ReportCommit(t, v.clone()));
                    drop(eng);
                    self.held.entry(parent).or_default().insert(x);
                    AccessOutcome::Done(v)
                } else {
                    // The lock is `t`'s until its subtree's abort drops it.
                    self.held.entry(t).or_default().insert(x);
                    let d = self.dead_ancestor(t).unwrap_or(t);
                    AccessOutcome::Aborted(self.ensure_aborted(d))
                }
            }
        }
    }

    /// Commit `t` (top-level or inner): `REQUEST_COMMIT`, the status CAS,
    /// lock inheritance to the parent, `REPORT_COMMIT`, in one critical
    /// section — or the abort path when a deadlock check doomed `t` (or an
    /// ancestor) meanwhile.
    pub fn commit(&mut self, t: TxId) -> Result<CommitOutcome, SessionError> {
        self.owned_top(t)?;
        if self.tree().is_access(t) {
            return Err(SessionError::NotInner(t));
        }
        if self.engine.status.is_committed(t) {
            return Err(SessionError::Completed(t));
        }
        if let Some(v) = self.dead_ancestor(t) {
            return Ok(CommitOutcome::Aborted(self.ensure_aborted(v)));
        }
        let mut eng = self.engine.table.lock();
        eng.record(Action::RequestCommit(t, Value::Ok));
        if !self.engine.status.try_commit(t) {
            drop(eng);
            let d = self.dead_ancestor(t).unwrap_or(t);
            return Ok(CommitOutcome::Aborted(self.ensure_aborted(d)));
        }
        eng.record(Action::Commit(t));
        if let Some(objs) = self.held.remove(&t) {
            eng.release_inherit(t, objs.iter().copied());
            let parent = self.engine.tree.parent(t).expect("non-root commits");
            // What a top passes up to `T0` is released for good.
            if parent != TxId::ROOT {
                self.held.entry(parent).or_default().extend(objs);
            }
        }
        eng.record(Action::ReportCommit(t, Value::Ok));
        Ok(CommitOutcome::Committed)
    }

    /// Abort `t` at the client's request. Idempotent on already-aborted
    /// subtrees; refuses committed transactions.
    pub fn abort(&mut self, t: TxId) -> Result<(), SessionError> {
        self.owned_top(t)?;
        if self.tree().is_access(t) {
            return Err(SessionError::NotInner(t));
        }
        if self.engine.status.is_committed(t) {
            return Err(SessionError::Completed(t));
        }
        if let Some(v) = self.dead_ancestor(t) {
            self.ensure_aborted(v);
            return Ok(());
        }
        // Doom first so a racing deadlock check cannot pick it up twice,
        // then abort; `mark_doomed` failing means a race completed it — re-check.
        if !self.engine.status.mark_doomed(t) && self.engine.status.is_committed(t) {
            return Err(SessionError::Completed(t));
        }
        self.ensure_aborted(t);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::convict;
    use nt_serial::{ObjectTypes, RwRegister};
    use nt_sgt::{certify_recorded, ConflictSource};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn engine() -> Arc<SessionEngine> {
        SessionEngine::start(1024, 4, Duration::from_micros(200))
    }

    fn certify(e: &SessionEngine) -> nt_sgt::RecordedCertificate {
        let (tree, history) = e.history_snapshot();
        let types = ObjectTypes::uniform(tree.num_objects(), Arc::new(RwRegister::new(0)));
        certify_recorded(&tree, &history, &types, ConflictSource::ReadWrite)
    }

    #[test]
    fn one_session_nested_run_certifies() {
        let e = engine();
        let mut s = e.open_session();
        let top = s.begin_top().expect("top");
        let inner = match s.begin_child(top).expect("child") {
            BeginOutcome::Fresh(t) => t,
            BeginOutcome::Aborted(v) => panic!("unexpected abort at {v}"),
        };
        assert_eq!(
            s.access(inner, ObjId(0), Op::Write(5)).expect("write"),
            AccessOutcome::Done(Value::Ok)
        );
        assert_eq!(
            s.access(inner, ObjId(0), Op::Read).expect("read"),
            AccessOutcome::Done(Value::Int(5))
        );
        assert_eq!(s.commit(inner).expect("commit"), CommitOutcome::Committed);
        assert_eq!(s.commit(top).expect("commit"), CommitOutcome::Committed);
        assert!(s.held.is_empty(), "a committed top leaves no bookkeeping");
        let cert = certify(&e);
        assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
        assert_eq!(cert.violations, 0);
    }

    /// `ObjId(u32::MAX)` is refused before anything registers, and an id
    /// just below it costs nothing per object: the snapshot, its frozen
    /// tree and its certification stay small.
    #[test]
    fn object_ids_at_the_top_of_the_range_are_refused_or_cheap() {
        let e = engine();
        let mut s = e.open_session();
        let top = s.begin_top().expect("top");
        let before = e.tx_count();
        let last = ObjId(u32::MAX);
        assert_eq!(
            s.access(top, last, Op::Write(1)),
            Err(SessionError::BadObject(last))
        );
        assert_eq!(e.tx_count(), before, "a refusal registers nothing");
        let high = ObjId(u32::MAX - 1);
        assert_eq!(
            s.access(top, high, Op::Write(7)).expect("write"),
            AccessOutcome::Done(Value::Ok)
        );
        assert_eq!(
            s.access(top, high, Op::Read).expect("read"),
            AccessOutcome::Done(Value::Int(7))
        );
        assert_eq!(s.commit(top).expect("commit"), CommitOutcome::Committed);
        let (tree, _) = e.history_snapshot();
        assert_eq!(tree.num_objects(), u32::MAX as usize);
        let cert = certify(&e);
        assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
    }

    #[test]
    fn sibling_read_visibility_and_isolation() {
        let e = engine();
        let mut a = e.open_session();
        let mut b = e.open_session();
        let ta = a.begin_top().expect("top");
        let tb = b.begin_top().expect("top");
        // a writes object 0 and commits; b then reads the committed value.
        assert_eq!(
            a.access(ta, ObjId(0), Op::Write(9)).expect("write"),
            AccessOutcome::Done(Value::Ok)
        );
        assert_eq!(a.commit(ta).expect("commit"), CommitOutcome::Committed);
        assert_eq!(
            b.access(tb, ObjId(0), Op::Read).expect("read"),
            AccessOutcome::Done(Value::Int(9))
        );
        assert_eq!(b.commit(tb).expect("commit"), CommitOutcome::Committed);
        assert!(a.held.is_empty() && b.held.is_empty());
        let cert = certify(&e);
        assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
    }

    #[test]
    fn ownership_and_protocol_errors_are_typed() {
        let e = engine();
        let mut a = e.open_session();
        let mut b = e.open_session();
        let ta = a.begin_top().expect("top");
        assert_eq!(b.begin_child(ta), Err(SessionError::NotOwned(ta)));
        assert_eq!(
            a.access(ta, ObjId(0), Op::GetCount),
            Err(SessionError::NonRwOp)
        );
        assert_eq!(
            a.begin_child(TxId(999)),
            Err(SessionError::UnknownTx(TxId(999)))
        );
        assert_eq!(a.commit(ta).expect("commit"), CommitOutcome::Committed);
        assert_eq!(a.commit(ta), Err(SessionError::Completed(ta)));
    }

    #[test]
    fn client_abort_discards_subtree_work() {
        let e = engine();
        let mut s = e.open_session();
        let top = s.begin_top().expect("top");
        assert_eq!(
            s.access(top, ObjId(1), Op::Write(42)).expect("write"),
            AccessOutcome::Done(Value::Ok)
        );
        s.abort(top).expect("abort");
        // The write is gone: a fresh top reads the initial value.
        let top2 = s.begin_top().expect("top");
        assert_eq!(
            s.access(top2, ObjId(1), Op::Read).expect("read"),
            AccessOutcome::Done(Value::Int(0))
        );
        assert_eq!(s.commit(top2).expect("commit"), CommitOutcome::Committed);
        // Ops on the aborted subtree stay benign.
        assert_eq!(
            s.begin_child(top).expect("begin on aborted"),
            BeginOutcome::Aborted(top)
        );
        let cert = certify(&e);
        assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
    }

    /// Two sessions driven from ONE thread: the second's access parks as
    /// a continuation, the first's commit grants it in place and fires its
    /// wake, and the resume finishes it — no thread ever blocks.
    #[test]
    fn parked_access_resumes_on_the_releasing_commit_single_threaded() {
        let e = engine();
        let mut a = e.open_session();
        let mut b = e.open_session();
        let ta = a.begin_top().expect("top");
        let tb = b.begin_top().expect("top");
        assert_eq!(
            a.access(ta, ObjId(0), Op::Write(3)).expect("write"),
            AccessOutcome::Done(Value::Ok)
        );
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        let wake = WakeHandle::new(42, move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        let parked = match b.access_start(tb, ObjId(0), Op::Read, &wake).expect("read") {
            AccessStep::Parked(p) => p,
            AccessStep::Done(out) => panic!("must park behind a's write lock, got {out:?}"),
        };
        assert_eq!(parked.obj(), ObjId(0));
        let wf = e.wait_for_json();
        assert!(
            wf.contains("\"conn\":42") && wf.contains("\"obj\":0"),
            "{wf}"
        );
        // Not resolved yet: a resume hands the continuation back.
        let parked = match b.access_resume(parked) {
            AccessStep::Parked(p) => p,
            AccessStep::Done(out) => panic!("resolved with the lock still held: {out:?}"),
        };
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert_eq!(a.commit(ta).expect("commit"), CommitOutcome::Committed);
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "the commit granted in place"
        );
        match b.access_resume(parked) {
            AccessStep::Done(out) => assert_eq!(out, AccessOutcome::Done(Value::Int(3))),
            AccessStep::Parked(_) => panic!("still parked after its wake fired"),
        }
        assert_eq!(b.commit(tb).expect("commit"), CommitOutcome::Committed);

        // A cancelled continuation leaves nothing queued.
        let tc = a.begin_top().expect("top");
        let td = b.begin_top().expect("top");
        assert_eq!(
            a.access(tc, ObjId(1), Op::Write(1)).expect("write"),
            AccessOutcome::Done(Value::Ok)
        );
        let AccessStep::Parked(p) = b
            .access_start(td, ObjId(1), Op::Write(2), &wake)
            .expect("w")
        else {
            panic!("must park");
        };
        b.access_cancel(p);
        b.abort(td).expect("abort");
        assert!(e.wait_for_json().contains("\"edges\":0"));
        assert_eq!(a.commit(tc).expect("commit"), CommitOutcome::Committed);
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "a cancelled ticket never wakes"
        );
        let cert = certify(&e);
        assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
    }

    #[test]
    fn cross_session_deadlock_is_broken_and_certifies() {
        let e = engine();
        let (x, y) = (ObjId(0), ObjId(1));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mk = |obj_first: ObjId, obj_second: ObjId| {
            let e = Arc::clone(&e);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut s = e.open_session();
                let top = s.begin_top().expect("top");
                let first = s.access(top, obj_first, Op::Write(1)).expect("first");
                barrier.wait();
                let second = s.access(top, obj_second, Op::Write(2)).expect("second");
                match (first, second) {
                    (AccessOutcome::Done(_), AccessOutcome::Done(_)) => {
                        matches!(s.commit(top).expect("commit"), CommitOutcome::Committed)
                    }
                    _ => false,
                }
            })
        };
        let h1 = mk(x, y);
        let h2 = mk(y, x);
        let c1 = h1.join().expect("session 1");
        let c2 = h2.join().expect("session 2");
        // At least one side commits; if both blocked, the second enqueue
        // doomed exactly one victim and the other side proceeded.
        assert!(c1 || c2, "deadlock must not take both transactions down");
        assert!(e.victims().len() <= 1, "{:?}", e.victims());
        assert_eq!(e.timeout_rescues(), 0);
        let cert = certify(&e);
        assert!(
            cert.is_serially_correct(),
            "deadlock-broken run must certify: {}",
            cert.verdict.name()
        );
        assert_eq!(cert.violations, 0);
    }

    /// Snapshots taken while other threads record are prefixes of β: a
    /// snapshot never holds a stamp without every stamp before it (an
    /// answer without the `CREATE` it answers, say).
    #[test]
    fn snapshots_taken_while_sessions_record_are_prefixes_of_the_history() {
        const THREADS: usize = 4;
        const TOPS: u32 = 150;
        const SNAPSHOTS: usize = 100;
        let e = SessionEngine::start(1 << 14, 4, Duration::ZERO);
        let snapshots: Vec<Vec<Action>> = std::thread::scope(|scope| {
            for i in 0..THREADS as u32 {
                let e = &e;
                scope.spawn(move || {
                    let mut s = e.open_session();
                    for k in 0..TOPS {
                        let top = s.begin_top().expect("top");
                        let (x, y) = (ObjId((i + k) % 6), ObjId((i + 2 * k + 1) % 6));
                        let wrote = s.access(top, x, Op::Write(i64::from(k))).expect("w");
                        let read = s.access(top, y, Op::Read).expect("r");
                        if matches!(
                            (wrote, read),
                            (AccessOutcome::Done(_), AccessOutcome::Done(_))
                        ) {
                            s.commit(top).expect("commit");
                        }
                    }
                });
            }
            let e = &e;
            let snapper = scope.spawn(move || {
                (0..SNAPSHOTS)
                    .map(|_| e.history_snapshot().1)
                    .collect::<Vec<_>>()
            });
            snapper.join().expect("snapshots")
        });
        let (_, history) = e.history_snapshot();
        let torn = snapshots.iter().filter(|s| !history.starts_with(s)).count();
        assert_eq!(torn, 0, "{torn} of {SNAPSHOTS} snapshots are not a prefix");
        let cert = certify(&e);
        assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
    }

    /// A continuation wake nobody listens to (the tests resume by hand).
    fn noop_wake(owner: u64) -> WakeHandle {
        WakeHandle::new(owner, || {})
    }

    /// One detector pass over a fresh wait-for snapshot, by hand.
    fn scan_once<T: TreeView, U: TreeView>(
        tree: &T,
        status: &StatusTable,
        table: &LockTable<U>,
    ) -> Option<Victim> {
        convict(tree, status, &table.waiting_snapshot())
    }

    fn must_park(step: AccessStep) -> ParkedAccess {
        match step {
            AccessStep::Parked(p) => p,
            AccessStep::Done(out) => panic!("must park, got {out:?}"),
        }
    }

    fn no_cycle_stands(e: &SessionEngine) {
        assert_eq!(scan_once(&*e.tree, &e.status, &*e.table), None);
    }

    /// Resume the parked accesses in turn until every one has finished —
    /// a victim's as `Aborted(top)`, a survivor's with its grant, after
    /// which its top commits (releasing whoever waits on it). Returns the
    /// tops that committed.
    fn finish_all(mut pending: Vec<(&mut Session, TxId, ParkedAccess)>) -> Vec<TxId> {
        let mut committed = Vec::new();
        while !pending.is_empty() {
            let before = pending.len();
            let mut still = Vec::new();
            for (s, top, p) in pending {
                match s.access_resume(p) {
                    AccessStep::Parked(p) => still.push((s, top, p)),
                    AccessStep::Done(AccessOutcome::Aborted(v)) => assert_eq!(v, top),
                    AccessStep::Done(AccessOutcome::Done(_)) => {
                        assert_eq!(s.commit(top).expect("commit"), CommitOutcome::Committed);
                        committed.push(top);
                    }
                }
            }
            pending = still;
            assert!(pending.len() < before, "a parked access never resolves");
        }
        committed
    }

    /// One enqueue closes two cycles: a writer queues behind two readers
    /// that each wait on the writer's own lock. A single detector pass
    /// dooms one reader and leaves the other cycle standing forever; the
    /// loop in `detect` does not.
    #[test]
    fn one_enqueue_closing_two_cycles_leaves_none_standing() {
        let e = engine();
        let (x, y) = (ObjId(0), ObjId(1));
        let wake = noop_wake(7);
        let mut w = e.open_session();
        let mut r1 = e.open_session();
        let mut r2 = e.open_session();
        let tw = w.begin_top().expect("top");
        let t1 = r1.begin_top().expect("top");
        let t2 = r2.begin_top().expect("top");
        assert_eq!(
            w.access(tw, y, Op::Write(1)).expect("write y"),
            AccessOutcome::Done(Value::Ok)
        );
        for (s, t) in [(&mut r1, t1), (&mut r2, t2)] {
            assert_eq!(
                s.access(t, x, Op::Read).expect("read x"),
                AccessOutcome::Done(Value::Int(0))
            );
        }
        let p1 = must_park(r1.access_start(t1, y, Op::Read, &wake).expect("read y"));
        let p2 = must_park(r2.access_start(t2, y, Op::Read, &wake).expect("read y"));
        assert!(e.victims().is_empty(), "no cycle before the writer queues");
        // The closing enqueue.
        let pw = must_park(w.access_start(tw, x, Op::Write(2), &wake).expect("write x"));
        no_cycle_stands(&e);
        let victims: BTreeSet<TxId> = e.victims().iter().map(|v| v.victim).collect();
        assert!(
            victims.len() == 2 || victims == BTreeSet::from([tw]),
            "two cycles fall to two victims, or to the writer alone: {victims:?}"
        );
        let committed = finish_all(vec![(&mut w, tw, pw), (&mut r1, t1, p1), (&mut r2, t2, p2)]);
        assert_eq!(committed.len() + victims.len(), 3);
        assert!(committed.iter().all(|t| !victims.contains(t)));
        assert!(e.wait_for_json().contains("\"edges\":0"));
        let cert = certify(&e);
        assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
    }

    /// A three-party ring closes at the third enqueue, which dooms exactly
    /// one top; the other two commit.
    #[test]
    fn three_party_ring_dooms_one_victim_at_the_closing_enqueue() {
        let e = engine();
        let wake = noop_wake(9);
        let mut sessions: Vec<Session> = (0..3).map(|_| e.open_session()).collect();
        let mut pending = Vec::new();
        for (i, s) in sessions.iter_mut().enumerate() {
            let top = s.begin_top().expect("top");
            assert_eq!(
                s.access(top, ObjId(i as u32), Op::Write(1)).expect("own"),
                AccessOutcome::Done(Value::Ok)
            );
            pending.push((s, top));
        }
        // Session i asks for object i+1: A→B and B→C park, C→A closes.
        let mut parked = Vec::new();
        for (i, (s, top)) in pending.into_iter().enumerate() {
            assert!(e.victims().is_empty(), "no victim before enqueue {i}");
            let next = ObjId((i as u32 + 1) % 3);
            let step = s.access_start(top, next, Op::Write(2), &wake);
            parked.push((s, top, must_park(step.expect("next"))));
        }
        let victims = e.victims();
        assert_eq!(victims.len(), 1, "{victims:?}");
        no_cycle_stands(&e);
        let tops: Vec<TxId> = parked.iter().map(|&(_, top, _)| top).collect();
        let committed = finish_all(parked);
        assert_eq!(committed.len(), 2);
        assert!(tops.contains(&victims[0].victim) && !committed.contains(&victims[0].victim));
        assert_eq!(e.victims().len(), 1);
        let cert = certify(&e);
        assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
    }

    /// Eight threads close one ring through the blocking `access`. Their
    /// `detect` calls race; serialized, they convict exactly one top.
    /// Unserialized, a second caller finds the first victim already doomed
    /// and convicts the next edge's blocker as well.
    #[test]
    fn eight_thread_ring_through_blocking_access_dooms_one_victim() {
        const N: usize = 8;
        for rep in 0..20 {
            let e = engine();
            let barrier = std::sync::Barrier::new(N);
            let commits: usize = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..N)
                    .map(|i| {
                        let (e, barrier) = (&e, &barrier);
                        scope.spawn(move || {
                            let mut s = e.open_session();
                            let top = s.begin_top().expect("top");
                            let own = s.access(top, ObjId(i as u32), Op::Write(1));
                            assert_eq!(own.expect("own"), AccessOutcome::Done(Value::Ok));
                            barrier.wait();
                            let next = ObjId(((i + 1) % N) as u32);
                            match s.access(top, next, Op::Write(2)).expect("next") {
                                AccessOutcome::Done(_) => {
                                    let out = s.commit(top).expect("commit");
                                    usize::from(out == CommitOutcome::Committed)
                                }
                                AccessOutcome::Aborted(_) => 0,
                            }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("ring")).sum()
            });
            let victims = e.victims();
            assert_eq!(victims.len(), 1, "rep {rep}: {victims:?}");
            assert_eq!(commits, N - 1, "rep {rep}");
            assert_eq!(e.timeout_rescues(), 0, "rep {rep}");
            let cert = certify(&e);
            assert!(cert.is_serially_correct(), "rep {rep}");
        }
    }
}
