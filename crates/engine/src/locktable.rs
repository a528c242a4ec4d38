//! Sharded Moss lock table with non-blocking, grant-in-place waits.
//!
//! Each shard owns a disjoint slice of the objects (`object_id & mask`)
//! behind one mutex, so lock traffic on disjoint objects never contends on
//! a shared line. Grant decisions use the exact
//! [`nt_locking::moss_precondition`] the simulated `M1_X` automaton uses:
//! an access is granted only when every conflicting lockholder is an
//! ancestor.
//!
//! ## Fairness: grant in place
//!
//! A request that cannot be granted on arrival is *queued*, not blocked:
//! [`LockTable::try_acquire`] returns [`Acquisition::Queued`] with a
//! [`Ticket`]. Waiters sit in ticket (arrival) order. Whoever changes an
//! object's lock state — `release_inherit`, `discard`, a cancelled
//! ticket, the detector's [`LockTable::doom_sweep`] — walks that object's
//! queue *under the shard mutex* and resolves every waiter it can:
//! a doomed one to [`Acquired::Doomed`], an eligible one (Moss
//! precondition holds) to [`Acquired::Granted`], inserting the lock and
//! stamping the `REQUEST_COMMIT` right there, exactly as an immediate
//! grant does. The walk is earliest-eligible: strict FIFO would be wrong
//! under the ancestor rules (a child's request is often eligible while an
//! unrelated earlier waiter is not, and parking the child behind it can
//! stall forever — the earlier waiter may be waiting on the child's own
//! subtree to finish), so an ineligible waiter is skipped, not waited on.
//!
//! Because every state change settles the queue before releasing the
//! mutex, **no queued waiter is ever eligible** between critical
//! sections; a new arrival therefore only has to test its own
//! precondition, and there is no wakeup to lose — the resolver writes the
//! outcome into the ticket and fires its [`WakeHandle`] (a server
//! connection's resume) or signals its condvar (the blocking
//! [`LockTable::acquire`] wrapper). One forward pass suffices: a grant
//! only adds a holder, which can make no other waiter eligible.
//!
//! The blocking wrapper parks on its ticket with a long backstop timeout;
//! a grant first observed right after a timed-out park is counted in
//! [`LockTable::timeout_rescues`], which the stress tests pin at zero.

use crate::recorder::{History, SeqClock};
use crate::status::StatusTable;
use crate::tree_view::TreeView;
use nt_locking::{moss_blockers_by, moss_precondition_by};
use nt_model::rw::RwInitials;
use nt_model::{Action, ObjId, Op, TxId, TxTree, Value};
use nt_obs::TraceHandle;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a lock request resolved.
#[derive(Debug, PartialEq, Eq)]
pub enum Acquired {
    /// Lock granted; the value is the access's `REQUEST_COMMIT` return
    /// value (the deepest tentative version for a read, `OK` for a write).
    Granted(Value),
    /// While (or before) waiting, the transaction discovered that an
    /// ancestor-or-self was doomed by the deadlock detector or the
    /// watchdog; no lock was taken. The worker must unwind to the named
    /// transaction's frame and abort there.
    Doomed(TxId),
}

/// What [`LockTable::try_acquire`] returns: resolved now, or queued.
pub enum Acquisition {
    /// Granted on arrival (see [`Acquired::Granted`]).
    Granted(Value),
    /// Doomed on arrival (see [`Acquired::Doomed`]).
    Doomed(TxId),
    /// A conflicting non-ancestor holds the lock: the request waits in
    /// the object's queue and resolves through the ticket.
    Queued(Ticket),
}

/// What a queued request fires when it resolves: a continuation's resume
/// hook, plus the label diagnostics show for its owner (the server passes
/// the connection id). Fired under the shard mutex, so it must not call
/// back into the lock table — push to a queue, wake a thread, return.
#[derive(Clone)]
pub struct WakeHandle {
    owner: u64,
    wake: Arc<dyn Fn() + Send + Sync>,
}

impl WakeHandle {
    /// A handle owned by `owner` that runs `wake` on resolution.
    pub fn new(owner: u64, wake: impl Fn() + Send + Sync + 'static) -> WakeHandle {
        WakeHandle {
            owner,
            wake: Arc::new(wake),
        }
    }

    /// Fire the hook (the lock table does on resolution; other parties a
    /// continuation waits on — the certifier's drain barrier — may too).
    pub fn wake(&self) {
        (self.wake)();
    }
}

/// Where a queued request's outcome lands.
struct TicketCell {
    outcome: Mutex<Option<Acquired>>,
    /// The blocking wrapper parks here.
    resolved: Condvar,
    wake: Option<WakeHandle>,
}

impl TicketCell {
    fn resolve(&self, outcome: Acquired) {
        *self.outcome.lock().expect("ticket poisoned") = Some(outcome);
        self.resolved.notify_all();
        if let Some(w) = &self.wake {
            w.wake();
        }
    }
}

/// A queued lock request. Hand it back to the table — [`LockTable::
/// try_resolve`] after its wake fired, [`LockTable::park`] to block on
/// it, or [`LockTable::cancel`] to withdraw it; dropping it instead
/// leaves the request queued and its eventual grant unowned.
pub struct Ticket {
    t: TxId,
    x: ObjId,
    no: u64,
    cell: Arc<TicketCell>,
    /// Queue time, kept only while telemetry is enabled.
    since: Option<Instant>,
}

impl Ticket {
    /// The requesting access.
    pub fn tx(&self) -> TxId {
        self.t
    }

    /// The object it waits for.
    pub fn obj(&self) -> ObjId {
        self.x
    }
}

/// One queued request, in its object's arrival-ordered queue.
struct Waiter {
    ticket: u64,
    t: TxId,
    /// `Some(data)` for a write-like request, `None` for a read.
    write: Option<i64>,
    cell: Arc<TicketCell>,
}

/// One edge set of the wait-for relation: a queued request and the
/// lockholders currently blocking it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitEdge {
    /// The queued access.
    pub waiter: TxId,
    /// The object it waits for.
    pub obj: ObjId,
    /// Its [`WakeHandle`] owner label (0 for a blocking in-process wait).
    pub owner: u64,
    /// The non-ancestor holders of conflicting locks.
    pub blockers: Vec<TxId>,
}

/// Lock state of one object.
struct ObjLocks {
    /// Write-lockholders with their tentative values (the paper's
    /// `value` map). `T0` initially write-holds the initial value.
    write: BTreeMap<TxId, i64>,
    read: BTreeSet<TxId>,
    waiters: Vec<Waiter>,
    /// Grant times per holder, kept only while telemetry is enabled —
    /// feeds the hold-time histogram at release/discard.
    since: BTreeMap<TxId, Instant>,
}

impl ObjLocks {
    fn new(init: i64) -> Self {
        let mut write = BTreeMap::new();
        write.insert(TxId::ROOT, init);
        ObjLocks {
            write,
            read: BTreeSet::new(),
            waiters: Vec::new(),
            since: BTreeMap::new(),
        }
    }

    /// The tentative value a read observes: the deepest write-lockholder's
    /// (Lemma 9 makes it unique).
    fn read_value(&self, tree: &impl TreeView) -> i64 {
        *self
            .write
            .iter()
            .max_by_key(|(t, _)| tree.depth(**t))
            .expect("T0 always write-holds")
            .1
    }

    /// Moss' precondition for `t` against the current holders.
    fn eligible(&self, tree: &impl TreeView, t: TxId, write_like: bool) -> bool {
        moss_precondition_by(
            |a, b| tree.is_ancestor(a, b),
            t,
            write_like,
            self.write.keys().copied(),
            self.read.iter().copied(),
        )
    }

    /// Debug builds only: lockholders of `x` are pairwise related.
    fn check_lemma9(&self, tree: &impl TreeView, x: ObjId) {
        if !cfg!(debug_assertions) {
            return;
        }
        for &w in self.write.keys() {
            for other in self.write.keys().chain(self.read.iter()) {
                assert!(
                    tree.is_ancestor(w, *other) || tree.is_ancestor(*other, w),
                    "Lemma 9 violated at {x:?}: {w} vs {other} unrelated",
                );
            }
        }
    }
}

/// Per-shard lock-traffic counters, updated under the shard mutex (so a
/// [`LockTable::shard_counters`] snapshot of one shard is coherent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Lock grants on this shard.
    pub grants: u64,
    /// Acquires that queued on this shard.
    pub waits: u64,
    /// Total lock hold time released on this shard, microseconds
    /// (tracked only while telemetry is enabled).
    pub hold_us: u64,
}

struct ShardState {
    objects: BTreeMap<u32, ObjLocks>,
    next_ticket: u64,
    counters: ShardCounters,
}

/// How long the blocking wrapper parks before it re-settles its object's
/// queue itself. Grants are delivered by the resolver, so this is only a
/// watchdog on that argument: long enough never to fire in a healthy run.
const PARK_BACKSTOP: Duration = Duration::from_millis(250);

/// The sharded lock manager, generic over the tree representation: the
/// session engine passes a growable
/// [`SessionTree`](crate::session_tree::SessionTree); a frozen
/// `Arc<TxTree>` (the default) serves callers that drive the table
/// directly over a tree known up front.
pub struct LockTable<T: TreeView = Arc<TxTree>> {
    tree: T,
    status: Arc<StatusTable>,
    /// Object-level actions are recorded here while the shard mutex is
    /// held, so their stamps linearize each object exactly as the shard
    /// serialized the state changes they describe.
    history: Arc<History>,
    initials: RwInitials,
    shards: Vec<Mutex<ShardState>>,
    mask: usize,
    give_up: AtomicBool,
    granted: AtomicU64,
    blocked: AtomicU64,
    timeout_rescues: AtomicU64,
    telemetry: TraceHandle,
}

impl<T: TreeView> LockTable<T> {
    /// A table with `shards` shards (must be a nonzero power of two) that
    /// records into a bare history on `clock`.
    pub fn new(
        tree: T,
        status: Arc<StatusTable>,
        clock: Arc<SeqClock>,
        initials: RwInitials,
        shards: usize,
    ) -> Self {
        assert!(shards.is_power_of_two(), "shards must be a power of two");
        LockTable {
            tree,
            status,
            history: Arc::new(History::new(clock)),
            initials,
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ShardState {
                        objects: BTreeMap::new(),
                        next_ticket: 0,
                        counters: ShardCounters::default(),
                    })
                })
                .collect(),
            mask: shards - 1,
            give_up: AtomicBool::new(false),
            granted: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
            timeout_rescues: AtomicU64::new(0),
            telemetry: TraceHandle::disabled(),
        }
    }

    /// Attach a recorder (builder-style, before the table is shared): when
    /// it is a timed one, blocked intervals and hold times start feeding
    /// its `lock_blocked` / `lock_hold` histograms.
    pub fn with_telemetry(mut self, telemetry: TraceHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Record into `history`, the engine's one history (builder-style,
    /// before the table is shared).
    pub fn with_history(mut self, history: Arc<History>) -> Self {
        self.history = history;
        self
    }

    fn shard_of(&self, x: ObjId) -> &Mutex<ShardState> {
        &self.shards[x.index() & self.mask]
    }

    /// The transaction whose frame must abort if `t` may not proceed: the
    /// highest doomed ancestor-or-self, or — once the watchdog fired —
    /// `t`'s top-level ancestor.
    fn doom_of(&self, t: TxId) -> Option<TxId> {
        self.status.doomed_ancestor(&self.tree, t).or_else(|| {
            self.give_up
                .load(Ordering::Acquire)
                .then(|| self.tree.child_toward(TxId::ROOT, t))
        })
    }

    /// Give `t` its lock on `x` and stamp the `REQUEST_COMMIT` — the one
    /// grant path, for arrivals and queued waiters alike. The caller
    /// holds the shard mutex and has checked the precondition.
    fn grant(
        &self,
        x: ObjId,
        locks: &mut ObjLocks,
        counters: &mut ShardCounters,
        t: TxId,
        write: Option<i64>,
    ) -> Value {
        let value = match write {
            Some(data) => {
                locks.write.insert(t, data);
                Value::Ok
            }
            None => {
                let v = locks.read_value(&self.tree);
                locks.read.insert(t);
                Value::Int(v)
            }
        };
        if self.telemetry.is_timed() {
            locks.since.insert(t, Instant::now());
        }
        locks.check_lemma9(&self.tree, x);
        counters.grants += 1;
        self.history.record(Action::RequestCommit(t, value.clone()));
        self.granted.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Resolve every waiter of `x` that can be resolved now, in arrival
    /// order: doomed ones leave, eligible ones are granted in place. Runs
    /// under the shard mutex after every change to `x`'s lock state.
    fn settle(&self, x: ObjId, locks: &mut ObjLocks, counters: &mut ShardCounters) {
        let mut i = 0;
        while i < locks.waiters.len() {
            let (t, write) = (locks.waiters[i].t, locks.waiters[i].write);
            let outcome = if let Some(d) = self.doom_of(t) {
                Acquired::Doomed(d)
            } else if locks.eligible(&self.tree, t, write.is_some()) {
                Acquired::Granted(self.grant(x, locks, counters, t, write))
            } else {
                i += 1;
                continue;
            };
            locks.waiters.remove(i).cell.resolve(outcome);
        }
    }

    /// Request the lock access `t` needs for `op` on `x` without
    /// blocking: granted or doomed now, or queued behind the conflicting
    /// holders with `wake` fired on resolution. `op` must be a
    /// read/write-register operation.
    pub fn try_acquire(
        &self,
        t: TxId,
        x: ObjId,
        op: &Op,
        wake: Option<&WakeHandle>,
    ) -> Acquisition {
        let write =
            (!op.is_rw_read()).then(|| op.write_data().expect("write-like rw op carries data"));
        let mut guard = self.shard_of(x).lock().expect("shard poisoned");
        let st = &mut *guard;
        if let Some(d) = self.doom_of(t) {
            return Acquisition::Doomed(d);
        }
        let locks = st
            .objects
            .entry(x.0)
            .or_insert_with(|| ObjLocks::new(self.initials.initial(x)));
        // No queued waiter is eligible (every state change settles the
        // queue), so the arrival defers to nobody: its own precondition
        // decides.
        if locks.eligible(&self.tree, t, write.is_some()) {
            let v = self.grant(x, locks, &mut st.counters, t, write);
            return Acquisition::Granted(v);
        }
        let no = st.next_ticket;
        st.next_ticket += 1;
        let cell = Arc::new(TicketCell {
            outcome: Mutex::new(None),
            resolved: Condvar::new(),
            wake: wake.cloned(),
        });
        locks.waiters.push(Waiter {
            ticket: no,
            t,
            write,
            cell: Arc::clone(&cell),
        });
        st.counters.waits += 1;
        self.blocked.fetch_add(1, Ordering::Relaxed);
        Acquisition::Queued(Ticket {
            t,
            x,
            no,
            cell,
            since: self.telemetry.is_timed().then(Instant::now),
        })
    }

    /// A hold that began at `start` ends now.
    fn end_hold(&self, start: Instant, counters: &mut ShardCounters) {
        let us = start.elapsed().as_micros() as u64;
        counters.hold_us += us;
        self.telemetry.observe("lock_hold", us);
    }

    /// The queue → resolution interval of a resolved ticket.
    fn observe_blocked(&self, ticket: &Ticket) {
        if let Some(since) = ticket.since {
            self.telemetry
                .observe("lock_blocked", since.elapsed().as_micros() as u64);
        }
    }

    /// Take a queued request's outcome if it has resolved; otherwise hand
    /// the ticket back (its wake has not fired yet).
    pub fn try_resolve(&self, ticket: Ticket) -> Result<Acquired, Ticket> {
        let outcome = ticket.cell.outcome.lock().expect("ticket poisoned").take();
        match outcome {
            Some(a) => {
                self.observe_blocked(&ticket);
                Ok(a)
            }
            None => Err(ticket),
        }
    }

    /// Block the calling thread until the ticket resolves.
    pub fn park(&self, ticket: Ticket) -> Acquired {
        let mut rescued = false;
        loop {
            let guard = ticket.cell.outcome.lock().expect("ticket poisoned");
            let (mut guard, _) = ticket
                .cell
                .resolved
                .wait_timeout_while(guard, PARK_BACKSTOP, |o| o.is_none())
                .expect("ticket poisoned");
            if let Some(a) = guard.take() {
                drop(guard);
                if rescued {
                    self.timeout_rescues.fetch_add(1, Ordering::Relaxed);
                }
                self.observe_blocked(&ticket);
                return a;
            }
            drop(guard);
            // Timed out: settle the queue ourselves. An outcome that is
            // there right afterwards rode the backstop, not a resolver.
            self.resettle(ticket.x);
            rescued = ticket
                .cell
                .outcome
                .lock()
                .expect("ticket poisoned")
                .is_some();
        }
    }

    /// Acquire the lock access `t` needs for `op` on `x`, blocking until
    /// granted or doomed: [`try_acquire`](Self::try_acquire), then
    /// [`park`](Self::park) on the ticket.
    pub fn acquire(&self, t: TxId, x: ObjId, op: &Op) -> Acquired {
        match self.try_acquire(t, x, op, None) {
            Acquisition::Granted(v) => Acquired::Granted(v),
            Acquisition::Doomed(d) => Acquired::Doomed(d),
            Acquisition::Queued(ticket) => self.park(ticket),
        }
    }

    /// Withdraw a queued request (its owner is going away). `Some` means
    /// it had already resolved — a grant the caller now owns and must
    /// release like any other.
    pub fn cancel(&self, ticket: Ticket) -> Option<Acquired> {
        let mut guard = self.shard_of(ticket.x).lock().expect("shard poisoned");
        let st = &mut *guard;
        if let Some(locks) = st.objects.get_mut(&ticket.x.0) {
            locks.waiters.retain(|w| w.ticket != ticket.no);
            self.settle(ticket.x, locks, &mut st.counters);
        }
        drop(guard);
        ticket.cell.outcome.lock().expect("ticket poisoned").take()
    }

    /// Settle `x`'s queue outside any state change (the park backstop).
    fn resettle(&self, x: ObjId) {
        let mut guard = self.shard_of(x).lock().expect("shard poisoned");
        let st = &mut *guard;
        if let Some(locks) = st.objects.get_mut(&x.0) {
            self.settle(x, locks, &mut st.counters);
        }
    }

    /// `INFORM_COMMIT(t)` for every object in `objs`: move `t`'s locks
    /// (and tentative value) up to `parent(t)`, then grant whoever that
    /// unblocks.
    pub fn release_inherit(&self, t: TxId, objs: impl IntoIterator<Item = ObjId>) {
        let parent = self.tree.parent(t).expect("cannot inherit from T0");
        for x in objs {
            let mut guard = self.shard_of(x).lock().expect("shard poisoned");
            let ShardState {
                objects, counters, ..
            } = &mut *guard;
            let mut locks = objects.get_mut(&x.0);
            if let Some(locks) = locks.as_deref_mut() {
                if let Some(v) = locks.write.remove(&t) {
                    locks.write.insert(parent, v);
                }
                if locks.read.remove(&t) {
                    locks.read.insert(parent);
                }
                // `t`'s hold ends here; the inherited lock starts the
                // parent's hold clock (unless it already holds one).
                if let Some(start) = locks.since.remove(&t) {
                    self.end_hold(start, counters);
                    locks.since.entry(parent).or_insert_with(Instant::now);
                }
                locks.check_lemma9(&self.tree, x);
            }
            self.history.record(Action::InformCommit(x, t));
            if let Some(locks) = locks {
                self.settle(x, locks, counters);
            }
        }
    }

    /// `INFORM_ABORT(d)` for every object in `objs`: discard all locks held
    /// by descendants-or-self of `d`, then grant whoever that unblocks.
    pub fn discard(&self, d: TxId, objs: impl IntoIterator<Item = ObjId>) {
        for x in objs {
            let mut guard = self.shard_of(x).lock().expect("shard poisoned");
            let ShardState {
                objects, counters, ..
            } = &mut *guard;
            let mut locks = objects.get_mut(&x.0);
            if let Some(locks) = locks.as_deref_mut() {
                locks.write.retain(|h, _| !self.tree.is_ancestor(d, *h));
                locks.read.retain(|h| !self.tree.is_ancestor(d, *h));
                let dead: Vec<TxId> = locks
                    .since
                    .keys()
                    .copied()
                    .filter(|h| self.tree.is_ancestor(d, *h))
                    .collect();
                for h in dead {
                    if let Some(start) = locks.since.remove(&h) {
                        self.end_hold(start, counters);
                    }
                }
            }
            self.history.record(Action::InformAbort(x, d));
            if let Some(locks) = locks {
                self.settle(x, locks, counters);
            }
        }
    }

    /// Snapshot of the wait-for relation for the deadlock detector and
    /// the diagnostics dumps: each queued waiter with the lockholders
    /// currently blocking it. Shards are locked one at a time, so the
    /// snapshot is per-shard (not globally) consistent — the detector
    /// re-confirms any cycle by dooming through the status CAS, which
    /// refuses completed transactions.
    pub fn waiting_snapshot(&self) -> Vec<WaitEdge> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let st = shard.lock().expect("shard poisoned");
            for (&x, locks) in &st.objects {
                for w in &locks.waiters {
                    let blockers = moss_blockers_by(
                        |a, b| self.tree.is_ancestor(a, b),
                        w.t,
                        w.write.is_some(),
                        locks.write.keys().copied(),
                        locks.read.iter().copied(),
                    );
                    if !blockers.is_empty() {
                        out.push(WaitEdge {
                            waiter: w.t,
                            obj: ObjId(x),
                            owner: w.cell.wake.as_ref().map_or(0, |h| h.owner),
                            blockers,
                        });
                    }
                }
            }
        }
        out
    }

    /// Settle every queue (after the detector doomed a victim, so its
    /// queued requests resolve to [`Acquired::Doomed`] promptly).
    pub fn doom_sweep(&self) {
        for shard in &self.shards {
            let mut guard = shard.lock().expect("shard poisoned");
            let st = &mut *guard;
            for (&x, locks) in &mut st.objects {
                if !locks.waiters.is_empty() {
                    self.settle(ObjId(x), locks, &mut st.counters);
                }
            }
        }
    }

    /// Watchdog: make every current and future waiter give up.
    pub fn give_up(&self) {
        self.give_up.store(true, Ordering::Release);
        self.doom_sweep();
    }

    /// Did the watchdog fire?
    pub fn gave_up(&self) -> bool {
        self.give_up.load(Ordering::Acquire)
    }

    /// Lock grants so far.
    pub fn granted(&self) -> u64 {
        self.granted.load(Ordering::Relaxed)
    }

    /// Requests that queued.
    pub fn blocked(&self) -> u64 {
        self.blocked.load(Ordering::Relaxed)
    }

    /// Outcomes the blocking wrapper found only by settling the queue
    /// itself after a timed-out [`park`](Self::park) — nonzero means a
    /// resolver failed to deliver a grant and the backstop papered over
    /// it. Continuations ([`WakeHandle`]) have no backstop and never
    /// count here.
    pub fn timeout_rescues(&self) -> u64 {
        self.timeout_rescues.load(Ordering::Relaxed)
    }

    /// Per-shard lock-traffic counters (each shard's triple is snapshotted
    /// under its own mutex, so it is internally coherent).
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").counters)
            .collect()
    }
}
