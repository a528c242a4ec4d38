//! The Moss lock table behind the **engine lock**, with non-blocking,
//! grant-in-place waits.
//!
//! The table's one mutex, the engine lock, guards the engine's whole
//! mutable state: every object's lock state, the ticket counter, the one
//! [`History`] (with the live certifier it steps), the session tree's
//! append token, the victims list and the counters. A critical section is
//! one step of the one sequential machine Theorem 17 is stated about;
//! every public entry point takes the lock once, a session takes it once
//! per step, and under it DESIGN §8d's lock order only descends into
//! leaves. Grant decisions use the exact [`nt_locking::moss_precondition`]
//! the simulated `M1_X` automaton uses: an access is granted only when
//! every conflicting lockholder is an ancestor.
//!
//! ## Fairness: grant in place
//!
//! A request that cannot be granted on arrival is *queued*, not blocked:
//! [`LockTable::try_acquire`] returns [`Acquisition::Queued`] with a
//! [`Ticket`]. Waiters sit in ticket (arrival) order. Whoever changes an
//! object's lock state — `release_inherit`, `discard`, a cancelled
//! ticket, a detector sweep — walks that object's queue *in the same
//! critical section* and resolves every waiter it can:
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
//! lock, **no queued waiter is ever eligible** between critical
//! sections; a new arrival therefore only has to test its own
//! precondition, and there is no wakeup to lose — the resolver writes the
//! outcome into the ticket and fires its [`WakeHandle`] (a server
//! connection's resume) or signals its condvar (the blocking
//! [`LockTable::acquire`] wrapper). One forward pass suffices: a grant
//! only adds a holder, which can make no other waiter eligible.
//!
//! A wait-for cycle can only close when a request queues, so the critical
//! section that queues it runs the deadlock detector before it ends, over
//! one consistent cut of every queue. The blocking wrapper parks on its ticket with a long backstop timeout;
//! a grant first observed right after a timed-out park is counted in
//! [`LockTable::timeout_rescues`], which the stress tests pin at zero.

use crate::detector::{convict, Victim};
use crate::recorder::{History, SeqClock};
use crate::session_tree::{Appends, SessionTree, TreeError};
use crate::status::StatusTable;
use nt_locking::{moss_blockers_by, moss_precondition_by};
use nt_model::rw::RwInitials;
use nt_model::{Action, ObjId, Op, TreeView, TxId, TxTree, Value};
use nt_obs::TraceHandle;
use nt_sgt_live::LiveCertifier;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};
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
/// the connection id). Fired under the engine lock, so it must not call
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
    resolved: std::sync::Condvar,
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

/// Lock-traffic and detector counters, kept under the engine lock.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Lock grants.
    pub(crate) granted: u64,
    /// Requests that queued.
    pub(crate) blocked: u64,
    /// See [`LockTable::timeout_rescues`].
    pub(crate) timeout_rescues: u64,
    /// Lock hold time released, µs (tracked only while telemetry is on).
    pub(crate) hold_us: u64,
    /// One per request that queued, one per victim.
    pub(crate) detector_passes: u64,
}

/// What the engine lock guards besides the objects' lock state.
struct Ledger {
    history: History,
    /// The right to register names in the session tree (`None` over a
    /// tree known up front).
    appends: Option<Appends>,
    next_ticket: u64,
    /// The watchdog fired: every current and future waiter gives up.
    gave_up: bool,
    counters: Counters,
    /// Deadlock victims, in doom order.
    victims: Vec<Victim>,
}

/// The engine's mutable state: what the engine lock guards.
struct Engine {
    objects: BTreeMap<u32, ObjLocks>,
    ledger: Ledger,
}

/// How long the blocking wrapper parks before it re-settles its object's
/// queue itself. Grants are delivered by the resolver, so this is only a
/// watchdog on that argument: long enough never to fire in a healthy run.
const PARK_BACKSTOP: Duration = Duration::from_millis(250);

/// The lock manager, generic over the tree representation: the session
/// engine passes a growable
/// [`SessionTree`](crate::session_tree::SessionTree); a frozen
/// `Arc<TxTree>` (the default) serves callers that drive the table
/// directly over a tree known up front.
pub struct LockTable<T: TreeView = Arc<TxTree>> {
    tree: T,
    status: Arc<StatusTable>,
    initials: RwInitials,
    telemetry: TraceHandle,
    /// The engine lock.
    engine: Mutex<Engine>,
}

impl<T: TreeView> LockTable<T> {
    /// A table that records into a bare history on `clock`. `shards` is
    /// vestigial and read by nobody — there is one engine lock — but the
    /// signature is pinned by the benchmark crate until ROADMAP 6(a).
    pub fn new(
        tree: T,
        status: Arc<StatusTable>,
        clock: Arc<SeqClock>,
        initials: RwInitials,
        _shards: usize,
    ) -> Self {
        let telemetry = TraceHandle::disabled();
        let history = History::new(clock);
        LockTable::recording(tree, None, status, history, initials, telemetry)
    }

    /// A table whose engine lock also guards `history`, the engine's one
    /// history, and `appends`, the right to grow the tree. A timed
    /// `telemetry` recorder is fed blocked intervals and hold times (its
    /// `lock_blocked` / `lock_hold` histograms).
    pub(crate) fn recording(
        tree: T,
        appends: Option<Appends>,
        status: Arc<StatusTable>,
        history: History,
        initials: RwInitials,
        telemetry: TraceHandle,
    ) -> Self {
        LockTable {
            tree,
            status,
            initials,
            telemetry,
            engine: Mutex::new(Engine {
                objects: BTreeMap::new(),
                ledger: Ledger {
                    history,
                    appends,
                    next_ticket: 0,
                    gave_up: false,
                    counters: Counters::default(),
                    victims: Vec::new(),
                },
            }),
        }
    }

    /// Take the engine lock.
    pub(crate) fn lock(&self) -> Held<'_, T> {
        Held {
            table: self,
            eng: self.engine.lock().expect("engine lock poisoned"),
        }
    }

    /// The transaction whose frame must abort if `t` may not proceed: the
    /// highest doomed ancestor-or-self, or — once the watchdog fired —
    /// `t`'s top-level ancestor.
    fn doom_of(&self, led: &Ledger, t: TxId) -> Option<TxId> {
        self.status
            .doomed_ancestor(&self.tree, t)
            .or_else(|| led.gave_up.then(|| self.tree.child_toward(TxId::ROOT, t)))
    }

    /// Give `t` its lock on `x` and stamp the `REQUEST_COMMIT` — the one
    /// grant path, for arrivals and queued waiters alike. The caller
    /// holds the engine lock and has checked the precondition.
    fn grant(
        &self,
        x: ObjId,
        locks: &mut ObjLocks,
        led: &mut Ledger,
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
        led.counters.granted += 1;
        led.history.record(Action::RequestCommit(t, value.clone()));
        value
    }

    /// Resolve every waiter of `x` that can be resolved now, in arrival
    /// order: doomed ones leave, eligible ones are granted in place. Runs
    /// under the engine lock after every change to `x`'s lock state.
    fn settle(&self, x: ObjId, locks: &mut ObjLocks, led: &mut Ledger) {
        let mut i = 0;
        while i < locks.waiters.len() {
            let (t, write) = (locks.waiters[i].t, locks.waiters[i].write);
            let outcome = if let Some(d) = self.doom_of(led, t) {
                Acquired::Doomed(d)
            } else if locks.eligible(&self.tree, t, write.is_some()) {
                Acquired::Granted(self.grant(x, locks, led, t, write))
            } else {
                i += 1;
                continue;
            };
            locks.waiters.remove(i).cell.resolve(outcome);
        }
    }

    /// A hold that began at `start` ends now.
    fn end_hold(&self, start: Instant, counters: &mut Counters) {
        let us = start.elapsed().as_micros() as u64;
        counters.hold_us += us;
        self.telemetry.observe("lock_hold", us);
    }

    /// Request the lock access `t` needs for `op` on `x` without
    /// blocking: granted or doomed now, or queued behind the conflicting
    /// holders with `wake` fired on resolution. A queued request runs the
    /// deadlock detector before the engine lock is released. `op` must be
    /// a read/write-register operation.
    pub fn try_acquire(
        &self,
        t: TxId,
        x: ObjId,
        op: &Op,
        wake: Option<&WakeHandle>,
    ) -> Acquisition {
        self.lock().try_acquire(t, x, op, wake)
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
            let resolved = &ticket.cell.resolved;
            let guard = ticket.cell.outcome.lock().expect("ticket poisoned");
            let waited = resolved.wait_timeout_while(guard, PARK_BACKSTOP, |o| o.is_none());
            let (mut guard, _) = waited.expect("ticket poisoned");
            if let Some(a) = guard.take() {
                drop(guard);
                if rescued {
                    self.lock().eng.ledger.counters.timeout_rescues += 1;
                }
                self.observe_blocked(&ticket);
                return a;
            }
            drop(guard);
            // Timed out: settle the queue ourselves. An outcome that is
            // there right afterwards rode the backstop, not a resolver.
            self.lock().settle_queue(ticket.x, None);
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
        self.lock().settle_queue(ticket.x, Some(ticket.no));
        ticket.cell.outcome.lock().expect("ticket poisoned").take()
    }

    /// `INFORM_COMMIT(t)` for every object in `objs`: move `t`'s locks
    /// (and tentative value) up to `parent(t)`, then grant whoever that
    /// unblocks.
    pub fn release_inherit(&self, t: TxId, objs: impl IntoIterator<Item = ObjId>) {
        self.lock().release_inherit(t, objs);
    }

    /// `INFORM_ABORT(d)` for every object in `objs`: discard all locks held
    /// by descendants-or-self of `d`, then grant whoever that unblocks.
    pub fn discard(&self, d: TxId, objs: impl IntoIterator<Item = ObjId>) {
        self.lock().discard(d, objs);
    }

    /// Snapshot of the wait-for relation for the deadlock detector and
    /// the diagnostics dumps: each queued waiter, object by object in id
    /// order, with the lockholders currently blocking it — one consistent
    /// cut of every queue.
    pub fn waiting_snapshot(&self) -> Vec<WaitEdge> {
        self.lock().waiting()
    }

    /// Watchdog: make every current and future waiter give up.
    pub fn give_up(&self) {
        let mut eng = self.lock();
        eng.eng.ledger.gave_up = true;
        eng.doom_sweep();
    }

    /// Did the watchdog fire?
    pub fn gave_up(&self) -> bool {
        self.lock().eng.ledger.gave_up
    }

    /// Lock grants so far.
    pub fn granted(&self) -> u64 {
        self.lock().eng.ledger.counters.granted
    }

    /// Requests that queued.
    pub fn blocked(&self) -> u64 {
        self.lock().eng.ledger.counters.blocked
    }

    /// Outcomes the blocking wrapper found only by settling the queue
    /// itself after a timed-out [`park`](Self::park) — nonzero means a
    /// resolver failed to deliver a grant and the backstop papered over
    /// it. Continuations ([`WakeHandle`]) have no backstop and never
    /// count here.
    pub fn timeout_rescues(&self) -> u64 {
        self.lock().eng.ledger.counters.timeout_rescues
    }
}

/// The engine lock, held: one critical section. [`LockTable`]'s public
/// entry points each take it once; a session takes it once per step and
/// makes that step's calls through it.
pub(crate) struct Held<'a, T: TreeView> {
    table: &'a LockTable<T>,
    eng: MutexGuard<'a, Engine>,
}

impl<T: TreeView> Held<'_, T> {
    /// Record `action` into the one history.
    pub(crate) fn record(&mut self, action: Action) {
        self.eng.ledger.history.record(action);
    }

    /// The history so far: a prefix of β.
    pub(crate) fn snapshot(&self) -> Vec<Action> {
        self.eng.ledger.history.snapshot()
    }

    /// The live certifier the history steps, if one is mounted.
    pub(crate) fn certifier(&mut self) -> Option<&mut LiveCertifier> {
        self.eng.ledger.history.certifier()
    }

    /// Deadlock victims so far, in doom order.
    pub(crate) fn victims(&self) -> &[Victim] {
        &self.eng.ledger.victims
    }

    pub(crate) fn counters(&self) -> &Counters {
        &self.eng.ledger.counters
    }

    /// See [`LockTable::try_acquire`].
    pub(crate) fn try_acquire(
        &mut self,
        t: TxId,
        x: ObjId,
        op: &Op,
        wake: Option<&WakeHandle>,
    ) -> Acquisition {
        let table = self.table;
        let write =
            (!op.is_rw_read()).then(|| op.write_data().expect("write-like rw op carries data"));
        let Engine { objects, ledger } = &mut *self.eng;
        if let Some(d) = table.doom_of(ledger, t) {
            return Acquisition::Doomed(d);
        }
        let locks = objects
            .entry(x.0)
            .or_insert_with(|| ObjLocks::new(table.initials.initial(x)));
        // No queued waiter is eligible (every state change settles the
        // queue), so the arrival defers to nobody: its own precondition
        // decides.
        if locks.eligible(&table.tree, t, write.is_some()) {
            return Acquisition::Granted(table.grant(x, locks, ledger, t, write));
        }
        let no = ledger.next_ticket;
        ledger.next_ticket += 1;
        let cell = Arc::new(TicketCell {
            outcome: Mutex::new(None),
            resolved: std::sync::Condvar::new(),
            wake: wake.cloned(),
        });
        locks.waiters.push(Waiter {
            ticket: no,
            t,
            write,
            cell: Arc::clone(&cell),
        });
        ledger.counters.blocked += 1;
        let ticket = Ticket {
            t,
            x,
            no,
            cell,
            since: table.telemetry.is_timed().then(Instant::now),
        };
        self.detect();
        Acquisition::Queued(ticket)
    }

    /// Deadlock detection, run by the critical section whose request just
    /// queued — the only step that can close a wait-for cycle (every other
    /// change to lock state adds edges only into a group that is not
    /// waiting). Passes repeat until none finds a cycle, because one
    /// enqueue can close several and nobody rescans later; each victim is
    /// recorded and its queued requests resolved before the next pass.
    fn detect(&mut self) {
        loop {
            self.eng.ledger.counters.detector_passes += 1;
            let edges = self.waiting();
            let Some(v) = convict(&self.table.tree, &self.table.status, &edges) else {
                return;
            };
            self.eng.ledger.victims.push(v);
            self.doom_sweep();
        }
    }

    /// Settle `x`'s queue after withdrawing ticket `withdrawn`'s request
    /// (a cancel), or with no state change at all (the park backstop).
    fn settle_queue(&mut self, x: ObjId, withdrawn: Option<u64>) {
        let Engine { objects, ledger } = &mut *self.eng;
        if let Some(locks) = objects.get_mut(&x.0) {
            locks.waiters.retain(|w| Some(w.ticket) != withdrawn);
            self.table.settle(x, locks, ledger);
        }
    }

    /// See [`LockTable::release_inherit`].
    pub(crate) fn release_inherit(&mut self, t: TxId, objs: impl IntoIterator<Item = ObjId>) {
        let table = self.table;
        let parent = table.tree.parent(t).expect("cannot inherit from T0");
        let Engine { objects, ledger } = &mut *self.eng;
        for x in objs {
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
                    table.end_hold(start, &mut ledger.counters);
                    locks.since.entry(parent).or_insert_with(Instant::now);
                }
                locks.check_lemma9(&table.tree, x);
            }
            ledger.history.record(Action::InformCommit(x, t));
            if let Some(locks) = locks {
                table.settle(x, locks, ledger);
            }
        }
    }

    /// See [`LockTable::discard`].
    pub(crate) fn discard(&mut self, d: TxId, objs: impl IntoIterator<Item = ObjId>) {
        let table = self.table;
        let Engine { objects, ledger } = &mut *self.eng;
        for x in objs {
            let mut locks = objects.get_mut(&x.0);
            if let Some(locks) = locks.as_deref_mut() {
                locks.write.retain(|h, _| !table.tree.is_ancestor(d, *h));
                locks.read.retain(|h| !table.tree.is_ancestor(d, *h));
                let dead: Vec<TxId> = locks
                    .since
                    .keys()
                    .copied()
                    .filter(|h| table.tree.is_ancestor(d, *h))
                    .collect();
                for h in dead {
                    if let Some(start) = locks.since.remove(&h) {
                        table.end_hold(start, &mut ledger.counters);
                    }
                }
            }
            ledger.history.record(Action::InformAbort(x, d));
            if let Some(locks) = locks {
                table.settle(x, locks, ledger);
            }
        }
    }

    /// See [`LockTable::waiting_snapshot`].
    fn waiting(&self) -> Vec<WaitEdge> {
        let tree = &self.table.tree;
        let mut out = Vec::new();
        for (&x, locks) in &self.eng.objects {
            for w in &locks.waiters {
                let blockers = moss_blockers_by(
                    |a, b| tree.is_ancestor(a, b),
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
        out
    }

    /// Settle every queue, objects in id order (after a victim was doomed,
    /// so its queued requests resolve to [`Acquired::Doomed`] promptly).
    fn doom_sweep(&mut self) {
        let Engine { objects, ledger } = &mut *self.eng;
        for (&x, locks) in objects.iter_mut() {
            if !locks.waiters.is_empty() {
                self.table.settle(ObjId(x), locks, ledger);
            }
        }
    }
}

impl Held<'_, Arc<SessionTree>> {
    /// `REQUEST_CREATE(t)`, `CREATE(t)` for a fresh transaction `t` under
    /// `parent` (an access when `access` names its object and operation),
    /// registered in the same critical section: the tree slot is pushed
    /// (the live certifier reads the tree), the history tees the
    /// registration to the WAL, then both actions are recorded.
    pub(crate) fn create(
        &mut self,
        parent: TxId,
        access: Option<(ObjId, Op)>,
    ) -> Result<TxId, TreeError> {
        let tree = &self.table.tree;
        let led = &mut self.eng.ledger;
        let appends = led
            .appends
            .as_mut()
            .expect("a session table owns the tree's appends");
        let t = tree.add(appends, parent, access)?;
        led.history.register(t, parent, tree.access(t));
        led.history.record(Action::RequestCreate(t));
        led.history.record(Action::Create(t));
        Ok(t)
    }
}
