//! # nt-locking
//!
//! Moss' read/write locking algorithm for nested transactions (§5.2) — the
//! default concurrency control of Argus and Camelot, proved correct by the
//! paper's Theorem 17 — implemented as the generic object automaton `M1_X`.
//!
//! ## The algorithm
//!
//! `M1_X` maintains read-lockholders, write-lockholders, and one stored
//! value per write-lockholder (a stack of tentative versions along the
//! transaction tree):
//!
//! * an access may be answered only when every holder of a conflicting lock
//!   is an *ancestor* of the access — otherwise the access simply waits
//!   (its `REQUEST_COMMIT` is not enabled);
//! * a read returns the value of the *least* write-lockholder (the most
//!   deeply nested tentative version) and takes a read lock;
//! * a write stores its value under itself and takes a write lock;
//! * `INFORM_COMMIT(T)` passes `T`'s locks — and tentative value — up to
//!   `parent(T)` (lock inheritance);
//! * `INFORM_ABORT(T)` discards all locks held by descendants of `T`
//!   (recovery: the aborted subtree leaves no trace).
//!
//! The crate also provides an *exclusive-only* variant (reads take write
//! locks) used by experiment E7 to measure what the read/write distinction
//! buys.
//!
//! Lemma 9 (conflicting lockholders form an ancestor chain) is checked as a
//! debug-mode invariant after every step.

#![forbid(unsafe_code)]

use nt_automata::Component;
use nt_model::{Action, ObjId, TxId, TxTree, Value};
use nt_obs::{Event, LockClass, TraceHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Moss' lock-grant precondition (§5.2), shared between the simulated
/// object automaton [`MossObject`] and the threaded engine's lock table
/// (`nt-engine`): an access `t` may be granted only when every holder
/// of a conflicting lock is an ancestor of `t`. Write-like requests
/// conflict with both lock classes; read requests conflict with write
/// locks only.
pub fn moss_precondition(
    tree: &TxTree,
    t: TxId,
    write_like: bool,
    write_holders: impl IntoIterator<Item = TxId>,
    read_holders: impl IntoIterator<Item = TxId>,
) -> bool {
    moss_precondition_by(
        |a, b| tree.is_ancestor(a, b),
        t,
        write_like,
        write_holders,
        read_holders,
    )
}

/// [`moss_precondition`] parameterized over the ancestor relation instead
/// of a concrete [`TxTree`], so callers holding a different tree
/// representation (the engine's growable session tree) can apply the exact
/// same rule.
pub fn moss_precondition_by(
    is_ancestor: impl Fn(TxId, TxId) -> bool,
    t: TxId,
    write_like: bool,
    write_holders: impl IntoIterator<Item = TxId>,
    read_holders: impl IntoIterator<Item = TxId>,
) -> bool {
    let writes_ok = write_holders.into_iter().all(|h| is_ancestor(h, t));
    if !write_like {
        writes_ok
    } else {
        writes_ok && read_holders.into_iter().all(|h| is_ancestor(h, t))
    }
}

/// The lockholders that block access `t` under [`moss_precondition`]: the
/// non-ancestor holders of conflicting locks. Empty iff the precondition
/// holds.
pub fn moss_blockers(
    tree: &TxTree,
    t: TxId,
    write_like: bool,
    write_holders: impl IntoIterator<Item = TxId>,
    read_holders: impl IntoIterator<Item = TxId>,
) -> Vec<TxId> {
    moss_blockers_by(
        |a, b| tree.is_ancestor(a, b),
        t,
        write_like,
        write_holders,
        read_holders,
    )
}

/// [`moss_blockers`] parameterized over the ancestor relation (see
/// [`moss_precondition_by`]).
pub fn moss_blockers_by(
    is_ancestor: impl Fn(TxId, TxId) -> bool,
    t: TxId,
    write_like: bool,
    write_holders: impl IntoIterator<Item = TxId>,
    read_holders: impl IntoIterator<Item = TxId>,
) -> Vec<TxId> {
    let mut blockers: Vec<TxId> = write_holders
        .into_iter()
        .filter(|&h| !is_ancestor(h, t))
        .collect();
    if write_like {
        blockers.extend(read_holders.into_iter().filter(|&h| !is_ancestor(h, t)));
    }
    blockers
}

/// Locking discipline: Moss read/write locks, or exclusive-only (ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// §5.2: reads take read locks, writes take write locks.
    ReadWrite,
    /// Every access takes a write lock (reads still return the stacked
    /// value). Baseline for experiment E7.
    Exclusive,
}

/// Moss' read/write locking object automaton `M1_X`.
pub struct MossObject {
    tree: Arc<TxTree>,
    x: ObjId,
    mode: LockMode,
    created: BTreeSet<TxId>,
    commit_requested: BTreeSet<TxId>,
    /// `write_lockholders` with the paper's `value` map folded in:
    /// holder → its tentative value.
    write_lockholders: BTreeMap<TxId, i64>,
    read_lockholders: BTreeSet<TxId>,
    /// Transactions whose `INFORM_ABORT` this object has received.
    /// Accesses that are descendants of one (*local orphans*, §5.3) are
    /// never answered — a sound strengthening of M1's preconditions that
    /// keeps late orphan requests from acquiring unreclaimable locks.
    aborted_seen: BTreeSet<TxId>,
    /// Observability sink (disabled by default; see `nt-obs`).
    trace: TraceHandle,
}

impl MossObject {
    /// A fresh `M1_X` for object `x` with initial value `init`
    /// (the start state has `T0` holding a write lock on `init`).
    pub fn new(tree: Arc<TxTree>, x: ObjId, init: i64, mode: LockMode) -> Self {
        let mut write_lockholders = BTreeMap::new();
        write_lockholders.insert(TxId::ROOT, init);
        MossObject {
            tree,
            x,
            mode,
            created: BTreeSet::new(),
            commit_requested: BTreeSet::new(),
            write_lockholders,
            read_lockholders: BTreeSet::new(),
            aborted_seen: BTreeSet::new(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Attach an observability sink: lock acquisitions, inheritances, and
    /// abort-time discards are journaled through it.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Crash–restart recovery: reconstruct an `M1_X` whose volatile state
    /// (lock tables, tentative values, orphan bookkeeping) was lost, by
    /// replaying this object's slice of the recorded behavior — its
    /// `CREATE`s, answered `REQUEST_COMMIT`s, and `INFORM_*` prefix, in
    /// recorded order. The replay runs untraced (no journal re-emission or
    /// metric double counting); the returned automaton is bitwise
    /// equivalent to the pre-crash one because `M1_X` is a deterministic
    /// function of its input/output history.
    pub fn recovered_from(
        tree: Arc<TxTree>,
        x: ObjId,
        init: i64,
        mode: LockMode,
        behavior: &[Action],
    ) -> (Self, u64) {
        let mut o = MossObject::new(tree, x, init, mode);
        let mut replayed = 0u64;
        for a in behavior {
            if o.is_input(a) || o.is_output(a) {
                o.apply(a);
                replayed += 1;
            }
        }
        (o, replayed)
    }

    /// The least (deepest) write-lockholder. The write-lockholders always
    /// form an ancestor chain (Lemma 9), so this is the unique holder that
    /// is a descendant of all others.
    fn least_write_lockholder(&self) -> TxId {
        *self
            .write_lockholders
            .iter()
            .max_by_key(|(t, _)| self.tree.depth(**t))
            .expect("T0 always holds a write lock")
            .0
    }

    /// Current value a read would observe (inspection).
    pub fn current_value(&self) -> i64 {
        self.write_lockholders[&self.least_write_lockholder()]
    }

    /// The lock chain invariant of Lemma 9: every pair drawn from
    /// write-lockholders × (read ∪ write)-lockholders is ancestor-related.
    fn check_lemma9(&self) {
        for &w in self.write_lockholders.keys() {
            for other in self
                .write_lockholders
                .keys()
                .chain(self.read_lockholders.iter())
            {
                assert!(
                    self.tree.is_ancestor(w, *other) || self.tree.is_ancestor(*other, w),
                    "Lemma 9 violated at {:?}: {w} vs {other} unrelated",
                    self.x
                );
            }
        }
    }

    /// Is `t` a local orphan at this object (§5.3): has an ancestor whose
    /// `INFORM_ABORT` was received here?
    pub fn is_local_orphan(&self, t: TxId) -> bool {
        self.tree
            .ancestors(t)
            .any(|u| self.aborted_seen.contains(&u))
    }

    /// Is the lock precondition for access `t` met?
    fn lock_precondition(&self, t: TxId) -> bool {
        let op = self
            .tree
            .op_of(t)
            .expect("created only holds accesses of x (is_input admits Create(t) only then)");
        let write_like = !op.is_rw_read() || self.mode == LockMode::Exclusive;
        moss_precondition(
            &self.tree,
            t,
            write_like,
            self.write_lockholders.keys().copied(),
            self.read_lockholders.iter().copied(),
        )
    }

    /// Accesses created but not yet answered whose locks are unavailable
    /// (inspection; the simulator's deadlock detector uses this).
    pub fn waiting(&self) -> Vec<(TxId, Vec<TxId>)> {
        let mut out = Vec::new();
        for &t in self.created.difference(&self.commit_requested) {
            if self.is_local_orphan(t) {
                continue;
            }
            if !self.lock_precondition(t) {
                let op = self.tree.op_of(t).expect(
                    "created only holds accesses of x (is_input admits Create(t) only then)",
                );
                let write_like = !op.is_rw_read() || self.mode == LockMode::Exclusive;
                let blockers = moss_blockers(
                    &self.tree,
                    t,
                    write_like,
                    self.write_lockholders.keys().copied(),
                    self.read_lockholders.iter().copied(),
                );
                out.push((t, blockers));
            }
        }
        out
    }

    /// Lockholders (inspection).
    pub fn lockholders(&self) -> (Vec<TxId>, Vec<TxId>) {
        (
            self.write_lockholders.keys().copied().collect(),
            self.read_lockholders.iter().copied().collect(),
        )
    }
}

impl Component for MossObject {
    fn name(&self) -> String {
        format!("M1({})", self.x)
    }

    fn is_input(&self, a: &Action) -> bool {
        match a {
            Action::Create(t) => self.tree.object_of(*t) == Some(self.x),
            Action::InformCommit(x, t) | Action::InformAbort(x, t) => {
                *x == self.x && *t != TxId::ROOT
            }
            _ => false,
        }
    }

    fn is_output(&self, a: &Action) -> bool {
        matches!(a, Action::RequestCommit(t, _) if self.tree.object_of(*t) == Some(self.x))
    }

    fn apply(&mut self, a: &Action) {
        match a {
            Action::Create(t) => {
                self.created.insert(*t);
            }
            Action::InformCommit(_, t) => {
                // Pass locks (and tentative value) up to the parent.
                let mut inherited = false;
                if let Some(v) = self.write_lockholders.remove(t) {
                    let p = self
                        .tree
                        .parent(*t)
                        .expect("is_input rejects InformCommit(T0), so t has a parent");
                    self.write_lockholders.insert(p, v);
                    inherited = true;
                }
                if self.read_lockholders.remove(t) {
                    let p = self
                        .tree
                        .parent(*t)
                        .expect("is_input rejects InformCommit(T0), so t has a parent");
                    self.read_lockholders.insert(p);
                    inherited = true;
                }
                if inherited && self.trace.enabled() {
                    let p = self
                        .tree
                        .parent(*t)
                        .expect("is_input rejects InformCommit(T0), so t has a parent");
                    self.trace.record(Event::LockInherited {
                        obj: self.x.0,
                        tx: t.0,
                        to: p.0,
                    });
                }
            }
            Action::InformAbort(_, t) => {
                self.aborted_seen.insert(*t);
                let tree = &self.tree;
                let t = *t;
                let before = self.write_lockholders.len() + self.read_lockholders.len();
                self.write_lockholders
                    .retain(|&h, _| !tree.is_ancestor(t, h));
                self.read_lockholders.retain(|&h| !tree.is_ancestor(t, h));
                let discarded =
                    before - (self.write_lockholders.len() + self.read_lockholders.len());
                if self.trace.enabled() {
                    self.trace.record(Event::AbortApplied {
                        obj: self.x.0,
                        tx: t.0,
                        discarded: discarded as u64,
                    });
                }
            }
            Action::RequestCommit(t, v) => {
                debug_assert!(self.lock_precondition(*t));
                self.commit_requested.insert(*t);
                let op = self
                    .tree
                    .op_of(*t)
                    .expect("RequestCommit is shared only for accesses of x (is_output)");
                let class = match op.write_data() {
                    Some(d) => {
                        debug_assert_eq!(*v, Value::Ok);
                        self.write_lockholders.insert(*t, d);
                        LockClass::Write
                    }
                    None => {
                        debug_assert_eq!(*v, Value::Int(self.current_value()));
                        if self.mode == LockMode::Exclusive {
                            // Exclusive variant: the read takes a write lock
                            // carrying the unchanged current value.
                            let cur = self.current_value();
                            self.write_lockholders.insert(*t, cur);
                        } else {
                            self.read_lockholders.insert(*t);
                        }
                        LockClass::Read
                    }
                };
                if self.trace.enabled() {
                    self.trace.record(Event::LockAcquired {
                        obj: self.x.0,
                        tx: t.0,
                        class,
                    });
                    self.trace
                        .add_depth("lock.acquired", self.tree.depth(*t), 1);
                }
            }
            _ => unreachable!("M1 shares no other action"),
        }
        if cfg!(debug_assertions) {
            self.check_lemma9();
        }
    }

    fn enabled_outputs(&self, buf: &mut Vec<Action>) {
        for &t in self.created.difference(&self.commit_requested) {
            if self.is_local_orphan(t) || !self.lock_precondition(t) {
                continue;
            }
            let op = self
                .tree
                .op_of(t)
                .expect("created only holds accesses of x (is_input admits Create(t) only then)");
            let v = match op.write_data() {
                Some(_) => Value::Ok,
                None => Value::Int(self.current_value()),
            };
            buf.push(Action::RequestCommit(t, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_model::Op;

    /// T0 ── a ── (w: write 5, r1: read) ; T0 ── b ── r2: read
    fn setup(mode: LockMode) -> (Arc<TxTree>, MossObject, TxId, TxId, TxId, TxId, TxId) {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let w = tree.add_access(a, x, Op::Write(5));
        let r1 = tree.add_access(a, x, Op::Read);
        let r2 = tree.add_access(b, x, Op::Read);
        let tree = Arc::new(tree);
        let obj = MossObject::new(Arc::clone(&tree), x, 0, mode);
        (tree, obj, a, b, w, r1, r2)
    }

    fn enabled(o: &MossObject) -> Vec<Action> {
        let mut buf = Vec::new();
        o.enabled_outputs(&mut buf);
        buf
    }

    #[test]
    fn write_blocks_external_reader_until_commit_informs() {
        let (_tree, mut o, a, _b, w, _r1, r2) = setup(LockMode::ReadWrite);
        o.apply(&Action::Create(w));
        o.apply(&Action::RequestCommit(w, Value::Ok));
        // r2 (different branch) must wait: w holds a write lock.
        o.apply(&Action::Create(r2));
        assert!(enabled(&o).is_empty(), "r2 blocked by w's lock");
        assert_eq!(o.waiting().len(), 1);
        assert_eq!(o.waiting()[0].0, r2);
        assert_eq!(o.waiting()[0].1, vec![w]);
        // w commits, lock moves to a — still not an ancestor of r2.
        o.apply(&Action::InformCommit(ObjId(0), w));
        assert!(enabled(&o).is_empty());
        // a commits, lock moves to T0 — ancestor of r2: the read fires
        // and sees the inherited value 5.
        o.apply(&Action::InformCommit(ObjId(0), a));
        assert_eq!(enabled(&o), vec![Action::RequestCommit(r2, Value::Int(5))]);
    }

    #[test]
    fn sibling_reader_within_writer_branch_waits_only_for_the_write() {
        let (_tree, mut o, _a, _b, w, r1, _r2) = setup(LockMode::ReadWrite);
        o.apply(&Action::Create(w));
        o.apply(&Action::RequestCommit(w, Value::Ok));
        o.apply(&Action::Create(r1));
        // r1's sibling w holds the write lock; w is NOT an ancestor of r1.
        assert!(enabled(&o).is_empty());
        // After w commits to a, a IS an ancestor of r1: read sees 5.
        o.apply(&Action::InformCommit(ObjId(0), w));
        assert_eq!(enabled(&o), vec![Action::RequestCommit(r1, Value::Int(5))]);
    }

    #[test]
    fn abort_discards_tentative_value() {
        let (_tree, mut o, a, _b, w, _r1, r2) = setup(LockMode::ReadWrite);
        o.apply(&Action::Create(w));
        o.apply(&Action::RequestCommit(w, Value::Ok));
        assert_eq!(o.current_value(), 5);
        // Abort a: w's lock (a descendant of a) is discarded, value restored.
        o.apply(&Action::InformAbort(ObjId(0), a));
        assert_eq!(o.current_value(), 0);
        o.apply(&Action::Create(r2));
        assert_eq!(enabled(&o), vec![Action::RequestCommit(r2, Value::Int(0))]);
    }

    #[test]
    fn concurrent_readers_share() {
        let (_tree, mut o, _a, _b, _w, r1, r2) = setup(LockMode::ReadWrite);
        o.apply(&Action::Create(r1));
        o.apply(&Action::Create(r2));
        let e = enabled(&o);
        assert_eq!(e.len(), 2, "both reads enabled: read locks are shared");
        o.apply(&Action::RequestCommit(r1, Value::Int(0)));
        assert_eq!(enabled(&o), vec![Action::RequestCommit(r2, Value::Int(0))]);
    }

    #[test]
    fn exclusive_mode_blocks_second_reader() {
        let (_tree, mut o, a, _b, _w, r1, r2) = setup(LockMode::Exclusive);
        o.apply(&Action::Create(r1));
        o.apply(&Action::RequestCommit(r1, Value::Int(0)));
        o.apply(&Action::Create(r2));
        assert!(
            enabled(&o).is_empty(),
            "exclusive mode: r1's lock blocks r2"
        );
        // Release by committing r1 up to T0.
        o.apply(&Action::InformCommit(ObjId(0), r1));
        o.apply(&Action::InformCommit(ObjId(0), a));
        assert_eq!(enabled(&o), vec![Action::RequestCommit(r2, Value::Int(0))]);
    }

    #[test]
    fn reader_blocks_external_writer_in_rw_mode() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let r = tree.add_access(a, x, Op::Read);
        let w = tree.add_access(b, x, Op::Write(9));
        let tree = Arc::new(tree);
        let mut o = MossObject::new(Arc::clone(&tree), x, 0, LockMode::ReadWrite);
        o.apply(&Action::Create(r));
        o.apply(&Action::RequestCommit(r, Value::Int(0)));
        let (wl, rl) = o.lockholders();
        assert_eq!(wl, vec![TxId::ROOT]);
        assert_eq!(rl, vec![r]);
        // The external writer waits on r's read lock.
        o.apply(&Action::Create(w));
        assert!(enabled(&o).is_empty());
        assert_eq!(o.waiting()[0], (w, vec![r]));
        // Release r's lock up to T0: the write proceeds.
        o.apply(&Action::InformCommit(ObjId(0), r));
        o.apply(&Action::InformCommit(ObjId(0), a));
        assert_eq!(enabled(&o), vec![Action::RequestCommit(w, Value::Ok)]);
    }

    #[test]
    fn crash_recovery_mid_subtransaction_with_live_orphans() {
        // Crash while a is mid-flight: w answered and inherited to a, b's
        // subtree was orphaned by INFORM_ABORT(b) while its access r2 is
        // still created-but-unanswered (a live orphan), and r1 waits on
        // nothing yet. Recovery must reproduce locks, tentative values,
        // orphan bookkeeping, and the waiting set exactly.
        let (tree, mut o, _a, b, w, r1, r2) = setup(LockMode::ReadWrite);
        let behavior = vec![
            Action::Create(w),
            Action::RequestCommit(w, Value::Ok),
            Action::Create(r2),
            Action::InformAbort(ObjId(0), b), // r2 is now a live local orphan
            Action::InformCommit(ObjId(0), w), // w's lock inherits to a
            Action::Create(r1),
        ];
        for a in &behavior {
            o.apply(a);
        }
        let (rec, replayed) = MossObject::recovered_from(
            Arc::clone(&tree),
            ObjId(0),
            0,
            LockMode::ReadWrite,
            &behavior,
        );
        assert_eq!(replayed, behavior.len() as u64);
        assert_eq!(rec.lockholders(), o.lockholders());
        assert_eq!(rec.current_value(), o.current_value());
        assert_eq!(rec.current_value(), 5, "a holds w's tentative 5");
        assert_eq!(rec.waiting(), o.waiting());
        assert!(rec.is_local_orphan(r2), "orphan bookkeeping survives");
        assert_eq!(enabled(&rec), enabled(&o), "same enabled answers");
        // The orphaned access is never answered post-recovery either.
        assert!(enabled(&rec)
            .iter()
            .all(|a| !matches!(a, Action::RequestCommit(t, _) if *t == r2)));
    }

    #[test]
    fn value_inheritance_stacks() {
        // Nested writers: a ── a1(w1: write 1), then a's own w overwrite.
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let a1 = tree.add_inner(a);
        let w1 = tree.add_access(a1, x, Op::Write(1));
        let w2 = tree.add_access(a, x, Op::Write(2));
        let r = tree.add_access(a, x, Op::Read);
        let tree = Arc::new(tree);
        let mut o = MossObject::new(Arc::clone(&tree), x, 0, LockMode::ReadWrite);
        o.apply(&Action::Create(w1));
        o.apply(&Action::RequestCommit(w1, Value::Ok));
        o.apply(&Action::InformCommit(ObjId(0), w1));
        o.apply(&Action::InformCommit(ObjId(0), a1));
        // a now holds the write lock with value 1.
        assert_eq!(o.current_value(), 1);
        o.apply(&Action::Create(w2));
        o.apply(&Action::RequestCommit(w2, Value::Ok));
        assert_eq!(o.current_value(), 2);
        // Abort w2 alone: restores a's value 1.
        o.apply(&Action::InformAbort(ObjId(0), w2));
        assert_eq!(o.current_value(), 1);
        o.apply(&Action::Create(r));
        assert_eq!(enabled(&o), vec![Action::RequestCommit(r, Value::Int(1))]);
    }
}
