//! Lock-free per-transaction status: running / committed / aborted plus a
//! *doomed* bit the deadlock detector sets.
//!
//! Commit and doom race by design: the detector dooms a victim with a CAS
//! that refuses completed transactions, and workers commit with a CAS that
//! refuses doomed ones. Exactly one of the two wins, so no global mutex is
//! needed on the hot commit path.

use nt_model::{TreeView, TxId};
use std::sync::atomic::{AtomicU8, Ordering};

const RUNNING: u8 = 0;
const COMMITTED: u8 = 1;
const ABORTED: u8 = 2;
const STATE: u8 = 0b0000_0011;
const DOOMED: u8 = 0b1000_0000;

/// One atomic status byte per transaction in the tree.
pub struct StatusTable {
    slots: Vec<AtomicU8>,
}

impl StatusTable {
    /// A table for a tree of `n` transactions, all running.
    pub fn new(n: usize) -> Self {
        StatusTable {
            slots: (0..n).map(|_| AtomicU8::new(RUNNING)).collect(),
        }
    }

    fn slot(&self, t: TxId) -> &AtomicU8 {
        &self.slots[t.index()]
    }

    /// Has `t` committed?
    pub fn is_committed(&self, t: TxId) -> bool {
        self.slot(t).load(Ordering::Acquire) & STATE == COMMITTED
    }

    /// Has `t` aborted?
    pub fn is_aborted(&self, t: TxId) -> bool {
        self.slot(t).load(Ordering::Acquire) & STATE == ABORTED
    }

    /// Has `t` committed or aborted?
    pub fn is_complete(&self, t: TxId) -> bool {
        self.slot(t).load(Ordering::Acquire) & STATE != RUNNING
    }

    /// Is `t` marked as a deadlock victim?
    pub fn is_doomed(&self, t: TxId) -> bool {
        self.slot(t).load(Ordering::Acquire) & DOOMED != 0
    }

    /// Doom `t` (detector side). Fails — returns `false` — when `t` already
    /// completed or was already doomed, so each victim is claimed once.
    pub fn mark_doomed(&self, t: TxId) -> bool {
        self.slot(t)
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| {
                if s & STATE != RUNNING || s & DOOMED != 0 {
                    None
                } else {
                    Some(s | DOOMED)
                }
            })
            .is_ok()
    }

    /// Commit `t` (worker side). Fails when `t` was doomed (or somehow
    /// already completed); the caller must then take the abort path.
    pub fn try_commit(&self, t: TxId) -> bool {
        self.slot(t)
            .compare_exchange(RUNNING, COMMITTED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Record that the worker aborted `t` (keeps the doom bit for
    /// inspection).
    pub fn mark_aborted(&self, t: TxId) {
        let _ = self
            .slot(t)
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| {
                Some((s & !STATE) | ABORTED)
            });
    }

    /// The *highest* (closest to `T0`, excluding `T0` itself) doomed
    /// ancestor-or-self of `t`, if any. The worker unwinds its depth-first
    /// execution to that transaction's frame and aborts there, so one doom
    /// kills exactly one subtree.
    pub fn doomed_ancestor<T: TreeView + ?Sized>(&self, tree: &T, t: TxId) -> Option<TxId> {
        let mut highest = None;
        let mut cur = Some(t);
        while let Some(u) = cur {
            if u != TxId::ROOT && self.is_doomed(u) {
                highest = Some(u);
            }
            cur = tree.parent(u);
        }
        highest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_model::{Op, TxTree};

    #[test]
    fn doom_and_commit_exclude_each_other() {
        let st = StatusTable::new(4);
        let t = TxId(1);
        assert!(st.mark_doomed(t));
        assert!(!st.mark_doomed(t), "doom claimed once");
        assert!(!st.try_commit(t), "doomed cannot commit");
        st.mark_aborted(t);
        assert!(st.is_aborted(t));
        assert!(st.is_doomed(t), "doom bit survives the abort");

        let u = TxId(2);
        assert!(st.try_commit(u));
        assert!(!st.mark_doomed(u), "completed cannot be doomed");
        assert!(st.is_committed(u));
    }

    #[test]
    fn doomed_ancestor_picks_highest() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(a);
        let u = tree.add_access(b, x, Op::Read);
        let st = StatusTable::new(tree.len());
        assert_eq!(st.doomed_ancestor(&tree, u), None);
        assert!(st.mark_doomed(b));
        assert_eq!(st.doomed_ancestor(&tree, u), Some(b));
        assert!(st.mark_doomed(a));
        assert_eq!(st.doomed_ancestor(&tree, u), Some(a), "highest wins");
        assert_eq!(st.doomed_ancestor(&tree, a), Some(a), "self counts");
    }
}
