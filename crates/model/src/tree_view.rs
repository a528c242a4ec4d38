//! The read-side tree interface the lock table, status table, deadlock
//! detector and live certifier actually need — factored out of
//! [`TxTree`] so the same machinery serves both a frozen tree known up
//! front (tests, probes, post-hoc replays) and the session engine's
//! `SessionTree`, which *grows* while transactions are in flight.
//!
//! All queries but [`len`](TreeView::len) concern nodes that already
//! exist, and both implementations are append-only: a node's parent,
//! depth, and kind never change after registration, so the derived
//! relations (`is_ancestor`, `child_toward`) are stable under concurrent
//! growth. Ids are dense, so `t` is registered iff `t.index() < len()`.

use crate::op::Op;
use crate::tree::{ObjId, TxId, TxTree};

/// Read access to a (possibly still growing) transaction naming tree.
pub trait TreeView: Send + Sync {
    /// Registered transactions, `T0` included: ids `0..len()`.
    fn len(&self) -> usize;
    /// The parent of `t`, or `None` for `T0`.
    fn parent(&self, t: TxId) -> Option<TxId>;
    /// Depth of `t` (`T0` has depth 0).
    fn depth(&self, t: TxId) -> u32;
    /// True iff `t` is an access (a leaf bound to an object).
    fn is_access(&self, t: TxId) -> bool;
    /// The object accessed by `t`, if `t` is an access.
    fn object_of(&self, t: TxId) -> Option<ObjId>;
    /// The operation performed by `t`, if `t` is an access.
    fn op_of(&self, t: TxId) -> Option<Op>;

    /// Is only `T0` registered?
    fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// True iff `a` is a (reflexive) ancestor of `b`.
    fn is_ancestor(&self, a: TxId, b: TxId) -> bool {
        let da = self.depth(a);
        let mut cur = b;
        let mut dc = self.depth(b);
        while dc > da {
            cur = self.parent(cur).expect("non-root has a parent");
            dc -= 1;
        }
        cur == a
    }

    /// The child of `ancestor` on the path down to `descendant` (requires
    /// `ancestor` to be a proper ancestor of `descendant`).
    fn child_toward(&self, ancestor: TxId, descendant: TxId) -> TxId {
        let target = self.depth(ancestor) + 1;
        let mut cur = descendant;
        while self.depth(cur) > target {
            cur = self.parent(cur).expect("non-root has a parent");
        }
        cur
    }
}

impl TreeView for TxTree {
    fn len(&self) -> usize {
        TxTree::len(self)
    }
    fn parent(&self, t: TxId) -> Option<TxId> {
        TxTree::parent(self, t)
    }
    fn depth(&self, t: TxId) -> u32 {
        TxTree::depth(self, t)
    }
    fn is_access(&self, t: TxId) -> bool {
        TxTree::is_access(self, t)
    }
    fn object_of(&self, t: TxId) -> Option<ObjId> {
        TxTree::object_of(self, t)
    }
    fn op_of(&self, t: TxId) -> Option<Op> {
        TxTree::op_of(self, t).cloned()
    }
    fn is_ancestor(&self, a: TxId, b: TxId) -> bool {
        TxTree::is_ancestor(self, a, b)
    }
    fn child_toward(&self, ancestor: TxId, descendant: TxId) -> TxId {
        TxTree::child_toward(self, ancestor, descendant)
    }
}

impl<T: TreeView + ?Sized> TreeView for std::sync::Arc<T> {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn parent(&self, t: TxId) -> Option<TxId> {
        (**self).parent(t)
    }
    fn depth(&self, t: TxId) -> u32 {
        (**self).depth(t)
    }
    fn is_access(&self, t: TxId) -> bool {
        (**self).is_access(t)
    }
    fn object_of(&self, t: TxId) -> Option<ObjId> {
        (**self).object_of(t)
    }
    fn op_of(&self, t: TxId) -> Option<Op> {
        (**self).op_of(t)
    }
    fn is_ancestor(&self, a: TxId, b: TxId) -> bool {
        (**self).is_ancestor(a, b)
    }
    fn child_toward(&self, ancestor: TxId, descendant: TxId) -> TxId {
        (**self).child_toward(ancestor, descendant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_methods_agree_with_txtree() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(a);
        let u = tree.add_access(b, x, Op::Read);
        let c = tree.add_inner(TxId::ROOT);

        // Wrap so only the required methods are concrete and the defaults
        // kick in.
        struct Raw(TxTree);
        impl TreeView for Raw {
            fn len(&self) -> usize {
                self.0.len()
            }
            fn parent(&self, t: TxId) -> Option<TxId> {
                self.0.parent(t)
            }
            fn depth(&self, t: TxId) -> u32 {
                self.0.depth(t)
            }
            fn is_access(&self, t: TxId) -> bool {
                self.0.is_access(t)
            }
            fn object_of(&self, t: TxId) -> Option<ObjId> {
                self.0.object_of(t)
            }
            fn op_of(&self, t: TxId) -> Option<Op> {
                self.0.op_of(t).cloned()
            }
        }
        let raw = Raw(tree.clone());
        for &(p, q) in &[(a, u), (u, u), (c, u), (a, c), (TxId::ROOT, u)] {
            assert_eq!(raw.is_ancestor(p, q), tree.is_ancestor(p, q), "{p} {q}");
        }
        assert_eq!(raw.child_toward(TxId::ROOT, u), a);
        assert_eq!(raw.child_toward(a, u), b);
        assert_eq!((raw.len(), raw.is_empty()), (tree.len(), false));
    }
}
