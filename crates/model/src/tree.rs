//! Transaction naming trees ("system types" in the paper, §2.2).
//!
//! The paper models the pattern of transaction nesting as a (conceptually
//! infinite) tree of *transaction names* rooted at the mythical transaction
//! `T0`. Leaves of the tree are *accesses*, each bound to a single object
//! name; internal nodes are ordinary (non-access) transactions. Here the tree
//! is materialized lazily: components register names as they are needed, and
//! checkers receive the finished tree alongside a behavior.

use crate::op::Op;
use std::fmt;

/// A transaction name: an index into a [`TxTree`] arena.
///
/// `TxId::ROOT` is the paper's `T0`, the mythical root transaction that
/// models the environment of the transaction system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub u32);

impl TxId {
    /// The root transaction name `T0`.
    pub const ROOT: TxId = TxId(0);

    /// The arena index of this name.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == TxId::ROOT {
            write!(f, "T0")
        } else {
            write!(f, "T{}", self.0)
        }
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An object name `X`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl ObjId {
    /// The arena index of this name.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// What kind of node a transaction name is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxKind {
    /// The root `T0`.
    Root,
    /// An internal (non-access) transaction.
    Inner,
    /// An access: a leaf bound to one object, performing one operation.
    ///
    /// As in the paper, all parameters of an access are encoded in its name
    /// (the paper's `kind(T)` and `data(T)` functions decode them); here the
    /// whole operation is carried as an [`Op`].
    Access {
        /// The object this access is bound to.
        object: ObjId,
        /// The operation this access performs.
        op: Op,
    },
}

#[derive(Clone, Debug)]
struct Node {
    parent: Option<TxId>,
    depth: u32,
    kind: TxKind,
    children: Vec<TxId>,
}

/// The transaction naming tree for one system type.
///
/// Provides the standard tree vocabulary used throughout the paper:
/// parent, children, ancestor (reflexive), descendant (reflexive), and
/// least common ancestor.
///
/// ```
/// use nt_model::{Op, TxId, TxTree};
/// let mut tree = TxTree::new();
/// let x = tree.add_object();
/// let a = tree.add_inner(TxId::ROOT);
/// let u = tree.add_access(a, x, Op::Read);
/// assert!(tree.is_ancestor(a, u));
/// assert!(tree.is_ancestor(u, u), "reflexive");
/// assert_eq!(tree.lca(u, a), a);
/// assert_eq!(tree.child_toward(TxId::ROOT, u), a);
/// ```
#[derive(Clone, Debug)]
pub struct TxTree {
    nodes: Vec<Node>,
    /// One past the largest object id registered or accessed (a count,
    /// not per-object state: no object costs anything here).
    num_objects: usize,
}

impl Default for TxTree {
    fn default() -> Self {
        Self::new()
    }
}

impl TxTree {
    /// Create a tree containing only the root `T0`.
    pub fn new() -> Self {
        TxTree {
            nodes: vec![Node {
                parent: None,
                depth: 0,
                kind: TxKind::Root,
                children: Vec::new(),
            }],
            num_objects: 0,
        }
    }

    /// Number of registered transaction names (including `T0`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff only `T0` is registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Object names in use: one past the largest id registered or
    /// accessed.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Register a fresh object name.
    pub fn add_object(&mut self) -> ObjId {
        let id = ObjId(u32::try_from(self.num_objects).expect("object ids are u32"));
        self.num_objects += 1;
        id
    }

    /// Register `n` fresh object names (ids `num_objects()..+n`). Only the
    /// count moves: nothing is allocated per name.
    pub fn add_objects(&mut self, n: usize) {
        self.num_objects += n;
    }

    fn push(&mut self, parent: TxId, kind: TxKind) -> TxId {
        assert!(
            parent.index() < self.nodes.len(),
            "parent {parent:?} not registered"
        );
        assert!(
            !self.is_access(parent),
            "accesses are leaves; cannot add a child to {parent:?}"
        );
        let id = TxId(self.nodes.len() as u32);
        let depth = self.nodes[parent.index()].depth + 1;
        self.nodes.push(Node {
            parent: Some(parent),
            depth,
            kind,
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Register a fresh non-access transaction name under `parent`.
    pub fn add_inner(&mut self, parent: TxId) -> TxId {
        self.push(parent, TxKind::Inner)
    }

    /// Register a fresh access name under `parent`, bound to `object`
    /// and performing `op`.
    pub fn add_access(&mut self, parent: TxId, object: ObjId, op: Op) -> TxId {
        self.num_objects = self.num_objects.max(object.index() + 1);
        self.push(parent, TxKind::Access { object, op })
    }

    /// The parent of `t`, or `None` for `T0`.
    #[inline]
    pub fn parent(&self, t: TxId) -> Option<TxId> {
        self.nodes[t.index()].parent
    }

    /// The kind of node `t` is.
    #[inline]
    pub fn kind(&self, t: TxId) -> &TxKind {
        &self.nodes[t.index()].kind
    }

    /// Depth of `t` (`T0` has depth 0).
    #[inline]
    pub fn depth(&self, t: TxId) -> u32 {
        self.nodes[t.index()].depth
    }

    /// The children of `t`, in registration order.
    #[inline]
    pub fn children(&self, t: TxId) -> &[TxId] {
        &self.nodes[t.index()].children
    }

    /// True iff `t` is an access (a leaf bound to an object).
    #[inline]
    pub fn is_access(&self, t: TxId) -> bool {
        matches!(self.nodes[t.index()].kind, TxKind::Access { .. })
    }

    /// The object accessed by `t`, if `t` is an access.
    #[inline]
    pub fn object_of(&self, t: TxId) -> Option<ObjId> {
        match self.nodes[t.index()].kind {
            TxKind::Access { object, .. } => Some(object),
            _ => None,
        }
    }

    /// The operation performed by `t`, if `t` is an access.
    #[inline]
    pub fn op_of(&self, t: TxId) -> Option<&Op> {
        match &self.nodes[t.index()].kind {
            TxKind::Access { op, .. } => Some(op),
            _ => None,
        }
    }

    /// True iff `a` is an ancestor of `b`. Reflexive, as in the paper:
    /// "a transaction is its own ancestor and descendant."
    pub fn is_ancestor(&self, a: TxId, b: TxId) -> bool {
        let da = self.depth(a);
        let mut cur = b;
        let mut dc = self.depth(b);
        while dc > da {
            cur = self.parent(cur).expect("non-root has a parent");
            dc -= 1;
        }
        cur == a
    }

    /// True iff `a` is a (reflexive) descendant of `b`.
    #[inline]
    pub fn is_descendant(&self, a: TxId, b: TxId) -> bool {
        self.is_ancestor(b, a)
    }

    /// True iff `a` is a proper ancestor of `b` (ancestor and not equal).
    #[inline]
    pub fn is_proper_ancestor(&self, a: TxId, b: TxId) -> bool {
        a != b && self.is_ancestor(a, b)
    }

    /// Iterator over the (reflexive) ancestors of `t`, from `t` up to `T0`.
    pub fn ancestors(&self, t: TxId) -> Ancestors<'_> {
        Ancestors {
            tree: self,
            cur: Some(t),
        }
    }

    /// The least common ancestor of `a` and `b`.
    pub fn lca(&self, a: TxId, b: TxId) -> TxId {
        let (mut a, mut b) = (a, b);
        let (mut da, mut db) = (self.depth(a), self.depth(b));
        while da > db {
            a = self.parent(a).expect("non-root has a parent");
            da -= 1;
        }
        while db > da {
            b = self.parent(b).expect("non-root has a parent");
            db -= 1;
        }
        while a != b {
            a = self.parent(a).expect("non-root has a parent");
            b = self.parent(b).expect("non-root has a parent");
        }
        a
    }

    /// The child of `ancestor` lying on the path down to `descendant`.
    ///
    /// Requires that `ancestor` is a *proper* ancestor of `descendant`.
    /// This is the map used by the serialization-graph construction to
    /// project a conflict between accesses `U`, `U'` up to the pair of
    /// siblings below `lca(U, U')`.
    pub fn child_toward(&self, ancestor: TxId, descendant: TxId) -> TxId {
        debug_assert!(
            self.is_proper_ancestor(ancestor, descendant),
            "{ancestor:?} must be a proper ancestor of {descendant:?}"
        );
        let target = self.depth(ancestor) + 1;
        let mut cur = descendant;
        while self.depth(cur) > target {
            cur = self.parent(cur).expect("non-root has a parent");
        }
        cur
    }

    /// True iff `a` and `b` are siblings (distinct, same parent).
    pub fn are_siblings(&self, a: TxId, b: TxId) -> bool {
        a != b && self.parent(a).is_some() && self.parent(a) == self.parent(b)
    }

    /// All registered transaction names, in registration order.
    pub fn all_tx(&self) -> impl Iterator<Item = TxId> + '_ {
        (0..self.nodes.len() as u32).map(TxId)
    }

    /// All registered access names.
    pub fn accesses(&self) -> impl Iterator<Item = TxId> + '_ {
        self.all_tx().filter(|&t| self.is_access(t))
    }
}

/// Iterator over reflexive ancestors, from the starting name up to `T0`.
pub struct Ancestors<'a> {
    tree: &'a TxTree,
    cur: Option<TxId>,
}

impl Iterator for Ancestors<'_> {
    type Item = TxId;

    fn next(&mut self) -> Option<TxId> {
        let cur = self.cur?;
        self.cur = self.tree.parent(cur);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    fn sample() -> (TxTree, TxId, TxId, TxId, TxId, TxId) {
        // T0 -> a -> (c, d[access]) ; T0 -> b -> e[access]
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let c = tree.add_inner(a);
        let d = tree.add_access(a, x, Op::Read);
        let e = tree.add_access(b, x, Op::Write(7));
        (tree, a, b, c, d, e)
    }

    #[test]
    fn parents_and_depths() {
        let (tree, a, b, c, d, e) = sample();
        assert_eq!(tree.parent(TxId::ROOT), None);
        assert_eq!(tree.parent(a), Some(TxId::ROOT));
        assert_eq!(tree.parent(c), Some(a));
        assert_eq!(tree.parent(d), Some(a));
        assert_eq!(tree.parent(e), Some(b));
        assert_eq!(tree.depth(TxId::ROOT), 0);
        assert_eq!(tree.depth(a), 1);
        assert_eq!(tree.depth(d), 2);
    }

    #[test]
    fn ancestor_is_reflexive() {
        let (tree, a, _, c, _, _) = sample();
        assert!(tree.is_ancestor(a, a));
        assert!(tree.is_ancestor(a, c));
        assert!(tree.is_ancestor(TxId::ROOT, c));
        assert!(!tree.is_ancestor(c, a));
        assert!(tree.is_descendant(c, a));
        assert!(!tree.is_proper_ancestor(a, a));
        assert!(tree.is_proper_ancestor(a, c));
    }

    #[test]
    fn lca_and_child_toward() {
        let (tree, a, b, c, d, e) = sample();
        assert_eq!(tree.lca(c, d), a);
        assert_eq!(tree.lca(d, e), TxId::ROOT);
        assert_eq!(tree.lca(a, a), a);
        assert_eq!(tree.lca(a, c), a);
        assert_eq!(tree.child_toward(TxId::ROOT, d), a);
        assert_eq!(tree.child_toward(TxId::ROOT, e), b);
        assert_eq!(tree.child_toward(a, d), d);
    }

    #[test]
    fn ancestors_iterator_reaches_root() {
        let (tree, a, _, c, _, _) = sample();
        let anc: Vec<_> = tree.ancestors(c).collect();
        assert_eq!(anc, vec![c, a, TxId::ROOT]);
    }

    #[test]
    fn access_metadata() {
        let (tree, a, _, _, d, e) = sample();
        assert!(tree.is_access(d));
        assert!(!tree.is_access(a));
        assert_eq!(tree.object_of(d), Some(ObjId(0)));
        assert_eq!(tree.op_of(e), Some(&Op::Write(7)));
        assert_eq!(tree.op_of(a), None);
    }

    #[test]
    fn siblings() {
        let (tree, a, b, c, d, _) = sample();
        assert!(tree.are_siblings(a, b));
        assert!(tree.are_siblings(c, d));
        assert!(!tree.are_siblings(a, c));
        assert!(!tree.are_siblings(a, a));
    }

    #[test]
    #[should_panic(expected = "accesses are leaves")]
    fn cannot_add_child_to_access() {
        let (mut tree, _, _, _, d, _) = sample();
        tree.add_inner(d);
    }

    #[test]
    fn accesses_iterator() {
        let (tree, _, _, _, d, e) = sample();
        let acc: Vec<_> = tree.accesses().collect();
        assert_eq!(acc, vec![d, e]);
    }
}
