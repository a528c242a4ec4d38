//! A growable, append-only transaction naming tree for interactive
//! sessions (the networked server), where the tree *grows* while
//! transactions run instead of being frozen up front.
//!
//! ## Appended under the engine lock, read without it
//!
//! A transaction is registered in the critical section of the engine
//! lock that records its `REQUEST_CREATE` (`locktable.rs`, `Held::
//! create`): an append needs `&mut` [`Appends`], the one token
//! [`SessionTree::new`] hands out, and the engine keeps that token in its
//! locked state — so appends are serialized by the lock the actions
//! naming them are recorded under, and need no lock of their own.
//! Readers take none: the tree is an arena of `OnceLock` slots, a node's
//! parent/depth/access never change after registration, and the
//! published length is released *after* the slot is set — so the lock
//! table reads ancestry under the engine lock, and a session reads it
//! outside, without ever blocking or observing a half-written node.
//!
//! ## Paid per segment entered
//!
//! The slots live in segments of `SEG` (4096), reached through a fixed
//! directory of `OnceLock`s built at construction (one empty entry per
//! `SEG` names of capacity). A segment is allocated by the append that
//! registers its first id, before `len` is published, so memory follows
//! the names a run actually registers, not the capacity it is allowed. A
//! reader does one directory load, then one slot load, both plain
//! `OnceLock::get`s of values that never change once set.
//!
//! Capacity caps the names ever registered; exhausting it is a clean,
//! typed error the server surfaces to the client (admission control), not
//! a reallocation hazard. Ids are `TxId(u32)` and the published length is
//! a `u32`, so a capacity above `u32::MAX` is refused at construction
//! rather than wrapping the length to 0.

use nt_model::{ObjId, Op, TreeView, TxId, TxTree};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// Slots per segment: the unit the arena allocates (and touches) in.
const SEG: usize = 4096;

/// The `SEG` slots of one segment.
type Segment = Box<[OnceLock<Node>]>;

/// Why an append was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The arena is full; the server refuses new transactions.
    Capacity,
    /// The named parent has not been registered.
    UnknownParent(TxId),
    /// The named parent is an access (accesses are leaves).
    ParentIsAccess(TxId),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Capacity => write!(f, "transaction capacity exhausted"),
            TreeError::UnknownParent(t) => write!(f, "unknown parent transaction {t}"),
            TreeError::ParentIsAccess(t) => write!(f, "parent {t} is an access (a leaf)"),
        }
    }
}

struct Node {
    parent: TxId,
    depth: u32,
    /// An access's object and operation; `None` for an inner transaction.
    access: Option<(ObjId, Op)>,
}

/// The right to append to one [`SessionTree`]: [`SessionTree::new`]
/// makes exactly one, and [`SessionTree::add`] borrows it mutably, so
/// whoever owns it — the engine, in its locked state — is the only
/// appender.
#[derive(Debug)]
pub struct Appends(());

/// The growable arena. `T0` occupies slot 0 from birth.
pub struct SessionTree {
    /// Entry `k` holds the slots of ids `k * SEG ..` once the first of
    /// them registers.
    dir: Box<[OnceLock<Segment>]>,
    capacity: usize,
    len: AtomicU32,
}

impl SessionTree {
    /// An arena able to name `capacity` transactions (including `T0`),
    /// and the one token that may append to it. Only `T0`'s segment is
    /// allocated here.
    ///
    /// # Panics
    ///
    /// If `capacity` is 0 or exceeds `u32::MAX` (the `TxId` range).
    pub fn new(capacity: usize) -> (Self, Appends) {
        assert!(capacity >= 1, "capacity must cover T0");
        assert!(
            capacity <= u32::MAX as usize,
            "capacity {capacity} exceeds the u32 TxId range"
        );
        let tree = SessionTree {
            dir: (0..capacity.div_ceil(SEG))
                .map(|_| OnceLock::new())
                .collect(),
            capacity,
            len: AtomicU32::new(1),
        };
        tree.fresh_slot(0)
            .set(Node {
                parent: TxId::ROOT,
                depth: 0,
                access: None,
            })
            .unwrap_or_else(|_| unreachable!("fresh slot"));
        (tree, Appends(()))
    }

    /// The arena capacity: the most names it will ever register.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn node(&self, t: TxId) -> &Node {
        let i = t.index();
        self.dir[i / SEG]
            .get()
            .and_then(|seg| seg[i % SEG].get())
            .expect("queried transaction is registered")
    }

    /// The slot for the next id, building its segment if the id is the
    /// first to enter it. Append side only (an [`add`](Self::add), or
    /// `new`).
    fn fresh_slot(&self, i: usize) -> &OnceLock<Node> {
        &self.dir[i / SEG].get_or_init(|| (0..SEG).map(|_| OnceLock::new()).collect())[i % SEG]
    }

    /// Register a fresh transaction under `parent`: an access bound to
    /// `access`'s object and operation, or an inner transaction for
    /// `None`. The slot is set before the length that publishes it.
    pub fn add(
        &self,
        _appends: &mut Appends,
        parent: TxId,
        access: Option<(ObjId, Op)>,
    ) -> Result<TxId, TreeError> {
        let i = self.len.load(Ordering::Relaxed) as usize;
        if i >= self.capacity {
            return Err(TreeError::Capacity);
        }
        if parent.index() >= i {
            return Err(TreeError::UnknownParent(parent));
        }
        let pnode = self.node(parent);
        if pnode.access.is_some() {
            return Err(TreeError::ParentIsAccess(parent));
        }
        let depth = pnode.depth + 1;
        self.fresh_slot(i)
            .set(Node {
                parent,
                depth,
                access,
            })
            .unwrap_or_else(|_| unreachable!("slot {i} below len is never set twice"));
        self.len.store((i + 1) as u32, Ordering::Release);
        Ok(TxId(i as u32))
    }

    /// The object and operation of `t`, if it is an access.
    pub fn access(&self, t: TxId) -> Option<&(ObjId, Op)> {
        self.node(t).access.as_ref()
    }

    /// Snapshot the arena as a frozen [`TxTree`] (for certification and
    /// the wire). Node ids are assigned sequentially in both
    /// representations, so replaying registrations in index order
    /// reproduces identical ids.
    pub fn to_tx_tree(&self) -> TxTree {
        let mut tree = TxTree::new();
        for i in 1..self.len() {
            let n = self.node(TxId(i as u32));
            let id = match &n.access {
                None => tree.add_inner(n.parent),
                Some((object, op)) => tree.add_access(n.parent, *object, op.clone()),
            };
            debug_assert_eq!(id, TxId(i as u32), "sequential ids replay identically");
        }
        tree
    }
}

impl TreeView for SessionTree {
    /// Registered transactions (monotone; includes `T0`).
    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }
    fn parent(&self, t: TxId) -> Option<TxId> {
        if t == TxId::ROOT {
            None
        } else {
            Some(self.node(t).parent)
        }
    }
    fn depth(&self, t: TxId) -> u32 {
        self.node(t).depth
    }
    fn is_access(&self, t: TxId) -> bool {
        self.access(t).is_some()
    }
    fn object_of(&self, t: TxId) -> Option<ObjId> {
        self.access(t).map(|(object, _)| *object)
    }
    fn op_of(&self, t: TxId) -> Option<Op> {
        self.access(t).map(|(_, op)| op.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `add` for an inner transaction.
    fn inner(st: &SessionTree, ap: &mut Appends, parent: TxId) -> Result<TxId, TreeError> {
        st.add(ap, parent, None)
    }

    /// `add` for an access.
    fn access(
        st: &SessionTree,
        ap: &mut Appends,
        parent: TxId,
        x: ObjId,
        op: Op,
    ) -> Result<TxId, TreeError> {
        st.add(ap, parent, Some((x, op)))
    }

    #[test]
    fn grows_and_snapshots_like_txtree() {
        let (st, mut ap) = SessionTree::new(16);
        let a = inner(&st, &mut ap, TxId::ROOT).expect("inner");
        let b = inner(&st, &mut ap, a).expect("inner");
        let u = access(&st, &mut ap, b, ObjId(3), Op::Write(7)).expect("access");
        assert_eq!(st.len(), 4);
        assert!(st.is_ancestor(a, u));
        assert!(!st.is_ancestor(u, a) || u == a);
        assert_eq!(st.child_toward(TxId::ROOT, u), a);
        assert_eq!(TreeView::op_of(&st, u), Some(Op::Write(7)));

        let frozen = st.to_tx_tree();
        assert_eq!(frozen.len(), 4);
        assert_eq!(frozen.num_objects(), 4);
        assert_eq!(frozen.parent(u), Some(b));
        assert_eq!(frozen.op_of(u), Some(&Op::Write(7)));
    }

    #[test]
    fn refuses_bad_appends() {
        let (st, mut ap) = SessionTree::new(4);
        let a = inner(&st, &mut ap, TxId::ROOT).expect("inner");
        let u = access(&st, &mut ap, a, ObjId(0), Op::Read).expect("access");
        assert_eq!(inner(&st, &mut ap, u), Err(TreeError::ParentIsAccess(u)));
        assert_eq!(
            inner(&st, &mut ap, TxId(9)),
            Err(TreeError::UnknownParent(TxId(9)))
        );
        inner(&st, &mut ap, a).expect("fills the arena");
        assert_eq!(inner(&st, &mut ap, a), Err(TreeError::Capacity));
    }

    /// Segments built so far.
    fn built(st: &SessionTree) -> usize {
        st.dir.iter().filter(|s| s.get().is_some()).count()
    }

    #[test]
    fn segments_are_built_as_ids_enter_them() {
        let (st, mut ap) = SessionTree::new(1 << 19);
        assert_eq!(st.capacity(), 1 << 19);
        assert_eq!(st.dir.len(), (1 << 19) / SEG);
        assert_eq!(built(&st), 1, "only T0's segment at construction");
        // Ids 1 ..= SEG: the last of them is the first id of segment 1.
        let mut last = TxId::ROOT;
        for _ in 0..SEG - 2 {
            last = inner(&st, &mut ap, TxId::ROOT).expect("inner");
        }
        assert_eq!(last, TxId(SEG as u32 - 2));
        assert_eq!(built(&st), 1);
        let before = inner(&st, &mut ap, last).expect("SEG - 1");
        let at = inner(&st, &mut ap, before).expect("SEG");
        assert_eq!(built(&st), 2, "the id SEG built segment 1");
        let after = access(&st, &mut ap, at, ObjId(5), Op::Write(9)).expect("SEG + 1");
        assert_eq!(
            [before, at, after],
            [SEG - 1, SEG, SEG + 1].map(|i| TxId(i as u32))
        );
        // Parent links, depths and ops resolve across the boundary.
        assert_eq!(st.parent(before), Some(last));
        assert_eq!(st.parent(at), Some(before));
        assert_eq!(st.parent(after), Some(at));
        assert_eq!([before, at, after].map(|t| st.depth(t)), [2, 3, 4]);
        assert_eq!(TreeView::op_of(&st, before), None);
        assert_eq!(TreeView::op_of(&st, at), None);
        assert_eq!(TreeView::op_of(&st, after), Some(Op::Write(9)));
        assert_eq!(st.object_of(after), Some(ObjId(5)));
        assert!(st.is_ancestor(last, after));
        assert_eq!(st.child_toward(TxId::ROOT, after), last);
        let frozen = st.to_tx_tree();
        assert_eq!(frozen.len(), SEG + 2);
        assert_eq!(frozen.parent(after), Some(at));
    }

    #[test]
    fn a_capacity_off_the_segment_grid_refuses_exactly_at_capacity() {
        let capacity = SEG + 5;
        let (st, mut ap) = SessionTree::new(capacity);
        assert_eq!(st.dir.len(), 2, "the partial tail still gets an entry");
        for _ in 1..capacity {
            inner(&st, &mut ap, TxId::ROOT).expect("below capacity");
        }
        assert_eq!(st.len(), capacity);
        assert_eq!(inner(&st, &mut ap, TxId::ROOT), Err(TreeError::Capacity));
        assert_eq!(
            access(&st, &mut ap, TxId(1), ObjId(0), Op::Read),
            Err(TreeError::Capacity)
        );
        assert_eq!(st.len(), capacity, "a refusal registers nothing");
        assert_eq!(st.parent(TxId(capacity as u32 - 1)), Some(TxId::ROOT));
    }

    #[test]
    fn the_largest_txid_range_capacity_is_accepted() {
        // One directory entry per SEG names: nothing else is allocated.
        let (st, mut ap) = SessionTree::new(u32::MAX as usize);
        assert_eq!(built(&st), 1);
        assert_eq!(inner(&st, &mut ap, TxId::ROOT), Ok(TxId(1)));
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 TxId range")]
    fn a_capacity_past_the_txid_range_is_refused_at_construction() {
        let _ = SessionTree::new(u32::MAX as usize + 1);
    }

    #[test]
    fn concurrent_readers_see_published_nodes() {
        // Past several segment boundaries, each built while the reader runs.
        const TOTAL: usize = 3 * SEG + 100;
        let (st, mut ap) = SessionTree::new(4 * SEG);
        std::thread::scope(|s| {
            let st = &st;
            s.spawn(move || {
                let mut parent = TxId::ROOT;
                for i in 0..TOTAL as u32 {
                    if i % 3 == 0 {
                        parent = inner(st, &mut ap, TxId::ROOT).expect("capacity suffices");
                    } else {
                        access(st, &mut ap, parent, ObjId(i % 7), Op::Read)
                            .expect("capacity suffices");
                    }
                }
            });
            s.spawn(move || {
                let mut max_seen = 1;
                while max_seen <= TOTAL {
                    let n = st.len();
                    assert!(n >= max_seen, "len is monotone");
                    max_seen = n;
                    // Every published node is fully readable.
                    let t = TxId((n - 1) as u32);
                    let _ = st.depth(t);
                    let _ = st.is_ancestor(TxId::ROOT, t);
                }
            });
        });
        assert_eq!(built(&st), 4);
    }
}
