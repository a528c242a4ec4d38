//! A concurrent, append-only transaction naming tree for interactive
//! sessions (the networked server), where the tree *grows* while
//! transactions run instead of being frozen up front.
//!
//! ## Why not `RwLock<TxTree>`
//!
//! The lock table reads ancestry relations while holding a shard mutex,
//! and session threads append nodes while other threads are parked inside
//! the lock table. Guarding the whole tree with an `RwLock` would create a
//! lock-order cycle (shard mutex → tree read lock in `acquire`, tree read
//! lock → shard mutex in the detector) that deadlocks the moment a writer
//! queues between two readers. Instead the tree is an arena of `OnceLock`
//! slots: a node's parent/depth/kind never change after registration,
//! appends serialize on a private mutex, and the published length is
//! released *after* the slot is set — so readers never block and never
//! observe a half-written node.
//!
//! ## Paid per segment entered
//!
//! The slots live in segments of `SEG` (4096), reached through a fixed
//! directory of `OnceLock`s built at construction (one empty entry per
//! `SEG` names of capacity). A segment is allocated by the append that
//! registers its first id — under the append mutex, before `len` is
//! published — so memory follows the names a run actually registers, not
//! the capacity it is allowed. A reader still takes no lock: one
//! directory load, then one slot load, both plain `OnceLock::get`s of
//! values that never change once set.
//!
//! Capacity caps the names ever registered; exhausting it is a clean,
//! typed error the server surfaces to the client (admission control), not
//! a reallocation hazard. Ids are `TxId(u32)` and the published length is
//! an `AtomicU32`, so a capacity above `u32::MAX` is refused at
//! construction rather than wrapping the length to 0.

use crate::recorder::ActionSink;
use crate::tree_view::TreeView;
use nt_model::{ObjId, Op, TxId, TxTree};
use nt_sgt_live::LiveCertifier;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

enum NodeKind {
    Inner,
    Access { object: ObjId, op: Op },
}

struct Node {
    parent: TxId,
    depth: u32,
    kind: NodeKind,
}

/// The growable arena. `T0` occupies slot 0 from birth.
pub struct SessionTree {
    /// Entry `k` holds the slots of ids `k * SEG ..` once the first of
    /// them registers.
    dir: Box<[OnceLock<Segment>]>,
    capacity: usize,
    len: AtomicU32,
    num_objects: AtomicU32,
    append: Mutex<()>,
    sink: Option<Arc<dyn ActionSink>>,
    certifier: Option<LiveCertifier>,
}

impl SessionTree {
    /// An arena able to name `capacity` transactions (including `T0`).
    /// Only `T0`'s segment is allocated here.
    ///
    /// # Panics
    ///
    /// If `capacity` is 0 or exceeds `u32::MAX` (the `TxId` range).
    pub fn new(capacity: usize) -> Self {
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
            num_objects: AtomicU32::new(0),
            append: Mutex::new(()),
            sink: None,
            certifier: None,
        };
        tree.fresh_slot(0)
            .set(Node {
                parent: TxId::ROOT,
                depth: 0,
                kind: NodeKind::Inner,
            })
            .unwrap_or_else(|_| unreachable!("fresh slot"));
        tree
    }

    /// Tee every registration into a durable sink. Records are written
    /// under the append mutex, so the sink sees them in `TxId` order and
    /// always before any action naming the transaction. Attach the sink
    /// *after* replaying recovered registrations, or recovery would
    /// re-log them.
    pub fn with_sink(mut self, sink: Arc<dyn ActionSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Register every transaction with the live certifier too — under
    /// the append mutex, before the slot is published, so the maintainer
    /// knows a transaction's shape strictly before any action naming it.
    pub fn with_certifier(mut self, certifier: LiveCertifier) -> Self {
        self.certifier = Some(certifier);
        self
    }

    /// Registered transactions (monotone; includes `T0`).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    /// Is only `T0` registered?
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// The arena capacity: the most names it will ever register.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// One past the highest object id any access has named.
    pub fn num_objects(&self) -> usize {
        self.num_objects.load(Ordering::Acquire) as usize
    }

    /// Is `t` a registered transaction?
    pub fn contains(&self, t: TxId) -> bool {
        t.index() < self.len()
    }

    fn node(&self, t: TxId) -> &Node {
        let i = t.index();
        self.dir[i / SEG]
            .get()
            .and_then(|seg| seg[i % SEG].get())
            .expect("queried transaction is registered")
    }

    /// The slot for the next id, building its segment if the id is the
    /// first to enter it. Append side only (under the append mutex, or in
    /// `new`).
    fn fresh_slot(&self, i: usize) -> &OnceLock<Node> {
        &self.dir[i / SEG].get_or_init(|| (0..SEG).map(|_| OnceLock::new()).collect())[i % SEG]
    }

    fn push(&self, parent: TxId, kind: NodeKind) -> Result<TxId, TreeError> {
        let _guard = self.append.lock().expect("append mutex poisoned");
        let i = self.len.load(Ordering::Relaxed) as usize;
        if i >= self.capacity {
            return Err(TreeError::Capacity);
        }
        if parent.index() >= i {
            return Err(TreeError::UnknownParent(parent));
        }
        let pnode = self.node(parent);
        if matches!(pnode.kind, NodeKind::Access { .. }) {
            return Err(TreeError::ParentIsAccess(parent));
        }
        let depth = pnode.depth + 1;
        if let NodeKind::Access { object, .. } = &kind {
            // Monotone max under the append mutex (the only writer).
            let seen = self.num_objects.load(Ordering::Relaxed);
            if object.0 + 1 > seen {
                self.num_objects.store(object.0 + 1, Ordering::Release);
            }
        }
        if let Some(sink) = &self.sink {
            // Logged before the slot is published: the registration is
            // durable (in WAL order) by the time any reader can name it.
            let access = match &kind {
                NodeKind::Access { object, op } => Some((*object, op)),
                NodeKind::Inner => None,
            };
            sink.append_tree_add(TxId(i as u32), parent, access);
        }
        if let Some(certifier) = &self.certifier {
            let access = match &kind {
                NodeKind::Access { object, op } => Some((*object, op.clone())),
                NodeKind::Inner => None,
            };
            certifier.tree_add(TxId(i as u32), parent, access);
        }
        self.fresh_slot(i)
            .set(Node {
                parent,
                depth,
                kind,
            })
            .unwrap_or_else(|_| unreachable!("slot {i} below len is never set twice"));
        self.len.store((i + 1) as u32, Ordering::Release);
        Ok(TxId(i as u32))
    }

    /// Register a fresh inner transaction under `parent`.
    pub fn add_inner(&self, parent: TxId) -> Result<TxId, TreeError> {
        self.push(parent, NodeKind::Inner)
    }

    /// Register a fresh access under `parent`, bound to `object`/`op`.
    pub fn add_access(&self, parent: TxId, object: ObjId, op: Op) -> Result<TxId, TreeError> {
        self.push(parent, NodeKind::Access { object, op })
    }

    /// Snapshot the arena as a frozen [`TxTree`] (for certification and
    /// the wire). Node ids are assigned sequentially in both
    /// representations, so replaying registrations in index order
    /// reproduces identical ids.
    pub fn to_tx_tree(&self) -> TxTree {
        let len = self.len();
        let mut tree = TxTree::new();
        tree.add_objects(self.num_objects());
        for i in 1..len {
            let n = self.node(TxId(i as u32));
            let id = match &n.kind {
                NodeKind::Inner => tree.add_inner(n.parent),
                NodeKind::Access { object, op } => tree.add_access(n.parent, *object, op.clone()),
            };
            debug_assert_eq!(id, TxId(i as u32), "sequential ids replay identically");
        }
        tree
    }
}

impl TreeView for SessionTree {
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
        matches!(self.node(t).kind, NodeKind::Access { .. })
    }
    fn object_of(&self, t: TxId) -> Option<ObjId> {
        match self.node(t).kind {
            NodeKind::Access { object, .. } => Some(object),
            NodeKind::Inner => None,
        }
    }
    fn op_of(&self, t: TxId) -> Option<Op> {
        match &self.node(t).kind {
            NodeKind::Access { op, .. } => Some(op.clone()),
            NodeKind::Inner => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_and_snapshots_like_txtree() {
        let st = SessionTree::new(16);
        let a = st.add_inner(TxId::ROOT).expect("inner");
        let b = st.add_inner(a).expect("inner");
        let u = st.add_access(b, ObjId(3), Op::Write(7)).expect("access");
        assert_eq!(st.len(), 4);
        assert_eq!(st.num_objects(), 4);
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
        let st = SessionTree::new(4);
        let a = st.add_inner(TxId::ROOT).expect("inner");
        let u = st.add_access(a, ObjId(0), Op::Read).expect("access");
        assert_eq!(st.add_inner(u), Err(TreeError::ParentIsAccess(u)));
        assert_eq!(
            st.add_inner(TxId(9)),
            Err(TreeError::UnknownParent(TxId(9)))
        );
        st.add_inner(a).expect("fills the arena");
        assert_eq!(st.add_inner(a), Err(TreeError::Capacity));
    }

    /// Segments built so far.
    fn built(st: &SessionTree) -> usize {
        st.dir.iter().filter(|s| s.get().is_some()).count()
    }

    #[test]
    fn segments_are_built_as_ids_enter_them() {
        let st = SessionTree::new(1 << 19);
        assert_eq!(st.capacity(), 1 << 19);
        assert_eq!(st.dir.len(), (1 << 19) / SEG);
        assert_eq!(built(&st), 1, "only T0's segment at construction");
        // Ids 1 ..= SEG: the last of them is the first id of segment 1.
        let mut last = TxId::ROOT;
        for _ in 0..SEG - 2 {
            last = st.add_inner(TxId::ROOT).expect("inner");
        }
        assert_eq!(last, TxId(SEG as u32 - 2));
        assert_eq!(built(&st), 1);
        let before = st.add_inner(last).expect("SEG - 1");
        let at = st.add_inner(before).expect("SEG");
        assert_eq!(built(&st), 2, "the id SEG built segment 1");
        let after = st.add_access(at, ObjId(5), Op::Write(9)).expect("SEG + 1");
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
        let st = SessionTree::new(capacity);
        assert_eq!(st.dir.len(), 2, "the partial tail still gets an entry");
        for _ in 1..capacity {
            st.add_inner(TxId::ROOT).expect("below capacity");
        }
        assert_eq!(st.len(), capacity);
        assert_eq!(st.add_inner(TxId::ROOT), Err(TreeError::Capacity));
        assert_eq!(
            st.add_access(TxId(1), ObjId(0), Op::Read),
            Err(TreeError::Capacity)
        );
        assert_eq!(st.len(), capacity, "a refusal registers nothing");
        assert_eq!(st.parent(TxId(capacity as u32 - 1)), Some(TxId::ROOT));
    }

    #[test]
    fn the_largest_txid_range_capacity_is_accepted() {
        // One directory entry per SEG names: nothing else is allocated.
        let st = SessionTree::new(u32::MAX as usize);
        assert_eq!(built(&st), 1);
        assert_eq!(st.add_inner(TxId::ROOT), Ok(TxId(1)));
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
        let st = std::sync::Arc::new(SessionTree::new(4 * SEG));
        let writer = {
            let st = std::sync::Arc::clone(&st);
            std::thread::spawn(move || {
                let mut parent = TxId::ROOT;
                for i in 0..TOTAL as u32 {
                    if i % 3 == 0 {
                        parent = st.add_inner(TxId::ROOT).expect("capacity suffices");
                    } else {
                        st.add_access(parent, ObjId(i % 7), Op::Read)
                            .expect("capacity suffices");
                    }
                }
            })
        };
        let reader = {
            let st = std::sync::Arc::clone(&st);
            std::thread::spawn(move || {
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
            })
        };
        writer.join().expect("writer");
        reader.join().expect("reader");
        assert_eq!(built(&st), 4);
    }
}
