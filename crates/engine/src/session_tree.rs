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
//! queues between two readers. Instead the tree is a fixed-capacity arena
//! of `OnceLock` slots: a node's parent/depth/kind never change after
//! registration, appends serialize on a private mutex, and the published
//! length is released *after* the slot is set — so readers never block and
//! never observe a half-written node.
//!
//! Capacity is fixed at construction; exhausting it is a clean, typed
//! error the server surfaces to the client (admission control), not a
//! reallocation hazard.

use crate::recorder::ActionSink;
use crate::tree_view::TreeView;
use nt_model::{ObjId, Op, TxId, TxTree};
use nt_sgt_live::LiveCertifier;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
    slots: Vec<OnceLock<Node>>,
    len: AtomicU32,
    num_objects: AtomicU32,
    append: Mutex<()>,
    sink: Option<Arc<dyn ActionSink>>,
    certifier: Option<LiveCertifier>,
}

impl SessionTree {
    /// An arena able to name `capacity` transactions (including `T0`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must cover T0");
        let slots: Vec<OnceLock<Node>> = (0..capacity).map(|_| OnceLock::new()).collect();
        slots[0]
            .set(Node {
                parent: TxId::ROOT,
                depth: 0,
                kind: NodeKind::Inner,
            })
            .unwrap_or_else(|_| unreachable!("fresh slot"));
        SessionTree {
            slots,
            len: AtomicU32::new(1),
            num_objects: AtomicU32::new(0),
            append: Mutex::new(()),
            sink: None,
            certifier: None,
        }
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

    /// The arena capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
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
        self.slots[t.index()]
            .get()
            .expect("queried transaction is registered")
    }

    fn push(&self, parent: TxId, kind: NodeKind) -> Result<TxId, TreeError> {
        let _guard = self.append.lock().expect("append mutex poisoned");
        let i = self.len.load(Ordering::Relaxed) as usize;
        if i >= self.slots.len() {
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
        self.slots[i]
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

    #[test]
    fn concurrent_readers_see_published_nodes() {
        let st = std::sync::Arc::new(SessionTree::new(1024));
        let writer = {
            let st = std::sync::Arc::clone(&st);
            std::thread::spawn(move || {
                let mut parent = TxId::ROOT;
                for i in 0..1000 {
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
                for _ in 0..10_000 {
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
    }
}
