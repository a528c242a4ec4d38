//! The incremental serialization-graph maintainer: `SG(β)` as a live
//! object fed one stamped action at a time (by the live certifier and the
//! [`gate`](crate::gate) alike), with memory bounded by the
//! live-transaction window instead of history length.
//!
//! ## How edges become insertable
//!
//! Every edge of `SG(β)` (conflict or precedes, §4 of the paper) only
//! *exists* once visibility is established, and visibility to `T0` is
//! monotone: commits are irrevocable, so an edge present after a prefix
//! is present in every extension. The maintainer exploits exactly when
//! each edge becomes determined:
//!
//! * **root precedes** edges (`REPORT_*(T)` before `REQUEST_CREATE(T')`,
//!   parent `T0`) need no visibility of the endpoints — they are inserted
//!   eagerly at the `REQUEST_CREATE`;
//! * **conflict** edges and **inner precedes** edges need the involved
//!   accesses (resp. the common parent) visible to `T0`, which happens
//!   precisely when the enclosing top-level transaction commits — so they
//!   are resolved at top finalization, when the subtree's completion
//!   status is fully known.
//!
//! Edges between top-level transactions land in one persistent
//! Pearce–Kelly order ([`DynTopo`]); edges strictly inside a committed
//! top's subtree are checked at finalization in one scratch order (an
//! edge only joins siblings, so every inner parent's graph shares it
//! without a cycle ever crossing between them). Insertions are ordered by
//! the stamp of the *second* witness action, so a cycle is reported at
//! the edge whose insertion closes it.
//!
//! ## Frontier edges
//!
//! Acyclicity only needs reachability, so the maintainer draws a reduced
//! graph with the same reachability among resident tops as the all-pairs
//! `SG(β)` (DESIGN §8i states and proves the invariant):
//!
//! * **per object**, the visible accesses of unpruned tops are kept in
//!   stamp order, and a newly published access gets edges only to its
//!   nearest conflicting neighbours on each side — the nearest write,
//!   and for a write also the reads between it and that write. Both
//!   sides are needed: a top publishes its accesses when it resolves,
//!   and tops do not resolve in stamp order;
//! * **root precedes** edges come from the reported frontier only: the
//!   reported tops that no later-reported top follows. A reported top
//!   leaves the frontier once a top created after its report reports
//!   too, and it reaches that top;
//! * a conflict edge `T → T'` is not drawn when `T` reported before `T'`
//!   was created: the precedes edges already lead from `T` to `T'`;
//! * inside one top, the same per-object frontier and a per-parent
//!   reported frontier give the inner edges.
//!
//! ## Flat state
//!
//! A top lives in a slot: its slot in the root order indexes the per-top
//! state too, and a window over the ids of resident tops maps an id to
//! it. A slot keeps its buffers when its top is pruned — the subtree's
//! accesses, commits and precedes candidates, the published accesses —
//! and finalization works in scratch the maintainer owns (the visible
//! accesses, the candidate lists, the inner order), so once the window
//! has reached its size a certified action allocates nothing.
//!
//! ## Watermark GC
//!
//! A resolved top `T` is pruned once (a) its in-degree is zero and
//! (b) every stamp of its visible accesses is below `low`, the smallest
//! first-stamp of any live top. Future in-edges to `T` could only be
//! conflict edges from an access with a smaller stamp than one of `T`'s
//! — impossible, every live top's future accesses are stamped above
//! `low` — or precedes edges, which are only inserted at `T`'s own
//! `REQUEST_CREATE`, already past. A node that can never (again) gain an
//! in-edge lies on no cycle of any extension, so dropping it and its
//! out-edges preserves the verdict; pruning cascades because removals
//! expose new in-degree-zero tops. GC visits only candidates: resolved
//! tops wait in a heap keyed by their last visible access until `low`
//! passes it, and a waiting top whose last in-edge goes is pruned then.
//! The published watermark is `low`: everything certified below it is
//! permanently acyclic — the live form of Theorem 17's committed-prefix
//! claim.
//!
//! ## Assumptions
//!
//! `SG(β)` is a function of β and the naming tree, and the maintainer
//! copies neither: it reads the tree through a [`TreeView`], and a
//! violation report's history slice is cut by whoever owns β
//! ([`cut_slice`](SgtMaintainer::cut_slice)). Histories are well-formed
//! engine histories: an action's transaction is in the tree when the
//! action is fed (an id past the tree is ignored), and completions
//! inside a subtree precede the subtree root's own completion. One bit
//! per id remembers a finalized top, so a late action in its subtree is
//! ignored rather than bringing the top back. Objects are read/write
//! registers (§4): two accesses conflict unless both are reads.

use crate::report::{live_snapshot_json, ReportEdge, ViolationReport};
use crate::topo::{DynTopo, Insert};
use nt_model::{Action, ObjId, TreeView, TxId, TxTree};
use nt_sgt::EdgeKind;
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Maintainer configuration.
#[derive(Clone)]
pub struct SgtConfig {
    /// Run the watermark GC (disable to keep every node, e.g. to export
    /// the complete graph after a bounded test run).
    pub gc: bool,
}

/// How far back from the latching stamp a violation report's history
/// slice reaches.
const SLICE_STAMPS: u64 = 4096;

/// A stamp not (yet) seen.
const NONE: u64 = u64::MAX;

impl Default for SgtConfig {
    fn default() -> Self {
        SgtConfig { gc: true }
    }
}

/// One multiply per key: the per-object map is keyed by small integers,
/// so SipHash's flooding resistance buys nothing there.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// One published access in an object's stamp-ordered list.
#[derive(Clone, Copy)]
struct Published {
    stamp: u64,
    /// The slot of the top it belongs to.
    slot: u32,
    write: bool,
}

/// A precedes or conflict candidate below the root, resolved at finalize.
#[derive(Clone, Copy)]
struct CandEdge {
    parent: TxId,
    from: TxId,
    to: TxId,
    kind: EdgeKind,
    witness: (u64, u64),
}

/// A conflict candidate between two tops' slots.
#[derive(Clone, Copy)]
struct RootCand {
    from: u32,
    to: u32,
    witness: (u64, u64),
}

/// One access `REQUEST_COMMIT` of a top: what pairing needs of it.
#[derive(Clone, Copy)]
struct Access {
    x: ObjId,
    stamp: u64,
    access: TxId,
    write: bool,
}

/// What the precedes frontier needs of one inner transaction.
struct InnerTx {
    id: TxId,
    created: u64,
    reported: u64,
}

/// Per-top subtree buffers, cleared (not dropped) at finalization.
#[derive(Default)]
struct Subtree {
    /// Access `REQUEST_COMMIT`s in stamp order.
    accesses: Vec<Access>,
    /// Subtree members with a `COMMIT` event.
    committed: Vec<TxId>,
    /// Inner transactions with a `REQUEST_CREATE` or a report, by id.
    inner: Vec<InnerTx>,
    /// Every inner parent's reported frontier: `(child, parent, first
    /// report)` of the reported children no later-reported sibling
    /// follows.
    frontier: Vec<(TxId, TxId, u64)>,
    /// Inner precedes candidates awaiting the parent-visibility check.
    precedes: Vec<CandEdge>,
    /// An inner transaction reported without a `REQUEST_CREATE` before:
    /// precedes edges alone may then cycle.
    disordered: bool,
}

impl Subtree {
    fn clear(&mut self) {
        self.accesses.clear();
        self.committed.clear();
        self.inner.clear();
        self.frontier.clear();
        self.precedes.clear();
        self.disordered = false;
    }

    fn inner_tx(&mut self, t: TxId) -> &mut InnerTx {
        let i = match self.inner.binary_search_by_key(&t, |e| e.id) {
            Ok(i) => i,
            Err(i) => {
                self.inner.insert(
                    i,
                    InnerTx {
                        id: t,
                        created: NONE,
                        reported: NONE,
                    },
                );
                i
            }
        };
        &mut self.inner[i]
    }
}

/// State of one top-level transaction (child of `T0`), in its slot.
struct Top {
    id: TxId,
    first_stamp: u64,
    /// Stamp of its `REQUEST_CREATE`, or [`NONE`].
    created: u64,
    /// Stamp of its first report while resident, or [`NONE`].
    reported: u64,
    /// Not yet finalized.
    live: bool,
    /// Finalized, and `low` has passed its last visible access.
    ripe: bool,
    max_access_stamp: u64,
    /// `(object, stamp)` of each published access, for prune-time
    /// removal from the per-object lists.
    published: Vec<(ObjId, u64)>,
    sub: Subtree,
}

/// One transaction's place in the tree, as last looked up.
#[derive(Clone, Copy)]
struct Lineage {
    tx: u32,
    parent: TxId,
    top: TxId,
}

/// Entries of the lineage cache (direct-mapped by id).
const LINEAGE_WAYS: usize = 256;

/// The slot of each resident top, indexed by id minus `base`: a window
/// over the ids from the lowest resident top's to the highest's.
#[derive(Default)]
struct SlotIndex {
    base: usize,
    slots: VecDeque<u32>,
}

impl SlotIndex {
    const VACANT: u32 = u32::MAX;

    fn get(&self, t: TxId) -> Option<usize> {
        let i = t.index().checked_sub(self.base)?;
        match self.slots.get(i) {
            Some(&s) if s != Self::VACANT => Some(s as usize),
            _ => None,
        }
    }

    fn insert(&mut self, t: TxId, slot: usize) {
        let i = t.index();
        if self.slots.is_empty() {
            self.base = i;
        }
        while i < self.base {
            self.slots.push_front(Self::VACANT);
            self.base -= 1;
        }
        while i >= self.base + self.slots.len() {
            self.slots.push_back(Self::VACANT);
        }
        self.slots[i - self.base] = slot as u32;
    }

    fn remove(&mut self, t: TxId) {
        if let Some(s) = self.slots.get_mut(t.index() - self.base) {
            *s = Self::VACANT;
        }
        while self.slots.front() == Some(&Self::VACANT) {
            self.slots.pop_front();
            self.base += 1;
        }
        while self.slots.back() == Some(&Self::VACANT) {
            self.slots.pop_back();
        }
    }
}

/// The live incremental serialization-graph maintainer. See the module
/// docs for the algorithm.
pub struct SgtMaintainer {
    cfg: SgtConfig,
    /// The naming tree the fed actions name.
    tree: Arc<dyn TreeView>,
    /// `tree.len()` when last read: ids below it are registered.
    tree_len: usize,
    /// Parent and top of recently named transactions: the actions of one
    /// transaction come close together, and a tree walk is several calls
    /// through the [`TreeView`].
    lineage: [Lineage; LINEAGE_WAYS],
    /// One past the last stamp fed (the watermark while no top is live).
    next_stamp: u64,
    processed: u64,

    /// The root graph. A top's slot here indexes `tops` as well.
    topo: DynTopo,
    tops: Vec<Top>,
    index: SlotIndex,
    /// One bit per id: set once the top with that id is finalized.
    finalized: Vec<u64>,
    /// `(first stamp, slot)` of tops in the order they were touched; the
    /// front is live, and its stamp is `low`.
    live: VecDeque<(u64, u32)>,
    live_count: usize,
    /// The root's reported frontier: slots of the resident reported tops
    /// that no later-reported top follows (sources of future root
    /// precedes edges).
    reported: Vec<u32>,
    /// Resolved tops by their last visible access, until `low` passes it.
    waiting: BinaryHeap<Reverse<(u64, u32)>>,
    /// Slots the GC has found prunable and not yet pruned.
    doomed: Vec<usize>,
    /// Object → index into `lists`, over objects with a published access.
    objects: HashMap<ObjId, u32, BuildHasherDefault<IdHasher>>,
    /// Published accesses of unpruned tops, per object, in stamp order.
    lists: Vec<VecDeque<Published>>,
    /// Indices of empty `lists`, for reuse.
    spare_lists: Vec<u32>,

    // Finalization scratch, kept across tops.
    visible: Vec<Access>,
    inner_cands: Vec<CandEdge>,
    root_cands: Vec<RootCand>,
    inner_ids: Vec<TxId>,
    inner: DynTopo,

    violation: Option<Arc<ViolationReport>>,
    /// The stamp that latched `violation`, until its slice is cut.
    slice_due: Option<u64>,
    /// Top-level nodes and edges (root and inner) inserted so far, pruned
    /// ones included: the gate's graph size.
    pub(crate) inserted: (usize, usize),
}

impl Default for SgtMaintainer {
    fn default() -> Self {
        SgtMaintainer::new(SgtConfig::default())
    }
}

/// `(lca, child_toward(lca, a), child_toward(lca, b))`. Both must be
/// registered and in the same top's subtree.
fn collapse(tree: &dyn TreeView, a: TxId, b: TxId) -> (TxId, TxId, TxId) {
    let parent = |t: TxId| tree.parent(t).expect("non-root has a parent");
    let (mut x, mut y) = (a, b);
    let (mut dx, mut dy) = (tree.depth(x), tree.depth(y));
    while dx > dy {
        x = parent(x);
        dx -= 1;
    }
    while dy > dx {
        y = parent(y);
        dy -= 1;
    }
    while parent(x) != parent(y) {
        x = parent(x);
        y = parent(y);
    }
    (parent(x), x, y)
}

/// The report of the cycle `path` (slots of `graph`) closed by the edge
/// `from → to`; its history slice is cut later, by the owner of β.
fn build_report(
    graph: &DynTopo,
    parent: TxId,
    (from, to): (usize, usize),
    kind: EdgeKind,
    witness: (u64, u64),
    path: Vec<usize>,
) -> ViolationReport {
    let edge = ReportEdge {
        from: graph.label(from),
        to: graph.label(to),
        kind,
        witness,
    };
    let cycle_edges = path
        .windows(2)
        .map(|pair| match graph.meta(pair[0], pair[1]) {
            Some(m) => ReportEdge::new(graph.label(pair[0]), graph.label(pair[1]), m),
            // The closing hop is the rejected edge itself (never added to
            // the graph).
            None => edge.clone(),
        })
        .collect();
    ViolationReport {
        parent,
        cycle: path.into_iter().map(|s| graph.label(s)).collect(),
        edge,
        cycle_edges,
        slice: Vec::new(),
    }
}

impl SgtMaintainer {
    /// A fresh maintainer. It reads an empty tree, so every action is
    /// ignored until [`read_tree`](Self::read_tree) or
    /// [`seed_tree`](Self::seed_tree) hands it the real one.
    pub fn new(cfg: SgtConfig) -> SgtMaintainer {
        SgtMaintainer {
            cfg,
            tree: Arc::new(TxTree::new()),
            tree_len: 0,
            lineage: [Lineage {
                tx: u32::MAX,
                parent: TxId::ROOT,
                top: TxId::ROOT,
            }; LINEAGE_WAYS],
            next_stamp: 0,
            processed: 0,
            topo: DynTopo::new(),
            tops: Vec::new(),
            index: SlotIndex::default(),
            finalized: Vec::new(),
            live: VecDeque::new(),
            live_count: 0,
            reported: Vec::new(),
            waiting: BinaryHeap::new(),
            doomed: Vec::new(),
            objects: HashMap::default(),
            lists: Vec::new(),
            spare_lists: Vec::new(),
            visible: Vec::new(),
            inner_cands: Vec::new(),
            root_cands: Vec::new(),
            inner_ids: Vec::new(),
            inner: DynTopo::new(),
            violation: None,
            slice_due: None,
            inserted: (0, 0),
        }
    }

    // ------------------------------------------------------------------
    // Feeding
    // ------------------------------------------------------------------

    /// Read `tree` from now on: it must hold every transaction an action
    /// names by the time that action is fed (the engine's session tree
    /// registers a transaction in the critical section that records its
    /// `REQUEST_CREATE`).
    pub fn read_tree(&mut self, tree: Arc<dyn TreeView>) {
        self.tree = tree;
        self.tree_len = 0;
        for e in &mut self.lineage {
            e.tx = u32::MAX;
        }
    }

    /// Read a copy of a statically known tree.
    pub fn seed_tree(&mut self, tree: &TxTree) {
        self.read_tree(Arc::new(tree.clone()));
    }

    /// Feed one stamped action. Stamps increase: every feeder delivers
    /// them in order — [`LiveCertifier::act`](crate::LiveCertifier::act)
    /// under the engine lock, [`replay`](Self::replay) in history order.
    pub fn apply(&mut self, stamp: u64, action: impl Borrow<Action>) {
        debug_assert!(
            stamp >= self.next_stamp,
            "stamp {stamp} fed after stamp {}",
            self.next_stamp - 1
        );
        self.next_stamp = stamp + 1;
        self.process(stamp, action.borrow());
    }

    /// Seed from `tree` and replay `beta` with stamps `0..beta.len()`: the
    /// gate's stage 3. A mount hands the result to the live certifier,
    /// which goes on at stamp `beta.len()`.
    pub fn replay(tree: &TxTree, beta: &[Action], cfg: SgtConfig) -> SgtMaintainer {
        let mut m = SgtMaintainer::new(cfg);
        m.seed_tree(tree);
        for (i, a) in beta.iter().enumerate() {
            m.apply(i as u64, a);
        }
        m.cut_slice(beta);
        m
    }

    /// Cut the latched violation report's history slice from `beta`,
    /// which the caller owns and yields from stamp 0 on, through at least
    /// the latching action: the slice holds the stamps of the witness
    /// span among the last [`SLICE_STAMPS`] up to the latching one. A
    /// no-op until a violation latches, and after its slice is cut.
    pub fn cut_slice<'a>(&mut self, beta: impl IntoIterator<Item = &'a Action>) {
        let (Some(latch), Some(rep)) = (self.slice_due, self.violation.as_mut()) else {
            return;
        };
        self.slice_due = None;
        let edges = || rep.cycle_edges.iter().chain([&rep.edge]);
        let lo = edges().map(|e| e.witness.0).min().unwrap_or(latch);
        let lo = lo.max((latch + 1).saturating_sub(SLICE_STAMPS));
        let hi = edges().map(|e| e.witness.1).max().unwrap_or(latch);
        let slice = beta
            .into_iter()
            .enumerate()
            .skip(lo as usize)
            .take((hi + 1).saturating_sub(lo) as usize)
            .map(|(s, a)| (s as u64, a.clone()))
            .collect();
        Arc::make_mut(rep).slice = slice;
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// `false` iff a cycle has been detected (latched).
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }

    /// The latched violation, if any.
    pub fn violation(&self) -> Option<Arc<ViolationReport>> {
        self.violation.clone()
    }

    /// Actions processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The GC watermark: every action below this stamp belongs to a
    /// permanently certified prefix.
    pub fn watermark(&self) -> u64 {
        self.low()
    }

    /// Current node count of the maintained root graph.
    pub fn node_count(&self) -> usize {
        self.topo.node_count()
    }

    /// Current edge count of the maintained root graph.
    pub fn edge_count(&self) -> usize {
        self.topo.edge_count()
    }

    /// Edges inserted so far, root and inner, pruned ones included.
    pub fn inserted_edges(&self) -> usize {
        self.inserted.1
    }

    /// Unresolved top-level transactions.
    pub fn live_tops(&self) -> usize {
        self.live_count
    }

    /// Is `t` a registered child of `T0` that is not yet finalized?
    pub fn is_top(&self, t: TxId) -> bool {
        self.registered(t) && self.parent(t) == TxId::ROOT && !self.is_finalized(t)
    }

    /// Render the maintained root graph as an `nt-sgt/live/v1` document.
    pub fn snapshot_json(&self) -> String {
        let nodes = self.topo.nodes_in_order();
        let mut edges: Vec<ReportEdge> = self
            .topo
            .edges()
            .map(|(f, t, m)| ReportEdge::new(f, t, m))
            .collect();
        edges.sort_by_key(|e| (e.witness.1, e.witness.0));
        live_snapshot_json(&nodes, &edges, self.watermark(), self.processed)
    }

    // ------------------------------------------------------------------
    // Core processing
    // ------------------------------------------------------------------

    fn low(&self) -> u64 {
        self.live.front().map_or(self.next_stamp, |&(s, _)| s)
    }

    /// Is `t` a transaction of the tree other than `T0`?
    fn registered(&self, t: TxId) -> bool {
        t != TxId::ROOT && t.index() < self.tree.len()
    }

    /// The parent of registered `t`.
    fn parent(&self, t: TxId) -> TxId {
        self.tree.parent(t).expect("non-root has a parent")
    }

    /// `(parent, top)` of `t` — its top is the child-of-`T0`
    /// ancestor-or-self — or `None` for `T0` and ids past the tree.
    fn lineage(&mut self, t: TxId) -> Option<(TxId, TxId)> {
        let way = t.index() % LINEAGE_WAYS;
        let e = self.lineage[way];
        if e.tx == t.0 {
            return Some((e.parent, e.top));
        }
        if t == TxId::ROOT {
            return None;
        }
        if t.index() >= self.tree_len {
            self.tree_len = self.tree.len();
            if t.index() >= self.tree_len {
                return None;
            }
        }
        let parent = self.parent(t);
        let top = if parent == TxId::ROOT {
            t
        } else {
            match self.lineage[parent.index() % LINEAGE_WAYS] {
                p if p.tx == parent.0 => p.top,
                _ => self.tree.child_toward(TxId::ROOT, parent),
            }
        };
        self.lineage[way] = Lineage {
            tx: t.0,
            parent,
            top,
        };
        Some((parent, top))
    }

    fn is_finalized(&self, t: TxId) -> bool {
        let i = t.index();
        self.finalized
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// The slot of top `t`, given one at its first touch (at `stamp`), if
    /// `t` is still unresolved. A finalized top never comes back, pruned
    /// or not.
    fn touch_top(&mut self, t: TxId, stamp: u64) -> Option<usize> {
        if self.is_finalized(t) {
            return None;
        }
        if let Some(slot) = self.index.get(t) {
            return Some(slot);
        }
        let slot = self.topo.add_node(t);
        if slot == self.tops.len() {
            self.tops.push(Top {
                id: t,
                first_stamp: 0,
                created: NONE,
                reported: NONE,
                live: false,
                ripe: false,
                max_access_stamp: 0,
                published: Vec::new(),
                sub: Subtree::default(),
            });
        }
        let top = &mut self.tops[slot];
        top.id = t;
        top.first_stamp = stamp;
        top.created = NONE;
        top.reported = NONE;
        top.live = true;
        top.ripe = false;
        top.max_access_stamp = 0;
        self.index.insert(t, slot);
        self.live.push_back((stamp, slot as u32));
        self.live_count += 1;
        self.inserted.0 += 1;
        Some(slot)
    }

    fn process(&mut self, stamp: u64, action: &Action) {
        if self.violation.is_some() {
            return;
        }
        self.processed += 1;
        match action {
            Action::RequestCreate(t) => self.on_request_create(*t, stamp),
            Action::RequestCommit(t, _) => self.on_request_commit(*t, stamp),
            Action::Commit(t) => self.on_completion(*t, stamp, true),
            Action::Abort(t) => self.on_completion(*t, stamp, false),
            Action::ReportCommit(t, _) | Action::ReportAbort(t) => self.on_report(*t, stamp),
            Action::Create(_) | Action::InformCommit(..) | Action::InformAbort(..) => {}
        }
        if self.violation.is_some() {
            self.slice_due = Some(stamp);
        }
    }

    fn on_request_create(&mut self, t: TxId, stamp: u64) {
        let Some((parent, top)) = self.lineage(t) else {
            return;
        };
        let Some(slot) = self.touch_top(top, stamp) else {
            return;
        };
        if parent == TxId::ROOT {
            // Root precedes edges: every reported top precedes this one
            // (`T0` is trivially visible), and every reported top reaches
            // one on the reported frontier. These inserts cannot cycle —
            // `t` is brand new and only gains in-edges here — so insertion
            // order is irrelevant.
            let top = &mut self.tops[slot];
            if top.created == NONE {
                top.created = stamp;
            }
            for &s in &self.reported {
                let s = s as usize;
                if s == slot {
                    continue;
                }
                let witness = (self.tops[s].reported, stamp);
                let verdict = self.topo.insert_edge(s, slot, EdgeKind::Precedes, witness);
                self.inserted.1 += usize::from(verdict == Insert::Added);
                debug_assert!(!matches!(verdict, Insert::Cycle(_)), "in-edge only");
            }
        } else {
            // Buffer inner precedes candidates against the reported
            // frontier of `parent`; the parent-visibility check runs at
            // finalize.
            let sub = &mut self.tops[slot].sub;
            let me = sub.inner_tx(t);
            if me.created == NONE {
                me.created = stamp;
            }
            let Subtree {
                frontier, precedes, ..
            } = sub;
            for &(s, p, r) in frontier.iter() {
                if p == parent && s != t {
                    precedes.push(CandEdge {
                        parent,
                        from: s,
                        to: t,
                        kind: EdgeKind::Precedes,
                        witness: (r, stamp),
                    });
                }
            }
        }
    }

    fn on_request_commit(&mut self, t: TxId, stamp: u64) {
        let Some((_, top)) = self.lineage(t) else {
            return;
        };
        let Some(x) = self.tree.object_of(t) else {
            return;
        };
        let write = !self.tree.op_of(t).is_some_and(|op| op.is_rw_read());
        if let Some(slot) = self.touch_top(top, stamp) {
            self.tops[slot].sub.accesses.push(Access {
                x,
                stamp,
                access: t,
                write,
            });
        }
    }

    fn on_completion(&mut self, t: TxId, stamp: u64, committed: bool) {
        let Some((parent, top)) = self.lineage(t) else {
            return;
        };
        if parent == TxId::ROOT {
            if let Some(slot) = self.touch_top(t, stamp) {
                self.finalize_top(slot, committed);
                if self.cfg.gc {
                    self.gc();
                }
            }
        } else if committed {
            if let Some(slot) = self.touch_top(top, stamp) {
                self.tops[slot].sub.committed.push(t);
            }
        }
        // An inner abort needs no bookkeeping: absence of a commit makes
        // the subtree below it invisible at finalize.
    }

    fn on_report(&mut self, t: TxId, stamp: u64) {
        let Some((parent, top)) = self.lineage(t) else {
            return;
        };
        if parent == TxId::ROOT {
            // Only unpruned tops source future precedes edges; a pruned
            // top has provably no future in-edges, so its dropped
            // out-edges can never lie on a cycle.
            let Some(slot) = self.index.get(t) else {
                return;
            };
            if self.tops[slot].reported != NONE {
                return;
            }
            self.tops[slot].reported = stamp;
            // A frontier top reported before `t` was created reaches `t`
            // through the precedes edges `t` got then: `t` follows it.
            let created = self.tops[slot].created;
            if created != NONE {
                let tops = &self.tops;
                self.reported
                    .retain(|&s| tops[s as usize].reported >= created);
            }
            self.reported.push(slot as u32);
        } else if let Some(slot) = self.touch_top(top, stamp) {
            let sub = &mut self.tops[slot].sub;
            let me = sub.inner_tx(t);
            if me.reported != NONE {
                return;
            }
            me.reported = stamp;
            let created = me.created;
            sub.disordered |= created == NONE;
            if created != NONE {
                sub.frontier
                    .retain(|&(_, p, r)| p != parent || r >= created);
            }
            sub.frontier.push((t, parent, stamp));
        }
    }

    /// Resolve the top in `slot`: judge subtree visibility, insert all
    /// now-determined edges (inner subgraphs first, then the root graph),
    /// publish its visible accesses for future pairing, and clear the
    /// subtree's buffers.
    fn finalize_top(&mut self, slot: usize, committed: bool) {
        let top = &mut self.tops[slot];
        let i = top.id.index();
        if self.finalized.len() <= i / 64 {
            self.finalized.resize(i / 64 + 1, 0);
        }
        self.finalized[i / 64] |= 1 << (i % 64);
        top.live = false;
        self.live_count -= 1;
        while let Some(&(s, k)) = self.live.front() {
            let front = &self.tops[k as usize];
            if front.live && front.first_stamp == s {
                break;
            }
            self.live.pop_front();
        }
        let mut sub = std::mem::take(&mut self.tops[slot].sub);
        if committed {
            self.resolve_committed(slot, &mut sub);
        }
        sub.clear();
        let top = &mut self.tops[slot];
        top.sub = sub;
        if self.cfg.gc {
            self.waiting
                .push(Reverse((top.max_access_stamp, slot as u32)));
        }
    }

    fn resolve_committed(&mut self, slot: usize, sub: &mut Subtree) {
        let top = self.tops[slot].id;
        let tree = Arc::clone(&self.tree);
        let tree = &*tree;
        // Visibility to T0 below a committed top: every node on the chain
        // up to (and excluding) the top has a COMMIT event.
        sub.committed.sort_unstable();
        let committed = &sub.committed;
        let visible_to_root = |t: TxId| -> bool {
            let mut cur = t;
            while cur != top {
                if committed.binary_search(&cur).is_err() {
                    return false;
                }
                cur = tree.parent(cur).expect("below a top");
            }
            true
        };
        self.visible.clear();
        self.visible
            .extend(sub.accesses.iter().filter(|v| visible_to_root(v.access)));
        self.visible.sort_unstable_by_key(|v| (v.x, v.stamp));

        // Inner edges: the per-object frontier among the top's own
        // visible accesses (pairs whose LCA is below the root), plus
        // precedes candidates with a visible parent.
        self.inner_cands.clear();
        let vis = &self.visible;
        let mut run = 0;
        while run < vis.len() {
            let end = run + vis[run..].iter().take_while(|v| v.x == vis[run].x).count();
            let mut last_write = None;
            for j in run..end {
                let b = vis[j];
                // A write conflicts with the last write and the reads
                // since; a read with the last write only.
                let pairs = match (b.write, last_write) {
                    (true, w) => w.unwrap_or(run)..j,
                    (false, Some(w)) => w..w + 1,
                    (false, None) => j..j,
                };
                for a in &vis[pairs] {
                    let (parent, from, to) = collapse(tree, a.access, b.access);
                    debug_assert_ne!(from, to, "distinct accesses diverge below lca");
                    self.inner_cands.push(CandEdge {
                        parent,
                        from,
                        to,
                        kind: EdgeKind::Conflict,
                        witness: (a.stamp, b.stamp),
                    });
                }
                if b.write {
                    last_write = Some(j);
                }
            }
            run = end;
        }
        let conflicts = self.inner_cands.len();
        for c in &sub.precedes {
            if c.parent == top || visible_to_root(c.parent) {
                self.inner_cands.push(*c);
            }
        }
        if conflicts == 0 && !sub.disordered {
            // Precedes edges alone cannot cycle when every reporter was
            // created before it reported: along an edge `T → T'`,
            // create(T) < report(T) < create(T').
            self.inserted.1 += self.inner_cands.len();
        } else if !self.check_inner() {
            return;
        }

        // Publish the top's visible accesses, each drawing conflict edges
        // to its nearest conflicting neighbours among other tops'
        // published accesses on the same object.
        self.root_cands.clear();
        let me = slot as u32;
        for k in 0..self.visible.len() {
            let v = self.visible[k];
            let li = match self.objects.get(&v.x) {
                Some(&li) => li as usize,
                None => {
                    let li = match self.spare_lists.pop() {
                        Some(li) => li as usize,
                        None => {
                            self.lists.push(VecDeque::new());
                            self.lists.len() - 1
                        }
                    };
                    self.objects.insert(v.x, li as u32);
                    li
                }
            };
            let list = &mut self.lists[li];
            let at = list.partition_point(|a| a.stamp < v.stamp);
            list.insert(
                at,
                Published {
                    stamp: v.stamp,
                    slot: me,
                    write: v.write,
                },
            );
            for a in list.range(..at).rev() {
                if v.write || a.write {
                    if a.slot != me {
                        self.root_cands.push(RootCand {
                            from: a.slot,
                            to: me,
                            witness: (a.stamp, v.stamp),
                        });
                    }
                    if a.write {
                        break;
                    }
                }
            }
            for a in list.range(at + 1..) {
                if v.write || a.write {
                    if a.slot != me {
                        self.root_cands.push(RootCand {
                            from: me,
                            to: a.slot,
                            witness: (v.stamp, a.stamp),
                        });
                    }
                    if a.write {
                        break;
                    }
                }
            }
            let state = &mut self.tops[slot];
            state.published.push((v.x, v.stamp));
            state.max_access_stamp = state.max_access_stamp.max(v.stamp);
        }

        self.root_cands
            .sort_unstable_by_key(|c| (c.witness.1, c.witness.0));
        for k in 0..self.root_cands.len() {
            let c = self.root_cands[k];
            let (from, to) = (c.from as usize, c.to as usize);
            // `from` reported before `to` was created: the precedes edges
            // already lead from one to the other.
            let (reported, created) = (self.tops[from].reported, self.tops[to].created);
            if created != NONE && reported < created {
                continue;
            }
            let verdict = self
                .topo
                .insert_edge(from, to, EdgeKind::Conflict, c.witness);
            self.inserted.1 += usize::from(verdict == Insert::Added);
            if let Insert::Cycle(path) = verdict {
                let rep = build_report(
                    &self.topo,
                    TxId::ROOT,
                    (from, to),
                    EdgeKind::Conflict,
                    c.witness,
                    path,
                );
                self.violation = Some(Arc::new(rep));
                return;
            }
        }
    }

    /// Check the inner candidates in one scratch order over their
    /// endpoints, in witness order; `false` if one closed a cycle (the
    /// violation is latched).
    fn check_inner(&mut self) -> bool {
        self.inner_cands
            .sort_unstable_by_key(|c| (c.witness.1, c.witness.0));
        self.inner_ids.clear();
        self.inner_ids
            .extend(self.inner_cands.iter().flat_map(|c| [c.from, c.to]));
        self.inner_ids.sort_unstable();
        self.inner_ids.dedup();
        self.inner.clear();
        for &t in &self.inner_ids {
            self.inner.add_node(t);
        }
        let slot = |t: TxId| self.inner_ids.binary_search(&t).expect("an endpoint");
        for c in &self.inner_cands {
            let (from, to) = (slot(c.from), slot(c.to));
            let verdict = self.inner.insert_edge(from, to, c.kind, c.witness);
            self.inserted.1 += usize::from(verdict == Insert::Added);
            if let Insert::Cycle(path) = verdict {
                let rep = build_report(&self.inner, c.parent, (from, to), c.kind, c.witness, path);
                self.violation = Some(Arc::new(rep));
                return false;
            }
        }
        true
    }

    /// Watermark GC: prune resolved tops with no in-edges whose visible
    /// accesses all lie below `low`, cascading as removals expose new
    /// in-degree-zero tops. Only candidates are visited: the tops `low`
    /// has just passed, and the successors a prune leaves without
    /// in-edges. See the module docs for the safety argument.
    fn gc(&mut self) {
        let low = self.low();
        while let Some(&Reverse((last, slot))) = self.waiting.peek() {
            if last >= low {
                break;
            }
            self.waiting.pop();
            let slot = slot as usize;
            self.tops[slot].ripe = true;
            if self.topo.indegree(slot) == 0 {
                self.doomed.push(slot);
            }
        }
        while let Some(slot) = self.doomed.pop() {
            self.prune(slot);
        }
    }

    fn prune(&mut self, slot: usize) {
        let SgtMaintainer {
            topo, tops, doomed, ..
        } = self;
        topo.remove_node(slot, |s| {
            if tops[s].ripe {
                doomed.push(s);
            }
        });
        let top = &mut self.tops[slot];
        if top.reported != NONE {
            if let Some(i) = self.reported.iter().position(|&s| s as usize == slot) {
                self.reported.swap_remove(i);
            }
        }
        for &(x, stamp) in &top.published {
            let li = self.objects[&x];
            let list = &mut self.lists[li as usize];
            let at = list.partition_point(|a| a.stamp < stamp);
            list.remove(at);
            if list.is_empty() {
                self.objects.remove(&x);
                self.spare_lists.push(li);
            }
        }
        top.published.clear();
        top.ripe = false;
        self.index.remove(top.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_model::{TxTree, Value};
    use nt_sgt::{build_sg, ConflictSource};
    /// The maintainer mirrors exactly the serialization-graph stage of the
    /// post-hoc pipeline, so the oracle here is `build_sg` acyclicity (the
    /// gate and the oracle's full pipeline additionally check simple
    /// behavior and return values, which planted fixtures need not
    /// satisfy; `tests/live_vs_posthoc.rs` compares whole verdicts).
    fn agrees_with_posthoc(tree: &TxTree, beta: &[Action]) {
        let m = SgtMaintainer::replay(tree, beta, SgtConfig::default());
        let sg = build_sg(tree, beta, ConflictSource::ReadWrite);
        assert_eq!(
            m.ok(),
            sg.is_acyclic(),
            "live {} vs post-hoc cycle {:?}",
            m.ok(),
            sg.find_cycle()
        );
    }

    /// Two tops, write then read on one object: one conflict edge, no
    /// cycle, and the graph prunes to nothing once both tops resolve.
    #[test]
    fn single_conflict_edge_then_full_prune() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let u = tree.add_access(a, x, nt_model::Op::Write(5));
        let w = tree.add_access(b, x, nt_model::Op::Read);
        let beta = vec![
            Action::RequestCreate(a),
            Action::RequestCreate(b),
            Action::RequestCreate(u),
            Action::RequestCommit(u, Value::Ok),
            Action::Commit(u),
            Action::ReportCommit(u, Value::Ok),
            Action::RequestCommit(a, Value::Ok),
            Action::RequestCreate(w),
            Action::RequestCommit(w, Value::Int(5)),
            Action::Commit(w),
            Action::ReportCommit(w, Value::Int(5)),
            Action::RequestCommit(b, Value::Ok),
            Action::Commit(a),
            Action::Commit(b),
        ];
        let m = SgtMaintainer::replay(&tree, &beta, SgtConfig::default());
        assert!(m.ok());
        // Everything resolved: the cascade empties the graph.
        assert_eq!(m.live_tops(), 0);
        assert_eq!(m.node_count(), 0);
        assert_eq!(m.edge_count(), 0);
        assert_eq!(m.watermark(), beta.len() as u64);
        agrees_with_posthoc(&tree, &beta);
    }

    /// Without GC the conflict edge a→b is retained and inspectable.
    #[test]
    fn gc_disabled_keeps_the_graph() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let u = tree.add_access(a, x, nt_model::Op::Write(5));
        let w = tree.add_access(b, x, nt_model::Op::Read);
        let beta = vec![
            Action::RequestCreate(a),
            Action::RequestCreate(b),
            Action::RequestCommit(u, Value::Ok),
            Action::Commit(u),
            Action::RequestCommit(w, Value::Int(5)),
            Action::Commit(w),
            Action::Commit(a),
            Action::Commit(b),
        ];
        let cfg = SgtConfig { gc: false };
        let m = SgtMaintainer::replay(&tree, &beta, cfg);
        assert!(m.ok());
        assert_eq!(m.node_count(), 2);
        assert_eq!(m.edge_count(), 1);
        let snap = m.snapshot_json();
        assert!(snap.contains("nt-sgt/live/v1"));
    }

    /// The classic crossed read/write pair: a 2-cycle at the root, caught
    /// exactly when the second top commits (the inserting edge closes
    /// b→a while a→b exists).
    #[test]
    fn root_cycle_detected_at_inserting_edge() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let y = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let ax = tree.add_access(a, x, nt_model::Op::Write(1));
        let ay = tree.add_access(a, y, nt_model::Op::Read);
        let bx = tree.add_access(b, x, nt_model::Op::Read);
        let by = tree.add_access(b, y, nt_model::Op::Write(2));
        let beta = vec![
            Action::RequestCreate(a),                 // 0
            Action::RequestCreate(b),                 // 1
            Action::RequestCommit(ax, Value::Ok),     // 2: a writes x
            Action::Commit(ax),                       // 3
            Action::RequestCommit(by, Value::Ok),     // 4: b writes y
            Action::Commit(by),                       // 5
            Action::RequestCommit(bx, Value::Int(1)), // 6: b reads x (a→b)
            Action::Commit(bx),                       // 7
            Action::RequestCommit(ay, Value::Int(2)), // 8: a reads y (b→a)
            Action::Commit(ay),                       // 9
            Action::RequestCommit(a, Value::Ok),      // 10
            Action::Commit(a),                        // 11: a visible, no partner yet
            Action::RequestCommit(b, Value::Ok),      // 12
            Action::Commit(b),                        // 13: both edges determined → cycle
        ];
        let m = SgtMaintainer::replay(&tree, &beta, SgtConfig::default());
        assert!(!m.ok());
        let rep = m.violation().expect("latched");
        assert_eq!(rep.parent, TxId::ROOT);
        assert_eq!(rep.cycle.first(), rep.cycle.last());
        assert!(rep.cycle.contains(&a) && rep.cycle.contains(&b));
        // Both cross-top edges become determined at b's finalize and are
        // inserted by second-witness order: a→b with witness (2,6) first,
        // then b→a with witness (4,8) — the inserting edge.
        assert_eq!(rep.edge.witness, (4, 8));
        assert!(!rep.slice.is_empty());
        agrees_with_posthoc(&tree, &beta);
    }

    /// A cycle strictly inside one top: two subtransactions of `a`
    /// conflicting both ways across two objects, caught at a's commit in
    /// the transient inner order with parent = a.
    #[test]
    fn inner_cycle_detected_with_inner_parent() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let y = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let a1 = tree.add_inner(a);
        let a2 = tree.add_inner(a);
        let u1x = tree.add_access(a1, x, nt_model::Op::Write(1));
        let u1y = tree.add_access(a1, y, nt_model::Op::Write(3));
        let u2x = tree.add_access(a2, x, nt_model::Op::Write(2));
        let u2y = tree.add_access(a2, y, nt_model::Op::Write(4));
        let beta = vec![
            Action::RequestCommit(u1x, Value::Ok), // 0: a1 writes x
            Action::Commit(u1x),
            Action::RequestCommit(u2x, Value::Ok), // 2: a2 writes x  (a1→a2)
            Action::Commit(u2x),
            Action::RequestCommit(u2y, Value::Ok), // 4: a2 writes y
            Action::Commit(u2y),
            Action::RequestCommit(u1y, Value::Ok), // 6: a1 writes y  (a2→a1)
            Action::Commit(u1y),
            Action::Commit(a1),
            Action::Commit(a2),
            Action::Commit(a), // 10: finalize — inner cycle a1 ⇄ a2
        ];
        let m = SgtMaintainer::replay(&tree, &beta, SgtConfig::default());
        assert!(!m.ok());
        let rep = m.violation().expect("latched");
        assert_eq!(rep.parent, a);
        assert!(rep.cycle.contains(&a1) && rep.cycle.contains(&a2));
        assert_eq!(rep.edge.witness, (4, 6));
        agrees_with_posthoc(&tree, &beta);
    }

    /// Aborted tops are invisible: the same crossed schedule with one
    /// side aborted has no cycle.
    #[test]
    fn aborted_top_contributes_no_conflict_edges() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let y = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let ax = tree.add_access(a, x, nt_model::Op::Write(1));
        let ay = tree.add_access(a, y, nt_model::Op::Read);
        let bx = tree.add_access(b, x, nt_model::Op::Read);
        let by = tree.add_access(b, y, nt_model::Op::Write(2));
        let beta = vec![
            Action::RequestCreate(a),
            Action::RequestCreate(b),
            Action::RequestCommit(ax, Value::Ok),
            Action::Commit(ax),
            Action::RequestCommit(by, Value::Ok),
            Action::Commit(by),
            Action::RequestCommit(bx, Value::Int(1)),
            Action::Commit(bx),
            Action::RequestCommit(ay, Value::Int(2)),
            Action::Commit(ay),
            Action::Commit(a),
            Action::Abort(b),
        ];
        let m = SgtMaintainer::replay(&tree, &beta, SgtConfig::default());
        assert!(m.ok());
        assert_eq!(m.live_tops(), 0);
        agrees_with_posthoc(&tree, &beta);
    }

    /// Precedes edges at the root: a fully reported top precedes a later
    /// created one; a report-after-create pair produces no edge.
    #[test]
    fn root_precedes_edges_match_posthoc() {
        let mut tree = TxTree::new();
        let _x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let beta = vec![
            Action::RequestCreate(a),
            Action::RequestCommit(a, Value::Ok),
            Action::Commit(a),
            Action::ReportCommit(a, Value::Ok), // 3
            Action::RequestCreate(b),           // 4 → edge a→b (3,4)
            Action::RequestCommit(b, Value::Ok),
            Action::Commit(b),
        ];
        let cfg = SgtConfig { gc: false };
        let m = SgtMaintainer::replay(&tree, &beta, cfg);
        assert!(m.ok());
        assert_eq!(m.edge_count(), 1);
        let snap = m.snapshot_json();
        assert!(snap.contains("\"kind\":\"precedes\""));
        agrees_with_posthoc(&tree, &beta);
    }

    /// The watermark is held back by a long-running live top, and the
    /// graph cannot prune past it; once it resolves, everything drains.
    #[test]
    fn watermark_held_by_live_top_then_drains() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let slow = tree.add_inner(TxId::ROOT);
        let s_acc = tree.add_access(slow, x, nt_model::Op::Read);
        let mut fast = Vec::new();
        for _ in 0..8 {
            let f = tree.add_inner(TxId::ROOT);
            let acc = tree.add_access(f, x, nt_model::Op::Write(1));
            fast.push((f, acc));
        }
        let mut m = SgtMaintainer::new(SgtConfig::default());
        m.seed_tree(&tree);
        let mut stamp = 0;
        let mut next = |m: &mut SgtMaintainer, a: Action| {
            m.apply(stamp, a);
            stamp += 1;
        };
        next(&mut m, Action::RequestCreate(slow));
        for &(f, acc) in &fast {
            next(&mut m, Action::RequestCreate(f));
            next(&mut m, Action::RequestCommit(acc, Value::Ok));
            next(&mut m, Action::Commit(acc));
            next(&mut m, Action::Commit(f));
        }
        // slow is still live: watermark pinned at its first stamp, and
        // the write chain cannot prune (each writer has an in-edge from
        // the previous one except the head, whose accesses are above low).
        assert_eq!(m.watermark(), 0);
        assert!(m.node_count() >= fast.len());
        next(&mut m, Action::RequestCommit(s_acc, Value::Int(1)));
        next(&mut m, Action::Commit(s_acc));
        next(&mut m, Action::Commit(slow));
        assert!(m.ok());
        assert_eq!(m.live_tops(), 0);
        assert_eq!(m.node_count(), 0, "cascade drains the whole chain");
        assert_eq!(m.watermark(), stamp);
    }

    /// Late report after prune must not resurrect the top.
    #[test]
    fn late_report_after_prune_is_ignored() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let u = tree.add_access(a, x, nt_model::Op::Write(1));
        let mut m = SgtMaintainer::new(SgtConfig::default());
        m.seed_tree(&tree);
        m.apply(0, Action::RequestCreate(a));
        m.apply(1, Action::RequestCommit(u, Value::Ok));
        m.apply(2, Action::Commit(u));
        m.apply(3, Action::Commit(a));
        // a resolved with no live tops: pruned immediately.
        assert_eq!(m.node_count(), 0);
        m.apply(4, Action::ReportCommit(a, Value::Ok));
        assert_eq!(m.node_count(), 0);
        assert!(m.ok());
    }

    /// An orphan's action after its top aborted and was pruned is
    /// ignored: the top does not come back as a live top pinning the
    /// watermark.
    #[test]
    fn late_subtree_action_after_prune_is_ignored() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let c = tree.add_inner(a);
        let u = tree.add_access(c, x, nt_model::Op::Write(1));
        let mut m = SgtMaintainer::new(SgtConfig::default());
        m.seed_tree(&tree);
        m.apply(0, Action::RequestCreate(a));
        m.apply(1, Action::RequestCreate(c));
        m.apply(2, Action::Abort(a));
        assert_eq!((m.live_tops(), m.watermark()), (0, 3), "a pruned");
        m.apply(3, Action::RequestCreate(u));
        m.apply(4, Action::RequestCommit(u, Value::Ok));
        m.apply(5, Action::Commit(u));
        m.apply(6, Action::Commit(c));
        assert_eq!((m.live_tops(), m.node_count()), (0, 0));
        assert_eq!(m.watermark(), 7);
        assert!(m.ok());
    }
}
