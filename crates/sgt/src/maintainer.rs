//! The incremental serialization-graph maintainer: `SG(β)` as a live
//! object fed one stamped action at a time, with the same verdict as the
//! post-hoc `nt_sgt::certify_recorded` graph stage and memory bounded by
//! the live-transaction window instead of history length.
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
//! top's subtree are checked at finalization with transient per-parent
//! orders (the subtree is complete by then, and its buffers are dropped
//! afterwards, committed or not). Insertions are ordered by the stamp of
//! the *second* witness action, so a cycle is reported at the exact edge
//! whose insertion closes it.
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
//! expose new in-degree-zero tops. The published watermark is `low`:
//! everything certified below it is permanently acyclic — the live form
//! of Theorem 17's committed-prefix claim.
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
//! ignored rather than bringing the top back.

use crate::report::{live_snapshot_json, ReportEdge, ViolationReport};
use crate::topo::{DynTopo, Insert};
use nt_model::{Action, ObjId, Op, TreeView, TxId, TxTree, Value};
use nt_serial::ObjectTypes;
use nt_sgt::{ConflictSource, EdgeKind};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Where the live conflict relation comes from (owned form of
/// `nt_sgt::ConflictSource`, which borrows).
#[derive(Clone)]
pub enum LiveConflicts {
    /// §4 read/write conflicts: everything conflicts except read/read.
    ReadWrite,
    /// §6.1 commutativity-based conflicts from the objects' serial types.
    Types(Arc<ObjectTypes>),
}

impl LiveConflicts {
    /// Do `(op_a, v_a)` then `(op_b, v_b)` on `x` conflict (`op_a` is the
    /// earlier operation)? The post-hoc graph's relation, borrowed.
    fn conflicts(&self, x: ObjId, op_a: &Op, v_a: &Value, op_b: &Op, v_b: &Value) -> bool {
        let source = match self {
            LiveConflicts::ReadWrite => ConflictSource::ReadWrite,
            LiveConflicts::Types(types) => ConflictSource::Types(types),
        };
        source.conflicts(x, op_a, v_a, op_b, v_b)
    }
}

/// Maintainer configuration.
#[derive(Clone)]
pub struct SgtConfig {
    /// Conflict relation on operations.
    pub conflicts: LiveConflicts,
    /// Run the watermark GC (disable to keep every node, e.g. to export
    /// the complete graph after a bounded test run).
    pub gc: bool,
}

/// How far back from the latching stamp a violation report's history
/// slice reaches.
const SLICE_STAMPS: u64 = 4096;

impl Default for SgtConfig {
    fn default() -> Self {
        SgtConfig {
            conflicts: LiveConflicts::ReadWrite,
            gc: true,
        }
    }
}

/// State of one top-level transaction (child of `T0`).
struct TopState {
    first_stamp: u64,
    /// `(object, stamp)` of each visible access, for prune-time removal
    /// from the per-object index.
    visible_accesses: Vec<(ObjId, u64)>,
    max_access_stamp: u64,
}

/// A buffered precedes candidate below the root, resolved at finalize.
struct CandEdge {
    parent: TxId,
    from: TxId,
    to: TxId,
    kind: EdgeKind,
    witness: (u64, u64),
}

/// Per-top subtree buffer, dropped at finalization.
#[derive(Default)]
struct SubtreeBuf {
    /// Access `REQUEST_COMMIT`s in stamp order: `(access, value, stamp)`.
    accesses: Vec<(TxId, Value, u64)>,
    /// Subtree members with a `COMMIT` event.
    committed: HashSet<TxId>,
    /// Inner precedes candidates awaiting the parent-visibility check.
    precedes_cand: Vec<CandEdge>,
    /// First report stamp of each inner descendant, for precedes
    /// candidates against its later-created siblings.
    first_report: HashMap<TxId, u64>,
}

/// One visible access of another (already finalized) top.
struct ObjEntry {
    top: TxId,
    op: Op,
    value: Value,
}

/// The live incremental serialization-graph maintainer. See the module
/// docs for the algorithm.
pub struct SgtMaintainer {
    cfg: SgtConfig,
    /// The naming tree the fed actions name.
    tree: Arc<dyn TreeView>,
    /// One past the last stamp fed (the watermark while no top is live).
    next_stamp: u64,
    processed: u64,

    topo: DynTopo,
    /// Unpruned tops that have been touched.
    tops: HashMap<TxId, TopState>,
    /// One bit per id: set once the top with that id is finalized.
    finalized: Vec<u64>,
    /// first_stamp → top, over unresolved tops; the min key is `low`.
    live_firsts: BTreeMap<u64, TxId>,
    /// Unpruned tops with a report event, with the first report stamp
    /// (sources of future root precedes edges).
    reported: HashMap<TxId, u64>,
    subtrees: HashMap<TxId, SubtreeBuf>,
    /// stamp → visible access, per object, over unpruned tops.
    per_object: HashMap<ObjId, BTreeMap<u64, ObjEntry>>,

    violation: Option<Arc<ViolationReport>>,
    /// The stamp that latched `violation`, until its slice is cut.
    slice_due: Option<u64>,
}

impl SgtMaintainer {
    /// A fresh maintainer. It reads an empty tree, so every action is
    /// ignored until [`read_tree`](Self::read_tree) or
    /// [`seed_tree`](Self::seed_tree) hands it the real one.
    pub fn new(cfg: SgtConfig) -> SgtMaintainer {
        SgtMaintainer {
            cfg,
            tree: Arc::new(TxTree::new()),
            next_stamp: 0,
            processed: 0,
            topo: DynTopo::new(),
            tops: HashMap::new(),
            finalized: Vec::new(),
            live_firsts: BTreeMap::new(),
            reported: HashMap::new(),
            subtrees: HashMap::new(),
            per_object: HashMap::new(),
            violation: None,
            slice_due: None,
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
    }

    /// Read a copy of a statically known tree.
    pub fn seed_tree(&mut self, tree: &TxTree) {
        self.read_tree(Arc::new(tree.clone()));
    }

    /// Feed one stamped action. Stamps increase: every feeder delivers
    /// them in order — [`LiveCertifier::act`](crate::LiveCertifier::act)
    /// under the engine lock, [`preload`](Self::preload) and
    /// [`replay`](Self::replay) in history order.
    pub fn apply(&mut self, stamp: u64, action: Action) {
        self.step(stamp, &action);
    }

    /// [`apply`](Self::apply) without taking the action.
    pub(crate) fn step(&mut self, stamp: u64, action: &Action) {
        debug_assert!(
            stamp >= self.next_stamp,
            "stamp {stamp} fed after stamp {}",
            self.next_stamp - 1
        );
        self.next_stamp = stamp + 1;
        self.process(stamp, action);
    }

    /// Replay a recovered prefix (crash–restart): `entries[i]` carries
    /// stamp `i` — recovery refuses a history with a hole, so the prefix
    /// covers stamps `0..entries.len()` — and entries are processed in
    /// order. Then every still-unresolved top is finalized as aborted —
    /// recovery discards uncommitted work, so those subtrees are
    /// permanently invisible — and the expected next stamp is advanced to
    /// `resume_at` so live feeding continues seamlessly.
    pub fn preload(&mut self, entries: &[Action], resume_at: u64) {
        debug_assert!(resume_at >= entries.len() as u64, "resume past the prefix");
        for (s, a) in entries.iter().enumerate() {
            self.process(s as u64, a);
        }
        self.cut_slice(entries);
        let unresolved: Vec<TxId> = self.live_firsts.values().copied().collect();
        for t in unresolved {
            self.finalize_top(t, false);
        }
        self.next_stamp = self.next_stamp.max(resume_at);
    }

    /// Convenience for differential tests: seed from `tree` and replay
    /// `beta` with stamps `0..beta.len()`.
    pub fn replay(tree: &TxTree, beta: &[Action], cfg: SgtConfig) -> SgtMaintainer {
        let mut m = SgtMaintainer::new(cfg);
        m.seed_tree(tree);
        for (i, a) in beta.iter().enumerate() {
            m.step(i as u64, a);
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

    /// Unresolved top-level transactions.
    pub fn live_tops(&self) -> usize {
        self.live_firsts.len()
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
        self.live_firsts
            .first_key_value()
            .map_or(self.next_stamp, |(&s, _)| s)
    }

    /// Is `t` a transaction of the tree other than `T0`?
    fn registered(&self, t: TxId) -> bool {
        t != TxId::ROOT && t.index() < self.tree.len()
    }

    /// The parent of registered `t`.
    fn parent(&self, t: TxId) -> TxId {
        self.tree.parent(t).expect("non-root has a parent")
    }

    fn is_finalized(&self, t: TxId) -> bool {
        let i = t.index();
        self.finalized
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// The child-of-`T0` ancestor-or-self of registered `t`, if that top
    /// is still unresolved (its state is created by its first action,
    /// at `stamp`).
    fn live_top(&mut self, t: TxId, stamp: u64) -> Option<TxId> {
        let top = self.tree.child_toward(TxId::ROOT, t);
        self.touch_top(top, stamp).then_some(top)
    }

    /// `(lca, child_toward(lca, a), child_toward(lca, b))`. Both must be
    /// registered and in the same top's subtree.
    fn collapse(&self, a: TxId, b: TxId) -> (TxId, TxId, TxId) {
        let (mut x, mut y) = (a, b);
        let (mut dx, mut dy) = (self.tree.depth(x), self.tree.depth(y));
        while dx > dy {
            x = self.parent(x);
            dx -= 1;
        }
        while dy > dx {
            y = self.parent(y);
            dy -= 1;
        }
        while self.parent(x) != self.parent(y) {
            x = self.parent(x);
            y = self.parent(y);
        }
        (self.parent(x), x, y)
    }

    /// Ensure a [`TopState`] exists for top `t` (first touch at `stamp`)
    /// and return whether it is still unresolved. A finalized top never
    /// comes back, pruned or not.
    fn touch_top(&mut self, t: TxId, stamp: u64) -> bool {
        if self.is_finalized(t) {
            return false;
        }
        if let Entry::Vacant(slot) = self.tops.entry(t) {
            slot.insert(TopState {
                first_stamp: stamp,
                visible_accesses: Vec::new(),
                max_access_stamp: 0,
            });
            self.live_firsts.insert(stamp, t);
            self.topo.ensure_node(t);
        }
        true
    }

    fn process(&mut self, stamp: u64, action: &Action) {
        if self.violation.is_some() {
            return;
        }
        self.processed += 1;
        match action {
            Action::RequestCreate(t) => self.on_request_create(*t, stamp),
            Action::RequestCommit(t, v) => self.on_request_commit(*t, v, stamp),
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
        if !self.registered(t) {
            return;
        }
        let Some(top) = self.live_top(t, stamp) else {
            return;
        };
        let parent = self.parent(t);
        if parent == TxId::ROOT {
            // Root precedes edges: every previously reported top precedes
            // this one (`T0` is trivially visible). These inserts cannot
            // cycle — `t` is brand new and only gains in-edges here — so
            // insertion order is irrelevant.
            let incoming: Vec<(TxId, u64)> = self.reported.iter().map(|(&s, &r)| (s, r)).collect();
            for (s, r) in incoming {
                let verdict = self.topo.insert_edge(s, t, EdgeKind::Precedes, (r, stamp));
                debug_assert!(!matches!(verdict, Insert::Cycle(_)), "in-edge only");
            }
        } else {
            // Buffer inner precedes candidates against already-reported
            // siblings; the parent-visibility check runs at finalize.
            let SubtreeBuf {
                first_report,
                precedes_cand,
                ..
            } = self.subtrees.entry(top).or_default();
            for (&s, &r) in first_report.iter() {
                if s != t && r < stamp && self.tree.parent(s) == Some(parent) {
                    precedes_cand.push(CandEdge {
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

    fn on_request_commit(&mut self, t: TxId, v: &Value, stamp: u64) {
        if !self.registered(t) || !self.tree.is_access(t) {
            return;
        }
        let Some(top) = self.live_top(t, stamp) else {
            return;
        };
        self.subtrees
            .entry(top)
            .or_default()
            .accesses
            .push((t, v.clone(), stamp));
    }

    fn on_completion(&mut self, t: TxId, stamp: u64, committed: bool) {
        if !self.registered(t) {
            return;
        }
        if self.parent(t) == TxId::ROOT {
            if self.touch_top(t, stamp) {
                self.finalize_top(t, committed);
                if self.cfg.gc {
                    self.gc();
                }
            }
        } else if committed {
            if let Some(top) = self.live_top(t, stamp) {
                self.subtrees.entry(top).or_default().committed.insert(t);
            }
        }
        // An inner abort needs no bookkeeping: absence of a commit makes
        // the subtree below it invisible at finalize.
    }

    fn on_report(&mut self, t: TxId, stamp: u64) {
        if !self.registered(t) {
            return;
        }
        if self.parent(t) == TxId::ROOT {
            // Only unpruned tops source future precedes edges; a pruned
            // top has provably no future in-edges, so its dropped
            // out-edges can never lie on a cycle.
            if self.tops.contains_key(&t) {
                self.reported.entry(t).or_insert(stamp);
            }
        } else if let Some(top) = self.live_top(t, stamp) {
            self.subtrees
                .entry(top)
                .or_default()
                .first_report
                .entry(t)
                .or_insert(stamp);
        }
    }

    /// Resolve top `T`: judge subtree visibility, insert all now-determined
    /// edges (inner subgraphs first, then the root graph), publish `T`'s
    /// visible accesses for future cross-top pairing, and drop the
    /// subtree's buffers.
    fn finalize_top(&mut self, top: TxId, committed: bool) {
        if self.is_finalized(top) {
            return;
        }
        let i = top.index();
        if self.finalized.len() <= i / 64 {
            self.finalized.resize(i / 64 + 1, 0);
        }
        self.finalized[i / 64] |= 1 << (i % 64);
        let state = self.tops.get(&top).expect("touched before finalize");
        self.live_firsts.remove(&state.first_stamp);
        let buf = self.subtrees.remove(&top).unwrap_or_default();
        if !committed {
            return;
        }

        // Visibility to T0 below a committed top: every node on the chain
        // up to (and excluding) the top has a COMMIT event.
        let tree = &self.tree;
        let mut memo: HashMap<TxId, bool> = HashMap::new();
        let mut visible_to_root = |t: TxId| -> bool {
            let mut chain = Vec::new();
            let mut cur = t;
            let vis = loop {
                if cur == top {
                    break true;
                }
                if let Some(&v) = memo.get(&cur) {
                    break v;
                }
                if !buf.committed.contains(&cur) {
                    break false;
                }
                chain.push(cur);
                cur = tree.parent(cur).expect("below a top");
            };
            // Memoize the committed prefix of the walk (the first
            // uncommitted node breaks the loop before being pushed).
            for c in chain {
                memo.insert(c, vis);
            }
            memo.insert(t, vis);
            vis
        };

        let mut visible: Vec<(TxId, ObjId, Op, Value, u64)> = Vec::new();
        for (t, v, stamp) in &buf.accesses {
            if visible_to_root(*t) {
                let x = tree.object_of(*t).expect("buffered as access");
                let op = tree.op_of(*t).expect("buffered as access");
                visible.push((*t, x, op, v.clone(), *stamp));
            }
        }

        // Inner edges: conflicts whose LCA is below the root, plus
        // precedes candidates with a visible parent. Checked in transient
        // per-parent orders, inserting in witness order so an inner cycle
        // is caught at its exact inserting edge.
        let mut inner: Vec<CandEdge> = Vec::new();
        for (i, (t1, x1, op1, v1, s1)) in visible.iter().enumerate() {
            for (t2, x2, op2, v2, s2) in visible.iter().skip(i + 1) {
                if x1 != x2 || !self.cfg.conflicts.conflicts(*x1, op1, v1, op2, v2) {
                    continue;
                }
                let (l, from, to) = self.collapse(*t1, *t2);
                debug_assert_ne!(from, to, "distinct accesses diverge below lca");
                inner.push(CandEdge {
                    parent: l,
                    from,
                    to,
                    kind: EdgeKind::Conflict,
                    witness: (*s1, *s2),
                });
            }
        }
        for c in buf.precedes_cand {
            if c.parent == top || visible_to_root(c.parent) {
                inner.push(c);
            }
        }
        inner.sort_by_key(|c| (c.witness.1, c.witness.0));
        let mut inner_topos: HashMap<TxId, DynTopo> = HashMap::new();
        for c in inner {
            let g = inner_topos.entry(c.parent).or_default();
            if let Insert::Cycle(path) = g.insert_edge(c.from, c.to, c.kind, c.witness) {
                self.violation = Some(Arc::new(Self::build_report(&c, path, g)));
                return;
            }
        }

        // Cross-top conflict edges against every unpruned finalized top's
        // visible accesses, direction by stamp order of the two accesses
        // (the earlier operation is the conflict relation's first
        // argument, matching `conflict_edges`).
        let mut root_cands: Vec<CandEdge> = Vec::new();
        for (_t, x, op, v, stamp) in &visible {
            let Some(entries) = self.per_object.get(x) else {
                continue;
            };
            for (&es, e) in entries {
                let conflicting = if es < *stamp {
                    self.cfg.conflicts.conflicts(*x, &e.op, &e.value, op, v)
                } else {
                    self.cfg.conflicts.conflicts(*x, op, v, &e.op, &e.value)
                };
                if !conflicting {
                    continue;
                }
                let (from, to, w) = if es < *stamp {
                    (e.top, top, (es, *stamp))
                } else {
                    (top, e.top, (*stamp, es))
                };
                root_cands.push(CandEdge {
                    parent: TxId::ROOT,
                    from,
                    to,
                    kind: EdgeKind::Conflict,
                    witness: w,
                });
            }
        }
        root_cands.sort_by_key(|c| (c.witness.1, c.witness.0));
        for c in root_cands {
            if let Insert::Cycle(path) = self.topo.insert_edge(c.from, c.to, c.kind, c.witness) {
                self.violation = Some(Arc::new(Self::build_report(&c, path, &self.topo)));
                return;
            }
        }

        // Publish T's visible accesses for future pairings.
        let state = self.tops.get_mut(&top).expect("still present");
        for (_t, x, op, v, stamp) in visible {
            self.per_object
                .entry(x)
                .or_default()
                .insert(stamp, ObjEntry { top, op, value: v });
            state.visible_accesses.push((x, stamp));
            state.max_access_stamp = state.max_access_stamp.max(stamp);
        }
    }

    /// The report of the cycle `path` closed by `inserting`; its history
    /// slice is cut later, by the owner of β.
    fn build_report(inserting: &CandEdge, path: Vec<TxId>, graph: &DynTopo) -> ViolationReport {
        let edge = ReportEdge {
            from: inserting.from,
            to: inserting.to,
            kind: inserting.kind,
            witness: inserting.witness,
        };
        let cycle_edges = path
            .windows(2)
            .map(|pair| match graph.meta(pair[0], pair[1]) {
                Some(m) => ReportEdge::new(pair[0], pair[1], m),
                // The closing hop is the rejected edge itself (never
                // added to the graph).
                None => edge.clone(),
            })
            .collect();
        ViolationReport {
            parent: inserting.parent,
            cycle: path,
            edge,
            cycle_edges,
            slice: Vec::new(),
        }
    }

    /// Watermark GC: prune resolved tops with no in-edges whose visible
    /// accesses all lie below `low`, cascading as removals expose new
    /// in-degree-zero tops. See the module docs for the safety argument.
    fn gc(&mut self) {
        let low = self.low();
        loop {
            let victims: Vec<TxId> = self
                .tops
                .iter()
                .filter(|(t, s)| {
                    self.is_finalized(**t)
                        && s.max_access_stamp < low
                        && self.topo.indegree(**t) == 0
                })
                .map(|(&t, _)| t)
                .collect();
            if victims.is_empty() {
                return;
            }
            for t in victims {
                self.prune(t);
            }
        }
    }

    fn prune(&mut self, t: TxId) {
        self.topo.remove_node(t);
        self.reported.remove(&t);
        if let Some(state) = self.tops.remove(&t) {
            for (x, stamp) in state.visible_accesses {
                if let Some(entries) = self.per_object.get_mut(&x) {
                    entries.remove(&stamp);
                    if entries.is_empty() {
                        self.per_object.remove(&x);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_model::TxTree;
    use nt_sgt::{build_sg, ConflictSource};
    /// The maintainer mirrors exactly the serialization-graph stage of the
    /// post-hoc pipeline, so the oracle here is `build_sg` acyclicity (the
    /// full `certify_recorded` additionally gates on well-formedness and
    /// return values, which planted fixtures need not satisfy; the
    /// end-to-end agreement against the whole pipeline lives in
    /// `tests/live_vs_posthoc.rs` on real recorded histories).
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
        let cfg = SgtConfig {
            gc: false,
            ..SgtConfig::default()
        };
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
        let cfg = SgtConfig {
            gc: false,
            ..SgtConfig::default()
        };
        let m = SgtMaintainer::replay(&tree, &beta, cfg);
        assert!(m.ok());
        assert_eq!(m.edge_count(), 1);
        let snap = m.snapshot_json();
        assert!(snap.contains("\"kind\":\"precedes\""));
        agrees_with_posthoc(&tree, &beta);
    }

    /// Preload of a torn recovered prefix: unresolved tops are finalized
    /// as aborted, the watermark advances, and live feeding resumes at
    /// the recovered clock.
    #[test]
    fn preload_force_resolves_pending_tops() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let u = tree.add_access(a, x, nt_model::Op::Write(5));
        let w = tree.add_access(b, x, nt_model::Op::Read);
        // Stamps 0..6, one per position.
        let recovered = vec![
            Action::RequestCreate(a),
            Action::RequestCreate(b),
            Action::RequestCommit(u, Value::Ok),
            Action::Commit(u),
            Action::RequestCommit(a, Value::Ok),
            Action::Commit(a),
            // b's subtree is torn off: b stays unresolved in the prefix.
        ];
        let mut m = SgtMaintainer::new(SgtConfig::default());
        m.seed_tree(&tree);
        m.preload(&recovered, 10);
        assert!(m.ok());
        assert_eq!(m.processed(), recovered.len() as u64);
        assert_eq!(m.live_tops(), 0, "pending b force-resolved as aborted");
        assert_eq!(m.watermark(), 10);
        // The restarted run re-executes b's work under a fresh name; here
        // just feed a fresh read access (w reuses the registered name).
        m.apply(10, Action::RequestCreate(w));
        m.apply(11, Action::RequestCommit(w, Value::Int(5)));
        m.apply(12, Action::Commit(w));
        assert!(m.ok());
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

    /// Commutativity-based conflicts: two counter increments commute, so
    /// the crossed schedule that cycles under read/write is clean under
    /// the counter type's commutes_backward.
    #[test]
    fn type_based_conflicts_respect_commutativity() {
        use nt_serial::SerialType;
        #[derive(Debug)]
        struct Counter;
        impl SerialType for Counter {
            fn type_name(&self) -> &'static str {
                "test-counter"
            }
            fn initial(&self) -> Value {
                Value::Int(0)
            }
            fn apply(&self, state: &Value, op: &Op) -> (Value, Value) {
                let Value::Int(n) = state else {
                    panic!("counter state is an int")
                };
                match op {
                    Op::Add(d) => (Value::Int(n + d), Value::Ok),
                    Op::GetCount => (state.clone(), state.clone()),
                    other => panic!("counter does not support {other}"),
                }
            }
            fn commutes_backward(&self, a: &(Op, Value), b: &(Op, Value)) -> bool {
                matches!((&a.0, &b.0), (Op::Add(_), Op::Add(_)))
            }
        }
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let ua = tree.add_access(a, x, Op::Add(1));
        let ub = tree.add_access(b, x, Op::Add(2));
        let ua2 = tree.add_access(a, x, Op::Add(3));
        let beta = vec![
            Action::RequestCommit(ua, Value::Ok),
            Action::Commit(ua),
            Action::RequestCommit(ub, Value::Ok),
            Action::Commit(ub),
            Action::RequestCommit(ua2, Value::Ok),
            Action::Commit(ua2),
            Action::Commit(a),
            Action::Commit(b),
        ];
        let types = Arc::new(ObjectTypes::uniform(1, Arc::new(Counter)));
        let cfg = SgtConfig {
            conflicts: LiveConflicts::Types(Arc::clone(&types)),
            gc: false,
        };
        let m = SgtMaintainer::replay(&tree, &beta, cfg);
        assert!(m.ok());
        assert_eq!(m.edge_count(), 0, "adds commute: no conflict edges");
        // Under read/write the same schedule has w/w edges both ways
        // (a's two accesses straddle b's): a 2-cycle.
        let m_rw = SgtMaintainer::replay(&tree, &beta, SgtConfig::default());
        assert!(!m_rw.ok());
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
