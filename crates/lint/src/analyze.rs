//! Static serializability analysis: the **potential conflict graph**.
//!
//! The Theorem 17 gate (`nt_sgt::certify_recorded`) judges one recorded
//! behavior after the fact. This pass judges a *plan* before any run: it
//! over-approximates every serialization graph `SG(β)` that **any**
//! interleaving of the plan could produce, and decides whether a cyclic
//! one is reachable at all.
//!
//! ## Construction
//!
//! For every pair of accesses `u, v` on the same object whose operations
//! may conflict ([`crate::conflict::ops_may_conflict`], in either order —
//! the schedule decides which comes first), project the pair exactly the
//! way [`nt_sgt::conflict_edges`] would at run time: `l = lca(u, v)`,
//! endpoints `child_toward(l, u)` and `child_toward(l, v)`. The result is
//! one *undirected* potential edge per conflicting access pair, grouped by
//! the parent `l` — undirected because the runtime direction is the β
//! order of the two `REQUEST_COMMIT`s, which the schedule chooses.
//!
//! ## Soundness of the certificate
//!
//! Any runtime `SG(β)` edge (conflict or precedes) connects two children
//! of some parent that a potential edge (or sibling pair) of this analysis
//! also connects, so a runtime cycle under parent `l` requires at least
//! **two distinct potential-conflict pairs inside one connected component**
//! of `l`'s potential graph:
//!
//! * a single conflict pair cannot form a cycle alone — the two
//!   orientations of one `REQUEST_COMMIT` pair are mutually exclusive, and
//!   precedes edges alone are acyclic (they embed in β order), as is one
//!   conflict edge plus precedes edges (a report before a sibling's
//!   `REQUEST_CREATE` forces every conflict between them the same way);
//! * a component where every child contributes only **one** access to its
//!   conflict pairs cannot cycle either: each conflict edge is oriented by
//!   the β order of the two accesses, and a precedes edge `A → B` implies
//!   `A`'s access committed before `B`'s was even requested — so *every*
//!   edge orients along the single total β order of those accesses, which
//!   is acyclic (flat same-object contention is serializable by locking);
//! * parents whose plan schedules children **sequentially** cannot cycle
//!   at all: child *i+1* is requested only after child *i* reports, so
//!   every conflict and precedes edge points up the slot order.
//!
//! Hence: *no Parallel-order parent has a component with ≥ 2 potential
//! conflict pairs in which some child contributes ≥ 2 distinct accesses*
//! ⟹ *no schedule of the plan yields a cyclic `SG(β)`*,
//! and — together with appropriate return values, which the engine's
//! locking discipline supplies — every behavior is serially correct
//! (Theorems 8/17/19). That is the static certificate.
//!
//! The converse is **not** exact: a flagged component may still be
//! unrealizable (e.g. a two-edge path whose middle child has only one
//! access serving both conflicts). The analysis therefore emits ranked
//! concrete [`CycleWitness`]es and [`validate_witness`] tries to *realize*
//! each one as an actual behavior that `check_serial_correctness` judges
//! `Cyclic` — measuring precision, not just soundness (experiment E17).
//!
//! Retry replicas (`retry_chains`) are skipped: each replica is a verbatim
//! copy of its original and at most one attempt per slot commits, so every
//! cycle among commits maps to a cycle among the originals.

use crate::conflict::{ops_may_conflict, StaticConflictMode};
use crate::report::{Finding, Severity};
use nt_model::{Action, ObjId, Op, TxId, TxTree, Value};
use nt_obs::json::Json;
use nt_serial::ObjectTypes;
use nt_sgt::{check_serial_correctness, ConflictSource, Verdict};
use nt_sim::{ChildOrder, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Cap on the number of witnesses enumerated per analysis.
pub const MAX_WITNESSES: usize = 16;
/// Cap on the length of enumerated pure-conflict cycles.
pub const MAX_CYCLE_LEN: usize = 6;

/// Everything the static analysis needs to know about a plan: the frozen
/// naming tree, the object types, the conflict mode, and each scripted
/// transaction's child order.
#[derive(Clone)]
pub struct StaticPlan {
    /// Display name (file name, workload name, …).
    pub name: String,
    /// The naming tree (accesses are the leaves).
    pub tree: Arc<TxTree>,
    /// Serial types, for the commutativity relation and witness replay.
    pub types: ObjectTypes,
    /// Which conflict relation to over-approximate.
    pub mode: StaticConflictMode,
    /// Child order per scripted transaction. Missing entries are treated
    /// as [`ChildOrder::Parallel`] (the conservative choice).
    pub orders: BTreeMap<TxId, ChildOrder>,
    /// Subtree roots excluded from analysis (retry replicas).
    pub skip: BTreeSet<TxId>,
}

impl std::fmt::Debug for StaticPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticPlan")
            .field("name", &self.name)
            .field("mode", &self.mode)
            .field("transactions", &self.tree.len())
            .field("objects", &self.tree.num_objects())
            .finish_non_exhaustive()
    }
}

impl StaticPlan {
    /// Lift a generated [`Workload`] (read/write registers).
    pub fn from_workload(name: impl Into<String>, w: &Workload) -> StaticPlan {
        StaticPlan {
            name: name.into(),
            tree: w.tree.clone(),
            types: w.types.clone(),
            mode: StaticConflictMode::ReadWrite,
            orders: w
                .script_plans()
                .iter()
                .map(|(t, p)| (*t, p.order))
                .collect(),
            skip: w
                .retry_chains
                .values()
                .flatten()
                .flatten()
                .copied()
                .collect(),
        }
    }

    /// The child order of `t` (Parallel when unscripted — conservative).
    fn order_of(&self, t: TxId) -> ChildOrder {
        self.orders.get(&t).copied().unwrap_or(ChildOrder::Parallel)
    }
}

/// One potential conflict: a pair of accesses on one object whose
/// operations may conflict under some value assignment, projected to the
/// two children of their least common ancestor (exactly the endpoints a
/// runtime conflict edge would get). Undirected — the schedule picks the
/// direction.
#[derive(Clone, Debug)]
pub struct PotentialEdge {
    /// The least common ancestor whose per-parent subgraph the edge lands in.
    pub parent: TxId,
    /// `child_toward(parent, access_left)`.
    pub left: TxId,
    /// `child_toward(parent, access_right)`.
    pub right: TxId,
    /// The contended object.
    pub obj: ObjId,
    /// The access under `left`.
    pub access_left: TxId,
    /// The access under `right`.
    pub access_right: TxId,
}

/// Collect every (non-replica) access of the plan's tree.
fn collect_accesses(plan: &StaticPlan) -> Vec<TxId> {
    let tree = &plan.tree;
    let mut out = Vec::new();
    let mut stack = vec![TxId::ROOT];
    while let Some(n) = stack.pop() {
        if plan.skip.contains(&n) {
            continue;
        }
        if tree.is_access(n) {
            out.push(n);
        } else {
            for &c in tree.children(n).iter().rev() {
                stack.push(c);
            }
        }
    }
    out
}

/// Build the potential conflict edges of the plan.
pub fn potential_edges(plan: &StaticPlan) -> Vec<PotentialEdge> {
    let tree = &plan.tree;
    let mut by_obj: BTreeMap<ObjId, Vec<TxId>> = BTreeMap::new();
    for u in collect_accesses(plan) {
        by_obj
            .entry(tree.object_of(u).expect("access names an object"))
            .or_default()
            .push(u);
    }
    let mut edges = Vec::new();
    for (obj, accs) in by_obj {
        let ty = plan.types.get(obj);
        // Memoized per-object op-pair oracle (op sets are tiny).
        let mut memo: Vec<((Op, Op), bool)> = Vec::new();
        let mut may = |a: &Op, b: &Op| -> bool {
            let key = (a.clone(), b.clone());
            if let Some((_, c)) = memo.iter().find(|(k, _)| *k == key) {
                return *c;
            }
            // Either runtime order may occur, so either direction counts.
            let c = ops_may_conflict(ty.as_ref(), plan.mode, a, b)
                || ops_may_conflict(ty.as_ref(), plan.mode, b, a);
            memo.push((key, c));
            c
        };
        for i in 0..accs.len() {
            for j in i + 1..accs.len() {
                let (u, v) = (accs[i], accs[j]);
                let ou = tree.op_of(u).expect("access carries an op").clone();
                let ov = tree.op_of(v).expect("access carries an op").clone();
                if !may(&ou, &ov) {
                    continue;
                }
                let l = tree.lca(u, v);
                edges.push(PotentialEdge {
                    parent: l,
                    left: tree.child_toward(l, u),
                    right: tree.child_toward(l, v),
                    obj,
                    access_left: u,
                    access_right: v,
                });
            }
        }
    }
    edges
}

/// A connected component of one Parallel parent's potential graph holding
/// at least two conflict pairs — i.e. a *potential cycle*.
#[derive(Clone, Debug)]
pub struct CyclicComponent {
    /// The parent whose per-parent subgraph could cycle.
    pub parent: TxId,
    /// The children of `parent` in the component.
    pub members: Vec<TxId>,
    /// Indices into the analysis' `edges` of the component's conflict pairs.
    pub edge_indices: Vec<usize>,
}

/// The kind of one witness edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WitnessEdgeKind {
    /// A conflict edge: `access_from`'s `REQUEST_COMMIT` scheduled before
    /// `access_to`'s.
    Conflict,
    /// A precedes edge: `from` reports before `to`'s `REQUEST_CREATE`.
    Precedes,
}

/// One oriented edge of a concrete potential-cycle witness.
#[derive(Clone, Debug)]
pub struct WitnessEdge {
    /// Source child of the cycle's parent.
    pub from: TxId,
    /// Target child of the cycle's parent.
    pub to: TxId,
    /// Conflict or precedes.
    pub kind: WitnessEdgeKind,
    /// The contended object (conflict edges only).
    pub obj: Option<ObjId>,
    /// The access under `from` (conflict edges only).
    pub access_from: Option<TxId>,
    /// The access under `to` (conflict edges only).
    pub access_to: Option<TxId>,
}

/// A concrete, minimal potential-cycle witness: an oriented cycle among
/// children of one Parallel parent, every edge backed by a specific access
/// pair (or a realizable precedes closure).
#[derive(Clone, Debug)]
pub struct CycleWitness {
    /// The parent of the cycle.
    pub parent: TxId,
    /// The cycle's nodes, in order (first not repeated).
    pub nodes: Vec<TxId>,
    /// The oriented edges closing the cycle (`edges[i]` leaves `nodes[i]`).
    pub edges: Vec<WitnessEdge>,
    /// Rank class: 0 = two-conflict 2-cycle, 1 = pure-conflict cycle ≥ 3,
    /// 2 = conflict path closed by a precedes edge. Lower is stronger.
    pub rank: u8,
}

impl CycleWitness {
    /// Human-readable one-liner: `T1 -> T2 -> T1 (conflict on X0: T5 before T9, ...)`.
    pub fn describe(&self) -> String {
        let mut path = String::new();
        for n in &self.nodes {
            path.push_str(&format!("{n} -> "));
        }
        path.push_str(&format!("{}", self.nodes[0]));
        let mut notes = Vec::new();
        for e in &self.edges {
            match e.kind {
                WitnessEdgeKind::Conflict => notes.push(format!(
                    "conflict on {} ({} before {})",
                    e.obj.expect("conflict edge names an object"),
                    e.access_from.expect("conflict edge has a source access"),
                    e.access_to.expect("conflict edge has a target access"),
                )),
                WitnessEdgeKind::Precedes => {
                    notes.push(format!("{} reports before {} is requested", e.from, e.to))
                }
            }
        }
        format!("under {}: {} [{}]", self.parent, path, notes.join("; "))
    }
}

/// The full result of one static analysis.
#[derive(Clone)]
pub struct Analysis {
    /// All potential conflict edges.
    pub edges: Vec<PotentialEdge>,
    /// Number of accesses analyzed.
    pub accesses: usize,
    /// Components that could produce a cyclic `SG(β)`.
    pub cyclic: Vec<CyclicComponent>,
    /// Ranked concrete witnesses (capped at [`MAX_WITNESSES`]).
    pub witnesses: Vec<CycleWitness>,
}

impl Analysis {
    /// True iff no schedule of the plan can produce a cyclic `SG(β)`:
    /// the static "serializable under all schedules" certificate.
    pub fn certified(&self) -> bool {
        self.cyclic.is_empty()
    }
}

/// Tarjan's strongly-connected components (iterative, index graph).
fn tarjan_sccs(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let mut st = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut stack = Vec::new();
    let mut sccs = Vec::new();
    let mut counter = 0usize;
    for start in 0..n {
        if st[start].visited {
            continue;
        }
        // Explicit DFS frames: (node, next-neighbor index).
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut ni)) = frames.last_mut() {
            if !st[v].visited {
                st[v].visited = true;
                st[v].index = counter;
                st[v].lowlink = counter;
                counter += 1;
                st[v].on_stack = true;
                stack.push(v);
            }
            if *ni < adj[v].len() {
                let w = adj[v][*ni];
                *ni += 1;
                if !st[w].visited {
                    frames.push((w, 0));
                } else if st[w].on_stack {
                    st[v].lowlink = st[v].lowlink.min(st[w].index);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    let low = st[v].lowlink;
                    st[p].lowlink = st[p].lowlink.min(low);
                }
                if st[v].lowlink == st[v].index {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        st[w].on_stack = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

/// Run the full static analysis of a plan.
pub fn analyze(plan: &StaticPlan) -> Analysis {
    let edges = potential_edges(plan);
    let accesses = collect_accesses(plan).len();
    // Group edge indices by parent.
    let mut by_parent: BTreeMap<TxId, Vec<usize>> = BTreeMap::new();
    for (i, e) in edges.iter().enumerate() {
        by_parent.entry(e.parent).or_default().push(i);
    }
    let mut cyclic = Vec::new();
    let mut witnesses = Vec::new();
    for (parent, idxs) in by_parent {
        // A Sequential parent forces every per-parent edge up the slot
        // order: no cycle is possible regardless of conflicts.
        if plan.order_of(parent) == ChildOrder::Sequential {
            continue;
        }
        // Index the children touched by edges.
        let mut nodes: Vec<TxId> = Vec::new();
        let node_ix = |nodes: &mut Vec<TxId>, t: TxId| -> usize {
            match nodes.iter().position(|&x| x == t) {
                Some(i) => i,
                None => {
                    nodes.push(t);
                    nodes.len() - 1
                }
            }
        };
        let mut pairs: Vec<(usize, usize, usize)> = Vec::new(); // (a, b, edge idx)
        for &ei in &idxs {
            let e = &edges[ei];
            let a = node_ix(&mut nodes, e.left);
            let b = node_ix(&mut nodes, e.right);
            pairs.push((a, b, ei));
        }
        // Symmetrized digraph: an undirected conflict pair could run
        // either way, so Tarjan's SCCs are exactly the connected
        // components of the undirected potential graph.
        let mut adj = vec![Vec::new(); nodes.len()];
        for &(a, b, _) in &pairs {
            adj[a].push(b);
            adj[b].push(a);
        }
        for comp in tarjan_sccs(nodes.len(), &adj) {
            let inside: BTreeSet<usize> = comp.iter().copied().collect();
            let comp_edges: Vec<usize> = pairs
                .iter()
                .filter(|(a, b, _)| inside.contains(a) && inside.contains(b))
                .map(|&(_, _, ei)| ei)
                .collect();
            // One conflict pair alone cannot cycle, and neither can a
            // component whose members each contribute a single access:
            // every edge then orients along one total β order (see module
            // docs).
            if comp_edges.len() < 2 {
                continue;
            }
            let mut first_access: BTreeMap<TxId, TxId> = BTreeMap::new();
            let mut multi_access = false;
            for &ei in &comp_edges {
                let e = &edges[ei];
                for (m, a) in [(e.left, e.access_left), (e.right, e.access_right)] {
                    match first_access.get(&m) {
                        None => {
                            first_access.insert(m, a);
                        }
                        Some(&prev) if prev != a => multi_access = true,
                        Some(_) => {}
                    }
                }
            }
            if !multi_access {
                continue;
            }
            let members: Vec<TxId> = comp.iter().map(|&i| nodes[i]).collect();
            witnesses.extend(enumerate_witnesses(&edges, parent, &comp_edges));
            cyclic.push(CyclicComponent {
                parent,
                members,
                edge_indices: comp_edges,
            });
        }
    }
    witnesses.sort_by_key(|w| (w.rank, w.nodes.len(), w.parent, w.nodes.clone()));
    witnesses.truncate(MAX_WITNESSES);
    Analysis {
        edges,
        accesses,
        cyclic,
        witnesses,
    }
}

/// The access of `e` lying under child `side` of `e.parent`.
fn access_on(e: &PotentialEdge, side: TxId) -> TxId {
    if e.left == side {
        e.access_left
    } else {
        e.access_right
    }
}

/// Enumerate ranked witnesses for one cyclic component.
fn enumerate_witnesses(
    edges: &[PotentialEdge],
    parent: TxId,
    comp_edges: &[usize],
) -> Vec<CycleWitness> {
    let mut out = Vec::new();
    // Distinct unordered child pairs, each with its list of edges.
    let mut pair_edges: BTreeMap<(TxId, TxId), Vec<usize>> = BTreeMap::new();
    for &ei in comp_edges {
        let e = &edges[ei];
        let key = if e.left <= e.right {
            (e.left, e.right)
        } else {
            (e.right, e.left)
        };
        pair_edges.entry(key).or_default().push(ei);
    }
    let conflict_edge = |ei: usize, from: TxId, to: TxId| -> WitnessEdge {
        let e = &edges[ei];
        WitnessEdge {
            from,
            to,
            kind: WitnessEdgeKind::Conflict,
            obj: Some(e.obj),
            access_from: Some(access_on(e, from)),
            access_to: Some(access_on(e, to)),
        }
    };
    // Class 0: two independent conflict pairs between the same two
    // children — a direct 2-cycle.
    for (&(l, r), eis) in &pair_edges {
        if eis.len() >= 2 && out.len() < MAX_WITNESSES {
            out.push(CycleWitness {
                parent,
                nodes: vec![l, r],
                edges: vec![conflict_edge(eis[0], l, r), conflict_edge(eis[1], r, l)],
                rank: 0,
            });
        }
    }
    // Pair graph for the structural classes: one representative per pair.
    let mut nodes: Vec<TxId> = Vec::new();
    for &(l, r) in pair_edges.keys() {
        if !nodes.contains(&l) {
            nodes.push(l);
        }
        if !nodes.contains(&r) {
            nodes.push(r);
        }
    }
    let rep = |a: TxId, b: TxId| -> Option<usize> {
        let key = if a <= b { (a, b) } else { (b, a) };
        pair_edges.get(&key).map(|eis| eis[0])
    };
    let neighbors = |a: TxId| -> Vec<TxId> {
        nodes
            .iter()
            .copied()
            .filter(|&b| b != a && rep(a, b).is_some())
            .collect()
    };
    // Class 1: simple cycles of length ≥ 3 with every edge a conflict
    // pair. Bounded DFS; only the smallest node starts a cycle, so each
    // is found once.
    for (si, &start) in nodes.iter().enumerate() {
        let mut path = vec![start];
        let mut stack = vec![(start, 0usize)];
        let mut nbrs: Vec<Vec<TxId>> = vec![neighbors(start)];
        while let Some(&mut (_, ref mut ni)) = stack.last_mut() {
            if out.len() >= MAX_WITNESSES {
                return out;
            }
            if *ni >= nbrs.last().expect("stack in sync").len() || path.len() > MAX_CYCLE_LEN {
                stack.pop();
                nbrs.pop();
                path.pop();
                continue;
            }
            let w = nbrs.last().expect("stack in sync")[*ni];
            *ni += 1;
            if w == start && path.len() >= 3 {
                let mut wedges = Vec::new();
                for i in 0..path.len() {
                    let (a, b) = (path[i], path[(i + 1) % path.len()]);
                    wedges.push(conflict_edge(rep(a, b).expect("pair exists"), a, b));
                }
                out.push(CycleWitness {
                    parent,
                    nodes: path.clone(),
                    edges: wedges,
                    rank: 1,
                });
                continue;
            }
            // Visit only nodes after `start` (dedup) and not on the path.
            let wi = nodes.iter().position(|&x| x == w).expect("known node");
            if wi <= si || path.contains(&w) {
                continue;
            }
            path.push(w);
            nbrs.push(neighbors(w));
            stack.push((w, 0));
        }
    }
    // Class 2: a two-conflict path a—b—c closed by a precedes edge c→a
    // (realizable when b contributes two distinct accesses: the schedule
    // runs b's first access, all of c, then creates a). Skipped when a—c
    // already has a conflict pair (that triangle is a class-1 witness).
    for &b in &nodes {
        let nb = neighbors(b);
        for (i, &a) in nb.iter().enumerate() {
            for &c in &nb[i + 1..] {
                if rep(a, c).is_some() || out.len() >= MAX_WITNESSES {
                    continue;
                }
                // Prefer edge choices giving b two distinct accesses.
                let mut eab = rep(a, b).expect("pair exists");
                let mut ebc = rep(b, c).expect("pair exists");
                let key_ab = if a <= b { (a, b) } else { (b, a) };
                let key_bc = if b <= c { (b, c) } else { (c, b) };
                'pick: for &x in &pair_edges[&key_ab] {
                    for &y in &pair_edges[&key_bc] {
                        if access_on(&edges[x], b) != access_on(&edges[y], b) {
                            eab = x;
                            ebc = y;
                            break 'pick;
                        }
                    }
                }
                out.push(CycleWitness {
                    parent,
                    nodes: vec![a, b, c],
                    edges: vec![
                        conflict_edge(eab, a, b),
                        conflict_edge(ebc, b, c),
                        WitnessEdge {
                            from: c,
                            to: a,
                            kind: WitnessEdgeKind::Precedes,
                            obj: None,
                            access_from: None,
                            access_to: None,
                        },
                    ],
                    rank: 2,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Witness realization
// ---------------------------------------------------------------------------

/// Flip every edge of a witness (the cycle run the other way round).
fn reverse_witness(w: &CycleWitness) -> CycleWitness {
    let mut nodes = w.nodes.clone();
    nodes[1..].reverse();
    let edges = w
        .edges
        .iter()
        .rev()
        .map(|e| WitnessEdge {
            from: e.to,
            to: e.from,
            kind: e.kind,
            obj: e.obj,
            access_from: e.access_to,
            access_to: e.access_from,
        })
        .collect();
    CycleWitness {
        parent: w.parent,
        nodes,
        edges,
        rank: w.rank,
    }
}

/// The chosen accesses of a witness, per cycle node.
fn chosen_accesses(w: &CycleWitness) -> BTreeMap<TxId, Vec<TxId>> {
    let mut per_node: BTreeMap<TxId, Vec<TxId>> = BTreeMap::new();
    for e in &w.edges {
        for (side, acc) in [(e.from, e.access_from), (e.to, e.access_to)] {
            if let Some(a) = acc {
                let v = per_node.entry(side).or_default();
                if !v.contains(&a) {
                    v.push(a);
                }
            }
        }
    }
    per_node
}

/// Topologically order the chosen accesses under the witness orientation,
/// plan-forced program order, and precedes closures. `None` if the
/// constraints are contradictory (this orientation is unrealizable).
fn order_accesses(plan: &StaticPlan, w: &CycleWitness) -> Option<Vec<TxId>> {
    let tree = &plan.tree;
    let per_node = chosen_accesses(w);
    let mut accs: Vec<TxId> = per_node.values().flatten().copied().collect();
    accs.sort();
    accs.dedup();
    let ix = |t: TxId| accs.iter().position(|&x| x == t).expect("chosen access");
    let mut before: Vec<(usize, usize)> = Vec::new();
    for e in &w.edges {
        match e.kind {
            WitnessEdgeKind::Conflict => before.push((
                ix(e.access_from.expect("conflict edge has a source access")),
                ix(e.access_to.expect("conflict edge has a target access")),
            )),
            WitnessEdgeKind::Precedes => {
                // Everything chosen under `from` happens (and `from`
                // commits) before anything chosen under `to` starts.
                for &x in per_node.get(&e.from).map(Vec::as_slice).unwrap_or(&[]) {
                    for &y in per_node.get(&e.to).map(Vec::as_slice).unwrap_or(&[]) {
                        before.push((ix(x), ix(y)));
                    }
                }
            }
        }
    }
    // Plan-forced program order: a Sequential ancestor orders accesses in
    // different child slots by slot index.
    for i in 0..accs.len() {
        for j in i + 1..accs.len() {
            let (u, v) = (accs[i], accs[j]);
            let l = tree.lca(u, v);
            if plan.order_of(l) != ChildOrder::Sequential {
                continue;
            }
            let (cu, cv) = (tree.child_toward(l, u), tree.child_toward(l, v));
            let kids = tree.children(l);
            let pu = kids.iter().position(|&k| k == cu).expect("child of lca");
            let pv = kids.iter().position(|&k| k == cv).expect("child of lca");
            if pu < pv {
                before.push((i, j));
            } else {
                before.push((j, i));
            }
        }
    }
    // Kahn.
    let n = accs.len();
    let mut indeg = vec![0usize; n];
    let mut succ = vec![Vec::new(); n];
    before.sort();
    before.dedup();
    for &(a, b) in &before {
        succ[a].push(b);
        indeg[b] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = ready.pop() {
        order.push(accs[i]);
        for &j in &succ[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                ready.push(j);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Synthesize a simple-system history realizing the witness: each chosen
/// access runs to completion in the constrained order, precedes closures
/// commit and report their subtree before the successor is requested, and
/// every created transaction commits in the epilogue. Return values are
/// computed by sequential replay per object, so they are appropriate by
/// construction and the checker's verdict isolates graph cyclicity.
///
/// `None` means neither orientation of the cycle is consistent with the
/// plan's forced program order — the witness is statically unrealizable.
pub fn synthesize_history(plan: &StaticPlan, w: &CycleWitness) -> Option<Vec<Action>> {
    let (w, order) = match order_accesses(plan, w) {
        Some(o) => (w.clone(), o),
        None => {
            let rev = reverse_witness(w);
            let o = order_accesses(plan, &rev)?;
            (rev, o)
        }
    };
    let tree = &plan.tree;
    let per_node = chosen_accesses(&w);
    // After which access must a precedes source close its whole subtree?
    let mut close_after: BTreeMap<TxId, TxId> = BTreeMap::new();
    for e in &w.edges {
        if e.kind == WitnessEdgeKind::Precedes {
            let last = order
                .iter()
                .rev()
                .find(|a| per_node.get(&e.from).is_some_and(|v| v.contains(a)))
                .copied()?;
            close_after.insert(last, e.from);
        }
    }
    let mut hist = vec![Action::Create(TxId::ROOT)];
    let mut created: BTreeSet<TxId> = BTreeSet::from([TxId::ROOT]);
    let mut completed: BTreeSet<TxId> = BTreeSet::new();
    let mut state: BTreeMap<ObjId, Value> = BTreeMap::new();
    let close = |root: TxId,
                 hist: &mut Vec<Action>,
                 created: &BTreeSet<TxId>,
                 completed: &mut BTreeSet<TxId>| {
        let mut open: Vec<TxId> = created
            .iter()
            .copied()
            .filter(|&t| t != TxId::ROOT && !completed.contains(&t) && tree.is_ancestor(root, t))
            .collect();
        open.sort_by_key(|&t| std::cmp::Reverse(tree.depth(t)));
        for t in open {
            hist.push(Action::RequestCommit(t, Value::Ok));
            hist.push(Action::Commit(t));
            hist.push(Action::ReportCommit(t, Value::Ok));
            completed.insert(t);
        }
    };
    for u in &order {
        // Create the ancestor chain top-down, then run the access fully.
        let mut chain: Vec<TxId> = tree.ancestors(*u).filter(|&a| a != TxId::ROOT).collect();
        chain.reverse();
        chain.push(*u);
        for t in chain {
            if created.insert(t) {
                hist.push(Action::RequestCreate(t));
                hist.push(Action::Create(t));
            }
        }
        let x = tree.object_of(*u).expect("access names an object");
        let ty = plan.types.get(x);
        let st = state.entry(x).or_insert_with(|| ty.initial());
        let (s2, v) = ty.apply(st, tree.op_of(*u).expect("access carries an op"));
        *st = s2;
        hist.push(Action::RequestCommit(*u, v.clone()));
        hist.push(Action::Commit(*u));
        hist.push(Action::ReportCommit(*u, v));
        completed.insert(*u);
        if let Some(&root) = close_after.get(u) {
            close(root, &mut hist, &created, &mut completed);
        }
    }
    // Epilogue: commit everything still open, deepest first.
    close(TxId::ROOT, &mut hist, &created, &mut completed);
    Some(hist)
}

/// The outcome of trying to realize one witness against the checker.
#[derive(Clone, Debug)]
pub struct WitnessValidation {
    /// False iff no orientation satisfies the plan's forced order.
    pub realizable: bool,
    /// The checker's verdict name (`"cyclic"` on success).
    pub verdict: &'static str,
    /// True iff the synthesized behavior's `SG(β)` is actually cyclic.
    pub reproduced: bool,
    /// Length of the synthesized history (0 when unrealizable).
    pub history_len: usize,
}

/// Realize `w` as a history and run the Theorem 8/19 checker on it:
/// `reproduced` iff the verdict is `Cyclic` — the witness is a real
/// schedule of this plan with a cyclic serialization graph.
pub fn validate_witness(plan: &StaticPlan, w: &CycleWitness) -> WitnessValidation {
    match synthesize_history(plan, w) {
        None => WitnessValidation {
            realizable: false,
            verdict: "unrealizable",
            reproduced: false,
            history_len: 0,
        },
        Some(h) => {
            let source = match plan.mode {
                StaticConflictMode::ReadWrite => ConflictSource::ReadWrite,
                StaticConflictMode::Commutativity => ConflictSource::Types(&plan.types),
            };
            let v = check_serial_correctness(&plan.tree, &h, &plan.types, source);
            WitnessValidation {
                realizable: true,
                verdict: v.name(),
                reproduced: matches!(v, Verdict::Cyclic { .. }),
                history_len: h.len(),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Findings & gates
// ---------------------------------------------------------------------------

/// Lint one static plan: an Info certificate when no schedule can cycle,
/// one Error per ranked witness otherwise.
pub fn lint_static_plan(plan: &StaticPlan) -> Vec<Finding> {
    let a = analyze(plan);
    let subject = format!("plan {}", plan.name);
    let mut out = Vec::new();
    if a.certified() {
        out.push(Finding::new(
            Severity::Info,
            "analyze",
            subject,
            format!(
                "statically serializable under all schedules: {} accesses, {} potential conflict pair(s), no component can cycle",
                a.accesses,
                a.edges.len()
            ),
        ));
    } else {
        for w in &a.witnesses {
            out.push(Finding::new(
                Severity::Error,
                "analyze",
                subject.clone(),
                format!("potential serialization cycle {}", w.describe()),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// `.access.json` static-plan documents
// ---------------------------------------------------------------------------

/// Parse a `*.access.json` static-plan document:
///
/// ```json
/// {
///   "schema": "nt-analyze-plan-v1",
///   "name": "planted-cycle",
///   "type": "register",
///   "objects": 2,
///   "tops": [
///     {"order": "parallel", "children": [
///       {"obj": 0, "op": "write", "arg": 1},
///       {"obj": 1, "op": "write", "arg": 1}
///     ]}
///   ]
/// }
/// ```
///
/// `mode` is optional (`"rw"` or `"commutativity"`); it defaults to `rw`
/// for `register` plans and `commutativity` for every other type. Unknown
/// keys are rejected by name.
pub fn parse_access_plan(text: &str) -> Result<StaticPlan, String> {
    let doc = Json::parse(text)?;
    let Json::Obj(fields) = &doc else {
        return Err("top level must be an object".into());
    };
    for key in fields.keys() {
        if !matches!(
            key.as_str(),
            "schema" | "name" | "type" | "objects" | "mode" | "tops"
        ) {
            return Err(format!("unknown key {key:?}"));
        }
    }
    match doc.get("schema").and_then(Json::as_str) {
        Some("nt-analyze-plan-v1") => {}
        Some(other) => return Err(format!("unsupported schema {other:?}")),
        None => return Err("missing \"schema\"".into()),
    }
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("missing \"name\"")?
        .to_string();
    let ty_name = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or("missing \"type\"")?;
    let ty = nt_datatypes::all_types()
        .into_iter()
        .find(|(n, _)| *n == ty_name)
        .map(|(_, t)| t)
        .ok_or_else(|| format!("unknown type {ty_name:?}"))?;
    let objects = json_usize(&doc, "objects")?;
    if objects == 0 {
        return Err("\"objects\" must be >= 1".into());
    }
    let mode = match doc.get("mode").and_then(Json::as_str) {
        Some("rw") => StaticConflictMode::ReadWrite,
        Some("commutativity") => StaticConflictMode::Commutativity,
        Some(other) => return Err(format!("unknown mode {other:?}")),
        None if ty_name == "register" => StaticConflictMode::ReadWrite,
        None => StaticConflictMode::Commutativity,
    };
    let Some(Json::Arr(tops)) = doc.get("tops") else {
        return Err("missing \"tops\" array".into());
    };
    if tops.is_empty() {
        return Err("\"tops\" must not be empty".into());
    }
    let mut tree = TxTree::new();
    tree.add_objects(objects);
    let mut orders = BTreeMap::from([(TxId::ROOT, ChildOrder::Parallel)]);
    for t in tops {
        parse_node(t, &mut tree, TxId::ROOT, objects, &mut orders)?;
    }
    Ok(StaticPlan {
        name,
        tree: Arc::new(tree),
        types: ObjectTypes::uniform(objects, ty),
        mode,
        orders,
        skip: BTreeSet::new(),
    })
}

fn json_usize(doc: &Json, key: &str) -> Result<usize, String> {
    let n = doc
        .get(key)
        .ok_or_else(|| format!("missing numeric {key:?}"))?;
    n.as_uint()
        .ok_or_else(|| format!("{key:?} must be a non-negative integer"))
}

/// One node of a `tops` subtree: an access (`obj`/`op`/`arg`) or an inner
/// transaction (`order`/`children`).
fn parse_node(
    node: &Json,
    tree: &mut TxTree,
    parent: TxId,
    objects: usize,
    orders: &mut BTreeMap<TxId, ChildOrder>,
) -> Result<(), String> {
    let Json::Obj(fields) = node else {
        return Err("tree nodes must be objects".into());
    };
    if fields.contains_key("obj") {
        for key in fields.keys() {
            if !matches!(key.as_str(), "obj" | "op" | "arg") {
                return Err(format!("unknown access key {key:?}"));
            }
        }
        let obj = json_usize(node, "obj")?;
        if obj >= objects {
            return Err(format!("\"obj\" {obj} out of range (objects = {objects})"));
        }
        let arg = || -> Result<i64, String> {
            let n = node
                .get("arg")
                .and_then(Json::as_num)
                .ok_or("op requires an \"arg\"")?;
            if n.fract() != 0.0 {
                return Err("\"arg\" must be an integer".into());
            }
            Ok(n as i64)
        };
        let op = match node.get("op").and_then(Json::as_str) {
            Some("read") => Op::Read,
            Some("write") => Op::Write(arg()?),
            Some("add") => Op::Add(arg()?),
            Some("get_count") => Op::GetCount,
            Some(other) => return Err(format!("unknown op {other:?}")),
            None => return Err("access node missing \"op\"".into()),
        };
        tree.add_access(parent, ObjId(obj as u32), op);
        Ok(())
    } else {
        for key in fields.keys() {
            if !matches!(key.as_str(), "order" | "children") {
                return Err(format!("unknown transaction key {key:?}"));
            }
        }
        let order = match node.get("order").and_then(Json::as_str) {
            Some("parallel") => ChildOrder::Parallel,
            Some("sequential") => ChildOrder::Sequential,
            Some(other) => return Err(format!("unknown order {other:?}")),
            None => return Err("transaction node missing \"order\"".into()),
        };
        let Some(Json::Arr(children)) = node.get("children") else {
            return Err("transaction node missing \"children\" array".into());
        };
        if children.is_empty() {
            return Err("\"children\" must not be empty".into());
        }
        let t = tree.add_inner(parent);
        orders.insert(t, order);
        for c in children {
            parse_node(c, tree, t, objects, orders)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_serial::RwRegister;

    /// Two parallel tops each writing X0 then X1: the classic crossing
    /// write-write pattern that can 2-cycle.
    fn crossing_plan() -> StaticPlan {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let y = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        tree.add_access(a, x, Op::Write(1));
        tree.add_access(a, y, Op::Write(1));
        tree.add_access(b, x, Op::Write(2));
        tree.add_access(b, y, Op::Write(2));
        StaticPlan {
            name: "crossing".into(),
            tree: Arc::new(tree),
            types: ObjectTypes::uniform(2, Arc::new(RwRegister::new(0))),
            mode: StaticConflictMode::ReadWrite,
            orders: BTreeMap::from([
                (TxId::ROOT, ChildOrder::Parallel),
                (a, ChildOrder::Parallel),
                (b, ChildOrder::Parallel),
            ]),
            skip: BTreeSet::new(),
        }
    }

    #[test]
    fn crossing_writes_are_flagged_and_reproduced() {
        let plan = crossing_plan();
        let a = analyze(&plan);
        assert!(!a.certified());
        assert_eq!(a.cyclic.len(), 1);
        let w = &a.witnesses[0];
        assert_eq!(w.rank, 0, "two pairs between two tops is a 2-cycle");
        let v = validate_witness(&plan, w);
        assert!(v.realizable);
        assert_eq!(v.verdict, "cyclic", "the witness schedule must cycle");
        assert!(v.reproduced);
    }

    #[test]
    fn read_only_and_partitioned_plans_are_certified() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let y = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        // Reads share freely; the writes live in disjoint partitions.
        tree.add_access(a, x, Op::Read);
        tree.add_access(a, x, Op::Write(1));
        tree.add_access(b, y, Op::Read);
        tree.add_access(b, y, Op::Write(1));
        let plan = StaticPlan {
            name: "partitioned".into(),
            tree: Arc::new(tree),
            types: ObjectTypes::uniform(2, Arc::new(RwRegister::new(0))),
            mode: StaticConflictMode::ReadWrite,
            orders: BTreeMap::new(),
            skip: BTreeSet::new(),
        };
        let a = analyze(&plan);
        assert!(a.certified());
        // The only conflicts are each top's own read/write pair — one pair
        // per component, so no cycle is possible.
        assert_eq!(a.edges.len(), 2);
    }

    #[test]
    fn single_conflict_pair_is_not_a_cycle() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        tree.add_access(a, x, Op::Write(1));
        tree.add_access(b, x, Op::Write(2));
        let plan = StaticPlan {
            name: "single-pair".into(),
            tree: Arc::new(tree),
            types: ObjectTypes::uniform(1, Arc::new(RwRegister::new(0))),
            mode: StaticConflictMode::ReadWrite,
            orders: BTreeMap::new(),
            skip: BTreeSet::new(),
        };
        let a = analyze(&plan);
        assert_eq!(a.edges.len(), 1);
        assert!(a.certified(), "one conflict pair can never close a cycle");
    }

    #[test]
    fn sequential_parent_cannot_cycle() {
        let mut plan = crossing_plan();
        plan.orders.insert(TxId::ROOT, ChildOrder::Sequential);
        assert!(analyze(&plan).certified());
    }

    #[test]
    fn precedes_closed_path_is_flagged_and_reproduced() {
        // A touches X; B touches Y then X; C touches Y. Path A—B—C with
        // two distinct accesses in the middle: closable by precedes C→A.
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let y = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let c = tree.add_inner(TxId::ROOT);
        tree.add_access(a, x, Op::Write(1));
        tree.add_access(b, y, Op::Write(2));
        tree.add_access(b, x, Op::Write(2));
        tree.add_access(c, y, Op::Write(3));
        let plan = StaticPlan {
            name: "path".into(),
            tree: Arc::new(tree),
            types: ObjectTypes::uniform(2, Arc::new(RwRegister::new(0))),
            mode: StaticConflictMode::ReadWrite,
            orders: BTreeMap::new(),
            skip: BTreeSet::new(),
        };
        let an = analyze(&plan);
        assert!(!an.certified());
        let w = an
            .witnesses
            .iter()
            .find(|w| w.rank == 2)
            .expect("a precedes-closed witness");
        let v = validate_witness(&plan, w);
        assert!(v.realizable);
        assert!(v.reproduced, "verdict was {}", v.verdict);
    }

    #[test]
    fn commuting_ops_pass_only_with_commutativity_mode() {
        let counter = nt_datatypes::all_types()
            .into_iter()
            .find(|(n, _)| *n == "counter")
            .map(|(_, t)| t)
            .expect("counter type ships");
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let y = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        tree.add_access(a, x, Op::Add(1));
        tree.add_access(a, y, Op::Add(2));
        tree.add_access(b, x, Op::Add(3));
        tree.add_access(b, y, Op::Add(4));
        let mut plan = StaticPlan {
            name: "commuting".into(),
            tree: Arc::new(tree),
            types: ObjectTypes::uniform(2, counter),
            mode: StaticConflictMode::Commutativity,
            orders: BTreeMap::new(),
            skip: BTreeSet::new(),
        };
        assert!(analyze(&plan).certified(), "Add/Add commutes backward");
        // A naive read/write analysis treats Add as a write and flags it.
        plan.mode = StaticConflictMode::ReadWrite;
        assert!(!analyze(&plan).certified());
    }

    #[test]
    fn access_plan_json_round_trips() {
        let text = r#"{
            "schema": "nt-analyze-plan-v1",
            "name": "planted",
            "type": "register",
            "objects": 2,
            "tops": [
                {"order": "parallel", "children": [
                    {"obj": 0, "op": "write", "arg": 1},
                    {"obj": 1, "op": "write", "arg": 1}
                ]},
                {"order": "parallel", "children": [
                    {"obj": 0, "op": "write", "arg": 2},
                    {"obj": 1, "op": "write", "arg": 2}
                ]}
            ]
        }"#;
        let plan = parse_access_plan(text).expect("valid plan");
        assert_eq!(plan.name, "planted");
        assert_eq!(plan.mode, StaticConflictMode::ReadWrite);
        assert!(!analyze(&plan).certified());
    }

    #[test]
    fn access_plan_rejects_unknown_keys_and_ops() {
        let bad_key = r#"{"schema": "nt-analyze-plan-v1", "name": "x",
            "type": "register", "objects": 1, "bogus": 1,
            "tops": [{"order": "parallel", "children": [{"obj": 0, "op": "read"}]}]}"#;
        assert!(parse_access_plan(bad_key)
            .unwrap_err()
            .contains("unknown key"));
        let bad_op = r#"{"schema": "nt-analyze-plan-v1", "name": "x",
            "type": "register", "objects": 1,
            "tops": [{"order": "parallel", "children": [{"obj": 0, "op": "frobnicate"}]}]}"#;
        assert!(parse_access_plan(bad_op)
            .unwrap_err()
            .contains("unknown op"));
    }

    #[test]
    fn flat_partitioned_workloads_are_certified() {
        use nt_sim::WorkloadSpec;
        // Flat tops (single-access members only) over disjoint object
        // partitions: within a top every component member is one access,
        // across tops there is no shared object — nothing can cycle.
        let spec = WorkloadSpec {
            objects: 6,
            top_level: 6,
            max_depth: 0,
            subtx_prob: 0.0,
            object_partitions: 6,
            ..WorkloadSpec::default()
        };
        let w = spec.generate();
        let sp = StaticPlan::from_workload("flat-partitioned", &w);
        assert!(analyze(&sp).certified());
    }
}
