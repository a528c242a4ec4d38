//! A dynamic topological order with incremental cycle detection, after
//! Pearce & Kelly ("A Dynamic Topological Sort Algorithm for Directed
//! Acyclic Graphs", JEA 2006).
//!
//! The maintainer inserts serialization-graph edges one at a time as
//! transactions become visible; each insert must answer "is the graph
//! still acyclic?" without rescanning. [`DynTopo`] keeps an explicit
//! topological order `ord` over the nodes. Inserting `from → to`:
//!
//! * if `ord[from] < ord[to]` the order already witnesses acyclicity —
//!   O(1), the overwhelmingly common case (serialization edges mostly
//!   point forward in commit order);
//! * otherwise a **two-way bounded search** runs only inside the
//!   *affected region* `ord[to] ..= ord[from]`: forward from `to` over
//!   successors (reaching `from` proves a cycle, reported with the
//!   discovered path) and backward from `from` over predecessors; the
//!   two discovered sets are then re-slotted into the vacated positions,
//!   restoring the invariant without touching any node outside the
//!   region.
//!
//! A cycle-producing edge is **not** added: the structure stays a DAG,
//! so the caller can latch the violation while the order remains
//! consistent for diagnostics.
//!
//! ## Flat state
//!
//! Nodes live in slots, a `Vec` index the graph hands out
//! ([`add_node`](DynTopo::add_node)) and takes back
//! ([`remove_node`](DynTopo::remove_node), the watermark GC); each slot
//! carries the [`TxId`] it stands for. A slot keeps its adjacency
//! vectors when it is freed, and the searches run on scratch vectors the
//! graph owns, so once the slots in use have grown to the window's size
//! an insert or a removal allocates nothing. Vacated `ord` positions are
//! never reused — `u64` positions make exhaustion unreachable.

use nt_model::TxId;
use nt_sgt::EdgeKind;

/// Provenance of one maintained edge: its kind plus the stamps of the
/// two actions that induced it (first-insertion wins, like the post-hoc
/// graph's dedup).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeMeta {
    /// Conflict or precedes.
    pub kind: EdgeKind,
    /// Stamps of the inducing action pair (earlier, later).
    pub witness: (u64, u64),
}

/// Outcome of an edge insertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Insert {
    /// The `(from, to)` pair was already present; nothing changed.
    Exists,
    /// The edge was added and the graph is still acyclic.
    Added,
    /// The edge would close this cycle, as slots (`cycle[0] ==
    /// cycle[last]`; the final hop is the rejected edge). The edge was
    /// **not** added.
    Cycle(Vec<usize>),
}

/// `ord` of a slot that holds no node.
const VACANT: u64 = u64::MAX;

#[derive(Clone, Debug)]
struct Node {
    /// Position in the topological order, or [`VACANT`].
    ord: u64,
    label: TxId,
    out: Vec<(u32, EdgeMeta)>,
    inn: Vec<u32>,
    /// The search (an epoch) that last reached this node.
    mark: u32,
    /// The node the forward search reached this one from.
    via: u32,
}

/// The dynamic topological order over one sibling digraph (or over
/// several disjoint ones: an edge only ever joins siblings, so a cycle
/// never crosses from one parent's children to another's).
#[derive(Clone, Debug, Default)]
pub struct DynTopo {
    nodes: Vec<Node>,
    /// Slots handed out since the last [`clear`](Self::clear).
    high: usize,
    /// Freed slots below `high`.
    free: Vec<u32>,
    count: usize,
    edges: usize,
    next_ord: u64,
    epoch: u32,
    stack: Vec<u32>,
    fwd: Vec<u32>,
    back: Vec<u32>,
    slots: Vec<u64>,
}

impl DynTopo {
    /// An empty order.
    pub fn new() -> DynTopo {
        DynTopo::default()
    }

    /// Add a node standing for `label`, last in the current order, and
    /// return its slot: a freed one if there is one, else the next.
    pub fn add_node(&mut self, label: TxId) -> usize {
        let slot = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                if self.high == self.nodes.len() {
                    self.nodes.push(Node {
                        ord: VACANT,
                        label,
                        out: Vec::new(),
                        inn: Vec::new(),
                        mark: 0,
                        via: 0,
                    });
                }
                self.high += 1;
                self.high - 1
            }
        };
        let n = &mut self.nodes[slot];
        n.ord = self.next_ord;
        n.label = label;
        self.next_ord += 1;
        self.count += 1;
        slot
    }

    /// Drop every node and edge, keeping every buffer for reuse: the
    /// next [`add_node`](Self::add_node)s hand out slots `0, 1, …`.
    pub fn clear(&mut self) {
        for n in &mut self.nodes[..self.high] {
            n.ord = VACANT;
            n.out.clear();
            n.inn.clear();
        }
        self.high = 0;
        self.free.clear();
        self.count = 0;
        self.edges = 0;
        self.next_ord = 0;
    }

    /// Whether `slot` holds a node.
    pub fn contains(&self, slot: usize) -> bool {
        self.nodes.get(slot).is_some_and(|n| n.ord != VACANT)
    }

    /// The transaction `slot` stands for.
    pub fn label(&self, slot: usize) -> TxId {
        self.nodes[slot].label
    }

    /// Current node count.
    pub fn node_count(&self) -> usize {
        self.count
    }

    /// Current count of distinct `(from, to)` pairs.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Current in-degree of `slot`.
    pub fn indegree(&self, slot: usize) -> usize {
        self.nodes[slot].inn.len()
    }

    /// The provenance recorded for `(from, to)`, if the edge exists.
    pub fn meta(&self, from: usize, to: usize) -> Option<&EdgeMeta> {
        let to = to as u32;
        self.nodes[from]
            .out
            .iter()
            .find(|(t, _)| *t == to)
            .map(|(_, m)| m)
    }

    /// Iterate every maintained edge with its provenance, by label.
    pub fn edges(&self) -> impl Iterator<Item = (TxId, TxId, &EdgeMeta)> + '_ {
        self.nodes[..self.high]
            .iter()
            .filter(|n| n.ord != VACANT)
            .flat_map(move |n| {
                n.out
                    .iter()
                    .map(move |(t, m)| (n.label, self.nodes[*t as usize].label, m))
            })
    }

    /// The current nodes' labels in topological order.
    pub fn nodes_in_order(&self) -> Vec<TxId> {
        let mut v: Vec<(u64, TxId)> = self.nodes[..self.high]
            .iter()
            .filter(|n| n.ord != VACANT)
            .map(|n| (n.ord, n.label))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, t)| t).collect()
    }

    /// Insert `from → to` between two present slots. See [`Insert`]; on
    /// [`Insert::Cycle`] the graph is left exactly as it was.
    pub fn insert_edge(
        &mut self,
        from: usize,
        to: usize,
        kind: EdgeKind,
        witness: (u64, u64),
    ) -> Insert {
        debug_assert!(self.contains(from) && self.contains(to), "absent slot");
        if from == to {
            return Insert::Cycle(vec![from, from]);
        }
        if self.meta(from, to).is_some() {
            return Insert::Exists;
        }
        let lo = self.nodes[to].ord;
        let hi = self.nodes[from].ord;
        if hi > lo {
            // The affected region is ord[to] ..= ord[from]. Forward
            // bounded search from `to`: reaching `from` closes a cycle.
            if let Some(mut path) = self.forward_reach(to, from, hi) {
                // path is to → … → from; close it with the rejected edge.
                path.push(to);
                return Insert::Cycle(path);
            }
            self.backward_reach(from, lo);
            self.reorder();
        }
        self.nodes[from]
            .out
            .push((to as u32, EdgeMeta { kind, witness }));
        self.nodes[to].inn.push(from as u32);
        self.edges += 1;
        Insert::Added
    }

    /// A fresh search mark.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            for n in &mut self.nodes {
                n.mark = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Search forward from `start` over `ord <= hi`, collecting what it
    /// reaches into `fwd`; a path `start → … → target` if it reaches
    /// `target`.
    fn forward_reach(&mut self, start: usize, target: usize, hi: u64) -> Option<Vec<usize>> {
        let epoch = self.next_epoch();
        self.fwd.clear();
        self.stack.clear();
        self.nodes[start].mark = epoch;
        self.fwd.push(start as u32);
        self.stack.push(start as u32);
        while let Some(n) = self.stack.pop() {
            for i in 0..self.nodes[n as usize].out.len() {
                let m = self.nodes[n as usize].out[i].0;
                if m as usize == target {
                    // Walk back start ← … ← n, then add the last hop.
                    let mut path = vec![target, n as usize];
                    let mut cur = n as usize;
                    while cur != start {
                        cur = self.nodes[cur].via as usize;
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                let node = &mut self.nodes[m as usize];
                if node.ord <= hi && node.mark != epoch {
                    node.mark = epoch;
                    node.via = n;
                    self.fwd.push(m);
                    self.stack.push(m);
                }
            }
        }
        None
    }

    /// Search backward from `start` over `ord >= lo` into `back`.
    fn backward_reach(&mut self, start: usize, lo: u64) {
        let epoch = self.next_epoch();
        self.back.clear();
        self.stack.clear();
        self.nodes[start].mark = epoch;
        self.back.push(start as u32);
        self.stack.push(start as u32);
        while let Some(n) = self.stack.pop() {
            for i in 0..self.nodes[n as usize].inn.len() {
                let m = self.nodes[n as usize].inn[i];
                let node = &mut self.nodes[m as usize];
                if node.ord >= lo && node.mark != epoch {
                    node.mark = epoch;
                    self.back.push(m);
                    self.stack.push(m);
                }
            }
        }
    }

    /// Re-slot the affected nodes: everything that reaches `from` (the
    /// backward set) must precede everything reachable from `to` (the
    /// forward set), reusing exactly the vacated `ord` positions.
    fn reorder(&mut self) {
        let DynTopo {
            nodes,
            fwd,
            back,
            slots,
            ..
        } = self;
        slots.clear();
        slots.extend(
            back.iter()
                .chain(fwd.iter())
                .map(|&t| nodes[t as usize].ord),
        );
        slots.sort_unstable();
        back.sort_unstable_by_key(|&t| nodes[t as usize].ord);
        fwd.sort_unstable_by_key(|&t| nodes[t as usize].ord);
        for (&t, &slot) in back.iter().chain(fwd.iter()).zip(slots.iter()) {
            nodes[t as usize].ord = slot;
        }
    }

    /// Remove the node in `slot` and every edge touching it, and free the
    /// slot; `now_source` is called with each successor the removal left
    /// with in-degree zero.
    pub fn remove_node(&mut self, slot: usize, mut now_source: impl FnMut(usize)) {
        if !self.contains(slot) {
            return;
        }
        let me = slot as u32;
        let mut out = std::mem::take(&mut self.nodes[slot].out);
        for &(s, _) in &out {
            let inn = &mut self.nodes[s as usize].inn;
            if let Some(i) = inn.iter().position(|&p| p == me) {
                inn.swap_remove(i);
            }
            if inn.is_empty() {
                now_source(s as usize);
            }
        }
        self.edges -= out.len();
        out.clear();
        let mut inn = std::mem::take(&mut self.nodes[slot].inn);
        for &p in &inn {
            let outs = &mut self.nodes[p as usize].out;
            if let Some(i) = outs.iter().position(|&(t, _)| t == me) {
                outs.swap_remove(i);
            }
        }
        self.edges -= inn.len();
        inn.clear();
        let n = &mut self.nodes[slot];
        n.out = out;
        n.inn = inn;
        n.ord = VACANT;
        self.count -= 1;
        self.free.push(me);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_sgt::EdgeKind;
    use std::collections::BTreeSet;

    /// A graph with nodes `0..n`, each labeled with its own slot.
    fn graph(n: u32) -> DynTopo {
        let mut g = DynTopo::new();
        for i in 0..n {
            assert_eq!(g.add_node(TxId(i)), i as usize);
        }
        g
    }

    fn add(g: &mut DynTopo, a: usize, b: usize) -> Insert {
        g.insert_edge(a, b, EdgeKind::Conflict, (0, 0))
    }

    fn order_respects_edges(g: &DynTopo) -> bool {
        let nodes = g.nodes_in_order();
        g.edges().all(|(f, to, _)| {
            let pf = nodes.iter().position(|&n| n == f).unwrap();
            let pt = nodes.iter().position(|&n| n == to).unwrap();
            pf < pt
        })
    }

    #[test]
    fn forward_inserts_are_trivial_and_dedup_works() {
        let mut g = graph(4);
        assert_eq!(add(&mut g, 1, 2), Insert::Added);
        assert_eq!(add(&mut g, 2, 3), Insert::Added);
        assert_eq!(add(&mut g, 1, 3), Insert::Added);
        assert_eq!(add(&mut g, 1, 2), Insert::Exists);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(order_respects_edges(&g));
    }

    #[test]
    fn back_edge_triggers_reorder_not_cycle() {
        // Slot 0 is first in the order; an edge 1→0 must reorder.
        let mut g = graph(2);
        assert_eq!(add(&mut g, 1, 0), Insert::Added);
        assert!(order_respects_edges(&g));
        assert_eq!(g.nodes_in_order(), vec![TxId(1), TxId(0)]);
    }

    #[test]
    fn cycle_is_reported_with_path_and_graph_unchanged() {
        let mut g = graph(4);
        add(&mut g, 1, 2);
        add(&mut g, 2, 3);
        let edges_before = g.edge_count();
        match add(&mut g, 3, 1) {
            Insert::Cycle(path) => assert_eq!(path, vec![1, 2, 3, 1]),
            other => panic!("expected cycle, got {other:?}"),
        }
        assert_eq!(g.edge_count(), edges_before);
        assert!(order_respects_edges(&g));
        // The graph is still usable after the rejected insert.
        assert_eq!(add(&mut g, 1, 3), Insert::Added);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = graph(8);
        assert_eq!(add(&mut g, 7, 7), Insert::Cycle(vec![7, 7]));
    }

    #[test]
    fn two_hop_cycle_after_interleaved_inserts() {
        let mut g = graph(2);
        add(&mut g, 0, 1);
        match add(&mut g, 1, 0) {
            Insert::Cycle(path) => assert_eq!(path, vec![0, 1, 0]),
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn remove_node_drops_its_edges() {
        let mut g = graph(4);
        add(&mut g, 1, 2);
        add(&mut g, 2, 3);
        add(&mut g, 1, 3);
        let mut sources = Vec::new();
        g.remove_node(1, |s| sources.push(s));
        assert_eq!(sources, vec![2], "3 keeps its in-edge from 2");
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.indegree(3), 1);
        assert_eq!(add(&mut g, 3, 2), Insert::Cycle(vec![2, 3, 2]));
        g.remove_node(2, |_| {});
        assert_eq!(g.edge_count(), 0);
        // Freed slots come back, last freed first, labeled anew.
        assert_eq!(g.add_node(TxId(9)), 2);
        assert_eq!(g.label(2), TxId(9));
        assert_eq!(g.indegree(2), 0);
        assert_eq!(g.add_node(TxId(8)), 1);
        assert_eq!(g.add_node(TxId(7)), 4);
        g.clear();
        assert_eq!((g.node_count(), g.edge_count()), (0, 0));
        assert_eq!(g.add_node(TxId(5)), 0);
    }

    #[test]
    fn randomized_inserts_agree_with_kahn() {
        // Deterministic LCG; compare every insert verdict against a
        // from-scratch Kahn acyclicity check on the would-be graph.
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut g = DynTopo::new();
        for _round in 0..50 {
            let n = 8;
            // One graph, cleared between rounds: reuse must not leak
            // edges or order from the previous round.
            g.clear();
            for i in 0..n {
                g.add_node(TxId(i));
            }
            let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
            for _ in 0..24 {
                let a = next() % n;
                let b = next() % n;
                let verdict = add(&mut g, a as usize, b as usize);
                let mut trial = edges.clone();
                trial.insert((a, b));
                let acyclic = kahn_acyclic(n, &trial);
                match verdict {
                    Insert::Cycle(path) => {
                        assert!(!acyclic, "false cycle on {a}->{b}: {path:?}");
                        assert_eq!(path.first(), path.last());
                    }
                    Insert::Added | Insert::Exists => {
                        assert!(acyclic, "missed cycle on {a}->{b}");
                        edges.insert((a, b));
                        assert!(order_respects_edges(&g));
                    }
                }
            }
        }
    }

    fn kahn_acyclic(n: u32, edges: &BTreeSet<(u32, u32)>) -> bool {
        if edges.iter().any(|&(a, b)| a == b) {
            return false;
        }
        let mut indeg = vec![0usize; n as usize];
        for &(_, b) in edges {
            indeg[b as usize] += 1;
        }
        let mut queue: Vec<u32> = (0..n).filter(|&i| indeg[i as usize] == 0).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &(a, b) in edges {
                if a == v {
                    indeg[b as usize] -= 1;
                    if indeg[b as usize] == 0 {
                        queue.push(b);
                    }
                }
            }
        }
        seen == n
    }
}
