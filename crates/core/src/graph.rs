//! The serialization graph `SG(β)` (§4): a disjoint union of directed
//! graphs `SG(β, T)`, one per transaction `T` visible to `T0`, whose nodes
//! are the children of `T` and whose edges come from the `conflict(β)` and
//! `precedes(β)` relations.

use nt_model::{SiblingOrder, TxId};
use nt_obs::{Event, TraceHandle};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Why an edge is present.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A conflict edge: descendants performed conflicting operations, the
    /// `from` side first (§4 / §6.1).
    Conflict,
    /// A precedence edge: a report event for `from` preceded
    /// `REQUEST_CREATE(to)` (external consistency, §4).
    Precedes,
}

impl EdgeKind {
    /// Stable lowercase name (journal / export vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            EdgeKind::Conflict => "conflict",
            EdgeKind::Precedes => "precedes",
        }
    }
}

/// One edge of the serialization graph, with a witness for diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SgEdge {
    /// The common parent: this edge lives in `SG(β, parent)`.
    pub parent: TxId,
    /// Source sibling.
    pub from: TxId,
    /// Target sibling.
    pub to: TxId,
    /// Conflict or precedence.
    pub kind: EdgeKind,
    /// Indices into the analyzed sequence of the two events that induced
    /// the edge (the conflicting `REQUEST_COMMIT`s, or the report and the
    /// `REQUEST_CREATE`).
    pub witness: (usize, usize),
}

#[derive(Default, Clone, Debug)]
struct SubGraph {
    /// Node set: the children of the parent transaction that participate.
    nodes: BTreeSet<TxId>,
    /// Adjacency (deduplicated).
    succ: BTreeMap<TxId, BTreeSet<TxId>>,
}

/// The serialization graph of a behavior.
#[derive(Clone, Debug, Default)]
pub struct SerializationGraph {
    /// All edges with provenance, in insertion order, deduplicated by
    /// `(from, to, kind)`.
    pub edges: Vec<SgEdge>,
    graphs: BTreeMap<TxId, SubGraph>,
    dedup: HashMap<(TxId, TxId, EdgeKind), ()>,
    /// Observability sink; every deduplicated edge insertion is journaled
    /// (disabled by default, so plain construction stays silent).
    trace: TraceHandle,
}

impl SerializationGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach an observability sink: subsequent edge insertions emit
    /// `sg_edge_inserted` journal events.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Ensure `child` is a node of `SG(β, parent)`.
    pub fn add_node(&mut self, parent: TxId, child: TxId) {
        self.graphs.entry(parent).or_default().nodes.insert(child);
    }

    /// Add an edge (idempotent per `(from, to, kind)`).
    pub fn add_edge(&mut self, e: SgEdge) {
        let g = self.graphs.entry(e.parent).or_default();
        g.nodes.insert(e.from);
        g.nodes.insert(e.to);
        if self.dedup.insert((e.from, e.to, e.kind), ()).is_none() {
            g.succ.entry(e.from).or_default().insert(e.to);
            if self.trace.enabled() {
                self.trace.record(Event::SgEdgeInserted {
                    parent: e.parent.0,
                    from: e.from.0,
                    to: e.to.0,
                    kind: e.kind.as_str(),
                });
            }
            self.edges.push(e);
        }
    }

    /// The parents `T` with a (non-trivial or registered) subgraph
    /// `SG(β, T)`.
    pub fn parents(&self) -> impl Iterator<Item = TxId> + '_ {
        self.graphs.keys().copied()
    }

    /// Successors of `child` within its parent's subgraph.
    pub fn successors(&self, parent: TxId, child: TxId) -> Vec<TxId> {
        self.graphs
            .get(&parent)
            .and_then(|g| g.succ.get(&child))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Total number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total number of nodes across all subgraphs.
    pub fn node_count(&self) -> usize {
        self.graphs.values().map(|g| g.nodes.len()).sum()
    }

    /// Find a cycle in some `SG(β, T)`, returned as the sequence of
    /// siblings along the cycle (first element repeated at the end), or
    /// `None` if every subgraph is acyclic (Theorem 8's hypothesis).
    pub fn find_cycle(&self) -> Option<Vec<TxId>> {
        for g in self.graphs.values() {
            if let Some(cycle) = find_cycle_in(g) {
                return Some(cycle);
            }
        }
        None
    }

    /// True iff the whole graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// Topologically sort every subgraph, producing the sibling order `R`
    /// used in the proof of Theorem 8 (deterministic: Kahn's algorithm with
    /// smallest-`TxId`-first tie-breaking). `None` if some subgraph is
    /// cyclic.
    pub fn topological_order(&self) -> Option<SiblingOrder> {
        let mut lists = Vec::with_capacity(self.graphs.len());
        for (&parent, g) in &self.graphs {
            let sorted = topo_sort(g)?;
            lists.push((parent, sorted));
        }
        Some(SiblingOrder::from_lists(lists))
    }
}

fn topo_sort(g: &SubGraph) -> Option<Vec<TxId>> {
    let mut indeg: BTreeMap<TxId, usize> = g.nodes.iter().map(|&n| (n, 0)).collect();
    for succs in g.succ.values() {
        for &t in succs {
            *indeg.get_mut(&t).expect("edge endpoints are nodes") += 1;
        }
    }
    // BTreeSet as a priority queue: smallest TxId first, deterministically.
    let mut ready: BTreeSet<TxId> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    let mut out = Vec::with_capacity(g.nodes.len());
    while let Some(&n) = ready.iter().next() {
        ready.remove(&n);
        out.push(n);
        if let Some(succs) = g.succ.get(&n) {
            for &m in succs {
                let d = indeg
                    .get_mut(&m)
                    .expect("add_edge inserts both endpoints into the node set");
                *d -= 1;
                if *d == 0 {
                    ready.insert(m);
                }
            }
        }
    }
    (out.len() == g.nodes.len()).then_some(out)
}

fn find_cycle_in(g: &SubGraph) -> Option<Vec<TxId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<TxId, Color> = g.nodes.iter().map(|&n| (n, Color::White)).collect();
    let empty = BTreeSet::new();
    for &start in &g.nodes {
        if color[&start] != Color::White {
            continue;
        }
        let mut stack: Vec<(TxId, std::collections::btree_set::Iter<'_, TxId>)> =
            vec![(start, g.succ.get(&start).unwrap_or(&empty).iter())];
        color.insert(start, Color::Gray);
        while let Some((v, it)) = stack.last_mut() {
            let v = *v;
            match it.next() {
                Some(&w) => match color[&w] {
                    Color::White => {
                        color.insert(w, Color::Gray);
                        stack.push((w, g.succ.get(&w).unwrap_or(&empty).iter()));
                    }
                    Color::Gray => {
                        // Reconstruct the cycle from the gray stack.
                        let pos = stack
                            .iter()
                            .position(|(u, _)| *u == w)
                            .expect("a Gray node is always on the DFS stack");
                        let mut cycle: Vec<TxId> = stack[pos..].iter().map(|(u, _)| *u).collect();
                        cycle.push(w);
                        return Some(cycle);
                    }
                    Color::Black => {}
                },
                None => {
                    color.insert(v, Color::Black);
                    stack.pop();
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_model::TxTree;

    fn edge(parent: TxId, from: TxId, to: TxId, kind: EdgeKind) -> SgEdge {
        SgEdge {
            parent,
            from,
            to,
            kind,
            witness: (0, 0),
        }
    }

    fn three_children() -> (TxTree, TxId, TxId, TxId) {
        let mut tree = TxTree::new();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let c = tree.add_inner(TxId::ROOT);
        (tree, a, b, c)
    }

    #[test]
    fn acyclic_graph_topo_sorts() {
        let (_t, a, b, c) = three_children();
        let mut g = SerializationGraph::new();
        g.add_edge(edge(TxId::ROOT, a, b, EdgeKind::Conflict));
        g.add_edge(edge(TxId::ROOT, b, c, EdgeKind::Precedes));
        assert!(g.is_acyclic());
        assert_eq!(g.find_cycle(), None);
        let order = g.topological_order().expect("acyclic");
        assert_eq!(order.orders(a, b), Some(true));
        assert_eq!(order.orders(b, c), Some(true));
        assert_eq!(order.orders(a, c), Some(true));
    }

    #[test]
    fn cycle_detected_and_reported() {
        let (_t, a, b, c) = three_children();
        let mut g = SerializationGraph::new();
        g.add_edge(edge(TxId::ROOT, a, b, EdgeKind::Conflict));
        g.add_edge(edge(TxId::ROOT, b, c, EdgeKind::Conflict));
        g.add_edge(edge(TxId::ROOT, c, a, EdgeKind::Precedes));
        assert!(!g.is_acyclic());
        assert!(g.topological_order().is_none());
        let cycle = g.find_cycle().expect("cyclic");
        assert!(cycle.len() == 4, "triangle + repeated head: {cycle:?}");
        assert_eq!(cycle.first(), cycle.last());
    }

    #[test]
    fn edges_deduplicate_but_keep_kinds_distinct() {
        let (_t, a, b, _c) = three_children();
        let mut g = SerializationGraph::new();
        g.add_edge(edge(TxId::ROOT, a, b, EdgeKind::Conflict));
        g.add_edge(edge(TxId::ROOT, a, b, EdgeKind::Conflict));
        g.add_edge(edge(TxId::ROOT, a, b, EdgeKind::Precedes));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.successors(TxId::ROOT, a), vec![b]);
    }

    #[test]
    fn disjoint_subgraphs_sorted_independently() {
        let mut tree = TxTree::new();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let a1 = tree.add_inner(a);
        let a2 = tree.add_inner(a);
        let mut g = SerializationGraph::new();
        g.add_edge(edge(TxId::ROOT, b, a, EdgeKind::Conflict));
        g.add_edge(edge(a, a2, a1, EdgeKind::Conflict));
        let order = g.topological_order().expect("acyclic");
        assert_eq!(order.orders(b, a), Some(true));
        assert_eq!(order.orders(a2, a1), Some(true));
        assert_eq!(order.orders(a1, b), None, "different parents");
        let parents: Vec<_> = g.parents().collect();
        assert_eq!(parents, vec![TxId::ROOT, a]);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let (_t, a, _b, _c) = three_children();
        let mut g = SerializationGraph::new();
        g.add_edge(edge(TxId::ROOT, a, a, EdgeKind::Conflict));
        assert!(!g.is_acyclic());
    }

    #[test]
    fn isolated_nodes_are_ordered() {
        let (_t, a, b, _c) = three_children();
        let mut g = SerializationGraph::new();
        g.add_node(TxId::ROOT, a);
        g.add_node(TxId::ROOT, b);
        let order = g.topological_order().expect("acyclic");
        assert!(order.orders(a, b).is_some(), "topo sort totalizes");
    }
}
