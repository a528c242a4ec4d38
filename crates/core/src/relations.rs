//! The `conflict(β)` and `precedes(β)` relations (§4, §6.1) and the
//! construction of the serialization graph from a behavior.
//!
//! All functions operate on a sequence of *serial* actions (callers strip
//! `INFORM_*` with [`nt_model::seq::serial_projection`] first) plus the
//! naming tree.

use crate::graph::{EdgeKind, SerializationGraph, SgEdge};
use nt_model::seq::Status;
use nt_model::{Action, ObjId, TxId, TxTree, Value};
use nt_serial::ObjectTypes;
use std::collections::HashMap;

/// Where the conflict relation on operations comes from.
#[derive(Clone, Copy)]
pub enum ConflictSource<'a> {
    /// §4: read/write objects — two accesses to the same object conflict
    /// unless both are reads.
    ReadWrite,
    /// §6.1: arbitrary data types — operations conflict iff they fail to
    /// commute backward per the object's serial type.
    Types(&'a ObjectTypes),
}

impl ConflictSource<'_> {
    /// Do the operations `(op_a, v_a)` and `(op_b, v_b)` on object `x`
    /// conflict?
    pub fn conflicts(
        &self,
        x: ObjId,
        op_a: &nt_model::Op,
        v_a: &Value,
        op_b: &nt_model::Op,
        v_b: &Value,
    ) -> bool {
        match self {
            ConflictSource::ReadWrite => !(op_a.is_rw_read() && op_b.is_rw_read()),
            ConflictSource::Types(types) => !types
                .get(x)
                .commutes_backward(&(op_a.clone(), v_a.clone()), &(op_b.clone(), v_b.clone())),
        }
    }
}

/// Compute the `conflict(β)` edges (§4): for each ordered pair of
/// conflicting operations in `visible(β, T0)` on the same object, an edge
/// between the children of the least common ancestor of the two accesses.
///
/// Complexity: O(k²) over the k visible operations of each object (the
/// relation itself is quadratic in the worst case); pairs are deduplicated
/// by the graph.
pub fn conflict_edges(
    tree: &TxTree,
    beta: &[Action],
    source: ConflictSource<'_>,
    out: &mut SerializationGraph,
) {
    let status = Status::of(tree, beta);
    // Visible REQUEST_COMMITs of accesses, grouped per object, in order.
    let mut per_object: HashMap<ObjId, Vec<(usize, TxId, &Value)>> = HashMap::new();
    for (i, a) in beta.iter().enumerate() {
        if let Action::RequestCommit(t, v) = a {
            if let Some(x) = tree.object_of(*t) {
                if status.is_visible(tree, *t, TxId::ROOT) {
                    per_object.entry(x).or_default().push((i, *t, v));
                }
            }
        }
    }
    for (x, events) in per_object {
        for (p, &(i, u, v)) in events.iter().enumerate() {
            let op_u = tree
                .op_of(u)
                .expect("object_of was Some, so u is an access with an op");
            for &(j, u2, v2) in events.iter().skip(p + 1) {
                let op_u2 = tree
                    .op_of(u2)
                    .expect("object_of was Some, so u2 is an access with an op");
                if !source.conflicts(x, op_u, v, op_u2, v2) {
                    continue;
                }
                let l = tree.lca(u, u2);
                let from = tree.child_toward(l, u);
                let to = tree.child_toward(l, u2);
                debug_assert_ne!(from, to, "distinct accesses diverge below lca");
                out.add_edge(SgEdge {
                    parent: l,
                    from,
                    to,
                    kind: EdgeKind::Conflict,
                    witness: (i, j),
                });
            }
        }
    }
}

/// Compute the `precedes(β)` edges (§4): siblings `(T, T')` whose common
/// parent is visible to `T0` such that a report event for `T` precedes
/// `REQUEST_CREATE(T')`.
pub fn precedes_edges(tree: &TxTree, beta: &[Action], out: &mut SerializationGraph) {
    let status = Status::of(tree, beta);
    let mut first_report: HashMap<TxId, usize> = HashMap::new();
    for (j, a) in beta.iter().enumerate() {
        match a {
            Action::ReportCommit(t, _) | Action::ReportAbort(t) => {
                first_report.entry(*t).or_insert(j);
            }
            Action::RequestCreate(t2) => {
                let Some(parent) = tree.parent(*t2) else {
                    continue;
                };
                if !status.is_visible(tree, parent, TxId::ROOT) {
                    continue;
                }
                for &t in tree.children(parent) {
                    if t == *t2 {
                        continue;
                    }
                    if let Some(&r) = first_report.get(&t) {
                        if r < j {
                            out.add_edge(SgEdge {
                                parent,
                                from: t,
                                to: *t2,
                                kind: EdgeKind::Precedes,
                                witness: (r, j),
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Build the full serialization graph `SG(β)` (§4): conflict edges plus
/// precedence edges, with a node for every child of a visible parent that
/// is the lowtransaction of some visible event (so topological sorting
/// totalizes the order over every pair suitability condition 1 mentions).
pub fn build_sg(tree: &TxTree, beta: &[Action], source: ConflictSource<'_>) -> SerializationGraph {
    build_sg_traced(tree, beta, source, nt_obs::TraceHandle::disabled())
}

/// [`build_sg`] with an observability sink attached to the graph: every
/// deduplicated edge insertion is journaled as `sg_edge_inserted`.
pub fn build_sg_traced(
    tree: &TxTree,
    beta: &[Action],
    source: ConflictSource<'_>,
    trace: nt_obs::TraceHandle,
) -> SerializationGraph {
    let mut g = SerializationGraph::new();
    g.attach_trace(trace);
    let status = Status::of(tree, beta);
    for a in beta {
        let Some(high) = a.hightransaction(tree) else {
            continue;
        };
        if !status.is_visible(tree, high, TxId::ROOT) {
            continue;
        }
        let low = a
            .lowtransaction(tree)
            .expect("every action with a hightransaction has a lowtransaction");
        if let Some(p) = tree.parent(low) {
            g.add_node(p, low);
        }
    }
    conflict_edges(tree, beta, source, &mut g);
    precedes_edges(tree, beta, &mut g);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_model::{Op, Value};
    use nt_serial::RwRegister;
    use std::sync::Arc;

    /// Two top-level transactions, each with one access to X:
    /// a writes, b reads; both commit; a's access first.
    fn rw_scenario() -> (TxTree, TxId, TxId, Vec<Action>) {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let u = tree.add_access(a, x, Op::Write(5));
        let w = tree.add_access(b, x, Op::Read);
        let beta = vec![
            Action::Create(TxId::ROOT),
            Action::RequestCreate(a),
            Action::RequestCreate(b),
            Action::Create(a),
            Action::Create(b),
            Action::RequestCreate(u),
            Action::Create(u),
            Action::RequestCommit(u, Value::Ok), // 7
            Action::Commit(u),
            Action::ReportCommit(u, Value::Ok),
            Action::RequestCreate(w),
            Action::Create(w),
            Action::RequestCommit(w, Value::Int(5)), // 12
            Action::Commit(w),
            Action::ReportCommit(w, Value::Int(5)),
            Action::RequestCommit(a, Value::Ok),
            Action::Commit(a),
            Action::RequestCommit(b, Value::Ok),
            Action::Commit(b),
        ];
        (tree, a, b, beta)
    }

    #[test]
    fn conflict_edge_projects_to_top_level_siblings() {
        let (tree, a, b, beta) = rw_scenario();
        let g = build_sg(&tree, &beta, ConflictSource::ReadWrite);
        let conflicts: Vec<_> = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Conflict)
            .collect();
        assert_eq!(conflicts.len(), 1);
        let e = conflicts[0];
        assert_eq!((e.parent, e.from, e.to), (TxId::ROOT, a, b));
        assert_eq!(e.witness, (7, 12));
        assert!(g.is_acyclic());
    }

    #[test]
    fn read_read_is_not_a_conflict() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let u = tree.add_access(a, x, Op::Read);
        let w = tree.add_access(b, x, Op::Read);
        let beta = vec![
            Action::RequestCommit(u, Value::Int(0)),
            Action::Commit(u),
            Action::RequestCommit(w, Value::Int(0)),
            Action::Commit(w),
            Action::Commit(a),
            Action::Commit(b),
        ];
        let mut g = SerializationGraph::new();
        conflict_edges(&tree, &beta, ConflictSource::ReadWrite, &mut g);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn invisible_operations_produce_no_conflict_edges() {
        let (tree, _a, _b, mut beta) = rw_scenario();
        // Remove COMMIT(b) and its descendants' visibility: drop commits of
        // w and b (indices 13, 18) so b's branch is not visible.
        beta.remove(18);
        beta.remove(13);
        let g = build_sg(&tree, &beta, ConflictSource::ReadWrite);
        assert_eq!(
            g.edges
                .iter()
                .filter(|e| e.kind == EdgeKind::Conflict)
                .count(),
            0
        );
    }

    #[test]
    fn precedes_edge_from_report_before_request() {
        let (tree, a, b, _) = rw_scenario();
        // Reorder: run a fully and report it to T0 before b is requested.
        let beta = vec![
            Action::Create(TxId::ROOT),
            Action::RequestCreate(a),
            Action::Create(a),
            Action::RequestCommit(a, Value::Ok),
            Action::Commit(a),
            Action::ReportCommit(a, Value::Ok), // 5
            Action::RequestCreate(b),           // 6
            Action::Create(b),
            Action::RequestCommit(b, Value::Ok),
            Action::Commit(b),
        ];
        let g = build_sg(&tree, &beta, ConflictSource::ReadWrite);
        let pres: Vec<_> = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Precedes)
            .collect();
        assert_eq!(pres.len(), 1);
        assert_eq!((pres[0].from, pres[0].to), (a, b));
        assert_eq!(pres[0].witness, (5, 6));
    }

    #[test]
    fn general_conflicts_use_commutativity() {
        // With the register's declared relation, write/write conflicts;
        // read/read does not — same shape as the rw mode.
        let (tree, a, b, beta) = rw_scenario();
        let types = ObjectTypes::uniform(1, Arc::new(RwRegister::new(0)));
        let g = build_sg(&tree, &beta, ConflictSource::Types(&types));
        assert_eq!(
            g.edges
                .iter()
                .filter(|e| e.kind == EdgeKind::Conflict)
                .count(),
            1
        );
        let e = &g.edges[0];
        assert_eq!((e.from, e.to), (a, b));
    }

    /// Commutativity-based conflicts (§6.1): two counter increments
    /// commute, so the schedule whose straddling accesses cycle under
    /// read/write draws no conflict edge under the counter's
    /// `commutes_backward`.
    #[test]
    fn commuting_operations_draw_no_conflict_edges() {
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
                let (Value::Int(n), Op::Add(d)) = (state, op) else {
                    panic!("a counter adds to an int")
                };
                (Value::Int(n + d), Value::Ok)
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
        let types = ObjectTypes::uniform(1, Arc::new(Counter));
        let g = build_sg(&tree, &beta, ConflictSource::Types(&types));
        assert_eq!(g.edge_count(), 0, "adds commute: no conflict edges");
        assert!(g.is_acyclic());
        // Under read/write the same schedule has conflict edges both ways
        // (a's two accesses straddle b's): a 2-cycle.
        let rw = build_sg(&tree, &beta, ConflictSource::ReadWrite);
        assert!(!rw.is_acyclic());
    }

    #[test]
    fn nested_conflict_projects_to_lca_children() {
        // a has two subtransactions a1, a2, each with a write access:
        // the conflict edge must live in SG(β, a), between a1 and a2.
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let a1 = tree.add_inner(a);
        let a2 = tree.add_inner(a);
        let u1 = tree.add_access(a1, x, Op::Write(1));
        let u2 = tree.add_access(a2, x, Op::Write(2));
        let beta = vec![
            Action::RequestCommit(u1, Value::Ok),
            Action::Commit(u1),
            Action::Commit(a1),
            Action::RequestCommit(u2, Value::Ok),
            Action::Commit(u2),
            Action::Commit(a2),
            Action::Commit(a),
        ];
        let mut g = SerializationGraph::new();
        conflict_edges(&tree, &beta, ConflictSource::ReadWrite, &mut g);
        assert_eq!(g.edge_count(), 1);
        let e = &g.edges[0];
        assert_eq!((e.parent, e.from, e.to), (a, a1, a2));
    }
}
