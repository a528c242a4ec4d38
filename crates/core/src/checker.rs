//! Appropriate return values (§3.2–§3.3, §6.1) and the serialization-graph
//! correctness checker (Theorems 8 and 19).
//!
//! Two independent paths decide "appropriate return values":
//!
//! * the *replay* path — the definition itself, via Lemma 5 generalized to
//!   any data type: `perform(operations(visible(β,T0)|X))` must be a
//!   behavior of `S_X` for every object `X`;
//! * the *current & safe* path — the sufficient conditions of Lemma 6 for
//!   read/write objects, checkable event by event.
//!
//! The main entry point [`check_serial_correctness`] implements the paper's
//! headline result: appropriate return values + acyclic `SG(β)` ⇒ `β`
//! serially correct for `T0`. It goes one step further than the theorem
//! statement: it *constructs* the witness serial behavior `γ` (following the
//! proof) and replays it through the serial-system validator, so a verdict
//! of correctness comes with machine-checked evidence.

use crate::graph::SerializationGraph;
use crate::relations::{build_sg_traced, ConflictSource};
use crate::witness::{reconstruct_witness, WitnessError};
use nt_model::rw::{is_current, is_safe, RwInitials};
use nt_model::seq::{serial_projection, visible_indices, Status};
use nt_model::wellformed::check_simple_behavior;
use nt_model::{Action, ObjId, SiblingOrder, TxId, TxTree, Value};
use nt_obs::{Event, TraceHandle};
use nt_serial::{replay, resolve_ops, ObjectTypes};
use std::collections::BTreeMap;

/// Why a behavior's return values are not appropriate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inappropriate {
    /// The object whose visible operation sequence is illegal.
    pub object: ObjId,
    /// Position (within the object's visible operation sequence) of the
    /// first operation whose recorded value the serial type rejects.
    pub op_index: usize,
    /// The offending access and its recorded value.
    pub operation: (TxId, Value),
}

/// Check appropriate return values by the definition (§6.1; equals the §3.2
/// definition on read/write systems by Lemma 5): for every object `X`,
/// replay `operations(visible(β,T0)|X)` through its serial type.
pub fn appropriate_return_values(
    tree: &TxTree,
    beta: &[Action],
    types: &ObjectTypes,
) -> Result<(), Inappropriate> {
    let status = Status::of(tree, beta);
    // Gather visible access operations per object named, in β order.
    let mut per_object: BTreeMap<ObjId, Vec<(TxId, Value)>> = BTreeMap::new();
    for a in beta {
        if let Action::RequestCommit(t, v) = a {
            if let Some(x) = tree.object_of(*t) {
                if status.is_visible(tree, *t, TxId::ROOT) {
                    per_object.entry(x).or_default().push((*t, v.clone()));
                }
            }
        }
    }
    for (&x, ops) in &per_object {
        let resolved = resolve_ops(tree, ops);
        // Find the first illegal prefix for a precise diagnostic.
        if replay(types.get(x).as_ref(), &resolved).is_none() {
            for k in 1..=resolved.len() {
                if replay(types.get(x).as_ref(), &resolved[..k]).is_none() {
                    return Err(Inappropriate {
                        object: x,
                        op_index: k - 1,
                        operation: ops[k - 1].clone(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Outcome of the Lemma 6 sufficient-condition check for one read/write
/// behavior: which visible read (if any) violates *current* or *safe*.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RwConditionFailure {
    /// A visible write returned something other than `OK`.
    WriteNotOk { at: usize },
    /// A visible read is not current (§3.3).
    NotCurrent { at: usize },
    /// A visible read is not safe — it read dirty data (§3.3).
    NotSafe { at: usize },
}

/// Check the Lemma 6 sufficient conditions on a read/write behavior: every
/// visible write `REQUEST_COMMIT` returns `OK`, and every visible read
/// `REQUEST_COMMIT` is *current* and *safe* in `serial(β)`.
///
/// By Lemma 6, success implies `β` has appropriate return values; the
/// converse need not hold (the conditions are sufficient only).
pub fn check_current_and_safe(
    tree: &TxTree,
    beta: &[Action],
    init: &RwInitials,
) -> Result<(), RwConditionFailure> {
    let serial = serial_projection(beta);
    let vis = visible_indices(tree, &serial, TxId::ROOT);
    for &i in &vis {
        let Action::RequestCommit(t, v) = &serial[i] else {
            continue;
        };
        let Some(op) = tree.op_of(*t) else { continue };
        if op.is_rw_write() && *v != Value::Ok {
            return Err(RwConditionFailure::WriteNotOk { at: i });
        }
        if op.is_rw_read() {
            if is_current(tree, &serial, i, init) == Some(false) {
                return Err(RwConditionFailure::NotCurrent { at: i });
            }
            if is_safe(tree, &serial, i) == Some(false) {
                return Err(RwConditionFailure::NotSafe { at: i });
            }
        }
    }
    Ok(())
}

/// The `view(β, T0, R, X)` sequence of §2.3.2: the visible operations of
/// `X`, ordered by `R_trans` on their access names (stable by β order when
/// `R_trans` does not relate a pair, which for suitable `R` cannot happen
/// between distinct visible accesses of one object… except through ancestor
/// relations, which distinct leaves never have).
pub fn view(tree: &TxTree, beta: &[Action], order: &SiblingOrder, x: ObjId) -> Vec<(TxId, Value)> {
    let status = Status::of(tree, beta);
    let mut ops: Vec<(TxId, Value)> = Vec::new();
    for a in beta {
        if let Action::RequestCommit(t, v) = a {
            if tree.object_of(*t) == Some(x) && status.is_visible(tree, *t, TxId::ROOT) {
                ops.push((*t, v.clone()));
            }
        }
    }
    ops.sort_by(|(t1, _), (t2, _)| match order.r_trans(tree, *t1, *t2) {
        Some(true) => std::cmp::Ordering::Less,
        Some(false) => std::cmp::Ordering::Greater,
        None => std::cmp::Ordering::Equal, // stable sort keeps β order
    });
    ops
}

/// The verdict of the Theorem 8/19 checker.
#[derive(Debug)]
pub enum Verdict {
    /// The sufficient condition holds: appropriate return values and an
    /// acyclic serialization graph. Includes the constructed evidence.
    SeriallyCorrect {
        /// The sibling order `R` from topologically sorting `SG(β)`.
        order: SiblingOrder,
        /// The reconstructed witness serial behavior `γ` with
        /// `γ|T0 = β|T0`, already validated against the serial system.
        witness: Vec<Action>,
        /// The serialization graph (for inspection / statistics).
        graph: SerializationGraph,
    },
    /// `β` (projected to serial actions) violates the simple-database
    /// constraints — it is not a behavior of any simple system, so the
    /// theorem does not speak about it.
    NotSimple(nt_model::wellformed::Violation),
    /// The return values are not appropriate; Theorems 8/19 do not apply.
    InappropriateReturnValues(Inappropriate),
    /// The serialization graph has a cycle; the sufficient condition fails
    /// (the behavior may or may not still be serially correct — acyclicity
    /// is not necessary).
    Cyclic {
        /// A cycle among siblings (first node repeated last).
        cycle: Vec<TxId>,
        /// The graph, for diagnostics.
        graph: SerializationGraph,
    },
    /// Internal cross-check failure: the hypotheses held but the witness
    /// construction or its validation failed. This would *falsify the
    /// theorem* (or reveal an implementation bug) and is asserted never to
    /// happen by the experiment suite.
    WitnessFailed(WitnessError),
}

impl Verdict {
    /// True iff the sufficient condition held (with validated witness).
    pub fn is_serially_correct(&self) -> bool {
        matches!(self, Verdict::SeriallyCorrect { .. })
    }

    /// Stable snake_case name (journal / export vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::SeriallyCorrect { .. } => "serially_correct",
            Verdict::NotSimple(_) => "not_simple",
            Verdict::InappropriateReturnValues(_) => "inappropriate_return_values",
            Verdict::Cyclic { .. } => "cyclic",
            Verdict::WitnessFailed(_) => "witness_failed",
        }
    }
}

/// The Theorem 8 / Theorem 19 checker.
///
/// Accepts a full generic/simple behavior `beta` (with or without
/// `INFORM_*` actions — they are stripped), the naming tree, the serial
/// types of the objects, and the conflict source (read/write or
/// commutativity-based). Returns a [`Verdict`].
pub fn check_serial_correctness(
    tree: &TxTree,
    beta: &[Action],
    types: &ObjectTypes,
    source: ConflictSource<'_>,
) -> Verdict {
    check_serial_correctness_traced(tree, beta, types, source, &TraceHandle::disabled())
}

/// [`check_serial_correctness`] with an observability sink: each stage is
/// bracketed by `check_phase_start`/`check_phase_end` events, edge
/// insertions during graph construction are journaled, graph sizes are
/// recorded as metrics, and the final [`Verdict`] is journaled by name.
pub fn check_serial_correctness_traced(
    tree: &TxTree,
    beta: &[Action],
    types: &ObjectTypes,
    source: ConflictSource<'_>,
    trace: &TraceHandle,
) -> Verdict {
    let verdict = check_stages(tree, beta, types, source, trace);
    if trace.enabled() {
        trace.record(Event::CheckVerdict {
            verdict: verdict.name(),
        });
        trace.inc("check.runs");
    }
    verdict
}

/// The checker pipeline with per-stage phase events (factored out so the
/// verdict event wraps every early return).
fn check_stages(
    tree: &TxTree,
    beta: &[Action],
    types: &ObjectTypes,
    source: ConflictSource<'_>,
    trace: &TraceHandle,
) -> Verdict {
    let phase_start = |p: &'static str| {
        if trace.enabled() {
            trace.record(Event::CheckPhaseStart { phase: p });
        }
    };
    let phase_end = |p: &'static str| {
        if trace.enabled() {
            trace.record(Event::CheckPhaseEnd { phase: p });
        }
    };
    phase_start("simple_check");
    let serial = serial_projection(beta);
    let simple = check_simple_behavior(tree, &serial);
    phase_end("simple_check");
    if let Err(v) = simple {
        return Verdict::NotSimple(v);
    }
    phase_start("return_values");
    let appropriate = appropriate_return_values(tree, &serial, types);
    phase_end("return_values");
    if let Err(bad) = appropriate {
        return Verdict::InappropriateReturnValues(bad);
    }
    phase_start("sg_build");
    let graph = build_sg_traced(tree, &serial, source, trace.clone());
    if trace.enabled() {
        trace.observe("sg.edges", graph.edge_count() as u64);
        trace.observe("sg.nodes", graph.node_count() as u64);
    }
    phase_end("sg_build");
    phase_start("cycle_check");
    let order = graph.topological_order();
    phase_end("cycle_check");
    let Some(order) = order else {
        let cycle = graph.find_cycle().expect("topo failed ⇒ cycle exists");
        return Verdict::Cyclic { cycle, graph };
    };
    phase_start("witness");
    let witness = reconstruct_witness(tree, &serial, &order, types);
    phase_end("witness");
    match witness {
        Ok(witness) => Verdict::SeriallyCorrect {
            order,
            witness,
            graph,
        },
        Err(e) => Verdict::WitnessFailed(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relations::build_sg;
    use nt_model::Op;
    use nt_serial::RwRegister;
    use std::sync::Arc;

    fn simple_two_tx() -> (TxTree, ObjectTypes, TxId, TxId, TxId, TxId) {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let u = tree.add_access(a, x, Op::Write(5));
        let w = tree.add_access(b, x, Op::Read);
        let types = ObjectTypes::uniform(1, Arc::new(RwRegister::new(0)));
        (tree, types, a, b, u, w)
    }

    fn good_behavior(a: TxId, b: TxId, u: TxId, w: TxId) -> Vec<Action> {
        vec![
            Action::Create(TxId::ROOT),
            Action::RequestCreate(a),
            Action::RequestCreate(b),
            Action::Create(a),
            Action::Create(b),
            Action::RequestCreate(u),
            Action::Create(u),
            Action::RequestCommit(u, Value::Ok),
            Action::Commit(u),
            Action::InformCommit(ObjId(0), u),
            Action::ReportCommit(u, Value::Ok),
            Action::RequestCommit(a, Value::Ok),
            Action::Commit(a),
            Action::ReportCommit(a, Value::Ok),
            Action::RequestCreate(w),
            Action::Create(w),
            Action::RequestCommit(w, Value::Int(5)),
            Action::Commit(w),
            Action::ReportCommit(w, Value::Int(5)),
            Action::RequestCommit(b, Value::Ok),
            Action::Commit(b),
            Action::ReportCommit(b, Value::Ok),
        ]
    }

    #[test]
    fn correct_behavior_passes_all_stages() {
        let (tree, types, a, b, u, w) = simple_two_tx();
        let beta = good_behavior(a, b, u, w);
        assert!(
            appropriate_return_values(&tree, &nt_model::seq::serial_projection(&beta), &types)
                .is_ok()
        );
        assert!(check_current_and_safe(&tree, &beta, &RwInitials::default()).is_ok());
        let verdict = check_serial_correctness(&tree, &beta, &types, ConflictSource::ReadWrite);
        assert!(verdict.is_serially_correct(), "{verdict:?}");
    }

    #[test]
    fn stale_read_rejected_by_both_paths() {
        let (tree, types, a, b, u, w) = simple_two_tx();
        let mut beta = good_behavior(a, b, u, w);
        beta[16] = Action::RequestCommit(w, Value::Int(0)); // stale: ignores u's 5
        beta[18] = Action::ReportCommit(w, Value::Int(0));
        let serial = nt_model::seq::serial_projection(&beta);
        let bad = appropriate_return_values(&tree, &serial, &types).unwrap_err();
        assert_eq!(bad.object, ObjId(0));
        assert_eq!(bad.operation.0, w);
        assert!(matches!(
            check_current_and_safe(&tree, &beta, &RwInitials::default()),
            Err(RwConditionFailure::NotCurrent { .. })
        ));
        let verdict = check_serial_correctness(&tree, &beta, &types, ConflictSource::ReadWrite);
        assert!(matches!(verdict, Verdict::InappropriateReturnValues(_)));
    }

    #[test]
    fn cyclic_graph_rejected() {
        // Two transactions that each write then read, interleaved so the
        // reads cross: a classic non-serializable schedule. Values are
        // chosen "current" (overwrite semantics) so return values are
        // appropriate, isolating the cycle check.
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let y = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let ax = tree.add_access(a, x, Op::Write(1));
        let ay = tree.add_access(a, y, Op::Read);
        let bx = tree.add_access(b, x, Op::Read);
        let by = tree.add_access(b, y, Op::Write(2));
        let types = ObjectTypes::uniform(2, Arc::new(RwRegister::new(0)));
        let beta = vec![
            Action::Create(TxId::ROOT),
            Action::RequestCreate(a),
            Action::RequestCreate(b),
            Action::Create(a),
            Action::Create(b),
            Action::RequestCreate(ax),
            Action::Create(ax),
            Action::RequestCommit(ax, Value::Ok), // a writes x
            Action::Commit(ax),
            Action::ReportCommit(ax, Value::Ok),
            Action::RequestCreate(by),
            Action::Create(by),
            Action::RequestCommit(by, Value::Ok), // b writes y
            Action::Commit(by),
            Action::ReportCommit(by, Value::Ok),
            Action::RequestCreate(bx),
            Action::Create(bx),
            Action::RequestCommit(bx, Value::Int(1)), // b reads a's x
            Action::Commit(bx),
            Action::ReportCommit(bx, Value::Int(1)),
            Action::RequestCreate(ay),
            Action::Create(ay),
            Action::RequestCommit(ay, Value::Int(2)), // a reads b's y
            Action::Commit(ay),
            Action::ReportCommit(ay, Value::Int(2)),
            Action::RequestCommit(a, Value::Ok),
            Action::Commit(a),
            Action::RequestCommit(b, Value::Ok),
            Action::Commit(b),
        ];
        let verdict = check_serial_correctness(&tree, &beta, &types, ConflictSource::ReadWrite);
        match verdict {
            Verdict::Cyclic { cycle, .. } => {
                assert!(cycle.contains(&a) && cycle.contains(&b));
            }
            other => panic!("expected cycle, got {other:?}"),
        }
        let serial = serial_projection(&beta);
        assert!(!build_sg(&tree, &serial, ConflictSource::ReadWrite).is_acyclic());
    }

    #[test]
    fn malformed_behavior_rejected_as_not_simple() {
        let (tree, types, a, _b, _u, _w) = simple_two_tx();
        let beta = vec![Action::Commit(a)]; // commit without request
        let verdict = check_serial_correctness(&tree, &beta, &types, ConflictSource::ReadWrite);
        assert!(matches!(verdict, Verdict::NotSimple(_)));
    }

    #[test]
    fn view_orders_by_r_trans() {
        let (tree, _types, a, b, u, w) = simple_two_tx();
        let beta = good_behavior(a, b, u, w);
        let serial = nt_model::seq::serial_projection(&beta);
        // Order b before a: the view must list w's read before u's write.
        let order = SiblingOrder::from_lists([(TxId::ROOT, vec![b, a])]);
        let v = view(&tree, &serial, &order, ObjId(0));
        assert_eq!(v[0].0, w);
        assert_eq!(v[1].0, u);
    }

    #[test]
    fn dirty_read_caught_by_safe_condition() {
        // Reader sees a live writer's value; with the writer later
        // committing, the replay path accepts, but safety fails.
        // (This shows Lemma 6 is sufficient-not-necessary.)
        let (tree, types, a, b, u, w) = simple_two_tx();
        let beta = vec![
            Action::Create(TxId::ROOT),
            Action::RequestCreate(a),
            Action::RequestCreate(b),
            Action::Create(a),
            Action::Create(b),
            Action::RequestCreate(u),
            Action::Create(u),
            Action::RequestCommit(u, Value::Ok), // a's write, still uncommitted
            Action::RequestCreate(w),
            Action::Create(w),
            Action::RequestCommit(w, Value::Int(5)), // b reads dirty 5
            Action::Commit(u),
            Action::ReportCommit(u, Value::Ok),
            Action::RequestCommit(a, Value::Ok),
            Action::Commit(a),
            Action::Commit(w),
            Action::ReportCommit(w, Value::Int(5)),
            Action::RequestCommit(b, Value::Ok),
            Action::Commit(b),
        ];
        assert!(matches!(
            check_current_and_safe(&tree, &beta, &RwInitials::default()),
            Err(RwConditionFailure::NotSafe { .. })
        ));
        // The replay path is happy: everyone committed, values line up.
        let serial = nt_model::seq::serial_projection(&beta);
        assert!(appropriate_return_values(&tree, &serial, &types).is_ok());
    }
}

#[cfg(test)]
mod view_tests {
    use super::*;
    use nt_model::Op;
    use nt_serial::RwRegister;
    use std::sync::Arc;

    /// The `view(β, T0, R, X)` sequence replayed per R must be legal
    /// whenever the checker accepts — the statement Theorem 8's proof
    /// establishes via Proposition 7.
    #[test]
    fn accepted_behaviors_have_legal_views() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let ua = tree.add_access(a, x, Op::Write(1));
        let ub = tree.add_access(b, x, Op::Read);
        let types = ObjectTypes::uniform(1, Arc::new(RwRegister::new(0)));
        let beta = vec![
            Action::Create(TxId::ROOT),
            Action::RequestCreate(a),
            Action::RequestCreate(b),
            Action::Create(a),
            Action::Create(b),
            Action::RequestCreate(ua),
            Action::Create(ua),
            Action::RequestCommit(ua, Value::Ok),
            Action::Commit(ua),
            Action::ReportCommit(ua, Value::Ok),
            Action::RequestCommit(a, Value::Ok),
            Action::Commit(a),
            Action::RequestCreate(ub),
            Action::Create(ub),
            Action::RequestCommit(ub, Value::Int(1)),
            Action::Commit(ub),
            Action::ReportCommit(ub, Value::Int(1)),
            Action::RequestCommit(b, Value::Ok),
            Action::Commit(b),
        ];
        let verdict = check_serial_correctness(&tree, &beta, &types, ConflictSource::ReadWrite);
        let Verdict::SeriallyCorrect { order, .. } = verdict else {
            panic!("must accept");
        };
        let v = view(&tree, &beta, &order, ObjId(0));
        let resolved = nt_serial::resolve_ops(&tree, &v);
        assert!(
            nt_serial::replay(types.get(ObjId(0)).as_ref(), &resolved).is_some(),
            "view in R order must replay legally: {v:?}"
        );
    }
}
