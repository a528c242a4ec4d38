//! The Theorem 17 gate on a recorded history, without building `SG(β)`
//! from scratch. Theorem 8 asks three things of β, checked in order:
//! `serial(β)` is a simple behavior (`check_simple_behavior`), its return
//! values are appropriate (`appropriate_return_values`) — both the
//! post-hoc checker's own linear stages — and `SG(β)` is acyclic, by one
//! [`SgtMaintainer::replay`] with watermark GC. The checker's graph,
//! order and witness stay behind `nt_sgt::check_serial_correctness`, the
//! test oracle.

use crate::maintainer::SgtMaintainer;
use crate::report::ViolationReport;
use nt_model::seq::serial_projection;
use nt_model::wellformed::{check_simple_behavior, Violation};
use nt_model::{Action, TxTree};
use nt_serial::ObjectTypes;
use nt_sgt::{appropriate_return_values, Inappropriate};
use std::sync::Arc;

/// What the gate decided, by the stage that decided it.
#[derive(Debug)]
pub enum GateVerdict {
    /// Every stage passed: β is serially correct for `T0`.
    SeriallyCorrect,
    /// Stage 1 refused.
    NotSimple(Violation),
    /// Stage 2 refused.
    InappropriateReturnValues(Inappropriate),
    /// Stage 3 closed a cycle; the report names the closing edge.
    Cyclic(Arc<ViolationReport>),
}

impl GateVerdict {
    /// Stable snake_case name, `nt_sgt::Verdict::name`'s vocabulary.
    pub fn name(&self) -> &'static str {
        match self {
            GateVerdict::SeriallyCorrect => "serially_correct",
            GateVerdict::NotSimple(_) => "not_simple",
            GateVerdict::InappropriateReturnValues(_) => "inappropriate_return_values",
            GateVerdict::Cyclic(_) => "cyclic",
        }
    }
}

/// The gate's certificate for one recorded history.
#[derive(Debug)]
pub struct RecordedCertificate {
    /// The verdict.
    pub verdict: GateVerdict,
    /// 0 when the history certified, 1 otherwise — the count experiment
    /// tables and CI gates sum across runs.
    pub violations: usize,
    /// Actions in the recorded history (including `INFORM_*`).
    pub actions: usize,
    /// Top-level nodes the replay inserted (0 if stage 1 or 2 refused).
    pub sg_nodes: usize,
    /// Edges the replay inserted, root and inner, pruned ones included.
    pub sg_edges: usize,
}

impl RecordedCertificate {
    /// Did the recorded history certify?
    pub fn is_serially_correct(&self) -> bool {
        self.violations == 0
    }
}

/// Certify `history` (`history[i]` stamped `i`) over `tree`, the objects
/// read/write registers whose initial values `types` gives.
pub fn certify_recorded(
    tree: &TxTree,
    history: &[Action],
    types: &ObjectTypes,
) -> RecordedCertificate {
    certify_replay(tree, history, types).0
}

/// [`certify_recorded`], also returning the replay (unfed if β failed an
/// earlier stage): a live certifier can go on from it.
pub fn certify_replay(
    tree: &TxTree,
    history: &[Action],
    types: &ObjectTypes,
) -> (RecordedCertificate, SgtMaintainer) {
    let serial = serial_projection(history);
    let mut m = SgtMaintainer::default();
    let verdict = match check_simple_behavior(tree, &serial) {
        Err(v) => GateVerdict::NotSimple(v),
        Ok(()) => match appropriate_return_values(tree, &serial, types) {
            Err(bad) => GateVerdict::InappropriateReturnValues(bad),
            Ok(()) => {
                m = SgtMaintainer::replay(tree, history, Default::default());
                let cycle = m.violation();
                cycle.map_or(GateVerdict::SeriallyCorrect, GateVerdict::Cyclic)
            }
        },
    };
    let cert = RecordedCertificate {
        violations: usize::from(!matches!(verdict, GateVerdict::SeriallyCorrect)),
        verdict,
        actions: history.len(),
        sg_nodes: m.inserted.0,
        sg_edges: m.inserted.1,
    };
    (cert, m)
}
