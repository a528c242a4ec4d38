//! Operational validation of serial behaviors (§2.2.4).
//!
//! `validate_serial_behavior` replays a purported serial behavior `γ`
//! through the serial scheduler discipline, the serial object semantics, and
//! the transaction well-formedness envelope, rejecting the first event that
//! no serial system could produce. It is the executable definition of
//! "γ is a serial behavior" used by the witness check of `nt-sgt`
//! (Theorem 8's conclusion made testable).

use crate::types::ObjectTypes;
use nt_model::wellformed::Violation;
use nt_model::{Action, ObjId, TxId, TxTree, Value};
use std::collections::{HashMap, HashSet};

fn violation(at: usize, what: impl Into<String>) -> Violation {
    Violation {
        at,
        what: what.into(),
    }
}

/// Validate that `gamma` is a behavior of *some* serial system of this
/// system type: the serial scheduler and serial objects act exactly as
/// specified, and every non-access transaction's projection is
/// transaction-well-formed (so some transaction automaton could have
/// produced it).
pub fn validate_serial_behavior(
    tree: &TxTree,
    gamma: &[Action],
    types: &ObjectTypes,
) -> Result<(), Violation> {
    let mut requested: HashSet<TxId> = HashSet::new();
    let mut created: HashSet<TxId> = HashSet::new();
    let mut commit_requested: HashMap<TxId, Value> = HashMap::new();
    let mut committed: HashSet<TxId> = HashSet::new();
    let mut aborted: HashSet<TxId> = HashSet::new();
    let mut reported: HashSet<TxId> = HashSet::new();
    // Children whose reports each parent has received (for transaction wf).
    let mut reports_received: HashMap<TxId, usize> = HashMap::new();
    let mut requests_made: HashMap<TxId, usize> = HashMap::new();
    // Serial object states, kept only for the objects γ names.
    let mut obj_state: HashMap<ObjId, Value> = HashMap::new();
    let mut obj_active: HashMap<ObjId, TxId> = HashMap::new();

    let completed = |committed: &HashSet<TxId>, aborted: &HashSet<TxId>, t: TxId| -> bool {
        committed.contains(&t) || aborted.contains(&t)
    };

    for (i, a) in gamma.iter().enumerate() {
        if !a.is_serial() {
            return Err(violation(i, format!("{a} is not a serial action")));
        }
        match a {
            Action::RequestCreate(t) => {
                let Some(p) = tree.parent(*t) else {
                    return Err(violation(i, "REQUEST_CREATE(T0)"));
                };
                if p != TxId::ROOT && !created.contains(&p) {
                    return Err(violation(i, format!("parent of {t} not created")));
                }
                if p == TxId::ROOT && !created.contains(&TxId::ROOT) {
                    return Err(violation(i, "T0 not created yet"));
                }
                if commit_requested.contains_key(&p) {
                    return Err(violation(i, format!("parent of {t} already finished")));
                }
                if !requested.insert(*t) {
                    return Err(violation(i, format!("duplicate REQUEST_CREATE({t})")));
                }
                *requests_made.entry(p).or_default() += 1;
            }
            Action::Create(t) => {
                if *t != TxId::ROOT && !requested.contains(t) {
                    return Err(violation(i, format!("CREATE({t}) without request")));
                }
                if aborted.contains(t) {
                    return Err(violation(i, format!("CREATE({t}) after ABORT")));
                }
                if !created.insert(*t) {
                    return Err(violation(i, format!("duplicate CREATE({t})")));
                }
                // Serial discipline: no live sibling.
                if let Some(p) = tree.parent(*t) {
                    for &s in tree.children(p) {
                        if s != *t && created.contains(&s) && !completed(&committed, &aborted, s) {
                            return Err(violation(
                                i,
                                format!("CREATE({t}) while sibling {s} is live"),
                            ));
                        }
                    }
                }
                if let Some(x) = tree.object_of(*t) {
                    if obj_active.insert(x, *t).is_some() {
                        return Err(violation(i, format!("object {x} already active")));
                    }
                }
            }
            Action::RequestCommit(t, v) => {
                if commit_requested.contains_key(t) {
                    return Err(violation(i, format!("duplicate REQUEST_COMMIT({t})")));
                }
                if !created.contains(t) {
                    return Err(violation(i, format!("REQUEST_COMMIT({t}) before CREATE")));
                }
                if let Some(x) = tree.object_of(*t) {
                    // Access: the serial object determines the value.
                    if obj_active.get(&x) != Some(t) {
                        return Err(violation(i, format!("{t} is not active at {x}")));
                    }
                    let ty = types.get(x);
                    let op = tree.op_of(*t).expect("access has op");
                    let state = obj_state.entry(x).or_insert_with(|| ty.initial());
                    let (next, expect) = ty.apply(state, op);
                    if expect != *v {
                        return Err(violation(
                            i,
                            format!("{t} returned {v}, serial spec requires {expect}"),
                        ));
                    }
                    *state = next;
                    obj_active.remove(&x);
                } else {
                    // Non-access: transaction wf requires all requested
                    // children reported.
                    let made = requests_made.get(t).copied().unwrap_or(0);
                    let recv = reports_received.get(t).copied().unwrap_or(0);
                    if made != recv {
                        return Err(violation(
                            i,
                            format!("{t} requested commit with outstanding children"),
                        ));
                    }
                }
                commit_requested.insert(*t, v.clone());
            }
            Action::Commit(t) => {
                if *t == TxId::ROOT {
                    return Err(violation(i, "COMMIT(T0)"));
                }
                if !commit_requested.contains_key(t) {
                    return Err(violation(i, format!("COMMIT({t}) without request")));
                }
                if completed(&committed, &aborted, *t) {
                    return Err(violation(i, format!("{t} already completed")));
                }
                committed.insert(*t);
            }
            Action::Abort(t) => {
                if *t == TxId::ROOT {
                    return Err(violation(i, "ABORT(T0)"));
                }
                if !requested.contains(t) {
                    return Err(violation(i, format!("ABORT({t}) without request")));
                }
                if created.contains(t) {
                    return Err(violation(
                        i,
                        format!("serial scheduler never aborts created {t}"),
                    ));
                }
                if completed(&committed, &aborted, *t) {
                    return Err(violation(i, format!("{t} already completed")));
                }
                aborted.insert(*t);
            }
            Action::ReportCommit(t, v) => {
                if !committed.contains(t) {
                    return Err(violation(i, format!("REPORT_COMMIT({t}) before COMMIT")));
                }
                if commit_requested.get(t) != Some(v) {
                    return Err(violation(i, format!("REPORT_COMMIT({t}) wrong value")));
                }
                if !reported.insert(*t) {
                    return Err(violation(i, format!("duplicate report for {t}")));
                }
                if let Some(p) = tree.parent(*t) {
                    *reports_received.entry(p).or_default() += 1;
                }
            }
            Action::ReportAbort(t) => {
                if !aborted.contains(t) {
                    return Err(violation(i, format!("REPORT_ABORT({t}) before ABORT")));
                }
                if !reported.insert(*t) {
                    return Err(violation(i, format!("duplicate report for {t}")));
                }
                if let Some(p) = tree.parent(*t) {
                    *reports_received.entry(p).or_default() += 1;
                }
            }
            Action::InformCommit(..) | Action::InformAbort(..) => unreachable!(),
        }
    }
    Ok(())
}

/// Convenience predicate form of [`validate_serial_behavior`].
pub fn is_serial_behavior(tree: &TxTree, gamma: &[Action], types: &ObjectTypes) -> bool {
    validate_serial_behavior(tree, gamma, types).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RwRegister;
    use nt_model::Op;
    use std::sync::Arc;

    fn setup() -> (TxTree, ObjectTypes, TxId, TxId, TxId, TxId) {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let w = tree.add_access(a, x, Op::Write(5));
        let r = tree.add_access(b, x, Op::Read);
        let types = ObjectTypes::uniform(1, Arc::new(RwRegister::new(0)));
        (tree, types, a, b, w, r)
    }

    fn good_gamma(a: TxId, b: TxId, w: TxId, r: TxId) -> Vec<Action> {
        vec![
            Action::Create(TxId::ROOT),
            Action::RequestCreate(a),
            Action::Create(a),
            Action::RequestCreate(w),
            Action::Create(w),
            Action::RequestCommit(w, Value::Ok),
            Action::Commit(w),
            Action::ReportCommit(w, Value::Ok),
            Action::RequestCommit(a, Value::Ok),
            Action::Commit(a),
            Action::ReportCommit(a, Value::Ok),
            Action::RequestCreate(b),
            Action::Create(b),
            Action::RequestCreate(r),
            Action::Create(r),
            Action::RequestCommit(r, Value::Int(5)),
            Action::Commit(r),
            Action::ReportCommit(r, Value::Int(5)),
            Action::RequestCommit(b, Value::Ok),
            Action::Commit(b),
        ]
    }

    #[test]
    fn accepts_serial_run() {
        let (tree, types, a, b, w, r) = setup();
        let gamma = good_gamma(a, b, w, r);
        assert!(validate_serial_behavior(&tree, &gamma, &types).is_ok());
    }

    #[test]
    fn rejects_wrong_read_value() {
        let (tree, types, a, b, w, r) = setup();
        let mut gamma = good_gamma(a, b, w, r);
        gamma[15] = Action::RequestCommit(r, Value::Int(99));
        let err = validate_serial_behavior(&tree, &gamma, &types).unwrap_err();
        assert_eq!(err.at, 15);
        assert!(err.what.contains("serial spec requires"));
    }

    #[test]
    fn rejects_live_siblings() {
        let (tree, types, a, b, _w, _r) = setup();
        let gamma = vec![
            Action::Create(TxId::ROOT),
            Action::RequestCreate(a),
            Action::RequestCreate(b),
            Action::Create(a),
            Action::Create(b), // a still live!
        ];
        let err = validate_serial_behavior(&tree, &gamma, &types).unwrap_err();
        assert_eq!(err.at, 4);
        assert!(err.what.contains("live"));
    }

    #[test]
    fn rejects_abort_after_create() {
        let (tree, types, a, _b, _w, _r) = setup();
        let gamma = vec![
            Action::Create(TxId::ROOT),
            Action::RequestCreate(a),
            Action::Create(a),
            Action::Abort(a),
        ];
        let err = validate_serial_behavior(&tree, &gamma, &types).unwrap_err();
        assert!(err.what.contains("never aborts created"));
    }

    #[test]
    fn accepts_abort_before_create() {
        let (tree, types, a, _b, _w, _r) = setup();
        let gamma = vec![
            Action::Create(TxId::ROOT),
            Action::RequestCreate(a),
            Action::Abort(a),
            Action::ReportAbort(a),
        ];
        assert!(validate_serial_behavior(&tree, &gamma, &types).is_ok());
    }

    #[test]
    fn rejects_commit_with_outstanding_children() {
        let (tree, types, a, _b, w, _r) = setup();
        let gamma = vec![
            Action::Create(TxId::ROOT),
            Action::RequestCreate(a),
            Action::Create(a),
            Action::RequestCreate(w),
            Action::Create(w),
            Action::RequestCommit(a, Value::Ok), // w unreported
        ];
        let err = validate_serial_behavior(&tree, &gamma, &types).unwrap_err();
        assert!(err.what.contains("outstanding"));
    }

    #[test]
    fn rejects_inform_actions() {
        let (tree, types, _a, _b, w, _r) = setup();
        let gamma = vec![
            Action::Create(TxId::ROOT),
            Action::InformCommit(nt_model::ObjId(0), w),
        ];
        assert!(validate_serial_behavior(&tree, &gamma, &types).is_err());
    }
}
