//! Read/write-object sequence algebra (§3): `write-sequence`, `last-write`,
//! `final-value`, their `clean-` variants, and the *current*/*safe*
//! predicates of §3.3.
//!
//! These operators are defined over arbitrary sequences of serial actions
//! (plus the naming tree), exactly as in the paper, so they apply both to
//! serial behaviors and to `serial(β)` projections of generic behaviors.

use crate::action::Action;
use crate::seq::{clean_indices, Status};
use crate::tree::{ObjId, TxId, TxTree};
use crate::value::Value;
use std::collections::BTreeMap;

/// Initial values for read/write objects (the paper's `d`, one per object).
///
/// Objects not explicitly set have initial value `default` (0 unless chosen
/// otherwise).
#[derive(Clone, Debug, Default)]
pub struct RwInitials {
    default: i64,
    /// Only the objects set: nothing is sized by the largest id.
    specific: BTreeMap<ObjId, i64>,
}

impl RwInitials {
    /// All objects start at `default`.
    pub fn uniform(default: i64) -> Self {
        RwInitials {
            default,
            specific: BTreeMap::new(),
        }
    }

    /// Set the initial value of one object.
    pub fn set(&mut self, x: ObjId, d: i64) {
        self.specific.insert(x, d);
    }

    /// The initial value `d` of object `x`.
    pub fn initial(&self, x: ObjId) -> i64 {
        self.specific.get(&x).copied().unwrap_or(self.default)
    }
}

/// Is `beta[i]` a `REQUEST_COMMIT` for a write access to `x`?
fn is_write_rc(tree: &TxTree, a: &Action, x: ObjId) -> bool {
    match a {
        Action::RequestCommit(t, _) => {
            tree.object_of(*t) == Some(x) && tree.op_of(*t).is_some_and(|op| op.is_rw_write())
        }
        _ => false,
    }
}

/// Indices of `write-sequence(β, X)`: the `REQUEST_COMMIT` events for write
/// accesses to `x` (§3.1).
pub fn write_sequence(tree: &TxTree, beta: &[Action], x: ObjId) -> Vec<usize> {
    (0..beta.len())
        .filter(|&i| is_write_rc(tree, &beta[i], x))
        .collect()
}

/// `last-write(β, X)`: the transaction of the last event of
/// `write-sequence(β, X)`, if any (§3.1).
pub fn last_write(tree: &TxTree, beta: &[Action], x: ObjId) -> Option<TxId> {
    beta.iter()
        .rev()
        .find(|a| is_write_rc(tree, a, x))
        .map(Action::subject)
}

/// `final-value(β, X)`: the value written by `last-write(β, X)`, or the
/// initial value if no write occurs (§3.1).
pub fn final_value(tree: &TxTree, beta: &[Action], x: ObjId, init: &RwInitials) -> i64 {
    match last_write(tree, beta, x) {
        Some(t) => tree
            .op_of(t)
            .and_then(|op| op.write_data())
            .expect("last_write returns a write access"),
        None => init.initial(x),
    }
}

/// `clean-last-write(β, X)`: `last-write(clean(β), X)` (§3.3).
pub fn clean_last_write(tree: &TxTree, beta: &[Action], x: ObjId) -> Option<TxId> {
    let clean = clean_indices(tree, beta);
    clean
        .iter()
        .rev()
        .map(|&i| &beta[i])
        .find(|a| is_write_rc(tree, a, x))
        .map(Action::subject)
}

/// `clean-final-value(β, X)`: `final-value(clean(β), X)` (§3.3).
pub fn clean_final_value(tree: &TxTree, beta: &[Action], x: ObjId, init: &RwInitials) -> i64 {
    match clean_last_write(tree, beta, x) {
        Some(t) => tree
            .op_of(t)
            .and_then(|op| op.write_data())
            .expect("clean_last_write returns a write access"),
        None => init.initial(x),
    }
}

/// Is the `REQUEST_COMMIT(T, v)` event at `beta[i]` *current* in `beta`?
///
/// §3.3: a read's return value must equal `clean-final-value(β', X)` where
/// `β'` is the prefix of `beta` preceding the event — the appearance of a
/// single overwritten-and-restored variable.
///
/// Returns `None` if `beta[i]` is not a `REQUEST_COMMIT` for a read access.
pub fn is_current(tree: &TxTree, beta: &[Action], i: usize, init: &RwInitials) -> Option<bool> {
    let Action::RequestCommit(t, v) = &beta[i] else {
        return None;
    };
    let x = tree.object_of(*t)?;
    if !tree.op_of(*t).is_some_and(|op| op.is_rw_read()) {
        return None;
    }
    let prefix = &beta[..i];
    Some(*v == Value::Int(clean_final_value(tree, prefix, x, init)))
}

/// Is the `REQUEST_COMMIT(T, v)` event at `beta[i]` *safe* in `beta`?
///
/// §3.3: the writer of the current value (`clean-last-write` of the prefix)
/// must be undefined or visible to the reader — otherwise the reader saw
/// "dirty data" that a later abort could revoke.
///
/// Returns `None` if `beta[i]` is not a `REQUEST_COMMIT` for a read access.
pub fn is_safe(tree: &TxTree, beta: &[Action], i: usize) -> Option<bool> {
    let Action::RequestCommit(t, _) = &beta[i] else {
        return None;
    };
    let x = tree.object_of(*t)?;
    if !tree.op_of(*t).is_some_and(|op| op.is_rw_read()) {
        return None;
    }
    let prefix = &beta[..i];
    match clean_last_write(tree, prefix, x) {
        None => Some(true),
        Some(writer) => {
            let status = Status::of(tree, prefix);
            Some(status.is_visible(tree, writer, *t))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    /// T0 ── a ── u (write 5)   [a, u commit]
    ///    └─ b ── w (write 9)   [b aborts after w's REQUEST_COMMIT]
    ///    └─ c ── r (read)
    fn example() -> (TxTree, [TxId; 6], Vec<Action>) {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let c = tree.add_inner(TxId::ROOT);
        let u = tree.add_access(a, x, Op::Write(5));
        let w = tree.add_access(b, x, Op::Write(9));
        let r = tree.add_access(c, x, Op::Read);
        let beta = vec![
            Action::RequestCreate(a),
            Action::Create(a),
            Action::RequestCreate(u),
            Action::Create(u),
            Action::RequestCommit(u, Value::Ok), // 4
            Action::Commit(u),
            Action::RequestCommit(a, Value::Ok),
            Action::Commit(a), // 7: u now visible to everyone
            Action::RequestCreate(b),
            Action::Create(b),
            Action::RequestCreate(w),
            Action::Create(w),
            Action::RequestCommit(w, Value::Ok), // 12: dirty write
            Action::Abort(b),                    // 13: …revoked
            Action::RequestCreate(c),
            Action::Create(c),
            Action::RequestCreate(r),
            Action::Create(r),
            Action::RequestCommit(r, Value::Int(5)), // 18: reads u's value
        ];
        (tree, [a, b, c, u, w, r], beta)
    }

    #[test]
    fn write_sequence_and_last_write() {
        let (tree, [_, _, _, u, w, _], beta) = example();
        let ws = write_sequence(&tree, &beta, ObjId(0));
        assert_eq!(ws, vec![4, 12]);
        assert_eq!(last_write(&tree, &beta, ObjId(0)), Some(w));
        assert_eq!(last_write(&tree, &beta[..5], ObjId(0)), Some(u));
        assert_eq!(last_write(&tree, &beta[..4], ObjId(0)), None);
    }

    #[test]
    fn final_value_uses_initial_when_no_write() {
        let (tree, _, beta) = example();
        let init = RwInitials::uniform(42);
        assert_eq!(final_value(&tree, &beta[..4], ObjId(0), &init), 42);
        assert_eq!(final_value(&tree, &beta[..5], ObjId(0), &init), 5);
        assert_eq!(final_value(&tree, &beta, ObjId(0), &init), 9);
    }

    #[test]
    fn per_object_initials() {
        let mut init = RwInitials::uniform(0);
        init.set(ObjId(2), 7);
        assert_eq!(init.initial(ObjId(0)), 0);
        assert_eq!(init.initial(ObjId(2)), 7);
        assert_eq!(init.initial(ObjId(99)), 0);
    }

    #[test]
    fn clean_variants_ignore_aborted_writes() {
        let (tree, [_, _, _, u, w, _], beta) = example();
        // The whole behavior: w's write is orphaned by ABORT(b).
        assert_eq!(clean_last_write(&tree, &beta, ObjId(0)), Some(u));
        let init = RwInitials::default();
        assert_eq!(clean_final_value(&tree, &beta, ObjId(0), &init), 5);
        // But in the prefix before ABORT(b), w's write is still clean.
        assert_eq!(clean_last_write(&tree, &beta[..13], ObjId(0)), Some(w));
    }

    #[test]
    fn read_is_current_and_safe_after_abort_restoration() {
        let (tree, _, beta) = example();
        let init = RwInitials::default();
        // The read at index 18 returns 5 = clean-final-value of its prefix
        // (w's 9 was erased by ABORT(b)), and u is visible: current + safe.
        assert_eq!(is_current(&tree, &beta, 18, &init), Some(true));
        assert_eq!(is_safe(&tree, &beta, 18), Some(true));
        // Non-read events yield None.
        assert_eq!(is_current(&tree, &beta, 4, &init), None);
        assert_eq!(is_safe(&tree, &beta, 12), None);
    }

    #[test]
    fn dirty_read_is_unsafe() {
        // Reader runs while w's write is live (b not yet completed).
        let (tree, [_, _b, _, _, w, r], mut beta) = example();
        beta.truncate(13); // cut before ABORT(b)
        beta.extend([
            Action::RequestCreate(r),
            Action::Create(r),
            Action::RequestCommit(r, Value::Int(9)), // reads dirty 9
        ]);
        let init = RwInitials::default();
        let i = beta.len() - 1;
        // It *is* current (9 is the clean final value of the prefix: no
        // abort has happened yet) but *unsafe* (w not visible to r).
        assert_eq!(is_current(&tree, &beta, i, &init), Some(true));
        assert_eq!(is_safe(&tree, &beta, i), Some(false));
        assert_eq!(last_write(&tree, &beta[..i], ObjId(0)), Some(w));
    }

    #[test]
    fn stale_read_is_not_current() {
        let (tree, [_, _, _, _, _, r], mut beta) = example();
        // Read returns the initial value 0 even though u committed 5.
        beta.push(Action::RequestCreate(r));
        beta.push(Action::Create(r));
        beta.push(Action::RequestCommit(r, Value::Int(0)));
        let init = RwInitials::default();
        let i = beta.len() - 1;
        assert_eq!(is_current(&tree, &beta, i, &init), Some(false));
    }
}
