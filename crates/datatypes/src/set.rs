//! A set of integers: `Insert` / `Remove` / `Contains` / `Size`.
//!
//! Inserts and removes of *distinct* elements commute backward, as do
//! blind inserts (and blind removes) of the *same* element — set union is
//! idempotent. Observers conflict with mutators of the element they
//! observe and with anything that changes the cardinality.

use nt_model::{Op, Value};
use nt_serial::{OpVal, SerialType};
use std::collections::BTreeSet;

/// Integer-set serial type, initially empty.
#[derive(Clone, Debug, Default)]
pub struct IntSetType;

impl IntSetType {
    /// A fresh (empty-initialized) set type.
    pub fn new() -> Self {
        IntSetType
    }
}

fn as_set(state: &Value) -> &BTreeSet<i64> {
    match state {
        Value::IntSet(s) => s,
        other => panic!("set state must be IntSet, got {other}"),
    }
}

impl SerialType for IntSetType {
    fn type_name(&self) -> &'static str {
        "intset"
    }

    fn initial(&self) -> Value {
        Value::IntSet(Box::default())
    }

    fn apply(&self, state: &Value, op: &Op) -> (Value, Value) {
        let s = as_set(state);
        match op {
            Op::Insert(e) => {
                let mut t = s.clone();
                t.insert(*e);
                (Value::IntSet(Box::new(t)), Value::Ok)
            }
            Op::Remove(e) => {
                let mut t = s.clone();
                t.remove(e);
                (Value::IntSet(Box::new(t)), Value::Ok)
            }
            Op::Contains(e) => (state.clone(), Value::Bool(s.contains(e))),
            Op::Size => (state.clone(), Value::Int(s.len() as i64)),
            other => panic!("set does not support {other}"),
        }
    }

    /// Exact backward commutativity:
    /// * `Insert(a)`/`Insert(b)`: always (idempotence covers `a = b`);
    /// * `Remove(a)`/`Remove(b)`: always;
    /// * `Insert(a)`/`Remove(b)`: iff `a ≠ b`;
    /// * mutator of `a`/`Contains(b)`: iff `a ≠ b`;
    /// * mutator/`Size`: conflict (blind mutators can change cardinality);
    /// * observer/observer: always.
    fn commutes_backward(&self, a: &OpVal, b: &OpVal) -> bool {
        use Op::{Contains, Insert, Remove, Size};
        match (&a.0, &b.0) {
            (Insert(x), Insert(y)) => {
                let _ = (x, y);
                true
            }
            (Remove(_), Remove(_)) => true,
            (Insert(x), Remove(y)) | (Remove(y), Insert(x)) => x != y,
            (Insert(x), Contains(y)) | (Contains(y), Insert(x)) => x != y,
            (Remove(x), Contains(y)) | (Contains(y), Remove(x)) => x != y,
            (Insert(_), Size) | (Size, Insert(_)) => false,
            (Remove(_), Size) | (Size, Remove(_)) => false,
            (Contains(_), Contains(_)) | (Contains(_), Size) | (Size, Contains(_)) => true,
            (Size, Size) => true,
            _ => false,
        }
    }

    fn op_domain(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for e in [1i64, 2] {
            ops.push(Op::Insert(e));
            ops.push(Op::Remove(e));
            ops.push(Op::Contains(e));
        }
        ops.push(Op::Size);
        ops
    }

    fn bounded_states(&self) -> Vec<Value> {
        let sets: [&[i64]; 5] = [&[], &[1], &[2], &[1, 2], &[1, 2, 3]];
        sets.iter()
            .map(|xs| Value::IntSet(Box::new(xs.iter().copied().collect())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_serial::commute_by_definition;

    /// All subsets of {1, 2} plus a 3-element state: a small but
    /// distinguishing state space.
    fn states() -> Vec<Value> {
        let sets: [&[i64]; 5] = [&[], &[1], &[2], &[1, 2], &[1, 2, 3]];
        sets.iter()
            .map(|xs| Value::IntSet(Box::new(xs.iter().copied().collect())))
            .collect()
    }

    fn all_ops() -> Vec<OpVal> {
        let mut ops = Vec::new();
        for e in [1i64, 2] {
            ops.push((Op::Insert(e), Value::Ok));
            ops.push((Op::Remove(e), Value::Ok));
            ops.push((Op::Contains(e), Value::Bool(true)));
            ops.push((Op::Contains(e), Value::Bool(false)));
        }
        for k in [0i64, 1, 2] {
            ops.push((Op::Size, Value::Int(k)));
        }
        ops
    }

    #[test]
    fn semantics() {
        let t = IntSetType::new();
        let (s1, v1) = t.apply(&t.initial(), &Op::Insert(5));
        assert_eq!(v1, Value::Ok);
        let (_, v2) = t.apply(&s1, &Op::Contains(5));
        assert_eq!(v2, Value::Bool(true));
        let (s3, _) = t.apply(&s1, &Op::Remove(5));
        let (_, v4) = t.apply(&s3, &Op::Contains(5));
        assert_eq!(v4, Value::Bool(false));
        let (_, v5) = t.apply(&s1, &Op::Size);
        assert_eq!(v5, Value::Int(1));
    }

    #[test]
    fn declared_commutativity_is_sound_and_tight() {
        let t = IntSetType::new();
        let ops = all_ops();
        for a in &ops {
            for b in &ops {
                let declared = t.commutes_backward(a, b);
                let derived = commute_by_definition(&t, a, b, &states());
                assert_eq!(
                    declared, derived,
                    "mismatch for {a:?} vs {b:?}: declared={declared} derived={derived}"
                );
            }
        }
    }

    #[test]
    fn same_element_insert_insert_commutes_by_idempotence() {
        let t = IntSetType::new();
        let i = (Op::Insert(1), Value::Ok);
        assert!(t.commutes_backward(&i, &i.clone()));
    }

    #[test]
    fn insert_remove_same_element_conflicts() {
        let t = IntSetType::new();
        let i = (Op::Insert(1), Value::Ok);
        let r = (Op::Remove(1), Value::Ok);
        assert!(!t.commutes_backward(&i, &r));
        let r2 = (Op::Remove(2), Value::Ok);
        assert!(t.commutes_backward(&i, &r2));
    }
}
