//! A key-value map: `Put` / `Get` / `Delete` per integer key.
//!
//! The most database-shaped type in the library: operations on *distinct
//! keys* always commute backward, so undo logging gives per-key
//! concurrency "for free" — the type-based concurrency the paper cites
//! (its reference 17, Weihl) generalized past whole-object read/write
//! conflicts.

use nt_model::{Op, Value};
use nt_serial::{OpVal, SerialType};
use std::collections::BTreeMap;

/// Key-value map serial type, initially empty.
#[derive(Clone, Debug, Default)]
pub struct KvMapType;

impl KvMapType {
    /// A fresh (empty-initialized) map type.
    pub fn new() -> Self {
        KvMapType
    }
}

fn as_map(state: &Value) -> &BTreeMap<i64, i64> {
    match state {
        Value::IntMap(m) => m,
        other => panic!("kvmap state must be IntMap, got {other}"),
    }
}

impl SerialType for KvMapType {
    fn type_name(&self) -> &'static str {
        "kvmap"
    }

    fn initial(&self) -> Value {
        Value::IntMap(Box::default())
    }

    fn apply(&self, state: &Value, op: &Op) -> (Value, Value) {
        let m = as_map(state);
        match op {
            Op::Put(k, v) => {
                let mut t = m.clone();
                t.insert(*k, *v);
                (Value::IntMap(Box::new(t)), Value::Ok)
            }
            Op::Delete(k) => {
                let mut t = m.clone();
                t.remove(k);
                (Value::IntMap(Box::new(t)), Value::Ok)
            }
            Op::Get(k) => (
                state.clone(),
                m.get(k).map(|&v| Value::Int(v)).unwrap_or(Value::Nil),
            ),
            other => panic!("kvmap does not support {other}"),
        }
    }

    /// Exact backward commutativity:
    /// * operations on distinct keys always commute;
    /// * `Put(k,·)`/`Put(k,·)`: iff the values are equal (idempotence);
    /// * `Put(k,·)`/`Delete(k)`: conflict;
    /// * `Delete(k)`/`Delete(k)`: commute;
    /// * mutator of `k`/`Get(k)`: conflict;
    /// * `Get`/`Get`: commute.
    fn commutes_backward(&self, a: &OpVal, b: &OpVal) -> bool {
        use Op::{Delete, Get, Put};
        let key = |op: &Op| match op {
            Put(k, _) | Get(k) | Delete(k) => *k,
            _ => unreachable!(),
        };
        match (&a.0, &b.0) {
            (Put(..) | Get(_) | Delete(_), Put(..) | Get(_) | Delete(_))
                if key(&a.0) != key(&b.0) =>
            {
                true
            }
            (Put(_, v1), Put(_, v2)) => v1 == v2,
            (Delete(_), Delete(_)) => true,
            (Get(_), Get(_)) => true,
            (Put(..), Delete(_)) | (Delete(_), Put(..)) => false,
            (Put(..), Get(_)) | (Get(_), Put(..)) => false,
            (Delete(_), Get(_)) | (Get(_), Delete(_)) => false,
            _ => false,
        }
    }

    fn op_domain(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for k in [1i64, 2] {
            for v in [10i64, 20] {
                ops.push(Op::Put(k, v));
            }
            ops.push(Op::Get(k));
            ops.push(Op::Delete(k));
        }
        ops
    }

    fn bounded_states(&self) -> Vec<Value> {
        // All maps over keys {1,2} and values {10, 20}.
        let mut out = Vec::new();
        for v1 in [None, Some(10i64), Some(20)] {
            for v2 in [None, Some(10i64), Some(20)] {
                let mut m = BTreeMap::new();
                if let Some(v) = v1 {
                    m.insert(1, v);
                }
                if let Some(v) = v2 {
                    m.insert(2, v);
                }
                out.push(Value::IntMap(Box::new(m)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_serial::commute_by_definition;

    fn states() -> Vec<Value> {
        // All maps over keys {1,2} and values {10, 20}, plus empty.
        let mut out = vec![Value::IntMap(Box::default())];
        for v1 in [None, Some(10i64), Some(20)] {
            for v2 in [None, Some(10i64), Some(20)] {
                let mut m = BTreeMap::new();
                if let Some(v) = v1 {
                    m.insert(1, v);
                }
                if let Some(v) = v2 {
                    m.insert(2, v);
                }
                out.push(Value::IntMap(Box::new(m)));
            }
        }
        out
    }

    fn all_ops() -> Vec<OpVal> {
        let mut ops = Vec::new();
        for k in [1i64, 2] {
            for v in [10i64, 20] {
                ops.push((Op::Put(k, v), Value::Ok));
                ops.push((Op::Get(k), Value::Int(v)));
            }
            ops.push((Op::Get(k), Value::Nil));
            ops.push((Op::Delete(k), Value::Ok));
        }
        ops
    }

    #[test]
    fn semantics() {
        let m = KvMapType::new();
        let (s1, v1) = m.apply(&m.initial(), &Op::Put(1, 10));
        assert_eq!(v1, Value::Ok);
        let (_, v2) = m.apply(&s1, &Op::Get(1));
        assert_eq!(v2, Value::Int(10));
        let (_, v3) = m.apply(&s1, &Op::Get(2));
        assert_eq!(v3, Value::Nil);
        let (s4, _) = m.apply(&s1, &Op::Delete(1));
        let (_, v5) = m.apply(&s4, &Op::Get(1));
        assert_eq!(v5, Value::Nil);
    }

    #[test]
    fn declared_commutativity_is_exactly_the_definition() {
        let m = KvMapType::new();
        let ops = all_ops();
        for a in &ops {
            for b in &ops {
                let declared = m.commutes_backward(a, b);
                let derived = commute_by_definition(&m, a, b, &states());
                assert_eq!(
                    declared, derived,
                    "mismatch for {a:?} vs {b:?}: declared={declared} derived={derived}"
                );
            }
        }
    }

    #[test]
    fn distinct_keys_always_commute() {
        let m = KvMapType::new();
        let p1 = (Op::Put(1, 10), Value::Ok);
        let d2 = (Op::Delete(2), Value::Ok);
        let g2 = (Op::Get(2), Value::Nil);
        assert!(m.commutes_backward(&p1, &d2));
        assert!(m.commutes_backward(&p1, &g2));
    }

    #[test]
    fn same_key_put_put_idempotence() {
        let m = KvMapType::new();
        let a = (Op::Put(1, 10), Value::Ok);
        let b = (Op::Put(1, 10), Value::Ok);
        let c = (Op::Put(1, 20), Value::Ok);
        assert!(m.commutes_backward(&a, &b), "equal values commute");
        assert!(!m.commutes_backward(&a, &c), "different values conflict");
    }
}
