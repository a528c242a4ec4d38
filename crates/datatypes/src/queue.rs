//! A FIFO queue: `Enqueue` / `Dequeue`.
//!
//! The least commutative of the library types — order is the whole point
//! of a queue — but backward commutativity is still not empty: two
//! dequeues that observed the *same* outcome commute, and an enqueue
//! commutes with a dequeue that returned an element other than the one
//! enqueued (the dequeue must have drawn from the existing prefix).

use nt_model::{Op, Value};
use nt_serial::{OpVal, SerialType};

/// FIFO queue serial type, initially empty. `Dequeue` on an empty queue
/// returns `Nil` and leaves the queue empty.
#[derive(Clone, Debug, Default)]
pub struct QueueType;

impl QueueType {
    /// A fresh (empty-initialized) queue type.
    pub fn new() -> Self {
        QueueType
    }
}

fn as_list(state: &Value) -> &Vec<i64> {
    match state {
        Value::IntList(l) => l,
        other => panic!("queue state must be IntList, got {other}"),
    }
}

impl SerialType for QueueType {
    fn type_name(&self) -> &'static str {
        "queue"
    }

    fn initial(&self) -> Value {
        Value::IntList(Box::default())
    }

    fn apply(&self, state: &Value, op: &Op) -> (Value, Value) {
        let l = as_list(state);
        match op {
            Op::Enqueue(e) => {
                let mut t = l.clone();
                t.push(*e);
                (Value::IntList(Box::new(t)), Value::Ok)
            }
            Op::Dequeue => {
                if l.is_empty() {
                    (state.clone(), Value::Nil)
                } else {
                    (Value::IntList(Box::new(l[1..].to_vec())), Value::Int(l[0]))
                }
            }
            other => panic!("queue does not support {other}"),
        }
    }

    /// Exact backward commutativity:
    /// * `Enqueue(a)`/`Enqueue(b)`: iff `a = b`;
    /// * `Enqueue(a)`/`Dequeue → v`: iff `v = Int(c)` with `c ≠ a`
    ///   (a dequeue returning `Nil` or the enqueued element itself pins
    ///   the order);
    /// * `Dequeue → v1`/`Dequeue → v2`: iff `v1 = v2`.
    fn commutes_backward(&self, a: &OpVal, b: &OpVal) -> bool {
        use Op::{Dequeue, Enqueue};
        match (&a.0, &b.0) {
            (Enqueue(x), Enqueue(y)) => x == y,
            (Enqueue(x), Dequeue) => match &b.1 {
                Value::Int(c) => c != x,
                _ => false,
            },
            (Dequeue, Enqueue(y)) => match &a.1 {
                Value::Int(c) => c != y,
                _ => false,
            },
            (Dequeue, Dequeue) => a.1 == b.1,
            _ => false,
        }
    }

    fn op_domain(&self) -> Vec<Op> {
        vec![Op::Enqueue(1), Op::Enqueue(2), Op::Dequeue]
    }

    fn bounded_states(&self) -> Vec<Value> {
        let lists: [&[i64]; 8] = [
            &[],
            &[1],
            &[2],
            &[1, 1],
            &[1, 2],
            &[2, 1],
            &[2, 2],
            &[1, 2, 1],
        ];
        lists
            .iter()
            .map(|l| Value::IntList(Box::new(l.to_vec())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_serial::commute_by_definition;

    /// All queue states over {1, 2} of length ≤ 2, plus one length-3.
    fn states() -> Vec<Value> {
        let lists: [&[i64]; 8] = [
            &[],
            &[1],
            &[2],
            &[1, 1],
            &[1, 2],
            &[2, 1],
            &[2, 2],
            &[1, 2, 1],
        ];
        lists
            .iter()
            .map(|l| Value::IntList(Box::new(l.to_vec())))
            .collect()
    }

    fn all_ops() -> Vec<OpVal> {
        vec![
            (Op::Enqueue(1), Value::Ok),
            (Op::Enqueue(2), Value::Ok),
            (Op::Dequeue, Value::Int(1)),
            (Op::Dequeue, Value::Int(2)),
            (Op::Dequeue, Value::Nil),
        ]
    }

    #[test]
    fn semantics() {
        let q = QueueType::new();
        let (s1, v1) = q.apply(&q.initial(), &Op::Enqueue(7));
        assert_eq!(v1, Value::Ok);
        let (s2, _) = q.apply(&s1, &Op::Enqueue(8));
        let (s3, v3) = q.apply(&s2, &Op::Dequeue);
        assert_eq!(v3, Value::Int(7));
        let (s4, v4) = q.apply(&s3, &Op::Dequeue);
        assert_eq!(v4, Value::Int(8));
        let (_, v5) = q.apply(&s4, &Op::Dequeue);
        assert_eq!(v5, Value::Nil);
    }

    #[test]
    fn declared_commutativity_is_sound_and_tight() {
        let q = QueueType::new();
        let ops = all_ops();
        for a in &ops {
            for b in &ops {
                let declared = q.commutes_backward(a, b);
                let derived = commute_by_definition(&q, a, b, &states());
                assert_eq!(
                    declared, derived,
                    "mismatch for {a:?} vs {b:?}: declared={declared} derived={derived}"
                );
            }
        }
    }

    #[test]
    fn enqueue_dequeue_interplay() {
        let q = QueueType::new();
        let enq1 = (Op::Enqueue(1), Value::Ok);
        // Dequeue that returned a different element: commutes.
        assert!(q.commutes_backward(&enq1, &(Op::Dequeue, Value::Int(2))));
        // Dequeue that returned the enqueued element: pins order.
        assert!(!q.commutes_backward(&enq1, &(Op::Dequeue, Value::Int(1))));
        // Dequeue on empty: the enqueue would have fed it.
        assert!(!q.commutes_backward(&enq1, &(Op::Dequeue, Value::Nil)));
    }
}
