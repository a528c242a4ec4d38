//! Return values and object states.
//!
//! The paper's system type fixes a set of *values* used both as return
//! values of `REQUEST_COMMIT` actions and (for concrete serial object
//! automata) as the data domain `D`. A single closed enum keeps the whole
//! workspace monomorphic, which lets undo logs and witness reconstruction
//! replay operations generically.
//!
//! The three collection variants are boxed. They are object *states* of
//! the simulator's §6 data types, never return values the engine
//! records, yet an unboxed `Vec`/`BTreeMap` would make every `Value` —
//! and so every recorded [`Action`](crate::Action) — twice as wide.
//! Boxed, a `Value` is 16 bytes and an `Action` 24 (asserted below).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A value: an access return value or a serial-object state.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// The paper's `OK`: the fixed return value of every write access and of
    /// most mutators.
    Ok,
    /// Absence of a value (e.g. `Dequeue` on an empty queue).
    Nil,
    /// An integer (register contents, counter totals, balances, elements).
    Int(i64),
    /// A boolean (membership tests, conditional-withdraw outcomes).
    Bool(bool),
    /// A set of integers (state of a set object).
    IntSet(Box<BTreeSet<i64>>),
    /// A list of integers, front at index 0 (state of a FIFO queue object).
    IntList(Box<Vec<i64>>),
    /// A map from integer keys to integer values (state of a key-value
    /// map object).
    IntMap(Box<BTreeMap<i64, i64>>),
}

// Every recorded history is a `Vec` of these: a wider variant would
// widen all of them.
const _: () =
    assert!(std::mem::size_of::<Value>() == 16 && std::mem::size_of::<crate::Action>() == 24);

impl Value {
    /// Convenience: the integer inside, if this is `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Convenience: the boolean inside, if this is `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True iff this is the `Ok` acknowledgement.
    pub fn is_ok(&self) -> bool {
        matches!(self, Value::Ok)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Ok => write!(f, "OK"),
            Value::Nil => write!(f, "nil"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::IntSet(s) => write!(f, "{s:?}"),
            Value::IntList(l) => write!(f, "{l:?}"),
            Value::IntMap(m) => write!(f, "{m:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Ok.as_int(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Ok.is_ok());
        assert!(!Value::Nil.is_ok());
    }

    #[test]
    fn conversions_and_display() {
        assert_eq!(Value::from(5), Value::Int(5));
        assert_eq!(Value::from(false), Value::Bool(false));
        assert_eq!(format!("{}", Value::Ok), "OK");
        assert_eq!(format!("{}", Value::Int(-2)), "-2");
    }

    #[test]
    fn set_and_list_values_are_hashable_and_eq() {
        use std::collections::HashSet;
        let mut h = HashSet::new();
        h.insert(Value::IntSet(Box::new(BTreeSet::from([1, 2]))));
        h.insert(Value::IntList(Box::new(vec![1, 2])));
        assert!(h.contains(&Value::IntSet(Box::new(BTreeSet::from([1, 2])))));
        assert!(!h.contains(&Value::IntSet(Box::new(BTreeSet::from([1])))));
    }
}
