//! Serial specifications of data types (§3.1, §6.1).
//!
//! A [`SerialType`] gives the *serial specification* of an object: its
//! initial state, its deterministic transition function, and its declared
//! *backward commutativity* relation on operations. The transition function
//! defines the serial object automaton `S_X` (see [`crate::object`]); the
//! commutativity relation defines conflicts for the generalized
//! serialization graph of §6.1 and gates concurrency in the undo-logging
//! algorithm of §6.2.
//!
//! Declared commutativity must be *sound*: if `commutes_backward(a, b)`
//! holds then `a` and `b` really commute backward per the paper's
//! definition. It may be conservative (declaring true conflicts where the
//! definition would allow commuting); that only reduces concurrency and adds
//! serialization-graph edges, never breaking correctness.
//! [`commute_by_definition`] checks a declared relation against the
//! definition over a supplied set of reachable states — property tests use
//! it to validate every type in `nt-datatypes`.

use nt_model::{Op, TxId, TxTree, Value};
use std::fmt;
use std::sync::Arc;

/// An operation together with its return value: the paper's `(T, v)` pair
/// with the transaction name replaced by its operation (all parameters of an
/// access are encoded in its name, so this is the quotient that matters for
/// object semantics).
pub type OpVal = (Op, Value);

/// The serial specification of one data type.
pub trait SerialType: fmt::Debug + Send + Sync {
    /// Short name for diagnostics (`"register"`, `"counter"`, …).
    fn type_name(&self) -> &'static str;

    /// The initial state (the paper's `d` for read/write objects).
    fn initial(&self) -> Value;

    /// Apply `op` to `state`, returning `(new_state, return_value)`.
    ///
    /// Must be deterministic and total on the operations the type supports;
    /// may panic on operations of other types (workloads never mix types).
    fn apply(&self, state: &Value, op: &Op) -> (Value, Value);

    /// Declared backward-commutativity relation (must be symmetric and
    /// sound w.r.t. the definition, may be conservative).
    fn commutes_backward(&self, a: &OpVal, b: &OpVal) -> bool;

    /// A small, representative set of operations for bounded exhaustive
    /// analysis of this type (the `nt-lint` soundness pass).
    ///
    /// The domain should exercise every operation kind the type supports,
    /// with enough distinct parameters to distinguish conflicting pairs
    /// (e.g. two different write values, one present and one absent set
    /// element). An empty domain (the default) opts the type out of static
    /// certification; `nt-lint` reports such types as unanalyzable.
    fn op_domain(&self) -> Vec<Op> {
        Vec::new()
    }

    /// A bounded set of starting states for quantifying the
    /// backward-commutativity definition (the prefix `ξ` of the paper is
    /// represented by its final state).
    ///
    /// Should contain [`SerialType::initial`] and enough distinguishing
    /// states that any declared-commuting pair that truly conflicts is
    /// refuted from at least one of them. Analyzers additionally close this
    /// set under [`SerialType::op_domain`], so supplying seed states that
    /// generate the interesting region is sufficient.
    fn bounded_states(&self) -> Vec<Value> {
        vec![self.initial()]
    }
}

/// Replay a sequence of `(Op, Value)` pairs from the initial state.
///
/// Returns the final state if every recorded return value matches the
/// specification — i.e. iff `perform(ξ)` is a behavior of `S_X` (Lemma 4
/// generalized) — and `None` otherwise.
///
/// ```
/// use nt_model::{Op, Value};
/// use nt_serial::{replay, RwRegister};
/// let reg = RwRegister::new(0);
/// let legal = [(Op::Write(3), Value::Ok), (Op::Read, Value::Int(3))];
/// assert_eq!(replay(&reg, &legal), Some(Value::Int(3)));
/// let stale = [(Op::Write(3), Value::Ok), (Op::Read, Value::Int(0))];
/// assert_eq!(replay(&reg, &stale), None);
/// ```
pub fn replay(ty: &dyn SerialType, ops: &[OpVal]) -> Option<Value> {
    replay_from(ty, ty.initial(), ops)
}

/// As [`replay`], starting from an explicit state.
pub fn replay_from(ty: &dyn SerialType, start: Value, ops: &[OpVal]) -> Option<Value> {
    let mut state = start;
    for (op, recorded) in ops {
        let (next, v) = ty.apply(&state, op);
        if v != *recorded {
            return None;
        }
        state = next;
    }
    Some(state)
}

/// Is `perform(ξ)` a behavior of `S_X`? (Legality of an operation sequence.)
pub fn legal(ty: &dyn SerialType, ops: &[OpVal]) -> bool {
    replay(ty, ops).is_some()
}

/// Resolve the operations of paper-style `(TxId, Value)` pairs through the
/// naming tree, yielding `(Op, Value)` pairs. Panics if some name is not an
/// access.
pub fn resolve_ops(tree: &TxTree, ops: &[(TxId, Value)]) -> Vec<OpVal> {
    ops.iter()
        .map(|(t, v)| {
            (
                tree.op_of(*t)
                    .unwrap_or_else(|| panic!("{t} is not an access"))
                    .clone(),
                v.clone(),
            )
        })
        .collect()
}

/// Check one direction of the backward-commutativity definition from a
/// single starting state `s` (standing for an arbitrary prefix `ξ` with
/// final state `s`):
///
/// if `s --first--> --second-->` is legal with the recorded values, then the
/// swapped order must be legal with the recorded values and reach the same
/// final state (equieffectiveness for deterministic specifications).
fn commute_dir_from(ty: &dyn SerialType, s: &Value, first: &OpVal, second: &OpVal) -> bool {
    let (s1, v1) = ty.apply(s, &first.0);
    if v1 != first.1 {
        return true; // original order illegal from s: vacuously fine
    }
    let (s2, v2) = ty.apply(&s1, &second.0);
    if v2 != second.1 {
        return true;
    }
    // Swapped order must replay with identical recorded values…
    let (t1, w1) = ty.apply(s, &second.0);
    if w1 != second.1 {
        return false;
    }
    let (t2, w2) = ty.apply(&t1, &first.0);
    // …and be equieffective (same state ⇒ same continuations, since the
    // specification is deterministic and states are canonical values).
    w2 == first.1 && t2 == s2
}

/// Decide backward commutativity of `a` and `b` *by the definition*,
/// quantifying over the given set of states (which should cover the states
/// reachable by the prefixes `ξ` of interest; exhaustive for small domains).
///
/// Both directions are checked, making the result symmetric like the
/// paper's relation.
pub fn commute_by_definition(ty: &dyn SerialType, a: &OpVal, b: &OpVal, states: &[Value]) -> bool {
    commute_refutation(ty, a, b, states).is_none()
}

/// As [`commute_by_definition`], but on failure return the first starting
/// state from which the pair fails to commute — a concrete counterexample
/// for diagnostics. `None` means the pair commutes from every given state.
pub fn commute_refutation<'a>(
    ty: &dyn SerialType,
    a: &OpVal,
    b: &OpVal,
    states: &'a [Value],
) -> Option<&'a Value> {
    states
        .iter()
        .find(|s| !(commute_dir_from(ty, s, a, b) && commute_dir_from(ty, s, b, a)))
}

/// The serial types of every object in a system, indexed by [`nt_model::ObjId`].
#[derive(Clone)]
pub struct ObjectTypes(Types);

#[derive(Clone)]
enum Types {
    /// One explicit type per object.
    PerObject(Vec<Arc<dyn SerialType>>),
    /// `n` objects sharing one type: nothing is kept per object, so the
    /// count may be as large as the id range.
    Uniform(usize, Arc<dyn SerialType>),
}

impl fmt::Debug for ObjectTypes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Types::PerObject(types) => {
                let names: Vec<_> = types.iter().map(|t| t.type_name()).collect();
                write!(f, "ObjectTypes({names:?})")
            }
            Types::Uniform(n, ty) => write!(f, "ObjectTypes({n} x {:?})", ty.type_name()),
        }
    }
}

impl ObjectTypes {
    /// One explicit type per object, `ObjId(0)` first.
    pub fn new(types: Vec<Arc<dyn SerialType>>) -> Self {
        ObjectTypes(Types::PerObject(types))
    }

    /// `n` objects all of the same type.
    pub fn uniform(n: usize, ty: Arc<dyn SerialType>) -> Self {
        ObjectTypes(Types::Uniform(n, ty))
    }

    /// The type of object `x`.
    pub fn get(&self, x: nt_model::ObjId) -> &Arc<dyn SerialType> {
        match &self.0 {
            Types::PerObject(types) => &types[x.index()],
            Types::Uniform(n, ty) => {
                assert!(x.index() < *n, "object {x:?} out of range ({n} objects)");
                ty
            }
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        match &self.0 {
            Types::PerObject(types) => types.len(),
            Types::Uniform(n, _) => *n,
        }
    }

    /// True iff there are no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate `(ObjId, type)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (nt_model::ObjId, &Arc<dyn SerialType>)> {
        (0..self.len()).map(|i| {
            let x = nt_model::ObjId(i as u32);
            (x, self.get(x))
        })
    }
}

/// The read/write register of §3.1: the canonical serial object of the
/// classical theory. `Read` returns the current value; `Write(d)` replaces
/// it and returns `OK`.
#[derive(Clone, Debug)]
pub struct RwRegister {
    /// The initial value `d`.
    pub init: i64,
}

impl RwRegister {
    /// A register with the given initial value.
    pub fn new(init: i64) -> Self {
        RwRegister { init }
    }
}

impl SerialType for RwRegister {
    fn type_name(&self) -> &'static str {
        "register"
    }

    fn initial(&self) -> Value {
        Value::Int(self.init)
    }

    fn apply(&self, state: &Value, op: &Op) -> (Value, Value) {
        match op {
            Op::Read => (state.clone(), state.clone()),
            Op::Write(d) => (Value::Int(*d), Value::Ok),
            other => panic!("register does not support {other}"),
        }
    }

    /// The paper's read/write conflict relation (§4): two accesses conflict
    /// unless both are reads. This is (slightly) conservative w.r.t. the
    /// backward-commutativity definition — e.g. two writes of the *same*
    /// value commute by the definition but are declared conflicting — which
    /// keeps the §4 and §6 constructions consistent on registers.
    fn commutes_backward(&self, a: &OpVal, b: &OpVal) -> bool {
        a.0.is_rw_read() && b.0.is_rw_read()
    }

    fn op_domain(&self) -> Vec<Op> {
        vec![Op::Read, Op::Write(0), Op::Write(1)]
    }

    fn bounded_states(&self) -> Vec<Value> {
        let mut vals = vec![self.init, self.init + 1, 0, 1];
        vals.sort_unstable();
        vals.dedup();
        vals.into_iter().map(Value::Int).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> RwRegister {
        RwRegister::new(0)
    }

    #[test]
    fn register_semantics() {
        let r = reg();
        assert_eq!(r.initial(), Value::Int(0));
        let (s, v) = r.apply(&Value::Int(0), &Op::Write(5));
        assert_eq!((s.clone(), v), (Value::Int(5), Value::Ok));
        let (s2, v2) = r.apply(&s, &Op::Read);
        assert_eq!((s2, v2), (Value::Int(5), Value::Int(5)));
    }

    #[test]
    fn replay_accepts_legal_rejects_illegal() {
        let r = reg();
        let legal_ops = vec![
            (Op::Write(3), Value::Ok),
            (Op::Read, Value::Int(3)),
            (Op::Write(4), Value::Ok),
            (Op::Read, Value::Int(4)),
        ];
        assert_eq!(replay(&r, &legal_ops), Some(Value::Int(4)));
        assert!(legal(&r, &legal_ops));
        let illegal = vec![(Op::Write(3), Value::Ok), (Op::Read, Value::Int(9))];
        assert_eq!(replay(&r, &illegal), None);
    }

    #[test]
    fn register_commutativity_declared_vs_definition() {
        let r = reg();
        let states: Vec<Value> = (-2..=2).map(Value::Int).collect();
        let read3 = (Op::Read, Value::Int(3));
        let read4 = (Op::Read, Value::Int(4));
        let write3 = (Op::Write(3), Value::Ok);
        let write4 = (Op::Write(4), Value::Ok);
        // Reads commute, declared and by definition.
        assert!(r.commutes_backward(&read3, &read4));
        assert!(commute_by_definition(&r, &read3, &read4, &states));
        // Write/read conflict both ways.
        assert!(!r.commutes_backward(&write3, &read3));
        assert!(!commute_by_definition(&r, &write3, &read3, &states));
        // Distinct writes conflict by definition too.
        assert!(!commute_by_definition(&r, &write3, &write4, &states));
        // Equal writes: declared conflicting (conservative) although the
        // definition lets them commute.
        assert!(!r.commutes_backward(&write3, &write3.clone()));
        assert!(commute_by_definition(
            &r,
            &write3,
            &(Op::Write(3), Value::Ok),
            &states
        ));
    }

    #[test]
    fn object_types_indexing() {
        let tys = ObjectTypes::uniform(3, Arc::new(RwRegister::new(7)));
        assert_eq!(tys.len(), 3);
        assert!(!tys.is_empty());
        assert_eq!(tys.get(nt_model::ObjId(2)).initial(), Value::Int(7));
        assert_eq!(tys.iter().count(), 3);
    }

    #[test]
    fn resolve_ops_through_tree() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let u = tree.add_access(a, x, Op::Write(9));
        let resolved = resolve_ops(&tree, &[(u, Value::Ok)]);
        assert_eq!(resolved, vec![(Op::Write(9), Value::Ok)]);
    }
}
