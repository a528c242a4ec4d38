//! nt-lint: static soundness analysis for the nested-sgt workspace.
//!
//! Two pass families, no execution involved:
//!
//! 1. **Commutativity soundness** ([`soundness`]): certify every shipped
//!    [`nt_serial::SerialType`]'s declared `commutes_backward` relation
//!    against the backward-commutativity *definition* over a bounded
//!    exhaustive domain. Over-permissive declarations (UNSOUND) are errors —
//!    they would silently drop serialization-graph edges and void the
//!    paper's Theorem 25 guarantee. Over-conservative ones (INCOMPLETE) are
//!    warnings with a quantified concurrency-loss ratio.
//! 2. **Workload/script well-formedness** ([`workload`]): lint
//!    [`nt_sim::WorkloadSpec`]s and generated script/tree artifacts for
//!    panics-in-waiting, dead knobs, orphaned subtrees, and per-protocol
//!    preconditions (e.g. Moss locking is read/write-only) that the
//!    simulator otherwise only catches at run time, if at all.
//! 3. **Fault-plan well-formedness** ([`plan`]): semantic checks on
//!    [`nt_faults::FaultPlan`] repro cards — well-formed 1-based sorted
//!    clock points, no fault targeting T0, crashes only against protocols
//!    with a recovery discipline, sane storm/delay windows. Parsing is
//!    structural on purpose; this is the pass that makes a plan *valid*.
//! 4. **Engine-config well-formedness** ([`engine`]): semantic checks on
//!    [`nt_engine::EngineConfig`] documents and the shipped presets —
//!    `threads ≥ 1` and coherent backoff/watchdog wiring. Same structural-parse /
//!    semantic-lint split as fault plans.
//! 5. **Net-config well-formedness** ([`net`]): semantic checks on
//!    [`nt_net::NetConfig`] documents (`*.net.json`) and the shipped
//!    defaults — a server whose queue, capacity, frame limit, and
//!    transport fault plan can actually serve, and a load driver whose
//!    probabilities, ranges, and timeouts can actually drive.
//! 6. **Static serializability analysis** ([`analyze`], [`conflict`]):
//!    build the *potential conflict graph* of a plan — a sound
//!    over-approximation of every serialization graph any schedule could
//!    produce — and either certify the plan "serializable under all
//!    schedules" or emit ranked concrete potential-cycle witnesses, each
//!    realizable into a behavior the Theorem 8/19 checker re-judges
//!    ([`analyze::validate_witness`], experiment E17).
//! 7. **Lock-order / deadlock-potential analysis** ([`lockorder`]): from
//!    each top's depth-first footprint, flag object pairs acquired in
//!    opposite orders under Moss modes (cross-top deadlock potential) and
//!    predict per-object write contention.
//! 8. **Durable-store artifact checks** ([`store`]): structurally decode
//!    WAL / checkpoint files (`*.wal`, `*.ckpt`) — CRC-checked frame
//!    stream, header role and generation, torn tails flagged with the
//!    truncation offset — and semantically lint crash-campaign plans
//!    (`*.crash.json`, [`nt_faults::CrashPlan`]).
//! 9. **Serialization-graph document checks** ([`sgt`]): structurally
//!    validate exported live-maintainer documents (`*.sgt.json` —
//!    violation reports, graph snapshots, `CERT` verdicts) against their
//!    schemas, plus the planted-cycle self-check that drives a
//!    guaranteed-cyclic history through a real maintainer.
//!
//! The `nt-lint` binary aggregates all of it into one human or JSON report
//! and exits nonzero iff any error-severity finding exists, making it
//! usable as a CI gate.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod conflict;
pub mod engine;
pub mod lockorder;
pub mod net;
pub mod plan;
pub mod report;
pub mod sgt;
pub mod soundness;
pub mod store;
pub mod workload;

pub use analyze::{
    analyze as analyze_static, parse_access_plan, Analysis, CycleWitness, StaticPlan,
    WitnessValidation,
};
pub use conflict::{ops_may_conflict, AccessSummary, StaticConflictMode};
pub use lockorder::{lock_order, LockOrderReport};
pub use report::{Finding, Report, Severity};
pub use soundness::{analyze_type, SoundnessConfig, TypeReport};

/// Planted-defect fixtures used to validate the analyzer's detection power
/// (the `--plant-defect` flag and the golden tests). Not part of the public
/// API and never a real datatype.
#[doc(hidden)]
pub mod selftest {
    use nt_model::{Op, Value};
    use nt_serial::{OpVal, SerialType};

    /// A counter whose declared commutativity is deliberately UNSOUND: it
    /// claims `Add`/`GetCount` always commute, though an `Add(δ≠0)` changes
    /// what a reordered `GetCount` observes. `nt-lint` must refute it.
    #[derive(Clone, Debug)]
    pub struct BrokenCounter;

    impl SerialType for BrokenCounter {
        fn type_name(&self) -> &'static str {
            "broken-counter"
        }

        fn initial(&self) -> Value {
            Value::Int(0)
        }

        fn apply(&self, state: &Value, op: &Op) -> (Value, Value) {
            let s = state.as_int().expect("counter state is Int");
            match op {
                Op::Add(d) => (Value::Int(s + d), Value::Ok),
                Op::GetCount => (state.clone(), Value::Int(s)),
                other => panic!("counter does not support {other}"),
            }
        }

        // DELIBERATE BUG: Add/GetCount declared commuting unconditionally.
        fn commutes_backward(&self, a: &OpVal, b: &OpVal) -> bool {
            matches!(
                (&a.0, &b.0),
                (Op::Add(_) | Op::GetCount, Op::Add(_) | Op::GetCount)
            )
        }

        fn op_domain(&self) -> Vec<Op> {
            vec![Op::Add(-1), Op::Add(0), Op::Add(2), Op::GetCount]
        }

        fn bounded_states(&self) -> Vec<Value> {
            (-4..=4).map(Value::Int).collect()
        }
    }

    /// A plan with a *guaranteed* potential serialization cycle: two
    /// parallel tops, each writing X0 then X1 — the crossing-writes
    /// pattern. The static analyzer must flag it (the `--plant-cycle`
    /// self-check) and its witness must reproduce live.
    pub fn planted_cycle_plan() -> crate::StaticPlan {
        use nt_model::{TxId, TxTree};
        use nt_serial::{ObjectTypes, RwRegister};
        use nt_sim::ChildOrder;
        use std::collections::{BTreeMap, BTreeSet};
        use std::sync::Arc;
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let y = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        tree.add_access(a, x, Op::Write(1));
        tree.add_access(a, y, Op::Write(1));
        tree.add_access(b, x, Op::Write(2));
        tree.add_access(b, y, Op::Write(2));
        crate::StaticPlan {
            name: "planted-cycle".into(),
            tree: Arc::new(tree),
            types: ObjectTypes::uniform(2, Arc::new(RwRegister::new(0))),
            mode: crate::StaticConflictMode::ReadWrite,
            orders: BTreeMap::from([
                (TxId::ROOT, ChildOrder::Parallel),
                (a, ChildOrder::Parallel),
                (b, ChildOrder::Parallel),
            ]),
            skip: BTreeSet::new(),
        }
    }
}
