//! # nt-sgt
//!
//! The paper's primary contribution, executable: the **serialization graph
//! construction for nested transactions** of
//!
//! > Fekete, Lynch, Weihl. *A Serialization Graph Construction for Nested
//! > Transactions.* PODS 1990.
//!
//! Given a behavior `β` of a nested transaction system (any system that
//! implements the *simple system* of §2.3), this crate decides the paper's
//! sufficient condition for serial correctness for `T0`:
//!
//! 1. **Appropriate return values** (§3.2 for read/write objects, §6.1 for
//!    arbitrary types): the operations visible to `T0`, replayed per object
//!    in `β` order, are legal for each object's serial specification —
//!    checked by [`checker::appropriate_return_values`] (the replay path)
//!    and, for read/write systems, by the *current & safe* sufficient
//!    conditions of Lemma 6 ([`checker::check_current_and_safe`]).
//! 2. **Acyclicity of `SG(β)`** (§4): the union over transactions `T`
//!    visible to `T0` of per-parent digraphs on the children of `T`, with
//!    *conflict* edges (ordered conflicting operations of descendants) and
//!    *precedes* edges (report before sibling request — external
//!    consistency). Built by [`relations::build_sg`], with conflicts drawn
//!    either from the read/write table (§4) or from failure of backward
//!    commutativity (§6.1).
//!
//! [`checker::check_serial_correctness`] is Theorem 8/19 end to end, and
//! goes beyond the theorem statement: on success it **constructs the
//! witness** serial behavior `γ` with `γ|T0 = β|T0` (following the
//! theorem's proof) and validates it against the serial system — so every
//! "serially correct" verdict carries machine-checked evidence
//! ([`witness::reconstruct_witness`]); the serving gate's test oracle.
//!
//! [`classical`] implements the textbook flat serialization graph as the
//! comparison baseline the paper generalizes.
//!
//! ```
//! use nt_model::{Action, Op, TxId, TxTree, Value};
//! use nt_serial::{ObjectTypes, RwRegister};
//! use nt_sgt::{check_serial_correctness, ConflictSource};
//! use std::sync::Arc;
//!
//! // T0 → a → (write X 5); a commits; T0 → b → (read X = 5); b commits.
//! let mut tree = TxTree::new();
//! let x = tree.add_object();
//! let a = tree.add_inner(TxId::ROOT);
//! let b = tree.add_inner(TxId::ROOT);
//! let w = tree.add_access(a, x, Op::Write(5));
//! let r = tree.add_access(b, x, Op::Read);
//! let beta = vec![
//!     Action::Create(TxId::ROOT),
//!     Action::RequestCreate(a), Action::Create(a),
//!     Action::RequestCreate(w), Action::Create(w),
//!     Action::RequestCommit(w, Value::Ok), Action::Commit(w),
//!     Action::ReportCommit(w, Value::Ok),
//!     Action::RequestCommit(a, Value::Ok), Action::Commit(a),
//!     Action::RequestCreate(b), Action::Create(b),
//!     Action::RequestCreate(r), Action::Create(r),
//!     Action::RequestCommit(r, Value::Int(5)), Action::Commit(r),
//!     Action::ReportCommit(r, Value::Int(5)),
//!     Action::RequestCommit(b, Value::Ok), Action::Commit(b),
//! ];
//! let types = ObjectTypes::uniform(1, Arc::new(RwRegister::new(0)));
//! let verdict = check_serial_correctness(&tree, &beta, &types,
//!                                        ConflictSource::ReadWrite);
//! assert!(verdict.is_serially_correct());
//! ```

#![forbid(unsafe_code)]

pub mod checker;
pub mod classical;
pub mod graph;
pub mod relations;
pub mod witness;

pub use checker::{
    appropriate_return_values, check_current_and_safe, check_serial_correctness,
    check_serial_correctness_traced, view, Inappropriate, RwConditionFailure, Verdict,
};
pub use classical::{build_classical_sg, ClassicalSg};
pub use graph::{EdgeKind, SerializationGraph, SgEdge};
pub use relations::{build_sg, build_sg_traced, conflict_edges, precedes_edges, ConflictSource};
pub use witness::{reconstruct_witness, WitnessError};
