//! # nt-model
//!
//! Foundational model types for the `nested-sgt` workspace: a faithful Rust
//! transliteration of the system model of
//!
//! > Fekete, Lynch, Weihl. *A Serialization Graph Construction for Nested
//! > Transactions.* PODS 1990.
//!
//! This crate owns the vocabulary shared by every other crate:
//!
//! * [`tree`] — transaction naming trees / system types (§2.2);
//! * [`tree_view`] — [`TreeView`], the read side of a naming tree that
//!   may still be growing (the engine's session tree, or a [`TxTree`]);
//! * [`value`] and [`op`] — return values and access operations;
//! * [`action`] — the global action alphabet and the derived maps
//!   `transaction`, `hightransaction`, `lowtransaction`, `object` (§2.2.4);
//! * [`seq`] — the sequence algebra: `serial`, `visible`, `clean`,
//!   `operations`, `perform`, orphans and liveness (§2.2.5–§2.3);
//! * [`rw`] — read/write-object operators: `write-sequence`, `last-write`,
//!   `final-value`, `clean-*`, and the *current*/*safe* predicates (§3);
//! * [`order`] — sibling orders and `R_trans` / `R_event` (§2.3.2);
//! * [`affects`] — `directly-affects` / `affects` and order *suitability*
//!   (§2.3.2, Lemma 1);
//! * [`wellformed`] — syntactic well-formedness validators (§2.2, §2.3.1).
//!
//! Everything here is pure data and pure functions over `&[Action]` slices;
//! the executable automata live in `nt-automata`, `nt-serial`, `nt-generic`,
//! `nt-locking` and `nt-undolog`, and the serialization-graph checker — the
//! paper's contribution — lives in `nt-sgt`.

#![forbid(unsafe_code)]

pub mod action;
pub mod affects;
pub mod op;
pub mod order;
pub mod rw;
pub mod seq;
pub mod tree;
pub mod tree_view;
pub mod value;
pub mod wellformed;

pub use action::Action;
pub use op::Op;
pub use order::SiblingOrder;
pub use seq::{Operation, Status};
pub use tree::{ObjId, TxId, TxKind, TxTree};
pub use tree_view::TreeView;
pub use value::Value;
