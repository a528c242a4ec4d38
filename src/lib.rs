//! # nested-sgt
//!
//! A Rust reproduction of
//!
//! > Alan Fekete, Nancy Lynch, William Weihl.
//! > *A Serialization Graph Construction for Nested Transactions.*
//! > PODS 1990.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] — transaction trees, actions, and the paper's sequence
//!   algebra (`visible`, `clean`, `affects`, …);
//! * [`automata`] — the I/O automaton framework (§2.1);
//! * [`serial`] — serial objects, the serial scheduler, and serial-behavior
//!   validation (§2.2); serial data-type specifications (§6.1);
//! * [`sgt`] — **the contribution**: the serialization-graph construction,
//!   the Theorem 8/19 checker, and constructive witnesses (§4, §6.1);
//! * [`generic`] — the generic controller of generic systems (§5.1);
//! * [`locking`] — Moss' read/write locking objects (§5.2, Theorem 17);
//! * [`undolog`] — the undo logging objects (§6.2, Theorem 25);
//! * [`datatypes`] — registers, counters, accounts, sets, queues with
//!   exact backward-commutativity relations;
//! * [`mvto`] — nested multiversion timestamp ordering (the conclusion's
//!   future-work direction; experiment E11);
//! * [`certifier`] — the construction as an *online scheduler*:
//!   serialization-graph certification (experiment E12);
//! * [`faults`] — deterministic fault-injection plans, retry backoff
//!   policies, and fault-schedule minimization (experiment E14);
//! * [`sim`] — workload generation and simulation;
//! * [`engine`] — the multi-threaded nested-transaction engine: sharded
//!   Moss lock tables with queued waits granted in place by the
//!   releaser, wait-for-graph deadlock detection, and post-hoc SGT certification of every concurrent run
//!   (experiment E15).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub mod trace;

pub use nt_automata as automata;
pub use nt_certifier as certifier;
pub use nt_datatypes as datatypes;
pub use nt_engine as engine;
pub use nt_faults as faults;
pub use nt_generic as generic;
pub use nt_locking as locking;
pub use nt_model as model;
pub use nt_mvto as mvto;
pub use nt_net as net;
pub use nt_serial as serial;
pub use nt_sgt as sgt;
pub use nt_sim as sim;
pub use nt_undolog as undolog;

pub use nt_model::{Action, ObjId, Op, TxId, TxTree, Value};
pub use nt_sgt::{check_serial_correctness, ConflictSource, Verdict};
