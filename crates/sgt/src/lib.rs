//! # nt-sgt-live
//!
//! The serialization graph of Fekete–Lynch–Weihl (PODS 1990) as a **live
//! object**: an incremental maintainer fed one recorded action at a time,
//! with memory bounded by the window of live top-level transactions —
//! the serving binary's one builder of `SG(β)`.
//!
//! * [`topo`] — a Pearce–Kelly dynamic topological order with two-way
//!   bounded search on edge insert: O(1) for order-respecting edges, a
//!   scan of only the affected region otherwise, and exact cycle paths
//!   when an insert would break acyclicity.
//! * [`maintainer`] — [`SgtMaintainer`]: conflict and precedes edges
//!   inserted exactly when visibility determines them (root precedes
//!   eagerly, everything else at top finalization), under the nested
//!   ancestor-collapse rules. It draws frontier edges — a published
//!   access's nearest conflicting neighbours per object, root precedes
//!   from the reported frontier — which keep the all-pairs graph's
//!   reachability among resident tops (DESIGN §8i), so an access adds
//!   O(frontier) edges; its state lives in reused per-top slots, so a
//!   certified action allocates nothing in steady state; and the
//!   watermark GC prunes the committed acyclic prefix, visiting only
//!   candidate tops.
//! * [`gate`] — [`certify_recorded`], the Theorem 17 gate on a recorded
//!   history: simple behavior, return values, one GC'd replay.
//! * [`live`] — [`LiveCertifier`]: the maintainer as plain data, owned
//!   by the engine's history and stepped inline under the engine lock
//!   that records each action (no thread, no channel), reading the
//!   engine's naming tree, publishing `sgt.live.*` gauges through an
//!   `nt-obs` recorder.
//! * [`report`] — [`ViolationReport`] (cycle + inserting edge + a
//!   history slice cut by whoever owns β) and the JSON schemas consumed
//!   by `nt-lint sgt` and the `CERT` wire op.
//!
//! The verdict agrees with the test oracle, `nt_sgt::check_serial_correctness`:
//! edges are monotone (visibility to `T0` only ever grows), pruned nodes
//! can never regain an in-edge, the frontier keeps reachability, and
//! `tests/live_vs_posthoc.rs` and `tests/frontier_vs_oracle.rs` compare
//! the two on every history they have — the latter down to the stamp
//! that latches a violation.

#![forbid(unsafe_code)]

pub mod gate;
pub mod live;
pub mod maintainer;
pub mod report;
pub mod topo;

pub use gate::{certify_recorded, certify_replay, GateVerdict, RecordedCertificate};
pub use live::{cert_disabled_json, LiveCertifier, LiveStatus};
pub use maintainer::{SgtConfig, SgtMaintainer};
pub use report::{ReportEdge, ViolationReport, CERT_SCHEMA, LIVE_SCHEMA, VIOLATION_SCHEMA};
pub use topo::{DynTopo, EdgeMeta, Insert};
