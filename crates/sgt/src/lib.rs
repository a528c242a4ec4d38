//! # nt-sgt-live
//!
//! The serialization graph of Fekete–Lynch–Weihl (PODS 1990) as a **live
//! object**: an incremental maintainer the engine feeds one recorded
//! action at a time, turning the post-hoc Theorem 17 gate
//! (`nt_sgt::certify_recorded`, which replays the entire history) into a
//! continuous invariant monitor with memory bounded by the window of live
//! top-level transactions.
//!
//! * [`topo`] — a Pearce–Kelly dynamic topological order with two-way
//!   bounded search on edge insert: O(1) for order-respecting edges, a
//!   scan of only the affected region otherwise, and exact cycle paths
//!   when an insert would break acyclicity.
//! * [`maintainer`] — [`SgtMaintainer`]: conflict and precedes edges
//!   inserted exactly when visibility determines them (root precedes
//!   eagerly, everything else at top finalization), honoring
//!   `commutes_backward` and the nested ancestor-collapse rules, plus the
//!   watermark GC that prunes the committed acyclic prefix.
//! * [`live`] — [`LiveCertifier`]: the maintainer as plain data, owned
//!   by the engine's history and stepped inline under the engine lock
//!   that records each action (no thread, no channel), reading the
//!   engine's naming tree, publishing `sgt.live.*` gauges through an
//!   `nt-obs` recorder.
//! * [`report`] — [`ViolationReport`] (cycle + inserting edge + a
//!   history slice cut by whoever owns β) and the JSON schemas consumed
//!   by `nt-lint sgt` and the `CERT` wire op.
//!
//! The maintainer's verdict provably agrees with the post-hoc graph
//! stage: serialization-graph edges are monotone (visibility to `T0` only
//! ever grows), pruned nodes can never regain an in-edge, and the
//! differential suite in `tests/live_vs_posthoc.rs` checks agreement on
//! every recorded engine history and on planted violations.

#![forbid(unsafe_code)]

pub mod live;
pub mod maintainer;
pub mod report;
pub mod topo;

pub use live::{cert_disabled_json, LiveCertifier, LiveStatus};
pub use maintainer::{LiveConflicts, SgtConfig, SgtMaintainer};
pub use report::{ReportEdge, ViolationReport, CERT_SCHEMA, LIVE_SCHEMA, VIOLATION_SCHEMA};
pub use topo::{DynTopo, EdgeMeta, Insert};
