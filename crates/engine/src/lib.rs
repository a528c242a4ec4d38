//! # nt-engine
//!
//! A multi-threaded nested-transaction engine. Everything else in the
//! workspace executes serially under a logical clock; this crate runs
//! transactions under genuine OS-thread concurrency and then *proves* each
//! run correct after the fact:
//!
//! * **sessions** ([`SessionEngine`], [`Session`]) are the one execution
//!   core: a client grows the transaction tree interactively — `begin_top`
//!   / `begin_child` / `access` / `commit` / `abort` — and the session
//!   performs the paper's controller transitions (create, answer, commit
//!   with lock inheritance, abort with `INFORM_ABORT` to every touched
//!   object). The networked server runs one session per connection;
//!   [`run_plan`] drives the same `WorkloadSpec`/`ScriptedTx` workloads the
//!   simulator runs through one session per worker thread;
//! * a **lock table** ([`LockTable`]) implements Moss' read/write
//!   locking rules (§5.2) — the same [`nt_locking::moss_precondition`] the
//!   simulated `M1_X` automaton uses — with queued, non-blocking waits
//!   that the releaser grants in place, earliest eligible ticket first
//!   (a thin blocking wrapper parks in-process callers on the ticket).
//!   Its mutex is the **engine lock**: it guards the engine's whole
//!   mutable state — every object's locks, the history, the victims and
//!   the counters — so each critical section is one step of one
//!   sequential machine;
//! * a **wait-for-graph deadlock detector** ([`detector`]) runs in the
//!   critical section whose lock request just queued — the only step that
//!   can close a cycle, so the engine needs no background thread — and dooms one
//!   victim per cycle, chosen as the lowest incomplete transaction on a
//!   blocker's ancestor chain (mirroring the simulator's policy); under
//!   [`run_plan`] victims flow into the `nt-faults` retry/backoff
//!   machinery via the workload's pre-materialized replica chains;
//! * **one history** ([`recorder`]) stamps every action under the engine
//!   lock and tees it, in stamp order, into the WAL and the live
//!   certifier; object-level actions are recorded in the critical section
//!   that makes their state change, so the history linearizes exactly the
//!   synchronization the engine actually performed;
//! * the history feeds `nt_sgt_live::certify_recorded`, certifying each
//!   concurrent run against Theorem 17 after it ends: every return value
//!   appropriate, and a replay through the maintainer closing no cycle;
//! * the engine takes one `nt_obs::TraceHandle`: handed a *timed*
//!   recorder (a server with telemetry on), the lock table feeds its
//!   `lock_blocked` / `lock_hold` histograms and sessions attribute lock
//!   wait per request; handed a disabled or events-only one, no probe
//!   site reads a clock.
//!
//! A session executes each of its top-level transactions' subtrees
//! depth-first on the calling thread (a legal interleaving for both
//! `Parallel` and `Sequential` child orders — transaction well-formedness
//! never *requires* intra-transaction concurrency); concurrency happens
//! *between* top-level transactions, which is where the paper's
//! serializability questions live.

#![forbid(unsafe_code)]

pub mod config;
pub mod detector;
pub mod locktable;
pub mod recorder;
pub mod run;
pub mod session;
pub mod session_tree;
pub mod status;

pub use config::{DurabilityMode, EngineConfig};
pub use locktable::{Acquired, Acquisition, LockTable, Ticket, WaitEdge, WakeHandle};
pub use nt_model::TreeView;
pub use nt_sgt_live::{LiveCertifier, LiveStatus};
pub use recorder::{ActionSink, History, SeqClock, WorkerLog};
pub use run::{run_plan, run_workload, EnginePlan, EngineReport, EngineStats, Victim};
pub use session::{
    AccessOutcome, AccessStep, BeginOutcome, CommitOutcome, ParkedAccess, RecoveredSeed, Session,
    SessionEngine, SessionError,
};
pub use session_tree::{SessionTree, TreeError};
pub use status::StatusTable;
