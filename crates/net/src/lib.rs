//! # nt-net
//!
//! A networked nested-transaction server and load-driving client over
//! the threaded session engine (`nt_engine::SessionEngine`) — the
//! workspace's answer to "does the paper's certification discipline
//! survive a real client/server boundary?".
//!
//! * [`wire`] — the versioned binary frame protocol
//!   (`BEGIN_TOP`/`BEGIN_CHILD`/`ACCESS`/`COMMIT`/`ABORT`/
//!   `HISTORY_FETCH`) in the WAL's `len | crc | payload` frame, with
//!   client-assigned sequence numbers and a cumulative ack that make the
//!   transport at-least-once with exactly-once execution;
//! * [`server`] — the TCP server on the run-to-completion `nt-reactor`
//!   loop (one poll thread executes every frame; a lock wait parks its
//!   connection as a continuation); a per-`seq` response cache pruned to
//!   each client's ack,
//!   deterministic transport fault injection
//!   (`nt_faults::TransportPlan`) on the receive path, one durability
//!   barrier per poll round, graceful drain;
//! * [`client`] — pipelining connection with retry-with-backoff
//!   (`nt_faults::BackoffPolicy`) and the post-run fetch-and-certify
//!   path: pull the server's recorded history over the wire and run it
//!   through `nt_sgt::certify_recorded` (Theorem 17, post hoc);
//! * [`load`] — the load driver: `nt-sim` workload specs replayed as
//!   wire traffic, open- or closed-loop, one `nt_obs::Histogram` each
//!   for request and top latency;
//! * [`history`] — the on-wire form of a recorded run;
//! * [`config`] — `*.net.json` documents (server + load roles) with
//!   unknown-key rejection and lint-facing semantic checks;
//! * [`crashdrv`] — the crash-campaign driver (`nt-crash`): spawn a
//!   real `nt-serve` on an `nt-store` data directory, `SIGKILL` it
//!   mid-load at a seeded point, restart, and verify recovery —
//!   Theorem 17 re-certification, zero committed-transaction loss, and
//!   byte-identical replies to resent pre-crash frames;
//! * [`admission`] — the static admission gate's ledger: under
//!   `nt-serve --static-gate`, `BEGIN_TOP_DECLARED` requests carry
//!   declared read/write sets, and a top whose potential conflict
//!   component could close a serialization cycle is refused with a
//!   typed `STATIC_GATE` error before it acquires any lock.
//!
//! Runtime observability (one `nt-obs` recorder per server, DESIGN.md
//! §8g) threads through the server: per-request phase spans with dual
//! wall/logical stamps, the `STATS` wire op returning one `nt-net/stats/v3`
//! document (coherent counters, lock-table totals, phase
//! histograms, SGT health gauges, live wait-for graph), `nt-serve
//! --metrics-out`/`--trace-out`, the live certifier running the
//! recorded actions through the Theorem 17 gate while the server runs,
//! and the journal's flight tail dumped on stuck drains, static-gate
//! refusals, and certifier violations.

#![forbid(unsafe_code)]

pub mod admission;
pub mod client;
pub mod config;
pub mod crashdrv;
mod front_reactor;
pub mod history;
pub mod load;
pub mod server;
pub mod wire;

pub use admission::{AdmissionLedger, DeclaredSets};
pub use client::{certify_history, fetch_and_certify, Conn, ConnConfig};
pub use config::{LoadConfig, LoadMode, NetConfig, ServerConfig};
pub use history::HistoryDoc;
pub use load::{run_load, workload_spec, LoadReport};
pub use server::{DrainReport, NetServer, ServerHandle, ServerProbe, ServerStats};
pub use wire::{Request, Response, WireError};
