//! The typed event taxonomy of the observability layer.
//!
//! Every instrumented site in the protocol/checker stack emits one of
//! these variants; the recorder stamps it with the logical clock and the
//! exporters render it. Field types are plain integers (`TxId`/`ObjId`
//! arena indices) so events serialize bytewise-identically across runs.

use crate::json::JsonObj;
use nt_model::{ObjId, TxId};

/// Which lock class an access acquired (Moss locking).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockClass {
    /// A shared read lock.
    Read,
    /// An exclusive write lock (also what reads take in `Exclusive` mode).
    Write,
}

impl LockClass {
    fn as_str(self) -> &'static str {
        match self {
            LockClass::Read => "read",
            LockClass::Write => "write",
        }
    }
}

/// One structured event. See `DESIGN.md` §9 for the taxonomy rationale.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A simulation run started.
    RunStart {
        /// Protocol label (`moss-rw`, `undo`, `mvto`, …).
        protocol: &'static str,
        /// Interleaving seed of the run.
        seed: u64,
    },
    /// A simulation run ended.
    RunEnd {
        /// Actions fired.
        steps: u64,
        /// Scheduler rounds.
        rounds: u64,
        /// Whether the run quiesced (vs. hitting the step cap).
        quiescent: bool,
    },
    /// An access acquired a lock (Moss locking, on `REQUEST_COMMIT`).
    LockAcquired {
        /// Object.
        obj: u32,
        /// The access transaction.
        tx: u32,
        /// Read or write lock.
        class: LockClass,
    },
    /// `INFORM_COMMIT` passed a lock (and tentative value) up to the parent.
    LockInherited {
        /// Object.
        obj: u32,
        /// The committing holder.
        tx: u32,
        /// The parent that inherits.
        to: u32,
    },
    /// `INFORM_ABORT` reached an object and discarded descendant state
    /// (locks for Moss; counted uniformly as "abort propagation").
    AbortApplied {
        /// Object.
        obj: u32,
        /// The aborted transaction.
        tx: u32,
        /// Lock entries (or other per-holder records) discarded.
        discarded: u64,
    },
    /// An access transitioned to blocked (its precondition failed) at the
    /// end of a scheduler round. Emitted on the transition only, not every
    /// round, so journals stay compact.
    AccessBlocked {
        /// Object.
        obj: u32,
        /// The waiting access.
        tx: u32,
        /// The transactions it waits on (a blocker equal to `tx` itself
        /// means the access was *refused*, e.g. an MVTO write-too-late).
        blockers: Vec<u32>,
    },
    /// A previously blocked access became unblocked (answered, orphaned,
    /// or its blockers resolved).
    AccessUnblocked {
        /// Object.
        obj: u32,
        /// The access.
        tx: u32,
    },
    /// Undo logging appended an operation to the log.
    UndoPush {
        /// Object.
        obj: u32,
        /// The access whose operation was logged.
        tx: u32,
        /// Log length after the push.
        log_len: u64,
    },
    /// `INFORM_ABORT` erased descendant operations from an undo log.
    UndoRollback {
        /// Object.
        obj: u32,
        /// The aborted transaction.
        tx: u32,
        /// Entries erased.
        erased: u64,
    },
    /// MVTO installed a new version.
    VersionInstalled {
        /// Object.
        obj: u32,
        /// The writing access.
        tx: u32,
        /// Number of versions after installation.
        versions: u64,
    },
    /// MVTO answered a read from a version.
    VersionRead {
        /// Object.
        obj: u32,
        /// The reading access.
        tx: u32,
        /// The writer of the observed version (`None` = initial version).
        writer: Option<u32>,
    },
    /// `INFORM_ABORT` discarded MVTO versions and read records.
    VersionsDiscarded {
        /// Object.
        obj: u32,
        /// The aborted transaction.
        tx: u32,
        /// Versions discarded.
        versions: u64,
        /// Read records discarded.
        reads: u64,
    },
    /// The simulator's deadlock breaker chose a victim.
    DeadlockVictim {
        /// The transaction aborted to break the wait.
        victim: u32,
        /// A waiter that was stuck.
        waiter: u32,
        /// The blocker whose ancestor chain supplied the victim.
        blocker: u32,
    },
    /// Fault injection aborted a live transaction.
    AbortInjected {
        /// The victim.
        tx: u32,
    },
    /// A fault-plan event was applied by the executor (nt-faults).
    FaultInjected {
        /// Stable fault-kind label (`abort_tx`, `orphan_subtree`,
        /// `crash_object`, `delay_inform`, `duplicate_inform`,
        /// `abort_storm`).
        kind: &'static str,
        /// The round the plan pinned the fault to.
        round: u64,
        /// The resolved target (transaction or object index; a storm
        /// records its window end).
        target: u64,
    },
    /// An object's volatile automaton state was dropped (crash fault).
    ObjectCrashed {
        /// The crashed object.
        obj: u32,
    },
    /// A crashed object finished recovery by replaying its slice of the
    /// recorded behavior.
    ObjectRecovered {
        /// The recovered object.
        obj: u32,
        /// Actions replayed to reconstruct the state.
        replayed: u64,
    },
    /// An aborted child slot armed a backoff timer for a fresh sibling
    /// replica (retry-with-backoff).
    RetryScheduled {
        /// The slot's original child transaction.
        orig: u32,
        /// The replica that will be submitted.
        replica: u32,
        /// Retry number (1 = first retry).
        attempt: u64,
        /// Round at which the replica becomes eligible.
        wake_round: u64,
    },
    /// A retried slot ran out of replica budget with every attempt
    /// aborted.
    RetryExhausted {
        /// The slot's original child transaction.
        orig: u32,
        /// Retries consumed.
        attempts: u64,
    },
    /// The quiescence watchdog fired: no component made progress for the
    /// configured window, so the run is cut short (with a flight-recorder
    /// dump) instead of hanging.
    WatchdogFired {
        /// Rounds without progress when the watchdog tripped.
        stalled_rounds: u64,
    },
    /// The networked server accepted a client connection (nt-net).
    ConnAccepted {
        /// Server-assigned connection id.
        conn: u64,
    },
    /// A client connection finished (EOF, error, or drain).
    ConnClosed {
        /// Connection id.
        conn: u64,
        /// Request frames read off this connection (after fault injection).
        frames: u64,
    },
    /// The transport fault plan acted on a received frame (nt-net).
    FrameFault {
        /// Connection id.
        conn: u64,
        /// The connection's frame counter (1-based).
        frame: u64,
        /// Stable fault label (`drop`, `duplicate`, `delay`).
        fault: &'static str,
    },
    /// A client re-sent a request whose response timed out (nt-net,
    /// client side).
    NetRetry {
        /// Connection id (client-local numbering).
        conn: u64,
        /// The retried request's wire sequence number (written as
        /// `req_seq` — `seq` is the stamp's own field).
        req_seq: u64,
        /// Retry number (1 = first resend).
        attempt: u64,
    },
    /// The server finished a graceful drain: stopped accepting, executed
    /// every queued request, closed every connection.
    ServerDrained {
        /// Connections served over the server's lifetime.
        conns: u64,
    },
    /// A checker phase began (graph build, cycle check, …).
    CheckPhaseStart {
        /// Phase name (stable identifiers, see `DESIGN.md`).
        phase: &'static str,
    },
    /// A checker phase ended.
    CheckPhaseEnd {
        /// Phase name.
        phase: &'static str,
    },
    /// The serialization-graph construction inserted a (deduplicated) edge.
    SgEdgeInserted {
        /// The subgraph's parent transaction.
        parent: u32,
        /// Source sibling.
        from: u32,
        /// Target sibling.
        to: u32,
        /// `"conflict"` or `"precedes"`.
        kind: &'static str,
    },
    /// The checker reached a verdict.
    CheckVerdict {
        /// Stable verdict label (`serially-correct`, `cyclic`, …).
        verdict: &'static str,
    },
    /// A violation or failure that triggers a flight-recorder dump.
    Violation {
        /// Free-form reason.
        reason: String,
    },
    /// Free-form annotation (experiment markers etc.).
    Note {
        /// The annotation text.
        text: String,
    },
}

/// Helper: the arena index of a `TxId` as the wire type.
pub fn tx(t: TxId) -> u32 {
    t.0
}

/// Helper: the arena index of an `ObjId` as the wire type.
pub fn obj(x: ObjId) -> u32 {
    x.0
}

/// One table names every variant once: [`Event::kind`] and
/// [`Event::counter`] are both generated from it, and both matches are
/// exhaustive — a new variant does not compile until it has a row here.
macro_rules! event_kinds {
    ($($variant:ident => $kind:literal,)*) => {
        impl Event {
            /// Stable snake_case discriminator used as the `type` journal
            /// field.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $kind,)*
                }
            }

            /// The auto-derived metrics key: `ev.<kind>`.
            pub fn counter(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => concat!("ev.", $kind),)*
                }
            }
        }
    };
}

event_kinds! {
    RunStart => "run_start",
    RunEnd => "run_end",
    LockAcquired => "lock_acquired",
    LockInherited => "lock_inherited",
    AbortApplied => "abort_applied",
    AccessBlocked => "access_blocked",
    AccessUnblocked => "access_unblocked",
    UndoPush => "undo_push",
    UndoRollback => "undo_rollback",
    VersionInstalled => "version_installed",
    VersionRead => "version_read",
    VersionsDiscarded => "versions_discarded",
    DeadlockVictim => "deadlock_victim",
    AbortInjected => "abort_injected",
    FaultInjected => "fault_injected",
    ObjectCrashed => "object_crashed",
    ObjectRecovered => "object_recovered",
    RetryScheduled => "retry_scheduled",
    RetryExhausted => "retry_exhausted",
    WatchdogFired => "watchdog_fired",
    ConnAccepted => "conn_accepted",
    ConnClosed => "conn_closed",
    FrameFault => "frame_fault",
    NetRetry => "net_retry",
    ServerDrained => "server_drained",
    CheckPhaseStart => "check_phase_start",
    CheckPhaseEnd => "check_phase_end",
    SgEdgeInserted => "sg_edge_inserted",
    CheckVerdict => "check_verdict",
    Violation => "violation",
    Note => "note",
}

impl Event {
    /// The object this event concerns, if any (per-object metrics key).
    pub fn object(&self) -> Option<u32> {
        match self {
            Event::LockAcquired { obj, .. }
            | Event::LockInherited { obj, .. }
            | Event::AbortApplied { obj, .. }
            | Event::AccessBlocked { obj, .. }
            | Event::AccessUnblocked { obj, .. }
            | Event::UndoPush { obj, .. }
            | Event::UndoRollback { obj, .. }
            | Event::VersionInstalled { obj, .. }
            | Event::VersionRead { obj, .. }
            | Event::VersionsDiscarded { obj, .. }
            | Event::ObjectCrashed { obj }
            | Event::ObjectRecovered { obj, .. } => Some(*obj),
            _ => None,
        }
    }

    /// Append this event's payload fields to a journal object (the caller
    /// has already written `round`/`step`/`seq`/`type`).
    pub fn write_fields(&self, o: &mut JsonObj) {
        match self {
            Event::RunStart { protocol, seed } => {
                o.str("protocol", protocol).num("seed", *seed);
            }
            Event::RunEnd {
                steps,
                rounds,
                quiescent,
            } => {
                o.num("steps", *steps)
                    .num("rounds", *rounds)
                    .bool("quiescent", *quiescent);
            }
            Event::LockAcquired { obj, tx, class } => {
                o.num("obj", u64::from(*obj))
                    .num("tx", u64::from(*tx))
                    .str("class", class.as_str());
            }
            Event::LockInherited { obj, tx, to } => {
                o.num("obj", u64::from(*obj))
                    .num("tx", u64::from(*tx))
                    .num("to", u64::from(*to));
            }
            Event::AbortApplied { obj, tx, discarded } => {
                o.num("obj", u64::from(*obj))
                    .num("tx", u64::from(*tx))
                    .num("discarded", *discarded);
            }
            Event::AccessBlocked { obj, tx, blockers } => {
                let bs: Vec<u64> = blockers.iter().map(|&b| u64::from(b)).collect();
                o.num("obj", u64::from(*obj))
                    .num("tx", u64::from(*tx))
                    .num_arr("blockers", &bs);
            }
            Event::AccessUnblocked { obj, tx } => {
                o.num("obj", u64::from(*obj)).num("tx", u64::from(*tx));
            }
            Event::UndoPush { obj, tx, log_len } => {
                o.num("obj", u64::from(*obj))
                    .num("tx", u64::from(*tx))
                    .num("log_len", *log_len);
            }
            Event::UndoRollback { obj, tx, erased } => {
                o.num("obj", u64::from(*obj))
                    .num("tx", u64::from(*tx))
                    .num("erased", *erased);
            }
            Event::VersionInstalled { obj, tx, versions } => {
                o.num("obj", u64::from(*obj))
                    .num("tx", u64::from(*tx))
                    .num("versions", *versions);
            }
            Event::VersionRead { obj, tx, writer } => {
                o.num("obj", u64::from(*obj)).num("tx", u64::from(*tx));
                match writer {
                    Some(w) => o.num("writer", u64::from(*w)),
                    None => o.raw("writer", "null".to_string()),
                };
            }
            Event::VersionsDiscarded {
                obj,
                tx,
                versions,
                reads,
            } => {
                o.num("obj", u64::from(*obj))
                    .num("tx", u64::from(*tx))
                    .num("versions", *versions)
                    .num("reads", *reads);
            }
            Event::DeadlockVictim {
                victim,
                waiter,
                blocker,
            } => {
                o.num("victim", u64::from(*victim))
                    .num("waiter", u64::from(*waiter))
                    .num("blocker", u64::from(*blocker));
            }
            Event::AbortInjected { tx } => {
                o.num("tx", u64::from(*tx));
            }
            Event::FaultInjected {
                kind,
                round,
                target,
            } => {
                // The stamp already owns the "round" key, so the plan's
                // clock point serializes as "plan_round".
                o.str("kind", kind)
                    .num("plan_round", *round)
                    .num("target", *target);
            }
            Event::ObjectCrashed { obj } => {
                o.num("obj", u64::from(*obj));
            }
            Event::ObjectRecovered { obj, replayed } => {
                o.num("obj", u64::from(*obj)).num("replayed", *replayed);
            }
            Event::RetryScheduled {
                orig,
                replica,
                attempt,
                wake_round,
            } => {
                o.num("orig", u64::from(*orig))
                    .num("replica", u64::from(*replica))
                    .num("attempt", *attempt)
                    .num("wake_round", *wake_round);
            }
            Event::RetryExhausted { orig, attempts } => {
                o.num("orig", u64::from(*orig)).num("attempts", *attempts);
            }
            Event::ConnAccepted { conn } => {
                o.num("conn", *conn);
            }
            Event::ConnClosed { conn, frames } => {
                o.num("conn", *conn).num("frames", *frames);
            }
            Event::FrameFault { conn, frame, fault } => {
                o.num("conn", *conn)
                    .num("frame", *frame)
                    .str("fault", fault);
            }
            Event::NetRetry {
                conn,
                req_seq,
                attempt,
            } => {
                o.num("conn", *conn)
                    .num("req_seq", *req_seq)
                    .num("attempt", *attempt);
            }
            Event::ServerDrained { conns } => {
                o.num("conns", *conns);
            }
            Event::WatchdogFired { stalled_rounds } => {
                o.num("stalled_rounds", *stalled_rounds);
            }
            Event::CheckPhaseStart { phase } | Event::CheckPhaseEnd { phase } => {
                o.str("phase", phase);
            }
            Event::SgEdgeInserted {
                parent,
                from,
                to,
                kind,
            } => {
                o.num("parent", u64::from(*parent))
                    .num("from", u64::from(*from))
                    .num("to", u64::from(*to))
                    .str("kind", kind);
            }
            Event::CheckVerdict { verdict } => {
                o.str("verdict", verdict);
            }
            Event::Violation { reason } => {
                o.str("reason", reason);
            }
            Event::Note { text } => {
                o.str("text", text);
            }
        }
    }
}

/// An event stamped with the deterministic logical clock.
#[derive(Clone, Debug, PartialEq)]
pub struct Stamped {
    /// Scheduler round at record time (0 outside a simulation).
    pub round: u64,
    /// Fired-action count at record time (0 outside a simulation).
    pub step: u64,
    /// Global monotonic sequence number (total order on the journal).
    pub seq: u64,
    /// The payload.
    pub event: Event,
}

impl Stamped {
    /// Render as one JSONL journal line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut o = JsonObj::new();
        o.num("round", self.round)
            .num("step", self.step)
            .num("seq", self.seq)
            .str("type", self.event.kind());
        self.event.write_fields(&mut o);
        o.build()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json::Json;

    /// One value of every variant.
    pub(crate) fn one_of_each() -> Vec<Event> {
        vec![
            Event::RunStart {
                protocol: "moss-rw",
                seed: 7,
            },
            Event::RunEnd {
                steps: 10,
                rounds: 3,
                quiescent: true,
            },
            Event::LockAcquired {
                obj: 0,
                tx: 4,
                class: LockClass::Write,
            },
            Event::LockInherited {
                obj: 0,
                tx: 4,
                to: 2,
            },
            Event::AbortApplied {
                obj: 1,
                tx: 3,
                discarded: 2,
            },
            Event::AccessBlocked {
                obj: 0,
                tx: 5,
                blockers: vec![4, 9],
            },
            Event::AccessUnblocked { obj: 0, tx: 5 },
            Event::UndoPush {
                obj: 2,
                tx: 8,
                log_len: 3,
            },
            Event::UndoRollback {
                obj: 2,
                tx: 1,
                erased: 2,
            },
            Event::VersionInstalled {
                obj: 0,
                tx: 6,
                versions: 2,
            },
            Event::VersionRead {
                obj: 0,
                tx: 7,
                writer: None,
            },
            Event::VersionsDiscarded {
                obj: 0,
                tx: 2,
                versions: 1,
                reads: 1,
            },
            Event::DeadlockVictim {
                victim: 3,
                waiter: 5,
                blocker: 4,
            },
            Event::AbortInjected { tx: 2 },
            Event::FaultInjected {
                kind: "crash_object",
                round: 4,
                target: 1,
            },
            Event::ObjectCrashed { obj: 1 },
            Event::ObjectRecovered {
                obj: 1,
                replayed: 12,
            },
            Event::RetryScheduled {
                orig: 5,
                replica: 31,
                attempt: 1,
                wake_round: 9,
            },
            Event::RetryExhausted {
                orig: 5,
                attempts: 2,
            },
            Event::WatchdogFired { stalled_rounds: 64 },
            Event::ConnAccepted { conn: 3 },
            Event::ConnClosed {
                conn: 3,
                frames: 17,
            },
            Event::FrameFault {
                conn: 3,
                frame: 6,
                fault: "drop",
            },
            Event::NetRetry {
                conn: 3,
                req_seq: 6,
                attempt: 1,
            },
            Event::ServerDrained { conns: 4 },
            Event::CheckPhaseStart { phase: "sg_build" },
            Event::CheckPhaseEnd { phase: "sg_build" },
            Event::SgEdgeInserted {
                parent: 0,
                from: 1,
                to: 2,
                kind: "conflict",
            },
            Event::CheckVerdict {
                verdict: "serially-correct",
            },
            Event::Violation {
                reason: "cycle found".to_string(),
            },
            Event::Note {
                text: "hello".to_string(),
            },
        ]
    }

    #[test]
    fn every_variant_serializes_and_parses() {
        for (i, event) in one_of_each().into_iter().enumerate() {
            let s = Stamped {
                round: 1,
                step: 2,
                seq: i as u64,
                event,
            };
            let line = s.to_json_line();
            let v = Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(
                v.get("type").unwrap().as_str(),
                Some(s.event.kind()),
                "{line}"
            );
            assert_eq!(v.get("seq").unwrap().as_num(), Some(i as f64));
        }
    }
}
