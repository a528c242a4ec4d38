//! Concurrent history recorder: per-worker append-only buffers stamped from
//! one global sequence counter, merged into a single behavior after the
//! run.
//!
//! Correctness of the merged history rests on one property: if action `A`
//! causally precedes action `B` — same worker in program order, or across
//! workers through a lock-shard mutex — then `stamp(A) < stamp(B)`. Both
//! cases follow from coherence of the single atomic counter: the later
//! `fetch_add` necessarily observes a larger value, regardless of memory
//! ordering, so `Relaxed` suffices. Object-level actions (`REQUEST_COMMIT`
//! answers, `INFORM_*`) are stamped *while the owning shard mutex is held*,
//! which linearizes them per object exactly as the lock table serialized
//! the state changes they describe.
//!
//! ## Durable sinks
//!
//! A log may carry an [`ActionSink`] — the write-ahead log mount point
//! (`nt-store`). When present, [`WorkerLog::record`] delegates stamp
//! drawing to the sink, which draws the stamp *inside its own append
//! mutex* so the persisted log's file order equals stamp order. That
//! invariant is what makes a torn tail recoverable: losing a suffix of
//! WAL frames loses a *suffix* of stamps, never punches a hole in the
//! middle of the recorded history.
//!
//! ## Live certification
//!
//! A log may additionally carry a [`LiveCertifier`] handle
//! (`nt-sgt-live`). [`WorkerLog::record`] then draws the stamp *inside the
//! certifier's lock* and steps the serialization-graph maintainer with the
//! action before it returns: the recording thread is the certifier.
//! Nothing is buffered and nothing is handed to another thread, so the
//! maintainer has stepped every stamp the clock has issued whenever no
//! thread is inside `record`, and it sees the stamps in order. **Every**
//! log sharing a clock must carry the handle: a stamp drawn by a log
//! without it never reaches the maintainer, which advances only through a
//! contiguous stamp sequence.
//!
//! Lock order: the caller's own lock (a shard mutex, a session log's
//! mutex) → certifier → write-ahead log append. The certifier and the
//! sink call nothing back.

use nt_model::{Action, ObjId, Op, TxId};
use nt_sgt_live::LiveCertifier;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The global sequence counter every stamp is drawn from.
#[derive(Debug, Default)]
pub struct SeqClock(AtomicU64);

impl SeqClock {
    /// A fresh clock at zero.
    pub fn new() -> Self {
        SeqClock(AtomicU64::new(0))
    }

    /// A clock that resumes at `next` — the crash–restart path: the
    /// recovered history owns every stamp below `next`, so the restarted
    /// engine's new actions merge strictly after it.
    pub fn starting_at(next: u64) -> Self {
        SeqClock(AtomicU64::new(next))
    }

    /// Draw the next stamp.
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Stamps issued so far.
    pub fn issued(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A durable sink the recorder tees into: the write-ahead log.
///
/// Implementations must draw the stamp from `clock` **while holding their
/// append lock**, so that persisted order equals stamp order (see the
/// module docs). The sink is invoked before the action is visible in any
/// in-memory log, i.e. the engine writes ahead.
pub trait ActionSink: Send + Sync {
    /// Draw a stamp and append `(stamp, action)` to the log; returns the
    /// stamp drawn.
    fn append_action(&self, clock: &SeqClock, action: &Action) -> u64;

    /// Record a transaction registration (`t` under `parent`; accesses
    /// carry their object and operation). Called under the session tree's
    /// append mutex, so tree records land in `TxId` order and always
    /// precede any action naming `t`.
    fn append_tree_add(&self, t: TxId, parent: TxId, access: Option<(ObjId, &Op)>);
}

/// Entries per segment of a [`WorkerLog`].
const SEGMENT: usize = 1024;

/// One worker's (or the main thread's, or a shard-stamped) action buffer.
/// Clones copy the recorded entries — `HISTORY_FETCH` snapshots a live
/// server's logs that way.
/// The entries sit in segments of [`SEGMENT`], not in one growing `Vec`:
/// whether the allocator doubles a multi-megabyte buffer in place or moves
/// it, touching as much again, depends on what was allocated around it, so
/// a server's peak footprint did not repeat from one run to the next.
#[derive(Clone, Default)]
pub struct WorkerLog {
    segments: Vec<Vec<(u64, Action)>>,
    sink: Option<Arc<dyn ActionSink>>,
    certifier: Option<LiveCertifier>,
}

impl fmt::Debug for WorkerLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerLog")
            .field("entries", &self.segments)
            .field("sink", &self.sink.is_some())
            .field("certifier", &self.certifier.is_some())
            .finish()
    }
}

impl WorkerLog {
    /// An empty log.
    pub fn new() -> Self {
        WorkerLog::default()
    }

    /// An empty log that tees every record into a durable sink.
    pub fn with_sink(sink: Arc<dyn ActionSink>) -> Self {
        WorkerLog {
            sink: Some(sink),
            ..WorkerLog::default()
        }
    }

    /// Step the live certifier with every record (builder-style; composes
    /// with a sink — the WAL stamps and appends under the certifier's
    /// lock).
    pub fn with_certifier(mut self, certifier: LiveCertifier) -> Self {
        self.certifier = Some(certifier);
        self
    }

    /// A frozen log seeded with already-recovered entries (no sink — the
    /// entries are already durable; re-appending them would duplicate the
    /// WAL).
    pub fn from_entries(entries: Vec<(u64, Action)>) -> Self {
        WorkerLog {
            segments: vec![entries],
            ..WorkerLog::default()
        }
    }

    /// Stamp and append one action: write-ahead when a sink is mounted,
    /// and certified before this returns when a certifier is attached.
    pub fn record(&mut self, clock: &SeqClock, action: Action) {
        let draw = || match &self.sink {
            Some(sink) => sink.append_action(clock, &action),
            None => clock.next(),
        };
        let stamp = match &self.certifier {
            Some(certifier) => certifier.record(draw, &action),
            None => draw(),
        };
        match self.segments.last_mut() {
            Some(last) if last.len() < SEGMENT => last.push((stamp, action)),
            _ => self.segments.push(vec![(stamp, action)]),
        }
    }

    /// Actions recorded.
    pub fn len(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(Vec::is_empty)
    }
}

/// Merge per-worker logs into one behavior, ordered by stamp. Stamps are
/// unique (one `fetch_add` each), so the order is total.
pub fn merge(logs: impl IntoIterator<Item = WorkerLog>) -> Vec<Action> {
    let segments = logs.into_iter().flat_map(|l| l.segments);
    let mut all: Vec<(u64, Action)> = segments.flatten().collect();
    all.sort_by_key(|&(s, _)| s);
    all.into_iter().map(|(_, a)| a).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_model::TxId;
    use std::sync::Mutex;

    #[test]
    fn merge_orders_by_stamp_across_logs() {
        let clock = SeqClock::new();
        let mut a = WorkerLog::new();
        let mut b = WorkerLog::new();
        a.record(&clock, Action::Create(TxId(1)));
        b.record(&clock, Action::Create(TxId(2)));
        a.record(&clock, Action::Create(TxId(3)));
        b.record(&clock, Action::Create(TxId(4)));
        let merged = merge([a, b]);
        assert_eq!(
            merged,
            vec![
                Action::Create(TxId(1)),
                Action::Create(TxId(2)),
                Action::Create(TxId(3)),
                Action::Create(TxId(4)),
            ]
        );
        assert_eq!(clock.issued(), 4);
    }

    #[test]
    fn a_log_longer_than_a_segment_keeps_every_entry_in_order() {
        let clock = SeqClock::new();
        let mut log = WorkerLog::from_entries(Vec::new());
        assert!(log.is_empty());
        let n = 2 * SEGMENT as u32 + 7;
        for k in 0..n {
            log.record(&clock, Action::Create(TxId(k)));
        }
        assert_eq!(log.len(), n as usize);
        assert_eq!(log.segments.len(), 3);
        // Full segments are exactly full: nothing was grown past the
        // segment size, so nothing that large was ever copied.
        assert!(log.segments.iter().all(|s| s.capacity() <= SEGMENT));
        let merged = merge([log.clone()]);
        let expect: Vec<Action> = (0..n).map(|k| Action::Create(TxId(k))).collect();
        assert_eq!(merged, expect);
    }

    struct CaptureSink(Mutex<Vec<(u64, Action)>>);

    impl ActionSink for CaptureSink {
        fn append_action(&self, clock: &SeqClock, action: &Action) -> u64 {
            let mut guard = self.0.lock().expect("capture poisoned");
            let stamp = clock.next();
            guard.push((stamp, action.clone()));
            stamp
        }
        fn append_tree_add(&self, _t: TxId, _parent: TxId, _access: Option<(ObjId, &Op)>) {}
    }

    #[test]
    fn sink_sees_every_record_with_matching_stamps() {
        let clock = SeqClock::starting_at(100);
        let sink = Arc::new(CaptureSink(Mutex::new(Vec::new())));
        let mut log = WorkerLog::with_sink(Arc::clone(&sink) as Arc<dyn ActionSink>);
        log.record(&clock, Action::Create(TxId(1)));
        log.record(&clock, Action::Commit(TxId(1)));
        let seen = sink.0.lock().expect("capture poisoned").clone();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (100, Action::Create(TxId(1))));
        assert_eq!(seen[1], (101, Action::Commit(TxId(1))));
        let merged = merge([log]);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn from_entries_merges_before_live_records() {
        let clock = SeqClock::starting_at(2);
        let seeded = WorkerLog::from_entries(vec![
            (0, Action::Create(TxId(1))),
            (1, Action::Commit(TxId(1))),
        ]);
        let mut live = WorkerLog::new();
        live.record(&clock, Action::Create(TxId(2)));
        let merged = merge([live, seeded]);
        assert_eq!(
            merged,
            vec![
                Action::Create(TxId(1)),
                Action::Commit(TxId(1)),
                Action::Create(TxId(2)),
            ]
        );
    }
}
