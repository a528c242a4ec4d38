//! The recorder: one [`History`], the behavior β the paper's theorems are
//! stated on, stamped in one order.
//!
//! The history is plain data that lives under the engine lock (the lock
//! table's mutex, see `locktable.rs`), with the lock table's object
//! state, the victims list and the counters. Every action the engine
//! performs is recorded there — a session's serial actions, and the lock
//! table's object actions (`REQUEST_COMMIT` answers, `INFORM_*`). One
//! [`History::record`] does four things in order: the stamp is drawn,
//! the write-ahead log's `Act` record is staged, the live certifier is
//! stepped, and `(stamp, action)` is appended. Every consumer of β — the
//! WAL file, the certifier, [`History::snapshot`] — therefore sees one
//! sequence by construction: nothing is merged or sorted, a snapshot is
//! always a prefix of the history, and a torn WAL tail loses a suffix of
//! stamps, never a hole in the middle.
//!
//! The stamp order refines causality: if action `A` causally precedes
//! `B` — one session's program order, or two threads ordered through the
//! engine lock — then `A` was recorded first. Object actions are recorded
//! in the critical section that makes the state change they describe, so
//! the history linearizes each object exactly as the lock table
//! serialized it.
//!
//! One lock costs no concurrency the engine has: on the server one poll
//! thread records everything. The lock order it sits in is DESIGN §8d's
//! table: engine lock → {certifier → telemetry, WAL append}.

use nt_model::{Action, ObjId, Op, TxId};
use nt_sgt_live::LiveCertifier;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The sequence counter stamps are drawn from. Draws happen under the
/// engine lock; the counter is atomic so the issued count can be read
/// without it.
#[derive(Debug, Default)]
pub struct SeqClock(AtomicU64);

impl SeqClock {
    /// A fresh clock at zero.
    pub fn new() -> Self {
        SeqClock(AtomicU64::new(0))
    }

    /// Draw the next stamp.
    pub(crate) fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Stamps issued so far.
    pub fn issued(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A durable sink the history tees into: the write-ahead log.
pub trait ActionSink: Send + Sync {
    /// Stage `(stamp, action)`. Called under the engine lock, after the
    /// stamp is drawn and before the action is visible in the history, so
    /// calls arrive in stamp order and the log is written ahead.
    fn append_action(&self, stamp: u64, action: &Action);

    /// Record a transaction registration (`t` under `parent`; accesses
    /// carry their object and operation). Called under the session tree's
    /// append mutex, so tree records land in `TxId` order and always
    /// precede any action naming `t`.
    fn append_tree_add(&self, t: TxId, parent: TxId, access: Option<(ObjId, &Op)>);
}

/// Entries per segment of a [`WorkerLog`].
const SEGMENT: usize = 1024;

/// A stamped action log: the body of a [`History`].
/// The entries sit in segments of [`SEGMENT`], not in one growing `Vec`:
/// whether the allocator doubles a multi-megabyte buffer in place or moves
/// it, touching as much again, depends on what was allocated around it, so
/// a server's peak footprint did not repeat from one run to the next.
#[derive(Debug, Default)]
pub struct WorkerLog {
    segments: Vec<Vec<(u64, Action)>>,
}

impl WorkerLog {
    /// An empty log.
    pub fn new() -> Self {
        WorkerLog::default()
    }

    /// Stamp `action` from `clock` and append it.
    pub fn record(&mut self, clock: &SeqClock, action: Action) {
        self.record_with(clock, action, |_, _| {});
    }

    /// Draw the stamp, hand `(stamp, action)` to `tee`, then append.
    fn record_with(&mut self, clock: &SeqClock, action: Action, tee: impl FnOnce(u64, &Action)) {
        let stamp = clock.next();
        tee(stamp, &action);
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

/// The engine's one history: every stamp is drawn, teed and appended by
/// [`History::record`], under the engine lock (see the module docs).
pub struct History {
    clock: Arc<SeqClock>,
    sink: Option<Arc<dyn ActionSink>>,
    certifier: Option<LiveCertifier>,
    log: WorkerLog,
}

impl History {
    /// An empty history on `clock` with neither a WAL nor a certifier.
    pub fn new(clock: Arc<SeqClock>) -> History {
        History {
            clock,
            sink: None,
            certifier: None,
            log: WorkerLog::new(),
        }
    }

    /// A history whose head is `head`, the recovered prefix (stamps below
    /// `next`, in order), that tees every new action into `sink` and
    /// `certifier`. The head is already in the WAL and is not appended
    /// again; the certifier is preloaded with it here, so it must already
    /// know the recovered tree.
    pub fn recovered(
        head: Vec<(u64, Action)>,
        next: u64,
        sink: Option<Arc<dyn ActionSink>>,
        certifier: Option<LiveCertifier>,
    ) -> History {
        if let Some(c) = &certifier {
            c.preload(&head, next);
        }
        History {
            clock: Arc::new(SeqClock(AtomicU64::new(next))),
            sink,
            certifier,
            log: WorkerLog {
                segments: vec![head],
            },
        }
    }

    /// Stamp `action`, stage it in the WAL, step the certifier with it,
    /// and append it.
    pub fn record(&mut self, action: Action) {
        let (sink, certifier) = (&self.sink, &self.certifier);
        self.log.record_with(&self.clock, action, |stamp, action| {
            if let Some(sink) = sink {
                sink.append_action(stamp, action);
            }
            if let Some(c) = certifier {
                c.act(stamp, action);
            }
        });
    }

    /// The history so far: a prefix of β.
    pub fn snapshot(&self) -> Vec<Action> {
        let mut out = Vec::with_capacity(self.log.len());
        out.extend(self.log.segments.iter().flatten().map(|(_, a)| a.clone()));
        out
    }

    /// The clock stamps are drawn from; its count is readable without the
    /// engine lock.
    pub fn clock(&self) -> &Arc<SeqClock> {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn a_log_longer_than_a_segment_keeps_every_entry_in_order() {
        let clock = SeqClock::new();
        let mut log = WorkerLog::new();
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
        let stamped: Vec<(u64, Action)> = log.segments.into_iter().flatten().collect();
        let expect: Vec<(u64, Action)> = (0..n)
            .map(|k| (u64::from(k), Action::Create(TxId(k))))
            .collect();
        assert_eq!(stamped, expect);
    }

    struct CaptureSink(Mutex<Vec<(u64, Action)>>);

    impl ActionSink for CaptureSink {
        fn append_action(&self, stamp: u64, action: &Action) {
            let mut seen = self.0.lock().expect("capture poisoned");
            seen.push((stamp, action.clone()));
        }
        fn append_tree_add(&self, _t: TxId, _parent: TxId, _access: Option<(ObjId, &Op)>) {}
    }

    #[test]
    fn sink_sees_every_record_with_matching_stamps() {
        let sink = Arc::new(CaptureSink(Mutex::new(Vec::new())));
        let mut history = History::recovered(
            Vec::new(),
            100,
            Some(Arc::clone(&sink) as Arc<dyn ActionSink>),
            None,
        );
        history.record(Action::Create(TxId(1)));
        history.record(Action::Commit(TxId(1)));
        let seen = sink.0.lock().expect("capture poisoned").clone();
        assert_eq!(
            seen,
            vec![
                (100, Action::Create(TxId(1))),
                (101, Action::Commit(TxId(1)))
            ]
        );
        assert_eq!(history.snapshot().len(), 2);
    }

    #[test]
    fn the_recovered_head_comes_before_new_actions_and_is_not_teed() {
        let sink = Arc::new(CaptureSink(Mutex::new(Vec::new())));
        let head = vec![(0, Action::Create(TxId(1))), (1, Action::Commit(TxId(1)))];
        let mut history = History::recovered(
            head,
            2,
            Some(Arc::clone(&sink) as Arc<dyn ActionSink>),
            None,
        );
        history.record(Action::Create(TxId(2)));
        assert_eq!(
            history.snapshot(),
            vec![
                Action::Create(TxId(1)),
                Action::Commit(TxId(1)),
                Action::Create(TxId(2)),
            ]
        );
        assert_eq!(history.clock().issued(), 3);
        let seen = sink.0.lock().expect("capture poisoned").clone();
        assert_eq!(seen, vec![(2, Action::Create(TxId(2)))]);
    }
}
