//! The recorder: one [`History`], the behavior β the paper's theorems are
//! stated on, stamped in one order.
//!
//! Every action the engine performs is recorded through one mutex — a
//! session's serial actions, and the lock shards' object actions
//! (`REQUEST_COMMIT` answers, `INFORM_*`). Under it four things happen in
//! order: the stamp is drawn, the write-ahead log's `Act` record is
//! staged, the live certifier is stepped, and `(stamp, action)` is
//! appended. Every consumer of β — the WAL file, the certifier,
//! [`History::snapshot`] — therefore sees one sequence by construction:
//! nothing is merged or sorted, a snapshot is always a prefix of the
//! history, and a torn WAL tail loses a suffix of stamps, never a hole in
//! the middle.
//!
//! The stamp order refines causality: if action `A` causally precedes
//! `B` — one session's program order, or two threads ordered through a
//! lock-shard mutex — then `A` entered the history mutex first. Object
//! actions are recorded *while the owning shard mutex is held*, so the
//! history linearizes each object exactly as the lock table serialized
//! the state changes they describe.
//!
//! One mutex costs no concurrency the engine has: on the server one poll
//! thread records everything, and with a WAL or a certifier mounted every
//! stamp was already drawn under one global mutex. The lock order it sits
//! in is DESIGN §8d's table: a shard mutex or a session's own call →
//! history → {certifier → telemetry, WAL append}.

use nt_model::{Action, ObjId, Op, TxId};
use nt_sgt_live::LiveCertifier;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The sequence counter stamps are drawn from. Draws happen under the
/// history mutex; the counter is atomic so the issued count can be read
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
    /// Stage `(stamp, action)`. Called under the history mutex, after the
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

/// The engine's one history: every stamp is drawn, teed and appended
/// under its mutex (see the module docs).
pub struct History {
    clock: Arc<SeqClock>,
    sink: Option<Arc<dyn ActionSink>>,
    certifier: Option<LiveCertifier>,
    log: Mutex<WorkerLog>,
}

impl History {
    /// An empty history on `clock` with neither a WAL nor a certifier.
    pub fn new(clock: Arc<SeqClock>) -> History {
        History {
            clock,
            sink: None,
            certifier: None,
            log: Mutex::new(WorkerLog::new()),
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
            log: Mutex::new(WorkerLog {
                segments: vec![head],
            }),
        }
    }

    /// Stamp `action`, stage it in the WAL, step the certifier with it,
    /// and append it — all under the history mutex.
    pub fn record(&self, action: Action) {
        let mut log = self.log.lock().expect("history poisoned");
        log.record_with(&self.clock, action, |stamp, action| {
            if let Some(sink) = &self.sink {
                sink.append_action(stamp, action);
            }
            if let Some(c) = &self.certifier {
                c.act(stamp, action);
            }
        });
    }

    /// The history so far, read under the mutex: a prefix of β.
    pub fn snapshot(&self) -> Vec<Action> {
        let log = self.log.lock().expect("history poisoned");
        let mut out = Vec::with_capacity(log.len());
        out.extend(log.segments.iter().flatten().map(|(_, a)| a.clone()));
        out
    }

    /// Stamps issued so far, read without the mutex.
    pub fn issued(&self) -> u64 {
        self.clock.issued()
    }

    /// The live certifier every action steps, if one is mounted.
    pub fn certifier(&self) -> Option<&LiveCertifier> {
        self.certifier.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let history = History::recovered(
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
        let history = History::recovered(
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
        assert_eq!(history.issued(), 3);
        let seen = sink.0.lock().expect("capture poisoned").clone();
        assert_eq!(seen, vec![(2, Action::Create(TxId(2)))]);
    }
}
