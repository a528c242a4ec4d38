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
//! stepped, and the action is appended. Every consumer of β — the WAL
//! file, the certifier, [`History::snapshot`] — therefore sees one
//! sequence by construction: nothing is merged or sorted, a snapshot is
//! always a prefix of the history, and a torn WAL tail loses a suffix of
//! stamps, never a hole in the middle.
//!
//! A registration goes the same way. The critical section that records a
//! transaction's `REQUEST_CREATE` first pushes it onto the session tree
//! and hands its shape to [`History::register`], which stages the WAL's
//! `TreeAdd` record: the WAL and the live certifier, which reads that
//! tree, both learn a transaction strictly before any action naming it,
//! and the WAL's tree records land in `TxId` order. When an action
//! latches a violation, `record` cuts the report's slice from the log.
//!
//! A stamp is a position. Stamps are drawn once per appended entry, from
//! one counter, under the one lock, so they are dense and in append
//! order: the log keeps bare [`Action`]s, 24 B an entry, and an entry's
//! stamp is its index plus the stamp the log began at. That is 0 for
//! every history the engine builds: recovery's seed has
//! `next == head.len()`, because `nt_store::recover` refuses a history
//! with a hole. The stamp exists only on its way out, in the WAL record
//! and the certifier's input.
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
//! table: the engine lock, over the WAL append and telemetry (the
//! certifier has no lock: it is part of the history).

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
    /// carry their object and operation). Called under the engine lock,
    /// in the critical section that records `REQUEST_CREATE(t)` and just
    /// before it, so tree records land in `TxId` order and always precede
    /// any action naming `t`.
    fn append_tree_add(&self, t: TxId, parent: TxId, access: Option<(ObjId, &Op)>);
}

/// Entries per segment of a [`WorkerLog`].
const SEGMENT: usize = 1024;

/// An action log: the body of a [`History`]. An entry is a bare
/// [`Action`] (24 B): the clock draws stamps densely in record order, so
/// an entry's stamp is its position and is not stored (see the module
/// docs). The entries sit in segments of [`SEGMENT`], not in one growing
/// `Vec`:
/// whether the allocator doubles a multi-megabyte buffer in place or moves
/// it, touching as much again, depends on what was allocated around it, so
/// a server's peak footprint did not repeat from one run to the next.
///
/// A segment is allocated at its full size by the thread that records into
/// it, and never grown. Grown by push from one entry, it would start as a
/// 32-byte chunk, which glibc may serve from the recording thread's cache
/// of freed chunks — chunks of another thread's heap included — and every
/// doubling would stay in that heap: where the history lived, and whether
/// it showed in the server's footprint at all, would change from run to
/// run.
#[derive(Debug, Default)]
pub struct WorkerLog {
    segments: Vec<Vec<Action>>,
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
            Some(last) if last.len() < last.capacity() => last.push(action),
            _ => {
                let mut segment = Vec::with_capacity(SEGMENT);
                segment.push(action);
                self.segments.push(segment);
            }
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

    /// A history whose head is `head`, the recovered prefix (stamps
    /// `0..head.len()`, in order), whose clock resumes at `next`, and that
    /// tees every new registration into `sink` and every new action into
    /// `sink` and `certifier`. The head is already in the WAL and is not
    /// appended again; the certifier is preloaded with it here, so it must
    /// already read the recovered tree. With a certifier, `next` is
    /// `head.len()`: a violation's slice is cut from the log by position.
    pub fn recovered(
        head: Vec<Action>,
        next: u64,
        sink: Option<Arc<dyn ActionSink>>,
        mut certifier: Option<LiveCertifier>,
    ) -> History {
        debug_assert!(next >= head.len() as u64, "the clock resumes past the head");
        if let Some(c) = &mut certifier {
            c.preload(&head, next);
        }
        History {
            clock: Arc::new(SeqClock(AtomicU64::new(next))),
            sink,
            certifier,
            log: WorkerLog {
                segments: if head.is_empty() {
                    Vec::new()
                } else {
                    vec![head]
                },
            },
        }
    }

    /// Tee the registration of `t` under `parent` (accesses carry their
    /// object and operation) into the WAL, before any action naming `t`
    /// is recorded.
    pub fn register(&mut self, t: TxId, parent: TxId, access: Option<&(ObjId, Op)>) {
        if let Some(sink) = &self.sink {
            sink.append_tree_add(t, parent, access.map(|(x, op)| (*x, op)));
        }
    }

    /// Stamp `action`, stage it in the WAL, step the certifier with it,
    /// and append it — then, if it latched a violation, cut the report's
    /// slice from the log.
    pub fn record(&mut self, action: Action) {
        let (sink, certifier) = (&self.sink, &mut self.certifier);
        self.log.record_with(&self.clock, action, |stamp, action| {
            if let Some(sink) = sink {
                sink.append_action(stamp, action);
            }
            if let Some(c) = certifier {
                c.act(stamp, action);
            }
        });
        if let Some(c) = &mut self.certifier {
            c.cut_slice(self.log.segments.iter().flatten());
        }
    }

    /// The history so far: a prefix of β.
    pub fn snapshot(&self) -> Vec<Action> {
        let mut out = Vec::with_capacity(self.log.len());
        out.extend(self.log.segments.iter().flatten().cloned());
        out
    }

    /// The live certifier this history steps, if one is mounted.
    pub fn certifier(&mut self) -> Option<&mut LiveCertifier> {
        self.certifier.as_mut()
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
    use crate::SessionTree;
    use nt_model::Value;
    use nt_obs::TraceHandle;
    use nt_sgt_live::{SgtConfig, SgtMaintainer};
    use std::sync::Mutex;

    struct CaptureSink(Mutex<Vec<(u64, Action)>>);

    impl ActionSink for CaptureSink {
        fn append_action(&self, stamp: u64, action: &Action) {
            let mut seen = self.0.lock().expect("capture poisoned");
            seen.push((stamp, action.clone()));
        }
        fn append_tree_add(&self, _t: TxId, _parent: TxId, _access: Option<(ObjId, &Op)>) {}
    }

    fn capture() -> Arc<CaptureSink> {
        Arc::new(CaptureSink(Mutex::new(Vec::new())))
    }

    #[test]
    fn a_log_longer_than_a_segment_keeps_every_entry_in_order() {
        let base = 100;
        let sink = capture();
        let mut history = History::recovered(
            Vec::new(),
            base,
            Some(Arc::clone(&sink) as Arc<dyn ActionSink>),
            None,
        );
        assert!(history.log.is_empty());
        let n = 2 * SEGMENT as u32 + 7;
        let actions: Vec<Action> = (0..n).map(|k| Action::Create(TxId(k))).collect();
        for a in &actions {
            history.record(a.clone());
        }
        assert_eq!(history.log.len(), n as usize);
        assert_eq!(history.log.segments.len(), 3);
        // Every segment was allocated at its full size and never grown, so
        // nothing was ever copied.
        assert!(history.log.segments.iter().all(|s| s.capacity() == SEGMENT));
        // The stamps went out densely, in record order; the log kept only
        // the actions, in the same order.
        let seen = sink.0.lock().expect("capture poisoned").clone();
        let stamped: Vec<(u64, Action)> = (base..).zip(actions.iter().cloned()).collect();
        assert_eq!(seen, stamped);
        assert_eq!(history.snapshot(), actions);
        assert_eq!(history.clock().issued(), base + u64::from(n));
    }

    #[test]
    fn sink_sees_every_record_with_matching_stamps() {
        let sink = capture();
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
        let sink = capture();
        let head = vec![Action::Create(TxId(1)), Action::Commit(TxId(1))];
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

    /// The certifier is preloaded with the head at stamps `0..head.len()`
    /// and the clock resumes at `next`: the first live action is stamped
    /// `next` and is the certifier's next input.
    #[test]
    fn a_recovered_history_preloads_its_certifier_and_resumes_the_clock() {
        let x = ObjId(0);
        let (tree, mut appends) = SessionTree::new(8);
        let top = tree.add(&mut appends, TxId::ROOT, None).expect("top");
        let access = tree
            .add(&mut appends, top, Some((x, Op::Write(3))))
            .expect("access");
        let mut certifier = LiveCertifier::new(SgtConfig::default(), TraceHandle::disabled());
        certifier.read_tree(Arc::new(tree));
        let head = vec![
            Action::RequestCreate(top),
            Action::Create(top),
            Action::RequestCreate(access),
            Action::Create(access),
            Action::RequestCommit(access, nt_model::Value::Ok),
            Action::Commit(access),
        ];
        let next = head.len() as u64;
        let mut history = History::recovered(head.clone(), next, None, Some(certifier));
        let live = |h: &mut History| h.certifier().expect("mounted").status();
        assert_eq!(history.clock().issued(), next);
        assert_eq!(live(&mut history).processed, head.len() as u64);
        assert!(live(&mut history).ok);
        history.record(Action::InformCommit(x, access));
        assert_eq!(history.clock().issued(), next + 1);
        assert_eq!(live(&mut history).processed, next + 1);
        assert!(live(&mut history).ok);
        assert_eq!(history.snapshot().len(), head.len() + 1);
    }

    /// The crossed two-top history, recorded through `History::record`:
    /// the certifier latches at `b`'s commit, the history cuts the
    /// report's slice from its log, and the report is the one a replay of
    /// the same β over the same tree builds, byte for byte.
    #[test]
    fn a_recorded_violation_reports_what_a_replay_reports() {
        let (x, y) = (ObjId(0), ObjId(1));
        let (tree, mut appends) = SessionTree::new(8);
        let mut add = |parent, access| tree.add(&mut appends, parent, access).expect("room");
        let a = add(TxId::ROOT, None);
        let b = add(TxId::ROOT, None);
        let ax = add(a, Some((x, Op::Write(1))));
        let ay = add(a, Some((y, Op::Read)));
        let bx = add(b, Some((x, Op::Read)));
        let by = add(b, Some((y, Op::Write(2))));
        let beta = [
            Action::RequestCreate(a),
            Action::RequestCreate(b),
            Action::RequestCommit(ax, Value::Ok),
            Action::Commit(ax),
            Action::RequestCommit(by, Value::Ok),
            Action::Commit(by),
            Action::RequestCommit(bx, Value::Int(1)),
            Action::Commit(bx),
            Action::RequestCommit(ay, Value::Int(2)),
            Action::Commit(ay),
            Action::RequestCommit(a, Value::Ok),
            Action::Commit(a),
            Action::RequestCommit(b, Value::Ok),
            Action::Commit(b),
        ];
        let frozen = tree.to_tx_tree();
        let mut certifier = LiveCertifier::new(SgtConfig::default(), TraceHandle::disabled());
        certifier.read_tree(Arc::new(tree));
        let mut history = History::recovered(Vec::new(), 0, None, Some(certifier));
        for act in &beta {
            history.record(act.clone());
        }
        let status = history.certifier().expect("mounted").status();
        let live = status.violation.expect("the crossed tops cycle");
        let replayed = SgtMaintainer::replay(&frozen, &beta, SgtConfig::default())
            .violation()
            .expect("the replay latches too");
        assert!(!live.slice.is_empty());
        assert_eq!(live.to_json(), replayed.to_json());
    }
}
