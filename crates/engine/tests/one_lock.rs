//! Every cross-thread reader of a `SessionEngine` against the one engine
//! lock: sessions on their own threads run a contended mix — queued waits,
//! deadlock victims, client aborts — with a live certifier and a WAL-like
//! sink mounted, while one more thread reads everything a server or a test
//! reads from outside. Every reading must be a prefix of (or consistent
//! with) the final state, and the body must finish: a reader that
//! re-enters the engine lock deadlocks, and the join deadline turns that
//! into a failure instead of a hung run.

use nt_engine::{
    AccessOutcome, ActionSink, BeginOutcome, CommitOutcome, LiveCertifier, RecoveredSeed,
    SessionEngine, Victim,
};
use nt_model::{Action, ObjId, Op, TxId};
use nt_obs::TraceHandle;
use nt_serial::{ObjectTypes, RwRegister};
use nt_sgt::{certify_recorded, ConflictSource};
use nt_sgt_live::SgtConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const SESSIONS: u32 = 4;
const TOPS: u32 = 120;
const OBJECTS: u32 = 3;

/// Captures every staged action, as the WAL would.
#[derive(Default)]
struct Capture(Mutex<Vec<(u64, Action)>>);

impl ActionSink for Capture {
    fn append_action(&self, stamp: u64, action: &Action) {
        let mut seen = self.0.lock().expect("capture poisoned");
        seen.push((stamp, action.clone()));
    }
    fn append_tree_add(&self, _t: TxId, _parent: TxId, _access: Option<(ObjId, &Op)>) {}
}

/// One session's share of the mix: every top writes two objects in an
/// order that crosses the other sessions' (so requests queue and cycles
/// close), and every fifth top the client aborts after its work.
fn drive(e: &Arc<SessionEngine>, i: u32) -> u32 {
    let mut s = e.open_session();
    let mut client_aborts = 0;
    for k in 0..TOPS {
        let top = s.begin_top().expect("top");
        let BeginOutcome::Fresh(inner) = s.begin_child(top).expect("child") else {
            unreachable!("a fresh top is not doomed before it waits");
        };
        let (x, y) = (ObjId((i + k) % OBJECTS), ObjId((i + 2 * k + 1) % OBJECTS));
        let first = s.access(inner, x, Op::Write(i64::from(k))).expect("first");
        let second = match first {
            AccessOutcome::Done(_) => s.access(inner, y, Op::Read).expect("second"),
            aborted => aborted,
        };
        let done = matches!(second, AccessOutcome::Done(_))
            && s.commit(inner).expect("inner") == CommitOutcome::Committed;
        if done && k % 5 != i % 5 {
            s.commit(top).expect("top");
        } else {
            client_aborts += u32::from(done);
            s.abort(top).expect("abort");
        }
    }
    client_aborts
}

/// What the reader thread saw, reading until the sessions finished.
#[derive(Default)]
struct Readings {
    snapshots: Vec<Vec<Action>>,
    victims: Vec<Vec<Victim>>,
    reads: u64,
}

fn read_everything(e: &SessionEngine, done: &AtomicBool) -> Readings {
    let mut r = Readings::default();
    let mut last_grants = 0;
    while !done.load(Ordering::Acquire) {
        let (_, history) = e.history_snapshot();
        let victims = e.victims();
        let half = victims.len() / 2;
        let tail = e.victims_from(half);
        assert!(tail.starts_with(&victims[half..]), "victims only grow");
        let wait_for = e.wait_for_json();
        assert!(wait_for.starts_with("{\"edges\":"), "{wait_for}");
        let (grants, blocks, passes) = (e.lock_grants(), e.lock_blocks(), e.detector_passes());
        assert!(
            passes >= blocks,
            "a pass per queued request: {passes} < {blocks}"
        );
        assert!(grants >= last_grants, "grants only grow");
        last_grants = grants;
        let status = e.certifier().expect("mounted").status();
        assert!(status.ok, "the live certifier saw a cycle");
        if r.reads % 8 == 0 {
            r.snapshots.push(history);
            r.victims.push(victims);
        }
        r.reads += 1;
    }
    r
}

#[test]
fn every_cross_thread_reader_sees_a_prefix_of_one_history() {
    let (tx, rx) = mpsc::channel();
    let body = std::thread::spawn(move || {
        let sink = Arc::new(Capture::default());
        let engine = SessionEngine::start_recovered(
            1 << 14,
            TraceHandle::disabled(),
            RecoveredSeed::default(),
            Some(Arc::clone(&sink) as Arc<dyn ActionSink>),
            Some(LiveCertifier::new(
                SgtConfig::default(),
                TraceHandle::disabled(),
            )),
        )
        .expect("an empty seed replays");
        let done = AtomicBool::new(false);
        let (client_aborts, readings) = std::thread::scope(|scope| {
            let sessions: Vec<_> = (0..SESSIONS)
                .map(|i| {
                    let e = &engine;
                    scope.spawn(move || drive(e, i))
                })
                .collect();
            let (e, done) = (&engine, &done);
            let reader = scope.spawn(move || read_everything(e, done));
            let aborts: u32 = sessions
                .into_iter()
                .map(|h| h.join().expect("session"))
                .sum();
            done.store(true, Ordering::Release);
            (aborts, reader.join().expect("reader"))
        });
        tx.send(()).expect("report the finish");
        (engine, sink, client_aborts, readings)
    });
    if rx.recv_timeout(Duration::from_secs(60)).is_err() {
        panic!("the run did not finish in 60 s: a reader re-entered the engine lock");
    }
    let (engine, sink, client_aborts, readings) = body.join().expect("body");

    let (tree, history) = engine.history_snapshot();
    assert!(readings.reads > 0, "the reader never read");
    for (k, snap) in readings.snapshots.iter().enumerate() {
        assert!(history.starts_with(snap), "snapshot {k} is not a prefix");
    }
    let victims = engine.victims();
    for seen in &readings.victims {
        assert!(
            victims.starts_with(seen),
            "a victims reading is not a prefix"
        );
    }
    assert!(client_aborts > 0, "the mix had no client abort");
    assert!(!victims.is_empty(), "the mix never closed a wait-for cycle");
    assert!(engine.lock_blocks() > 0, "the mix never queued a request");

    // One counter, one history: every grant stamped one access's answer.
    let answers = history
        .iter()
        .filter(|a| matches!(a, Action::RequestCommit(t, _) if tree.is_access(*t)))
        .count() as u64;
    assert_eq!(engine.lock_grants(), answers);

    // The sink saw the history stamp for stamp, from stamp 0.
    let seen = sink.0.lock().expect("capture poisoned").clone();
    assert!(seen.iter().map(|(s, _)| *s).eq(0..history.len() as u64));
    assert!(seen.iter().map(|(_, a)| a).eq(history.iter()));

    let live = engine.certifier().expect("mounted").status();
    assert!(live.ok);
    assert_eq!(live.processed, history.len() as u64);
    let types = ObjectTypes::uniform(tree.num_objects(), Arc::new(RwRegister::new(0)));
    let cert = certify_recorded(&tree, &history, &types, ConflictSource::ReadWrite);
    assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
    eprintln!(
        "reads {}, victims {}, queued {}, client aborts {client_aborts}",
        readings.reads,
        victims.len(),
        engine.lock_blocks()
    );
}
