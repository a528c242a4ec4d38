//! Every cross-thread reader of a `SessionEngine` against the one engine
//! lock: sessions on their own threads run a contended mix — queued waits,
//! deadlock victims, client aborts — with a live certifier and a WAL-like
//! sink mounted, while one more thread reads everything a server or a test
//! reads from outside. Every reading must be a prefix of (or consistent
//! with) the final state, and the body must finish: a reader that
//! re-enters the engine lock deadlocks, and the join deadline turns that
//! into a failure instead of a hung run.
//!
//! Nothing is left to the scheduler: the sessions and the reader start
//! behind one barrier, the reader reads at least once after that, and two
//! sessions close one wait-for cycle by construction before the mix.

use nt_engine::{
    AccessOutcome, ActionSink, BeginOutcome, CommitOutcome, LiveCertifier, RecoveredSeed, Session,
    SessionEngine, Victim,
};
use nt_model::{Action, ObjId, Op, TxId};
use nt_obs::TraceHandle;
use nt_serial::{ObjectTypes, RwRegister};
use nt_sgt_live::{certify_recorded, SgtMaintainer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::Duration;

const SESSIONS: u32 = 4;
const TOPS: u32 = 120;
const OBJECTS: u32 = 3;

/// One record the sink was handed, in the order the WAL would stage it.
#[derive(Clone, Debug, PartialEq)]
enum Staged {
    TreeAdd(TxId),
    Act(u64, Action),
}

/// Captures every staged registration and action, as the WAL would.
#[derive(Default)]
struct Capture(Mutex<Vec<Staged>>);

impl ActionSink for Capture {
    fn append_action(&self, stamp: u64, action: &Action) {
        let mut seen = self.0.lock().expect("capture poisoned");
        seen.push(Staged::Act(stamp, action.clone()));
    }
    fn append_tree_add(&self, t: TxId, _parent: TxId, _access: Option<(ObjId, &Op)>) {
        let mut seen = self.0.lock().expect("capture poisoned");
        seen.push(Staged::TreeAdd(t));
    }
}

/// Sessions 0 and 1 close one wait-for cycle: each writes its own
/// object, they meet, then each requests the other's. Whichever request
/// comes second closes the cycle, so a victim is always chosen.
fn close_one_cycle(s: &mut Session, i: u32, meet: &Barrier) {
    let top = s.begin_top().expect("top");
    let BeginOutcome::Fresh(inner) = s.begin_child(top).expect("child") else {
        unreachable!("a fresh top is not doomed before it waits");
    };
    let mine = s.access(inner, ObjId(i), Op::Write(1)).expect("own");
    assert!(
        matches!(mine, AccessOutcome::Done(_)),
        "no one else holds it"
    );
    meet.wait();
    let theirs = s
        .access(inner, ObjId(1 - i), Op::Write(2))
        .expect("other's");
    if matches!(theirs, AccessOutcome::Done(_))
        && s.commit(inner).expect("inner") == CommitOutcome::Committed
    {
        s.commit(top).expect("top");
    } else {
        s.abort(top).expect("abort");
    }
}

/// The barriers the sessions pass: all of them and the reader at the
/// start, sessions 0 and 1 inside their cycle, all sessions before the
/// mix (no other session touches objects 0 and 1 while the cycle forms,
/// so neither write queues behind a session that waits on the other).
struct Barriers {
    start: Barrier,
    meet: Barrier,
    mix: Barrier,
}

/// One session's share of the mix: every top writes two objects in an
/// order that crosses the other sessions' (so requests queue and cycles
/// close), and every fifth top the client aborts after its work. Sessions
/// 0 and 1 first close one cycle by construction.
fn drive(e: &Arc<SessionEngine>, i: u32, b: &Barriers) -> u32 {
    let mut s = e.open_session();
    b.start.wait();
    if i < 2 {
        close_one_cycle(&mut s, i, &b.meet);
    }
    b.mix.wait();
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

/// Read until the sessions have finished, at least once after they
/// started.
fn read_everything(e: &SessionEngine, done: &AtomicBool, start: &Barrier) -> Readings {
    let mut r = Readings::default();
    let mut last_grants = 0;
    start.wait();
    loop {
        let finished = done.load(Ordering::Acquire);
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
        assert_eq!(e.live_ok(), Some(true), "the live certifier saw a cycle");
        if r.reads % 8 == 0 {
            r.snapshots.push(history);
            r.victims.push(victims);
        }
        r.reads += 1;
        if finished {
            return r;
        }
    }
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
                SgtMaintainer::default(),
                TraceHandle::disabled(),
            )),
        )
        .expect("an empty seed replays");
        let done = AtomicBool::new(false);
        let barriers = Barriers {
            start: Barrier::new(SESSIONS as usize + 1),
            meet: Barrier::new(2),
            mix: Barrier::new(SESSIONS as usize),
        };
        let (client_aborts, readings) = std::thread::scope(|scope| {
            let sessions: Vec<_> = (0..SESSIONS)
                .map(|i| {
                    let (e, b) = (&engine, &barriers);
                    scope.spawn(move || drive(e, i, b))
                })
                .collect();
            let (e, done, start) = (&engine, &done, &barriers.start);
            let reader = scope.spawn(move || read_everything(e, done, start));
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
    let staged = sink.0.lock().expect("capture poisoned").clone();
    let seen: Vec<(u64, Action)> = staged
        .iter()
        .filter_map(|r| match r {
            Staged::Act(stamp, a) => Some((*stamp, a.clone())),
            Staged::TreeAdd(_) => None,
        })
        .collect();
    assert!(seen.iter().map(|(s, _)| *s).eq(0..history.len() as u64));
    assert!(seen.iter().map(|(_, a)| a).eq(history.iter()));

    // Every registration was staged in `TxId` order, each immediately
    // followed by its REQUEST_CREATE: one critical section, however the
    // sessions raced.
    let mut registered = 0;
    for (k, r) in staged.iter().enumerate() {
        if let Staged::TreeAdd(t) = r {
            registered += 1;
            assert_eq!(*t, TxId(registered), "registrations in TxId order");
            assert!(
                matches!(staged.get(k + 1), Some(Staged::Act(_, Action::RequestCreate(u))) if u == t),
                "TreeAdd({t}) not followed by its REQUEST_CREATE: {:?}",
                staged.get(k + 1)
            );
        }
    }
    assert_eq!(registered as usize + 1, tree.len(), "every name was staged");

    let live = engine.live_status().expect("mounted");
    assert!(live.ok);
    assert_eq!(live.processed, history.len() as u64);
    let types = ObjectTypes::uniform(tree.num_objects(), Arc::new(RwRegister::new(0)));
    let cert = certify_recorded(&tree, &history, &types);
    assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
    eprintln!(
        "reads {}, victims {}, queued {}, client aborts {client_aborts}",
        readings.reads,
        victims.len(),
        engine.lock_blocks()
    );
}
