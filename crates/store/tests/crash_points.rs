//! Crash at every record boundary. Two sessions, interleaved on one thread
//! by a seeded schedule, run nested tops through an engine whose sink is a
//! store's WAL: they commit, abort at the client's request, fall to
//! deadlock victims, and leave a top open at the end. Every prefix of that
//! WAL that ends on a record boundary is mounted as its own data dir. Each
//! must mount and certify, and what recovery decides must equal what the
//! prefix's β says by definition, computed here without a lock table:
//!
//! * `committed` / `aborted`: the `COMMIT`s and `ABORT`s of β, the losers
//!   counted as aborted;
//! * the losers: the topmost running transactions, those whose every
//!   proper ancestor but `T0` committed;
//! * each loser's rollback: the `REQUEST_CREATE` and `CREATE` the cut
//!   lost, `ABORT`, one `INFORM_ABORT` per object a lock of its subtree
//!   still holds (granted, and no `INFORM_ABORT` of an ancestor-or-self at
//!   that object since), `REPORT_ABORT`; after the rollbacks only
//!   `INFORM_COMMIT`s of committed transactions may follow;
//! * `initials` (Lemma 5): per object, the last write in stamp order by an
//!   access visible to `T0`.

use nt_engine::{
    AccessOutcome, AccessStep, BeginOutcome, CommitOutcome, DurabilityMode, ParkedAccess, Session,
    SessionEngine, WakeHandle,
};
use nt_model::{Action, ObjId, Op, TxId};
use nt_obs::TraceHandle;
use nt_store::{decode_stream, Record, Store, WAL_FILE};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

/// A per-test scratch dir (fresh on entry, removed on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("nt-points-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// xorshift64: the schedule is a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// One client: its open frames (top first) and a queued access, if any.
struct Client {
    s: Session,
    frames: Vec<TxId>,
    parked: Option<ParkedAccess>,
}

impl Client {
    /// `v`'s subtree is gone: drop its frame and everything below it.
    fn unwind(&mut self, v: TxId) {
        if let Some(at) = self.frames.iter().position(|&f| f == v) {
            self.frames.truncate(at);
        }
    }

    fn answered(&mut self, step: AccessStep) {
        match step {
            AccessStep::Parked(p) => self.parked = Some(p),
            AccessStep::Done(AccessOutcome::Aborted(v)) => self.unwind(v),
            AccessStep::Done(AccessOutcome::Done(_)) => {}
        }
    }

    fn step(&mut self, rng: &mut Rng, wake: &WakeHandle) {
        if let Some(p) = self.parked.take() {
            let step = self.s.access_resume(p);
            return self.answered(step);
        }
        let Some(&cur) = self.frames.last() else {
            self.frames.push(self.s.begin_top().expect("top"));
            return;
        };
        match rng.below(10) {
            0..=4 => {
                let x = ObjId(rng.below(3) as u32);
                let op = if rng.below(2) == 0 {
                    Op::Read
                } else {
                    Op::Write(rng.below(100) as i64)
                };
                let step = self.s.access_start(cur, x, op, wake).expect("access");
                self.answered(step);
            }
            5 if self.frames.len() < 3 => match self.s.begin_child(cur).expect("child") {
                BeginOutcome::Fresh(c) => self.frames.push(c),
                BeginOutcome::Aborted(v) => self.unwind(v),
            },
            5..=7 => match self.s.commit(cur).expect("commit") {
                CommitOutcome::Committed => {
                    self.frames.pop();
                }
                CommitOutcome::Aborted(v) => self.unwind(v),
            },
            _ => {
                self.s.abort(cur).expect("abort");
                self.unwind(cur);
            }
        }
    }
}

/// Run the schedule; return the WAL's records, header first, and the
/// number of deadlock victims.
fn seeded_wal(dir: &std::path::Path, seed: u64, steps: usize) -> (Vec<Record>, usize) {
    let (store, rec) = Store::open(dir, DurabilityMode::None).expect("open");
    let engine = SessionEngine::start_recovered(
        4096,
        TraceHandle::disabled(),
        rec.seed,
        Some(Arc::clone(store.wal()) as Arc<dyn nt_engine::ActionSink>),
        None,
    )
    .expect("fresh engine");
    let wake = WakeHandle::new(1, || {});
    let mut rng = Rng(seed);
    let mut clients: Vec<Client> = (0..2)
        .map(|_| Client {
            s: engine.open_session(),
            frames: Vec::new(),
            parked: None,
        })
        .collect();
    for _ in 0..steps {
        let c = rng.below(2) as usize;
        clients[c].step(&mut rng, &wake);
    }
    let victims = engine.victims().len();
    store.close();
    let bytes = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
    let decoded = decode_stream(&bytes);
    assert!(decoded.torn.is_none(), "{:?}", decoded.torn);
    (decoded.records, victims)
}

/// What recovery must decide for a prefix, computed from its β alone.
#[derive(Debug, PartialEq)]
struct Expected {
    committed: Vec<TxId>,
    aborted: Vec<TxId>,
    losers: Vec<u32>,
    initials: Vec<(ObjId, i64)>,
    rollback: Vec<Action>,
}

fn expected(records: &[Record]) -> (Vec<Action>, Expected) {
    let mut parent: BTreeMap<TxId, TxId> = BTreeMap::new();
    let mut access: BTreeMap<TxId, (ObjId, Op)> = BTreeMap::new();
    let mut beta = Vec::new();
    for rec in records {
        match rec {
            Record::TreeAdd {
                t,
                parent: p,
                access: a,
            } => {
                parent.insert(*t, *p);
                if let Some(a) = a {
                    access.insert(*t, a.clone());
                }
            }
            Record::Act { action, .. } => beta.push(action.clone()),
            Record::Header { .. } | Record::Cache { .. } => {}
        }
    }
    let (mut committed, mut aborted, mut requested, mut created) = (
        BTreeSet::new(),
        BTreeSet::new(),
        BTreeSet::new(),
        BTreeSet::new(),
    );
    for action in &beta {
        match *action {
            Action::Commit(t) => committed.insert(t),
            Action::Abort(t) => aborted.insert(t),
            Action::RequestCreate(t) => requested.insert(t),
            Action::Create(t) => created.insert(t),
            _ => false,
        };
    }
    let ancestors = |t: TxId| std::iter::successors(Some(t), |u| parent.get(u).copied());
    let committed_above = |t: TxId| {
        ancestors(t)
            .skip(1)
            .all(|u| u == TxId::ROOT || committed.contains(&u))
    };
    let running = |t: &TxId| !committed.contains(t) && !aborted.contains(t);

    let losers: Vec<TxId> = parent
        .keys()
        .copied()
        .filter(|t| running(t) && committed_above(*t))
        .collect();

    // Lemma 5: the last write, in stamp order, by an access visible to T0.
    let mut initials = BTreeMap::new();
    // Per object, the accesses whose lock no INFORM_ABORT has discarded.
    let mut locked: BTreeMap<ObjId, BTreeSet<TxId>> = BTreeMap::new();
    for action in &beta {
        match action {
            Action::RequestCommit(a, _) => {
                if let Some((x, op)) = access.get(a) {
                    locked.entry(*x).or_default().insert(*a);
                    if let Op::Write(d) = op {
                        if committed.contains(a) && committed_above(*a) {
                            initials.insert(*x, *d);
                        }
                    }
                }
            }
            Action::InformAbort(x, d) => {
                if let Some(held) = locked.get_mut(x) {
                    held.retain(|a| !ancestors(*a).any(|u| u == *d));
                }
            }
            _ => {}
        }
    }

    let mut rollback = Vec::new();
    for &v in &losers {
        if !requested.contains(&v) {
            rollback.push(Action::RequestCreate(v));
        }
        if !created.contains(&v) {
            rollback.push(Action::Create(v));
        }
        rollback.push(Action::Abort(v));
        for (x, held) in &locked {
            if held.iter().any(|a| ancestors(*a).any(|u| u == v)) {
                rollback.push(Action::InformAbort(*x, v));
            }
        }
        rollback.push(Action::ReportAbort(v));
    }

    let want = Expected {
        committed: committed.iter().copied().collect(),
        aborted: aborted
            .iter()
            .chain(&losers)
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect(),
        losers: losers.iter().map(|t| t.0).collect(),
        initials: initials.into_iter().collect(),
        rollback,
    };
    (beta, want)
}

#[test]
fn every_record_boundary_of_a_two_session_run_recovers_what_its_history_says() {
    let scratch = Scratch::new("run");
    let (records, victims) = seeded_wal(&scratch.0, 0x5eed_1234_abcd_0001, 200);
    assert!(victims >= 1, "the run breaks a deadlock");
    let acts = |pick: fn(&Action) -> bool| {
        records
            .iter()
            .filter(|r| matches!(r, Record::Act { action, .. } if pick(action)))
            .count()
    };
    assert!(
        acts(|a| matches!(a, Action::Abort(_))) >= 3,
        "the run aborts"
    );
    assert!(
        acts(|a| matches!(a, Action::InformAbort(..))) >= 3,
        "aborts discard locks"
    );
    assert!(
        acts(|a| matches!(a, Action::Commit(_))) >= 20,
        "the run commits"
    );

    let mount = Scratch::new("mount");
    let mut rolled_back = 0;
    for k in 1..=records.len() {
        let mut bytes = Vec::new();
        for rec in &records[..k] {
            rec.encode_frame_into(&mut bytes).expect("encode");
        }
        std::fs::write(mount.0.join(WAL_FILE), &bytes).expect("write prefix");
        let (_store, rec) = Store::open(&mount.0, DurabilityMode::None)
            .unwrap_or_else(|e| panic!("prefix of {k} records refused: {e}"));
        let (beta, want) = expected(&records[..k]);
        assert!(rec.report.certified, "prefix {k}");
        let entries = &rec.seed.entries;
        assert_eq!(entries[..beta.len()], beta[..], "prefix {k}: β is the head");
        assert_eq!(rec.seed.next_stamp, entries.len() as u64, "prefix {k}");
        // After the rollback, recovery may only pass committed locks up.
        let (rollback, rest) =
            entries[beta.len()..].split_at(want.rollback.len().min(entries.len() - beta.len()));
        for a in rest {
            assert!(
                matches!(a, Action::InformCommit(_, t) if want.committed.contains(t)),
                "prefix {k}: {a} after the rollback"
            );
        }
        let got = Expected {
            committed: rec.seed.committed.clone(),
            aborted: rec.seed.aborted.clone(),
            losers: rec.report.losers.clone(),
            initials: rec.seed.initials.clone(),
            rollback: rollback.to_vec(),
        };
        assert_eq!(got, want, "prefix of {k} records");
        rolled_back += usize::from(!want.losers.is_empty());
    }
    assert!(
        rolled_back > records.len() / 2,
        "most cuts leave a top open: {rolled_back} of {}",
        records.len()
    );
    let (_, whole) = expected(&records);
    assert!(!whole.losers.is_empty(), "a top is still open at the end");
}
