//! Lock-manager integration tests: the Moss ancestor-holder rule under
//! real blocking, releaser-side grant-in-place (earliest-eligible order,
//! cancelled tickets), a seeded hand-off stress proving no grant rides the
//! park backstop, and a deliberate two-party deadlock resolved by the
//! detector with the victim salvaged through a retry replica.

use nt_engine::{
    run_plan, Acquired, Acquisition, EngineConfig, EnginePlan, LockTable, SeqClock, StatusTable,
    Ticket, WakeHandle,
};
use nt_model::rw::RwInitials;
use nt_model::{Op, TxId, TxTree, Value};
use nt_serial::ObjectTypes;
use nt_sim::{ChildOrder, ScriptPlan};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

fn table_for(tree: &Arc<TxTree>, shards: usize) -> LockTable {
    LockTable::new(
        Arc::clone(tree),
        Arc::new(StatusTable::new(tree.len())),
        Arc::new(SeqClock::new()),
        RwInitials::uniform(0),
        shards,
    )
}

/// A write under `A` must wait while an *unrelated* transaction read-holds
/// the object (Moss' rule: every conflicting holder must be an ancestor),
/// and must be granted the moment that holder's lock is discarded — even
/// though `A` itself still read-holds, because `A` is the writer's parent.
#[test]
fn upgrade_waits_for_unrelated_reader_not_for_ancestor() {
    let mut tree = TxTree::new();
    let x = tree.add_object();
    let a = tree.add_inner(TxId::ROOT);
    let ar = tree.add_access(a, x, Op::Read);
    let aw = tree.add_access(a, x, Op::Write(5));
    let b = tree.add_inner(TxId::ROOT);
    let br = tree.add_access(b, x, Op::Read);
    let tree = Arc::new(tree);
    let table = table_for(&tree, 1);

    // A and B both end up read-holding x (locks inherited upward).
    assert_eq!(
        table.acquire(ar, x, &Op::Read),
        Acquired::Granted(Value::Int(0))
    );
    table.release_inherit(ar, [x]);
    assert_eq!(
        table.acquire(br, x, &Op::Read),
        Acquired::Granted(Value::Int(0))
    );
    table.release_inherit(br, [x]);

    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            tx.send(table.acquire(aw, x, &Op::Write(5))).expect("send");
        });
        // The writer must be parked: B read-holds and is no ancestor of aw.
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "write must block while an unrelated reader holds the lock"
        );
        let snapshot = table.waiting_snapshot();
        assert!(
            snapshot
                .iter()
                .any(|e| e.waiter == aw && e.obj == x && e.blockers.contains(&b)),
            "snapshot must show aw blocked on B: {snapshot:?}"
        );
        // B aborts; its read lock is discarded. A's own read lock remains,
        // but A is the writer's parent — an ancestor holder never blocks.
        table.discard(b, [x]);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5))
                .expect("granted after discard"),
            Acquired::Granted(Value::Ok)
        );
    });
    assert_eq!(table.blocked(), 1);
}

/// A wake handle that counts its firings.
fn counting_wake(owner: u64) -> (WakeHandle, Arc<AtomicU64>) {
    let fired = Arc::new(AtomicU64::new(0));
    let f = Arc::clone(&fired);
    let wake = WakeHandle::new(owner, move || {
        f.fetch_add(1, Ordering::SeqCst);
    });
    (wake, fired)
}

fn queued(a: Acquisition) -> Ticket {
    match a {
        Acquisition::Queued(t) => t,
        Acquisition::Granted(v) => panic!("expected a queued request, granted {v:?}"),
        Acquisition::Doomed(d) => panic!("expected a queued request, doomed {d}"),
    }
}

/// The releaser grants in place, earliest *eligible* first: B holds a
/// child's write lock on x; a stranger C queues first, then B's own
/// second child. When the first child's lock passes up to B, the stranger
/// is still blocked (B is no ancestor of it) but B's child is not — it
/// must be granted past the earlier ticket, by the releasing call itself,
/// with its wake fired and nobody parked on a thread.
#[test]
fn releaser_grants_the_earliest_eligible_waiter_in_place() {
    let mut tree = TxTree::new();
    let x = tree.add_object();
    let b = tree.add_inner(TxId::ROOT);
    let b1 = tree.add_access(b, x, Op::Write(1));
    let b2 = tree.add_access(b, x, Op::Read);
    let c = tree.add_inner(TxId::ROOT);
    let c1 = tree.add_access(c, x, Op::Write(9));
    let tree = Arc::new(tree);
    let table = table_for(&tree, 1);

    assert_eq!(
        table.acquire(b1, x, &Op::Write(1)),
        Acquired::Granted(Value::Ok)
    );
    let (wake_c, fired_c) = counting_wake(7);
    let (wake_b, fired_b) = counting_wake(8);
    let stranger = queued(table.try_acquire(c1, x, &Op::Write(9), Some(&wake_c)));
    let child = queued(table.try_acquire(b2, x, &Op::Read, Some(&wake_b)));
    assert_eq!((stranger.tx(), stranger.obj()), (c1, x));
    let snapshot = table.waiting_snapshot();
    assert_eq!(snapshot.len(), 2, "{snapshot:?}");
    assert_eq!(snapshot[0].owner, 7, "the wake's owner labels the edge");

    // b1 commits: its lock moves to B. Only B's child becomes eligible.
    table.release_inherit(b1, [x]);
    assert_eq!(fired_b.load(Ordering::SeqCst), 1, "child granted in place");
    assert_eq!(fired_c.load(Ordering::SeqCst), 0, "stranger still blocked");
    let child = table.try_resolve(child);
    assert!(
        matches!(child, Ok(Acquired::Granted(Value::Int(1)))),
        "the child reads its sibling's inherited write"
    );
    let Err(stranger) = table.try_resolve(stranger) else {
        panic!("the stranger resolved with B still holding the lock");
    };

    // The whole of B passes up to T0: now the stranger's turn.
    table.release_inherit(b2, [x]);
    table.release_inherit(b, [x]);
    assert_eq!(fired_c.load(Ordering::SeqCst), 1);
    assert!(matches!(
        table.try_resolve(stranger),
        Ok(Acquired::Granted(Value::Ok))
    ));
    assert!(table.waiting_snapshot().is_empty());
    assert_eq!(table.granted(), 3);
    assert_eq!(table.blocked(), 2);
}

/// A cancelled ticket (its connection hung up while parked) leaves no
/// waiter behind, is never granted, and does not stand in the next
/// waiter's way.
#[test]
fn cancelled_ticket_leaves_no_waiter_and_unblocks_the_next() {
    let mut tree = TxTree::new();
    let x = tree.add_object();
    let tops: Vec<TxId> = (0..3).map(|_| tree.add_inner(TxId::ROOT)).collect();
    let acc: Vec<TxId> = tops
        .iter()
        .map(|&t| tree.add_access(t, x, Op::Write(t.0 as i64)))
        .collect();
    let tree = Arc::new(tree);
    let table = table_for(&tree, 1);
    let op = |i: usize| tree.op_of(acc[i]).expect("op").clone();

    assert_eq!(
        table.acquire(acc[0], x, &op(0)),
        Acquired::Granted(Value::Ok)
    );
    let (wake1, fired1) = counting_wake(1);
    let (wake2, fired2) = counting_wake(2);
    let gone = queued(table.try_acquire(acc[1], x, &op(1), Some(&wake1)));
    let next = queued(table.try_acquire(acc[2], x, &op(2), Some(&wake2)));

    assert_eq!(table.cancel(gone), None, "cancelled before it resolved");
    let waiting: Vec<TxId> = table.waiting_snapshot().iter().map(|e| e.waiter).collect();
    assert_eq!(waiting, vec![acc[2]], "the cancelled request is gone");

    // The holder aborts: the lock goes to the surviving waiter only.
    table.discard(tops[0], [x]);
    assert_eq!(fired1.load(Ordering::SeqCst), 0);
    assert_eq!(fired2.load(Ordering::SeqCst), 1);
    assert!(matches!(
        table.try_resolve(next),
        Ok(Acquired::Granted(Value::Ok))
    ));
    assert_eq!(
        table.granted(),
        2,
        "the cancelled request was never granted"
    );

    // Cancelling a ticket that already resolved hands the grant over.
    let late = queued(table.try_acquire(acc[1], x, &op(1), None));
    table.discard(tops[2], [x]);
    assert_eq!(table.cancel(late), Some(Acquired::Granted(Value::Ok)));
}

/// Seeded hand-off stress: four top-level transactions ping-pong write
/// locks on one object through queue/grant-in-place cycles, each lane a
/// thread parked in the blocking wrapper. Every one of the 100 acquires
/// must land, and none may be found by the park backstop: a grant the
/// releaser failed to deliver would sit until the 250 ms timeout and be
/// counted in `timeout_rescues`.
#[test]
fn handoff_stress_grants_all_without_a_timed_out_park() {
    const TOPS: usize = 4;
    const ROUNDS: usize = 25;
    let mut tree = TxTree::new();
    let x = tree.add_object();
    let mut lanes: Vec<(TxId, Vec<TxId>)> = Vec::new();
    for i in 0..TOPS {
        let t = tree.add_inner(TxId::ROOT);
        let accesses = (0..ROUNDS)
            .map(|k| tree.add_access(t, x, Op::Write((i * ROUNDS + k) as i64)))
            .collect();
        lanes.push((t, accesses));
    }
    let tree = Arc::new(tree);
    let table = table_for(&tree, 1);

    std::thread::scope(|s| {
        for (t, accesses) in &lanes {
            let (tree, table) = (&tree, &table);
            s.spawn(move || {
                for &acc in accesses {
                    let op = tree.op_of(acc).expect("access carries an op").clone();
                    match table.acquire(acc, x, &op) {
                        Acquired::Granted(_) => {}
                        Acquired::Doomed(d) => panic!("nothing dooms here, got {d}"),
                    }
                    // Hand the lock all the way to T0 so every other lane's
                    // next access becomes eligible (T0 is everyone's
                    // ancestor) — maximal queue/grant traffic.
                    table.release_inherit(acc, [x]);
                    table.release_inherit(*t, [x]);
                }
            });
        }
    });

    assert_eq!(
        table.granted(),
        (TOPS * ROUNDS) as u64,
        "every acquire must land"
    );
    assert!(table.waiting_snapshot().is_empty());
    assert_eq!(
        table.timeout_rescues(),
        0,
        "a grant was found by the park backstop, not delivered by its releaser"
    );
}

/// Hand-built deadlock: A writes x then y, B writes y then x, with enough
/// per-access latency that both grab their first lock before requesting the
/// second. The detector must doom a victim; the victim's slot must retry
/// through its pre-materialized replica; the recorded history must still
/// certify. Timing-dependent, so the fixture retries a few runs and
/// requires at least one to exhibit the full deadlock → victim → salvage
/// chain (every run, deadlocked or not, must certify).
#[test]
fn two_party_deadlock_is_detected_and_victim_salvaged() {
    let mut tree = TxTree::new();
    let x = tree.add_object();
    let y = tree.add_object();
    let mut plans: BTreeMap<TxId, ScriptPlan> = BTreeMap::new();
    // lane(obj1, obj2) builds an inner transaction writing obj1 then obj2.
    let mut lane = |first, second, v: i64| {
        let t = tree.add_inner(TxId::ROOT);
        let a1 = tree.add_access(t, first, Op::Write(v));
        let a2 = tree.add_access(t, second, Op::Write(v + 1));
        (t, vec![a1, a2])
    };
    let (a, a_kids) = lane(x, y, 10);
    let (b, b_kids) = lane(y, x, 20);
    let (a2, a2_kids) = lane(x, y, 30); // replica of A's slot
    let (b2, b2_kids) = lane(y, x, 40); // replica of B's slot
    for (t, kids) in [(a, a_kids), (b, b_kids), (a2, a2_kids), (b2, b2_kids)] {
        plans.insert(
            t,
            ScriptPlan {
                children: kids,
                order: ChildOrder::Sequential,
            },
        );
    }
    let tree = Arc::new(tree);
    let plan = EnginePlan {
        tree: Arc::clone(&tree),
        plans,
        top: vec![a, b],
        retry_chains: BTreeMap::from([(TxId::ROOT, vec![vec![a2], vec![b2]])]),
        initials: RwInitials::uniform(0),
        types: ObjectTypes::uniform(2, Arc::new(nt_serial::RwRegister::new(0))),
    };
    let cfg = EngineConfig {
        threads: 2,
        shards: 2,
        access_latency_us: 20_000,
        backoff_round_us: 100,
        ..EngineConfig::default()
    };

    let mut deadlocked_and_salvaged = false;
    for attempt in 0..5 {
        let r = run_plan(&plan, &cfg).expect("fixture runs");
        assert!(!r.gave_up, "attempt {attempt}: watchdog must not fire");
        let cert = r.certify();
        assert!(
            cert.is_serially_correct(),
            "attempt {attempt}: every run must certify, got {}",
            cert.verdict.name()
        );
        assert_eq!(r.committed_top + r.aborted_top, 2);
        if !r.victims.is_empty() {
            // The victim must be one of the two original lanes, and its
            // slot must have been salvaged by the replica (retried, then
            // committed) unless the replica itself fell to a second cycle.
            // Victims are named in run ids; the plan's names are a lookup
            // away.
            assert!(
                r.victims
                    .iter()
                    .all(|v| [a, b, a2, b2].contains(&r.plan_ids[&v.victim])),
                "unexpected victim set {:?}",
                r.victims
            );
            let stats = r.ledger.stats();
            if stats.salvaged >= 1 && r.committed_top == 2 {
                deadlocked_and_salvaged = true;
                break;
            }
        }
    }
    assert!(
        deadlocked_and_salvaged,
        "five runs of a 20ms-per-access crossed-lock fixture never produced \
         a detected deadlock with a salvaged victim"
    );
}
