//! One top left open must not make the live certifier quadratic.
//!
//! An open top pins the certifier's watermark (DESIGN §8i, "Watermark
//! GC"), so every top that resolves after it stays resident until it
//! resolves too. With all-pairs root precedes edges, each of those tops
//! drew an edge from every reported resident top before it: 3,000 tops
//! behind one open top left 4,498,500 edges. The frontier maintainer
//! draws root precedes edges from the reported frontier only, so the
//! resident graph stays linear in the tops it holds. Counts, not wall
//! time, are asserted.

use nt_engine::{AccessOutcome, CommitOutcome, LiveCertifier, RecoveredSeed, SessionEngine};
use nt_model::{ObjId, Op};
use nt_obs::TraceHandle;
use nt_serial::{ObjectTypes, RwRegister};
use nt_sgt_live::{certify_recorded, SgtMaintainer};
use std::sync::Arc;

const TOPS: u32 = 3000;

#[test]
fn an_open_top_leaves_a_linear_graph_that_drains_when_it_commits() {
    let engine = SessionEngine::start_recovered(
        1 << 14,
        TraceHandle::disabled(),
        RecoveredSeed::default(),
        None,
        Some(LiveCertifier::new(
            SgtMaintainer::default(),
            TraceHandle::disabled(),
        )),
    )
    .expect("an empty seed replays");

    // Session A begins a top, writes object 0 and stays open.
    let mut a = engine.open_session();
    let idle = a.begin_top().expect("top");
    let wrote = a.access(idle, ObjId(0), Op::Write(7)).expect("write");
    assert!(matches!(wrote, AccessOutcome::Done(_)));

    // Session B runs its tops one after another on objects 1–64.
    let mut b = engine.open_session();
    for k in 0..TOPS {
        let top = b.begin_top().expect("top");
        let (x, y) = (ObjId(1 + k % 64), ObjId(1 + (k * 7 + 3) % 64));
        let w = b.access(top, x, Op::Write(i64::from(k))).expect("write");
        let r = b.access(top, y, Op::Read).expect("read");
        assert!(matches!(
            (w, r),
            (AccessOutcome::Done(_), AccessOutcome::Done(_))
        ));
        assert_eq!(b.commit(top).expect("commit"), CommitOutcome::Committed);
    }

    let held = engine.live_status().expect("certifier mounted");
    assert!(held.ok);
    assert_eq!(held.live_tops, 1, "only the idle top is open");
    assert_eq!(
        held.nodes,
        TOPS as usize + 1,
        "the open top pins every top behind it"
    );
    assert!(
        held.edges <= 4 * held.nodes,
        "{} resident edges for {} resident tops",
        held.edges,
        held.nodes
    );

    // Every edge ever inserted, root and inner, counted by a replay of
    // the same history: linear in the tops too.
    let (tree, history) = engine.history_snapshot();
    let types = ObjectTypes::uniform(65, Arc::new(RwRegister::new(0)));
    let cert = certify_recorded(&tree, &history, &types);
    assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
    println!(
        "open top held {} nodes and {} edges; {} edges inserted in all",
        held.nodes, held.edges, cert.sg_edges
    );
    assert!(
        cert.sg_edges <= 4 * (TOPS as usize + 1),
        "{} edges inserted for {} tops",
        cert.sg_edges,
        TOPS + 1
    );

    // The idle top commits: the watermark moves past everything and the
    // graph drains.
    assert_eq!(a.commit(idle).expect("commit"), CommitOutcome::Committed);
    let drained = engine.live_status().expect("certifier mounted");
    assert!(drained.ok);
    assert_eq!((drained.live_tops, drained.nodes, drained.edges), (0, 0, 0));
    assert_eq!(drained.watermark, drained.processed);
}
