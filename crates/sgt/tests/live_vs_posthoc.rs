//! Differential suite: the incremental maintainer's verdict must equal
//! the post-hoc Theorem 17 pipeline's on every recorded history — fresh
//! seeded engine runs across config variants, histories fetched from a
//! real networked server, and planted-violation fixtures that must be caught at the *exact*
//! inserting edge.
//!
//! Oracles: on well-formed engine histories the full `certify_recorded`
//! pipeline (via `EngineReport::certify` / `certify_history`); on planted
//! fixtures the graph stage alone (`build_sg` acyclicity), because a
//! hand-planted cycle need not satisfy the pipeline's earlier
//! return-value gates.

use nt_engine::{run_workload, EngineConfig};
use nt_model::{Action, TxId, TxTree, Value};
use nt_net::{certify_history, Conn, ConnConfig, LoadConfig, NetServer, ServerConfig};
use nt_sgt::{build_sg, ConflictSource};
use nt_sgt_live::{SgtConfig, SgtMaintainer};
use nt_sim::WorkloadSpec;

/// Replay `beta` through a fresh maintainer and compare with the graph
/// stage of the post-hoc pipeline.
fn verdicts(tree: &TxTree, beta: &[Action]) -> (bool, bool) {
    let m = SgtMaintainer::replay(tree, beta, SgtConfig::default());
    let sg = build_sg(tree, beta, ConflictSource::ReadWrite);
    (m.ok(), sg.is_acyclic())
}

/// 12 fresh seeded runs across engine-config and workload variants: the
/// in-engine live certifier, a from-scratch replay of the recorded
/// history, and the full post-hoc pipeline must all agree.
#[test]
fn fresh_seeded_runs_agree_with_posthoc() {
    for seed in 0..12u64 {
        let w = WorkloadSpec {
            top_level: 8 + (seed as usize % 3) * 4,
            objects: 2 + (seed as usize % 4),
            hotspot: 0.3 + 0.1 * (seed % 5) as f64,
            max_depth: 1 + (seed as u32 % 3),
            seed: 1000 + seed,
            ..WorkloadSpec::default()
        }
        .generate();
        let cfg = EngineConfig {
            threads: 2 + (seed as usize % 3) * 2,
            live_certify: true,
            ..EngineConfig::default()
        };
        let r = run_workload(&w, &cfg).expect("engine runs");
        let cert = r.certify();
        let live = r.live.as_ref().expect("live status present when enabled");

        // In-engine live verdict vs full post-hoc pipeline.
        assert_eq!(
            live.ok,
            cert.is_serially_correct(),
            "seed {seed}: live {} vs post-hoc {}",
            live.ok,
            cert.verdict.name()
        );
        assert_eq!(live.processed, r.history.len() as u64, "seed {seed}");
        assert!(live.watermark > 0, "seed {seed}: watermark never advanced");

        // Gauge parity: the workers step the shared maintainer inline, one
        // recorded action at a time from several threads, so its final
        // state must land exactly where a from-scratch in-order replay of
        // the same history lands — same graph shape, same GC watermark,
        // same live-top count.
        let m = nt_sgt_live::SgtMaintainer::replay(&r.tree, &r.history, SgtConfig::default());
        assert_eq!(live.nodes, m.node_count(), "seed {seed}: node gauge");
        assert_eq!(live.edges, m.edge_count(), "seed {seed}: edge gauge");
        assert_eq!(
            live.watermark,
            m.watermark(),
            "seed {seed}: watermark gauge"
        );
        assert_eq!(
            live.live_tops,
            m.live_tops(),
            "seed {seed}: live_tops gauge"
        );

        // From-scratch replay of the merged history vs the graph stage.
        let (replayed, acyclic) = verdicts(&r.tree, &r.history);
        assert_eq!(replayed, acyclic, "seed {seed}: replay disagrees");
        assert_eq!(replayed, cert.is_serially_correct(), "seed {seed}");
    }
}

/// A history recorded by the real networked server (fetched over the
/// wire) replays to the same verdict as `certify_history`.
#[test]
fn net_recorded_history_agrees_with_posthoc() {
    let server = NetServer::bind(ServerConfig {
        live_certify: true,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.serve();
    let load = LoadConfig {
        addr: addr.clone(),
        connections: 3,
        tops_per_conn: 10,
        objects: 4,
        hotspot: 0.6,
        seed: 77,
        ..LoadConfig::default()
    };
    nt_net::run_load(&addr, &load).expect("load runs");

    let mut conn = Conn::connect(&addr, 9, ConnConfig::default()).expect("connect");
    let (tree, actions) = conn.fetch_history().expect("history fetched");
    let cert = certify_history(&tree, &actions);
    assert!(cert.is_serially_correct(), "{}", cert.verdict.name());

    let m = SgtMaintainer::replay(&tree, &actions, SgtConfig::default());
    assert!(m.ok(), "live replay disagrees with post-hoc on net history");
    assert_eq!(m.processed(), actions.len() as u64);

    conn.shutdown_server().expect("shutdown");
    drop(conn);
    handle.wait();
}

// ---------------------------------------------------------------------
// Planted violations: each must flip the verdict AND be reported at the
// exact edge whose insertion closes the cycle.
// ---------------------------------------------------------------------

/// Crossed read/write pair: 2-cycle at the root, closed by the b→a edge
/// with witness (4, 8).
#[test]
fn planted_two_cycle_caught_at_inserting_edge() {
    let mut tree = TxTree::new();
    let x = tree.add_object();
    let y = tree.add_object();
    let a = tree.add_inner(TxId::ROOT);
    let b = tree.add_inner(TxId::ROOT);
    let ax = tree.add_access(a, x, nt_model::Op::Write(1));
    let ay = tree.add_access(a, y, nt_model::Op::Read);
    let bx = tree.add_access(b, x, nt_model::Op::Read);
    let by = tree.add_access(b, y, nt_model::Op::Write(2));
    let beta = vec![
        Action::RequestCreate(a),                 // 0
        Action::RequestCreate(b),                 // 1
        Action::RequestCommit(ax, Value::Ok),     // 2
        Action::Commit(ax),                       // 3
        Action::RequestCommit(by, Value::Ok),     // 4
        Action::Commit(by),                       // 5
        Action::RequestCommit(bx, Value::Int(1)), // 6: a→b (2,6)
        Action::Commit(bx),                       // 7
        Action::RequestCommit(ay, Value::Int(2)), // 8: b→a (4,8)
        Action::Commit(ay),                       // 9
        Action::Commit(a),                        // 10
        Action::Commit(b),                        // 11: cycle closes
    ];
    let (live, acyclic) = verdicts(&tree, &beta);
    assert!(!live && !acyclic, "both oracles must see the cycle");

    let m = SgtMaintainer::replay(&tree, &beta, SgtConfig::default());
    let rep = m.violation().expect("violation latched");
    assert_eq!(rep.parent, TxId::ROOT);
    assert_eq!(rep.edge.witness, (4, 8), "wrong inserting edge");
    assert_eq!(rep.cycle.first(), rep.cycle.last());
    assert!(rep.cycle.contains(&a) && rep.cycle.contains(&b));
    assert!(!rep.slice.is_empty(), "history slice must cover the cycle");
}

/// Three tops in a ring (a→b on x, b→c on y, c→a on z): the closing edge
/// is c→a with witness (10, 12), inserted at c's finalization.
#[test]
fn planted_three_cycle_caught_at_inserting_edge() {
    let mut tree = TxTree::new();
    let x = tree.add_object();
    let y = tree.add_object();
    let z = tree.add_object();
    let a = tree.add_inner(TxId::ROOT);
    let b = tree.add_inner(TxId::ROOT);
    let c = tree.add_inner(TxId::ROOT);
    let awx = tree.add_access(a, x, nt_model::Op::Write(1));
    let arz = tree.add_access(a, z, nt_model::Op::Read);
    let brx = tree.add_access(b, x, nt_model::Op::Read);
    let bwy = tree.add_access(b, y, nt_model::Op::Write(2));
    let cry = tree.add_access(c, y, nt_model::Op::Read);
    let cwz = tree.add_access(c, z, nt_model::Op::Write(3));
    let beta = vec![
        Action::RequestCreate(a),                  // 0
        Action::RequestCreate(b),                  // 1
        Action::RequestCommit(awx, Value::Ok),     // 2
        Action::Commit(awx),                       // 3
        Action::RequestCommit(brx, Value::Int(1)), // 4: a→b (2,4)
        Action::Commit(brx),                       // 5
        Action::RequestCommit(bwy, Value::Ok),     // 6
        Action::Commit(bwy),                       // 7
        Action::RequestCommit(cry, Value::Int(2)), // 8: b→c (6,8)
        Action::Commit(cry),                       // 9
        Action::RequestCommit(cwz, Value::Ok),     // 10
        Action::Commit(cwz),                       // 11
        Action::RequestCommit(arz, Value::Int(3)), // 12: c→a (10,12)
        Action::Commit(arz),                       // 13
        Action::Commit(a),                         // 14
        Action::Commit(b),                         // 15
        Action::Commit(c),                         // 16: ring complete
    ];
    let (live, acyclic) = verdicts(&tree, &beta);
    assert!(!live && !acyclic, "both oracles must see the ring");

    let m = SgtMaintainer::replay(&tree, &beta, SgtConfig::default());
    let rep = m.violation().expect("violation latched");
    assert_eq!(rep.parent, TxId::ROOT);
    assert_eq!(rep.edge.witness, (10, 12), "wrong inserting edge");
    assert!(rep.cycle.contains(&a) && rep.cycle.contains(&b) && rep.cycle.contains(&c));
    // The cycle walk carries one edge per hop, each with its witness.
    assert_eq!(rep.cycle_edges.len(), rep.cycle.len() - 1);
}

/// A cycle strictly inside one top's subtree is caught in the transient
/// per-parent order, reported with the inner parent.
#[test]
fn planted_inner_cycle_caught_with_inner_parent() {
    let mut tree = TxTree::new();
    let x = tree.add_object();
    let y = tree.add_object();
    let a = tree.add_inner(TxId::ROOT);
    let a1 = tree.add_inner(a);
    let a2 = tree.add_inner(a);
    let u1x = tree.add_access(a1, x, nt_model::Op::Write(1));
    let u1y = tree.add_access(a1, y, nt_model::Op::Write(3));
    let u2x = tree.add_access(a2, x, nt_model::Op::Write(2));
    let u2y = tree.add_access(a2, y, nt_model::Op::Write(4));
    let beta = vec![
        Action::RequestCommit(u1x, Value::Ok), // 0
        Action::Commit(u1x),                   // 1
        Action::RequestCommit(u2x, Value::Ok), // 2: a1→a2 (0,2)
        Action::Commit(u2x),                   // 3
        Action::RequestCommit(u2y, Value::Ok), // 4
        Action::Commit(u2y),                   // 5
        Action::RequestCommit(u1y, Value::Ok), // 6: a2→a1 (4,6)
        Action::Commit(u1y),                   // 7
        Action::Commit(a1),                    // 8
        Action::Commit(a2),                    // 9
        Action::Commit(a),                     // 10: finalize → inner cycle
    ];
    let (live, acyclic) = verdicts(&tree, &beta);
    assert!(!live && !acyclic, "both oracles must see the inner cycle");

    let m = SgtMaintainer::replay(&tree, &beta, SgtConfig::default());
    let rep = m.violation().expect("violation latched");
    assert_eq!(rep.parent, a, "inner cycle reported at the wrong parent");
    assert_eq!(rep.edge.witness, (4, 6), "wrong inserting edge");
}

/// The same planted 2-cycle with one side aborted is clean under both
/// oracles — aborted work is invisible, no false positive.
#[test]
fn planted_cycle_with_aborted_side_is_clean() {
    let mut tree = TxTree::new();
    let x = tree.add_object();
    let y = tree.add_object();
    let a = tree.add_inner(TxId::ROOT);
    let b = tree.add_inner(TxId::ROOT);
    let ax = tree.add_access(a, x, nt_model::Op::Write(1));
    let ay = tree.add_access(a, y, nt_model::Op::Read);
    let bx = tree.add_access(b, x, nt_model::Op::Read);
    let by = tree.add_access(b, y, nt_model::Op::Write(2));
    let beta = vec![
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
        Action::Commit(a),
        Action::Abort(b),
    ];
    let (live, acyclic) = verdicts(&tree, &beta);
    assert!(live && acyclic, "aborted side must not plant an edge");
}
