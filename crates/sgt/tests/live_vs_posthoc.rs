//! Differential suite: the serving binary's one `SG(β)` builder — the
//! incremental maintainer, stepped live by the engine or replayed by the
//! Theorem 17 gate (`nt_sgt_live::certify_recorded`) — against the test
//! oracle, `nt_sgt::check_serial_correctness`, which builds `SG(β)` from
//! scratch, sorts it and validates a witness. Every history here (fresh
//! seeded engine runs, a history fetched from a real networked server,
//! planted fixtures) is judged by both and compared by verdict class: ok,
//! not simple, inappropriate, cyclic. A bare replay must also agree with
//! `build_sg` acyclicity, because a planted fixture that is not a simple
//! behavior never reaches either pipeline's graph stage, and a planted
//! cycle must be caught at the *exact* inserting edge.

use nt_engine::{run_workload, EngineConfig};
use nt_model::{Action, Op, TxId, TxTree, Value};
use nt_net::{Conn, ConnConfig, LoadConfig, NetServer, ServerConfig};
use nt_serial::{ObjectTypes, RwRegister};
use nt_sgt::{build_sg, check_serial_correctness, ConflictSource};
use nt_sgt_live::{certify_recorded, SgtConfig, SgtMaintainer};
use nt_sim::WorkloadSpec;
use std::sync::Arc;

/// Judge `beta` by the gate and by the oracle (registers initially 0)
/// and require the same verdict class; return it.
fn class(tree: &TxTree, beta: &[Action]) -> &'static str {
    let types = ObjectTypes::uniform(tree.num_objects(), Arc::new(RwRegister::new(0)));
    let oracle = check_serial_correctness(tree, beta, &types, ConflictSource::ReadWrite);
    let gate = certify_recorded(tree, beta, &types);
    assert_eq!(gate.verdict.name(), oracle.name(), "gate vs oracle");
    oracle.name()
}

/// Replay `beta` through a fresh maintainer and compare with the
/// oracle's graph stage alone.
fn verdicts(tree: &TxTree, beta: &[Action]) -> (bool, bool) {
    let m = SgtMaintainer::replay(tree, beta, SgtConfig::default());
    let sg = build_sg(tree, beta, ConflictSource::ReadWrite);
    (m.ok(), sg.is_acyclic())
}

/// 12 fresh seeded runs across engine-config and workload variants: the
/// in-engine live certifier, a from-scratch replay of the recorded
/// history, the gate and the oracle must all agree.
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
        let verdict = class(&r.tree, &r.history);
        let live = r.live.as_ref().expect("live status present when enabled");

        // In-engine live verdict vs the oracle.
        assert_eq!(
            live.ok,
            verdict == "serially_correct",
            "seed {seed}: live {} vs oracle {verdict}",
            live.ok,
        );
        assert_eq!(live.processed, r.history.len() as u64, "seed {seed}");
        assert!(live.watermark > 0, "seed {seed}: watermark never advanced");

        // Gauge parity: the workers step the shared maintainer inline, one
        // recorded action at a time from several threads, so its final
        // state must land exactly where a from-scratch in-order replay of
        // the same history lands — same graph shape, same GC watermark,
        // same live-top count.
        let m = SgtMaintainer::replay(&r.tree, &r.history, SgtConfig::default());
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
        assert_eq!(replayed, verdict == "serially_correct", "seed {seed}");
    }
}

/// A history recorded by the real networked server (fetched over the
/// wire) gets the same verdict from the gate, the oracle and a replay.
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
    assert_eq!(class(&tree, &actions), "serially_correct");

    let m = SgtMaintainer::replay(&tree, &actions, SgtConfig::default());
    assert!(
        m.ok(),
        "live replay disagrees with the oracle on net history"
    );
    assert_eq!(m.processed(), actions.len() as u64);

    conn.shutdown_server().expect("shutdown");
    drop(conn);
    handle.wait();
}

/// The actions of one committed transaction `t` that returns `v`, around
/// `body` (an inner transaction's children), as the engine records them.
fn committed(t: TxId, v: Value, body: Vec<Action>) -> Vec<Action> {
    let mut acts = vec![Action::RequestCreate(t), Action::Create(t)];
    acts.extend(body);
    acts.extend([
        Action::RequestCommit(t, v.clone()),
        Action::Commit(t),
        Action::ReportCommit(t, v),
    ]);
    acts
}

/// Two tops crossing on `x` and `y`: `a` writes `x` and reads `y`, `b`
/// writes `y` and reads `x`. `steps` runs the accesses — 0: `a` writes
/// `x`, 1: `b` writes `y`, 2: `b` reads `x`, 3: `a` reads `y` — in order,
/// each returning its value; then both tops commit.
fn crossed(steps: [(usize, Value); 4]) -> (TxTree, Vec<Action>) {
    let mut tree = TxTree::new();
    let (x, y) = (tree.add_object(), tree.add_object());
    let (a, b) = (tree.add_inner(TxId::ROOT), tree.add_inner(TxId::ROOT));
    let accesses = [
        tree.add_access(a, x, Op::Write(1)),
        tree.add_access(b, y, Op::Write(2)),
        tree.add_access(b, x, Op::Read),
        tree.add_access(a, y, Op::Read),
    ];
    let mut beta = vec![
        Action::RequestCreate(a),
        Action::Create(a),
        Action::RequestCreate(b),
        Action::Create(b),
    ];
    for (i, v) in steps {
        beta.extend(committed(accesses[i], v, vec![]));
    }
    for t in [a, b] {
        beta.extend([
            Action::RequestCommit(t, Value::Ok),
            Action::Commit(t),
            Action::ReportCommit(t, Value::Ok),
        ]);
    }
    (tree, beta)
}

/// Histories that reach each verdict class: the gate and the oracle name
/// the same one, and a bare replay agrees with `build_sg`.
#[test]
fn every_verdict_class_agrees_with_the_oracle() {
    let ok = Value::Ok;
    let serial = crossed([
        (0, ok.clone()),
        (2, Value::Int(1)),
        (3, Value::Int(0)),
        (1, ok.clone()),
    ]);
    let cyclic = crossed([
        (0, ok.clone()),
        (1, ok.clone()),
        (2, Value::Int(1)),
        (3, Value::Int(2)),
    ]);
    let wrong_read = crossed([
        (0, ok.clone()),
        (1, ok.clone()),
        (2, Value::Int(5)),
        (3, Value::Int(2)),
    ]);
    let (tree, mut unrequested) = cyclic.clone();
    unrequested.remove(0); // CREATE(a) without its request
    let cases = [
        (serial, "serially_correct"),
        (cyclic, "cyclic"),
        (wrong_read, "inappropriate_return_values"),
        ((tree, unrequested), "not_simple"),
    ];
    for ((tree, beta), want) in cases {
        assert_eq!(class(&tree, &beta), want);
        let (replayed, acyclic) = verdicts(&tree, &beta);
        assert_eq!(replayed, acyclic, "{want}: replay vs build_sg");
    }
}

/// The gate's replay does work in proportion to β while the watermark
/// advances: on a 2,000-top single-session run (77,302 actions) it
/// inserts fewer edges than β has actions, where the oracle's `build_sg`
/// draws about 2.3 million.
#[test]
fn the_gate_inserts_fewer_edges_than_the_history_has_actions() {
    let w = WorkloadSpec {
        top_level: 2000,
        objects: 64,
        hotspot: 0.1,
        max_depth: 2,
        seed: 7,
        ..WorkloadSpec::default()
    }
    .generate();
    let cfg = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let r = run_workload(&w, &cfg).expect("engine runs");
    let cert = r.certify();
    assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
    assert_eq!(cert.actions, r.history.len());
    assert!(
        cert.sg_edges < cert.actions,
        "{} edges inserted for {} actions",
        cert.sg_edges,
        cert.actions
    );
}

// ---------------------------------------------------------------------
// Planted violations: each must flip the verdict AND be reported at the
// exact edge whose insertion closes the cycle. They are bare graph
// fixtures, so the oracle's graph stage is the one compared.
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
    let ax = tree.add_access(a, x, Op::Write(1));
    let ay = tree.add_access(a, y, Op::Read);
    let bx = tree.add_access(b, x, Op::Read);
    let by = tree.add_access(b, y, Op::Write(2));
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
    // No CREATEs: the gate and the oracle refuse before the graph stage.
    assert_eq!(class(&tree, &beta), "not_simple");
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
    let awx = tree.add_access(a, x, Op::Write(1));
    let arz = tree.add_access(a, z, Op::Read);
    let brx = tree.add_access(b, x, Op::Read);
    let bwy = tree.add_access(b, y, Op::Write(2));
    let cry = tree.add_access(c, y, Op::Read);
    let cwz = tree.add_access(c, z, Op::Write(3));
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
    // No CREATEs: the gate and the oracle refuse before the graph stage.
    assert_eq!(class(&tree, &beta), "not_simple");
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
    let u1x = tree.add_access(a1, x, Op::Write(1));
    let u1y = tree.add_access(a1, y, Op::Write(3));
    let u2x = tree.add_access(a2, x, Op::Write(2));
    let u2y = tree.add_access(a2, y, Op::Write(4));
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
    // No CREATEs: the gate and the oracle refuse before the graph stage.
    assert_eq!(class(&tree, &beta), "not_simple");
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
    let ax = tree.add_access(a, x, Op::Write(1));
    let ay = tree.add_access(a, y, Op::Read);
    let bx = tree.add_access(b, x, Op::Read);
    let by = tree.add_access(b, y, Op::Write(2));
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
    // No CREATEs: the gate and the oracle refuse before the graph stage.
    assert_eq!(class(&tree, &beta), "not_simple");
    assert!(live && acyclic, "aborted side must not plant an edge");
}
