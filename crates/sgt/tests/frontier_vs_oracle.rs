//! The frontier maintainer against the all-pairs oracle, `build_sg`.
//!
//! The maintainer draws only frontier edges (per object, an access's
//! nearest conflicting neighbours; root precedes from the reported
//! frontier), and DESIGN §8i proves that its graph has the reachability
//! of the all-pairs `SG(β)` among resident tops after every action. This
//! suite checks the consequences on every history it has:
//!
//! * the gate's verdict class is the oracle's
//!   (`check_serial_correctness`);
//! * the maintainer latches at stamp `s` exactly when `build_sg` over
//!   `β[..=s]` is cyclic and over `β[..s]` is not (and never latches on
//!   an acyclic β);
//! * GC on and GC off latch at the same stamp.
//!
//! The corpus: planted two-node, three-node and inner-parent cycles and
//! their clean variants, 200 seeded engine runs on 1–4 threads, and 120
//! seeded chaos-simulator runs (no concurrency control, so many of them
//! are cyclic), some with aborts and orphan activity.

use nt_engine::{run_workload, EngineConfig};
use nt_model::{Action, Op, TxId, TxTree, Value};
use nt_serial::{ObjectTypes, RwRegister};
use nt_sgt::{build_sg, check_serial_correctness, ConflictSource};
use nt_sgt_live::{certify_recorded, SgtConfig, SgtMaintainer};
use nt_sim::{run_generic, OpMix, Protocol, SimConfig, WorkloadSpec};
use std::sync::Arc;

/// The stamp at which a fresh maintainer latches a violation on `beta`.
fn latch(tree: &TxTree, beta: &[Action], gc: bool) -> Option<usize> {
    let mut m = SgtMaintainer::new(SgtConfig { gc });
    m.seed_tree(tree);
    for (s, a) in beta.iter().enumerate() {
        m.apply(s as u64, a);
        if !m.ok() {
            return Some(s);
        }
    }
    None
}

fn acyclic(tree: &TxTree, beta: &[Action]) -> bool {
    build_sg(tree, beta, ConflictSource::ReadWrite).is_acyclic()
}

/// Every check of the module docs on one history; returns whether the
/// maintainer latched.
fn holds_to_the_oracle(what: &str, tree: &TxTree, beta: &[Action]) -> bool {
    let types = ObjectTypes::uniform(tree.num_objects(), Arc::new(RwRegister::new(0)));
    let oracle = check_serial_correctness(tree, beta, &types, ConflictSource::ReadWrite);
    let gate = certify_recorded(tree, beta, &types);
    assert_eq!(gate.verdict.name(), oracle.name(), "{what}: gate vs oracle");

    let on = latch(tree, beta, true);
    assert_eq!(on, latch(tree, beta, false), "{what}: GC on vs off");
    match on {
        None => assert!(acyclic(tree, beta), "{what}: missed a cycle"),
        Some(s) => {
            assert!(!acyclic(tree, &beta[..=s]), "{what}: false cycle at {s}");
            assert!(acyclic(tree, &beta[..s]), "{what}: latched late at {s}");
        }
    }
    on.is_some()
}

/// Two tops crossing on `x` and `y` (`a` writes `x`, reads `y`; `b`
/// writes `y`, reads `x`), accesses in `order`, then `a` commits and `b`
/// commits or aborts. No `CREATE`s: the graph stage alone decides.
fn crossed(order: [usize; 4], b_commits: bool) -> (TxTree, Vec<Action>) {
    let mut tree = TxTree::new();
    let (x, y) = (tree.add_object(), tree.add_object());
    let (a, b) = (tree.add_inner(TxId::ROOT), tree.add_inner(TxId::ROOT));
    let acc = [
        (tree.add_access(a, x, Op::Write(1)), Value::Ok),
        (tree.add_access(b, y, Op::Write(2)), Value::Ok),
        (tree.add_access(b, x, Op::Read), Value::Int(1)),
        (tree.add_access(a, y, Op::Read), Value::Int(2)),
    ];
    let mut beta = vec![Action::RequestCreate(a), Action::RequestCreate(b)];
    for i in order {
        let (u, v) = acc[i].clone();
        beta.extend([Action::RequestCommit(u, v), Action::Commit(u)]);
    }
    beta.push(Action::Commit(a));
    beta.push(if b_commits {
        Action::Commit(b)
    } else {
        Action::Abort(b)
    });
    (tree, beta)
}

/// Three tops in a ring: a→b on `x`, b→c on `y`, c→a on `z`.
fn ring() -> (TxTree, Vec<Action>) {
    let mut tree = TxTree::new();
    let (x, y, z) = (tree.add_object(), tree.add_object(), tree.add_object());
    let [a, b, c] = [(); 3].map(|_| tree.add_inner(TxId::ROOT));
    let steps = [
        (tree.add_access(a, x, Op::Write(1)), Value::Ok),
        (tree.add_access(b, x, Op::Read), Value::Int(1)),
        (tree.add_access(b, y, Op::Write(2)), Value::Ok),
        (tree.add_access(c, y, Op::Read), Value::Int(2)),
        (tree.add_access(c, z, Op::Write(3)), Value::Ok),
        (tree.add_access(a, z, Op::Read), Value::Int(3)),
    ];
    let mut beta = vec![Action::RequestCreate(a), Action::RequestCreate(b)];
    for (u, v) in steps {
        beta.extend([Action::RequestCommit(u, v), Action::Commit(u)]);
    }
    beta.extend([a, b, c].map(Action::Commit));
    (tree, beta)
}

/// Two children of one top conflicting both ways on `x` and `y`.
fn inner_cycle() -> (TxTree, Vec<Action>) {
    let mut tree = TxTree::new();
    let (x, y) = (tree.add_object(), tree.add_object());
    let a = tree.add_inner(TxId::ROOT);
    let (a1, a2) = (tree.add_inner(a), tree.add_inner(a));
    let steps = [
        tree.add_access(a1, x, Op::Write(1)),
        tree.add_access(a2, x, Op::Write(2)),
        tree.add_access(a2, y, Op::Write(4)),
        tree.add_access(a1, y, Op::Write(3)),
    ];
    let mut beta = Vec::new();
    for u in steps {
        beta.extend([Action::RequestCommit(u, Value::Ok), Action::Commit(u)]);
    }
    beta.extend([a1, a2, a].map(Action::Commit));
    (tree, beta)
}

/// The root's reported frontier must keep a top that reported after a
/// concurrent top was created: `t1` and `t2` overlap, so `t2`'s report
/// does not put `t1` behind it, and `t3`, created after both reports,
/// needs the precedes edge from `t1` that closes `t1 → t3 → x → t1`
/// (`x` reads `y` before `t1` writes it, and reads `z` after `t3` writes
/// it).
fn frontier_keeps_an_overlapping_reporter() -> (TxTree, Vec<Action>) {
    let mut tree = TxTree::new();
    let (y, z) = (tree.add_object(), tree.add_object());
    let [x, t1, t2, t3] = [(); 4].map(|_| tree.add_inner(TxId::ROOT));
    let xy = tree.add_access(x, y, Op::Read);
    let t1y = tree.add_access(t1, y, Op::Write(1));
    let t3z = tree.add_access(t3, z, Op::Write(3));
    let xz = tree.add_access(x, z, Op::Read);
    let mut beta = vec![
        Action::RequestCreate(x),
        Action::RequestCreate(t1),
        Action::RequestCreate(t2),
    ];
    let access = |u: TxId, v: Value| [Action::RequestCommit(u, v), Action::Commit(u)];
    let commit = |t: TxId| {
        [
            Action::RequestCommit(t, Value::Ok),
            Action::Commit(t),
            Action::ReportCommit(t, Value::Ok),
        ]
    };
    beta.extend(access(xy, Value::Int(0)));
    beta.extend(access(t1y, Value::Ok));
    beta.extend(commit(t1));
    beta.extend(commit(t2));
    beta.push(Action::RequestCreate(t3));
    beta.extend(access(t3z, Value::Ok));
    beta.extend(commit(t3));
    beta.extend(access(xz, Value::Int(3)));
    beta.extend(commit(x));
    (tree, beta)
}

#[test]
fn planted_histories_latch_where_the_oracle_turns_cyclic() {
    let cases = [
        ("crossed 2-cycle", crossed([0, 1, 2, 3], true), true),
        ("crossed, b aborted", crossed([0, 1, 2, 3], false), false),
        ("crossed, serial order", crossed([0, 2, 3, 1], true), false),
        ("crossed, other order", crossed([1, 0, 3, 2], true), true),
        ("3-ring", ring(), true),
        ("inner 2-cycle", inner_cycle(), true),
        (
            "overlapping reporters",
            frontier_keeps_an_overlapping_reporter(),
            true,
        ),
    ];
    for (what, (tree, beta), cyclic) in cases {
        assert_eq!(holds_to_the_oracle(what, &tree, &beta), cyclic, "{what}");
    }
}

/// 200 seeded engine runs on 1–4 threads: every one certifies, and the
/// maintainer agrees with the oracle stamp for stamp.
#[test]
fn seeded_engine_runs_hold_to_the_oracle() {
    for seed in 0..200u64 {
        let w = WorkloadSpec {
            top_level: 6 + (seed as usize % 5) * 3,
            objects: 2 + (seed as usize % 5),
            hotspot: 0.2 + 0.1 * (seed % 6) as f64,
            max_depth: 1 + (seed as u32 % 3),
            sequential_prob: 0.2 * (seed % 4) as f64,
            seed: 5000 + seed,
            ..WorkloadSpec::default()
        }
        .generate();
        let cfg = EngineConfig {
            threads: 1 + (seed as usize % 4),
            ..EngineConfig::default()
        };
        let r = run_workload(&w, &cfg).expect("engine runs");
        let latched = holds_to_the_oracle(&format!("engine seed {seed}"), &r.tree, &r.history);
        assert!(
            !latched,
            "engine seed {seed}: Moss locking let a cycle through"
        );
    }
}

/// 120 seeded chaos runs: no concurrency control, so many close cycles;
/// the maintainer must latch at exactly the action that closes the first.
#[test]
fn seeded_chaos_runs_latch_where_the_oracle_turns_cyclic() {
    let mut latched = 0;
    for seed in 0..120u64 {
        let spec = WorkloadSpec {
            seed: 9000 + seed,
            top_level: 6 + (seed as usize % 4) * 3,
            objects: 2 + (seed as usize % 3),
            hotspot: 0.5,
            max_depth: seed as u32 % 3,
            sequential_prob: 0.25 * (seed % 3) as f64,
            orphan_activity: seed % 5 == 0,
            mix: OpMix::ReadWrite { read_ratio: 0.5 },
            ..WorkloadSpec::default()
        };
        let mut w = spec.generate();
        let cfg = SimConfig {
            seed,
            abort_prob: if seed % 3 == 0 { 0.02 } else { 0.0 },
            ..SimConfig::default()
        };
        let r = run_generic(&mut w, Protocol::Chaos, &cfg);
        latched += usize::from(holds_to_the_oracle(
            &format!("chaos seed {seed}"),
            &w.tree,
            &r.trace,
        ));
    }
    assert!(latched >= 20, "only {latched} of 120 chaos runs cycled");
}

/// One step of a session in [`sessions_history`].
enum Step {
    Begin,
    Access { parent_depth: usize, write: bool },
    End { commit: bool },
}

/// A history of `sessions` clients, each running `tops` tops one after
/// another with no concurrency control, their steps interleaved at
/// random: every top is reported before its session creates the next, so
/// root precedes edges chain each session's tops while conflicts cross
/// between sessions and close cycles. Some tops nest a child and some
/// abort.
fn sessions_history(
    seed: u64,
    sessions: usize,
    tops: usize,
    objects: u32,
) -> (TxTree, Vec<Action>) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let mut tree = TxTree::new();
    for _ in 0..objects {
        tree.add_object();
    }
    // Per session: the open chain (top, then maybe a child), tops left.
    let mut open: Vec<Vec<TxId>> = vec![Vec::new(); sessions];
    let mut left = vec![tops; sessions];
    let mut beta = Vec::new();
    while left.iter().any(|&l| l > 0) {
        let s = next(sessions as u64) as usize;
        if left[s] == 0 {
            continue;
        }
        let step = match open[s].len() {
            0 => Step::Begin,
            _ if next(5) == 0 => Step::End {
                commit: next(6) != 0,
            },
            depth => Step::Access {
                parent_depth: next(depth as u64 + u64::from(depth < 2)) as usize,
                write: next(2) == 0,
            },
        };
        match step {
            Step::Begin => {
                let t = tree.add_inner(TxId::ROOT);
                beta.extend([Action::RequestCreate(t), Action::Create(t)]);
                open[s].push(t);
            }
            Step::Access { parent_depth, .. } if parent_depth == open[s].len() => {
                let t = tree.add_inner(*open[s].last().expect("open"));
                beta.extend([Action::RequestCreate(t), Action::Create(t)]);
                open[s].push(t);
            }
            Step::Access {
                parent_depth,
                write,
            } => {
                let x = nt_model::ObjId(next(u64::from(objects)) as u32);
                let (op, v) = if write {
                    (Op::Write(1), Value::Ok)
                } else {
                    (Op::Read, Value::Int(next(3) as i64))
                };
                let u = tree.add_access(open[s][parent_depth], x, op);
                beta.extend([
                    Action::RequestCreate(u),
                    Action::Create(u),
                    Action::RequestCommit(u, v.clone()),
                    Action::Commit(u),
                    Action::ReportCommit(u, v),
                ]);
            }
            Step::End { commit } => {
                let t = open[s].pop().expect("open");
                if commit {
                    beta.extend([
                        Action::RequestCommit(t, Value::Ok),
                        Action::Commit(t),
                        Action::ReportCommit(t, Value::Ok),
                    ]);
                } else {
                    beta.extend([Action::Abort(t), Action::ReportAbort(t)]);
                }
                left[s] -= usize::from(open[s].is_empty());
            }
        }
    }
    (tree, beta)
}

/// 1,200 interleaved session histories: the root precedes frontier, the
/// conflict edges it makes redundant, and out-of-order resolution all
/// meet cycles here.
#[test]
fn interleaved_sessions_latch_where_the_oracle_turns_cyclic() {
    let mut latched = 0;
    for seed in 0..1200u64 {
        let sessions = 2 + seed as usize % 2;
        let tops = 3 + seed as usize % 4;
        let objects = 1 + (seed % 3) as u32;
        let (tree, beta) = sessions_history(seed, sessions, tops, objects);
        latched += usize::from(holds_to_the_oracle(
            &format!("sessions seed {seed}"),
            &tree,
            &beta,
        ));
    }
    assert!(
        latched >= 200,
        "only {latched} of 1200 session histories cycled"
    );
}
