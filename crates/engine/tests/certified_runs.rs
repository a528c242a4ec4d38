//! The headline guarantee: every genuinely-concurrent contended run is
//! certified serially correct post-hoc. Ten seeds, eight worker threads,
//! a hot keyspace, retries enabled — zero violations tolerated.

use nt_engine::{run_plan, run_workload, EngineConfig, EnginePlan};
use nt_model::rw::RwInitials;
use nt_model::{Op, TxId, TxTree};
use nt_serial::{ObjectTypes, RwRegister};
use nt_sim::{ChildOrder, ScriptPlan, WorkloadSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

#[test]
fn ten_seeded_contended_eight_thread_runs_all_certify() {
    for seed in 0..10 {
        let w = WorkloadSpec {
            top_level: 12,
            objects: 3,
            hotspot: 0.6,
            retry_attempts: 2,
            seed,
            ..WorkloadSpec::default()
        }
        .generate();
        let cfg = EngineConfig {
            threads: 8,
            access_latency_us: 200,
            ..EngineConfig::default()
        };
        let r = run_workload(&w, &cfg).expect("engine run");
        assert!(!r.gave_up, "seed {seed}: watchdog must not fire");
        assert_eq!(
            r.committed_top + r.aborted_top,
            w.top.len(),
            "seed {seed}: every top-level slot must resolve"
        );
        assert!(r.committed_top > 0, "seed {seed}: something must commit");
        let cert = r.certify();
        assert_eq!(
            cert.violations,
            0,
            "seed {seed}: recorded history must certify acyclic, got {} \
             ({} actions, {} victims)",
            cert.verdict.name(),
            r.history.len(),
            r.victims.len()
        );
        // Every transaction the run grew — aborted attempts and replicas
        // included — instantiates a plan transaction of the same shape,
        // under the instance of that one's parent.
        for t in r.tree.all_tx().filter(|&t| t != TxId::ROOT) {
            let p = r.plan_ids[&t];
            let parent = r.tree.parent(t).expect("non-root");
            let plan_parent = r.plan_ids.get(&parent).copied().unwrap_or(TxId::ROOT);
            assert_eq!(w.tree.parent(p), Some(plan_parent), "seed {seed}: {t}");
            assert_eq!(r.tree.object_of(t), w.tree.object_of(p), "seed {seed}: {t}");
            assert_eq!(r.tree.op_of(t), w.tree.op_of(p), "seed {seed}: {t}");
        }
    }
}

/// FNV-1a over the history's `Debug` rendering.
fn digest(history: &[nt_model::Action]) -> u64 {
    format!("{history:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// One worker thread records one history: the same run twice gives the
/// same actions in the same order, and the same ones as when every
/// session and every lock shard kept a log of its own and the history
/// was their merge by stamp.
#[test]
fn a_one_thread_run_records_the_same_history_every_time() {
    let w = WorkloadSpec {
        top_level: 10,
        objects: 3,
        hotspot: 0.6,
        retry_attempts: 2,
        seed: 5,
        ..WorkloadSpec::default()
    }
    .generate();
    let cfg = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let first = run_workload(&w, &cfg).expect("engine run");
    let second = run_workload(&w, &cfg).expect("engine run");
    assert_eq!(first.history, second.history);
    assert_eq!(
        (first.history.len(), digest(&first.history)),
        (348, 15_048_903_711_418_455_335)
    );
}

/// The watchdog: two tops take x and y, sleep far past `max_wall_ms`, and
/// then want the other's object. The run is abandoned while they sleep —
/// every worker still returns, every slot resolves, and the history
/// certifies (aborted work is invisible to `T0`).
#[test]
fn watchdog_abandons_a_run_that_outlives_max_wall_ms() {
    let mut tree = TxTree::new();
    let (x, y) = (tree.add_object(), tree.add_object());
    let mut plans = BTreeMap::new();
    let top: Vec<TxId> = [(x, y), (y, x)]
        .into_iter()
        .map(|(first, second)| {
            let t = tree.add_inner(TxId::ROOT);
            let children = vec![
                tree.add_access(t, first, Op::Write(1)),
                tree.add_access(t, second, Op::Write(2)),
            ];
            let order = ChildOrder::Sequential;
            plans.insert(t, ScriptPlan { children, order });
            t
        })
        .collect();
    let plan = EnginePlan {
        tree: Arc::new(tree),
        plans,
        top,
        retry_chains: BTreeMap::new(),
        initials: RwInitials::uniform(0),
        types: ObjectTypes::uniform(2, Arc::new(RwRegister::new(0))),
    };
    let cfg = EngineConfig {
        threads: 2,
        access_latency_us: 50_000,
        max_wall_ms: 1,
        ..EngineConfig::default()
    };
    let r = run_plan(&plan, &cfg).expect("fixture runs");
    assert!(r.gave_up, "a 1 ms watchdog must fire under 50 ms accesses");
    assert_eq!(r.committed_top + r.aborted_top, plan.top.len());
    let cert = r.certify();
    assert!(cert.is_serially_correct(), "{}", cert.verdict.name());
}
