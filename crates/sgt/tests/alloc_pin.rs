//! What a certified action allocates, counted exactly.
//!
//! The maintainer keeps its per-top state in reused slots and finalizes
//! in scratch it owns, so once the window of resident tops has grown to
//! its size, stepping it allocates (almost) nothing. This binary installs
//! the counting allocator and replays a seeded 2,000-top engine history
//! through one maintainer: over the history's second half, allocations
//! per action must stay at or below 0.1, and below one per twenty
//! resolved tops — so a map or buffer built afresh at each finalization
//! (one allocation per top or more) fails it.

use nt_engine::{run_workload, EngineConfig};
use nt_model::{Action, TreeView, TxId};
use nt_sgt_live::SgtMaintainer;
use nt_sim::WorkloadSpec;

#[global_allocator]
static ALLOC: allocshim::Counting = allocshim::Counting;

#[test]
fn a_certified_action_allocates_nothing_in_steady_state() {
    let (v, counted) = allocshim::count(|| vec![0u8; 64]);
    assert_eq!(
        counted.allocations, 1,
        "the counting allocator is installed"
    );
    drop(v);

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
    let (tree, beta) = (&r.tree, &r.history);
    let half = beta.len() / 2;

    let mut m = SgtMaintainer::default();
    m.seed_tree(tree);
    for (s, a) in beta.iter().enumerate().take(half) {
        m.apply(s as u64, a);
    }
    let ((), counts) = allocshim::count(|| {
        for (s, a) in beta.iter().enumerate().skip(half) {
            m.apply(s as u64, a);
        }
    });
    assert!(m.ok(), "the history certifies");
    assert_eq!(m.processed(), beta.len() as u64);

    let actions = (beta.len() - half) as u64;
    let resolved = beta[half..]
        .iter()
        .filter(|a| {
            matches!(a, Action::Commit(t) | Action::Abort(t)
                if tree.parent(*t) == Some(TxId::ROOT))
        })
        .count() as u64;
    assert!(
        resolved > 900,
        "{resolved} tops resolved in the second half"
    );
    let per_action = counts.allocations as f64 / actions as f64;
    println!(
        "second half: {actions} actions, {resolved} tops resolved, {} allocations \
         ({per_action:.4} per action), {} bytes",
        counts.allocations, counts.bytes
    );
    assert!(
        per_action <= 0.1,
        "{per_action:.3} allocations per action over the second half"
    );
    assert!(
        counts.allocations * 20 < resolved,
        "{} allocations for {resolved} resolved tops: something allocates per top",
        counts.allocations
    );
}
