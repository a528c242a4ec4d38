//! Precision harness for the static serializability analyzer
//! (`nt-lint`'s `analyze` pass), experiment E17.
//!
//! Sweeps a corpus of workload shapes — partitioned, hotspot-contended,
//! nested-parallel, nested-sequential, plus the planted-cycle golden
//! plan — through the potential conflict graph analysis, then measures
//! both sides of the analyzer's contract:
//!
//! * **soundness** — every plan certified "statically serializable under
//!   all schedules" is run on the multi-threaded engine and its recorded
//!   history must certify with zero Theorem 17 violations;
//! * **precision** — every flagged potential-cycle witness is handed to
//!   the witness-validation harness, which synthesizes a concrete
//!   schedule from the witness's orientation constraints and reports
//!   whether the Theorem 8/19 checker judges it cyclic (a *reproduced*
//!   witness is a true positive, not an artifact of over-approximation).
//!
//! Results land in `BENCH_analyze.json`.
//!
//! ```sh
//! cargo run --release -p nt-bench --bin analyze_bench            # sweep
//! cargo run --release -p nt-bench --bin analyze_bench -- --smoke # CI gate
//! ```

use nt_engine::{run_plan, EngineConfig, EnginePlan};
use nt_lint::analyze::{analyze, validate_witness};
use nt_lint::{selftest, StaticPlan};
use nt_obs::json::JsonObj;
use nt_obs::SmokeLine;
use nt_sim::WorkloadSpec;

/// One corpus group: a workload shape swept over several seeds.
struct Group {
    name: &'static str,
    specs: Vec<WorkloadSpec>,
    planted: Vec<StaticPlan>,
}

fn corpus() -> Vec<Group> {
    let seeds = 0..6u64;
    vec![
        Group {
            name: "flat-partitioned",
            specs: seeds
                .clone()
                .map(|seed| WorkloadSpec {
                    objects: 8,
                    top_level: 8,
                    max_depth: 0,
                    subtx_prob: 0.0,
                    object_partitions: 8,
                    seed,
                    ..WorkloadSpec::default()
                })
                .collect(),
            planted: Vec::new(),
        },
        Group {
            name: "flat-hotspot",
            specs: seeds
                .clone()
                .map(|seed| WorkloadSpec {
                    objects: 4,
                    top_level: 6,
                    max_depth: 0,
                    subtx_prob: 0.0,
                    hotspot: 0.8,
                    seed,
                    ..WorkloadSpec::default()
                })
                .collect(),
            planted: Vec::new(),
        },
        Group {
            name: "nested-parallel",
            specs: seeds
                .clone()
                .map(|seed| WorkloadSpec {
                    objects: 6,
                    top_level: 6,
                    max_depth: 2,
                    subtx_prob: 0.6,
                    sequential_prob: 0.0,
                    seed,
                    ..WorkloadSpec::default()
                })
                .collect(),
            planted: Vec::new(),
        },
        Group {
            name: "nested-sequential",
            specs: seeds
                .map(|seed| WorkloadSpec {
                    objects: 6,
                    top_level: 6,
                    max_depth: 2,
                    subtx_prob: 0.6,
                    sequential_prob: 1.0,
                    seed,
                    ..WorkloadSpec::default()
                })
                .collect(),
            planted: Vec::new(),
        },
        Group {
            name: "planted",
            specs: Vec::new(),
            planted: vec![selftest::planted_cycle_plan()],
        },
    ]
}

#[derive(Default)]
struct Row {
    name: &'static str,
    plans: usize,
    certified: usize,
    flagged: usize,
    witnesses: usize,
    realizable: usize,
    reproduced: usize,
    confirmed_plans: usize,
    engine_runs: usize,
    engine_violations: usize,
}

impl Row {
    fn precision(&self) -> f64 {
        if self.witnesses == 0 {
            1.0
        } else {
            self.reproduced as f64 / self.witnesses as f64
        }
    }

    fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("group", self.name)
            .num("plans", self.plans as u64)
            .num("certified", self.certified as u64)
            .num("flagged", self.flagged as u64)
            .num("witnesses", self.witnesses as u64)
            .num("realizable", self.realizable as u64)
            .num("reproduced", self.reproduced as u64)
            .num("confirmed_plans", self.confirmed_plans as u64)
            .float("witness_precision", self.precision())
            .num("engine_runs", self.engine_runs as u64)
            .num("engine_violations", self.engine_violations as u64);
        o.build()
    }
}

/// Analyze one plan, validating witnesses when flagged and engine-running
/// when certified (only possible for plans backed by a workload).
fn measure(row: &mut Row, sp: &StaticPlan, engine_plan: Option<&EnginePlan>) {
    row.plans += 1;
    let a = analyze(sp);
    if a.certified() {
        row.certified += 1;
        if let Some(plan) = engine_plan {
            let cfg = EngineConfig {
                threads: 8,
                ..EngineConfig::default()
            };
            let report = run_plan(plan, &cfg).expect("engine run");
            row.engine_runs += 1;
            row.engine_violations += report.certify().violations;
        }
        return;
    }
    row.flagged += 1;
    let mut any = false;
    for w in &a.witnesses {
        row.witnesses += 1;
        let v = validate_witness(sp, w);
        if v.realizable {
            row.realizable += 1;
        }
        if v.reproduced {
            row.reproduced += 1;
            any = true;
        }
    }
    if any {
        row.confirmed_plans += 1;
    }
}

fn run_group(g: &Group) -> Row {
    let mut row = Row {
        name: g.name,
        ..Row::default()
    };
    for spec in &g.specs {
        let w = spec.generate();
        let sp = StaticPlan::from_workload(g.name, &w);
        let ep = EnginePlan::from_workload(&w);
        measure(&mut row, &sp, Some(&ep));
    }
    for sp in &g.planted {
        measure(&mut row, sp, None);
    }
    println!(
        "| {:17} | {:5} | {:9} | {:7} | {:9} | {:10} | {:10} | {:9.2} | {:11} |",
        row.name,
        row.plans,
        row.certified,
        row.flagged,
        row.witnesses,
        row.realizable,
        row.reproduced,
        row.precision(),
        row.engine_violations,
    );
    row
}

fn smoke() {
    // The CI gate: the planted plan must be flagged and reproduce, and
    // one partitioned workload must certify and stay engine-sound.
    let planted = selftest::planted_cycle_plan();
    let a = analyze(&planted);
    assert!(!a.certified(), "planted cycle must be flagged");
    let v = validate_witness(&planted, &a.witnesses[0]);
    assert!(
        v.reproduced,
        "planted witness must reproduce (got {})",
        v.verdict
    );

    let spec = WorkloadSpec {
        objects: 8,
        top_level: 8,
        max_depth: 0,
        subtx_prob: 0.0,
        object_partitions: 8,
        seed: 1,
        ..WorkloadSpec::default()
    };
    let w = spec.generate();
    let sp = StaticPlan::from_workload("smoke", &w);
    assert!(analyze(&sp).certified(), "partitioned plan must certify");
    let report = run_plan(
        &EnginePlan::from_workload(&w),
        &EngineConfig {
            threads: 8,
            ..EngineConfig::default()
        },
    )
    .expect("engine run");
    let cert = report.certify();
    SmokeLine::new("analyze-bench-smoke")
        .num("planted_witnesses", a.witnesses.len() as u64)
        .bool("planted_reproduced", v.reproduced)
        .bool("certified_sound", cert.violations == 0)
        .emit();
    assert_eq!(
        cert.violations, 0,
        "certified plan failed engine certification"
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    println!(
        "| {:17} | {:5} | {:9} | {:7} | {:9} | {:10} | {:10} | {:9} | {:11} |",
        "group",
        "plans",
        "certified",
        "flagged",
        "witnesses",
        "realizable",
        "reproduced",
        "precision",
        "engine_viol"
    );
    println!(
        "|-------------------|-------|-----------|---------|-----------|------------|------------|-----------|-------------|"
    );
    let rows: Vec<Row> = corpus().iter().map(run_group).collect();
    let witnesses: usize = rows.iter().map(|r| r.witnesses).sum();
    let reproduced: usize = rows.iter().map(|r| r.reproduced).sum();
    let overall = if witnesses == 0 {
        1.0
    } else {
        reproduced as f64 / witnesses as f64
    };
    let mut doc = JsonObj::new();
    doc.str("benchmark", "analyze_bench")
        .num(
            "host_cores",
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        )
        .num("witnesses", witnesses as u64)
        .num("reproduced", reproduced as u64)
        .float("overall_witness_precision", overall)
        .raw(
            "rows",
            format!(
                "[{}]",
                rows.iter().map(Row::to_json).collect::<Vec<_>>().join(",")
            ),
        );
    std::fs::write("BENCH_analyze.json", doc.build()).expect("write BENCH_analyze.json");
    eprintln!("wrote BENCH_analyze.json ({} groups)", rows.len());

    // The analyzer's contract, enforced over the whole corpus.
    assert!(
        rows.iter().all(|r| r.engine_violations == 0),
        "a certified plan produced a non-serializable engine run"
    );
    let planted = rows.iter().find(|r| r.name == "planted").expect("group");
    assert!(
        planted.flagged == planted.plans && planted.reproduced >= 1,
        "the planted cycle must be flagged and reproduce"
    );
    assert!(
        rows.iter()
            .find(|r| r.name == "flat-partitioned")
            .expect("group")
            .certified
            > 0,
        "partitioned workloads must produce certified plans"
    );
}
