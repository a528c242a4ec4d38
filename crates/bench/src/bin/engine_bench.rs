//! Throughput harness for the threaded engine (`nt-engine`), experiment
//! E15.
//!
//! Sweeps worker-thread counts over two read/write workloads:
//!
//! * **partitioned** — the keyspace is split into disjoint partitions and
//!   top-level transactions are striped across them
//!   (`WorkloadSpec::object_partitions`), so conflicts are rare and
//!   scaling is limited mostly by the engine itself;
//! * **contended** — few objects plus a hotspot, so transactions conflict,
//!   block, deadlock, and retry.
//!
//! Accesses carry a simulated storage latency (`access_latency_us`),
//! making the workload latency-bound: throughput scales with threads when
//! the engine overlaps access latency across workers — a meaningful
//! measurement even on a single hardware core (this is the I/O-bound
//! regime real lock managers live in; CPU-bound scaling would additionally
//! need physical cores).
//!
//! Every run's recorded history is certified against Theorem 17 by the
//! post-hoc oracle (`nt_sgt::check_serial_correctness`), whose whole
//! `SG(β)` the `sg_nodes`/`sg_edges` columns count; a run that fails
//! certification fails the whole harness. Results land in
//! `BENCH_engine.json`.
//!
//! ```sh
//! cargo run --release -p nt-bench --bin engine_bench            # sweep
//! cargo run --release -p nt-bench --bin engine_bench -- --smoke # CI gate
//! ```

use nt_engine::{run_workload, EngineConfig, EngineReport};
use nt_obs::json::JsonObj;
use nt_obs::SmokeLine;
use nt_sgt::{check_serial_correctness, ConflictSource, Verdict};
use nt_sim::{Workload, WorkloadSpec};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn partitioned_spec() -> WorkloadSpec {
    WorkloadSpec {
        top_level: 32,
        objects: 32,
        object_partitions: 8,
        retry_attempts: 1,
        seed: 15,
        ..WorkloadSpec::default()
    }
}

fn contended_spec() -> WorkloadSpec {
    WorkloadSpec {
        top_level: 16,
        objects: 4,
        hotspot: 0.6,
        retry_attempts: 2,
        seed: 15,
        ..WorkloadSpec::default()
    }
}

fn preset(name: &str) -> EngineConfig {
    EngineConfig::presets()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("preset {name} exists"))
        .1
}

struct Row {
    workload: &'static str,
    threads: usize,
    report: EngineReport,
    certified: bool,
    sg_nodes: usize,
    sg_edges: usize,
}

impl Row {
    fn throughput(&self) -> f64 {
        self.report.committed_top as f64 / self.report.wall.as_secs_f64()
    }

    fn to_json(&self) -> String {
        let (p50, p95, p99) = self.report.top_latency.p50_p95_p99();
        let mut o = JsonObj::new();
        o.str("workload", self.workload)
            .num("threads", self.threads as u64)
            .float("wall_ms", self.report.wall.as_secs_f64() * 1e3)
            .num("committed_top", self.report.committed_top as u64)
            .num("aborted_top", self.report.aborted_top as u64)
            .num("deadlock_victims", self.report.victims.len() as u64)
            .num("lock_grants", self.report.stats.granted)
            .num("lock_blocks", self.report.stats.blocked)
            .num("timeout_rescues", self.report.stats.timeout_rescues)
            .float("throughput_tps", self.throughput())
            .num("top_us_p50", p50)
            .num("top_us_p95", p95)
            .num("top_us_p99", p99)
            .bool("certified", self.certified)
            .num("sg_nodes", self.sg_nodes as u64)
            .num("sg_edges", self.sg_edges as u64);
        o.build()
    }
}

/// The oracle's verdict on the run and the size of the `SG(β)` it built
/// (0 when it refused before its graph stage).
fn oracle(report: &EngineReport) -> (Verdict, usize, usize) {
    let (tree, types) = (&report.tree, &report.types);
    let v = check_serial_correctness(tree, &report.history, types, ConflictSource::ReadWrite);
    let (nodes, edges) = match &v {
        Verdict::SeriallyCorrect { graph, .. } | Verdict::Cyclic { graph, .. } => {
            (graph.node_count(), graph.edge_count())
        }
        _ => (0, 0),
    };
    (v, nodes, edges)
}

fn run_cell(workload: &'static str, w: &Workload, cfg: &EngineConfig) -> Row {
    let report = run_workload(w, cfg).expect("engine run");
    let (verdict, sg_nodes, sg_edges) = oracle(&report);
    let row = Row {
        workload,
        threads: cfg.threads,
        certified: verdict.is_serially_correct(),
        sg_nodes,
        sg_edges,
        report,
    };
    let (p50, p95, _) = row.report.top_latency.p50_p95_p99();
    println!(
        "| {:11} | {:7} | {:8.1} | {:9} | {:7} | {:7} | {:10.1} | {:7} | {:7} | {:9} |",
        row.workload,
        row.threads,
        row.report.wall.as_secs_f64() * 1e3,
        row.report.committed_top,
        row.report.aborted_top,
        row.report.victims.len(),
        row.throughput(),
        p50,
        p95,
        if row.certified { "acyclic" } else { "FAILED" },
    );
    assert!(
        row.certified,
        "{workload}@{} threads: recorded history failed certification: {}",
        cfg.threads,
        verdict.name()
    );
    row
}

fn smoke() {
    // The CI gate: one 4-thread contended run, certified, exit 0. Output
    // is one machine-readable JSON line (shared shape with the
    // analyze_bench and nt-load smokes).
    let w = contended_spec().generate();
    let cfg = EngineConfig {
        access_latency_us: 100,
        ..preset("ci-smoke")
    };
    let report = run_workload(&w, &cfg).expect("engine smoke run");
    let cert = report.certify();
    let (verdict, sg_nodes, sg_edges) = oracle(&report);
    SmokeLine::new("engine-smoke")
        .num("committed_top", report.committed_top as u64)
        .num("aborted_top", report.aborted_top as u64)
        .num("victims", report.victims.len() as u64)
        .num("actions", report.history.len() as u64)
        .num("sg_nodes", sg_nodes as u64)
        .num("sg_edges", sg_edges as u64)
        .percentiles("top_us", &report.top_latency)
        .bool(
            "serially_correct",
            cert.is_serially_correct() && verdict.is_serially_correct(),
        )
        .emit();
    assert!(!report.gave_up, "engine smoke run hit the watchdog");
    assert!(
        cert.is_serially_correct() && verdict.is_serially_correct(),
        "engine smoke run failed SGT certification"
    );
    assert!(
        report.committed_top > 0,
        "engine smoke run committed nothing"
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    println!(
        "| {:11} | {:7} | {:8} | {:9} | {:7} | {:7} | {:10} | {:7} | {:7} | {:9} |",
        "workload",
        "threads",
        "wall_ms",
        "committed",
        "aborted",
        "victims",
        "tput_tps",
        "p50_us",
        "p95_us",
        "SGT"
    );
    println!("|-------------|---------|----------|-----------|---------|---------|------------|---------|---------|-----------|");
    let mut rows: Vec<Row> = Vec::new();
    let partitioned = partitioned_spec().generate();
    for &threads in &THREAD_SWEEP {
        let cfg = EngineConfig {
            threads,
            ..preset("bench-partitioned")
        };
        rows.push(run_cell("partitioned", &partitioned, &cfg));
    }
    let contended = contended_spec().generate();
    for &threads in &THREAD_SWEEP {
        let cfg = EngineConfig {
            threads,
            ..preset("bench-contended")
        };
        rows.push(run_cell("contended", &contended, &cfg));
    }
    let tput = |workload: &str, threads: usize| {
        rows.iter()
            .find(|r| r.workload == workload && r.threads == threads)
            .expect("cell ran")
            .throughput()
    };
    let scaling = tput("partitioned", 4) / tput("partitioned", 1);
    println!("\npartitioned scaling 1→4 threads: {scaling:.2}x");
    let mut doc = JsonObj::new();
    doc.str("benchmark", "engine_bench")
        .num(
            "host_cores",
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        )
        .float("partitioned_scaling_1_to_4", scaling)
        .raw(
            "rows",
            format!(
                "[{}]",
                rows.iter().map(Row::to_json).collect::<Vec<_>>().join(",")
            ),
        );
    std::fs::write("BENCH_engine.json", doc.build()).expect("write BENCH_engine.json");
    eprintln!("wrote BENCH_engine.json ({} cells)", rows.len());
    assert!(
        scaling >= 2.0,
        "partitioned workload must scale ≥2x from 1 to 4 threads (got {scaling:.2}x)"
    );
}
