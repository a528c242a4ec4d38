//! Static soundness analyzer for the workspace.
//!
//! ```text
//! nt-lint [--json] [--plant-defect] [--plant-cycle]
//!         [types|workloads|plans|engine|net|analyze|store|sgt|all]
//!         [plan.json ...] [config.engine.json ...] [config.net.json ...]
//!         [plan.access.json ...] [plan.crash.json ...] [FILE.wal ...]
//!         [FILE.ckpt ...] [FILE.sgt.json ...]
//! ```
//!
//! * `types` — certify the declared commutativity relation of every shipped
//!   serial type against the backward-commutativity definition over a
//!   bounded exhaustive domain.
//! * `workloads` — statically lint a representative matrix of workload
//!   specs and their generated script/tree artifacts against the protocols
//!   that run them.
//! * `plans` — semantically lint fault-plan repro cards: the shipped
//!   campaign library always, plus any plan JSON files given as arguments.
//! * `engine` — semantically lint threaded-engine configurations: the
//!   shipped presets always, plus any `*.engine.json` files given as
//!   arguments (threads ≥ 1, coherent backoff/watchdog wiring).
//! * `net` — semantically lint networked-server and load-driver
//!   configurations: the shipped defaults always, plus any `*.net.json`
//!   files given as arguments (serviceable queue/capacity/frame limits,
//!   coherent transport fault plans, probabilities that are
//!   probabilities, live timeouts).
//! * `analyze` — static serializability and lock-order analysis: build the
//!   potential conflict graph of every `*.access.json` plan given as an
//!   argument and error with ranked potential-cycle witnesses unless the
//!   plan is serializable under **all** schedules; also sweep the workload
//!   matrix advisorily (the engine certifies those dynamically) and flag
//!   reversed lock-acquisition orders between tops.
//! * `store` — durable-store artifacts: the shipped crash-campaign plans
//!   always, plus any `*.crash.json` plans and `*.wal` / `*.ckpt` log
//!   files given as arguments (CRC-checked frame stream, header role and
//!   generation, torn tails flagged with their truncation offset).
//! * `sgt` — exported serialization-graph documents: the live
//!   maintainer's own snapshot always (self-check), plus any `*.sgt.json`
//!   violation/snapshot/cert documents given as arguments, validated
//!   against their schemas.
//! * `all` (default) — everything.
//!
//! `--json` emits a machine-readable report. `--plant-defect` injects a
//! deliberately unsound fixture type into the analyzed set — a self-check
//! that the analyzer still detects planted defects (used by the golden
//! tests; must make the exit code nonzero). `--plant-cycle` does the same
//! for the static serializability pass with a guaranteed-cyclic plan, and
//! for the `sgt` pass drives a guaranteed-cyclic history through a real
//! live maintainer (detection is reported as an error, so the run exits
//! nonzero; a *missed* cycle is its own, worse error).
//!
//! Exit codes: 0 = no errors, 1 = at least one error-severity finding,
//! 2 = usage error.

use nt_lint::selftest::BrokenCounter;
use nt_lint::{
    analyze, engine, lockorder, net, plan, sgt, soundness, store, workload, Finding, Report,
    Severity, SoundnessConfig, StaticPlan,
};
use nt_locking::LockMode;
use nt_serial::SerialType;
use nt_sim::{OpMix, Protocol, WorkloadSpec};
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq)]
enum Pass {
    All,
    Types,
    Workloads,
    Plans,
    Engine,
    Net,
    Analyze,
    Store,
    Sgt,
}

fn usage(program: &str) {
    eprintln!(
        "usage: {program} [--json] [--plant-defect] [--plant-cycle] \
         [types|workloads|plans|engine|net|analyze|store|sgt|all] \
         [plan.json ...] [config.engine.json ...] [config.net.json ...] \
         [plan.access.json ...] [plan.crash.json ...] [FILE.wal ...] [FILE.ckpt ...] \
         [FILE.sgt.json ...]"
    );
}

/// The analyzed workload matrix: every mix under every protocol that is
/// supposed to run it (mirroring the experiment suite in `nt-bench`).
fn workload_matrix() -> Vec<(&'static str, WorkloadSpec, Protocol)> {
    let rw = |seed| WorkloadSpec {
        mix: OpMix::ReadWrite { read_ratio: 0.5 },
        seed,
        ..WorkloadSpec::default()
    };
    let with_mix = |mix, seed| WorkloadSpec {
        mix,
        seed,
        ..WorkloadSpec::default()
    };
    vec![
        ("moss-rw", rw(1), Protocol::Moss(LockMode::ReadWrite)),
        ("moss-exclusive", rw(2), Protocol::Moss(LockMode::Exclusive)),
        ("mvto-rw", rw(3), Protocol::Mvto),
        ("certifier-rw", rw(4), Protocol::Certifier),
        ("chaos-rw", rw(5), Protocol::Chaos),
        ("undo-rw", rw(6), Protocol::Undo),
        (
            "undo-counter",
            with_mix(OpMix::Counter { read_ratio: 0.2 }, 7),
            Protocol::Undo,
        ),
        (
            "undo-account",
            with_mix(OpMix::Account { read_ratio: 0.2 }, 8),
            Protocol::Undo,
        ),
        ("undo-intset", with_mix(OpMix::IntSet, 9), Protocol::Undo),
        ("undo-queue", with_mix(OpMix::Queue, 10), Protocol::Undo),
        ("undo-kvmap", with_mix(OpMix::KvMap, 11), Protocol::Undo),
        (
            "deep-sequential",
            WorkloadSpec {
                max_depth: 3,
                subtx_prob: 0.6,
                sequential_prob: 0.8,
                seed: 12,
                ..WorkloadSpec::default()
            },
            Protocol::Moss(LockMode::ReadWrite),
        ),
        (
            "hotspot-certifier",
            WorkloadSpec {
                hotspot: 0.8,
                seed: 13,
                ..WorkloadSpec::default()
            },
            Protocol::Certifier,
        ),
    ]
}

fn run_types(report: &mut Report, plant_defect: bool) {
    let mut types: Vec<(&'static str, Arc<dyn SerialType>)> = nt_datatypes::all_types();
    if plant_defect {
        types.push(("broken-counter", Arc::new(BrokenCounter)));
    }
    let cfg = SoundnessConfig::default();
    for (_, ty) in &types {
        let tr = soundness::analyze_type(ty.as_ref(), &cfg);
        report.extend(soundness::findings(&tr));
    }
}

fn run_workloads(report: &mut Report) {
    for (name, spec, protocol) in workload_matrix() {
        report.extend(workload::lint_spec(name, &spec));
        let generated = spec.generate();
        report.extend(workload::lint_generated(name, &generated, protocol));
    }
}

fn run_plans(report: &mut Report, files: &[String]) {
    // The shipped campaign library must itself be well-formed.
    for p in nt_faults::FaultPlan::library(0) {
        report.extend(plan::lint_plan(&format!("library/{}", p.name), &p));
    }
    for path in files {
        match std::fs::read_to_string(path) {
            Ok(doc) => report.extend(plan::lint_plan_json(path, &doc)),
            Err(e) => report.push(Finding::new(
                Severity::Error,
                "plan",
                format!("plan {path}"),
                format!("cannot read plan file: {e}"),
            )),
        }
    }
}

fn run_net(report: &mut Report, files: &[String]) {
    // The shipped defaults must themselves be well-formed.
    report.extend(net::lint_defaults());
    for path in files {
        match std::fs::read_to_string(path) {
            Ok(doc) => report.extend(net::lint_config_json(path, &doc)),
            Err(e) => report.push(Finding::new(
                Severity::Error,
                "net",
                format!("net {path}"),
                format!("cannot read net config file: {e}"),
            )),
        }
    }
}

fn run_engine(report: &mut Report, files: &[String]) {
    // The shipped presets must themselves be well-formed.
    report.extend(engine::lint_presets());
    for path in files {
        match std::fs::read_to_string(path) {
            Ok(doc) => report.extend(engine::lint_config_json(path, &doc)),
            Err(e) => report.push(Finding::new(
                Severity::Error,
                "engine",
                format!("engine {path}"),
                format!("cannot read engine config file: {e}"),
            )),
        }
    }
}

fn run_store(report: &mut Report, crash_files: &[String], log_files: &[String]) {
    // The shipped crash plans must themselves be well-formed.
    report.extend(store::lint_defaults());
    for path in crash_files {
        match std::fs::read_to_string(path) {
            Ok(doc) => report.extend(store::lint_crash_plan_json(path, &doc)),
            Err(e) => report.push(Finding::new(
                Severity::Error,
                "store",
                format!("crash plan {path}"),
                format!("cannot read crash plan file: {e}"),
            )),
        }
    }
    for path in log_files {
        match std::fs::read(path) {
            Ok(bytes) => report.extend(store::lint_log_bytes(path, &bytes)),
            Err(e) => report.push(Finding::new(
                Severity::Error,
                "store",
                format!("log {path}"),
                format!("cannot read log file: {e}"),
            )),
        }
    }
}

fn run_sgt(report: &mut Report, files: &[String], plant_cycle: bool) {
    // The maintainer's own exported documents must lint clean.
    report.extend(sgt::lint_defaults());
    if plant_cycle {
        report.extend(sgt::planted_cycle_selftest());
    }
    for path in files {
        match std::fs::read_to_string(path) {
            Ok(doc) => report.extend(sgt::lint_sgt_json(path, &doc)),
            Err(e) => report.push(Finding::new(
                Severity::Error,
                "sgt",
                format!("sgt {path}"),
                format!("cannot read sgt document: {e}"),
            )),
        }
    }
}

fn run_analyze(report: &mut Report, files: &[String], plant_cycle: bool) {
    // Advisory sweep of the workload matrix: the engine certifies those
    // runs dynamically, so a potential cycle is context, not a defect.
    for (name, spec, _) in workload_matrix() {
        let w = spec.generate();
        let sp = StaticPlan::from_workload(name, &w);
        let a = analyze::analyze(&sp);
        let msg = if a.certified() {
            format!(
                "statically serializable under all schedules: {} accesses, {} potential conflict pair(s)",
                a.accesses,
                a.edges.len()
            )
        } else {
            let first = a
                .witnesses
                .first()
                .map(analyze::CycleWitness::describe)
                .unwrap_or_default();
            format!(
                "{} potential cycle component(s) over {} conflict pair(s); dynamic certification required; e.g. {}",
                a.cyclic.len(),
                a.edges.len(),
                first
            )
        };
        report.push(Finding::new(
            Severity::Info,
            "analyze",
            format!("workload {name}"),
            msg,
        ));
        report.extend(lockorder::lint_lock_order(&sp));
    }
    if plant_cycle {
        // Self-check: the analyzer must flag a guaranteed potential cycle.
        report.extend(analyze::lint_static_plan(
            &nt_lint::selftest::planted_cycle_plan(),
        ));
    }
    // Explicit `.access.json` plans are admission requests: a potential
    // cycle is an error with ranked witnesses.
    for path in files {
        match std::fs::read_to_string(path) {
            Ok(doc) => match nt_lint::parse_access_plan(&doc) {
                Ok(sp) => {
                    report.extend(analyze::lint_static_plan(&sp));
                    report.extend(lockorder::lint_lock_order(&sp));
                }
                Err(e) => report.push(Finding::new(
                    Severity::Error,
                    "analyze",
                    format!("plan {path}"),
                    format!("invalid access plan: {e}"),
                )),
            },
            Err(e) => report.push(Finding::new(
                Severity::Error,
                "analyze",
                format!("plan {path}"),
                format!("cannot read access plan: {e}"),
            )),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let program = args.first().map(String::as_str).unwrap_or("nt-lint");
    let mut json = false;
    let mut plant_defect = false;
    let mut plant_cycle = false;
    let mut pass = Pass::All;
    let mut plan_files: Vec<String> = Vec::new();
    let mut engine_files: Vec<String> = Vec::new();
    let mut net_files: Vec<String> = Vec::new();
    let mut access_files: Vec<String> = Vec::new();
    let mut crash_files: Vec<String> = Vec::new();
    let mut log_files: Vec<String> = Vec::new();
    let mut sgt_files: Vec<String> = Vec::new();
    for arg in &args[1..] {
        match arg.as_str() {
            "--json" => json = true,
            "--plant-defect" => plant_defect = true,
            "--plant-cycle" => plant_cycle = true,
            "types" => pass = Pass::Types,
            "workloads" => pass = Pass::Workloads,
            "plans" => pass = Pass::Plans,
            "engine" => pass = Pass::Engine,
            "net" => pass = Pass::Net,
            "analyze" => pass = Pass::Analyze,
            "store" => pass = Pass::Store,
            "sgt" => pass = Pass::Sgt,
            "all" => pass = Pass::All,
            "--help" | "-h" => {
                usage(program);
                return ExitCode::SUCCESS;
            }
            other if other.ends_with(".access.json") && !other.starts_with('-') => {
                access_files.push(other.to_string());
            }
            other if other.ends_with(".sgt.json") && !other.starts_with('-') => {
                sgt_files.push(other.to_string());
            }
            other if other.ends_with(".engine.json") && !other.starts_with('-') => {
                engine_files.push(other.to_string());
            }
            other if other.ends_with(".net.json") && !other.starts_with('-') => {
                net_files.push(other.to_string());
            }
            other if other.ends_with(".crash.json") && !other.starts_with('-') => {
                crash_files.push(other.to_string());
            }
            other
                if (other.ends_with(".wal") || other.ends_with(".ckpt"))
                    && !other.starts_with('-') =>
            {
                log_files.push(other.to_string());
            }
            other if other.ends_with(".json") && !other.starts_with('-') => {
                plan_files.push(other.to_string());
            }
            other => {
                eprintln!("{program}: unknown argument {other:?}");
                usage(program);
                return ExitCode::from(2);
            }
        }
    }
    let mut report = Report::new();
    if pass == Pass::All || pass == Pass::Types {
        run_types(&mut report, plant_defect);
    }
    if pass == Pass::All || pass == Pass::Workloads {
        run_workloads(&mut report);
    }
    if pass == Pass::All || pass == Pass::Plans {
        run_plans(&mut report, &plan_files);
    }
    if pass == Pass::All || pass == Pass::Engine {
        run_engine(&mut report, &engine_files);
    }
    if pass == Pass::All || pass == Pass::Net {
        run_net(&mut report, &net_files);
    }
    if pass == Pass::All || pass == Pass::Analyze {
        run_analyze(&mut report, &access_files, plant_cycle);
    }
    if pass == Pass::All || pass == Pass::Store {
        run_store(&mut report, &crash_files, &log_files);
    }
    if pass == Pass::All || pass == Pass::Sgt {
        run_sgt(&mut report, &sgt_files, plant_cycle);
    }
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    ExitCode::from(report.exit_code())
}
