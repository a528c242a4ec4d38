//! `nt-benchmark`: the repository's end-to-end benchmark.
//!
//! One process measures one workload: it pins itself to one CPU, drives
//! the real `nt_net::NetServer` over loopback with its own closed-loop
//! client, brackets every short trial with a host reference op and reports
//! every timing as a multiple of it. Without `--workload` it runs every
//! workload, each in a child process of its own. See `README.md`.

mod drive;
mod gates;
mod harness;
mod host;
mod layers;
mod metrics;
mod report;
mod spans;
mod stats;
mod workloads;

use harness::{BenchError, RunCtx};
use metrics::{Values, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Workload, EPOCHS, NOMINAL_SECONDS, TOPS_PER_TRIAL};

const USAGE: &str = "\
nt-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
             [--repeat] [--runs R] [--list] [--no-pin]

  --workload NAME   measure one workload in this process and print the
                    result line (without it: every workload, one child each)
  --seed N          workload seed (default 7)
  --seconds S       run length the trial count is scaled to (default 24)
  --trace 1         the traced run: per-layer metrics and a spans file
  --repeat          two complete end-to-end sets back to back, compared
  --runs R          runs (seeds) per workload per set for --repeat (default 3)
  --list            every metric: name, unit, direction, bound, definition
  --no-pin          do not pin (reproduces placement bimodality; the result
                    is marked \"pinned\": false and cannot be compared)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: bool,
    runs: usize,
    list: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: NOMINAL_SECONDS,
        trace: false,
        repeat: false,
        runs: 3,
        list: false,
        pin: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--runs" => {
                a.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--repeat" => a.repeat = true,
            "--list" => a.list = true,
            "--no-pin" => a.pin = false,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds == 0 || a.runs == 0 {
        return Err("--seconds and --runs must be at least 1".to_string());
    }
    Ok(a)
}

/// Scratch space inside the checkout: WAL directories and span files.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What a run owns while it measures; [`RunCtx`] borrows from it.
struct Inputs {
    echo: host::EchoRef,
    pool: Vec<workloads::Template>,
    load: nt_net::LoadConfig,
    out: PathBuf,
}

impl Inputs {
    /// Start the echo reference, generate `blocks` blocks of
    /// [`TOPS_PER_TRIAL`] templates from the seed for the gates and the
    /// traced run, and make the scratch directory.
    fn prepare(w: &Workload, seed: u64, blocks: usize) -> Result<Inputs, BenchError> {
        let out = out_dir();
        std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
        Ok(Inputs {
            echo: host::EchoRef::start().map_err(|e| format!("echo reference: {e}"))?,
            pool: w.templates(seed, blocks * TOPS_PER_TRIAL),
            load: w.load_config(seed, 1),
            out,
        })
    }

    fn ctx<'a>(&'a mut self, workload: &'a Workload) -> RunCtx<'a> {
        RunCtx {
            workload,
            load: &self.load,
            echo: &mut self.echo,
            pool: &self.pool,
            out_dir: &self.out,
        }
    }
}

/// First word of the line a run prints when it dropped too many trials.
const UNRESOLVED: &str = "unresolved";

/// What one workload's run produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<metrics::Value>,
}

/// Measure one workload in this process.
fn run_workload(w: &Workload, args: &Args) -> Result<Outcome, BenchError> {
    let pinned_cpu = if args.pin {
        host::pin_to_highest_cpu()
    } else {
        None
    };
    if args.pin && pinned_cpu.is_none() {
        eprintln!("nt-benchmark: could not pin to a CPU; timings will move with thread placement");
    }
    let trials = workloads::trials_for(args.seconds);
    // The gates take two blocks (the barrier pass) and the traced epoch
    // thirteen; the timed epochs draw their own. Kept small where memory
    // is measured: the pool is resident beside the server.
    let mut inputs = Inputs::prepare(w, args.seed, if args.trace { 16 } else { 2 })?;
    let echo_us = inputs
        .echo
        .take()
        .map_err(|e| format!("reference op: {e}"))?;
    let fingerprint = host::Fingerprint::read(pinned_cpu, echo_us, host::cpu_kernel_us());
    let durability = if w.wal {
        "none (barrier pass: fsync)"
    } else {
        "off"
    };
    println!("{}", fingerprint.line(durability));
    let out = inputs.out.clone();
    let mut ctx = inputs.ctx(w);

    let mut values = Values::default();
    let (mut attempted, mut failed) = (0, 0);
    // Timed work first, on a process that has done nothing else yet; the
    // gates run after it.
    if !args.trace {
        let measured = ctx.measure(trials)?;
        let e = measured.end_to_end();
        println!(
            "workload {} seed {} epochs {} trials {} dropped {} tail {} | raw: {:.0} tops/s, top p50 {:.1} us, tail {:.1} us, req p50 {:.1} us, setup {:.3} s | host: echo {:.2} us, ref spread {:.1}%",
            w.name, args.seed, EPOCHS, e.trials_run, e.trials_dropped, e.tail_label,
            e.raw.tops_per_s, e.raw.top_us_p50, e.raw.top_us_p99, e.raw.req_us_p50, e.raw_setup_s,
            e.echo_us, e.ref_spread_pct,
        );
        if e.trials_dropped == e.trials_run {
            return Err("every trial was dropped: the host never held still".to_string());
        }
        if e.unresolved() {
            // The result line has no field for this; the line below is what
            // `--repeat` and the all-workloads mode read it from.
            println!(
                "{UNRESOLVED}: {} of {} trials dropped, over {:.0}%: the host moved under too much of this run for it to resolve the bounds",
                e.trials_dropped, e.trials_run, 100.0 * harness::MAX_DROPPED_SHARE,
            );
        }
        values.set("top_cost_x", e.top_cost_x);
        values.set("top_p50_x", e.top_p50_x);
        values.set("top_p99_x", e.top_p99_x);
        values.set("req_p50_x", e.req_p50_x);
        values.set("rss_peak_mb", measured.rss_peak_mb);
        values.set("setup_s", e.setup_s);
        attempted += e.attempted;
        failed += e.failed;
    }
    let verified = gates::verify_pass(&mut ctx)?;
    for p in &verified.problems {
        eprintln!("nt-benchmark: verify pass: {p}");
    }
    let barrier = match w.wal {
        true => Some(gates::barrier_pass(&mut ctx)?),
        false => None,
    };
    if let Some(b) = &barrier {
        for p in &b.problems {
            eprintln!("nt-benchmark: barrier pass: {p}");
        }
        println!(
            "barrier pass: {} tops acked in {:.2} s (device time), {:.1} WAL bytes/top, {:.3} syncs/top, reopen {:.3} s",
            b.acked, b.wall_s, b.wal_bytes_per_top, b.wal_syncs_per_top, b.recover_s
        );
    }
    let correct = verified.ok && barrier.as_ref().is_none_or(|b| b.ok);

    let names: Vec<&'static str> = if args.trace {
        let spans_path = out.join(format!("spans-{}.jsonl", w.name));
        let (layer_values, tally) =
            layers::run(&mut ctx, &verified, barrier.as_ref(), &spans_path)?;
        values = layer_values;
        attempted += tally.attempted;
        failed += tally.failed;
        println!("spans written to {}", spans_path.display());
        PER_LAYER.iter().map(|d| d.name).collect()
    } else {
        END_TO_END.iter().map(|d| d.name).collect()
    };
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        values: values.in_order(names.into_iter())?,
    })
}

/// What the parent of a child run reads off its standard output.
struct Child {
    parsed: report::Parsed,
    /// Its `host` line.
    host: String,
    /// It printed an [`UNRESOLVED`] line.
    unresolved: bool,
}

/// Run one workload in a child process and parse its result line.
fn child_run(w: &Workload, seed: u64, args: &Args, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if !args.pin {
        cmd.arg("--no-pin");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    for l in lines.iter().filter(|l| !l.starts_with("  ")) {
        println!("  {l}");
    }
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        return Err(format!("child for {} exited with {}", w.name, out.status));
    }
    let host = lines.iter().find(|l| l.starts_with("host ")).unwrap_or(&"");
    Ok(Child {
        parsed: report::parse_result_line(last)?,
        host: host.to_string(),
        unresolved: lines.iter().any(|l| l.starts_with(UNRESOLVED)),
    })
}

/// Every workload once, one child each; then the summary document.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut docs = Vec::new();
    for w in workloads::all() {
        println!(
            "== {} ({})",
            w.name,
            if args.trace { "traced" } else { "end to end" }
        );
        let Child {
            parsed,
            host,
            unresolved,
        } = child_run(&w, args.seed, args, args.trace)?;
        all_correct &= parsed.correct && parsed.failed == 0;
        let mut metrics = nt_obs::json::JsonObj::new();
        for (name, value, unit) in &parsed.metrics {
            println!("  {name:<32} {value:>14.4} {unit}");
            metrics.float(name, *value);
        }
        let mut doc = nt_obs::json::JsonObj::new();
        doc.str("workload", w.name)
            .str("host", &host)
            .bool("correct", parsed.correct)
            .bool("unresolved", unresolved)
            .num("attempted", parsed.attempted)
            .num("failed", parsed.failed)
            .raw("metrics", metrics.build());
        docs.push(doc.build());
    }
    let mut summary = nt_obs::json::JsonObj::new();
    summary
        .str("benchmark", "nt-benchmark")
        .num("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("traced", args.trace)
        .bool("pinned", args.pin)
        .raw("claim", "null".to_string())
        .raw("workloads", format!("[{}]", docs.join(",")));
    let text = summary.build();
    let path = out_dir().join("summary.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create out dir: {e}"))?;
    std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{text}");
    Ok(all_correct)
}

/// Two complete end-to-end sets of the same code, back to back.
fn run_repeat(args: &Args) -> Result<bool, String> {
    let mut sets: Vec<Vec<(String, report::SetValues, usize)>> = Vec::new();
    let mut all_ok = true;
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for w in workloads::all() {
            let mut values: report::SetValues = END_TO_END
                .iter()
                .map(|d| (d.name.to_string(), Vec::new()))
                .collect();
            let mut unresolved = 0;
            for run in 0..args.runs {
                // The same seeds in both sets: the comparison is of the
                // host and the harness, not of the inputs.
                let seed = args.seed + run as u64;
                eprintln!("set {} {} seed {seed}", set + 1, w.name);
                let child = child_run(&w, seed, args, false)?;
                all_ok &= child.parsed.correct && child.parsed.failed == 0;
                unresolved += usize::from(child.unresolved);
                for (name, value, _) in &child.parsed.metrics {
                    if let Some((_, v)) = values.iter_mut().find(|(n, _)| n == name) {
                        v.push(*value);
                    }
                }
            }
            per_workload.push((w.name.to_string(), values, unresolved));
        }
        sets.push(per_workload);
    }
    println!("workload | metric             | set 1 median (IQR)     | set 2 median (IQR)     | diff   | bound | verdict");
    for ((name, first, u1), (_, second, u2)) in sets[0].iter().zip(&sets[1]) {
        let (rows, ok) = report::repeat_rows(name, first, second);
        print!("{rows}");
        println!(
            "{name:<8} | runs that dropped over {:.0}% of their trials: {} of {}",
            100.0 * harness::MAX_DROPPED_SHARE,
            u1 + u2,
            2 * args.runs
        );
        all_ok &= ok;
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("nt-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", report::list());
        return ExitCode::SUCCESS;
    }
    let workload = match &args.workload {
        Some(name) => match workloads::by_name(name) {
            Some(w) => Some(w),
            None => {
                eprintln!("nt-benchmark: no workload named {name}; see --list");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let ok = match (workload, args.repeat) {
        (_, true) => run_repeat(&args),
        (None, _) => run_all(&args),
        (Some(w), _) => run_workload(&w, &args).map(|o| {
            print!("{}", report::table(&o.values));
            // The result line, last on standard output.
            println!(
                "{}",
                report::result_line(o.correct, o.attempted, o.failed, &o.values, args.pin)
            );
            o.correct
        }),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("nt-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
