//! # nt-bench
//!
//! Experiment harness for the reproduction: shared helpers used by the
//! `experiments` binary (which regenerates every table in
//! `EXPERIMENTS.md`) and the criterion benches.

#![forbid(unsafe_code)]

use nt_locking::LockMode;
use nt_model::seq::serial_projection;
use nt_obs::json::JsonObj;
use nt_obs::Event;
use nt_sgt::{check_serial_correctness_traced, ConflictSource, Verdict};
use nt_sim::{run_generic, Protocol, SimConfig, SimResult, WorkloadSpec};

/// Outcome summary of checking one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Verdict::SeriallyCorrect.
    Correct,
    /// Cyclic serialization graph.
    Cyclic,
    /// Inappropriate return values.
    Inappropriate,
    /// Malformed / witness failure (never expected).
    Other,
}

/// Run a workload under a protocol and check it, returning the sim result,
/// the verdict summary, and the serialization-graph size when available.
pub fn run_and_check(
    spec: &WorkloadSpec,
    protocol: Protocol,
    cfg: &SimConfig,
    source_rw: bool,
) -> (SimResult, CheckOutcome, usize) {
    let mut w = spec.generate();
    let r = run_generic(&mut w, protocol, cfg);
    let source = if source_rw {
        ConflictSource::ReadWrite
    } else {
        ConflictSource::Types(&w.types)
    };
    let verdict = check_serial_correctness_traced(&w.tree, &r.trace, &w.types, source, &cfg.trace);
    let (outcome, edges) = match &verdict {
        Verdict::SeriallyCorrect { graph, .. } => (CheckOutcome::Correct, graph.edge_count()),
        Verdict::Cyclic { graph, .. } => (CheckOutcome::Cyclic, graph.edge_count()),
        Verdict::InappropriateReturnValues(_) => (CheckOutcome::Inappropriate, 0),
        _ => (CheckOutcome::Other, 0),
    };
    if outcome != CheckOutcome::Correct && cfg.trace.enabled() {
        // A non-correct verdict under tracing is worth a flight dump: the
        // recorder's tail shows what the protocol did just before the
        // checker rejected the behavior.
        cfg.trace.record(Event::Violation {
            reason: format!("checker verdict: {}", verdict.name()),
        });
        cfg.trace
            .dump_flight_to_stderr(&format!("checker verdict: {}", verdict.name()));
    }
    (r, outcome, edges)
}

/// Convenience: a Moss run's serial projection plus tree/types, for
/// checker micro-benchmarks.
pub fn moss_trace(
    spec: &WorkloadSpec,
) -> (
    std::sync::Arc<nt_model::TxTree>,
    nt_serial::ObjectTypes,
    Vec<nt_model::Action>,
) {
    let mut w = spec.generate();
    let r = run_generic(
        &mut w,
        Protocol::Moss(LockMode::ReadWrite),
        &SimConfig::default(),
    );
    assert!(r.quiescent);
    (w.tree, w.types, serial_projection(&r.trace))
}

/// Simple fixed-width table printer for experiment outputs.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Snapshot as a JSON object: `{"headers": [...], "rows": [[...]]}`
    /// (cells stay strings — they are already formatted for humans, and
    /// string cells keep the snapshot schema uniform across experiments).
    pub fn to_json(&self) -> String {
        let row_json = |cells: &[String]| {
            let quoted: Vec<String> = cells
                .iter()
                .map(|c| {
                    let mut s = String::new();
                    nt_obs::json::escape_str(c, &mut s);
                    s
                })
                .collect();
            format!("[{}]", quoted.join(","))
        };
        let mut o = JsonObj::new();
        o.raw("headers", row_json(&self.headers));
        let rows: Vec<String> = self.rows.iter().map(|r| row_json(r)).collect();
        o.raw("rows", format!("[{}]", rows.join(",")));
        o.build()
    }

    /// Render as a GitHub-flavored markdown table.
    pub fn print(&self) {
        let mut width: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let body: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = width[i]))
                .collect();
            println!("| {} |", body.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = width.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
        println!();
    }
}

/// One experiment's snapshot inside a [`Report`].
struct ExperimentSnapshot {
    id: String,
    title: String,
    tables: Vec<String>,
}

/// Structured experiment reporting: every experiment registers its title
/// and tables here; tables still render to stdout for humans, and the
/// whole report serializes to one JSON document
/// (`BENCH_experiments.json`), so downstream tooling never scrapes the
/// markdown.
#[derive(Default)]
pub struct Report {
    experiments: Vec<ExperimentSnapshot>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start an experiment section: prints the markdown heading and opens
    /// a snapshot that subsequent [`Report::table`] calls attach to.
    pub fn section(&mut self, id: &str, title: &str) {
        println!("## {title}\n");
        self.experiments.push(ExperimentSnapshot {
            id: id.to_string(),
            title: title.to_string(),
            tables: Vec::new(),
        });
    }

    /// Print a table to stdout and record its JSON snapshot under the
    /// current section.
    pub fn table(&mut self, t: &Table) {
        t.print();
        self.experiments
            .last_mut()
            .expect("section() before table()")
            .tables
            .push(t.to_json());
    }

    /// Number of experiments recorded.
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// True when no experiment has been recorded.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// The whole report as a JSON document.
    pub fn to_json(&self) -> String {
        let exps: Vec<String> = self
            .experiments
            .iter()
            .map(|e| {
                let mut o = JsonObj::new();
                o.str("id", &e.id);
                o.str("title", &e.title);
                o.raw("tables", format!("[{}]", e.tables.join(",")));
                o.build()
            })
            .collect();
        let mut root = JsonObj::new();
        root.str("schema", "nt-bench/experiments/v1");
        root.raw("experiments", format!("[{}]", exps.join(",")));
        root.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_sections_and_tables() {
        let mut rep = Report::new();
        rep.section("e0", "demo");
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "x \"quoted\"".into()]);
        rep.table(&t);
        assert_eq!(rep.len(), 1);
        let j = rep.to_json();
        let v = nt_obs::json::Json::parse(&j).expect("report JSON parses");
        let exps = v.get("experiments").unwrap();
        let nt_obs::json::Json::Arr(items) = exps else {
            panic!("experiments array");
        };
        assert_eq!(items.len(), 1);
        assert_eq!(
            items[0].get("id").and_then(nt_obs::json::Json::as_str),
            Some("e0")
        );
    }

    #[test]
    fn run_and_check_moss_is_correct() {
        let spec = WorkloadSpec {
            top_level: 4,
            ..WorkloadSpec::default()
        };
        let (r, outcome, edges) = run_and_check(
            &spec,
            Protocol::Moss(LockMode::ReadWrite),
            &SimConfig::default(),
            true,
        );
        assert!(r.quiescent);
        assert_eq!(outcome, CheckOutcome::Correct);
        let _ = edges;
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "bbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }
}
