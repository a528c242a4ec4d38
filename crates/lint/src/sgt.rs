//! Structural validation of exported serialization-graph documents
//! (`*.sgt.json`): the three schemas the live maintainer emits —
//! `nt-sgt/violation/v1` (cycle reports), `nt-sgt/live/v1` (graph
//! snapshots), and `nt-sgt/cert/v1` (`CERT` verdicts) — checked for the
//! invariants their consumers (CI gates, post-mortem tooling, the
//! `--metrics-out` pipeline) rely on:
//!
//! * violation: a closed cycle of length ≥ 2 with one edge per hop, a
//!   well-ordered inserting edge, and a history slice whose stamps lie
//!   inside the cycle's witness span;
//! * live snapshot: edges with known kinds and ordered witnesses whose
//!   endpoints are all present in the node list;
//! * cert: a `live` document carries verdict, counters, and a violation
//!   object exactly when `ok` is false; a `disabled` document carries
//!   nothing else.
//!
//! The pass also hosts the maintainer's planted-cycle self-check (the
//! `--plant-cycle` CLI flag): drive a guaranteed-cyclic history through a
//! real [`nt_sgt_live::SgtMaintainer`] and surface its violation report
//! as an error finding — proving end-to-end detection still works, and
//! giving CI a run that must exit nonzero.

use crate::report::{Finding, Severity};
use nt_obs::json::Json;
use nt_sgt_live::{CERT_SCHEMA, LIVE_SCHEMA, VIOLATION_SCHEMA};

fn finding(name: &str, msg: impl Into<String>) -> Finding {
    Finding::new(Severity::Error, "sgt", format!("sgt {name}"), msg.into())
}

fn num(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_num)
}

/// Check one edge object (`from`/`to`/`kind`/`w_first`/`w_second`),
/// pushing findings labeled with `what`.
fn check_edge(name: &str, what: &str, e: &Json, out: &mut Vec<Finding>) {
    for key in ["from", "to", "w_first", "w_second"] {
        if num(e, key).is_none() {
            out.push(finding(name, format!("{what}: missing numeric {key:?}")));
        }
    }
    match e.get("kind").and_then(Json::as_str) {
        Some("conflict") | Some("precedes") => {}
        Some(other) => out.push(finding(
            name,
            format!("{what}: unknown edge kind {other:?} (expected \"conflict\" or \"precedes\")"),
        )),
        None => out.push(finding(name, format!("{what}: missing edge kind"))),
    }
    if let (Some(a), Some(b)) = (num(e, "w_first"), num(e, "w_second")) {
        if a >= b {
            out.push(finding(
                name,
                format!("{what}: witness stamps not ordered ({a} >= {b})"),
            ));
        }
    }
}

fn check_violation(name: &str, v: &Json, out: &mut Vec<Finding>) {
    if num(v, "parent").is_none() {
        out.push(finding(name, "violation: missing numeric \"parent\""));
    }
    let cycle = match v.get("cycle") {
        Some(Json::Arr(c)) => c.as_slice(),
        _ => {
            out.push(finding(name, "violation: missing \"cycle\" array"));
            &[]
        }
    };
    if !cycle.is_empty() {
        if cycle.len() < 3 {
            out.push(finding(
                name,
                format!(
                    "violation: cycle path has {} node(s), need >= 3",
                    cycle.len()
                ),
            ));
        }
        if cycle.first().and_then(Json::as_num) != cycle.last().and_then(Json::as_num) {
            out.push(finding(name, "violation: cycle path is not closed"));
        }
    }
    match v.get("edge") {
        Some(e @ Json::Obj(_)) => check_edge(name, "inserting edge", e, out),
        _ => out.push(finding(name, "violation: missing \"edge\" object")),
    }
    let mut span: Option<(f64, f64)> = None;
    match v.get("cycle_edges") {
        Some(Json::Arr(edges)) => {
            if !cycle.is_empty() && edges.len() != cycle.len().saturating_sub(1) {
                out.push(finding(
                    name,
                    format!(
                        "violation: {} cycle edge(s) for a {}-node path (need one per hop)",
                        edges.len(),
                        cycle.len()
                    ),
                ));
            }
            for (i, e) in edges.iter().enumerate() {
                check_edge(name, &format!("cycle edge {i}"), e, out);
                if let (Some(a), Some(b)) = (num(e, "w_first"), num(e, "w_second")) {
                    span = Some(span.map_or((a, b), |(lo, hi)| (lo.min(a), hi.max(b))));
                }
            }
        }
        _ => out.push(finding(name, "violation: missing \"cycle_edges\" array")),
    }
    match v.get("slice") {
        Some(Json::Arr(entries)) => {
            for (i, entry) in entries.iter().enumerate() {
                let stamp = num(entry, "stamp");
                if stamp.is_none() {
                    out.push(finding(name, format!("slice entry {i}: missing stamp")));
                }
                if entry.get("action").and_then(Json::as_str).is_none() {
                    out.push(finding(name, format!("slice entry {i}: missing action")));
                }
                if let (Some(s), Some((lo, hi))) = (stamp, span) {
                    if s < lo || s > hi {
                        out.push(finding(
                            name,
                            format!("slice entry {i}: stamp {s} outside witness span {lo}..{hi}"),
                        ));
                    }
                }
            }
        }
        _ => out.push(finding(name, "violation: missing \"slice\" array")),
    }
}

fn check_live(name: &str, v: &Json, out: &mut Vec<Finding>) {
    let nodes: Vec<f64> = match v.get("nodes") {
        Some(Json::Arr(ns)) => {
            let mut ids = Vec::new();
            for (i, n) in ns.iter().enumerate() {
                match n.as_num() {
                    Some(id) => ids.push(id),
                    None => out.push(finding(name, format!("snapshot node {i} is not numeric"))),
                }
            }
            ids
        }
        _ => {
            out.push(finding(name, "snapshot: missing \"nodes\" array"));
            Vec::new()
        }
    };
    match v.get("edges") {
        Some(Json::Arr(edges)) => {
            for (i, e) in edges.iter().enumerate() {
                let what = format!("edge {i}");
                check_edge(name, &what, e, out);
                for key in ["from", "to"] {
                    if let Some(id) = num(e, key) {
                        if !nodes.contains(&id) {
                            out.push(finding(
                                name,
                                format!("{what}: endpoint {key}={id} not in the node list"),
                            ));
                        }
                    }
                }
            }
        }
        _ => out.push(finding(name, "snapshot: missing \"edges\" array")),
    }
    for key in ["watermark", "processed"] {
        if num(v, key).is_none() {
            out.push(finding(name, format!("snapshot: missing numeric {key:?}")));
        }
    }
}

fn check_cert(name: &str, v: &Json, out: &mut Vec<Finding>) {
    match v.get("mode").and_then(Json::as_str) {
        Some("disabled") => {}
        Some("live") => {
            let ok = match v.get("ok") {
                Some(Json::Bool(b)) => Some(*b),
                _ => {
                    out.push(finding(name, "cert: missing boolean \"ok\""));
                    None
                }
            };
            for key in [
                "watermark",
                "processed",
                "nodes",
                "edges",
                "live_tops",
                "check_us",
            ] {
                if num(v, key).is_none() {
                    out.push(finding(name, format!("cert: missing numeric {key:?}")));
                }
            }
            match (ok, v.get("violation")) {
                (Some(true), Some(Json::Null)) | (None, _) => {}
                (Some(true), _) => {
                    out.push(finding(name, "cert: ok=true but \"violation\" is not null"))
                }
                (Some(false), Some(rep @ Json::Obj(_))) => check_violation(name, rep, out),
                (Some(false), _) => out.push(finding(
                    name,
                    "cert: ok=false without a \"violation\" object",
                )),
            }
        }
        Some(other) => out.push(finding(
            name,
            format!("cert: unknown mode {other:?} (expected \"live\" or \"disabled\")"),
        )),
        None => out.push(finding(name, "cert: missing \"mode\"")),
    }
}

/// Lint one exported SGT document, dispatching on its `schema` tag.
pub fn lint_sgt_json(name: &str, json: &str) -> Vec<Finding> {
    let v = match Json::parse(json.trim()) {
        Ok(v) => v,
        Err(e) => return vec![finding(name, format!("not valid JSON: {e}"))],
    };
    let mut out = Vec::new();
    match v.get("schema").and_then(Json::as_str) {
        Some(s) if s == VIOLATION_SCHEMA => check_violation(name, &v, &mut out),
        Some(s) if s == LIVE_SCHEMA => check_live(name, &v, &mut out),
        Some(s) if s == CERT_SCHEMA => check_cert(name, &v, &mut out),
        Some(other) => out.push(finding(
            name,
            format!("unknown sgt schema {other:?} (expected violation/live/cert v1)"),
        )),
        None => out.push(finding(name, "missing \"schema\" tag")),
    }
    out
}

/// Self-check without files: documents produced by a real maintainer run
/// must lint clean against their own schemas (snapshot + cert of a small
/// conflict-bearing acyclic history).
pub fn lint_defaults() -> Vec<Finding> {
    use nt_model::{Action, TxId, TxTree, Value};
    use nt_sgt_live::{SgtConfig, SgtMaintainer};
    let mut tree = TxTree::new();
    let x = tree.add_object();
    let a = tree.add_inner(TxId::ROOT);
    let b = tree.add_inner(TxId::ROOT);
    let u = tree.add_access(a, x, nt_model::Op::Write(5));
    let w = tree.add_access(b, x, nt_model::Op::Read);
    let beta = vec![
        Action::RequestCreate(a),
        Action::RequestCreate(b),
        Action::RequestCommit(u, Value::Ok),
        Action::Commit(u),
        Action::RequestCommit(w, Value::Int(5)),
        Action::Commit(w),
        Action::Commit(a),
        Action::Commit(b),
    ];
    let m = SgtMaintainer::replay(&tree, &beta, SgtConfig { gc: false });
    lint_sgt_json("default/snapshot", &m.snapshot_json())
}

/// The `--plant-cycle` self-check: a guaranteed-cyclic history through a
/// real maintainer. Detection yields the violation report as an error
/// finding (the run must exit nonzero); a *missed* cycle is a distinct,
/// more alarming error.
pub fn planted_cycle_selftest() -> Vec<Finding> {
    use nt_model::{Action, TxId, TxTree, Value};
    use nt_sgt_live::{SgtConfig, SgtMaintainer};
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
        Action::Commit(b),
    ];
    let m = SgtMaintainer::replay(&tree, &beta, SgtConfig::default());
    match m.violation() {
        Some(rep) => {
            // The planted report must itself be schema-valid.
            let mut out = lint_sgt_json("planted/violation", &rep.to_json());
            out.push(finding(
                "planted",
                format!("planted cycle detected as intended: {}", rep.summary()),
            ));
            out
        }
        None => vec![finding(
            "planted",
            "maintainer MISSED the planted cycle — live certification is broken",
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn errors(fs: &[Finding]) -> Vec<&str> {
        fs.iter()
            .filter(|f| f.severity == Severity::Error)
            .map(|f| f.message.as_str())
            .collect()
    }

    #[test]
    fn maintainer_documents_lint_clean() {
        assert!(lint_defaults().is_empty(), "{:?}", lint_defaults());
    }

    #[test]
    fn planted_cycle_selftest_detects_and_errors() {
        let fs = planted_cycle_selftest();
        let es = errors(&fs);
        assert_eq!(es.len(), 1, "{es:?}");
        assert!(es[0].contains("detected as intended"), "{es:?}");
    }

    #[test]
    fn cert_documents_are_checked_per_mode() {
        let ok = r#"{"schema":"nt-sgt/cert/v1","mode":"live","ok":true,"watermark":5,
                     "processed":9,"nodes":0,"edges":0,"live_tops":0,"check_us":1,
                     "violation":null}"#;
        assert!(lint_sgt_json("ok", ok).is_empty());

        let disabled = r#"{"schema":"nt-sgt/cert/v1","mode":"disabled"}"#;
        assert!(lint_sgt_json("disabled", disabled).is_empty());

        let bad = r#"{"schema":"nt-sgt/cert/v1","mode":"live","ok":false,
                      "watermark":5,"processed":9,"nodes":2,"edges":2,
                      "live_tops":0,"check_us":1,"violation":null}"#;
        let fs = lint_sgt_json("bad", bad);
        let es = errors(&fs);
        assert!(
            es.iter().any(|m| m.contains("without a \"violation\"")),
            "{es:?}"
        );

        let contradiction = r#"{"schema":"nt-sgt/cert/v1","mode":"live","ok":true,
                                "watermark":5,"processed":9,"nodes":0,"edges":0,
                                "live_tops":0,"check_us":1,"violation":{}}"#;
        let fs = lint_sgt_json("contradiction", contradiction);
        let es = errors(&fs);
        assert!(es.iter().any(|m| m.contains("not null")), "{es:?}");
    }

    #[test]
    fn snapshot_edge_endpoints_must_be_nodes() {
        let doc = r#"{"schema":"nt-sgt/live/v1","nodes":[1,2],
                      "edges":[{"from":1,"to":9,"kind":"conflict","w_first":0,"w_second":4}],
                      "watermark":0,"processed":8}"#;
        let fs = lint_sgt_json("dangling", doc);
        let es = errors(&fs);
        assert!(es.iter().any(|m| m.contains("to=9")), "{es:?}");
    }

    #[test]
    fn garbage_and_unknown_schemas_are_errors() {
        let fs = lint_sgt_json("garbage", "{nope");
        let es = errors(&fs);
        assert!(es[0].contains("not valid JSON"), "{es:?}");
        let fs = lint_sgt_json("alien", r#"{"schema":"nt-sgt/other/v9"}"#);
        let es = errors(&fs);
        assert!(es[0].contains("unknown sgt schema"), "{es:?}");
    }
}
