//! Violation reports and JSON export for the live maintainer.
//!
//! Three document shapes, each tagged with a `schema` field so `nt-lint
//! sgt` (and any external consumer) can dispatch structurally:
//!
//! * `nt-sgt/violation/v1` — emitted when an edge insert closes a cycle:
//!   the cycle, the inserting edge, every edge on the cycle with its
//!   witness stamps, and a minimal history slice cut from the flight
//!   ring between the earliest and latest witness stamps;
//! * `nt-sgt/live/v1` — a snapshot of the maintained root graph (nodes
//!   in topological order, edges with provenance, watermark/processed
//!   counters);
//! * `nt-sgt/cert/v1` — the compact verdict document served by the
//!   `CERT` wire op.

use crate::topo::EdgeMeta;
use nt_model::{Action, TxId};
use nt_obs::json::JsonObj;
use nt_sgt::EdgeKind;

/// Schema tag of [`ViolationReport::to_json`] documents.
pub const VIOLATION_SCHEMA: &str = "nt-sgt/violation/v1";
/// Schema tag of live graph snapshot documents.
pub const LIVE_SCHEMA: &str = "nt-sgt/live/v1";
/// Schema tag of `CERT` verdict documents.
pub const CERT_SCHEMA: &str = "nt-sgt/cert/v1";

/// One maintained edge with provenance, as reported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReportEdge {
    /// Tail of the edge.
    pub from: TxId,
    /// Head of the edge.
    pub to: TxId,
    /// Conflict or precedes.
    pub kind: EdgeKind,
    /// Stamps of the inducing action pair.
    pub witness: (u64, u64),
}

impl ReportEdge {
    /// Build from a [`DynTopo`](crate::topo::DynTopo) adjacency entry.
    pub fn new(from: TxId, to: TxId, meta: &EdgeMeta) -> ReportEdge {
        ReportEdge {
            from,
            to,
            kind: meta.kind,
            witness: meta.witness,
        }
    }

    fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.num("from", u64::from(self.from.0))
            .num("to", u64::from(self.to.0))
            .str("kind", self.kind.as_str())
            .num("w_first", self.witness.0)
            .num("w_second", self.witness.1);
        o.build()
    }
}

/// Everything known about a detected serializability violation: which
/// sibling graph cycled, the cycle itself, the exact edge whose insertion
/// closed it, and a bounded history slice for post-mortem replay.
#[derive(Clone, Debug)]
pub struct ViolationReport {
    /// Parent transaction whose sibling graph contains the cycle
    /// (`TxId::ROOT` for top-level cycles).
    pub parent: TxId,
    /// The cycle as a node path with `cycle[0] == cycle[last]`.
    pub cycle: Vec<TxId>,
    /// The inserting edge — the first edge whose insertion made the
    /// graph cyclic. Detection is exact: the maintainer latches on this
    /// insert, so the witness stamps identify the offending action pair.
    pub edge: ReportEdge,
    /// Every edge along the cycle (the inserting edge last, since it was
    /// never added to the graph).
    pub cycle_edges: Vec<ReportEdge>,
    /// `(stamp, action)` entries of the witness span, cut from β by its
    /// owner ([`SgtMaintainer::cut_slice`](crate::SgtMaintainer::cut_slice)).
    /// They reach back at most 4,096 stamps from the latching action, so
    /// a report is always small even if the violating actions are far
    /// apart.
    pub slice: Vec<(u64, Action)>,
}

impl ViolationReport {
    /// Render as an `nt-sgt/violation/v1` document.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("schema", VIOLATION_SCHEMA)
            .num("parent", u64::from(self.parent.0));
        let cycle: Vec<u64> = self.cycle.iter().map(|t| u64::from(t.0)).collect();
        o.num_arr("cycle", &cycle);
        o.raw("edge", self.edge.to_json());
        let edges: Vec<String> = self.cycle_edges.iter().map(ReportEdge::to_json).collect();
        o.raw("cycle_edges", format!("[{}]", edges.join(",")));
        let slice: Vec<String> = self
            .slice
            .iter()
            .map(|(stamp, a)| {
                let mut e = JsonObj::new();
                e.num("stamp", *stamp).str("action", &a.to_string());
                e.build()
            })
            .collect();
        o.raw("slice", format!("[{}]", slice.join(",")));
        o.build()
    }

    /// One-line human summary for logs.
    pub fn summary(&self) -> String {
        let path: Vec<String> = self.cycle.iter().map(|t| t.to_string()).collect();
        format!(
            "serialization cycle under {} via {} -> {} ({}, witness {}..{}): {}",
            self.parent,
            self.edge.from,
            self.edge.to,
            self.edge.kind.as_str(),
            self.edge.witness.0,
            self.edge.witness.1,
            path.join(" -> ")
        )
    }
}

/// Render a live graph snapshot (`nt-sgt/live/v1`).
pub fn live_snapshot_json(
    nodes: &[TxId],
    edges: &[ReportEdge],
    watermark: u64,
    processed: u64,
) -> String {
    let mut o = JsonObj::new();
    o.str("schema", LIVE_SCHEMA);
    let ns: Vec<u64> = nodes.iter().map(|t| u64::from(t.0)).collect();
    o.num_arr("nodes", &ns);
    let es: Vec<String> = edges.iter().map(ReportEdge::to_json).collect();
    o.raw("edges", format!("[{}]", es.join(",")));
    o.num("watermark", watermark).num("processed", processed);
    o.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_obs::json::Json;

    #[test]
    fn violation_report_renders_and_reparses() {
        let edge = ReportEdge {
            from: TxId(2),
            to: TxId(1),
            kind: EdgeKind::Conflict,
            witness: (4, 9),
        };
        let rep = ViolationReport {
            parent: TxId::ROOT,
            cycle: vec![TxId(1), TxId(2), TxId(1)],
            edge: edge.clone(),
            cycle_edges: vec![
                ReportEdge {
                    from: TxId(1),
                    to: TxId(2),
                    kind: EdgeKind::Precedes,
                    witness: (2, 3),
                },
                edge,
            ],
            slice: vec![
                (4, Action::RequestCommit(TxId(5), nt_model::Value::Int(1))),
                (9, Action::Commit(TxId(2))),
            ],
        };
        let doc = Json::parse(&rep.to_json()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(VIOLATION_SCHEMA));
        let Some(Json::Arr(cycle)) = doc.get("cycle") else {
            panic!("cycle array expected");
        };
        assert_eq!(cycle.len(), 3);
        assert_eq!(cycle.first(), cycle.last());
        let Some(Json::Arr(slice)) = doc.get("slice") else {
            panic!("slice array expected");
        };
        assert_eq!(slice[0].get("stamp").unwrap().as_num(), Some(4.0));
        assert!(rep.summary().contains("cycle"));
    }

    #[test]
    fn live_snapshot_renders_and_reparses() {
        let doc = live_snapshot_json(
            &[TxId(1), TxId(2)],
            &[ReportEdge {
                from: TxId(1),
                to: TxId(2),
                kind: EdgeKind::Conflict,
                witness: (1, 2),
            }],
            7,
            42,
        );
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(LIVE_SCHEMA));
        assert_eq!(v.get("watermark").unwrap().as_num(), Some(7.0));
        assert_eq!(v.get("processed").unwrap().as_num(), Some(42.0));
    }
}
