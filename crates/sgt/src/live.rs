//! The live certifier: one [`SgtMaintainer`] as plain data, owned by
//! the engine's one history and stepped by the critical section that
//! records each action, before that critical section ends. There is no
//! certifier thread, no channel, no buffer and no lock of its own: the
//! engine lock that orders β guards it, and the verdict it reports is
//! current whenever no thread holds that lock.
//!
//! ## Why stepping inline is sound
//!
//! `SG(β)` is a function of the recorded behavior `β` and the naming
//! tree, and `β` has one order: the recorder's stamp order. Visibility
//! to `T0` is monotone, so every edge, once determined by a prefix of
//! `β`, is in the graph of every extension (see
//! [`maintainer`](crate::maintainer)). A state machine stepped once per
//! action in stamp order therefore computes exactly the graph the
//! post-hoc gate builds from the finished history — nothing in the
//! construction asks for a second agent, only for the order. The
//! engine's one history gives it that order by construction: it draws
//! each stamp and calls [`act`](LiveCertifier::act) in one critical
//! section, and the session tree the certifier reads registers a
//! transaction in the critical section that records its
//! `REQUEST_CREATE`, before that action. The certifier copies neither
//! input: the history cuts a violation's slice from its own log.
//!
//! ## Gauges and cost
//!
//! With a recorder attached, the `sgt.live.*` gauges are written once per
//! resolved top-level transaction — the only steps that change the
//! graph's shape. `check_us` accumulates
//! the wall time of those steps (finalization plus watermark GC).

use crate::maintainer::{SgtConfig, SgtMaintainer};
use crate::report::{ViolationReport, CERT_SCHEMA};
use nt_model::{Action, TreeView};
use nt_obs::json::JsonObj;
use nt_obs::TraceHandle;
use std::sync::Arc;
use std::time::Instant;

/// A point-in-time summary of the maintainer.
#[derive(Clone, Debug, Default)]
pub struct LiveStatus {
    /// No cycle detected so far.
    pub ok: bool,
    /// GC watermark: the permanently certified prefix ends here.
    pub watermark: u64,
    /// Actions processed in stamp order.
    pub processed: u64,
    /// Current root-graph node count.
    pub nodes: usize,
    /// Current root-graph edge count.
    pub edges: usize,
    /// Unresolved top-level transactions.
    pub live_tops: usize,
    /// Cumulative wall time spent resolving top-level transactions —
    /// finalization plus watermark GC (µs).
    pub check_us: u64,
    /// Top-level resolutions stepped so far (one gauge publication each
    /// when a recorder is attached).
    pub samples: u64,
    /// The latched violation, if any.
    pub violation: Option<Arc<ViolationReport>>,
}

impl LiveStatus {
    /// Render an `nt-sgt/cert/v1` verdict document. `mode` is `"live"`
    /// when a certifier is attached; [`cert_disabled_json`] covers the
    /// other case.
    pub fn cert_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("schema", CERT_SCHEMA)
            .str("mode", "live")
            .bool("ok", self.ok)
            .num("watermark", self.watermark)
            .num("processed", self.processed)
            .num("nodes", self.nodes as u64)
            .num("edges", self.edges as u64)
            .num("live_tops", self.live_tops as u64)
            .num("check_us", self.check_us);
        match &self.violation {
            Some(v) => o.raw("violation", v.to_json()),
            None => o.raw("violation", "null".to_string()),
        };
        o.build()
    }
}

/// The `nt-sgt/cert/v1` document served when live certification is off.
pub fn cert_disabled_json() -> String {
    let mut o = JsonObj::new();
    o.str("schema", CERT_SCHEMA).str("mode", "disabled");
    o.build()
}

/// The live certifier: the maintainer, its resolution timing and the
/// recorder its gauges go to. Plain data — whoever owns it (the engine's
/// history) steps it.
pub struct LiveCertifier {
    m: SgtMaintainer,
    check_ns: u64,
    samples: u64,
    telemetry: TraceHandle,
}

impl LiveCertifier {
    /// A fresh certifier. Gauges go to `telemetry` when it is enabled.
    pub fn new(cfg: SgtConfig, telemetry: TraceHandle) -> LiveCertifier {
        LiveCertifier {
            m: SgtMaintainer::new(cfg),
            check_ns: 0,
            samples: 0,
            telemetry,
        }
    }

    /// Read `tree`, which must hold every transaction an action names by
    /// the time that action is stepped (the engine hands over its session
    /// tree before the recovered prefix is preloaded).
    pub fn read_tree(&mut self, tree: Arc<dyn TreeView>) {
        self.m.read_tree(tree);
    }

    /// Replay a recovered prefix into the maintainer before live traffic
    /// (crash–restart): `entries[i]` carries stamp `i`. `resume_at` is the
    /// recovered clock's next stamp.
    pub fn preload(&mut self, entries: &[Action], resume_at: u64) {
        self.m.preload(entries, resume_at);
    }

    /// Step the maintainer with an action stamped elsewhere, in stamp
    /// order: each stamp above the last one fed. This is the engine's
    /// recording path, called under the engine lock.
    pub fn act(&mut self, stamp: u64, action: &Action) {
        // Only a top-level completion changes the graph's shape
        // (finalization + GC); everything else is O(1) bookkeeping.
        let resolves = matches!(action, Action::Commit(t) | Action::Abort(t) if self.m.is_top(*t));
        let started = resolves.then(Instant::now);
        self.m.step(stamp, action);
        if let Some(started) = started {
            self.check_ns += started.elapsed().as_nanos() as u64;
            self.samples += 1;
            self.publish();
        }
    }

    /// Cut a latched violation report's history slice from `beta`, the
    /// owner's β from stamp 0 through the latching action. A no-op
    /// unless a violation latched since the last cut.
    pub fn cut_slice<'a>(&mut self, beta: impl IntoIterator<Item = &'a Action>) {
        self.m.cut_slice(beta);
    }

    /// Write the gauges (recorder attached only; once per resolved top).
    fn publish(&self) {
        self.telemetry.metrics(|g| {
            g.gauge_set("sgt.live.nodes", self.m.node_count() as i64);
            g.gauge_set("sgt.live.edges", self.m.edge_count() as i64);
            g.gauge_set("sgt.live.watermark", self.m.watermark() as i64);
            g.gauge_set("sgt.live.check_us", (self.check_ns / 1_000) as i64);
            g.gauge_set("sgt.live.ok", i64::from(self.m.ok()));
            g.gauge_set("sgt.live.samples", self.samples as i64);
        });
    }

    /// `false` iff a cycle has been detected (latched).
    pub fn ok(&self) -> bool {
        self.m.ok()
    }

    /// The maintainer's state right now.
    pub fn status(&self) -> LiveStatus {
        LiveStatus {
            ok: self.m.ok(),
            watermark: self.m.watermark(),
            processed: self.m.processed(),
            nodes: self.m.node_count(),
            edges: self.m.edge_count(),
            live_tops: self.m.live_tops(),
            check_us: self.check_ns / 1_000,
            samples: self.samples,
            violation: self.m.violation(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_model::{Op, TxId, TxTree, Value};

    fn gauges_of(t: &TraceHandle) -> std::collections::HashMap<&'static str, u64> {
        t.gauges().into_iter().collect()
    }

    #[test]
    fn stepping_matches_replay() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let u = tree.add_access(a, x, Op::Write(5));
        let w = tree.add_access(b, x, Op::Read);
        let beta = [
            Action::RequestCreate(a),
            Action::RequestCreate(b),
            Action::RequestCommit(u, Value::Ok),
            Action::Commit(u),
            Action::RequestCommit(w, Value::Int(5)),
            Action::Commit(w),
            Action::Commit(a),
            Action::Commit(b),
        ];
        let telemetry = nt_obs::Recorder::full();
        let mut live = LiveCertifier::new(SgtConfig::default(), telemetry.clone());
        live.m.seed_tree(&tree);
        for (i, act) in beta.iter().enumerate() {
            live.act(i as u64, act);
            // No barrier of any kind: the status is current after each step.
            assert_eq!(live.status().processed, i as u64 + 1);
        }
        let m = SgtMaintainer::replay(&tree, &beta, SgtConfig::default());
        let status = live.status();
        assert!(status.ok && live.ok() && m.ok());
        assert_eq!(status.processed, m.processed());
        assert_eq!(status.watermark, m.watermark());
        assert_eq!(status.nodes, m.node_count());
        assert_eq!(status.edges, m.edge_count());
        assert_eq!(status.live_tops, m.live_tops());
        assert_eq!(status.samples, 2, "one per resolved top");
        let gauges = gauges_of(&telemetry);
        assert_eq!(gauges.get("sgt.live.ok"), Some(&1));
        assert_eq!(gauges.get("sgt.live.samples"), Some(&2));
        assert_eq!(gauges.get("sgt.live.watermark"), Some(&status.watermark));
    }

    /// The crossed two-top history of the maintainer's
    /// `root_cycle_detected_at_inserting_edge`, stepped one action at a time: the
    /// violation and its witness are visible the moment the closing action
    /// has been stepped, through both `ok` and the status.
    #[test]
    fn violation_is_visible_when_it_closes() {
        let mut tree = TxTree::new();
        let x = tree.add_object();
        let y = tree.add_object();
        let a = tree.add_inner(TxId::ROOT);
        let b = tree.add_inner(TxId::ROOT);
        let ax = tree.add_access(a, x, Op::Write(1));
        let ay = tree.add_access(a, y, Op::Read);
        let bx = tree.add_access(b, x, Op::Read);
        let by = tree.add_access(b, y, Op::Write(2));
        let beta = [
            Action::RequestCreate(a),                 // 0
            Action::RequestCreate(b),                 // 1
            Action::RequestCommit(ax, Value::Ok),     // 2
            Action::Commit(ax),                       // 3
            Action::RequestCommit(by, Value::Ok),     // 4
            Action::Commit(by),                       // 5
            Action::RequestCommit(bx, Value::Int(1)), // 6: a→b (2,6)
            Action::Commit(bx),                       // 7
            Action::RequestCommit(ay, Value::Int(2)), // 8: b→a (4,8)
            Action::Commit(ay),                       // 9
            Action::RequestCommit(a, Value::Ok),      // 10
            Action::Commit(a),                        // 11
            Action::RequestCommit(b, Value::Ok),      // 12
            Action::Commit(b),                        // 13: cycle closes
        ];
        let telemetry = nt_obs::Recorder::full();
        let mut live = LiveCertifier::new(SgtConfig::default(), telemetry.clone());
        live.m.seed_tree(&tree);
        let (last, prefix) = beta.split_last().expect("non-empty");
        for (i, act) in prefix.iter().enumerate() {
            live.act(i as u64, act);
        }
        assert!(live.ok() && live.status().ok, "acyclic until b commits");
        live.act(prefix.len() as u64, last);
        assert!(!live.ok(), "the verdict flips with the closing action");
        let status = live.status();
        assert!(!status.ok);
        let rep = status.violation.expect("latched");
        assert_eq!(rep.edge.witness, (4, 8));
        assert_eq!(gauges_of(&telemetry).get("sgt.live.ok"), Some(&0));
    }

    #[test]
    fn cert_documents_render() {
        let live = LiveCertifier::new(SgtConfig::default(), TraceHandle::disabled());
        let doc = live.status().cert_json();
        let v = nt_obs::json::Json::parse(&doc).expect("valid json");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(CERT_SCHEMA));
        assert_eq!(v.get("mode").unwrap().as_str(), Some("live"));
        assert_eq!(v.get("ok"), Some(&nt_obs::json::Json::Bool(true)));
        let off = cert_disabled_json();
        let v = nt_obs::json::Json::parse(&off).expect("valid json");
        assert_eq!(v.get("mode").unwrap().as_str(), Some("disabled"));
    }
}
