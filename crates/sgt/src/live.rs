//! The live certifier: an [`SgtMaintainer`] owned by a dedicated thread,
//! fed through a cheap cloneable [`FeedHandle`] so recording threads never
//! pay for graph maintenance on the hot path.
//!
//! Producers (the engine's worker logs, lock-table shards, session tree)
//! send [`FeedEvent`]s over an unbounded channel; the certifier thread
//! drains them in batches, lets the maintainer reorder racy stamp
//! arrivals, and after each batch publishes the `sgt.live.*` gauges (plus
//! the `sgt.*` compatibility names the PR 7 sampling monitor used, so
//! `--metrics-out` consumers keep working). Wall time spent inside the
//! maintainer is accumulated into `sgt.live.check_us` — the certify cost
//! the hot path *didn't* pay.

use crate::maintainer::{SgtConfig, SgtMaintainer};
use crate::report::{ViolationReport, CERT_SCHEMA};
use nt_model::{Action, ObjId, Op, TxId};
use nt_obs::json::JsonObj;
use nt_telemetry::TelemetryHandle;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One event streamed from the engine to the certifier.
#[derive(Clone, Debug)]
pub enum FeedEvent {
    /// Transaction registration; unstamped, but the session tree emits it
    /// under its append mutex *before* any action naming `t` is stamped,
    /// so processing it immediately on receipt is safe.
    TreeAdd {
        /// The new transaction.
        t: TxId,
        /// Its parent.
        parent: TxId,
        /// For leaf accesses: the object and operation.
        access: Option<(ObjId, Op)>,
    },
    /// A stamped recorded action.
    Act {
        /// Recorder stamp (dense, totally ordered).
        stamp: u64,
        /// The action.
        action: Action,
    },
}

enum Msg {
    Event(FeedEvent),
    /// Many stamped actions in one channel send (a producer-side buffer
    /// flushed at commit/abort boundaries — see `WorkerLog` in
    /// `nt-engine`). Equivalent to that many `Event(Act)` messages.
    Acts(Vec<(u64, Action)>),
    Preload {
        entries: Vec<(u64, Action)>,
        resume_at: u64,
    },
    /// Barrier: run the callback once everything sent before it has been
    /// processed and published.
    Flush(Box<dyn FnOnce() + Send>),
    Stop,
}

/// Cloneable producer handle. Sends never block and never panic: after
/// the certifier stops, they become no-ops.
#[derive(Clone)]
pub struct FeedHandle {
    tx: Sender<Msg>,
}

impl FeedHandle {
    /// Register a transaction (must precede any action naming it).
    pub fn tree_add(&self, t: TxId, parent: TxId, access: Option<(ObjId, Op)>) {
        let _ = self
            .tx
            .send(Msg::Event(FeedEvent::TreeAdd { t, parent, access }));
    }

    /// Stream one stamped action.
    pub fn act(&self, stamp: u64, action: Action) {
        let _ = self.tx.send(Msg::Event(FeedEvent::Act { stamp, action }));
    }

    /// Stream many stamped actions in one channel send. Semantically
    /// identical to calling [`act`](Self::act) per entry — the maintainer
    /// reorders by stamp either way — but amortizes the channel traffic
    /// to one send per producer-side flush (the engine's worker logs
    /// flush at commit/abort boundaries instead of per action).
    pub fn act_batch(&self, entries: Vec<(u64, Action)>) {
        if entries.is_empty() {
            return;
        }
        let _ = self.tx.send(Msg::Acts(entries));
    }

    /// Replay a recovered prefix (see [`LiveCertifier::preload`]) — the
    /// handle variant lets an engine booting from a crash seed preload
    /// without holding the certifier itself. Send it before any live
    /// `act`: the channel is FIFO, so ordering at the send sites is
    /// ordering at the maintainer.
    pub fn preload(&self, entries: Vec<(u64, Action)>, resume_at: u64) {
        let _ = self.tx.send(Msg::Preload { entries, resume_at });
    }
}

/// A point-in-time summary of the maintainer, as last published by the
/// certifier thread.
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
    /// Cumulative wall time spent in the maintainer (µs).
    pub check_us: u64,
    /// Gauge publications so far.
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

/// Handle to the certifier thread. [`stop`](LiveCertifier::stop) sends an
/// explicit shutdown message (so outstanding [`FeedHandle`] clones can't
/// keep the thread alive), flushes, returns the final status, and hands
/// back the maintainer for export. Dropping the certifier without `stop`
/// also shuts the thread down once every `FeedHandle` is gone.
pub struct LiveCertifier {
    tx: Sender<Msg>,
    shared: Arc<Mutex<LiveStatus>>,
    join: Option<JoinHandle<SgtMaintainer>>,
}

impl LiveCertifier {
    /// Spawn the certifier thread.
    pub fn start(cfg: SgtConfig, telemetry: TelemetryHandle) -> LiveCertifier {
        let (tx, rx) = mpsc::channel::<Msg>();
        let shared = Arc::new(Mutex::new(LiveStatus {
            ok: true,
            ..LiveStatus::default()
        }));
        let shared_thread = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name("nt-sgt-live".to_string())
            .spawn(move || run(rx, cfg, telemetry, shared_thread))
            .expect("spawn certifier thread");
        LiveCertifier {
            tx,
            shared,
            join: Some(join),
        }
    }

    /// A producer handle (clone freely; one per recording site).
    pub fn handle(&self) -> FeedHandle {
        FeedHandle {
            tx: self.tx.clone(),
        }
    }

    /// Replay a recovered prefix into the maintainer before live traffic
    /// (crash–restart). `resume_at` is the recovered clock's next stamp.
    pub fn preload(&self, entries: Vec<(u64, Action)>, resume_at: u64) {
        let _ = self.tx.send(Msg::Preload { entries, resume_at });
    }

    /// Non-blocking barrier: `then` runs on the certifier thread once
    /// every event sent before this call has been processed and the
    /// published status is current (inline, if the certifier is gone).
    /// Event loops park a continuation on this instead of a thread.
    pub fn drain_then(&self, then: impl FnOnce() + Send + 'static) {
        if let Err(mpsc::SendError(Msg::Flush(then))) = self.tx.send(Msg::Flush(Box::new(then))) {
            then();
        }
    }

    /// Barrier: returns once every event sent before this call has been
    /// processed and the published status is current.
    pub fn drain(&self) {
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        self.drain_then(move || {
            let _ = ack_tx.send(());
        });
        let _ = ack_rx.recv();
    }

    /// The status as of the last publish (call [`drain`](Self::drain)
    /// first for an up-to-the-event view).
    pub fn status(&self) -> LiveStatus {
        self.shared.lock().expect("status lock").clone()
    }

    /// Stop the certifier: flush every parked event, publish a final
    /// status, and return it together with the maintainer (for snapshot
    /// or violation export).
    pub fn stop(mut self) -> (LiveStatus, SgtMaintainer) {
        let join = self.join.take().expect("not yet stopped");
        let _ = self.tx.send(Msg::Stop);
        let maintainer = join.join().expect("certifier thread panicked");
        let status = self.shared.lock().expect("status lock").clone();
        (status, maintainer)
    }
}

fn status_of(m: &SgtMaintainer, check_us: u64, samples: u64) -> LiveStatus {
    LiveStatus {
        ok: m.ok(),
        watermark: m.watermark(),
        processed: m.processed(),
        nodes: m.node_count(),
        edges: m.edge_count(),
        live_tops: m.live_tops(),
        check_us,
        samples,
        violation: m.violation(),
    }
}

fn publish(
    m: &SgtMaintainer,
    telemetry: &TelemetryHandle,
    shared: &Mutex<LiveStatus>,
    check_us: u64,
    samples: u64,
) {
    let status = status_of(m, check_us, samples);
    if telemetry.is_enabled() {
        telemetry.gauge_set("sgt.live.nodes", status.nodes as u64);
        telemetry.gauge_set("sgt.live.edges", status.edges as u64);
        telemetry.gauge_set("sgt.live.watermark", status.watermark);
        telemetry.gauge_set("sgt.live.check_us", status.check_us);
        // Compatibility names published by the retired sampling monitor.
        telemetry.gauge_set("sgt.nodes", status.nodes as u64);
        telemetry.gauge_set("sgt.edges", status.edges as u64);
        telemetry.gauge_set("sgt.watermark", status.watermark);
        telemetry.gauge_set("sgt.check_us", status.check_us);
        telemetry.gauge_set("sgt.ok", u64::from(status.ok));
        telemetry.gauge_set("sgt.samples", samples);
    }
    *shared.lock().expect("status lock") = status;
}

fn run(
    rx: Receiver<Msg>,
    cfg: SgtConfig,
    telemetry: TelemetryHandle,
    shared: Arc<Mutex<LiveStatus>>,
) -> SgtMaintainer {
    let mut m = SgtMaintainer::new(cfg);
    let mut check_us: u64 = 0;
    let mut samples: u64 = 0;
    // Returns true when a shutdown was requested.
    let handle =
        |m: &mut SgtMaintainer, msg: Msg, acks: &mut Vec<Box<dyn FnOnce() + Send>>| match msg {
            Msg::Event(FeedEvent::TreeAdd { t, parent, access }) => {
                m.tree_add(t, parent, access);
                false
            }
            Msg::Event(FeedEvent::Act { stamp, action }) => {
                m.apply(stamp, action);
                false
            }
            Msg::Acts(entries) => {
                for (stamp, action) in entries {
                    m.apply(stamp, action);
                }
                false
            }
            Msg::Preload { entries, resume_at } => {
                m.preload(&entries, resume_at);
                false
            }
            Msg::Flush(ack) => {
                acks.push(ack);
                false
            }
            Msg::Stop => true,
        };
    let mut stopping = false;
    while !stopping {
        let Ok(first) = rx.recv() else { break };
        // Batch: process everything already queued, then publish once.
        let mut acks = Vec::new();
        let started = Instant::now();
        stopping |= handle(&mut m, first, &mut acks);
        while let Ok(msg) = rx.try_recv() {
            stopping |= handle(&mut m, msg, &mut acks);
        }
        check_us += started.elapsed().as_micros() as u64;
        samples += 1;
        publish(&m, &telemetry, &shared, check_us, samples);
        for ack in acks {
            ack();
        }
    }
    // Stop requested or every producer gone. Process any parked
    // out-of-order remainder and publish the final state.
    let started = Instant::now();
    m.flush();
    check_us += started.elapsed().as_micros() as u64;
    samples += 1;
    publish(&m, &telemetry, &shared, check_us, samples);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_model::{TxTree, Value};

    #[test]
    fn feed_through_thread_matches_inline_replay() {
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
        let telemetry = TelemetryHandle::enabled(64);
        let live = LiveCertifier::start(SgtConfig::default(), telemetry.clone());
        let feed = live.handle();
        for t in tree.all_tx() {
            if t == TxId::ROOT {
                continue;
            }
            feed.tree_add(
                t,
                tree.parent(t).expect("non-root"),
                tree.object_of(t)
                    .map(|x| (x, tree.op_of(t).unwrap().clone())),
            );
        }
        for (i, a) in beta.iter().enumerate() {
            feed.act(i as u64, a.clone());
        }
        live.drain();
        let status = live.status();
        assert!(status.ok);
        assert_eq!(status.processed, beta.len() as u64);
        assert_eq!(status.watermark, beta.len() as u64);
        assert!(status.samples > 0);
        let gauges: std::collections::HashMap<&str, u64> = telemetry.gauges().into_iter().collect();
        assert_eq!(gauges.get("sgt.ok"), Some(&1));
        assert!(gauges.contains_key("sgt.live.watermark"));
        let (final_status, m) = live.stop();
        assert!(final_status.ok);
        assert!(m.ok());
    }

    #[test]
    fn cert_documents_render() {
        let live = LiveCertifier::start(SgtConfig::default(), TelemetryHandle::disabled());
        live.drain();
        let doc = live.status().cert_json();
        let v = nt_obs::json::Json::parse(&doc).expect("valid json");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(CERT_SCHEMA));
        assert_eq!(v.get("mode").unwrap().as_str(), Some("live"));
        assert_eq!(v.get("ok"), Some(&nt_obs::json::Json::Bool(true)));
        let off = cert_disabled_json();
        let v = nt_obs::json::Json::parse(&off).expect("valid json");
        assert_eq!(v.get("mode").unwrap().as_str(), Some("disabled"));
        let (_s, _m) = live.stop();
    }
}
