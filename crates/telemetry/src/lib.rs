//! # nt-telemetry
//!
//! Live runtime observability for the threaded engine (`nt-engine`) and
//! the network server (`nt-net`). Where `nt-obs` instruments the
//! *deterministic simulator* with a logical-clock journal, this crate
//! instruments the *real runtime*: wall-clock latencies, cross-thread
//! request lifecycles, and lock-table wait behavior, all with
//! lock-light recording so the hot paths stay hot.
//!
//! Pieces:
//!
//! * [`WallHist`] / [`HistSnapshot`] — wide-range log-linear latency
//!   histograms (atomic recording, associative merging, p50/p95/p99).
//! * [`ReqSpan`] + [`spans_to_chrome_trace`] — per-request lifecycle
//!   stamps (decode → enqueue → dequeue → execute → respond) with dual
//!   wall/logical clocks, exportable as a Chrome `trace_event` timeline.
//! * [`StatsCell`] — generation-stamped coherent counter snapshots
//!   (the safe-code replacement for torn field-by-field atomic clones).
//! * [`TelemetryHandle`] — the cheap clonable handle threaded through
//!   engine and server. Disabled it is a single `Option` branch per
//!   call site: no clock reads, no allocation, no contention.

#![forbid(unsafe_code)]

pub mod cell;
pub mod hist;
pub mod smoke;
pub mod span;

pub use cell::StatsCell;
pub use hist::{HistSnapshot, WallHist};
pub use smoke::SmokeLine;
pub use span::{spans_to_chrome_trace, ReqSpan};

use nt_obs::json::JsonObj;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default bound on the retained request-span ring.
pub const DEFAULT_SPAN_RING: usize = 4096;

/// The fixed request phases aggregated into histograms. Order is the
/// lifecycle order (the last three are reactor phases observed outside
/// the span lifecycle); names are the JSON keys.
pub const PHASES: [&str; 9] = [
    "decode_enqueue",
    "queue_wait",
    "execute",
    "lock_wait",
    "respond",
    "total",
    "poll_wait",
    "batch_assemble",
    "coalesce",
];

/// Per-phase latency histograms for the request lifecycle.
#[derive(Default)]
pub struct PhaseHists {
    /// Decode to executor-queue enqueue.
    pub decode_enqueue: WallHist,
    /// Sitting in the executor queue.
    pub queue_wait: WallHist,
    /// Engine execution (includes lock wait).
    pub execute: WallHist,
    /// Blocked in the lock table (subset of execute).
    pub lock_wait: WallHist,
    /// Response encode + socket write.
    pub respond: WallHist,
    /// Whole server-side span.
    pub total: WallHist,
    /// Reactor poll loop blocked waiting for readiness (per `poll(2)`
    /// call, not per request; includes idle time).
    pub poll_wait: WallHist,
    /// Decoding a `BATCH` frame's ops and assembling its per-op response
    /// entries (per batch frame; excludes the durability barrier).
    pub batch_assemble: WallHist,
    /// The durability barrier: one `wait_durable` covering every mutating
    /// op of a poll round (per barrier, not per request — the only place
    /// fsync time is attributed).
    pub coalesce: WallHist,
}

impl PhaseHists {
    /// Snapshots in [`PHASES`] order.
    pub fn snapshots(&self) -> Vec<(&'static str, HistSnapshot)> {
        vec![
            ("decode_enqueue", self.decode_enqueue.snapshot()),
            ("queue_wait", self.queue_wait.snapshot()),
            ("execute", self.execute.snapshot()),
            ("lock_wait", self.lock_wait.snapshot()),
            ("respond", self.respond.snapshot()),
            ("total", self.total.snapshot()),
            ("poll_wait", self.poll_wait.snapshot()),
            ("batch_assemble", self.batch_assemble.snapshot()),
            ("coalesce", self.coalesce.snapshot()),
        ]
    }
}

/// The shared telemetry registry: one per server (or per engine run).
pub struct Telemetry {
    epoch: Instant,
    /// Request lifecycle histograms.
    pub phases: PhaseHists,
    /// Lock-table blocked-interval durations (every acquire that waited).
    pub lock_blocked: WallHist,
    /// Lock hold times (grant to release/discard).
    pub lock_hold: WallHist,
    spans: Mutex<VecDeque<ReqSpan>>,
    span_cap: usize,
    gauges: Mutex<BTreeMap<&'static str, u64>>,
}

impl Telemetry {
    fn new(span_cap: usize) -> Telemetry {
        Telemetry {
            epoch: Instant::now(),
            phases: PhaseHists::default(),
            lock_blocked: WallHist::new(),
            lock_hold: WallHist::new(),
            spans: Mutex::new(VecDeque::with_capacity(span_cap.min(1024))),
            span_cap,
            gauges: Mutex::new(BTreeMap::new()),
        }
    }
}

/// Cheap clonable handle: `None` means telemetry is off and every call
/// is a single branch.
#[derive(Clone, Default)]
pub struct TelemetryHandle(Option<Arc<Telemetry>>);

impl TelemetryHandle {
    /// A handle that records nothing.
    pub fn disabled() -> TelemetryHandle {
        TelemetryHandle(None)
    }

    /// A live handle with the given span-ring bound.
    pub fn enabled(span_cap: usize) -> TelemetryHandle {
        TelemetryHandle(Some(Arc::new(Telemetry::new(span_cap.max(1)))))
    }

    /// Whether this handle records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Microseconds since the telemetry epoch — 0 when disabled, so
    /// disabled call sites never touch the clock.
    pub fn now_us(&self) -> u64 {
        match &self.0 {
            Some(t) => t.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Record a finished request span: updates every phase histogram and
    /// appends to the bounded span ring (oldest dropped first).
    pub fn record_span(&self, span: ReqSpan) {
        let Some(t) = &self.0 else { return };
        t.phases.decode_enqueue.observe(span.decode_enqueue_us());
        t.phases.queue_wait.observe(span.queue_wait_us());
        t.phases.execute.observe(span.execute_us());
        t.phases.lock_wait.observe(span.lock_wait_us);
        t.phases.respond.observe(span.respond_us());
        t.phases.total.observe(span.total_us());
        let mut ring = t.spans.lock().expect("span ring poisoned");
        if ring.len() == t.span_cap {
            ring.pop_front();
        }
        ring.push_back(span);
    }

    /// Record one blocked interval from the lock table.
    pub fn observe_lock_blocked(&self, us: u64) {
        if let Some(t) = &self.0 {
            t.lock_blocked.observe(us);
        }
    }

    /// Record one lock hold time.
    pub fn observe_lock_hold(&self, us: u64) {
        if let Some(t) = &self.0 {
            t.lock_hold.observe(us);
        }
    }

    /// Record one observation into a named reactor phase histogram
    /// (`poll_wait`, `batch_assemble`, `coalesce`). These phases are fed
    /// outside the request-span lifecycle — the reactor's poll loop and
    /// the round's durability barrier have no single request to pin a
    /// span to. Unknown names are ignored.
    pub fn observe_phase(&self, name: &str, us: u64) {
        let Some(t) = &self.0 else { return };
        match name {
            "poll_wait" => t.phases.poll_wait.observe(us),
            "batch_assemble" => t.phases.batch_assemble.observe(us),
            "coalesce" => t.phases.coalesce.observe(us),
            _ => {}
        }
    }

    /// Publish a gauge (last write wins).
    pub fn gauge_set(&self, name: &'static str, v: u64) {
        if let Some(t) = &self.0 {
            t.gauges.lock().expect("gauges poisoned").insert(name, v);
        }
    }

    /// Current gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(&'static str, u64)> {
        match &self.0 {
            Some(t) => t
                .gauges
                .lock()
                .expect("gauges poisoned")
                .iter()
                .map(|(k, v)| (*k, *v))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Copy of the retained span ring (oldest first).
    pub fn spans(&self) -> Vec<ReqSpan> {
        match &self.0 {
            Some(t) => t
                .spans
                .lock()
                .expect("span ring poisoned")
                .iter()
                .copied()
                .collect(),
            None => Vec::new(),
        }
    }

    /// Number of spans recorded and retained.
    pub fn span_count(&self) -> usize {
        match &self.0 {
            Some(t) => t.spans.lock().expect("span ring poisoned").len(),
            None => 0,
        }
    }

    /// The retained spans as a Chrome trace document (`None` when
    /// disabled).
    pub fn chrome_trace(&self) -> Option<String> {
        self.0
            .as_ref()
            .map(|_| spans_to_chrome_trace(&self.spans()))
    }

    /// One JSON object with every histogram and gauge this handle holds:
    /// `{"phases": {...}, "lock_blocked": {...}, "lock_hold": {...},
    /// "gauges": {...}, "spans_retained": n}`. Empty object when
    /// disabled.
    pub fn to_json(&self) -> String {
        let Some(t) = &self.0 else {
            return "{}".to_string();
        };
        let mut phases = JsonObj::new();
        for (name, h) in t.phases.snapshots() {
            phases.raw(name, hist_json(&h));
        }
        let mut gauges = JsonObj::new();
        for (name, v) in self.gauges() {
            gauges.num(name, v);
        }
        let mut o = JsonObj::new();
        o.raw("phases", phases.build())
            .raw("lock_blocked", hist_json(&t.lock_blocked.snapshot()))
            .raw("lock_hold", hist_json(&t.lock_hold.snapshot()))
            .raw("gauges", gauges.build())
            .num("spans_retained", self.span_count() as u64);
        o.build()
    }
}

/// A histogram summary as JSON:
/// `{"count": n, "mean_us": m, "p50_us": a, "p95_us": b, "p99_us": c}`.
pub fn hist_json(h: &HistSnapshot) -> String {
    let (p50, p95, p99) = h.p50_p95_p99();
    let mut o = JsonObj::new();
    o.num("count", h.count())
        .float("mean_us", h.mean())
        .num("p50_us", p50)
        .num("p95_us", p95)
        .num("p99_us", p99);
    o.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_obs::json::Json;

    #[test]
    fn disabled_handle_records_nothing_and_never_allocates_spans() {
        let h = TelemetryHandle::disabled();
        assert!(!h.is_enabled());
        assert_eq!(h.now_us(), 0);
        h.record_span(ReqSpan {
            t_respond: 100,
            ..ReqSpan::default()
        });
        h.observe_lock_blocked(50);
        h.gauge_set("sgt.nodes", 7);
        assert_eq!(h.span_count(), 0);
        assert!(h.gauges().is_empty());
        assert_eq!(h.to_json(), "{}");
        assert!(h.chrome_trace().is_none());
    }

    #[test]
    fn span_ring_is_bounded() {
        let h = TelemetryHandle::enabled(4);
        for seq in 0..10u64 {
            h.record_span(ReqSpan {
                seq,
                ..ReqSpan::default()
            });
        }
        let spans = h.spans();
        assert_eq!(spans.len(), 4);
        // Oldest dropped: the ring keeps the newest 4.
        assert_eq!(spans[0].seq, 6);
        assert_eq!(spans[3].seq, 9);
    }

    #[test]
    fn to_json_summarizes_all_phases() {
        let h = TelemetryHandle::enabled(16);
        h.record_span(ReqSpan {
            t_decode: 0,
            t_enqueue: 10,
            t_dequeue: 30,
            t_exec_end: 130,
            t_respond: 150,
            lock_wait_us: 60,
            ..ReqSpan::default()
        });
        h.observe_lock_blocked(60);
        h.observe_lock_hold(90);
        h.observe_phase("poll_wait", 40);
        h.observe_phase("batch_assemble", 15);
        h.observe_phase("coalesce", 25);
        h.gauge_set("sgt.nodes", 3);
        let v = Json::parse(&h.to_json()).expect("telemetry JSON parses");
        let phases = v.get("phases").unwrap();
        for name in PHASES {
            let p = phases.get(name).unwrap_or_else(|| panic!("phase {name}"));
            assert_eq!(p.get("count").and_then(Json::as_num), Some(1.0));
        }
        assert_eq!(
            phases
                .get("queue_wait")
                .and_then(|p| p.get("mean_us"))
                .and_then(Json::as_num),
            Some(20.0)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|g| g.get("sgt.nodes"))
                .and_then(Json::as_num),
            Some(3.0)
        );
        assert_eq!(v.get("spans_retained").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn reactor_phases_record_via_observe_phase_only() {
        let h = TelemetryHandle::enabled(4);
        h.observe_phase("poll_wait", 100);
        h.observe_phase("poll_wait", 200);
        h.observe_phase("coalesce", 50);
        h.observe_phase("no_such_phase", 1);
        let v = Json::parse(&h.to_json()).expect("telemetry JSON parses");
        let phases = v.get("phases").unwrap();
        let count = |name: &str| {
            phases
                .get(name)
                .and_then(|p| p.get("count"))
                .and_then(Json::as_num)
        };
        assert_eq!(count("poll_wait"), Some(2.0));
        assert_eq!(count("coalesce"), Some(1.0));
        assert_eq!(count("batch_assemble"), Some(0.0));
        // A span record must not feed the reactor phases.
        h.record_span(ReqSpan::default());
        let v = Json::parse(&h.to_json()).expect("parses");
        let phases = v.get("phases").unwrap();
        assert_eq!(
            phases
                .get("poll_wait")
                .and_then(|p| p.get("count"))
                .and_then(Json::as_num),
            Some(2.0)
        );
        let disabled = TelemetryHandle::disabled();
        disabled.observe_phase("poll_wait", 10);
        assert_eq!(disabled.to_json(), "{}");
    }

    #[test]
    fn now_us_is_monotone_when_enabled() {
        let h = TelemetryHandle::enabled(1);
        let a = h.now_us();
        let b = h.now_us();
        assert!(b >= a);
    }
}
