//! # nt-obs
//!
//! The workspace's one observability stack, zero external dependencies: a
//! structured event journal stamped with a logical clock, a metrics
//! registry (counters / gauges / log-linear histograms with per-object and
//! per-depth breakdowns), JSONL / Chrome-`trace_event` / summary
//! exporters, and a bounded flight-recorder tail dumped on violations,
//! invariant failures, and non-quiescent runs.
//!
//! A [`Recorder`] comes in two modes:
//!
//! * **events-only** ([`Recorder::full`], [`Recorder::flight`]) — the
//!   simulator, the checker, a server with telemetry off. Events carry the
//!   logical clock (round, step) plus a monotonic sequence number and the
//!   recorder *never reads a wall clock*, so same-seed runs emit
//!   byte-identical journals.
//! * **timed** ([`Recorder::timed`]) — a server with telemetry on. It
//!   additionally owns a wall-clock epoch ([`TraceHandle::now_us`]) and a
//!   bounded ring of [`ReqSpan`]s; latencies land in the same registry as
//!   `phase.*` and lock-table histograms, and [`TraceHandle::to_json`]
//!   renders them as the `telemetry` section of the server's `STATS`
//!   document.
//!
//! ## Design constraints
//!
//! * **Near-zero overhead when disabled**: instrumented sites hold a
//!   [`TraceHandle`]; a disabled handle is a `None` and every recording
//!   call is a single branch — no clock read, no allocation, no lock.
//! * **One lock, a leaf**: everything mutable sits behind the recorder's
//!   mutex, which is never held across a call out of this crate.
//! * **No new dependencies**: std only (compatible with the vendored-shims
//!   offline build); JSON is written and parsed by [`json`].
//!
//! ## Usage sketch
//!
//! ```
//! use nt_obs::{Event, Recorder, TraceHandle};
//! let h: TraceHandle = Recorder::full();
//! h.set_now(1, 3); // the executor advances the logical clock
//! h.record(Event::Note { text: "hello".into() });
//! h.inc("my.counter");
//! let journal = h.journal_jsonl().unwrap();
//! assert!(journal.contains("\"type\":\"note\""));
//! ```

#![forbid(unsafe_code)]

pub mod cell;
pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod schema;
pub mod smoke;
pub mod span;

pub use cell::StatsCell;
pub use event::{obj, tx, Event, LockClass, Stamped};
pub use hist::Histogram;
pub use metrics::MetricsRegistry;
pub use smoke::SmokeLine;
pub use span::{spans_to_chrome_trace, ReqSpan};

use json::JsonObj;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Default flight-recorder capacity (events kept for post-mortem dumps).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 512;

/// Request spans a timed recorder retains (newest win).
pub const SPAN_RING: usize = 4096;

struct Inner {
    round: u64,
    step: u64,
    seq: u64,
    /// Keep the full journal (`Recorder::full`) or only the flight ring.
    keep_journal: bool,
    flight_capacity: usize,
    journal: VecDeque<Stamped>,
    metrics: MetricsRegistry,
    /// Finished request spans, at most [`SPAN_RING`] (timed recorders).
    spans: VecDeque<ReqSpan>,
}

/// The event/metrics sink. Create one via [`Recorder::full`] (unbounded
/// journal, for exports), [`Recorder::flight`] (bounded ring only, for
/// always-on post-mortem recording) or [`Recorder::timed`] (a full
/// recorder that also measures wall-clock time); all return a cheap
/// [`TraceHandle`].
pub struct Recorder {
    /// `Some` makes the recorder timed. Events-only recorders have no
    /// epoch, so nothing they do can read a clock.
    epoch: Option<Instant>,
    inner: Mutex<Inner>,
}

impl Recorder {
    fn make(epoch: Option<Instant>, keep_journal: bool, flight_capacity: usize) -> TraceHandle {
        TraceHandle(Some(Arc::new(Recorder {
            epoch,
            inner: Mutex::new(Inner {
                round: 0,
                step: 0,
                seq: 0,
                keep_journal,
                flight_capacity: flight_capacity.max(1),
                journal: VecDeque::new(),
                metrics: MetricsRegistry::new(),
                spans: VecDeque::new(),
            }),
        })))
    }

    /// An events-only recorder that keeps the whole journal (exportable as
    /// JSONL / Chrome trace) plus the metrics registry.
    pub fn full() -> TraceHandle {
        Recorder::make(None, true, DEFAULT_FLIGHT_CAPACITY)
    }

    /// An events-only recorder that keeps only the last `capacity` events
    /// (the flight ring) plus the metrics registry — bounded memory,
    /// always-on use.
    pub fn flight(capacity: usize) -> TraceHandle {
        Recorder::make(None, false, capacity)
    }

    /// A [`Recorder::full`] that also measures: its epoch is now,
    /// [`TraceHandle::now_us`] counts from it, and request spans are
    /// retained.
    pub fn timed() -> TraceHandle {
        Recorder::make(Some(Instant::now()), true, DEFAULT_FLIGHT_CAPACITY)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("nt-obs recorder poisoned")
    }
}

/// A cheap, cloneable handle to a [`Recorder`], or a disabled no-op.
///
/// Everything in the stack that can emit events holds one of these; the
/// default is disabled, in which case every method returns immediately
/// after one `Option` branch.
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<Recorder>>);

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "TraceHandle(enabled)"
        } else {
            "TraceHandle(disabled)"
        })
    }
}

impl TraceHandle {
    /// The no-op handle.
    pub fn disabled() -> Self {
        TraceHandle(None)
    }

    /// Is a recorder attached?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Is a *timed* recorder attached? Probe sites that would read a
    /// clock ask this first, so disabled and events-only handles keep
    /// them dark.
    #[inline]
    pub fn is_timed(&self) -> bool {
        self.timed().is_some()
    }

    /// The attached recorder and its epoch, when it is a timed one.
    fn timed(&self) -> Option<(&Recorder, Instant)> {
        let r = self.0.as_ref()?;
        Some((r, r.epoch?))
    }

    /// Microseconds since a timed recorder's epoch — 0 otherwise, without
    /// touching the clock.
    pub fn now_us(&self) -> u64 {
        self.timed()
            .map_or(0, |(_, epoch)| epoch.elapsed().as_micros() as u64)
    }

    /// Set the logical clock (the executor calls this as rounds/steps
    /// advance; events recorded afterwards carry this stamp).
    #[inline]
    pub fn set_now(&self, round: u64, step: u64) {
        if let Some(r) = &self.0 {
            let mut g = r.lock();
            g.round = round;
            g.step = step;
        }
    }

    /// Advance the step component by one (post-hoc phases, tests).
    #[inline]
    pub fn tick(&self) {
        if let Some(r) = &self.0 {
            r.lock().step += 1;
        }
    }

    /// Record an event (stamped with the current logical clock). Also
    /// auto-derives metrics: an `ev.<kind>` counter and, when the event
    /// names an object, a per-object breakdown of the same key.
    #[inline]
    pub fn record(&self, event: Event) {
        if let Some(r) = &self.0 {
            let mut g = r.lock();
            let counter = event.counter();
            g.metrics.add(counter, 1);
            if let Some(o) = event.object() {
                g.metrics.add_obj(counter, o, 1);
            }
            let stamped = Stamped {
                round: g.round,
                step: g.step,
                seq: g.seq,
                event,
            };
            g.seq += 1;
            g.journal.push_back(stamped);
            if !g.keep_journal {
                while g.journal.len() > g.flight_capacity {
                    g.journal.pop_front();
                }
            }
        }
    }

    /// Record a finished request span (timed recorders only): feeds the
    /// four span-derived phase histograms and appends to the bounded span
    /// ring, oldest dropped first.
    pub fn record_span(&self, span: ReqSpan) {
        let Some((r, _)) = self.timed() else { return };
        let mut g = r.lock();
        for (name, _, us) in span.slices() {
            g.metrics.observe(name, us);
        }
        g.metrics.observe("phase.lock_wait", span.lock_wait_us);
        g.metrics.observe("phase.total", span.total_us());
        if g.spans.len() == SPAN_RING {
            g.spans.pop_front();
        }
        g.spans.push_back(span);
    }

    /// Run `f` against the metrics registry (no-op when disabled).
    #[inline]
    pub fn metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
        self.0.as_ref().map(|r| f(&mut r.lock().metrics))
    }

    /// Increment a counter.
    #[inline]
    pub fn inc(&self, name: &'static str) {
        self.metrics(|m| m.inc(name));
    }

    /// Add to a counter.
    #[inline]
    pub fn add(&self, name: &'static str, n: u64) {
        self.metrics(|m| m.add(name, n));
    }

    /// Set a gauge.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, v: i64) {
        self.metrics(|m| m.gauge_set(name, v));
    }

    /// Record a histogram observation.
    #[inline]
    pub fn observe(&self, name: &'static str, v: u64) {
        self.metrics(|m| m.observe(name, v));
    }

    /// Add to a per-object counter.
    #[inline]
    pub fn add_obj(&self, name: &'static str, obj: u32, n: u64) {
        self.metrics(|m| m.add_obj(name, obj, n));
    }

    /// Add to a per-depth counter.
    #[inline]
    pub fn add_depth(&self, name: &'static str, depth: u32, n: u64) {
        self.metrics(|m| m.add_depth(name, depth, n));
    }

    /// Snapshot the recorded journal (full journal or flight ring).
    pub fn journal(&self) -> Option<Vec<Stamped>> {
        self.0
            .as_ref()
            .map(|r| r.lock().journal.iter().cloned().collect())
    }

    /// Snapshot the metrics registry.
    pub fn metrics_snapshot(&self) -> Option<MetricsRegistry> {
        self.metrics(|m| m.clone())
    }

    /// Current gauges, sorted by name (negative values read as 0). Empty
    /// when disabled.
    pub fn gauges(&self) -> Vec<(&'static str, u64)> {
        self.metrics(|m| {
            m.gauges()
                .map(|(k, v)| (k, u64::try_from(v).unwrap_or(0)))
                .collect()
        })
        .unwrap_or_default()
    }

    /// Copy of the retained span ring (oldest first).
    pub fn spans(&self) -> Vec<ReqSpan> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |r| r.lock().spans.iter().copied().collect())
    }

    /// Number of spans retained.
    pub fn span_count(&self) -> usize {
        self.0.as_ref().map_or(0, |r| r.lock().spans.len())
    }

    /// Export the journal as JSONL (one event object per line, trailing
    /// newline). `None` when disabled.
    pub fn journal_jsonl(&self) -> Option<String> {
        self.journal().map(|j| export::to_jsonl(&j))
    }

    /// Export the journal in Chrome `trace_event` format (a JSON object
    /// loadable by `chrome://tracing` / Perfetto). `None` when disabled.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.journal().map(|j| export::to_chrome_trace(&j))
    }

    /// The retained request spans as a Chrome trace document (`None`
    /// unless timed).
    pub fn spans_chrome_trace(&self) -> Option<String> {
        self.is_timed()
            .then(|| spans_to_chrome_trace(&self.spans()))
    }

    /// Export the metrics registry as JSON. `None` when disabled.
    pub fn metrics_json(&self) -> Option<String> {
        self.metrics(|m| m.to_json())
    }

    /// A timed recorder's measurements as one JSON object — the
    /// `telemetry` section of `nt-net/stats/v3`: `{"phases": {<name>:
    /// hist, …}, <other histogram>: hist, …, "gauges": {…},
    /// "spans_retained": n}`, each `hist` being
    /// [`Histogram::to_json`]`("_us")`. `phases` holds the histograms
    /// observed under a `phase.` prefix (prefix stripped); every other
    /// histogram (the lock table's `lock_blocked` and `lock_hold`) sits
    /// beside it under its own name. A histogram appears at its first
    /// observation. `"{}"` unless timed.
    pub fn to_json(&self) -> String {
        let Some((r, _)) = self.timed() else {
            return "{}".to_string();
        };
        let g = r.lock();
        let (mut phases, mut others) = (JsonObj::new(), Vec::new());
        for (name, h) in g.metrics.histograms() {
            match name.strip_prefix("phase.") {
                Some(phase) => {
                    phases.raw(phase, h.to_json("_us"));
                }
                None => others.push((name, h.to_json("_us"))),
            }
        }
        let mut gauges = JsonObj::new();
        for (name, v) in g.metrics.gauges() {
            gauges.inum(name, v);
        }
        let mut o = JsonObj::new();
        o.raw("phases", phases.build());
        for (name, hist) in others {
            o.raw(name, hist);
        }
        o.raw("gauges", gauges.build())
            .num("spans_retained", g.spans.len() as u64);
        o.build()
    }

    /// The last events (at most the flight capacity) rendered as a
    /// JSONL post-mortem dump with a leading `violation` header line.
    /// `None` when disabled or empty.
    pub fn flight_dump(&self, reason: &str) -> Option<String> {
        let r = self.0.as_ref()?;
        let tail: Vec<Stamped> = {
            let g = r.lock();
            let skip = g.journal.len().saturating_sub(g.flight_capacity);
            g.journal.iter().skip(skip).cloned().collect()
        };
        let last = tail.last()?;
        let header = Stamped {
            round: last.round,
            step: last.step,
            seq: last.seq + 1,
            event: Event::Violation {
                reason: reason.to_string(),
            },
        };
        let mut out = String::new();
        out.push_str(&header.to_json_line());
        out.push('\n');
        out.push_str(&export::to_jsonl(&tail));
        Some(out)
    }

    /// Record a violation event and write the flight dump to stderr
    /// (the automatic trigger path: checker violations, failed runs).
    pub fn dump_flight_to_stderr(&self, reason: &str) {
        if let Some(dump) = self.flight_dump(reason) {
            eprintln!("=== nt-obs flight recorder dump ({reason}) ===");
            eprint!("{dump}");
            eprintln!("=== end flight dump ===");
        }
    }
}

/// Install a panic hook that dumps `handle`'s flight ring to stderr before
/// the default hook runs — so an invariant `expect`/`assert!` firing
/// anywhere in the stack leaves a post-mortem trace. Intended for binaries
/// (the hook is process-global).
pub fn install_panic_flight_dump(handle: TraceHandle) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        handle.dump_flight_to_stderr("panic (invariant failure)");
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = TraceHandle::disabled();
        assert!(!h.enabled());
        h.record(Event::Note { text: "x".into() });
        h.inc("c");
        h.set_now(1, 1);
        assert!(h.journal().is_none());
        assert!(h.journal_jsonl().is_none());
        assert!(h.flight_dump("r").is_none());
    }

    #[test]
    fn recording_stamps_logical_clock_and_seq() {
        let h = Recorder::full();
        h.set_now(2, 5);
        h.record(Event::Note { text: "a".into() });
        h.set_now(3, 9);
        h.record(Event::Note { text: "b".into() });
        let j = h.journal().unwrap();
        assert_eq!((j[0].round, j[0].step, j[0].seq), (2, 5, 0));
        assert_eq!((j[1].round, j[1].step, j[1].seq), (3, 9, 1));
    }

    #[test]
    fn auto_metrics_from_events() {
        let h = Recorder::full();
        h.record(Event::LockAcquired {
            obj: 2,
            tx: 5,
            class: LockClass::Read,
        });
        h.record(Event::LockAcquired {
            obj: 2,
            tx: 6,
            class: LockClass::Write,
        });
        let m = h.metrics_snapshot().unwrap();
        assert_eq!(m.counter("ev.lock_acquired"), 2);
        assert_eq!(m.object_breakdown("ev.lock_acquired"), vec![(2, 2)]);
    }

    #[test]
    fn flight_ring_keeps_only_tail() {
        let h = Recorder::flight(3);
        for i in 0..10u64 {
            h.record(Event::Note {
                text: format!("n{i}"),
            });
        }
        let j = h.journal().unwrap();
        assert_eq!(j.len(), 3);
        assert_eq!(j[0].seq, 7, "oldest kept event");
        let dump = h.flight_dump("test").unwrap();
        assert!(dump.lines().count() == 4, "header + 3 events");
        assert!(dump.starts_with('{'));
        assert!(dump.contains("\"type\":\"violation\""));
    }

    #[test]
    fn full_recorder_flight_dump_truncates_to_capacity() {
        let h = Recorder::full();
        for i in 0..(DEFAULT_FLIGHT_CAPACITY as u64 + 40) {
            h.record(Event::Note {
                text: format!("n{i}"),
            });
        }
        assert_eq!(
            h.journal().unwrap().len(),
            DEFAULT_FLIGHT_CAPACITY + 40,
            "full journal unbounded"
        );
        let dump = h.flight_dump("test").unwrap();
        assert_eq!(dump.lines().count(), DEFAULT_FLIGHT_CAPACITY + 1);
    }

    #[test]
    fn every_event_kind_counts_under_its_own_name() {
        let all = crate::event::tests::one_of_each();
        let h = Recorder::full();
        for event in &all {
            h.record(event.clone());
        }
        let m = h.metrics_snapshot().unwrap();
        for event in &all {
            let name = format!("ev.{}", event.kind());
            assert_eq!(event.counter(), name);
            assert_eq!(m.counter(&name), 1, "{name}");
        }
        assert_eq!(m.counter("ev.other"), 0);
    }

    #[test]
    fn events_only_recorder_never_reads_a_clock() {
        // Same events, different wall-clock pacing: an events-only
        // recorder has no epoch to measure against, so nothing can differ.
        let run = |pause_us: u64| {
            let h = Recorder::full();
            for i in 0..3000u64 {
                if i % 1000 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(pause_us));
                }
                h.set_now(i / 7, i);
                h.record(Event::ConnAccepted { conn: i });
                h.observe("h", i);
                h.record_span(ReqSpan::default());
                assert_eq!(h.now_us(), 0);
            }
            assert!(!h.is_timed());
            assert_eq!(h.to_json(), "{}");
            assert_eq!(h.span_count(), 0);
            assert!(h.spans_chrome_trace().is_none());
            (h.journal_jsonl().unwrap(), h.metrics_json().unwrap())
        };
        assert_eq!(run(0), run(1500));
    }

    #[test]
    fn disabled_handle_records_nothing_and_never_allocates_spans() {
        let h = TraceHandle::disabled();
        assert!(!h.is_timed());
        assert_eq!(h.now_us(), 0);
        h.record_span(ReqSpan {
            t_finished: 100,
            ..ReqSpan::default()
        });
        h.observe("lock_blocked", 50);
        h.gauge_set("sgt.live.nodes", 7);
        assert_eq!(h.span_count(), 0);
        assert!(h.gauges().is_empty());
        assert_eq!(h.to_json(), "{}");
        assert!(h.spans_chrome_trace().is_none());
    }

    #[test]
    fn span_ring_is_bounded() {
        let h = Recorder::timed();
        for seq in 0..SPAN_RING as u64 + 6 {
            h.record_span(ReqSpan {
                seq,
                ..ReqSpan::default()
            });
        }
        let spans = h.spans();
        assert_eq!(spans.len(), SPAN_RING);
        // Oldest dropped: the ring keeps the newest.
        assert_eq!(spans[0].seq, 6);
        assert_eq!(spans[SPAN_RING - 1].seq, SPAN_RING as u64 + 5);
    }

    fn count_of(doc: &json::Json, path: &[&str]) -> Option<f64> {
        let mut v = doc;
        for key in path {
            v = v.get(key)?;
        }
        v.get("count")?.as_num()
    }

    #[test]
    fn to_json_summarizes_all_phases() {
        use json::Json;
        let h = Recorder::timed();
        h.record_span(ReqSpan {
            t_arrived: 10,
            t_started: 30,
            t_finished: 130,
            lock_wait_us: 60,
            ..ReqSpan::default()
        });
        h.observe("lock_blocked", 60);
        h.observe("lock_hold", 90);
        h.observe("phase.poll_wait", 40);
        h.gauge_set("sgt.live.nodes", 3);
        let v = Json::parse(&h.to_json()).expect("telemetry JSON parses");
        for phase in ["queue_wait", "execute", "lock_wait", "total", "poll_wait"] {
            assert_eq!(count_of(&v, &["phases", phase]), Some(1.0), "{phase}");
        }
        for hist in ["lock_blocked", "lock_hold"] {
            assert_eq!(count_of(&v, &[hist]), Some(1.0), "{hist}");
        }
        let queue_wait = v.get("phases").and_then(|p| p.get("queue_wait")).unwrap();
        assert_eq!(queue_wait.get("mean_us").and_then(Json::as_num), Some(20.0));
        // Percentiles report the bucket's upper bound: 20 shares [20, 21].
        assert_eq!(queue_wait.get("p99_us").and_then(Json::as_num), Some(21.0));
        let gauges = v.get("gauges").unwrap();
        assert_eq!(
            gauges.get("sgt.live.nodes").and_then(Json::as_num),
            Some(3.0)
        );
        assert_eq!(h.gauges(), vec![("sgt.live.nodes", 3)]);
        assert_eq!(v.get("spans_retained").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn reactor_phases_are_fed_by_observe_not_by_spans() {
        let h = Recorder::timed();
        h.observe("phase.poll_wait", 100);
        h.observe("phase.poll_wait", 200);
        h.observe("phase.coalesce", 50);
        h.record_span(ReqSpan::default());
        let v = json::Json::parse(&h.to_json()).expect("telemetry JSON parses");
        assert_eq!(count_of(&v, &["phases", "poll_wait"]), Some(2.0));
        assert_eq!(count_of(&v, &["phases", "coalesce"]), Some(1.0));
        assert_eq!(count_of(&v, &["phases", "total"]), Some(1.0));
        // Never observed, so never listed.
        assert_eq!(count_of(&v, &["phases", "batch_assemble"]), None);
    }

    #[test]
    fn now_us_is_monotone_when_enabled() {
        let h = Recorder::timed();
        let a = h.now_us();
        let b = h.now_us();
        assert!(b >= a);
        assert!(h.is_timed());
    }
}
