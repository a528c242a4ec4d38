//! The networked nested-transaction server over
//! `nt_engine::SessionEngine`: the protocol core (`OpsRun`: answer a
//! frame's ops from cache or by execution, resumably) and its one way of
//! serving — [`NetServer::serve`] mounts the per-connection service of
//! `front_reactor.rs` on the run-to-completion `nt-reactor` loop.
//!
//! One poll thread owns the listener and every socket and executes every
//! frame inline; nothing here blocks it. The one op that waits on another
//! party — an `ACCESS` whose Moss lock a non-ancestor holds — parks as a
//! continuation and resumes when the releaser fires the connection's wake
//! handle. A per-`seq` cache of mutating ops' responses makes execution
//! exactly-once under the at-least-once transport: a retried or duplicated
//! mutating frame is answered from cache, never re-executed (a read-only
//! one is simply answered again). The cache is a window, not a log: every
//! request carries the client's cumulative ack, and a connection forgets
//! the replies below it — its client has them — so a resend below the ack
//! that the cache no longer holds is refused with `ACKED`, never run
//! again. With a durable store mounted, every
//! action and every mutating op's response is *staged* in the WAL as it
//! happens, and the round's first flush pays one `wait_durable` — one
//! extent, one `write(2)`, at most one fsync — for every connection's
//! burst, so **no reply byte leaves while the stage holds a record**: the
//! poll round is the group commit, for the append as for the fsync. A
//! barrier that fails acknowledges nothing: the round's replies are
//! dropped and the server drains.
//!
//! The server owns one `nt-obs` recorder, built in [`NetServer::bind`]:
//! every event (`conn_accepted`, `frame_fault`, `deadlock_victim`, …) is
//! recorded into it once, [`DrainReport::journal`] is its journal and the
//! flight dump written to stderr on a drain timeout or a live certifier
//! violation is that journal's tail — same lines, same `seq`. When the
//! config enables telemetry the recorder is a *timed* one: each
//! request's lifecycle (arrived → started → finished)
//! is stamped into an [`nt_obs::ReqSpan`] carrying dual
//! wall-clock/`SeqClock` stamps, and the engine's lock table and the
//! certifier's gauges feed the same registry. With `live_certify` on, the
//! thread that records an action also steps an
//! [`nt_sgt_live::LiveCertifier`] with it — an incremental Theorem 17 gate
//! that checks each conflict edge as it forms, garbage-collects the
//! committed acyclic prefix behind a watermark, publishes the
//! `sgt.live.*` health gauges, and answers the `CERT` wire op and the
//! `sgt_live` section of `STATS` from its current state. A violation is
//! journaled and dumped by the poll thread on the first flush after it
//! closes, and so is a deadlock victim: the `ACCESS` that closes a
//! wait-for cycle dooms the victim inside its own execution (`nt-engine`
//! runs the detector at the enqueue), and that round's flush journals it.
//! The server starts no thread but the reactor's poll thread: the drain
//! deadline is a deadline of that thread too.
//!
//! Graceful drain (`ServerHandle::drain`, or a wire `Shutdown` request)
//! wakes the poll loop, which stops accepting and reading, answers every
//! frame already dispatched, flushes every output buffer, and exits; only
//! then is the engine torn down — so a drained server's recorded history
//! is complete and certifiable.

use crate::config::ServerConfig;
use crate::history::HistoryDoc;
use crate::wire::{
    encode_batch_response_from, encode_response, err_code, Request, Response, CRC_LEN, HEADER_LEN,
    MAGIC, MIN_PAYLOAD, VERSION,
};
use nt_engine::{
    AccessOutcome, AccessStep, ActionSink, BeginOutcome, CommitOutcome, ParkedAccess,
    RecoveredSeed, Session, SessionEngine, SessionError, WakeHandle,
};
use nt_model::{ObjId, TxId};
use nt_obs::json::JsonObj;
use nt_obs::{Event, Recorder, StatsCell, TraceHandle};
use nt_sgt_live::{cert_disabled_json, LiveCertifier, SgtConfig};
use nt_store::{RecoveryReport, Store, WalError};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Counters the server exposes while serving and after a drain — all
/// monotone but `reply_cache`, a gauge.
///
/// This is a plain `Copy` struct held in a [`StatsCell`], not a struct of
/// atomics: every increment is a coherent update and every read is a
/// coherent snapshot, so an observer can never see a torn state such as
/// `executed + cache_hits > frames` (which field-by-field relaxed loads
/// of independent atomics permitted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub conns: u64,
    /// Request frames read (before fault injection).
    pub frames: u64,
    /// Frames discarded by the fault plan.
    pub dropped: u64,
    /// Frames duplicated by the fault plan.
    pub duplicated: u64,
    /// Frames delayed by the fault plan.
    pub delayed: u64,
    /// Requests executed against a session (cache misses).
    pub executed: u64,
    /// Requests answered from the per-`seq` response cache.
    pub cache_hits: u64,
    /// Requests refused with `ACKED`: below their connection's ack, and
    /// no longer cached.
    pub acked_refusals: u64,
    /// Replies the open connections' exactly-once caches hold now.
    pub reply_cache: u64,
    /// The most replies any one connection's cache has held at once.
    pub reply_cache_max: u64,
}

pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) engine: Arc<SessionEngine>,
    /// The server's one recorder: the event journal (and its flight
    /// tail), and — timed, when the config enables telemetry — the span
    /// ring, phase histograms and gauges.
    pub(crate) rec: TraceHandle,
    addr: SocketAddr,
    /// The drain trigger: wakes the poll loop, which stops accepting and
    /// reading, answers everything already dispatched, flushes, and exits.
    drainer: nt_reactor::Drainer,
    pub(crate) stats: StatsCell<ServerStats>,
    /// The live certifier's violation has been journaled and dumped.
    violation_surfaced: AtomicBool,
    /// Deadlock victims journaled so far (a prefix of the engine's list).
    victims_surfaced: AtomicUsize,
    /// The durable store, when the config mounts one (`data_dir`).
    pub(crate) store: Option<Arc<Store>>,
    /// Responses recovered from the previous incarnation's WAL, keyed by
    /// wire `seq`: a client resending a pre-crash request gets the byte-
    /// identical cached answer instead of a second execution. A band's
    /// entries go once one of its connections acks past them; nothing is
    /// ever added after bind, so a band found empty stays empty and its
    /// connections stop taking the mutex (`ReplyCache::clear_band`).
    /// Touched only on the poll thread, so the mutex is never contended.
    recovered_cache: Mutex<BTreeMap<u64, Vec<u8>>>,
    /// The running reactor's counters (`reactor.*` in the stats
    /// document), set by `serve`.
    reactor_probe: OnceLock<nt_reactor::ReactorProbe>,
}

impl Shared {
    /// One live runtime snapshot (schema `nt-net/stats/v3`): coherent
    /// server counters, engine and lock-table counters, telemetry histograms
    /// and gauges, the live certifier's state (`sgt_live`, absent without
    /// `live_certify`), and the current wait-for graph.
    fn stats_json(&self) -> String {
        let (generation, s) = self.stats.snapshot();
        let mut o = JsonObj::new();
        o.str("schema", "nt-net/stats/v3")
            .num("generation", generation)
            .num("conns", s.conns)
            .num("frames", s.frames)
            .num("dropped", s.dropped)
            .num("duplicated", s.duplicated)
            .num("delayed", s.delayed)
            .num("executed", s.executed)
            .num("cache_hits", s.cache_hits)
            .num("acked_refusals", s.acked_refusals)
            .num("reply_cache", s.reply_cache)
            .num("reply_cache_max", s.reply_cache_max)
            .num("recovered_cache", self.recovered().len() as u64)
            .num("tx_count", self.engine.tx_count() as u64)
            .num("victims", self.engine.victims().len() as u64)
            .num("lock_grants", self.engine.lock_grants())
            .num("lock_blocks", self.engine.lock_blocks())
            .num("timeout_rescues", self.engine.timeout_rescues())
            .num("clock", self.engine.clock_now())
            .num("lock_hold_us", self.engine.lock_hold_us())
            .raw("telemetry", self.rec.to_json())
            .raw("wait_for", self.engine.wait_for_json());
        if let Some(probe) = self.reactor_probe.get() {
            let r = probe.stats();
            let mut ro = JsonObj::new();
            ro.num("poll_rounds", r.poll_rounds)
                .num("frames", r.frames)
                .num("parked_now", r.parked_now)
                .num("resumes", r.resumes);
            o.raw("reactor", ro.build());
        }
        if let Some(s) = self.engine.live_status() {
            let mut lo = JsonObj::new();
            lo.bool("ok", s.ok)
                .num("processed", s.processed)
                .num("watermark", s.watermark)
                .num("nodes", s.nodes as u64)
                .num("edges", s.edges as u64)
                .num("live_tops", s.live_tops as u64)
                // Stamps drawn that the maintainer has not stepped: zero
                // unless a thread is inside a record right now.
                .num("lag", self.engine.clock_now().saturating_sub(s.processed));
            o.raw("sgt_live", lo.build());
        }
        if let Some(store) = &self.store {
            // Records, extents (one `write(2)` each) and their bytes:
            // records per round is `wal_appended / wal_extents`.
            let c = store.wal().counters();
            o.num("wal_appended", c.appended)
                .num("wal_extents", c.extents)
                .num("wal_bytes", c.bytes)
                .num("wal_syncs", c.syncs)
                .num("wal_io_errors", c.io_errors)
                .bool("wal_failed", c.failed)
                .num("wal_generation", store.generation());
        }
        o.build()
    }

    /// Dump the flight ring and a stats snapshot to stderr (called on a
    /// drain timeout or a certifier violation).
    fn dump_diagnostics(&self, reason: &str) {
        self.rec.dump_flight_to_stderr(reason);
        eprintln!("=== nt-net stats snapshot ({reason}) ===");
        eprintln!("{}", self.stats_json());
    }

    /// The certifier's verdict document (schema `nt-sgt/cert/v1`), read
    /// from its current state: every action recorded before this call has
    /// already been stepped. Without `live_certify`, a `"disabled"`
    /// document.
    fn cert_json(&self) -> String {
        match self.engine.live_status() {
            Some(status) => status.cert_json(),
            None => cert_disabled_json(),
        }
    }

    /// Journal and dump a live-certifier violation, once. The poll thread
    /// calls this on every flush, so a cycle surfaces in the round that
    /// closed it.
    pub(crate) fn surface_violation(&self) {
        let violated = self.engine.live_ok() == Some(false);
        if violated && !self.violation_surfaced.swap(true, Ordering::AcqRel) {
            self.rec.record(Event::Violation {
                reason: "live certifier found a serialization cycle".to_string(),
            });
            self.dump_diagnostics("live certifier violation");
        }
    }

    /// Journal the deadlock victims doomed since the last call. Beside
    /// [`Shared::surface_violation`] on every flush: a victim is doomed
    /// inside some frame's execution, so the flush of that same round
    /// journals it, drain or no drain.
    pub(crate) fn surface_victims(&self) {
        let seen = self.victims_surfaced.load(Ordering::Relaxed);
        let fresh = self.engine.victims_from(seen);
        if fresh.is_empty() {
            return;
        }
        self.victims_surfaced
            .store(seen + fresh.len(), Ordering::Relaxed);
        for v in fresh {
            self.rec.record(Event::DeadlockVictim {
                victim: v.victim.0,
                waiter: v.waiter.0,
                blocker: v.blocker.0,
            });
        }
    }

    /// The drain has outrun `drain_timeout_ms`: dump the flight ring so
    /// the stall is diagnosable (the reactor calls this once, and keeps
    /// waiting).
    pub(crate) fn drain_overdue(&self) {
        self.rec.record(Event::Violation {
            reason: "drain timeout".to_string(),
        });
        self.dump_diagnostics("drain timeout");
    }

    fn recovered(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Vec<u8>>> {
        self.recovered_cache
            .lock()
            .expect("recovered cache poisoned")
    }

    /// A connection's client sent the cumulative ack `acked_below`: drop
    /// the replies it covers — the connection's own, then the recovered
    /// ones of its seq band (`acked_below >> 32`, as `Conn::seq_base`
    /// assigns bands) — before any op of the frame is answered.
    pub(crate) fn take_ack(&self, cache: &mut ReplyCache, acked_below: u64) {
        let Some(freed) = cache.ack(acked_below) else {
            return;
        };
        if freed > 0 {
            self.stats.update(|s| s.reply_cache -= freed as u64);
        }
        let band = acked_below >> 32;
        if cache.clear_band == Some(band) {
            return;
        }
        let mut recovered = self.recovered();
        let gone: Vec<u64> = recovered
            .range(band << 32..acked_below)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in gone {
            recovered.remove(&seq);
        }
        cache.note_band(&recovered, band);
    }

    /// The recovered pre-crash reply to `seq`, if any — without the mutex
    /// once `seq`'s band is known to hold none.
    fn recovered_reply(&self, cache: &mut ReplyCache, seq: u64) -> Option<Vec<u8>> {
        let band = seq >> 32;
        if cache.clear_band == Some(band) {
            return None;
        }
        let recovered = self.recovered();
        let hit = recovered.get(&seq).cloned();
        if hit.is_none() {
            cache.note_band(&recovered, band);
        }
        hit
    }

    /// A connection closed: its cached replies go with it.
    pub(crate) fn drop_cache(&self, cache: ReplyCache) {
        let held = cache.len() as u64;
        if held > 0 {
            self.stats.update(|s| s.reply_cache -= held);
        }
    }

    /// Initiate a graceful drain (idempotent, non-blocking).
    pub(crate) fn begin_drain(&self) {
        self.drainer.drain();
    }
}

/// A bound (not yet serving) server.
pub struct NetServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A serving server: drain it, then wait for it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    reactor: nt_reactor::ReactorHandle,
}

/// A clonable live view of a serving server, for metrics writers and
/// tests that observe the server while `ServerHandle::join` parks.
#[derive(Clone)]
pub struct ServerProbe {
    shared: Arc<Shared>,
}

impl ServerProbe {
    /// A coherent counter snapshot plus the generation it reflects.
    pub fn stats(&self) -> (u64, ServerStats) {
        self.shared.stats.snapshot()
    }

    /// The full live stats document (schema `nt-net/stats/v3`).
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// The server's recorder: the event journal always, and — only when
    /// the config enables telemetry — spans, histograms and gauges
    /// (`to_json()` is `"{}"` and `gauges()` empty otherwise).
    pub fn telemetry(&self) -> &TraceHandle {
        &self.shared.rec
    }

    /// A Chrome `trace_event` document of the retained request spans
    /// (`None` when telemetry is disabled).
    pub fn chrome_trace(&self) -> Option<String> {
        self.shared.rec.spans_chrome_trace()
    }

    /// Whether a drain has been initiated.
    pub fn is_draining(&self) -> bool {
        self.shared.drainer.is_draining()
    }

    /// Initiate a graceful drain (idempotent, returns immediately). The
    /// probe variant lets a signal-watcher thread trigger the drain while
    /// `ServerHandle::join` parks on the reactor.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }
}

/// What a drained server leaves behind.
pub struct DrainReport {
    /// Final counter values (a coherent snapshot).
    pub stats: ServerStats,
    /// The recorder's journal, rendered (`Stamped` event lines, `seq`
    /// contiguous from 0).
    pub journal: Vec<String>,
    /// Transactions registered over the server's lifetime.
    pub tx_count: usize,
    /// Deadlock victims doomed (each has a `deadlock_victim` journal line).
    pub victims: usize,
}

impl NetServer {
    /// Bind the listener and start the engine (no connections yet).
    ///
    /// With a `data_dir` configured, this first runs full store recovery:
    /// the WAL's durable prefix is replayed, crash-time losers are rolled
    /// back, and the recovered history must pass the Theorem 17 gate —
    /// a store that fails certification refuses to open, and so does the
    /// server. The engine then boots from the recovered seed with the
    /// WAL mounted as its action sink.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // The engine and the certifier only measure and publish gauges:
        // with telemetry off their probe sites stay a `None` branch.
        let (rec, probes) = if cfg.telemetry {
            let rec = Recorder::timed();
            (rec.clone(), rec)
        } else {
            (Recorder::full(), TraceHandle::disabled())
        };
        let (store, recovered_cache, seed) = match &cfg.data_dir {
            Some(dir) => {
                let (store, recovered) = Store::open(Path::new(dir), cfg.durability)
                    .map_err(|e| std::io::Error::other(format!("store open: {e}")))?;
                (Some(Arc::new(store)), recovered.cache, recovered.seed)
            }
            None => (None, BTreeMap::new(), RecoveredSeed::default()),
        };
        let sink = store
            .as_ref()
            .map(|s| Arc::clone(s.wal()) as Arc<dyn ActionSink>);
        let certifier = cfg
            .live_certify
            .then(|| LiveCertifier::new(SgtConfig::default(), probes.clone()));
        let engine = SessionEngine::start_recovered(cfg.capacity, probes, seed, sink, certifier)
            .map_err(|e| std::io::Error::other(format!("recovered seed replay: {e}")))?;
        let shared = Arc::new(Shared {
            cfg,
            engine,
            rec,
            addr,
            drainer: nt_reactor::Drainer::new(),
            stats: StatsCell::default(),
            violation_surfaced: AtomicBool::new(false),
            victims_surfaced: AtomicUsize::new(0),
            store,
            recovered_cache: Mutex::new(recovered_cache),
            reactor_probe: OnceLock::new(),
        });
        Ok(NetServer { listener, shared })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// What store recovery found at bind (`None` without a `data_dir`).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.shared.store.as_ref().map(|s| s.report().clone())
    }

    /// Start serving on the run-to-completion reactor (DESIGN.md §8j): one
    /// poll thread owns the listener and every socket and runs every
    /// connection's protocol service inline; replies coalesce into as few
    /// `write` syscalls as readiness allows, and one `wait_durable`
    /// barrier — one WAL extent — covers each poll round.
    pub fn serve(self) -> ServerHandle {
        let phase = self.shared.rec.is_timed().then(|| {
            let rec = self.shared.rec.clone();
            // `poll_wait` is the one phase the reactor times.
            Arc::new(move |_: &'static str, us: u64| rec.observe("phase.poll_wait", us))
                as nt_reactor::PhaseObserver
        });
        let rcfg = nt_reactor::ReactorConfig {
            min_frame_len: crate::wire::MIN_PAYLOAD,
            max_frame_len: self.shared.cfg.max_frame_len,
            checksum_len: crate::wire::CRC_LEN,
            queue_depth: self.shared.cfg.queue_depth.max(1),
            phase,
        };
        let factory = Arc::new(crate::front_reactor::ReactorFactory::new(Arc::clone(
            &self.shared,
        )));
        let reactor = nt_reactor::spawn(self.listener, rcfg, factory, self.shared.drainer.clone())
            .expect("reactor spawn: nonblocking listener + self-pipe");
        let _ = self.shared.reactor_probe.set(reactor.probe());
        ServerHandle {
            shared: self.shared,
            reactor,
        }
    }
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The engine underneath (for in-process certification in tests).
    pub fn engine(&self) -> Arc<SessionEngine> {
        Arc::clone(&self.shared.engine)
    }

    /// A clonable live view (counters, stats document, Chrome trace).
    pub fn probe(&self) -> ServerProbe {
        ServerProbe {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Initiate a graceful drain (idempotent, returns immediately).
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// Drain (if not already draining) and block until every connection
    /// finished its queued work; stops the engine and returns the report.
    pub fn wait(self) -> DrainReport {
        self.shared.begin_drain();
        self.join()
    }

    /// Block until something else initiates a drain — a wire `Shutdown`
    /// request or a `drain()` call from another thread — then finish it.
    /// This is how `nt-serve` parks: the poll thread only exits once a
    /// drain has been requested and completed.
    pub fn join(self) -> DrainReport {
        // Blocks until the drain completes: every dispatched frame
        // answered, every output buffer flushed, every service hung up.
        // A drain that outruns `drain_timeout_ms` is reported by the poll
        // thread itself (`Shared::drain_overdue`), once, and keeps waiting.
        self.reactor.join();
        let (_, stats) = self.shared.stats.snapshot();
        self.shared
            .rec
            .record(Event::ServerDrained { conns: stats.conns });
        // Every connection is gone, so the recorded history is complete
        // and the certifier has stepped all of it;
        // the drain's own hangup aborts resolve tops after the last flush.
        self.shared.surface_violation();
        // Fold the WAL into a fresh checkpoint so the next open replays
        // from a compact image, then fsync the tail.
        if let Some(store) = &self.shared.store {
            if let Err(e) = store.rotate() {
                eprintln!("nt-serve: checkpoint rotation on drain failed: {e}");
            }
            store.close();
        }
        let shared = &self.shared;
        let journal = shared.rec.journal_jsonl().unwrap_or_default();
        DrainReport {
            stats,
            journal: journal.lines().map(String::from).collect(),
            tx_count: shared.engine.tx_count(),
            victims: shared.engine.victims().len(),
        }
    }
}

/// The longest message an error reply carries: every message the server
/// writes is a fixed sentence around at most two integers, and
/// [`error_reply`] cuts anything longer, so an error entry has a bound a
/// `BATCH_RESP` can be sized by.
const MAX_ERROR_MSG: usize = 96;

/// An error reply whose message is at most [`MAX_ERROR_MSG`] bytes.
pub(crate) fn error_reply(code: u16, mut msg: String) -> Response {
    if msg.len() > MAX_ERROR_MSG {
        let mut cut = MAX_ERROR_MSG;
        while !msg.is_char_boundary(cut) {
            cut -= 1;
        }
        msg.truncate(cut);
    }
    Response::Error { code, msg }
}

/// Bytes of the largest `BATCH_RESP` entry an answer that does not grow
/// with server state can take: `seq u64 | kind u8 | body_len u32`, then an
/// error body (`code u16 | msg_len u32 | msg`) — larger than every other
/// such body (`ACCESS_OK`'s tagged `i64` is nine bytes).
const MAX_BATCH_ENTRY: usize = 8 + 1 + 4 + 2 + 4 + MAX_ERROR_MSG;

/// The most members a `BATCH` may carry on a server whose cap is
/// `max_frame_len`: that many of the largest entries, with the count
/// before them, fit one `BATCH_RESP` frame. Answers that grow with server
/// state (`HISTORY_FETCH`, `STATS`, `CERT`) are refused as members, so
/// with this bound no `BATCH_RESP` can pass the cap.
pub(crate) fn batch_member_cap(max_frame_len: usize) -> usize {
    max_frame_len.saturating_sub(MIN_PAYLOAD + 4) / MAX_BATCH_ENTRY
}

/// Whether a request's answer grows with server state — refused as a
/// `BATCH` member, answered when sent alone.
fn grows(req: &Request) -> bool {
    matches!(req, Request::HistoryFetch | Request::Stats | Request::Cert)
}

pub(crate) fn session_error_response(e: &SessionError) -> Response {
    let code = match e {
        SessionError::Capacity => err_code::CAPACITY,
        SessionError::UnknownTx(_) => err_code::UNKNOWN_TX,
        SessionError::NotOwned(_) => err_code::NOT_OWNED,
        SessionError::NotInner(_) => err_code::NOT_INNER,
        SessionError::Completed(_) => err_code::COMPLETED,
        SessionError::NonRwOp => err_code::NON_RW_OP,
        SessionError::BadObject(_) => err_code::BAD_OBJECT,
    };
    error_reply(code, e.to_string())
}

/// One connection's exactly-once window: the replies to its mutating ops
/// (full frames, prefix included) in seq order, kept until the client's
/// cumulative ack passes them. It holds what the client may still resend
/// — at most its pipelined run — not everything it was ever answered.
#[derive(Default)]
pub(crate) struct ReplyCache {
    replies: VecDeque<(u64, Vec<u8>)>,
    /// The largest ack the client sent: it has the answer to every seq
    /// below. Acks only grow; a resend's older ack changes nothing.
    acked_below: u64,
    /// A seq band (`seq >> 32`) found to hold no recovered reply: the
    /// recovered cache only shrinks, so the connection stops looking.
    clear_band: Option<u64>,
}

impl ReplyCache {
    /// Take an ack: forget the replies below it. The number forgotten, or
    /// `None` when the ack did not advance.
    fn ack(&mut self, acked_below: u64) -> Option<usize> {
        if acked_below <= self.acked_below {
            return None;
        }
        self.acked_below = acked_below;
        let held = self.replies.len();
        while self
            .replies
            .front()
            .is_some_and(|&(seq, _)| seq < acked_below)
        {
            self.replies.pop_front();
        }
        Some(held - self.replies.len())
    }

    fn get(&self, seq: u64) -> Option<&Vec<u8>> {
        let i = self.replies.binary_search_by_key(&seq, |&(s, _)| s).ok()?;
        Some(&self.replies[i].1)
    }

    /// Keep the reply to `seq`, which is not held yet. A reply is
    /// appended; one that arrives out of order — the resend of a frame the
    /// fault plan dropped executes after later seqs — is placed by binary
    /// search.
    fn insert(&mut self, seq: u64, reply: Vec<u8>) {
        let at = self.replies.partition_point(|&(s, _)| s < seq);
        debug_assert!(self.replies.get(at).is_none_or(|&(s, _)| s != seq));
        self.replies.insert(at, (seq, reply));
    }

    /// Remember `band` as clear when `recovered` holds nothing in it.
    fn note_band(&mut self, recovered: &BTreeMap<u64, Vec<u8>>, band: u64) {
        let clear = recovered
            .range(band << 32..)
            .next()
            .is_none_or(|(&seq, _)| seq >> 32 != band);
        if clear {
            self.clear_band = Some(band);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.replies.len()
    }
}

/// Where an op's answer came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// The op ran.
    Executed,
    /// A cache held its reply.
    Cached,
    /// Below the ack and no longer cached: refused with `ACKED`.
    Acked,
    /// A `BATCH` member whose answer grows with server state: refused with
    /// `UNBATCHABLE`, nothing ran.
    Refused,
}

/// The outcome of answering one op (a single request, or one member of a
/// `BATCH`): the full single-response frame bytes and where they came
/// from.
struct OpAnswer {
    /// Full response frame, length prefix included — exactly what the
    /// exactly-once cache stores and a single-op reply writes.
    bytes: Vec<u8>,
    source: Source,
    /// The reply joined the connection's cache.
    kept: bool,
    lock_wait_us: u64,
}

/// An answer to `seq` that runs nothing: the connection's cached reply,
/// then the recovered pre-crash one (a request resent after restart gets
/// the byte-identical response, never a second execution), else — below
/// the connection's ack — the `ACKED` refusal. `None`: the op must run.
fn answer_without_running(shared: &Shared, cache: &mut ReplyCache, seq: u64) -> Option<OpAnswer> {
    let cached = match cache.get(seq) {
        Some(bytes) => Some(bytes.clone()),
        None => shared.recovered_reply(cache, seq),
    };
    let (bytes, source) = match cached {
        Some(bytes) => (bytes, Source::Cached),
        None if seq < cache.acked_below => {
            let refusal = error_reply(
                err_code::ACKED,
                format!(
                    "seq {seq} is below the connection's ack {}: its reply was delivered",
                    cache.acked_below
                ),
            );
            let bytes = encode_response(seq, &refusal).expect("an error reply always encodes");
            (bytes, Source::Acked)
        }
        None => return None,
    };
    Some(OpAnswer {
        bytes,
        source,
        kept: false,
        lock_wait_us: 0,
    })
}

/// A fresh execution produced `resp`: encode it and, for a mutating op,
/// cache it — and stage it in the WAL when a store is mounted. The
/// *barrier* is the round's flush. A read-only op (`HISTORY_FETCH`,
/// `STATS`, `CERT`, `PING`, `SHUTDOWN`) is not cached: re-executing it
/// changes nothing, and caching it would keep every snapshot a polling
/// client fetched until its ack passed. An answer whose frame would pass
/// the server's `max_frame_len` — a client reading with the same cap
/// would drop it as a bad length — is replaced by a typed
/// `FRAME_TOO_LARGE` refusal, and the connection stays open. `None` only
/// on response-encoding failure (connection-fatal).
fn finish_op(
    shared: &Shared,
    session: &mut Session,
    cache: &mut ReplyCache,
    seq: u64,
    req: &Request,
    resp: &Response,
) -> Option<OpAnswer> {
    let lock_wait_us = session.take_lock_wait_us();
    let mut bytes = encode_response(seq, resp).ok()?;
    let (len, cap) = (bytes.len() - 4 - CRC_LEN, shared.cfg.max_frame_len);
    if len > cap {
        let refusal = error_reply(
            err_code::FRAME_TOO_LARGE,
            format!("answer frame length {len} exceeds max_frame_len {cap}"),
        );
        bytes = encode_response(seq, &refusal).ok()?;
    }
    let kept = mutates(req);
    if kept {
        cache.insert(seq, bytes.clone());
        if let Some(store) = &shared.store {
            store.append_cache(seq, &bytes);
        }
    }
    Some(OpAnswer {
        bytes,
        source: Source::Executed,
        kept,
        lock_wait_us,
    })
}

/// What an [`OpsRun`] step came to.
pub(crate) enum Step {
    /// Every op of the frame is answered.
    Finished,
    /// The `ACCESS` at the cursor waits for a Moss lock a non-ancestor
    /// holds; hand the token back to [`OpsRun::step`] once its wake fired.
    Parked(ParkedAccess),
    /// Response encoding failed (connection-fatal).
    Fatal,
}

/// One request frame's ops mid-execution — a single request is a run of
/// one — with the answers so far. An `ACCESS` whose lock is held
/// elsewhere parks the run.
pub(crate) struct OpsRun {
    ops: Vec<(u64, Request)>,
    /// The ops are a `BATCH`'s members: one whose answer grows with server
    /// state is refused, not run.
    batch: bool,
    /// Full single-response frames, one per answered op, in op order.
    pub(crate) answers: Vec<Vec<u8>>,
    /// Summed lock wait of the fresh executions.
    pub(crate) lock_wait_us: u64,
    /// A fresh `Shutdown` was executed.
    pub(crate) shutdown: bool,
}

impl OpsRun {
    pub(crate) fn new(ops: Vec<(u64, Request)>, batch: bool) -> OpsRun {
        OpsRun {
            answers: Vec::with_capacity(ops.len()),
            ops,
            batch,
            lock_wait_us: 0,
            shutdown: false,
        }
    }

    /// Answer ops in order from the cursor — refuse a growing `BATCH`
    /// member, else cache, else refuse below the ack, else execute, cache
    /// and journal — until the frame is finished or an op parks.
    /// `resumed` continues the op that parked last time.
    pub(crate) fn step(
        &mut self,
        shared: &Shared,
        session: &mut Session,
        cache: &mut ReplyCache,
        open_tops: &mut BTreeSet<TxId>,
        wake: &WakeHandle,
        mut resumed: Option<ParkedAccess>,
    ) -> Step {
        while let Some((seq, req)) = self.ops.get(self.answers.len()) {
            let ans = 'answer: {
                if self.batch && grows(req) {
                    break 'answer unbatchable(*seq, req);
                }
                let exec = match resumed.take() {
                    Some(p) => resume(session, open_tops, p),
                    None => match answer_without_running(shared, cache, *seq) {
                        Some(ans) => break 'answer ans,
                        None => execute(shared, session, open_tops, req, wake),
                    },
                };
                let resp = match exec {
                    Exec::Done(resp) => resp,
                    Exec::Parked(p) => return Step::Parked(p),
                };
                match finish_op(shared, session, cache, *seq, req, &resp) {
                    Some(ans) => ans,
                    None => return Step::Fatal,
                }
            };
            count_answer(shared, &ans, cache.len());
            self.lock_wait_us += ans.lock_wait_us;
            self.shutdown |= ans.source == Source::Executed && matches!(req, Request::Shutdown);
            self.answers.push(ans.bytes);
        }
        Step::Finished
    }

    /// The answers as one `BATCH_RESP` frame echoing `seq`: each
    /// single-response frame (length prefix, CRC, header, body) the run
    /// built or cached is lifted into its entry's kind and body in place.
    /// `None` on a malformed cached frame (connection-fatal).
    pub(crate) fn batch_response(&self, seq: u64) -> Option<Vec<u8>> {
        let entries = self
            .ops
            .iter()
            .zip(&self.answers)
            .map(|(&(op_seq, _), bytes)| {
                let head = bytes.get(4 + CRC_LEN..4 + HEADER_LEN)?;
                let sound = head[..2] == MAGIC.to_le_bytes() && head[2] == VERSION;
                sound.then(|| (op_seq, head[3], &bytes[4 + HEADER_LEN..]))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(encode_batch_response_from(seq, entries.into_iter()))
    }
}

/// The typed refusal of a `BATCH` member whose answer grows with server
/// state; nothing runs.
fn unbatchable(seq: u64, req: &Request) -> OpAnswer {
    let refusal = error_reply(
        err_code::UNBATCHABLE,
        format!(
            "kind {:#04x} grows with the server; send it alone",
            req.kind()
        ),
    );
    OpAnswer {
        bytes: encode_response(seq, &refusal).expect("an error reply always encodes"),
        source: Source::Refused,
        kept: false,
        lock_wait_us: 0,
    }
}

/// Record one answered op in the coherent counter snapshot; `held` is its
/// connection's cache size after it.
fn count_answer(shared: &Shared, ans: &OpAnswer, held: usize) {
    shared.stats.update(|s| {
        match ans.source {
            Source::Executed => s.executed += 1,
            Source::Cached => s.cache_hits += 1,
            Source::Acked => s.acked_refusals += 1,
            Source::Refused => {}
        }
        if ans.kept {
            s.reply_cache += 1;
            s.reply_cache_max = s.reply_cache_max.max(held as u64);
        }
    });
}

/// Pay the round barrier if the WAL needs one before a reply may leave
/// (`wait_durable`: everything staged goes to the file as one extent, then
/// one fsync if the mode asks). A timed recorder gets the wait as the
/// `coalesce` phase — per barrier, not per request, the only place write
/// and fsync time is attributed. `Err`: the WAL is closed and nothing
/// staged reached it — the caller must not acknowledge.
pub(crate) fn pay_durability(shared: &Shared) -> Result<(), WalError> {
    let Some(store) = &shared.store else {
        return Ok(());
    };
    if !store.wal().needs_barrier() {
        return Ok(());
    }
    let t0 = shared.rec.is_timed().then(Instant::now);
    let paid = store.wait_durable();
    if let Some(t0) = t0 {
        shared
            .rec
            .observe("phase.coalesce", t0.elapsed().as_micros() as u64);
    }
    debug_assert!(
        paid.is_err() || !store.wal().needs_barrier(),
        "a reply is about to leave while the WAL stage holds a record"
    );
    paid
}

/// Whether a request can change engine state — only these are cached (and
/// journaled) for exactly-once. Reads of server metadata (history, stats,
/// cert, ping) and the idempotent shutdown nudge are answered afresh.
fn mutates(req: &Request) -> bool {
    matches!(
        req,
        Request::BeginTop
            | Request::BeginChild { .. }
            | Request::Access { .. }
            | Request::Commit { .. }
            | Request::Abort { .. }
    )
}

/// How far one op's execution got.
pub(crate) enum Exec {
    /// It produced its response.
    Done(Response),
    /// An `ACCESS` whose Moss lock a non-ancestor holds; the wake handle
    /// fires when [`resume`] can finish it.
    Parked(ParkedAccess),
}

/// The response of an access that ran to its outcome.
fn access_response(open_tops: &mut BTreeSet<TxId>, outcome: AccessOutcome) -> Response {
    match outcome {
        AccessOutcome::Done(v) => Response::AccessOk { value: v },
        AccessOutcome::Aborted(v) => {
            open_tops.remove(&v);
            Response::Aborted { victim: v.0 }
        }
    }
}

/// Continue a parked access after its wake fired (spurious wakes park
/// again).
fn resume(session: &mut Session, open_tops: &mut BTreeSet<TxId>, parked: ParkedAccess) -> Exec {
    match session.access_resume(parked) {
        AccessStep::Done(out) => Exec::Done(access_response(open_tops, out)),
        AccessStep::Parked(p) => Exec::Parked(p),
    }
}

/// Execute one request against the session. The one op that waits on
/// another party — an `ACCESS` behind a lock — parks on `wake` instead of
/// blocking.
fn execute(
    shared: &Shared,
    session: &mut Session,
    open_tops: &mut BTreeSet<TxId>,
    req: &Request,
    wake: &WakeHandle,
) -> Exec {
    Exec::Done(match req {
        Request::BeginTop => match session.begin_top() {
            Ok(t) => {
                open_tops.insert(t);
                Response::Begun { tx: t.0 }
            }
            Err(e) => session_error_response(&e),
        },
        Request::BeginChild { parent } => match session.begin_child(TxId(*parent)) {
            Ok(BeginOutcome::Fresh(t)) => Response::Begun { tx: t.0 },
            Ok(BeginOutcome::Aborted(v)) => {
                // If the victim is the top itself it is gone; a deeper
                // victim is not in `open_tops` and the remove is a no-op.
                open_tops.remove(&v);
                Response::Aborted { victim: v.0 }
            }
            Err(e) => session_error_response(&e),
        },
        Request::Access { parent, obj, op } => {
            match session.access_start(TxId(*parent), ObjId(*obj), op.clone(), wake) {
                Ok(AccessStep::Done(out)) => access_response(open_tops, out),
                Ok(AccessStep::Parked(p)) => return Exec::Parked(p),
                Err(e) => session_error_response(&e),
            }
        }
        Request::Commit { tx } => match session.commit(TxId(*tx)) {
            Ok(CommitOutcome::Committed) => {
                open_tops.remove(&TxId(*tx));
                Response::Committed
            }
            Ok(CommitOutcome::Aborted(v)) => {
                open_tops.remove(&v);
                Response::Aborted { victim: v.0 }
            }
            Err(e) => session_error_response(&e),
        },
        Request::Abort { tx } => match session.abort(TxId(*tx)) {
            Ok(()) => {
                open_tops.remove(&TxId(*tx));
                Response::AbortOk
            }
            Err(e) => session_error_response(&e),
        },
        Request::HistoryFetch => {
            let (tree, actions) = shared.engine.history_snapshot();
            match HistoryDoc::from_run(&tree, &actions) {
                Ok(doc) => Response::History(doc),
                Err(e) => error_reply(err_code::PROTOCOL, e.to_string()),
            }
        }
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::ShuttingDown,
        Request::Stats => Response::Stats {
            json: shared.stats_json(),
        },
        Request::Cert => Response::Cert {
            json: shared.cert_json(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::parse_response;
    use nt_model::Op;

    /// One connection's protocol state, driven the way the reactor's
    /// service drives it, minus the socket.
    struct Client {
        shared: Arc<Shared>,
        session: Session,
        cache: ReplyCache,
        open_tops: BTreeSet<TxId>,
        wake: WakeHandle,
    }

    impl Client {
        fn new(server: &NetServer) -> Client {
            let shared = Arc::clone(&server.shared);
            Client {
                session: shared.engine.open_session(),
                shared,
                cache: ReplyCache::default(),
                open_tops: BTreeSet::new(),
                wake: WakeHandle::new(1, || {}),
            }
        }

        /// One frame: take its ack, then answer its ops.
        fn frame(&mut self, acked_below: u64, ops: Vec<(u64, Request)>) -> Vec<Vec<u8>> {
            self.shared.take_ack(&mut self.cache, acked_below);
            let mut run = OpsRun::new(ops, false);
            let step = run.step(
                &self.shared,
                &mut self.session,
                &mut self.cache,
                &mut self.open_tops,
                &self.wake,
                None,
            );
            assert!(matches!(step, Step::Finished), "ops on an idle server");
            run.answers
        }

        fn answer(&mut self, seq: u64, req: Request) -> Vec<u8> {
            self.frame(0, vec![(seq, req)]).swap_remove(0)
        }

        fn cached(&self) -> Vec<u64> {
            self.cache.replies.iter().map(|&(seq, _)| seq).collect()
        }

        fn stats(&self) -> ServerStats {
            self.shared.stats.snapshot().1
        }
    }

    fn begun(bytes: &[u8]) -> u32 {
        match parse_response(&bytes[4..]).expect("a reply") {
            (_, Response::Begun { tx }) => tx,
            other => panic!("expected Begun, got {other:?}"),
        }
    }

    fn is_acked_refusal(bytes: &[u8]) -> bool {
        matches!(
            parse_response(&bytes[4..]),
            Ok((
                _,
                Response::Error {
                    code: err_code::ACKED,
                    ..
                }
            ))
        )
    }

    #[test]
    fn only_mutating_replies_are_cached() {
        let server = NetServer::bind(ServerConfig::default()).expect("bind loopback");
        let mut c = Client::new(&server);
        for (seq, req) in [
            (1, Request::Stats),
            (2, Request::HistoryFetch),
            (3, Request::Cert),
            (4, Request::Ping),
        ] {
            c.answer(seq, req);
        }
        assert!(c.cached().is_empty(), "read-only replies are not kept");

        let begun = c.answer(5, Request::BeginTop);
        assert_eq!(c.cached(), [5]);
        let registered = c.shared.engine.tx_count();
        // A duplicated mutating frame is answered from cache: the same
        // bytes, nothing re-executed.
        assert_eq!(c.answer(5, Request::BeginTop), begun);
        assert_eq!(c.shared.engine.tx_count(), registered);
        let stats = c.stats();
        assert_eq!((stats.executed, stats.cache_hits), (5, 1));
        // A duplicated read is answered afresh, and still not kept.
        c.answer(1, Request::Stats);
        assert_eq!(c.cache.len(), 1);
        assert_eq!(c.stats().executed, 6);
    }

    #[test]
    fn a_resend_below_the_ack_is_refused_and_runs_nothing() {
        let server = NetServer::bind(ServerConfig::default()).expect("bind loopback");
        let mut c = Client::new(&server);
        let top = begun(&c.answer(1, Request::BeginTop));
        let write = Request::Access {
            parent: top,
            obj: 0,
            op: Op::Write(7),
        };
        let first = c.frame(1, vec![(2, write.clone())]).swap_remove(0);
        assert_eq!(c.cached(), [1, 2], "an ack of 1 covers nothing yet");
        // Still unacknowledged: a resend is answered from cache.
        assert_eq!(c.frame(2, vec![(2, write.clone())]), [first]);
        assert_eq!(c.cached(), [2]);

        // The client's next frame says it has both answers.
        c.frame(3, vec![(3, Request::Ping)]);
        assert!(c.cached().is_empty(), "the ack drops what it covers");
        let registered = c.shared.engine.tx_count();
        let executed = c.stats().executed;
        // A late duplicate of the write, with its older ack: refused.
        let late = c.frame(2, vec![(2, write)]).swap_remove(0);
        assert!(is_acked_refusal(&late));
        assert_eq!(c.shared.engine.tx_count(), registered, "nothing ran");
        let stats = c.stats();
        assert_eq!(stats.executed, executed);
        assert_eq!(stats.acked_refusals, 1);
        assert_eq!((stats.reply_cache, stats.reply_cache_max), (0, 2));
        // An older ack moves nothing back: seq 1 stays below the ack.
        assert!(is_acked_refusal(
            &c.frame(1, vec![(1, Request::BeginTop)])[0]
        ));
    }

    /// A reply that arrives out of seq order — the resend of a dropped
    /// frame runs after a later seq — is placed before the later reply,
    /// answered from there, and acked in seq order.
    #[test]
    fn an_out_of_order_reply_is_cached_in_seq_order() {
        let server = NetServer::bind(ServerConfig::default()).expect("bind loopback");
        let mut c = Client::new(&server);
        c.answer(7, Request::BeginTop);
        let late = c.answer(5, Request::BeginTop);
        c.answer(6, Request::BeginTop);
        assert_eq!(c.cached(), [5, 6, 7]);
        let registered = c.shared.engine.tx_count();
        assert_eq!(c.answer(5, Request::BeginTop), late);
        assert_eq!(c.shared.engine.tx_count(), registered, "nothing re-ran");
        c.frame(6, vec![(8, Request::Ping)]);
        assert_eq!(c.cached(), [6, 7]);
    }

    /// A `BATCH` resent after the client received and acknowledged its
    /// first member: that member is refused with `ACKED`, the rest are
    /// answered from cache, and nothing runs twice.
    #[test]
    fn a_batch_resent_past_its_acked_members_runs_nothing_twice() {
        let server = NetServer::bind(ServerConfig::default()).expect("bind loopback");
        let mut c = Client::new(&server);
        let top = begun(&c.answer(10, Request::BeginTop));
        let ops: Vec<(u64, Request)> = (0..3)
            .map(|k| {
                let op = Request::Access {
                    parent: top,
                    obj: k,
                    op: Op::Write(i64::from(k) + 1),
                };
                (12 + u64::from(k), op)
            })
            .collect();
        // The batch frame is seq 11 and carries ack 11; its ops are 12..=14.
        let first = c.frame(11, ops.clone());
        assert_eq!(c.cached(), [12, 13, 14]);
        let registered = c.shared.engine.tx_count();
        let executed = c.stats().executed;

        c.frame(13, vec![(15, Request::Ping)]);
        assert_eq!(c.cached(), [13, 14]);
        let again = c.frame(11, ops);
        assert!(is_acked_refusal(&again[0]));
        assert_eq!(again[1..], first[1..], "the rest come back byte-identical");
        assert_eq!(c.shared.engine.tx_count(), registered, "nothing ran twice");
        let stats = c.stats();
        assert_eq!(stats.executed, executed + 1, "only the ping ran");
        assert_eq!((stats.acked_refusals, stats.cache_hits), (1, 2));
        assert_eq!(stats.reply_cache_max, 3);
    }
}
