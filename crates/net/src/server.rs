//! The networked nested-transaction server over
//! `nt_engine::SessionEngine`: the shared protocol core (`OpsRun`: answer
//! a frame's ops from cache or by execution, resumably), the default
//! reactor front end's mounting (`serve_reactor`; its per-connection
//! service lives in `front_reactor.rs`), and the legacy
//! connection-per-thread front end, kept this one PR as the differential
//! reference.
//!
//! On the threaded front end each accepted connection gets two threads:
//! a **reader** that frames bytes off the socket, applies the deterministic transport fault plan
//! (drop / duplicate / delay, keyed on the connection's own frame
//! counter), and feeds a **bounded** `sync_channel` (backpressure: a
//! client that pipelines faster than the executor drains simply blocks in
//! TCP); and an **executor** that owns the connection's
//! [`Session`](nt_engine::Session), executes requests in order, and
//! writes responses. A per-`seq` response cache makes execution
//! exactly-once under the at-least-once transport: a retried or
//! duplicated frame is answered from cache, never re-executed.
//!
//! When the config enables telemetry, both threads stamp each request's
//! lifecycle (decode → enqueue → dequeue → execute → respond) into an
//! [`nt_telemetry::ReqSpan`] carrying dual wall-clock/`SeqClock` stamps.
//! With `live_certify` on, every recorded action also streams into an
//! [`nt_sgt_live::LiveCertifier`] — an incremental Theorem 17 gate that
//! checks each conflict edge as it forms, garbage-collects the committed
//! acyclic prefix behind a watermark, publishes SGT health gauges
//! (`sgt.nodes`, `sgt.edges`, `sgt.watermark`, `sgt.check_us`, `sgt.ok`,
//! and the `sgt.live.*` mirrors), and answers the `CERT` wire op with its
//! verdict. A **monitor thread** surfaces deadlock victims and watchdog
//! rescues as structured events; a bounded flight-recorder ring mirrors
//! the journal and is dumped to stderr on a deadlock-watchdog fire, a
//! drain timeout, or a static-gate refusal.
//!
//! Graceful drain (`ServerHandle::drain`, or a wire `Shutdown` request)
//! stops the acceptor, half-closes every connection's read side so
//! readers see EOF at a frame boundary, lets executors finish everything
//! already queued, and only then tears the engine down — so a drained
//! server's recorded history is complete and certifiable.

use crate::admission::{AdmissionLedger, DeclaredSets};
use crate::config::{Frontend, ServerConfig};
use crate::history::HistoryDoc;
use crate::wire::{
    decode_batch_request, encode_response, err_code, parse_frame, parse_request, FrameReader,
    Request, Response, WireError, KIND_BATCH_REQ,
};
use nt_engine::{
    AccessOutcome, AccessStep, ActionSink, BeginOutcome, CommitOutcome, DurabilityMode,
    ParkedAccess, RecoveredSeed, Session, SessionEngine, SessionError, WakeHandle,
};
use nt_faults::FrameFate;
use nt_model::{ObjId, TxId};
use nt_obs::json::JsonObj;
use nt_obs::{Event, Stamped, TraceHandle};
use nt_sgt_live::{cert_disabled_json, LiveCertifier, SgtConfig};
use nt_store::{RecoveryReport, Store};
use nt_telemetry::{ReqSpan, StatsCell, TelemetryHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Flight-recorder ring capacity (journal tail kept for crash dumps).
const FLIGHT_CAPACITY: usize = 256;

/// Monitor-thread sample period (victim/watchdog surfacing).
const MONITOR_PERIOD_MS: u64 = 50;

/// Monotone counters the server exposes while serving and after a drain.
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
}

pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) engine: Arc<SessionEngine>,
    pub(crate) telemetry: TelemetryHandle,
    /// Bounded journal tail for diagnostic dumps.
    flight: TraceHandle,
    addr: SocketAddr,
    draining: AtomicBool,
    pub(crate) stats: StatsCell<ServerStats>,
    journal: Mutex<Vec<String>>,
    jseq: AtomicU64,
    /// Read-half clones, shut down on drain to unblock readers
    /// (threaded front end only).
    read_halves: Mutex<Vec<TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    monitor: Mutex<Option<JoinHandle<()>>>,
    /// Declared summaries of live tops (the static admission gate).
    admission: Mutex<AdmissionLedger>,
    /// The live serialization-graph certifier (`live_certify`); taken
    /// (stopped) once during the drain's final join.
    live: Mutex<Option<LiveCertifier>>,
    /// The durable store, when the config mounts one (`data_dir`).
    pub(crate) store: Option<Arc<Store>>,
    /// Responses recovered from the previous incarnation's WAL, keyed by
    /// wire `seq`: a client resending a pre-crash request gets the byte-
    /// identical cached answer instead of a second execution. Read-only
    /// after bind.
    pub(crate) recovered_cache: BTreeMap<u64, Vec<u8>>,
    /// The reactor front end's drain trigger (reactor front end only),
    /// registered by `serve` and fired by `begin_drain`.
    reactor_drain: Mutex<Option<nt_reactor::Drainer>>,
    /// The running reactor's counters (`reactor.*` in the stats document).
    reactor_probe: OnceLock<nt_reactor::ReactorProbe>,
    /// Reactor front end: some connection journaled a mutating response
    /// since the last durability barrier. The first flush of a poll round
    /// pays one `wait_durable` for every connection's burst.
    pub(crate) owes_barrier: AtomicBool,
}

impl Shared {
    pub(crate) fn emit(&self, event: Event) {
        self.flight.tick();
        self.flight.record(event.clone());
        let seq = self.jseq.fetch_add(1, Ordering::Relaxed);
        let line = Stamped {
            round: 0,
            step: 0,
            seq,
            event,
        }
        .to_json_line();
        self.journal.lock().expect("journal poisoned").push(line);
    }

    /// One live runtime snapshot (schema `nt-net/stats/v1`): coherent
    /// server counters, engine/lock-shard counters, telemetry histograms
    /// and gauges, and the current wait-for graph.
    fn stats_json(&self) -> String {
        let (generation, s) = self.stats.snapshot();
        let shards = self.engine.shard_counters();
        let grants: Vec<u64> = shards.iter().map(|c| c.grants).collect();
        let waits: Vec<u64> = shards.iter().map(|c| c.waits).collect();
        let hold_us: Vec<u64> = shards.iter().map(|c| c.hold_us).collect();
        let mut o = JsonObj::new();
        o.str("schema", "nt-net/stats/v1")
            .num("generation", generation)
            .num("conns", s.conns)
            .num("frames", s.frames)
            .num("dropped", s.dropped)
            .num("duplicated", s.duplicated)
            .num("delayed", s.delayed)
            .num("executed", s.executed)
            .num("cache_hits", s.cache_hits)
            .num("tx_count", self.engine.tx_count() as u64)
            .num("victims", self.engine.victims().len() as u64)
            .num("lock_grants", self.engine.lock_grants())
            .num("lock_blocks", self.engine.lock_blocks())
            .num("timeout_rescues", self.engine.timeout_rescues())
            .num("clock", self.engine.clock_now())
            .num_arr("shard_grants", &grants)
            .num_arr("shard_waits", &waits)
            .num_arr("shard_hold_us", &hold_us)
            .raw("telemetry", self.telemetry.to_json())
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
        if let Some(store) = &self.store {
            o.num("wal_appended", store.wal().appended_count())
                .num("wal_syncs", store.wal().sync_count())
                .num("wal_io_errors", store.wal().io_error_count())
                .num("wal_generation", store.generation());
        }
        o.build()
    }

    /// Dump the flight ring and a stats snapshot to stderr (called on a
    /// deadlock-watchdog fire, a drain timeout, or a static-gate refusal).
    fn dump_diagnostics(&self, reason: &str) {
        self.flight.dump_flight_to_stderr(reason);
        eprintln!("=== nt-net stats snapshot ({reason}) ===");
        eprintln!("{}", self.stats_json());
    }

    /// The live certificate document: drain the certifier's queue (so the
    /// verdict covers every action recorded before this call), then
    /// serialize its status. Without `live_certify`, a `"disabled"`
    /// document (schema `nt-sgt/cert/v1`).
    fn cert_json(&self) -> String {
        let guard = self.live.lock().expect("live poisoned");
        match guard.as_ref() {
            Some(lc) => {
                // Producer-side feed buffers flush at transaction
                // resolutions; push the buffered tails (and the root
                // log's lone `Create(ROOT)`) into the channel first, or
                // the drain barrier certifies up to a stamp hole.
                self.engine.flush_feeds();
                lc.drain();
            }
            None => return cert_disabled_json(),
        }
        drop(guard);
        self.cert_status_json()
    }

    /// [`Shared::cert_json`] for an event loop: start the certifier's
    /// drain barrier and park on it — `wake` fires once the verdict covers
    /// every action recorded before this call.
    fn cert_start(&self, wake: &WakeHandle) -> Exec {
        let guard = self.live.lock().expect("live poisoned");
        let Some(lc) = guard.as_ref() else {
            return Exec::Done(Response::Cert {
                json: cert_disabled_json(),
            });
        };
        self.engine.flush_feeds();
        let drained = Arc::new(AtomicBool::new(false));
        let (flag, wake) = (Arc::clone(&drained), wake.clone());
        lc.drain_then(move || {
            flag.store(true, Ordering::Release);
            wake.wake();
        });
        Exec::Parked(Parked::Cert(drained))
    }

    /// The certifier's status document as last published.
    fn cert_status_json(&self) -> String {
        match self.live.lock().expect("live poisoned").as_ref() {
            Some(lc) => lc.status().cert_json(),
            None => cert_disabled_json(),
        }
    }

    /// Forget a top's declared summary (no-op for undeclared tops).
    pub(crate) fn release_admission(&self, tx: TxId) {
        self.admission
            .lock()
            .expect("admission poisoned")
            .release(tx.0);
    }

    /// Initiate a graceful drain (idempotent, non-blocking).
    pub(crate) fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        // Reactor front end: the drainer wakes the poll loop, which stops
        // accepting and reading, answers everything already dispatched,
        // flushes, and exits.
        if let Some(d) = self
            .reactor_drain
            .lock()
            .expect("reactor drain poisoned")
            .as_ref()
        {
            d.drain();
            return;
        }
        // Threaded front end: half-close every reader so it sees EOF at a
        // frame boundary.
        for s in self
            .read_halves
            .lock()
            .expect("read halves poisoned")
            .iter()
        {
            let _ = s.shutdown(Shutdown::Read);
        }
        // Wake the acceptor with a throwaway connection; it observes the
        // draining flag and exits instead of serving it.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Samples the engine on a fixed period, surfacing new deadlock victims
/// and timeout rescues as structured events (dumping diagnostics on a
/// watchdog fire). SGT health is no longer sampled here: the live
/// certifier (`live_certify`) checks every conflict edge as it forms and
/// publishes the `sgt.*` gauges itself — continuously, in O(affected
/// region) per edge, instead of this thread's old O(history) re-fold.
fn monitor_loop(shared: &Shared) {
    let period = Duration::from_millis(MONITOR_PERIOD_MS);
    let mut seen_victims = 0usize;
    let mut seen_rescues = 0u64;
    loop {
        let mut slept = Duration::ZERO;
        while slept < period {
            if shared.draining.load(Ordering::Acquire) {
                return;
            }
            let step = period.min(Duration::from_millis(20));
            std::thread::sleep(step);
            slept += step;
        }
        let victims = shared.engine.victims();
        for v in victims.iter().skip(seen_victims) {
            shared.emit(Event::DeadlockVictim {
                victim: v.victim.0,
                waiter: v.waiter.0,
                blocker: v.blocker.0,
            });
        }
        seen_victims = victims.len();
        let rescues = shared.engine.timeout_rescues();
        if rescues > seen_rescues {
            shared.emit(Event::WatchdogFired {
                stalled_rounds: rescues - seen_rescues,
            });
            shared.dump_diagnostics("deadlock watchdog fired");
        }
        seen_rescues = rescues;
    }
}

/// A bound (not yet serving) server.
pub struct NetServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// The running front end: either the legacy acceptor thread
/// (connection-per-thread) or the reactor's handle.
enum Front {
    Threaded(JoinHandle<()>),
    Reactor(nt_reactor::ReactorHandle),
}

/// A serving server: drain it, then wait for it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    front: Front,
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

    /// The full live stats document (schema `nt-net/stats/v1`).
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// The server's telemetry handle (disabled unless configured).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.shared.telemetry
    }

    /// A Chrome `trace_event` document of the retained request spans
    /// (`None` when telemetry is disabled).
    pub fn chrome_trace(&self) -> Option<String> {
        self.shared.telemetry.chrome_trace()
    }

    /// Whether a drain has been initiated.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Initiate a graceful drain (idempotent, returns immediately). The
    /// probe variant lets a signal-watcher thread trigger the drain while
    /// `ServerHandle::join` parks on the acceptor.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }
}

/// What a drained server leaves behind.
pub struct DrainReport {
    /// Final counter values (a coherent snapshot).
    pub stats: ServerStats,
    /// The observability journal (`Stamped` event lines).
    pub journal: Vec<String>,
    /// Transactions registered over the server's lifetime.
    pub tx_count: usize,
    /// Deadlock victims the detector doomed.
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
        let telemetry = if cfg.telemetry {
            TelemetryHandle::enabled(cfg.span_ring.max(1))
        } else {
            TelemetryHandle::disabled()
        };
        let (store, recovered_cache, seed) = match &cfg.data_dir {
            Some(dir) => {
                // The reactor executes on one thread, so parking it on a
                // group-commit window would keep every other connection
                // from appending: the window would collect nothing. The
                // poll round is the group there — sync inline at its
                // barrier and start no flusher.
                let mode = match (cfg.frontend, cfg.durability) {
                    (Frontend::Reactor, DurabilityMode::GroupCommit { .. }) => {
                        DurabilityMode::FsyncPerCommit
                    }
                    (_, mode) => mode,
                };
                let (store, recovered) = Store::open(Path::new(dir), mode)
                    .map_err(|e| std::io::Error::other(format!("store open: {e}")))?;
                (Some(Arc::new(store)), recovered.cache, recovered.seed)
            }
            None => (None, BTreeMap::new(), RecoveredSeed::default()),
        };
        let sink = store
            .as_ref()
            .map(|s| Arc::clone(s.wal()) as Arc<dyn ActionSink>);
        let live = cfg
            .live_certify
            .then(|| LiveCertifier::start(SgtConfig::default(), telemetry.clone()));
        let feed = live.as_ref().map(LiveCertifier::handle);
        let engine = SessionEngine::start_recovered(
            cfg.capacity,
            cfg.shards.max(1),
            Duration::from_micros(cfg.detector_period_us.max(1)),
            telemetry.clone(),
            seed,
            sink,
            feed,
        )
        .map_err(|e| std::io::Error::other(format!("recovered seed replay: {e}")))?;
        let shared = Arc::new(Shared {
            cfg,
            engine,
            telemetry,
            flight: nt_obs::Recorder::flight(FLIGHT_CAPACITY),
            addr,
            draining: AtomicBool::new(false),
            stats: StatsCell::default(),
            journal: Mutex::new(Vec::new()),
            jseq: AtomicU64::new(0),
            read_halves: Mutex::new(Vec::new()),
            conn_threads: Mutex::new(Vec::new()),
            monitor: Mutex::new(None),
            admission: Mutex::new(AdmissionLedger::new()),
            live: Mutex::new(live),
            store,
            recovered_cache,
            reactor_drain: Mutex::new(None),
            reactor_probe: OnceLock::new(),
            owes_barrier: AtomicBool::new(false),
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

    /// Start accepting connections on the configured front end: the
    /// readiness-based reactor (default) or the legacy
    /// connection-per-thread acceptor (`frontend = "threaded"`).
    pub fn serve(self) -> ServerHandle {
        {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::spawn(move || monitor_loop(&shared));
            *self.shared.monitor.lock().expect("monitor poisoned") = Some(handle);
        }
        if self.shared.cfg.frontend == Frontend::Reactor {
            return self.serve_reactor();
        }
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let acceptor = std::thread::spawn(move || {
            for incoming in listener.incoming() {
                if shared.draining.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = incoming else { continue };
                // Small request/response frames stall badly under Nagle +
                // delayed ACK once a client pipelines (E18 measured ~6 ms
                // client-side against a ~20 µs server span before this).
                let _ = stream.set_nodelay(true);
                let conn = shared.stats.update(|s| {
                    s.conns += 1;
                    s.conns
                });
                shared.emit(Event::ConnAccepted { conn });
                let Ok(read_half) = stream.try_clone() else {
                    continue;
                };
                shared
                    .read_halves
                    .lock()
                    .expect("read halves poisoned")
                    .push(read_half);
                let shared2 = Arc::clone(&shared);
                let handle = std::thread::spawn(move || run_conn(shared2, conn, stream));
                shared
                    .conn_threads
                    .lock()
                    .expect("threads poisoned")
                    .push(handle);
            }
        });
        ServerHandle {
            shared: self.shared,
            front: Front::Threaded(acceptor),
        }
    }

    /// Spawn the run-to-completion reactor front end (DESIGN.md §8j): one
    /// poll thread owns the listener and every socket and runs every
    /// connection's protocol service inline; replies coalesce into as few
    /// `write` syscalls as readiness allows, and one `wait_durable`
    /// barrier covers each poll round.
    fn serve_reactor(self) -> ServerHandle {
        let drainer = nt_reactor::Drainer::new();
        *self
            .shared
            .reactor_drain
            .lock()
            .expect("reactor drain poisoned") = Some(drainer.clone());
        let phase = self.shared.telemetry.is_enabled().then(|| {
            let telemetry = self.shared.telemetry.clone();
            Arc::new(move |name: &'static str, us: u64| telemetry.observe_phase(name, us))
                as nt_reactor::PhaseObserver
        });
        let rcfg = nt_reactor::ReactorConfig {
            min_frame_len: crate::wire::HEADER_LEN,
            max_frame_len: self.shared.cfg.max_frame_len,
            queue_depth: self.shared.cfg.queue_depth.max(1),
            phase,
        };
        let factory = Arc::new(crate::front_reactor::ReactorFactory::new(Arc::clone(
            &self.shared,
        )));
        let handle = nt_reactor::spawn(self.listener, rcfg, factory, drainer)
            .expect("reactor spawn: nonblocking listener + self-pipe");
        let _ = self.shared.reactor_probe.set(handle.probe());
        ServerHandle {
            shared: self.shared,
            front: Front::Reactor(handle),
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
    /// This is how `nt-serve` parks: the acceptor thread only exits once
    /// the draining flag is set.
    pub fn join(self) -> DrainReport {
        // Drain watchdog: armed the moment a drain is initiated; if
        // connections then fail to quiesce within the configured timeout,
        // dump the flight ring so the stall is diagnosable. The dump
        // fires at most once and join keeps waiting.
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let watchdog = {
            let shared = Arc::clone(&self.shared);
            let timeout = Duration::from_millis(shared.cfg.drain_timeout_ms.max(1));
            std::thread::spawn(move || {
                // Wait (interruptibly) for the drain to start.
                loop {
                    match done_rx.recv_timeout(Duration::from_millis(20)) {
                        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            if shared.draining.load(Ordering::Acquire) {
                                break;
                            }
                        }
                    }
                }
                if matches!(
                    done_rx.recv_timeout(timeout),
                    Err(mpsc::RecvTimeoutError::Timeout)
                ) {
                    shared.emit(Event::Violation {
                        reason: "drain timeout".to_string(),
                    });
                    shared.dump_diagnostics("drain timeout");
                }
            })
        };
        match self.front {
            Front::Threaded(acceptor) => {
                let _ = acceptor.join();
                loop {
                    let handle = self
                        .shared
                        .conn_threads
                        .lock()
                        .expect("threads poisoned")
                        .pop();
                    match handle {
                        Some(h) => {
                            let _ = h.join();
                        }
                        None => break,
                    }
                }
            }
            // Blocks until the drain completes: every dispatched frame
            // answered, every output buffer flushed, every service hung up.
            Front::Reactor(handle) => handle.join(),
        }
        let monitor = self.shared.monitor.lock().expect("monitor poisoned").take();
        if let Some(m) = monitor {
            let _ = m.join();
        }
        let _ = done_tx.send(());
        let _ = watchdog.join();
        let (_, stats) = self.shared.stats.snapshot();
        self.shared
            .emit(Event::ServerDrained { conns: stats.conns });
        self.shared.engine.shutdown();
        // Every connection and the detector are gone, so the recorded
        // history is complete: stop the live certifier (final flush +
        // gauge publish) and surface a violation verdict loudly.
        if let Some(lc) = self.shared.live.lock().expect("live poisoned").take() {
            let (status, _maintainer) = lc.stop();
            if !status.ok {
                self.shared.emit(Event::Violation {
                    reason: "live certifier found a serialization cycle".to_string(),
                });
                self.shared.dump_diagnostics("live certifier violation");
            }
        }
        // Fold the WAL into a fresh checkpoint so the next open replays
        // from a compact image, then stop the group-commit flusher.
        if let Some(store) = &self.shared.store {
            if let Err(e) = store.rotate() {
                eprintln!("nt-serve: checkpoint rotation on drain failed: {e}");
            }
            store.close();
        }
        let shared = &self.shared;
        DrainReport {
            stats,
            journal: shared.journal.lock().expect("journal poisoned").clone(),
            tx_count: shared.engine.tx_count(),
            victims: shared.engine.victims().len(),
        }
    }
}

/// One parsed request with its lifecycle stamps (all zero when telemetry
/// is disabled — the stamping calls are single-branch no-ops).
#[derive(Clone)]
struct ReqWork {
    seq: u64,
    req: Request,
    /// Wall µs (telemetry epoch) when the reader finished decoding.
    t_decode: u64,
    /// Wall µs when the reader handed the request to the queue.
    t_enqueue: u64,
    /// Engine `SeqClock` reading at decode time.
    seq_decode: u64,
}

/// One decoded `BATCH` frame: many ops under one outer seq, answered by
/// one `BATCH_RESP` and covered by one durability barrier.
#[derive(Clone)]
struct BatchWork {
    seq: u64,
    ops: Vec<(u64, Request)>,
    t_decode: u64,
    t_enqueue: u64,
    seq_decode: u64,
}

/// What the reader hands the executor.
enum Work {
    Req(ReqWork),
    Batch(BatchWork),
    Malformed(WireError),
}

/// Stamp the enqueue time (as close to the channel hand-off as possible,
/// so `queue_wait` excludes fault-plan delay sleeps) and send.
fn send_stamped(shared: &Shared, tx: &SyncSender<Work>, mut work: Work) -> bool {
    match &mut work {
        Work::Req(rw) => rw.t_enqueue = shared.telemetry.now_us(),
        Work::Batch(bw) => bw.t_enqueue = shared.telemetry.now_us(),
        Work::Malformed(_) => {}
    }
    tx.send(work).is_ok()
}

fn run_conn(shared: Arc<Shared>, conn: u64, stream: TcpStream) {
    let (tx, rx) = mpsc::sync_channel::<Work>(shared.cfg.queue_depth.max(1));
    let reader = {
        let shared = Arc::clone(&shared);
        let Ok(read_stream) = stream.try_clone() else {
            return;
        };
        std::thread::spawn(move || read_loop(&shared, conn, read_stream, &tx))
    };
    let session = shared.engine.open_session();
    execute_loop(&shared, conn, stream, session, &rx);
    let frames = reader.join().unwrap_or(0);
    shared.emit(Event::ConnClosed { conn, frames });
}

/// Frame the socket, apply the fault plan, feed the bounded queue.
/// Returns the number of frames read.
fn read_loop(shared: &Shared, conn: u64, mut stream: TcpStream, tx: &SyncSender<Work>) -> u64 {
    let mut fr = FrameReader::new();
    let mut frame_no = 0u64;
    loop {
        match fr.read_frame(&mut stream, shared.cfg.max_frame_len) {
            Ok(None) => break,
            Ok(Some(frame)) => {
                frame_no += 1;
                shared.stats.update(|s| s.frames += 1);
                let work = match decode_work(shared, &frame) {
                    Ok(work) => work,
                    Err(e) => {
                        let _ = tx.send(Work::Malformed(e));
                        break;
                    }
                };
                let fate = shared
                    .cfg
                    .fault
                    .map(|p| p.fate(frame_no))
                    .unwrap_or(FrameFate::Deliver);
                let sent = match fate {
                    FrameFate::Deliver => send_stamped(shared, tx, work),
                    FrameFate::Drop => {
                        shared.stats.update(|s| s.dropped += 1);
                        shared.emit(Event::FrameFault {
                            conn,
                            frame: frame_no,
                            fault: "drop",
                        });
                        true
                    }
                    FrameFate::Duplicate => {
                        shared.stats.update(|s| s.duplicated += 1);
                        shared.emit(Event::FrameFault {
                            conn,
                            frame: frame_no,
                            fault: "duplicate",
                        });
                        match work {
                            Work::Req(rw) => {
                                let copy = Work::Req(rw.clone());
                                send_stamped(shared, tx, Work::Req(rw))
                                    && send_stamped(shared, tx, copy)
                            }
                            Work::Batch(bw) => {
                                let copy = Work::Batch(bw.clone());
                                send_stamped(shared, tx, Work::Batch(bw))
                                    && send_stamped(shared, tx, copy)
                            }
                            Work::Malformed(_) => send_stamped(shared, tx, work),
                        }
                    }
                    FrameFate::Delay(us) => {
                        shared.stats.update(|s| s.delayed += 1);
                        shared.emit(Event::FrameFault {
                            conn,
                            frame: frame_no,
                            fault: "delay",
                        });
                        std::thread::sleep(Duration::from_micros(us));
                        send_stamped(shared, tx, work)
                    }
                };
                if !sent {
                    break;
                }
            }
            Err(WireError::TimedOut) => continue,
            Err(e) => {
                let _ = tx.send(Work::Malformed(e));
                break;
            }
        }
    }
    frame_no
}

/// Decode one frame into executor work: a single request, or a `BATCH`
/// carrying many per-seq ops under one outer seq.
fn decode_work(shared: &Shared, frame: &[u8]) -> Result<Work, WireError> {
    let (kind, seq, body) = parse_frame(frame)?;
    if kind == KIND_BATCH_REQ {
        let ops = decode_batch_request(body)?;
        return Ok(Work::Batch(BatchWork {
            seq,
            ops,
            t_decode: shared.telemetry.now_us(),
            t_enqueue: 0,
            seq_decode: shared.engine.clock_now(),
        }));
    }
    let (seq, req) = parse_request(frame)?;
    Ok(Work::Req(ReqWork {
        seq,
        req,
        t_decode: shared.telemetry.now_us(),
        t_enqueue: 0,
        seq_decode: shared.engine.clock_now(),
    }))
}

pub(crate) fn session_error_response(e: &SessionError) -> Response {
    let code = match e {
        SessionError::Capacity => err_code::CAPACITY,
        SessionError::UnknownTx(_) => err_code::UNKNOWN_TX,
        SessionError::NotOwned(_) => err_code::NOT_OWNED,
        SessionError::NotInner(_) => err_code::NOT_INNER,
        SessionError::Completed(_) => err_code::COMPLETED,
        SessionError::NonRwOp => err_code::NON_RW_OP,
    };
    Response::Error {
        code,
        msg: e.to_string(),
    }
}

/// The outcome of answering one op (a single request, or one member of a
/// `BATCH`): the full single-response frame bytes, whether they came
/// from a cache, and whether a fresh mutating execution was journaled
/// (so a durability barrier is owed before the ack hits the wire).
pub(crate) struct OpAnswer {
    /// Full response frame, length prefix included — exactly what the
    /// exactly-once cache stores and a single-op reply writes.
    pub(crate) bytes: Vec<u8>,
    pub(crate) from_cache: bool,
    pub(crate) lock_wait_us: u64,
    /// A fresh mutating execution was appended to the store's cache
    /// journal; `wait_durable` must run before the reply is acked.
    pub(crate) mutated: bool,
}

/// A cached answer for `seq`: the connection's own exactly-once cache,
/// then the recovered pre-crash cache (a request resent after restart
/// gets the byte-identical response, never a second execution).
fn cached_answer(shared: &Shared, cache: &BTreeMap<u64, Vec<u8>>, seq: u64) -> Option<OpAnswer> {
    let bytes = cache
        .get(&seq)
        .or_else(|| shared.recovered_cache.get(&seq))?;
    Some(OpAnswer {
        bytes: bytes.clone(),
        from_cache: true,
        lock_wait_us: 0,
        mutated: false,
    })
}

/// A fresh execution produced `resp`: encode it, cache it, and — for
/// mutating ops with a store — journal it. The durability *barrier* is
/// the caller's. `None` only on response-encoding failure
/// (connection-fatal).
fn finish_op(
    shared: &Shared,
    session: &mut Session,
    cache: &mut BTreeMap<u64, Vec<u8>>,
    seq: u64,
    req: &Request,
    resp: &Response,
) -> Option<OpAnswer> {
    let lock_wait_us = session.take_lock_wait_us();
    let bytes = encode_response(seq, resp).ok()?;
    cache.insert(seq, bytes.clone());
    let mut mutated = false;
    if let Some(store) = &shared.store {
        if mutates(req) {
            store.append_cache(seq, &bytes);
            mutated = true;
        }
    }
    Some(OpAnswer {
        bytes,
        from_cache: false,
        lock_wait_us,
        mutated,
    })
}

/// What an [`OpsRun`] step came to.
pub(crate) enum Step {
    /// Every op of the frame is answered.
    Finished,
    /// The op at the cursor cannot finish now; hand the token back to
    /// [`OpsRun::step`] once its wake fired.
    Parked(Parked),
    /// Response encoding failed (connection-fatal).
    Fatal,
}

/// One request frame's ops mid-execution — a single request is a run of
/// one — with the answers so far. Both front ends execute through this:
/// the threaded executor with no wake handle (an `ACCESS` blocks its
/// thread, a step always finishes), the reactor with one (an `ACCESS`
/// whose lock is held elsewhere, or a `CERT` barrier, parks the run).
pub(crate) struct OpsRun {
    ops: Vec<(u64, Request)>,
    /// Full single-response frames, one per answered op, in op order.
    pub(crate) answers: Vec<Vec<u8>>,
    /// Summed lock wait of the fresh executions.
    pub(crate) lock_wait_us: u64,
    /// Some member journaled a response: a durability barrier is owed
    /// before the reply is acked.
    pub(crate) owes_barrier: bool,
    /// A fresh `Shutdown` was executed.
    pub(crate) shutdown: bool,
}

impl OpsRun {
    pub(crate) fn new(ops: Vec<(u64, Request)>) -> OpsRun {
        OpsRun {
            answers: Vec::with_capacity(ops.len()),
            ops,
            lock_wait_us: 0,
            owes_barrier: false,
            shutdown: false,
        }
    }

    /// Answer ops in order from the cursor — cache, else execute, cache
    /// and journal — until the frame is finished or an op parks.
    /// `resumed` continues the op that parked last time.
    pub(crate) fn step(
        &mut self,
        shared: &Shared,
        session: &mut Session,
        cache: &mut BTreeMap<u64, Vec<u8>>,
        open_tops: &mut BTreeSet<TxId>,
        wake: Option<&WakeHandle>,
        mut resumed: Option<Parked>,
    ) -> Step {
        while let Some((seq, req)) = self.ops.get(self.answers.len()) {
            let ans = match (resumed.take(), cached_answer(shared, cache, *seq)) {
                (None, Some(ans)) => ans,
                (parked, _) => {
                    let exec = match parked {
                        Some(p) => resume(shared, session, open_tops, p),
                        None => execute(shared, session, open_tops, req, wake),
                    };
                    let resp = match exec {
                        Exec::Done(resp) => resp,
                        Exec::Parked(p) => return Step::Parked(p),
                    };
                    match finish_op(shared, session, cache, *seq, req, &resp) {
                        Some(ans) => ans,
                        None => return Step::Fatal,
                    }
                }
            };
            count_answer(shared, ans.from_cache);
            self.lock_wait_us += ans.lock_wait_us;
            self.owes_barrier |= ans.mutated;
            self.shutdown |= !ans.from_cache && matches!(req, Request::Shutdown);
            self.answers.push(ans.bytes);
        }
        Step::Finished
    }

    /// The answers as `BATCH_RESP` entries: each cached single-response
    /// frame (4-byte length prefix + header + body) lifted into its kind
    /// and body. `None` on a malformed cached frame (connection-fatal).
    pub(crate) fn batch_entries(&self) -> Option<Vec<crate::wire::BatchEntry>> {
        self.ops
            .iter()
            .zip(&self.answers)
            .map(|((seq, _), bytes)| {
                let (kind, _seq, body) = parse_frame(&bytes[4..]).ok()?;
                Some(crate::wire::BatchEntry {
                    seq: *seq,
                    kind,
                    body: body.to_vec(),
                })
            })
            .collect()
    }
}

/// Record one answered op in the coherent counter snapshot.
fn count_answer(shared: &Shared, from_cache: bool) {
    shared.stats.update(|s| {
        if from_cache {
            s.cache_hits += 1;
        } else {
            s.executed += 1;
        }
    });
}

/// Pay the durability barrier (WAL group-commit watermark), returning the
/// time spent waiting in µs when telemetry is enabled.
pub(crate) fn pay_durability(shared: &Shared) -> u64 {
    let Some(store) = &shared.store else { return 0 };
    let t0 = shared.telemetry.is_enabled().then(Instant::now);
    store.wait_durable();
    t0.map(|t0| t0.elapsed().as_micros() as u64).unwrap_or(0)
}

/// Execute requests in order, answering retries/duplicates from the
/// per-`seq` cache; on exit, abort every top this connection left open so
/// no lock outlives its client.
fn execute_loop(
    shared: &Shared,
    conn: u64,
    mut stream: TcpStream,
    mut session: Session,
    rx: &Receiver<Work>,
) {
    let mut cache: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut open_tops: BTreeSet<TxId> = BTreeSet::new();
    for work in rx.iter() {
        match work {
            Work::Req(rw) => {
                let t_dequeue = shared.telemetry.now_us();
                let kind = rw.req.kind();
                let mut run = OpsRun::new(vec![(rw.seq, rw.req)]);
                // No wake handle: an ACCESS blocks this thread on its
                // ticket, so the step always finishes.
                let Step::Finished =
                    run.step(shared, &mut session, &mut cache, &mut open_tops, None, None)
                else {
                    break;
                };
                // Durability barrier: wait for the WAL watermark *before*
                // the ack goes on the wire, so an acknowledged effect
                // (and its cached answer) survives a crash.
                let log_wait_us = if run.owes_barrier {
                    pay_durability(shared)
                } else {
                    0
                };
                let t_exec_end = shared.telemetry.now_us();
                if stream.write_all(&run.answers[0]).is_err() {
                    break;
                }
                if shared.telemetry.is_enabled() {
                    shared.telemetry.record_span(ReqSpan {
                        conn,
                        seq: rw.seq,
                        kind,
                        t_decode: rw.t_decode,
                        t_enqueue: rw.t_enqueue,
                        t_dequeue,
                        t_exec_end,
                        t_respond: shared.telemetry.now_us(),
                        lock_wait_us: run.lock_wait_us,
                        log_wait_us,
                        seq_decode: rw.seq_decode,
                        seq_respond: shared.engine.clock_now(),
                    });
                }
                if run.shutdown {
                    let _ = stream.flush();
                    shared.begin_drain();
                }
            }
            Work::Batch(bw) => {
                let t_dequeue = shared.telemetry.now_us();
                let t_asm = shared.telemetry.is_enabled().then(Instant::now);
                let mut run = OpsRun::new(bw.ops);
                let Step::Finished =
                    run.step(shared, &mut session, &mut cache, &mut open_tops, None, None)
                else {
                    break;
                };
                let Some(entries) = run.batch_entries() else {
                    break;
                };
                if let Some(t_asm) = t_asm {
                    shared
                        .telemetry
                        .observe_phase("batch_assemble", t_asm.elapsed().as_micros() as u64);
                }
                // One group-commit barrier covers every member of the
                // batch — this is the coalescing the BATCH frame buys.
                let log_wait_us = if run.owes_barrier {
                    pay_durability(shared)
                } else {
                    0
                };
                if run.owes_barrier {
                    shared.telemetry.observe_phase("coalesce", log_wait_us);
                }
                let bytes = crate::wire::encode_batch_response(bw.seq, &entries);
                let t_exec_end = shared.telemetry.now_us();
                if stream.write_all(&bytes).is_err() {
                    break;
                }
                if shared.telemetry.is_enabled() {
                    shared.telemetry.record_span(ReqSpan {
                        conn,
                        seq: bw.seq,
                        kind: KIND_BATCH_REQ,
                        t_decode: bw.t_decode,
                        t_enqueue: bw.t_enqueue,
                        t_dequeue,
                        t_exec_end,
                        t_respond: shared.telemetry.now_us(),
                        lock_wait_us: run.lock_wait_us,
                        log_wait_us,
                        seq_decode: bw.seq_decode,
                        seq_respond: shared.engine.clock_now(),
                    });
                }
                if run.shutdown {
                    let _ = stream.flush();
                    shared.begin_drain();
                }
            }
            Work::Malformed(e) => {
                let resp = Response::Error {
                    code: err_code::PROTOCOL,
                    msg: e.to_string(),
                };
                if let Ok(bytes) = encode_response(0, &resp) {
                    let _ = stream.write_all(&bytes);
                }
                break;
            }
        }
    }
    // The client is gone (EOF, protocol error, or drain). Abort whatever
    // it left open so held locks cannot starve other sessions, and free
    // its admission slots so declared tops cannot block future clients.
    for t in open_tops {
        let _ = session.abort(t);
        shared.release_admission(t);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Whether a request can change engine state — only these pay the
/// durability barrier before their ack. Reads of server metadata
/// (history, stats, ping) and the shutdown nudge are answerable from
/// volatile state.
fn mutates(req: &Request) -> bool {
    matches!(
        req,
        Request::BeginTop
            | Request::BeginTopDeclared { .. }
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
    /// It waits on another party; the wake handle fires when [`resume`]
    /// can finish it.
    Parked(Parked),
}

/// What a parked op waits for.
pub(crate) enum Parked {
    /// An `ACCESS` whose Moss lock a non-ancestor holds.
    Access(ParkedAccess),
    /// A `CERT` whose certifier drain barrier has not come back (the
    /// flag is set just before the wake fires).
    Cert(Arc<AtomicBool>),
}

/// The response of an access that ran to its outcome.
fn access_response(
    shared: &Shared,
    open_tops: &mut BTreeSet<TxId>,
    outcome: AccessOutcome,
) -> Response {
    match outcome {
        AccessOutcome::Done(v) => Response::AccessOk { value: v },
        AccessOutcome::Aborted(v) => {
            open_tops.remove(&v);
            shared.release_admission(v);
            Response::Aborted { victim: v.0 }
        }
    }
}

/// Continue a parked op after its wake fired (spurious wakes park again).
fn resume(
    shared: &Shared,
    session: &mut Session,
    open_tops: &mut BTreeSet<TxId>,
    parked: Parked,
) -> Exec {
    match parked {
        Parked::Access(p) => match session.access_resume(p) {
            AccessStep::Done(out) => Exec::Done(access_response(shared, open_tops, out)),
            AccessStep::Parked(p) => Exec::Parked(Parked::Access(p)),
        },
        Parked::Cert(drained) => {
            if drained.load(Ordering::Acquire) {
                Exec::Done(Response::Cert {
                    json: shared.cert_status_json(),
                })
            } else {
                Exec::Parked(Parked::Cert(drained))
            }
        }
    }
}

/// Execute one request against the session. With a `wake` handle (the
/// reactor), the two ops that wait on another party — an `ACCESS` behind
/// a lock, a `CERT` behind the certifier's queue — park instead of
/// blocking; without one (the threaded front end) they block this thread
/// and the result is always [`Exec::Done`].
fn execute(
    shared: &Shared,
    session: &mut Session,
    open_tops: &mut BTreeSet<TxId>,
    req: &Request,
    wake: Option<&WakeHandle>,
) -> Exec {
    Exec::Done(match req {
        Request::BeginTop => match session.begin_top() {
            Ok(t) => {
                open_tops.insert(t);
                Response::Begun { tx: t.0 }
            }
            Err(e) => session_error_response(&e),
        },
        Request::BeginTopDeclared { reads, writes } => {
            if !shared.cfg.static_gate {
                // Gate disabled: a declared begin degrades to BeginTop.
                return execute(shared, session, open_tops, &Request::BeginTop, wake);
            }
            let sets = DeclaredSets::new(reads, writes);
            // Hold the ledger across check + record so two connections
            // cannot jointly admit a component of weight >= 2.
            let mut ledger = shared.admission.lock().expect("admission poisoned");
            if let Err(msg) = ledger.check(&sets) {
                drop(ledger);
                shared.emit(Event::Violation {
                    reason: format!("static gate refusal: {msg}"),
                });
                shared.dump_diagnostics("static gate refusal");
                return Exec::Done(Response::Error {
                    code: err_code::STATIC_GATE,
                    msg: format!("static gate refused the top: {msg}"),
                });
            }
            match session.begin_top() {
                Ok(t) => {
                    ledger.record(t.0, sets);
                    open_tops.insert(t);
                    Response::Begun { tx: t.0 }
                }
                Err(e) => session_error_response(&e),
            }
        }
        Request::BeginChild { parent } => match session.begin_child(TxId(*parent)) {
            Ok(BeginOutcome::Fresh(t)) => Response::Begun { tx: t.0 },
            Ok(BeginOutcome::Aborted(v)) => {
                // If the victim is the top itself it is gone; a deeper
                // victim is not in `open_tops` and the remove is a no-op.
                open_tops.remove(&v);
                shared.release_admission(v);
                Response::Aborted { victim: v.0 }
            }
            Err(e) => session_error_response(&e),
        },
        Request::Access { parent, obj, op } => {
            let (parent, obj) = (TxId(*parent), ObjId(*obj));
            let step = match wake {
                Some(wake) => session.access_start(parent, obj, op.clone(), wake),
                None => session
                    .access(parent, obj, op.clone())
                    .map(AccessStep::Done),
            };
            match step {
                Ok(AccessStep::Done(out)) => access_response(shared, open_tops, out),
                Ok(AccessStep::Parked(p)) => return Exec::Parked(Parked::Access(p)),
                Err(e) => session_error_response(&e),
            }
        }
        Request::Commit { tx } => match session.commit(TxId(*tx)) {
            Ok(CommitOutcome::Committed) => {
                open_tops.remove(&TxId(*tx));
                shared.release_admission(TxId(*tx));
                Response::Committed
            }
            Ok(CommitOutcome::Aborted(v)) => {
                open_tops.remove(&v);
                shared.release_admission(v);
                Response::Aborted { victim: v.0 }
            }
            Err(e) => session_error_response(&e),
        },
        Request::Abort { tx } => match session.abort(TxId(*tx)) {
            Ok(()) => {
                open_tops.remove(&TxId(*tx));
                shared.release_admission(TxId(*tx));
                Response::AbortOk
            }
            Err(e) => session_error_response(&e),
        },
        Request::HistoryFetch => {
            let (tree, actions) = shared.engine.history_snapshot();
            match HistoryDoc::from_run(&tree, &actions) {
                Ok(doc) => Response::History(doc),
                Err(e) => Response::Error {
                    code: err_code::PROTOCOL,
                    msg: e.to_string(),
                },
            }
        }
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::ShuttingDown,
        Request::Stats => Response::Stats {
            json: shared.stats_json(),
        },
        Request::Cert => match wake {
            Some(wake) => return shared.cert_start(wake),
            None => Response::Cert {
                json: shared.cert_json(),
            },
        },
    })
}
