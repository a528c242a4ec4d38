//! nt-reactor: a readiness-based, run-to-completion server front end.
//!
//! The connection-per-thread server (nt-net PR 5) anti-scales: past a
//! couple of connections, every pipelined client costs two parked threads
//! and a kernel context switch per frame. PR 10 replaced it with a
//! `poll(2)` reactor that still handed every frame to an executor thread
//! and took every reply back through a self-pipe wake — two thread
//! hand-offs per request. This crate is the shape that removes them:
//! **one thread** owns the listener and every connection *and runs the
//! protocol logic*, hand-rolled over `poll(2)` (via `pollshim`, the
//! workspace's second and last unsafe FFI shim) so the workspace stays
//! dependency-free.
//!
//! A round is: `poll` → read every readable socket into its
//! [`FrameBuf`] → call [`Service::frame_lent`] inline for every complete
//! frame, lent in place from that buffer → [`Service::resume`] for every connection whose resume handle
//! fired → one [`Service::flush`] per connection touched this round →
//! write. The embedder supplies one [`Service`] per connection via a
//! [`ServiceFactory`]. A service never blocks: the one case that cannot
//! finish now (in nt-net, an `ACCESS` whose lock is held by another
//! connection) keeps its own continuation, takes a [`ResumeHandle`] from
//! its [`ReplySink`], and returns; whoever unblocks it — possibly
//! another thread — calls [`ResumeHandle::resume`], and the reactor calls
//! `Service::resume` on the poll thread. Because executors never wait,
//! one thread is live no matter how many connections are parked.
//!
//! `flush` is the group-commit point: every frame of the round, across
//! all connections, has executed before the first `flush` runs, so a
//! durability barrier paid there covers the whole round's burst.
//!
//! [`ReplySink::send`] appends straight to the connection's output buffer
//! (a mutex the poll thread otherwise has to itself). A send or resume
//! from another thread writes the self-pipe [`Waker`] only when the
//! reactor may actually be inside `poll` and no wake byte is in flight —
//! a burst of grants costs one wake; from the poll thread it costs none.
//!
//! Backpressure is by readiness, not blocking: a connection with more than
//! `queue_depth` dispatched-but-unanswered frames (only a parked
//! connection accumulates them) is removed from the poll interest set
//! until its backlog drains, which pushes the stall into the client's TCP
//! window.
//!
//! Ordering invariant (the one the certifier cares about): frames of one
//! connection are handed to its service in arrival order, and its replies
//! reach the output buffer in `send` order — so coalescing changes *when*
//! bytes hit the wire, never the per-connection execution or reply order.

#![forbid(unsafe_code)]

mod buf;
mod waker;

pub use buf::{BadFrame, FrameBuf};
pub use waker::Waker;

use pollshim::{poll, PollFd, POLLIN, POLLOUT};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-`poll` timeout when no timer is pending: wakes are delivered by
/// the self-pipe, so this is only a belt-and-braces bound on how long a
/// lost wake could stall drain.
const POLL_TIMEOUT_MS: i32 = 500;

/// Observer for reactor phase timings: called with a phase name
/// (`"poll_wait"`) and a duration in µs. The embedder maps this onto its
/// telemetry histograms.
pub type PhaseObserver = Arc<dyn Fn(&'static str, u64) + Send + Sync>;

/// Reactor tuning knobs.
pub struct ReactorConfig {
    /// Smallest acceptable declared frame length (protocol header size).
    pub min_frame_len: usize,
    /// Largest acceptable declared frame length.
    pub max_frame_len: usize,
    /// Bytes between the length prefix and the bytes it counts: a checksum
    /// the length does not cover, as in the `len | crc | payload` frame
    /// `nt-store` and `nt-net` share. They reach the service as the head
    /// of the frame. Zero: the prefix counts everything after it.
    pub checksum_len: usize,
    /// Per-connection cap on dispatched-but-unanswered frames; beyond it
    /// the connection leaves the poll interest set (readiness
    /// backpressure).
    pub queue_depth: usize,
    /// Optional phase-timing observer (`poll_wait`).
    pub phase: Option<PhaseObserver>,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            min_frame_len: 1,
            max_frame_len: 1 << 22,
            checksum_len: 0,
            queue_depth: 64,
            phase: None,
        }
    }
}

/// One connection's protocol state. Every method runs on the poll thread
/// and must not block; replies go through the [`ReplySink`] handed to
/// [`ServiceFactory::open`].
pub trait Service: Send {
    /// One complete frame (sans length prefix) arrived, handed over owned
    /// by [`Service::frame_lent`]'s default. `enqueued` is the
    /// instant the reactor popped it off the socket buffer. The service
    /// may reply now via the sink, buffer the reply until
    /// [`Service::flush`], or — when it cannot finish yet — keep the
    /// frame (and any later ones) and answer after [`Service::resume`];
    /// either way every frame must eventually be accounted for through
    /// `ReplySink::send`'s `frames_done` (an intentionally unanswered
    /// frame — e.g. a fault-plan drop — sends empty bytes with
    /// `frames_done = 1`).
    fn frame(&mut self, frame: Vec<u8>, enqueued: Instant);

    /// The same frame, lent straight out of the connection's [`FrameBuf`]
    /// for the length of the call — the reactor dispatches every frame
    /// through here. A service that keeps a frame past the call copies it
    /// then; the default copies every frame and hands it to
    /// [`Service::frame`].
    fn frame_lent(&mut self, frame: &[u8], enqueued: Instant) {
        self.frame(frame.to_vec(), enqueued);
    }

    /// Every frame of this round has executed: emit buffered replies.
    /// This is the group-commit point — a durability barrier paid here
    /// covers every frame, of every connection, since the last round.
    fn flush(&mut self) {}

    /// This connection's [`ResumeHandle`] fired (or its timer came due):
    /// continue whatever was parked. May fire spuriously.
    fn resume(&mut self) {}

    /// The stream past this point cannot be framed (corrupt length
    /// prefix). Typically: flush buffered replies, send a protocol error
    /// (`frames_done = 1` — the reactor dispatched the corruption as one
    /// unit of work), then `ReplySink::close`.
    fn corrupt(&mut self, bad: BadFrame) {
        let _ = bad;
    }

    /// The connection is gone (peer EOF, write failure, drain, or a
    /// service-requested close): release whatever it held. `frames` is the
    /// total number of frames dispatched over the connection's lifetime.
    fn hangup(&mut self, frames: u64) {
        let _ = frames;
    }
}

/// Builds one [`Service`] per accepted connection.
pub trait ServiceFactory: Send + Sync + 'static {
    /// Called on the reactor thread at accept time. `conn` ids are
    /// assigned sequentially from 1.
    fn open(&self, conn: u64, sink: ReplySink) -> Box<dyn Service>;

    /// How long a drain may take before [`ServiceFactory::drain_overdue`]
    /// is called (`None`: never). Read once, when the drain begins.
    fn drain_deadline(&self) -> Option<Duration> {
        None
    }

    /// The drain has outlived its deadline with connections still open.
    /// Called once, on the poll thread — which never blocks, so it is
    /// still there to diagnose whatever holds the drain open. The drain
    /// keeps waiting.
    fn drain_overdue(&self) {}
}

// --- Cross-thread mailbox --------------------------------------------------

/// What other parties leave for the poll thread between rounds.
#[derive(Default)]
struct Inbox {
    /// Connections whose outbox changed (bytes, answered frames, close).
    dirty: Vec<u64>,
    /// Connections whose resume handle fired.
    resumes: Vec<u64>,
    /// Resume requests with a deadline.
    timers: Vec<(Instant, u64)>,
}

impl Inbox {
    fn is_empty(&self) -> bool {
        self.dirty.is_empty() && self.resumes.is_empty() && self.timers.is_empty()
    }
}

/// Live counters ([`ReactorProbe::stats`]).
#[derive(Default)]
struct Counters {
    poll_rounds: AtomicU64,
    frames: AtomicU64,
    resumes: AtomicU64,
    parked_now: AtomicU64,
}

/// State shared between the poll thread and every sink/handle.
struct Hub {
    /// Set while the reactor may be inside `poll`: only then does a post
    /// from another thread need the self-pipe. (`SeqCst` with the inbox
    /// mutex: the reactor stores `true` *then* checks the inbox; a poster
    /// fills the inbox *then* loads this — one of them sees the other.)
    polling: AtomicBool,
    /// A wake byte is in the pipe and not yet drained.
    woken: AtomicBool,
    waker: Waker,
    inbox: Mutex<Inbox>,
    draining: Arc<AtomicBool>,
    counters: Counters,
}

impl Hub {
    fn post(&self, f: impl FnOnce(&mut Inbox)) {
        f(&mut self.inbox.lock().expect("inbox poisoned"));
        self.notify();
    }

    fn notify(&self) {
        if self.polling.load(Ordering::SeqCst) && !self.woken.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    fn mark_dirty(&self, conn: u64) {
        self.post(|ib| {
            if ib.dirty.last() != Some(&conn) {
                ib.dirty.push(conn);
            }
        });
    }
}

/// A connection's output side, shared with its [`ReplySink`].
#[derive(Default)]
struct Outbox {
    /// Reply bytes not yet written to the socket.
    buf: Vec<u8>,
    /// Frames answered since the reactor last looked.
    done: u64,
    /// Close once everything is answered and flushed.
    close: bool,
}

/// A handle for answering one connection, from any thread.
#[derive(Clone)]
pub struct ReplySink {
    conn: u64,
    out: Arc<Mutex<Outbox>>,
    hub: Arc<Hub>,
}

impl ReplySink {
    /// Append `bytes` to the connection's output buffer and mark
    /// `frames_done` dispatched frames as answered. Bytes from successive
    /// sends are coalesced into as few `write` syscalls as socket
    /// readiness allows, in send order.
    pub fn send(&self, bytes: Vec<u8>, frames_done: u64) {
        {
            let mut out = self.out.lock().expect("outbox poisoned");
            if out.buf.is_empty() {
                out.buf = bytes;
            } else {
                out.buf.extend_from_slice(&bytes);
            }
            out.done += frames_done;
        }
        self.hub.mark_dirty(self.conn);
    }

    /// Ask the reactor to close this connection once its output buffer has
    /// flushed (protocol-error hangup).
    pub fn close(&self) {
        self.out.lock().expect("outbox poisoned").close = true;
        self.hub.mark_dirty(self.conn);
    }

    /// Ask the whole reactor to drain: stop accepting and reading, answer
    /// everything dispatched, flush, then shut down.
    pub fn drain(&self) {
        self.hub.draining.store(true, Ordering::Release);
        self.hub.notify();
    }

    /// The handle that gets this connection's [`Service::resume`] called.
    pub fn resume_handle(&self) -> ResumeHandle {
        ResumeHandle {
            conn: self.conn,
            hub: Arc::clone(&self.hub),
        }
    }
}

/// Schedules [`Service::resume`] for one connection; safe to fire from
/// any thread (a lock releaser, a certifier worker) and any number of
/// times.
#[derive(Clone)]
pub struct ResumeHandle {
    conn: u64,
    hub: Arc<Hub>,
}

impl ResumeHandle {
    /// Resume the connection's service on the poll thread, this round if
    /// fired from the poll thread, else as soon as it wakes.
    pub fn resume(&self) {
        self.hub.post(|ib| ib.resumes.push(self.conn));
    }

    /// Resume the connection's service no earlier than `when` (the
    /// deadline feeds the poll timeout; granularity is a millisecond).
    pub fn resume_at(&self, when: Instant) {
        self.hub.post(|ib| ib.timers.push((when, self.conn)));
    }
}

// --- Drain control and live counters ---------------------------------------

/// A clonable external drain trigger, usable before and during the
/// reactor's lifetime (a drain requested before spawn is honored at
/// startup).
#[derive(Clone)]
pub struct Drainer {
    draining: Arc<AtomicBool>,
    hub: Arc<Mutex<Option<Arc<Hub>>>>,
}

impl Default for Drainer {
    fn default() -> Drainer {
        Drainer::new()
    }
}

impl Drainer {
    /// A fresh, un-triggered drain control.
    pub fn new() -> Drainer {
        Drainer {
            draining: Arc::new(AtomicBool::new(false)),
            hub: Arc::new(Mutex::new(None)),
        }
    }

    /// Request a graceful drain (idempotent, returns immediately).
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        if let Some(hub) = self.hub.lock().expect("drainer poisoned").as_ref() {
            hub.notify();
        }
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }
}

/// A point-in-time reading of the reactor's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Returns from `poll`.
    pub poll_rounds: u64,
    /// Frames handed to services.
    pub frames: u64,
    /// `Service::resume` calls.
    pub resumes: u64,
    /// Connections with a dispatched frame still unanswered at the end of
    /// the last round — parked continuations.
    pub parked_now: u64,
}

/// A clonable live view of a running reactor's counters.
#[derive(Clone)]
pub struct ReactorProbe {
    hub: Arc<Hub>,
}

impl ReactorProbe {
    /// Read the counters (each one individually coherent).
    pub fn stats(&self) -> ReactorStats {
        let c = &self.hub.counters;
        ReactorStats {
            poll_rounds: c.poll_rounds.load(Ordering::Relaxed),
            frames: c.frames.load(Ordering::Relaxed),
            resumes: c.resumes.load(Ordering::Relaxed),
            parked_now: c.parked_now.load(Ordering::Relaxed),
        }
    }
}

// --- The reactor -----------------------------------------------------------

struct ConnState {
    stream: TcpStream,
    inbuf: FrameBuf,
    svc: Box<dyn Service>,
    out: Arc<Mutex<Outbox>>,
    /// The outbox holds bytes the socket has not taken yet.
    out_pending: bool,
    /// Frames handed to the service but not yet `frames_done`-answered.
    outstanding: u64,
    /// Frames dispatched over the connection's lifetime.
    frames: u64,
    /// No more reads: peer EOF, corrupt framing, or drain.
    read_closed: bool,
    /// Close once `outstanding == 0` and the outbox is flushed.
    close_after_flush: bool,
    /// The socket died; drop output instead of buffering it.
    dead: bool,
}

impl ConnState {
    fn wants_read(&self, queue_depth: usize) -> bool {
        !self.read_closed && !self.dead && (self.outstanding as usize) < queue_depth
    }

    fn wants_write(&self) -> bool {
        !self.dead && self.out_pending
    }

    /// Write as much pending output as the socket takes.
    fn write_ready(&mut self) {
        let mut out = self.out.lock().expect("outbox poisoned");
        let mut written = 0usize;
        while written < out.buf.len() {
            match self.stream.write(&out.buf[written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.dead || written == out.buf.len() {
            out.buf.clear();
        } else {
            out.buf.drain(..written);
        }
        self.out_pending = !out.buf.is_empty();
    }

    /// Fully answered, fully flushed, and no longer readable.
    fn finished(&self) -> bool {
        self.dead
            || ((self.read_closed || self.close_after_flush)
                && self.outstanding == 0
                && !self.out_pending)
    }
}

/// A running reactor: join it after triggering a drain.
pub struct ReactorHandle {
    thread: JoinHandle<()>,
    drainer: Drainer,
    probe: ReactorProbe,
}

impl ReactorHandle {
    /// The drain trigger (clonable; also available to embedders that
    /// created the [`Drainer`] themselves).
    pub fn drainer(&self) -> Drainer {
        self.drainer.clone()
    }

    /// A live view of the reactor's counters.
    pub fn probe(&self) -> ReactorProbe {
        self.probe.clone()
    }

    /// Block until the reactor has drained: every dispatched frame
    /// answered, every output buffer flushed, every service hung up.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Spawn the reactor over an already-bound listener. The `drainer` may be
/// a fresh [`Drainer`] or one the embedder holds to trigger shutdown
/// externally (SIGTERM handlers, wire `Shutdown` ops).
pub fn spawn(
    listener: TcpListener,
    cfg: ReactorConfig,
    factory: Arc<dyn ServiceFactory>,
    drainer: Drainer,
) -> std::io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let (waker_rd, waker) = waker::waker_pair()?;
    let hub = Arc::new(Hub {
        polling: AtomicBool::new(false),
        woken: AtomicBool::new(false),
        waker,
        inbox: Mutex::new(Inbox::default()),
        draining: Arc::clone(&drainer.draining),
        counters: Counters::default(),
    });
    *drainer.hub.lock().expect("drainer poisoned") = Some(Arc::clone(&hub));
    let probe = ReactorProbe {
        hub: Arc::clone(&hub),
    };
    let thread = std::thread::spawn(move || {
        ReactorLoop {
            listener,
            cfg,
            factory,
            hub,
            waker_rd,
            conns: BTreeMap::new(),
            timers: Vec::new(),
            touched: Vec::new(),
            next_conn: 1,
            drain_seen: false,
            drain_due: None,
        }
        .run();
    });
    Ok(ReactorHandle {
        thread,
        drainer,
        probe,
    })
}

struct ReactorLoop {
    listener: TcpListener,
    cfg: ReactorConfig,
    factory: Arc<dyn ServiceFactory>,
    hub: Arc<Hub>,
    waker_rd: waker::WakerReader,
    conns: BTreeMap<u64, ConnState>,
    /// Pending `resume_at` deadlines.
    timers: Vec<(Instant, u64)>,
    /// Connections whose service ran this round and is owed a `flush`.
    touched: Vec<u64>,
    next_conn: u64,
    drain_seen: bool,
    /// When the drain in progress becomes overdue (until reported).
    drain_due: Option<Instant>,
}

impl ReactorLoop {
    fn draining(&self) -> bool {
        self.hub.draining.load(Ordering::Acquire)
    }

    fn run(&mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        // fds[i] belongs to conn ids[i]; 0 marks the waker/listener slots.
        let mut ids: Vec<u64> = Vec::new();
        loop {
            if self.draining() && !self.drain_seen {
                self.enter_drain();
                // Idle connections are finished the moment reads close;
                // hang them up now rather than after a poll timeout.
                self.sweep_finished();
            }
            if self.drain_seen && self.conns.is_empty() {
                return;
            }
            if self.drain_due.is_some_and(|due| due <= Instant::now()) {
                self.drain_due = None;
                self.factory.drain_overdue();
            }
            fds.clear();
            ids.clear();
            fds.push(PollFd::new(self.waker_rd.fd(), POLLIN));
            ids.push(0);
            let accepting = !self.drain_seen;
            if accepting {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
                ids.push(0);
            }
            for (&id, c) in &self.conns {
                let mut ev = 0i16;
                if c.wants_read(self.cfg.queue_depth) {
                    ev |= POLLIN;
                }
                if c.wants_write() {
                    ev |= POLLOUT;
                }
                if ev != 0 {
                    fds.push(PollFd::new(c.stream.as_raw_fd(), ev));
                    ids.push(id);
                }
            }
            let t0 = self.cfg.phase.is_some().then(Instant::now);
            self.hub.polling.store(true, Ordering::SeqCst);
            let timeout = self.poll_timeout_ms();
            let polled = poll(&mut fds, timeout);
            self.hub.polling.store(false, Ordering::SeqCst);
            match polled {
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
            self.hub
                .counters
                .poll_rounds
                .fetch_add(1, Ordering::Relaxed);
            if let (Some(obs), Some(t0)) = (&self.cfg.phase, t0) {
                obs("poll_wait", t0.elapsed().as_micros() as u64);
            }
            if fds[0].readable() {
                self.waker_rd.drain();
                self.hub.woken.store(false, Ordering::SeqCst);
            }
            if accepting && fds[1].readable() {
                self.accept_ready();
            }
            let skip = if accepting { 2 } else { 1 };
            for (fd, &id) in fds.iter().zip(ids.iter()).skip(skip) {
                if fd.readable() {
                    self.read_ready(id);
                }
            }
            self.run_resumes();
            // Every frame of the round has executed: one flush per
            // touched connection (the first one's durability barrier
            // covers them all).
            for id in std::mem::take(&mut self.touched) {
                if let Some(c) = self.conns.get_mut(&id) {
                    c.svc.flush();
                }
            }
            self.sync_outboxes();
            for c in self.conns.values_mut().filter(|c| c.wants_write()) {
                c.write_ready();
            }
            self.sweep_finished();
            let parked = self.conns.values().filter(|c| c.outstanding > 0).count();
            self.hub
                .counters
                .parked_now
                .store(parked as u64, Ordering::Relaxed);
        }
    }

    /// How long `poll` may sleep: not at all with mail or a drain request
    /// pending (checked *after* `polling` was raised, so a poster that
    /// missed the flag is seen here), else until the next timer or the
    /// drain deadline.
    fn poll_timeout_ms(&self) -> i32 {
        if !self.hub.inbox.lock().expect("inbox poisoned").is_empty()
            || (self.draining() && !self.drain_seen)
        {
            return 0;
        }
        let timers = self.timers.iter().map(|&(when, _)| when);
        let Some(next) = timers.chain(self.drain_due).min() else {
            return POLL_TIMEOUT_MS;
        };
        let until = next.saturating_duration_since(Instant::now());
        // Round up: waking a hair early would spin through an empty round.
        (until.as_micros().div_ceil(1000) as i32).min(POLL_TIMEOUT_MS)
    }

    fn enter_drain(&mut self) {
        self.drain_seen = true;
        self.drain_due = self.factory.drain_deadline().map(|d| Instant::now() + d);
        for c in self.conns.values_mut() {
            c.read_closed = true;
            c.inbuf.clear();
            let _ = c.stream.shutdown(Shutdown::Read);
        }
    }

    fn touch(&mut self, id: u64) {
        if !self.touched.contains(&id) {
            self.touched.push(id);
        }
    }

    /// Call `Service::resume` for every fired handle and due timer,
    /// repeating while resumed services fire further handles (a resumed
    /// commit releases locks, granting the next parked connection).
    fn run_resumes(&mut self) {
        loop {
            let mut due = {
                let mut ib = self.hub.inbox.lock().expect("inbox poisoned");
                self.timers.append(&mut ib.timers);
                std::mem::take(&mut ib.resumes)
            };
            if !self.timers.is_empty() {
                let now = Instant::now();
                self.timers.retain(|&(when, conn)| {
                    let is_due = when <= now;
                    if is_due {
                        due.push(conn);
                    }
                    !is_due
                });
            }
            if due.is_empty() {
                return;
            }
            for id in due {
                if let Some(c) = self.conns.get_mut(&id) {
                    c.svc.resume();
                    self.hub.counters.resumes.fetch_add(1, Ordering::Relaxed);
                    self.touch(id);
                }
            }
        }
    }

    /// Fold every dirty outbox into its connection's state: answered
    /// frames, close requests, pending output.
    fn sync_outboxes(&mut self) {
        let dirty = std::mem::take(&mut self.hub.inbox.lock().expect("inbox poisoned").dirty);
        for id in dirty {
            let Some(c) = self.conns.get_mut(&id) else {
                continue;
            };
            let mut out = c.out.lock().expect("outbox poisoned");
            c.outstanding = c.outstanding.saturating_sub(std::mem::take(&mut out.done));
            if out.close {
                c.close_after_flush = true;
                c.read_closed = true;
                c.inbuf.clear();
            }
            if c.dead {
                out.buf.clear();
            }
            c.out_pending = !out.buf.is_empty();
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Small frames stall under Nagle + delayed ACK (E18).
                    let _ = stream.set_nodelay(true);
                    let conn = self.next_conn;
                    self.next_conn += 1;
                    let out = Arc::new(Mutex::new(Outbox::default()));
                    let sink = ReplySink {
                        conn,
                        out: Arc::clone(&out),
                        hub: Arc::clone(&self.hub),
                    };
                    self.conns.insert(
                        conn,
                        ConnState {
                            stream,
                            inbuf: FrameBuf::new(),
                            svc: self.factory.open(conn, sink),
                            out,
                            out_pending: false,
                            outstanding: 0,
                            frames: 0,
                            read_closed: false,
                            close_after_flush: false,
                            dead: false,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Read what the socket holds, then run every complete frame through
    /// the connection's service, inline.
    fn read_ready(&mut self, id: u64) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        if c.read_closed || c.dead {
            return;
        }
        loop {
            match c.inbuf.read_from(&mut c.stream) {
                Ok((0, _)) => {
                    c.read_closed = true;
                    break;
                }
                // The read filled the region offered: more may wait.
                Ok((_, true)) => continue,
                // A short read drained the socket; poll is
                // level-triggered, so anything newer re-arms it.
                Ok((_, false)) => break,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.read_closed = true;
                    c.dead = true;
                    break;
                }
            }
        }
        let mut ran = false;
        loop {
            match c.inbuf.pop(
                self.cfg.min_frame_len,
                self.cfg.max_frame_len,
                self.cfg.checksum_len,
            ) {
                Ok(Some(frame)) => {
                    c.frames += 1;
                    c.outstanding += 1;
                    c.svc.frame_lent(frame, Instant::now());
                    self.hub.counters.frames.fetch_add(1, Ordering::Relaxed);
                    ran = true;
                }
                Ok(None) => break,
                Err(bad) => {
                    // Unframeable stream: stop reading, let the
                    // service answer with a protocol error and close.
                    c.read_closed = true;
                    c.inbuf.clear();
                    c.outstanding += 1;
                    c.svc.corrupt(bad);
                    ran = true;
                    break;
                }
            }
        }
        if ran {
            self.touch(id);
        }
    }

    fn sweep_finished(&mut self) {
        let finished: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.finished())
            .map(|(&id, _)| id)
            .collect();
        for id in finished {
            let mut c = self.conns.remove(&id).expect("conn present");
            let _ = c.stream.shutdown(Shutdown::Both);
            c.svc.hangup(c.frames);
        }
    }
}
