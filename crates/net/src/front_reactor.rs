//! The per-connection protocol service the server mounts on the reactor.
//!
//! `nt_reactor` owns the sockets and runs everything on one poll thread;
//! this module supplies the [`Service`] each accepted connection runs
//! there. The service owns the connection's [`Session`], its per-`seq`
//! exactly-once cache (pruned to the client's cumulative ack as each
//! frame arrives), and its open-top ledger, and it **never blocks**:
//!
//! * Replies are *buffered*, not written: every reply (single responses,
//!   `BATCH_RESP` frames, protocol errors, the `Shutdown` ack) is appended
//!   to one `pending` buffer in execution order and emitted in a single
//!   [`ReplySink::send`] at the round's [`Service::flush`]. That flush is
//!   also the group-commit point: actions and mutating ops' cached
//!   responses are staged in the WAL as they happen, and the first flush
//!   of a poll round pays one `wait_durable` barrier — one extent, one
//!   `write(2)` — for every connection's burst (the `coalesce` telemetry
//!   phase) before any reply byte reaches the sink. A failed barrier
//!   sends nothing: the round's replies are dropped and the server drains.
//! * A frame that cannot finish now **parks as a continuation**: an
//!   `ACCESS` whose lock another connection holds (the lock table queued
//!   it; the releaser grants it in place and fires our wake) or a
//!   fault-plan `Delay` (a deadline fed into the poll timeout). The parked frame keeps its ops
//!   cursor and the answers so far; every later frame of the connection
//!   queues behind it, and [`Service::resume`] continues them in order.
//!
//! Routing everything through the single pending buffer is what keeps
//! the per-connection reply order equal to the execution order — the
//! reactor coalesces *when* bytes hit the wire, never their order — so
//! the engine's stamp order (what the certifier steps through) is the
//! order each client saw its answers in.

use crate::server::{batch_member_cap, pay_durability, OpsRun, ReplyCache, Shared, Step};
use crate::wire::{
    decode_batch_request, decode_frame, encode_response, err_code, Request, Response, WireError,
    KIND_BATCH_REQ,
};
use nt_engine::{ParkedAccess, Session, WakeHandle};
use nt_faults::FrameFate;
use nt_model::TxId;
use nt_obs::{Event, ReqSpan};
use nt_reactor::{BadFrame, ReplySink, ResumeHandle, Service, ServiceFactory};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds one [`ConnService`] per accepted connection.
pub(crate) struct ReactorFactory {
    shared: Arc<Shared>,
}

impl ReactorFactory {
    pub(crate) fn new(shared: Arc<Shared>) -> ReactorFactory {
        ReactorFactory { shared }
    }
}

impl ServiceFactory for ReactorFactory {
    fn open(&self, conn: u64, sink: ReplySink) -> Box<dyn Service> {
        self.shared.stats.update(|s| s.conns += 1);
        self.shared.rec.record(Event::ConnAccepted { conn });
        let resume = sink.resume_handle();
        let wake = {
            let resume = resume.clone();
            WakeHandle::new(conn, move || resume.resume())
        };
        Box::new(ConnService {
            session: self.shared.engine.open_session(),
            shared: Arc::clone(&self.shared),
            conn,
            sink,
            resume,
            wake,
            cache: ReplyCache::default(),
            open_tops: BTreeSet::new(),
            frame_no: 0,
            pending: Vec::new(),
            pending_frames: 0,
            waiting: None,
            backlog: VecDeque::new(),
            closed: false,
        })
    }

    fn drain_deadline(&self) -> Option<Duration> {
        Some(Duration::from_millis(self.shared.cfg.drain_timeout_ms))
    }

    fn drain_overdue(&self) {
        self.shared.drain_overdue();
    }
}

/// One decoded request frame (the unit of execution): a single request is
/// a run of one op whose seq is the frame's.
#[derive(Clone)]
struct Decoded {
    /// The frame's wire seq (the `BATCH` outer seq for a batch).
    seq: u64,
    /// Its request kind (`KIND_BATCH_REQ` for a batch).
    kind: u8,
    /// The client's cumulative ack.
    acked_below: u64,
    ops: Vec<(u64, Request)>,
}

impl Decoded {
    fn parse(frame: &[u8]) -> Result<Decoded, WireError> {
        let f = decode_frame(frame)?;
        let ops = if f.kind == KIND_BATCH_REQ {
            decode_batch_request(f.body)?
        } else {
            vec![(f.seq, Request::decode(f.kind, f.body)?)]
        };
        Ok(Decoded {
            seq: f.seq,
            kind: f.kind,
            acked_below: f.acked_below,
            ops,
        })
    }
}

/// A frame mid-execution: its ops run plus what the reply and the span
/// need once it finishes.
struct InFlight {
    /// The frame's wire seq (the `BATCH` outer seq for a batch).
    seq: u64,
    /// Its request kind (`KIND_BATCH_REQ` for a batch).
    kind: u8,
    run: OpsRun,
    /// A fault-plan duplicate: execute this copy (from cache) right after.
    echo: Option<Decoded>,
    t_arrived: u64,
    t_started: u64,
    seq_started: u64,
    /// Batch assembly timing (telemetry only).
    t_asm: Option<Instant>,
}

/// Why the connection's head frame is not executing.
enum Waiting {
    /// One of its ops waits on a lock grant.
    Op(Box<InFlight>, ParkedAccess),
    /// A fault-plan delay: it executes once the deadline passes.
    Delay {
        until: Instant,
        decoded: Decoded,
        queue_us: u64,
    },
}

/// What arrived behind a waiting frame: the one place a frame is copied
/// out of the reactor's read buffer.
enum Arrived {
    Frame(Vec<u8>, Instant),
    Corrupt(BadFrame),
}

struct ConnService {
    shared: Arc<Shared>,
    conn: u64,
    sink: ReplySink,
    resume: ResumeHandle,
    /// Fired by whoever resolves a parked op; schedules our `resume`.
    wake: WakeHandle,
    session: Session,
    /// Per-`seq` exactly-once cache of mutating ops' responses (full
    /// frames, prefix included) the client has not yet acknowledged: a
    /// retried or duplicated mutating frame is answered from here, never
    /// re-executed.
    cache: ReplyCache,
    open_tops: BTreeSet<TxId>,
    /// Frames processed on this connection (the fault plan's key).
    frame_no: u64,
    /// Replies buffered since the last flush, in execution order.
    pending: Vec<u8>,
    /// Dispatched frames those buffered bytes account for.
    pending_frames: u64,
    /// The head frame, when it cannot finish now.
    waiting: Option<Waiting>,
    /// Frames that arrived behind it, in arrival order.
    backlog: VecDeque<Arrived>,
    /// A protocol error closed the connection; late-arriving frames are
    /// accounted but not executed.
    closed: bool,
}

impl ConnService {
    /// Flush buffered replies, answer with a `PROTOCOL` error on wire
    /// seq 0 (accounting for the offending frame), and close.
    fn protocol_error(&mut self, e: WireError) {
        self.flush();
        let resp = Response::Error {
            code: err_code::PROTOCOL,
            msg: e.to_string(),
        };
        match encode_response(0, &resp) {
            Ok(bytes) => self.sink.send(bytes, 1),
            Err(_) => self.sink.send(Vec::new(), 1),
        }
        self.sink.close();
        self.closed = true;
    }

    /// Decode one frame, apply the fault plan, execute it. A `BATCH` with
    /// more members than one `BATCH_RESP` within `max_frame_len` can
    /// answer is a protocol error, refused before any member runs.
    fn process(&mut self, frame: &[u8], enqueued: Instant) {
        if self.closed {
            // Dispatched after a protocol error: account it so the
            // reactor's outstanding count drains, but never execute.
            self.sink.send(Vec::new(), 1);
            return;
        }
        self.frame_no += 1;
        self.shared.stats.update(|s| s.frames += 1);
        let queue_us = enqueued.elapsed().as_micros() as u64;
        let decoded = match Decoded::parse(frame) {
            Ok(d) => d,
            Err(e) => {
                self.protocol_error(e);
                return;
            }
        };
        let cap = batch_member_cap(self.shared.cfg.max_frame_len);
        if decoded.kind == KIND_BATCH_REQ && decoded.ops.len() > cap {
            self.protocol_error(WireError::BadPayload(format!(
                "a BATCH of {} members exceeds the {cap} one BATCH_RESP within max_frame_len {} can answer",
                decoded.ops.len(),
                self.shared.cfg.max_frame_len
            )));
            return;
        }
        let fate = self
            .shared
            .cfg
            .fault
            .map(|p| p.fate(self.frame_no))
            .unwrap_or(FrameFate::Deliver);
        let fault = |name: &'static str| Event::FrameFault {
            conn: self.conn,
            frame: self.frame_no,
            fault: name,
        };
        match fate {
            FrameFate::Deliver => self.handle(decoded, queue_us, None),
            FrameFate::Drop => {
                self.shared.stats.update(|s| s.dropped += 1);
                self.shared.rec.record(fault("drop"));
                // Consumed but intentionally unanswered: account the
                // frame with no reply bytes.
                self.pending_frames += 1;
            }
            FrameFate::Duplicate => {
                self.shared.stats.update(|s| s.duplicated += 1);
                self.shared.rec.record(fault("duplicate"));
                // The echo executes right after and answers from cache.
                self.handle(decoded.clone(), queue_us, Some(decoded));
            }
            FrameFate::Delay(us) => {
                self.shared.stats.update(|s| s.delayed += 1);
                self.shared.rec.record(fault("delay"));
                // Park until the deadline; the poll thread serves every
                // other connection meanwhile.
                let until = Instant::now() + Duration::from_micros(us);
                self.resume.resume_at(until);
                self.waiting = Some(Waiting::Delay {
                    until,
                    decoded,
                    queue_us,
                });
            }
        }
    }

    /// Start executing one decoded frame: take its ack, then run its ops.
    /// `queue_us` is the time the frame spent behind earlier work (zero
    /// for the echo of a fault-plan duplicate).
    fn handle(&mut self, d: Decoded, queue_us: u64, echo: Option<Decoded>) {
        let t_started = self.shared.rec.now_us();
        self.shared.take_ack(&mut self.cache, d.acked_below);
        let batch = d.kind == KIND_BATCH_REQ;
        let inflight = InFlight {
            seq: d.seq,
            kind: d.kind,
            run: OpsRun::new(d.ops, batch),
            echo,
            // The reactor stamped the dispatch with its own `Instant`;
            // place it on the recorder's timeline so `queue_wait` is real.
            t_arrived: t_started.saturating_sub(queue_us),
            t_started,
            seq_started: self.shared.engine.clock_now(),
            t_asm: (batch && self.shared.rec.is_timed()).then(Instant::now),
        };
        self.drive(inflight, None);
    }

    /// Run the frame's ops until it finishes or one parks.
    fn drive(&mut self, mut f: InFlight, resumed: Option<ParkedAccess>) {
        let step = f.run.step(
            &self.shared,
            &mut self.session,
            &mut self.cache,
            &mut self.open_tops,
            &self.wake,
            resumed,
        );
        match step {
            Step::Finished => self.complete(f),
            Step::Parked(p) => self.waiting = Some(Waiting::Op(Box::new(f), p)),
            Step::Fatal => {
                self.protocol_error(WireError::BadPayload(
                    "response encoding failed".to_string(),
                ));
            }
        }
    }

    /// Every op is answered: buffer the frame's reply and record its span.
    fn complete(&mut self, mut f: InFlight) {
        let bytes = if f.kind == KIND_BATCH_REQ {
            let Some(bytes) = f.run.batch_response(f.seq) else {
                self.protocol_error(WireError::BadPayload(
                    "response encoding failed".to_string(),
                ));
                return;
            };
            if let Some(t_asm) = f.t_asm {
                self.shared
                    .rec
                    .observe("phase.batch_assemble", t_asm.elapsed().as_micros() as u64);
            }
            bytes
        } else {
            f.run.answers.swap_remove(0)
        };
        if self.pending.is_empty() {
            self.pending = bytes;
        } else {
            self.pending.extend_from_slice(&bytes);
        }
        self.pending_frames += 1;
        if self.shared.rec.is_timed() {
            // The barrier is deferred to flush: the span ends here and the
            // round's fsync shows up in the `coalesce` phase histogram.
            self.shared.rec.record_span(ReqSpan {
                conn: self.conn,
                seq: f.seq,
                kind: f.kind,
                t_arrived: f.t_arrived,
                t_started: f.t_started,
                t_finished: self.shared.rec.now_us(),
                lock_wait_us: f.run.lock_wait_us,
                seq_started: f.seq_started,
                seq_finished: self.shared.engine.clock_now(),
            });
        }
        if f.run.shutdown {
            // The drain stops reads and accepts; this buffered ack
            // still flushes before the socket closes.
            self.shared.begin_drain();
        }
        if let Some(echo) = f.echo {
            self.handle(echo, 0, None);
        }
    }
}

impl Service for ConnService {
    fn frame(&mut self, frame: Vec<u8>, enqueued: Instant) {
        self.frame_lent(&frame, enqueued);
    }

    fn frame_lent(&mut self, frame: &[u8], enqueued: Instant) {
        if self.waiting.is_some() {
            self.backlog
                .push_back(Arrived::Frame(frame.to_vec(), enqueued));
        } else {
            self.process(frame, enqueued);
        }
    }

    fn resume(&mut self) {
        if matches!(&self.waiting, Some(Waiting::Delay { until, .. }) if Instant::now() < *until) {
            return; // Woken early; the timer is still armed.
        }
        match self.waiting.take() {
            Some(Waiting::Op(f, p)) => self.drive(*f, Some(p)),
            Some(Waiting::Delay {
                decoded, queue_us, ..
            }) => self.handle(decoded, queue_us, None),
            None => {}
        }
        // The head frame finished: run what queued behind it, in order,
        // until one of those waits too.
        while self.waiting.is_none() {
            match self.backlog.pop_front() {
                Some(Arrived::Frame(frame, enqueued)) => self.process(&frame, enqueued),
                Some(Arrived::Corrupt(bad)) => self.corrupt(bad),
                None => break,
            }
        }
    }

    fn flush(&mut self) {
        self.shared.surface_violation();
        self.shared.surface_victims();
        // One group-commit barrier per poll round: every frame of the
        // round, on every connection, executed before this first flush,
        // so its one extent covers them all (later flushes find the stage
        // empty). Write-ahead: it runs before any reply reaches the sink.
        if pay_durability(&self.shared).is_err() {
            // Nothing this round staged is in the file: acknowledge none
            // of it (account the frames, send no byte) and stop serving.
            self.pending.clear();
            self.shared.begin_drain();
        }
        if self.pending_frames > 0 {
            self.sink
                .send(std::mem::take(&mut self.pending), self.pending_frames);
            self.pending_frames = 0;
        }
    }

    fn corrupt(&mut self, bad: BadFrame) {
        if self.waiting.is_some() {
            self.backlog.push_back(Arrived::Corrupt(bad));
            return;
        }
        self.protocol_error(WireError::BadLength {
            len: bad.len,
            max: bad.max,
        });
    }

    fn hangup(&mut self, frames: u64) {
        // The client is gone (EOF, protocol error, write failure, or
        // drain): withdraw a queued lock request, abort whatever it left
        // open so held locks cannot starve other sessions.
        if let Some(Waiting::Op(_, p)) = self.waiting.take() {
            self.session.access_cancel(p);
        }
        for t in std::mem::take(&mut self.open_tops) {
            let _ = self.session.abort(t);
        }
        self.shared.drop_cache(std::mem::take(&mut self.cache));
        self.shared.rec.record(Event::ConnClosed {
            conn: self.conn,
            frames,
        });
    }
}
