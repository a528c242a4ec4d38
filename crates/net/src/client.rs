//! The client side: a pipelining connection with retry-with-backoff, and
//! the post-run fetch-and-certify path.
//!
//! [`Conn`] assigns every request a monotone sequence number and keeps
//! it in a seq-ordered in-flight window — its encoded frame, when that
//! frame left, and its answer once one arrives — until [`Conn::recv`]
//! takes the answer. A response that never comes (the server's fault
//! plan dropped the frame) is survivable: the receive wait times out,
//! the client re-sends the *same* bytes after `BackoffPolicy` delay, and
//! the server's per-`seq` cache guarantees the retry executes nothing
//! twice. Pipelining falls out of the same structure — send any number
//! of requests, then await their responses in any order.
//!
//! The connection is corked: [`Conn::send`] and [`Conn::send_batch`]
//! only encode into one output buffer, and its bytes leave in one write
//! when a [`Conn::recv`] has to wait on the socket, on [`Conn::flush`],
//! or once the buffer passes 64 KiB. A pipelined run of k requests is
//! one client write, one server read and one reply write. A caller that
//! sends on one connection and then waits on anything else — another
//! connection, server state — flushes first.
//!
//! Every frame carries the connection's cumulative ack, the smallest seq
//! still awaited when it was encoded: the server keeps a mutating reply
//! only until the ack passes it, so its exactly-once cache holds what is
//! in flight, not everything this connection was ever answered. A frame
//! that waits in the cork, and a resend, carry the ack of their encoding,
//! which promises less than the truth and is therefore still true.

use crate::config::LoadConfig;
use crate::wire::{
    decode_batch_response, decode_frame, encode_batch_request_into, encode_request_into,
    read_frame, Request, Response, WireError, DEFAULT_MAX_FRAME, KIND_BATCH_RESP,
};
use nt_faults::BackoffPolicy;
use nt_model::{Action, TxTree};
use nt_obs::{Event, Histogram, Stamped};
use nt_reactor::FrameBuf;
use nt_serial::{ObjectTypes, RwRegister};
use nt_sgt_live::{certify_recorded, RecordedCertificate};
use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Encoded bytes past which a send writes the cork out without waiting
/// for a [`Conn::recv`]: a long pipelined run leaves in bounded writes.
const CORK_LIMIT: usize = 64 * 1024;

/// Retry/timeout knobs (a slice of [`LoadConfig`]).
#[derive(Clone, Copy, Debug)]
pub struct ConnConfig {
    /// Per-response wait before a resend, milliseconds.
    pub timeout_ms: u64,
    /// Resend budget per request.
    pub max_retries: u32,
    /// Backoff between resends, in rounds.
    pub backoff: BackoffPolicy,
    /// Microseconds per backoff round.
    pub backoff_round_us: u64,
}

impl Default for ConnConfig {
    fn default() -> Self {
        let l = LoadConfig::default();
        ConnConfig {
            timeout_ms: l.timeout_ms,
            max_retries: l.max_retries,
            backoff: l.backoff,
            backoff_round_us: l.backoff_round_us,
        }
    }
}

impl From<&LoadConfig> for ConnConfig {
    fn from(l: &LoadConfig) -> ConnConfig {
        ConnConfig {
            timeout_ms: l.timeout_ms,
            max_retries: l.max_retries,
            backoff: l.backoff,
            backoff_round_us: l.backoff_round_us,
        }
    }
}

/// One awaited request in [`Conn`]'s in-flight window.
struct Slot {
    seq: u64,
    /// The frame to re-send on timeout. Members of one `BATCH` share the
    /// same frame bytes: a retry re-sends the *whole* batch, and the
    /// server's per-op cache answers already-executed members
    /// byte-identically (exactly-once per op).
    bytes: Arc<[u8]>,
    /// When the frame left: stamped by the flush that wrote it.
    sent_at: Option<Instant>,
    /// The answer, from its arrival until [`Conn::recv`] takes it.
    answer: Option<Response>,
}

/// One client connection: sequence numbers, pipelining, retries.
pub struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    /// Encoded frames not yet written: the cork.
    out: Vec<u8>,
    /// Every frame of a seq below this one has been written.
    flushed_below: u64,
    next_seq: u64,
    sent: u64,
    /// Every seq sent and not yet taken by [`Conn::recv`], in seq order;
    /// the front slot's seq is the cumulative ack.
    window: VecDeque<Slot>,
    cfg: ConnConfig,
    conn_id: u64,
    /// Resends performed (observability).
    pub retries: u64,
    /// Per-request round-trip latency, µs (mergeable across connections,
    /// p50/p95/p99-capable).
    pub req_hist: Histogram,
    /// Client-side event journal (`net_retry` lines).
    pub journal: Vec<String>,
    jseq: u64,
}

impl Conn {
    /// The first sequence number a connection with this id uses. Seqs
    /// key the server's *durable* response cache, which is shared across
    /// connections and survives restarts — so each connection gets its
    /// own `2^32`-wide band and ids must not be reused for new work
    /// against the same data directory (a resend of a *retained* frame
    /// is exactly what the shared cache exists to answer).
    pub fn seq_base(conn_id: u64) -> u64 {
        ((conn_id + 1) << 32) | 1
    }

    /// Connect to `addr` (blocking socket with a read timeout).
    pub fn connect(addr: &str, conn_id: u64, cfg: ConnConfig) -> Result<Conn, WireError> {
        let base = Conn::seq_base(conn_id);
        Ok(Conn {
            stream: open_stream(addr, &cfg)?,
            inbuf: FrameBuf::new(),
            out: Vec::new(),
            flushed_below: base,
            next_seq: base,
            sent: 0,
            window: VecDeque::new(),
            cfg,
            conn_id,
            retries: 0,
            req_hist: Histogram::new(),
            journal: Vec::new(),
            jseq: 0,
        })
    }

    /// Connect this connection's seq band to `addr` again — a server
    /// restarted on the same data directory — keeping its place in the
    /// band. Frames still in the cork go to the new server; a request
    /// still awaited is re-sent when its wait times out and answered from
    /// the recovered cache if the first server ran it; the next frame's
    /// ack lets the server forget the band's older replies.
    pub fn reconnect(&mut self, addr: &str) -> Result<(), WireError> {
        self.stream = open_stream(addr, &self.cfg)?;
        self.inbuf = FrameBuf::new();
        Ok(())
    }

    /// The cumulative ack the next frame carries: the smallest seq still
    /// awaited, or the next seq when nothing is. Every seq below it was
    /// answered and the answer taken by [`Conn::recv`].
    fn acked_below(&self) -> u64 {
        self.window.front().map_or(self.next_seq, |slot| slot.seq)
    }

    /// Queue `seqs`, all encoded in `out[at..]`, in the window; write the
    /// cork out if it passed [`CORK_LIMIT`].
    fn enqueue(&mut self, at: usize, seqs: std::ops::Range<u64>) -> Result<(), WireError> {
        let bytes: Arc<[u8]> = Arc::from(&self.out[at..]);
        self.window.extend(seqs.map(|seq| Slot {
            seq,
            bytes: Arc::clone(&bytes),
            sent_at: None,
            answer: None,
        }));
        if self.out.len() >= CORK_LIMIT {
            self.flush()?;
        }
        Ok(())
    }

    /// Send a request without waiting (pipelining). Returns its `seq`.
    /// The frame waits in the cork until a [`Conn::recv`] has to wait or
    /// [`Conn::flush`] is called.
    pub fn send(&mut self, req: &Request) -> Result<u64, WireError> {
        let (seq, acked_below, at) = (self.next_seq, self.acked_below(), self.out.len());
        encode_request_into(&mut self.out, seq, acked_below, req)?;
        self.next_seq += 1;
        self.sent += 1;
        self.enqueue(at, seq..seq + 1)?;
        Ok(seq)
    }

    /// Send many requests as one `BATCH` frame (one server read, one
    /// server-side durability barrier for the lot), corked like
    /// [`Conn::send`]. Returns the per-op seqs in request order; await
    /// each with [`Conn::recv`]. A timed-out member re-sends the whole
    /// batch — safe, because every member executes exactly once under the
    /// server's per-op cache.
    pub fn send_batch(&mut self, reqs: &[Request]) -> Result<Vec<u64>, WireError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let (outer, acked_below, at) = (self.next_seq, self.acked_below(), self.out.len());
        encode_batch_request_into(&mut self.out, outer, acked_below, reqs)?;
        let ops = outer + 1..outer + 1 + reqs.len() as u64;
        self.next_seq = ops.end;
        self.sent += reqs.len() as u64;
        self.enqueue(at, ops.clone())?;
        Ok(ops.collect())
    }

    /// Write every corked frame to the socket in one `write_all`, and
    /// stamp their slots' send time. On a write error the bytes stay
    /// corked, for a [`Conn::reconnect`] to carry over.
    pub fn flush(&mut self) -> Result<(), WireError> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.stream
            .write_all(&self.out)
            .map_err(|e| WireError::from_io(&e))?;
        self.out.clear();
        let (now, from) = (Instant::now(), self.flushed_below);
        for slot in self.window.iter_mut().rev().take_while(|s| s.seq >= from) {
            slot.sent_at = Some(now);
        }
        self.flushed_below = self.next_seq;
        Ok(())
    }

    /// Send a batch and await every member, in order.
    pub fn batch_request(&mut self, reqs: &[Request]) -> Result<Vec<Response>, WireError> {
        let seqs = self.send_batch(reqs)?;
        seqs.into_iter().map(|seq| self.recv(seq)).collect()
    }

    /// Read one frame and file its answers in the window. An answer for a
    /// seq not awaited — a duplicate from a resend, answered again or
    /// `ACKED` once the ack passed it — drops on the floor
    /// (at-least-once transport).
    fn poll(&mut self) -> Result<(), WireError> {
        let Some(frame) = read_frame(&mut self.inbuf, &mut self.stream, DEFAULT_MAX_FRAME)? else {
            return Err(WireError::Io("server closed the connection".to_string()));
        };
        let f = decode_frame(frame)?;
        if f.kind == KIND_BATCH_RESP {
            for (seq, resp) in decode_batch_response(f.body)? {
                file_answer(&mut self.window, seq, resp);
            }
        } else {
            file_answer(&mut self.window, f.seq, Response::decode(f.kind, f.body)?);
        }
        Ok(())
    }

    /// Await the response for `seq`, re-sending the original frame with
    /// capped exponential backoff when the wait times out. Waiting writes
    /// the cork out first. A `seq` not in flight — never sent on this
    /// connection, or its answer already taken — is
    /// [`WireError::NotInFlight`] at once.
    pub fn recv(&mut self, seq: u64) -> Result<Response, WireError> {
        let mut attempt: u32 = 0;
        loop {
            let i = self
                .window
                .binary_search_by_key(&seq, |slot| slot.seq)
                .map_err(|_| WireError::NotInFlight(seq))?;
            if self.window[i].answer.is_some() {
                let slot = self.window.remove(i).expect("the slot just found");
                if let Some(at) = slot.sent_at {
                    let us = at.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    self.req_hist.observe(us);
                }
                return Ok(slot.answer.expect("checked above"));
            }
            self.flush()?;
            match self.poll() {
                Ok(()) => continue,
                Err(WireError::TimedOut) => {
                    attempt += 1;
                    if attempt > self.cfg.max_retries {
                        return Err(WireError::TimedOut);
                    }
                    self.retries += 1;
                    self.jseq += 1;
                    self.journal.push(
                        Stamped {
                            round: 0,
                            step: 0,
                            seq: self.jseq,
                            event: Event::NetRetry {
                                conn: self.conn_id,
                                req_seq: seq,
                                attempt: u64::from(attempt),
                            },
                        }
                        .to_json_line(),
                    );
                    let rounds = self.cfg.backoff.delay(attempt);
                    std::thread::sleep(Duration::from_micros(rounds * self.cfg.backoff_round_us));
                    // `poll` files answers but takes no slot: `i` holds.
                    self.stream
                        .write_all(&self.window[i].bytes)
                        .map_err(|e| WireError::from_io(&e))?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Send and await in one call.
    pub fn request(&mut self, req: &Request) -> Result<Response, WireError> {
        let seq = self.send(req)?;
        self.recv(seq)
    }

    /// Requests sent on this connection so far.
    pub fn requests_sent(&self) -> u64 {
        self.sent
    }

    /// Fetch the server's recorded history and rebuild it locally.
    pub fn fetch_history(&mut self) -> Result<(TxTree, Vec<Action>), WireError> {
        match self.request(&Request::HistoryFetch)? {
            Response::History(doc) => doc.into_run(),
            other => Err(WireError::BadPayload(format!(
                "expected History, got {other:?}"
            ))),
        }
    }

    /// Fetch the server's live runtime-stats document (schema
    /// `nt-net/stats/v3`) as a JSON string.
    pub fn stats(&mut self) -> Result<String, WireError> {
        match self.request(&Request::Stats)? {
            Response::Stats { json } => Ok(json),
            other => Err(WireError::BadPayload(format!(
                "expected Stats, got {other:?}"
            ))),
        }
    }

    /// Fetch the server's live serialization-graph certificate (schema
    /// `nt-sgt/cert/v1`) as a JSON string. The certifier is stepped by
    /// the thread that records each action, so the verdict covers every
    /// action recorded before this request; a server without
    /// `live_certify` answers with a `"disabled"` document.
    pub fn cert(&mut self) -> Result<String, WireError> {
        match self.request(&Request::Cert)? {
            Response::Cert { json } => Ok(json),
            other => Err(WireError::BadPayload(format!(
                "expected Cert, got {other:?}"
            ))),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown_server(&mut self) -> Result<(), WireError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(WireError::BadPayload(format!(
                "expected ShuttingDown, got {other:?}"
            ))),
        }
    }
}

/// File `resp` in the slot awaiting `seq`, if any.
fn file_answer(window: &mut VecDeque<Slot>, seq: u64, resp: Response) {
    if let Ok(i) = window.binary_search_by_key(&seq, |slot| slot.seq) {
        window[i].answer = Some(resp);
    }
}

/// A blocking socket to `addr` with the configured read timeout.
fn open_stream(addr: &str, cfg: &ConnConfig) -> Result<TcpStream, WireError> {
    let stream = TcpStream::connect(addr).map_err(|e| WireError::from_io(&e))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(cfg.timeout_ms.max(1))))
        .map_err(|e| WireError::from_io(&e))?;
    stream
        .set_nodelay(true)
        .map_err(|e| WireError::from_io(&e))?;
    Ok(stream)
}

/// Fetch the server's recorded history over the wire and certify it with
/// the Theorem 17 gate (read/write conflicts, registers initially 0 —
/// matching the session engine's initial values).
pub fn fetch_and_certify(addr: &str, cfg: ConnConfig) -> Result<RecordedCertificate, WireError> {
    let mut conn = Conn::connect(addr, 0, cfg)?;
    let (tree, actions) = conn.fetch_history()?;
    Ok(certify_history(&tree, &actions))
}

/// Certify an already-fetched history through `nt_sgt_live::certify_recorded`.
pub fn certify_history(tree: &TxTree, actions: &[Action]) -> RecordedCertificate {
    let types = ObjectTypes::uniform(tree.num_objects(), Arc::new(RwRegister::new(0)));
    certify_recorded(tree, actions, &types)
}

/// A typed view of the three response shapes a transaction request can
/// produce (anything else is a protocol error).
pub enum TxReply {
    /// The operation succeeded (payload per request kind).
    Ok(Response),
    /// The addressed subtree is dead up to `victim`.
    Aborted(u32),
}

/// Classify a response, mapping `Error` frames to [`WireError`].
pub fn tx_reply(resp: Response) -> Result<TxReply, WireError> {
    match resp {
        Response::Aborted { victim } => Ok(TxReply::Aborted(victim)),
        Response::Error { code, msg } => {
            Err(WireError::BadPayload(format!("server error {code}: {msg}")))
        }
        other => Ok(TxReply::Ok(other)),
    }
}
