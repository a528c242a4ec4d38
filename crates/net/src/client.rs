//! The client side: a pipelining connection with retry-with-backoff, and
//! the post-run fetch-and-certify path.
//!
//! [`Conn`] assigns every request a monotone sequence number and keeps
//! the encoded frame in an in-flight map until its response arrives, so
//! a response that never comes (the server's fault plan dropped the
//! frame) is survivable: the receive wait times out, the client re-sends
//! the *same* bytes after `BackoffPolicy` delay, and the server's
//! per-`seq` cache guarantees the retry executes nothing twice.
//! Pipelining falls out of the same structure — send any number of
//! requests, then await their responses in any order.
//!
//! Every frame carries the connection's cumulative ack, the smallest seq
//! still awaited: the server keeps a mutating reply only until the ack
//! passes it, so its exactly-once cache holds what is in flight, not
//! everything this connection was ever answered. A resend carries the
//! ack of its first send, which promises less and is therefore still true.

use crate::config::LoadConfig;
use crate::wire::{
    decode_frame, encode_batch_request_acked, encode_request_acked, FrameReader, Request, Response,
    WireError, DEFAULT_MAX_FRAME, KIND_BATCH_RESP,
};
use nt_faults::BackoffPolicy;
use nt_model::{Action, Op, TxTree};
use nt_obs::{Event, Histogram, Stamped};
use nt_serial::{ObjectTypes, RwRegister};
use nt_sgt::{certify_recorded, ConflictSource, RecordedCertificate};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

struct InFlight {
    /// The frame to re-send on timeout. Members of one `BATCH` share the
    /// same frame bytes: a retry re-sends the *whole* batch, and the
    /// server's per-op cache answers already-executed members
    /// byte-identically (exactly-once per op).
    bytes: Arc<Vec<u8>>,
    sent_at: Instant,
}

/// One client connection: sequence numbers, pipelining, retries.
pub struct Conn {
    stream: TcpStream,
    fr: FrameReader,
    next_seq: u64,
    sent: u64,
    in_flight: BTreeMap<u64, InFlight>,
    got: BTreeMap<u64, Response>,
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
        Ok(Conn {
            stream: open_stream(addr, &cfg)?,
            fr: FrameReader::new(),
            next_seq: Conn::seq_base(conn_id),
            sent: 0,
            in_flight: BTreeMap::new(),
            got: BTreeMap::new(),
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
    /// band. A request still awaited is re-sent when its wait times out and
    /// answered from the recovered cache if the first server ran it; the
    /// next frame's ack lets the server forget the band's older replies.
    pub fn reconnect(&mut self, addr: &str) -> Result<(), WireError> {
        self.stream = open_stream(addr, &self.cfg)?;
        self.fr = FrameReader::new();
        Ok(())
    }

    /// The cumulative ack the next frame carries: the smallest seq still
    /// awaited, or the next seq when nothing is. Every seq below it was
    /// answered and the answer taken by [`Conn::recv`].
    fn acked_below(&self) -> u64 {
        self.in_flight
            .first_key_value()
            .map_or(self.next_seq, |(&seq, _)| seq)
    }

    /// Send a request without waiting (pipelining). Returns its `seq`.
    pub fn send(&mut self, req: &Request) -> Result<u64, WireError> {
        let acked_below = self.acked_below();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent += 1;
        let bytes = encode_request_acked(seq, acked_below, req)?;
        self.stream
            .write_all(&bytes)
            .map_err(|e| WireError::from_io(&e))?;
        self.in_flight.insert(
            seq,
            InFlight {
                bytes: Arc::new(bytes),
                sent_at: Instant::now(),
            },
        );
        Ok(seq)
    }

    /// Send many requests as one `BATCH` frame (one syscall round-trip,
    /// one server-side durability barrier for the lot). Returns the
    /// per-op seqs in request order; await each with [`Conn::recv`]. A
    /// timed-out member re-sends the whole batch — safe, because every
    /// member executes exactly once under the server's per-op cache.
    pub fn send_batch(&mut self, reqs: &[Request]) -> Result<Vec<u64>, WireError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let acked_below = self.acked_below();
        let outer = self.next_seq;
        self.next_seq += 1;
        let ops: Vec<(u64, Request)> = reqs
            .iter()
            .map(|r| {
                let seq = self.next_seq;
                self.next_seq += 1;
                (seq, r.clone())
            })
            .collect();
        self.sent += reqs.len() as u64;
        let bytes = Arc::new(encode_batch_request_acked(outer, acked_below, &ops)?);
        self.stream
            .write_all(&bytes)
            .map_err(|e| WireError::from_io(&e))?;
        let sent_at = Instant::now();
        let mut seqs = Vec::with_capacity(ops.len());
        for (seq, _) in &ops {
            self.in_flight.insert(
                *seq,
                InFlight {
                    bytes: Arc::clone(&bytes),
                    sent_at,
                },
            );
            seqs.push(*seq);
        }
        Ok(seqs)
    }

    /// Send a batch and await every member, in order.
    pub fn batch_request(&mut self, reqs: &[Request]) -> Result<Vec<Response>, WireError> {
        let seqs = self.send_batch(reqs)?;
        seqs.into_iter().map(|seq| self.recv(seq)).collect()
    }

    fn poll(&mut self) -> Result<(), WireError> {
        match self.fr.read_frame(&mut self.stream, DEFAULT_MAX_FRAME)? {
            None => Err(WireError::Io("server closed the connection".to_string())),
            Some(frame) => {
                let f = decode_frame(&frame)?;
                if f.kind == KIND_BATCH_RESP {
                    // Per-op responses; duplicates (from a whole-batch
                    // resend) for completed seqs — answered again, or
                    // `ACKED` once the ack passed them — drop on the floor.
                    for (seq, resp) in crate::wire::decode_batch_response(f.body)? {
                        if self.in_flight.contains_key(&seq) {
                            self.got.insert(seq, resp);
                        }
                    }
                    return Ok(());
                }
                let resp = Response::decode(f.kind, f.body)?;
                // A duplicate response for an already-completed seq is
                // dropped on the floor (at-least-once transport).
                if self.in_flight.contains_key(&f.seq) {
                    self.got.insert(f.seq, resp);
                }
                Ok(())
            }
        }
    }

    /// Await the response for `seq`, re-sending the original frame with
    /// capped exponential backoff when the wait times out.
    pub fn recv(&mut self, seq: u64) -> Result<Response, WireError> {
        let mut attempt: u32 = 0;
        loop {
            if let Some(resp) = self.got.remove(&seq) {
                if let Some(inf) = self.in_flight.remove(&seq) {
                    let us = inf.sent_at.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    self.req_hist.observe(us);
                }
                return Ok(resp);
            }
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
                    let bytes = self
                        .in_flight
                        .get(&seq)
                        .map(|inf| inf.bytes.clone())
                        .ok_or(WireError::TimedOut)?;
                    self.stream
                        .write_all(&bytes)
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

    /// Begin a top with a declared access summary, for servers running
    /// the static admission gate. `Ok(Ok(tx))` means the top was
    /// admitted and begun; `Ok(Err((code, msg)))` carries the server's
    /// typed refusal (`err_code::STATIC_GATE` when the gate refused).
    pub fn begin_top_declared(
        &mut self,
        reads: &[u32],
        writes: &[u32],
    ) -> Result<Result<u32, (u16, String)>, WireError> {
        let req = Request::BeginTopDeclared {
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        };
        match self.request(&req)? {
            Response::Begun { tx } => Ok(Ok(tx)),
            Response::Error { code, msg } => Ok(Err((code, msg))),
            other => Err(WireError::BadPayload(format!(
                "expected Begun or Error, got {other:?}"
            ))),
        }
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
/// the Theorem 17 post-hoc pipeline (read/write conflicts, registers
/// initially 0 — matching the session engine's initial values).
pub fn fetch_and_certify(addr: &str, cfg: ConnConfig) -> Result<RecordedCertificate, WireError> {
    let mut conn = Conn::connect(addr, 0, cfg)?;
    let (tree, actions) = conn.fetch_history()?;
    Ok(certify_history(&tree, &actions))
}

/// Certify an already-fetched history.
pub fn certify_history(tree: &TxTree, actions: &[Action]) -> RecordedCertificate {
    let types = ObjectTypes::uniform(tree.num_objects(), Arc::new(RwRegister::new(0)));
    certify_recorded(tree, actions, &types, ConflictSource::ReadWrite)
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

/// An `Op` restricted to what the wire carries — re-exported convenience
/// for workload code.
pub fn is_wire_op(op: &Op) -> bool {
    matches!(op, Op::Read | Op::Write(_))
}
