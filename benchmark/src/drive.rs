//! The benchmark's closed-loop client: top-level transaction templates
//! replayed over a persistent `nt_net::Conn`, with exact nanosecond
//! latency samples and, in the traced run, spans around every `Conn` call
//! and every frame sized by the repository's encoders.
//!
//! `nt_net::run_load` is not used: it opens fresh connections per call,
//! times only the whole run and keeps latencies in a bucketed histogram.
//! The session protocol below is the same one it speaks.

use crate::spans::Spans;
use crate::workloads::{Node, Template};
use nt_net::wire::{
    encode_batch_request, encode_batch_response, encode_request, encode_response, BatchEntry,
};
use nt_net::{Conn, LoadConfig, Request, Response, WireError};
use std::time::{Duration, Instant};

/// Bytes of one stand-alone request frame plus its response frame, by the
/// repository's encoders.
fn round_trip_bytes(req: &Request, resp: &Response) -> Result<usize, WireError> {
    Ok(encode_request(0, req)?.len() + encode_response(0, resp)?.len())
}

/// The `BATCH` response frame that carries `resps`, as the server's encoder
/// builds it.
fn batch_reply(resps: &[Response]) -> Result<Vec<u8>, WireError> {
    // Length prefix + header of a frame; a sub-frame's body is what follows.
    let header = encode_request(0, &Request::Ping)?.len();
    let entries = resps
        .iter()
        .map(|r| {
            Ok(BatchEntry {
                seq: 0,
                kind: r.kind(),
                body: encode_response(0, r)?.split_off(header),
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(encode_batch_response(0, &entries))
}

/// Bytes of one `BATCH` request frame plus its `BATCH` response frame, by
/// the repository's encoders.
fn batch_round_trip_bytes(reqs: &[Request], resps: &[Response]) -> Result<usize, WireError> {
    let ops: Vec<(u64, Request)> = reqs.iter().cloned().map(|r| (0, r)).collect();
    Ok(encode_batch_request(0, &ops)?.len() + batch_reply(resps)?.len())
}

/// What one connection measured over one trial (or warm-up).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Client-observed latency of each committed top, first attempt to
    /// commit reply, retries and backoff included; ns.
    pub top_ns: Vec<u64>,
    /// Round trip of each wire frame (a `BATCH` frame is one); ns.
    pub req_ns: Vec<u64>,
    /// Tops that committed.
    pub committed: u64,
    /// Top attempts that aborted (each is retried until the budget ends).
    pub aborted_attempts: u64,
    /// Tops that failed: retry budget exhausted, typed `Error` reply,
    /// protocol surprise or a timeout that outlived every resend.
    pub failed: u64,
    /// Bytes written plus bytes read, traced trials only: every request
    /// sent and response received, encoded again and measured. `Conn` owns
    /// its socket and counts nothing, so a resend after a timeout is not
    /// in here.
    pub bytes: u64,
    /// Time slept in top-retry backoff; µs.
    pub retry_sleep_us: u64,
}

impl Samples {
    /// Room for `tops` tops without reallocating inside a timed trial.
    pub fn with_capacity(tops: usize) -> Samples {
        Samples {
            top_ns: Vec::with_capacity(tops),
            req_ns: Vec::with_capacity(tops * 24),
            ..Samples::default()
        }
    }

    /// Forget everything, keeping the allocations.
    pub fn clear(&mut self) {
        self.top_ns.clear();
        self.req_ns.clear();
        self.committed = 0;
        self.aborted_attempts = 0;
        self.failed = 0;
        self.bytes = 0;
        self.retry_sleep_us = 0;
    }

    /// Fold another connection's samples of the same trial in.
    pub fn absorb(&mut self, other: &Samples) {
        self.top_ns.extend_from_slice(&other.top_ns);
        self.req_ns.extend_from_slice(&other.req_ns);
        self.committed += other.committed;
        self.aborted_attempts += other.aborted_attempts;
        self.failed += other.failed;
        self.bytes += other.bytes;
        self.retry_sleep_us += other.retry_sleep_us;
    }
}

/// How a template attempt ended short of a wire failure.
enum TopEnd {
    Committed,
    Aborted,
}

/// What `run_children` hands upward.
enum Unwind {
    /// Every child slot completed (a dead subtree that was skipped is
    /// containment, not failure).
    Done,
    /// The transaction named is dead: unwind until the frame matches.
    To(u32),
}

fn unexpected(what: &str, got: &Response) -> WireError {
    match got {
        Response::Error { code, msg } => {
            WireError::BadPayload(format!("server error {code}: {msg}"))
        }
        other => WireError::BadPayload(format!("expected {what}, got {other:?}")),
    }
}

/// One connection's driver.
pub struct Driver<'a> {
    /// The persistent connection.
    pub conn: &'a mut Conn,
    /// Where measurements go.
    pub samples: &'a mut Samples,
    /// Span recorder of the traced run (`None`: tracing off, one branch
    /// per call).
    pub spans: Option<&'a mut Spans>,
    /// Retry and batching knobs (`batch`, `top_retries`, backoff).
    pub load: &'a LoadConfig,
}

impl Driver<'_> {
    fn span_open(&mut self, name: &'static str) -> Option<u32> {
        self.spans.as_deref_mut().map(|s| s.open(name))
    }

    fn span_close(&mut self, id: Option<u32>) {
        if let (Some(s), Some(id)) = (self.spans.as_deref_mut(), id) {
            s.close(id);
        }
    }

    fn send(&mut self, req: &Request) -> Result<u64, WireError> {
        let id = self.span_open("conn.send");
        let out = self.conn.send(req);
        self.span_close(id);
        out
    }

    fn send_batch(&mut self, reqs: &[Request]) -> Result<Vec<u64>, WireError> {
        let id = self.span_open("conn.send_batch");
        let out = self.conn.send_batch(reqs);
        self.span_close(id);
        out
    }

    fn recv(&mut self, seq: u64) -> Result<Response, WireError> {
        let id = self.span_open("conn.recv");
        let out = self.conn.recv(seq);
        self.span_close(id);
        out
    }

    /// In a traced trial, add what `size` measures to the byte count, under
    /// a span of its own so that the sizing is not taken for the client's
    /// self time. Nothing when tracing is off.
    fn count_bytes(
        &mut self,
        size: impl FnOnce() -> Result<usize, WireError>,
    ) -> Result<(), WireError> {
        if self.spans.is_some() {
            let id = self.span_open("trace.size_frames");
            let bytes = size();
            self.span_close(id);
            self.samples.bytes += bytes? as u64;
        }
        Ok(())
    }

    /// One stand-alone request, timed as one round trip.
    fn request(&mut self, req: &Request) -> Result<Response, WireError> {
        let start = Instant::now();
        let seq = self.send(req)?;
        let resp = self.recv(seq)?;
        self.samples.req_ns.push(start.elapsed().as_nanos() as u64);
        self.count_bytes(|| round_trip_bytes(req, &resp))?;
        Ok(resp)
    }

    /// A maximal run of sibling accesses, pipelined: every frame goes out
    /// before the first reply is awaited. Returns the highest dead
    /// transaction a reply named, if any.
    fn access_run(&mut self, reqs: &[Request]) -> Result<Option<u32>, WireError> {
        let mut victim = None;
        let mut note = |resp: &Response| match resp {
            Response::AccessOk { .. } => Ok(()),
            Response::Aborted { victim: v } => {
                // First death wins; later replies for the same dead
                // subtree repeat it.
                victim.get_or_insert(*v);
                Ok(())
            }
            other => Err(unexpected("an access reply", other)),
        };
        if self.load.batch > 1 {
            let mut sent = Vec::with_capacity(reqs.len().div_ceil(self.load.batch));
            for chunk in reqs.chunks(self.load.batch) {
                let start = Instant::now();
                sent.push((start, self.send_batch(chunk)?, chunk));
            }
            for (start, seqs, chunk) in sent {
                let mut resps = Vec::with_capacity(seqs.len());
                for seq in seqs {
                    let resp = self.recv(seq)?;
                    note(&resp)?;
                    resps.push(resp);
                }
                self.samples.req_ns.push(start.elapsed().as_nanos() as u64);
                self.count_bytes(|| batch_round_trip_bytes(chunk, &resps))?;
            }
        } else {
            let mut sent = Vec::with_capacity(reqs.len());
            for req in reqs {
                let start = Instant::now();
                sent.push((start, self.send(req)?));
            }
            for ((start, seq), req) in sent.into_iter().zip(reqs) {
                let resp = self.recv(seq)?;
                note(&resp)?;
                self.samples.req_ns.push(start.elapsed().as_nanos() as u64);
                self.count_bytes(|| round_trip_bytes(req, &resp))?;
            }
        }
        Ok(victim)
    }

    fn run_children(&mut self, parent: u32, kids: &[Node]) -> Result<Unwind, WireError> {
        let mut i = 0;
        while i < kids.len() {
            if matches!(kids[i], Node::Access(..)) {
                let reqs: Vec<Request> = kids[i..]
                    .iter()
                    .map_while(|k| match k {
                        Node::Access(obj, op) => Some(Request::Access {
                            parent,
                            obj: *obj,
                            op: op.clone(),
                        }),
                        Node::Sub(_) => None,
                    })
                    .collect();
                i += reqs.len();
                if let Some(victim) = self.access_run(&reqs)? {
                    return Ok(Unwind::To(victim));
                }
                continue;
            }
            let Node::Sub(grandkids) = &kids[i] else {
                unreachable!("accesses are handled above")
            };
            i += 1;
            let child = match self.request(&Request::BeginChild { parent })? {
                Response::Begun { tx } => tx,
                Response::Aborted { victim } => return Ok(Unwind::To(victim)),
                other => return Err(unexpected("a begin reply", &other)),
            };
            let dead = match self.run_children(child, grandkids)? {
                Unwind::Done => match self.request(&Request::Commit { tx: child })? {
                    Response::Committed => None,
                    Response::Aborted { victim } => Some(victim),
                    other => return Err(unexpected("a commit reply", &other)),
                },
                Unwind::To(victim) => Some(victim),
            };
            // Unwound exactly to this child: its subtree is gone and its
            // siblings continue. Anything higher keeps unwinding.
            if let Some(victim) = dead.filter(|&v| v != child) {
                return Ok(Unwind::To(victim));
            }
        }
        Ok(Unwind::Done)
    }

    fn attempt(&mut self, template: &Template) -> Result<TopEnd, WireError> {
        let top = match self.request(&Request::BeginTop)? {
            Response::Begun { tx } => tx,
            other => return Err(unexpected("a begin reply", &other)),
        };
        match self.run_children(top, &template.0)? {
            Unwind::Done => match self.request(&Request::Commit { tx: top })? {
                Response::Committed => Ok(TopEnd::Committed),
                Response::Aborted { .. } => Ok(TopEnd::Aborted),
                other => Err(unexpected("a commit reply", &other)),
            },
            Unwind::To(_) => Ok(TopEnd::Aborted),
        }
    }

    /// Run one top to commit, retrying aborted attempts as fresh tops with
    /// capped exponential backoff. `trace` labels its spans.
    pub fn run_top(&mut self, template: &Template, trace: u32) {
        if let Some(s) = self.spans.as_deref_mut() {
            s.set_trace(trace);
        }
        let start = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            let id = self.span_open("top");
            let end = self.attempt(template);
            self.span_close(id);
            match end {
                Ok(TopEnd::Committed) => {
                    self.samples.committed += 1;
                    self.samples.top_ns.push(start.elapsed().as_nanos() as u64);
                    return;
                }
                Ok(TopEnd::Aborted) => {
                    self.samples.aborted_attempts += 1;
                    attempt += 1;
                    if attempt > self.load.top_retries {
                        self.samples.failed += 1;
                        return;
                    }
                    let us = self.load.backoff.delay(attempt) * self.load.backoff_round_us;
                    self.samples.retry_sleep_us += us;
                    let id = self.span_open("backoff.sleep");
                    std::thread::sleep(Duration::from_micros(us));
                    self.span_close(id);
                }
                Err(e) => {
                    eprintln!("nt-benchmark: top failed: {e:?}");
                    self.samples.failed += 1;
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_model::{Op, Value};
    use nt_net::wire::{decode_batch_response, parse_frame};

    #[test]
    fn batch_reply_decodes_back_to_its_responses() {
        let resps = vec![
            Response::AccessOk {
                value: Value::Int(-5),
            },
            Response::AccessOk { value: Value::Ok },
            Response::Aborted { victim: 9 },
        ];
        let reply = batch_reply(&resps).unwrap();
        let (_, _, body) = parse_frame(&reply[4..]).unwrap();
        let back: Vec<Response> = decode_batch_response(body)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(back, resps);
    }

    #[test]
    fn a_batch_of_one_costs_more_than_the_frame_it_wraps() {
        let req = Request::Access {
            parent: 7,
            obj: 4000,
            op: Op::Write(i64::MIN),
        };
        let resp = Response::AccessOk { value: Value::Ok };
        let alone = round_trip_bytes(&req, &resp).unwrap();
        let batched =
            batch_round_trip_bytes(std::slice::from_ref(&req), std::slice::from_ref(&resp))
                .unwrap();
        assert!(batched > alone, "{batched} <= {alone}");
    }
}
