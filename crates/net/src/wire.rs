//! The nt-net wire protocol: versioned, length-prefixed, CRC-checked
//! binary frames over TCP.
//!
//! A frame is the WAL's frame (`nt_store::record`: `len | crc | payload`,
//! built by the same `begin_frame` / `seal_frame`) whose payload is a
//! message:
//!
//! ```text
//! | len u32le | crc u32le | magic u16le | ver u8 | kind u8 | seq u64le | acked_below u64le | body… |
//! ```
//!
//! where `len` counts the payload (magic through body, so `len = 20 +
//! body.len()`), `crc` is the IEEE CRC-32 of the whole payload — header
//! included — `magic` is `0x4E54` (`"NT"` little-endian), `ver` is
//! [`VERSION`], `kind` names the body ([`Request`] kinds use the low half
//! of the byte space, [`Response`] kinds the high half), `seq` is the
//! client-assigned request sequence number echoed on the response, and
//! `acked_below` is the client's cumulative ack: every request seq below
//! it was answered and the answer received. Responses carry 0 there.
//!
//! Sequence numbers make the transport *at-least-once with exactly-once
//! execution*: the server caches the encoded response of a mutating op
//! per `seq` until the client acknowledges it, so a client retry of a
//! dropped frame re-executes nothing, a duplicated frame is answered from
//! cache, and a resend of an op below the ack is refused with
//! [`err_code::ACKED`]. Decoding is total — every malformed input maps to
//! a typed [`WireError`], never a panic — which the property tests in
//! `tests/wire_props.rs` drive with a corrupt-frame corpus.
//!
//! Bodies are read and written with the WAL's codec (`nt_store::record`):
//! a value, an op or an action has the same bytes here as in a log record,
//! and a symbol outside the register alphabet is a
//! [`WireError::BadPayload`] both ways.

use nt_model::{Op, Value};
use nt_store::record::{
    begin_frame, check_crc, decode_op, decode_value, encode_op, encode_value, put_str, put_u16,
    put_u32, put_u64, seal_frame, CodecError, Reader,
};
use std::io::{self, Read};

/// `"NT"` little-endian.
pub const MAGIC: u16 = 0x4E54;
/// Current protocol version: 2 added `acked_below` and moved the CRC
/// in front of the header it now covers.
pub const VERSION: u8 = 2;
/// Bytes of the frame's CRC, between the length prefix and the payload.
pub const CRC_LEN: usize = 4;
/// Header bytes after the length prefix (crc + magic + ver + kind + seq +
/// acked_below).
pub const HEADER_LEN: usize = 24;
/// The smallest payload a length prefix can declare: the header less its
/// CRC, with an empty body.
pub const MIN_PAYLOAD: usize = HEADER_LEN - CRC_LEN;
/// Default cap on `len` (prefix value); larger frames are a protocol error.
pub const DEFAULT_MAX_FRAME: usize = 1 << 22;

/// IEEE CRC-32 (reflected, 0xEDB88320): the WAL's, over the WAL's frame.
pub use nt_store::record::crc32;

// --- Errors ---------------------------------------------------------------

/// Every way a frame can fail to decode or a socket can fail underneath.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// An underlying socket error (message only; `io::Error` is not `Eq`).
    Io(String),
    /// A read timed out (the client's retry trigger).
    TimedOut,
    /// The length prefix is below the payload header or above the cap.
    BadLength {
        /// The declared length.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// The magic bytes are wrong (not an nt-net peer).
    BadMagic(u16),
    /// The protocol version is unknown.
    BadVersion(u8),
    /// The payload (header and body) does not match the declared checksum.
    BadCrc {
        /// The checksum declared in the frame.
        declared: u32,
        /// The checksum computed over the received payload.
        computed: u32,
    },
    /// The kind byte names no known request or response.
    UnknownKind(u8),
    /// The payload (or stream) ended before the structure did.
    Truncated,
    /// Decoding finished with this many unconsumed payload bytes.
    Trailing(usize),
    /// The payload is structurally valid but semantically impossible.
    BadPayload(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(m) => write!(f, "io error: {m}"),
            WireError::TimedOut => write!(f, "timed out"),
            WireError::BadLength { len, max } => {
                write!(
                    f,
                    "bad frame length {len} (header needs {MIN_PAYLOAD}, cap {max})"
                )
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadCrc { declared, computed } => {
                write!(
                    f,
                    "crc mismatch: declared {declared:#010x}, computed {computed:#010x}"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::Truncated => write!(f, "truncated payload"),
            WireError::Trailing(n) => write!(f, "{n} trailing payload bytes"),
            WireError::BadPayload(m) => write!(f, "bad payload: {m}"),
        }
    }
}

impl WireError {
    /// Classify an `io::Error` (timeouts are retryable, the rest fatal).
    pub fn from_io(e: &io::Error) -> WireError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => WireError::TimedOut,
            _ => WireError::Io(e.to_string()),
        }
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        match e {
            CodecError::Short { .. } => WireError::Truncated,
            CodecError::Invalid(what) => WireError::BadPayload(what),
        }
    }
}

/// Every payload byte must be consumed.
fn finish(r: &Reader<'_>) -> Result<(), WireError> {
    match r.remaining() {
        0 => Ok(()),
        left => Err(WireError::Trailing(left)),
    }
}

// --- Requests and responses -----------------------------------------------

/// A client-to-server request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Begin a fresh top-level transaction.
    BeginTop,
    /// Begin a top-level transaction *with a declared access summary*:
    /// the objects it may read and the objects it may write. When the
    /// server runs with the static admission gate enabled, the declared
    /// sets feed an [`crate::admission::AdmissionLedger`] that refuses
    /// (with [`err_code::STATIC_GATE`]) any top whose potential conflict
    /// graph against the currently live declared tops could close a
    /// serialization cycle. Without the gate this behaves as `BeginTop`.
    BeginTopDeclared {
        /// Objects the transaction may read.
        reads: Vec<u32>,
        /// Objects the transaction may write.
        writes: Vec<u32>,
    },
    /// Begin a child under `parent` (which this connection's session owns).
    BeginChild {
        /// The parent transaction.
        parent: u32,
    },
    /// Run one read/write access under `parent`.
    Access {
        /// The access's parent transaction.
        parent: u32,
        /// The object accessed.
        obj: u32,
        /// `Read` or `Write(v)` only.
        op: Op,
    },
    /// Commit `tx` (lock inheritance to its parent).
    Commit {
        /// The transaction to commit.
        tx: u32,
    },
    /// Abort `tx` and its whole subtree.
    Abort {
        /// The transaction to abort.
        tx: u32,
    },
    /// Fetch the server's full recorded history for certification.
    HistoryFetch,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain gracefully and exit.
    Shutdown,
    /// Fetch a live runtime-telemetry snapshot (server counters, lock
    /// table counters, phase histograms, SGT health gauges, wait-for
    /// graph) as one JSON document.
    Stats,
    /// Fetch the live serialization-graph certificate: the incremental
    /// certifier's verdict over every action recorded so far (schema
    /// `nt-sgt/cert/v1`), or a `"disabled"` document when the server runs
    /// without live certification.
    Cert,
}

impl Request {
    /// The frame kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Request::BeginTop => 0x01,
            Request::BeginChild { .. } => 0x02,
            Request::Access { .. } => 0x03,
            Request::Commit { .. } => 0x04,
            Request::Abort { .. } => 0x05,
            Request::HistoryFetch => 0x06,
            Request::Ping => 0x07,
            Request::Shutdown => 0x08,
            Request::BeginTopDeclared { .. } => 0x09,
            Request::Stats => 0x0A,
            Request::Cert => 0x0B,
        }
    }

    fn put_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Request::BeginTop
            | Request::HistoryFetch
            | Request::Ping
            | Request::Shutdown
            | Request::Stats
            | Request::Cert => Ok(()),
            Request::BeginChild { parent } => {
                put_u32(out, *parent);
                Ok(())
            }
            Request::Access { parent, obj, op } => {
                put_u32(out, *parent);
                put_u32(out, *obj);
                Ok(encode_op(out, op)?)
            }
            Request::Commit { tx } | Request::Abort { tx } => {
                put_u32(out, *tx);
                Ok(())
            }
            Request::BeginTopDeclared { reads, writes } => {
                for set in [reads, writes] {
                    put_u32(out, set.len() as u32);
                    for &obj in set {
                        put_u32(out, obj);
                    }
                }
                Ok(())
            }
        }
    }

    /// Decode a request body for `kind`.
    pub fn decode(kind: u8, body: &[u8]) -> Result<Request, WireError> {
        let mut cur = Reader::new(body);
        let req = match kind {
            0x01 => Request::BeginTop,
            0x02 => Request::BeginChild { parent: cur.u32()? },
            0x03 => Request::Access {
                parent: cur.u32()?,
                obj: cur.u32()?,
                op: decode_op(&mut cur)?,
            },
            0x04 => Request::Commit { tx: cur.u32()? },
            0x05 => Request::Abort { tx: cur.u32()? },
            0x06 => Request::HistoryFetch,
            0x07 => Request::Ping,
            0x08 => Request::Shutdown,
            0x09 => {
                let mut sets = [Vec::new(), Vec::new()];
                for set in &mut sets {
                    let n = cur.u32()?;
                    for _ in 0..n {
                        set.push(cur.u32()?);
                    }
                }
                let [reads, writes] = sets;
                Request::BeginTopDeclared { reads, writes }
            }
            0x0A => Request::Stats,
            0x0B => Request::Cert,
            k => return Err(WireError::UnknownKind(k)),
        };
        finish(&cur)?;
        Ok(req)
    }
}

/// Stable error codes carried by [`Response::Error`].
pub mod err_code {
    /// The server's transaction arena is full.
    pub const CAPACITY: u16 = 1;
    /// The named transaction does not exist.
    pub const UNKNOWN_TX: u16 = 2;
    /// The named transaction belongs to another connection's session.
    pub const NOT_OWNED: u16 = 3;
    /// The named transaction is an access (a leaf).
    pub const NOT_INNER: u16 = 4;
    /// The named transaction already committed.
    pub const COMPLETED: u16 = 5;
    /// The operation is not a read/write operation.
    pub const NON_RW_OP: u16 = 6;
    /// The connection sent a malformed frame.
    pub const PROTOCOL: u16 = 7;
    /// The static admission gate refused the declared access summary:
    /// admitting it could close a potential serialization cycle.
    pub const STATIC_GATE: u16 = 8;
    /// The op's seq is below the connection's cumulative ack and its reply
    /// is no longer cached: the client already received it. Nothing ran.
    pub const ACKED: u16 = 9;
}

/// A server-to-client response (its `seq` echoes the request's).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The fresh transaction from `BeginTop`/`BeginChild`.
    Begun {
        /// The new transaction.
        tx: u32,
    },
    /// The access committed with this return value.
    AccessOk {
        /// The access's return value.
        value: Value,
    },
    /// The `Commit` succeeded.
    Committed,
    /// The `Abort` was carried out (idempotent).
    AbortOk,
    /// The addressed subtree is dead: `victim` is its highest aborted
    /// transaction (the client unwinds to `victim`'s parent).
    Aborted {
        /// The highest aborted ancestor.
        victim: u32,
    },
    /// The recorded history (naming tree + action log).
    History(crate::history::HistoryDoc),
    /// Liveness reply.
    Pong,
    /// The server acknowledged `Shutdown` and is draining.
    ShuttingDown,
    /// A runtime-telemetry snapshot serialized as a JSON document.
    Stats {
        /// The snapshot (schema `nt-net/stats/v3`).
        json: String,
    },
    /// The live serialization-graph certificate as a JSON document.
    Cert {
        /// The certificate (schema `nt-sgt/cert/v1`).
        json: String,
    },
    /// A protocol-level failure (see [`err_code`]).
    Error {
        /// Stable error code.
        code: u16,
        /// Human-readable detail.
        msg: String,
    },
}

impl Response {
    /// The frame kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Begun { .. } => 0x81,
            Response::AccessOk { .. } => 0x82,
            Response::Committed => 0x83,
            Response::AbortOk => 0x84,
            Response::Aborted { .. } => 0x85,
            Response::History(_) => 0x86,
            Response::Pong => 0x87,
            Response::ShuttingDown => 0x88,
            Response::Error { .. } => 0x89,
            Response::Stats { .. } => 0x8A,
            Response::Cert { .. } => 0x8B,
        }
    }

    fn put_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Response::Begun { tx } | Response::Aborted { victim: tx } => {
                put_u32(out, *tx);
                Ok(())
            }
            Response::AccessOk { value } => Ok(encode_value(out, value)?),
            Response::Committed | Response::AbortOk | Response::Pong | Response::ShuttingDown => {
                Ok(())
            }
            Response::History(doc) => doc.encode(out),
            Response::Error { code, msg } => {
                put_u16(out, *code);
                put_str(out, msg);
                Ok(())
            }
            Response::Stats { json } | Response::Cert { json } => {
                put_str(out, json);
                Ok(())
            }
        }
    }

    /// Decode a response body for `kind`.
    pub fn decode(kind: u8, body: &[u8]) -> Result<Response, WireError> {
        let mut cur = Reader::new(body);
        let resp = match kind {
            0x81 => Response::Begun { tx: cur.u32()? },
            0x82 => Response::AccessOk {
                value: decode_value(&mut cur)?,
            },
            0x83 => Response::Committed,
            0x84 => Response::AbortOk,
            0x85 => Response::Aborted { victim: cur.u32()? },
            0x86 => Response::History(crate::history::HistoryDoc::decode(&mut cur)?),
            0x87 => Response::Pong,
            0x88 => Response::ShuttingDown,
            0x89 => Response::Error {
                code: cur.u16()?,
                msg: cur.str()?,
            },
            0x8A => Response::Stats { json: cur.str()? },
            0x8B => Response::Cert { json: cur.str()? },
            k => return Err(WireError::UnknownKind(k)),
        };
        finish(&cur)?;
        Ok(resp)
    }
}

// --- Frame assembly and parsing -------------------------------------------

/// Build one frame in place: the WAL's `len | crc` prefix, the header,
/// then whatever `put_body` appends; the prefix is sealed last.
fn encode_frame(
    kind: u8,
    seq: u64,
    acked_below: u64,
    put_body: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(64);
    let at = begin_frame(&mut out);
    put_u16(&mut out, MAGIC);
    out.push(VERSION);
    out.push(kind);
    put_u64(&mut out, seq);
    put_u64(&mut out, acked_below);
    put_body(&mut out)?;
    seal_frame(&mut out, at);
    Ok(out)
}

/// Encode one request frame (length prefix included) that acknowledges
/// nothing (`acked_below` 0).
pub fn encode_request(seq: u64, req: &Request) -> Result<Vec<u8>, WireError> {
    encode_request_acked(seq, 0, req)
}

/// Encode one request frame carrying the cumulative ack `acked_below`:
/// the sender has received the answer to every seq below it.
pub fn encode_request_acked(
    seq: u64,
    acked_below: u64,
    req: &Request,
) -> Result<Vec<u8>, WireError> {
    encode_frame(req.kind(), seq, acked_below, |out| req.put_body(out))
}

/// Encode one response frame (length prefix included).
pub fn encode_response(seq: u64, resp: &Response) -> Result<Vec<u8>, WireError> {
    encode_frame(resp.kind(), seq, 0, |out| resp.put_body(out))
}

/// One parsed frame: its header fields and its body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The frame kind byte.
    pub kind: u8,
    /// The request seq (echoed on a response).
    pub seq: u64,
    /// The sender's cumulative ack; 0 on a response and on a request that
    /// acknowledges nothing.
    pub acked_below: u64,
    /// The kind-specific body.
    pub body: &'a [u8],
}

/// The version byte of a frame a version-1 peer sent — `magic | ver | kind
/// | seq | crc | body`, the magic first and a CRC over the body alone. It
/// fails this version's CRC; naming its version tells the old peer why.
fn v1_version(frame: &[u8]) -> Option<u8> {
    const V1_HEADER: usize = 16;
    let old = frame.len() >= V1_HEADER
        && frame[..2] == MAGIC.to_le_bytes()
        && frame[2] != VERSION
        && frame[12..16] == crc32(&frame[V1_HEADER..]).to_le_bytes();
    old.then(|| frame[2])
}

/// Parse one frame (everything *after* the length prefix): the CRC over
/// header and body first, then magic and version.
pub fn decode_frame(frame: &[u8]) -> Result<Frame<'_>, WireError> {
    let checked = if frame.len() < HEADER_LEN {
        Err(WireError::Truncated)
    } else {
        check_crc(frame).map_err(|(declared, computed)| WireError::BadCrc { declared, computed })
    };
    let payload = checked.map_err(|e| v1_version(frame).map_or(e, WireError::BadVersion))?;
    let mut r = Reader::new(payload);
    let magic = r.u16()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let ver = r.u8()?;
    if ver != VERSION {
        return Err(WireError::BadVersion(ver));
    }
    Ok(Frame {
        kind: r.u8()?,
        seq: r.u64()?,
        acked_below: r.u64()?,
        body: r.take(r.remaining())?,
    })
}

/// Parse one frame (everything *after* the length prefix) into its kind,
/// sequence number, and body. Validates checksum, magic, and version.
pub fn parse_frame(frame: &[u8]) -> Result<(u8, u64, &[u8]), WireError> {
    decode_frame(frame).map(|f| (f.kind, f.seq, f.body))
}

/// Parse and decode a full request frame.
pub fn parse_request(frame: &[u8]) -> Result<(u64, Request), WireError> {
    let (kind, seq, body) = parse_frame(frame)?;
    Ok((seq, Request::decode(kind, body)?))
}

/// Parse and decode a full response frame.
pub fn parse_response(frame: &[u8]) -> Result<(u64, Response), WireError> {
    let (kind, seq, body) = parse_frame(frame)?;
    Ok((seq, Response::decode(kind, body)?))
}

// --- Batched frames --------------------------------------------------------

/// Frame kind of a batched request: many ops in one frame.
pub const KIND_BATCH_REQ: u8 = 0x0C;
/// Frame kind of a batched response: one status entry per op.
pub const KIND_BATCH_RESP: u8 = 0x8C;

/// One answered op inside a batch response: the op's own `seq`, its
/// response kind byte (the per-op status — errors keep their typed
/// [`err_code`]), and its encoded response body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchEntry {
    /// The op's sequence number (keys the exactly-once cache, exactly as
    /// a standalone frame's `seq` would).
    pub seq: u64,
    /// The response kind byte for this op.
    pub kind: u8,
    /// The encoded response body for this op.
    pub body: Vec<u8>,
}

/// Encode a `BATCH` request frame that acknowledges nothing: the outer
/// `seq` identifies the batch (echoed on the response), each op carries
/// its own `seq` for per-op exactly-once caching. The whole payload is
/// CRC-checked like every frame. Entries are `seq u64 | kind u8 |
/// body_len u32 | body`. An empty batch or a nested batch is a
/// [`WireError::BadPayload`].
pub fn encode_batch_request(seq: u64, ops: &[(u64, Request)]) -> Result<Vec<u8>, WireError> {
    encode_batch_request_acked(seq, 0, ops)
}

/// [`encode_batch_request`] carrying the cumulative ack `acked_below`.
pub fn encode_batch_request_acked(
    seq: u64,
    acked_below: u64,
    ops: &[(u64, Request)],
) -> Result<Vec<u8>, WireError> {
    if ops.is_empty() {
        return Err(WireError::BadPayload("empty batch".into()));
    }
    encode_frame(KIND_BATCH_REQ, seq, acked_below, |out| {
        put_u32(out, ops.len() as u32);
        for (op_seq, req) in ops {
            put_u64(out, *op_seq);
            out.push(req.kind());
            // The entry's length, patched in once its body is written.
            let at = out.len();
            put_u32(out, 0);
            req.put_body(out)?;
            let len = (out.len() - at - 4) as u32;
            out[at..at + 4].copy_from_slice(&len.to_le_bytes());
        }
        Ok(())
    })
}

/// Decode a `BATCH` request body into its `(seq, request)` ops. Total:
/// truncated entries, nested batches, unknown kinds, and trailing bytes
/// all map to typed errors.
pub fn decode_batch_request(body: &[u8]) -> Result<Vec<(u64, Request)>, WireError> {
    let mut cur = Reader::new(body);
    let count = cur.u32()?;
    if count == 0 {
        return Err(WireError::BadPayload("empty batch".into()));
    }
    let mut ops = Vec::new();
    for _ in 0..count {
        let op_seq = cur.u64()?;
        let kind = cur.u8()?;
        if kind == KIND_BATCH_REQ {
            return Err(WireError::BadPayload("nested batch".into()));
        }
        let len = cur.u32()? as usize;
        let op_body = cur.take(len)?;
        ops.push((op_seq, Request::decode(kind, op_body)?));
    }
    finish(&cur)?;
    Ok(ops)
}

/// Encode a `BATCH` response frame: the outer `seq` echoes the batch's,
/// each entry carries one op's `(seq, status kind, body)`.
pub fn encode_batch_response(seq: u64, entries: &[BatchEntry]) -> Vec<u8> {
    let body = |out: &mut Vec<u8>| {
        put_u32(out, entries.len() as u32);
        for e in entries {
            put_u64(out, e.seq);
            out.push(e.kind);
            put_u32(out, e.body.len() as u32);
            out.extend_from_slice(&e.body);
        }
        Ok(())
    };
    encode_frame(KIND_BATCH_RESP, seq, 0, body).expect("entries are encoded already")
}

/// Decode a `BATCH` response body into per-op `(seq, response)` pairs.
pub fn decode_batch_response(body: &[u8]) -> Result<Vec<(u64, Response)>, WireError> {
    let mut cur = Reader::new(body);
    let count = cur.u32()?;
    let mut out = Vec::new();
    for _ in 0..count {
        let op_seq = cur.u64()?;
        let kind = cur.u8()?;
        let len = cur.u32()? as usize;
        let op_body = cur.take(len)?;
        out.push((op_seq, Response::decode(kind, op_body)?));
    }
    finish(&cur)?;
    Ok(out)
}

// --- Stream framing -------------------------------------------------------

/// Accumulates socket bytes and yields complete frames (sans length
/// prefix: the CRC, then the `len` payload bytes). Robust to partial reads
/// and read timeouts mid-frame: a [`WireError::TimedOut`] leaves
/// accumulated bytes in place, so the next call resumes where the stream
/// paused.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    fn take_frame(&mut self, max_len: usize) -> Result<Option<Vec<u8>>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if len < MIN_PAYLOAD || len > max_len {
            return Err(WireError::BadLength { len, max: max_len });
        }
        let end = 4 + CRC_LEN + len;
        if self.buf.len() < end {
            return Ok(None);
        }
        let frame = self.buf[4..end].to_vec();
        self.buf.drain(..end);
        Ok(Some(frame))
    }

    /// Read until one complete frame is available. `Ok(None)` is clean
    /// EOF at a frame boundary; EOF mid-frame is [`WireError::Truncated`].
    pub fn read_frame(
        &mut self,
        r: &mut impl Read,
        max_len: usize,
    ) -> Result<Option<Vec<u8>>, WireError> {
        loop {
            if let Some(frame) = self.take_frame(max_len)? {
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return Ok(None);
                    }
                    return Err(WireError::Truncated);
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::from_io(&e)),
            }
        }
    }
}
