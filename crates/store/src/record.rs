//! The WAL frame codec: length-prefixed, CRC-checked extents of records.
//!
//! ```text
//! frame   := len:u32le  crc:u32le  payload[len]
//! payload := record+
//! record  := tag:u8  body
//! ```
//!
//! A frame is one *extent*: everything the WAL staged between two round
//! barriers, written with one `write(2)` (checkpoints, headers and files
//! from before the stage hold one record per frame — the same grammar).
//! `nt-net` frames its wire messages with the same [`begin_frame`] /
//! [`seal_frame`] / [`check_crc`]: there is one framer, with one CRC over
//! everything after the prefix.
//! Bodies are self-delimiting by tag, so an extent needs no inner lengths.
//! `crc` is CRC-32 (IEEE) over the whole payload. Decoding walks frames
//! front to back and **stops at the first frame that fails to parse** —
//! short prefix, oversized length, CRC mismatch, or a malformed body —
//! returning every record of the whole frames before it plus a typed
//! [`WalError`] describing the stop: an extent is admitted all or nothing.
//! A crash mid-append therefore loses at most the torn tail; it can never
//! surface as a panic, as silently wrong records, or as part of a round.
//!
//! Bodies are fixed little-endian encodings of the four record kinds the
//! store journals: a file [`Header`](Record::Header), a transaction
//! registration ([`TreeAdd`](Record::TreeAdd)), a stamped history action
//! ([`Act`](Record::Act)), and a cached response
//! ([`Cache`](Record::Cache)).
//!
//! This module also owns the one codec of the model alphabet —
//! [`encode_value`] / [`decode_value`], [`encode_op`] / [`decode_op`],
//! [`encode_action`] / [`decode_action`] and the bounds-checked
//! [`Reader`] — which the records here and `nt-net`'s messages and
//! fetched histories all use, so a symbol of β has one byte form on the
//! wire and on disk.

use nt_model::{Action, ObjId, Op, TxId, Value};

/// Cap on one frame's payload; a length prefix beyond this is treated as
/// corruption (it would otherwise make a flipped length bit swallow the
/// rest of the file).
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Bytes of frame overhead before the payload (length + CRC).
pub const FRAME_OVERHEAD: usize = 8;

/// Which file a [`Record::Header`] opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// The append-only log.
    Wal,
    /// A checkpoint (atomic-rename snapshot of the compacted log).
    Checkpoint,
}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// First record of every file: kind, generation, and (for fuzzy
    /// checkpoints) the highest stamp the file's `Act` records cover.
    Header {
        /// WAL vs checkpoint.
        kind: FileKind,
        /// Rotation generation; a WAL one generation behind its
        /// checkpoint is a stale pre-rotation leftover and is ignored.
        gen: u64,
        /// For checkpoints: every action with stamp `<= covers_stamp` is
        /// inside. Zero for WAL headers.
        covers_stamp: u64,
    },
    /// Transaction `t` registered under `parent`; accesses carry their
    /// object and operation. Logged under the engine lock, just before
    /// the `Act` of `REQUEST_CREATE(t)`, so these appear in dense `TxId`
    /// order.
    TreeAdd {
        /// The registered transaction.
        t: TxId,
        /// Its parent.
        parent: TxId,
        /// `Some` iff `t` is an access.
        access: Option<(ObjId, Op)>,
    },
    /// One stamped history action.
    Act {
        /// The SeqClock stamp.
        stamp: u64,
        /// The action.
        action: Action,
    },
    /// One cached wire response (exactly-once across restart).
    Cache {
        /// The request sequence number.
        seq: u64,
        /// The encoded response frame bytes.
        resp: Vec<u8>,
    },
}

/// Why decoding stopped (or an append was refused).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// An OS-level failure, stringified.
    Io(String),
    /// The file ends inside a frame (torn tail).
    Truncated {
        /// Byte offset of the torn frame.
        offset: usize,
    },
    /// A length prefix exceeds [`MAX_PAYLOAD`] or is zero.
    BadLen {
        /// Byte offset of the frame.
        offset: usize,
        /// The bad length.
        len: u32,
    },
    /// The payload's CRC-32 does not match its prefix.
    BadCrc {
        /// Byte offset of the frame.
        offset: usize,
    },
    /// A CRC-valid payload has an unknown record tag.
    BadTag {
        /// Byte offset of the frame.
        offset: usize,
        /// The unknown tag.
        tag: u8,
    },
    /// A CRC-valid payload's body is malformed.
    BadPayload {
        /// Byte offset of the frame.
        offset: usize,
        /// What was wrong.
        what: String,
    },
    /// The file does not open with the expected header record.
    BadHeader(String),
    /// A value or operation outside the WAL's encodable subset (the
    /// engine's read/write-register alphabet).
    Unsupported(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "i/o error: {e}"),
            WalError::Truncated { offset } => write!(f, "torn frame at byte {offset}"),
            WalError::BadLen { offset, len } => {
                write!(f, "implausible frame length {len} at byte {offset}")
            }
            WalError::BadCrc { offset } => write!(f, "CRC mismatch at byte {offset}"),
            WalError::BadTag { offset, tag } => {
                write!(f, "unknown record tag {tag} at byte {offset}")
            }
            WalError::BadPayload { offset, what } => {
                write!(f, "malformed record at byte {offset}: {what}")
            }
            WalError::BadHeader(what) => write!(f, "bad file header: {what}"),
            WalError::Unsupported(what) => write!(f, "unsupported in WAL: {what}"),
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected) — the same polynomial `nt-net` frames
/// use — sliced by eight: `table[0]` is the bytewise table, and
/// `table[k][i]` is `table[0][i]` pushed through `k` more zero bytes, so
/// eight bytes fold into the register in one step of eight independent
/// lookups. Const-built.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut table = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = table[k - 1][i];
            table[k][i] = table[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    table
}

const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC-32 of `bytes`: eight bytes per step, then the tail a byte at a
/// time. The output equals the bytewise table walk's for every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- The codec of the model alphabet ---------------------------------------
//
// One byte format for the symbols of β, shared by every reader and writer
// of them: the WAL's records here, and `nt-net`'s requests, replies and
// fetched histories. The alphabet is the register alphabet the engine
// produces — `Value` is `Ok | Nil | Int | Bool`, `Op` is `Read | Write` —
// and anything outside it is refused on encode and on decode.
//
// ```text
// value  := 0 (Ok) | 1 (Nil) | 2 i64 (Int) | 3 u8 (Bool, 0 or 1)
// op     := 0 (Read) | 1 i64 (Write)
// action := tag u8  tx u32           (0 Create, 1 RequestCreate, 3 Commit,
//                                     4 Abort, 6 ReportAbort)
//         | tag u8  tx u32  value    (2 RequestCommit, 5 ReportCommit)
//         | tag u8  obj u32  tx u32  (7 InformCommit, 8 InformAbort)
// ```

/// Why the codec refused. The wire reads [`Short`](CodecError::Short) as
/// a truncated payload and [`Invalid`](CodecError::Invalid) as a bad
/// payload; the WAL reads a decoder's refusal as a malformed record and an
/// encoder's as an unsupported symbol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// A read ran past the end: `wanted` more bytes at byte `at`.
    Short {
        /// Where the read started.
        at: usize,
        /// How many bytes it wanted.
        wanted: usize,
    },
    /// Bytes that name no symbol, or a symbol outside the alphabet.
    Invalid(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Short { at, wanted } => {
                write!(f, "body exhausted at byte {at} (wanted {wanted} more)")
            }
            CodecError::Invalid(what) => f.write_str(what),
        }
    }
}

/// Append `v` little-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
#[inline]
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `s` as `len u32 | utf-8 bytes`.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a register value.
#[inline]
pub fn encode_value(out: &mut Vec<u8>, v: &Value) -> Result<(), CodecError> {
    match v {
        Value::Ok => out.push(0),
        Value::Nil => out.push(1),
        Value::Int(i) => {
            out.push(2);
            put_i64(out, *i);
        }
        Value::Bool(b) => {
            out.push(3);
            out.push(u8::from(*b));
        }
        other => {
            return Err(CodecError::Invalid(format!(
                "value {other:?} outside the register alphabet"
            )))
        }
    }
    Ok(())
}

/// The tag of a register operation; its argument follows via
/// [`encode_op_arg`].
#[inline]
pub fn op_tag(op: &Op) -> Result<u8, CodecError> {
    match op {
        Op::Read => Ok(0),
        Op::Write(_) => Ok(1),
        other => Err(CodecError::Invalid(format!(
            "operation {other:?} outside the register alphabet"
        ))),
    }
}

/// Append what follows an operation's tag: `Write`'s argument.
#[inline]
pub fn encode_op_arg(out: &mut Vec<u8>, op: &Op) {
    if let Op::Write(d) = op {
        put_i64(out, *d);
    }
}

/// Append a register operation: its tag, then its argument.
#[inline]
pub fn encode_op(out: &mut Vec<u8>, op: &Op) -> Result<(), CodecError> {
    out.push(op_tag(op)?);
    encode_op_arg(out, op);
    Ok(())
}

/// Append an action over the register alphabet.
pub fn encode_action(out: &mut Vec<u8>, a: &Action) -> Result<(), CodecError> {
    match a {
        Action::Create(t) => {
            out.push(0);
            put_u32(out, t.0);
        }
        Action::RequestCreate(t) => {
            out.push(1);
            put_u32(out, t.0);
        }
        Action::RequestCommit(t, v) => {
            out.push(2);
            put_u32(out, t.0);
            encode_value(out, v)?;
        }
        Action::Commit(t) => {
            out.push(3);
            put_u32(out, t.0);
        }
        Action::Abort(t) => {
            out.push(4);
            put_u32(out, t.0);
        }
        Action::ReportCommit(t, v) => {
            out.push(5);
            put_u32(out, t.0);
            encode_value(out, v)?;
        }
        Action::ReportAbort(t) => {
            out.push(6);
            put_u32(out, t.0);
        }
        Action::InformCommit(x, t) => {
            out.push(7);
            put_u32(out, x.0);
            put_u32(out, t.0);
        }
        Action::InformAbort(x, t) => {
            out.push(8);
            put_u32(out, x.0);
            put_u32(out, t.0);
        }
    }
    Ok(())
}

/// A bounds-checked little-endian reader over one body.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.bytes.len() {
            return Err(CodecError::Short {
                at: self.pos,
                wanted: n,
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        self.array().map(i64::from_le_bytes)
    }

    /// The next `len u32 | utf-8 bytes` string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| CodecError::Invalid("non-utf8 string".into()))
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Read a register value.
#[inline]
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, CodecError> {
    match r.u8()? {
        0 => Ok(Value::Ok),
        1 => Ok(Value::Nil),
        2 => Ok(Value::Int(r.i64()?)),
        3 => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            other => Err(CodecError::Invalid(format!("bad bool byte {other}"))),
        },
        other => Err(CodecError::Invalid(format!("bad value tag {other}"))),
    }
}

/// Read the operation tagged `tag`: its argument, if it has one.
#[inline]
pub fn decode_op_arg(tag: u8, r: &mut Reader<'_>) -> Result<Op, CodecError> {
    match tag {
        0 => Ok(Op::Read),
        1 => Ok(Op::Write(r.i64()?)),
        other => Err(CodecError::Invalid(format!("bad op tag {other}"))),
    }
}

/// Read a register operation.
#[inline]
pub fn decode_op(r: &mut Reader<'_>) -> Result<Op, CodecError> {
    let tag = r.u8()?;
    decode_op_arg(tag, r)
}

/// Read an action over the register alphabet.
pub fn decode_action(r: &mut Reader<'_>) -> Result<Action, CodecError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => Action::Create(TxId(r.u32()?)),
        1 => Action::RequestCreate(TxId(r.u32()?)),
        2 => {
            let t = TxId(r.u32()?);
            Action::RequestCommit(t, decode_value(r)?)
        }
        3 => Action::Commit(TxId(r.u32()?)),
        4 => Action::Abort(TxId(r.u32()?)),
        5 => {
            let t = TxId(r.u32()?);
            Action::ReportCommit(t, decode_value(r)?)
        }
        6 => Action::ReportAbort(TxId(r.u32()?)),
        7 => {
            let x = ObjId(r.u32()?);
            Action::InformCommit(x, TxId(r.u32()?))
        }
        8 => {
            let x = ObjId(r.u32()?);
            Action::InformAbort(x, TxId(r.u32()?))
        }
        other => return Err(CodecError::Invalid(format!("bad action tag {other}"))),
    })
}

// --- Records ---------------------------------------------------------------

const TAG_HEADER: u8 = 1;
const TAG_TREE_ADD: u8 = 2;
const TAG_ACT: u8 = 3;
const TAG_CACHE: u8 = 4;

/// An encoder's refusal, as the WAL reports it.
fn unsupported(e: CodecError) -> WalError {
    WalError::Unsupported(e.to_string())
}

fn put_header(out: &mut Vec<u8>, kind: FileKind, gen: u64, covers_stamp: u64) {
    out.push(TAG_HEADER);
    out.push(match kind {
        FileKind::Wal => 0,
        FileKind::Checkpoint => 1,
    });
    put_u64(out, gen);
    put_u64(out, covers_stamp);
}

/// Append a `TreeAdd` record (tag + body) to `out`.
pub(crate) fn put_tree_add(
    out: &mut Vec<u8>,
    t: TxId,
    parent: TxId,
    access: Option<(ObjId, &Op)>,
) -> Result<(), WalError> {
    out.push(TAG_TREE_ADD);
    put_u32(out, t.0);
    put_u32(out, parent.0);
    match access {
        None => out.push(0),
        Some((x, op)) => {
            out.push(1);
            put_u32(out, x.0);
            encode_op(out, op).map_err(unsupported)?;
        }
    }
    Ok(())
}

/// Append an `Act` record (tag + body) to `out`.
pub(crate) fn put_act(out: &mut Vec<u8>, stamp: u64, action: &Action) -> Result<(), WalError> {
    out.push(TAG_ACT);
    put_u64(out, stamp);
    encode_action(out, action).map_err(unsupported)
}

/// Append a `Cache` record (tag + body) to `out`.
pub(crate) fn put_cache(out: &mut Vec<u8>, seq: u64, resp: &[u8]) -> Result<(), WalError> {
    if resp.len() > (MAX_PAYLOAD - 64) as usize {
        return Err(WalError::Unsupported(format!(
            "cached response of {} bytes exceeds the frame cap",
            resp.len()
        )));
    }
    out.push(TAG_CACHE);
    put_u64(out, seq);
    put_u32(out, resp.len() as u32);
    out.extend_from_slice(resp);
    Ok(())
}

/// Run `put` on `out`; a refused record leaves `out` as it was.
pub(crate) fn put_or_restore(
    out: &mut Vec<u8>,
    put: impl FnOnce(&mut Vec<u8>) -> Result<(), WalError>,
) -> Result<(), WalError> {
    let mark = out.len();
    let res = put(out);
    if res.is_err() {
        out.truncate(mark);
    }
    res
}

/// Open a frame at the end of `out`: reserve its length + CRC prefix.
/// Returns the frame's offset for [`seal_frame`]. The one framer: WAL
/// extents and `nt-net` wire frames are both built with it.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_OVERHEAD]);
    at
}

/// Close the frame opened at `at`: everything after its prefix is the
/// payload, whose length and CRC are patched in.
pub fn seal_frame(out: &mut [u8], at: usize) {
    let (prefix, payload) = out[at..].split_at_mut(FRAME_OVERHEAD);
    prefix[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    prefix[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Check a frame after its length prefix — `crc | payload`, at least the
/// four CRC bytes — and return the payload, or `(declared, computed)`
/// when the checksums disagree. The one CRC check [`decode_stream`] and
/// the `nt-net` frame parser share.
pub fn check_crc(rest: &[u8]) -> Result<&[u8], (u32, u32)> {
    let (crc, payload) = rest.split_at(FRAME_OVERHEAD - 4);
    let declared = u32::from_le_bytes(crc.try_into().expect("4 bytes"));
    let computed = crc32(payload);
    if declared == computed {
        Ok(payload)
    } else {
        Err((declared, computed))
    }
}

impl Record {
    /// Append this record (tag + body) to `out`; a record outside the
    /// encodable subset leaves `out` as it was.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WalError> {
        put_or_restore(out, |out| match self {
            Record::Header {
                kind,
                gen,
                covers_stamp,
            } => {
                put_header(out, *kind, *gen, *covers_stamp);
                Ok(())
            }
            Record::TreeAdd { t, parent, access } => {
                put_tree_add(out, *t, *parent, access.as_ref().map(|(x, op)| (*x, op)))
            }
            Record::Act { stamp, action } => put_act(out, *stamp, action),
            Record::Cache { seq, resp } => put_cache(out, *seq, resp),
        })
    }

    /// Append this record to `out` as a complete one-record frame
    /// (length + CRC + payload), encoded in place; a refused record leaves
    /// `out` as it was.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) -> Result<(), WalError> {
        put_or_restore(out, |out| {
            let at = begin_frame(out);
            self.encode_into(out)?;
            seal_frame(out, at);
            Ok(())
        })
    }

    /// Encode this record as a complete one-record frame.
    pub fn encode_frame(&self) -> Result<Vec<u8>, WalError> {
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + 32);
        self.encode_frame_into(&mut frame)?;
        Ok(frame)
    }
}

/// Why a record inside a CRC-valid frame did not decode.
enum Malformed {
    /// A tag no record has.
    Tag(u8),
    /// A body the codec refused.
    Body(CodecError),
}

impl From<CodecError> for Malformed {
    fn from(e: CodecError) -> Malformed {
        Malformed::Body(e)
    }
}

fn invalid(what: String) -> Malformed {
    Malformed::Body(CodecError::Invalid(what))
}

/// Decode the next record of an extent's payload (bodies delimit
/// themselves, so the reader simply stops where the next tag starts).
fn decode_record(b: &mut Reader<'_>) -> Result<Record, Malformed> {
    Ok(match b.u8()? {
        TAG_HEADER => {
            let kind = match b.u8()? {
                0 => FileKind::Wal,
                1 => FileKind::Checkpoint,
                other => return Err(invalid(format!("bad file kind {other}"))),
            };
            Record::Header {
                kind,
                gen: b.u64()?,
                covers_stamp: b.u64()?,
            }
        }
        TAG_TREE_ADD => {
            let t = TxId(b.u32()?);
            let parent = TxId(b.u32()?);
            let access = match b.u8()? {
                0 => None,
                1 => {
                    let x = ObjId(b.u32()?);
                    Some((x, decode_op(b)?))
                }
                other => return Err(invalid(format!("bad access flag {other}"))),
            };
            Record::TreeAdd { t, parent, access }
        }
        TAG_ACT => Record::Act {
            stamp: b.u64()?,
            action: decode_action(b)?,
        },
        TAG_CACHE => {
            let seq = b.u64()?;
            let len = b.u32()? as usize;
            Record::Cache {
                seq,
                resp: b.take(len)?.to_vec(),
            }
        }
        tag => return Err(Malformed::Tag(tag)),
    })
}

/// Outcome of decoding one file front to back.
#[derive(Clone, Debug)]
pub struct Decoded {
    /// Every record of the whole frames before the stop point.
    pub records: Vec<Record>,
    /// Frames (extents) those records came in.
    pub frames: usize,
    /// Byte length of the valid prefix (where an append may resume after
    /// truncating the tail).
    pub valid_len: usize,
    /// Why decoding stopped early, if it did (`None` = clean end).
    pub torn: Option<WalError>,
}

/// Decode `bytes` as a sequence of frames, stopping at the first frame
/// that fails to parse; a frame's records are admitted all or nothing.
pub fn decode_stream(bytes: &[u8]) -> Decoded {
    let mut records = Vec::new();
    let mut frames = 0usize;
    let mut pos = 0usize;
    let torn = 'frames: loop {
        if pos == bytes.len() {
            break None;
        }
        if pos + FRAME_OVERHEAD > bytes.len() {
            break Some(WalError::Truncated { offset: pos });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_PAYLOAD {
            break Some(WalError::BadLen { offset: pos, len });
        }
        let end = pos + FRAME_OVERHEAD + len as usize;
        if end > bytes.len() {
            break Some(WalError::Truncated { offset: pos });
        }
        let Ok(payload) = check_crc(&bytes[pos + 4..end]) else {
            break Some(WalError::BadCrc { offset: pos });
        };
        let whole = records.len();
        let mut body = Reader::new(payload);
        while body.remaining() > 0 {
            match decode_record(&mut body) {
                Ok(rec) => records.push(rec),
                Err(e) => {
                    records.truncate(whole);
                    break 'frames Some(match e {
                        Malformed::Tag(tag) => WalError::BadTag { offset: pos, tag },
                        Malformed::Body(e) => WalError::BadPayload {
                            offset: pos,
                            what: e.to_string(),
                        },
                    });
                }
            }
        }
        frames += 1;
        pos = end;
    };
    Decoded {
        records,
        frames,
        valid_len: pos,
        torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::Header {
                kind: FileKind::Wal,
                gen: 3,
                covers_stamp: 0,
            },
            Record::TreeAdd {
                t: TxId(1),
                parent: TxId::ROOT,
                access: None,
            },
            Record::TreeAdd {
                t: TxId(2),
                parent: TxId(1),
                access: Some((ObjId(7), Op::Write(-9))),
            },
            Record::Act {
                stamp: 41,
                action: Action::RequestCommit(TxId(2), Value::Int(-9)),
            },
            Record::Act {
                stamp: 42,
                action: Action::InformCommit(ObjId(7), TxId(2)),
            },
            Record::Act {
                stamp: 43,
                action: Action::ReportCommit(TxId(1), Value::Ok),
            },
            Record::Cache {
                seq: (5 << 32) | 77,
                resp: vec![0xAB; 19],
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let mut bytes = Vec::new();
        for rec in samples() {
            bytes.extend_from_slice(&rec.encode_frame().expect("encodable"));
        }
        let decoded = decode_stream(&bytes);
        assert!(decoded.torn.is_none(), "{:?}", decoded.torn);
        assert_eq!(decoded.valid_len, bytes.len());
        assert_eq!(decoded.records, samples());
    }

    #[test]
    fn truncation_stops_at_last_whole_frame() {
        let mut bytes = Vec::new();
        let mut boundaries = Vec::new();
        for rec in samples() {
            bytes.extend_from_slice(&rec.encode_frame().expect("encodable"));
            boundaries.push(bytes.len());
        }
        for cut in 0..bytes.len() {
            let decoded = decode_stream(&bytes[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut).count();
            assert_eq!(decoded.records.len(), whole, "cut at {cut}");
            let expect_clean = boundaries.contains(&cut) || cut == 0;
            assert_eq!(decoded.torn.is_none(), expect_clean, "cut at {cut}");
            assert_eq!(
                decoded.valid_len,
                boundaries[..whole].last().copied().unwrap_or(0),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bit_flips_never_panic_and_stop_with_typed_errors() {
        let mut clean = Vec::new();
        for rec in samples() {
            clean.extend_from_slice(&rec.encode_frame().expect("encodable"));
        }
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut corrupt = clean.clone();
                corrupt[byte] ^= 1 << bit;
                let decoded = decode_stream(&corrupt);
                // Whatever survived must be a prefix of the clean decode
                // (a flipped bit can only cut the tail, never rewrite
                // earlier records), unless the flip landed in a cache
                // body where the CRC is the only guard — still caught.
                if decoded.torn.is_none() {
                    // The flip produced a CRC-colliding record; CRC-32
                    // cannot collide on a single bit flip.
                    panic!("single bit flip at byte {byte} bit {bit} went undetected");
                }
                assert!(decoded.valid_len <= clean.len());
            }
        }
    }

    /// One frame holding all of `records` — what the WAL's stage writes.
    fn extent(records: &[Record]) -> Vec<u8> {
        let mut out = Vec::new();
        let at = begin_frame(&mut out);
        for rec in records {
            rec.encode_into(&mut out).expect("encodable");
        }
        seal_frame(&mut out, at);
        out
    }

    /// The sample records as a stream of three multi-record extents, with
    /// each extent's end offset and the records decoded up to it.
    fn extent_stream() -> (Vec<u8>, Vec<(usize, usize)>) {
        let recs = samples();
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for (from, to) in [(0, 2), (2, 5), (5, 7)] {
            bytes.extend_from_slice(&extent(&recs[from..to]));
            ends.push((bytes.len(), to));
        }
        (bytes, ends)
    }

    /// `(valid_len, records)` of the whole extents that end at or before
    /// `offset`.
    fn whole_before(ends: &[(usize, usize)], offset: usize) -> (usize, usize) {
        ends.iter()
            .rev()
            .find(|(end, _)| *end <= offset)
            .copied()
            .unwrap_or((0, 0))
    }

    #[test]
    fn an_extent_saves_the_per_record_prefix_and_decodes_to_the_same_records() {
        let (bytes, ends) = extent_stream();
        let decoded = decode_stream(&bytes);
        assert!(decoded.torn.is_none(), "{:?}", decoded.torn);
        assert_eq!(decoded.records, samples());
        assert_eq!(decoded.frames, ends.len());
        let framed: usize = samples()
            .iter()
            .map(|r| r.encode_frame().expect("encodable").len())
            .sum();
        assert_eq!(
            bytes.len(),
            framed - FRAME_OVERHEAD * (samples().len() - ends.len())
        );
    }

    #[test]
    fn a_cut_extent_stream_decodes_whole_extents_only() {
        let (bytes, ends) = extent_stream();
        for cut in 0..=bytes.len() {
            let decoded = decode_stream(&bytes[..cut]);
            let (valid, n) = whole_before(&ends, cut);
            assert_eq!(decoded.valid_len, valid, "cut at {cut}");
            assert_eq!(decoded.records, samples()[..n], "cut at {cut}");
            assert_eq!(decoded.torn.is_none(), valid == cut, "cut at {cut}");
        }
    }

    #[test]
    fn one_flipped_bit_rejects_the_whole_extent() {
        let (clean, ends) = extent_stream();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut corrupt = clean.clone();
                corrupt[byte] ^= 1 << bit;
                let decoded = decode_stream(&corrupt);
                let (valid, n) = whole_before(&ends, byte);
                assert!(decoded.torn.is_some(), "byte {byte} bit {bit}");
                assert_eq!(decoded.valid_len, valid, "byte {byte} bit {bit}");
                assert_eq!(decoded.records, samples()[..n], "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn a_malformed_record_inside_a_crc_valid_extent_admits_none_of_it() {
        // Two good records, then a tag no record has: the CRC holds, the
        // third body does not parse, and the first two are not admitted.
        let mut out = Vec::new();
        let at = begin_frame(&mut out);
        for rec in &samples()[..2] {
            rec.encode_into(&mut out).expect("encodable");
        }
        out.push(0x7f);
        seal_frame(&mut out, at);
        let decoded = decode_stream(&out);
        assert_eq!(
            decoded.torn,
            Some(WalError::BadTag {
                offset: 0,
                tag: 0x7f
            })
        );
        assert!(decoded.records.is_empty());
        assert_eq!((decoded.valid_len, decoded.frames), (0, 0));
    }

    #[test]
    fn single_record_frames_and_mixed_streams_decode_as_before() {
        let recs = samples();
        let mut old = Vec::new();
        for rec in &recs {
            old.extend_from_slice(&rec.encode_frame().expect("encodable"));
        }
        let decoded = decode_stream(&old);
        assert_eq!(decoded.records, recs);
        assert_eq!(decoded.frames, recs.len());

        // A log from before the stage, resumed by a WAL with one.
        let mut mixed = Vec::new();
        for rec in &recs[..3] {
            mixed.extend_from_slice(&rec.encode_frame().expect("encodable"));
        }
        mixed.extend_from_slice(&extent(&recs[3..6]));
        mixed.extend_from_slice(&recs[6].encode_frame().expect("encodable"));
        let decoded = decode_stream(&mixed);
        assert!(decoded.torn.is_none(), "{:?}", decoded.torn);
        assert_eq!(decoded.records, recs);
        assert_eq!(decoded.frames, 5);
    }

    #[test]
    fn in_place_encoding_matches_the_reference_and_restores_on_refusal() {
        for rec in samples() {
            // The reference framing: payload first, then its prefix.
            let mut payload = Vec::new();
            rec.encode_into(&mut payload).expect("encodable");
            let mut reference = Vec::new();
            put_u32(&mut reference, payload.len() as u32);
            put_u32(&mut reference, crc32(&payload));
            reference.extend_from_slice(&payload);
            assert_eq!(rec.encode_frame().expect("encodable"), reference);

            let mut out = b"earlier frames".to_vec();
            rec.encode_frame_into(&mut out).expect("encodable");
            assert_eq!(&out[..14], b"earlier frames");
            assert_eq!(&out[14..], reference);
        }
        let refused = [
            Record::Act {
                stamp: 1,
                action: Action::RequestCommit(TxId(1), Value::IntSet(Default::default())),
            },
            Record::TreeAdd {
                t: TxId(1),
                parent: TxId::ROOT,
                access: Some((ObjId(0), Op::GetCount)),
            },
            Record::Cache {
                seq: 9,
                resp: vec![0; MAX_PAYLOAD as usize],
            },
        ];
        for rec in refused {
            let mut out = b"earlier frames".to_vec();
            assert!(matches!(
                rec.encode_frame_into(&mut out),
                Err(WalError::Unsupported(_))
            ));
            assert_eq!(out, b"earlier frames");
            assert!(matches!(
                rec.encode_into(&mut out),
                Err(WalError::Unsupported(_))
            ));
            assert_eq!(out, b"earlier frames");
        }
    }

    /// The bit-at-a-time definition of the reflected IEEE CRC-32.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc32_matches_the_known_answer_and_the_bitwise_definition() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let ramp: Vec<u8> = (0..=64u8).map(|b| b.wrapping_mul(37) ^ 0xA5).collect();
        for len in 0..=64 {
            assert_eq!(
                crc32(&ramp[..len]),
                crc32_bitwise(&ramp[..len]),
                "length {len}"
            );
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let buf: Vec<u8> = (0..(x % 4096) as usize)
                .map(|i| (x >> (i % 57)) as u8 ^ i as u8)
                .collect();
            // Every alignment of the eight-byte steps.
            let skew = (x >> 60) as usize % 8;
            let buf = &buf[skew.min(buf.len())..];
            assert_eq!(crc32(buf), crc32_bitwise(buf), "length {}", buf.len());
        }
    }

    #[test]
    fn unsupported_alphabet_is_a_typed_encode_error() {
        let rec = Record::Act {
            stamp: 1,
            action: Action::RequestCommit(TxId(1), Value::IntSet(Default::default())),
        };
        assert!(matches!(rec.encode_frame(), Err(WalError::Unsupported(_))));
        let add = Record::TreeAdd {
            t: TxId(1),
            parent: TxId::ROOT,
            access: Some((ObjId(0), Op::GetCount)),
        };
        assert!(matches!(add.encode_frame(), Err(WalError::Unsupported(_))));
    }
}
