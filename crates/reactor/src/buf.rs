//! Incremental length-prefixed frame accumulation for nonblocking reads.

use std::io::Read;

/// A declared frame length outside the configured `[min, max]` window.
/// The stream past this point is garbage (there is no way to resynchronize
/// a length-prefixed stream after a corrupt prefix), so the reactor stops
/// reading the connection and hands the error to the service, which
/// typically answers with a protocol error and closes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BadFrame {
    /// The length the prefix declared.
    pub len: usize,
    /// The configured cap.
    pub max: usize,
}

/// Smallest spare region a read is offered, and the growth step.
const READ_CHUNK: usize = 16 * 1024;

/// Accumulates raw socket bytes and yields complete `u32le`-length-prefixed
/// frames (sans prefix) — the workspace's one frame accumulator: the
/// reactor reads each connection through one, and so do nt-net's blocking
/// clients. Bytes go in whenever the socket is readable, frames come out
/// whenever enough have arrived, and a partial tail just waits.
///
/// `buf[start..end]` holds the unread bytes; `buf[end..]` is initialised
/// spare capacity that [`FrameBuf::read_from`] reads straight into, so a
/// readiness event costs no zeroing and no intermediate copy. A popped
/// frame is lent out of `buf` in place: nothing is copied or shifted until
/// the next read needs the room.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// An empty accumulator.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Make `buf[end..]` at least `want` bytes long, sliding the unread
    /// bytes to the front before growing.
    fn reserve(&mut self, want: usize) {
        if self.start == self.end {
            if self.buf.len() > 4 * READ_CHUNK {
                // A large frame passed through: give its room back.
                self.buf = Vec::new();
            }
            self.start = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end >= want {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() < self.end + want {
            self.buf.resize(self.end + want, 0);
        }
    }

    /// Append bytes already in hand.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` from `r` into the spare capacity. Returns the byte count
    /// and whether it filled the region offered — a short read from a
    /// nonblocking socket means the kernel buffer is drained, so the
    /// caller can skip the `read` that would only report `WouldBlock`.
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<(usize, bool)> {
        self.reserve(READ_CHUNK);
        let spare = &mut self.buf[self.end..];
        let n = r.read(spare)?;
        let full = n == spare.len();
        self.end += n;
        Ok((n, full))
    }

    /// Buffered bytes not yet popped (partial frames included).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether nothing is buffered (a clean frame boundary).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Discard everything buffered (drain: undispatched bytes are dropped,
    /// mirroring the threaded path's read-half shutdown mid-stream).
    pub fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// The length of the next frame past its prefix — the declared length
    /// plus the `checksum_len` bytes the length does not count — once all
    /// of it is buffered; `Ok(None)` when more bytes are needed, or
    /// [`BadFrame`] when the prefix declares a length below `min_len` (too
    /// short to hold a header) or above `max_len`.
    pub fn ready(
        &self,
        min_len: usize,
        max_len: usize,
        checksum_len: usize,
    ) -> Result<Option<usize>, BadFrame> {
        let unread = &self.buf[self.start..self.end];
        if unread.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(unread[..4].try_into().expect("4 bytes")) as usize;
        if len < min_len || len > max_len {
            return Err(BadFrame { len, max: max_len });
        }
        let whole = checksum_len + len;
        Ok((unread.len() >= 4 + whole).then_some(whole))
    }

    /// Pop the next complete frame (everything after its length prefix, as
    /// [`FrameBuf::ready`] measures it), lent in place until the next call
    /// that takes `&mut self`; `Ok(None)` and [`BadFrame`] as `ready`.
    pub fn pop(
        &mut self,
        min_len: usize,
        max_len: usize,
        checksum_len: usize,
    ) -> Result<Option<&[u8]>, BadFrame> {
        let Some(whole) = self.ready(min_len, max_len, checksum_len)? else {
            return Ok(None);
        };
        let at = self.start + 4;
        self.start = at + whole;
        Ok(Some(&self.buf[at..at + whole]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn partial_bytes_wait_then_yield_a_frame() {
        let mut fb = FrameBuf::new();
        let wire = framed(b"hello");
        fb.extend(&wire[..3]);
        assert_eq!(fb.pop(1, 1024, 0), Ok(None));
        fb.extend(&wire[3..7]);
        assert_eq!(fb.pop(1, 1024, 0), Ok(None));
        fb.extend(&wire[7..]);
        assert_eq!(fb.pop(1, 1024, 0), Ok(Some(&b"hello"[..])));
        assert!(fb.is_empty());
    }

    #[test]
    fn pipelined_frames_pop_in_order() {
        let mut fb = FrameBuf::new();
        fb.extend(&framed(b"a"));
        fb.extend(&framed(b"bb"));
        assert_eq!(fb.pop(1, 1024, 0), Ok(Some(&b"a"[..])));
        assert_eq!(fb.pop(1, 1024, 0), Ok(Some(&b"bb"[..])));
        assert_eq!(fb.pop(1, 1024, 0), Ok(None));
    }

    #[test]
    fn a_checksum_the_length_does_not_count_travels_with_the_frame() {
        // `len | crc | payload`: the prefix counts the payload only.
        let mut wire = 2u32.to_le_bytes().to_vec();
        wire.extend_from_slice(b"CRC!xy");
        let mut fb = FrameBuf::new();
        fb.extend(&wire[..9]);
        assert_eq!(fb.pop(2, 1024, 4), Ok(None), "one payload byte short");
        fb.extend(&wire[9..]);
        assert_eq!(fb.pop(2, 1024, 4), Ok(Some(&b"CRC!xy"[..])));
        assert!(fb.is_empty());
    }

    #[test]
    fn oversize_and_undersize_prefixes_are_typed_errors() {
        let mut fb = FrameBuf::new();
        fb.extend(&framed(&[0u8; 64]));
        assert_eq!(fb.pop(1, 16, 0), Err(BadFrame { len: 64, max: 16 }));
        let mut fb = FrameBuf::new();
        fb.extend(&framed(b"xy"));
        assert_eq!(fb.pop(16, 1024, 0), Err(BadFrame { len: 2, max: 1024 }));
    }

    #[test]
    fn read_from_fills_spare_capacity_and_reports_short_reads() {
        // A frame larger than one chunk, so the reads span a growth and a
        // slide of the unread tail.
        let big = vec![7u8; 3 * READ_CHUNK];
        let mut wire = framed(b"first");
        wire.extend_from_slice(&framed(&big));
        let mut src: &[u8] = &wire;
        let mut fb = FrameBuf::new();
        let (n, full) = fb.read_from(&mut src).expect("read");
        assert_eq!(
            (n, full),
            (READ_CHUNK, true),
            "region filled: more may wait"
        );
        assert_eq!(fb.pop(1, 1 << 20, 0), Ok(Some(&b"first"[..])));
        assert_eq!(fb.pop(1, 1 << 20, 0), Ok(None));
        let mut short = false;
        while !short {
            let (n, full) = fb.read_from(&mut src).expect("read");
            short = !full;
            assert!(n > 0 || short);
        }
        assert_eq!(fb.pop(1, 1 << 20, 0), Ok(Some(&big[..])));
        assert!(fb.is_empty());
        let (n, full) = fb.read_from(&mut src).expect("read");
        assert_eq!((n, full), (0, false), "EOF is a zero-byte short read");
    }
}
