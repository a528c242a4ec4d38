//! The append side of the store: one file, one append mutex, a *stage*
//! and a durability policy. The WAL starts no thread: whoever
//! acknowledges calls [`Wal::wait_durable`] first, and how many
//! acknowledgments one barrier covers (the group commit) is that caller's
//! batching — the server pays one barrier per poll round.
//!
//! An append only *stages*: the record is encoded in place at the end of
//! one reusable buffer, under the append mutex. The barrier hands the
//! whole stage to the file as **one extent — one frame, one CRC, one
//! `write(2)`** — and then fsyncs if the mode asks for it. The write-ahead
//! rule is therefore a rule about barriers, not about records: *no reply
//! byte leaves while the stage holds a record*. A crash loses the stage
//! and at most a torn last extent, i.e. a suffix of stamps none of whose
//! replies was ever sent. Callers that never reach a barrier (`run_plan`
//! over a data dir) are bounded by [`SPILL_BYTES`]: an append that fills
//! the stage hands it over itself.
//!
//! The WAL implements [`ActionSink`], the engine history's durable tee.
//! It draws no stamp: the history draws each one and stages its `Act`
//! under the engine lock, so calls arrive in stamp order and stage
//! order, and with it the file's record order, equals stamp order. A torn
//! tail then loses a *suffix* of stamps — recovery never has to reason
//! about holes in the middle of the history. A failed write may not punch
//! one either: the first I/O failure cuts the file back to its last whole
//! extent and latches the WAL failed — nothing is written after it, and
//! every later barrier reports the failure so nothing is acknowledged.
//!
//! Lock order: the WAL append mutex is a leaf, entered under the engine
//! lock; the WAL never calls back out (DESIGN §8d's table).

use crate::record::{
    begin_frame, put_act, put_cache, put_or_restore, put_tree_add, seal_frame, FileKind, Record,
    WalError, FRAME_OVERHEAD, MAX_PAYLOAD,
};
use nt_engine::{ActionSink, DurabilityMode};
use nt_model::{Action, ObjId, Op, TxId};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Stage size at which an append hands the stage to the file without
/// waiting for a barrier. Bounds the memory of callers that never reach
/// one and keeps every extent far below [`MAX_PAYLOAD`].
pub const SPILL_BYTES: usize = 64 << 10;

/// A coherent snapshot of the WAL's counters (the `wal_*` keys of the
/// server's stats document).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalCounters {
    /// Records handed to the file (those found at open included).
    pub appended: u64,
    /// Extents written since open: one `write(2)` each.
    pub extents: u64,
    /// Bytes those extents put in the file.
    pub bytes: u64,
    /// Fsync calls issued since open (the E19 cost driver).
    pub syncs: u64,
    /// Failed writes and fsyncs, and records refused by the encoder.
    pub io_errors: u64,
    /// A write or fsync failed: the file was cut back to its last whole
    /// extent and the WAL accepts nothing more.
    pub failed: bool,
}

struct WalInner {
    file: File,
    /// The open extent: a frame prefix, then the records staged since the
    /// last barrier, in stamp order.
    stage: Vec<u8>,
    /// Records in the stage.
    staged: u64,
    /// Records known durable (fsync completed past them).
    durable: u64,
    /// Highest stamp staged in an `Act` record (fuzzy checkpoints cover
    /// up to here).
    last_stamp: u64,
    /// Bytes handed to the file since open plus the valid prefix found at
    /// open.
    len: u64,
    counters: WalCounters,
}

/// The write-ahead log: append-only extents over one file.
pub struct Wal {
    path: PathBuf,
    mode: DurabilityMode,
    inner: Mutex<WalInner>,
}

fn header_frame(gen: u64) -> Result<Vec<u8>, WalError> {
    Record::Header {
        kind: FileKind::Wal,
        gen,
        covers_stamp: 0,
    }
    .encode_frame()
}

impl Wal {
    /// Open `path` for appending at `valid_len` (the recovery-verified
    /// prefix — any torn tail beyond it is truncated away), or create it
    /// with a fresh `Header{kind: Wal, gen}` when it does not exist.
    pub fn open(
        path: &Path,
        gen: u64,
        valid_len: u64,
        last_stamp: u64,
        appended: u64,
        mode: DurabilityMode,
    ) -> Result<Arc<Wal>, WalError> {
        let io = |e: std::io::Error| WalError::Io(format!("{}: {e}", path.display()));
        let fresh = !path.exists();
        // Append mode: every write lands at the end of the file, wherever
        // a reopen, a truncation or a failed write left the cursor.
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        let mut len = valid_len;
        if fresh {
            let header = header_frame(gen)?;
            file.write_all(&header).map_err(io)?;
            len = header.len() as u64;
        } else {
            // Drop the torn tail so resumed appends start on a frame
            // boundary.
            file.set_len(valid_len).map_err(io)?;
        }
        file.sync_data().map_err(io)?;
        let mut stage = Vec::with_capacity(SPILL_BYTES);
        begin_frame(&mut stage);
        Ok(Arc::new(Wal {
            path: path.to_path_buf(),
            mode,
            inner: Mutex::new(WalInner {
                file,
                stage,
                staged: 0,
                durable: appended,
                last_stamp,
                len,
                counters: WalCounters {
                    appended,
                    ..WalCounters::default()
                },
            }),
        }))
    }

    /// The file path this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn lock(&self) -> MutexGuard<'_, WalInner> {
        self.inner.lock().expect("wal poisoned")
    }

    /// Latch the failure: cut the file back to `inner.len` (best effort —
    /// its last whole extent), drop the stage, accept nothing more.
    fn fail(&self, inner: &mut WalInner, what: &str, e: std::io::Error) -> WalError {
        let _ = inner.file.set_len(inner.len);
        inner.stage.truncate(FRAME_OVERHEAD);
        inner.staged = 0;
        inner.counters.failed = true;
        inner.counters.io_errors += 1;
        let err = WalError::Io(format!("{}: {what}: {e}", self.path.display()));
        eprintln!("nt-store: WAL closed: {err}");
        err
    }

    /// Hand the stage to the file as one extent. The only place record
    /// bytes reach the file (`tools/check_wal_writes.sh`).
    fn write_stage(&self, inner: &mut WalInner) -> Result<(), WalError> {
        if inner.counters.failed {
            return Err(WalError::Io(format!(
                "{}: closed by an earlier I/O failure",
                self.path.display()
            )));
        }
        if inner.staged == 0 {
            return Ok(());
        }
        seal_frame(&mut inner.stage, 0);
        if let Err(e) = inner.file.write_all(&inner.stage) {
            return Err(self.fail(inner, "append", e));
        }
        let bytes = inner.stage.len() as u64;
        inner.len += bytes;
        inner.counters.bytes += bytes;
        inner.counters.extents += 1;
        inner.counters.appended += inner.staged;
        inner.stage.truncate(FRAME_OVERHEAD);
        inner.staged = 0;
        Ok(())
    }

    /// Encode one record at the end of the stage. The engine must not
    /// panic mid-request on a record the codec refuses or on a full disk:
    /// the record is counted and dropped, and a latched failure surfaces
    /// at the next barrier.
    fn stage(&self, inner: &mut WalInner, put: impl Fn(&mut Vec<u8>) -> Result<(), WalError>) {
        if inner.counters.failed {
            return;
        }
        let mark = inner.stage.len();
        let mut put_res = put_or_restore(&mut inner.stage, &put);
        if put_res.is_ok() && inner.stage.len() - FRAME_OVERHEAD > MAX_PAYLOAD as usize {
            // A near-cap cached response behind other records: it fits a
            // frame alone, so the earlier records go out first.
            inner.stage.truncate(mark);
            if self.write_stage(inner).is_err() {
                return;
            }
            put_res = put(&mut inner.stage);
        }
        if let Err(e) = put_res {
            inner.counters.io_errors += 1;
            eprintln!("nt-store: WAL append refused: {e}");
            return;
        }
        inner.staged += 1;
        if inner.stage.len() >= SPILL_BYTES {
            let _ = self.write_stage(inner);
        }
    }

    /// Stage one record (outside the stamped-action path).
    pub fn append(&self, rec: &Record) {
        self.stage(&mut self.lock(), |out| rec.encode_into(out));
    }

    /// Stage a cached response frame for `seq`.
    pub fn append_cache(&self, seq: u64, resp: &[u8]) {
        self.stage(&mut self.lock(), |out| put_cache(out, seq, resp));
    }

    /// Hand the stage to the file, then fsync if asked and anything in the
    /// file is not durable yet. A failed fsync takes the extent this
    /// barrier wrote back out of the file.
    fn barrier(&self, sync: bool) -> Result<(), WalError> {
        let mut inner = self.lock();
        let before = (inner.len, inner.counters.appended);
        self.write_stage(&mut inner)?;
        if sync && inner.durable < inner.counters.appended {
            if let Err(e) = inner.file.sync_data() {
                (inner.len, inner.counters.appended) = before;
                return Err(self.fail(&mut inner, "fsync", e));
            }
            inner.counters.syncs += 1;
            inner.durable = inner.counters.appended;
        }
        Ok(())
    }

    /// Hand the stage to the file and fsync, whatever the mode (recovery's
    /// loser rollback, [`Store::close`](crate::Store::close)). Returns
    /// without a sync when nothing was appended since the last one. A
    /// failure is latched, counted and printed, not returned: nothing
    /// here is about to acknowledge.
    pub fn flush_durable(&self) {
        let _ = self.barrier(true);
    }

    /// The round barrier: hand the stage to the file as one extent, then
    /// make it durable per the mode — nothing more (`None`) or an inline
    /// fsync (`FsyncPerCommit`). **No reply may be sent for anything
    /// staged before this returns `Ok`**; on `Err` the WAL is closed and
    /// the round's replies must be dropped.
    pub fn wait_durable(&self) -> Result<(), WalError> {
        self.barrier(self.mode == DurabilityMode::FsyncPerCommit)
    }

    /// Hand the stage to the file, then snapshot `(byte_len,
    /// records_appended, last_stamp)` coherently — the fuzzy-checkpoint
    /// cut point: everything up to `last_stamp` is in the file's first
    /// `byte_len` bytes.
    pub fn snapshot_extent(&self) -> Result<(u64, u64, u64), WalError> {
        let mut inner = self.lock();
        self.write_stage(&mut inner)?;
        Ok((inner.len, inner.counters.appended, inner.last_stamp))
    }

    /// Must [`Wal::wait_durable`] run before a reply may leave? True while
    /// a record is staged, while the mode promises durability for bytes
    /// not yet fsynced, and — so the barrier reports it — once failed.
    pub fn needs_barrier(&self) -> bool {
        let inner = self.lock();
        inner.staged > 0
            || inner.counters.failed
            || (self.mode == DurabilityMode::FsyncPerCommit
                && inner.durable < inner.counters.appended)
    }

    /// The counters, coherently.
    pub fn counters(&self) -> WalCounters {
        self.lock().counters
    }

    /// Replace the log with a fresh one at `gen` (after a rotation
    /// checkpoint has captured everything). Callers must have quiesced
    /// appends (the server rotates only after the engine drained).
    pub fn reset_to_generation(&self, gen: u64) -> Result<(), WalError> {
        let io = |e: std::io::Error| WalError::Io(format!("{}: {e}", self.path.display()));
        let mut inner = self.lock();
        // What a straggler staged since the checkpoint's cut goes the way
        // of the file it belongs to.
        self.write_stage(&mut inner)?;
        let header = header_frame(gen)?;
        inner.file.set_len(0).map_err(io)?;
        inner.file.write_all(&header).map_err(io)?;
        inner.file.sync_data().map_err(io)?;
        inner.len = header.len() as u64;
        Ok(())
    }
}

impl ActionSink for Wal {
    fn append_action(&self, stamp: u64, action: &Action) {
        let mut inner = self.lock();
        inner.last_stamp = stamp;
        self.stage(&mut inner, |out| put_act(out, stamp, action));
    }

    fn append_tree_add(&self, t: TxId, parent: TxId, access: Option<(ObjId, &Op)>) {
        self.stage(&mut self.lock(), |out| put_tree_add(out, t, parent, access));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::decode_stream;

    fn scratch_wal(name: &str, mode: DurabilityMode) -> (PathBuf, Arc<Wal>) {
        let path = std::env::temp_dir().join(format!("nt-wal-{}-{name}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let wal = Wal::open(&path, 1, 0, 0, 1, mode).expect("open");
        (path, wal)
    }

    #[test]
    fn a_barrier_writes_one_extent_and_counts_records() {
        let (path, wal) = scratch_wal("extent", DurabilityMode::FsyncPerCommit);
        assert!(!wal.needs_barrier());
        for seq in 0..5 {
            wal.append_cache(seq, b"resp");
        }
        assert!(wal.needs_barrier());
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), 26);
        wal.wait_durable().expect("barrier");
        assert!(!wal.needs_barrier());
        let c = wal.counters();
        assert_eq!((c.appended, c.extents, c.syncs), (1 + 5, 1, 1));
        assert_eq!(c.bytes, (FRAME_OVERHEAD + 5 * 17) as u64);
        // Nothing staged, nothing to sync: a second barrier is free.
        wal.wait_durable().expect("barrier");
        assert_eq!(wal.counters(), c);
        let decoded = decode_stream(&std::fs::read(&path).expect("read"));
        assert_eq!((decoded.frames, decoded.records.len()), (2, 6));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_near_cap_record_gets_an_extent_of_its_own() {
        let (path, wal) = scratch_wal("cap", DurabilityMode::None);
        wal.append_cache(1, &[1; 100]);
        wal.append_cache(2, &vec![7; (MAX_PAYLOAD - 64) as usize]);
        assert_eq!(wal.counters().extents, 2, "the small one, then the big one");
        wal.append_cache(3, &vec![7; MAX_PAYLOAD as usize]);
        assert_eq!(wal.counters().io_errors, 1, "over the cap: refused");
        wal.wait_durable().expect("barrier");
        let decoded = decode_stream(&std::fs::read(&path).expect("read"));
        assert!(decoded.torn.is_none(), "{:?}", decoded.torn);
        assert_eq!((decoded.frames, decoded.records.len()), (3, 3));
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_extent_write_acks_nothing_and_leaves_a_clean_prefix() {
        let (path, wal) = scratch_wal("full", DurabilityMode::FsyncPerCommit);
        wal.append_cache(1, b"acked");
        wal.wait_durable().expect("first barrier");
        let good = wal.counters();
        let good_len = std::fs::metadata(&path).expect("stat").len();

        // The disk fills up: every later write fails with ENOSPC.
        let full = OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("open /dev/full");
        let file = std::mem::replace(&mut wal.lock().file, full);
        wal.append_cache(2, b"never acked");
        wal.append_cache(3, b"never acked");
        let refused = wal.wait_durable();
        assert!(matches!(refused, Err(WalError::Io(_))), "{refused:?}");

        // Latched: only what reached the file is counted, nothing more is
        // staged, and every later barrier reports the failure.
        let c = wal.counters();
        assert!(c.failed);
        assert_eq!(c.io_errors, 1);
        assert_eq!(
            (c.appended, c.extents, c.bytes, c.syncs),
            (good.appended, good.extents, good.bytes, good.syncs)
        );
        wal.append_cache(4, b"dropped");
        assert!(wal.needs_barrier(), "a failed WAL keeps refusing to ack");
        assert!(wal.wait_durable().is_err());
        assert!(wal.snapshot_extent().is_err());
        assert!(wal.reset_to_generation(2).is_err());
        wal.flush_durable();
        assert_eq!(wal.counters(), c);

        // The file is the clean stamp prefix the last good barrier left.
        drop(file);
        let bytes = std::fs::read(&path).expect("read");
        assert_eq!(bytes.len() as u64, good_len);
        let decoded = decode_stream(&bytes);
        assert!(decoded.torn.is_none(), "{:?}", decoded.torn);
        assert_eq!(decoded.records.len(), 2, "header + the acked record");
        let _ = std::fs::remove_file(&path);
    }
}
