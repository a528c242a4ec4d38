//! The append side of the store: one file, one append mutex and a
//! durability policy. The WAL starts no thread: whoever acknowledges
//! calls [`Wal::wait_durable`], and how many acknowledgments one fsync
//! covers (the group commit) is that caller's batching — the server pays
//! one barrier per poll round.
//!
//! The WAL implements [`ActionSink`], the engine recorder's durable tee.
//! The critical ordering property lives in [`Wal::append_action`]: the
//! SeqClock stamp is drawn **while the append mutex is held**, so the
//! file's frame order equals stamp order. A torn tail then loses a
//! *suffix* of stamps — recovery never has to reason about holes in the
//! middle of the history.
//!
//! Lock order: the WAL append mutex is a leaf. Callers already hold a
//! session-log mutex, a lock-shard mutex, or the session tree's append
//! mutex when they enter; the WAL never calls back out, so no cycle can
//! form.

use crate::record::{Record, WalError};
use nt_engine::{ActionSink, DurabilityMode, SeqClock};
use nt_model::{Action, ObjId, Op, TxId};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct WalInner {
    file: File,
    /// Frames appended since open (monotone; the durability watermark
    /// counts in the same unit).
    appended: u64,
    /// Highest stamp appended in an `Act` frame (fuzzy checkpoints cover
    /// up to here).
    last_stamp: u64,
    /// Bytes written since open plus the valid prefix found at open.
    len: u64,
}

/// The write-ahead log: append-only frames over one file.
pub struct Wal {
    path: PathBuf,
    mode: DurabilityMode,
    inner: Mutex<WalInner>,
    /// Frames known durable (fsync completed past them).
    durable: Mutex<u64>,
    /// A dup of the file handle used for fsync outside the append mutex,
    /// so a flush never stalls appenders.
    sync_handle: File,
    /// Total fsync calls issued (the E19 cost driver).
    syncs: AtomicU64,
    /// I/O failures observed on the append path (the engine keeps
    /// running; recovery treats the missing tail as torn).
    io_errors: AtomicU64,
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
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)
            .map_err(io)?;
        let mut len = valid_len;
        if fresh {
            let header = Record::Header {
                kind: crate::record::FileKind::Wal,
                gen,
                covers_stamp: 0,
            }
            .encode_frame()?;
            (&file).write_all(&header).map_err(io)?;
            file.sync_data().map_err(io)?;
            len = header.len() as u64;
        } else {
            // Drop the torn tail so resumed appends start on a frame
            // boundary.
            file.set_len(valid_len).map_err(io)?;
            file.sync_data().map_err(io)?;
        }
        let sync_handle = file.try_clone().map_err(io)?;
        Ok(Arc::new(Wal {
            path: path.to_path_buf(),
            mode,
            inner: Mutex::new(WalInner {
                file,
                appended,
                last_stamp,
                len,
            }),
            durable: Mutex::new(appended),
            sync_handle,
            syncs: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }))
    }

    /// The file path this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append_locked(&self, inner: &mut WalInner, rec: &Record) {
        match rec.encode_frame() {
            Ok(frame) => {
                if let Err(e) = inner.file.write_all(&frame) {
                    // The engine must not panic mid-request on a full
                    // disk; the unwritten suffix behaves exactly like a
                    // crash-torn tail at recovery.
                    self.io_errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("nt-store: WAL append failed: {e}");
                    return;
                }
                inner.len += frame.len() as u64;
                inner.appended += 1;
            }
            Err(e) => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("nt-store: WAL append refused: {e}");
            }
        }
    }

    /// Append one record (outside the stamped-action path).
    pub fn append(&self, rec: &Record) {
        let mut inner = self.inner.lock().expect("wal poisoned");
        self.append_locked(&mut inner, rec);
    }

    /// Append a cached response frame for `seq`.
    pub fn append_cache(&self, seq: u64, resp: &[u8]) {
        self.append(&Record::Cache {
            seq,
            resp: resp.to_vec(),
        });
    }

    /// Fsync now and advance the durability watermark (called by
    /// [`Wal::wait_durable`], by recovery, and at
    /// [`Store::close`](crate::Store::close)). Returns without a sync when
    /// nothing was appended since the last one.
    pub fn flush_durable(&self) {
        let target = self.inner.lock().expect("wal poisoned").appended;
        {
            let d = self.durable.lock().expect("durable poisoned");
            if *d >= target {
                return;
            }
        }
        // Sync outside both mutexes: concurrent appends may make the sync
        // cover more than `target`, which only strengthens the claim.
        if let Err(e) = self.sync_handle.sync_data() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
            eprintln!("nt-store: WAL fsync failed: {e}");
            return;
        }
        self.syncs.fetch_add(1, Ordering::Relaxed);
        let mut d = self.durable.lock().expect("durable poisoned");
        if *d < target {
            *d = target;
        }
    }

    /// Block until everything appended so far is durable, per the mode:
    /// no-op (`None`) or an inline fsync (`FsyncPerCommit`).
    pub fn wait_durable(&self) {
        match self.mode {
            DurabilityMode::None => {}
            DurabilityMode::FsyncPerCommit => self.flush_durable(),
        }
    }

    /// Snapshot `(byte_len, frames_appended, last_stamp)` coherently —
    /// the fuzzy-checkpoint cut point.
    pub fn snapshot_extent(&self) -> (u64, u64, u64) {
        let inner = self.inner.lock().expect("wal poisoned");
        (inner.len, inner.appended, inner.last_stamp)
    }

    /// Fsync calls issued so far.
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Frames appended so far.
    pub fn appended_count(&self) -> u64 {
        self.inner.lock().expect("wal poisoned").appended
    }

    /// Append-path I/O failures so far (nonzero means the durable tail is
    /// shorter than the acknowledged history — surfaced, never hidden).
    pub fn io_error_count(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Replace the log with a fresh one at `gen` (after a rotation
    /// checkpoint has captured everything). Callers must have quiesced
    /// appends (the server rotates only after the engine drained).
    pub fn reset_to_generation(&self, gen: u64) -> Result<(), WalError> {
        let io = |e: std::io::Error| WalError::Io(format!("{}: {e}", self.path.display()));
        let mut inner = self.inner.lock().expect("wal poisoned");
        let header = Record::Header {
            kind: crate::record::FileKind::Wal,
            gen,
            covers_stamp: 0,
        }
        .encode_frame()?;
        inner.file.set_len(0).map_err(io)?;
        {
            use std::io::Seek;
            inner.file.seek(std::io::SeekFrom::Start(0)).map_err(io)?;
        }
        inner.file.write_all(&header).map_err(io)?;
        inner.file.sync_data().map_err(io)?;
        inner.len = header.len() as u64;
        Ok(())
    }
}

impl ActionSink for Wal {
    fn append_action(&self, clock: &SeqClock, action: &Action) -> u64 {
        let mut inner = self.inner.lock().expect("wal poisoned");
        // Stamp under the append mutex: file order == stamp order.
        let stamp = clock.next();
        inner.last_stamp = stamp;
        self.append_locked(
            &mut inner,
            &Record::Act {
                stamp,
                action: action.clone(),
            },
        );
        stamp
    }

    fn append_tree_add(&self, t: TxId, parent: TxId, access: Option<(ObjId, &Op)>) {
        self.append(&Record::TreeAdd {
            t,
            parent,
            access: access.map(|(x, op)| (x, op.clone())),
        });
    }
}
