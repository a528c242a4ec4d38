//! # nt-store
//!
//! A WAL-backed durable store mounted beneath the session engine's
//! objects. Every applied operation, commit, and abort-undo is staged for
//! a length-prefixed, CRC-checked write-ahead log **with its SeqClock
//! stamp** (the engine's recorder tees into the WAL through
//! [`nt_engine::ActionSink`] under the engine's history mutex, so file
//! order equals stamp order), and the stage is handed to the file
//! as one extent — one frame, one `write(2)` — at the barrier
//! ([`Store::wait_durable`]) its caller pays **before it acknowledges
//! anything staged**: the server's poll round. Durability cost is a
//! policy ([`nt_engine::DurabilityMode`]): the barrier only writes, or it
//! also fsyncs — one write and at most one fsync per batch of
//! acknowledgments, however many records the batch logged.
//!
//! Opening a data dir runs full crash recovery ([`recover::analyze`]):
//! decode the durable prefix (stopping, with a typed error, at the first
//! torn or corrupt frame), refuse what no crash can produce, and hand the
//! history to [`nt_engine::RecoveredSeed::replay`], which runs it through
//! the lock table's own transitions and rolls the crash-time losers back
//! through the engine's one abort (`ABORT` / `INFORM_ABORT` /
//! `REPORT_ABORT`, as a live abort records). Then **re-certify the
//! recovered history through `certify_recorded` (Theorem 17)** — the
//! store refuses to open a history the gate rejects.
//! Fuzzy checkpoints compact the log while the server runs; rotation at
//! drain bumps a generation number so a crash between checkpoint rename
//! and WAL reset is unambiguous at the next recovery.

#![forbid(unsafe_code)]

pub mod record;
pub mod recover;
pub mod wal;

pub use record::{crc32, decode_stream, Decoded, FileKind, Record, WalError};
pub use recover::{analyze, Recovered, RecoveryReport, CKPT_FILE, WAL_FILE};
pub use wal::{Wal, WalCounters};

use nt_engine::DurabilityMode;
use recover::MergedState;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Why the store refused to open or checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// A WAL-level failure (framing, header, alphabet, I/O).
    Wal(WalError),
    /// The checkpoint — which is written atomically, so a crash cannot
    /// tear it — failed to decode: bit rot, refuse to guess.
    CorruptCheckpoint(WalError),
    /// WAL and checkpoint generations are unrelated (neither equal nor
    /// adjacent): the files are not from one store lineage.
    GenerationMismatch {
        /// The WAL header's generation.
        wal: u64,
        /// The checkpoint header's generation.
        ckpt: u64,
    },
    /// Structurally valid frames describe an impossible history.
    Corrupt(String),
    /// The recovered history failed the Theorem 17 gate.
    CertificationFailed {
        /// The checker's verdict name.
        verdict: String,
        /// Violations counted.
        violations: usize,
    },
    /// An OS-level failure outside the WAL codec.
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Wal(e) => write!(f, "wal: {e}"),
            StoreError::CorruptCheckpoint(e) => write!(f, "corrupt checkpoint: {e}"),
            StoreError::GenerationMismatch { wal, ckpt } => write!(
                f,
                "generation mismatch: wal gen {wal} vs checkpoint gen {ckpt}"
            ),
            StoreError::Corrupt(what) => write!(f, "corrupt log: {what}"),
            StoreError::CertificationFailed {
                verdict,
                violations,
            } => write!(
                f,
                "recovered history failed certification: {verdict} ({violations} violations)"
            ),
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<WalError> for StoreError {
    fn from(e: WalError) -> Self {
        StoreError::Wal(e)
    }
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, fsync the directory. A crash mid-write
/// leaves either the old content or the new — never a truncated mix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        use std::io::Write;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = dir {
        // Persist the rename itself (directory entry) where the platform
        // supports opening directories; best-effort elsewhere.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Snapshot of one checkpoint pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Records written into the checkpoint.
    pub records: usize,
    /// Highest stamp the checkpoint covers.
    pub covers_stamp: u64,
}

/// The open store: a live WAL plus checkpoint/rotation management.
pub struct Store {
    dir: PathBuf,
    wal: Arc<Wal>,
    gen: Mutex<u64>,
    report: RecoveryReport,
}

impl Store {
    /// Open (and recover) the store at `dir`, creating it if needed.
    /// Returns the store and everything recovery learned; fails — with a
    /// typed error, before any engine starts — on corruption beyond a
    /// torn tail or on a recovered history the Theorem 17 gate rejects.
    pub fn open(dir: &Path, mode: DurabilityMode) -> Result<(Store, Recovered), StoreError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StoreError::Io(format!("{}: {e}", dir.display())))?;
        let recovered = recover::analyze(dir)?;
        let wal_path = dir.join(WAL_FILE);
        let mut valid_len = recovered.wal_valid_len;
        let mut records = recovered.report.wal_records as u64;
        if recovered.wal_stale || (wal_path.exists() && valid_len == 0) {
            // Stale generation, or a WAL whose header itself was torn:
            // recreate rather than resume.
            std::fs::remove_file(&wal_path)
                .map_err(|e| StoreError::Io(format!("{}: {e}", wal_path.display())))?;
            valid_len = 0;
            records = 0;
        }
        let last_stamp = recovered.seed.next_stamp.saturating_sub(1);
        let wal = Wal::open(
            &wal_path,
            recovered.gen,
            valid_len,
            last_stamp,
            records,
            mode,
        )?;
        // Make what the replay appended durable before the engine serves:
        // it is part of the certified history.
        for rec in &recovered.synthesized {
            wal.append(rec);
        }
        if !recovered.synthesized.is_empty() {
            wal.flush_durable();
        }
        let store = Store {
            dir: dir.to_path_buf(),
            wal,
            gen: Mutex::new(recovered.gen),
            report: recovered.report.clone(),
        };
        Ok((store, recovered))
    }

    /// The live WAL (the engine's [`nt_engine::ActionSink`]).
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// The data dir this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What recovery found at open.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Current rotation generation.
    pub fn generation(&self) -> u64 {
        *self.gen.lock().expect("gen poisoned")
    }

    /// Stage a cached response for `seq` (call before `wait_durable`,
    /// before the response goes on the wire).
    pub fn append_cache(&self, seq: u64, resp: &[u8]) {
        self.wal.append_cache(seq, resp);
    }

    /// The round barrier ([`Wal::wait_durable`]): everything staged is
    /// handed to the file, and durable per the mode, when this returns
    /// `Ok`; on `Err` nothing staged may be acknowledged.
    pub fn wait_durable(&self) -> Result<(), WalError> {
        self.wal.wait_durable()
    }

    fn merged_from_disk(&self, wal_len: u64) -> Result<MergedState, StoreError> {
        let mut merged = MergedState::default();
        let ckpt_path = self.dir.join(CKPT_FILE);
        match std::fs::read(&ckpt_path) {
            Ok(bytes) => {
                let decoded = decode_stream(&bytes);
                if let Some(torn) = decoded.torn {
                    return Err(StoreError::CorruptCheckpoint(torn));
                }
                merged.absorb(&decoded.records)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::Io(format!("{}: {e}", ckpt_path.display()))),
        }
        let wal_bytes = std::fs::read(self.wal.path())
            .map_err(|e| StoreError::Io(format!("{}: {e}", self.wal.path().display())))?;
        let cut = (wal_len as usize).min(wal_bytes.len());
        let decoded = decode_stream(&wal_bytes[..cut]);
        if let Some(torn) = decoded.torn {
            // Our own appends within the snapshotted extent must decode.
            return Err(StoreError::Wal(torn));
        }
        merged.absorb(&decoded.records)?;
        Ok(merged)
    }

    /// Compact everything on disk up to the WAL's current extent into the
    /// checkpoint file at generation `gen` (atomic rename).
    fn write_checkpoint(&self, gen: u64) -> Result<CheckpointStats, StoreError> {
        let (wal_len, _records, covers_stamp) = self.wal.snapshot_extent()?;
        let merged = self.merged_from_disk(wal_len)?;
        let records = recover::checkpoint_records(&merged, gen, covers_stamp);
        let mut bytes = Vec::new();
        for rec in &records {
            rec.encode_frame_into(&mut bytes)?;
        }
        write_atomic(&self.dir.join(CKPT_FILE), &bytes)
            .map_err(|e| StoreError::Io(format!("checkpoint: {e}")))?;
        Ok(CheckpointStats {
            records: records.len(),
            covers_stamp,
        })
    }

    /// Write a fuzzy checkpoint: hand the stage to the file, then compact
    /// everything on disk into the checkpoint file, without pausing
    /// appends. Recovery merges checkpoint + WAL and deduplicates by
    /// id/stamp, so overlap is harmless.
    pub fn checkpoint(&self) -> Result<CheckpointStats, StoreError> {
        self.write_checkpoint(self.generation())
    }

    /// Rotate at drain: checkpoint into generation `g+1`, then reset the
    /// WAL to a fresh file at `g+1`. Callers must have quiesced appends
    /// (the server rotates after the engine shut down); a crash between
    /// the two steps leaves the WAL one generation behind its
    /// checkpoint, which recovery recognizes and ignores.
    pub fn rotate(&self) -> Result<CheckpointStats, StoreError> {
        let mut gen = self.gen.lock().expect("gen poisoned");
        let next = *gen + 1;
        let stats = self.write_checkpoint(next)?;
        self.wal.reset_to_generation(next)?;
        *gen = next;
        Ok(stats)
    }

    /// Hand the stage to the file and fsync the tail, whatever the mode.
    /// Idempotent.
    pub fn close(&self) {
        self.wal.flush_durable();
    }
}
