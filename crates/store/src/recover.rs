//! Crash recovery: decode the durable prefix, refuse what no crash can
//! produce, hand the rest to the engine's replay, and re-certify the
//! result through the Theorem 17 gate before the engine accepts new work.
//!
//! ## Why recovery runs through the lock table
//!
//! The WAL records the *history* (the paper's action alphabet), not
//! physical pages, so the state a prefix leaves is whatever the lock
//! table's transitions make of it, and this module does not implement
//! them a second time. [`RecoveredSeed::replay`] applies β through
//! `nt_engine`'s own `LockTable` in stamp order, each `INFORM_ABORT` at
//! its place; the crash-time losers, the topmost running transactions,
//! then abort through the one abort a session uses, and a commit the cut
//! split gets the `INFORM_COMMIT`s it lost. An object's committed value
//! is its `T0` write entry. Left here: decoding, refusals, the gate.
//!
//! ## Why a stamp can be a position
//!
//! The engine draws stamps densely (`nt_engine`'s `recorder.rs`), and a
//! crash loses only a suffix of them: the WAL is written in whole
//! frames and a torn tail stops the decode. So the merged checkpoint and
//! WAL stamps must be exactly `0..n`. A file that breaks this decodes
//! frame by frame — a whole middle extent spliced out leaves every CRC
//! intact — but describes a history no crash can produce, and recovery
//! refuses it with [`StoreError::Corrupt`] naming the first missing
//! stamp. Past that check β is held once, as one `Vec<Action>` whose
//! indices are its stamps: the replay applies it and appends to it, the
//! Theorem 17 gate certifies it ([`Recovered::gate`] keeps its replay for
//! the live certifier), and the seed hands it to the engine as its head.
//!
//! ## Why re-certification is sound
//!
//! Losers are rolled back by appending the action sequence a live abort
//! records (`ABORT`, the `INFORM_ABORT`s, `REPORT_ABORT`), stamped after
//! everything recovered, and a split commit's missing `INFORM_COMMIT`s
//! are ones the controller may send any time after the `COMMIT`. The
//! result is a history a crash-free server that had simply aborted those
//! tops could itself have produced — so `certify_replay` applies
//! verbatim, and a passing verdict means the recovered state is serially
//! correct, not merely internally consistent.

use crate::record::{Decoded, FileKind, Record, WalError};
use crate::StoreError;
use nt_engine::RecoveredSeed;
use nt_model::{Action, ObjId, Op, TxId, TxTree};
use nt_obs::json::JsonObj;
use nt_serial::{ObjectTypes, RwRegister};
use nt_sgt_live::{certify_replay, SgtMaintainer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The WAL file name inside a data dir.
pub const WAL_FILE: &str = "nt.wal";
/// The checkpoint file name inside a data dir.
pub const CKPT_FILE: &str = "nt.ckpt";

/// One recovered transaction-tree node.
#[derive(Clone, Debug)]
pub(crate) struct NodeRec {
    pub parent: TxId,
    pub access: Option<(ObjId, Op)>,
}

/// Records merged from checkpoint + WAL, deduplicated.
#[derive(Default)]
pub(crate) struct MergedState {
    pub nodes: BTreeMap<u32, NodeRec>,
    pub acts: BTreeMap<u64, Action>,
    pub cache: BTreeMap<u64, Vec<u8>>,
}

impl MergedState {
    /// Fold one file's records in. Checkpoint first, then WAL: nodes and
    /// acts deduplicate by id/stamp (a fuzzy checkpoint overlaps the WAL
    /// it covers), cached responses take the latest.
    pub fn absorb(&mut self, records: &[Record]) -> Result<(), StoreError> {
        for rec in records {
            match rec {
                Record::Header { .. } => {}
                Record::TreeAdd { t, parent, access } => {
                    if t.0 == 0 || parent.0 >= t.0 {
                        return Err(StoreError::Corrupt(format!(
                            "tree record {t} under {parent} breaks id ordering"
                        )));
                    }
                    self.nodes.entry(t.0).or_insert_with(|| NodeRec {
                        parent: *parent,
                        access: access.clone(),
                    });
                }
                Record::Act { stamp, action } => {
                    self.acts.entry(*stamp).or_insert_with(|| action.clone());
                }
                Record::Cache { seq, resp } => {
                    self.cache.insert(*seq, resp.clone());
                }
            }
        }
        Ok(())
    }
}

/// Everything recovery learned, summarized for the operator (and the
/// crash-campaign driver, which parses it from `nt-serve`'s stdout).
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Rotation generation recovered (and resumed).
    pub gen: u64,
    /// Records decoded from the checkpoint.
    pub ckpt_records: usize,
    /// Records decoded from the WAL's valid prefix.
    pub wal_records: usize,
    /// The torn-tail stop reason, if the WAL did not end cleanly.
    pub torn: Option<String>,
    /// Transactions in the recovered tree (excluding `T0`).
    pub tx_count: usize,
    /// Transactions recovered as committed.
    pub committed: usize,
    /// Crash-time losers rolled back (subtree roots).
    pub losers: Vec<u32>,
    /// Actions the replay appended (loser rollbacks, lost informs).
    pub synthesized_actions: usize,
    /// Placeholder nodes resurrected for torn registrations.
    pub placeholders: usize,
    /// Cached responses recovered (exactly-once across restart).
    pub cache_entries: usize,
    /// Total recovered history length (including synthesized actions).
    pub history_len: usize,
    /// Did the Theorem 17 gate pass on the recovered history?
    pub certified: bool,
    /// Top-level nodes the gate's replay inserted.
    pub sg_nodes: usize,
    /// Edges the gate's replay inserted.
    pub sg_edges: usize,
}

impl RecoveryReport {
    /// One-line JSON form (`nt-serve` prints this before listening).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.num("gen", self.gen)
            .num("ckpt_records", self.ckpt_records as u64)
            .num("wal_records", self.wal_records as u64);
        match &self.torn {
            Some(t) => o.str("torn", t),
            None => o.raw("torn", "null".to_string()),
        };
        o.num("tx_count", self.tx_count as u64)
            .num("committed", self.committed as u64)
            .num_arr(
                "losers",
                &self
                    .losers
                    .iter()
                    .map(|&t| u64::from(t))
                    .collect::<Vec<_>>(),
            )
            .num("synthesized_actions", self.synthesized_actions as u64)
            .num("placeholders", self.placeholders as u64)
            .num("cache_entries", self.cache_entries as u64)
            .num("history_len", self.history_len as u64)
            .bool("certified", self.certified)
            .num("sg_nodes", self.sg_nodes as u64)
            .num("sg_edges", self.sg_edges as u64);
        o.build()
    }
}

/// The full outcome of analyzing a data dir.
pub struct Recovered {
    /// The seed the restarted engine boots from.
    pub seed: RecoveredSeed,
    /// Recovered per-seq response cache.
    pub cache: BTreeMap<u64, Vec<u8>>,
    /// The operator-facing summary.
    pub report: RecoveryReport,
    /// The gate's maintainer, fed `seed.entries`, for a live certifier.
    pub gate: SgtMaintainer,
    /// Rotation generation to resume at.
    pub(crate) gen: u64,
    /// Valid byte length of the WAL (0 when the file must be recreated).
    pub(crate) wal_valid_len: u64,
    /// True when the on-disk WAL belongs to the previous generation (a
    /// crash landed between checkpoint rename and WAL reset) and must be
    /// recreated rather than resumed.
    pub(crate) wal_stale: bool,
    /// The appended actions, to append (and fsync) before serving.
    pub(crate) synthesized: Vec<Record>,
}

fn decode_file(path: &std::path::Path) -> Result<Option<Decoded>, StoreError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(crate::record::decode_stream(&bytes))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(StoreError::Io(format!("{}: {e}", path.display()))),
    }
}

fn header_of(decoded: &Decoded, want: FileKind, what: &str) -> Result<Option<u64>, StoreError> {
    match decoded.records.first() {
        None => Ok(None),
        Some(Record::Header { kind, gen, .. }) if *kind == want => Ok(Some(*gen)),
        Some(other) => Err(StoreError::Wal(WalError::BadHeader(format!(
            "{what} opens with {other:?}"
        )))),
    }
}

/// Analyze `dir` and produce the recovered seed, cache, and report —
/// refusing (typed errors, never panics) on corruption that a crash
/// cannot produce, and on a recovered history that fails certification.
pub fn analyze(dir: &std::path::Path) -> Result<Recovered, StoreError> {
    let ckpt = decode_file(&dir.join(CKPT_FILE))?;
    let wal = decode_file(&dir.join(WAL_FILE))?;

    // Checkpoints are written via atomic rename: any decode stop inside
    // one is bit rot, not a crash artifact.
    if let Some(c) = &ckpt {
        if let Some(torn) = &c.torn {
            return Err(StoreError::CorruptCheckpoint(torn.clone()));
        }
    }
    let ckpt_gen = match &ckpt {
        Some(c) => header_of(c, FileKind::Checkpoint, "checkpoint")?,
        None => None,
    };
    let wal_gen = match &wal {
        Some(w) => header_of(w, FileKind::Wal, "wal")?,
        None => None,
    };
    let mut wal_stale = false;
    let gen = match (ckpt_gen, wal_gen) {
        (Some(cg), Some(wg)) if wg == cg => cg,
        (Some(cg), Some(wg)) if wg + 1 == cg => {
            // Crash between checkpoint rename (which captured everything)
            // and the WAL reset: the WAL is one generation behind and
            // fully covered by the checkpoint. Ignore and recreate it.
            wal_stale = true;
            cg
        }
        (Some(cg), Some(wg)) => return Err(StoreError::GenerationMismatch { wal: wg, ckpt: cg }),
        (Some(cg), None) => cg,
        (None, Some(wg)) => wg,
        (None, None) => 1,
    };

    let mut merged = MergedState::default();
    let mut ckpt_records = 0;
    if let Some(c) = &ckpt {
        ckpt_records = c.records.len();
        merged.absorb(&c.records)?;
    }
    let mut wal_records = 0;
    let mut torn = None;
    let mut wal_valid_len = 0;
    if let Some(w) = &wal {
        if !wal_stale {
            wal_records = w.records.len();
            torn = w.torn.as_ref().map(|e| e.to_string());
            wal_valid_len = w.valid_len as u64;
            merged.absorb(&w.records)?;
        }
    }
    let MergedState {
        mut nodes,
        acts,
        cache,
    } = merged;

    // Resurrect torn registrations as placeholders so ids stay dense.
    let max_id = nodes.keys().next_back().copied().unwrap_or(0);
    let mut placeholders = 0;
    for id in 1..=max_id {
        nodes.entry(id).or_insert_with(|| {
            placeholders += 1;
            // Resurrected as an inner node under `T0`; never `CREATE`d in
            // the recovered history, so the replay's loser pass records
            // its create-then-abort lifecycle.
            NodeRec {
                parent: TxId::ROOT,
                access: None,
            }
        });
    }
    for (id, n) in &nodes {
        if let Some(p) = nodes.get(&n.parent.0) {
            if p.access.is_some() {
                return Err(StoreError::Corrupt(format!(
                    "transaction {id} registered under access {}",
                    n.parent
                )));
            }
        }
    }

    // A crash loses a suffix of stamps, never the middle (`wal.rs`): the
    // merged stamps must be exactly `0..n`. Check it while moving β into
    // the one vector recovery keeps, whose indices are its stamps from
    // here on — the seed hands it to the engine as is. Every action but
    // `CREATE(T0)` names a transaction with a tree record.
    let mut history: Vec<Action> = Vec::with_capacity(acts.len());
    for (stamp, action) in acts {
        let want = history.len() as u64;
        if stamp != want {
            return Err(StoreError::Corrupt(format!(
                "the history has a hole: stamp {want} is missing, the next recovered is {stamp}"
            )));
        }
        let t = action.subject();
        if !nodes.contains_key(&t.0) && action != Action::Create(TxId::ROOT) {
            return Err(StoreError::Corrupt(format!(
                "stamp {stamp}: {action} names unregistered transaction {t}"
            )));
        }
        history.push(action);
    }

    let seed_nodes: Vec<(TxId, Option<(ObjId, Op)>)> = nodes
        .values()
        .map(|n| (n.parent, n.access.clone()))
        .collect();
    let mut tree = TxTree::new();
    for (parent, access) in &seed_nodes {
        match access {
            None => tree.add_inner(*parent),
            Some((x, op)) => tree.add_access(*parent, *x, op.clone()),
        };
    }
    let tree = Arc::new(tree);
    let recovered = history.len();
    let (seed, losers) = RecoveredSeed::replay(Arc::clone(&tree), seed_nodes, history);
    let synthesized: Vec<Record> = (recovered..)
        .zip(&seed.entries[recovered..])
        .map(|(stamp, action)| Record::Act {
            stamp: stamp as u64,
            action: action.clone(),
        })
        .collect();

    // Re-certify the recovered history through the Theorem 17 gate. One
    // type for every object: nothing is sized by the largest id.
    let types = ObjectTypes::uniform(tree.num_objects(), Arc::new(RwRegister::new(0)));
    let (cert, gate) = certify_replay(&tree, &seed.entries, &types);
    if !cert.is_serially_correct() {
        return Err(StoreError::CertificationFailed {
            verdict: cert.verdict.name().to_string(),
            violations: cert.violations,
        });
    }

    let report = RecoveryReport {
        gen,
        ckpt_records,
        wal_records,
        torn,
        tx_count: nodes.len(),
        committed: seed.committed.len(),
        losers: losers.iter().map(|t| t.0).collect(),
        synthesized_actions: synthesized.len(),
        placeholders,
        cache_entries: cache.len(),
        history_len: seed.entries.len(),
        certified: true,
        sg_nodes: cert.sg_nodes,
        sg_edges: cert.sg_edges,
    };
    Ok(Recovered {
        seed,
        cache,
        report,
        gate,
        gen,
        wal_valid_len,
        wal_stale,
        synthesized,
    })
}

/// Build the compacted checkpoint record list from merged state (used by
/// [`crate::Store::checkpoint`]): header, registrations in id order,
/// actions in stamp order, cached responses.
pub(crate) fn checkpoint_records(merged: &MergedState, gen: u64, covers_stamp: u64) -> Vec<Record> {
    let mut out =
        Vec::with_capacity(1 + merged.nodes.len() + merged.acts.len() + merged.cache.len());
    out.push(Record::Header {
        kind: FileKind::Checkpoint,
        gen,
        covers_stamp,
    });
    for (id, n) in &merged.nodes {
        out.push(Record::TreeAdd {
            t: TxId(*id),
            parent: n.parent,
            access: n.access.clone(),
        });
    }
    for (stamp, action) in &merged.acts {
        out.push(Record::Act {
            stamp: *stamp,
            action: action.clone(),
        });
    }
    for (seq, resp) in &merged.cache {
        out.push(Record::Cache {
            seq: *seq,
            resp: resp.clone(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_model::Value;

    /// Many aborted tops whose children were never resolved, and every
    /// hundredth top still running with a child that wrote: the running
    /// tops are the losers, each rolled back by `ABORT`, one
    /// `INFORM_ABORT` for the object its subtree holds, `REPORT_ABORT`,
    /// stamped after everything recovered in id order.
    #[test]
    fn losers_under_many_aborted_tops_are_exactly_the_running_tops() {
        const TOPS: u32 = 600;
        let dir = std::env::temp_dir().join(format!("nt-recover-{}-losers", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut recs = vec![Record::Header {
            kind: FileKind::Wal,
            gen: 1,
            covers_stamp: 0,
        }];
        let mut acts = vec![Action::Create(TxId::ROOT)];
        let mut running = Vec::new();
        for k in 0..TOPS {
            let (top, child, access) = (TxId(3 * k + 1), TxId(3 * k + 2), TxId(3 * k + 3));
            let x = ObjId(k);
            recs.push(Record::TreeAdd {
                t: top,
                parent: TxId::ROOT,
                access: None,
            });
            recs.push(Record::TreeAdd {
                t: child,
                parent: top,
                access: None,
            });
            recs.push(Record::TreeAdd {
                t: access,
                parent: child,
                access: Some((x, Op::Write(i64::from(k)))),
            });
            acts.extend([
                Action::RequestCreate(top),
                Action::Create(top),
                Action::RequestCreate(child),
                Action::Create(child),
            ]);
            if k % 100 == 7 {
                acts.extend([
                    Action::RequestCreate(access),
                    Action::Create(access),
                    Action::RequestCommit(access, Value::Ok),
                    Action::Commit(access),
                ]);
                running.push((top, x));
            } else {
                acts.extend([Action::Abort(top), Action::ReportAbort(top)]);
            }
        }
        let recovered_len = acts.len() as u64;
        for (stamp, action) in acts.into_iter().enumerate() {
            recs.push(Record::Act {
                stamp: stamp as u64,
                action,
            });
        }
        let mut bytes = Vec::new();
        for rec in &recs {
            rec.encode_frame_into(&mut bytes).expect("encode");
        }
        std::fs::write(dir.join(WAL_FILE), &bytes).expect("write wal");

        let got = analyze(&dir).expect("recovers");
        let _ = std::fs::remove_dir_all(&dir);
        let losers: Vec<u32> = running.iter().map(|(t, _)| t.0).collect();
        assert_eq!(got.report.losers, losers);
        let want: Vec<Record> = running
            .iter()
            .flat_map(|&(v, x)| {
                [
                    Action::Abort(v),
                    Action::InformAbort(x, v),
                    Action::ReportAbort(v),
                ]
            })
            .enumerate()
            .map(|(i, action)| Record::Act {
                stamp: recovered_len + i as u64,
                action,
            })
            .collect();
        assert_eq!(got.synthesized, want);
        assert!(got.report.certified);
    }
}
