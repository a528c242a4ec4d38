//! End-to-end store tests: a real engine appends through the WAL sink,
//! then the store is reopened — cleanly, after a simulated crash with
//! in-flight transactions, with a torn tail, after checkpoints and
//! rotations, and with a stale pre-rotation WAL. Every reopen must pass
//! the Theorem 17 gate before it yields a seed.

use nt_engine::{AccessOutcome, CommitOutcome, DurabilityMode, SessionEngine};
use nt_model::{ObjId, Op, Value};
use nt_obs::TraceHandle;
use nt_store::{Store, StoreError, CKPT_FILE, WAL_FILE};
use std::path::PathBuf;
use std::sync::Arc;

/// A per-test scratch dir (fresh on entry, removed on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("nt-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn boot(store: &Store, recovered: nt_store::Recovered) -> Arc<SessionEngine> {
    SessionEngine::start_recovered(
        4096,
        TraceHandle::disabled(),
        recovered.seed,
        Some(Arc::clone(store.wal()) as Arc<dyn nt_engine::ActionSink>),
        None,
    )
    .expect("recovered seed replays")
}

/// Write `val` into object `x` under a fresh committed top.
fn commit_write(engine: &Arc<SessionEngine>, x: ObjId, val: i64) {
    let mut s = engine.open_session();
    let top = s.begin_top().expect("top");
    assert_eq!(
        s.access(top, x, Op::Write(val)).expect("write"),
        AccessOutcome::Done(Value::Ok)
    );
    assert_eq!(s.commit(top).expect("commit"), CommitOutcome::Committed);
}

fn read_committed(engine: &Arc<SessionEngine>, x: ObjId) -> Value {
    let mut s = engine.open_session();
    let top = s.begin_top().expect("top");
    let got = match s.access(top, x, Op::Read).expect("read") {
        AccessOutcome::Done(v) => v,
        AccessOutcome::Aborted(v) => panic!("read aborted at {v}"),
    };
    assert_eq!(s.commit(top).expect("commit"), CommitOutcome::Committed);
    got
}

#[test]
fn clean_restart_recovers_committed_state() {
    let scratch = Scratch::new("clean");
    {
        let (store, rec) = Store::open(&scratch.0, DurabilityMode::FsyncPerCommit).expect("open");
        assert_eq!(rec.report.tx_count, 0);
        let engine = boot(&store, rec);
        commit_write(&engine, ObjId(0), 41);
        commit_write(&engine, ObjId(1), 7);
        store.wait_durable().expect("barrier");
        store.close();
        assert!(store.wal().counters().syncs > 0, "fsync mode must sync");
    }
    let (store, rec) = Store::open(&scratch.0, DurabilityMode::FsyncPerCommit).expect("reopen");
    assert!(rec.report.certified);
    assert!(rec.report.losers.is_empty(), "clean run has no losers");
    // Two tops plus their two access transactions.
    assert_eq!(rec.report.committed, 4);
    assert!(rec.seed.initials.contains(&(ObjId(0), 41)));
    assert!(rec.seed.initials.contains(&(ObjId(1), 7)));
    let engine = boot(&store, rec);
    assert_eq!(read_committed(&engine, ObjId(0)), Value::Int(41));
    assert_eq!(read_committed(&engine, ObjId(1)), Value::Int(7));
    store.close();
}

/// Commit 7 behind a barrier, leave a tentative overwrite of 999 in flight,
/// then "crash" (drop everything without committing, aborting or closing).
/// `answered` says whether the round that executed the tentative write got
/// to its barrier — i.e. whether its reply could have left — before the
/// kill.
fn crash_with_a_tentative_overwrite(scratch: &Scratch, answered: bool) {
    let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("open");
    let engine = boot(&store, rec);
    commit_write(&engine, ObjId(0), 7);
    store.wait_durable().expect("barrier");
    let mut s = engine.open_session();
    let top = s.begin_top().expect("top");
    assert_eq!(
        s.access(top, ObjId(0), Op::Write(999)).expect("write"),
        AccessOutcome::Done(Value::Ok)
    );
    if answered {
        store.wait_durable().expect("barrier");
    }
    // No rotate, no close: the unsynced-but-written WAL stands in for
    // the durable prefix at the kill point.
}

#[test]
fn crash_with_inflight_top_rolls_back_the_loser() {
    let scratch = Scratch::new("loser");
    crash_with_a_tentative_overwrite(&scratch, true);
    let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("reopen");
    assert!(rec.report.certified);
    assert!(
        !rec.report.losers.is_empty(),
        "the in-flight top must be rolled back"
    );
    assert!(rec.report.synthesized_actions > 0);
    // The loser's tentative write is gone; the committed 7 survives.
    assert!(rec.seed.initials.contains(&(ObjId(0), 7)));
    let engine = boot(&store, rec);
    assert_eq!(read_committed(&engine, ObjId(0)), Value::Int(7));
    store.close();
}

#[test]
fn crash_before_the_round_barrier_loses_only_the_unacked_round() {
    let scratch = Scratch::new("unacked-round");
    crash_with_a_tentative_overwrite(&scratch, false);
    let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("reopen");
    assert!(rec.report.certified);
    assert!(
        rec.report.torn.is_none(),
        "the stage never reached the file"
    );
    // Nothing of the killed round is in the file, so there is no loser to
    // roll back: the log ends with the last round that was answered.
    assert!(rec.report.losers.is_empty(), "{:?}", rec.report.losers);
    assert_eq!(rec.report.synthesized_actions, 0);
    assert_eq!(
        rec.report.committed, 2,
        "the top that wrote 7 and its access"
    );
    assert!(rec.seed.initials.contains(&(ObjId(0), 7)));
    let engine = boot(&store, rec);
    assert_eq!(read_committed(&engine, ObjId(0)), Value::Int(7));
    store.close();
}

#[test]
fn reopened_wal_appends_after_its_valid_prefix() {
    // Every life of the store appends behind what the previous ones left
    // (the parent of the staged WAL reopened the file with its cursor at
    // byte 0 and wrote over the header).
    let scratch = Scratch::new("reopen-append");
    for (x, val) in [(0, 1), (1, 2), (2, 3)] {
        let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("open");
        assert!(rec.report.torn.is_none(), "{:?}", rec.report.torn);
        let engine = boot(&store, rec);
        commit_write(&engine, ObjId(x), val);
        store.close();
    }
    let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("last open");
    assert!(rec.report.certified);
    assert_eq!(rec.report.committed, 6);
    for (x, val) in [(0, 1), (1, 2), (2, 3)] {
        assert!(rec.seed.initials.contains(&(ObjId(x), val)));
    }
    store.close();
}

#[test]
fn appends_without_a_barrier_spill_in_bounded_extents() {
    // A caller that never reaches a barrier (`run_plan` over a data dir)
    // still gets its records to the file, in extents of about SPILL_BYTES.
    let scratch = Scratch::new("spill");
    let (store, _rec) = Store::open(&scratch.0, DurabilityMode::None).expect("open");
    let resp = [0x5a_u8; 100];
    let records = 3 * nt_store::wal::SPILL_BYTES as u64 / 113;
    for seq in 0..records {
        store.append_cache(seq, &resp);
    }
    let spilled = store.wal().counters();
    assert!(spilled.extents >= 2, "{spilled:?}");
    assert!(spilled.appended < records, "the last stage is still open");
    store.close();
    let closed = store.wal().counters();
    assert_eq!(closed.appended, records);
    assert_eq!(closed.extents, spilled.extents + 1);
    let bytes = std::fs::read(scratch.0.join(WAL_FILE)).expect("read wal");
    let decoded = nt_store::decode_stream(&bytes);
    assert!(decoded.torn.is_none(), "{:?}", decoded.torn);
    assert_eq!(
        decoded.frames as u64,
        1 + closed.extents,
        "header + extents"
    );
    assert_eq!(decoded.records.len() as u64, 1 + records);
    assert_eq!(
        bytes.len() as u64,
        26 + closed.bytes,
        "header + extent bytes"
    );
}

/// A fresh store's WAL after one session's script — a top with a nested
/// child that writes and reads and commits, a read in the top, a second
/// top that writes and aborts, the first top's commit — captured byte for
/// byte. One thread records, so the stamps, the records and their order
/// are fixed: a changed byte is a change in what the engine logs.
const SINGLE_SESSION_WAL: &str = concat!(
    "120000003de8212601000100000000000000000000000000000022030000d871c89e030000000000",
    "00000000000000000201000000000000000003010000000000000001010000000302000000000000",
    "00000100000002020000000100000000030300000000000000010200000003040000000000000000",
    "02000000020300000002000000010000000001050000000000000003050000000000000001030000",
    "00030600000000000000000300000003070000000000000002030000000003080000000000000003",
    "03000000030900000000000000070000000003000000030a00000000000000050300000000020400",
    "000002000000010100000000030b000000000000000104000000030c000000000000000004000000",
    "030d000000000000000204000000020000000000000000030e000000000000000304000000030f00",
    "00000000000007010000000400000003100000000000000005040000000200000000000000000311",
    "00000000000000020200000000031200000000000000030200000003130000000000000007000000",
    "00020000000314000000000000000701000000020000000315000000000000000502000000000205",
    "00000001000000010000000000031600000000000000010500000003170000000000000000050000",
    "0003180000000000000002050000000205000000000000000319000000000000000305000000031a",
    "00000000000000070000000005000000031b00000000000000050500000002050000000000000002",
    "060000000000000000031c000000000000000106000000031d000000000000000006000000020700",
    "0000060000000102000000010900000000000000031e000000000000000107000000031f00000000",
    "00000000070000000320000000000000000207000000000321000000000000000307000000032200",
    "00000000000007020000000700000003230000000000000005070000000003240000000000000004",
    "06000000032500000000000000080200000006000000032600000000000000060600000003270000",
    "00000000000201000000000328000000000000000301000000032900000000000000070000000001",
    "000000032a00000000000000070100000001000000032b00000000000000050100000000",
);

#[test]
fn single_session_wal_bytes_are_unchanged() {
    use nt_engine::BeginOutcome;
    let scratch = Scratch::new("golden");
    let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("open");
    let engine = boot(&store, rec);
    let mut s = engine.open_session();
    let top = s.begin_top().expect("top");
    let BeginOutcome::Fresh(child) = s.begin_child(top).expect("child") else {
        panic!("a fresh top's child is fresh");
    };
    let done = |out| match out {
        AccessOutcome::Done(v) => v,
        AccessOutcome::Aborted(v) => panic!("aborted at {v}"),
    };
    let (x, y) = (ObjId(0), ObjId(1));
    assert_eq!(
        done(s.access(child, x, Op::Write(5)).expect("w")),
        Value::Ok
    );
    assert_eq!(
        done(s.access(child, y, Op::Read).expect("r")),
        Value::Int(0)
    );
    assert_eq!(s.commit(child).expect("commit"), CommitOutcome::Committed);
    assert_eq!(done(s.access(top, x, Op::Read).expect("r")), Value::Int(5));
    let loser = s.begin_top().expect("top");
    assert_eq!(
        done(s.access(loser, ObjId(2), Op::Write(9)).expect("w")),
        Value::Ok
    );
    s.abort(loser).expect("abort");
    assert_eq!(s.commit(top).expect("commit"), CommitOutcome::Committed);
    store.close();
    let bytes = std::fs::read(scratch.0.join(WAL_FILE)).expect("read wal");
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, SINGLE_SESSION_WAL);
}

#[test]
fn torn_tail_is_dropped_and_next_open_is_clean() {
    let scratch = Scratch::new("torn");
    {
        let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("open");
        let engine = boot(&store, rec);
        commit_write(&engine, ObjId(0), 13);
        store.close();
    }
    // A crash mid-append leaves arbitrary garbage past the last frame.
    let wal_path = scratch.0.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).expect("read wal");
    let valid = bytes.len() as u64;
    bytes.extend_from_slice(&[0x2a, 0xff, 0x13, 0x00, 0x37]);
    std::fs::write(&wal_path, &bytes).expect("tear wal");
    {
        let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("reopen");
        assert!(rec.report.torn.is_some(), "the tear must be reported");
        assert!(rec.report.certified);
        assert!(rec.seed.initials.contains(&(ObjId(0), 13)));
        store.close();
    }
    // Opening truncated the tail: the file ends on the last valid frame
    // and a third open sees a clean log.
    assert_eq!(std::fs::metadata(&wal_path).expect("stat").len(), valid);
    let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("third open");
    assert!(rec.report.torn.is_none());
    assert!(rec.seed.initials.contains(&(ObjId(0), 13)));
    store.close();
}

#[test]
fn response_cache_survives_restart_and_rotation() {
    let scratch = Scratch::new("cache");
    {
        let (store, rec) = Store::open(&scratch.0, DurabilityMode::FsyncPerCommit).expect("open");
        let engine = boot(&store, rec);
        commit_write(&engine, ObjId(0), 3);
        store.append_cache(0x1_0000_0001, b"resp-a");
        store.append_cache(0x2_0000_0001, b"resp-b");
        store.wait_durable().expect("barrier");
        store.close();
    }
    {
        let (store, rec) = Store::open(&scratch.0, DurabilityMode::FsyncPerCommit).expect("reopen");
        assert_eq!(
            rec.cache.get(&0x1_0000_0001).map(Vec::as_slice),
            Some(&b"resp-a"[..])
        );
        assert_eq!(
            rec.cache.get(&0x2_0000_0001).map(Vec::as_slice),
            Some(&b"resp-b"[..])
        );
        // Rotation compacts the cache into the checkpoint.
        store.rotate().expect("rotate");
        store.close();
    }
    let (store, rec) =
        Store::open(&scratch.0, DurabilityMode::FsyncPerCommit).expect("post-rotate");
    assert_eq!(rec.report.cache_entries, 2);
    assert_eq!(
        rec.cache.get(&0x1_0000_0001).map(Vec::as_slice),
        Some(&b"resp-a"[..])
    );
    store.close();
}

#[test]
fn fuzzy_checkpoint_plus_wal_merge_without_double_replay() {
    let scratch = Scratch::new("ckpt");
    {
        let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("open");
        let engine = boot(&store, rec);
        commit_write(&engine, ObjId(0), 5);
        let stats = store.checkpoint().expect("checkpoint");
        assert!(stats.records > 0);
        // More work after the checkpoint: recovery must merge checkpoint
        // and WAL, deduplicating the overlap.
        commit_write(&engine, ObjId(1), 6);
        store.close();
    }
    let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("reopen");
    assert!(rec.report.ckpt_records > 0);
    assert!(rec.report.certified);
    assert_eq!(rec.report.committed, 4);
    assert!(rec.seed.initials.contains(&(ObjId(0), 5)));
    assert!(rec.seed.initials.contains(&(ObjId(1), 6)));
    let engine = boot(&store, rec);
    assert_eq!(read_committed(&engine, ObjId(0)), Value::Int(5));
    assert_eq!(read_committed(&engine, ObjId(1)), Value::Int(6));
    store.close();
}

#[test]
fn rotation_bumps_generation_and_a_stale_wal_is_ignored() {
    let scratch = Scratch::new("rotate");
    {
        let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("open");
        assert_eq!(store.generation(), 1);
        let engine = boot(&store, rec);
        commit_write(&engine, ObjId(0), 21);
        store.close();
    }
    // Keep the generation-1 WAL: it becomes the stale leftover below.
    let old_wal = std::fs::read(scratch.0.join(WAL_FILE)).expect("read old wal");
    {
        let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("reopen");
        let _engine = boot(&store, rec);
        store.rotate().expect("rotate");
        assert_eq!(store.generation(), 2);
        store.close();
    }
    // Simulate a crash between checkpoint rename and WAL reset: the
    // checkpoint is at generation 2 but the WAL on disk is generation 1.
    std::fs::write(scratch.0.join(WAL_FILE), &old_wal).expect("restore stale wal");
    let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("stale open");
    assert_eq!(rec.report.gen, 2);
    assert_eq!(
        rec.report.wal_records, 0,
        "the stale WAL must be ignored, not replayed"
    );
    assert!(rec.seed.initials.contains(&(ObjId(0), 21)));
    store.close();
}

#[test]
fn unrelated_generations_refuse_to_open() {
    let scratch = Scratch::new("genmismatch");
    {
        let (store, _rec) = Store::open(&scratch.0, DurabilityMode::None).expect("open");
        store.rotate().expect("rotate to 2");
        store.rotate().expect("rotate to 3");
        store.close();
    }
    // Replace the WAL with a fresh generation-1 file: neither equal nor
    // one behind the generation-3 checkpoint.
    std::fs::remove_file(scratch.0.join(WAL_FILE)).expect("drop wal");
    {
        let header = nt_store::Record::Header {
            kind: nt_store::FileKind::Wal,
            gen: 1,
            covers_stamp: 0,
        }
        .encode_frame()
        .expect("encode");
        std::fs::write(scratch.0.join(WAL_FILE), &header).expect("write old-gen wal");
    }
    match Store::open(&scratch.0, DurabilityMode::None) {
        Err(StoreError::GenerationMismatch { wal: 1, ckpt: 3 }) => {}
        Err(other) => panic!("expected generation mismatch, got {other}"),
        Ok(_) => panic!("expected generation mismatch, got a store"),
    }
}

#[test]
fn corrupt_checkpoint_refuses_to_open() {
    let scratch = Scratch::new("badckpt");
    {
        let (store, rec) = Store::open(&scratch.0, DurabilityMode::None).expect("open");
        let engine = boot(&store, rec);
        commit_write(&engine, ObjId(0), 2);
        store.rotate().expect("rotate");
        store.close();
    }
    let ckpt_path = scratch.0.join(CKPT_FILE);
    let mut bytes = std::fs::read(&ckpt_path).expect("read ckpt");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&ckpt_path, &bytes).expect("corrupt ckpt");
    match Store::open(&scratch.0, DurabilityMode::None) {
        Err(StoreError::CorruptCheckpoint(_)) => {}
        Err(other) => panic!("expected corrupt-checkpoint error, got {other}"),
        Ok(_) => panic!("expected corrupt-checkpoint error, got a store"),
    }
}

mod record_roundtrip_props {
    //! Property tests over the frame codec driven through real files:
    //! random record sequences written through a [`Store`]-level WAL
    //! survive an encode/decode round trip, and any truncation decodes a
    //! prefix (never an error mid-file, never a panic).

    use nt_store::{decode_stream, FileKind, Record};
    use proptest::prelude::*;

    fn arb_action() -> impl Strategy<Value = nt_model::Action> {
        use nt_model::{Action, ObjId, TxId, Value};
        prop_oneof![
            (1u32..2000).prop_map(|t| Action::RequestCreate(TxId(t))),
            (1u32..2000).prop_map(|t| Action::Create(TxId(t))),
            ((1u32..2000), any::<i64>())
                .prop_map(|(t, v)| Action::RequestCommit(TxId(t), Value::Int(v))),
            (1u32..2000).prop_map(|t| Action::Commit(TxId(t))),
            (1u32..2000).prop_map(|t| Action::Abort(TxId(t))),
            (1u32..2000).prop_map(|t| Action::ReportCommit(TxId(t), Value::Ok)),
            (1u32..2000).prop_map(|t| Action::ReportAbort(TxId(t))),
            ((0u32..64), (1u32..2000)).prop_map(|(x, t)| Action::InformCommit(ObjId(x), TxId(t))),
            ((0u32..64), (1u32..2000)).prop_map(|(x, t)| Action::InformAbort(ObjId(x), TxId(t))),
        ]
    }

    fn arb_record() -> impl Strategy<Value = Record> {
        use nt_model::{ObjId, Op, TxId};
        prop_oneof![
            ((1u64..10), (0u64..1_000_000)).prop_map(|(gen, covers)| Record::Header {
                kind: FileKind::Wal,
                gen,
                covers_stamp: covers,
            }),
            ((2u32..2000), (0u32..64), any::<i64>()).prop_map(|(t, x, d)| Record::TreeAdd {
                t: TxId(t),
                parent: TxId(t - 1),
                access: Some((ObjId(x), Op::Write(d))),
            }),
            ((2u32..2000), (0u32..64)).prop_map(|(t, x)| Record::TreeAdd {
                t: TxId(t),
                parent: TxId(t / 2),
                access: Some((ObjId(x), Op::Read)),
            }),
            (any::<u64>(), arb_action()).prop_map(|(stamp, action)| Record::Act { stamp, action }),
            (any::<u64>(), prop::collection::vec(any::<u8>(), 0..48))
                .prop_map(|(seq, resp)| Record::Cache { seq, resp }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_record_streams_round_trip(
            recs in prop::collection::vec(arb_record(), 1..24),
        ) {
            let mut bytes = Vec::new();
            for r in &recs {
                bytes.extend_from_slice(&r.encode_frame().expect("encode"));
            }
            let decoded = decode_stream(&bytes);
            prop_assert!(decoded.torn.is_none());
            prop_assert_eq!(decoded.valid_len, bytes.len());
            prop_assert_eq!(&decoded.records, &recs);
        }

        #[test]
        fn random_truncations_decode_a_prefix(
            recs in prop::collection::vec(arb_record(), 1..12),
            cut_seed in any::<u64>(),
        ) {
            let mut bytes = Vec::new();
            let mut boundaries = vec![0usize];
            for r in &recs {
                bytes.extend_from_slice(&r.encode_frame().expect("encode"));
                boundaries.push(bytes.len());
            }
            let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
            let decoded = decode_stream(&bytes[..cut]);
            // The valid prefix is a frame boundary at or before the cut,
            // and the records are exactly those fully inside it.
            prop_assert!(boundaries.contains(&decoded.valid_len));
            prop_assert!(decoded.valid_len <= cut);
            let n = boundaries.iter().filter(|&&b| b > 0 && b <= decoded.valid_len).count();
            prop_assert_eq!(&decoded.records[..], &recs[..n]);
            prop_assert_eq!(decoded.torn.is_some(), decoded.valid_len != cut);
        }
        #[test]
        fn extents_written_through_a_store_cut_anywhere_decode_whole_extents_only(
            rounds in prop::collection::vec(prop::collection::vec(arb_record(), 1..6), 3..6),
            flip_seed in any::<u64>(),
        ) {
            // Each round is staged and handed over by one barrier: the
            // file is the header frame plus one multi-record extent per
            // round.
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let scratch = super::Scratch::new(&format!("extent-prop-{case}"));
            let (store, _rec) = nt_store::Store::open(&scratch.0, nt_engine::DurabilityMode::None)
                .expect("open");
            let mut whole: Vec<Record> = vec![Record::Header {
                kind: FileKind::Wal,
                gen: 1,
                covers_stamp: 0,
            }];
            // (end offset of the extent, records decoded up to it)
            let mut extents = vec![(26usize, 1usize)];
            for round in &rounds {
                for r in round {
                    store.wal().append(r);
                }
                store.wait_durable().expect("barrier");
                whole.extend(round.iter().cloned());
                let (len, _, _) = store.wal().snapshot_extent().expect("extent");
                extents.push((len as usize, whole.len()));
            }
            let bytes = std::fs::read(scratch.0.join(nt_store::WAL_FILE)).expect("read wal");
            prop_assert_eq!(bytes.len(), extents.last().expect("extents").0);
            prop_assert_eq!(store.wal().counters().extents as usize, rounds.len());

            for cut in 0..=bytes.len() {
                let decoded = decode_stream(&bytes[..cut]);
                let (valid, n) = extents
                    .iter()
                    .rev()
                    .find(|(end, _)| *end <= cut)
                    .copied()
                    .unwrap_or((0, 0));
                prop_assert_eq!(decoded.valid_len, valid, "cut at {}", cut);
                prop_assert_eq!(&decoded.records[..], &whole[..n], "cut at {}", cut);
                prop_assert_eq!(decoded.torn.is_some(), valid != cut, "cut at {}", cut);
            }

            // One flipped bit rejects the whole extent it lands in (and,
            // decoding being front to back, everything behind it).
            let byte = (flip_seed % bytes.len() as u64) as usize;
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << ((flip_seed >> 32) % 8);
            let decoded = decode_stream(&corrupt);
            let (valid, n) = extents
                .iter()
                .rev()
                .find(|(end, _)| *end <= byte)
                .copied()
                .unwrap_or((0, 0));
            prop_assert!(decoded.torn.is_some());
            prop_assert_eq!(decoded.valid_len, valid);
            prop_assert_eq!(&decoded.records[..], &whole[..n]);
        }
    }
}
