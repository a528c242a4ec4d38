//! A mount refuses a WAL whose β breaks Theorem 8's hypothesis. Each test
//! writes a hand-built log — a header, one `TreeAdd` per transaction, one
//! `Act` per stamp — whose β is a behavior of the simple system, and
//! `Store::open` must answer `CertificationFailed`:
//!
//! * two tops whose accesses to `x` and `y` cross close a root cycle in
//!   `SG(β)`, though every return value is appropriate — the gate's
//!   replay must refuse it;
//! * one read returns a value that no visible write produced — the
//!   gate's return-value stage must refuse it, since one top alone draws
//!   no cycle.

use nt_engine::DurabilityMode;
use nt_model::{Action, ObjId, Op, TxId, Value};
use nt_store::{FileKind, Record, Store, StoreError, WAL_FILE};
use std::path::PathBuf;

/// A per-test scratch dir (fresh on entry, removed on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("nt-planted-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A transaction of the planted tree: its parent and, for an access, its
/// object and operation. `TxId(i + 1)` is `nodes[i]`.
type Node = (TxId, Option<(ObjId, Op)>);

/// The actions of one committed top or access `t` that returns `v`,
/// around `body` (a top's children), as the engine records them.
fn committed(t: TxId, v: Value, body: Vec<Action>) -> Vec<Action> {
    let mut acts = vec![Action::RequestCreate(t), Action::Create(t)];
    acts.extend(body);
    acts.extend([
        Action::RequestCommit(t, v.clone()),
        Action::Commit(t),
        Action::ReportCommit(t, v),
    ]);
    acts
}

/// Write `nodes` and `beta` as one WAL (each `TreeAdd` just before its
/// transaction's first action) and mount it.
fn mount(name: &str, nodes: &[Node], beta: &[Action]) -> Result<(), StoreError> {
    let scratch = Scratch::new(name);
    let mut records = vec![Record::Header {
        kind: FileKind::Wal,
        gen: 1,
        covers_stamp: 0,
    }];
    let mut added = 0;
    for (stamp, action) in beta.iter().enumerate() {
        if let Action::RequestCreate(t) = *action {
            while added < t.0 as usize {
                let (parent, access) = nodes[added].clone();
                added += 1;
                records.push(Record::TreeAdd {
                    t: TxId(added as u32),
                    parent,
                    access,
                });
            }
        }
        records.push(Record::Act {
            stamp: stamp as u64,
            action: action.clone(),
        });
    }
    let mut bytes = Vec::new();
    for rec in &records {
        rec.encode_frame_into(&mut bytes).expect("encode");
    }
    std::fs::write(scratch.0.join(WAL_FILE), bytes).expect("write wal");
    Store::open(&scratch.0, DurabilityMode::None).map(|_| ())
}

fn refused(result: Result<(), StoreError>, want: &str) {
    match result {
        Err(StoreError::CertificationFailed {
            verdict,
            violations,
        }) => {
            assert_eq!(verdict, want);
            assert_eq!(violations, 1);
        }
        Err(other) => panic!("expected a {want} refusal, got {other}"),
        Ok(()) => panic!("a {want} history mounted"),
    }
}

#[test]
fn a_wal_whose_history_closes_a_two_top_cycle_is_refused() {
    let (x, y) = (ObjId(0), ObjId(1));
    let (a, b) = (TxId(1), TxId(2));
    let (ax, by, bx, ay) = (TxId(3), TxId(4), TxId(5), TxId(6));
    let nodes = [
        (TxId::ROOT, None),
        (TxId::ROOT, None),
        (a, Some((x, Op::Write(1)))),
        (b, Some((y, Op::Write(2)))),
        (b, Some((x, Op::Read))),
        (a, Some((y, Op::Read))),
    ];
    // a writes x before b reads it (a → b); b writes y before a reads it
    // (b → a). Both commit, so each read sees the write it follows.
    let mut beta = vec![
        Action::RequestCreate(a),
        Action::Create(a),
        Action::RequestCreate(b),
        Action::Create(b),
    ];
    beta.extend(committed(ax, Value::Ok, vec![]));
    beta.extend(committed(by, Value::Ok, vec![]));
    beta.extend(committed(bx, Value::Int(1), vec![]));
    beta.extend(committed(ay, Value::Int(2), vec![]));
    for t in [a, b] {
        beta.extend([
            Action::RequestCommit(t, Value::Ok),
            Action::Commit(t),
            Action::ReportCommit(t, Value::Ok),
        ]);
    }
    refused(mount("cycle", &nodes, &beta), "cyclic");
}

#[test]
fn a_wal_whose_read_returns_an_unwritten_value_is_refused() {
    let x = ObjId(0);
    let (a, w, r) = (TxId(1), TxId(2), TxId(3));
    let nodes = [
        (TxId::ROOT, None),
        (a, Some((x, Op::Write(3)))),
        (a, Some((x, Op::Read))),
    ];
    // The read follows a write of 3 in the same top, but returns 7.
    let body = [
        committed(w, Value::Ok, vec![]),
        committed(r, Value::Int(7), vec![]),
    ]
    .concat();
    let beta = committed(a, Value::Ok, body);
    refused(mount("read", &nodes, &beta), "inappropriate_return_values");
}
