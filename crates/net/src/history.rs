//! The on-wire form of a recorded run: the server's transaction naming
//! tree plus its recorded action history, fetched by clients with
//! [`Request::HistoryFetch`](crate::wire::Request::HistoryFetch) and
//! certified locally with `nt_sgt::certify_recorded`.
//!
//! The encoding is positional: node `i` of the document is `TxId(i + 1)`
//! (`T0` is implicit), so rebuilding the tree by replaying nodes in order
//! reproduces the server's ids exactly — the same invariant
//! `SessionTree::to_tx_tree` relies on. Decoding validates every parent
//! and transaction reference before touching `TxTree` (whose mutators
//! assert), so malformed documents yield typed errors, never panics.
//! Node ops and actions are written by the WAL's codec
//! (`nt_store::record`): an action here has the bytes of the WAL's `Act`
//! record after its stamp.

use crate::wire::WireError;
use nt_model::{Action, ObjId, Op, TxId, TxTree};
use nt_store::record::{
    decode_action, decode_op_arg, encode_action, encode_op_arg, op_tag, put_u32, Reader,
};

const NODE_INNER: u8 = 0;
/// An access node's tag is its op's tag plus `NODE_READ`.
const NODE_READ: u8 = 1;
const NODE_WRITE: u8 = 2;

/// One transaction node: `TxId(index + 1)` in document order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeRec {
    /// The parent transaction (`0` = `T0`).
    pub parent: u32,
    /// The node's operation: `None` for inner transactions, `Some(op)`
    /// for accesses (read/write only).
    pub op: Option<Op>,
    /// The object accessed (meaningful for accesses only).
    pub obj: u32,
}

/// A recorded run in wire form.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistoryDoc {
    /// Number of objects the run named.
    pub objects: u32,
    /// Transaction nodes in id order (excluding `T0`).
    pub nodes: Vec<NodeRec>,
    /// The action history, in recorded sequence order.
    pub actions: Vec<Action>,
}

impl HistoryDoc {
    /// Package a recorded run. Fails on non-read/write access ops (which
    /// the session engine never admits).
    pub fn from_run(tree: &TxTree, actions: &[Action]) -> Result<HistoryDoc, WireError> {
        let mut nodes = Vec::with_capacity(tree.len().saturating_sub(1));
        for i in 1..tree.len() {
            let t = TxId(i as u32);
            let parent = tree.parent(t).expect("non-root has a parent").0;
            let (op, obj) = if tree.is_access(t) {
                let op = tree.op_of(t).expect("access has an op").clone();
                if !matches!(op, Op::Read | Op::Write(_)) {
                    return Err(WireError::BadPayload(format!(
                        "access {t} has non-read/write op {op:?}"
                    )));
                }
                let obj = tree.object_of(t).expect("access has an object").0;
                (Some(op), obj)
            } else {
                (None, 0)
            };
            nodes.push(NodeRec { parent, op, obj });
        }
        Ok(HistoryDoc {
            objects: tree.num_objects() as u32,
            nodes,
            actions: actions.to_vec(),
        })
    }

    /// Rebuild the naming tree and history, validating every reference.
    pub fn into_run(&self) -> Result<(TxTree, Vec<Action>), WireError> {
        let mut tree = TxTree::new();
        tree.add_objects(self.objects as usize);
        for (i, n) in self.nodes.iter().enumerate() {
            let id = TxId((i + 1) as u32);
            let parent = TxId(n.parent);
            if n.parent as usize >= tree.len() {
                return Err(WireError::BadPayload(format!(
                    "node {id}: unknown parent {parent}"
                )));
            }
            if tree.is_access(parent) {
                return Err(WireError::BadPayload(format!(
                    "node {id}: parent {parent} is an access"
                )));
            }
            let got = match &n.op {
                None => tree.add_inner(parent),
                Some(op) => {
                    if n.obj >= self.objects {
                        return Err(WireError::BadPayload(format!(
                            "node {id}: unknown object {}",
                            n.obj
                        )));
                    }
                    tree.add_access(parent, ObjId(n.obj), op.clone())
                }
            };
            debug_assert_eq!(got, id, "positional ids replay identically");
        }
        for a in &self.actions {
            let t = a.subject();
            // Histories open with the paper's CREATE(T0); no other action
            // may name the root.
            if t == TxId::ROOT && !matches!(a, Action::Create(_)) {
                return Err(WireError::BadPayload(format!("{a:?} names the root")));
            }
            if t != TxId::ROOT && t.index() >= tree.len() {
                return Err(WireError::BadPayload(format!(
                    "action names unknown tx {t}"
                )));
            }
            if let Action::InformCommit(x, _) | Action::InformAbort(x, _) = a {
                if x.0 >= self.objects {
                    return Err(WireError::BadPayload(format!(
                        "action names unknown object {}",
                        x.0
                    )));
                }
            }
        }
        Ok((tree, self.actions.clone()))
    }

    /// Append the document's binary form to `out`. An access node is
    /// `parent | NODE_READ + op tag | obj | op argument`: the op's codec
    /// with the object between its tag and its argument. An op outside
    /// the register alphabet is a [`WireError::BadPayload`].
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        put_u32(out, self.objects);
        put_u32(out, self.nodes.len() as u32);
        for n in &self.nodes {
            put_u32(out, n.parent);
            match &n.op {
                None => out.push(NODE_INNER),
                Some(op) => {
                    out.push(NODE_READ + op_tag(op)?);
                    put_u32(out, n.obj);
                    encode_op_arg(out, op);
                }
            }
        }
        put_u32(out, self.actions.len() as u32);
        for a in &self.actions {
            encode_action(out, a)?;
        }
        Ok(())
    }

    /// Decode a document from a payload reader.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<HistoryDoc, WireError> {
        let objects = r.u32()?;
        let nnodes = r.u32()?;
        let mut nodes = Vec::new();
        for _ in 0..nnodes {
            let parent = r.u32()?;
            let (op, obj) = match r.u8()? {
                NODE_INNER => (None, 0),
                tag @ (NODE_READ | NODE_WRITE) => {
                    let obj = r.u32()?;
                    (Some(decode_op_arg(tag - NODE_READ, r)?), obj)
                }
                t => return Err(WireError::BadPayload(format!("node tag {t}"))),
            };
            nodes.push(NodeRec { parent, op, obj });
        }
        let nacts = r.u32()?;
        let mut actions = Vec::new();
        for _ in 0..nacts {
            actions.push(decode_action(r)?);
        }
        Ok(HistoryDoc {
            objects,
            nodes,
            actions,
        })
    }
}
