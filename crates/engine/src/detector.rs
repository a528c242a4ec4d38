//! Wait-for-graph deadlock detection: one pass ([`convict`]) over the
//! lock table's queued requests. There is one loop that runs it — the
//! lock table's `detect`, run in the critical section whose request just
//! queued and repeated until a pass finds no cycle — and tests drive
//! single passes by hand.
//!
//! A pass reads the wait-for relation, one consistent cut of every queue
//! taken under the engine lock, collapses it to
//! *top-level groups* (a session drives each of its subtrees depth-first,
//! so there is no intra-subtree waiting and deadlock is always between
//! top-level subtrees), and looks for a cycle. For one cycle edge it dooms
//! a single victim: the lowest (deepest) incomplete transaction on the
//! blocking lockholder's ancestor chain — the same policy the simulator's
//! deadlock module uses — claimed through the status table's CAS so a
//! racing commit wins cleanly.
//!
//! The doomed victim is always an ancestor-or-self of a transaction some
//! session is actively executing (held locks lie on that session's current
//! depth-first path), so its session notices the doom when the sweep
//! resolves its queued acquire, or at its next operation on the victim's
//! subtree, aborts the subtree there, and reports `Aborted(victim)` to
//! its caller — who may retry (the plan driver hands the slot to the
//! `nt-faults` backoff machinery).

use crate::locktable::WaitEdge;
use crate::status::StatusTable;
use crate::tree_view::TreeView;
use nt_model::TxId;
use std::collections::BTreeMap;

/// One doomed deadlock victim, with the wait-for edge that convicted it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// The transaction the detector doomed.
    pub victim: TxId,
    /// The parked access whose wait-for edge closed the cycle.
    pub waiter: TxId,
    /// The lockholder blocking `waiter`; `victim` is its lowest incomplete
    /// ancestor-or-self.
    pub blocker: TxId,
}

/// One detector pass: build the group-level wait-for graph of `waits`,
/// doom at most one victim.
pub(crate) fn convict<T: TreeView>(
    tree: &T,
    status: &StatusTable,
    waits: &[WaitEdge],
) -> Option<Victim> {
    if waits.is_empty() {
        return None;
    }
    // Group-level edges gw -> gb, each remembering one concrete
    // (waiter, blocker) witness pair.
    let mut edges: BTreeMap<TxId, BTreeMap<TxId, (TxId, TxId)>> = BTreeMap::new();
    for edge in waits {
        let gw = tree.child_toward(TxId::ROOT, edge.waiter);
        for &b in &edge.blockers {
            let gb = tree.child_toward(TxId::ROOT, b);
            if gw != gb {
                edges
                    .entry(gw)
                    .or_default()
                    .entry(gb)
                    .or_insert((edge.waiter, b));
            }
        }
    }
    let cycle = find_cycle(&edges)?;
    // Doom the lowest incomplete transaction on a cycle edge's blocker
    // chain. Try each edge until one doom CAS lands (a commit that
    // already passed its status CAS may have completed a blocker).
    for (waiter, blocker) in cycle {
        let mut cur = Some(blocker);
        while let Some(u) = cur {
            if u == TxId::ROOT {
                break;
            }
            if !status.is_complete(u) && status.mark_doomed(u) {
                return Some(Victim {
                    victim: u,
                    waiter,
                    blocker,
                });
            }
            cur = tree.parent(u);
        }
    }
    None
}

/// Find one cycle in the group graph; returns the witness (waiter,
/// blocker) pairs of the edges along it.
fn find_cycle(edges: &BTreeMap<TxId, BTreeMap<TxId, (TxId, TxId)>>) -> Option<Vec<(TxId, TxId)>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<TxId, Color> = edges.keys().map(|&n| (n, Color::White)).collect();
    // Iterative DFS keeping the gray path so the cycle can be read back.
    for &root in edges.keys() {
        if color[&root] != Color::White {
            continue;
        }
        // Stack of (node, iterator position into its successors).
        let mut path: Vec<(TxId, usize)> = vec![(root, 0)];
        *color.get_mut(&root).expect("known node") = Color::Gray;
        while let Some(&mut (node, ref mut pos)) = path.last_mut() {
            let succs: Vec<TxId> = edges
                .get(&node)
                .map(|m| m.keys().copied().collect())
                .unwrap_or_default();
            if *pos >= succs.len() {
                color.insert(node, Color::Black);
                path.pop();
                continue;
            }
            let next = succs[*pos];
            *pos += 1;
            match color.get(&next).copied().unwrap_or(Color::Black) {
                Color::Gray => {
                    // Back edge: the cycle is the path suffix from `next`
                    // through `node`, closed by node -> next.
                    let from = path
                        .iter()
                        .position(|&(n, _)| n == next)
                        .expect("gray node is on the path");
                    let mut nodes: Vec<TxId> = path[from..].iter().map(|&(n, _)| n).collect();
                    nodes.push(next);
                    let witnesses = nodes.windows(2).map(|w| edges[&w[0]][&w[1]]).collect();
                    return Some(witnesses);
                }
                Color::White => {
                    color.insert(next, Color::Gray);
                    path.push((next, 0));
                }
                Color::Black => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_cycle_sees_two_party_cycle() {
        let a = TxId(1);
        let b = TxId(2);
        let wa = TxId(10);
        let wb = TxId(20);
        let mut edges: BTreeMap<TxId, BTreeMap<TxId, (TxId, TxId)>> = BTreeMap::new();
        edges.entry(a).or_default().insert(b, (wa, TxId(21)));
        edges.entry(b).or_default().insert(a, (wb, TxId(11)));
        let cycle = find_cycle(&edges).expect("cycle exists");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&(wa, TxId(21))));
        assert!(cycle.contains(&(wb, TxId(11))));
    }

    #[test]
    fn find_cycle_ignores_dags() {
        let mut edges: BTreeMap<TxId, BTreeMap<TxId, (TxId, TxId)>> = BTreeMap::new();
        edges
            .entry(TxId(1))
            .or_default()
            .insert(TxId(2), (TxId(10), TxId(20)));
        edges
            .entry(TxId(2))
            .or_default()
            .insert(TxId(3), (TxId(20), TxId(30)));
        assert_eq!(find_cycle(&edges), None);
    }
}
