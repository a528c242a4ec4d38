//! Wait-for-graph deadlock detector (a dedicated thread) and the run
//! watchdog.
//!
//! Every `detector_period_us` the detector snapshots the lock table's
//! wait-for relation, collapses it to *top-level groups* (deadlock in this
//! engine is always between top-level subtrees — each subtree runs
//! depth-first on one worker, so there is no intra-subtree waiting), and
//! looks for a cycle. For one cycle edge it dooms a single victim: the
//! lowest (deepest) incomplete transaction on the blocking lockholder's
//! ancestor chain — the same policy the simulator's deadlock module uses —
//! claimed through the status table's CAS so a racing commit wins cleanly.
//!
//! The doomed victim is always an ancestor-or-self of a transaction some
//! worker is actively executing (held locks lie on that worker's current
//! depth-first path), so the victim's worker notices the doom when the
//! sweep resolves its queued acquire, or at its next slot boundary or
//! commit attempt, unwinds to the victim's frame, aborts it there, and —
//! when retry is configured — hands the slot to the `nt-faults` backoff
//! machinery.

use crate::locktable::LockTable;
use crate::status::StatusTable;
use crate::tree_view::TreeView;
use nt_model::TxId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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

/// What the detector thread did over the whole run.
#[derive(Debug, Default)]
pub struct DetectorOutcome {
    /// Scan passes performed.
    pub passes: u64,
    /// Victims doomed, in doom order.
    pub victims: Vec<Victim>,
    /// True iff the wall-clock watchdog fired and the run was abandoned.
    pub gave_up: bool,
}

/// The detector thread body: scan every `period` until `stop` is set.
/// Also hosts the watchdog — after `max_wall` the whole run is abandoned
/// (every incomplete top-level transaction is doomed and the lock table is
/// put into give-up mode).
#[allow(clippy::too_many_arguments)] // one call site, in run_plan
pub fn detect_loop<T: TreeView>(
    tree: &T,
    status: &StatusTable,
    table: &LockTable<T>,
    top: &[TxId],
    period: Duration,
    max_wall: Duration,
    start: Instant,
    stop: &AtomicBool,
) -> DetectorOutcome {
    let mut out = DetectorOutcome::default();
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(period);
        if stop.load(Ordering::Acquire) {
            break;
        }
        out.passes += 1;
        if !out.gave_up && start.elapsed() >= max_wall {
            out.gave_up = true;
            for &t in top {
                if !status.is_complete(t) {
                    status.mark_doomed(t);
                }
            }
            table.give_up();
            continue;
        }
        if let Some(victim) = scan_once(tree, status, table) {
            out.victims.push(victim);
            table.doom_sweep();
        }
    }
    out
}

/// One detector pass: snapshot, build the group-level wait-for graph, doom
/// at most one victim. Public so tests can drive the detector manually.
pub fn scan_once<T: TreeView, U: TreeView>(
    tree: &T,
    status: &StatusTable,
    table: &LockTable<U>,
) -> Option<Victim> {
    let snapshot = table.waiting_snapshot();
    if snapshot.is_empty() {
        return None;
    }
    // Group-level edges gw -> gb, each remembering one concrete
    // (waiter, blocker) witness pair.
    let mut edges: BTreeMap<TxId, BTreeMap<TxId, (TxId, TxId)>> = BTreeMap::new();
    for edge in &snapshot {
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
    // chain. Try each edge until one doom CAS lands (a racing commit may
    // have dissolved part of the cycle since the snapshot).
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
