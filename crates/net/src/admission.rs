//! The static admission gate's ledger: declared read/write summaries of
//! the live top-level transactions, and the component-weight rule that
//! decides whether one more declared top could close a serialization
//! cycle.
//!
//! This is the wire-facing counterpart of `nt-lint`'s potential conflict
//! graph. A `BEGIN_TOP_DECLARED` request carries the objects the top may
//! read and may write; two declared tops *conflict on* an object when one
//! writes it and the other touches it at all. The ledger maintains the
//! graph whose nodes are the live declared tops and whose edge between
//! `A` and `B` is weighted by the number of conflict objects they share,
//! and admits a candidate iff the connected component it would join has
//! total conflict weight `< 2`.
//!
//! Why `< 2` and not "no conflicts at all": the analyzer's refined cycle
//! criterion. A component whose total conflict weight is 1 is a single
//! conflict pair on a single object — both serialization-edge
//! orientations exist, but they are mutually exclusive in any one
//! schedule, so no cycle can form and Moss locking serializes the pair
//! dynamically. Two conflict units in one component (one pair sharing two
//! objects, or a chain of two single-object pairs) is exactly the shape
//! whose orientations can disagree — the classic `A→B` on `X`, `B→A` on
//! `Y` cycle — so those are refused *before* any lock is acquired. Every
//! admitted set of tops therefore has component weight ≤ 1, which keeps
//! admission sound by induction: the check only ever compares the
//! candidate's would-be component.
//!
//! The argument needs every conflict a declared top takes part in to be
//! one its declaration names — the dynamic serialization graph over
//! admitted tops is then a subgraph of a weight-≤-1 component forest,
//! hence acyclic. So the server enforces the declaration rather than
//! trusting it: with the gate on, an `ACCESS` under a declared top may
//! write only a declared write object and read only a declared object
//! ([`AdmissionLedger::check_access`]); anything else is refused with
//! `STATIC_GATE` before the access registers or takes a lock. Tops begun
//! with plain `BEGIN_TOP` declare nothing and are not checked.

use std::collections::{BTreeMap, BTreeSet};

/// A declared access summary: which objects a top may read and write.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeclaredSets {
    /// Objects the top may read.
    pub reads: BTreeSet<u32>,
    /// Objects the top may write.
    pub writes: BTreeSet<u32>,
}

impl DeclaredSets {
    /// Build a summary from slices (duplicates collapse).
    pub fn new(reads: &[u32], writes: &[u32]) -> DeclaredSets {
        DeclaredSets {
            reads: reads.iter().copied().collect(),
            writes: writes.iter().copied().collect(),
        }
    }

    /// Objects on which `self` and `other` conflict: one writes while
    /// the other touches (read-read pairs commute).
    pub fn conflict_objects(&self, other: &DeclaredSets) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        for &x in &self.writes {
            if other.reads.contains(&x) || other.writes.contains(&x) {
                out.insert(x);
            }
        }
        for &x in &other.writes {
            if self.reads.contains(&x) || self.writes.contains(&x) {
                out.insert(x);
            }
        }
        out
    }
}

/// The live declared tops, keyed by transaction id.
#[derive(Debug, Default)]
pub struct AdmissionLedger {
    live: BTreeMap<u32, DeclaredSets>,
}

impl AdmissionLedger {
    /// An empty ledger.
    pub fn new() -> AdmissionLedger {
        AdmissionLedger::default()
    }

    /// Live declared tops.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no declared top is live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Decide whether a top declaring `cand` may start now. `Ok(())`
    /// admits; `Err(msg)` names the conflicting live tops and objects.
    /// The caller must hold whatever lock guards the ledger across the
    /// check *and* the subsequent [`record`](Self::record), or two
    /// concurrent admissions could jointly exceed the weight bound.
    pub fn check(&self, cand: &DeclaredSets) -> Result<(), String> {
        // Membership first: BFS the candidate's would-be component over
        // the live tops (an edge is any non-empty conflict-object set).
        let mut component: Vec<(u32, &DeclaredSets)> = Vec::new();
        let mut in_component: BTreeSet<u32> = BTreeSet::new();
        let mut frontier: Vec<&DeclaredSets> = vec![cand];
        while let Some(sets) = frontier.pop() {
            for (&id, live) in &self.live {
                if in_component.contains(&id) || sets.conflict_objects(live).is_empty() {
                    continue;
                }
                in_component.insert(id);
                component.push((id, live));
                frontier.push(live);
            }
        }
        // Then weigh every edge of that component exactly once:
        // candidate–live edges plus live–live edges among the members.
        let mut weight = 0usize;
        let mut detail: Vec<String> = Vec::new();
        let mut nodes: Vec<(String, &DeclaredSets)> = vec![("candidate".to_string(), cand)];
        nodes.extend(component.iter().map(|&(id, s)| (format!("T{id}"), s)));
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                let objs = nodes[i].1.conflict_objects(nodes[j].1);
                if objs.is_empty() {
                    continue;
                }
                weight += objs.len();
                let named: Vec<String> = objs.iter().map(|x| format!("X{x}")).collect();
                detail.push(format!(
                    "{} vs {} on {}",
                    nodes[i].0,
                    nodes[j].0,
                    named.join(", ")
                ));
            }
        }
        if weight >= 2 {
            return Err(format!(
                "declared sets would join a component with conflict weight {weight} \
                 (>= 2 can close a serialization cycle): {}",
                detail.join("; ")
            ));
        }
        Ok(())
    }

    /// Decide whether an access to `obj` (a write when `write`) under the
    /// top `tx` stays inside what `tx` declared: a write needs a declared
    /// write object, a read any declared object. `Ok(())` also for a top
    /// that declared nothing; `Err(msg)` names the top, the access and the
    /// declaration it falls outside.
    pub fn check_access(&self, tx: u32, obj: u32, write: bool) -> Result<(), String> {
        match self.live.get(&tx) {
            Some(sets) if !sets.writes.contains(&obj) && (write || !sets.reads.contains(&obj)) => {
                let named = |objs: &BTreeSet<u32>| {
                    let xs: Vec<String> = objs.iter().map(|x| format!("X{x}")).collect();
                    format!("{{{}}}", xs.join(", "))
                };
                Err(format!(
                    "a {} of X{obj} under T{tx} is outside its declaration \
                     (reads {}, writes {})",
                    if write { "write" } else { "read" },
                    named(&sets.reads),
                    named(&sets.writes)
                ))
            }
            _ => Ok(()),
        }
    }

    /// Record an admitted top under its transaction id.
    pub fn record(&mut self, tx: u32, sets: DeclaredSets) {
        self.live.insert(tx, sets);
    }

    /// Forget a top (committed, aborted, or its connection closed).
    /// Idempotent; ids that never declared are ignored.
    pub fn release(&mut self, tx: u32) {
        self.live.remove(&tx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(objs: &[u32]) -> DeclaredSets {
        DeclaredSets::new(&[], objs)
    }

    #[test]
    fn single_shared_object_is_admitted() {
        let mut l = AdmissionLedger::new();
        l.record(1, w(&[0, 1]));
        // One conflict object: Moss locking serializes the pair.
        assert!(l.check(&w(&[0])).is_ok());
        assert!(l.check(&DeclaredSets::new(&[1], &[])).is_ok());
        // Disjoint: trivially fine.
        assert!(l.check(&w(&[2, 3])).is_ok());
    }

    #[test]
    fn two_shared_objects_are_refused() {
        let mut l = AdmissionLedger::new();
        l.record(1, w(&[0, 1]));
        let err = l.check(&w(&[0, 1])).expect_err("crossing writes");
        assert!(err.contains("weight 2"), "{err}");
        assert!(err.contains("T1"), "{err}");
        assert!(err.contains("X0") && err.contains("X1"), "{err}");
        // A read on the second object still conflicts with the write.
        assert!(l.check(&DeclaredSets::new(&[1], &[0])).is_err());
        // Read-read on both objects commutes: admitted.
        l.release(1);
        l.record(1, DeclaredSets::new(&[0, 1], &[]));
        assert!(l.check(&DeclaredSets::new(&[0, 1], &[])).is_ok());
    }

    #[test]
    fn chains_accumulate_component_weight() {
        let mut l = AdmissionLedger::new();
        l.record(1, w(&[0]));
        l.record(2, w(&[0, 1]));
        // T1–T2 share X0 (weight 1, admitted at the time). A candidate
        // touching X1 joins that component and lifts it to weight 2.
        let err = l.check(&w(&[1])).expect_err("closing the chain");
        assert!(err.contains("weight 2"), "{err}");
        // Releasing the middle breaks the chain.
        l.release(2);
        assert!(l.check(&w(&[1])).is_ok());
    }

    #[test]
    fn accesses_must_stay_inside_the_declaration() {
        let mut l = AdmissionLedger::new();
        l.record(1, DeclaredSets::new(&[0], &[1]));
        // Writes only to declared write objects; reads to any declared one.
        assert!(l.check_access(1, 1, true).is_ok());
        assert!(l.check_access(1, 1, false).is_ok());
        assert!(l.check_access(1, 0, false).is_ok());
        let err = l
            .check_access(1, 0, true)
            .expect_err("write to a read object");
        assert!(err.contains("write of X0 under T1"), "{err}");
        assert!(err.contains("reads {X0}, writes {X1}"), "{err}");
        assert!(l.check_access(1, 2, false).is_err(), "undeclared object");
        // An undeclared top is not the gate's business.
        assert!(l.check_access(2, 7, true).is_ok());
        l.release(1);
        assert!(l.check_access(1, 0, true).is_ok());
    }

    #[test]
    fn release_is_idempotent_and_reopens_admission() {
        let mut l = AdmissionLedger::new();
        l.record(7, w(&[0, 1]));
        assert!(l.check(&w(&[0, 1])).is_err());
        l.release(7);
        l.release(7);
        assert!(l.is_empty());
        assert!(l.check(&w(&[0, 1])).is_ok());
    }
}
