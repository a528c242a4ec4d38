//! Coherent counter snapshots.
//!
//! A struct of independent relaxed atomics cannot be cloned coherently:
//! a reader loading field by field can observe counter B's increment
//! from an update whose counter-A increment it missed (a *torn*
//! snapshot — e.g. `executed > frames` even though every writer bumps
//! `frames` first). [`StatsCell`] fixes this the only way available
//! under `#![forbid(unsafe_code)]` (a true seqlock needs racy reads):
//! all coupled counters live in one `Copy` struct behind a mutex, every
//! update mutates them together under the lock, and a snapshot copies
//! the whole struct under the same lock — so any snapshot equals the
//! state after some exact prefix of updates. A generation stamp counts
//! updates so tests (and metrics readers) can tell snapshots apart and
//! verify progress.
//!
//! The lock is uncontended in practice — updates are a few machine
//! instructions and each connection thread touches disjoint request
//! streams — so this stays "lock-light" rather than lock-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A generation-stamped cell of coupled counters.
pub struct StatsCell<T: Copy> {
    generation: AtomicU64,
    inner: Mutex<T>,
}

impl<T: Copy + Default> Default for StatsCell<T> {
    fn default() -> Self {
        StatsCell::new(T::default())
    }
}

impl<T: Copy> StatsCell<T> {
    /// A cell holding `value` at generation 0.
    pub fn new(value: T) -> StatsCell<T> {
        StatsCell {
            generation: AtomicU64::new(0),
            inner: Mutex::new(value),
        }
    }

    /// Apply one coherent update: every counter the closure touches
    /// changes atomically with respect to [`StatsCell::snapshot`]. The
    /// closure's return value passes through, so callers can read a
    /// just-incremented counter (e.g. a fresh connection id) in the same
    /// critical section.
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self.inner.lock().expect("stats cell poisoned");
        let out = f(&mut guard);
        // Stamped inside the lock so generations and states agree.
        self.generation.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// A coherent copy of the whole counter struct plus the generation
    /// (number of updates) it reflects.
    pub fn snapshot(&self) -> (u64, T) {
        let guard = self.inner.lock().expect("stats cell poisoned");
        (self.generation.load(Ordering::Relaxed), *guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Clone, Copy, Default)]
    struct Pair {
        frames: u64,
        executed: u64,
    }

    #[test]
    fn generation_counts_updates() {
        let cell = StatsCell::new(Pair::default());
        cell.update(|p| p.frames += 1);
        cell.update(|p| {
            p.frames += 1;
            p.executed += 1;
        });
        let (generation, p) = cell.snapshot();
        assert_eq!(generation, 2);
        assert_eq!((p.frames, p.executed), (2, 1));
    }

    #[test]
    fn snapshots_never_tear_under_concurrent_load() {
        // Writers maintain the invariant executed == frames by updating
        // both in one coherent update; field-by-field atomic clones (the
        // bug this replaces) can observe executed > frames.
        let cell = Arc::new(StatsCell::new(Pair::default()));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let cell = cell.clone();
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        cell.update(|p| {
                            p.frames += 1;
                            p.executed += 1;
                        });
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let cell = cell.clone();
                std::thread::spawn(move || {
                    let mut last_generation = 0;
                    for _ in 0..20_000 {
                        let (generation, p) = cell.snapshot();
                        assert_eq!(p.frames, p.executed, "torn snapshot");
                        assert_eq!(p.frames, generation, "state/generation mismatch");
                        assert!(generation >= last_generation, "generation regressed");
                        last_generation = generation;
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        let (generation, p) = cell.snapshot();
        assert_eq!(generation, 80_000);
        assert_eq!(p.frames, 80_000);
    }
}
