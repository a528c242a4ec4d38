//! A counting global allocator: [`Counting`] forwards every call to
//! [`System`] and counts, per thread, the allocations made and the bytes
//! asked for. Work counts are exact where wall time on a shared host is
//! not, so a test can pin what a code path allocates.
//!
//! A test binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: allocshim::Counting = allocshim::Counting;
//! ```
//!
//! and reads [`allocations`] / [`bytes`] on the thread that ran the code
//! it measures (or wraps that code in [`count`]). Nothing in the tree
//! outside tests installs it. Without the install every count stays 0,
//! so a test should first check that [`count`] sees an allocation it
//! makes itself.
//!
//! Like `sigshim` and `pollshim`, this crate is one of the workspace's
//! documented `unsafe` exceptions: implementing `GlobalAlloc` is an
//! `unsafe impl`. The counters are `const`-initialised thread locals of
//! plain `Cell`s, so reading or bumping them never allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The counting allocator (a unit struct: install it as a static).
pub struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // A thread past its thread-local teardown goes uncounted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; counting touches only
// thread-local `Cell`s and never allocates, so no call re-enters the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`, plus the caller's `new_size` bounds.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) made on
/// this thread so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes asked for on this thread so far (a `realloc` counts its new
/// size).
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// What one stretch of code allocated on this thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocation calls.
    pub allocations: u64,
    /// Bytes asked for.
    pub bytes: u64,
}

/// Run `f` and return what it allocated on this thread.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let (a, b) = (allocations(), bytes());
    let r = f();
    let counts = Counts {
        allocations: allocations() - a,
        bytes: bytes() - b,
    };
    (r, counts)
}
