//! Host cost counted, not timed: a global allocator that counts each
//! thread's heap allocations.
//!
//! A test binary installs it with one line,
//! `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;`, and
//! measures work with [`allocations`]. The count is per thread, and the
//! test harness runs each test on a thread of its own, so a count is one
//! test's alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread under [`CountingAlloc`].
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` against the calling thread.
#[derive(Debug)]
pub struct CountingAlloc;

fn note() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a `const`
// thread-local `Cell` and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size` is
        // the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `work` and returns how many allocations it made on this thread,
/// with its result. Reads 0 unless [`CountingAlloc`] is the binary's
/// global allocator.
pub fn allocations<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = work();
    (ALLOCS.with(Cell::get) - before, out)
}
