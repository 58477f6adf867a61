//! Per-thread heap-allocation counting for allocation audits.
//!
//! A binary or test target that installs [`CountingAlloc`] as its
//! `#[global_allocator]` can read [`thread_allocs`] before and after a
//! measured window. The count is per thread: libtest runs a file's tests
//! on parallel threads, and a process-wide count would charge one test's
//! window with its neighbours' allocations. Without the allocator
//! installed, [`thread_allocs`] stays 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread count of `alloc` and `realloc`
/// calls.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations (including reallocations) made so far on the calling
/// thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}
