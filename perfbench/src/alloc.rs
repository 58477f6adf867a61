//! Allocation counting from outside the program: the benchmark's global
//! allocator bumps a per-thread counter, so a measured window on one
//! thread counts only that thread's allocations (a process-wide atomic
//! would also count any other thread's).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread allocation count.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` keeps allocations made during thread teardown safe.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations (including reallocations) made so far on this thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_only() {
        let before = thread_allocs();
        let other = std::thread::spawn(|| {
            let v: Vec<Vec<u8>> = (0..1000).map(|i| vec![0u8; i + 1]).collect();
            v.len()
        });
        let mine: Vec<Box<u64>> = (0..10).map(Box::new).collect();
        assert_eq!(other.join().unwrap(), 1000);
        let counted = thread_allocs() - before;
        assert!(mine.len() == 10 && counted >= 10, "counted {counted}");
        assert!(counted < 1000, "other thread leaked in: {counted}");
    }
}
