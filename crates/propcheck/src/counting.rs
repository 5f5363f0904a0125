//! A counting global allocator, for tests that hold a path to an
//! allocation budget.
//!
//! It lives here, in a test-only crate, so the libraries under test keep
//! `forbid(unsafe_code)`. A test binary installs it with
//! `#[global_allocator] static GLOBAL: Counting = Counting;` and measures
//! with [`allocated`]. Counts are per thread — `cargo test` runs tests on
//! parallel threads — and are a function of the code and its inputs, not
//! of the host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting what each thread requests of it.
pub struct Counting;

fn count(bytes: usize) {
    // A thread being torn down has nobody left to report to.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns; the counters are plain thread-local
// cells, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// What `f` returns, and the allocations and bytes this thread requested
/// while it ran (zeros unless [`Counting`] is the global allocator).
pub fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCATIONS.get(), BYTES.get());
    let out = f();
    (out, ALLOCATIONS.get() - before.0, BYTES.get() - before.1)
}
