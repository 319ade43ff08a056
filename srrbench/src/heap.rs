//! Live heap bytes of the whole process, counted by a global allocator
//! that forwards every call to the system allocator.
//!
//! The benchmark's memory metric is the median over iterations of the
//! most live heap during the iteration. The peak resident set (`VmHWM`)
//! of a run cannot serve: `httpd`'s polling loops make its work follow
//! timing, and glibc keeps what each run's allocation pattern leaves. In
//! one set of ten seeds, `VmHWM` spread 0.12 on `httpd` (5.1–6.9 MB),
//! 0.035 on `explore_barrier` and 0.047 on `predict_hazards`, more than a
//! 0.10 bound holds; the median live-heap peak of the same runs spread
//! 0.010, 0.001 and 0.000. With ten alternating pairs per workload, the
//! median iteration with this allocator was within 0.1% of the one with
//! the system allocator alone.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

// Statistics only: no other data is published through these counters.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Relaxed) + by;
    // A plain load first: most allocations set no new peak, and then
    // cost one read-modify-write, not two.
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are updated
// only after a call succeeded and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Starts a new peak at the current live heap.
pub(crate) fn restart_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The most live heap bytes since the last [`restart_peak`].
pub(crate) fn peak() -> usize {
    PEAK.load(Relaxed)
}
