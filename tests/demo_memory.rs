//! Heap held per tick by recording and by replay, counted by a global
//! allocator.
//!
//! A demo's QUEUE stream has one 8-byte next-tick entry per critical
//! section, so it dominates the heap of a long run. The recorder writes
//! that stream in place, in one vector whose doubling growth reaches at
//! most twice its length: 16 bytes per tick. A replay reads the caller's
//! demo through shared streams and cursors, so it adds no per-tick heap
//! of its own; a copied QUEUE alone would add 8 bytes per tick.
//!
//! The whole file is one test: the counters are process-wide, and a
//! second test running beside it would count into them.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use sparse_rr::apps::harness::Tool;
use sparse_rr::tsan11rec::{sys, thread, Execution};
use sparse_rr::{Atomic, MemOrder};

// Statistics only: no other data is published through these counters.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(now, Relaxed);
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

/// Runs `f`; returns its result and the most heap it held at once
/// beyond what was live when it started.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - start)
}

/// Visible operations of the main thread and of its worker, and how
/// often each issues a recorded syscall instead. The run's ticks land
/// just past 2^17, where the recorder's QUEUE vector has just doubled:
/// the worst case for the record bound.
const MAIN_OPS: u64 = 130_000;
const WORKER_OPS: u64 = 1_200;
const CALL_EVERY: [u64; 2] = [500, 40];

fn work(counter: &Atomic<u64>, ops: u64, call_every: u64) {
    for i in 0..ops {
        if i % call_every == 0 {
            let _ = sys::clock_gettime();
        } else {
            counter.fetch_add(1, MemOrder::Relaxed);
        }
    }
}

/// The main thread and one worker, both doing visible operations with
/// recorded syscalls among them.
fn program() -> impl FnOnce() + Send + 'static {
    || {
        let counter = Arc::new(Atomic::new(0u64));
        let other = Arc::clone(&counter);
        let worker = thread::spawn(move || work(&other, WORKER_OPS, CALL_EVERY[1]));
        work(&counter, MAIN_OPS, CALL_EVERY[0]);
        worker.join();
    }
}

#[test]
fn record_and_replay_heap_per_tick() {
    let tool = Tool::QueueRec;
    let ((recorded, demo), record_peak) =
        peak_above_start(|| Execution::new(tool.config([3, 5])).record(program()));
    assert!(recorded.outcome.is_ok(), "{:?}", recorded.outcome);
    let ticks = recorded.ticks as usize;
    assert!(ticks > 1 << 17, "{ticks} ticks");
    assert_eq!(demo.queue.next_ticks.len(), ticks);
    assert!(
        demo.syscalls.len() >= 250,
        "{} syscalls",
        demo.syscalls.len()
    );

    let (replayed, replay_peak) =
        peak_above_start(|| Execution::new(tool.config([3, 5])).replay(&demo, program()));
    assert!(replayed.outcome.is_ok(), "{:?}", replayed.outcome);
    assert_eq!(replayed.ticks, recorded.ticks);
    assert_eq!(replayed.replay_leftover_syscalls, 0);

    let per_tick = |bytes: usize| bytes as f64 / ticks as f64;
    println!(
        "{ticks} ticks, {} syscalls: record peak {} B ({:.2} B/tick), replay peak {} B ({:.2} B/tick)",
        demo.syscalls.len(),
        record_peak,
        per_tick(record_peak),
        replay_peak,
        per_tick(replay_peak)
    );
    assert!(
        per_tick(record_peak) <= 17.0,
        "recording held {record_peak} B over {ticks} ticks"
    );
    assert!(
        per_tick(replay_peak) < 1.0,
        "replay held {replay_peak} B beyond the demo over {ticks} ticks"
    );
}
