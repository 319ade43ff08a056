//! Heap held per tick by recording and by replay, counted by a global
//! allocator.
//!
//! A demo's QUEUE stream names a next tick for every critical section,
//! so held a tick at a time it would dominate the heap of a long run: 8
//! bytes per tick, 16 while a doubling vector grows. The recorder holds
//! it as runs instead, and closes each section through a per-thread
//! index, so a recording holds a few bytes per run, plus its SYSCALL
//! records. A thread parked in `join` leaves its section open for the
//! whole run; the second program checks that this costs the builder one
//! entry, not the whole run. A replay reads the caller's demo through
//! shared streams and cursors, so it adds no per-tick heap of its own.
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
/// just past 2^17, where a QUEUE held a tick each would just have
/// doubled: the worst case for such a stream, and a fair size for runs.
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
fn interleaved() -> Box<dyn FnOnce() + Send> {
    Box::new(|| {
        let counter = Arc::new(Atomic::new(0u64));
        let other = Arc::clone(&counter);
        let worker = thread::spawn(move || work(&other, WORKER_OPS, CALL_EVERY[1]));
        work(&counter, MAIN_OPS, CALL_EVERY[0]);
        worker.join();
    })
}

/// The main thread spawns a worker that does all the work, and stays
/// parked in `join` for the whole run: its section before the join is
/// open, its next tick unknown, until the run's last tick.
fn parked_main() -> Box<dyn FnOnce() + Send> {
    Box::new(|| {
        let counter = Arc::new(Atomic::new(0u64));
        let other = Arc::clone(&counter);
        let worker = thread::spawn(move || work(&other, MAIN_OPS + WORKER_OPS, CALL_EVERY[0]));
        worker.join();
    })
}

/// Records and replays `program`, and checks the heap each held per tick.
fn check(name: &str, program: fn() -> Box<dyn FnOnce() + Send>) {
    let tool = Tool::QueueRec;
    let ((recorded, demo), record_peak) =
        peak_above_start(|| Execution::new(tool.config([3, 5])).record(program()));
    assert!(recorded.outcome.is_ok(), "{name}: {:?}", recorded.outcome);
    let ticks = recorded.ticks as usize;
    assert!(ticks > 1 << 17, "{name}: {ticks} ticks");
    assert_eq!(demo.queue.ticks(), recorded.ticks, "{name}");
    assert!(
        demo.syscalls.len() >= 250,
        "{name}: {} syscalls",
        demo.syscalls.len()
    );

    let (replayed, replay_peak) =
        peak_above_start(|| Execution::new(tool.config([3, 5])).replay(&demo, program()));
    assert!(replayed.outcome.is_ok(), "{name}: {:?}", replayed.outcome);
    assert_eq!(replayed.ticks, recorded.ticks, "{name}");
    assert_eq!(replayed.replay_leftover_syscalls, 0, "{name}");

    let per_tick = |bytes: usize| bytes as f64 / ticks as f64;
    println!(
        "{name}: {ticks} ticks in {} QUEUE runs, {} syscalls: record peak {} B ({:.2} B/tick), \
         replay peak {} B ({:.2} B/tick)",
        demo.queue.runs().len(),
        demo.syscalls.len(),
        record_peak,
        per_tick(record_peak),
        replay_peak,
        per_tick(replay_peak)
    );
    assert!(
        per_tick(record_peak) <= 2.0,
        "{name}: recording held {record_peak} B over {ticks} ticks"
    );
    assert!(
        per_tick(replay_peak) < 1.0,
        "{name}: replay held {replay_peak} B beyond the demo over {ticks} ticks"
    );
}

#[test]
fn record_and_replay_heap_per_tick() {
    check("interleaved", interleaved);
    check("parked main", parked_main);
}
