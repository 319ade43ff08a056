//! Heap held per tick by recording and by replay, and per SYSCALL
//! record by a recorded and a decoded demo, counted by a global
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
//! A SYSCALL record is a 40-byte row, and its buffers are ranges of one
//! arena, 4 bytes of offset beside their bytes; kind names are held once
//! a stream. The third program, dense in recorded syscalls that mostly
//! fill a buffer, checks what a record costs once a recording is trimmed
//! and once `Demo::from_bytes_map` has decoded it.
//!
//! The whole file is one test: the counters are process-wide, and a
//! second test running beside it would count into them.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use sparse_rr::apps::harness::Tool;
use sparse_rr::tsan11rec::{sys, thread, Demo, Execution};
use sparse_rr::vos::PollFd;
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

/// The heap `value` held: what dropping it frees.
fn held_by<T>(value: T) -> usize {
    let before = LIVE.load(Relaxed);
    drop(value);
    before - LIVE.load(Relaxed)
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

/// Requests the syscall-dense program sends itself through a pipe: a
/// write, a poll and a read each, two of the three recorded with an
/// output buffer.
const REQUESTS: usize = 1_000;

fn syscall_dense() -> Box<dyn FnOnce() + Send> {
    Box::new(|| {
        let (rx, tx) = sys::pipe();
        let mut buf = [0u8; 64];
        for i in 0..REQUESTS {
            let req = format!("GET /item/{i} HTTP/1.1\n");
            sys::write(tx, req.as_bytes()).expect("the pipe takes a request");
            let mut fds = [PollFd::readable(rx)];
            assert_eq!(sys::poll(&mut fds).ok(), Some(1));
            let n = sys::read(rx, &mut buf).expect("a request") as usize;
            assert_eq!(&buf[..n], req.as_bytes());
        }
    })
}

/// Records and replays the syscall-dense program, and checks the heap a
/// SYSCALL record holds in the recording and in its decoded copy.
fn check_syscalls() {
    let name = "syscall dense";
    let tool = Tool::QueueRec;
    let (recorded, mut demo) = Execution::new(tool.config([3, 5])).record(syscall_dense());
    assert!(recorded.outcome.is_ok(), "{name}: {:?}", recorded.outcome);
    let records = demo.syscalls.len();
    let with_buf = demo.syscalls.iter().filter(|c| c.bufs().len() > 0).count();
    assert!(records >= 2_000, "{name}: {records} syscalls");
    assert!(
        2 * with_buf > records,
        "{name}: {with_buf} of {records} fill a buffer"
    );

    let replayed = Execution::new(tool.config([3, 5])).replay(&demo, syscall_dense());
    assert!(replayed.outcome.is_ok(), "{name}: {:?}", replayed.outcome);
    assert_eq!(replayed.replay_leftover_syscalls, 0, "{name}");

    let loaded = Demo::from_bytes_map(&demo.to_bytes_map()).expect("the demo decodes");
    assert_eq!(loaded, demo, "{name}");
    let decoded = held_by(Arc::try_unwrap(loaded.syscalls).expect("one owner"));
    let taken = std::mem::take(&mut demo.syscalls);
    let kept = held_by(Arc::try_unwrap(taken).expect("one owner"));

    let per_record = |bytes: usize| bytes as f64 / records as f64;
    println!(
        "{name}: {records} SYSCALL records, {with_buf} with a buffer: recording holds {kept} B \
         ({:.1} B/record), from_bytes_map holds {decoded} B ({:.1} B/record)",
        per_record(kept),
        per_record(decoded)
    );
    assert!(
        per_record(kept) <= 52.0,
        "{name}: the recording held {kept} B for {records} records"
    );
    assert!(
        per_record(decoded) <= 52.0,
        "{name}: the decoded demo held {decoded} B for {records} records"
    );
}

#[test]
fn record_and_replay_heap_per_tick() {
    check("interleaved", interleaved);
    check("parked main", parked_main);
    check_syscalls();
}
