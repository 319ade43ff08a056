//! Shared workload and config helpers for the apps integration tests.
//!
//! Each integration-test binary compiles this module independently, so
//! not every helper is used by every binary.

#![allow(dead_code)]
#![allow(unused_imports)]

use std::path::PathBuf;
use std::sync::Arc;

use tsan11rec::{Condvar, Config, ExecReport, Execution, Mode, Mutex, Strategy, TraceSpec};

/// A mutex+condvar-heavy workload: `PRODUCERS` producers push into a
/// bounded buffer, `CONSUMERS` consumers drain it, everyone blocks on
/// condvars constantly. The console output (sum and count) is the
/// observable surface compared across runs.
const PRODUCERS: usize = 3;
const CONSUMERS: usize = 3;
const ITEMS_PER_PRODUCER: usize = 20;
const CAPACITY: usize = 4;

struct Buffer {
    queue: Mutex<BufferState>,
    not_full: Condvar,
    not_empty: Condvar,
}

struct BufferState {
    items: Vec<u64>,
    pushed: usize,
    producers_done: usize,
}

pub fn bounded_buffer() {
    let buf = Arc::new(Buffer {
        queue: Mutex::new(BufferState {
            items: Vec::new(),
            pushed: 0,
            producers_done: 0,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });

    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let buf = Arc::clone(&buf);
        handles.push(tsan11rec::thread::spawn(move || {
            for i in 0..ITEMS_PER_PRODUCER {
                let mut g = buf.queue.lock();
                while g.items.len() >= CAPACITY {
                    g = buf.not_full.wait(g);
                }
                let value = (p * ITEMS_PER_PRODUCER + i) as u64;
                g.items.push(value);
                g.pushed += 1;
                drop(g);
                buf.not_empty.notify_one();
            }
            let mut g = buf.queue.lock();
            g.producers_done += 1;
            let all_done = g.producers_done == PRODUCERS;
            drop(g);
            if all_done {
                // Consumers blocked on an empty buffer must all see the
                // shutdown condition: a genuine broadcast point.
                buf.not_empty.notify_all();
            }
        }));
    }

    let mut consumers = Vec::new();
    for _ in 0..CONSUMERS {
        let buf = Arc::clone(&buf);
        consumers.push(tsan11rec::thread::spawn(move || {
            let mut sum = 0u64;
            let mut count = 0u64;
            loop {
                let mut g = buf.queue.lock();
                while g.items.is_empty() {
                    if g.producers_done == PRODUCERS {
                        drop(g);
                        return (sum, count);
                    }
                    g = buf.not_empty.wait(g);
                }
                let v = g.items.remove(0);
                drop(g);
                buf.not_full.notify_one();
                sum += v;
                count += 1;
            }
        }));
    }

    for h in handles {
        h.join();
    }
    let mut sum = 0u64;
    let mut count = 0u64;
    for c in consumers {
        let (s, n) = c.join();
        sum += s;
        count += n;
    }
    tsan11rec::sys::println(&format!("consumed {count} items, sum {sum}"));
}

pub fn config(strategy: Strategy, seeds: [u64; 2]) -> Config {
    // Liveness reschedules arrive on wall-clock time; determinism
    // assertions need them off.
    Config::new(Mode::Tsan11Rec(strategy))
        .with_seeds(seeds)
        .without_liveness()
        .with_trace(TraceSpec::SCHEDULE)
}

pub fn run_once(strategy: Strategy, seeds: [u64; 2]) -> ExecReport {
    Execution::new(config(strategy, seeds)).run(bounded_buffer)
}

pub fn expected_total() -> (u64, u64) {
    let count = (PRODUCERS * ITEMS_PER_PRODUCER) as u64;
    let sum = (0..count).sum();
    (count, sum)
}

pub fn assert_complete(report: &ExecReport, label: &str) {
    assert!(report.outcome.is_ok(), "{label}: {:?}", report.outcome);
    let (count, sum) = expected_total();
    assert_eq!(
        report.console_text(),
        format!("consumed {count} items, sum {sum}\n"),
        "{label}: all items consumed exactly once"
    );
}

pub fn fixture_dir(strategy: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/sched")
        .join(strategy)
}

/// Compares `actual` with the golden file `tests/fixtures/cli/<name>`;
/// with `UPDATE_GOLDEN=1` the run rewrites the file first.
pub fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/cli")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("golden file is writable");
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    assert!(
        expected == actual,
        "{} drifted (UPDATE_GOLDEN=1 regenerates it)\n--- expected\n{expected}--- actual\n{actual}",
        path.display()
    );
}
