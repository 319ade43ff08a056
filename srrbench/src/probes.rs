//! Micro-probes a traced run adds to its per-layer table: the cost of
//! one unit of each substrate's work, timed in a tight loop through the
//! crate's public API. Each probe runs [`REPS`] times; the median is kept.

use std::hint::black_box;
use std::time::Instant;

use srr_memmodel::{AtomicCell, CounterChooser, MemOrder, ThreadView};
use srr_racedet::{AccessKind, RaceDetector};
use srr_vclock::VectorClock;
use tsan11rec::{Atomic, Config, Execution, Mode, Strategy};

use crate::stats::median;

const REPS: usize = 5;
/// Operations per timed loop.
const OPS: u64 = 10_000;

/// Nanoseconds per operation of each probe.
pub(crate) struct Probes {
    /// One SeqCst store under the queue strategy, minus the same store
    /// run natively: the Wait/Tick handoff a visible op pays.
    pub handoff_ns: f64,
    /// One `clock_gettime` through the vOS, natively.
    pub syscall_ns: f64,
    /// One FastTrack check (`RaceDetector::on_access`).
    pub access_ns: f64,
    /// One weak-memory store plus load (`AtomicCell`).
    pub store_load_ns: f64,
    /// One 8-thread vector-clock join.
    pub join_ns: f64,
}

fn per_op_ns(mut body: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| body() / OPS as f64).collect::<Vec<_>>())
}

/// Program-side duration (ns) of `program` under `mode`.
fn run_ns(mode: Mode, program: fn()) -> f64 {
    let report = Execution::new(Config::new(mode).with_seeds([1, 2])).run(program);
    assert!(
        report.outcome.is_ok(),
        "probe program ended {:?}",
        report.outcome
    );
    report.duration.as_secs_f64() * 1e9
}

fn stores() {
    let a = Atomic::new(0u64);
    for i in 0..OPS {
        a.store(i, MemOrder::SeqCst);
    }
}

fn clock_reads() {
    for _ in 0..OPS {
        black_box(tsan11rec::sys::clock_gettime().expect("clock_gettime"));
    }
}

fn timed(body: impl FnOnce()) -> f64 {
    let t = Instant::now();
    body();
    t.elapsed().as_secs_f64() * 1e9
}

/// Runs every probe.
pub(crate) fn run() -> Probes {
    let handoff_ns = per_op_ns(|| {
        run_ns(Mode::Tsan11Rec(Strategy::Queue), stores) - run_ns(Mode::Native, stores)
    });
    let syscall_ns = per_op_ns(|| run_ns(Mode::Native, clock_reads));
    let access_ns = per_op_ns(|| {
        let mut det = RaceDetector::new();
        let loc = det.register_location("probe");
        let mut clock = VectorClock::new();
        timed(|| {
            for _ in 0..OPS / 2 {
                clock.tick(0);
                det.on_access(loc, 0, black_box(&clock), AccessKind::Write);
                det.on_access(loc, 0, black_box(&clock), AccessKind::Read);
            }
        })
    });
    let store_load_ns = per_op_ns(|| {
        let mut view = ThreadView::new(0);
        let mut cell = AtomicCell::new(0, &view);
        let mut chooser = CounterChooser::always_latest();
        timed(|| {
            for i in 0..OPS {
                view.tick();
                cell.store(&mut view, i, MemOrder::Release);
                view.tick();
                black_box(cell.load(&mut view, MemOrder::Acquire, &mut chooser));
            }
        })
    });
    let join_ns = per_op_ns(|| {
        let a: VectorClock = (0..8u64).collect();
        let b: VectorClock = (0..8u64).rev().collect();
        let mut x = a.clone();
        let ns = timed(|| {
            for _ in 0..OPS {
                x.join(black_box(&b));
            }
        });
        black_box(x);
        ns
    });
    Probes {
        handoff_ns,
        syscall_ns,
        access_ns,
        store_load_ns,
        join_ns,
    }
}
