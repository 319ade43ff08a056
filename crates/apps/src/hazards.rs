//! Hazard workloads: small programs that each exhibit one of the
//! synchronisation defects the `srr-analysis` passes are built to find.
//!
//! * [`ab_ba_locks`] — the classic ABBA lock-order inversion. The
//!   serialized variant always *completes* (the threads never overlap),
//!   which is exactly the case predictive deadlock detection exists for:
//!   the lock-order cycle is in the trace even though this run got lucky.
//!   The forced variant rendezvouses both threads between their first and
//!   second acquisitions, so the run genuinely deadlocks and the runtime's
//!   §3.2 deadlock preservation reports the same cycle.
//! * [`mixed_counter`] — one logical location touched through both an
//!   [`Atomic`] and a plain [`Shared`] access.
//! * [`cond_no_recheck`] — `if`-instead-of-`while` around a condition
//!   wait, the textbook lost-wakeup/spurious-wake bug.
//! * [`relaxed_guard`] — a relaxed load of another thread's store gating a
//!   lock acquisition (the paper's §6 visible-operation hazard).
//! * [`hidden_handoff`] — a data race hidden behind an *empty* mutex
//!   handoff: the recorded schedule's release→acquire edge orders the two
//!   unprotected writes, so FastTrack over the recording stays silent.
//!   Only predictive analysis (`srr predict`) finds and confirms it.
//! * [`atomic_guard`] — two writes separated by a real acquire/release
//!   flag handoff. The weak order flags the pair (it drops reads-from
//!   edges), but no trace-consistent reorder can break the spin-loop's
//!   value dependency: the correct verdict is *infeasible*.
//! * [`planned_local`] — the sparsification showcase for `srr plan`:
//!   heavy thread-local plain traffic plus one mutex-guarded handoff.
//!   Every plain site is statically `Local` or `Guarded`, so the
//!   plan-filtered recording is a fraction of the unplanned one and
//!   still replays byte-identically.
//! * [`raw_clock`] / [`raw_spawn`] — **recording-soundness escapes**, the
//!   true-positive fixtures for `srr vet`: each bypasses the interception
//!   layer (host wall clock / a real OS thread) and demonstrably
//!   soft-desynchronises replay. Deliberately *not* allowlisted, so
//!   `srr vet crates/apps` gates on them.

use std::sync::Arc;

use tsan11rec::{thread, Atomic, Condvar, MemOrder, Mutex, Shared};

/// Parameters for the ABBA workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct AbBaParams {
    /// When set, the two threads rendezvous while each holds its first
    /// lock, guaranteeing the deadlock actually fires.
    pub force_deadlock: bool,
}

/// Two mutexes, two threads, opposite acquisition orders.
pub fn ab_ba_locks(params: AbBaParams) -> impl FnOnce() + Send + 'static {
    move || {
        let lock_a = Arc::new(Mutex::labeled(0u64, "lock-a"));
        let lock_b = Arc::new(Mutex::labeled(0u64, "lock-b"));
        let a_held = Arc::new(Atomic::new(0u32));
        let b_held = Arc::new(Atomic::new(0u32));

        let (a2, b2) = (Arc::clone(&lock_a), Arc::clone(&lock_b));
        let (ah2, bh2) = (Arc::clone(&a_held), Arc::clone(&b_held));
        let force = params.force_deadlock;
        let t = thread::spawn(move || {
            let ga = a2.lock();
            if force {
                ah2.store(1, MemOrder::Release);
                while bh2.load(MemOrder::Acquire) == 0 {}
            }
            let gb = b2.lock();
            let _ = (*ga, *gb);
        });

        if params.force_deadlock {
            let gb = lock_b.lock();
            b_held.store(1, MemOrder::Release);
            while a_held.load(MemOrder::Acquire) == 0 {}
            let ga = lock_a.lock();
            let _ = (*ga, *gb);
            drop(ga);
            drop(gb);
        } else {
            // Serialize: the inverse-order acquisitions never overlap, so
            // the run completes — only the trace betrays the hazard.
            t.join();
            let gb = lock_b.lock();
            let ga = lock_a.lock();
            let _ = (*ga, *gb);
            drop(ga);
            drop(gb);
            tsan11rec::sys::println("ab_ba done");
            return;
        }
        t.join();
        tsan11rec::sys::println("ab_ba done");
    }
}

/// One location (`counter`) written through an atomic by one thread and
/// read as a plain variable by another. The main thread also churns a
/// thread-local `mixed-scratch` variable — traffic `srr plan` proves
/// `Local` and the plan-filtered recording drops from the trace.
pub fn mixed_counter() -> impl FnOnce() + Send + 'static {
    move || {
        let atomic = Arc::new(Atomic::labeled(0u64, "counter"));
        let plain = Arc::new(Shared::new("counter", 0u64));
        let (a2, p2) = (Arc::clone(&atomic), Arc::clone(&plain));
        let t = thread::spawn(move || {
            a2.store(1, MemOrder::Release);
            let _ = p2.read();
        });
        let scratch = Shared::new("mixed-scratch", 0u64);
        for i in 0..4 {
            scratch.write(i);
        }
        atomic.store(2, MemOrder::Release);
        t.join();
        tsan11rec::sys::println("mixed done");
    }
}

/// A condition wait whose predicate is checked with `if`, not `while`.
pub fn cond_no_recheck() -> impl FnOnce() + Send + 'static {
    move || {
        let mutex = Arc::new(Mutex::labeled(0u64, "queue-lock"));
        let cond = Arc::new(Condvar::new());
        let waiting = Arc::new(Atomic::new(0u32));

        let (m2, c2, w2) = (Arc::clone(&mutex), Arc::clone(&cond), Arc::clone(&waiting));
        let t = thread::spawn(move || {
            let g = m2.lock();
            w2.store(1, MemOrder::Release);
            // BUG: no `while !predicate` loop — a spurious or stolen
            // wakeup proceeds on an unchecked predicate.
            let g = c2.wait(g);
            drop(g);
        });

        while waiting.load(MemOrder::Acquire) == 0 {}
        let mut g = mutex.lock();
        *g = 1;
        drop(g);
        cond.notify_one();
        t.join();
        tsan11rec::sys::println("cond done");
    }
}

/// A relaxed load of a flag published by another thread deciding a lock
/// acquisition (§6: relaxed accesses as visible operations).
pub fn relaxed_guard() -> impl FnOnce() + Send + 'static {
    move || {
        let flag = Arc::new(Atomic::labeled(0u32, "ready-flag"));
        let mutex = Arc::new(Mutex::labeled(0u64, "data-lock"));
        let f2 = Arc::clone(&flag);
        let t = thread::spawn(move || {
            f2.store(1, MemOrder::Relaxed);
        });
        while flag.load(MemOrder::Relaxed) == 0 {}
        let g = mutex.lock();
        let _ = *g;
        drop(g);
        t.join();
        tsan11rec::sys::println("relaxed done");
    }
}

/// A schedule-hidden data race: two unprotected writes to `cell`,
/// incidentally ordered by an *empty* critical-section handoff on
/// `handoff-lock`. Under the FCFS queue schedule the pad stores delay the
/// second thread's acquisition past the first thread's release, so the
/// recorded run's FastTrack pass sees the writes as ordered. A reordered
/// schedule (which `srr predict` synthesizes) makes them race.
pub fn hidden_handoff() -> impl FnOnce() + Send + 'static {
    move || {
        let cell = Arc::new(Shared::new("cell", 0u64));
        let gate = Arc::new(Mutex::labeled(0u64, "handoff-lock"));
        let pad = Arc::new(Atomic::labeled(0u64, "pad"));

        let (c1, g1) = (Arc::clone(&cell), Arc::clone(&gate));
        let first = thread::spawn(move || {
            // Thread-local churn: plain accesses are invisible ops (no
            // tick), so this perturbs nothing — it only bulks up the
            // access trace with events `srr plan` proves Local.
            let scratch = Shared::new("first-scratch", 0u64);
            for i in 0..4 {
                scratch.write(i);
            }
            c1.write(1);
            let g = g1.lock();
            let _ = *g;
            drop(g);
        });

        let (c2, g2, p2) = (Arc::clone(&cell), Arc::clone(&gate), Arc::clone(&pad));
        let second = thread::spawn(move || {
            let scratch = Shared::new("second-scratch", 0u64);
            for i in 0..4 {
                scratch.write(i);
            }
            // Pad ticks: keep this thread's lock attempt behind the first
            // thread's release under the FCFS queue schedule.
            for i in 0..8 {
                p2.store(i, MemOrder::Relaxed);
            }
            let g = g2.lock();
            let _ = *g;
            drop(g);
            c2.write(2);
        });

        first.join();
        second.join();
        tsan11rec::sys::println("handoff done");
    }
}

/// Two writes to `cell` separated by a genuine release/acquire flag
/// handoff: the second write only runs after its thread *observes* the
/// first thread's store. The weak order still flags the pair (it drops
/// reads-from edges), but the spin loop's value dependency survives every
/// trace-consistent reorder — prediction must classify it infeasible.
pub fn atomic_guard() -> impl FnOnce() + Send + 'static {
    move || {
        let cell = Arc::new(Shared::new("cell", 0u64));
        let flag = Arc::new(Atomic::labeled(0u32, "guard-flag"));

        let (c1, f1) = (Arc::clone(&cell), Arc::clone(&flag));
        let writer = thread::spawn(move || {
            c1.write(1);
            f1.store(1, MemOrder::Release);
        });

        let (c2, f2) = (Arc::clone(&cell), Arc::clone(&flag));
        let reader = thread::spawn(move || {
            while f2.load(MemOrder::Acquire) == 0 {}
            c2.write(2);
        });

        writer.join();
        reader.join();
        tsan11rec::sys::println("guard done");
    }
}

/// The sparsification showcase: both threads churn thread-local
/// accumulators (`worker-acc`, `main-acc` — statically `Local`), and
/// the only cross-thread plain location (`result`) is touched under
/// `result-lock` on every access (statically `Guarded`). `srr plan`
/// proves every plain site filterable, so a plan-filtered recording
/// emits **zero** `PlainAccess` events yet replays byte-identically —
/// plain accesses are invisible operations either way.
pub fn planned_local() -> impl FnOnce() + Send + 'static {
    move || {
        let result = Arc::new(Shared::new("result", 0u64));
        let gate = Arc::new(Mutex::labeled(0u64, "result-lock"));

        let (r2, g2) = (Arc::clone(&result), Arc::clone(&gate));
        let worker = thread::spawn(move || {
            let acc = Shared::new("worker-acc", 0u64);
            for i in 0..32 {
                acc.write(acc.read() + i);
            }
            let g = g2.lock();
            r2.write(acc.read());
            drop(g);
        });

        let acc = Shared::new("main-acc", 0u64);
        for i in 0..32 {
            acc.write(acc.read() + i + 1);
        }
        worker.join();
        let g = gate.lock();
        let total = result.read() + acc.read();
        drop(g);
        tsan11rec::sys::println(&format!("planned_local total={total}"));
    }
}

/// A recording-soundness escape: reads the **host** wall clock through
/// `std::time::SystemTime`, bypassing the virtual clock
/// (`tsan11rec::sys::clock_gettime`), and prints the sub-second nanos.
/// The value is not in any demo stream, so record and replay print
/// different lines — a console soft desync with no schedule divergence.
/// This is the workload `srr vet` flags as `raw-clock`.
pub fn raw_clock() -> impl FnOnce() + Send + 'static {
    move || {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        // Fixed width keeps the syscall shape identical across runs; only
        // the *content* diverges, the signature of a soft desync.
        tsan11rec::sys::println(&format!("raw_clock t={nanos:09}"));
    }
}

/// A recording-soundness escape: spawns a **real OS thread** through
/// `std::thread::spawn`, invisible to the controlled scheduler — it
/// never calls `Wait()`, so the queue strategy neither schedules nor
/// records it. The rogue thread free-runs a counter for a real-time
/// window; how far it gets depends on host scheduling, and the printed
/// count diverges between record and replay. `srr vet` flags this as
/// `raw-spawn` (plus `raw-atomic`/`raw-clock` for the stop flag and the
/// timing window).
pub fn raw_spawn() -> impl FnOnce() + Send + 'static {
    move || {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let s2 = Arc::clone(&stop);
        let rogue = std::thread::spawn(move || {
            let mut n: u64 = 0;
            while !s2.load(std::sync::atomic::Ordering::Relaxed) {
                n = n.wrapping_add(1);
                std::hint::spin_loop();
            }
            n
        });
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let n = rogue.join().unwrap_or(0);
        tsan11rec::sys::println(&format!("raw_spawn count={n:020}"));
    }
}

/// The committed queue recording of [`hidden_handoff`] whose schedule
/// hides the race (crates/apps/tests/predict.rs records it).
#[cfg(test)]
pub(crate) fn hidden_handoff_recording() -> tsan11rec::Demo {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/predict/hidden_handoff_queue");
    tsan11rec::Demo::load_dir(&dir).expect("committed queue recording")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Tool;
    use tsan11rec::{soft_desync, soft_desync_report, Execution, FindingKind, Outcome};

    fn analyzed(program: impl FnOnce() + Send + 'static) -> tsan11rec::ExecReport {
        Execution::new(Tool::Queue.config([7, 11]).with_access_trace()).run(program)
    }

    #[test]
    fn serialized_abba_completes_but_is_flagged() {
        let report = analyzed(ab_ba_locks(AbBaParams::default()));
        assert!(report.outcome.is_ok(), "{:?}", report.outcome);
        let findings = report.analysis();
        let dl: Vec<_> = findings
            .iter()
            .filter(|f| f.kind == FindingKind::PotentialDeadlock)
            .collect();
        assert!(
            !dl.is_empty(),
            "lock-order cycle must be predicted: {findings:?}"
        );
        assert!(
            dl[0].labels.iter().any(|l| l.contains("lock-a")),
            "{:?}",
            dl[0]
        );
        assert!(
            dl[0].labels.iter().any(|l| l.contains("lock-b")),
            "{:?}",
            dl[0]
        );
    }

    #[test]
    fn forced_abba_deadlocks_with_same_cycle() {
        let report = analyzed(ab_ba_locks(AbBaParams {
            force_deadlock: true,
        }));
        assert_eq!(report.outcome, Outcome::Deadlock);
        let findings = report.analysis();
        assert!(
            findings
                .iter()
                .any(|f| f.kind == FindingKind::PotentialDeadlock),
            "deadlocked run still yields the cycle: {findings:?}"
        );
    }

    #[test]
    fn mixed_counter_is_flagged() {
        let report = analyzed(mixed_counter());
        assert!(report.outcome.is_ok(), "{:?}", report.outcome);
        let findings = report.analysis();
        assert!(
            findings
                .iter()
                .any(|f| f.kind == FindingKind::MixedAtomicPlain),
            "{findings:?}"
        );
    }

    #[test]
    fn cond_no_recheck_is_flagged() {
        let report = analyzed(cond_no_recheck());
        assert!(report.outcome.is_ok(), "{:?}", report.outcome);
        let findings = report.analysis();
        assert!(
            findings
                .iter()
                .any(|f| f.kind == FindingKind::CondvarNoRecheck),
            "{findings:?}"
        );
    }

    #[test]
    fn relaxed_guard_is_flagged() {
        let report = analyzed(relaxed_guard());
        assert!(report.outcome.is_ok(), "{:?}", report.outcome);
        let findings = report.analysis();
        assert!(
            findings
                .iter()
                .any(|f| f.kind == FindingKind::RelaxedLoadDecision),
            "{findings:?}"
        );
    }

    #[test]
    fn analysis_is_empty_without_sync_trace() {
        let report = Execution::new(Tool::Queue.config([7, 11])).run(mixed_counter());
        assert!(report.analysis().is_empty());
        assert!(report.sync_trace.events.is_empty());
    }

    #[test]
    fn hidden_handoff_race_is_invisible_to_the_recorded_run() {
        // The empty-lock handoff orders the two writes under the
        // recorded schedule: the run completes and FastTrack reports
        // nothing. The predictive pass (crates/predict; exercised
        // end-to-end in tests/predict.rs) is what finds it. A fresh queue
        // recording follows the host's thread arrival order, and one
        // where the second thread locks first does race, so the run is
        // the replay of a committed queue recording with that schedule.
        let demo = hidden_handoff_recording();
        let config = Tool::Queue.config(demo.header.seeds).with_access_trace();
        let report = Execution::new(config).replay(&demo, hidden_handoff());
        assert!(report.outcome.is_ok(), "{:?}", report.outcome);
        assert_eq!(report.races, 0, "{:?}", report.race_reports);
        assert!(
            report
                .sync_trace
                .events
                .iter()
                .any(|e| matches!(e.kind, tsan11rec::obs::EventKind::PlainAccess { .. })),
            "access trace must record the plain writes"
        );
    }

    #[test]
    fn atomic_guard_run_completes_without_races() {
        let report = analyzed(atomic_guard());
        assert!(report.outcome.is_ok(), "{:?}", report.outcome);
        assert_eq!(report.races, 0, "{:?}", report.race_reports);
    }

    fn plain_events(r: &tsan11rec::ExecReport) -> usize {
        r.sync_trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, tsan11rec::obs::EventKind::PlainAccess { .. }))
            .count()
    }

    /// The static plan for this very file, lowered to its runtime form.
    fn hazards_access_plan() -> tsan11rec::AccessPlan {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/hazards.rs");
        let report = srr_plan::plan_paths(&[path], &srr_vet::allow::Allowlist::default())
            .expect("hazards.rs is readable");
        tsan11rec::AccessPlan::new(report.recorded_labels(), report.known_labels())
    }

    #[test]
    fn plan_filtered_recording_halves_the_hazard_traces() {
        fn check<P, F>(name: &str, make: F)
        where
            F: Fn() -> P,
            P: FnOnce() + Send + 'static,
        {
            let full = analyzed(make());
            let filtered = Execution::new(
                Tool::Queue
                    .config([7, 11])
                    .with_access_plan(hazards_access_plan()),
            )
            .run(make());
            let (full_n, filtered_n) = (plain_events(&full), plain_events(&filtered));
            assert!(
                filtered_n * 2 <= full_n,
                "{name}: plan must halve the access trace ({full_n} -> {filtered_n})"
            );
            assert!(filtered_n > 0, "{name}: conflict sites must stay recorded");
            assert!(filtered.plan.sites > 0, "{name}: plan was consulted");
            assert_eq!(
                filtered.plan.filtered_events as usize,
                full_n - filtered_n,
                "{name}: every missing event is accounted for"
            );
            assert!(
                !filtered.plan.is_stale(),
                "{name}: the plan covers every label: {:?}",
                filtered.plan.unplanned
            );
        }
        check("hidden_handoff", hidden_handoff);
        check("mixed_counter", mixed_counter);
    }

    #[test]
    fn planned_local_filters_everything_and_replays_byte_identically() {
        let full = analyzed(planned_local());
        assert!(full.outcome.is_ok(), "{:?}", full.outcome);
        assert_eq!(full.races, 0, "{:?}", full.race_reports);

        let cfg = || {
            Tool::QueueRec
                .config([3, 5])
                .with_access_trace()
                .with_access_plan(hazards_access_plan())
        };
        let (rec, demo) = Execution::new(cfg()).record(planned_local());
        assert!(rec.outcome.is_ok(), "{:?}", rec.outcome);
        let filtered_n = plain_events(&rec);
        let full_n = plain_events(&full);
        assert!(
            full_n >= 5 * filtered_n.max(1),
            "unplanned trace must be >=5x larger ({full_n} vs {filtered_n})"
        );
        assert!(!rec.plan.is_stale(), "{:?}", rec.plan.unplanned);

        let rep = Execution::new(cfg()).replay(&demo, planned_local());
        assert!(rep.outcome.is_ok(), "{:?}", rep.outcome);
        assert!(
            !soft_desync(&rec, &rep),
            "plan-filtered demo must replay byte-identically:\n rec: {:?}\n rep: {:?}",
            rec.console_text(),
            rep.console_text()
        );
    }

    #[test]
    fn stale_plan_fails_open_and_records_unplanned_labels() {
        // A plan that only knows `cell`: every scratch label is
        // unplanned, must keep recording, and must flag staleness.
        let plan = tsan11rec::AccessPlan::new(["cell".to_owned()], ["cell".to_owned()]);
        let report = Execution::new(Tool::Queue.config([7, 11]).with_access_plan(plan))
            .run(hidden_handoff());
        assert!(report.outcome.is_ok(), "{:?}", report.outcome);
        assert!(report.plan.is_stale());
        assert!(
            report.plan.unplanned.iter().any(|l| l == "first-scratch"),
            "{:?}",
            report.plan.unplanned
        );
        assert_eq!(
            report.plan.filtered_events, 0,
            "unplanned labels fail open: nothing is dropped"
        );
        let full = analyzed(hidden_handoff());
        assert_eq!(
            plain_events(&report),
            plain_events(&full),
            "fail-open recording matches the unplanned trace"
        );
    }

    /// Record + replay, asserting both runs complete (the escape must
    /// NOT hard-desync — the schedule and syscall shape still match),
    /// and returns whether the consoles diverged.
    fn escape_soft_desyncs(mk: fn() -> Box<dyn FnOnce() + Send + 'static>) -> bool {
        let (rec, demo) = Execution::new(Tool::QueueRec.config([3, 5])).record(mk());
        assert!(rec.outcome.is_ok(), "{:?}", rec.outcome);
        let rep = Execution::new(Tool::QueueRec.config([3, 5])).replay(&demo, mk());
        assert!(rep.outcome.is_ok(), "escape is *soft*: {:?}", rep.outcome);
        if soft_desync(&rec, &rep) {
            let d = soft_desync_report(&rec, &rep).expect("report for divergent consoles");
            assert_eq!(d.stream, "CONSOLE");
            true
        } else {
            false
        }
    }

    #[test]
    fn raw_clock_escape_soft_desyncs_replay() {
        // The wall clock collides across two runs with p ≈ 1e-9; retry to
        // push the residual flake probability to effectively zero.
        for _ in 0..3 {
            if escape_soft_desyncs(|| Box::new(raw_clock())) {
                return;
            }
        }
        panic!("host-clock escape must diverge the console");
    }

    #[test]
    fn raw_spawn_escape_soft_desyncs_replay() {
        // The rogue thread's spin count over a 2ms window is effectively
        // never equal across runs; retry shields the pathological case.
        for _ in 0..3 {
            if escape_soft_desyncs(|| Box::new(raw_spawn())) {
                return;
            }
        }
        panic!("rogue-thread escape must diverge the console");
    }
}
