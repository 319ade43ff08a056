//! Offline analysis over sparse-record executions (`srr-analysis`).
//!
//! The runtime can record two things this crate consumes after the run:
//!
//! * the run's **event log** ([`SyncTrace`], from `srr-obs`, recorded
//!   behind `Config::with_trace`) — whose sync and access classes hold
//!   every mutex request/acquire/release, condvar wait/notify, atomic
//!   access (with the observed writer) and instrumented plain access,
//!   stamped with the scheduler tick; and
//! * a **demo directory** (§4's `HEADER`/`QUEUE`/`SIGNAL`/`SYSCALL`/
//!   `ASYNC`/`ALLOC` stream files).
//!
//! Three analyses run over them:
//!
//! 1. [`predict_deadlocks`] — Goodlock-style lock-order-graph cycle
//!    detection. §3.2's controlled scheduler *preserves* deadlocks that
//!    happen; this pass predicts the ABBA deadlocks that merely could
//!    have, from a run that completed.
//! 2. [`misuse_lints`] — mixed plain/atomic access to one location,
//!    condvar waits returning without a predicate re-check, and relaxed
//!    cross-thread loads feeding visible-op decisions (the §6 replay
//!    hazard).
//! 3. [`lint_demo`] / [`lint_demo_dir`] — a linter for decoded demos
//!    that re-derives the recorder's stream invariants and reports
//!    [`DemoDiagnostic`]s naming the stream and entry.
//!
//! [`analyze`] bundles the trace-based passes; the CLI exposes all three
//! as `srr analyze <workload>` and `srr lint-demo --demo DIR`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deadlock;
mod demo_lint;
mod findings;
mod lints;

pub use deadlock::predict_deadlocks;
pub use demo_lint::{lint_demo, lint_demo_dir, DemoDiagnostic};
pub use findings::{Finding, FindingKind, Severity, SourceSpan};
pub use lints::{condvar_no_recheck, misuse_lints, mixed_atomic_plain, relaxed_load_decision};
pub use srr_obs::SyncTrace;

/// Runs every trace-based analysis pass: deadlock prediction first, then
/// the misuse lints. Findings keep pass order.
#[must_use]
pub fn analyze(trace: &SyncTrace) -> Vec<Finding> {
    let mut findings = predict_deadlocks(trace);
    findings.extend(misuse_lints(trace));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_runs_all_passes() {
        use srr_obs::{EventKind, ObsEvent};
        let ev = |tid, tick, kind| ObsEvent { tid, tick, kind };
        let mut events = Vec::new();
        for (tid, (h, m)) in [(1u32, (0u32, 1u32)), (2, (1, 0))] {
            let t = u64::from(tid) * 10;
            events.push(ev(tid, t, EventKind::MutexRequest { mutex: h }));
            events.push(ev(tid, t, EventKind::MutexAcquire { mutex: h }));
            events.push(ev(tid, t + 1, EventKind::MutexRequest { mutex: m }));
        }
        events.push(ev(1, 30, EventKind::AtomicStore { loc: 0, rmw: false }));
        events.push(ev(
            2,
            31,
            EventKind::PlainAccess {
                loc: 0,
                write: false,
            },
        ));
        let findings = analyze(&SyncTrace {
            events,
            mutex_labels: vec![Some("A".into()), Some("B".into())],
            loc_labels: vec!["flag".into()],
        });
        assert!(findings
            .iter()
            .any(|f| f.kind == FindingKind::PotentialDeadlock));
        assert!(findings
            .iter()
            .any(|f| f.kind == FindingKind::MixedAtomicPlain));
    }

    #[test]
    fn empty_trace_is_clean() {
        assert!(analyze(&SyncTrace::default()).is_empty());
    }
}
