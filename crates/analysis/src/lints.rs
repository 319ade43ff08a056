//! Atomics / synchronisation misuse lints over the sync trace.
//!
//! Three heuristic passes:
//!
//! * **mixed-atomic-plain** — one location (identified by label) accessed
//!   both through an atomic cell and through plain loads/stores. In C11
//!   terms that is at best implementation-defined and usually a bug.
//! * **condvar-no-recheck** — a condvar wait returned and the guard mutex
//!   was released without the thread re-checking any state (no re-wait on
//!   the condvar, no instrumented read) in between: the classic
//!   `if` instead of `while` around `wait`, which breaks under spurious
//!   wakeups and signal stealing.
//! * **relaxed-load-decision** — a `Relaxed` load observed another
//!   thread's store and a visible operation followed in the loading
//!   thread. This is §6's hazard class: a sparse demo records no atomic
//!   values, so replay can read a different value and take a different
//!   branch before the next recorded constraint catches the divergence.

use std::collections::{BTreeMap, BTreeSet};

use srr_obs::{EventClass, EventKind, ObsEvent, SyncTrace};

use crate::findings::{Finding, FindingKind};

/// How many same-thread trace events after a relaxed load may separate
/// it from the visible operation it is assumed to guard.
const DECISION_WINDOW: usize = 3;

/// `tid`'s sync and access events after position `i` of the log.
fn later_of(trace: &SyncTrace, i: usize, tid: u32) -> impl Iterator<Item = &ObsEvent> {
    trace.events[i + 1..]
        .iter()
        .filter(move |e| e.tid == tid && e.kind.class() != EventClass::Schedule)
}

/// Runs every misuse lint.
#[must_use]
pub fn misuse_lints(trace: &SyncTrace) -> Vec<Finding> {
    let mut findings = mixed_atomic_plain(trace);
    findings.extend(condvar_no_recheck(trace));
    findings.extend(relaxed_load_decision(trace));
    findings
}

/// One location touched by both atomic and plain accesses.
#[must_use]
pub fn mixed_atomic_plain(trace: &SyncTrace) -> Vec<Finding> {
    // loc -> (first atomic (tid, tick), first plain (tid, tick))
    let mut first_atomic: BTreeMap<u32, (u32, u64)> = BTreeMap::new();
    let mut first_plain: BTreeMap<u32, (u32, u64)> = BTreeMap::new();
    for ev in trace.sync_events() {
        match ev.kind {
            EventKind::AtomicLoad { loc, .. } | EventKind::AtomicStore { loc, .. } => {
                first_atomic.entry(loc).or_insert((ev.tid, ev.tick));
            }
            EventKind::PlainAccess { loc, .. } => {
                first_plain.entry(loc).or_insert((ev.tid, ev.tick));
            }
            _ => {}
        }
    }
    first_atomic
        .iter()
        .filter_map(|(&loc, &(atid, atick))| {
            let &(ptid, ptick) = first_plain.get(&loc)?;
            let label = trace.loc_label(loc);
            Some(Finding {
                kind: FindingKind::MixedAtomicPlain,
                message: format!(
                    "location `{label}` is accessed both atomically (first by thread {atid} \
                     at tick {atick}) and as plain memory (first by thread {ptid} at tick \
                     {ptick}); mixed access to one location defeats both the memory model \
                     and the race detector"
                ),
                threads: vec![atid, ptid],
                labels: vec![label],
                ticks: vec![atick, ptick],
            })
        })
        .collect()
}

/// Condvar waits that returned without a predicate re-check.
#[must_use]
pub fn condvar_no_recheck(trace: &SyncTrace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut reported: BTreeSet<(u32, u32)> = BTreeSet::new(); // (tid, cond)
    for (i, ev) in trace.events.iter().enumerate() {
        let EventKind::CondWaitReturn {
            cond,
            mutex,
            signaled,
        } = ev.kind
        else {
            continue;
        };
        let (tid, tick) = (ev.tid, ev.tick);
        // Scan this thread's subsequent events until it releases the
        // reacquired guard mutex. Any read (atomic or plain) or a
        // re-wait on the same condvar counts as re-checking state.
        let mut rechecked = false;
        for later in later_of(trace, i, tid) {
            match later.kind {
                EventKind::CondWaitBegin { cond: c, .. } if c == cond => {
                    rechecked = true; // while-loop shape: waited again
                    break;
                }
                EventKind::AtomicLoad { .. } | EventKind::PlainAccess { write: false, .. } => {
                    rechecked = true;
                    break;
                }
                EventKind::MutexRelease { mutex: m } if m == mutex => break,
                _ => {}
            }
        }
        if !rechecked && reported.insert((tid, cond)) {
            let cause = if signaled {
                "signalled"
            } else {
                "unsignalled (timeout/spurious)"
            };
            findings.push(Finding {
                kind: FindingKind::CondvarNoRecheck,
                message: format!(
                    "thread {tid} returned {cause} from waiting on cond#{cond} at tick {tick} \
                     and released its guard mutex without re-checking any state: use \
                     `while (!predicate) wait()` — wakeups may be spurious or stolen"
                ),
                threads: vec![tid],
                labels: vec![format!("cond#{cond}")],
                ticks: vec![tick],
            });
        }
    }
    findings
}

/// Relaxed cross-thread loads feeding visible-operation decisions (§6).
#[must_use]
pub fn relaxed_load_decision(trace: &SyncTrace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut reported: BTreeSet<u32> = BTreeSet::new(); // one finding per loc
    for (i, ev) in trace.events.iter().enumerate() {
        let EventKind::AtomicLoad {
            loc,
            relaxed,
            writer,
        } = ev.kind
        else {
            continue;
        };
        let (tid, tick) = (ev.tid, ev.tick);
        if !relaxed || writer == tid || reported.contains(&loc) {
            continue;
        }
        // Does a visible synchronisation operation follow closely in the
        // loading thread? If so, treat the load as decision-feeding.
        let decision = later_of(trace, i, tid)
            .take(DECISION_WINDOW)
            .find_map(|e| match e.kind {
                EventKind::MutexRequest { .. } => Some(("a mutex lock", e.tick)),
                EventKind::CondWaitBegin { .. } => Some(("a condvar wait", e.tick)),
                EventKind::CondNotify { .. } => Some(("a condvar notify", e.tick)),
                _ => None,
            });
        if let Some((what, dtick)) = decision {
            reported.insert(loc);
            let label = trace.loc_label(loc);
            findings.push(Finding {
                kind: FindingKind::RelaxedLoadDecision,
                message: format!(
                    "thread {tid}'s relaxed load of `{label}` at tick {tick} observed \
                     thread {writer}'s store and was followed by {what} at tick {dtick}: \
                     a sparse demo does not record atomic values, so a replay may read a \
                     different (stale-but-coherent) value and diverge (§6)"
                ),
                threads: vec![tid, writer],
                labels: vec![label],
                ticks: vec![tick, dtick],
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: u32, tick: u64, kind: EventKind) -> ObsEvent {
        ObsEvent { tid, tick, kind }
    }

    fn trace_with_locs(labels: &[&str], events: Vec<ObsEvent>) -> SyncTrace {
        SyncTrace {
            events,
            loc_labels: labels.iter().map(|l| (*l).to_owned()).collect(),
            ..SyncTrace::default()
        }
    }

    #[test]
    fn mixed_access_is_flagged_once_per_location() {
        let t = trace_with_locs(
            &["flag"],
            vec![
                ev(1, 1, EventKind::AtomicStore { loc: 0, rmw: false }),
                ev(
                    2,
                    2,
                    EventKind::PlainAccess {
                        loc: 0,
                        write: true,
                    },
                ),
                ev(
                    2,
                    3,
                    EventKind::PlainAccess {
                        loc: 0,
                        write: false,
                    },
                ),
            ],
        );
        let f = mixed_atomic_plain(&t);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::MixedAtomicPlain);
        assert!(f[0].message.contains("flag"));
        assert_eq!(f[0].threads, vec![1, 2]);
    }

    #[test]
    fn pure_atomic_and_pure_plain_are_clean() {
        let t = trace_with_locs(
            &["a", "p"],
            vec![
                ev(
                    1,
                    1,
                    EventKind::AtomicLoad {
                        loc: 0,
                        relaxed: false,
                        writer: 1,
                    },
                ),
                ev(
                    1,
                    2,
                    EventKind::PlainAccess {
                        loc: 1,
                        write: true,
                    },
                ),
            ],
        );
        assert!(mixed_atomic_plain(&t).is_empty());
    }

    #[test]
    fn wait_without_recheck_is_flagged() {
        let t = trace_with_locs(
            &[],
            vec![
                ev(
                    1,
                    5,
                    EventKind::CondWaitReturn {
                        cond: 0,
                        mutex: 0,
                        signaled: true,
                    },
                ),
                ev(1, 6, EventKind::MutexRelease { mutex: 0 }),
            ],
        );
        let f = condvar_no_recheck(&t);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::CondvarNoRecheck);
    }

    #[test]
    fn wait_followed_by_read_or_rewait_is_clean() {
        // Predicate read before the release.
        let read_then_release = vec![
            ev(
                1,
                5,
                EventKind::CondWaitReturn {
                    cond: 0,
                    mutex: 0,
                    signaled: true,
                },
            ),
            ev(
                1,
                5,
                EventKind::PlainAccess {
                    loc: 0,
                    write: false,
                },
            ),
            ev(1, 6, EventKind::MutexRelease { mutex: 0 }),
        ];
        assert!(condvar_no_recheck(&trace_with_locs(&["p"], read_then_release)).is_empty());
        // While-loop shape: the wait releases the guard and waits again.
        let rewait = vec![
            ev(
                1,
                5,
                EventKind::CondWaitReturn {
                    cond: 0,
                    mutex: 0,
                    signaled: false,
                },
            ),
            ev(1, 6, EventKind::CondWaitBegin { cond: 0, mutex: 0 }),
            ev(1, 6, EventKind::MutexRelease { mutex: 0 }),
        ];
        assert!(condvar_no_recheck(&trace_with_locs(&[], rewait)).is_empty());
    }

    #[test]
    fn other_threads_events_do_not_count_as_recheck() {
        let t = trace_with_locs(
            &["p"],
            vec![
                ev(
                    1,
                    5,
                    EventKind::CondWaitReturn {
                        cond: 0,
                        mutex: 0,
                        signaled: true,
                    },
                ),
                ev(
                    2,
                    5,
                    EventKind::PlainAccess {
                        loc: 0,
                        write: false,
                    },
                ),
                ev(1, 6, EventKind::MutexRelease { mutex: 0 }),
            ],
        );
        assert_eq!(condvar_no_recheck(&t).len(), 1);
    }

    #[test]
    fn relaxed_cross_thread_load_before_lock_is_flagged() {
        let t = trace_with_locs(
            &["ready"],
            vec![
                ev(
                    1,
                    3,
                    EventKind::AtomicLoad {
                        loc: 0,
                        relaxed: true,
                        writer: 2,
                    },
                ),
                ev(1, 4, EventKind::MutexRequest { mutex: 0 }),
            ],
        );
        let f = relaxed_load_decision(&t);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::RelaxedLoadDecision);
        assert!(f[0].message.contains("ready"));
        assert_eq!(f[0].threads, vec![1, 2]);
    }

    #[test]
    fn acquire_loads_and_own_stores_are_clean() {
        let t = trace_with_locs(
            &["x"],
            vec![
                // Acquire load: synchronises, not the §6 hazard.
                ev(
                    1,
                    1,
                    EventKind::AtomicLoad {
                        loc: 0,
                        relaxed: false,
                        writer: 2,
                    },
                ),
                ev(1, 2, EventKind::MutexRequest { mutex: 0 }),
                // Relaxed load of the thread's own store: no divergence.
                ev(
                    2,
                    3,
                    EventKind::AtomicLoad {
                        loc: 0,
                        relaxed: true,
                        writer: 2,
                    },
                ),
                ev(2, 4, EventKind::MutexRequest { mutex: 0 }),
            ],
        );
        assert!(relaxed_load_decision(&t).is_empty());
    }

    #[test]
    fn relaxed_load_without_nearby_visible_op_is_clean() {
        let t = trace_with_locs(
            &["stat"],
            vec![ev(
                1,
                1,
                EventKind::AtomicLoad {
                    loc: 0,
                    relaxed: true,
                    writer: 2,
                },
            )],
        );
        assert!(relaxed_load_decision(&t).is_empty());
    }
}
