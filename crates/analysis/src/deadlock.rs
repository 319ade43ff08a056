//! Predictive deadlock detection (Goodlock-style).
//!
//! Builds a *lock-order graph* from the sync trace: an edge `h → m` means
//! some thread requested mutex `m` while holding mutex `h`. A cycle whose
//! edges can be attributed to distinct threads is a potential ABBA
//! deadlock — reported even when the observed run completed, which is the
//! point: §3.2's controlled scheduler *preserves* deadlocks that happen,
//! and this pass predicts the ones that merely could have.
//!
//! Edges come from [`EventKind::MutexRequest`] (blocking `lock()` entry),
//! not from successful acquisitions: a failed `try_lock` cannot block, so
//! it cannot close a deadlock cycle — and because requests are emitted
//! before the acquisition succeeds, a run that actually deadlocked still
//! contributes both edges of its cycle.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use srr_obs::{EventKind, SyncTrace};

use crate::findings::{Finding, FindingKind};

/// One thread's contribution to a lock-order edge.
#[derive(Clone, Copy, Debug)]
struct EdgeWitness {
    tid: u32,
    /// Tick at which the held (source) mutex was acquired.
    held_tick: u64,
    /// Tick of the blocking request for the target mutex.
    req_tick: u64,
}

/// Bounds cycle enumeration on pathological graphs.
const MAX_CYCLE_LEN: usize = 8;
const MAX_FINDINGS: usize = 32;

/// Runs the deadlock predictor over a finished trace.
#[must_use]
pub fn predict_deadlocks(trace: &SyncTrace) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Pass 1: reconstruct per-thread held sets and collect edges.
    // BTreeMap keys give deterministic cycle enumeration order.
    let mut held: HashMap<u32, Vec<(u32, u64)>> = HashMap::new();
    let mut edges: BTreeMap<(u32, u32), Vec<EdgeWitness>> = BTreeMap::new();
    let mut self_relocks: BTreeSet<(u32, u32)> = BTreeSet::new();
    for ev in trace.sync_events() {
        let (tid, tick) = (ev.tid, ev.tick);
        match ev.kind {
            EventKind::MutexRequest { mutex } => {
                for &(h, held_tick) in held.get(&tid).into_iter().flatten() {
                    if h == mutex {
                        // Re-locking a held (non-reentrant) mutex: a
                        // certain self-deadlock.
                        if self_relocks.insert((tid, mutex)) {
                            findings.push(Finding {
                                kind: FindingKind::PotentialDeadlock,
                                message: format!(
                                    "thread {tid} requested {label} at tick {tick} \
                                     while already holding it (acquired tick {held_tick}): \
                                     self-deadlock on a non-reentrant mutex",
                                    label = trace.mutex_label(mutex),
                                ),
                                threads: vec![tid],
                                labels: vec![trace.mutex_label(mutex)],
                                ticks: vec![held_tick, tick],
                            });
                        }
                        continue;
                    }
                    let witnesses = edges.entry((h, mutex)).or_default();
                    if !witnesses.iter().any(|w| w.tid == tid) {
                        witnesses.push(EdgeWitness {
                            tid,
                            held_tick,
                            req_tick: tick,
                        });
                    }
                }
            }
            EventKind::MutexAcquire { mutex } => {
                held.entry(tid).or_default().push((mutex, tick));
            }
            EventKind::MutexRelease { mutex } => {
                if let Some(locks) = held.get_mut(&tid) {
                    if let Some(pos) = locks.iter().rposition(|&(m, _)| m == mutex) {
                        locks.remove(pos);
                    }
                }
            }
            _ => {}
        }
    }

    // Pass 2: enumerate simple cycles. Starting every search from the
    // cycle's smallest node and only visiting larger nodes afterwards
    // yields each cycle exactly once.
    let mut adj: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let nodes: Vec<u32> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut path = vec![start];
        dfs_cycles(start, start, &adj, &mut path, &edges, trace, &mut findings);
        if findings.len() >= MAX_FINDINGS {
            break;
        }
    }
    findings.truncate(MAX_FINDINGS);
    findings
}

fn dfs_cycles(
    start: u32,
    at: u32,
    adj: &BTreeMap<u32, Vec<u32>>,
    path: &mut Vec<u32>,
    edges: &BTreeMap<(u32, u32), Vec<EdgeWitness>>,
    trace: &SyncTrace,
    findings: &mut Vec<Finding>,
) {
    if findings.len() >= MAX_FINDINGS || path.len() > MAX_CYCLE_LEN {
        return;
    }
    for &next in adj.get(&at).into_iter().flatten() {
        if next == start && path.len() >= 2 {
            if let Some(f) = cycle_finding(path, edges, trace) {
                findings.push(f);
            }
        } else if next > start && !path.contains(&next) {
            path.push(next);
            dfs_cycles(start, next, adj, path, edges, trace, findings);
            path.pop();
        }
    }
}

/// Builds the finding for a cycle, if its edges admit distinct threads
/// (one thread alone cannot deadlock with itself across two locks —
/// its two acquisitions happened at different times).
fn cycle_finding(
    cycle: &[u32],
    edges: &BTreeMap<(u32, u32), Vec<EdgeWitness>>,
    trace: &SyncTrace,
) -> Option<Finding> {
    let witness_sets: Vec<&[EdgeWitness]> = (0..cycle.len())
        .map(|i| edges[&(cycle[i], cycle[(i + 1) % cycle.len()])].as_slice())
        .collect();
    let mut chosen = Vec::new();
    if !assign_distinct(&witness_sets, &mut chosen) {
        return None;
    }

    let labels: Vec<String> = cycle.iter().map(|&m| trace.mutex_label(m)).collect();
    let ring = labels
        .iter()
        .chain(std::iter::once(&labels[0]))
        .cloned()
        .collect::<Vec<_>>()
        .join(" -> ");
    let legs = chosen
        .iter()
        .enumerate()
        .map(|(i, w)| {
            format!(
                "thread {} acquired {} at tick {} then requested {} at tick {}",
                w.tid,
                labels[i],
                w.held_tick,
                labels[(i + 1) % labels.len()],
                w.req_tick,
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    Some(Finding {
        kind: FindingKind::PotentialDeadlock,
        message: format!("lock-order cycle {ring}: {legs}"),
        threads: chosen.iter().map(|w| w.tid).collect(),
        labels,
        ticks: chosen
            .iter()
            .flat_map(|w| [w.held_tick, w.req_tick])
            .collect(),
    })
}

/// Backtracking search for one witness per edge with all threads
/// distinct (a system of distinct representatives).
fn assign_distinct(witness_sets: &[&[EdgeWitness]], chosen: &mut Vec<EdgeWitness>) -> bool {
    if chosen.len() == witness_sets.len() {
        return true;
    }
    for w in witness_sets[chosen.len()] {
        if chosen.iter().all(|c| c.tid != w.tid) {
            chosen.push(*w);
            if assign_distinct(witness_sets, chosen) {
                return true;
            }
            chosen.pop();
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use srr_obs::ObsEvent;

    fn req(tid: u32, mutex: u32, tick: u64) -> ObsEvent {
        ObsEvent {
            tid,
            tick,
            kind: EventKind::MutexRequest { mutex },
        }
    }

    fn acq(tid: u32, mutex: u32, tick: u64) -> [ObsEvent; 2] {
        [
            req(tid, mutex, tick),
            ObsEvent {
                tid,
                tick,
                kind: EventKind::MutexAcquire { mutex },
            },
        ]
    }

    fn rel(tid: u32, mutex: u32, tick: u64) -> ObsEvent {
        ObsEvent {
            tid,
            tick,
            kind: EventKind::MutexRelease { mutex },
        }
    }

    fn labelled(events: Vec<ObsEvent>, labels: &[&str]) -> SyncTrace {
        SyncTrace {
            events,
            mutex_labels: labels.iter().map(|l| Some((*l).to_owned())).collect(),
            ..SyncTrace::default()
        }
    }

    fn trace_of(events: Vec<ObsEvent>) -> SyncTrace {
        labelled(events, &["A", "B"])
    }

    #[test]
    fn abba_on_a_completed_run_is_predicted() {
        // t1: A then B (released both); later t2: B then A. No deadlock
        // happened — the cycle is still there.
        let mut evs = Vec::new();
        evs.extend(acq(1, 0, 1));
        evs.extend(acq(1, 1, 2));
        evs.push(rel(1, 1, 3));
        evs.push(rel(1, 0, 4));
        evs.extend(acq(2, 1, 5));
        evs.extend(acq(2, 0, 6));
        evs.push(rel(2, 0, 7));
        evs.push(rel(2, 1, 8));
        let findings = predict_deadlocks(&trace_of(evs));
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.kind, FindingKind::PotentialDeadlock);
        assert!(f.message.contains("A -> B -> A") || f.message.contains("B -> A -> B"));
        assert_eq!(
            {
                let mut t = f.threads.clone();
                t.sort_unstable();
                t
            },
            vec![1, 2]
        );
        assert!(f.message.contains("tick"));
    }

    #[test]
    fn deadlocked_run_still_yields_both_edges() {
        // Requests that never succeeded (the actual deadlock): edges
        // exist because requests are traced before acquisition.
        let mut evs = Vec::new();
        evs.extend(acq(1, 0, 1));
        evs.extend(acq(2, 1, 2));
        evs.push(req(1, 1, 3));
        evs.push(req(2, 0, 4));
        let findings = predict_deadlocks(&trace_of(evs));
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let mut evs = Vec::new();
        for tid in 1..=2 {
            evs.extend(acq(tid, 0, u64::from(tid)));
            evs.extend(acq(tid, 1, u64::from(tid) + 4));
            evs.push(rel(tid, 1, u64::from(tid) + 8));
            evs.push(rel(tid, 0, u64::from(tid) + 12));
        }
        assert!(predict_deadlocks(&trace_of(evs)).is_empty());
    }

    #[test]
    fn single_thread_cycle_is_not_a_deadlock() {
        // One thread takes A→B once and B→A later: both edges exist but
        // belong to the same thread, which cannot deadlock with itself.
        let mut evs = Vec::new();
        evs.extend(acq(1, 0, 1));
        evs.extend(acq(1, 1, 2));
        evs.push(rel(1, 1, 3));
        evs.push(rel(1, 0, 4));
        evs.extend(acq(1, 1, 5));
        evs.extend(acq(1, 0, 6));
        evs.push(rel(1, 0, 7));
        evs.push(rel(1, 1, 8));
        assert!(predict_deadlocks(&trace_of(evs)).is_empty());
    }

    #[test]
    fn relock_of_held_mutex_is_reported() {
        let mut evs = Vec::new();
        evs.extend(acq(1, 0, 1));
        evs.push(req(1, 0, 2));
        let findings = predict_deadlocks(&trace_of(evs));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("self-deadlock"));
        assert_eq!(findings[0].threads, vec![1]);
    }

    #[test]
    fn three_lock_cycle_is_found() {
        let mut evs = Vec::new();
        // t1: A→B, t2: B→C, t3: C→A.
        for (tid, (h, m)) in [(1u32, (0u32, 1u32)), (2, (1, 2)), (3, (2, 0))] {
            evs.extend(acq(tid, h, u64::from(tid) * 10));
            evs.push(req(tid, m, u64::from(tid) * 10 + 1));
        }
        let findings = predict_deadlocks(&labelled(evs, &["A", "B", "C"]));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].labels.len(), 3);
    }
}
