//! The predictive (weaker-than-observed) partial order.
//!
//! FastTrack over the *observed* run orders two critical sections on one
//! mutex with a release→acquire edge whether or not the lock actually
//! protected anything — so a race hidden behind an incidental lock
//! handoff is invisible. The weak order here (SHB/WCP-style) keeps a
//! release→acquire edge between two critical sections on the same mutex
//! only when it is *forced*: when the two sections contain conflicting
//! accesses to some location, so commuting them would change program
//! behaviour. Atomic reads-from edges are dropped entirely — a reordered
//! schedule may resolve them differently. Spawn, join and
//! notify→signalled-wait edges are always forced.
//!
//! Candidates are access pairs unordered under the weak order; each is
//! also checked against the *observed* order (all handoff edges + atomic
//! reads-from) to flag the schedule-hidden ones — the races a plain run
//! of the FastTrack detector cannot report.

use std::collections::{HashMap, VecDeque};

use srr_obs::{EventKind, SyncTrace};
use srr_vclock::VectorClock;

/// A predicted racing pair: indices into the model's access list (in
/// plain-access emission order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The earlier access (emission order).
    pub a: usize,
    /// The later access.
    pub b: usize,
    /// Whether the pair is *ordered* under the observed partial order —
    /// i.e. hidden from the FastTrack pass of the recorded schedule.
    pub hidden: bool,
}

/// Per-location cap on reported candidate sites.
const PER_LOC_CAP: usize = 4;
/// Global candidate cap.
const GLOBAL_CAP: usize = 64;

#[derive(Default)]
struct CsRecord {
    mutex: u32,
    tid: u32,
    /// loc → wrote?
    accesses: HashMap<u32, bool>,
    weak_release: Option<VectorClock>,
    observed_release: Option<VectorClock>,
}

fn conflicts(a: &CsRecord, b: &CsRecord) -> bool {
    let (small, big) = if a.accesses.len() <= b.accesses.len() {
        (a, b)
    } else {
        (b, a)
    };
    small.accesses.iter().any(|(loc, &wrote)| {
        big.accesses
            .get(loc)
            .is_some_and(|&other_wrote| wrote || other_wrote)
    })
}

struct AccessSnap {
    tid: u32,
    loc: u32,
    write: bool,
    key: u64,
    weak: VectorClock,
    observed: VectorClock,
}

/// Computes the weak-order race candidates for `trace`. Returned indices
/// refer to plain accesses in emission order (the order
/// `TraceModel::build` lists them in).
#[must_use]
pub fn weak_candidates(trace: &SyncTrace) -> Vec<Candidate> {
    let ntids = trace
        .sync_events()
        .map(|e| {
            let extra = match e.kind {
                EventKind::ThreadSpawn { child } => child,
                EventKind::ThreadJoined { target, .. } => target,
                _ => 0,
            };
            e.tid.max(extra) as usize + 1
        })
        .max()
        .unwrap_or(0);

    // Pass 1: critical-section access sets, so pass 2 knows at each
    // acquire whether a handoff edge is forced.
    let mut cs: Vec<CsRecord> = Vec::new();
    let mut mutex_cs: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut cs_of_acquire: HashMap<usize, usize> = HashMap::new();
    let mut open: Vec<Vec<usize>> = vec![Vec::new(); ntids]; // per-thread open cs
    for (i, ev) in trace.sync_events().enumerate() {
        let tid = ev.tid;
        match ev.kind {
            EventKind::MutexAcquire { mutex } => {
                let id = cs.len();
                cs.push(CsRecord {
                    mutex,
                    tid,
                    ..CsRecord::default()
                });
                mutex_cs.entry(mutex).or_default().push(id);
                cs_of_acquire.insert(i, id);
                open[tid as usize].push(id);
            }
            EventKind::MutexRelease { mutex } => {
                let stack = &mut open[tid as usize];
                if let Some(p) = stack.iter().rposition(|&id| cs[id].mutex == mutex) {
                    stack.remove(p);
                }
            }
            EventKind::PlainAccess { loc, write } => {
                for &id in &open[tid as usize] {
                    let w = cs[id].accesses.entry(loc).or_insert(false);
                    *w |= write;
                }
            }
            EventKind::AtomicLoad { loc, .. } => {
                for &id in &open[tid as usize] {
                    cs[id].accesses.entry(loc).or_insert(false);
                }
            }
            EventKind::AtomicStore { loc, .. } => {
                for &id in &open[tid as usize] {
                    let w = cs[id].accesses.entry(loc).or_insert(false);
                    *w = true;
                }
            }
            _ => {}
        }
    }

    // Pass 2: the two vector-clock frames side by side.
    let mut weak: Vec<VectorClock> = vec![VectorClock::new(); ntids];
    let mut observed: Vec<VectorClock> = vec![VectorClock::new(); ntids];
    let mut key = vec![0u64; ntids];
    let mut open: Vec<Vec<usize>> = vec![Vec::new(); ntids];
    // cond → queued one-shot notify clocks (weak, observed) + broadcast.
    let mut notifies: HashMap<u32, VecDeque<(VectorClock, VectorClock)>> = HashMap::new();
    let mut broadcast: HashMap<u32, (VectorClock, VectorClock)> = HashMap::new();
    // (loc, writer) → the writer's latest atomic-store observed clock.
    let mut last_store: HashMap<(u32, u32), VectorClock> = HashMap::new();
    let mut snaps: Vec<AccessSnap> = Vec::new();

    for (i, ev) in trace.sync_events().enumerate() {
        let (tid, t) = (ev.tid, ev.tid as usize);
        key[t] += 1;
        let k = key[t];
        weak[t].set(t, k);
        observed[t].set(t, k);
        match ev.kind {
            EventKind::ThreadSpawn { child } => {
                let (parent_weak, parent_obs) = (weak[t].clone(), observed[t].clone());
                weak[child as usize].join(&parent_weak);
                observed[child as usize].join(&parent_obs);
            }
            EventKind::ThreadJoined { target, done: true } => {
                let (tw, to) = (
                    weak[target as usize].clone(),
                    observed[target as usize].clone(),
                );
                weak[t].join(&tw);
                observed[t].join(&to);
            }
            EventKind::CondNotify { cond, all } => {
                let clocks = (weak[t].clone(), observed[t].clone());
                if all {
                    broadcast.insert(cond, clocks);
                } else {
                    notifies.entry(cond).or_default().push_back(clocks);
                }
            }
            EventKind::CondWaitReturn {
                cond,
                signaled: true,
                ..
            } => {
                let hit = notifies
                    .get_mut(&cond)
                    .and_then(VecDeque::pop_front)
                    .or_else(|| broadcast.get(&cond).cloned());
                if let Some((w, o)) = hit {
                    weak[t].join(&w);
                    observed[t].join(&o);
                }
            }
            EventKind::MutexAcquire { mutex } => {
                let me = cs_of_acquire[&i];
                open[t].push(me);
                let peers = mutex_cs.get(&mutex).cloned().unwrap_or_default();
                for id in peers {
                    if id == me || cs[id].tid as usize == t {
                        continue;
                    }
                    let Some(wrel) = cs[id].weak_release.clone() else {
                        continue; // still open: a later acquisition, not a handoff
                    };
                    if conflicts(&cs[id], &cs[me]) {
                        weak[t].join(&wrel);
                    }
                    if let Some(orel) = cs[id].observed_release.clone() {
                        observed[t].join(&orel);
                    }
                }
            }
            EventKind::MutexRelease { mutex } => {
                if let Some(p) = open[t].iter().rposition(|&id| cs[id].mutex == mutex) {
                    let id = open[t].remove(p);
                    cs[id].weak_release = Some(weak[t].clone());
                    cs[id].observed_release = Some(observed[t].clone());
                }
            }
            EventKind::AtomicStore { loc, .. } => {
                last_store.insert((loc, tid), observed[t].clone());
            }
            EventKind::AtomicLoad { loc, writer, .. } if writer as usize != t => {
                if let Some(sc) = last_store.get(&(loc, writer)).cloned() {
                    observed[t].join(&sc);
                }
            }
            EventKind::PlainAccess { loc, write } => {
                snaps.push(AccessSnap {
                    tid,
                    loc,
                    write,
                    key: k,
                    weak: weak[t].clone(),
                    observed: observed[t].clone(),
                });
            }
            _ => {}
        }
    }

    // Candidate pairs: unordered under weak, conflicting, cross-thread.
    // Deduplicated by (location, thread pair, kind pair) site.
    let mut by_loc: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, s) in snaps.iter().enumerate() {
        by_loc.entry(s.loc).or_default().push(i);
    }
    let mut out = Vec::new();
    let mut seen: HashMap<(u32, u32, u32, bool, bool), ()> = HashMap::new();
    let mut locs: Vec<u32> = by_loc.keys().copied().collect();
    locs.sort_unstable();
    'outer: for loc in locs {
        let idxs = &by_loc[&loc];
        let mut loc_count = 0usize;
        for (p, &ia) in idxs.iter().enumerate() {
            for &ib in &idxs[p + 1..] {
                let (a, b) = (&snaps[ia], &snaps[ib]);
                if a.tid == b.tid || !(a.write || b.write) {
                    continue;
                }
                let ordered_weak = b.weak.get(a.tid as usize) >= a.key;
                if ordered_weak {
                    continue;
                }
                let (lo, hi) = if a.tid <= b.tid {
                    (a.tid, b.tid)
                } else {
                    (b.tid, a.tid)
                };
                let (wlo, whi) = if a.tid <= b.tid {
                    (a.write, b.write)
                } else {
                    (b.write, a.write)
                };
                if seen.insert((loc, lo, hi, wlo, whi), ()).is_some() {
                    continue;
                }
                let hidden = b.observed.get(a.tid as usize) >= a.key;
                out.push(Candidate {
                    a: ia,
                    b: ib,
                    hidden,
                });
                loc_count += 1;
                if out.len() >= GLOBAL_CAP {
                    break 'outer;
                }
                if loc_count >= PER_LOC_CAP {
                    break;
                }
            }
            if loc_count >= PER_LOC_CAP {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use srr_obs::ObsEvent;

    fn ev(tid: u32, tick: u64, kind: EventKind) -> ObsEvent {
        ObsEvent { tid, tick, kind }
    }

    fn trace(events: Vec<ObsEvent>) -> SyncTrace {
        SyncTrace {
            events,
            mutex_labels: vec![],
            loc_labels: vec!["x".into(), "y".into()],
        }
    }

    #[test]
    fn empty_lock_handoff_is_dropped() {
        // T0: wr x; lock m; unlock m.   T1: lock m; unlock m; wr x.
        // The handoff orders the writes under observed HB but the
        // critical sections are empty, so the weak order drops the edge.
        let t = trace(vec![
            ev(
                0,
                1,
                EventKind::PlainAccess {
                    loc: 0,
                    write: true,
                },
            ),
            ev(0, 1, EventKind::MutexAcquire { mutex: 0 }),
            ev(0, 2, EventKind::MutexRelease { mutex: 0 }),
            ev(1, 3, EventKind::MutexAcquire { mutex: 0 }),
            ev(1, 4, EventKind::MutexRelease { mutex: 0 }),
            ev(
                1,
                5,
                EventKind::PlainAccess {
                    loc: 0,
                    write: true,
                },
            ),
        ]);
        let cands = weak_candidates(&t);
        assert_eq!(cands.len(), 1);
        assert_eq!((cands[0].a, cands[0].b), (0, 1));
        assert!(cands[0].hidden, "observed order hides it");
    }

    #[test]
    fn protecting_lock_keeps_the_edge() {
        // Same shape, but both critical sections write x: the handoff is
        // forced and the accesses stay ordered — no candidate.
        let t = trace(vec![
            ev(0, 1, EventKind::MutexAcquire { mutex: 0 }),
            ev(
                0,
                1,
                EventKind::PlainAccess {
                    loc: 0,
                    write: true,
                },
            ),
            ev(0, 2, EventKind::MutexRelease { mutex: 0 }),
            ev(1, 3, EventKind::MutexAcquire { mutex: 0 }),
            ev(
                1,
                3,
                EventKind::PlainAccess {
                    loc: 0,
                    write: true,
                },
            ),
            ev(1, 4, EventKind::MutexRelease { mutex: 0 }),
        ]);
        assert!(weak_candidates(&t).is_empty());
    }

    #[test]
    fn atomic_reads_from_is_dropped_but_flags_hidden() {
        // T0: wr x; store g.   T1: load g (reads T0's store); wr x.
        // Observed HB orders the writes through the reads-from edge; the
        // weak order does not — a candidate, flagged hidden.
        let t = trace(vec![
            ev(
                0,
                1,
                EventKind::PlainAccess {
                    loc: 0,
                    write: true,
                },
            ),
            ev(0, 1, EventKind::AtomicStore { loc: 1, rmw: false }),
            ev(
                1,
                2,
                EventKind::AtomicLoad {
                    loc: 1,
                    relaxed: false,
                    writer: 0,
                },
            ),
            ev(
                1,
                3,
                EventKind::PlainAccess {
                    loc: 0,
                    write: true,
                },
            ),
        ]);
        let cands = weak_candidates(&t);
        assert_eq!(cands.len(), 1);
        assert!(cands[0].hidden);
    }

    #[test]
    fn spawn_and_join_edges_always_order() {
        // Parent writes x before spawning; child writes x: ordered by the
        // spawn edge in both frames — no candidate. Same for join.
        let t = trace(vec![
            ev(
                0,
                1,
                EventKind::PlainAccess {
                    loc: 0,
                    write: true,
                },
            ),
            ev(0, 1, EventKind::ThreadSpawn { child: 1 }),
            ev(
                1,
                2,
                EventKind::PlainAccess {
                    loc: 0,
                    write: true,
                },
            ),
            ev(
                0,
                3,
                EventKind::ThreadJoined {
                    target: 1,
                    done: true,
                },
            ),
            ev(
                0,
                4,
                EventKind::PlainAccess {
                    loc: 0,
                    write: true,
                },
            ),
        ]);
        assert!(weak_candidates(&t).is_empty());
    }

    #[test]
    fn unordered_in_both_frames_is_not_hidden() {
        let t = trace(vec![
            ev(
                0,
                1,
                EventKind::PlainAccess {
                    loc: 0,
                    write: true,
                },
            ),
            ev(
                1,
                2,
                EventKind::PlainAccess {
                    loc: 0,
                    write: true,
                },
            ),
        ]);
        let cands = weak_candidates(&t);
        assert_eq!(cands.len(), 1);
        assert!(!cands[0].hidden, "the observed run races too");
    }

    #[test]
    fn read_read_pairs_are_not_candidates() {
        let t = trace(vec![
            ev(
                0,
                1,
                EventKind::PlainAccess {
                    loc: 0,
                    write: false,
                },
            ),
            ev(
                1,
                2,
                EventKind::PlainAccess {
                    loc: 0,
                    write: false,
                },
            ),
        ]);
        assert!(weak_candidates(&t).is_empty());
    }

    #[test]
    fn duplicate_sites_are_deduplicated() {
        let mut evs = Vec::new();
        for _ in 0..5 {
            evs.push(ev(
                0,
                1,
                EventKind::PlainAccess {
                    loc: 0,
                    write: true,
                },
            ));
            evs.push(ev(
                1,
                2,
                EventKind::PlainAccess {
                    loc: 0,
                    write: true,
                },
            ));
        }
        let cands = weak_candidates(&trace(evs));
        assert_eq!(cands.len(), 1, "one per (loc, pair, kinds) site");
    }
}
