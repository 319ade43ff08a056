//! Deterministic causal profiling over a replayed schedule.
//!
//! The controlled scheduler serialises visible operations, so a replay
//! yields a total order of *ticks* (logical time) plus the sync events
//! of the run's one log. This module walks that order **backwards from
//! the final tick** along happens-before edges — lock hand-offs, condvar
//! notifies, thread spawn/join — extracting one critical path through
//! the execution and attributing every tick on it to a bucket:
//!
//! * `lock:<site>/waited` — ticks a critical-path thread spent blocked on
//!   a mutex (the path continues through the release that unblocked it);
//! * `lock:<site>/held` — on-CPU ticks executed while holding a mutex
//!   (contention potential: shrinking these shortens every waiter);
//! * `cond:<cv>` — ticks blocked in a condvar wait (path continues
//!   through the notify);
//! * `join:T<t>` — ticks blocked joining a thread (path continues through
//!   the joined thread's final tick);
//! * `sched:spawn` — ticks between a spawn and the child's first
//!   schedule;
//! * `cpu:T<t>` — remaining on-CPU ticks of thread `t` (invisible code
//!   between visible operations).
//!
//! Every step attributes the half-open interval `(j, k]` where `j < k`
//! is the predecessor tick, so the bucket totals **telescope to exactly
//! the total tick count** — the report's shares always sum to 100%.
//!
//! Inputs are logical only (tick numbers, thread/object ids): wall-clock
//! durations never enter the computation, so the same demo profiles to a
//! byte-identical report on every replay and every machine.
//!
//! The profile needs the schedule and sync classes of a trace. Only
//! events logged *inside* a scheduler critical section are used for
//! tick arithmetic (`MutexRequest/Acquire/Release`, `CondWaitBegin`,
//! `CondNotify`, spawn/join); `CondWaitReturn` is logged outside the
//! critical section and its stamp may legitimately vary between replays,
//! and atomics and plain accesses carry no blocking information.

use std::collections::{BTreeMap, HashMap};

use crate::event::{EventKind, ObsEvent};
use crate::json::Json;
use crate::trace::SyncTrace;

/// The canonical order of the events the walk reads — by tick, then
/// kind, then ids — which makes every derived table independent of
/// emission order; `None` for the events the walk ignores.
fn walk_key(ev: &ObsEvent) -> Option<(u64, u8, u32, u32, bool)> {
    let (rank, a, b, flag) = match ev.kind {
        EventKind::MutexRequest { mutex } => (0, ev.tid, mutex, false),
        EventKind::MutexAcquire { mutex } => (1, ev.tid, mutex, false),
        EventKind::MutexRelease { mutex } => (2, ev.tid, mutex, false),
        EventKind::CondWaitBegin { cond, .. } => (3, ev.tid, cond, false),
        EventKind::CondNotify { cond, .. } => (4, cond, 0, false),
        EventKind::ThreadSpawn { child } => (5, child, 0, false),
        EventKind::ThreadJoined { target, done } => (6, ev.tid, target, done),
        _ => return None,
    };
    Some((ev.tick, rank, a, b, flag))
}

/// One ranked attribution bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct BucketRow {
    /// Bucket name (`lock:<site>/waited`, `cpu:T2`, `sched:spawn`, …).
    pub name: String,
    /// Critical-path ticks attributed to this bucket.
    pub ticks: u64,
    /// `ticks / total_ticks` (0 when the schedule is empty).
    pub share: f64,
}

/// The result of a critical-path walk.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Total ticks in the replay (`N`).
    pub total_ticks: u64,
    /// Number of critical-path segments walked.
    pub segments: u64,
    /// Buckets, ranked by ticks descending then name.
    pub buckets: Vec<BucketRow>,
}

impl ProfileReport {
    /// Sum of all bucket ticks. Always equals [`ProfileReport::total_ticks`]
    /// — the walk partitions `(0, N]` exactly.
    #[must_use]
    pub fn attributed_ticks(&self) -> u64 {
        self.buckets.iter().map(|b| b.ticks).sum()
    }

    /// The ranked text report.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "critical path: {} segments over {} ticks ({} attributed)\n",
            self.segments,
            self.total_ticks,
            self.attributed_ticks()
        );
        out.push_str("rank  ticks  share  bucket\n");
        for (i, b) in self.buckets.iter().enumerate() {
            out.push_str(&format!(
                "{:>4}  {:>5}  {:>4.1}%  {}\n",
                i + 1,
                b.ticks,
                b.share * 100.0,
                b.name
            ));
        }
        out
    }

    /// The report as JSON (logical time only — byte-identical across
    /// replays of the same demo).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("total_ticks".into(), Json::Num(self.total_ticks as f64)),
            ("segments".into(), Json::Num(self.segments as f64)),
            (
                "attributed_ticks".into(),
                Json::Num(self.attributed_ticks() as f64),
            ),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|b| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(b.name.clone())),
                                ("ticks".into(), Json::Num(b.ticks as f64)),
                                ("share".into(), Json::Num(b.share)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Folded-stacks output (`frame;frame count` lines, sorted) for
    /// `flamegraph.pl` / speedscope / inferno.
    #[must_use]
    pub fn folded_stacks(&self) -> String {
        let mut lines: Vec<String> = self
            .buckets
            .iter()
            .map(|b| format!("srr;{} {}\n", b.name.replace('/', ";"), b.ticks))
            .collect();
        lines.sort();
        lines.concat()
    }
}

/// Internal bucket key; ordered so ties rank deterministically.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Bucket {
    LockWaited(u32),
    LockHeld(u32),
    Cond(u32),
    Join(u32),
    SchedSpawn,
    OnCpu(u32),
    Unknown,
}

struct Prepared {
    /// `owner[tick]` for `1..=n` (`None` on holes — malformed traces).
    owner: Vec<Option<u32>>,
    /// Ticks owned by each tid, ascending.
    owned: HashMap<u32, Vec<u64>>,
    /// Blocking-acquire episodes per tid: `(request, acquire, mutex)`,
    /// acquire == `u64::MAX` when the trace ends mid-wait.
    episodes: HashMap<u32, Vec<(u64, u64, u32)>>,
    /// Release ticks per mutex, ascending.
    releases: HashMap<u32, Vec<u64>>,
    /// Notify ticks per condvar, ascending.
    notifies: HashMap<u32, Vec<u64>>,
    /// `(tid, tick)` of a CondWaitBegin -> condvar id.
    wait_begins: HashMap<(u32, u64), u32>,
    /// `(tid, tick)` of a ThreadJoin attempt -> target tid.
    joins: HashMap<(u32, u64), u32>,
    /// Child tid -> spawn tick.
    spawns: HashMap<u32, u64>,
    /// `(tid, tick)` -> innermost mutex held during that tick.
    held_at: HashMap<(u32, u64), u32>,
}

fn prepare(trace: &SyncTrace, schedule: &[(u32, u64)], n: u64) -> Prepared {
    let mut owner = vec![None; (n + 1) as usize];
    let mut owned: HashMap<u32, Vec<u64>> = HashMap::new();
    for &(tid, tick) in schedule {
        if tick >= 1 && tick <= n {
            owner[tick as usize] = Some(tid);
        }
    }
    for (tick, slot) in owner.iter().enumerate().skip(1) {
        if let Some(tid) = slot {
            owned.entry(*tid).or_default().push(tick as u64);
        }
    }

    let mut events: Vec<&ObsEvent> = trace
        .events
        .iter()
        .filter(|e| walk_key(e).is_some())
        .collect();
    events.sort_unstable_by_key(|e| walk_key(e));

    let mut episodes: HashMap<u32, Vec<(u64, u64, u32)>> = HashMap::new();
    let mut pending: HashMap<(u32, u32), u64> = HashMap::new();
    let mut releases: HashMap<u32, Vec<u64>> = HashMap::new();
    let mut notifies: HashMap<u32, Vec<u64>> = HashMap::new();
    let mut wait_begins = HashMap::new();
    let mut joins = HashMap::new();
    let mut spawns = HashMap::new();
    // Per-thread lock events in tick order, for the held-lock scan.
    let mut lock_events: HashMap<u32, Vec<(u64, bool, u32)>> = HashMap::new();

    for &&ObsEvent { tid, tick, kind } in &events {
        match kind {
            EventKind::MutexRequest { mutex } => {
                pending.insert((tid, mutex), tick);
            }
            EventKind::MutexAcquire { mutex } => {
                if let Some(r) = pending.remove(&(tid, mutex)) {
                    episodes.entry(tid).or_default().push((r, tick, mutex));
                }
                lock_events
                    .entry(tid)
                    .or_default()
                    .push((tick, true, mutex));
            }
            EventKind::MutexRelease { mutex } => {
                releases.entry(mutex).or_default().push(tick);
                lock_events
                    .entry(tid)
                    .or_default()
                    .push((tick, false, mutex));
            }
            EventKind::CondWaitBegin { cond, .. } => {
                wait_begins.insert((tid, tick), cond);
            }
            EventKind::CondNotify { cond, .. } => {
                notifies.entry(cond).or_default().push(tick);
            }
            EventKind::ThreadSpawn { child } => {
                spawns.entry(child).or_insert(tick);
            }
            EventKind::ThreadJoined { target, .. } => {
                joins.insert((tid, tick), target);
            }
            _ => {}
        }
    }
    // Requests the trace never saw acquired (deadlock, truncated run).
    for ((tid, mutex), r) in pending {
        episodes.entry(tid).or_default().push((r, u64::MAX, mutex));
    }
    for eps in episodes.values_mut() {
        eps.sort_unstable();
    }

    // Which mutex (innermost) each thread held during each of its ticks.
    // An acquire tick counts as held; a release tick still counts as
    // held (the unlock runs at the end of that critical section).
    let mut held_at = HashMap::new();
    for (&tid, ticks) in &owned {
        let evs = lock_events.get(&tid).map(Vec::as_slice).unwrap_or(&[]);
        let mut stack: Vec<u32> = Vec::new();
        let mut i = 0;
        for &k in ticks {
            while i < evs.len() && evs[i].0 < k {
                apply_lock_event(&mut stack, evs[i].1, evs[i].2);
                i += 1;
            }
            let mut held = stack.last().copied();
            if i < evs.len() && evs[i].0 == k {
                let (_, is_acquire, m) = evs[i];
                held = Some(m);
                apply_lock_event(&mut stack, is_acquire, m);
                i += 1;
            }
            if let Some(m) = held {
                held_at.insert((tid, k), m);
            }
        }
    }

    Prepared {
        owner,
        owned,
        episodes,
        releases,
        notifies,
        wait_begins,
        joins,
        spawns,
        held_at,
    }
}

fn apply_lock_event(stack: &mut Vec<u32>, is_acquire: bool, mutex: u32) {
    if is_acquire {
        stack.push(mutex);
    } else if let Some(pos) = stack.iter().rposition(|&m| m == mutex) {
        stack.remove(pos);
    }
}

/// Largest element of a sorted slice strictly below `limit`.
fn last_below(sorted: &[u64], limit: u64) -> Option<u64> {
    match sorted.partition_point(|&t| t < limit) {
        0 => None,
        i => Some(sorted[i - 1]),
    }
}

/// Runs the critical-path walk over `trace`'s schedule and sync events,
/// producing ranked buckets whose tick totals sum exactly to the
/// schedule length. Without the schedule class the report is empty.
#[must_use]
pub fn profile(trace: &SyncTrace) -> ProfileReport {
    let schedule = trace.tick_order();
    let n = schedule.iter().map(|&(_, t)| t).max().unwrap_or(0);
    if n == 0 {
        return ProfileReport::default();
    }
    let p = prepare(trace, &schedule, n);
    let mut totals: BTreeMap<Bucket, u64> = BTreeMap::new();
    let mut segments = 0u64;
    let mut k = n;
    while k > 0 {
        let (j, bucket) = step(&p, k);
        debug_assert!(j < k, "walk must strictly decrease ({j} !< {k})");
        *totals.entry(bucket).or_insert(0) += k - j;
        segments += 1;
        k = j;
    }

    let mut buckets: Vec<BucketRow> = totals
        .into_iter()
        .map(|(b, ticks)| BucketRow {
            name: bucket_name(&b, trace),
            ticks,
            share: ticks as f64 / n as f64,
        })
        .collect();
    buckets.sort_by(|a, b| b.ticks.cmp(&a.ticks).then_with(|| a.name.cmp(&b.name)));
    ProfileReport {
        total_ticks: n,
        segments,
        buckets,
    }
}

/// One backward step from tick `k`: the predecessor tick `j < k` and the
/// bucket absorbing the interval `(j, k]`.
fn step(p: &Prepared, k: u64) -> (u64, Bucket) {
    let Some(t) = p.owner.get(k as usize).copied().flatten() else {
        // Hole in the schedule trace — walk through it one tick at a time.
        return (k - 1, Bucket::Unknown);
    };
    let owned = p.owned.get(&t).map(Vec::as_slice).unwrap_or(&[]);
    let prev = last_below(owned, k).unwrap_or(0);

    // Consecutive ticks (or the very first tick): plain on-CPU work,
    // attributed to the lock held if any.
    if prev + 1 == k || k == 1 {
        return (k - 1, on_cpu_bucket(p, t, k));
    }

    // A gap before k: find what t was blocked on.
    if prev > 0 {
        // Mid-acquire of a mutex? The path continues through the release
        // that let this attempt run.
        if let Some(&(_, _, m)) = p
            .episodes
            .get(&t)
            .and_then(|eps| eps.iter().find(|&&(r, a, _)| r < k && k <= a))
        {
            let j = p
                .releases
                .get(&m)
                .and_then(|rel| last_below(rel, k))
                .filter(|&j| j > prev)
                .unwrap_or(prev);
            return (j, Bucket::LockWaited(m));
        }
        // Returning from a condvar wait entered at `prev`? The path
        // continues through the notify that woke it (timeouts fall back
        // to the wait-begin tick).
        if let Some(&c) = p.wait_begins.get(&(t, prev)) {
            let j = p
                .notifies
                .get(&c)
                .and_then(|nt| last_below(nt, k))
                .filter(|&j| j > prev)
                .unwrap_or(prev);
            return (j, Bucket::Cond(c));
        }
        // A join attempt that had to block? The path continues through
        // the target's final tick.
        if let Some(&target) = p.joins.get(&(t, k)) {
            let j = p
                .owned
                .get(&target)
                .and_then(|ticks| last_below(ticks, k))
                .filter(|&j| j > prev)
                .unwrap_or(prev);
            return (j, Bucket::Join(target));
        }
        // Runnable but descheduled: whoever ran during the gap owns that
        // time — walk back one tick and attribute it to them next round.
        return (k - 1, on_cpu_bucket(p, t, k));
    }

    // First tick of t ever: charge the spawn-to-first-schedule gap.
    if let Some(&s) = p.spawns.get(&t) {
        if s < k {
            return (s, Bucket::SchedSpawn);
        }
    }
    (k - 1, on_cpu_bucket(p, t, k))
}

fn on_cpu_bucket(p: &Prepared, t: u32, k: u64) -> Bucket {
    match p.held_at.get(&(t, k)) {
        Some(&m) => Bucket::LockHeld(m),
        None => Bucket::OnCpu(t),
    }
}

fn bucket_name(b: &Bucket, trace: &SyncTrace) -> String {
    let lock_label = |m: &u32| trace.mutex_label(*m);
    match b {
        Bucket::LockWaited(m) => format!("lock:{}/waited", lock_label(m)),
        Bucket::LockHeld(m) => format!("lock:{}/held", lock_label(m)),
        Bucket::Cond(c) => format!("cond:cond#{c}/wait"),
        Bucket::Join(t) => format!("join:T{t}"),
        Bucket::SchedSpawn => "sched:spawn".to_owned(),
        Bucket::OnCpu(t) => format!("cpu:T{t}"),
        Bucket::Unknown => "sched:unknown".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsOp;
    use EventKind::{
        CondNotify, CondWaitBegin, MutexAcquire, MutexRelease, MutexRequest, ThreadJoined,
        ThreadSpawn,
    };

    /// A trace of the schedule `owners` (tick `i + 1` closed by
    /// `owners[i]`) followed by the `sync` events `(tid, tick, kind)`.
    fn trace(owners: &[u32], sync: &[(u32, u64, EventKind)]) -> SyncTrace {
        let ticks = owners.iter().enumerate().map(|(i, &tid)| ObsEvent {
            tid,
            tick: (i + 1) as u64,
            kind: EventKind::TickEnd {
                dur_nanos: 0,
                op: ObsOp::Other,
            },
        });
        let sync = sync
            .iter()
            .map(|&(tid, tick, kind)| ObsEvent { tid, tick, kind });
        SyncTrace {
            events: ticks.chain(sync).collect(),
            ..SyncTrace::default()
        }
    }

    #[test]
    fn empty_schedule_is_empty_report() {
        let rep = profile(&SyncTrace::default());
        assert_eq!(rep.total_ticks, 0);
        assert_eq!(rep.attributed_ticks(), 0);
        assert!(rep.buckets.is_empty());
    }

    #[test]
    fn single_thread_is_all_on_cpu() {
        let rep = profile(&trace(&[0, 0, 0, 0], &[]));
        assert_eq!(rep.total_ticks, 4);
        assert_eq!(rep.attributed_ticks(), 4);
        assert_eq!(rep.buckets.len(), 1);
        assert_eq!(rep.buckets[0].name, "cpu:T0");
        assert!((rep.buckets[0].share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lock_wait_attributes_to_waited_bucket() {
        // T0: acquire m at 1, work 2-3, release at 4.
        // T1: request at 2 (fails), blocked, acquires at 5, releases 6.
        let mut t = trace(
            &[0, 1, 0, 0, 1, 1],
            &[
                (0, 1, MutexAcquire { mutex: 1 }),
                (1, 2, MutexRequest { mutex: 1 }),
                (0, 4, MutexRelease { mutex: 1 }),
                (1, 5, MutexAcquire { mutex: 1 }),
                (1, 6, MutexRelease { mutex: 1 }),
            ],
        );
        t.mutex_labels = vec![None, Some("queue".to_owned())];
        let rep = profile(&t);
        assert_eq!(rep.attributed_ticks(), rep.total_ticks);
        let names: Vec<&str> = rep.buckets.iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"lock:queue/waited"));
        assert!(names.contains(&"lock:queue/held"));
        let waited = rep
            .buckets
            .iter()
            .find(|b| b.name == "lock:queue/waited")
            .unwrap();
        assert!(waited.ticks >= 1);
    }

    #[test]
    fn cond_wait_attributes_and_jumps_to_notify() {
        // T1: lock(2), wait-begin on cond 7 at tick 2 (releases m2).
        // T0: lock at 3, notify at 4, release at 5.
        // T1: reacquire request+acquire at 6, release 7, final work 8.
        let rep = profile(&trace(
            &[1, 1, 0, 0, 0, 1, 1, 1],
            &[
                (1, 1, MutexAcquire { mutex: 2 }),
                (1, 2, CondWaitBegin { cond: 7, mutex: 2 }),
                (1, 2, MutexRelease { mutex: 2 }),
                (0, 3, MutexAcquire { mutex: 2 }),
                (
                    0,
                    4,
                    CondNotify {
                        cond: 7,
                        all: false,
                    },
                ),
                (0, 5, MutexRelease { mutex: 2 }),
                (1, 6, MutexRequest { mutex: 2 }),
                (1, 6, MutexAcquire { mutex: 2 }),
                (1, 7, MutexRelease { mutex: 2 }),
            ],
        ));
        assert_eq!(rep.attributed_ticks(), 8);
        let names: Vec<&str> = rep.buckets.iter().map(|b| b.name.as_str()).collect();
        assert!(
            names.contains(&"cond:cond#7/wait"),
            "missing cond bucket in {names:?}"
        );
    }

    #[test]
    fn join_gap_attributes_to_join_bucket() {
        // T0 spawns T1 at 1, tries join at 2 (not done), blocked while T1
        // runs 3-5, join completes at 6.
        let rep = profile(&trace(
            &[0, 0, 1, 1, 1, 0],
            &[
                (0, 1, ThreadSpawn { child: 1 }),
                (
                    0,
                    2,
                    ThreadJoined {
                        target: 1,
                        done: false,
                    },
                ),
                (
                    0,
                    6,
                    ThreadJoined {
                        target: 1,
                        done: true,
                    },
                ),
            ],
        ));
        assert_eq!(rep.attributed_ticks(), 6);
        let join = rep.buckets.iter().find(|b| b.name == "join:T1").unwrap();
        // 6 <- 5 (T1's last tick): 1 tick in the join bucket, then the
        // walk continues through T1's on-CPU run.
        assert_eq!(join.ticks, 1);
        assert!(rep.buckets.iter().any(|b| b.name == "cpu:T1"));
    }

    #[test]
    fn spawn_gap_attributes_to_sched_spawn() {
        // T0 runs 1-3 (spawn at 2), T1 first scheduled at 4.
        let rep = profile(&trace(&[0, 0, 0, 1], &[(0, 2, ThreadSpawn { child: 1 })]));
        assert_eq!(rep.attributed_ticks(), 4);
        let spawn = rep
            .buckets
            .iter()
            .find(|b| b.name == "sched:spawn")
            .unwrap();
        // 4 <- 2: ticks 3 and 4 charged to the spawn-to-schedule gap.
        assert_eq!(spawn.ticks, 2);
    }

    #[test]
    fn event_order_does_not_change_the_report() {
        let mut t = trace(
            &[0, 1, 0, 0, 1, 1],
            &[
                (0, 1, MutexAcquire { mutex: 1 }),
                (1, 2, MutexRequest { mutex: 1 }),
                (0, 4, MutexRelease { mutex: 1 }),
                (1, 5, MutexAcquire { mutex: 1 }),
            ],
        );
        let a = profile(&t).to_json().to_pretty();
        t.events.reverse();
        let b = profile(&t).to_json().to_pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn folded_stacks_shape() {
        let folded = profile(&trace(&[0, 0], &[])).folded_stacks();
        assert_eq!(folded, "srr;cpu:T0 2\n");
    }
}
