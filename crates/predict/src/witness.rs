//! Witness-schedule synthesis: reorder the recorded QUEUE interleaving so
//! a predicted racing pair's access segments overlap, subject to the
//! trace's synchronisation constraints.
//!
//! Two constraint graphs over the recorded ticks are used:
//!
//! * the **sound** graph holds only edges every trace-consistent reorder
//!   must respect (program order, spawn, completed joins, per-location
//!   atomic order, notify→wait). If one access's segment *end* reaches the
//!   other's segment *start* through these edges, no reorder can overlap
//!   the segments — the candidate is [`Synth::Infeasible`], and that
//!   verdict is sound;
//! * the **synthesis** graph adds pragmatic freeze edges (spawn-order,
//!   failed-join outcomes, contended-mutex schedules, the global syscall
//!   cursor, unknown ticks, plain-access value order) that keep the
//!   replayer's strict stream matching satisfied. It over-constrains, so
//!   a greedy failure here is only [`Synth::Stuck`] (reported
//!   unconfirmed), never a feasibility claim.
//!
//! The greedy scheduler runs ticks in two phases: everything needed to
//! open both segments while *deferring* the ticks that close them, then
//! the rest in recorded order. Both segment starts therefore precede both
//! segment ends — the reordered run leaves a window where the two
//! accesses are adjacent.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use srr_replay::{Demo, DemoHeader, QueueStream, Syscall, SyscallHead, SyscallStream};

use crate::model::{Access, TickOp, TraceModel};

/// Outcome of synthesizing a witness for one candidate pair.
#[derive(Clone, Debug)]
pub enum Synth {
    /// A constraint-respecting reorder bringing the accesses adjacent.
    Witness(Box<Demo>),
    /// The sound constraints alone forbid overlap: no reorder exists.
    Infeasible,
    /// The pragmatic constraints left the greedy scheduler stuck; no
    /// witness was produced (the candidate stays unconfirmed).
    Stuck,
}

struct Graph {
    n: usize,
    edges: HashSet<(usize, usize)>,
}

impl Graph {
    fn new(n: usize) -> Self {
        Graph {
            n,
            edges: HashSet::new(),
        }
    }

    fn add(&mut self, from: usize, to: usize) {
        if from != to {
            self.edges.insert((from, to));
        }
    }

    fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.n];
        for &(a, b) in &self.edges {
            adj[a].push(b);
        }
        adj
    }

    fn reaches(&self, from: usize, to: usize) -> bool {
        let adj = self.adjacency();
        let mut seen = vec![false; self.n];
        let mut q = VecDeque::from([from]);
        seen[from] = true;
        while let Some(v) = q.pop_front() {
            if v == to {
                return true;
            }
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    q.push_back(w);
                }
            }
        }
        false
    }

    fn ancestors_of(&self, targets: &[usize]) -> Vec<bool> {
        let mut radj = vec![Vec::new(); self.n];
        for &(a, b) in &self.edges {
            radj[b].push(a);
        }
        let mut anc = vec![false; self.n];
        let mut q: VecDeque<usize> = targets.iter().copied().collect();
        for &t in targets {
            anc[t] = true;
        }
        while let Some(v) = q.pop_front() {
            for &w in &radj[v] {
                if !anc[w] {
                    anc[w] = true;
                    q.push_back(w);
                }
            }
        }
        anc
    }
}

fn chain(g: &mut Graph, positions: &[usize]) {
    for w in positions.windows(2) {
        g.add(w[0], w[1]);
    }
}

/// Attempts to synthesize a witness demo for the candidate pair
/// `(model.accesses[ia], model.accesses[ib])` over the recording `demo`.
#[must_use]
pub fn synthesize(model: &TraceModel, demo: &Demo, ia: usize, ib: usize) -> Synth {
    let n = model.order.len();
    if n == 0 {
        return Synth::Stuck;
    }
    let pos_of: HashMap<u64, usize> = model
        .order
        .iter()
        .enumerate()
        .map(|(p, &(_, tick))| (tick, p))
        .collect();
    let pos = |tick: u64| pos_of.get(&tick).copied();
    let a = &model.accesses[ia];
    let b = &model.accesses[ib];

    let mut sound = Graph::new(n);
    let mut extra: Vec<(usize, usize)> = Vec::new(); // pragmatic-only edges

    // Program order.
    for ts in &model.thread_ticks {
        let ps: Vec<usize> = ts.iter().filter_map(|&t| pos(t)).collect();
        chain(&mut sound, &ps);
    }

    // Spawn, join, cond and per-primitive orders.
    let mut spawn_ticks = Vec::new();
    let mut syscall_ticks = Vec::new();
    let mut atomic_ticks: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut mutex_ticks: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut cond_waits: Vec<(u32, u64, u32)> = Vec::new(); // (cond, tick, tid)
    let mut cond_notifies: HashMap<u32, Vec<u64>> = HashMap::new();
    for (p, &(tid, tick)) in model.order.iter().enumerate() {
        for op in model.ops_at(tick) {
            match *op {
                TickOp::Spawn { child } => {
                    spawn_ticks.push(p);
                    if let Some(&first) = model
                        .thread_ticks
                        .get(child as usize)
                        .and_then(|ts| ts.first())
                    {
                        if let Some(fp) = pos(first) {
                            sound.add(p, fp);
                        }
                    }
                }
                TickOp::JoinAttempt { target, done } => {
                    if let Some(ft) = model.finish_tick.get(target as usize).copied().flatten() {
                        if let Some(fp) = pos(ft) {
                            if done {
                                sound.add(fp, p);
                            } else {
                                extra.push((p, fp));
                            }
                        }
                    }
                }
                TickOp::Atomic { loc } => atomic_ticks.entry(loc).or_default().push(p),
                TickOp::Request { mutex }
                | TickOp::Acquire { mutex }
                | TickOp::Release { mutex } => {
                    mutex_ticks.entry(mutex).or_default().push(p);
                }
                TickOp::CondBegin { cond } => cond_waits.push((cond, tick, tid)),
                TickOp::Notify { cond } => cond_notifies.entry(cond).or_default().push(tick),
                TickOp::Syscall => syscall_ticks.push(p),
            }
        }
    }
    for ps in atomic_ticks.values() {
        chain(&mut sound, ps);
    }
    // A signalled waiter's reacquisition must follow a notify: edge from
    // the first notify after the wait began to the waiter's next tick.
    for (cond, wtick, tid) in cond_waits {
        let notify = cond_notifies
            .get(&cond)
            .and_then(|ns| ns.iter().find(|&&nt| nt > wtick));
        let next = model
            .thread_ticks
            .get(tid as usize)
            .and_then(|ts| ts.iter().find(|&&t| t > wtick));
        if let (Some(&nt), Some(&xt)) = (notify, next) {
            if let (Some(np), Some(xp)) = (pos(nt), pos(xt)) {
                sound.add(np, xp);
            }
        }
    }

    // Feasibility: can the segments still overlap under the sound edges?
    let seg = |tick: u64| if tick == u64::MAX { None } else { pos(tick) };
    let closed = |end: u64, start: u64| match (seg(end), (start > 0).then(|| pos(start)).flatten())
    {
        (Some(e), Some(s)) => sound.reaches(e, s),
        _ => false,
    };
    if closed(a.seg_end, b.seg_start) || closed(b.seg_end, a.seg_start) {
        return Synth::Infeasible;
    }

    // Pragmatic freezes for the synthesis graph.
    let mut synth = Graph::new(n);
    for &e in &sound.edges {
        synth.edges.insert(e);
    }
    for (f, t) in extra {
        synth.add(f, t);
    }
    chain(&mut synth, &spawn_ticks);
    chain(&mut synth, &syscall_ticks);
    for m in &model.contended {
        if let Some(ps) = mutex_ticks.get(m) {
            chain(&mut synth, ps);
        }
    }
    let finish_set: HashSet<u64> = model.finish_tick.iter().filter_map(|&t| t).collect();
    let unknown: Vec<usize> = model
        .order
        .iter()
        .enumerate()
        .filter(|&(_, &(_, tick))| model.ops_at(tick).is_empty() && !finish_set.contains(&tick))
        .map(|(p, _)| p)
        .collect();
    chain(&mut synth, &unknown);
    // Value order between plain accesses not in the candidate pair:
    // conflicting neighbours keep their order (the earlier access's
    // segment closes before the later one's opens).
    let mut per_loc: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, acc) in model.accesses.iter().enumerate() {
        per_loc.entry(acc.loc).or_default().push(i);
    }
    for idxs in per_loc.values() {
        for w in idxs.windows(2) {
            let (u, v) = (w[0], w[1]);
            if u == ia || u == ib || v == ia || v == ib {
                continue;
            }
            let (au, av) = (&model.accesses[u], &model.accesses[v]);
            if au.tid == av.tid || !(au.write || av.write) {
                continue;
            }
            if let (Some(e), Some(s)) = (
                seg(au.seg_end),
                (av.seg_start > 0).then(|| pos(av.seg_start)).flatten(),
            ) {
                synth.add(e, s);
            }
        }
    }

    match greedy(model, &synth, a, b, &pos_of) {
        Some(order) => Synth::Witness(Box::new(rebuild_demo(demo, &order, model.nthreads))),
        None => Synth::Stuck,
    }
}

/// List-schedules the synthesis graph: open both segments, defer their
/// closing ticks, then drain in recorded order. Returns the reordered
/// `(tid, old_tick)` sequence, or `None` when stuck.
fn greedy(
    model: &TraceModel,
    synth: &Graph,
    a: &Access,
    b: &Access,
    pos_of: &HashMap<u64, usize>,
) -> Option<Vec<(u32, u64)>> {
    let n = model.order.len();
    let adj = synth.adjacency();
    let mut indeg = vec![0usize; n];
    for &(_, t) in &synth.edges {
        indeg[t] += 1;
    }
    let pos = |tick: u64| pos_of.get(&tick).copied();
    let start_pos = |acc: &Access| (acc.seg_start > 0).then(|| pos(acc.seg_start)).flatten();
    let end_pos = |acc: &Access| {
        (acc.seg_end != u64::MAX)
            .then(|| pos(acc.seg_end))
            .flatten()
    };
    let starts: Vec<usize> = [start_pos(a), start_pos(b)].into_iter().flatten().collect();
    let deferred: HashSet<usize> = [end_pos(a), end_pos(b)].into_iter().flatten().collect();
    let anc = synth.ancestors_of(&starts);

    let mut scheduled = vec![false; n];
    let mut held: HashSet<u32> = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut remaining_starts: HashSet<usize> = starts.iter().copied().collect();

    let mutex_ok = |p: usize, held: &HashSet<u32>| {
        let tick = model.order[p].1;
        let ops = model.ops_at(tick);
        for op in ops {
            match *op {
                TickOp::Acquire { mutex } if held.contains(&mutex) => {
                    return false;
                }
                TickOp::Request { mutex } => {
                    let acquires = ops
                        .iter()
                        .any(|o| matches!(o, TickOp::Acquire { mutex: m } if *m == mutex));
                    // A recorded *blocked* first attempt must stay blocked.
                    if !acquires && !held.contains(&mutex) {
                        return false;
                    }
                }
                _ => {}
            }
        }
        true
    };

    while out.len() < n {
        let defer_phase = !remaining_starts.is_empty();
        let mut best: Option<usize> = None;
        let mut best_rank = (false, u64::MAX);
        for p in 0..n {
            if scheduled[p] || indeg[p] != 0 {
                continue;
            }
            if defer_phase && deferred.contains(&p) {
                continue;
            }
            if !mutex_ok(p, &held) {
                continue;
            }
            // Prefer ancestors of the yet-unopened segments, then the
            // recorded order.
            let rank = (!(defer_phase && anc[p]), model.order[p].1);
            if best.is_none() || rank < best_rank {
                best = Some(p);
                best_rank = rank;
            }
        }
        let p = best?;
        scheduled[p] = true;
        remaining_starts.remove(&p);
        let (tid, tick) = model.order[p];
        for op in model.ops_at(tick) {
            match *op {
                TickOp::Acquire { mutex } => {
                    held.insert(mutex);
                }
                TickOp::Release { mutex } => {
                    held.remove(&mutex);
                }
                _ => {}
            }
        }
        for &w in &adj[p] {
            indeg[w] -= 1;
        }
        out.push((tid, tick));
    }
    Some(out)
}

/// Rebuilds a queue demo around the reordered schedule, remapping every
/// tick-pinned stream entry into the new tick numbering.
fn rebuild_demo(demo: &Demo, order: &[(u32, u64)], nthreads: usize) -> Demo {
    let tick_map: HashMap<u64, u64> = order
        .iter()
        .enumerate()
        .map(|(i, &(_, old))| (old, i as u64 + 1))
        .collect();
    let remap = |t: u64| tick_map.get(&t).copied().unwrap_or(t);
    let new_order: Vec<(u32, u64)> = order
        .iter()
        .enumerate()
        .map(|(i, &(tid, _))| (tid, i as u64 + 1))
        .collect();
    let mut out = Demo::new(DemoHeader::new(
        demo.header.tool.clone(),
        "queue",
        demo.header.seeds,
    ));
    out.queue = Arc::new(QueueStream::from_order(&new_order, nthreads));
    let mut calls: Vec<Syscall<'_>> = demo.syscalls.iter().collect();
    for call in &mut calls {
        call.head.tick = remap(call.head.tick);
    }
    // Replay consumes syscalls through a single global cursor: the
    // records must follow the new tick order.
    calls.sort_by_key(|c| c.head.tick);
    let mut syscalls = SyscallStream::default();
    for (seq, call) in (0..).zip(&calls) {
        syscalls.push(SyscallHead { seq, ..call.head }, call.bufs());
    }
    syscalls.shrink_to_fit();
    out.syscalls = Arc::new(syscalls);
    out.signals = demo.signals.clone();
    for s in &mut out.signals {
        s.tick = remap(s.tick);
    }
    out.signals.sort_by_key(|s| s.tick);
    out.async_events = demo.async_events.clone();
    for e in &mut out.async_events {
        match e {
            srr_replay::AsyncEvent::Reschedule { tick } => *tick = remap(*tick),
            srr_replay::AsyncEvent::SignalWakeup { tick, .. } => *tick = remap(*tick),
        }
    }
    out.async_events.sort_by_key(|e| e.tick());
    out.alloc = Arc::clone(&demo.alloc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use srr_obs::{EventKind, ObsEvent, SyncTrace};

    fn ev(tid: u32, tick: u64, kind: EventKind) -> ObsEvent {
        ObsEvent { tid, tick, kind }
    }

    /// The hidden-handoff shape: T0 spawns T1 and T2; T1 writes x then
    /// locks/unlocks m; T2 pads, locks/unlocks m, then writes x.
    fn handoff_fixture() -> (TraceModel, Demo) {
        let order = vec![
            (0, 1),  // spawn T1
            (0, 2),  // spawn T2
            (1, 3),  // T1 lock m (after its x write)
            (1, 4),  // T1 unlock m
            (2, 5),  // T2 pad atomic
            (2, 6),  // T2 lock m
            (2, 7),  // T2 unlock m  (x write floats after this)
            (1, 8),  // T1 finish
            (0, 9),  // T0 join T1 (done)
            (2, 10), // T2 finish
            (0, 11), // T0 join T2 (done)
            (0, 12), // T0 finish
        ];
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "queue", [1, 2]));
        d.queue = Arc::new(QueueStream::from_order(&order, 3));
        let trace = SyncTrace {
            loc_labels: vec!["x".into(), "pad".into()],
            events: vec![
                ev(0, 1, EventKind::ThreadSpawn { child: 1 }),
                ev(0, 2, EventKind::ThreadSpawn { child: 2 }),
                ev(
                    1,
                    2,
                    EventKind::PlainAccess {
                        loc: 0,
                        write: true,
                    },
                ),
                ev(1, 3, EventKind::MutexRequest { mutex: 0 }),
                ev(1, 3, EventKind::MutexAcquire { mutex: 0 }),
                ev(1, 4, EventKind::MutexRelease { mutex: 0 }),
                ev(2, 5, EventKind::AtomicStore { loc: 1, rmw: false }),
                ev(2, 6, EventKind::MutexRequest { mutex: 0 }),
                ev(2, 6, EventKind::MutexAcquire { mutex: 0 }),
                ev(2, 7, EventKind::MutexRelease { mutex: 0 }),
                ev(
                    2,
                    8,
                    EventKind::PlainAccess {
                        loc: 0,
                        write: true,
                    },
                ),
                ev(
                    0,
                    9,
                    EventKind::ThreadJoined {
                        target: 1,
                        done: true,
                    },
                ),
                ev(
                    0,
                    11,
                    EventKind::ThreadJoined {
                        target: 2,
                        done: true,
                    },
                ),
            ],
            ..SyncTrace::default()
        };
        (TraceModel::build(&trace, &d), d)
    }

    #[test]
    fn handoff_witness_overlaps_segments() {
        let (model, demo) = handoff_fixture();
        assert_eq!(model.accesses.len(), 2);
        let Synth::Witness(w) = synthesize(&model, &demo, 0, 1) else {
            panic!("expected a witness");
        };
        let order = w.queue.schedule_order();
        assert_eq!(order.len(), 12, "every tick rescheduled");
        let newpos = |old_owner: u32, nth: usize| {
            order
                .iter()
                .filter(|&&(t, _)| t == old_owner)
                .nth(nth)
                .map(|&(_, t)| t)
                .unwrap()
        };
        // T2's unlock (its 3rd tick) must now precede T1's lock (its 1st):
        // that is what opens T2's x-write segment before T1's closes.
        assert!(
            newpos(2, 2) < newpos(1, 0),
            "segments overlap in the witness: {order:?}"
        );
        // Join outcomes preserved: T0's join of T1 after T1's finish.
        assert!(newpos(1, 2) < newpos(0, 2));
    }

    #[test]
    fn atomic_guard_is_infeasible() {
        // T1: wr x; store g.   T2: load g (reads it); wr x.
        // The atomic per-location chain forces T1's segment to close
        // before T2's opens: no overlap exists.
        let order = vec![(0, 1), (0, 2), (1, 3), (2, 4), (1, 5), (2, 6)];
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "queue", [1, 2]));
        d.queue = Arc::new(QueueStream::from_order(&order, 3));
        let trace = SyncTrace {
            loc_labels: vec!["x".into(), "g".into()],
            events: vec![
                ev(0, 1, EventKind::ThreadSpawn { child: 1 }),
                ev(0, 2, EventKind::ThreadSpawn { child: 2 }),
                ev(
                    1,
                    2,
                    EventKind::PlainAccess {
                        loc: 0,
                        write: true,
                    },
                ),
                ev(1, 3, EventKind::AtomicStore { loc: 1, rmw: false }),
                ev(
                    2,
                    4,
                    EventKind::AtomicLoad {
                        loc: 1,
                        relaxed: false,
                        writer: 1,
                    },
                ),
                ev(
                    2,
                    5,
                    EventKind::PlainAccess {
                        loc: 0,
                        write: true,
                    },
                ),
            ],
            ..SyncTrace::default()
        };
        let model = TraceModel::build(&trace, &d);
        assert!(matches!(synthesize(&model, &d, 0, 1), Synth::Infeasible));
    }

    #[test]
    fn rebuild_remaps_syscall_cursor_order() {
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "queue", [7, 9]));
        d.queue = Arc::new(QueueStream::from_order(&[(0, 1), (1, 2)], 2));
        let call = |seq: u64, kind: &str, buf: &[u8]| srr_replay::SyscallRecord {
            seq,
            tid: seq as u32,
            tick: seq + 1,
            kind: kind.into(),
            ret: 0,
            errno: 0,
            bufs: vec![buf.to_vec()],
        };
        d.syscalls = Arc::new(
            [call(0, "recv", b"in"), call(1, "send", b"")]
                .into_iter()
                .collect(),
        );
        // Swap the two ticks: the syscall records must swap too.
        let w = rebuild_demo(&d, &[(1, 2), (0, 1)], 2);
        let heads: Vec<_> = w.syscalls.iter().map(|c| c.head).collect();
        assert_eq!(
            heads
                .iter()
                .map(|h| (h.kind, h.tick, h.seq))
                .collect::<Vec<_>>(),
            [("send", 1, 0), ("recv", 2, 1)]
        );
        assert_eq!(w.syscalls.get(1).unwrap().bufs().next(), Some(&b"in"[..]));
        assert_eq!(w.header.strategy, "queue");
        assert_eq!(w.header.seeds, [7, 9]);
    }
}
