//! Trace ingestion: reconciling the recorded QUEUE schedule with the
//! sync events of the run's trace into a per-tick, per-thread model.
//!
//! The scheduler's QUEUE stream says *which thread* owned every tick; the
//! sync events say *what* (some of) those ticks did. Joining the two
//! gives each tick a [`TickOp`] list, each plain access an enclosing
//! *segment* (the window of ticks during which the invisible access can
//! execute), and each mutex a contention verdict — everything the weak
//! partial order and the witness synthesizer need.

use std::collections::{BTreeMap, HashMap, HashSet};

use srr_obs::{EventKind, SyncTrace};
use srr_replay::Demo;

/// What a classified tick's critical section did. One tick can carry
/// several ops (an uncontended lock emits request *and* acquire at one
/// tick; a condvar wait begins and releases its guard in one tick).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickOp {
    /// First attempt of a blocking `lock()`.
    Request {
        /// The mutex.
        mutex: u32,
    },
    /// Successful mutex acquisition.
    Acquire {
        /// The mutex.
        mutex: u32,
    },
    /// Mutex release.
    Release {
        /// The mutex.
        mutex: u32,
    },
    /// Condvar wait began (guard released in the same critical section).
    CondBegin {
        /// The condvar.
        cond: u32,
    },
    /// `notify_one` / `notify_all`.
    Notify {
        /// The condvar.
        cond: u32,
    },
    /// Atomic load or store.
    Atomic {
        /// The location.
        loc: u32,
    },
    /// `ThreadNew` in the parent.
    Spawn {
        /// The created thread.
        child: u32,
    },
    /// One `ThreadJoin` attempt.
    JoinAttempt {
        /// The join target.
        target: u32,
        /// Whether the target had finished.
        done: bool,
    },
    /// A recorded syscall's critical section.
    Syscall,
}

/// One plain access, with the segment of ticks it can float inside.
#[derive(Clone, Debug)]
pub struct Access {
    /// Accessing thread.
    pub tid: u32,
    /// Location id in the trace's label table.
    pub loc: u32,
    /// `true` for a write.
    pub write: bool,
    /// Index of this event in the thread's event subsequence (program
    /// order position — the access's logical timestamp component).
    pub pos: usize,
    /// Tick of the thread's latest *evented* critical section before the
    /// access (0: none — the access can run from the thread's birth).
    pub seg_start: u64,
    /// Tick of the thread's next evented critical section after the
    /// access (the thread's final tick when no event follows).
    pub seg_end: u64,
}

/// The joined schedule + trace model.
#[derive(Clone, Debug)]
pub struct TraceModel {
    /// The recorded schedule, `(tid, tick)` in tick order.
    pub order: Vec<(u32, u64)>,
    /// Thread count (sizes the QUEUE first-tick table).
    pub nthreads: usize,
    /// Classified ops per tick (ticks absent here are *unknown*: failed
    /// lock re-attempts, thread-finish sections, untraced primitives).
    pub tick_ops: BTreeMap<u64, Vec<TickOp>>,
    /// Ticks per thread, in order.
    pub thread_ticks: Vec<Vec<u64>>,
    /// Every plain access in global emission order.
    pub accesses: Vec<Access>,
    /// Tick at which each thread was spawned (`None`: main, or spawned
    /// before tracing).
    pub spawn_tick: Vec<Option<u64>>,
    /// Each thread's final tick (its `ThreadDelete` critical section).
    pub finish_tick: Vec<Option<u64>>,
    /// Mutexes that saw contention (a request tick without a same-tick
    /// acquire): their blocked-retry ticks are unidentifiable, so witness
    /// synthesis freezes their schedule.
    pub contended: HashSet<u32>,
}

impl TraceModel {
    /// Joins `trace` against the schedule recorded in `demo`.
    #[must_use]
    pub fn build(trace: &SyncTrace, demo: &Demo) -> Self {
        let order = demo.queue.schedule_order();
        let nthreads = demo.queue.first_tick.len();
        let mut thread_ticks: Vec<Vec<u64>> = vec![Vec::new(); nthreads];
        for &(tid, tick) in &order {
            if let Some(ts) = thread_ticks.get_mut(tid as usize) {
                ts.push(tick);
            }
        }

        let mut tick_ops: BTreeMap<u64, Vec<TickOp>> = BTreeMap::new();
        let mut spawn_tick = vec![None; nthreads];
        let mut contended: HashSet<u32> = HashSet::new();
        let mut push = |tick: u64, op: TickOp| tick_ops.entry(tick).or_default().push(op);
        for ev in trace.sync_events() {
            let tick = ev.tick;
            match ev.kind {
                EventKind::MutexRequest { mutex } => push(tick, TickOp::Request { mutex }),
                EventKind::MutexAcquire { mutex } => push(tick, TickOp::Acquire { mutex }),
                EventKind::MutexRelease { mutex } => push(tick, TickOp::Release { mutex }),
                EventKind::CondWaitBegin { cond, .. } => push(tick, TickOp::CondBegin { cond }),
                EventKind::CondNotify { cond, .. } => push(tick, TickOp::Notify { cond }),
                EventKind::AtomicLoad { loc, .. } | EventKind::AtomicStore { loc, .. } => {
                    push(tick, TickOp::Atomic { loc });
                }
                EventKind::ThreadSpawn { child } => {
                    push(tick, TickOp::Spawn { child });
                    if let Some(slot) = spawn_tick.get_mut(child as usize) {
                        *slot = Some(tick);
                    }
                }
                EventKind::ThreadJoined { target, done } => {
                    push(tick, TickOp::JoinAttempt { target, done });
                }
                // `CondWaitReturn` is emitted outside any critical
                // section (approximate tick) and plain accesses are
                // invisible: not tick anchors.
                _ => {}
            }
        }
        for rec in demo.syscalls.iter() {
            push(rec.tick, TickOp::Syscall);
        }

        // A request that did not acquire at its own tick blocked: the
        // mutex was contended, and the retry ticks that follow are
        // invisible to the trace.
        for ops in tick_ops.values() {
            for op in ops {
                if let TickOp::Request { mutex } = op {
                    let acquired_here = ops
                        .iter()
                        .any(|o| matches!(o, TickOp::Acquire { mutex: m } if m == mutex));
                    if !acquired_here {
                        contended.insert(*mutex);
                    }
                }
            }
        }

        let finish_tick: Vec<Option<u64>> =
            thread_ticks.iter().map(|ts| ts.last().copied()).collect();

        // Segment anchoring: walk each thread's event subsequence in
        // program order; a plain access floats between its neighbouring
        // *evented* critical-section ticks.
        let mut accesses = Vec::new();
        let mut last_evented: HashMap<u32, u64> = HashMap::new();
        let mut pos: HashMap<u32, usize> = HashMap::new();
        let mut open: Vec<usize> = Vec::new(); // accesses awaiting seg_end
        for ev in trace.sync_events() {
            let tid = ev.tid;
            let p = pos.entry(tid).or_insert(0);
            *p += 1;
            match ev.kind {
                EventKind::PlainAccess { loc, write } => {
                    accesses.push(Access {
                        tid,
                        loc,
                        write,
                        pos: *p,
                        seg_start: last_evented.get(&tid).copied().unwrap_or(0),
                        seg_end: 0, // patched below
                    });
                    open.push(accesses.len() - 1);
                }
                EventKind::CondWaitReturn { .. } => {}
                _ => {
                    let tick = ev.tick;
                    last_evented.insert(tid, tick);
                    open.retain(|&i| {
                        if accesses[i].tid == tid {
                            accesses[i].seg_end = tick;
                            false
                        } else {
                            true
                        }
                    });
                }
            }
        }
        for &i in &open {
            let a = &mut accesses[i];
            a.seg_end = finish_tick
                .get(a.tid as usize)
                .copied()
                .flatten()
                .unwrap_or(u64::MAX);
        }

        TraceModel {
            order,
            nthreads,
            tick_ops,
            thread_ticks,
            accesses,
            spawn_tick,
            finish_tick,
            contended,
        }
    }

    /// The ops classified at `tick` (empty for unknown ticks).
    #[must_use]
    pub fn ops_at(&self, tick: u64) -> &[TickOp] {
        self.tick_ops.get(&tick).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The thread owning `tick`, if the schedule covers it.
    #[must_use]
    pub fn owner_of(&self, tick: u64) -> Option<u32> {
        self.order
            .iter()
            .find(|&&(_, t)| t == tick)
            .map(|&(tid, _)| tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srr_obs::ObsEvent;

    fn ev(tid: u32, tick: u64, kind: EventKind) -> ObsEvent {
        ObsEvent { tid, tick, kind }
    }
    use srr_replay::{DemoHeader, QueueStream};
    use std::sync::Arc;

    fn demo_with(order: &[(u32, u64)], nthreads: usize) -> Demo {
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "queue", [1, 2]));
        d.queue = Arc::new(QueueStream::from_order(order, nthreads));
        d
    }

    #[test]
    fn classifies_ticks_and_segments() {
        // T0: spawn T1 at tick 1; T1: lock(2) ... unlock(4); T0 ticks 3,5.
        let order = [(0, 1), (1, 2), (0, 3), (1, 4), (0, 5), (1, 6)];
        let demo = demo_with(&order, 2);
        let trace = SyncTrace {
            loc_labels: vec!["x".into()],
            events: vec![
                ev(0, 1, EventKind::ThreadSpawn { child: 1 }),
                ev(1, 2, EventKind::MutexRequest { mutex: 0 }),
                ev(1, 2, EventKind::MutexAcquire { mutex: 0 }),
                ev(
                    1,
                    3,
                    EventKind::PlainAccess {
                        loc: 0,
                        write: true,
                    },
                ),
                ev(1, 4, EventKind::MutexRelease { mutex: 0 }),
            ],
            ..SyncTrace::default()
        };
        let m = TraceModel::build(&trace, &demo);
        assert_eq!(m.nthreads, 2);
        assert_eq!(m.ops_at(1), &[TickOp::Spawn { child: 1 }]);
        assert_eq!(
            m.ops_at(2),
            &[TickOp::Request { mutex: 0 }, TickOp::Acquire { mutex: 0 }]
        );
        assert!(m.ops_at(3).is_empty(), "tick 3 is unknown");
        assert!(m.contended.is_empty(), "same-tick request+acquire");
        assert_eq!(m.spawn_tick[1], Some(1));
        assert_eq!(m.finish_tick[1], Some(6));
        let a = &m.accesses[0];
        assert_eq!((a.tid, a.loc, a.write), (1, 0, true));
        assert_eq!(a.seg_start, 2, "floats after the acquire");
        assert_eq!(a.seg_end, 4, "and before the release");
        assert_eq!(m.owner_of(4), Some(1));
    }

    #[test]
    fn contention_and_unanchored_segments() {
        let order = [(0, 1), (1, 2), (0, 3), (1, 4)];
        let demo = demo_with(&order, 2);
        let trace = SyncTrace {
            loc_labels: vec!["x".into()],
            events: vec![
                ev(
                    1,
                    1,
                    EventKind::PlainAccess {
                        loc: 0,
                        write: false,
                    },
                ),
                ev(1, 2, EventKind::MutexRequest { mutex: 3 }),
                ev(1, 4, EventKind::MutexAcquire { mutex: 3 }),
            ],
            ..SyncTrace::default()
        };
        let m = TraceModel::build(&trace, &demo);
        assert!(m.contended.contains(&3), "request blocked at tick 2");
        let a = &m.accesses[0];
        assert_eq!(a.seg_start, 0, "no evented tick before: from birth");
        assert_eq!(a.seg_end, 2, "the blocked request still anchors");
    }

    #[test]
    fn access_with_no_following_event_ends_at_finish() {
        let order = [(0, 1), (1, 2), (1, 3)];
        let demo = demo_with(&order, 2);
        let trace = SyncTrace {
            loc_labels: vec!["x".into()],
            events: vec![
                ev(1, 2, EventKind::AtomicStore { loc: 0, rmw: false }),
                ev(
                    1,
                    3,
                    EventKind::PlainAccess {
                        loc: 0,
                        write: true,
                    },
                ),
            ],
            ..SyncTrace::default()
        };
        let m = TraceModel::build(&trace, &demo);
        let a = &m.accesses[0];
        assert_eq!(a.seg_start, 2);
        assert_eq!(a.seg_end, 3, "the thread's final tick");
    }
}
