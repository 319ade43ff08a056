//! The structured event model.
//!
//! Events are small `Copy` values so the hot path never allocates: syscall
//! kinds are interned into a [`SysKind`] code and streams into a
//! [`StreamId`], with the string forms recovered only at export time.

use std::fmt;

/// Demo streams, as a compact id usable in zero-alloc events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamId {
    /// The QUEUE interleaving stream (§4.2).
    Queue,
    /// The SIGNAL pin stream (§4.3).
    Signal,
    /// The SYSCALL result stream (§4.4).
    Syscall,
    /// The ASYNC float stream (§4.5).
    Async,
    /// The ALLOC address stream (comprehensive recorders only).
    Alloc,
    /// The console (fd 1/2) surface compared for soft desynchronisation.
    Console,
}

impl StreamId {
    /// The stream's demo file name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StreamId::Queue => "QUEUE",
            StreamId::Signal => "SIGNAL",
            StreamId::Syscall => "SYSCALL",
            StreamId::Async => "ASYNC",
            StreamId::Alloc => "ALLOC",
            StreamId::Console => "CONSOLE",
        }
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Visible-operation classes (§3.2's visible operations, coarsened to the
/// instrumentation layer that issued them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsOp {
    /// Atomic load/store/RMW/fence.
    Atomic,
    /// Mutex / condvar / rwlock operation.
    Sync,
    /// Thread create / join / exit.
    Thread,
    /// Signal-handler entry.
    Signal,
    /// Virtual syscall.
    Syscall,
    /// Anything else (uninstrumented visible operations).
    #[default]
    Other,
}

impl ObsOp {
    /// Short label used by the exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ObsOp::Atomic => "atomic",
            ObsOp::Sync => "sync",
            ObsOp::Thread => "thread",
            ObsOp::Signal => "signal",
            ObsOp::Syscall => "syscall",
            ObsOp::Other => "op",
        }
    }
}

/// Syscall kinds the tool records/replays, interned into one byte so the
/// hot path stores no strings. Unknown kinds collapse to [`SysKind::OTHER`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SysKind(u8);

/// The interning table: the paper's recorded set (§4.4) plus the
/// comprehensive extras.
const SYS_KINDS: &[&str] = &[
    "read",
    "write",
    "recv",
    "send",
    "recvmsg",
    "sendmsg",
    "accept",
    "accept4",
    "clock_gettime",
    "ioctl",
    "select",
    "poll",
    "bind",
    "open",
    "close",
    "pipe",
];

impl SysKind {
    /// The catch-all code for kinds outside the interning table.
    pub const OTHER: SysKind = SysKind(u8::MAX);

    /// Interns a kind name (O(n) over a 16-entry table; called only when
    /// tracing is on).
    #[must_use]
    pub fn from_name(name: &str) -> SysKind {
        match SYS_KINDS.iter().position(|k| *k == name) {
            Some(i) => SysKind(i as u8),
            None => SysKind::OTHER,
        }
    }

    /// The kind's name (`"other"` for unknown codes).
    #[must_use]
    pub fn name(self) -> &'static str {
        SYS_KINDS.get(self.0 as usize).copied().unwrap_or("other")
    }
}

impl fmt::Display for SysKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The class of an event: what a [`TraceSpec`](crate::TraceSpec) keeps
/// or drops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventClass {
    /// Ticks, decisions, wakeups, signals, syscall and cursor markers,
    /// and desyncs.
    Schedule,
    /// Mutex, condvar, atomic and thread operations.
    Sync,
    /// Plain (non-atomic) accesses to instrumented shared variables.
    Access,
}

/// What happened. Every variant is `Copy`; see [`ObsEvent`] for the
/// carrier record, which holds the acting thread and the tick.
///
/// Sync and access events carry raw mutex, condvar and location ids;
/// the [`SyncTrace`](crate::SyncTrace) owns the label tables that make
/// them readable. Per-thread subsequences follow program order, and a
/// sync event's tick is the scheduler tick current at emission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// `Wait()` success: the thread entered the critical section.
    TickBegin,
    /// `Tick()`: the thread closed the critical section. `dur_nanos` is
    /// the wall-clock length of the section (excluded from deterministic
    /// exports); `op` classifies the visible operation it wrapped.
    TickEnd {
        /// Wall-clock critical-section length in nanoseconds.
        dur_nanos: u64,
        /// The visible-operation class.
        op: ObsOp,
    },
    /// The strategy chose the next thread (`None`: no enabled thread).
    Decision {
        /// The chosen thread, if any.
        next: Option<u32>,
    },
    /// A targeted wakeup was issued to `target`'s parking slot.
    Wakeup {
        /// The woken thread.
        target: u32,
    },
    /// Every parking slot was notified (failure teardown / stall check).
    Broadcast,
    /// A signal was delivered (pended) to this thread.
    SignalDelivered {
        /// The delivered signal number.
        signo: i32,
    },
    /// Record mode captured a syscall result.
    SyscallRecord {
        /// Interned syscall kind.
        kind: SysKind,
        /// Sequence number in the SYSCALL stream.
        seq: u64,
    },
    /// Replay mode served a syscall result from the SYSCALL stream.
    SyscallReplay {
        /// Interned syscall kind.
        kind: SysKind,
        /// Sequence number in the SYSCALL stream.
        seq: u64,
    },
    /// A replay stream cursor advanced to `offset`.
    StreamCursor {
        /// Which stream.
        stream: StreamId,
        /// Entry index the cursor now points past.
        offset: u64,
    },
    /// A desynchronisation was raised here.
    Desync,
    /// A thread entered a *blocking* `lock()` (emitted once, on the first
    /// acquisition attempt). Lock-order edges come from requests only: a
    /// failed `try_lock` cannot block, so it cannot deadlock.
    MutexRequest {
        /// Requested mutex.
        mutex: u32,
    },
    /// A successful mutex acquisition (blocking or try).
    MutexAcquire {
        /// Acquired mutex.
        mutex: u32,
    },
    /// A mutex release (guard drop, or the release inside a condvar wait).
    MutexRelease {
        /// Released mutex.
        mutex: u32,
    },
    /// A condvar wait began (the guard mutex is released in the same
    /// critical section — a separate [`EventKind::MutexRelease`] follows).
    CondWaitBegin {
        /// The condition variable.
        cond: u32,
        /// The guard mutex.
        mutex: u32,
    },
    /// A condvar wait returned with the guard mutex reacquired. Emitted
    /// outside any critical section, so its tick may vary between
    /// replays.
    CondWaitReturn {
        /// The condition variable.
        cond: u32,
        /// The reacquired guard mutex.
        mutex: u32,
        /// Whether the return was due to a signal (`false`: timeout or
        /// spurious).
        signaled: bool,
    },
    /// A `notify_one` / `notify_all`.
    CondNotify {
        /// The condition variable.
        cond: u32,
        /// `true` for `notify_all`.
        all: bool,
    },
    /// An atomic load.
    AtomicLoad {
        /// Location id.
        loc: u32,
        /// Whether the load was `Relaxed`.
        relaxed: bool,
        /// The thread that produced the observed store.
        writer: u32,
    },
    /// An atomic store (including the write half of RMWs).
    AtomicStore {
        /// Location id.
        loc: u32,
        /// Whether the store was a read-modify-write.
        rmw: bool,
    },
    /// A plain (non-atomic) access to an instrumented shared variable.
    /// Plain accesses are invisible operations, so the tick is
    /// approximate.
    PlainAccess {
        /// Location id.
        loc: u32,
        /// `true` for a write.
        write: bool,
    },
    /// A thread creation (`ThreadNew`), emitted in the parent's critical
    /// section. Creation synchronizes parent→child.
    ThreadSpawn {
        /// The created thread.
        child: u32,
    },
    /// One `ThreadJoin` attempt (each attempt is its own critical
    /// section; a blocking join makes at most one failed attempt before
    /// the successful one).
    ThreadJoined {
        /// The join target.
        target: u32,
        /// Whether the target had already finished (`false`: the joiner
        /// disabled itself until the target's `ThreadDelete`).
        done: bool,
    },
}

impl EventKind {
    /// The class a [`TraceSpec`](crate::TraceSpec) selects this event by.
    #[must_use]
    pub fn class(self) -> EventClass {
        match self {
            EventKind::PlainAccess { .. } => EventClass::Access,
            EventKind::MutexRequest { .. }
            | EventKind::MutexAcquire { .. }
            | EventKind::MutexRelease { .. }
            | EventKind::CondWaitBegin { .. }
            | EventKind::CondWaitReturn { .. }
            | EventKind::CondNotify { .. }
            | EventKind::AtomicLoad { .. }
            | EventKind::AtomicStore { .. }
            | EventKind::ThreadSpawn { .. }
            | EventKind::ThreadJoined { .. } => EventClass::Sync,
            _ => EventClass::Schedule,
        }
    }

    /// Whether the exporters draw this event on the scheduler track
    /// rather than on its thread's: the strategy's decisions, wakeups
    /// and broadcasts, desyncs, and the QUEUE cursor.
    #[must_use]
    pub fn on_scheduler_track(self) -> bool {
        matches!(
            self,
            EventKind::Decision { .. }
                | EventKind::Wakeup { .. }
                | EventKind::Broadcast
                | EventKind::Desync
                | EventKind::StreamCursor {
                    stream: StreamId::Queue,
                    ..
                }
        )
    }
}

/// One trace event: who, when (logical tick), what.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsEvent {
    /// The acting thread (scheduler-track events carry the thread that
    /// triggered them, `u32::MAX` when none did).
    pub tid: u32,
    /// The logical tick at which the event happened.
    pub tick: u64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syskind_interns_known_and_unknown() {
        let recv = SysKind::from_name("recv");
        assert_eq!(recv.name(), "recv");
        assert_eq!(SysKind::from_name("recv"), recv);
        let unknown = SysKind::from_name("frobnicate");
        assert_eq!(unknown, SysKind::OTHER);
        assert_eq!(unknown.name(), "other");
    }

    #[test]
    fn stream_names_match_demo_files() {
        for (id, name) in [
            (StreamId::Queue, "QUEUE"),
            (StreamId::Signal, "SIGNAL"),
            (StreamId::Syscall, "SYSCALL"),
            (StreamId::Async, "ASYNC"),
            (StreamId::Alloc, "ALLOC"),
            (StreamId::Console, "CONSOLE"),
        ] {
            assert_eq!(id.name(), name);
        }
    }

    #[test]
    fn events_are_copy_and_small() {
        // The hot path copies events by value into the log; keep the
        // record at half a cache line.
        assert!(std::mem::size_of::<ObsEvent>() <= 32);
        let ev = ObsEvent {
            tid: 1,
            tick: 2,
            kind: EventKind::TickBegin,
        };
        let copy = ev;
        assert_eq!(copy, ev);
    }

    #[test]
    fn classes_and_tracks() {
        assert_eq!(EventKind::TickBegin.class(), EventClass::Schedule);
        assert_eq!(
            EventKind::MutexAcquire { mutex: 0 }.class(),
            EventClass::Sync
        );
        assert_eq!(
            EventKind::PlainAccess {
                loc: 0,
                write: true
            }
            .class(),
            EventClass::Access
        );
        let cursor = |stream| EventKind::StreamCursor { stream, offset: 1 };
        assert!(cursor(StreamId::Queue).on_scheduler_track());
        assert!(!cursor(StreamId::Syscall).on_scheduler_track());
        assert!(EventKind::Broadcast.on_scheduler_track());
        assert!(!EventKind::TickBegin.on_scheduler_track());
    }
}
