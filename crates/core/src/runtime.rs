//! The execution runtime: per-thread context, the visible-operation
//! protocol, and the registries shared by the instrumented primitives.
//!
//! This module plays the role of tsan11's runtime library: every
//! instrumented primitive (`Atomic`, `Shared`, `Mutex`, `Condvar`,
//! `thread`, `sys`) funnels through a [`Runtime`] held in thread-local
//! storage. Visible operations are bracketed by [`Runtime::enter`] /
//! [`Runtime::exit`] — the `Wait()`/`Tick()` pair of §3 in controlled
//! modes, a signal-delivery point otherwise.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering as AOrd};
use std::sync::Arc;

use parking_lot::Mutex as PlMutex;
use srr_memmodel::{AtomicCell, Chooser, ScFenceClock, ThreadView};
use srr_obs::{EventClass, EventKind, Obs, ObsOp, StreamId, SysKind, TraceSpec};
use srr_racedet::RaceDetector;
use srr_replay::{HardDesync, SyscallRecord};
use srr_vclock::VectorClock;
use srr_vos::{Fd, Vos};

use crate::config::{Config, Mode, RecordMode};
use crate::ids::{AtomicId, CondId, MutexId, Tid};
use crate::prng::Prng;
use crate::sched::{FailReason, SchedAbort, Scheduler};

/// The thread that receives asynchronous process-directed signals.
const SIGNAL_TARGET: Tid = Tid::MAIN;

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// Per-OS-thread instrumentation context.
pub(crate) struct ThreadCtx {
    pub rt: Arc<Runtime>,
    pub tid: Tid,
    pub view: ThreadView,
}

/// Installs the context for the current OS thread.
pub(crate) fn install_ctx(rt: Arc<Runtime>, tid: Tid, view: ThreadView) {
    CTX.with(|c| {
        let mut slot = c.borrow_mut();
        assert!(slot.is_none(), "thread already has an execution context");
        *slot = Some(ThreadCtx { rt, tid, view });
    });
}

/// Removes the context (thread exit).
pub(crate) fn clear_ctx() {
    CTX.with(|c| {
        c.borrow_mut().take();
    });
}

/// Runs `f` with the current context; `None` context means the caller is
/// outside any execution (native fallback paths use this).
pub(crate) fn with_ctx<R>(f: impl FnOnce(&mut ThreadCtx) -> R) -> Option<R> {
    CTX.with(|c| c.borrow_mut().as_mut().map(f))
}

/// The current runtime and tid without holding the context borrow —
/// use when user code (signal handlers) may run re-entrantly.
pub(crate) fn current_rt() -> Option<(Arc<Runtime>, Tid)> {
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| (Arc::clone(&ctx.rt), ctx.tid))
    })
}

pub(crate) struct MutexRec {
    pub holder: Option<Tid>,
    /// Clock released by the last unlocker; acquired on lock.
    pub sync: VectorClock,
    /// Contention statistic: failed trylock attempts.
    pub contended: u64,
}

pub(crate) struct CondRec {
    /// `(tid, timed)` waiters, in arrival order.
    pub waiters: Vec<(Tid, bool)>,
    /// Threads woken by a signal/broadcast that have not yet consumed the
    /// fact (distinguishes signal from timeout on timed waits).
    pub signaled: Vec<Tid>,
}

pub(crate) struct MemState {
    pub cells: Vec<AtomicCell>,
    pub sc: ScFenceClock,
}

/// Syscall-stream side of the record/replay engine (the scheduling side
/// lives in [`Scheduler`]).
pub(crate) enum SysRec {
    Off,
    Record(Vec<SyscallRecord>),
    /// A cursor over the demo's SYSCALL stream, shared with the demo.
    Replay {
        recs: Arc<Vec<SyscallRecord>>,
        at: usize,
    },
}

/// What replay enforces for one recorded syscall (§4.4): the result,
/// and the output buffer the wrapper fills (the record's first; empty
/// when it has none).
pub(crate) struct ReplayedSyscall {
    pub ret: i64,
    pub errno: i32,
    pub buf: Vec<u8>,
}

/// Everything shared by the threads of one execution.
pub(crate) struct Runtime {
    pub config: Config,
    pub sched: Option<Scheduler>,
    pub vos: Arc<Vos>,
    pub mem: PlMutex<MemState>,
    pub racedet: PlMutex<RaceDetector>,
    /// Choice PRNG for uncontrolled (tsan11) mode, where there is no
    /// scheduler to draw from.
    pub free_prng: PlMutex<Prng>,
    pub mutexes: PlMutex<Vec<MutexRec>>,
    pub conds: PlMutex<Vec<CondRec>>,
    pub handlers: PlMutex<HashMap<i32, Arc<dyn Fn() + Send + Sync>>>,
    pub sysrec: PlMutex<SysRec>,
    /// Final clocks of finished threads, absorbed by joiners.
    pub final_clocks: PlMutex<HashMap<u32, VectorClock>>,
    /// Pending signals per tid for uncontrolled modes.
    pub free_pending: PlMutex<HashMap<u32, Vec<i32>>>,
    /// Finished-thread set for uncontrolled joins.
    pub free_finished: PlMutex<HashMap<u32, bool>>,
    /// Tid allocator for uncontrolled modes (controlled modes allocate
    /// through the scheduler).
    pub next_tid: AtomicU32,
    /// OS join handles of every spawned thread, drained by the harness.
    pub os_handles: PlMutex<Vec<std::thread::JoinHandle<()>>>,
    pub stop_liveness: AtomicBool,
    pub panic_note: PlMutex<Option<String>>,
    /// Free-mode visible-operation counter (controlled modes count ticks).
    pub free_ops: AtomicU32,
    /// The event-log collector (`Config::trace`); `None` when off, so
    /// every emit site is a single `Option` check and takes no lock.
    pub obs: Option<Arc<Obs>>,
    /// Plain-access sites that consulted the access plan (plan armed
    /// and `Shared`/`SharedArray` constructed).
    pub plan_sites: AtomicU64,
    /// `PlainAccess` events suppressed from the event log by the plan.
    pub plan_filtered: AtomicU64,
    /// Labels the plan had never seen (fail-open recording) — nonempty
    /// means the plan is stale relative to the workload.
    pub plan_unplanned: PlMutex<std::collections::BTreeSet<String>>,
}

impl Runtime {
    pub fn new(config: Config, vos: Arc<Vos>, seeds: [u64; 2]) -> Arc<Runtime> {
        let sched = config
            .mode
            .strategy()
            .map(|s| Scheduler::new(s, Prng::from_seeds(seeds)));
        let obs = config.trace.map(|spec| {
            // Sync and access events are stamped with the scheduler's
            // tick, so uncontrolled runs keep the schedule class only.
            let controlled = config.mode.is_controlled();
            Arc::new(Obs::new(TraceSpec {
                sync: spec.sync && controlled,
                access: spec.access && controlled,
                ..spec
            }))
        });
        if let (Some(sched), Some(obs)) = (&sched, &obs) {
            if obs.spec().schedule {
                sched.enable_obs(Arc::clone(obs));
            }
        }
        let mut racedet = RaceDetector::new();
        racedet.set_reporting(config.report_races);
        Arc::new(Runtime {
            config,
            sched,
            vos,
            mem: PlMutex::new(MemState {
                cells: Vec::new(),
                sc: ScFenceClock::new(),
            }),
            racedet: PlMutex::new(racedet),
            free_prng: PlMutex::new(Prng::from_seeds([seeds[1], seeds[0]])),
            mutexes: PlMutex::new(Vec::new()),
            conds: PlMutex::new(Vec::new()),
            handlers: PlMutex::new(HashMap::new()),
            sysrec: PlMutex::new(SysRec::Off),
            final_clocks: PlMutex::new(HashMap::new()),
            free_pending: PlMutex::new(HashMap::new()),
            free_finished: PlMutex::new(HashMap::new()),
            next_tid: AtomicU32::new(1),
            os_handles: PlMutex::new(Vec::new()),
            stop_liveness: AtomicBool::new(false),
            panic_note: PlMutex::new(None),
            free_ops: AtomicU32::new(0),
            obs,
            plan_sites: AtomicU64::new(0),
            plan_filtered: AtomicU64::new(0),
            plan_unplanned: PlMutex::new(std::collections::BTreeSet::new()),
        })
    }

    /// Snapshot of the access-plan counters for the final report.
    pub fn plan_counters(&self) -> crate::report::PlanCounters {
        crate::report::PlanCounters {
            sites: self.plan_sites.load(AOrd::Relaxed),
            filtered_events: self.plan_filtered.load(AOrd::Relaxed),
            unplanned: self.plan_unplanned.lock().iter().cloned().collect(),
        }
    }

    pub fn mode(&self) -> Mode {
        self.config.mode
    }

    pub fn sched(&self) -> &Scheduler {
        self.sched
            .as_ref()
            .expect("controlled mode has a scheduler")
    }

    /// Opens a visible operation: `Wait()` plus signal-handler entries
    /// (each handler entry is its own critical section, §3.2/§4.3).
    pub fn enter(self: &Arc<Self>, tid: Tid) {
        match self.config.mode {
            Mode::Native | Mode::Tsan11 => {
                // Uncontrolled: signals are handled at operation
                // boundaries, best-effort.
                loop {
                    let signo = self.free_pending.lock().get_mut(&tid.0).and_then(Vec::pop);
                    match signo {
                        Some(signo) => self.run_handler(signo),
                        None => break,
                    }
                }
            }
            Mode::Tsan11Rec(_) => loop {
                self.sched().wait(tid);
                if let Some(signo) = self.sched().take_pending_signal(tid) {
                    // The handler entry is the visible operation: close
                    // this critical section and run the handler, whose own
                    // atomic operations form further critical sections.
                    self.sched().tick_op(tid, ObsOp::Signal);
                    self.run_handler(signo);
                    continue;
                }
                break;
            },
        }
    }

    /// Closes a visible operation: delivers due environment signals and
    /// performs `Tick()`.
    pub fn exit(self: &Arc<Self>, tid: Tid) {
        self.exit_op(tid, ObsOp::Other);
    }

    /// [`Runtime::exit`] with the visible-op kind attached to the
    /// closing `Tick()` for the observability trace.
    pub fn exit_op(self: &Arc<Self>, tid: Tid, op: ObsOp) {
        match self.config.mode {
            Mode::Native | Mode::Tsan11 => {
                self.free_ops.fetch_add(1, AOrd::Relaxed);
                self.pump_vos_signals_uncontrolled();
            }
            Mode::Tsan11Rec(strategy) => {
                self.pump_vos_signals_controlled();
                self.sched().tick_op(tid, op);
                if matches!(strategy, crate::config::Strategy::Slice { .. }) {
                    // rr-style full sequentialization: do not run even
                    // invisible code until scheduled again.
                    self.sched().hold(tid);
                }
            }
        }
    }

    fn pump_vos_signals_controlled(&self) {
        let due = self.vos.take_due_signals();
        if due.is_empty() {
            return;
        }
        for signo in due {
            // During replay the scheduler ignores these; the SIGNAL
            // stream raises them instead.
            self.sched().deliver_signal(SIGNAL_TARGET, signo, true);
        }
    }

    fn pump_vos_signals_uncontrolled(&self) {
        let due = self.vos.take_due_signals();
        if due.is_empty() {
            return;
        }
        self.free_pending
            .lock()
            .entry(SIGNAL_TARGET.0)
            .or_default()
            .extend(due);
    }

    fn run_handler(self: &Arc<Self>, signo: i32) {
        let handler = self.handlers.lock().get(&signo).cloned();
        if let Some(h) = handler {
            h();
        }
    }

    /// Registers a signal handler (itself a visible operation — callers
    /// wrap this in `enter`/`exit`).
    pub fn set_handler(&self, signo: i32, f: Arc<dyn Fn() + Send + Sync>) {
        self.handlers.lock().insert(signo, f);
    }

    // ------------------------------------------------------------------
    // Registries
    // ------------------------------------------------------------------

    pub fn register_atomic(&self, init: u64, view: &ThreadView) -> AtomicId {
        let mut mem = self.mem.lock();
        let id = AtomicId(mem.cells.len() as u32);
        mem.cells.push(AtomicCell::new(init, view));
        id
    }

    pub fn register_mutex(&self) -> MutexId {
        let mut ms = self.mutexes.lock();
        let id = MutexId(ms.len() as u32);
        ms.push(MutexRec {
            holder: None,
            sync: VectorClock::new(),
            contended: 0,
        });
        id
    }

    pub fn register_cond(&self) -> CondId {
        let mut cs = self.conds.lock();
        let id = CondId(cs.len() as u32);
        cs.push(CondRec {
            waiters: Vec::new(),
            signaled: Vec::new(),
        });
        id
    }

    /// Attempts logical mutex acquisition (the "native trylock" of
    /// Figure 4 plus the happens-before transfer). Returns whether the
    /// mutex was acquired.
    pub fn mutex_try_acquire(&self, m: MutexId, tid: Tid, view: &mut ThreadView) -> bool {
        let mut ms = self.mutexes.lock();
        let rec = &mut ms[m.0 as usize];
        if rec.holder.is_none() {
            rec.holder = Some(tid);
            view.clock.join(&rec.sync);
            true
        } else {
            rec.contended += 1;
            false
        }
    }

    /// Logical mutex release plus the release-clock publication.
    pub fn mutex_release(&self, m: MutexId, tid: Tid, view: &ThreadView) {
        let mut ms = self.mutexes.lock();
        let rec = &mut ms[m.0 as usize];
        debug_assert_eq!(rec.holder, Some(tid), "unlock by non-holder");
        rec.holder = None;
        rec.sync.join(&view.clock);
    }

    // ------------------------------------------------------------------
    // Sync and access events (srr-analysis input)
    // ------------------------------------------------------------------

    /// Current scheduler tick for event stamping (0 when uncontrolled).
    pub fn sync_tick(&self) -> u64 {
        match self.config.mode {
            Mode::Tsan11Rec(_) => self.sched().tick_value(),
            _ => 0,
        }
    }

    /// Whether the event log keeps events of `class`.
    pub fn keeps(&self, class: EventClass) -> bool {
        self.obs.as_deref().is_some_and(|o| o.spec().keeps(class))
    }

    /// Appends a sync or access event when the log keeps its class.
    /// Stamping it locks scheduler state, so callers must not hold
    /// runtime locks (`mem`, `mutexes`, `conds`) across this.
    pub fn sync_event(&self, tid: Tid, kind: EventKind) {
        if let Some(obs) = self.obs.as_deref().filter(|o| o.spec().keeps(kind.class())) {
            obs.emit(tid.0, self.sync_tick(), kind);
        }
    }

    /// The collector, when it keeps the sync or access class, whose
    /// events carry mutex and location ids.
    fn id_tables(&self) -> Option<&Obs> {
        self.obs
            .as_deref()
            .filter(|o| o.spec().sync || o.spec().access)
    }

    /// Records `label` for a mutex in the trace's label table.
    pub fn sync_mutex_label(&self, id: MutexId, label: Option<&str>) {
        if let Some(obs) = self.id_tables() {
            obs.set_mutex_label(id.0, label.map(str::to_owned));
        }
    }

    /// Interns a location label; `None` when no kept class carries
    /// location ids.
    pub fn sync_loc(&self, label: &str) -> Option<u32> {
        self.id_tables().map(|obs| obs.loc_id(label))
    }

    /// The weak-memory choice source: the scheduler PRNG in controlled
    /// modes (replayable from the demo header), a free-running PRNG in
    /// tsan11 mode.
    pub fn chooser(self: &Arc<Self>) -> RtChooser {
        RtChooser {
            rt: Arc::clone(self),
        }
    }

    // ------------------------------------------------------------------
    // Syscall record/replay (§4.4)
    // ------------------------------------------------------------------

    /// Sets the syscall side of `mode`; `replay_recs` is the SYSCALL
    /// stream a replay consumes (unused otherwise).
    pub fn set_record_mode(&self, mode: RecordMode, replay_recs: Arc<Vec<SyscallRecord>>) {
        let mut r = self.sysrec.lock();
        *r = match mode {
            RecordMode::Off => SysRec::Off,
            RecordMode::Record => SysRec::Record(Vec::new()),
            RecordMode::Replay => SysRec::Replay {
                recs: replay_recs,
                at: 0,
            },
        };
    }

    /// Whether syscall `kind` on `fd` must be recorded under the sparse
    /// configuration (§4.4's kind set plus fd classification).
    pub fn should_record_syscall(&self, kind: &str, fd: Option<Fd>) -> bool {
        if matches!(*self.sysrec.lock(), SysRec::Off) {
            return false;
        }
        let sparse = &self.config.sparse;
        if kind == "ioctl" && sparse.ignore_ioctl {
            return false;
        }
        if !sparse.records_kind(kind) {
            return false;
        }
        if kind == "read" || kind == "write" {
            // The paper records pipe read/write but not file read/write;
            // socket reads behave like recv.
            if let Some(fd) = fd {
                if self.vos.fd_is_pipe(fd) {
                    return sparse.record_pipe_rw;
                }
                if self.vos.fd_is_socket(fd) {
                    return true;
                }
                return sparse.record_file_rw;
            }
        }
        true
    }

    /// Appends a syscall record (record mode).
    pub fn record_syscall(&self, tid: Tid, kind: &str, ret: i64, errno: i32, bufs: Vec<Vec<u8>>) {
        let tick = match self.config.mode {
            Mode::Tsan11Rec(_) => self.sched().tick_value(),
            _ => 0,
        };
        let mut r = self.sysrec.lock();
        if let SysRec::Record(recs) = &mut *r {
            let seq = recs.len() as u64;
            recs.push(SyscallRecord {
                seq,
                tid: tid.0,
                tick,
                kind: kind.to_owned(),
                ret,
                errno,
                bufs,
            });
            drop(r);
            if let Some(obs) = &self.obs {
                obs.emit(
                    tid.0,
                    tick,
                    EventKind::SyscallRecord {
                        kind: SysKind::from_name(kind),
                        seq,
                    },
                );
            }
        }
    }

    /// Consumes the next recorded syscall (replay mode) and copies out
    /// what the wrapper enforces; hard-desynchronises if the kind does
    /// not match.
    ///
    /// # Panics
    ///
    /// Panics with [`SchedAbort`] on desynchronisation.
    pub fn replay_syscall(&self, tid: Tid, kind: &str) -> Option<ReplayedSyscall> {
        enum Next {
            NotReplaying,
            Underrun(u64),
            Mismatch(String, u64),
            Hit(u64, ReplayedSyscall),
        }
        let next = {
            let mut r = self.sysrec.lock();
            match &mut *r {
                SysRec::Replay { recs, at } => match recs.get(*at) {
                    None => Next::Underrun(recs.len() as u64),
                    Some(rec) if rec.kind != kind => Next::Mismatch(rec.kind.clone(), *at as u64),
                    Some(rec) => {
                        *at += 1;
                        Next::Hit(
                            rec.seq,
                            ReplayedSyscall {
                                ret: rec.ret,
                                errno: rec.errno,
                                buf: rec.bufs.first().cloned().unwrap_or_default(),
                            },
                        )
                    }
                },
                _ => Next::NotReplaying,
            }
        };
        match next {
            Next::NotReplaying => None,
            Next::Hit(seq, rec) => {
                if let Some(obs) = self.obs.as_deref().filter(|o| o.spec().schedule) {
                    let tick = self.sync_tick();
                    obs.emit(
                        tid.0,
                        tick,
                        EventKind::SyscallReplay {
                            kind: SysKind::from_name(kind),
                            seq,
                        },
                    );
                    obs.emit(
                        tid.0,
                        tick,
                        EventKind::StreamCursor {
                            stream: StreamId::Syscall,
                            offset: seq + 1,
                        },
                    );
                }
                Some(rec)
            }
            Next::Underrun(at) => self.hard_desync_at(
                "syscall-underrun",
                kind,
                "SYSCALL stream exhausted",
                "SYSCALL",
                at,
            ),
            Next::Mismatch(expected, at) => {
                self.hard_desync_at("syscall-kind", kind, &expected, "SYSCALL", at)
            }
        }
    }

    /// Takes the recorded syscall stream (end of a record run).
    pub fn take_syscall_recording(&self) -> Vec<SyscallRecord> {
        let mut r = self.sysrec.lock();
        match &mut *r {
            SysRec::Record(recs) => std::mem::take(recs),
            _ => Vec::new(),
        }
    }

    /// Current SYSCALL-stream replay cursor (entries consumed so far);
    /// 0 when not replaying.
    pub fn replay_cursor(&self) -> u64 {
        match &*self.sysrec.lock() {
            SysRec::Replay { at, .. } => *at as u64,
            _ => 0,
        }
    }

    /// Recorded-but-unconsumed replay entries (diagnostic).
    pub fn replay_leftover(&self) -> usize {
        match &*self.sysrec.lock() {
            SysRec::Replay { recs, at } => recs.len().saturating_sub(*at),
            _ => 0,
        }
    }

    /// Raises a hard desynchronisation: fails the execution and unwinds
    /// the calling thread. `stream`/`offset` name the demo stream entry
    /// where replay gave up (empty stream when no stream is implicated).
    pub fn hard_desync_at(
        &self,
        constraint: &str,
        actual: &str,
        expected: &str,
        stream: &str,
        offset: u64,
    ) -> ! {
        let tick = match self.config.mode {
            Mode::Tsan11Rec(_) => self.sched().tick_value(),
            _ => 0,
        };
        let mut desync = HardDesync::new(tick, constraint, expected, actual);
        if !stream.is_empty() {
            desync = desync.with_stream(stream, offset);
        }
        if let Some(obs) = &self.obs {
            obs.emit(u32::MAX, tick, EventKind::Desync);
        }
        if let Some(sched) = &self.sched {
            sched.fail(FailReason::Desync(desync.clone()));
        }
        std::panic::panic_any(SchedAbort(FailReason::Desync(desync)))
    }

    /// Total visible operations: ticks in controlled modes, the op counter
    /// otherwise.
    pub fn visible_ops(&self) -> u64 {
        match self.config.mode {
            Mode::Tsan11Rec(_) => self.sched().total_ticks(),
            _ => u64::from(self.free_ops.load(AOrd::Relaxed)),
        }
    }
}

/// [`Chooser`] adapter routing weak-memory choices to the right PRNG.
pub(crate) struct RtChooser {
    rt: Arc<Runtime>,
}

impl Chooser for RtChooser {
    fn choose(&mut self, n: usize) -> usize {
        if n <= 1 {
            // Do not burn a draw on forced choices: keeps PRNG alignment
            // independent of degenerate candidate sets.
            return 0;
        }
        match self.rt.config.mode {
            Mode::Tsan11Rec(_) => self.rt.sched().draw(n),
            _ => self.rt.free_prng.lock().below(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SparseConfig, Strategy};
    use srr_vos::VosConfig;

    fn rt(mode: Mode) -> Arc<Runtime> {
        Runtime::new(
            Config::new(mode).with_seeds([1, 2]),
            Arc::new(Vos::new(VosConfig::deterministic(1))),
            [1, 2],
        )
    }

    #[test]
    fn registries_hand_out_dense_ids() {
        let rt = rt(Mode::Tsan11);
        let v = ThreadView::new(0);
        assert_eq!(rt.register_atomic(0, &v), AtomicId(0));
        assert_eq!(rt.register_atomic(0, &v), AtomicId(1));
        assert_eq!(rt.register_mutex(), MutexId(0));
        assert_eq!(rt.register_cond(), CondId(0));
    }

    #[test]
    fn mutex_acquire_release_transfers_clocks() {
        let rt = rt(Mode::Tsan11);
        let m = rt.register_mutex();
        let mut a = ThreadView::new(0);
        let mut b = ThreadView::new(1);
        a.tick();

        assert!(rt.mutex_try_acquire(m, Tid(0), &mut a));
        assert!(!rt.mutex_try_acquire(m, Tid(1), &mut b), "held");
        rt.mutex_release(m, Tid(0), &a);
        assert!(rt.mutex_try_acquire(m, Tid(1), &mut b));
        assert!(
            b.clock.get(0) >= a.clock.get(0),
            "hb transferred through the mutex"
        );
        assert_eq!(rt.mutexes.lock()[0].contended, 1);
    }

    #[test]
    fn sparse_decision_follows_kind_set_and_fd_class() {
        let rt = rt(Mode::Tsan11Rec(Strategy::Random));
        rt.set_record_mode(RecordMode::Record, Arc::default());
        assert!(rt.should_record_syscall("recv", None));
        assert!(
            !rt.should_record_syscall("open", None),
            "open is not in the paper set"
        );

        let (pr, _pw) = rt.vos.pipe();
        assert!(
            rt.should_record_syscall("read", Some(pr)),
            "pipe reads are recorded"
        );
        rt.vos.add_file("/f", vec![1, 2, 3]);
        let f = Fd(rt.vos.open("/f", false).unwrap() as i32);
        assert!(
            !rt.should_record_syscall("read", Some(f)),
            "file reads are not"
        );
    }

    #[test]
    fn ignore_ioctl_suppresses_recording() {
        let mut config = Config::new(Mode::Tsan11Rec(Strategy::Queue)).with_seeds([1, 2]);
        config.sparse = SparseConfig::games();
        let rt = Runtime::new(
            config,
            Arc::new(Vos::new(VosConfig::deterministic(1))),
            [1, 2],
        );
        rt.set_record_mode(RecordMode::Record, Arc::default());
        assert!(!rt.should_record_syscall("ioctl", None));
    }

    #[test]
    fn record_mode_off_records_nothing() {
        let rt = rt(Mode::Tsan11Rec(Strategy::Random));
        assert!(!rt.should_record_syscall("recv", None));
        rt.record_syscall(Tid(0), "recv", 1, 0, vec![]);
        assert!(rt.take_syscall_recording().is_empty());
    }

    #[test]
    fn syscall_record_and_replay_roundtrip() {
        let rt = rt(Mode::Tsan11Rec(Strategy::Random));
        rt.set_record_mode(RecordMode::Record, Arc::default());
        // Recording needs a critical section for the tick value.
        rt.sched().wait(Tid::MAIN);
        rt.record_syscall(Tid::MAIN, "recv", 5, 0, vec![b"hello".to_vec()]);
        rt.sched().tick(Tid::MAIN);
        let recs = rt.take_syscall_recording();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].kind, "recv");
        assert_eq!(recs[0].tick, 1);

        rt.set_record_mode(RecordMode::Replay, Arc::new(recs));
        let rec = rt.replay_syscall(Tid::MAIN, "recv").unwrap();
        assert_eq!(rec.ret, 5);
        assert_eq!(rec.buf, b"hello");
        assert_eq!(rt.replay_leftover(), 0);
    }

    #[test]
    fn replay_kind_mismatch_is_hard_desync() {
        let rt = rt(Mode::Tsan11Rec(Strategy::Random));
        let recs = vec![SyscallRecord {
            seq: 0,
            tid: 0,
            tick: 1,
            kind: "recv".into(),
            ret: 0,
            errno: 0,
            bufs: vec![],
        }];
        rt.set_record_mode(RecordMode::Replay, Arc::new(recs));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.replay_syscall(Tid::MAIN, "send");
        }))
        .unwrap_err();
        let abort = err.downcast_ref::<SchedAbort>().expect("SchedAbort");
        match &abort.0 {
            FailReason::Desync(d) => {
                assert_eq!(d.constraint, "syscall-kind");
                assert_eq!(d.expected, "recv");
                assert_eq!(d.actual, "send");
                assert_eq!(d.stream, "SYSCALL");
                assert_eq!(d.offset, 0);
            }
            other => panic!("expected desync, got {other:?}"),
        }
    }

    #[test]
    fn replay_underrun_is_hard_desync() {
        let rt = rt(Mode::Tsan11Rec(Strategy::Random));
        rt.set_record_mode(RecordMode::Replay, Arc::default());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.replay_syscall(Tid::MAIN, "recv");
        }))
        .unwrap_err();
        assert!(err.downcast_ref::<SchedAbort>().is_some());
    }

    #[test]
    fn chooser_does_not_draw_on_singletons() {
        let rt = rt(Mode::Tsan11);
        let before = rt.free_prng.lock().draws();
        let mut ch = rt.chooser();
        assert_eq!(ch.choose(1), 0);
        assert_eq!(rt.free_prng.lock().draws(), before, "no draw for n=1");
        let _ = ch.choose(3);
        assert_eq!(rt.free_prng.lock().draws(), before + 1);
    }

    #[test]
    fn ctx_install_and_clear() {
        let rt = rt(Mode::Tsan11);
        install_ctx(Arc::clone(&rt), Tid(0), ThreadView::new(0));
        assert!(with_ctx(|c| c.tid).is_some());
        assert!(current_rt().is_some());
        clear_ctx();
        assert!(with_ctx(|c| c.tid).is_none());
    }
}
