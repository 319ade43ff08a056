//! The controlled scheduler: the `Wait()`/`Tick()` protocol of §3.
//!
//! Scheduling decisions live in shared state; threads cooperate through a
//! protocol built on two functions (§3.1):
//!
//! * [`Scheduler::wait`] — block the calling thread until the scheduler
//!   activates it. On success the thread owns the current *critical
//!   section* and the global tick is assigned to it.
//! * [`Scheduler::tick`] — close the critical section: log it (queue/slice
//!   strategies), deliver deferred signals, replay due SIGNAL/ASYNC
//!   events, and choose the next thread per the strategy.
//!
//! Exactly one thread is ever inside a critical section; threads executing
//! invisible operations run in parallel (Figure 3). The record/replay
//! engine (§4) lives directly in the scheduler state: the QUEUE order,
//! SIGNAL pins and ASYNC floats are recorded under the scheduler lock and
//! enforced from the same place on replay.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use srr_obs::{EventKind, Obs, ObsOp, StreamId};
use srr_replay::{AsyncEvent, HardDesync, QueueBuilder, QueueCursor, QueueStream, SignalEvent};

use crate::config::Strategy;
use crate::ids::{CondId, MutexId, Tid};
use crate::prng::Prng;
use crate::report::SchedCounters;

/// Why the execution was aborted by the scheduler.
#[derive(Debug, Clone)]
pub enum FailReason {
    /// All live threads are disabled: a genuine program deadlock,
    /// preserved rather than masked (§3.2).
    Deadlock,
    /// Replay could not enforce a demo constraint (§4).
    Desync(HardDesync),
    /// A program thread panicked; the run is torn down.
    ProgramPanic(String),
}

/// Panic payload used to unwind threads out of a failed execution.
///
/// The harness recognises this payload and converts it into a structured
/// report instead of propagating the panic.
#[derive(Debug, Clone)]
pub struct SchedAbort(pub FailReason);

/// Why a thread disabled itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// `ThreadJoin(tid)`: waiting for a thread to finish.
    Join(Tid),
    /// `MutexLockFail(m)`: waiting for a mutex.
    Mutex(MutexId),
    /// Untimed conditional wait: waiting for a signal/broadcast.
    Cond(CondId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Enabled,
    Disabled(WaitReason),
    Finished,
}

struct ThreadState {
    status: Status,
    /// Tick value seen at this thread's most recent `Tick()` (§4.3).
    last_tick: u64,
    pending_signals: VecDeque<i32>,
    /// This thread's parking slot: a condvar waited on (against the one
    /// scheduler mutex) by this thread alone, so the scheduler can wake
    /// exactly the thread it chose instead of broadcasting to the herd.
    slot: Arc<Condvar>,
    /// Blocked inside `Wait()`.
    in_wait: bool,
    /// Between `Wait()` success and `Tick()` completion.
    in_cs: bool,
    /// Queue strategy: present in the arrival queue.
    queued: bool,
    /// Replay (queue/slice): the next tick this thread runs (0 = none).
    next_due: u64,
    /// The tick assigned to this thread's in-flight critical section.
    cs_tick: u64,
    /// Slice strategy: visible ops left in the current quantum.
    slice_left: u32,
    /// Wall-clock start of the in-flight critical section; only taken
    /// when observability tracing is on.
    cs_start: Option<Instant>,
}

impl std::fmt::Debug for ThreadState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The vendored condvar has no Debug impl; the slot carries no
        // inspectable state anyway.
        f.debug_struct("ThreadState")
            .field("status", &self.status)
            .field("last_tick", &self.last_tick)
            .field("pending_signals", &self.pending_signals)
            .field("in_wait", &self.in_wait)
            .field("in_cs", &self.in_cs)
            .field("queued", &self.queued)
            .field("next_due", &self.next_due)
            .field("cs_tick", &self.cs_tick)
            .field("slice_left", &self.slice_left)
            .finish_non_exhaustive()
    }
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            status: Status::Enabled,
            last_tick: 0,
            pending_signals: VecDeque::new(),
            slot: Arc::new(Condvar::new()),
            in_wait: false,
            in_cs: false,
            queued: false,
            next_due: 0,
            cs_tick: 0,
            slice_left: 0,
            cs_start: None,
        }
    }
}

/// Replay inputs, pre-indexed for O(1) consumption.
#[derive(Debug, Default)]
struct ReplayState {
    active: bool,
    /// `(tid, tick)` → signals to raise at the end of that thread's tick.
    signals: HashMap<(u32, u64), Vec<i32>>,
    /// tick → async events floated to the end of that tick.
    async_events: HashMap<u64, Vec<AsyncEvent>>,
    /// The demo's QUEUE stream, shared with the demo, read in place.
    queue: Arc<QueueStream>,
    /// Where replay is in `queue`'s runs.
    cursor: QueueCursor,
}

/// Record buffers.
#[derive(Debug, Default)]
struct RecordState {
    active: bool,
    /// The QUEUE stream, written in place as critical sections close.
    queue: QueueBuilder,
    signals: Vec<SignalEvent>,
    async_events: Vec<AsyncEvent>,
}

struct SchedState {
    tick: u64,
    active: Option<Tid>,
    threads: Vec<ThreadState>,
    arrivals: VecDeque<Tid>,
    prng: Prng,
    strategy: Strategy,
    record: RecordState,
    replay: ReplayState,
    /// Signals that arrived while their target was mid-critical-section;
    /// delivered at the target's own next `Tick()` so the recorded tick
    /// value is the one the paper's semantics require. The flag says
    /// whether the signal came from the environment (recordable) or was
    /// raised synchronously by the program (reoccurs by itself, §4.3).
    deferred_signals: Vec<(Tid, i32, bool)>,
    fail: Option<FailReason>,
    live: usize,
    in_wait_count: usize,
    cs_in_flight: bool,
    /// PCT-style hot thread.
    hot: Tid,
    /// Delay-bounding: remaining delay budget.
    delay_budget: u32,
    /// Jitter source for slice quanta. Deliberately *separate* from the
    /// replayable PRNG: real rr's time slices carry timing noise that
    /// breaks phase-locked livelocks (a deterministic op-count quantum
    /// can synchronize with a lock's hold pattern so that a contender's
    /// trylock always lands while the lock is held). Slice schedules are
    /// recorded in QUEUE and enforced from there on replay, so this
    /// stream needs no replay determinism.
    slice_jitter: Prng,
    /// Targeted wakeups issued (one parked thread notified).
    wakeups_issued: u64,
    /// Broadcast wakeups issued (every parked thread notified).
    broadcasts: u64,
    /// Wakeups observed by a thread that found itself ineligible and went
    /// back to sleep.
    spurious_wakeups: u64,
    /// The event-log collector, attached when it keeps the schedule
    /// class (`Config::with_trace`). `None` otherwise: every emit site is
    /// then a single `Option` check. `Obs` takes no locks besides its
    /// own, so it is a safe leaf under the scheduler mutex.
    obs: Option<Arc<Obs>>,
}

/// The controlled scheduler shared by all threads of one execution.
///
/// Wakeups are *targeted*: each thread parks on its own condvar (its
/// [`ThreadState::slot`]) against the one state mutex, and `Tick()`
/// notifies exactly the thread the strategy chose ([`SchedState::wake_next`]).
/// Broadcasts survive only where every parked thread genuinely must wake:
/// execution failure (deadlock/desync/panic teardown) and replay-stall
/// detection ([`SchedState::wake_all`]).
pub struct Scheduler {
    state: Mutex<SchedState>,
}

impl Scheduler {
    /// Creates a scheduler for a fresh execution with the main thread
    /// (tid 0) registered and active.
    pub fn new(strategy: Strategy, prng: Prng) -> Self {
        let slice_jitter = Prng::from_seeds([0x51ce ^ prng.draws(), 0x1177]);
        let mut threads = Vec::new();
        let mut main = ThreadState::new();
        if let Strategy::Slice { quantum } = strategy {
            main.slice_left = quantum;
        }
        threads.push(main);
        let active = match strategy {
            Strategy::Queue => None,
            _ => Some(Tid::MAIN),
        };
        let delay_budget = match strategy {
            Strategy::Delay { budget, .. } => budget,
            _ => 0,
        };
        Scheduler {
            state: Mutex::new(SchedState {
                tick: 0,
                active,
                threads,
                arrivals: VecDeque::new(),
                prng,
                strategy,
                record: RecordState::default(),
                replay: ReplayState::default(),
                deferred_signals: Vec::new(),
                fail: None,
                live: 1,
                in_wait_count: 0,
                cs_in_flight: false,
                hot: Tid::MAIN,
                delay_budget,
                slice_jitter,
                wakeups_issued: 0,
                broadcasts: 0,
                spurious_wakeups: 0,
                obs: None,
            }),
        }
    }

    /// Switches on recording.
    pub fn enable_recording(&self) {
        self.state.lock().record.active = true;
    }

    /// Attaches the event-log collector for the schedule class.
    pub fn enable_obs(&self, obs: Arc<Obs>) {
        self.state.lock().obs = Some(obs);
    }

    /// Switches on replay from the given streams. The QUEUE stream is
    /// shared with the caller, not copied.
    pub fn enable_replay(
        &self,
        queue: Arc<QueueStream>,
        signals: &[SignalEvent],
        async_events: &[AsyncEvent],
    ) {
        let mut g = self.state.lock();
        let mut sig_map: HashMap<(u32, u64), Vec<i32>> = HashMap::new();
        for s in signals {
            sig_map.entry((s.tid, s.tick)).or_default().push(s.signo);
        }
        let mut async_map: HashMap<u64, Vec<AsyncEvent>> = HashMap::new();
        for e in async_events {
            async_map.entry(e.tick()).or_default().push(*e);
        }
        g.replay = ReplayState {
            active: true,
            signals: sig_map,
            async_events: async_map,
            queue,
            cursor: QueueCursor::default(),
        };
        if g.strategy.needs_queue_stream() {
            g.threads[0].next_due = g.replay.queue.first_tick.first().copied().unwrap_or(0);
            g.active = None;
        }
        // Signals recorded against tick 0 arrived before the thread's
        // first Tick(): pend them immediately.
        if let Some(signos) = g.replay.signals.remove(&(0, 0)) {
            g.threads[0].pending_signals.extend(signos);
        }
    }

    /// Whether this execution is a replay.
    #[allow(dead_code)]
    pub fn is_replaying(&self) -> bool {
        self.state.lock().replay.active
    }

    /// `Wait()` (§3.1): block until scheduled. On return the calling
    /// thread owns the critical section of tick [`Scheduler::tick_value`].
    ///
    /// # Panics
    ///
    /// Panics with [`SchedAbort`] if the execution failed (deadlock,
    /// desynchronisation, program panic) — the harness catches this.
    pub fn wait(&self, tid: Tid) {
        let mut g = self.state.lock();
        let mut slept = false;
        loop {
            if let Some(f) = &g.fail {
                let f = f.clone();
                drop(g);
                std::panic::panic_any(SchedAbort(f));
            }
            if g.eligible(tid) {
                break;
            }
            if slept {
                g.spurious_wakeups += 1;
            }
            g.threads[tid.index()].in_wait = true;
            g.in_wait_count += 1;
            if g.replay.active {
                g.check_replay_stall();
                if g.fail.is_some() {
                    // This thread completed the all-parked condition and
                    // must not sleep through its own stall verdict.
                    g.in_wait_count -= 1;
                    g.threads[tid.index()].in_wait = false;
                    continue;
                }
            }
            let slot = Arc::clone(&g.threads[tid.index()].slot);
            slot.wait(&mut g);
            slept = true;
            g.in_wait_count -= 1;
            g.threads[tid.index()].in_wait = false;
        }
        g.tick += 1;
        let tick = g.tick;
        let st = &mut g.threads[tid.index()];
        st.in_wait = false;
        st.in_cs = true;
        st.cs_tick = tick;
        g.cs_in_flight = true;
        if g.obs.is_some() {
            g.threads[tid.index()].cs_start = Some(Instant::now());
            if let Some(obs) = &g.obs {
                obs.emit(tid.0, tick, EventKind::TickBegin);
            }
        }
    }

    /// `Tick()` (§3.1): close the critical section and choose the next
    /// thread.
    pub fn tick(&self, tid: Tid) {
        self.tick_op(tid, ObsOp::Other);
    }

    /// [`Scheduler::tick`] with the visible-operation class attached, so
    /// the trace can label the critical section (atomic / sync / …).
    pub fn tick_op(&self, tid: Tid, op: ObsOp) {
        let mut g = self.state.lock();
        // The critical section's own tick, assigned at Wait() success
        // (identical to the global counter given in-flight exclusion, but
        // robust by construction).
        let k = g.threads[tid.index()].cs_tick;
        {
            let st = &mut g.threads[tid.index()];
            st.last_tick = k;
            st.in_cs = false;
        }
        g.cs_in_flight = false;
        if g.obs.is_some() {
            let dur_nanos = g.threads[tid.index()]
                .cs_start
                .take()
                .map_or(0, |s| s.elapsed().as_nanos() as u64);
            if let Some(obs) = &g.obs {
                obs.emit(tid.0, k, EventKind::TickEnd { dur_nanos, op });
            }
        }

        if g.record.active && g.strategy.needs_queue_stream() {
            g.record.queue.push(tid.0, k);
        }

        // Deferred signal delivery: the signal arrived while this thread
        // was mid-critical-section; deliver it now so the recorded tick is
        // "the value seen at the most recent Tick()" (§4.3).
        let mine: Vec<(i32, bool)> = {
            let mut mine = Vec::new();
            g.deferred_signals.retain(|(t, s, env)| {
                if *t == tid {
                    mine.push((*s, *env));
                    false
                } else {
                    true
                }
            });
            mine
        };
        for (signo, from_env) in mine {
            g.deliver_now(tid, signo, from_env);
        }

        // Replay: raise recorded signals pinned to (tid, k), and apply
        // signal wakeups for tick k. Wakeups were recorded during the
        // recording run's signal pump, which runs *before* Tick()'s
        // strategy choice — so they must be re-applied before the choice
        // here, or the choice would see a different enabled set (and, for
        // seed-driven strategies, desynchronise the PRNG).
        if g.replay.active {
            if let Some(signos) = g.replay.signals.remove(&(tid.0, k)) {
                g.threads[tid.index()].pending_signals.extend(signos);
            }
            if let Some(events) = g.replay.async_events.get_mut(&k) {
                let events = std::mem::take(events);
                let (wakeups, rest): (Vec<_>, Vec<_>) = events
                    .into_iter()
                    .partition(|e| matches!(e, AsyncEvent::SignalWakeup { .. }));
                g.replay.async_events.insert(k, rest);
                for ev in wakeups {
                    g.apply_async(ev);
                }
            }
        }

        // Strategy: choose the next thread.
        g.choose_next(tid, k);
        if let Some(obs) = &g.obs {
            let next = if g.replay.active && g.strategy.needs_queue_stream() {
                let due = k + 1;
                g.threads
                    .iter()
                    .position(|t| t.next_due == due)
                    .map(|i| i as u32)
            } else {
                g.active.map(|t| t.0)
            };
            obs.emit(tid.0, k, EventKind::Decision { next });
        }

        // Replay: apply the remaining async events floated to the end of
        // tick k — reschedules happen after the recording run's Tick()
        // completed, so they float here (Figure 7).
        if g.replay.active {
            if let Some(events) = g.replay.async_events.remove(&k) {
                for ev in events {
                    g.apply_async(ev);
                }
            }
        }

        g.wake_next();
    }

    /// The tick value of the critical section currently owned by the
    /// caller (valid between `wait` and `tick`).
    pub fn tick_value(&self) -> u64 {
        self.state.lock().tick
    }

    /// Slice-mode continuation barrier: blocks until the calling thread is
    /// scheduled again, *without* opening a critical section.
    ///
    /// rr sequentializes everything, including computation between
    /// syscalls; calling this after every `Tick()` makes a thread run its
    /// invisible code only while it holds the slice, reproducing that.
    /// (The sparse tool never calls this: invisible parallelism is its
    /// headline advantage — Figure 3.)
    pub fn hold(&self, tid: Tid) {
        let mut g = self.state.lock();
        let mut slept = false;
        loop {
            if let Some(f) = &g.fail {
                let f = f.clone();
                drop(g);
                std::panic::panic_any(SchedAbort(f));
            }
            if g.threads[tid.index()].status == Status::Finished {
                return;
            }
            if g.eligible(tid) {
                return;
            }
            if slept {
                g.spurious_wakeups += 1;
            }
            g.threads[tid.index()].in_wait = true;
            g.in_wait_count += 1;
            if g.replay.active {
                g.check_replay_stall();
                if g.fail.is_some() {
                    g.in_wait_count -= 1;
                    g.threads[tid.index()].in_wait = false;
                    continue;
                }
            }
            let slot = Arc::clone(&g.threads[tid.index()].slot);
            slot.wait(&mut g);
            slept = true;
            g.in_wait_count -= 1;
            g.threads[tid.index()].in_wait = false;
        }
    }

    /// `ThreadNew(tid)` (§3.2): registers a newly created thread; returns
    /// its tid. Must be called inside the parent's critical section.
    pub fn thread_new(&self) -> Tid {
        let mut g = self.state.lock();
        let tid = Tid(g.threads.len() as u32);
        let mut st = ThreadState::new();
        if let Strategy::Slice { quantum } = g.strategy {
            st.slice_left = quantum;
        }
        if g.replay.active && g.strategy.needs_queue_stream() {
            st.next_due = g
                .replay
                .queue
                .first_tick
                .get(tid.index())
                .copied()
                .unwrap_or(0);
        }
        if g.replay.active {
            if let Some(signos) = g.replay.signals.remove(&(tid.0, 0)) {
                st.pending_signals.extend(signos);
            }
        }
        g.threads.push(st);
        g.live += 1;
        tid
    }

    /// `ThreadDelete()` (§3.2): the calling thread has finished; enables
    /// any joiner. Must be called inside the thread's final critical
    /// section.
    pub fn thread_finish(&self, tid: Tid) {
        let mut g = self.state.lock();
        g.threads[tid.index()].status = Status::Finished;
        g.live -= 1;
        let joiners: Vec<Tid> = g
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Disabled(WaitReason::Join(tid)))
            .map(|(i, _)| Tid(i as u32))
            .collect();
        for j in joiners {
            g.enable_thread(j);
        }
        // No wakeup: ThreadDelete runs inside the finishing thread's final
        // critical section, so the joiners only become schedulable at the
        // strategy choice of the Tick() that follows — which wakes the one
        // it picks.
    }

    /// `ThreadJoin(tid)` (§3.2): returns `true` if `target` already
    /// finished; otherwise disables the caller until it does.
    pub fn thread_join(&self, tid: Tid, target: Tid) -> bool {
        let mut g = self.state.lock();
        if g.threads[target.index()].status == Status::Finished {
            return true;
        }
        g.disable_thread(tid, WaitReason::Join(target));
        false
    }

    /// `MutexLockFail(m)` (§3.2, Figure 4): the trylock failed; disable
    /// the caller until the mutex is released.
    pub fn mutex_lock_fail(&self, tid: Tid, m: MutexId) {
        let mut g = self.state.lock();
        g.disable_thread(tid, WaitReason::Mutex(m));
    }

    /// `MutexUnlock(m)` (§3.2): re-enables one thread blocked on `m`
    /// (chosen per strategy); returns it, if any.
    pub fn mutex_unlock(&self, m: MutexId) -> Option<Tid> {
        let mut g = self.state.lock();
        let waiters: Vec<Tid> = g
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Disabled(WaitReason::Mutex(m)))
            .map(|(i, _)| Tid(i as u32))
            .collect();
        if waiters.is_empty() {
            return None;
        }
        let chosen = g.pick_one(&waiters);
        g.enable_thread(chosen);
        // No wakeup: MutexUnlock runs inside the releasing thread's
        // critical section (MutexGuard::drop between enter and exit), so
        // the woken waiter cannot run before that section's Tick() picks
        // the next thread anyway.
        Some(chosen)
    }

    /// `CondWait(c)` for an *untimed* wait: disables the caller until a
    /// signal or broadcast re-enables it. Timed waits stay enabled (§3.2)
    /// and are only registered by the sync layer.
    pub fn cond_block(&self, tid: Tid, c: CondId) {
        let mut g = self.state.lock();
        g.disable_thread(tid, WaitReason::Cond(c));
    }

    /// `CondSignal(c)`: re-enables `target` (chosen by the sync layer from
    /// the condvar's waiter list, via [`Scheduler::pick_one_of`]).
    pub fn cond_wake(&self, target: Tid) {
        let mut g = self.state.lock();
        g.enable_thread(target);
        // No wakeup: CondSignal/CondBroadcast run inside the signalling
        // thread's critical section; the re-enabled waiter is woken by the
        // Tick() that chooses it. (Condvar broadcast *semantics* need no
        // OS-level broadcast either — the sync layer calls this once per
        // woken waiter, and each becomes schedulable individually.)
    }

    /// Strategy-appropriate choice among candidates: FIFO order for
    /// queue/slice, PRNG for random/pct. Used for mutex and condvar
    /// wake-ups so the choice is replayable.
    pub fn pick_one_of(&self, candidates: &[Tid]) -> Tid {
        assert!(!candidates.is_empty());
        let mut g = self.state.lock();
        g.pick_one(candidates)
    }

    /// A draw from the scheduler PRNG for non-scheduling nondeterministic
    /// choices (§4: weak-memory load selection). Returns a value `< n`.
    pub fn draw(&self, n: usize) -> usize {
        self.state.lock().prng.below(n)
    }

    /// Delivers a signal to `target`. `from_env` distinguishes genuinely
    /// asynchronous environment signals (recorded in SIGNAL; suppressed
    /// during replay, where the stream raises them) from synchronous,
    /// program-raised signals (never recorded: they reoccur by themselves,
    /// §4.3).
    pub fn deliver_signal(&self, target: Tid, signo: i32, from_env: bool) {
        let mut g = self.state.lock();
        if g.replay.active && from_env {
            return; // replay raises environment signals from SIGNAL
        }
        if g.threads[target.index()].in_cs {
            g.deferred_signals.push((target, signo, from_env));
        } else {
            g.deliver_now(target, signo, from_env);
        }
        // Unlike the mid-critical-section sites above, signals can arrive
        // from invisible code (`signals::raise`) with no Tick() pending,
        // and `deliver_now` may have just enabled a parked thread — hand
        // the wakeup decision to the targeting logic.
        g.wake_next();
    }

    /// Takes a pending signal for `tid`, if any (checked on `Wait()` return
    /// by the instrumentation layer: the handler entry is its own visible
    /// operation).
    pub fn take_pending_signal(&self, tid: Tid) -> Option<i32> {
        self.state.lock().threads[tid.index()]
            .pending_signals
            .pop_front()
    }

    /// `Reschedule()` (§3.3): called by the liveness background thread.
    /// Returns `true` if a reschedule was applied (and, when recording,
    /// logged as an ASYNC event).
    pub fn reschedule(&self) -> bool {
        let mut g = self.state.lock();
        if g.cs_in_flight || g.fail.is_some() || g.replay.active {
            return false;
        }
        let Some(active) = g.active else {
            return false;
        };
        // Only force a reschedule when the active thread is off executing
        // invisible operations while others sit blocked in Wait().
        if g.threads[active.index()].in_wait {
            return false;
        }
        let someone_waiting = g
            .threads
            .iter()
            .enumerate()
            .any(|(i, t)| Tid(i as u32) != active && t.in_wait && t.status == Status::Enabled);
        if !someone_waiting {
            return false;
        }
        let applied = match g.strategy {
            Strategy::Queue | Strategy::Slice { .. } => {
                // FCFS liveness: hand the slot to the next arrival; the
                // displaced thread re-enqueues at its next Wait(). No PRNG
                // draw, so nothing to record (the QUEUE stream captures
                // the final order).
                if let Some(next) = g.arrivals.pop_front() {
                    g.threads[next.index()].queued = false;
                    g.active = Some(next);
                    true
                } else if matches!(g.strategy, Strategy::Slice { .. }) {
                    g.rotate_slice(active)
                } else {
                    false
                }
            }
            Strategy::Random | Strategy::Pct { .. } | Strategy::Delay { .. } => {
                // Logical candidate set (all enabled except the active
                // thread) so the replayed draw sees the same set.
                let candidates: Vec<Tid> = g
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(i, t)| t.status == Status::Enabled && Tid(*i as u32) != active)
                    .map(|(i, _)| Tid(i as u32))
                    .collect();
                if candidates.is_empty() {
                    false
                } else {
                    let pick = candidates[g.prng.below(candidates.len())];
                    g.active = Some(pick);
                    if let Strategy::Pct { .. } = g.strategy {
                        g.hot = pick;
                    }
                    let tick = g.tick;
                    if g.record.active {
                        g.record.async_events.push(AsyncEvent::Reschedule { tick });
                    }
                    true
                }
            }
        };
        if applied {
            // The reschedule moved `active`; wake the new owner.
            g.wake_next();
        }
        applied
    }

    /// Snapshot of the wakeup accounting.
    pub fn counters(&self) -> SchedCounters {
        let g = self.state.lock();
        SchedCounters {
            ticks: g.tick,
            wakeups_issued: g.wakeups_issued,
            broadcasts: g.broadcasts,
            spurious_wakeups: g.spurious_wakeups,
        }
    }

    /// Marks the execution as failed; all threads unwind via `SchedAbort`.
    pub fn fail(&self, reason: FailReason) {
        let mut g = self.state.lock();
        if g.fail.is_none() {
            g.fail = Some(reason);
        }
        // Teardown is a genuine broadcast point: every parked thread must
        // wake to unwind via SchedAbort.
        g.wake_all();
    }

    /// The failure, if any.
    pub fn failure(&self) -> Option<FailReason> {
        self.state.lock().fail.clone()
    }

    /// Total critical sections executed.
    pub fn total_ticks(&self) -> u64 {
        self.state.lock().tick
    }

    /// Extracts the recorded scheduling streams: `(QUEUE, SIGNAL, ASYNC)`.
    /// The QUEUE stream (§4.2) comes out trimmed to its length, its
    /// first-tick table sized for every thread the run registered.
    pub fn take_recording(&self) -> (QueueStream, Vec<SignalEvent>, Vec<AsyncEvent>) {
        let mut g = self.state.lock();
        let queue = std::mem::take(&mut g.record.queue).finish(g.threads.len());
        let signals = std::mem::take(&mut g.record.signals);
        let async_events = std::mem::take(&mut g.record.async_events);
        (queue, signals, async_events)
    }
}

impl SchedState {
    fn eligible(&mut self, tid: Tid) -> bool {
        let st = &self.threads[tid.index()];
        if st.status != Status::Enabled {
            return false;
        }
        if self.replay.active && self.strategy.needs_queue_stream() {
            // The in-flight exclusion matters: without it, the thread due
            // at tick k+1 could enter while the owner of tick k is still
            // inside its critical section, corrupting the tick numbering
            // (record mode is protected by `active` instead).
            return !self.cs_in_flight && st.next_due != 0 && st.next_due == self.tick + 1;
        }
        match self.strategy {
            Strategy::Queue => {
                if self.active == Some(tid) {
                    return true;
                }
                if !self.threads[tid.index()].queued {
                    self.arrivals.push_back(tid);
                    self.threads[tid.index()].queued = true;
                }
                if self.active.is_none() && self.arrivals.front() == Some(&tid) {
                    self.arrivals.pop_front();
                    self.threads[tid.index()].queued = false;
                    self.active = Some(tid);
                    return true;
                }
                false
            }
            _ => self.active == Some(tid),
        }
    }

    fn choose_next(&mut self, tid: Tid, k: u64) {
        if self.replay.active && self.strategy.needs_queue_stream() {
            // Consume the next tick of critical section k (§4.2).
            let idx = k - 1;
            let ReplayState { queue, cursor, .. } = &mut self.replay;
            match cursor.next_tick(queue, k) {
                Some(next) => {
                    self.threads[tid.index()].next_due = next;
                    if let Some(obs) = &self.obs {
                        obs.emit(
                            tid.0,
                            k,
                            EventKind::StreamCursor {
                                stream: StreamId::Queue,
                                offset: idx,
                            },
                        );
                    }
                }
                None => {
                    if let Some(obs) = &self.obs {
                        obs.emit(tid.0, k, EventKind::Desync);
                    }
                    self.fail = Some(FailReason::Desync(
                        HardDesync::new(
                            k,
                            "queue-schedule",
                            "a next-tick entry",
                            &format!("QUEUE stream exhausted at critical section {k}"),
                        )
                        .with_stream("QUEUE", idx)
                        .with_context(vec![format!("failing thread: T{}", tid.0)]),
                    ));
                }
            }
            return;
        }
        match self.strategy {
            Strategy::Random => {
                let enabled = self.enabled_tids();
                if enabled.is_empty() {
                    self.active = None;
                    self.check_deadlock();
                } else {
                    self.active = Some(enabled[self.prng.below(enabled.len())]);
                }
            }
            Strategy::Pct { switch_denom } => {
                let enabled = self.enabled_tids();
                if enabled.is_empty() {
                    self.active = None;
                    self.check_deadlock();
                } else {
                    let hot_ok = enabled.contains(&self.hot);
                    if !hot_ok || self.prng.below(switch_denom as usize) == 0 {
                        self.hot = enabled[self.prng.below(enabled.len())];
                    }
                    self.active = Some(self.hot);
                }
            }
            Strategy::Queue => {
                if let Some(next) = self.arrivals.pop_front() {
                    self.threads[next.index()].queued = false;
                    self.active = Some(next);
                } else {
                    self.active = None;
                    self.check_deadlock();
                }
            }
            Strategy::Delay { denom, .. } => {
                // Non-preemptive baseline: keep the current thread while
                // it stays enabled; inject a PRNG-placed delay while the
                // budget lasts. Fully derivable from the seeds, so no
                // QUEUE stream is needed.
                let enabled = self.enabled_tids();
                if enabled.is_empty() {
                    self.active = None;
                    self.check_deadlock();
                } else {
                    let current_ok = self.threads[tid.index()].status == Status::Enabled;
                    let delay = self.delay_budget > 0
                        && current_ok
                        && self.prng.below(denom.max(1) as usize) == 0;
                    if delay {
                        self.delay_budget -= 1;
                    }
                    if current_ok && !delay {
                        self.active = Some(tid);
                    } else {
                        // Round-robin to the next enabled thread.
                        let n = self.threads.len();
                        let next = (1..=n)
                            .map(|off| (tid.index() + off) % n)
                            .find(|&i| self.threads[i].status == Status::Enabled)
                            .map(|i| Tid(i as u32));
                        self.active = next;
                        if self.active.is_none() {
                            self.check_deadlock();
                        }
                    }
                }
            }
            Strategy::Slice { quantum } => {
                let st = &mut self.threads[tid.index()];
                if st.slice_left > 0 {
                    st.slice_left -= 1;
                }
                let keep = st.slice_left > 0 && st.status == Status::Enabled;
                if keep {
                    self.active = Some(tid);
                } else {
                    let next_quantum = self.jittered_quantum(quantum);
                    self.threads[tid.index()].slice_left = next_quantum;
                    if !self.rotate_slice(tid) {
                        self.active = None;
                        self.check_deadlock();
                    }
                }
            }
        }
    }

    /// Round-robin rotation for the slice strategy; returns `false` when
    /// no enabled thread exists.
    fn rotate_slice(&mut self, from: Tid) -> bool {
        let n = self.threads.len();
        for off in 1..=n {
            let idx = (from.index() + off) % n;
            if self.threads[idx].status == Status::Enabled {
                if let Strategy::Slice { quantum } = self.strategy {
                    self.threads[idx].slice_left = self.jittered_quantum(quantum);
                }
                self.active = Some(Tid(idx as u32));
                return true;
            }
        }
        false
    }

    /// A quantum with ±25% timing noise (see `slice_jitter`).
    fn jittered_quantum(&mut self, quantum: u32) -> u32 {
        let spread = (quantum / 2).max(1) as usize;
        let base = quantum.saturating_sub(quantum / 4).max(1);
        base + self.slice_jitter.below(spread + 1) as u32
    }

    fn enabled_tids(&self) -> Vec<Tid> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Enabled)
            .map(|(i, _)| Tid(i as u32))
            .collect()
    }

    fn pick_one(&mut self, candidates: &[Tid]) -> Tid {
        match self.strategy {
            Strategy::Queue | Strategy::Slice { .. } | Strategy::Delay { .. } => candidates[0],
            Strategy::Random | Strategy::Pct { .. } => {
                candidates[self.prng.below(candidates.len())]
            }
        }
    }

    fn enable_thread(&mut self, tid: Tid) {
        let st = &mut self.threads[tid.index()];
        if !matches!(st.status, Status::Disabled(_)) {
            return;
        }
        st.status = Status::Enabled;
        // Queue strategy: `eligible()` enqueues a thread when the thread
        // itself checks eligibility — but a thread already parked in
        // `Wait()` will not re-check until woken, and targeted wakeup only
        // wakes threads the strategy can choose, i.e. queued ones. Break
        // the cycle by enqueueing at enable time. Restricted to parked
        // threads: a thread that is still running re-checks (and enqueues)
        // itself at its next `Wait()`, and enqueueing it early would let
        // it disable itself again mid-section while sitting in `arrivals`,
        // violating the invariant that the queue only holds enabled,
        // blocked threads.
        if st.in_wait
            && !st.queued
            && matches!(self.strategy, Strategy::Queue)
            && !self.replay.active
        {
            self.threads[tid.index()].queued = true;
            self.arrivals.push_back(tid);
        }
    }

    fn disable_thread(&mut self, tid: Tid, reason: WaitReason) {
        // No deadlock check here: a thread disabling itself is always
        // mid-critical-section, and the same section may yet enable
        // others (Figure 5's conditional wait disables, *then* releases
        // the mutex and wakes a waiter). Deadlock is judged at the
        // section's Tick(), when the state has settled.
        self.threads[tid.index()].status = Status::Disabled(reason);
    }

    /// A deadlock exists when live threads remain but none is enabled.
    fn check_deadlock(&mut self) {
        if self.fail.is_some() || self.live == 0 {
            return;
        }
        let any_enabled = self.threads.iter().any(|t| t.status == Status::Enabled);
        if !any_enabled {
            self.fail = Some(FailReason::Deadlock);
        }
    }

    /// Targeted wakeup: notify exactly the thread the scheduler wants to
    /// run next, if it is parked. Called wherever the schedulable set may
    /// have changed outside a critical section (end of `Tick()`, async
    /// signal delivery, liveness reschedules).
    fn wake_next(&mut self) {
        if self.fail.is_some() {
            self.wake_all();
            return;
        }
        let target = if self.replay.active && self.strategy.needs_queue_stream() {
            // The demo dictates the owner of the next critical section.
            if self.cs_in_flight {
                None
            } else {
                let due = self.tick + 1;
                (0..self.threads.len()).map(|i| Tid(i as u32)).find(|t| {
                    let st = &self.threads[t.index()];
                    st.status == Status::Enabled && st.next_due == due
                })
            }
        } else if self.active.is_some() {
            self.active
        } else if matches!(self.strategy, Strategy::Queue) {
            // Queue with no active thread: the front arrival claims the
            // slot inside its own `eligible()` check — wake it so it can.
            self.arrivals.front().copied()
        } else {
            None
        };
        if let Some(t) = target {
            if self.threads[t.index()].in_wait {
                self.wakeups_issued += 1;
                if let Some(obs) = &self.obs {
                    obs.emit(t.0, self.tick, EventKind::Wakeup { target: t.0 });
                }
                self.threads[t.index()].slot.notify_one();
            }
        }
    }

    /// Broadcast: notify every thread's parking slot. Only for states all
    /// parked threads must observe (execution failure, replay stall).
    fn wake_all(&mut self) {
        self.broadcasts += 1;
        if let Some(obs) = &self.obs {
            obs.emit(u32::MAX, self.tick, EventKind::Broadcast);
        }
        for t in &self.threads {
            t.slot.notify_one();
        }
    }

    /// Replay stall: every live thread is blocked in `Wait()` and none is
    /// eligible — the demo's schedule cannot be enforced.
    fn check_replay_stall(&mut self) {
        if self.fail.is_some() || self.live == 0 {
            return;
        }
        // A critical section is executing: its Tick() has yet to choose
        // the next thread, so an apparently-stalled state is transient.
        if self.cs_in_flight {
            return;
        }
        // The caller has already set in_wait and incremented the count.
        if self.in_wait_count < self.live_unfinished_running() {
            return;
        }
        let someone_eligible = (0..self.threads.len()).any(|i| {
            let t = &self.threads[i];
            t.status == Status::Enabled && {
                if self.strategy.needs_queue_stream() {
                    t.next_due != 0 && t.next_due == self.tick + 1
                } else {
                    self.active == Some(Tid(i as u32))
                }
            }
        });
        if !someone_eligible {
            let statuses: Vec<String> = self
                .threads
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    format!(
                        "T{i}:{:?} in_wait={} next_due={} pending={}",
                        t.status,
                        t.in_wait,
                        t.next_due,
                        t.pending_signals.len()
                    )
                })
                .collect();
            if let Some(obs) = &self.obs {
                obs.emit(u32::MAX, self.tick, EventKind::Desync);
            }
            self.fail = Some(FailReason::Desync(
                HardDesync::new(
                    self.tick,
                    "schedule-stall",
                    "an eligible thread per the demo",
                    &format!(
                        "all live threads blocked in Wait() (active={:?}; {})",
                        self.active,
                        statuses.join("; ")
                    ),
                )
                .with_stream("QUEUE", self.tick)
                .with_context(statuses),
            ));
            self.wake_all();
        }
    }

    fn live_unfinished_running(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| t.status != Status::Finished)
            .count()
    }

    /// Immediate signal delivery: record the SIGNAL entry against the
    /// target's most recent tick, pend the signal, and wake the target if
    /// it was disabled (recording the SignalWakeup async event, §4.5).
    fn deliver_now(&mut self, target: Tid, signo: i32, from_env: bool) {
        let last_tick = self.threads[target.index()].last_tick;
        if self.record.active && from_env {
            self.record.signals.push(SignalEvent {
                tid: target.0,
                tick: last_tick,
                signo,
            });
        }
        self.threads[target.index()]
            .pending_signals
            .push_back(signo);
        if let Some(obs) = &self.obs {
            obs.emit(target.0, last_tick, EventKind::SignalDelivered { signo });
        }
        if matches!(self.threads[target.index()].status, Status::Disabled(_)) {
            self.enable_thread(target);
            let tick = self.tick;
            if self.record.active {
                self.record.async_events.push(AsyncEvent::SignalWakeup {
                    tid: target.0,
                    tick,
                });
            }
        }
    }

    fn apply_async(&mut self, ev: AsyncEvent) {
        match ev {
            AsyncEvent::Reschedule { .. } => {
                // Burn the same PRNG draw the record-side reschedule used,
                // and (for seed-driven strategies) apply the same re-pick.
                let active = self.active;
                let candidates: Vec<Tid> = self
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(i, t)| t.status == Status::Enabled && Some(Tid(*i as u32)) != active)
                    .map(|(i, _)| Tid(i as u32))
                    .collect();
                if !candidates.is_empty() {
                    let pick = candidates[self.prng.below(candidates.len())];
                    if !self.strategy.needs_queue_stream() {
                        self.active = Some(pick);
                        if let Strategy::Pct { .. } = self.strategy {
                            self.hot = pick;
                        }
                    }
                }
            }
            AsyncEvent::SignalWakeup { tid, .. } => {
                self.enable_thread(Tid(tid));
            }
        }
    }
}

/// Lock-free-of-context helper so tests can poke internal state is not
/// provided: the scheduler is exercised through the runtime integration
/// tests. A few direct protocol tests live below.
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn sched(strategy: Strategy) -> Arc<Scheduler> {
        Arc::new(Scheduler::new(strategy, Prng::from_seeds([1, 2])))
    }

    #[test]
    fn main_thread_runs_first_cs_immediately() {
        let s = sched(Strategy::Random);
        s.wait(Tid::MAIN);
        assert_eq!(s.tick_value(), 1);
        s.tick(Tid::MAIN);
        assert_eq!(s.total_ticks(), 1);
    }

    #[test]
    fn queue_strategy_first_arrival_claims() {
        let s = sched(Strategy::Queue);
        s.wait(Tid::MAIN);
        s.tick(Tid::MAIN);
        s.wait(Tid::MAIN);
        s.tick(Tid::MAIN);
        assert_eq!(s.total_ticks(), 2);
    }

    #[test]
    fn two_threads_alternate_under_protocol() {
        let s = sched(Strategy::Random);
        // Register a second thread from within main's critical section.
        s.wait(Tid::MAIN);
        let t1 = s.thread_new();
        s.tick(Tid::MAIN);

        let s2 = Arc::clone(&s);
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let h = std::thread::spawn(move || {
            for _ in 0..10 {
                s2.wait(t1);
                c2.fetch_add(1, Ordering::Relaxed);
                s2.tick(t1);
            }
            s2.wait(t1);
            s2.thread_finish(t1);
            s2.tick(t1);
        });
        for _ in 0..10 {
            s.wait(Tid::MAIN);
            count.fetch_add(1, Ordering::Relaxed);
            s.tick(Tid::MAIN);
        }
        s.wait(Tid::MAIN);
        s.thread_finish(Tid::MAIN);
        s.tick(Tid::MAIN);
        h.join().unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 20);
        assert_eq!(s.total_ticks(), 23); // registration cs + 20 loop cs + 2 finish cs
        assert!(s.failure().is_none());
    }

    #[test]
    fn join_blocks_until_target_finishes() {
        let s = sched(Strategy::Random);
        s.wait(Tid::MAIN);
        let t1 = s.thread_new();
        s.tick(Tid::MAIN);

        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s2.wait(t1);
            s2.thread_finish(t1);
            s2.tick(t1);
        });

        // ThreadJoin loop as in the instrumentation layer.
        loop {
            s.wait(Tid::MAIN);
            let done = s.thread_join(Tid::MAIN, t1);
            s.tick(Tid::MAIN);
            if done {
                break;
            }
        }
        h.join().unwrap();
        assert!(s.failure().is_none());
    }

    #[test]
    fn deadlock_is_detected_when_all_disable() {
        let s = sched(Strategy::Random);
        s.wait(Tid::MAIN);
        // Main disables itself waiting on a mutex no one holds open.
        s.mutex_lock_fail(Tid::MAIN, MutexId(0));
        s.tick(Tid::MAIN);
        assert!(matches!(s.failure(), Some(FailReason::Deadlock)));
        // The next wait unwinds with SchedAbort.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.wait(Tid::MAIN);
        }))
        .unwrap_err();
        assert!(err.downcast_ref::<SchedAbort>().is_some());
    }

    #[test]
    fn mutex_unlock_wakes_one_waiter() {
        let s = sched(Strategy::Random);
        s.wait(Tid::MAIN);
        let t1 = s.thread_new();
        s.tick(Tid::MAIN);
        // t1 blocks on the mutex (simulated directly).
        {
            let mut g = s.state.lock();
            g.threads[t1.index()].status = Status::Disabled(WaitReason::Mutex(MutexId(7)));
        }
        let woken = s.mutex_unlock(MutexId(7));
        assert_eq!(woken, Some(t1));
        assert_eq!(s.state.lock().threads[t1.index()].status, Status::Enabled);
        assert_eq!(s.mutex_unlock(MutexId(7)), None, "no more waiters");
    }

    #[test]
    fn signal_to_idle_thread_is_pended_and_recorded() {
        let s = sched(Strategy::Random);
        s.enable_recording();
        s.wait(Tid::MAIN);
        s.tick(Tid::MAIN); // last_tick = 1
        s.deliver_signal(Tid::MAIN, 15, true);
        assert_eq!(s.take_pending_signal(Tid::MAIN), Some(15));
        assert_eq!(s.take_pending_signal(Tid::MAIN), None);
        let (_, signals, _) = s.take_recording();
        assert_eq!(
            signals,
            vec![SignalEvent {
                tid: 0,
                tick: 1,
                signo: 15
            }]
        );
    }

    #[test]
    fn signal_mid_cs_is_deferred_to_own_tick() {
        let s = sched(Strategy::Random);
        s.enable_recording();
        s.wait(Tid::MAIN); // tick 1 in flight
        s.deliver_signal(Tid::MAIN, 9, true);
        assert_eq!(s.take_pending_signal(Tid::MAIN), None, "not yet delivered");
        s.tick(Tid::MAIN);
        assert_eq!(s.take_pending_signal(Tid::MAIN), Some(9));
        let (_, signals, _) = s.take_recording();
        assert_eq!(
            signals,
            vec![SignalEvent {
                tid: 0,
                tick: 1,
                signo: 9
            }]
        );
    }

    #[test]
    fn signal_to_disabled_thread_records_wakeup() {
        let s = sched(Strategy::Random);
        s.enable_recording();
        s.wait(Tid::MAIN);
        let t1 = s.thread_new();
        s.tick(Tid::MAIN);
        {
            let mut g = s.state.lock();
            g.threads[t1.index()].status = Status::Disabled(WaitReason::Mutex(MutexId(0)));
        }
        s.deliver_signal(t1, 2, true);
        assert_eq!(s.state.lock().threads[t1.index()].status, Status::Enabled);
        let (_, signals, async_events) = s.take_recording();
        assert_eq!(signals.len(), 1);
        assert_eq!(
            async_events,
            vec![AsyncEvent::SignalWakeup { tid: 1, tick: 1 }]
        );
    }

    #[test]
    fn queue_recording_builds_stream() {
        let s = sched(Strategy::Queue);
        s.enable_recording();
        for _ in 0..3 {
            s.wait(Tid::MAIN);
            s.tick(Tid::MAIN);
        }
        let (q, _, _) = s.take_recording();
        assert_eq!(q.first_tick, vec![1]);
        assert_eq!(q.next_ticks().collect::<Vec<_>>(), vec![2, 3, 0]);
    }

    #[test]
    fn queue_replay_enforces_recorded_order() {
        let s = sched(Strategy::Queue);
        s.enable_replay(Arc::new(QueueStream::new(vec![1], vec![2, 0])), &[], &[]);
        assert!(s.is_replaying());
        s.wait(Tid::MAIN);
        s.tick(Tid::MAIN);
        s.wait(Tid::MAIN);
        s.tick(Tid::MAIN);
        assert!(s.failure().is_none());
    }

    #[test]
    fn queue_replay_underrun_is_hard_desync() {
        let s = sched(Strategy::Queue);
        s.enable_replay(Arc::new(QueueStream::new(vec![1], vec![2])), &[], &[]);
        s.wait(Tid::MAIN);
        s.tick(Tid::MAIN);
        s.wait(Tid::MAIN);
        s.tick(Tid::MAIN); // consumes entry for cs 2: absent
        match s.failure() {
            Some(FailReason::Desync(d)) => assert_eq!(d.constraint, "queue-schedule"),
            other => panic!("expected desync, got {other:?}"),
        }
    }

    #[test]
    fn replay_signal_raised_at_matching_tick() {
        let s = sched(Strategy::Random);
        s.enable_replay(
            Arc::default(),
            &[SignalEvent {
                tid: 0,
                tick: 2,
                signo: 15,
            }],
            &[],
        );
        s.wait(Tid::MAIN);
        s.tick(Tid::MAIN); // tick 1: nothing
        assert_eq!(s.take_pending_signal(Tid::MAIN), None);
        s.wait(Tid::MAIN);
        s.tick(Tid::MAIN); // tick 2: signal raised at end of Tick()
        assert_eq!(s.take_pending_signal(Tid::MAIN), Some(15));
    }

    #[test]
    fn replay_signal_against_tick_zero_pends_immediately() {
        let s = sched(Strategy::Random);
        s.enable_replay(
            Arc::default(),
            &[SignalEvent {
                tid: 0,
                tick: 0,
                signo: 7,
            }],
            &[],
        );
        assert_eq!(s.take_pending_signal(Tid::MAIN), Some(7));
    }

    #[test]
    fn replay_async_wakeup_enables_thread() {
        let s = sched(Strategy::Random);
        s.enable_replay(
            Arc::default(),
            &[],
            &[AsyncEvent::SignalWakeup { tid: 1, tick: 1 }],
        );
        s.wait(Tid::MAIN);
        let t1 = s.thread_new();
        {
            let mut g = s.state.lock();
            g.threads[t1.index()].status = Status::Disabled(WaitReason::Mutex(MutexId(0)));
        }
        s.tick(Tid::MAIN); // tick 1: wakeup applied after the tick
        assert_eq!(s.state.lock().threads[t1.index()].status, Status::Enabled);
    }

    #[test]
    fn draw_and_pick_are_strategy_appropriate() {
        let s = sched(Strategy::Queue);
        assert!(s.draw(10) < 10);
        let c = [Tid(2), Tid(5)];
        assert_eq!(s.pick_one_of(&c), Tid(2), "queue picks FIFO-first");
        let s = sched(Strategy::Random);
        assert!(c.contains(&s.pick_one_of(&c)));
    }

    #[test]
    fn identical_seeds_give_identical_random_schedules() {
        // Run two executions with three "threads" driven round-robin by
        // one test thread and check the chosen active sequence matches.
        let run = |seeds: [u64; 2]| -> Vec<u32> {
            let s = Scheduler::new(Strategy::Random, Prng::from_seeds(seeds));
            s.wait(Tid::MAIN);
            let _t1 = s.thread_new();
            let _t2 = s.thread_new();
            s.tick(Tid::MAIN);
            let mut picks = Vec::new();
            for _ in 0..20 {
                let active = s.state.lock().active.unwrap();
                picks.push(active.0);
                s.wait(active);
                s.tick(active);
            }
            picks
        };
        assert_eq!(run([7, 9]), run([7, 9]));
        assert_ne!(
            run([7, 9]),
            run([8, 10]),
            "different seeds diverge (w.h.p.)"
        );
    }

    #[test]
    fn pct_strategy_runs_hot_thread_in_streaks() {
        let s = Scheduler::new(
            Strategy::Pct { switch_denom: 1000 },
            Prng::from_seeds([3, 4]),
        );
        s.wait(Tid::MAIN);
        let _t1 = s.thread_new();
        let _t2 = s.thread_new();
        s.tick(Tid::MAIN);
        let mut picks = Vec::new();
        for _ in 0..30 {
            let active = s.state.lock().active.unwrap();
            picks.push(active.0);
            s.wait(active);
            s.tick(active);
        }
        let switches = picks.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(switches <= 3, "hot thread dominates: {picks:?}");
    }

    #[test]
    fn slice_strategy_preempts_and_round_robins() {
        let s = Scheduler::new(Strategy::Slice { quantum: 3 }, Prng::from_seeds([1, 1]));
        s.wait(Tid::MAIN);
        let _t1 = s.thread_new();
        s.tick(Tid::MAIN);
        let mut picks = vec![0u32];
        for _ in 0..20 {
            let active = s.state.lock().active.unwrap();
            picks.push(active.0);
            s.wait(active);
            s.tick(active);
        }
        // Quanta carry ±25% jitter (see `slice_jitter`), so we check the
        // shape, not the exact pattern: both threads run, in runs (few
        // switches), alternating.
        assert!(picks.contains(&0) && picks.contains(&1), "{picks:?}");
        let switches = picks.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(switches >= 2, "preemption happens: {picks:?}");
        assert!(
            switches * 2 <= picks.len(),
            "runs, not fine interleaving: {picks:?}"
        );
    }

    #[test]
    fn delay_strategy_is_nonpreemptive_with_bounded_delays() {
        let s = Scheduler::new(
            Strategy::Delay {
                budget: 2,
                denom: 4,
            },
            Prng::from_seeds([9, 4]),
        );
        s.wait(Tid::MAIN);
        let _t1 = s.thread_new();
        s.tick(Tid::MAIN);
        let mut picks = Vec::new();
        for _ in 0..40 {
            let active = s.state.lock().active.unwrap();
            picks.push(active.0);
            s.wait(active);
            s.tick(active);
        }
        // Non-preemptive baseline + at most `budget` delays: the schedule
        // has at most budget+? switches... each delay causes one switch,
        // and the displaced thread resumes only when the other blocks or
        // is itself delayed — so switches <= 2 * budget.
        let switches = picks.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(switches <= 4, "bounded delays: {picks:?}");
        assert!(picks.contains(&0), "baseline runs main");
    }

    #[test]
    fn delay_strategy_same_seeds_same_schedule() {
        let run = |seeds: [u64; 2]| -> Vec<u32> {
            let s = Scheduler::new(
                Strategy::Delay {
                    budget: 3,
                    denom: 4,
                },
                Prng::from_seeds(seeds),
            );
            s.wait(Tid::MAIN);
            let _t1 = s.thread_new();
            let _t2 = s.thread_new();
            s.tick(Tid::MAIN);
            let mut picks = Vec::new();
            for _ in 0..30 {
                let active = s.state.lock().active.unwrap();
                picks.push(active.0);
                s.wait(active);
                s.tick(active);
            }
            picks
        };
        assert_eq!(run([5, 5]), run([5, 5]));
    }

    #[test]
    fn wakeups_bounded_by_ticks_plus_broadcasts() {
        // With the liveness rescheduler absent and no signals, the only
        // wakeup sources are Tick()'s targeted choice (≤ 1 per tick) and
        // teardown broadcasts — so `wakeups_issued ≤ ticks + broadcasts`.
        // And because every targeted wakeup names an eligible thread, no
        // woken thread should ever find itself ineligible.
        let s = sched(Strategy::Random);
        s.wait(Tid::MAIN);
        let t1 = s.thread_new();
        s.tick(Tid::MAIN);

        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            for _ in 0..50 {
                s2.wait(t1);
                s2.tick(t1);
            }
            s2.wait(t1);
            s2.thread_finish(t1);
            s2.tick(t1);
        });
        for _ in 0..50 {
            s.wait(Tid::MAIN);
            s.tick(Tid::MAIN);
        }
        s.wait(Tid::MAIN);
        s.thread_finish(Tid::MAIN);
        s.tick(Tid::MAIN);
        h.join().unwrap();

        let c = s.counters();
        assert!(c.ticks > 0);
        assert!(
            c.wakeups_issued <= c.ticks + c.broadcasts,
            "wakeups {} > ticks {} + broadcasts {}",
            c.wakeups_issued,
            c.ticks,
            c.broadcasts
        );
        assert_eq!(
            c.spurious_wakeups, 0,
            "targeted wakeup must only wake eligible threads"
        );
    }

    #[test]
    fn queue_enable_while_parked_enqueues_for_wakeup() {
        // A thread parked in Wait() while Disabled must be entered into
        // the arrival queue when it is re-enabled, or no targeted wakeup
        // would ever name it (eligible()'s self-enqueue needs the thread
        // to run). Regression test for the enable-time enqueue.
        let s = sched(Strategy::Queue);
        s.wait(Tid::MAIN);
        let t1 = s.thread_new();
        s.tick(Tid::MAIN);

        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            // t1 blocks on a mutex inside its first critical section,
            // then parks in Wait() as a Disabled thread.
            s2.wait(t1);
            s2.mutex_lock_fail(t1, MutexId(3));
            s2.tick(t1);
            s2.wait(t1); // parks Disabled; woken only after re-enable
            s2.thread_finish(t1);
            s2.tick(t1);
        });

        // Give t1 time to park, then release the mutex from main's next
        // critical section.
        while !s.state.lock().threads[t1.index()].in_wait {
            std::thread::yield_now();
        }
        s.wait(Tid::MAIN);
        assert_eq!(s.mutex_unlock(MutexId(3)), Some(t1));
        s.tick(Tid::MAIN);
        s.wait(Tid::MAIN);
        s.thread_finish(Tid::MAIN);
        s.tick(Tid::MAIN);
        h.join().unwrap();
        assert!(s.failure().is_none());
    }

    #[test]
    fn fail_unwinds_waiters() {
        let s = sched(Strategy::Random);
        s.fail(FailReason::ProgramPanic("boom".into()));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.wait(Tid::MAIN);
        }))
        .unwrap_err();
        let abort = err
            .downcast_ref::<SchedAbort>()
            .expect("SchedAbort payload");
        assert!(matches!(abort.0, FailReason::ProgramPanic(_)));
    }
}
