//! Instrumented mutexes and condition variables (§3.2, Figures 4–5).

use crate::ids::{CondId, MutexId, Tid};
use crate::runtime::{current_rt, with_ctx, Runtime};
use srr_obs::EventKind;
use std::sync::Arc;

/// An instrumented mutual-exclusion lock.
///
/// In controlled modes, `lock` is the paper's Figure 4 trylock loop: each
/// attempt is a critical section, and a failed attempt disables the thread
/// via `MutexLockFail` until `MutexUnlock` re-enables it. Data protection
/// is delegated to an inner `parking_lot::Mutex`, which by construction is
/// uncontended once the logical protocol grants ownership.
pub struct Mutex<T> {
    id: Option<MutexId>,
    inner: parking_lot::Mutex<T>,
}

/// RAII guard for [`Mutex`]; unlocking is a visible operation performed
/// on drop.
pub struct MutexGuard<'a, T> {
    native: Option<parking_lot::MutexGuard<'a, T>>,
    mutex: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    #[must_use]
    pub fn new(value: T) -> Self {
        Mutex::build(value, None)
    }

    /// Creates a mutex with a diagnostic label (shown by the analysis
    /// passes in place of `mutex#N`).
    #[must_use]
    pub fn labeled(value: T, label: &str) -> Self {
        Mutex::build(value, Some(label))
    }

    fn build(value: T, label: Option<&str>) -> Self {
        let id = with_ctx(|ctx| {
            if ctx.rt.mode().is_instrumented() {
                let id = ctx.rt.register_mutex();
                ctx.rt.sync_mutex_label(id, label);
                Some(id)
            } else {
                None
            }
        })
        .flatten();
        Mutex {
            id,
            inner: parking_lot::Mutex::new(value),
        }
    }

    fn instrumented(&self) -> Option<(MutexId, Arc<Runtime>, Tid)> {
        let id = self.id?;
        let (rt, tid) = current_rt()?;
        Some((id, rt, tid))
    }

    /// Acquires the mutex (Figure 4 in controlled modes).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let Some((id, rt, tid)) = self.instrumented() else {
            return MutexGuard {
                native: Some(self.inner.lock()),
                mutex: self,
            };
        };
        if !rt.mode().is_controlled() {
            // tsan11: real blocking lock plus the happens-before transfer.
            let native = self.inner.lock();
            rt.enter(tid);
            with_ctx(|ctx| {
                let mut ms = ctx.rt.mutexes.lock();
                let rec = &mut ms[id.0 as usize];
                rec.holder = Some(tid);
                let sync = rec.sync.clone();
                drop(ms);
                ctx.view.clock.join(&sync);
                ctx.view.tick();
            });
            rt.exit(tid);
            return MutexGuard {
                native: Some(native),
                mutex: self,
            };
        }
        // Figure 4: int res = EBUSY; while (res == EBUSY) { Wait();
        // res = trylock(m); if (res == EBUSY) MutexLockFail(m); Tick(); }
        let mut requested = false;
        loop {
            rt.enter(tid);
            if !requested {
                // Traced at blocking-lock entry, before the first attempt:
                // the deadlock predictor's lock-order edges come from
                // requests, so a run that actually deadlocks here still
                // contributes its edge.
                requested = true;
                rt.sync_event(tid, EventKind::MutexRequest { mutex: id.0 });
            }
            let acquired = with_ctx(|ctx| {
                let acquired = ctx.rt.mutex_try_acquire(id, tid, &mut ctx.view);
                ctx.view.tick();
                acquired
            })
            .expect("context present");
            if !acquired {
                rt.sched().mutex_lock_fail(tid, id);
            } else {
                rt.sync_event(tid, EventKind::MutexAcquire { mutex: id.0 });
            }
            rt.exit(tid);
            if acquired {
                let native = self
                    .inner
                    .try_lock()
                    .expect("logical ownership guarantees the inner lock is free");
                return MutexGuard {
                    native: Some(native),
                    mutex: self,
                };
            }
        }
    }

    /// Attempts to acquire the mutex without blocking (one critical
    /// section).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let Some((id, rt, tid)) = self.instrumented() else {
            return self.inner.try_lock().map(|native| MutexGuard {
                native: Some(native),
                mutex: self,
            });
        };
        rt.enter(tid);
        let acquired = with_ctx(|ctx| {
            let acquired = ctx.rt.mutex_try_acquire(id, tid, &mut ctx.view);
            ctx.view.tick();
            acquired
        })
        .expect("context present");
        if acquired {
            // No MutexRequest: a try_lock cannot block, so it cannot
            // close a deadlock cycle.
            rt.sync_event(tid, EventKind::MutexAcquire { mutex: id.0 });
        }
        rt.exit(tid);
        if acquired {
            let native = self
                .inner
                .try_lock()
                .expect("logical ownership guarantees the inner lock is free");
            Some(MutexGuard {
                native: Some(native),
                mutex: self,
            })
        } else {
            None
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.native.as_ref().expect("guard is live")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.native.as_mut().expect("guard is live")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Unwinding (program panic or scheduler abort): the execution
            // is being torn down; running the unlock protocol would
            // re-enter the failed scheduler and double-panic.
            self.native.take();
            return;
        }
        let Some((id, rt, tid)) = self.mutex.instrumented() else {
            self.native.take();
            return;
        };
        if !rt.mode().is_controlled() {
            // tsan11 mode: the holder/sync bookkeeping must change while
            // the native lock is still held — the next owner takes the
            // native lock directly, so clearing the holder after the
            // native release would race with the next owner setting it.
            rt.enter(tid);
            with_ctx(|ctx| {
                ctx.rt.mutex_release(id, tid, &ctx.view);
                ctx.view.tick(); // after publication (FastTrack discipline)
            });
            self.native.take();
            rt.exit(tid);
            return;
        }
        // Controlled: release the data lock first so the logically-next
        // owner's `try_lock` cannot observe it held (logical ownership is
        // granted by the scheduler, which serializes these sections).
        self.native.take();
        // Unlock is a visible operation that also wakes one blocked
        // thread (MutexUnlock, §3.2).
        rt.enter(tid);
        with_ctx(|ctx| {
            ctx.rt.mutex_release(id, tid, &ctx.view);
            ctx.view.tick(); // after publication (FastTrack discipline)
        });
        rt.sync_event(tid, EventKind::MutexRelease { mutex: id.0 });
        rt.sched().mutex_unlock(id);
        rt.exit(tid);
    }
}

/// An instrumented condition variable (Figure 5).
pub struct Condvar {
    id: Option<CondId>,
    /// Uncontrolled-mode implementation.
    native: parking_lot::Condvar,
    /// Runtime-internal condvars (RwLock, Barrier) are excluded from the
    /// sync trace: their polling wait loops are implementation detail,
    /// not program behaviour, and would trip the no-recheck lint.
    internal: bool,
}

impl Condvar {
    /// Creates a condition variable.
    #[must_use]
    pub fn new() -> Self {
        Condvar::build(false)
    }

    /// A condvar used by runtime-internal primitives: participates in
    /// scheduling but is invisible to the analysis passes.
    pub(crate) fn internal() -> Self {
        Condvar::build(true)
    }

    fn build(internal: bool) -> Self {
        let id = with_ctx(|ctx| {
            if ctx.rt.mode().is_instrumented() && ctx.rt.mode().is_controlled() {
                Some(ctx.rt.register_cond())
            } else {
                None
            }
        })
        .flatten();
        Condvar {
            id,
            native: parking_lot::Condvar::new(),
            internal,
        }
    }

    /// Releases `guard`'s mutex, blocks until signalled, reacquires.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait_impl(guard, false, 0).0
    }

    /// As [`Condvar::wait`] with a timeout in milliseconds. Returns the
    /// reacquired guard and whether the thread was *signalled* (`false`
    /// means the wait timed out).
    ///
    /// Under controlled scheduling the timeout is modelled, not timed:
    /// a timed waiter stays *enabled* (§3.2 — the wakeup timer is
    /// physical time, which from the scheduler's logical perspective may
    /// fire at any moment), so the scheduler may run it at any point, and
    /// running it unsignalled means the timeout expired. A timed waiter
    /// that has not yet run can still *eat* a signal.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout_ms: u64,
    ) -> (MutexGuard<'a, T>, bool) {
        self.wait_impl(guard, true, timeout_ms)
    }

    fn wait_impl<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timed: bool,
        timeout_ms: u64,
    ) -> (MutexGuard<'a, T>, bool) {
        let mutex = guard.mutex;
        match current_rt() {
            None => {
                // Pure native.
                let native = guard.native.as_mut().expect("guard is live");
                if timed {
                    let deadline = std::time::Duration::from_millis(timeout_ms);
                    let res = self.native.wait_for(native, deadline);
                    let signaled = !res.timed_out();
                    (guard, signaled)
                } else {
                    self.native.wait(native);
                    (guard, true)
                }
            }
            Some((rt, tid)) if !rt.mode().is_controlled() => {
                // tsan11: native blocking, plus the mutex happens-before
                // transfer across the release/reacquire the wait implies.
                // The holder bookkeeping mirrors the native lock's state:
                // the wait releases it, the return reacquires it.
                if let Some(mid) = mutex.id {
                    rt.enter(tid);
                    with_ctx(|ctx| {
                        let mut ms = ctx.rt.mutexes.lock();
                        let rec = &mut ms[mid.0 as usize];
                        rec.sync.join(&ctx.view.clock);
                        rec.holder = None;
                        drop(ms);
                        ctx.view.tick(); // after publication
                    });
                    rt.exit(tid);
                }
                let signaled = {
                    let native = guard.native.as_mut().expect("guard is live");
                    if timed {
                        let deadline = std::time::Duration::from_millis(timeout_ms);
                        !self.native.wait_for(native, deadline).timed_out()
                    } else {
                        self.native.wait(native);
                        true
                    }
                };
                if let Some(mid) = mutex.id {
                    rt.enter(tid);
                    with_ctx(|ctx| {
                        let mut ms = ctx.rt.mutexes.lock();
                        let rec = &mut ms[mid.0 as usize];
                        rec.holder = Some(tid);
                        let sync = rec.sync.clone();
                        drop(ms);
                        ctx.view.clock.join(&sync);
                        ctx.view.tick();
                    });
                    rt.exit(tid);
                }
                (guard, signaled)
            }
            Some((rt, tid)) => {
                // Controlled: Figure 5. One critical section covers
                // CondWait + mutex_unlock + MutexUnlock; the reacquire is
                // the ordinary Figure 4 loop, giving other threads a
                // window to take the mutex in between.
                let cid = self.id.expect("controlled condvar is registered");
                let mid = mutex.id.expect("controlled mutex is registered");
                // Drop the data lock; skip the guard's own unlock protocol
                // (we perform it manually inside this critical section).
                guard.native.take();
                std::mem::forget(guard);

                rt.enter(tid);
                if !self.internal {
                    rt.sync_event(
                        tid,
                        EventKind::CondWaitBegin {
                            cond: cid.0,
                            mutex: mid.0,
                        },
                    );
                }
                rt.conds.lock()[cid.0 as usize].waiters.push((tid, timed));
                if !timed {
                    rt.sched().cond_block(tid, cid);
                }
                with_ctx(|ctx| {
                    ctx.rt.mutex_release(mid, tid, &ctx.view);
                    ctx.view.tick(); // after publication (FastTrack discipline)
                });
                rt.sync_event(tid, EventKind::MutexRelease { mutex: mid.0 });
                rt.sched().mutex_unlock(mid);
                rt.exit(tid);

                let new_guard = mutex.lock();

                let signaled = {
                    let mut conds = rt.conds.lock();
                    let rec = &mut conds[cid.0 as usize];
                    let was = match rec.signaled.iter().position(|t| *t == tid) {
                        Some(i) => {
                            rec.signaled.remove(i);
                            true
                        }
                        None => false,
                    };
                    if let Some(i) = rec.waiters.iter().position(|(t, _)| *t == tid) {
                        // Timed waiter that ran without being signalled:
                        // its timeout expired; stop eating signals.
                        rec.waiters.remove(i);
                    }
                    was
                };
                if !self.internal {
                    rt.sync_event(
                        tid,
                        EventKind::CondWaitReturn {
                            cond: cid.0,
                            mutex: mid.0,
                            signaled,
                        },
                    );
                }
                (new_guard, signaled)
            }
        }
    }

    /// Signals one waiter.
    pub fn notify_one(&self) {
        let Some((id, rt, tid)) = self.ctx() else {
            self.native.notify_one();
            return;
        };
        rt.enter(tid);
        with_ctx(|ctx| ctx.view.tick());
        if !self.internal {
            rt.sync_event(
                tid,
                EventKind::CondNotify {
                    cond: id.0,
                    all: false,
                },
            );
        }
        let woken = {
            let mut conds = rt.conds.lock();
            let rec = &mut conds[id.0 as usize];
            if rec.waiters.is_empty() {
                None
            } else {
                let tids: Vec<Tid> = rec.waiters.iter().map(|(t, _)| *t).collect();
                let pick = rt.sched().pick_one_of(&tids);
                let pos = rec
                    .waiters
                    .iter()
                    .position(|(t, _)| *t == pick)
                    .expect("member");
                let (tid, timed) = rec.waiters.remove(pos);
                rec.signaled.push(tid);
                Some((tid, timed))
            }
        };
        if let Some((woken_tid, timed)) = woken {
            if !timed {
                rt.sched().cond_wake(woken_tid);
            }
        }
        rt.exit(tid);
    }

    /// Signals all waiters.
    pub fn notify_all(&self) {
        let Some((id, rt, tid)) = self.ctx() else {
            self.native.notify_all();
            return;
        };
        rt.enter(tid);
        with_ctx(|ctx| ctx.view.tick());
        if !self.internal {
            rt.sync_event(
                tid,
                EventKind::CondNotify {
                    cond: id.0,
                    all: true,
                },
            );
        }
        let woken: Vec<(Tid, bool)> = {
            let mut conds = rt.conds.lock();
            let rec = &mut conds[id.0 as usize];
            let all = std::mem::take(&mut rec.waiters);
            for (t, _) in &all {
                rec.signaled.push(*t);
            }
            all
        };
        for (woken_tid, timed) in woken {
            if !timed {
                rt.sched().cond_wake(woken_tid);
            }
        }
        rt.exit(tid);
    }

    fn ctx(&self) -> Option<(CondId, Arc<Runtime>, Tid)> {
        let id = self.id?;
        let (rt, tid) = current_rt()?;
        Some((id, rt, tid))
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_mutex_guards_data() {
        let m = Mutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn native_try_lock_contended() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn native_condvar_timeout() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let g = m.lock();
        let (_g, signaled) = cv.wait_timeout(g, 10);
        assert!(!signaled, "nobody signalled: timeout");
    }

    #[test]
    fn native_condvar_signal() {
        use std::sync::Arc;
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let m2 = Arc::clone(&m);
        let cv2 = Arc::clone(&cv);
        let h = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = true;
            cv2.notify_one();
            drop(g);
        });
        let mut g = m.lock();
        while !*g {
            let (g2, _signaled) = cv.wait_timeout(g, 50);
            g = g2;
        }
        drop(g);
        h.join().unwrap();
    }
}
