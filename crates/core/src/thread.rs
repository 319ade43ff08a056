//! Instrumented thread creation and joining (§3.2's thread management).
//!
//! `ThreadNew`, `ThreadJoin` and `ThreadDelete` are visible operations:
//! they change the scheduler's state. Creation synchronizes parent→child
//! (the child's initial clock absorbs the parent's); joining synchronizes
//! child→parent (the parent absorbs the child's final clock).

use std::sync::atomic::Ordering as AOrd;
use std::sync::Arc;

use parking_lot::Mutex as PlMutex;
use srr_memmodel::ThreadView;
use srr_obs::EventKind;

use crate::ids::Tid;
use crate::runtime::{clear_ctx, current_rt, install_ctx, with_ctx, Runtime};
use crate::sched::{FailReason, SchedAbort};

/// Handle to an instrumented thread; joining is a visible operation.
///
/// The underlying OS thread handle is owned by the runtime (the execution
/// harness waits for every OS thread at the end of the run), so dropping a
/// `JoinHandle` detaches only logically.
pub struct JoinHandle<T> {
    target: Tid,
    result: Arc<PlMutex<Option<T>>>,
}

/// Spawns an instrumented thread.
///
/// # Panics
///
/// Panics if called outside an execution (use `std::thread::spawn` for
/// plain threads).
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (rt, tid) = current_rt().expect("tsan11rec::thread::spawn outside an execution");

    // ThreadNew: a visible operation in the parent.
    rt.enter(tid);
    let (child_tid, parent_clock) = with_ctx(|ctx| {
        let child = if ctx.rt.mode().is_controlled() {
            ctx.rt.sched().thread_new()
        } else {
            Tid(ctx.rt.next_tid.fetch_add(1, AOrd::Relaxed))
        };
        // FastTrack fork rule: the child receives the parent's clock and
        // the parent's own component increments *afterwards*, so the
        // parent's post-spawn accesses are unordered with the child.
        let clock = ctx.view.clock.clone();
        ctx.view.tick();
        (child, clock)
    })
    .expect("context present");
    rt.sync_event(tid, EventKind::ThreadSpawn { child: child_tid.0 });
    rt.exit(tid);

    let result = Arc::new(PlMutex::new(None));
    let result2 = Arc::clone(&result);
    let rt2 = Arc::clone(&rt);
    let os = std::thread::spawn(move || {
        let mut view = ThreadView::new(child_tid.index());
        view.clock.join(&parent_clock); // creation synchronizes
        install_ctx(Arc::clone(&rt2), child_tid, view);
        let rt3 = Arc::clone(&rt2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            if let crate::config::Mode::Tsan11Rec(crate::config::Strategy::Slice { .. }) =
                rt3.mode()
            {
                // rr-style sequentialization starts at birth: the thread
                // may not run even its first invisible code until
                // scheduled.
                rt3.sched().hold(child_tid);
            }
            f()
        }));
        match outcome {
            Ok(value) => {
                *result2.lock() = Some(value);
                finish_thread(&rt2, child_tid);
            }
            Err(payload) => handle_panic(&rt2, child_tid, payload),
        }
        clear_ctx();
    });
    rt.os_handles.lock().push(os);

    JoinHandle {
        target: child_tid,
        result,
    }
}

/// The thread's final visible operation (`ThreadDelete`).
pub(crate) fn finish_thread(rt: &Arc<Runtime>, tid: Tid) {
    // Store the final clock for joiners before announcing completion.
    let final_clock = with_ctx(|ctx| ctx.view.clock.clone()).expect("context present");
    rt.final_clocks.lock().insert(tid.0, final_clock);
    if rt.mode().is_controlled() {
        // Run as a critical section unless the execution already failed.
        if rt.sched().failure().is_none() {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.enter(tid);
                rt.sched().thread_finish(tid);
                rt.sched().tick(tid);
            }));
            if attempt.is_err() {
                // Execution failed while we were finishing: downgrade to a
                // direct state update so joiners are still released.
                rt.sched().thread_finish(tid);
            }
        } else {
            rt.sched().thread_finish(tid);
        }
    } else {
        rt.free_finished.lock().insert(tid.0, true);
    }
}

pub(crate) fn handle_panic(rt: &Arc<Runtime>, tid: Tid, payload: Box<dyn std::any::Any + Send>) {
    let reason = match payload.downcast_ref::<SchedAbort>() {
        Some(abort) => abort.0.clone(),
        None => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            *rt.panic_note.lock() = Some(msg.clone());
            FailReason::ProgramPanic(msg)
        }
    };
    if let Some(sched) = &rt.sched {
        sched.fail(reason);
        sched.thread_finish(tid);
    } else {
        rt.free_finished.lock().insert(tid.0, true);
        if let FailReason::ProgramPanic(msg) = reason {
            *rt.panic_note.lock() = Some(msg);
        }
    }
    // Joiners in uncontrolled modes poll free_finished; controlled joiners
    // are released by thread_finish.
    rt.final_clocks.lock().entry(tid.0).or_default();
}

impl<T> JoinHandle<T> {
    /// The logical tid of the target thread.
    #[must_use]
    pub fn tid(&self) -> Tid {
        self.target
    }

    /// Joins the thread (`ThreadJoin`, a visible operation), returning its
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if the joined thread panicked.
    pub fn join(self) -> T {
        let (rt, tid) = current_rt().expect("JoinHandle::join outside an execution");
        if rt.mode().is_controlled() {
            // ThreadJoin loop: disable until the target finishes.
            loop {
                rt.enter(tid);
                let done = rt.sched().thread_join(tid, self.target);
                let target = self.target.0;
                rt.sync_event(tid, EventKind::ThreadJoined { target, done });
                rt.exit(tid);
                if done {
                    break;
                }
            }
        } else {
            // Uncontrolled: poll the finished set at op boundaries.
            loop {
                rt.enter(tid);
                let done = rt.free_finished.lock().contains_key(&self.target.0);
                rt.exit(tid);
                if done {
                    break;
                }
                std::thread::yield_now();
            }
        }
        // Join synchronizes child → parent.
        let final_clock = rt.final_clocks.lock().get(&self.target.0).cloned();
        if let Some(c) = final_clock {
            with_ctx(|ctx| ctx.view.clock.join(&c));
        }
        self.result
            .lock()
            .take()
            .unwrap_or_else(|| panic!("joined thread {} panicked", self.target))
    }
}
