//! **tsan11rec** — sparse record and replay with controlled scheduling.
//!
//! A Rust reproduction of the PLDI 2019 tool of the same name (Lidbury &
//! Donaldson): dynamic analysis that combines
//!
//! 1. **controlled concurrency testing** — a cooperative scheduler
//!    serializes *visible operations* (atomics, mutex/condvar operations,
//!    thread management, syscalls, signal-handler entries) via the
//!    `Wait()`/`Tick()` protocol of §3, with `random`, `queue` and
//!    PCT-style strategies, while invisible code runs in parallel;
//! 2. **sparse record and replay** — a configurable, minimal set of
//!    nondeterminism sources (the interleaving, asynchronous signals, a
//!    per-application set of syscalls, async scheduler events) is captured
//!    into a *demo* and enforced on replay (§4);
//! 3. **C++11 data-race detection** — FastTrack-style happens-before
//!    checking over a tsan11-style operational weak memory model, so
//!    races that require stale-but-coherent atomic reads are found and
//!    the runs that found them replayed.
//!
//! Programs under test are written against this crate's API — the
//! library-level equivalent of tsan's compiler instrumentation:
//! [`Atomic`], [`Shared`], [`Mutex`], [`Condvar`], [`thread`], [`sys`] and
//! [`signals`]. The OS under the program is the virtual kernel of
//! `srr-vos`, so network/clock/device nondeterminism is real enough to
//! need recording yet controllable enough to test.
//!
//! # Quickstart
//!
//! ```
//! use tsan11rec::{Atomic, Config, Execution, MemOrder, Mode, Strategy};
//! use std::sync::Arc;
//!
//! let config = Config::new(Mode::Tsan11Rec(Strategy::Random)).with_seeds([1, 2]);
//! let report = Execution::new(config).run(|| {
//!     let flag = Arc::new(Atomic::new(0u32));
//!     let f2 = Arc::clone(&flag);
//!     let t = tsan11rec::thread::spawn(move || {
//!         f2.store(1, MemOrder::Release);
//!     });
//!     t.join();
//!     assert_eq!(flag.load(MemOrder::Acquire), 1);
//! });
//! assert!(report.outcome.is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod atomic;
mod config;
mod exec;
mod ids;
mod prng;
mod report;
mod runtime;
mod rwlock;
mod sched;
mod shared;
mod sync;

pub mod signals;
pub mod sys;
pub mod thread;

pub use atomic::{fence, Atomic, Scalar};
pub use config::{AccessPlan, Config, Mode, PlanDecision, RecordMode, SparseConfig, Strategy};
pub use exec::Execution;
pub use ids::{AtomicId, CondId, MutexId, Tid};
pub use prng::Prng;
pub use report::{
    soft_desync, soft_desync_report, ExecReport, Outcome, PlanCounters, SchedCounters,
};
pub use rwlock::{Barrier, RwLock, RwLockReadGuard, RwLockWriteGuard};
pub use shared::{Shared, SharedArray};
pub use sync::{Condvar, Mutex, MutexGuard};

// The memory orders and vOS types appear throughout program code; re-export
// them so workloads depend on one crate.
pub use srr_analysis::{Finding, FindingKind, SyncTrace};
pub use srr_memmodel::MemOrder;
pub use srr_obs as obs;
pub use srr_obs::{chrome_trace, text_timeline, DesyncDiagnostics, ObsOp, ObsReport, TraceSpec};
pub use srr_replay::{Demo, DemoHeader, HardDesync, SoftDesync};
pub use srr_vos as vos;
pub use srr_vos::{Errno, Fd, PollFd, SysResult};
