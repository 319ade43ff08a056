//! Instrumented plain (non-atomic) shared memory.
//!
//! [`Shared<T>`] models an ordinary shared variable: accesses are
//! *invisible* operations (no scheduling point — Figure 3's parallelism
//! applies), but every access is checked by the FastTrack race detector
//! against the accessing thread's vector clock, exactly as tsan
//! instruments plain loads and stores.
//!
//! Physically the value lives in a relaxed `AtomicU64`, so a *detected*
//! race in the modelled program is never an actual data race in the
//! host process.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering as StdOrd};

use srr_obs::{EventClass, EventKind};
use srr_racedet::{AccessKind, LocationId};

use crate::atomic::Scalar;
use crate::config::PlanDecision;
use crate::runtime::with_ctx;

/// A plain shared variable under race detection.
pub struct Shared<T: Scalar> {
    loc: Option<LocationId>,
    /// Interned location id in the sync trace (tracing runs only); shares
    /// the label namespace with [`Atomic::labeled`](crate::Atomic), so an
    /// atomic and a `Shared` with one label model one memory location.
    trace_loc: Option<u32>,
    /// The access plan's ruling on this location, computed once at
    /// construction. `Record` when no plan is armed, so the hot path
    /// stays a single enum compare.
    plan: PlanDecision,
    native: AtomicU64,
    _marker: PhantomData<T>,
}

impl<T: Scalar> Shared<T> {
    /// Creates a shared variable with a diagnostic label (shown in race
    /// reports).
    #[must_use]
    pub fn new(label: &str, value: T) -> Self {
        let reg = with_ctx(|ctx| {
            if ctx.rt.mode().is_instrumented() {
                let loc = ctx.rt.racedet.lock().register_location(label);
                let plan = match &ctx.rt.config.access_plan {
                    Some(plan) => {
                        ctx.rt.plan_sites.fetch_add(1, StdOrd::Relaxed);
                        let decision = plan.decide(label);
                        if decision == PlanDecision::Unplanned {
                            ctx.rt.plan_unplanned.lock().insert(label.to_owned());
                        }
                        decision
                    }
                    None => PlanDecision::Record,
                };
                Some((loc, ctx.rt.sync_loc(label), plan))
            } else {
                None
            }
        })
        .flatten();
        let (loc, trace_loc, plan) = match reg {
            Some((loc, t, plan)) => (Some(loc), t, plan),
            None => (None, None, PlanDecision::Record),
        };
        Shared {
            loc,
            trace_loc,
            plan,
            native: AtomicU64::new(value.to_bits()),
            _marker: PhantomData,
        }
    }

    /// Plain read (invisible operation; race-checked).
    pub fn read(&self) -> T {
        self.check(AccessKind::Read);
        T::from_bits(self.native.load(StdOrd::Relaxed))
    }

    /// Plain write (invisible operation; race-checked).
    pub fn write(&self, value: T) {
        self.check(AccessKind::Write);
        self.native.store(value.to_bits(), StdOrd::Relaxed);
    }

    /// Read-modify-write *as two plain accesses* (what `x += 1` compiles
    /// to for a non-atomic variable): racy by construction if concurrent.
    pub fn update(&self, f: impl FnOnce(T) -> T) -> T {
        let v = f(self.read());
        self.write(v);
        v
    }

    fn check(&self, kind: AccessKind) {
        let Some(loc) = self.loc else { return };
        with_ctx(|ctx| {
            if !ctx.rt.config.detect_races {
                return;
            }
            if let Some(trace_loc) = self.trace_loc.filter(|_| ctx.rt.keeps(EventClass::Access)) {
                // Sparse-by-proof: statically proven sites are dropped
                // from the event log (the race detector below still sees
                // every access — the plan filters the *recording* only).
                if self.plan == PlanDecision::Filtered {
                    ctx.rt.plan_filtered.fetch_add(1, StdOrd::Relaxed);
                } else {
                    ctx.rt.sync_event(
                        ctx.tid,
                        EventKind::PlainAccess {
                            loc: trace_loc,
                            write: kind == AccessKind::Write,
                        },
                    );
                }
            }
            // Plain accesses do not tick the clock; the clock advances at
            // visible operations only, so all plain accesses between two
            // visible operations share one epoch (as in tsan).
            let mut det = ctx.rt.racedet.lock();
            det.on_access(loc, ctx.tid.index(), &ctx.view.clock, kind);
        });
    }
}

impl<T: Scalar + std::fmt::Debug> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("value", &T::from_bits(self.native.load(StdOrd::Relaxed)))
            .field("instrumented", &self.loc.is_some())
            .finish()
    }
}

/// A fixed-size array of race-checked plain cells, for workloads that
/// share buffers (the PARSEC kernels index these heavily).
pub struct SharedArray<T: Scalar> {
    cells: Vec<Shared<T>>,
}

impl<T: Scalar> SharedArray<T> {
    /// Creates `len` cells initialized to `init`, labelled
    /// `label[0]`, `label[1]`, …
    #[must_use]
    pub fn new(label: &str, len: usize, init: T) -> Self {
        let cells = (0..len)
            .map(|i| Shared::new(&format!("{label}[{i}]"), init))
            .collect();
        SharedArray { cells }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the array is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Plain read of cell `i`.
    pub fn read(&self, i: usize) -> T {
        self.cells[i].read()
    }

    /// Plain write of cell `i`.
    pub fn write(&self, i: usize, value: T) {
        self.cells[i].write(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_shared_reads_and_writes() {
        let s = Shared::new("x", 1u32);
        assert_eq!(s.read(), 1);
        s.write(2);
        assert_eq!(s.read(), 2);
        assert_eq!(s.update(|v| v * 10), 20);
        assert_eq!(s.read(), 20);
    }

    #[test]
    fn shared_array_native() {
        let a = SharedArray::new("buf", 4, 0u64);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        a.write(2, 9);
        assert_eq!(a.read(2), 9);
        assert_eq!(a.read(0), 0);
    }

    #[test]
    fn debug_formats() {
        let s = Shared::new("x", 5i32);
        assert!(format!("{s:?}").contains('5'));
    }
}
