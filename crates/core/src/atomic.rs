//! Instrumented atomics with C++11 weak-memory semantics.
//!
//! [`Atomic<T>`] is the program-facing equivalent of `std::atomic<T>`: in
//! instrumented modes every operation is a visible operation routed
//! through the scheduler and the tsan11-style memory model (loads may
//! observe stale-but-coherent stores); in native mode it degrades to a
//! plain `std::sync::atomic::AtomicU64` with the corresponding ordering.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering as StdOrd};

use srr_memmodel::MemOrder;
use srr_obs::EventKind;

use crate::ids::AtomicId;
use crate::runtime::{current_rt, with_ctx};

/// Value types storable in an [`Atomic`] or
/// [`Shared`](crate::shared::Shared) cell (≤ 64 bits, bit-convertible).
pub trait Scalar: Copy + Send + 'static {
    /// Bit-packs into the 64-bit storage representation.
    fn to_bits(self) -> u64;
    /// Unpacks from the storage representation.
    fn from_bits(bits: u64) -> Self;
}

macro_rules! scalar_int {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn to_bits(self) -> u64 { self as u64 }
            #[allow(clippy::cast_possible_truncation)]
            fn from_bits(bits: u64) -> Self { bits as $t }
        }
    )*};
}
scalar_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Scalar for bool {
    fn to_bits(self) -> u64 {
        u64::from(self)
    }
    fn from_bits(bits: u64) -> Self {
        bits != 0
    }
}

impl Scalar for f32 {
    fn to_bits(self) -> u64 {
        u64::from(self.to_bits())
    }
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

impl Scalar for f64 {
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

fn map_order(o: MemOrder) -> StdOrd {
    match o {
        MemOrder::Relaxed => StdOrd::Relaxed,
        MemOrder::Acquire => StdOrd::Acquire,
        MemOrder::Release => StdOrd::Release,
        MemOrder::AcqRel => StdOrd::AcqRel,
        MemOrder::SeqCst => StdOrd::SeqCst,
    }
}

fn load_order(o: MemOrder) -> StdOrd {
    match o {
        MemOrder::Release | MemOrder::AcqRel => StdOrd::Acquire,
        other => map_order(other),
    }
}

fn store_order(o: MemOrder) -> StdOrd {
    match o {
        MemOrder::Acquire | MemOrder::AcqRel => StdOrd::Release,
        other => map_order(other),
    }
}

/// An atomic cell with instrumented C++11 semantics.
///
/// Construct it *inside* an execution (the creating thread's clock stamps
/// the initialization write). Constructed outside any execution, it
/// behaves natively.
pub struct Atomic<T: Scalar> {
    id: Option<AtomicId>,
    /// Interned location id in the sync trace (tracing runs only).
    trace_loc: Option<u32>,
    native: AtomicU64,
    _marker: PhantomData<T>,
}

impl<T: Scalar> Atomic<T> {
    /// Creates a new atomic holding `value`.
    #[must_use]
    pub fn new(value: T) -> Self {
        Atomic::build(value, None)
    }

    /// Creates an atomic with a diagnostic label. The analysis passes use
    /// labels to identify locations: an `Atomic` and a
    /// [`Shared`](crate::shared::Shared) carrying the *same* label model
    /// two views of one memory location (the mixed-access lint).
    #[must_use]
    pub fn labeled(value: T, label: &str) -> Self {
        Atomic::build(value, Some(label))
    }

    fn build(value: T, label: Option<&str>) -> Self {
        let reg = with_ctx(|ctx| {
            if ctx.rt.mode().is_instrumented() {
                let id = ctx.rt.register_atomic(value.to_bits(), &ctx.view);
                let trace_loc = match label {
                    Some(l) => ctx.rt.sync_loc(l),
                    None => ctx.rt.sync_loc(&format!("atomic#{}", id.0)),
                };
                Some((id, trace_loc))
            } else {
                None
            }
        })
        .flatten();
        let (id, trace_loc) = match reg {
            Some((id, loc)) => (Some(id), loc),
            None => (None, None),
        };
        Atomic {
            id,
            trace_loc,
            native: AtomicU64::new(value.to_bits()),
            _marker: PhantomData,
        }
    }

    /// Atomic load at `order`.
    pub fn load(&self, order: MemOrder) -> T {
        let Some(id) = self.instrumented() else {
            return self.scheduling_only(|| T::from_bits(self.native.load(load_order(order))));
        };
        let (rt, tid) = current_rt().expect("instrumented cell outside execution");
        rt.enter(tid);
        let (bits, writer) = with_ctx(|ctx| {
            let mut chooser = ctx.rt.chooser();
            let mut mem = ctx.rt.mem.lock();
            let res = mem.cells[id.0 as usize].load_with_writer(&mut ctx.view, order, &mut chooser);
            // FastTrack discipline: the clock advances *after* the
            // operation, so later accesses are distinguishable from the
            // clock any acquirer obtained here.
            ctx.view.tick();
            res
        })
        .expect("context present");
        if let Some(loc) = self.trace_loc {
            rt.sync_event(
                tid,
                EventKind::AtomicLoad {
                    loc,
                    relaxed: order == MemOrder::Relaxed,
                    writer: writer as u32,
                },
            );
        }
        rt.exit(tid);
        T::from_bits(bits)
    }

    /// Atomic store at `order`.
    pub fn store(&self, value: T, order: MemOrder) {
        let Some(id) = self.instrumented() else {
            return self.scheduling_only(|| self.native.store(value.to_bits(), store_order(order)));
        };
        let (rt, tid) = current_rt().expect("instrumented cell outside execution");
        rt.enter(tid);
        with_ctx(|ctx| {
            let mut mem = ctx.rt.mem.lock();
            mem.cells[id.0 as usize].store(&mut ctx.view, value.to_bits(), order);
            ctx.view.tick(); // after publication (FastTrack discipline)
        });
        if let Some(loc) = self.trace_loc {
            rt.sync_event(tid, EventKind::AtomicStore { loc, rmw: false });
        }
        self.native.store(value.to_bits(), StdOrd::Relaxed);
        rt.exit(tid);
    }

    /// Atomic read-modify-write; returns the previous value.
    pub fn fetch_update(&self, order: MemOrder, f: impl Fn(T) -> T) -> T {
        let Some(id) = self.instrumented() else {
            return self.scheduling_only(|| {
                let mut cur = self.native.load(StdOrd::Relaxed);
                loop {
                    let next = f(T::from_bits(cur)).to_bits();
                    match self.native.compare_exchange_weak(
                        cur,
                        next,
                        map_order(order),
                        StdOrd::Relaxed,
                    ) {
                        Ok(prev) => return T::from_bits(prev),
                        Err(now) => cur = now,
                    }
                }
            });
        };
        let (rt, tid) = current_rt().expect("instrumented cell outside execution");
        rt.enter(tid);
        let old = with_ctx(|ctx| {
            let mut mem = ctx.rt.mem.lock();
            let old = mem.cells[id.0 as usize].rmw(
                &mut ctx.view,
                |v| f(T::from_bits(v)).to_bits(),
                order,
            );
            ctx.view.tick(); // after publication (FastTrack discipline)
            old
        })
        .expect("context present");
        if let Some(loc) = self.trace_loc {
            rt.sync_event(tid, EventKind::AtomicStore { loc, rmw: true });
        }
        self.native
            .store(f(T::from_bits(old)).to_bits(), StdOrd::Relaxed);
        rt.exit(tid);
        T::from_bits(old)
    }

    /// `fetch_add` for integer-like scalars (wrapping).
    pub fn fetch_add(&self, delta: u64, order: MemOrder) -> T {
        self.fetch_update(order, |v| T::from_bits(v.to_bits().wrapping_add(delta)))
    }

    /// `fetch_sub` (wrapping).
    pub fn fetch_sub(&self, delta: u64, order: MemOrder) -> T {
        self.fetch_update(order, |v| T::from_bits(v.to_bits().wrapping_sub(delta)))
    }

    /// Atomic swap; returns the previous value.
    pub fn swap(&self, value: T, order: MemOrder) -> T {
        self.fetch_update(order, |_| value)
    }

    /// Strong compare-exchange. `Ok(previous)` on success, `Err(actual)`
    /// on failure.
    pub fn compare_exchange(
        &self,
        expected: T,
        new: T,
        success: MemOrder,
        failure: MemOrder,
    ) -> Result<T, T> {
        let Some(id) = self.instrumented() else {
            return self.scheduling_only(|| {
                self.native
                    .compare_exchange(
                        expected.to_bits(),
                        new.to_bits(),
                        map_order(success),
                        load_order(failure),
                    )
                    .map(T::from_bits)
                    .map_err(T::from_bits)
            });
        };
        let (rt, tid) = current_rt().expect("instrumented cell outside execution");
        rt.enter(tid);
        let res = with_ctx(|ctx| {
            let mut mem = ctx.rt.mem.lock();
            let res = mem.cells[id.0 as usize].compare_exchange(
                &mut ctx.view,
                expected.to_bits(),
                new.to_bits(),
                success,
                failure,
            );
            ctx.view.tick(); // after publication (FastTrack discipline)
            res
        })
        .expect("context present");
        if res.is_ok() {
            if let Some(loc) = self.trace_loc {
                rt.sync_event(tid, EventKind::AtomicStore { loc, rmw: true });
            }
            self.native.store(new.to_bits(), StdOrd::Relaxed);
        }
        rt.exit(tid);
        res.map(T::from_bits).map_err(T::from_bits)
    }

    fn instrumented(&self) -> Option<AtomicId> {
        // The id is only meaningful while an execution is live; a cell
        // created natively stays native. With race detection off (the
        // plain-rr baseline) the weak memory model is bypassed, but the
        // operation must remain a scheduling point — callers handle that
        // through `scheduling_only`.
        self.id.filter(|_| match current_rt() {
            Some((rt, _)) => rt.config.detect_races,
            None => false,
        })
    }

    /// With analysis off but a controlled scheduler present, atomics are
    /// still visible operations: bracket the native op in enter/exit.
    fn scheduling_only<R>(&self, op: impl FnOnce() -> R) -> R {
        match current_rt() {
            Some((rt, tid)) if rt.mode().is_controlled() && !rt.config.detect_races => {
                rt.enter(tid);
                with_ctx(|ctx| ctx.view.tick());
                let r = op();
                rt.exit(tid);
                r
            }
            _ => op(),
        }
    }
}

impl<T: Scalar + std::fmt::Debug> std::fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Atomic")
            .field("value", &T::from_bits(self.native.load(StdOrd::Relaxed)))
            .field("instrumented", &self.id.is_some())
            .finish()
    }
}

/// An atomic thread fence at `order` (§2: fence operations are
/// instrumented visible operations).
pub fn fence(order: MemOrder) {
    let Some((rt, tid)) = current_rt() else {
        std::sync::atomic::fence(map_order(order));
        return;
    };
    if !rt.mode().is_instrumented() {
        std::sync::atomic::fence(map_order(order));
        return;
    }
    rt.enter(tid);
    with_ctx(|ctx| {
        let mut mem = ctx.rt.mem.lock();
        match order {
            MemOrder::Relaxed => {}
            MemOrder::Acquire => ctx.view.acquire_fence(),
            MemOrder::Release => ctx.view.release_fence(),
            MemOrder::AcqRel => {
                ctx.view.acquire_fence();
                ctx.view.release_fence();
            }
            MemOrder::SeqCst => mem.sc.sc_fence(&mut ctx.view),
        }
        ctx.view.tick(); // after publication (FastTrack discipline)
    });
    rt.exit(tid);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(u32::from_bits(7u32.to_bits()), 7);
        assert_eq!(i64::from_bits((-3i64).to_bits()), -3);
        assert!(bool::from_bits(true.to_bits()));
        assert_eq!(f32::from_bits(1.5f32.to_bits()), 1.5);
        assert_eq!(f64::from_bits((-0.25f64).to_bits()), -0.25);
        assert_eq!(i8::from_bits((-1i8).to_bits()), -1);
    }

    #[test]
    fn native_atomic_works_outside_execution() {
        let a = Atomic::new(5u32);
        assert_eq!(a.load(MemOrder::SeqCst), 5);
        a.store(9, MemOrder::Release);
        assert_eq!(a.load(MemOrder::Acquire), 9);
        assert_eq!(a.fetch_add(1, MemOrder::AcqRel), 9);
        assert_eq!(a.swap(100, MemOrder::SeqCst), 10);
        assert_eq!(
            a.compare_exchange(100, 1, MemOrder::SeqCst, MemOrder::Relaxed),
            Ok(100)
        );
        assert_eq!(
            a.compare_exchange(100, 2, MemOrder::SeqCst, MemOrder::Relaxed),
            Err(1)
        );
    }

    #[test]
    fn native_fence_is_a_noop_wrapper() {
        fence(MemOrder::SeqCst); // must not panic outside an execution
    }

    #[test]
    fn debug_shows_value() {
        let a = Atomic::new(3u8);
        let s = format!("{a:?}");
        assert!(s.contains('3'));
        assert!(s.contains("instrumented: false"));
    }
}
