//! srr-obs: the observability layer for the sparse record/replay stack.
//!
//! A traced run keeps one event log: the [`Obs`] collector appends each
//! [`ObsEvent`] whose class the run's [`TraceSpec`] keeps, once, in
//! emission order, and finishes into a [`SyncTrace`]. Every view is
//! derived from that log: the schedule ([`SyncTrace::tick_order`]), the
//! log2 histograms of the [`ObsReport`], desynchronisation diagnostics
//! ([`DesyncDiagnostics`]), the causal profile ([`profile`]), and the
//! exporters ([`chrome_trace`], [`text_timeline`]), which cut each track
//! to its last events at export. The core runtime builds a collector only
//! when a spec is configured, so an untraced run pays an `Option` check
//! per emit site and takes no lock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod diag;
mod event;
mod farm;
mod hist;
mod json;
pub mod metrics;
pub mod profile;
mod report;
mod trace;

pub use chrome::{chrome_trace, text_timeline};
pub use diag::{first_divergence, DesyncDiagnostics, TickDiff};
pub use event::{EventClass, EventKind, ObsEvent, ObsOp, StreamId, SysKind};
pub use farm::FarmCounters;
pub use hist::Histogram;
pub use json::Json;
pub use metrics::{Counter, Gauge, MetricHistogram, MetricsRegistry};
pub use profile::{profile, BucketRow, ProfileReport};
pub use report::{ObsReport, StreamCounter};
pub use trace::{SyncTrace, ThreadTrace};

use std::collections::HashMap;

use parking_lot::Mutex;

/// Which event classes a traced run keeps. The default keeps nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSpec {
    /// Ticks, decisions, wakeups, signals, syscall and cursor markers,
    /// and desyncs.
    pub schedule: bool,
    /// Mutex, condvar, atomic and thread operations.
    pub sync: bool,
    /// Plain accesses to instrumented shared variables.
    pub access: bool,
}

impl TraceSpec {
    /// The schedule class alone: what `srr trace` keeps.
    pub const SCHEDULE: TraceSpec = TraceSpec {
        schedule: true,
        sync: false,
        access: false,
    };

    /// Whether events of `class` are kept.
    #[must_use]
    pub fn keeps(self, class: EventClass) -> bool {
        match class {
            EventClass::Schedule => self.schedule,
            EventClass::Sync => self.sync,
            EventClass::Access => self.access,
        }
    }

    /// The classes either spec keeps.
    #[must_use]
    pub fn union(self, other: TraceSpec) -> TraceSpec {
        TraceSpec {
            schedule: self.schedule || other.schedule,
            sync: self.sync || other.sync,
            access: self.access || other.access,
        }
    }
}

#[derive(Default)]
struct Inner {
    trace: SyncTrace,
    loc_ids: HashMap<String, u32>,
}

/// The run-wide trace collector.
///
/// One mutex guards the log; the scheduler already serialises visible
/// operations (exactly one thread is ever inside the critical section),
/// so the lock is uncontended in controlled runs. `Obs` takes no other
/// locks, making it a safe leaf under the scheduler mutex.
pub struct Obs {
    spec: TraceSpec,
    inner: Mutex<Inner>,
}

impl Obs {
    /// A collector keeping the classes `spec` names. It preallocates
    /// nothing.
    #[must_use]
    pub fn new(spec: TraceSpec) -> Self {
        Obs {
            spec,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured spec.
    #[must_use]
    pub fn spec(&self) -> TraceSpec {
        self.spec
    }

    /// Appends an event to the log, unless its class is not kept.
    pub fn emit(&self, tid: u32, tick: u64, kind: EventKind) {
        if self.spec.keeps(kind.class()) {
            self.inner
                .lock()
                .trace
                .events
                .push(ObsEvent { tid, tick, kind });
        }
    }

    /// Records the label of mutex `id` (ids are dense; gaps are filled
    /// with `None`).
    pub fn set_mutex_label(&self, id: u32, label: Option<String>) {
        let labels = &mut self.inner.lock().trace.mutex_labels;
        let idx = id as usize;
        if labels.len() <= idx {
            labels.resize(idx + 1, None);
        }
        labels[idx] = label;
    }

    /// Interns `label` as a location id. Two variables sharing a label
    /// model two views of one memory location (how the mixed
    /// plain/atomic lint identifies "the same location").
    pub fn loc_id(&self, label: &str) -> u32 {
        let inner = &mut *self.inner.lock();
        if let Some(&id) = inner.loc_ids.get(label) {
            return id;
        }
        let id = inner.trace.loc_labels.len() as u32;
        inner.trace.loc_labels.push(label.to_owned());
        inner.loc_ids.insert(label.to_owned(), id);
        id
    }

    /// Takes the finished log (end of an execution).
    #[must_use]
    pub fn finish(&self) -> SyncTrace {
        std::mem::take(&mut self.inner.lock().trace)
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("spec", &self.spec).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_keeps_only_the_spec_classes_in_emission_order() {
        let obs = Obs::new(TraceSpec {
            sync: true,
            ..TraceSpec::default()
        });
        obs.emit(0, 1, EventKind::TickBegin);
        obs.emit(0, 1, EventKind::MutexAcquire { mutex: 0 });
        obs.emit(
            1,
            1,
            EventKind::PlainAccess {
                loc: 0,
                write: false,
            },
        );
        obs.emit(0, 2, EventKind::MutexRelease { mutex: 0 });
        obs.set_mutex_label(2, Some("B".into()));
        assert_eq!(obs.loc_id("x"), 0);
        assert_eq!(obs.loc_id("y"), 1);
        assert_eq!(obs.loc_id("x"), 0, "same label, same id");
        let trace = obs.finish();
        let kinds: Vec<EventKind> = trace.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::MutexAcquire { mutex: 0 },
                EventKind::MutexRelease { mutex: 0 }
            ]
        );
        assert_eq!(trace.mutex_label(2), "B");
        assert_eq!(trace.mutex_label(0), "mutex#0", "gap filled with None");
        assert_eq!(trace.loc_labels, vec!["x".to_owned(), "y".to_owned()]);
        assert!(obs.finish().is_empty(), "finish takes the log");
    }

    #[test]
    fn trace_spec_classes() {
        let none = TraceSpec::default();
        assert!(!none.keeps(EventClass::Schedule));
        let access = TraceSpec {
            sync: true,
            access: true,
            ..none
        };
        let both = access.union(TraceSpec {
            schedule: true,
            ..none
        });
        assert!(both.keeps(EventClass::Schedule));
        assert!(both.keeps(EventClass::Sync));
        assert!(both.keeps(EventClass::Access));
        assert!(!access.keeps(EventClass::Schedule));
    }
}
