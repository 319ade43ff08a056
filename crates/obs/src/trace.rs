//! The event log of one traced run, and the views derived from it.
//!
//! A run keeps each event once, in emission order, in one [`SyncTrace`].
//! The schedule, the per-thread export tracks, the analysis passes'
//! sync stream and the profiler's input are all views over that log.

use crate::event::{EventClass, EventKind, ObsEvent};

/// A finished trace: every kept event once, in global emission order,
/// plus the label tables that make mutex and location ids readable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyncTrace {
    /// Events in global emission order.
    pub events: Vec<ObsEvent>,
    /// Mutex labels, indexed by mutex id (`None`: unlabelled).
    pub mutex_labels: Vec<Option<String>>,
    /// Location labels, indexed by location id.
    pub loc_labels: Vec<String>,
}

/// One export track: a thread's schedule events, or the scheduler's,
/// cut to the last events the view keeps.
#[derive(Clone, Debug, Default)]
pub struct ThreadTrace {
    /// Controlled-thread id (`u32::MAX` for the scheduler track).
    pub tid: u32,
    /// The kept events, oldest first.
    pub events: Vec<ObsEvent>,
    /// Older events of the track the view left out.
    pub dropped: u64,
}

impl SyncTrace {
    /// Human-readable label for mutex `m` (`mutex#m` if unlabelled).
    #[must_use]
    pub fn mutex_label(&self, m: u32) -> String {
        match self.mutex_labels.get(m as usize) {
            Some(Some(label)) => label.clone(),
            _ => format!("mutex#{m}"),
        }
    }

    /// Human-readable label for location `l` (`loc#l` if unknown).
    #[must_use]
    pub fn loc_label(&self, l: u32) -> String {
        match self.loc_labels.get(l as usize) {
            Some(label) => label.clone(),
            None => format!("loc#{l}"),
        }
    }

    /// Whether the trace recorded no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The sync and access events, in emission order: the stream the
    /// analysis passes read.
    pub fn sync_events(&self) -> impl Iterator<Item = &ObsEvent> + Clone {
        self.events
            .iter()
            .filter(|e| e.kind.class() != EventClass::Schedule)
    }

    /// The schedule: `(tid, tick)` of every completed `Tick()`, in tick
    /// order. Empty unless the schedule class was kept.
    #[must_use]
    pub fn tick_order(&self) -> Vec<(u32, u64)> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TickEnd { .. }))
            .map(|e| (e.tid, e.tick))
            .collect()
    }

    /// The export tracks: one per thread that emitted a schedule-class
    /// event, in tid order, and the scheduler track. Each holds the
    /// schedule-class events `keep` accepts, cut to the last `ring` of
    /// them (all of them when `None`; at least one). Events `keep`
    /// rejects never count toward the cut.
    #[must_use]
    pub fn tracks(
        &self,
        ring: Option<usize>,
        keep: impl Fn(&EventKind) -> bool,
    ) -> (Vec<ThreadTrace>, ThreadTrace) {
        let cap = ring.map_or(usize::MAX, |n| n.max(1));
        let mut threads: Vec<ThreadTrace> = Vec::new();
        let mut sched = ThreadTrace {
            tid: u32::MAX,
            ..ThreadTrace::default()
        };
        // Newest first, so a track stops growing once it holds `cap`.
        for ev in self.events.iter().rev() {
            if ev.kind.class() != EventClass::Schedule {
                continue;
            }
            let track = if ev.kind.on_scheduler_track() {
                &mut sched
            } else {
                let idx = ev.tid as usize;
                if threads.len() <= idx {
                    threads.resize_with(idx + 1, ThreadTrace::default);
                }
                &mut threads[idx]
            };
            if !keep(&ev.kind) {
                continue;
            }
            if track.events.len() < cap {
                track.events.push(*ev);
            } else {
                track.dropped += 1;
            }
        }
        for (tid, t) in threads.iter_mut().enumerate() {
            t.tid = tid as u32;
            t.events.reverse();
        }
        sched.events.reverse();
        (threads, sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ObsOp, StreamId};

    fn ev(tid: u32, tick: u64, kind: EventKind) -> ObsEvent {
        ObsEvent { tid, tick, kind }
    }

    fn end(tid: u32, tick: u64) -> ObsEvent {
        ev(
            tid,
            tick,
            EventKind::TickEnd {
                dur_nanos: 0,
                op: ObsOp::Other,
            },
        )
    }

    #[test]
    fn labels_fall_back_to_ids() {
        let t = SyncTrace {
            mutex_labels: vec![None, None, Some("B".into())],
            loc_labels: vec!["x".into()],
            ..SyncTrace::default()
        };
        assert_eq!(t.loc_label(0), "x");
        assert_eq!(t.loc_label(9), "loc#9");
        assert_eq!(t.mutex_label(2), "B");
        assert_eq!(t.mutex_label(0), "mutex#0");
        assert!(t.is_empty());
    }

    #[test]
    fn views_split_the_one_log() {
        let t = SyncTrace {
            events: vec![
                ev(0, 1, EventKind::TickBegin),
                ev(0, 1, EventKind::MutexAcquire { mutex: 0 }),
                end(0, 1),
                ev(0, 1, EventKind::Decision { next: Some(1) }),
                ev(1, 2, EventKind::TickBegin),
                ev(
                    1,
                    2,
                    EventKind::PlainAccess {
                        loc: 0,
                        write: true,
                    },
                ),
                end(1, 2),
                ev(
                    1,
                    2,
                    EventKind::StreamCursor {
                        stream: StreamId::Queue,
                        offset: 1,
                    },
                ),
                end(0, 3),
            ],
            ..SyncTrace::default()
        };
        assert_eq!(t.tick_order(), vec![(0, 1), (1, 2), (0, 3)]);
        assert_eq!(t.sync_events().count(), 2);

        let (threads, sched) = t.tracks(None, |_| true);
        assert_eq!(threads.len(), 2);
        assert_eq!(threads[0].events.len(), 3, "begin, end, end");
        assert_eq!(threads[1].events.len(), 2, "access is not a track event");
        assert_eq!(sched.tid, u32::MAX);
        assert_eq!(sched.events.len(), 2, "decision and QUEUE cursor");

        // A ring keeps each track's newest events, oldest first.
        let (threads, sched) = t.tracks(Some(1), |_| true);
        assert_eq!(threads[0].events, vec![end(0, 3)]);
        assert_eq!(threads[0].dropped, 2);
        assert_eq!(threads[1].events, vec![end(1, 2)]);
        assert_eq!((sched.events.len(), sched.dropped), (1, 1));
        assert_eq!(
            t.tracks(Some(0), |_| true).0[0].events.len(),
            1,
            "at least one"
        );

        // Rejected events neither export nor count toward the cut, and
        // a thread whose events are all rejected keeps its track.
        let ends = |k: &EventKind| matches!(k, EventKind::TickEnd { .. });
        let (threads, sched) = t.tracks(Some(2), ends);
        assert_eq!(threads[0].events, vec![end(0, 1), end(0, 3)]);
        assert_eq!(threads[0].dropped, 0);
        assert_eq!(threads.len(), 2);
        assert!(sched.events.is_empty());
    }
}
