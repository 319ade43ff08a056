//! The aggregated observability report attached to an execution report.

use crate::diag::DesyncDiagnostics;
use crate::event::{EventKind, ObsEvent};
use crate::hist::Histogram;

/// The retained trace of one thread (or the scheduler track): the most
/// recent events from its ring plus how many older ones were overwritten.
#[derive(Clone, Debug, Default)]
pub struct ThreadTrace {
    /// Controlled-thread id (`u32::MAX` for the scheduler track).
    pub tid: u32,
    /// Retained events, oldest first.
    pub events: Vec<ObsEvent>,
    /// Events lost to ring overwriting.
    pub dropped: u64,
}

/// Per-demo-stream size counters (entries and on-disk bytes).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamCounter {
    /// Stream name as in the demo directory (`"QUEUE"`, `"SYSCALL"`, …).
    pub stream: String,
    /// Number of recorded entries.
    pub entries: u64,
    /// On a run that produced a demo, the size of the stream's file in
    /// the default (binary) demo format, 0 when the stream is empty and
    /// so writes no file. 0 on a replay, which encodes and writes
    /// nothing.
    pub bytes: u64,
}

/// Everything the observability layer gathered over one execution.
///
/// Present on every `ExecReport`; `enabled == false` means tracing was
/// off and only the cheap always-on fields (stream counters) are filled.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Whether event tracing was enabled for the run.
    pub enabled: bool,
    /// Wall-clock critical-section (tick) latencies, in nanoseconds.
    pub tick_latency: Histogram,
    /// Consecutive-tick run lengths per scheduled thread.
    pub run_lengths: Histogram,
    /// Per-thread retained event traces, in tid order.
    pub threads: Vec<ThreadTrace>,
    /// The scheduler track (decisions, wakeups, broadcasts, desyncs).
    pub scheduler: ThreadTrace,
    /// Per-stream entry/byte counters (filled on record and replay runs
    /// even when tracing is off).
    pub streams: Vec<StreamCounter>,
    /// Desync diagnostics, when the run desynchronised.
    pub desync: Option<DesyncDiagnostics>,
}

impl ObsReport {
    /// All retained `TickEnd` events across threads, sorted by tick —
    /// the replayed schedule order as far as the rings remember it.
    #[must_use]
    pub fn tick_order(&self) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = self
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| matches!(e.kind, EventKind::TickEnd { .. }))
            .map(|e| (e.tid, e.tick))
            .collect();
        out.sort_by_key(|&(_, tick)| tick);
        out
    }

    /// Total events retained across all tracks.
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum::<usize>() + self.scheduler.events.len()
    }

    /// Looks up a stream counter by name.
    #[must_use]
    pub fn stream(&self, name: &str) -> Option<&StreamCounter> {
        self.streams.iter().find(|s| s.stream == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsOp;

    #[test]
    fn tick_order_merges_and_sorts() {
        let end = |tid: u32, tick: u64| ObsEvent {
            tid,
            tick,
            kind: EventKind::TickEnd {
                dur_nanos: 0,
                op: ObsOp::Other,
            },
        };
        let mut report = ObsReport::default();
        report.threads.push(ThreadTrace {
            tid: 0,
            events: vec![end(0, 1), end(0, 4)],
            dropped: 0,
        });
        report.threads.push(ThreadTrace {
            tid: 1,
            events: vec![
                end(1, 2),
                ObsEvent {
                    tid: 1,
                    tick: 3,
                    kind: EventKind::TickBegin,
                },
                end(1, 3),
            ],
            dropped: 0,
        });
        assert_eq!(report.tick_order(), vec![(0, 1), (1, 2), (1, 3), (0, 4)]);
        assert_eq!(report.total_events(), 5);
    }
}
