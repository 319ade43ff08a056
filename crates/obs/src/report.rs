//! The aggregated observability report attached to an execution report.

use crate::diag::DesyncDiagnostics;
use crate::event::EventKind;
use crate::hist::Histogram;
use crate::trace::SyncTrace;

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

/// Everything the observability layer derived over one execution. The
/// events themselves live in the run's one [`SyncTrace`].
///
/// Present on every `ExecReport`; without the schedule class traced only
/// the cheap always-on fields (stream counters) are filled.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Wall-clock critical-section (tick) latencies, in nanoseconds.
    pub tick_latency: Histogram,
    /// Consecutive-tick run lengths per scheduled thread.
    pub run_lengths: Histogram,
    /// Per-stream entry/byte counters (filled on record and replay runs
    /// even when tracing is off).
    pub streams: Vec<StreamCounter>,
    /// Desync diagnostics, when the run desynchronised.
    pub desync: Option<DesyncDiagnostics>,
}

impl ObsReport {
    /// The tick histograms of `trace`: every `TickEnd`'s critical-section
    /// latency, and the lengths of the runs of consecutive ticks one
    /// thread owned.
    #[must_use]
    pub fn of(trace: &SyncTrace) -> Self {
        let mut report = ObsReport::default();
        let mut run: Option<(u32, u64)> = None;
        for ev in &trace.events {
            let EventKind::TickEnd { dur_nanos, .. } = ev.kind else {
                continue;
            };
            report.tick_latency.record(dur_nanos);
            run = match run {
                Some((tid, len)) if tid == ev.tid => Some((tid, len + 1)),
                Some((_, len)) => {
                    report.run_lengths.record(len);
                    Some((ev.tid, 1))
                }
                None => Some((ev.tid, 1)),
            };
        }
        if let Some((_, len)) = run {
            report.run_lengths.record(len);
        }
        report
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
    use crate::event::{ObsEvent, ObsOp};

    #[test]
    fn histograms_follow_the_tick_order() {
        // Schedule T0 T0 T1 T0 -> runs of 2, 1, 1.
        let events = [(0u32, 1u64), (0, 2), (1, 3), (0, 4)]
            .into_iter()
            .flat_map(|(tid, tick)| {
                [
                    ObsEvent {
                        tid,
                        tick,
                        kind: EventKind::TickBegin,
                    },
                    ObsEvent {
                        tid,
                        tick,
                        kind: EventKind::TickEnd {
                            dur_nanos: 10,
                            op: ObsOp::Atomic,
                        },
                    },
                ]
            })
            .collect();
        let report = ObsReport::of(&SyncTrace {
            events,
            ..SyncTrace::default()
        });
        assert_eq!(report.tick_latency.count(), 4);
        assert_eq!(report.tick_latency.max(), 10);
        assert_eq!(report.run_lengths.count(), 3);
        assert_eq!(report.run_lengths.max(), 2);
        assert_eq!(ObsReport::of(&SyncTrace::default()).run_lengths.count(), 0);
    }
}
