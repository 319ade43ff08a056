//! Desynchronisation diagnostics: pinpoint the first divergent tick.
//!
//! A hard desynchronisation (§4) tells the user *that* replay diverged;
//! this module tells them *where*: the recorded-vs-replayed tick diff,
//! the failing demo stream and offset, and the last events each thread
//! managed to trace before the run stopped.

use std::fmt::Write as _;

use crate::event::EventKind;
use crate::json::Json;
use crate::trace::{SyncTrace, ThreadTrace};

/// Events per track a report keeps (and renders).
const LAST_EVENTS: usize = 8;

/// One row of the recorded-vs-replayed schedule diff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TickDiff {
    /// Zero-based index into the compared schedules.
    pub index: usize,
    /// The thread the recording scheduled here (`None`: recording ended).
    pub recorded: Option<u32>,
    /// The thread replay scheduled here (`None`: replay ended).
    pub replayed: Option<u32>,
}

/// Finds the first position where the recorded and replayed schedules
/// disagree (`None` when one is a prefix of the other and equal so far —
/// including the both-empty case).
#[must_use]
pub fn first_divergence(recorded: &[(u32, u64)], replayed: &[(u32, u64)]) -> Option<TickDiff> {
    let len = recorded.len().max(replayed.len());
    for i in 0..len {
        let rec = recorded.get(i).map(|&(tid, _)| tid);
        let rep = replayed.get(i).map(|&(tid, _)| tid);
        match (rec, rep) {
            (Some(a), Some(b)) if a == b => continue,
            (None, None) => return None,
            _ => {
                return Some(TickDiff {
                    index: i,
                    recorded: rec,
                    replayed: rep,
                })
            }
        }
    }
    None
}

/// A structured desynchronisation report, built from the run's trace and
/// the recorded schedule when a replay run desynchronises.
#[derive(Clone, Debug, Default)]
pub struct DesyncDiagnostics {
    /// The tick at which the desync was raised.
    pub tick: u64,
    /// The violated constraint (e.g. `"queue-schedule"`).
    pub constraint: String,
    /// The demo stream implicated (`"QUEUE"`, `"SYSCALL"`, `"CONSOLE"`…).
    pub stream: String,
    /// Entry offset into that stream at the failure point.
    pub offset: u64,
    /// The thread active when the desync surfaced, when known.
    pub thread: Option<u32>,
    /// First divergent position of the recorded-vs-replayed tick diff
    /// (`None` when the replayed schedule matches the recording so far,
    /// or when the schedule was not traced and there is none to diff).
    pub first_divergence: Option<TickDiff>,
    /// Final `(stream, offset)` cursor positions observed during replay.
    pub stream_cursors: Vec<(String, u64)>,
    /// The last events per thread (plus the scheduler track), at most
    /// eight each.
    pub last_events: Vec<ThreadTrace>,
}

impl DesyncDiagnostics {
    /// Builds diagnostics from the failure point, the recorded schedule
    /// (from the demo's QUEUE stream), and the replay's trace — `None`
    /// when the schedule class was not traced, so there is no replayed
    /// schedule to diff.
    #[must_use]
    pub fn build(
        tick: u64,
        constraint: &str,
        stream: &str,
        offset: u64,
        recorded: &[(u32, u64)],
        trace: Option<&SyncTrace>,
    ) -> Self {
        let mut diag = DesyncDiagnostics {
            tick,
            constraint: constraint.to_owned(),
            stream: stream.to_owned(),
            offset,
            ..DesyncDiagnostics::default()
        };
        // Without a traced schedule an empty diff would blame position
        // 0 rather than admit ignorance.
        let Some(trace) = trace else {
            return diag;
        };
        let replayed = trace.tick_order();
        diag.thread = replayed.last().map(|&(tid, _)| tid);
        diag.first_divergence = first_divergence(recorded, &replayed);
        // Thread tracks first, then the scheduler's: the order cursors
        // are listed in.
        let on_threads = trace.events.iter().filter(|e| !e.kind.on_scheduler_track());
        let on_sched = trace.events.iter().filter(|e| e.kind.on_scheduler_track());
        for ev in on_threads.chain(on_sched) {
            if let EventKind::StreamCursor { stream, offset } = ev.kind {
                match diag
                    .stream_cursors
                    .iter_mut()
                    .find(|(s, _)| *s == stream.name())
                {
                    Some(entry) => entry.1 = entry.1.max(offset),
                    None => diag.stream_cursors.push((stream.name().to_owned(), offset)),
                }
            }
        }
        let (threads, sched) = trace.tracks(Some(LAST_EVENTS), |_| true);
        diag.last_events = threads;
        if !sched.events.is_empty() {
            diag.last_events.push(sched);
        }
        diag
    }

    /// Short context lines suitable for embedding in a desync error.
    #[must_use]
    pub fn summary_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!(
            "stream {} exhausted/diverged at entry {}",
            self.stream, self.offset
        ));
        if let Some(tid) = self.thread {
            lines.push(format!("last replayed thread: T{tid}"));
        }
        match self.first_divergence {
            Some(d) => lines.push(format!(
                "first schedule divergence at position {}: recorded {} vs replayed {}",
                d.index,
                d.recorded
                    .map_or_else(|| "<end>".to_owned(), |t| format!("T{t}")),
                d.replayed
                    .map_or_else(|| "<end>".to_owned(), |t| format!("T{t}")),
            )),
            None => lines
                .push("replayed schedule matches the recording up to the failure point".to_owned()),
        }
        for (stream, offset) in &self.stream_cursors {
            lines.push(format!("cursor {stream} @ {offset}"));
        }
        lines
    }

    /// Machine-readable form, embedded under `"desync"` in `srr trace`
    /// output so downstream tools (`srr stats --vet`) can join the
    /// diverged stream against a static escape map.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let divergence = match self.first_divergence {
            Some(d) => Json::Obj(vec![
                ("index".to_owned(), Json::Num(d.index as f64)),
                (
                    "recorded".to_owned(),
                    d.recorded.map_or(Json::Null, |t| Json::Num(f64::from(t))),
                ),
                (
                    "replayed".to_owned(),
                    d.replayed.map_or(Json::Null, |t| Json::Num(f64::from(t))),
                ),
            ]),
            None => Json::Null,
        };
        Json::Obj(vec![
            ("tick".to_owned(), Json::Num(self.tick as f64)),
            ("constraint".to_owned(), Json::Str(self.constraint.clone())),
            ("stream".to_owned(), Json::Str(self.stream.clone())),
            ("offset".to_owned(), Json::Num(self.offset as f64)),
            (
                "thread".to_owned(),
                self.thread.map_or(Json::Null, |t| Json::Num(f64::from(t))),
            ),
            ("first_divergence".to_owned(), divergence),
            (
                "stream_cursors".to_owned(),
                Json::Obj(
                    self.stream_cursors
                        .iter()
                        .map(|(s, o)| (s.clone(), Json::Num(*o as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The full human-readable report: summary, diff, per-thread tails.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "desync diagnostics: constraint `{}` at tick {} (stream {} @ entry {})",
            self.constraint, self.tick, self.stream, self.offset
        );
        for line in self.summary_lines() {
            let _ = writeln!(out, "  {line}");
        }
        for trace in &self.last_events {
            let label = if trace.tid == u32::MAX {
                "scheduler".to_owned()
            } else {
                format!("T{}", trace.tid)
            };
            let _ = writeln!(
                out,
                "  last events of {label} ({} of {}):",
                trace.events.len(),
                trace.events.len() as u64 + trace.dropped
            );
            for ev in &trace.events {
                let _ = writeln!(out, "    tick {:>6}  {:?}", ev.tick, ev.kind);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_found_mid_schedule() {
        let recorded = vec![(0, 1), (1, 2), (0, 3)];
        let replayed = vec![(0, 1), (0, 2), (0, 3)];
        let d = first_divergence(&recorded, &replayed).unwrap();
        assert_eq!(d.index, 1);
        assert_eq!(d.recorded, Some(1));
        assert_eq!(d.replayed, Some(0));
    }

    #[test]
    fn divergence_at_truncation() {
        let recorded = vec![(0, 1), (1, 2)];
        let replayed = vec![(0, 1)];
        let d = first_divergence(&recorded, &replayed).unwrap();
        assert_eq!(d.index, 1);
        assert_eq!(d.recorded, Some(1));
        assert_eq!(d.replayed, None);
    }

    #[test]
    fn no_divergence_when_equal() {
        let sched = vec![(0, 1), (1, 2)];
        assert_eq!(first_divergence(&sched, &sched), None);
        assert_eq!(first_divergence(&[], &[]), None);
    }

    #[test]
    fn json_form_names_stream_and_survives_reparse() {
        let diag = DesyncDiagnostics {
            tick: 41,
            constraint: "queue-schedule".into(),
            stream: "QUEUE".into(),
            offset: 40,
            thread: Some(2),
            first_divergence: Some(TickDiff {
                index: 7,
                recorded: Some(1),
                replayed: None,
            }),
            stream_cursors: vec![("QUEUE".into(), 40), ("CONSOLE".into(), 3)],
            ..DesyncDiagnostics::default()
        };
        let doc = Json::parse(&diag.to_json().to_pretty()).unwrap();
        assert_eq!(doc.get("stream").and_then(Json::as_str), Some("QUEUE"));
        assert_eq!(doc.get("offset").and_then(Json::as_f64), Some(40.0));
        let div = doc.get("first_divergence").unwrap();
        assert_eq!(div.get("index").and_then(Json::as_f64), Some(7.0));
        assert!(matches!(div.get("replayed"), Some(Json::Null)));
    }

    #[test]
    fn summary_names_stream_and_offset() {
        let diag = DesyncDiagnostics {
            tick: 41,
            constraint: "queue-schedule".into(),
            stream: "QUEUE".into(),
            offset: 40,
            thread: Some(2),
            ..DesyncDiagnostics::default()
        };
        let text = diag.render();
        assert!(text.contains("QUEUE"), "{text}");
        assert!(text.contains("entry 40"), "{text}");
        assert!(text.contains("tick 41"), "{text}");
        assert!(text.contains("T2"), "{text}");
    }

    #[test]
    fn build_diffs_the_traced_schedule_and_keeps_eight_per_track() {
        use crate::event::{ObsEvent, ObsOp, StreamId};
        let mut events = Vec::new();
        for tick in 1..=20u64 {
            let tid = u32::from(tick > 10);
            events.push(ObsEvent {
                tid,
                tick,
                kind: EventKind::TickEnd {
                    dur_nanos: 0,
                    op: ObsOp::Other,
                },
            });
            events.push(ObsEvent {
                tid,
                tick,
                kind: EventKind::StreamCursor {
                    stream: StreamId::Queue,
                    offset: tick - 1,
                },
            });
        }
        let trace = SyncTrace {
            events,
            ..SyncTrace::default()
        };
        let recorded: Vec<(u32, u64)> = (1..=15).map(|t| (u32::from(t > 10), t)).collect();
        let diag =
            DesyncDiagnostics::build(21, "queue-schedule", "QUEUE", 15, &recorded, Some(&trace));
        assert_eq!(
            diag.first_divergence,
            Some(TickDiff {
                index: 15,
                recorded: None,
                replayed: Some(1),
            })
        );
        assert_eq!(diag.thread, Some(1));
        assert_eq!(diag.stream_cursors, vec![("QUEUE".to_owned(), 19)]);
        assert!(diag
            .last_events
            .iter()
            .all(|t| t.events.len() <= LAST_EVENTS));
        assert_eq!(diag.last_events[0].dropped, 2, "T0 closed 10 ticks");
        assert!(diag.render().contains("last events of T1 (8 of 10)"));

        let untraced = DesyncDiagnostics::build(21, "queue-schedule", "QUEUE", 15, &recorded, None);
        assert_eq!(untraced.first_divergence, None);
        assert_eq!(untraced.thread, None);
        assert!(untraced.last_events.is_empty());
    }
}
