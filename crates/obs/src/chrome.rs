//! Exporters: Chrome `trace_event` JSON and a human text timeline.
//!
//! The Chrome export loads in Perfetto / `chrome://tracing`: one track
//! per controlled thread plus a scheduler track. Timestamps are the
//! *logical tick numbers* (microsecond units in the viewer), never wall
//! clock — so two replays of the same seed export byte-identical JSON
//! and the golden test can diff them directly. Wall-clock durations stay
//! in the histograms and the text timeline only.
//!
//! Both exporters read the schedule class of the run's one log through
//! [`SyncTrace::tracks`], cutting each track to its last `ring` events:
//! the Chrome export to its last `ring` *exported* events, so that the
//! wakeups it leaves out, whose number follows wall-clock parking, never
//! decide which records survive the cut.

use std::fmt::Write as _;

use crate::event::{EventKind, ObsEvent};
use crate::json::Json;
use crate::report::ObsReport;
use crate::trace::{SyncTrace, ThreadTrace};

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

/// A `"M"` thread-name metadata record.
fn meta_thread_name(tid: u32, name: &str) -> Json {
    obj(vec![
        ("ph", Json::Str("M".into())),
        ("name", Json::Str("thread_name".into())),
        ("pid", num(1)),
        ("tid", num(u64::from(tid))),
        ("args", obj(vec![("name", Json::Str(name.to_owned()))])),
    ])
}

/// Whether [`event_record`] exports an event of this kind.
fn exported(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::TickEnd { .. }
            | EventKind::Decision { .. }
            | EventKind::SignalDelivered { .. }
            | EventKind::SyscallRecord { .. }
            | EventKind::SyscallReplay { .. }
            | EventKind::StreamCursor { .. }
            | EventKind::Desync
    )
}

/// Converts one event into a trace record, or `None` for events that do
/// not export: `TickBegin` (folded into the `TickEnd` slice),
/// `Wakeup`/`Broadcast`, and the sync and access classes, which are not
/// on any track. The latter two are wall-clock timing artifacts —
/// a targeted wakeup is only issued when the chosen thread happens to be
/// parked at that instant — so they vary between replays of the same
/// seed and would break the export's determinism guarantee. They remain
/// visible in the text timeline and the `SchedCounters` totals.
fn event_record(track_tid: u32, ev: &ObsEvent) -> Option<Json> {
    let instant = |name: String, args: Vec<(&str, Json)>| {
        let mut fields = vec![
            ("ph", Json::Str("i".into())),
            ("name", Json::Str(name)),
            ("pid", num(1)),
            ("tid", num(u64::from(track_tid))),
            ("ts", num(ev.tick)),
            ("s", Json::Str("t".into())),
        ];
        if !args.is_empty() {
            fields.push(("args", obj(args)));
        }
        Some(obj(fields))
    };
    match ev.kind {
        EventKind::TickBegin => None,
        // Complete slice: one tick of critical section. Logical dur=1 so
        // consecutive ticks tile the track; wall-clock dur is excluded
        // for determinism.
        EventKind::TickEnd { op, .. } => Some(obj(vec![
            ("ph", Json::Str("X".into())),
            ("name", Json::Str(op.name().to_owned())),
            ("pid", num(1)),
            ("tid", num(u64::from(track_tid))),
            ("ts", num(ev.tick)),
            ("dur", num(1)),
            ("args", obj(vec![("tick", num(ev.tick))])),
        ])),
        EventKind::Decision { next } => instant(
            "decision".into(),
            vec![(
                "next",
                match next {
                    Some(t) => Json::Str(format!("T{t}")),
                    None => Json::Null,
                },
            )],
        ),
        EventKind::Wakeup { .. } | EventKind::Broadcast => None,
        EventKind::SignalDelivered { signo } => instant(
            "signal".into(),
            vec![("signo", Json::Num(f64::from(signo)))],
        ),
        EventKind::SyscallRecord { kind, seq } => {
            instant(format!("record:{}", kind.name()), vec![("seq", num(seq))])
        }
        EventKind::SyscallReplay { kind, seq } => {
            instant(format!("replay:{}", kind.name()), vec![("seq", num(seq))])
        }
        EventKind::StreamCursor { stream, offset } => instant(
            format!("cursor:{}", stream.name()),
            vec![("offset", num(offset))],
        ),
        EventKind::Desync => instant("desync".into(), vec![]),
        _ => None,
    }
}

/// Builds the Chrome `trace_event` document for a traced run, keeping
/// the last `ring` exported events of each track (all of them when
/// `None`).
///
/// Top level is `{"traceEvents": [...], "displayTimeUnit": "ms"}`; every
/// record uses logical ticks for `ts`, so the export is deterministic
/// across replays of the same seed.
#[must_use]
pub fn chrome_trace(trace: &SyncTrace, ring: Option<usize>) -> Json {
    let (threads, sched) = trace.tracks(ring, exported);
    // The scheduler track's synthetic tid: one past the largest thread's.
    let sched_tid = threads.len() as u32;
    let mut events = Vec::new();
    for t in &threads {
        events.push(meta_thread_name(t.tid, &format!("T{}", t.tid)));
    }
    events.push(meta_thread_name(sched_tid, "scheduler"));
    for t in &threads {
        for ev in &t.events {
            if let Some(rec) = event_record(t.tid, ev) {
                events.push(rec);
            }
        }
    }
    for ev in &sched.events {
        if let Some(rec) = event_record(sched_tid, ev) {
            events.push(rec);
        }
    }
    events.extend(counter_tracks(&threads, sched_tid));
    Json::Obj(vec![
        ("traceEvents".to_owned(), Json::Arr(events)),
        ("displayTimeUnit".to_owned(), Json::Str("ms".to_owned())),
    ])
}

/// `"C"` counter records derived purely from the exported tick order, so
/// they share the export's determinism guarantee: a stacked
/// `sched.ticks` series (cumulative ticks per thread) and a
/// `sched.run_length` series (current consecutive-run length), one
/// sample per exported tick.
fn counter_tracks(threads: &[ThreadTrace], sched_tid: u32) -> Vec<Json> {
    let mut order: Vec<(u32, u64)> = threads
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| matches!(e.kind, EventKind::TickEnd { .. }))
        .map(|e| (e.tid, e.tick))
        .collect();
    order.sort_by_key(|&(_, tick)| tick);
    if order.is_empty() {
        return Vec::new();
    }
    let mut cum: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    let mut out = Vec::with_capacity(order.len() * 2);
    let mut run_tid = None;
    let mut run_len = 0u64;
    for &(tid, tick) in &order {
        *cum.entry(tid).or_insert(0) += 1;
        run_len = if run_tid == Some(tid) { run_len + 1 } else { 1 };
        run_tid = Some(tid);
        out.push(obj(vec![
            ("ph", Json::Str("C".into())),
            ("name", Json::Str("sched.ticks".into())),
            ("pid", num(1)),
            ("tid", num(u64::from(sched_tid))),
            ("ts", num(tick)),
            (
                "args",
                Json::Obj(
                    cum.iter()
                        .map(|(t, n)| (format!("T{t}"), num(*n)))
                        .collect(),
                ),
            ),
        ]));
        out.push(obj(vec![
            ("ph", Json::Str("C".into())),
            ("name", Json::Str("sched.run_length".into())),
            ("pid", num(1)),
            ("tid", num(u64::from(sched_tid))),
            ("ts", num(tick)),
            ("args", obj(vec![("run", num(run_len))])),
        ]));
    }
    out
}

fn describe(ev: &ObsEvent) -> String {
    match ev.kind {
        EventKind::TickBegin => "enter".to_owned(),
        EventKind::TickEnd { dur_nanos, op } => {
            format!("{} ({dur_nanos} ns)", op.name())
        }
        EventKind::Decision { next } => match next {
            Some(t) => format!("decision -> T{t}"),
            None => "decision -> <none>".to_owned(),
        },
        EventKind::Wakeup { target } => format!("wakeup T{target}"),
        EventKind::Broadcast => "broadcast".to_owned(),
        EventKind::SignalDelivered { signo } => format!("signal {signo}"),
        EventKind::SyscallRecord { kind, seq } => format!("record {} #{seq}", kind.name()),
        EventKind::SyscallReplay { kind, seq } => format!("replay {} #{seq}", kind.name()),
        EventKind::StreamCursor { stream, offset } => {
            format!("cursor {} @ {offset}", stream.name())
        }
        EventKind::Desync => "DESYNC".to_owned(),
        other => format!("{other:?}"),
    }
}

/// A human-readable merged timeline of all tracks, each cut to its last
/// `ring` events, newest last, under `report`'s histograms. Unlike the
/// Chrome export this *does* include wall-clock durations.
#[must_use]
pub fn text_timeline(trace: &SyncTrace, report: &ObsReport, ring: Option<usize>) -> String {
    let (threads, sched) = trace.tracks(ring, |_| true);
    let mut rows: Vec<(u64, String, String)> = Vec::new();
    let track = |t: &ThreadTrace, label: &str, rows: &mut Vec<(u64, String, String)>| {
        for ev in &t.events {
            rows.push((ev.tick, label.to_owned(), describe(ev)));
        }
    };
    for t in &threads {
        track(t, &format!("T{}", t.tid), &mut rows);
    }
    track(&sched, "sched", &mut rows);
    rows.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "tick latency: {}\nrun lengths:  {}",
        report.tick_latency, report.run_lengths
    );
    for (tick, who, what) in rows {
        let _ = writeln!(out, "{tick:>8}  {who:<6} {what}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsOp;

    fn sample_trace(dur_nanos: u64) -> SyncTrace {
        let ev = |kind| ObsEvent {
            tid: 0,
            tick: 1,
            kind,
        };
        SyncTrace {
            events: vec![
                ev(EventKind::TickBegin),
                ev(EventKind::MutexAcquire { mutex: 0 }),
                ev(EventKind::TickEnd {
                    dur_nanos,
                    op: ObsOp::Atomic,
                }),
                ev(EventKind::Wakeup { target: 1 }),
            ],
            ..SyncTrace::default()
        }
    }

    #[test]
    fn chrome_trace_has_tracks_and_slices() {
        let json = chrome_trace(&sample_trace(1234), None);
        let events = json.get("traceEvents").and_then(Json::as_array).unwrap();
        // 2 metadata (T0 + scheduler) + 1 slice + 2 counter samples for
        // the one tick; the wakeup is a timing artifact and must NOT
        // export, and the sync event is on no track.
        assert_eq!(events.len(), 5);
        let counters: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        assert!(counters
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("sched.ticks")));
        assert!(counters
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("sched.run_length")));
        assert!(
            !events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("wakeup")),
            "wakeups are nondeterministic and must stay out of the export"
        );
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("one complete slice");
        assert_eq!(slice.get("name").and_then(Json::as_str), Some("atomic"));
        assert_eq!(slice.get("ts").and_then(Json::as_f64), Some(1.0));
        // Round-trips through the parser.
        let text = json.to_pretty();
        assert_eq!(Json::parse(&text).unwrap(), json);
    }

    #[test]
    fn export_excludes_wall_clock() {
        // dur_nanos differs between "runs"; the exports must not.
        assert_eq!(
            chrome_trace(&sample_trace(111), None).to_pretty(),
            chrome_trace(&sample_trace(999_999), None).to_pretty()
        );
    }

    #[test]
    fn ring_cuts_each_track_at_export() {
        let mut trace = sample_trace(1);
        trace.events.push(ObsEvent {
            tid: 0,
            tick: 2,
            kind: EventKind::TickEnd {
                dur_nanos: 1,
                op: ObsOp::Sync,
            },
        });
        let slices = |ring| {
            let json = chrome_trace(&trace, ring);
            json.get("traceEvents")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
                .count()
        };
        assert_eq!(slices(None), 2);
        assert_eq!(slices(Some(1)), 1, "only the newest tick of T0");
    }

    #[test]
    fn exported_names_exactly_the_kinds_that_export() {
        use crate::event::{StreamId, SysKind};
        let sys = SysKind::from_name("recv");
        for kind in [
            EventKind::TickBegin,
            EventKind::TickEnd {
                dur_nanos: 1,
                op: ObsOp::Other,
            },
            EventKind::Decision { next: Some(1) },
            EventKind::Wakeup { target: 1 },
            EventKind::Broadcast,
            EventKind::SignalDelivered { signo: 10 },
            EventKind::SyscallRecord { kind: sys, seq: 0 },
            EventKind::SyscallReplay { kind: sys, seq: 0 },
            EventKind::StreamCursor {
                stream: StreamId::Queue,
                offset: 1,
            },
            EventKind::Desync,
            EventKind::MutexAcquire { mutex: 0 },
        ] {
            let ev = ObsEvent {
                tid: 0,
                tick: 1,
                kind,
            };
            assert_eq!(exported(&kind), event_record(0, &ev).is_some(), "{kind:?}");
        }
    }

    #[test]
    fn scheduler_track_wakeups_do_not_move_the_ring_cut() {
        // Three ticks of T0, each followed by a decision; the two runs
        // differ only in how many wakeups the parking happened to issue.
        let trace = |wakeups: &[usize]| {
            let mut events = Vec::new();
            for tick in 1..=3u64 {
                let ev = |kind| ObsEvent { tid: 0, tick, kind };
                events.push(ev(EventKind::TickBegin));
                events.push(ev(EventKind::TickEnd {
                    dur_nanos: tick,
                    op: ObsOp::Other,
                }));
                events.push(ev(EventKind::Decision { next: Some(0) }));
                for _ in 0..wakeups[tick as usize - 1] {
                    events.push(ev(EventKind::Wakeup { target: 0 }));
                }
            }
            SyncTrace {
                events,
                ..SyncTrace::default()
            }
        };
        let (a, b) = (trace(&[0, 0, 0]), trace(&[1, 2, 1]));
        // Ring 2 cuts the scheduler track (three decisions).
        assert_eq!(
            chrome_trace(&a, Some(2)).to_pretty(),
            chrome_trace(&b, Some(2)).to_pretty()
        );
        let decisions = chrome_trace(&b, Some(2))
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("decision"))
            .count();
        assert_eq!(decisions, 2);
        // The text timeline still shows the wakeups.
        assert!(text_timeline(&b, &ObsReport::of(&b), None).contains("wakeup T0"));
    }

    #[test]
    fn text_timeline_is_ordered() {
        let trace = sample_trace(1234);
        let text = text_timeline(&trace, &ObsReport::of(&trace), None);
        assert!(text.contains("atomic"), "{text}");
        assert!(text.contains("wakeup T1"), "{text}");
        assert!(text.contains("tick latency: n=1"), "{text}");
    }
}
