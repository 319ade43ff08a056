//! Offline demo linter: the recorder's invariants, checked on a decoded
//! demo.
//!
//! The binary codec rejects, with a typed error, every stream it cannot
//! decode: a bad magic or checksum, an unknown version, a syscall kind
//! over its cap, a buffer shorter than its declared length. A demo that
//! decodes can still break what the recorder guarantees and replay
//! relies on (§4). The linter re-derives those invariants and reports
//! every violation with its stream and a 1-based entry number:
//!
//! * `QUEUE` — entry `k` is the critical section of tick `k`, which
//!   holds that section's next tick. With `T` sections, every tick in
//!   `1..=T` is claimed exactly once, by a thread's first tick or by a
//!   next tick, and every next tick lies in `(k, T]` (0 = never again);
//! * `SIGNAL` — the tid is in range, the signal number is positive, and
//!   ticks are monotone per thread (a signal's tick is its *target's*
//!   last tick, so they are ordered per thread, not globally);
//! * `SYSCALL` — seq numbers are contiguous from 0, the tid is in
//!   range, and ticks are monotone (syscalls are recorded inside
//!   critical sections, which are totally ordered);
//! * `ASYNC` — ticks are monotone.
//!
//! Thread ids are checked against the QUEUE's first-tick table; a
//! random-strategy demo has none, and skips those checks.
//!
//! QUEUE is checked a run at a time, in O(threads + runs) memory: a
//! 20-byte frame may declare 2^32 sections, so nothing is built per
//! tick. Within a run the step is constant, so its sections' next ticks
//! are consecutive and each run claims one range of ticks.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use srr_replay::{
    AsyncEvent, Demo, DemoLoadError, QueueRun, QueueStream, SignalEvent, SyscallRecord,
};

/// One linter diagnostic, anchored to a stream entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemoDiagnostic {
    /// Stream file name (`HEADER`, `QUEUE`, ...).
    pub stream: String,
    /// 1-based entry number within the stream; 0 for problems of the
    /// stream as a whole (a load error, a thread's first tick).
    pub entry: u64,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for DemoDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entry == 0 {
            write!(f, "{}: {}", self.stream, self.message)
        } else {
            write!(f, "{} entry {}: {}", self.stream, self.entry, self.message)
        }
    }
}

fn diag(diags: &mut Vec<DemoDiagnostic>, stream: &str, entry: u64, message: impl Into<String>) {
    diags.push(DemoDiagnostic {
        stream: stream.into(),
        entry,
        message: message.into(),
    });
}

/// Lints a decoded demo. Returns every diagnostic found, stream by
/// stream in file order.
#[must_use]
pub fn lint_demo(demo: &Demo) -> Vec<DemoDiagnostic> {
    let mut diags = Vec::new();
    lint_queue(&demo.queue, &mut diags);
    let first = &demo.queue.first_tick;
    let nthreads = (!first.is_empty()).then_some(first.len());
    lint_signals(&demo.signals, nthreads, &mut diags);
    lint_syscalls(&demo.syscalls, nthreads, &mut diags);
    lint_asyncs(&demo.async_events, &mut diags);
    diags
}

/// Loads and lints a demo directory. A demo that does not load yields
/// one diagnostic, the typed load error, naming the file at fault.
#[must_use]
pub fn lint_demo_dir(dir: &Path) -> Vec<DemoDiagnostic> {
    match Demo::load_dir(dir) {
        Ok(demo) => lint_demo(&demo),
        Err(e) => {
            let stream = match &e {
                DemoLoadError::Malformed { file, .. }
                | DemoLoadError::Codec { file, .. }
                | DemoLoadError::Io { file, .. } => file.clone(),
                DemoLoadError::MissingHeader => "HEADER".to_owned(),
            };
            vec![DemoDiagnostic {
                stream,
                entry: 0,
                message: e.to_string(),
            }]
        }
    }
}

/// `""` for one section, else how many more a diagnostic stands for.
fn more(n: u64) -> String {
    match n {
        0 | 1 => String::new(),
        2 => " (as does the section after it)".to_owned(),
        n => format!(" (as do the {} sections after it)", n - 1),
    }
}

/// Ticks `lo..=hi` claimed by a thread's first tick, or by the next
/// ticks of consecutive sections of one run of step `step`.
struct Claim {
    lo: u64,
    hi: u64,
    by: Claimant,
}

enum Claimant {
    First(usize),
    Next { step: u64 },
}

fn lint_queue(queue: &QueueStream, diags: &mut Vec<DemoDiagnostic>) {
    const FILE: &str = "QUEUE";
    let total = queue.ticks();
    let mut claims = Vec::new();
    for (tid, &tick) in queue.first_tick.iter().enumerate() {
        if tick > total {
            diag(
                diags,
                FILE,
                0,
                format!("first tick of thread {tid} names tick {tick} > total {total}"),
            );
        } else if tick != 0 {
            claims.push(Claim {
                lo: tick,
                hi: tick,
                by: Claimant::First(tid),
            });
        }
    }
    let mut before = 0u64; // sections before the run
    for &run in queue.runs() {
        let (lo, hi) = (before + 1, before + run.count);
        before = hi;
        if run.step == QueueRun::NEVER {
            continue;
        }
        // Sections before `wrap` name the tick `step` after their own;
        // from `wrap` on the sum passes u64::MAX and names one at or
        // before it. Of the forward ones, those up to `T - step` name a
        // tick in range.
        let wrap = run.step.wrapping_neg();
        let fwd_hi = hi.min(wrap - 1);
        let ok_hi = total
            .checked_sub(run.step)
            .map_or(lo - 1, |t| fwd_hi.min(t));
        if lo <= ok_hi {
            claims.push(Claim {
                lo: lo + run.step,
                hi: ok_hi + run.step,
                by: Claimant::Next { step: run.step },
            });
        }
        let far_lo = lo.max(ok_hi + 1);
        if far_lo <= fwd_hi {
            let next = run.next_tick(far_lo);
            diag(
                diags,
                FILE,
                far_lo,
                format!(
                    "section {far_lo} names next tick {next} > total {total}{}",
                    more(fwd_hi - far_lo + 1)
                ),
            );
        }
        let past_lo = lo.max(wrap);
        if past_lo <= hi {
            let next = run.next_tick(past_lo);
            diag(
                diags,
                FILE,
                past_lo,
                format!(
                    "section {past_lo} names next tick {next} <= {past_lo}{}",
                    more(hi - past_lo + 1)
                ),
            );
        }
    }
    // Sweep the claims in tick order: each must start at the first tick
    // not yet claimed. A later start leaves a hole; an earlier one
    // claims again what an earlier claim (a first tick before a next
    // tick, an earlier run before a later one, on equal starts) holds.
    claims.sort_by_key(|c| c.lo);
    let mut free = 1u64; // every tick below is claimed
    let hole = |lo: u64, hi: u64, diags: &mut Vec<DemoDiagnostic>| {
        let message = if lo == hi {
            format!("tick {lo} is never scheduled")
        } else {
            format!("ticks {lo}..={hi} are never scheduled")
        };
        diag(diags, FILE, lo, message);
    };
    for c in &claims {
        if c.lo > free {
            hole(free, c.lo - 1, diags);
        } else if c.lo < free {
            let twice = c.hi.min(free - 1) - c.lo + 1;
            match c.by {
                Claimant::First(tid) => diag(
                    diags,
                    FILE,
                    0,
                    format!(
                        "first tick of thread {tid} names tick {}, already scheduled",
                        c.lo
                    ),
                ),
                Claimant::Next { step } => diag(
                    diags,
                    FILE,
                    c.lo - step,
                    format!(
                        "section {} names next tick {}, already scheduled{}",
                        c.lo - step,
                        c.lo,
                        more(twice)
                    ),
                ),
            }
        }
        free = free.max(c.hi + 1);
    }
    if free <= total {
        hole(free, total, diags);
    }
}

/// Entries of a stream, numbered from 1.
fn entries<T>(items: &[T]) -> impl Iterator<Item = (u64, &T)> {
    (1..).zip(items)
}

fn check_tid(
    file: &str,
    entry: u64,
    tid: u32,
    nthreads: Option<usize>,
    diags: &mut Vec<DemoDiagnostic>,
) {
    if let Some(n) = nthreads {
        if tid as usize >= n {
            diag(
                diags,
                file,
                entry,
                format!("tid {tid} out of range (queue records {n} threads)"),
            );
        }
    }
}

fn lint_signals(signals: &[SignalEvent], nthreads: Option<usize>, diags: &mut Vec<DemoDiagnostic>) {
    const FILE: &str = "SIGNAL";
    let mut last_tick: BTreeMap<u32, u64> = BTreeMap::new();
    for (entry, s) in entries(signals) {
        check_tid(FILE, entry, s.tid, nthreads, diags);
        if s.signo <= 0 {
            diag(
                diags,
                FILE,
                entry,
                format!("signal number {} is not positive", s.signo),
            );
        }
        if let Some(prev) = last_tick.insert(s.tid, s.tick) {
            if s.tick < prev {
                diag(
                    diags,
                    FILE,
                    entry,
                    format!(
                        "tick {} for thread {} decreases (previous was {prev})",
                        s.tick, s.tid
                    ),
                );
            }
        }
    }
}

fn lint_syscalls(
    syscalls: &[SyscallRecord],
    nthreads: Option<usize>,
    diags: &mut Vec<DemoDiagnostic>,
) {
    const FILE: &str = "SYSCALL";
    let mut next_seq = 0u64;
    let mut last_tick = 0u64;
    for (entry, r) in entries(syscalls) {
        if r.seq != next_seq {
            diag(
                diags,
                FILE,
                entry,
                format!("seq {} breaks contiguity (expected {next_seq})", r.seq),
            );
        }
        next_seq = r.seq.max(next_seq).saturating_add(1);
        check_tid(FILE, entry, r.tid, nthreads, diags);
        if r.tick < last_tick {
            diag(
                diags,
                FILE,
                entry,
                format!("tick {} decreases (previous was {last_tick})", r.tick),
            );
        }
        last_tick = last_tick.max(r.tick);
    }
}

fn lint_asyncs(events: &[AsyncEvent], diags: &mut Vec<DemoDiagnostic>) {
    let mut last_tick = 0u64;
    for (entry, e) in entries(events) {
        // Async events are floated to ticks in recording order.
        if e.tick() < last_tick {
            diag(
                diags,
                "ASYNC",
                entry,
                format!("tick {} decreases (previous was {last_tick})", e.tick()),
            );
        }
        last_tick = last_tick.max(e.tick());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srr_replay::codec::{encode_frame, write_varint};
    use srr_replay::{DemoHeader, StreamId};
    use std::sync::Arc;

    fn sample_demo() -> Demo {
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "queue", [7, 9]));
        // Two threads: t0 runs ticks 1,2 then 4; t1 runs tick 3.
        d.queue = Arc::new(QueueStream::new(vec![1, 3], vec![2, 4, 0, 0]));
        d.signals.push(SignalEvent {
            tid: 1,
            tick: 3,
            signo: 15,
        });
        Arc::make_mut(&mut d.syscalls).push(SyscallRecord {
            seq: 0,
            tid: 0,
            tick: 2,
            kind: "recv".into(),
            ret: 10,
            errno: 0,
            bufs: vec![b"helloworld".to_vec()],
        });
        d.alloc = Arc::new(vec![4096, 8192]);
        d
    }

    /// `(stream, entry, message)` of each diagnostic.
    fn found(d: &Demo) -> Vec<(String, u64, String)> {
        lint_demo(d)
            .into_iter()
            .map(|d| (d.stream, d.entry, d.message))
            .collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("srr-lint-{name}-{}", std::process::id()))
    }

    #[test]
    fn recorded_demo_lints_clean() {
        let diags = lint_demo(&sample_demo());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn diagnostics_name_the_stream_and_entry() {
        let d = DemoDiagnostic {
            stream: "SYSCALL".into(),
            entry: 3,
            message: "boom".into(),
        };
        assert_eq!(d.to_string(), "SYSCALL entry 3: boom");
        let d = DemoDiagnostic { entry: 0, ..d };
        assert_eq!(d.to_string(), "SYSCALL: boom");
    }

    #[test]
    fn seq_gap_and_tick_regression_are_caught() {
        let mut d = sample_demo();
        Arc::make_mut(&mut d.syscalls).push(SyscallRecord {
            seq: 2, // gap: expected 1
            tid: 1,
            tick: 1, // regression: previous record was tick 2
            kind: "poll".into(),
            ret: 0,
            errno: 0,
            bufs: vec![],
        });
        assert_eq!(
            found(&d),
            [
                (
                    "SYSCALL".into(),
                    2,
                    "seq 2 breaks contiguity (expected 1)".into()
                ),
                (
                    "SYSCALL".into(),
                    2,
                    "tick 1 decreases (previous was 2)".into()
                ),
            ]
        );
    }

    #[test]
    fn syscall_tid_out_of_range_is_caught() {
        let mut d = sample_demo();
        Arc::make_mut(&mut d.syscalls)[0].tid = 2;
        let diags = lint_demo(&d);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].stream.as_str(), diags[0].entry), ("SYSCALL", 1));
        assert!(diags[0].message.contains("out of range"));
    }

    #[test]
    fn queue_double_claim_and_hole_are_caught() {
        let mut d = sample_demo();
        // Both threads claim tick 1; tick 3 is claimed nowhere.
        d.queue = Arc::new(QueueStream::new(vec![1, 1], vec![2, 4, 0, 0]));
        assert_eq!(
            found(&d),
            [
                (
                    "QUEUE".into(),
                    0,
                    "first tick of thread 1 names tick 1, already scheduled".into()
                ),
                ("QUEUE".into(), 3, "tick 3 is never scheduled".into()),
            ]
        );
        // Two sections naming one next tick: the later one is blamed.
        d.queue = Arc::new(QueueStream::new(vec![1, 3], vec![4, 4, 0, 0]));
        assert_eq!(
            found(&d),
            [
                ("QUEUE".into(), 2, "tick 2 is never scheduled".into()),
                (
                    "QUEUE".into(),
                    2,
                    "section 2 names next tick 4, already scheduled".into()
                ),
            ]
        );
    }

    #[test]
    fn queue_next_tick_must_be_in_the_future() {
        let mut d = sample_demo();
        // Section 2's next tick names tick 2 (not strictly later), and
        // section 4's names tick 1; tick 4 is then never scheduled.
        d.queue = Arc::new(QueueStream::new(vec![1, 3], vec![2, 2, 0, 1]));
        assert_eq!(
            found(&d),
            [
                ("QUEUE".into(), 2, "section 2 names next tick 2 <= 2".into()),
                ("QUEUE".into(), 4, "section 4 names next tick 1 <= 4".into()),
                ("QUEUE".into(), 4, "tick 4 is never scheduled".into()),
            ]
        );
        // Sections 2 and 3 both step back two ticks: one run, one
        // diagnostic.
        d.queue = Arc::new(QueueStream::new(vec![1, 3], vec![2, 2, 1, 0]));
        assert_eq!(
            found(&d)[0],
            (
                "QUEUE".into(),
                2,
                "section 2 names next tick 2 <= 2 (as does the section after it)".into()
            )
        );
    }

    #[test]
    fn queue_out_of_range_ticks_are_caught() {
        let mut d = sample_demo();
        d.queue = Arc::new(QueueStream::new(vec![1, 9], vec![2, 3, 4, 0]));
        assert_eq!(
            found(&d),
            [(
                "QUEUE".into(),
                0,
                "first tick of thread 1 names tick 9 > total 4".into()
            )]
        );
        d.queue = Arc::new(QueueStream::new(vec![1, 3], vec![2, 4, 7, 0]));
        assert_eq!(
            found(&d),
            [(
                "QUEUE".into(),
                3,
                "section 3 names next tick 7 > total 4".into()
            )]
        );
    }

    #[test]
    fn queue_faults_are_reported_a_run_at_a_time() {
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "queue", [1, 2]));
        // One thread: sections 1..=100 each name the tick after them,
        // and 50 more each name the tick 60 past their own.
        let next = (2..=100).chain(std::iter::once(0)).chain(161..211);
        d.queue = Arc::new(QueueStream::new(vec![1], next));
        assert_eq!(
            found(&d),
            [
                (
                    "QUEUE".into(),
                    101,
                    "section 101 names next tick 161 > total 150 \
                     (as do the 49 sections after it)"
                        .into()
                ),
                (
                    "QUEUE".into(),
                    101,
                    "ticks 101..=150 are never scheduled".into()
                ),
            ]
        );
    }

    #[test]
    fn queue_of_four_billion_sections_lints_in_its_runs() {
        // A 20-byte frame: thread 0 first runs at tick 1, then 2^32
        // sections each run it again at the next tick, the last one
        // past the end.
        let mut payload = Vec::new();
        for v in [1, 1, 1, 1, 1 << 32] {
            write_varint(&mut payload, v);
        }
        let mut map = Demo::new(DemoHeader::new("tsan11rec", "queue", [1, 2])).to_bytes_map();
        map.insert("QUEUE".into(), encode_frame(StreamId::Queue, &payload));
        let demo = Demo::from_bytes_map(&map).expect("a valid frame");
        assert_eq!(demo.queue.ticks(), 1 << 32);
        let diags = lint_demo(&demo);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].entry, 1 << 32);
        assert!(diags[0].message.contains("> total 4294967296"), "{diags:?}");
    }

    #[test]
    fn signal_tid_and_monotonicity_checks() {
        let mut d = sample_demo();
        d.signals = vec![
            SignalEvent {
                tid: 5,
                tick: 1,
                signo: 15,
            }, // tid out of range (2 threads)
            SignalEvent {
                tid: 1,
                tick: 4,
                signo: 10,
            },
            SignalEvent {
                tid: 1,
                tick: 2,
                signo: 10,
            }, // per-tid regression
            SignalEvent {
                tid: 0,
                tick: 1,
                signo: 0,
            }, // other tid: lower tick is fine, signal 0 is not
        ];
        assert_eq!(
            found(&d),
            [
                (
                    "SIGNAL".into(),
                    1,
                    "tid 5 out of range (queue records 2 threads)".into()
                ),
                (
                    "SIGNAL".into(),
                    3,
                    "tick 2 for thread 1 decreases (previous was 4)".into()
                ),
                ("SIGNAL".into(), 4, "signal number 0 is not positive".into()),
            ]
        );
    }

    #[test]
    fn random_demo_skips_tid_universe_checks() {
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "random", [1, 2]));
        d.signals.push(SignalEvent {
            tid: 17,
            tick: 1,
            signo: 2,
        });
        assert!(lint_demo(&d).is_empty());
    }

    #[test]
    fn async_regression_is_reported() {
        let mut d = sample_demo();
        d.async_events = vec![
            AsyncEvent::Reschedule { tick: 5 },
            AsyncEvent::SignalWakeup { tid: 1, tick: 3 },
            AsyncEvent::Reschedule { tick: 6 },
        ];
        assert_eq!(
            found(&d),
            [(
                "ASYNC".into(),
                2,
                "tick 3 decreases (previous was 5)".into()
            )]
        );
    }

    #[test]
    fn lint_dir_reports_a_load_error_as_the_one_diagnostic() {
        let dir = tmp("dir");
        let d = sample_demo();
        d.save_dir(&dir).unwrap();
        assert!(lint_demo_dir(&dir).is_empty());
        // Flip one payload bit: the frame checksum localizes the damage
        // and the decode failure becomes the diagnostic.
        let mut sys = std::fs::read(dir.join("SYSCALL")).unwrap();
        let mid = sys.len() / 2;
        sys[mid] ^= 0x01;
        std::fs::write(dir.join("SYSCALL"), sys).unwrap();
        let diags = lint_demo_dir(&dir);
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].stream.as_str(), diags[0].entry), ("SYSCALL", 0));
        assert!(diags[0].message.contains("cannot decode"), "{}", diags[0]);
        // A text export does not load: its HEADER is not a frame.
        for (name, text) in d.to_string_map() {
            std::fs::write(dir.join(name), text).unwrap();
        }
        let diags = lint_demo_dir(&dir);
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0]
                .to_string()
                .starts_with("HEADER: cannot decode HEADER: bad magic"),
            "{}",
            diags[0]
        );
        std::fs::remove_dir_all(&dir).unwrap();
        // No HEADER at all.
        let diags = lint_demo_dir(&dir);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].to_string(), "HEADER: demo has no HEADER file");
    }
}
