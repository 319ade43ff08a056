//! Offline demo linter: structural validation of a demo directory.
//!
//! A pure function over the demo's per-file text map (§4's five streams
//! plus the header) that re-derives the recorder's invariants and reports
//! every violation with a file name and 1-based line number. Unlike
//! [`srr_replay::Demo::from_string_map`] — which stops at the first parse
//! error — the linter keeps going and also checks *semantic* properties a
//! parse cannot see:
//!
//! * `HEADER` — version/field presence, seed arity;
//! * `QUEUE` — RLE well-formedness, next-tick entries strictly after the
//!   critical section consuming them, every tick claimed exactly once;
//! * `SIGNAL` — arity, per-thread tick monotonicity (signal ticks are the
//!   *target's* last tick, so they are ordered per thread, not globally),
//!   thread-id validity against the QUEUE;
//! * `SYSCALL` — seq contiguity, global tick monotonicity, kind names
//!   within the loader's cap, declared buffer counts and lengths
//!   matching the payload;
//! * `ASYNC` — arity, global tick monotonicity;
//! * `ALLOC` — RLE well-formedness.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;

use srr_replay::codec::MAX_KIND_LEN;
use srr_replay::rle;

/// One linter diagnostic, anchored to a stream file and line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemoDiagnostic {
    /// Stream file name (`HEADER`, `QUEUE`, ...).
    pub file: String,
    /// 1-based line number; 0 for file-level problems (missing file,
    /// missing required field).
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for DemoDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}", self.file, self.message)
        } else {
            write!(f, "{}:{}: {}", self.file, self.line, self.message)
        }
    }
}

fn diag(diags: &mut Vec<DemoDiagnostic>, file: &str, line: usize, message: impl Into<String>) {
    diags.push(DemoDiagnostic {
        file: file.into(),
        line,
        message: message.into(),
    });
}

/// Lints a demo in its per-file text form ([`srr_replay::Demo::to_string_map`]).
///
/// Missing stream files mean empty streams (sparsity) and are fine;
/// a missing `HEADER` is an error. Returns every diagnostic found, in
/// file order.
#[must_use]
pub fn lint_demo_map(map: &BTreeMap<String, String>) -> Vec<DemoDiagnostic> {
    let mut diags = Vec::new();
    match map.get("HEADER") {
        Some(text) => lint_header(text, &mut diags),
        None => diag(&mut diags, "HEADER", 0, "demo has no HEADER file"),
    }
    let text = |name: &str| map.get(name).map(String::as_str).unwrap_or("");
    let queue = lint_queue(text("QUEUE"), &mut diags);
    // Thread-id bound for cross-stream checks: only known when the queue
    // strategy recorded a first-tick table (random demos carry no tid
    // universe, so tid checks are skipped).
    let nthreads = queue.as_ref().and_then(|(first, _)| {
        if first.is_empty() {
            None
        } else {
            Some(first.len())
        }
    });
    lint_signal(text("SIGNAL"), nthreads, &mut diags);
    lint_syscall(text("SYSCALL"), nthreads, &mut diags);
    lint_async(text("ASYNC"), &mut diags);
    lint_alloc(text("ALLOC"), &mut diags);
    diags
}

/// Lints a demo directory written by [`srr_replay::Demo::save_dir`],
/// auto-detecting the on-disk format per file.
///
/// Text streams are linted line by line as before. When any stream is
/// binary, the demo is decoded through the checksummed codec and its
/// canonical text rendering is linted — a decode failure (corruption,
/// truncation, version skew) *is* the diagnostic, since the frame
/// checksum already localizes the damage to a file.
///
/// # Errors
///
/// Propagates filesystem errors other than "file not found" (absent
/// stream files are empty streams).
pub fn lint_demo_dir(dir: &Path) -> io::Result<Vec<DemoDiagnostic>> {
    let mut bytes_map = BTreeMap::new();
    let mut any_binary = false;
    for name in ["HEADER", "QUEUE", "SIGNAL", "SYSCALL", "ASYNC", "ALLOC"] {
        match std::fs::read(dir.join(name)) {
            Ok(bytes) => {
                any_binary |= srr_replay::codec::is_binary(&bytes);
                bytes_map.insert(name.to_owned(), bytes);
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    if any_binary {
        return Ok(match srr_replay::Demo::from_bytes_map(&bytes_map) {
            Ok(demo) => lint_demo_map(&demo.to_string_map()),
            Err(e) => {
                let mut diags = Vec::new();
                let (file, line) = match &e {
                    srr_replay::DemoLoadError::Malformed { file, line, .. } => {
                        (file.clone(), line.unwrap_or(0))
                    }
                    srr_replay::DemoLoadError::Codec { file, .. }
                    | srr_replay::DemoLoadError::Io { file, .. } => (file.clone(), 0),
                    srr_replay::DemoLoadError::MissingHeader => ("HEADER".to_owned(), 0),
                };
                diag(&mut diags, &file, line, e.to_string());
                diags
            }
        });
    }
    let mut map = BTreeMap::new();
    for (name, bytes) in bytes_map {
        map.insert(name, String::from_utf8_lossy(&bytes).into_owned());
    }
    Ok(lint_demo_map(&map))
}

/// Non-empty `(line_no, trimmed)` lines of a stream file.
fn lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(i, l)| {
        let l = l.trim();
        if l.is_empty() {
            None
        } else {
            Some((i + 1, l))
        }
    })
}

fn lint_header(text: &str, diags: &mut Vec<DemoDiagnostic>) {
    const FILE: &str = "HEADER";
    let mut version = None;
    let mut tool = false;
    let mut strategy = false;
    let mut seeds = false;
    for (ln, line) in lines(text) {
        if let Some(v) = line.strip_prefix("tsan11rec-demo v") {
            match v.parse::<u32>() {
                Ok(n) => version = Some((ln, n)),
                Err(_) => diag(diags, FILE, ln, format!("bad version `{v}`")),
            }
        } else if line.strip_prefix("tool ").is_some() {
            tool = true;
        } else if line.strip_prefix("strategy ").is_some() {
            strategy = true;
        } else if let Some(s) = line.strip_prefix("seed ") {
            let vals: Vec<_> = s.split_whitespace().collect();
            if vals.len() != 2 || vals.iter().any(|v| v.parse::<u64>().is_err()) {
                diag(
                    diags,
                    FILE,
                    ln,
                    format!("seed line needs two integers, got `{s}`"),
                );
            } else {
                seeds = true;
            }
        } else {
            diag(diags, FILE, ln, format!("unknown HEADER line `{line}`"));
        }
    }
    match version {
        None => diag(diags, FILE, 0, "missing version line"),
        Some((ln, v)) if v != srr_replay::FORMAT_VERSION => {
            diag(diags, FILE, ln, format!("unsupported demo version {v}"));
        }
        Some(_) => {}
    }
    for (present, what) in [(tool, "tool"), (strategy, "strategy"), (seeds, "seed")] {
        if !present {
            diag(diags, FILE, 0, format!("missing {what} line"));
        }
    }
}

/// Returns the decoded `(first_tick, next_ticks)` when both lines parse,
/// so cross-stream checks can use them.
fn lint_queue(text: &str, diags: &mut Vec<DemoDiagnostic>) -> Option<(Vec<u64>, Vec<u64>)> {
    const FILE: &str = "QUEUE";
    let mut first: Option<(usize, Vec<u64>)> = None;
    let mut ticks: Option<(usize, Vec<u64>)> = None;
    let mut parse_ok = true;
    for (ln, line) in lines(text) {
        let (slot, rest) = if let Some(rest) = line.strip_prefix("first ") {
            (&mut first, rest)
        } else if let Some(rest) = line.strip_prefix("ticks ") {
            (&mut ticks, rest)
        } else if line == "first" || line == "ticks" {
            continue; // empty stream lines are fine
        } else {
            diag(diags, FILE, ln, format!("unknown QUEUE line `{line}`"));
            parse_ok = false;
            continue;
        };
        if slot.is_some() {
            diag(
                diags,
                FILE,
                ln,
                format!("duplicate `{}` line", line.split(' ').next().unwrap()),
            );
            parse_ok = false;
            continue;
        }
        match rle::decode_u64s(rest) {
            Ok(vals) => *slot = Some((ln, vals)),
            Err(e) => {
                diag(diags, FILE, ln, e);
                parse_ok = false;
            }
        }
    }
    let (first_ln, first_tick) = first.unwrap_or((0, Vec::new()));
    let (ticks_ln, next_ticks) = ticks.unwrap_or((0, Vec::new()));
    if !parse_ok {
        return None;
    }

    // Semantic checks: ticks are 1-based and dense, so with T critical
    // sections (T = next_ticks length) every tick in 1..=T is scheduled
    // by exactly one claim — a thread's first tick or a next-tick entry.
    let total = next_ticks.len() as u64;
    if total == 0 && first_tick.iter().any(|&t| t != 0) {
        diag(
            diags,
            FILE,
            first_ln,
            "first-tick entries but no next-tick list",
        );
        return Some((first_tick, next_ticks));
    }
    let mut claimed = vec![false; next_ticks.len() + 1]; // index = tick, [0] unused
    let mut claim = |tick: u64, ln: usize, what: String, diags: &mut Vec<DemoDiagnostic>| {
        if tick == 0 {
            return;
        }
        if tick > total {
            diag(
                diags,
                FILE,
                ln,
                format!("{what} names tick {tick} > total {total}"),
            );
        } else if std::mem::replace(&mut claimed[tick as usize], true) {
            diag(
                diags,
                FILE,
                ln,
                format!("{what} names tick {tick}, already scheduled"),
            );
        }
    };
    for (tid, &t) in first_tick.iter().enumerate() {
        claim(t, first_ln, format!("first tick of thread {tid}"), diags);
    }
    for (k, &t) in next_ticks.iter().enumerate() {
        let cs = k as u64 + 1;
        if t != 0 && t <= cs {
            diag(
                diags,
                FILE,
                ticks_ln,
                format!("next-tick entry for critical section {cs} names tick {t} <= {cs}"),
            );
        } else {
            claim(
                t,
                ticks_ln,
                format!("next-tick entry for critical section {cs}"),
                diags,
            );
        }
    }
    for (tick, &c) in claimed.iter().enumerate().skip(1) {
        if !c {
            diag(
                diags,
                FILE,
                ticks_ln.max(first_ln),
                format!("tick {tick} is never scheduled"),
            );
        }
    }
    Some((first_tick, next_ticks))
}

fn check_tid(
    file: &str,
    ln: usize,
    tid: u64,
    nthreads: Option<usize>,
    diags: &mut Vec<DemoDiagnostic>,
) {
    if let Some(n) = nthreads {
        if tid >= n as u64 {
            diag(
                diags,
                file,
                ln,
                format!("tid {tid} out of range (queue records {n} threads)"),
            );
        }
    }
}

fn lint_signal(text: &str, nthreads: Option<usize>, diags: &mut Vec<DemoDiagnostic>) {
    const FILE: &str = "SIGNAL";
    let mut last_tick: BTreeMap<u64, u64> = BTreeMap::new(); // tid -> last tick
    for (ln, line) in lines(text) {
        let fields: Vec<_> = line.split_whitespace().collect();
        if fields.len() != 3 {
            diag(
                diags,
                FILE,
                ln,
                format!("SIGNAL line needs `tid tick signo`, got `{line}`"),
            );
            continue;
        }
        let (Ok(tid), Ok(tick), Ok(signo)) = (
            fields[0].parse::<u64>(),
            fields[1].parse::<u64>(),
            fields[2].parse::<i64>(),
        ) else {
            diag(
                diags,
                FILE,
                ln,
                format!("non-numeric field in SIGNAL line `{line}`"),
            );
            continue;
        };
        check_tid(FILE, ln, tid, nthreads, diags);
        if signo <= 0 {
            diag(
                diags,
                FILE,
                ln,
                format!("signal number {signo} is not positive"),
            );
        }
        // Signal ticks are recorded at the *target's* most recent Tick(),
        // so they are monotone per thread, not globally.
        if let Some(&prev) = last_tick.get(&tid) {
            if tick < prev {
                diag(
                    diags,
                    FILE,
                    ln,
                    format!("tick {tick} for thread {tid} decreases (previous was {prev})"),
                );
            }
        }
        last_tick.insert(tid, tick);
    }
}

fn lint_syscall(text: &str, nthreads: Option<usize>, diags: &mut Vec<DemoDiagnostic>) {
    const FILE: &str = "SYSCALL";
    fn close_record(header_ln: usize, expected_bufs: &mut usize, diags: &mut Vec<DemoDiagnostic>) {
        if *expected_bufs != 0 {
            diag(
                diags,
                FILE,
                header_ln,
                format!("syscall record is missing {expected_bufs} buffer line(s)"),
            );
            *expected_bufs = 0;
        }
    }
    let mut next_seq: u64 = 0;
    let mut last_tick: u64 = 0;
    let mut expected_bufs: usize = 0;
    let mut header_ln: usize = 0; // line of the open syscall record
    for (ln, line) in lines(text) {
        if let Some(rest) = line.strip_prefix("syscall ") {
            close_record(header_ln, &mut expected_bufs, diags);
            header_ln = ln;
            let fields: Vec<_> = rest.split_whitespace().collect();
            if fields.len() != 7 {
                diag(
                    diags,
                    FILE,
                    ln,
                    "syscall line needs `seq tid tick kind ret=N errno=N nbufs=N`",
                );
                continue;
            }
            match fields[0].parse::<u64>() {
                Ok(seq) => {
                    if seq != next_seq {
                        diag(
                            diags,
                            FILE,
                            ln,
                            format!("seq {seq} breaks contiguity (expected {next_seq})"),
                        );
                    }
                    next_seq = seq.max(next_seq) + 1;
                }
                Err(_) => diag(diags, FILE, ln, format!("bad seq `{}`", fields[0])),
            }
            match fields[1].parse::<u64>() {
                Ok(tid) => check_tid(FILE, ln, tid, nthreads, diags),
                Err(_) => diag(diags, FILE, ln, format!("bad tid `{}`", fields[1])),
            }
            match fields[2].parse::<u64>() {
                Ok(tick) => {
                    // Syscalls are recorded inside critical sections, which
                    // are totally ordered: ticks are globally monotone.
                    if tick < last_tick {
                        diag(
                            diags,
                            FILE,
                            ln,
                            format!("tick {tick} decreases (previous was {last_tick})"),
                        );
                    }
                    last_tick = last_tick.max(tick);
                }
                Err(_) => diag(diags, FILE, ln, format!("bad tick `{}`", fields[2])),
            }
            if fields[3].len() > MAX_KIND_LEN {
                diag(
                    diags,
                    FILE,
                    ln,
                    format!(
                        "kind of {} bytes is longer than {MAX_KIND_LEN}",
                        fields[3].len()
                    ),
                );
            }
            for (field, prefix) in [(fields[4], "ret="), (fields[5], "errno=")] {
                if field
                    .strip_prefix(prefix)
                    .and_then(|v| v.parse::<i64>().ok())
                    .is_none()
                {
                    diag(
                        diags,
                        FILE,
                        ln,
                        format!("expected `{prefix}<integer>`, got `{field}`"),
                    );
                }
            }
            match fields[6]
                .strip_prefix("nbufs=")
                .and_then(|v| v.parse::<usize>().ok())
            {
                Some(n) => expected_bufs = n,
                None => diag(
                    diags,
                    FILE,
                    ln,
                    format!("expected `nbufs=<count>`, got `{}`", fields[6]),
                ),
            }
        } else if let Some(rest) = line.strip_prefix("buf ") {
            if header_ln == 0 {
                diag(diags, FILE, ln, "buf line before any syscall line");
                continue;
            }
            if expected_bufs == 0 {
                diag(diags, FILE, ln, "more buf lines than nbufs declared");
                continue;
            }
            expected_bufs -= 1;
            let (len_s, payload) = rest.split_once(' ').unwrap_or((rest, ""));
            let Ok(len) = len_s.parse::<usize>() else {
                diag(diags, FILE, ln, format!("bad buf length `{len_s}`"));
                continue;
            };
            match rle::decode_bytes(payload) {
                Ok(data) if data.len() != len => diag(
                    diags,
                    FILE,
                    ln,
                    format!(
                        "buf declares {len} bytes but payload decodes to {}",
                        data.len()
                    ),
                ),
                Ok(_) => {}
                Err(e) => diag(diags, FILE, ln, e),
            }
        } else {
            diag(diags, FILE, ln, format!("unknown SYSCALL line `{line}`"));
        }
    }
    close_record(header_ln, &mut expected_bufs, diags);
}

fn lint_async(text: &str, diags: &mut Vec<DemoDiagnostic>) {
    const FILE: &str = "ASYNC";
    let mut last_tick: u64 = 0;
    for (ln, line) in lines(text) {
        let fields: Vec<_> = line.split_whitespace().collect();
        let tick = match fields.as_slice() {
            ["reschedule", t] => t.parse::<u64>().ok(),
            ["sigwakeup", tid, t] => {
                if tid.parse::<u64>().is_err() {
                    diag(diags, FILE, ln, format!("bad sigwakeup tid `{tid}`"));
                }
                t.parse::<u64>().ok()
            }
            _ => {
                diag(diags, FILE, ln, format!("unknown ASYNC line `{line}`"));
                continue;
            }
        };
        let Some(tick) = tick else {
            diag(diags, FILE, ln, format!("bad tick in ASYNC line `{line}`"));
            continue;
        };
        // Async events are floated to ticks in recording order: monotone.
        if tick < last_tick {
            diag(
                diags,
                FILE,
                ln,
                format!("tick {tick} decreases (previous was {last_tick})"),
            );
        }
        last_tick = last_tick.max(tick);
    }
}

fn lint_alloc(text: &str, diags: &mut Vec<DemoDiagnostic>) {
    for (ln, line) in lines(text) {
        if let Err(e) = rle::decode_u64s(line) {
            diag(diags, "ALLOC", ln, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srr_replay::{Demo, DemoHeader, QueueStream, SignalEvent, SyscallRecord};
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

    fn lint(d: &Demo) -> Vec<DemoDiagnostic> {
        lint_demo_map(&d.to_string_map())
    }

    #[test]
    fn recorded_demo_lints_clean() {
        let diags = lint(&sample_demo());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn missing_header_is_file_level() {
        let mut map = sample_demo().to_string_map();
        map.remove("HEADER");
        let diags = lint_demo_map(&map);
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].file.as_str(), diags[0].line), ("HEADER", 0));
        assert_eq!(diags[0].to_string(), "HEADER: demo has no HEADER file");
    }

    #[test]
    fn truncated_syscall_points_at_its_header_line() {
        let mut map = sample_demo().to_string_map();
        // Drop the buf line: the record on line 1 declares nbufs=1.
        let sys = map.get_mut("SYSCALL").unwrap();
        *sys = sys.lines().next().unwrap().to_owned() + "\n";
        let diags = lint_demo_map(&map);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].file.as_str(), diags[0].line), ("SYSCALL", 1));
        assert!(diags[0].message.contains("missing 1 buffer line(s)"));
    }

    #[test]
    fn buf_length_mismatch_is_line_precise() {
        let mut map = sample_demo().to_string_map();
        let sys = map.get_mut("SYSCALL").unwrap();
        *sys = sys.replace("buf 10 ", "buf 11 ");
        let diags = lint_demo_map(&map);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].file.as_str(), diags[0].line), ("SYSCALL", 2));
        assert!(diags[0].message.contains("declares 11 bytes"));
    }

    #[test]
    fn kind_names_over_the_cap_are_caught() {
        let mut map = sample_demo().to_string_map();
        let sys = map.get_mut("SYSCALL").unwrap();
        *sys = sys.replace(" recv ", &format!(" {} ", "k".repeat(MAX_KIND_LEN + 1)));
        let diags = lint_demo_map(&map);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].file.as_str(), diags[0].line), ("SYSCALL", 1));
        assert!(diags[0].message.contains("longer than 64"));
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
        let diags = lint(&d);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("breaks contiguity")),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.message.contains("decreases")),
            "{diags:?}"
        );
    }

    #[test]
    fn queue_double_claim_and_hole_are_caught() {
        let mut d = sample_demo();
        // Both threads claim tick 1; tick 3 is claimed nowhere.
        d.queue = Arc::new(QueueStream::new(vec![1, 1], vec![2, 4, 0, 0]));
        let diags = lint(&d);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("already scheduled")),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.message.contains("never scheduled")),
            "{diags:?}"
        );
        assert!(diags.iter().all(|d| d.file == "QUEUE"));
    }

    #[test]
    fn queue_next_tick_must_be_in_the_future() {
        let mut d = sample_demo();
        // CS 2's next-tick entry names tick 2 (not strictly later).
        d.queue = Arc::new(QueueStream::new(vec![1, 3], vec![2, 2, 0, 0]));
        let diags = lint(&d);
        assert!(
            diags.iter().any(|d| d.message.contains("<= 2")),
            "{diags:?}"
        );
    }

    #[test]
    fn queue_out_of_range_tick_is_caught() {
        let mut d = sample_demo();
        d.queue = Arc::new(QueueStream::new(vec![1, 9], vec![2, 3, 4, 0]));
        let diags = lint(&d);
        assert!(
            diags.iter().any(|d| d.message.contains("> total 4")),
            "{diags:?}"
        );
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
                signo: 9,
            }, // other tid: lower tick is fine
        ];
        let diags = lint(&d);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].message.contains("out of range"));
        assert!(diags[1].message.contains("decreases"));
        assert_eq!(diags[1].line, 3);
    }

    #[test]
    fn random_demo_skips_tid_universe_checks() {
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "random", [1, 2]));
        d.signals.push(SignalEvent {
            tid: 17,
            tick: 1,
            signo: 2,
        });
        assert!(lint(&d).is_empty());
    }

    #[test]
    fn header_problems_are_reported() {
        let mut map = sample_demo().to_string_map();
        map.insert(
            "HEADER".into(),
            "tsan11rec-demo v9\ntool x\nwhat is this\n".into(),
        );
        let diags = lint_demo_map(&map);
        assert!(diags
            .iter()
            .any(|d| d.message.contains("unsupported demo version 9")));
        assert!(diags
            .iter()
            .any(|d| d.line == 3 && d.message.contains("unknown HEADER line")));
        assert!(diags
            .iter()
            .any(|d| d.line == 0 && d.message.contains("missing strategy")));
        assert!(diags
            .iter()
            .any(|d| d.line == 0 && d.message.contains("missing seed")));
    }

    #[test]
    fn async_and_alloc_problems_are_reported() {
        let mut map = sample_demo().to_string_map();
        map.insert(
            "ASYNC".into(),
            "reschedule 5\nreschedule 3\nteleport 1\n".into(),
        );
        map.insert("ALLOC".into(), "4096 80q2\n".into());
        let diags = lint_demo_map(&map);
        assert!(diags
            .iter()
            .any(|d| d.file == "ASYNC" && d.line == 2 && d.message.contains("decreases")));
        assert!(diags
            .iter()
            .any(|d| d.file == "ASYNC" && d.line == 3 && d.message.contains("unknown")));
        assert!(diags.iter().any(|d| d.file == "ALLOC" && d.line == 1));
    }

    #[test]
    fn lint_dir_roundtrip() {
        let dir = std::env::temp_dir().join(format!("srr-lint-test-{}", std::process::id()));
        let d = sample_demo();
        d.save_dir_as(&dir, srr_replay::DemoFormat::Text).unwrap();
        assert!(lint_demo_dir(&dir).unwrap().is_empty());
        // Truncate the SYSCALL stream on disk.
        let sys = std::fs::read_to_string(dir.join("SYSCALL")).unwrap();
        std::fs::write(dir.join("SYSCALL"), sys.lines().next().unwrap()).unwrap();
        let diags = lint_demo_dir(&dir).unwrap();
        assert_eq!(diags.len(), 1);
        assert!(diags[0].to_string().starts_with("SYSCALL:1: "));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lint_dir_handles_binary_demos() {
        let dir = std::env::temp_dir().join(format!("srr-lint-bin-test-{}", std::process::id()));
        let d = sample_demo();
        d.save_dir(&dir).unwrap(); // binary by default
        assert!(lint_demo_dir(&dir).unwrap().is_empty());
        // Flip one payload bit: the frame checksum localizes the damage
        // and the decode failure becomes the diagnostic.
        let mut sys = std::fs::read(dir.join("SYSCALL")).unwrap();
        let mid = sys.len() / 2;
        sys[mid] ^= 0x01;
        std::fs::write(dir.join("SYSCALL"), sys).unwrap();
        let diags = lint_demo_dir(&dir).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].file, "SYSCALL");
        assert!(
            diags[0].message.contains("cannot decode"),
            "message: {}",
            diags[0].message
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
