//! Property tests: every codec and stream roundtrips on arbitrary input,
//! the text export encodes exactly its input, and the offline demo
//! linter (`srr-analysis`) accepts every recorder-shaped demo and flags
//! one broken invariant at its stream and entry.

use std::sync::Arc;

use proptest::prelude::*;
use srr_replay::codec::{
    encode_frame, fnv1a64, parse_frame, write_varint, Cursor, MAX_EXPANSION, PACKED,
};
use srr_replay::rle;
use srr_replay::{
    AsyncEvent, CodecError, Demo, DemoHeader, DemoLoadError, QueueBuilder, QueueStream,
    SignalEvent, StreamId, SyscallRecord,
};

/// The text export's integer tokens (`N`, `N+K`, `N*K`), expanded: the
/// oracle [`rle::encode_u64s`] is checked against. The crates never
/// read the export back.
fn expand_u64s(text: &str) -> Vec<u64> {
    let mut out = Vec::new();
    for tok in text.split_whitespace() {
        let num = |s: &str| s.parse::<u64>().expect("a decimal token");
        if let Some((base, k)) = tok.split_once('+') {
            let (base, k) = (num(base), num(k));
            assert!(k >= 1, "`{tok}`: a run has two values at least");
            out.extend((0..=k).map(|d| base + d));
        } else if let Some((base, k)) = tok.split_once('*') {
            let (base, k) = (num(base), num(k));
            assert!(k >= 2, "`{tok}`: a repeat has two values at least");
            out.extend(std::iter::repeat_n(base, k as usize));
        } else {
            out.push(num(tok));
        }
    }
    out
}

/// The text export's byte chunks (hex of `00 len byte` runs and
/// `01 len bytes…` literals), expanded: the oracle for
/// [`rle::encode_bytes`].
fn expand_bytes(hex: &str) -> Vec<u8> {
    assert!(hex.bytes().all(|c| matches!(c, b'0'..=b'9' | b'a'..=b'f')));
    let raw: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("a hex pair"))
        .collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        let len = usize::from(raw[i + 1]);
        match raw[i] {
            0x00 => {
                out.extend(std::iter::repeat_n(raw[i + 2], len));
                i += 3;
            }
            0x01 => {
                out.extend_from_slice(&raw[i + 2..i + 2 + len]);
                i += 2 + len;
            }
            tag => panic!("unknown chunk tag {tag:#x}"),
        }
    }
    out
}

/// The QUEUE stream of a schedule (`order[k]` runs tick `k + 1`), built
/// the plain way: link each thread's sections once the whole schedule
/// is known. The reference the recorder's in-place builder must match.
fn reference_queue(nthreads: usize, order: &[usize]) -> QueueStream {
    let mut first = vec![0u64; nthreads];
    let mut next = vec![0u64; order.len()];
    let mut last_idx: Vec<Option<usize>> = vec![None; nthreads];
    for (idx, &tid) in order.iter().enumerate() {
        let tick = (idx + 1) as u64;
        match last_idx[tid] {
            None => first[tid] = tick,
            Some(prev) => next[prev] = tick,
        }
        last_idx[tid] = Some(idx);
    }
    QueueStream::new(first, next)
}

/// A demo whose streams are derived from an actual schedule — the QUEUE
/// linked-list invariants (exact cover of ticks `1..=T`, forward-pointing
/// next links) only hold for streams built the way the recorder builds
/// them, so arbitrary vectors won't do.
fn demo_from_schedule(
    nthreads: usize,
    order: &[usize],
    signals: &[(usize, u64, i32)],
    syscalls: &[(usize, u64, Vec<Vec<u8>>)],
    asyncs: &[(bool, usize, u64)],
    alloc: Vec<u64>,
) -> Demo {
    let mut demo = Demo::new(DemoHeader::new("tsan11rec", "queue", [5, 9]));
    demo.queue = Arc::new(reference_queue(nthreads, order));

    // SIGNAL ticks need only be per-tid non-decreasing; sorting by
    // (tid, tick) models the per-thread recording order.
    let mut signals: Vec<_> = signals.to_vec();
    signals.sort_unstable();
    demo.signals = signals
        .into_iter()
        .map(|(tid, tick, signo)| SignalEvent {
            tid: tid as u32,
            tick,
            signo,
        })
        .collect();

    // SYSCALL seq is the record index and ticks are globally monotone.
    let mut ticks: Vec<u64> = syscalls.iter().map(|&(_, t, _)| t).collect();
    ticks.sort_unstable();
    demo.syscalls = Arc::new(
        syscalls
            .iter()
            .zip(ticks)
            .enumerate()
            .map(|(seq, (&(tid, _, ref bufs), tick))| SyscallRecord {
                seq: seq as u64,
                tid: tid as u32,
                tick,
                kind: "recvmsg".into(),
                ret: bufs.first().map_or(-1, |b| b.len() as i64),
                errno: 11,
                bufs: bufs.clone(),
            })
            .collect(),
    );

    let mut aticks: Vec<u64> = asyncs.iter().map(|&(_, _, t)| t).collect();
    aticks.sort_unstable();
    demo.async_events = asyncs
        .iter()
        .zip(aticks)
        .map(|(&(resched, tid, _), tick)| {
            if resched {
                AsyncEvent::Reschedule { tick }
            } else {
                AsyncEvent::SignalWakeup {
                    tid: tid as u32,
                    tick,
                }
            }
        })
        .collect();
    demo.alloc = Arc::new(alloc);
    demo
}

/// Generator bundle for a valid recorded-shaped demo.
#[allow(clippy::type_complexity)]
fn valid_demo() -> impl Strategy<Value = Demo> {
    (1usize..5)
        .prop_flat_map(|nthreads| {
            (
                Just(nthreads),
                proptest::collection::vec(0..nthreads, 1..40),
                proptest::collection::vec((0..nthreads, 0u64..40, 1i32..32), 0..8),
                proptest::collection::vec(
                    (
                        0..nthreads,
                        0u64..40,
                        proptest::collection::vec(
                            proptest::collection::vec(any::<u8>(), 0..32),
                            0..3,
                        ),
                    ),
                    0..5,
                ),
                proptest::collection::vec((any::<bool>(), 0..nthreads, 0u64..40), 0..6),
                proptest::collection::vec(0u64..1_000_000, 0..16),
            )
        })
        .prop_map(|(nthreads, order, signals, syscalls, asyncs, alloc)| {
            demo_from_schedule(nthreads, &order, &signals, &syscalls, &asyncs, alloc)
        })
}

/// One way to break one invariant of a recorder-shaped demo.
#[derive(Clone, Copy, Debug)]
enum Break {
    /// Thread `tid` loses its first tick: that tick becomes a hole.
    DropFirst(usize),
    /// The last section of a thread (next tick 0) names a tick at or
    /// before its own.
    NextPast(u64),
    /// ... or one past the last tick.
    NextFar(u64),
    SignalTid(usize),
    SignalNo(usize),
    /// A signal's tick drops below its thread's previous one.
    SignalBack(usize),
    /// Every seq from this record on skips one.
    SeqGap(usize),
    SyscallTid(usize),
    SyscallBack(usize),
    AsyncBack(usize),
}

/// Every [`Break`] that applies to `demo`.
fn breaks(demo: &Demo) -> Vec<Break> {
    let mut out = Vec::new();
    let first = &demo.queue.first_tick;
    out.extend(
        (0..first.len())
            .filter(|&t| first[t] != 0)
            .map(Break::DropFirst),
    );
    for (k, next) in (1..).zip(demo.queue.next_ticks()) {
        if next == 0 {
            out.extend([Break::NextPast(k), Break::NextFar(k)]);
        }
    }
    let signals = &demo.signals;
    for i in 0..signals.len() {
        out.extend([Break::SignalTid(i), Break::SignalNo(i)]);
        if i > 0 && signals[i - 1].tid == signals[i].tid && signals[i - 1].tick > 0 {
            out.push(Break::SignalBack(i));
        }
    }
    let syscalls = records(demo);
    for i in 0..syscalls.len() {
        out.extend([Break::SeqGap(i), Break::SyscallTid(i)]);
        if i > 0 && syscalls[i - 1].tick > 0 {
            out.push(Break::SyscallBack(i));
        }
    }
    let asyncs = &demo.async_events;
    out.extend(
        (1..asyncs.len())
            .filter(|&i| asyncs[i - 1].tick() > 0)
            .map(Break::AsyncBack),
    );
    out
}

/// The demo's SYSCALL records, owned.
fn records(demo: &Demo) -> Vec<SyscallRecord> {
    demo.syscalls.iter().map(|c| c.to_record()).collect()
}

/// Edits the demo's SYSCALL records through their owned copies.
fn edit_syscalls(demo: &mut Demo, edit: impl FnOnce(&mut [SyscallRecord])) {
    let mut syscalls = records(demo);
    edit(&mut syscalls);
    demo.syscalls = Arc::new(syscalls.into_iter().collect());
}

/// Applies `b` to `demo` and returns the stream and entry the linter
/// must flag.
fn apply(demo: &mut Demo, b: Break, wiggle: u64) -> (&'static str, u64) {
    let nthreads = demo.queue.first_tick.len() as u32;
    let total = demo.queue.ticks();
    let mut first = demo.queue.first_tick.clone();
    let mut next: Vec<u64> = demo.queue.next_ticks().collect();
    let back = |t: u64| t - 1 - wiggle % t;
    match b {
        Break::DropFirst(tid) => {
            let lost = std::mem::take(&mut first[tid]);
            demo.queue = Arc::new(QueueStream::new(first, next));
            ("QUEUE", lost)
        }
        Break::NextPast(k) | Break::NextFar(k) => {
            next[k as usize - 1] = match b {
                Break::NextPast(_) => 1 + wiggle % k,
                _ => total + 1 + wiggle % 4,
            };
            demo.queue = Arc::new(QueueStream::new(first, next));
            ("QUEUE", k)
        }
        Break::SignalTid(i) => {
            demo.signals[i].tid = nthreads;
            ("SIGNAL", i as u64 + 1)
        }
        Break::SignalNo(i) => {
            demo.signals[i].signo = -((wiggle % 3) as i32);
            ("SIGNAL", i as u64 + 1)
        }
        Break::SignalBack(i) => {
            demo.signals[i].tick = back(demo.signals[i - 1].tick);
            ("SIGNAL", i as u64 + 1)
        }
        Break::SeqGap(i) => {
            edit_syscalls(demo, |syscalls| {
                for r in &mut syscalls[i..] {
                    r.seq += 1 + wiggle % 3;
                }
            });
            ("SYSCALL", i as u64 + 1)
        }
        Break::SyscallTid(i) => {
            edit_syscalls(demo, |syscalls| syscalls[i].tid = nthreads);
            ("SYSCALL", i as u64 + 1)
        }
        Break::SyscallBack(i) => {
            edit_syscalls(demo, |syscalls| {
                syscalls[i].tick = back(syscalls[i - 1].tick);
            });
            ("SYSCALL", i as u64 + 1)
        }
        Break::AsyncBack(i) => {
            let tick = back(demo.async_events[i - 1].tick());
            demo.async_events[i] = match demo.async_events[i] {
                AsyncEvent::Reschedule { .. } => AsyncEvent::Reschedule { tick },
                AsyncEvent::SignalWakeup { tid, .. } => AsyncEvent::SignalWakeup { tid, tick },
            };
            ("ASYNC", i as u64 + 1)
        }
    }
}

proptest! {
    #[test]
    fn u64_export_expands_to_its_input(values in proptest::collection::vec(0u64..10_000, 0..200)) {
        let enc = rle::encode_u64s(values.iter().copied());
        prop_assert_eq!(expand_u64s(&enc), values);
    }

    #[test]
    fn u64_export_expands_to_its_input_at_extremes(values in proptest::collection::vec(0u64..=u64::MAX / 2, 0..50)) {
        let enc = rle::encode_u64s(values.iter().copied());
        prop_assert_eq!(expand_u64s(&enc), values);
    }

    #[test]
    fn byte_export_expands_to_its_input(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        let enc = rle::encode_bytes(&data);
        prop_assert_eq!(expand_bytes(&enc), data);
    }

    #[test]
    fn byte_export_expands_runs(byte in any::<u8>(), n in 0usize..2000) {
        let data = vec![byte; n];
        let enc = rle::encode_bytes(&data);
        prop_assert_eq!(expand_bytes(&enc), data);
    }

    #[test]
    fn byte_codec_compresses_runs(byte in any::<u8>(), n in 256usize..2000) {
        let data = vec![byte; n];
        let enc = rle::encode_bytes(&data);
        // 3 bytes (6 hex chars) per 255-run.
        prop_assert!(enc.len() <= (n / 255 + 1) * 6 + 8);
    }

    /// Arbitrary (not recorder-shaped) streams roundtrip through the
    /// binary map.
    #[test]
    fn demo_roundtrips(
        seeds in (any::<u64>(), any::<u64>()),
        first in proptest::collection::vec(0u64..1000, 0..8),
        ticks in proptest::collection::vec(0u64..1000, 0..64),
        signals in proptest::collection::vec((0u32..8, 0u64..1000, 1i32..32), 0..10),
        alloc in proptest::collection::vec(0u64..1_000_000, 0..32),
        bufs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..4),
    ) {
        let mut demo = Demo::new(DemoHeader::new("tsan11rec", "queue", [seeds.0, seeds.1]));
        demo.queue = Arc::new(QueueStream::new(first, ticks));
        demo.signals = signals
            .into_iter()
            .map(|(tid, tick, signo)| SignalEvent { tid, tick, signo })
            .collect();
        demo.alloc = Arc::new(alloc);
        demo.async_events = vec![
            AsyncEvent::Reschedule { tick: 3 },
            AsyncEvent::SignalWakeup { tid: 1, tick: 9 },
        ];
        demo.syscalls = Arc::new([SyscallRecord {
            seq: 0,
            tid: 2,
            tick: 17,
            kind: "recvmsg".into(),
            ret: -1,
            errno: 11,
            bufs,
        }].into_iter().collect());
        prop_assert_eq!(Demo::from_bytes_map(&demo.to_bytes_map()).unwrap(), demo);
    }

    /// Any demo shaped like a real recording lints clean.
    #[test]
    fn schedule_shaped_demos_lint_clean(demo in valid_demo()) {
        let diags = srr_analysis::lint_demo(&demo);
        prop_assert!(diags.is_empty(), "clean demo flagged: {:?}\n{:?}", diags, demo);
    }

    /// Breaking one invariant of a recorder-shaped demo gives exactly
    /// one diagnostic, at the broken stream and entry.
    #[test]
    fn one_broken_invariant_is_flagged_at_its_entry(
        demo in valid_demo(),
        pick in any::<usize>(),
        wiggle in any::<u64>(),
    ) {
        let options = breaks(&demo);
        let b = options[pick % options.len()];
        let mut broken = demo.clone();
        let (stream, entry) = apply(&mut broken, b, wiggle);
        let diags = srr_analysis::lint_demo(&broken);
        prop_assert_eq!(diags.len(), 1, "{:?}: {:?}", b, diags);
        prop_assert_eq!(
            (diags[0].stream.as_str(), diags[0].entry),
            (stream, entry),
            "{:?}: {}", b, diags[0]
        );
    }
}

// ---------------------------------------------------------------------------
// Binary codec properties: the framed format must roundtrip on the same
// arbitrary inputs, and the text export must be a function of the
// decoded demo alone.

proptest! {
    /// Arbitrary recorded-shaped demos roundtrip through the binary map.
    #[test]
    fn binary_codec_roundtrips(demo in valid_demo()) {
        let map = demo.to_bytes_map();
        prop_assert_eq!(Demo::from_bytes_map(&map).unwrap(), demo);
    }

    /// The binary round trip keeps the text export byte for byte.
    #[test]
    fn binary_round_trip_keeps_the_text_export(demo in valid_demo()) {
        let back = Demo::from_bytes_map(&demo.to_bytes_map()).unwrap();
        prop_assert_eq!(back.to_string_map(), demo.to_string_map());
    }

    /// Schedules synthesized via `QueueStream::from_order` /
    /// `Demo::from_schedule` (the witness-synthesis path) survive the
    /// binary codec for arbitrary thread counts and tick orders.
    #[test]
    fn from_schedule_roundtrips_through_binary(
        nthreads in 1usize..8,
        picks in proptest::collection::vec(any::<u32>(), 0..60),
    ) {
        // Dense ticks 1..=n assigned to arbitrary threads, the shape
        // `from_schedule` documents.
        let order: Vec<(u32, u64)> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| (p % nthreads as u32, (i + 1) as u64))
            .collect();
        let demo = Demo::from_schedule(
            DemoHeader::new("tsan11rec", "queue", [3, 11]),
            &order,
            nthreads,
        );
        prop_assert_eq!(
            &*demo.queue,
            &QueueStream::from_order(&order, nthreads),
            "from_schedule must delegate to from_order"
        );
        let back = Demo::from_bytes_map(&demo.to_bytes_map()).unwrap();
        prop_assert_eq!(&back, &demo);
        // The replay cursor semantics ride on the QUEUE stream alone;
        // byte-level equality of the re-encoded stream pins it.
        prop_assert_eq!(back.queue, demo.queue);
    }

    /// The recorder's in-place builder, fed one critical section at a
    /// time, writes the reference stream; `from_order` builds it from
    /// its schedule too, so `from_order(s.schedule_order(), n) == s`.
    #[test]
    fn queue_builder_matches_reference(
        nthreads in 1usize..8,
        picks in proptest::collection::vec(any::<u32>(), 0..200),
    ) {
        let order: Vec<usize> = picks.iter().map(|&p| p as usize % nthreads).collect();
        let reference = reference_queue(nthreads, &order);
        let mut builder = QueueBuilder::default();
        for (idx, &tid) in order.iter().enumerate() {
            builder.push(tid as u32, (idx + 1) as u64);
        }
        prop_assert_eq!(&builder.finish(nthreads), &reference);
        let schedule = reference.schedule_order();
        let expected: Vec<(u32, u64)> = order
            .iter()
            .enumerate()
            .map(|(idx, &tid)| (tid as u32, (idx + 1) as u64))
            .collect();
        prop_assert_eq!(&schedule, &expected);
        prop_assert_eq!(&QueueStream::from_order(&schedule, nthreads), &reference);
    }
}

// ---------------------------------------------------------------------------
// The binary codec: every field round-trips whatever its values. The deltas
// wrap, so non-monotone and extreme sequences are as lossless as recorded
// ones.

/// A `u64` biased to the edges: 0, `u64::MAX`, small, or anything.
fn edgy_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(u64::MAX), 0u64..64, any::<u64>()]
}

fn edgy_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0),
        Just(i64::MIN),
        Just(i64::MAX),
        -64i64..64,
        any::<i64>()
    ]
}

fn any_syscall() -> impl Strategy<Value = SyscallRecord> {
    (
        (edgy_u64(), any::<u32>(), edgy_u64()),
        prop_oneof![Just("recv"), Just("poll"), Just(""), Just("sendmsg")],
        edgy_i64(),
        any::<i32>(),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..3),
    )
        .prop_map(|((seq, tid, tick), kind, ret, errno, bufs)| SyscallRecord {
            seq,
            tid,
            tick,
            kind: kind.to_owned(),
            ret,
            errno,
            bufs,
        })
}

/// A demo with every stream filled from arbitrary, unordered values.
fn any_demo() -> impl Strategy<Value = Demo> {
    (
        (edgy_u64(), edgy_u64()),
        (
            proptest::collection::vec(edgy_u64(), 0..6),
            proptest::collection::vec(edgy_u64(), 0..80),
        ),
        proptest::collection::vec((any::<u32>(), edgy_u64(), any::<i32>()), 0..8),
        proptest::collection::vec(any_syscall(), 0..12),
        proptest::collection::vec((any::<bool>(), any::<u32>(), edgy_u64()), 0..8),
        proptest::collection::vec(edgy_u64(), 0..40),
    )
        .prop_map(|(seeds, (first, next), signals, syscalls, asyncs, alloc)| {
            let mut demo = Demo::new(DemoHeader::new("tsan11rec", "queue", [seeds.0, seeds.1]));
            demo.queue = Arc::new(QueueStream::new(first, next));
            demo.signals = signals
                .into_iter()
                .map(|(tid, tick, signo)| SignalEvent { tid, tick, signo })
                .collect();
            demo.syscalls = Arc::new(syscalls.into_iter().collect());
            demo.async_events = asyncs
                .into_iter()
                .map(|(resched, tid, tick)| {
                    if resched {
                        AsyncEvent::Reschedule { tick }
                    } else {
                        AsyncEvent::SignalWakeup { tid, tick }
                    }
                })
                .collect();
            demo.alloc = Arc::new(alloc);
            demo
        })
}

/// `v` repeated `n` times.
fn cycled<T: Clone>(v: &[T], n: usize) -> Vec<T> {
    v.iter().cloned().cycle().take(v.len() * n).collect()
}

/// An arbitrary demo with every stream repeated `n` times over: the
/// packing folds its longer streams.
fn repetitive_demo() -> impl Strategy<Value = Demo> {
    (any_demo(), 2usize..60).prop_map(|(mut demo, n)| {
        let next: Vec<u64> = demo.queue.next_ticks().collect();
        demo.queue = Arc::new(QueueStream::new(
            demo.queue.first_tick.clone(),
            cycled(&next, n),
        ));
        demo.signals = cycled(&demo.signals, n);
        demo.syscalls = Arc::new(cycled(&records(&demo), n).into_iter().collect());
        demo.async_events = cycled(&demo.async_events, n);
        demo.alloc = Arc::new(cycled(&demo.alloc, n));
        demo
    })
}

proptest! {
    /// Arbitrary demos — any values, in any order — round-trip.
    #[test]
    fn codec_roundtrips_arbitrary_demos(demo in any_demo()) {
        let map = demo.to_bytes_map();
        prop_assert_eq!(Demo::from_bytes_map(&map).unwrap(), demo);
    }

    /// Repetitive demos round-trip through their packed frames, and the
    /// binary encoding is canonical: re-encoding reproduces the bytes.
    #[test]
    fn codec_roundtrips_packed_frames(demo in repetitive_demo()) {
        let map = demo.to_bytes_map();
        let back = Demo::from_bytes_map(&map).unwrap();
        prop_assert_eq!(&back, &demo);
        prop_assert_eq!(back.to_bytes_map(), map);
    }
}

// ---------------------------------------------------------------------------
// Packing: a frame's payload is stored plain or as one DEFLATE block,
// whichever is smaller, and a packed one never asks the decoder for more
// than `MAX_EXPANSION` raw bytes per packed byte.

/// A few bytes cycled `n` times, with a few bytes overwritten.
fn repetitive_payload() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(any::<u8>(), 1..40),
        1usize..400,
        proptest::collection::vec((any::<usize>(), any::<u8>()), 0..20),
    )
        .prop_map(|(unit, n, noise)| {
            let mut p = cycled(&unit, n);
            for (i, b) in noise {
                let k = i % p.len();
                p[k] = b;
            }
            p
        })
}

fn any_payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..600),
        proptest::collection::vec(0u8..4, 0..2000),
        repetitive_payload(),
    ]
}

/// The bytes of `payload`'s frame stored plain.
fn plain_frame_len(payload: &[u8]) -> usize {
    let mut len = Vec::new();
    write_varint(&mut len, payload.len() as u64);
    4 + 1 + 1 + len.len() + payload.len() + 8
}

/// A packed frame's declared raw length and the block bytes after it.
fn packed_body(frame: &[u8]) -> (u64, usize) {
    let mut cur = Cursor::new(&frame[6..]);
    let body_len = cur.read_varint("payload length").unwrap() as usize;
    let at = cur.pos();
    let raw_len = cur.read_varint("raw length").unwrap();
    (raw_len, body_len - (cur.pos() - at))
}

proptest! {
    /// Arbitrary and repetitive payloads round-trip through their frames.
    #[test]
    fn payloads_roundtrip_through_frames(payload in any_payload()) {
        let frame = encode_frame(StreamId::Syscall, &payload);
        let parsed = parse_frame(&frame).unwrap();
        prop_assert_eq!(parsed.stream, StreamId::Syscall);
        prop_assert_eq!(&*parsed.payload, payload.as_slice());
        prop_assert_eq!(encode_frame(StreamId::Syscall, &parsed.payload), frame);
    }

    /// A packed frame is smaller than the plain one; otherwise the payload
    /// is stored plain.
    #[test]
    fn packed_frames_are_never_larger(payload in any_payload()) {
        let frame = encode_frame(StreamId::Syscall, &payload);
        if frame[5] & PACKED != 0 {
            prop_assert!(frame.len() < plain_frame_len(&payload));
        } else {
            prop_assert_eq!(frame.len(), plain_frame_len(&payload));
        }
    }

    /// Every packed frame declares at most `MAX_EXPANSION` raw bytes per
    /// block byte, so the decoder's bound never refuses what the encoder
    /// wrote, even for a long run of one byte.
    #[test]
    fn packed_frames_stay_within_max_expansion(
        payload in prop_oneof![any_payload(), (any::<u8>(), 64usize..100_000).prop_map(|(b, n)| vec![b; n])],
    ) {
        let frame = encode_frame(StreamId::Syscall, &payload);
        if frame[5] & PACKED != 0 {
            let (raw_len, block) = packed_body(&frame);
            prop_assert_eq!(raw_len, payload.len() as u64);
            prop_assert!(raw_len <= MAX_EXPANSION * block as u64, "{} raw bytes in {}", raw_len, block);
        }
    }
}

#[test]
fn extreme_sequences_roundtrip_and_pack() {
    // Non-monotone, wrapping sequences in every delta-coded field.
    let wild = [0, u64::MAX, 1, u64::MAX - 1, 0, 1 << 63, 5, 3, u64::MAX, 0];
    let mut demo = Demo::new(DemoHeader::new("tsan11rec", "queue", [0, u64::MAX]));
    demo.queue = Arc::new(QueueStream::new(wild.to_vec(), wild.repeat(30)));
    demo.alloc = Arc::new(wild.repeat(30));
    demo.signals = wild
        .iter()
        .map(|&tick| SignalEvent {
            tid: u32::MAX,
            tick,
            signo: i32::MIN,
        })
        .collect();
    demo.async_events = wild
        .iter()
        .map(|&tick| AsyncEvent::SignalWakeup { tid: 0, tick })
        .collect();
    demo.syscalls = Arc::new(
        wild.iter()
            .zip(wild.iter().rev())
            .map(|(&seq, &tick)| SyscallRecord {
                seq,
                tid: 7,
                tick,
                kind: "recv".into(),
                ret: i64::MIN,
                errno: i32::MAX,
                bufs: vec![b"GET /item/7 HTTP/1.1\n".to_vec(); 3],
            })
            .collect(),
    );
    let map = demo.to_bytes_map();
    assert_eq!(Demo::from_bytes_map(&map).unwrap(), demo);
    for file in ["QUEUE", "ALLOC", "SYSCALL"] {
        // The stream-id byte, after the magic and the one-byte version.
        assert_eq!(map[file][5] & PACKED, PACKED, "{file} repeats");
    }
}

#[test]
fn v1_frames_fail_with_unsupported_version() {
    // A v1 frame, valid down to its checksum: same magic, version 1.
    let mut frame = b"SRRB".to_vec();
    frame.extend_from_slice(&[1, 0, 1, 0]); // version 1, HEADER, empty payload
    let sum = fnv1a64(&frame[4..]);
    frame.extend_from_slice(&sum.to_le_bytes());
    assert!(matches!(
        parse_frame(&frame),
        Err(CodecError::UnsupportedVersion(1))
    ));
    let map = [("HEADER".to_owned(), frame)].into_iter().collect();
    match Demo::from_bytes_map(&map) {
        Err(DemoLoadError::Codec { file, err }) => {
            assert_eq!(file, "HEADER");
            assert_eq!(err, CodecError::UnsupportedVersion(1));
        }
        other => panic!("expected UnsupportedVersion(1), got {other:?}"),
    }
}
