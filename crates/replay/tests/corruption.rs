//! Corruption battery for the binary demo codec, run against a full
//! demo with every stream populated: any truncation, any single-bit
//! flip, a wrong magic, an unknown codec version, and a crafted varint
//! overflow must all surface as typed [`DemoLoadError`]s — never a
//! panic, never a silently-wrong demo.
//!
//! The checksum makes the bit-flip guarantee exhaustive rather than
//! probabilistic: the fnv1a64 trailer covers every byte after the magic,
//! so a flip either breaks the magic ([`CodecError::BadMagic`]) or the
//! checksum, before any payload decoding is trusted.
//!
//! The checksum is no defence against a frame *crafted* with a valid
//! one, so the hostile-input battery below feeds such frames through
//! the loader and checks that each is a typed error reached without
//! allocating more than its size justifies. A counting
//! allocator measures what the decoding thread allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use srr_replay::codec::{
    fnv1a64, write_varint, CODEC_VERSION, MAX_EXPANSION, MAX_KIND_LEN, MAX_QUEUE_TICKS,
    MAX_RAW_LEN, PACKED,
};
use srr_replay::{
    AsyncEvent, CodecError, Demo, DemoHeader, DemoLoadError, QueueStream, SignalEvent, StreamId,
    SyscallRecord,
};

thread_local! {
    /// Bytes this thread has asked the allocator for, ever.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn note(bytes: usize) {
    // `try_with`: the slot is gone while the thread exits.
    let _ = ALLOCATED.try_with(|a| a.set(a.get().saturating_add(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor
// touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the bytes it allocated.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// A demo exercising every stream and every payload encoder: periodic
/// and broken queue runs, interned and distinct syscall kinds,
/// compressible and incompressible buffers. Its QUEUE and SYSCALL
/// payloads are stored LZ77-packed, its HEADER and ASYNC ones plain
/// (`full_demo_has_packed_and_plain_frames`).
fn full_demo() -> Demo {
    let mut demo = Demo::new(DemoHeader::new("tsan11rec", "queue", [7, 40398]));
    demo.queue = Arc::new(QueueStream::new(
        vec![1, 2, 9],
        (0..200).map(|i| if i % 7 == 0 { 0 } else { i + 3 }),
    ));
    demo.signals = (0..10)
        .map(|i| SignalEvent {
            tid: i % 3,
            tick: u64::from(i) * 5 + 1,
            signo: 10 + i as i32 % 3,
        })
        .collect();
    demo.syscalls = Arc::new(
        (0..25)
            .map(|i| SyscallRecord {
                seq: i,
                tid: (i % 4) as u32,
                tick: i * 3 + 2,
                kind: if i % 2 == 0 { "recvmsg" } else { "poll" }.to_owned(),
                ret: if i % 5 == 0 { -1 } else { i as i64 },
                errno: if i % 5 == 0 { 11 } else { 0 },
                bufs: vec![vec![0xAB; 64], (0..64u8).collect()],
            })
            .collect(),
    );
    demo.async_events = vec![
        AsyncEvent::Reschedule { tick: 4 },
        AsyncEvent::SignalWakeup { tid: 2, tick: 19 },
    ];
    demo.alloc = Arc::new((0..64).map(|i| 0x1000 + i * 16).collect());
    demo
}

fn load(map: &BTreeMap<String, Vec<u8>>) -> Result<Demo, DemoLoadError> {
    Demo::from_bytes_map(map)
}

#[test]
fn every_truncation_of_every_stream_is_rejected() {
    let demo = full_demo();
    let map = demo.to_bytes_map();
    for (file, bytes) in &map {
        for keep in 0..bytes.len() {
            let mut m = map.clone();
            m.insert(file.clone(), bytes[..keep].to_vec());
            let got = load(&m);
            // An empty non-HEADER file is a legitimately absent stream;
            // everything else must be a typed load error.
            if keep == 0 && file != "HEADER" {
                let d = got.unwrap_or_else(|e| panic!("{file} empty = absent: {e}"));
                assert!(
                    demo != d,
                    "{file}: emptying a populated stream must change the demo"
                );
                continue;
            }
            // An empty HEADER is an absent one. Truncating below the
            // 4-byte magic leaves a bad magic; either way the codec
            // rejects it, typed, blaming the file.
            let err = got.unwrap_err();
            assert!(
                matches!(&err, DemoLoadError::Codec { file: f, .. } if f == file)
                    || (keep == 0 && matches!(err, DemoLoadError::MissingHeader)),
                "{file} truncated to {keep} bytes: wrong error {err}"
            );
        }
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    let map = full_demo().to_bytes_map();
    for (file, bytes) in &map {
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = map.clone();
                m.get_mut(file).unwrap()[pos] ^= 1 << bit;
                let err = load(&m).expect_err("flip undetected");
                // Flips inside the 4-byte magic are a bad magic, the
                // rest a checksum mismatch: both typed codec errors.
                match err {
                    DemoLoadError::Codec { file: f, .. } => {
                        assert_eq!(&f, file, "error blames the corrupted file")
                    }
                    other => panic!("{file} byte {pos} bit {bit}: unexpected {other}"),
                }
            }
        }
    }
}

#[test]
fn bad_magic_and_unknown_version_are_typed() {
    let map = full_demo().to_bytes_map();
    let queue = map.get("QUEUE").unwrap();

    // A wholly different magic.
    let mut m = map.clone();
    m.insert("QUEUE".to_owned(), {
        let mut b = queue.clone();
        b[..4].copy_from_slice(b"NOPE");
        b
    });
    match load(&m).unwrap_err() {
        DemoLoadError::Codec {
            file,
            err: CodecError::BadMagic { found },
        } => assert_eq!((file.as_str(), &found), ("QUEUE", b"NOPE")),
        other => panic!("foreign magic: unexpected {other}"),
    }

    // The real magic with a from-the-future codec version.
    let mut b = queue.clone();
    b[4] = 0x7F; // varint 127 where CODEC_VERSION=2 lives
    let mut m = map.clone();
    m.insert("QUEUE".to_owned(), b);
    match load(&m).unwrap_err() {
        DemoLoadError::Codec { file, err } => {
            assert_eq!(file, "QUEUE");
            // The checksum no longer matches the rewritten byte, and
            // both rejections are acceptable orderings; what matters is
            // the typed error, not which guard fired first.
            assert!(
                matches!(err, CodecError::UnsupportedVersion(127))
                    || matches!(err, CodecError::ChecksumMismatch { .. }),
                "unexpected codec error: {err}"
            );
        }
        other => panic!("unexpected {other}"),
    }
}

#[test]
fn a_stream_file_holding_its_text_rendering_is_bad_magic() {
    // The text export is not a load format: each of its files is
    // refused by the codec, naming that file.
    let demo = full_demo();
    let text = demo.to_string_map();
    for (file, rendering) in &text {
        let mut m = demo.to_bytes_map();
        m.insert(file.clone(), rendering.clone().into_bytes());
        match load(&m).unwrap_err() {
            DemoLoadError::Codec {
                file: f,
                err: CodecError::BadMagic { found },
            } => {
                assert_eq!(&f, file);
                assert_eq!(&found[..], &rendering.as_bytes()[..4]);
            }
            other => panic!("{file} as text: unexpected {other}"),
        }
    }
}

#[test]
fn crafted_varint_overflow_is_typed() {
    // An 11-byte all-continuation varint can encode no u64; splice one in
    // as the payload length, with a freshly valid checksum so the frame
    // itself passes and the varint reader is what must object.
    let mut frame = Vec::new();
    frame.extend_from_slice(b"SRRB");
    write_varint(&mut frame, CODEC_VERSION);
    frame.push(1); // stream id: QUEUE
    frame.extend_from_slice(&[0xFF; 10]); // overflowing varint
    let crc = srr_replay::codec::fnv1a64(&frame[4..]);
    frame.extend_from_slice(&crc.to_le_bytes());

    let mut map = full_demo().to_bytes_map();
    map.insert("QUEUE".to_owned(), frame);
    match load(&map).unwrap_err() {
        DemoLoadError::Codec { file, err } => {
            assert_eq!(file, "QUEUE");
            assert!(
                matches!(err, CodecError::VarintOverflow { .. }),
                "unexpected codec error: {err}"
            );
        }
        other => panic!("unexpected {other}"),
    }
}

#[test]
fn corrupt_demos_never_load_equal() {
    // Paranoia sweep: across every corruption mode above, no mutated map
    // may ever load back *equal* to the original (a load error or a
    // different demo are both fine; silent equality is the one disaster).
    let demo = full_demo();
    let map = demo.to_bytes_map();
    for (file, bytes) in &map {
        for pos in (0..bytes.len()).step_by(7) {
            let mut m = map.clone();
            m.get_mut(file).unwrap()[pos] ^= 0x10;
            if let Ok(loaded) = load(&m) {
                assert_ne!(loaded, demo, "{file} byte {pos}: corruption loaded equal");
            }
        }
    }
}

#[test]
fn full_demo_has_packed_and_plain_frames() {
    let map = full_demo().to_bytes_map();
    // The stream-id byte, after the magic and the one-byte version.
    let packed = |file: &str| map[file][5] & PACKED != 0;
    for file in ["QUEUE", "SYSCALL"] {
        assert!(packed(file), "{file} should be stored packed");
    }
    for file in ["HEADER", "ASYNC"] {
        assert!(!packed(file), "{file} should be stored plain");
    }
}

// ---------------------------------------------------------------------
// Hostile input: crafted frames with valid checksums whose few bytes
// ask for unbounded output.

/// A frame with stream-id byte `id` around `payload` and a valid
/// checksum, so that only the payload decoder stands in its way.
fn frame(version: u64, id: u8, payload: &[u8]) -> Vec<u8> {
    let mut f = b"SRRB".to_vec();
    write_varint(&mut f, version);
    f.push(id);
    write_varint(&mut f, payload.len() as u64);
    f.extend_from_slice(payload);
    let sum = fnv1a64(&f[4..]);
    f.extend_from_slice(&sum.to_le_bytes());
    f
}

/// A packed payload: declared raw length, then LZ77 sequences.
fn packed(raw_len: u64, sequences: &[u8]) -> Vec<u8> {
    let mut p = Vec::new();
    write_varint(&mut p, raw_len);
    p.extend_from_slice(sequences);
    p
}

/// Appends the LZ77 extension bytes of a length whose token nibble is
/// `len.min(15)`.
fn push_len_ext(out: &mut Vec<u8>, len: usize) {
    if len >= 15 {
        let mut rest = len - 15;
        while rest >= 255 {
            out.push(255);
            rest -= 255;
        }
        out.push(rest as u8);
    }
}

/// `payload` framed as stream `id` twice: stored plain, and stored
/// packed as one LZ77 literal run.
fn plain_and_packed(id: StreamId, payload: &[u8]) -> [Vec<u8>; 2] {
    let mut run = vec![(payload.len().min(15) as u8) << 4];
    push_len_ext(&mut run, payload.len());
    run.extend_from_slice(payload);
    [
        frame(CODEC_VERSION, id as u8, payload),
        frame(
            CODEC_VERSION,
            id as u8 | PACKED,
            &packed(payload.len() as u64, &run),
        ),
    ]
}

/// Loads the full demo with `file` replaced by `bytes` and returns the
/// error, checking that the load allocated at most 4 KiB beyond what
/// decoding the other streams costs.
fn rejected(file: &str, bytes: Vec<u8>) -> DemoLoadError {
    let mut map = full_demo().to_bytes_map();
    map.remove(file);
    let (_, baseline) = allocated_by(|| load(&map));
    map.insert(file.to_owned(), bytes);
    let (got, used) = allocated_by(|| load(&map));
    let err = got.expect_err("a hostile stream must not load");
    assert!(
        used <= baseline + 4096,
        "{file}: rejecting it allocated {used} bytes (baseline {baseline})"
    );
    err
}

fn codec_err(file: &str, bytes: Vec<u8>) -> CodecError {
    match rejected(file, bytes) {
        DemoLoadError::Codec { file: f, err } => {
            assert_eq!(f, file);
            err
        }
        other => panic!("{file}: expected a codec error, got {other}"),
    }
}

const QUEUE: u8 = StreamId::Queue as u8;

#[test]
fn lz77_distance_outside_the_output_is_typed() {
    // One literal byte, then a match at distance 0, and at distance 2
    // (one past the single byte decoded).
    for dist in [0u8, 2] {
        let payload = packed(8, &[0x10, 0, dist]);
        let err = codec_err("QUEUE", frame(CODEC_VERSION, QUEUE | PACKED, &payload));
        assert!(
            matches!(&err, CodecError::Invalid { what, .. } if what.contains("distance")),
            "distance {dist}: {err}"
        );
    }
}

#[test]
fn lz77_match_past_the_declared_length_is_typed() {
    // One literal and a 4-byte match cannot fit in 4 declared bytes.
    let payload = packed(4, &[0x10, 0, 1]);
    let err = codec_err("QUEUE", frame(CODEC_VERSION, QUEUE | PACKED, &payload));
    assert!(
        matches!(&err, CodecError::Invalid { what, .. } if what.contains("past the declared")),
        "{err}"
    );
}

#[test]
fn declared_raw_length_above_the_cap_is_typed() {
    // Enough sequence bytes that the 255x bound alone would allow it:
    // the 64 MiB cap is what must refuse.
    let body = vec![0u8; MAX_RAW_LEN / MAX_EXPANSION as usize + 1];
    let payload = packed(MAX_RAW_LEN as u64 + 1, &body);
    let err = codec_err("QUEUE", frame(CODEC_VERSION, QUEUE | PACKED, &payload));
    assert_eq!(
        err,
        CodecError::TooLarge {
            what: "packed raw length",
            declared: MAX_RAW_LEN as u64 + 1,
            limit: MAX_RAW_LEN as u64,
            offset: 0,
        }
    );
    // Below the cap, a length no sequence run of that size can produce
    // is refused as well: three bytes expand to at most 765.
    let payload = packed(766, &[0x10, 0, 1]);
    let err = codec_err("QUEUE", frame(CODEC_VERSION, QUEUE | PACKED, &payload));
    assert!(
        matches!(
            err,
            CodecError::TooLarge {
                declared: 766,
                limit: 765,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn element_counts_above_the_bytes_left_are_typed() {
    // `prefix`, then a count of `declared`, then `left` zero bytes.
    let count = |prefix: &[u8], declared: u64, left: usize| {
        let mut p = prefix.to_vec();
        write_varint(&mut p, declared);
        p.resize(p.len() + left, 0);
        p
    };
    let huge = 1 << 40;
    // One kind `k`, then eight records (seq .. errno columns all zero)
    // each declaring 100 buffers, with 100 bytes left: every buffer
    // count fits alone, not all of them together.
    let mut buffers = vec![1, 1, b'k', 8];
    buffers.resize(buffers.len() + 6 * 8, 0);
    buffers.extend([100; 8]);
    buffers.resize(buffers.len() + 100, 0);
    let cases = [
        // QUEUE: no first ticks, then 2^40 runs in 8 bytes.
        ("QUEUE", StreamId::Queue, count(&[0], huge, 8), huge),
        ("ALLOC", StreamId::Alloc, count(&[], huge, 8), huge),
        ("SIGNAL", StreamId::Signal, count(&[], huge, 8), huge),
        ("ASYNC", StreamId::Async, count(&[], huge, 8), huge),
        // SYSCALL: an empty kind table, then 2^40 records.
        ("SYSCALL", StreamId::Syscall, count(&[0], huge, 8), huge),
        // SYSCALL: one kind `k`, one record whose one buffer claims 2^40
        // bytes.
        (
            "SYSCALL",
            StreamId::Syscall,
            count(&[1, 1, b'k', 1, 0, 0, 0, 0, 0, 0, 1], huge, 8),
            huge,
        ),
        // A count equal to the bytes left passes at one byte an element,
        // but a syscall record takes at least seven (one per column), a
        // signal three and an async event two.
        ("SYSCALL", StreamId::Syscall, count(&[0], 1000, 1000), 1000),
        ("SIGNAL", StreamId::Signal, count(&[], 1000, 1000), 1000),
        ("ASYNC", StreamId::Async, count(&[], 1000, 1000), 1000),
        ("SYSCALL", StreamId::Syscall, buffers, 800),
    ];
    for (file, id, payload, want) in cases {
        for bytes in plain_and_packed(id, &payload) {
            let err = codec_err(file, bytes);
            assert!(
                matches!(err, CodecError::TooLarge { declared, .. } if declared == want),
                "{file}: {err}"
            );
        }
    }
}

#[test]
fn syscall_kind_names_above_the_cap_are_typed() {
    // Every record decodes to its own copy of its kind name, so one long
    // name and many records referring to it would cost their product.
    let records = 400;
    let mut payload = vec![1];
    write_varint(&mut payload, MAX_KIND_LEN as u64 + 1);
    payload.resize(payload.len() + MAX_KIND_LEN + 1, b'k');
    write_varint(&mut payload, records as u64);
    payload.resize(payload.len() + 7 * records, 0);
    for bytes in plain_and_packed(StreamId::Syscall, &payload) {
        let err = codec_err("SYSCALL", bytes);
        assert_eq!(
            err,
            CodecError::TooLarge {
                what: "syscall kind length",
                declared: MAX_KIND_LEN as u64 + 1,
                limit: MAX_KIND_LEN as u64,
                offset: 1,
            }
        );
    }
}

#[test]
fn v1_and_v2_frames_are_refused_unread() {
    // The v1 token layer let this 23-byte QUEUE frame, checksum valid,
    // decode to 2^27 next ticks (1 GiB): no first ticks, then one
    // repeat token of the value 0, 2^27 times.
    let mut payload = vec![0, 1, 2, 0];
    write_varint(&mut payload, 1 << 27);
    let bomb = frame(1, QUEUE, &payload);
    assert_eq!(bomb.len(), 23);
    assert_eq!(codec_err("QUEUE", bomb), CodecError::UnsupportedVersion(1));
    // v2 coded a next tick a byte: no first ticks, three zero deltas.
    let v2 = frame(2, QUEUE, &[0, 3, 0, 0, 0]);
    assert_eq!(codec_err("QUEUE", v2), CodecError::UnsupportedVersion(2));
}

#[test]
fn hostile_queue_runs_are_typed() {
    // No first ticks, then `runs` as (step, length) pairs.
    let queue = |runs: &[(u64, u64)]| {
        let mut p = vec![0];
        write_varint(&mut p, runs.len() as u64);
        for &(step, len) in runs {
            write_varint(&mut p, step);
            write_varint(&mut p, len);
        }
        p
    };
    let max = MAX_QUEUE_TICKS;
    // The tick limit itself loads, from a few bytes and with no
    // allocation per tick.
    let mut map = full_demo().to_bytes_map();
    map.remove("QUEUE");
    let (_, baseline) = allocated_by(|| load(&map));
    let [bytes, _] = plain_and_packed(StreamId::Queue, &queue(&[(1, max - 1), (0, 1)]));
    map.insert("QUEUE".to_owned(), bytes);
    let (demo, used) = allocated_by(|| load(&map));
    assert_eq!(demo.unwrap().queue.ticks(), max);
    assert!(
        used <= baseline + 4096,
        "{used} bytes (baseline {baseline})"
    );

    let at_third_varint = 3;
    for (runs, want) in [
        // Lengths summing past the limit, or past u64::MAX.
        (
            vec![(1, max), (2, 1)],
            CodecError::TooLarge {
                what: "QUEUE tick total",
                declared: max + 1,
                limit: max,
                offset: 9,
            },
        ),
        (
            vec![(1, 1), (2, u64::MAX)],
            CodecError::TooLarge {
                what: "QUEUE tick total",
                declared: u64::MAX,
                limit: max,
                offset: 5,
            },
        ),
        // A run of no sections.
        (
            vec![(1, 0)],
            CodecError::Invalid {
                what: "QUEUE run of no sections".into(),
                offset: at_third_varint,
            },
        ),
        // Two adjacent runs of one step: one run, written twice.
        (
            vec![(1, 5), (3, 1), (3, 2)],
            CodecError::Invalid {
                what: "QUEUE run repeats the step 3 of the run before it".into(),
                offset: 6,
            },
        ),
    ] {
        for bytes in plain_and_packed(StreamId::Queue, &queue(&runs)) {
            assert_eq!(codec_err("QUEUE", bytes), want, "{runs:?}");
        }
    }
    // A run count above what the bytes left can hold, at two bytes a
    // run, is refused before anything is reserved for it.
    let mut payload = vec![0];
    write_varint(&mut payload, 1 << 40);
    payload.extend([1, 1, 2, 1]);
    for bytes in plain_and_packed(StreamId::Queue, &payload) {
        assert_eq!(
            codec_err("QUEUE", bytes),
            CodecError::TooLarge {
                what: "QUEUE run count",
                declared: 1 << 40,
                limit: 2,
                offset: 1,
            }
        );
    }
}

/// A packed frame for stream `id` whose raw payload is `head` and then
/// `unit` repeated to `len` bytes, written as the head and one `unit` as
/// literals and one match at distance `unit.len()` whose length
/// extension is all 255s: as close to 255 raw bytes per packed byte as
/// a frame gets. Returns the frame and its raw length.
fn repeat_frame(id: StreamId, head: &[u8], unit: &[u8], len: usize) -> (Vec<u8>, usize) {
    let literals = head.len() + unit.len();
    let mut seq = vec![(literals.min(15) as u8) << 4 | 0x0F];
    push_len_ext(&mut seq, literals);
    seq.extend_from_slice(head);
    seq.extend_from_slice(unit);
    write_varint(&mut seq, unit.len() as u64); // distance: repeat the unit
    push_len_ext(&mut seq, len - unit.len() - 4);
    let raw_len = head.len() + len;
    let bytes = frame(
        CODEC_VERSION,
        id as u8 | PACKED,
        &packed(raw_len as u64, &seq),
    );
    (bytes, raw_len)
}

/// How many elements `file`'s stream decoded to (a syscall buffer
/// counts as one).
fn elements(demo: &Demo, file: &str) -> usize {
    match file {
        "QUEUE" => demo.queue.first_tick.len() + demo.queue.runs().len(),
        "ALLOC" => demo.alloc.len(),
        "SIGNAL" => demo.signals.len(),
        "ASYNC" => demo.async_events.len(),
        "SYSCALL" => demo.syscalls.iter().map(|r| 1 + r.bufs.len()).sum(),
        other => panic!("no elements in {other}"),
    }
}

#[test]
fn packed_frames_decode_within_25_bytes_per_raw_byte() {
    // The costliest stream each packed payload of ~255 KB can hold, all
    // zeros after a short head: a zero is a repeated address, a signal
    // or async event at the same tick, a syscall record of the one
    // kind, or an empty syscall buffer. QUEUE runs cannot repeat (no
    // zero length, no two adjacent runs of one step), so its payload
    // alternates runs of steps 1 and 2. Each loads; what it costs must
    // stay within the codec's stated bound of 24 bytes of allocation per
    // raw payload byte besides the inflated payload itself, so 25 x 255
    // per frame byte.
    let n = 255 * 1000;
    let varint = |v: usize| {
        let mut p = Vec::new();
        write_varint(&mut p, v as u64);
        p
    };
    let kind = "k".repeat(MAX_KIND_LEN);
    let mut kind_table = vec![1];
    kind_table.extend(varint(MAX_KIND_LEN));
    kind_table.extend_from_slice(kind.as_bytes());
    let one_record_of_empty_buffers =
        [kind_table.clone(), vec![1, 0, 0, 0, 0, 0, 0], varint(n)].concat();
    let cases = [
        (
            "QUEUE",
            StreamId::Queue,
            [vec![0], varint(n / 2)].concat(),
            &[1, 1, 2, 1][..],
            n,
            n / 2,
        ),
        ("ALLOC", StreamId::Alloc, varint(n), &[0], n, n),
        (
            "SIGNAL",
            StreamId::Signal,
            varint(n / 3),
            &[0],
            n / 3 * 3,
            n / 3,
        ),
        (
            "ASYNC",
            StreamId::Async,
            varint(n / 2),
            &[0],
            n / 2 * 2,
            n / 2,
        ),
        (
            "SYSCALL",
            StreamId::Syscall,
            [kind_table, varint(n / 7)].concat(),
            &[0],
            n / 7 * 7,
            n / 7,
        ),
        (
            "SYSCALL",
            StreamId::Syscall,
            one_record_of_empty_buffers,
            &[0],
            n,
            1 + n,
        ),
    ];
    for (file, id, head, unit, len, want) in cases {
        let (bytes, raw_len) = repeat_frame(id, &head, unit, len);
        assert!(raw_len >= 200 * bytes.len(), "{file}: {raw_len} raw bytes");
        let mut map = full_demo().to_bytes_map();
        map.remove(file);
        let (_, baseline) = allocated_by(|| load(&map));
        map.insert(file.to_owned(), bytes.clone());
        let (demo, used) = allocated_by(|| load(&map));
        let demo = demo.unwrap_or_else(|e| panic!("{file}: a well-formed frame loads: {e}"));
        assert_eq!(elements(&demo, file), want, "{file}");
        let extra = used - baseline;
        assert!(
            extra <= 25 * raw_len,
            "{file}: {raw_len} raw bytes in {} frame bytes allocated {extra}",
            bytes.len()
        );
    }
}
