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
/// payloads are stored packed, its HEADER and ASYNC ones plain
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

/// A packed payload: declared raw length, then a DEFLATE block.
fn packed(raw_len: u64, block: &[u8]) -> Vec<u8> {
    let mut p = Vec::new();
    write_varint(&mut p, raw_len);
    p.extend_from_slice(block);
    p
}

// A test-side writer for raw-DEFLATE blocks (RFC 1951), well formed or
// not, independent of the crate's encoder.

const LEN_BASE: [usize; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u32; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [usize; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const CL_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// An LSB-first bit writer.
#[derive(Default)]
struct Bits {
    out: Vec<u8>,
    acc: u64,
    n: u32,
}

impl Bits {
    fn put(&mut self, value: usize, count: u32) -> &mut Self {
        self.acc |= (value as u64) << self.n;
        self.n += count;
        while self.n >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.n -= 8;
        }
        self
    }

    /// A Huffman code, which goes most significant bit first.
    fn code(&mut self, (code, len): (usize, u32)) -> &mut Self {
        self.put((code as u32).reverse_bits() as usize >> (32 - len), len)
    }

    fn done(&mut self) -> Vec<u8> {
        if self.n > 0 {
            self.out.push(self.acc as u8);
        }
        std::mem::take(&mut self.out)
    }
}

/// The fixed code of literal/length symbol `sym` (RFC 1951 §3.2.6).
fn fixed(sym: usize) -> (usize, u32) {
    match sym {
        0..=143 => (0x30 + sym, 8),
        144..=255 => (0x190 + sym - 144, 9),
        256..=279 => (sym - 256, 7),
        _ => (0xC0 + sym - 280, 8),
    }
}

/// The symbol index, extra bits value and extra bit count of a match
/// length or distance.
fn length_code(len: usize) -> (usize, usize, u32) {
    let s = LEN_BASE.partition_point(|&b| b <= len) - 1;
    (s, len - LEN_BASE[s], LEN_EXTRA[s])
}

fn distance_code(dist: usize) -> (usize, usize, u32) {
    let s = DIST_BASE.partition_point(|&b| b <= dist) - 1;
    (s, dist - DIST_BASE[s], (s as u32 / 2).saturating_sub(1))
}

/// Canonical codes for `lens` (RFC 1951 §3.2.2).
fn canonical(lens: &[u32]) -> Vec<usize> {
    let mut count = [0usize; 16];
    for &l in lens.iter().filter(|&&l| l > 0) {
        count[l as usize] += 1;
    }
    let mut next = [0usize; 16];
    for len in 1..16 {
        next[len] = (next[len - 1] + count[len - 1]) << 1;
    }
    lens.iter()
        .map(|&l| {
            let c = next[l as usize];
            next[l as usize] += 1;
            c
        })
        .collect()
}

/// One element of a crafted fixed block.
#[derive(Clone, Copy)]
enum Tok {
    Lit(u8),
    /// A match: length, distance.
    Copy(usize, usize),
    /// A literal/length symbol, raw (the fixed code assigns 286-287).
    Sym(usize),
    /// A match of three at raw distance code `d` (the fixed code
    /// assigns 30-31).
    DistCode(usize),
    End,
}

/// A final block under the fixed code.
fn fixed_block(toks: &[Tok]) -> Vec<u8> {
    let mut b = Bits::default();
    b.put(0b011, 3);
    for &t in toks {
        match t {
            Tok::Lit(x) => b.code(fixed(usize::from(x))),
            Tok::Copy(len, dist) => {
                let (s, x, n) = length_code(len);
                b.code(fixed(257 + s)).put(x, n);
                let (s, x, n) = distance_code(dist);
                b.code((s, 5)).put(x, n)
            }
            Tok::Sym(sym) => b.code(fixed(sym)),
            Tok::DistCode(d) => b.code(fixed(257)).code((d, 5)),
            Tok::End => b.code(fixed(256)),
        };
    }
    b.done()
}

/// A complete code-length code over the symbols the crafted dynamic
/// headers use: 0 in two bits; 1, 2, 5, 16, 17 and 18 in three.
const CL: [u32; 19] = [2, 3, 3, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 3];

/// Starts a final dynamic block: HLIT and HDIST, the code-length code
/// `cl` (all 19 entries), then `lens`, code-length symbols with their
/// extra bits, coded by `cl`. The literal/length and distance codes the
/// lengths describe follow.
fn dynamic_header(
    b: &mut Bits,
    hlit: usize,
    hdist: usize,
    cl: &[u32; 19],
    lens: &[(usize, usize)],
) {
    b.put(0b101, 3)
        .put(hlit - 257, 5)
        .put(hdist - 1, 5)
        .put(15, 4);
    for s in CL_ORDER {
        b.put(cl[s] as usize, 3);
    }
    let codes = canonical(cl);
    for &(sym, extra) in lens {
        b.code((codes[sym], cl[sym]));
        match sym {
            16 => b.put(extra, 2),
            17 => b.put(extra, 3),
            18 => b.put(extra, 7),
            _ => b,
        };
    }
}

/// Code-length symbols, each with its extra bits value.
type ClSyms = Vec<(usize, usize)>;

/// Code-length symbols for `n` zero lengths.
fn zeros(mut n: usize) -> ClSyms {
    let mut out = Vec::new();
    while n >= 11 {
        let r = n.min(138);
        out.push((18, r - 11));
        n -= r;
    }
    if n >= 3 {
        out.push((17, n - 3));
        n = 0;
    }
    out.extend(std::iter::repeat_n((0, 0), n));
    out
}

/// Code-length symbols for 257 literal/length lengths: `a` for `'a'`,
/// `b` for `'b'`, `eob` for the end-of-block, zero elsewhere.
fn lit_lens(a: usize, b: usize, eob: usize) -> ClSyms {
    let mut out = zeros(97);
    out.extend([(a, 0), (b, 0)]);
    out.extend(zeros(256 - 99));
    out.push((eob, 0));
    out
}

/// `payload` framed as stream `id` twice: stored plain, and stored
/// packed as one fixed block of literals.
fn plain_and_packed(id: StreamId, payload: &[u8]) -> [Vec<u8>; 2] {
    let mut toks: Vec<Tok> = payload.iter().map(|&b| Tok::Lit(b)).collect();
    toks.push(Tok::End);
    [
        frame(CODEC_VERSION, id as u8, payload),
        frame(
            CODEC_VERSION,
            id as u8 | PACKED,
            &packed(payload.len() as u64, &fixed_block(&toks)),
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

/// The codec error of a packed QUEUE frame declaring `raw_len` raw
/// bytes and holding `block`.
fn block_err(raw_len: u64, block: &[u8]) -> CodecError {
    codec_err(
        "QUEUE",
        frame(CODEC_VERSION, QUEUE | PACKED, &packed(raw_len, block)),
    )
}

fn invalid_saying(err: &CodecError, words: &str) -> bool {
    matches!(err, CodecError::Invalid { what, .. } if what.contains(words))
}

#[test]
fn lz77_distance_outside_the_output_is_typed() {
    // A match before any byte is decoded, and one at distance 2 after a
    // single literal.
    for toks in [
        &[Tok::Copy(3, 1), Tok::End][..],
        &[Tok::Lit(0), Tok::Copy(3, 2), Tok::End],
    ] {
        let err = block_err(8, &fixed_block(toks));
        assert!(invalid_saying(&err, "distance"), "{err}");
    }
}

#[test]
fn lz77_match_past_the_declared_length_is_typed() {
    // One literal and a 4-byte match cannot fit in 4 declared bytes, nor
    // a third literal in 2.
    let err = block_err(4, &fixed_block(&[Tok::Lit(0), Tok::Copy(4, 1), Tok::End]));
    assert!(
        invalid_saying(&err, "match of 4 bytes runs past the declared raw length 4"),
        "{err}"
    );
    let abc = [Tok::Lit(b'a'), Tok::Lit(b'b'), Tok::Lit(b'c'), Tok::End];
    let err = block_err(2, &fixed_block(&abc));
    assert!(
        invalid_saying(&err, "literal runs past the declared raw length 2"),
        "{err}"
    );
}

#[test]
fn block_types_outside_the_subset_are_typed() {
    // BFINAL, then BTYPE: a stored block, a reserved one, and a fixed
    // block that is not the last.
    for (header, words) in [
        (0b001, "stored block"),
        (0b111, "reserved type 3"),
        (0b010, "not the final one"),
    ] {
        let block = Bits::default().put(header, 3).put(0, 13).done();
        let err = block_err(1, &block);
        assert!(
            matches!(&err, CodecError::Invalid { what, offset: 1 } if what.contains(words)),
            "{err}"
        );
    }
}

#[test]
fn bad_code_lengths_are_typed() {
    let ab = lit_lens(1, 1, 0);
    let cases: Vec<(usize, [u32; 19], ClSyms, &str)> = vec![
        // The code-length code itself: three one-bit codes, and one.
        (
            1,
            [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            vec![],
            "over-subscribed code length",
        ),
        (
            1,
            [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            vec![],
            "incomplete code length",
        ),
        // Literal/length codes: `a` in one bit and the end-of-block in
        // two leave a quarter of the code space unused; `a`, `b` and the
        // end-of-block in one bit each overfill it.
        (
            1,
            CL,
            [lit_lens(1, 0, 2), vec![(1, 0)]].concat(),
            "incomplete literal/length",
        ),
        (
            1,
            CL,
            [lit_lens(1, 1, 1), vec![(1, 0)]].concat(),
            "over-subscribed literal/length",
        ),
        // No end-of-block code at all.
        (
            1,
            CL,
            [ab.clone(), vec![(1, 0)]].concat(),
            "no end-of-block code",
        ),
        // Distance codes: three one-bit codes, and two two-bit codes
        // (incomplete, and not RFC 1951's single one-bit code).
        (
            3,
            CL,
            [lit_lens(1, 0, 1), vec![(1, 0); 3]].concat(),
            "over-subscribed distance",
        ),
        (
            2,
            CL,
            [lit_lens(1, 0, 1), vec![(2, 0); 2]].concat(),
            "incomplete distance",
        ),
        // A repeat of the previous length before there is one, and a
        // run of zeros past the 258 lengths.
        (1, CL, vec![(16, 0)], "repeat with no previous length"),
        (
            1,
            CL,
            [zeros(250), vec![(18, 0)]].concat(),
            "runs past the 258 lengths",
        ),
    ];
    for (hdist, cl, lens, words) in cases {
        let mut b = Bits::default();
        dynamic_header(&mut b, 257, hdist, &cl, &lens);
        let err = block_err(1, &b.put(0, 16).done());
        assert!(invalid_saying(&err, words), "{words}: {err}");
    }
}

#[test]
fn single_and_empty_distance_codes_load() {
    // RFC 1951's two incomplete distance codes: one one-bit code, and
    // none at all for a block of literals. `a` and the end-of-block take
    // a bit each: `0` and `1`.
    for dist in [(1, 0), (0, 0)] {
        let mut b = Bits::default();
        dynamic_header(
            &mut b,
            257,
            1,
            &CL,
            &[lit_lens(1, 0, 1), vec![dist]].concat(),
        );
        let block = b.put(0b00, 2).put(0b1, 1).done();
        let payload = packed(2, &block);
        let mut map = full_demo().to_bytes_map();
        map.insert(
            "ALLOC".to_owned(),
            frame(CODEC_VERSION, StreamId::Alloc as u8 | PACKED, &payload),
        );
        // Two `a`s: an ALLOC count of 97 in no bytes is refused typed,
        // after the block decoded.
        match load(&map).unwrap_err() {
            DemoLoadError::Codec {
                err:
                    CodecError::TooLarge {
                        what, declared: 97, ..
                    },
                ..
            } => assert_eq!(what, "ALLOC count"),
            other => panic!("{dist:?}: {other}"),
        }
    }
}

#[test]
fn symbols_outside_the_alphabets_are_typed() {
    // HLIT and HDIST that would make 286-287 or 30-31 codes.
    for (hlit, hdist, words) in [(287, 1, "286-287"), (288, 1, "286-287"), (257, 31, "30-31")] {
        let mut b = Bits::default();
        dynamic_header(&mut b, hlit, hdist, &CL, &[]);
        let err = block_err(1, &b.put(0, 16).done());
        assert!(invalid_saying(&err, words), "{hlit}/{hdist}: {err}");
    }
    // The fixed code assigns them; a block may not use them.
    for (toks, words) in [
        ([Tok::Sym(286), Tok::End], "literal/length symbol 286"),
        ([Tok::Sym(287), Tok::End], "literal/length symbol 287"),
        ([Tok::DistCode(30), Tok::End], "distance code 30"),
        ([Tok::DistCode(31), Tok::End], "distance code 31"),
    ] {
        let err = block_err(8, &fixed_block(&toks));
        assert!(invalid_saying(&err, words), "{err}");
    }
}

#[test]
fn block_ends_are_typed() {
    let ab = [Tok::Lit(b'a'), Tok::Lit(b'b')];
    // No end-of-block: the bits run out.
    assert!(matches!(
        block_err(2, &fixed_block(&ab)),
        CodecError::Truncated {
            what: "literal/length code",
            ..
        }
    ));
    // A byte after the end-of-block.
    let mut block = fixed_block(&[ab[0], ab[1], Tok::End]);
    let end = block.len();
    block.push(0);
    let err = block_err(2, &block);
    assert_eq!(err, CodecError::TrailingBytes { offset: 1 + end });
    // An end-of-block short of the declared length.
    let err = block_err(3, &fixed_block(&[ab[0], ab[1], Tok::End]));
    assert!(
        matches!(
            err,
            CodecError::Truncated {
                what: "packed payload",
                ..
            }
        ),
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
fn v3_frames_are_refused_unread() {
    // A v3 QUEUE frame as v3 wrote it, checksum valid: its payload packed
    // as LZ4-style sequences (raw length 9, then two literals and a
    // 7-byte match at distance 1), which v4 does not read.
    let v3 = [
        0x53, 0x52, 0x52, 0x42, 0x03, 0x81, 0x05, 0x09, 0x23, 0x07, 0x00, 0x01, 0x36, 0x31, 0x53,
        0xfe, 0x8f, 0x9d, 0xd1, 0x03,
    ];
    assert_eq!(
        codec_err("QUEUE", v3.to_vec()),
        CodecError::UnsupportedVersion(3)
    );
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
/// `unit` repeated to `len` bytes: as close to 255 raw bytes per packed
/// byte as a frame gets. Its dynamic code gives every symbol it uses
/// five bits, and its one distance code (17-24, three extra bits) one
/// bit, so each 258-byte match takes nine bits, 229 raw bytes a packed
/// byte; a match in eight would pass `MAX_EXPANSION`. Returns the frame
/// and its raw length.
fn repeat_frame(id: StreamId, head: &[u8], unit: &[u8], len: usize) -> (Vec<u8>, usize) {
    let dist = 17usize.div_ceil(unit.len()) * unit.len();
    assert!(dist <= 24, "no multiple of {} in 17-24", unit.len());
    let pattern = |k: usize| unit[k % unit.len()];
    let (matches, tail) = ((len - dist) / 258, (len - dist) % 258);
    assert!(tail == 0 || tail >= 3, "tail of {tail}");
    let tail_sym = 257 + length_code(tail.max(3)).0;
    let mut used: Vec<usize> = head.iter().chain(unit).map(|&b| usize::from(b)).collect();
    used.extend([256, 285, tail_sym]);
    used.sort_unstable();
    used.dedup();
    // Fill the code out to 32 five-bit codes with symbols never sent.
    for filler in 257..285 {
        if used.len() < 32 && !used.contains(&filler) {
            used.push(filler);
        }
    }
    assert_eq!(used.len(), 32, "{} symbols do not fit", used.len());
    let mut lit = [0u32; 286];
    for &s in &used {
        lit[s] = 5;
    }
    let mut lens = Vec::new();
    let mut i = 0;
    while i < 286 {
        let run = lit[i..].iter().take_while(|&&l| l == lit[i]).count();
        if lit[i] == 0 {
            lens.extend(zeros(run));
        } else {
            lens.extend(std::iter::repeat_n((5, 0), run));
        }
        i += run;
    }
    let (dsym, dx, dn) = distance_code(dist);
    lens.extend(zeros(dsym));
    lens.push((1, 0));
    let cl: [u32; 19] = [2, 3, 3, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 3];
    let mut b = Bits::default();
    dynamic_header(&mut b, 286, dsym + 1, &cl, &lens);
    let codes = canonical(&lit);
    let sym = |b: &mut Bits, s: usize| {
        b.code((codes[s], 5));
    };
    for &x in head {
        sym(&mut b, usize::from(x));
    }
    for k in 0..dist {
        sym(&mut b, usize::from(pattern(k)));
    }
    for _ in 0..matches {
        sym(&mut b, 285);
        b.code((0, 1)).put(dx, dn);
    }
    if tail > 0 {
        let (s, x, n) = length_code(tail);
        sym(&mut b, 257 + s);
        b.put(x, n).code((0, 1)).put(dx, dn);
    }
    sym(&mut b, 256);
    let raw_len = head.len() + len;
    let bytes = frame(
        CODEC_VERSION,
        id as u8 | PACKED,
        &packed(raw_len as u64, &b.done()),
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
        "SYSCALL" => demo.syscalls.iter().map(|r| 1 + r.bufs().len()).sum(),
        other => panic!("no elements in {other}"),
    }
}

#[test]
fn packed_frames_decode_within_9_bytes_per_raw_byte() {
    // The costliest stream each packed payload of ~255 KB can hold, all
    // zeros after a short head: a zero is a repeated address, a signal
    // or async event at the same tick, a syscall record of the one
    // kind, an empty syscall buffer, or an empty kind name. QUEUE runs
    // cannot repeat (no zero length, no two adjacent runs of one step),
    // so its payload alternates runs of steps 1 and 2. Each loads; what
    // it costs must stay within the codec's stated bound of 8 bytes of
    // allocation per raw payload byte besides the inflated payload
    // itself, so 9 x 255 per frame byte.
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
        // A kind table of empty names, then no records.
        ("SYSCALL", StreamId::Syscall, varint(n - 1), &[0], n, 0),
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
        println!(
            "{file}: {:.2} bytes allocated per raw byte",
            extra as f64 / raw_len as f64
        );
        assert!(
            extra <= 9 * raw_len,
            "{file}: {raw_len} raw bytes in {} frame bytes allocated {extra}",
            bytes.len()
        );
    }
}
