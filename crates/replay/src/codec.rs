//! The binary demo codec: per-stream framing with a magic/version
//! header, delta-coded varint payloads, one optional DEFLATE block, and
//! a cursor reader.
//!
//! Each stream of a demo serializes to one self-describing *frame*:
//!
//! ```text
//! +-------+----------------+-----------+--------------+---------+----------+
//! | magic | codec version  | stream id | payload len  | payload | checksum |
//! | SRRB  | varint         | 1 byte    | varint       | bytes   | fnv64 LE |
//! +-------+----------------+-----------+--------------+---------+----------+
//! ```
//!
//! The checksum is FNV-1a/64 over everything between the magic and the
//! checksum itself, so *any* single-bit corruption of a frame is either a
//! bad magic or a checksum mismatch — the decoder never misreads a
//! damaged stream as a shorter or different one (the corruption battery
//! in `tests/corruption.rs` proves this bit by bit).
//!
//! Payloads (codec version 4) are plain LEB128 varints:
//!
//! * QUEUE is its first-tick table, then its runs (see
//!   [`QueueStream`]): a count, then each run's step and length. A run
//!   of a thread that runs again at once has step 1 and "never again"
//!   step 0, so a run is two bytes until its length passes 127. Runs
//!   are canonical: a zero length, or two adjacent runs of one step, do
//!   not decode;
//! * `seq`, every other `tick` and each ALLOC address are written as
//!   wrapping zigzag deltas, so any `u64` sequence round-trips and
//!   near-monotone ones cost a byte per value;
//! * SYSCALL records are laid out field by field (all `seq`s, then all
//!   `tid`s, ...), so like values sit together; output buffers are
//!   stored raw, length-prefixed;
//! * syscall kind names are interned into a per-stream string table, so a
//!   10k-request httpd demo stores `recv` once, not 10k times.
//!
//! A payload is then stored either as is or packed, whichever is
//! smaller ([`Packing`]). A packed payload is its raw length, then one
//! raw-DEFLATE block (RFC 1951, `lz.rs`): LZ77 matches of at most 63
//! bytes, coded with the fixed Huffman code or a dynamic one, whichever
//! is smaller. The top bit of the stream-id byte ([`PACKED`]) records
//! the choice, so no frame grows. Codec v3 wrote the same payloads and
//! packed them as LZ4-style sequences without entropy coding.
//!
//! Decoding allocates in proportion to its input. Every count and
//! length read from a payload is checked before anything is allocated
//! for it: against the bytes left, at the smallest encoding of its
//! elements (seven bytes for a syscall record, three for a signal, two
//! for an async event or a QUEUE run, one for anything else). A packed
//! payload's raw length is checked against [`MAX_RAW_LEN`] and
//! [`MAX_EXPANSION`] times its packed bytes. A QUEUE stream decodes to
//! its runs, never to a tick each, and the sum of its run lengths is
//! checked against [`MAX_QUEUE_TICKS`] as it is read. A SYSCALL stream
//! decodes to one 40-byte row per record (from seven bytes at least),
//! a 4-byte offset per buffer and per kind name (from one), and each
//! buffer byte and kind-name byte once, into arenas sized exactly. So a
//! payload of `n` raw bytes decodes with at most `8·n` bytes of
//! allocation besides the payload itself. The worst cases are 8 bytes
//! of element per byte read: a QUEUE first tick or an ALLOC address of
//! one byte, or a 16-byte QUEUE run or async event of two. A packed
//! frame therefore costs at most `9 × 255` bytes per frame byte.
//!
//! The layout is mmap-able: frames are length-prefixed and contain no
//! internal pointers. A plain payload decodes by walking a borrowed
//! `&[u8]` with a [`Cursor`]; a packed one is inflated once and walked
//! the same way.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

use crate::demo::{DemoHeader, FORMAT_VERSION};
use crate::lz;
pub use crate::lz::{MAX_EXPANSION, MAX_RAW_LEN};
use crate::streams::{AsyncEvent, QueueRun, QueueStream, SignalEvent, SyscallRow, SyscallStream};

/// The four magic bytes opening every binary stream file.
pub const MAGIC: [u8; 4] = *b"SRRB";

/// Binary codec version understood by this crate (independent of the
/// demo [`FORMAT_VERSION`], which describes the logical stream model).
/// Frames of any other version, v1 to v3 included, fail with
/// [`CodecError::UnsupportedVersion`].
pub const CODEC_VERSION: u64 = 4;

/// Top bit of the stream-id byte: the payload is stored packed.
pub const PACKED: u8 = 0x80;

/// How a frame stores its payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Packing {
    /// As is: packing would not make it smaller.
    Plain,
    /// One DEFLATE block under the fixed Huffman code.
    Fixed,
    /// One DEFLATE block under a Huffman code of its own, sent in the
    /// block header.
    Dynamic,
}

impl fmt::Display for Packing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Packing::Plain => "plain",
            Packing::Fixed => "fixed",
            Packing::Dynamic => "dynamic",
        })
    }
}

/// Longest syscall kind name a demo may hold, in bytes (Linux's longest
/// syscall name has 23). The decoder rejects longer ones. A name is
/// held once per stream, so the limit bounds no allocation.
pub const MAX_KIND_LEN: usize = 64;

/// Most critical sections a binary QUEUE stream may schedule (4 Gi, hours
/// of recording). Its runs cost a few bytes however many sections they
/// stand for, so this, not the payload size, bounds what a reader that
/// walks the stream a tick at a time may be asked to do.
pub const MAX_QUEUE_TICKS: u64 = 1 << 32;

/// The streams a demo serializes, with their on-disk file names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum StreamId {
    /// Recording metadata (tool, strategy, seeds).
    Header = 0,
    /// Queue-strategy interleaving.
    Queue = 1,
    /// Asynchronous signals.
    Signal = 2,
    /// Recorded syscalls.
    Syscall = 3,
    /// Asynchronous events.
    Async = 4,
    /// Allocator address stream.
    Alloc = 5,
}

impl StreamId {
    /// All streams, in serialization order.
    pub const ALL: [StreamId; 6] = [
        StreamId::Header,
        StreamId::Queue,
        StreamId::Signal,
        StreamId::Syscall,
        StreamId::Async,
        StreamId::Alloc,
    ];

    /// The stream's file name inside a demo directory (the text export
    /// uses the same names).
    #[must_use]
    pub fn file_name(self) -> &'static str {
        match self {
            StreamId::Header => "HEADER",
            StreamId::Queue => "QUEUE",
            StreamId::Signal => "SIGNAL",
            StreamId::Syscall => "SYSCALL",
            StreamId::Async => "ASYNC",
            StreamId::Alloc => "ALLOC",
        }
    }

    /// Inverse of [`StreamId::file_name`].
    #[must_use]
    pub fn from_file_name(name: &str) -> Option<StreamId> {
        StreamId::ALL
            .iter()
            .copied()
            .find(|s| s.file_name() == name)
    }

    fn from_byte(b: u8) -> Option<StreamId> {
        StreamId::ALL.iter().copied().find(|s| *s as u8 == b)
    }
}

/// A typed decode failure. Every corrupt input maps to one of these —
/// the decoder never panics and (thanks to the frame checksum) never
/// silently misreads flipped bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The frame does not start with [`MAGIC`].
    BadMagic {
        /// What was found instead (zero-padded when shorter).
        found: [u8; 4],
    },
    /// The frame's codec version is not [`CODEC_VERSION`]; no decoder
    /// for older versions is kept.
    UnsupportedVersion(u64),
    /// The frame names a stream id this build does not know.
    UnknownStream(u8),
    /// The frame is for a different stream than the file name promised.
    WrongStream {
        /// Stream the caller expected from the file name.
        expected: StreamId,
        /// Stream the frame actually carries.
        found: StreamId,
    },
    /// Input ended before the named element was complete.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Byte offset at which input ran out.
        offset: usize,
    },
    /// A varint ran past 10 bytes or past 64 bits.
    VarintOverflow {
        /// Byte offset of the varint's first byte.
        offset: usize,
    },
    /// A declared count or length exceeds what the input can hold or a
    /// stated cap; rejected before anything is allocated for it.
    TooLarge {
        /// What was declared.
        what: &'static str,
        /// The declared value.
        declared: u64,
        /// The most the input (or the cap) allows.
        limit: u64,
        /// Byte offset of the declaration.
        offset: usize,
    },
    /// The frame checksum does not match its contents.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum computed over the frame contents.
        computed: u64,
    },
    /// Bytes remained after the payload's declared end.
    TrailingBytes {
        /// Offset of the first surplus byte.
        offset: usize,
    },
    /// A structurally valid read produced an invalid value.
    Invalid {
        /// Description of the violated constraint.
        what: String,
        /// Byte offset of the offending element.
        offset: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (expected SRRB)")
            }
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported codec version {v} (this build reads v{CODEC_VERSION})"
                )
            }
            CodecError::UnknownStream(b) => write!(f, "unknown stream id {b}"),
            CodecError::WrongStream { expected, found } => write!(
                f,
                "frame is a {} stream but the file name says {}",
                found.file_name(),
                expected.file_name()
            ),
            CodecError::Truncated { what, offset } => {
                write!(f, "truncated while reading {what} at byte {offset}")
            }
            CodecError::VarintOverflow { offset } => {
                write!(f, "varint overflow at byte {offset}")
            }
            CodecError::TooLarge {
                what,
                declared,
                limit,
                offset,
            } => write!(
                f,
                "{what} {declared} at byte {offset} exceeds the limit {limit}"
            ),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            CodecError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after payload at byte {offset}")
            }
            CodecError::Invalid { what, offset } => {
                write!(f, "invalid value at byte {offset}: {what}")
            }
        }
    }
}

impl Error for CodecError {}

// ---------------------------------------------------------------------
// Hashing: FNV-1a (64-bit for frame checksums, 128-bit for the store's
// content addresses)
// ---------------------------------------------------------------------

/// FNV-1a/64 of `data` — the frame checksum.
#[must_use]
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FNV-1a/128 of `data` — the [`crate::DemoStore`] content address.
#[must_use]
pub fn fnv1a128(data: &[u8]) -> u128 {
    let mut hash: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    for &b in data {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013B);
    }
    hash
}

// ---------------------------------------------------------------------
// Zero-copy cursor
// ---------------------------------------------------------------------

/// A zero-copy reader over a borrowed byte slice. All `read_*` methods
/// advance the cursor; byte and string reads return views into the
/// underlying buffer, never copies.
#[derive(Clone, Copy, Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Current byte offset.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor has consumed the whole buffer.
    #[must_use]
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn read_u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated {
            what,
            offset: self.pos,
        })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `len` bytes as a borrowed slice (zero-copy).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `len` bytes remain.
    pub fn read_bytes(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated {
            what,
            offset: self.pos,
        })?;
        let slice = self.buf.get(self.pos..end).ok_or(CodecError::Truncated {
            what,
            offset: self.pos,
        })?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads a LEB128 varint (at most 10 bytes / 64 bits).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input,
    /// [`CodecError::VarintOverflow`] past 64 bits.
    pub fn read_varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let start = self.pos;
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.read_u8(what)?;
            let payload = u64::from(b & 0x7f);
            // The 10th byte may only carry the top single bit of a u64.
            if shift >= 64 || (shift == 63 && payload > 1) {
                return Err(CodecError::VarintOverflow { offset: start });
            }
            value |= payload << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a zigzag-encoded signed varint.
    ///
    /// # Errors
    ///
    /// As [`Cursor::read_varint`].
    pub fn read_zigzag(&mut self, what: &'static str) -> Result<i64, CodecError> {
        let raw = self.read_varint(what)?;
        Ok(decode_zigzag(raw))
    }

    /// Reads a value written by [`write_delta`] against `prev`.
    ///
    /// # Errors
    ///
    /// As [`Cursor::read_varint`].
    pub(crate) fn read_delta(&mut self, prev: u64, what: &'static str) -> Result<u64, CodecError> {
        Ok(prev.wrapping_add(self.read_zigzag(what)? as u64))
    }

    /// Reads a count of elements that each take at least `min_size`
    /// bytes to encode. A count whose elements cannot fit in the bytes
    /// left cannot be honest, and is rejected before the caller reserves
    /// anything for it.
    ///
    /// # Errors
    ///
    /// As [`Cursor::read_varint`], or [`CodecError::TooLarge`].
    pub(crate) fn read_count(
        &mut self,
        min_size: usize,
        what: &'static str,
    ) -> Result<usize, CodecError> {
        let offset = self.pos;
        let declared = self.read_varint(what)?;
        let limit = (self.remaining() / min_size) as u64;
        if declared > limit {
            return Err(CodecError::TooLarge {
                what,
                declared,
                limit,
                offset,
            });
        }
        Ok(declared as usize)
    }

    /// Reads a length-prefixed UTF-8 string as a borrowed `&str`.
    ///
    /// # Errors
    ///
    /// Truncation or [`CodecError::Invalid`] on non-UTF-8 bytes.
    pub fn read_str(&mut self, what: &'static str) -> Result<&'a str, CodecError> {
        let start = self.pos;
        let len = self.read_count(1, what)?;
        let bytes = self.read_bytes(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::Invalid {
            what: format!("{what} is not UTF-8"),
            offset: start,
        })
    }
}

/// Appends a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a zigzag-encoded signed varint.
pub fn write_zigzag(out: &mut Vec<u8>, v: i64) {
    write_varint(out, encode_zigzag(v));
}

/// Appends `v` as its wrapping difference from `prev`, zigzagged: any
/// `u64` sequence round-trips, and one that stays near `prev` costs a
/// byte per value.
pub(crate) fn write_delta(out: &mut Vec<u8>, prev: u64, v: u64) {
    write_zigzag(out, v.wrapping_sub(prev) as i64);
}

fn encode_zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn decode_zigzag(raw: u64) -> i64 {
    ((raw >> 1) as i64) ^ -((raw & 1) as i64)
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// A parsed frame: the stream it carries and its payload (checksum
/// already verified, packing already undone).
#[derive(Clone, Debug)]
pub struct Frame<'a> {
    /// The stream this frame serializes.
    pub stream: StreamId,
    /// The stream payload: borrowed from the input when stored plain,
    /// inflated when packed.
    pub payload: Cow<'a, [u8]>,
}

/// Wraps a stream payload into a framed file image, packed when that is
/// smaller.
#[must_use]
pub fn encode_frame(stream: StreamId, payload: &[u8]) -> Vec<u8> {
    frame_with_packing(stream, payload).0
}

/// [`encode_frame`], also telling how the payload was stored.
pub(crate) fn frame_with_packing(stream: StreamId, payload: &[u8]) -> (Vec<u8>, Packing) {
    let packed = lz::pack(payload);
    let (id, body, packing) = match &packed {
        Some((p, packing)) => (stream as u8 | PACKED, p.as_slice(), *packing),
        None => (stream as u8, payload, Packing::Plain),
    };
    let mut out = Vec::with_capacity(body.len() + 24);
    out.extend_from_slice(&MAGIC);
    write_varint(&mut out, CODEC_VERSION);
    out.push(id);
    write_varint(&mut out, body.len() as u64);
    out.extend_from_slice(body);
    let sum = fnv1a64(&out[MAGIC.len()..]);
    out.extend_from_slice(&sum.to_le_bytes());
    (out, packing)
}

/// Parses and verifies a framed file image, inflating a packed payload.
///
/// # Errors
///
/// Any [`CodecError`]; in particular every single-bit corruption of the
/// input fails here (bad magic or checksum mismatch).
pub fn parse_frame(bytes: &[u8]) -> Result<Frame<'_>, CodecError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        let mut found = [0u8; 4];
        for (slot, b) in found.iter_mut().zip(bytes) {
            *slot = *b;
        }
        return Err(CodecError::BadMagic { found });
    }
    if bytes.len() < MAGIC.len() + 8 {
        return Err(CodecError::Truncated {
            what: "frame checksum",
            offset: bytes.len(),
        });
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().expect("split_at(len-8)"));
    let computed = fnv1a64(&body[MAGIC.len()..]);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    let mut cur = Cursor::new(body);
    cur.pos = MAGIC.len();
    let version = cur.read_varint("codec version")?;
    if version != CODEC_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let id = cur.read_u8("stream id")?;
    let stream = StreamId::from_byte(id & !PACKED).ok_or(CodecError::UnknownStream(id))?;
    let len = cur.read_count(1, "payload length")?;
    let body = cur.read_bytes(len, "payload")?;
    if !cur.is_at_end() {
        return Err(CodecError::TrailingBytes { offset: cur.pos() });
    }
    let payload = if id & PACKED != 0 {
        Cow::Owned(lz::unpack(body)?)
    } else {
        Cow::Borrowed(body)
    };
    Ok(Frame { stream, payload })
}

// ---------------------------------------------------------------------
// Stream payload codecs
// ---------------------------------------------------------------------

/// Encodes the HEADER payload.
#[must_use]
pub(crate) fn encode_header(h: &DemoHeader) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, u64::from(h.version));
    write_str(&mut out, &h.tool);
    write_str(&mut out, &h.strategy);
    write_varint(&mut out, h.seeds[0]);
    write_varint(&mut out, h.seeds[1]);
    out
}

pub(crate) fn decode_header(payload: &[u8]) -> Result<DemoHeader, CodecError> {
    let mut cur = Cursor::new(payload);
    let version = cur.read_varint("header version")?;
    let version = u32::try_from(version).map_err(|_| CodecError::Invalid {
        what: format!("demo version {version} out of range"),
        offset: 0,
    })?;
    if version != FORMAT_VERSION {
        return Err(CodecError::Invalid {
            what: format!("unsupported demo version {version}"),
            offset: 0,
        });
    }
    let tool = cur.read_str("tool")?.to_owned();
    let strategy = cur.read_str("strategy")?.to_owned();
    let seeds = [cur.read_varint("seed 0")?, cur.read_varint("seed 1")?];
    expect_end(&cur)?;
    Ok(DemoHeader {
        version,
        tool,
        strategy,
        seeds,
    })
}

pub(crate) fn encode_queue(q: &QueueStream) -> Vec<u8> {
    let mut out = Vec::with_capacity(q.first_tick.len() + 2 * q.runs().len() + 8);
    write_varint(&mut out, q.first_tick.len() as u64);
    for &t in &q.first_tick {
        write_varint(&mut out, t);
    }
    write_varint(&mut out, q.runs().len() as u64);
    for run in q.runs() {
        write_varint(&mut out, run.step);
        write_varint(&mut out, run.count);
    }
    out
}

pub(crate) fn decode_queue(payload: &[u8]) -> Result<QueueStream, CodecError> {
    let mut cur = Cursor::new(payload);
    let n = cur.read_count(1, "QUEUE first-tick count")?;
    let mut first_tick = Vec::with_capacity(n);
    for _ in 0..n {
        first_tick.push(cur.read_varint("QUEUE first tick")?);
    }
    // A step and a count: a byte each at least.
    let n = cur.read_count(2, "QUEUE run count")?;
    let mut runs: Vec<QueueRun> = Vec::with_capacity(n);
    let mut ticks = 0u64;
    for _ in 0..n {
        let at = cur.pos();
        let step = cur.read_varint("QUEUE run step")?;
        let count_at = cur.pos();
        let count = cur.read_varint("QUEUE run length")?;
        if count == 0 {
            return Err(CodecError::Invalid {
                what: "QUEUE run of no sections".into(),
                offset: count_at,
            });
        }
        if runs.last().is_some_and(|prev| prev.step == step) {
            return Err(CodecError::Invalid {
                what: format!("QUEUE run repeats the step {step} of the run before it"),
                offset: at,
            });
        }
        ticks = match ticks.checked_add(count) {
            Some(sum) if sum <= MAX_QUEUE_TICKS => sum,
            sum => {
                return Err(CodecError::TooLarge {
                    what: "QUEUE tick total",
                    declared: sum.unwrap_or(u64::MAX),
                    limit: MAX_QUEUE_TICKS,
                    offset: count_at,
                })
            }
        };
        runs.push(QueueRun { step, count });
    }
    expect_end(&cur)?;
    Ok(QueueStream::from_canonical_runs(first_tick, runs, ticks))
}

pub(crate) fn encode_signals(events: &[SignalEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, events.len() as u64);
    let mut tick = 0;
    for e in events {
        write_varint(&mut out, u64::from(e.tid));
        write_delta(&mut out, tick, e.tick);
        write_zigzag(&mut out, i64::from(e.signo));
        tick = e.tick;
    }
    out
}

pub(crate) fn decode_signals(payload: &[u8]) -> Result<Vec<SignalEvent>, CodecError> {
    let mut cur = Cursor::new(payload);
    // tid, tick and signo: a byte each at least.
    let count = cur.read_count(3, "SIGNAL count")?;
    let mut out = Vec::with_capacity(count);
    let mut tick = 0;
    for _ in 0..count {
        let at = cur.pos();
        let tid = read_u32(&mut cur, "signal tid")?;
        tick = cur.read_delta(tick, "signal tick")?;
        let signo = cur.read_zigzag("signal signo")?;
        let signo = i32::try_from(signo).map_err(|_| CodecError::Invalid {
            what: format!("signo {signo} out of range"),
            offset: at,
        })?;
        out.push(SignalEvent { tid, tick, signo });
    }
    expect_end(&cur)?;
    Ok(out)
}

pub(crate) fn encode_syscalls(stream: &SyscallStream) -> Vec<u8> {
    // The kind table is written in order of first use, each name once:
    // a recorded or decoded stream's own table already is, so `renumber`
    // maps each of its kinds to itself.
    let table: Vec<&str> = stream.kinds().collect();
    let mut renumber: Vec<Option<u64>> = vec![None; table.len()];
    let mut kinds: Vec<&str> = Vec::new();
    for r in stream.rows() {
        let k = r.kind as usize;
        if renumber[k].is_none() {
            let idx = kinds
                .iter()
                .position(|n| *n == table[k])
                .unwrap_or_else(|| {
                    kinds.push(table[k]);
                    kinds.len() - 1
                });
            renumber[k] = Some(idx as u64);
        }
    }
    let mut out = Vec::new();
    write_varint(&mut out, kinds.len() as u64);
    for k in &kinds {
        write_str(&mut out, k);
    }
    let rows = stream.rows();
    write_varint(&mut out, rows.len() as u64);
    // Field by field rather than record by record: like values sit
    // together, so the packing finds longer repeats.
    let mut prev = 0;
    for r in rows {
        write_delta(&mut out, prev, r.seq);
        prev = r.seq;
    }
    for r in rows {
        write_varint(&mut out, u64::from(r.tid));
    }
    let mut prev = 0;
    for r in rows {
        write_delta(&mut out, prev, r.tick);
        prev = r.tick;
    }
    for r in rows {
        write_varint(
            &mut out,
            renumber[r.kind as usize].expect("renumbered above"),
        );
    }
    for r in rows {
        write_zigzag(&mut out, r.ret);
    }
    for r in rows {
        write_zigzag(&mut out, i64::from(r.errno));
    }
    let mut prev = 0;
    for r in rows {
        write_varint(&mut out, u64::from(r.bufs_end - prev));
        prev = r.bufs_end;
    }
    for b in stream.all_bufs() {
        write_varint(&mut out, b.len() as u64);
        out.extend_from_slice(b);
    }
    out
}

pub(crate) fn decode_syscalls(payload: &[u8]) -> Result<SyscallStream, CodecError> {
    // The stream indexes its kind names and buffers by `u32`.
    if payload.len() > u32::MAX as usize {
        return Err(CodecError::TooLarge {
            what: "SYSCALL payload length",
            declared: payload.len() as u64,
            limit: u64::from(u32::MAX),
            offset: 0,
        });
    }
    let mut cur = Cursor::new(payload);
    let nkinds = cur.read_count(1, "SYSCALL kind count")?;
    // A first pass checks the kind table and sizes it, so the stream
    // holds exactly its names.
    let table = cur;
    let mut names_len = 0;
    for _ in 0..nkinds {
        let at = cur.pos();
        let kind = cur.read_str("syscall kind")?;
        // A name is held once whatever the records using it, so this
        // bounds no allocation: it refuses what no syscall is called.
        if kind.len() > MAX_KIND_LEN {
            return Err(CodecError::TooLarge {
                what: "syscall kind length",
                declared: kind.len() as u64,
                limit: MAX_KIND_LEN as u64,
                offset: at,
            });
        }
        names_len += kind.len();
    }
    let mut kind_names = String::with_capacity(names_len);
    let mut kind_ends = Vec::with_capacity(nkinds);
    let mut again = table;
    for _ in 0..nkinds {
        kind_names.push_str(again.read_str("syscall kind")?);
        kind_ends.push(kind_names.len() as u32);
    }
    // A record takes at least a byte in each of its seven columns.
    let count = cur.read_count(7, "SYSCALL count")?;
    let mut rows = Vec::with_capacity(count);
    let mut seq = 0;
    for _ in 0..count {
        seq = cur.read_delta(seq, "syscall seq")?;
        rows.push(SyscallRow {
            seq,
            ..SyscallRow::default()
        });
    }
    for r in &mut rows {
        r.tid = read_u32(&mut cur, "syscall tid")?;
    }
    let mut tick = 0;
    for r in &mut rows {
        tick = cur.read_delta(tick, "syscall tick")?;
        r.tick = tick;
    }
    for r in &mut rows {
        let at = cur.pos();
        let idx = cur.read_varint("syscall kind index")?;
        if idx >= nkinds as u64 {
            return Err(CodecError::Invalid {
                what: format!("kind index {idx} out of table (len {nkinds})"),
                offset: at,
            });
        }
        r.kind = idx as u32;
    }
    for r in &mut rows {
        r.ret = cur.read_zigzag("syscall ret")?;
    }
    for r in &mut rows {
        let at = cur.pos();
        let errno = cur.read_zigzag("syscall errno")?;
        r.errno = i32::try_from(errno).map_err(|_| CodecError::Invalid {
            what: format!("errno {errno} out of range"),
            offset: at,
        })?;
    }
    let at = cur.pos();
    let mut nbufs = 0u64;
    for r in &mut rows {
        nbufs = nbufs.saturating_add(cur.read_varint("syscall buf count")?);
        // Past `u32::MAX` only when the check below fails.
        r.bufs_end = nbufs.min(u64::from(u32::MAX)) as u32;
    }
    // Each buffer takes at least its length byte, so all the buffers
    // together must fit in the bytes left.
    if nbufs > cur.remaining() as u64 {
        return Err(CodecError::TooLarge {
            what: "syscall buffer count",
            declared: nbufs,
            limit: cur.remaining() as u64,
            offset: at,
        });
    }
    // A first pass checks the buffers and sizes the arena.
    let bufs = cur;
    let mut bytes = 0;
    for _ in 0..nbufs {
        let len = cur.read_count(1, "buf length")?;
        cur.read_bytes(len, "buf")?;
        bytes += len;
    }
    expect_end(&cur)?;
    let mut buf_ends = Vec::with_capacity(nbufs as usize);
    let mut arena = Vec::with_capacity(bytes);
    let mut again = bufs;
    for _ in 0..nbufs {
        let len = again.read_count(1, "buf length")?;
        arena.extend_from_slice(again.read_bytes(len, "buf")?);
        buf_ends.push(arena.len() as u32);
    }
    Ok(SyscallStream::from_parts(
        rows, kind_names, kind_ends, buf_ends, arena,
    ))
}

const ASYNC_RESCHEDULE: u8 = 0;
const ASYNC_SIGWAKEUP: u8 = 1;

pub(crate) fn encode_asyncs(events: &[AsyncEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, events.len() as u64);
    let mut tick = 0;
    for e in events {
        match *e {
            AsyncEvent::Reschedule { .. } => out.push(ASYNC_RESCHEDULE),
            AsyncEvent::SignalWakeup { tid, .. } => {
                out.push(ASYNC_SIGWAKEUP);
                write_varint(&mut out, u64::from(tid));
            }
        }
        write_delta(&mut out, tick, e.tick());
        tick = e.tick();
    }
    out
}

pub(crate) fn decode_asyncs(payload: &[u8]) -> Result<Vec<AsyncEvent>, CodecError> {
    let mut cur = Cursor::new(payload);
    // A tag and a tick: a byte each at least.
    let count = cur.read_count(2, "ASYNC count")?;
    let mut out = Vec::with_capacity(count);
    let mut tick = 0;
    for _ in 0..count {
        let at = cur.pos();
        let event = match cur.read_u8("async tag")? {
            ASYNC_RESCHEDULE => {
                tick = cur.read_delta(tick, "reschedule tick")?;
                AsyncEvent::Reschedule { tick }
            }
            ASYNC_SIGWAKEUP => {
                let tid = read_u32(&mut cur, "sigwakeup tid")?;
                tick = cur.read_delta(tick, "sigwakeup tick")?;
                AsyncEvent::SignalWakeup { tid, tick }
            }
            tag => {
                return Err(CodecError::Invalid {
                    what: format!("unknown ASYNC tag {tag}"),
                    offset: at,
                })
            }
        };
        out.push(event);
    }
    expect_end(&cur)?;
    Ok(out)
}

pub(crate) fn encode_alloc(alloc: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(alloc.len() * 2 + 4);
    write_varint(&mut out, alloc.len() as u64);
    let mut prev = 0;
    for &addr in alloc {
        write_delta(&mut out, prev, addr);
        prev = addr;
    }
    out
}

pub(crate) fn decode_alloc(payload: &[u8]) -> Result<Vec<u64>, CodecError> {
    let mut cur = Cursor::new(payload);
    let count = cur.read_count(1, "ALLOC count")?;
    let mut out = Vec::with_capacity(count);
    let mut prev = 0;
    for _ in 0..count {
        prev = cur.read_delta(prev, "ALLOC address")?;
        out.push(prev);
    }
    expect_end(&cur)?;
    Ok(out)
}

fn read_u32(cur: &mut Cursor<'_>, what: &'static str) -> Result<u32, CodecError> {
    let at = cur.pos();
    let v = cur.read_varint(what)?;
    u32::try_from(v).map_err(|_| CodecError::Invalid {
        what: format!("{what} {v} out of range"),
        offset: at,
    })
}

fn expect_end(cur: &Cursor<'_>) -> Result<(), CodecError> {
    if cur.is_at_end() {
        Ok(())
    } else {
        Err(CodecError::TrailingBytes { offset: cur.pos() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::SyscallRecord;

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.read_varint("v").unwrap(), v);
            assert!(cur.is_at_end());
        }
    }

    #[test]
    fn varint_overflow_is_typed() {
        // 10 continuation bytes followed by more payload than u64 holds.
        let buf = [0xffu8; 11];
        let mut cur = Cursor::new(&buf);
        assert!(matches!(
            cur.read_varint("v"),
            Err(CodecError::VarintOverflow { .. })
        ));
        // A 10th byte carrying more than the top bit also overflows.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        let mut cur = Cursor::new(&buf);
        assert!(matches!(
            cur.read_varint("v"),
            Err(CodecError::VarintOverflow { .. })
        ));
    }

    #[test]
    fn zigzag_roundtrips() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456, 123456] {
            let mut buf = Vec::new();
            write_zigzag(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.read_zigzag("v").unwrap(), v);
        }
    }

    #[test]
    fn frame_roundtrips_and_rejects_tampering() {
        let frame = encode_frame(StreamId::Alloc, b"payload");
        let parsed = parse_frame(&frame).unwrap();
        assert_eq!(parsed.stream, StreamId::Alloc);
        assert_eq!(frame[5] & PACKED, 0, "7 bytes cannot pack smaller");
        assert_eq!(&*parsed.payload, b"payload");
        assert_eq!(
            parse_frame(b"first 1\n").unwrap_err(),
            CodecError::BadMagic { found: *b"firs" }
        );

        // Any single-bit flip must fail.
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(parse_frame(&bad).is_err(), "flip at {byte}.{bit} accepted");
            }
        }
        // Any truncation must fail.
        for len in 0..frame.len() {
            assert!(parse_frame(&frame[..len]).is_err(), "truncation {len}");
        }
    }

    #[test]
    fn repetitive_payloads_pack_and_roundtrip() {
        let payload = b"GET /item/1 HTTP/1.1\n".repeat(20);
        let frame = encode_frame(StreamId::Syscall, &payload);
        assert!(frame.len() < payload.len() / 4, "{} bytes", frame.len());
        assert_eq!(
            frame[5] & PACKED,
            PACKED,
            "the packing bit rides the id byte"
        );
        let parsed = parse_frame(&frame).unwrap();
        assert_eq!(parsed.stream, StreamId::Syscall);
        assert_eq!(&*parsed.payload, payload.as_slice());
    }

    #[test]
    fn deltas_wrap_losslessly() {
        let vals = [0, u64::MAX, 0, 5, 3, u64::MAX - 1, 1 << 63, 7];
        let mut buf = Vec::new();
        let mut prev = 0;
        for &v in &vals {
            write_delta(&mut buf, prev, v);
            prev = v;
        }
        let mut cur = Cursor::new(&buf);
        let mut prev = 0;
        for &v in &vals {
            prev = cur.read_delta(prev, "v").unwrap();
            assert_eq!(prev, v);
        }
        assert!(cur.is_at_end());
    }

    #[test]
    fn counts_above_the_bytes_left_are_rejected() {
        // An ALLOC payload claiming 2^60 addresses in ten bytes must be
        // rejected, not reserved.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 60);
        buf.push(0);
        assert!(matches!(
            decode_alloc(&buf),
            Err(CodecError::TooLarge { declared, limit: 1, .. }) if declared == 1 << 60
        ));
    }

    #[test]
    fn stream_names_roundtrip() {
        for id in StreamId::ALL {
            assert_eq!(StreamId::from_file_name(id.file_name()), Some(id));
            assert_eq!(StreamId::from_byte(id as u8), Some(id));
        }
        assert_eq!(StreamId::from_file_name("CONSOLE"), None);
        assert_eq!(StreamId::from_byte(9), None);
    }

    #[test]
    fn syscall_kind_interning_pays_off() {
        let recs: SyscallStream = (0..100)
            .map(|i| SyscallRecord {
                seq: i,
                tid: 1,
                tick: i * 2,
                kind: "recvmsg".into(),
                ret: 64,
                errno: 0,
                bufs: vec![vec![0xab; 64]],
            })
            .collect();
        let payload = encode_syscalls(&recs);
        assert_eq!(decode_syscalls(&payload).unwrap(), recs);
        // One table entry, not 100 copies of "recvmsg".
        let copies = payload.windows(7).filter(|w| w == b"recvmsg").count();
        assert_eq!(copies, 1);
        // Buffers are stored raw; the frame's packing folds the
        // repeats.
        let frame = encode_frame(StreamId::Syscall, &payload);
        assert!(frame.len() < payload.len() / 20, "{} bytes", frame.len());
    }

    #[test]
    fn error_display_names_the_problem() {
        assert!(parse_frame(b"oops")
            .unwrap_err()
            .to_string()
            .contains("magic"));
        let e = CodecError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(CodecError::UnsupportedVersion(9)
            .to_string()
            .contains("version 9"));
    }
}
