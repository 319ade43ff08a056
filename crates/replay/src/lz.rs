//! One raw-DEFLATE block (RFC 1951) over a binary stream payload.
//!
//! A packed payload is `raw length varint ‖ block`, where the block is
//! one final DEFLATE block: LZ77 back-references over the payload, coded
//! with the fixed Huffman code or a dynamic one, whichever is smaller.
//! Demo payloads repeat a lot — the same request line, the same syscall
//! record shape, the same QUEUE run — so LZ77 turns most of a payload
//! into references to earlier copies, and the Huffman code spends fewer
//! bits on the common literals, lengths and distances than on the rare
//! ones. Any raw-DEFLATE inflater (zlib with `wbits = -15`) reads the
//! block.
//!
//! The encoder:
//!
//! * hashes each 3-byte word into at most 8 Ki chain heads, and links
//!   each position to the previous one of its chain by a `u16` distance
//!   over a window of at most 32 KiB; both tables are sized to the
//!   payload, so a 30-byte payload's scratch is about a hundred bytes;
//! * walks each chain up to [`MAX_CHAIN`] links for the longest match,
//!   and writes a literal instead when the next byte starts a longer one
//!   (one-step lazy matching);
//! * writes matches of at most [`MAX_MATCH`] = 63 bytes. A match costs
//!   at least two bits (a one-bit length code and a one-bit distance
//!   code), so a packed byte then stands for at most 252 raw bytes,
//!   within [`MAX_EXPANSION`]: every frame it writes decodes;
//! * is deterministic: one payload packs to one byte image.
//!
//! The decoder reads the subset the encoder writes: one final block
//! (`BFINAL` = 1) of type fixed (01) or dynamic (10). Its code tables
//! live on the stack, so the inflated payload is its only allocation.
//! Each of these is a typed [`CodecError`] with the offset of the byte
//! at fault, never a panic:
//!
//! * a declared raw length above [`MAX_RAW_LEN`], or above
//!   [`MAX_EXPANSION`] times the packed bytes after it, refused before
//!   the output is reserved;
//! * a stored or reserved block, or a non-final one;
//! * over-subscribed or incomplete code lengths, except RFC 1951's
//!   single distance code (one code of one bit) and its empty distance
//!   code (a block of literals only);
//! * a code-length repeat with no previous length, or one that runs past
//!   the HLIT + HDIST lengths;
//! * literal/length symbols 286–287 or distance codes 30–31;
//! * a distance beyond the decoded bytes;
//! * a literal or copy past the declared raw length;
//! * a missing end-of-block, or bytes after it.

use crate::codec::{write_varint, CodecError, Cursor, Packing};

/// Cap on a packed payload's declared raw length (64 MiB). The encoder
/// stores larger payloads plain, so every frame this crate writes
/// decodes; a frame declaring more is rejected unread.
pub const MAX_RAW_LEN: usize = 1 << 26;

/// Most raw bytes one packed byte may decode to. A block could expand
/// further (a 258-byte match in two bits), so the decoder refuses a
/// declared raw length above this many times the packed bytes, and the
/// encoder caps its matches at [`MAX_MATCH`] to stay within it.
pub const MAX_EXPANSION: u64 = 255;

/// Longest match the encoder writes: four two-bit matches to a byte,
/// 4 × 63 = 252 raw bytes, within [`MAX_EXPANSION`].
const MAX_MATCH: usize = (MAX_EXPANSION / 4) as usize;

/// Shortest match DEFLATE codes (the hashed word size).
const MIN_MATCH: usize = 3;

/// A 3-byte match farther back than this costs more than its literals.
const TOO_FAR: usize = 4096;

/// Longest distance DEFLATE codes.
const WINDOW: usize = 1 << 15;

/// Most chain heads: `1 << MAX_HASH_BITS` of `u32`.
const MAX_HASH_BITS: u32 = 13;

/// Most chain links walked per match search.
const MAX_CHAIN: usize = 64;

const END_OF_BLOCK: usize = 256;
/// Literal/length symbols a block may use (the fixed code also assigns
/// 286 and 287, which are errors).
const LIT_SYMS: usize = 286;
/// Distance symbols a block may use (the fixed code also assigns 30 and
/// 31).
const DIST_SYMS: usize = 30;
const FIXED_LIT_SYMS: usize = 288;
const FIXED_DIST_SYMS: usize = 32;
const MAX_BITS: usize = 15;
const MAX_CL_BITS: usize = 7;

/// The order in which a dynamic header lists the code-length code.
const CL_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];
/// Extra bits of code-length symbols 16, 17 and 18.
const CL_EXTRA: [u32; 3] = [2, 3, 7];

const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Packs `raw` as `raw length varint ‖ one DEFLATE block` when that is
/// smaller than `raw` itself, with the code the block uses; `None`
/// keeps the payload plain (too short to save anything,
/// incompressible, or above [`MAX_RAW_LEN`]).
#[must_use]
pub(crate) fn pack(raw: &[u8]) -> Option<(Vec<u8>, Packing)> {
    if raw.len() <= MIN_MATCH || raw.len() > MAX_RAW_LEN {
        return None;
    }
    let steps = lz77(raw);
    let block = Block::plan(raw, &steps);
    let mut out = Vec::new();
    write_varint(&mut out, raw.len() as u64);
    if out.len() + block.bits.div_ceil(8) >= raw.len() {
        return None;
    }
    out.reserve_exact(block.bits.div_ceil(8));
    block.write(raw, &steps, &mut out);
    Some((out, block.packing))
}

/// Inverts [`pack`].
///
/// # Errors
///
/// [`CodecError::TooLarge`] for a declared raw length above the caps,
/// [`CodecError::Truncated`] when the block ends early or short of the
/// declared length, [`CodecError::TrailingBytes`] for bytes after it,
/// and [`CodecError::Invalid`] for anything else outside the subset
/// listed in the module docs.
pub(crate) fn unpack(packed: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut cur = Cursor::new(packed);
    let raw_len = cur.read_varint("packed raw length")?;
    let limit = (cur.remaining() as u64)
        .saturating_mul(MAX_EXPANSION)
        .min(MAX_RAW_LEN as u64);
    if raw_len > limit {
        return Err(CodecError::TooLarge {
            what: "packed raw length",
            declared: raw_len,
            limit,
            offset: 0,
        });
    }
    let raw_len = usize::try_from(raw_len).expect("at most MAX_RAW_LEN");
    let mut bits = Bits {
        buf: packed,
        pos: cur.pos(),
        acc: 0,
        n: 0,
    };
    let at = bits.offset();
    let header = bits.take(3, "block header")?;
    if header & 1 == 0 {
        return Err(invalid("a block that is not the final one", at));
    }
    let mut lit = Huffman::EMPTY;
    let mut dist = Huffman::EMPTY;
    match header >> 1 {
        0 => return Err(invalid("a stored block", at)),
        1 => {
            lit.fill(&fixed_lit_lens());
            dist.fill(&[5; FIXED_DIST_SYMS]);
        }
        2 => read_dynamic(&mut bits, &mut lit, &mut dist)?,
        _ => return Err(invalid("a block of reserved type 3", at)),
    }
    let mut out = Vec::with_capacity(raw_len);
    inflate(&mut bits, &lit, &dist, raw_len, &mut out)?;
    if bits.end() < packed.len() {
        return Err(CodecError::TrailingBytes { offset: bits.end() });
    }
    if out.len() != raw_len {
        return Err(CodecError::Truncated {
            what: "packed payload",
            offset: bits.end(),
        });
    }
    Ok(out)
}

fn invalid(what: impl Into<String>, offset: usize) -> CodecError {
    CodecError::Invalid {
        what: what.into(),
        offset,
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// An LSB-first bit reader (RFC 1951 §3.1.1).
struct Bits<'a> {
    buf: &'a [u8],
    /// Next byte to load into `acc`.
    pos: usize,
    acc: u64,
    /// Bits loaded into `acc` and not yet consumed.
    n: u32,
}

impl Bits<'_> {
    /// Offset of the byte holding the next unread bit.
    fn offset(&self) -> usize {
        (8 * self.pos - self.n as usize) / 8
    }

    /// Offset of the first byte no bit of which has been read.
    fn end(&self) -> usize {
        (8 * self.pos - self.n as usize).div_ceil(8)
    }

    fn refill(&mut self) {
        while self.n <= 56 && self.pos < self.buf.len() {
            self.acc |= u64::from(self.buf[self.pos]) << self.n;
            self.pos += 1;
            self.n += 8;
        }
    }

    fn consume(&mut self, count: u32) {
        self.acc >>= count;
        self.n -= count;
    }

    fn take(&mut self, count: u32, what: &'static str) -> Result<usize, CodecError> {
        if self.n < count {
            self.refill();
            if self.n < count {
                return Err(CodecError::Truncated {
                    what,
                    offset: self.offset(),
                });
            }
        }
        let v = (self.acc & ((1 << count) - 1)) as usize;
        self.consume(count);
        Ok(v)
    }

    /// Reads one symbol of `h`, a bit at a time in canonical order.
    fn decode(&mut self, h: &Huffman, what: &'static str) -> Result<usize, CodecError> {
        let at = self.offset();
        self.refill();
        let (mut code, mut first, mut index) = (0usize, 0usize, 0usize);
        for len in 1..=MAX_BITS {
            if len as u32 > self.n {
                return Err(CodecError::Truncated { what, offset: at });
            }
            code |= ((self.acc >> (len - 1)) & 1) as usize;
            let count = usize::from(h.count[len]);
            if code < first + count {
                self.consume(len as u32);
                return Ok(usize::from(h.symbol[index + code - first]));
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(invalid(format!("{what} matches no code"), at))
    }
}

/// A canonical Huffman code for decoding (RFC 1951 §3.2.2): how many
/// codes each length has, and the symbols in code order.
struct Huffman {
    count: [u16; MAX_BITS + 1],
    symbol: [u16; FIXED_LIT_SYMS],
}

/// How a set of code lengths fills the code space.
#[derive(PartialEq, Eq)]
enum Fill {
    Complete,
    Incomplete,
    OverSubscribed,
}

impl Huffman {
    const EMPTY: Huffman = Huffman {
        count: [0; MAX_BITS + 1],
        symbol: [0; FIXED_LIT_SYMS],
    };

    /// Builds the code of `lens` (each at most 15) in place.
    fn fill(&mut self, lens: &[u8]) -> Fill {
        self.count = [0; MAX_BITS + 1];
        for &l in lens {
            self.count[usize::from(l)] += 1;
        }
        let mut offs = [0u16; MAX_BITS + 2];
        for len in 1..=MAX_BITS {
            offs[len + 1] = offs[len] + self.count[len];
        }
        for (sym, &l) in lens.iter().enumerate() {
            if l != 0 {
                self.symbol[usize::from(offs[usize::from(l)])] = sym as u16;
                offs[usize::from(l)] += 1;
            }
        }
        let mut left = 1i32;
        for len in 1..=MAX_BITS {
            left = (left << 1) - i32::from(self.count[len]);
            if left < 0 {
                return Fill::OverSubscribed;
            }
        }
        if left == 0 {
            Fill::Complete
        } else {
            Fill::Incomplete
        }
    }
}

/// `Ok` for a complete code; the error names `what` code is not.
fn complete(fill: Fill, what: &str, at: usize) -> Result<(), CodecError> {
    match fill {
        Fill::Complete => Ok(()),
        Fill::Incomplete => Err(invalid(format!("incomplete {what} code lengths"), at)),
        Fill::OverSubscribed => Err(invalid(format!("over-subscribed {what} code lengths"), at)),
    }
}

/// Reads a dynamic block's header into its two codes.
fn read_dynamic(
    bits: &mut Bits<'_>,
    lit: &mut Huffman,
    dist: &mut Huffman,
) -> Result<(), CodecError> {
    let at = bits.offset();
    let hlit = bits.take(5, "HLIT")? + 257;
    let hdist = bits.take(5, "HDIST")? + 1;
    let hclen = bits.take(4, "HCLEN")? + 4;
    if hlit > LIT_SYMS {
        return Err(invalid(
            format!("{hlit} literal/length codes (symbols 286-287 are not codes)"),
            at,
        ));
    }
    if hdist > DIST_SYMS {
        return Err(invalid(
            format!("{hdist} distance codes (codes 30-31 are not distances)"),
            at,
        ));
    }
    let mut cl_lens = [0u8; 19];
    for &sym in &CL_ORDER[..hclen] {
        cl_lens[sym] = bits.take(3, "code length code")? as u8;
    }
    let mut cl = Huffman::EMPTY;
    complete(cl.fill(&cl_lens), "code length", at)?;
    let n = hlit + hdist;
    let mut lens = [0u8; LIT_SYMS + DIST_SYMS];
    let mut i = 0;
    while i < n {
        let sym_at = bits.offset();
        let sym = bits.decode(&cl, "code length")?;
        let (value, repeat) = match sym {
            0..=15 => (sym as u8, 1),
            16 => {
                let Some(&prev) = i.checked_sub(1).map(|p| &lens[p]) else {
                    return Err(invalid(
                        "a code length repeat with no previous length",
                        sym_at,
                    ));
                };
                (prev, 3 + bits.take(2, "repeat count")?)
            }
            17 => (0, 3 + bits.take(3, "zero run")?),
            _ => (0, 11 + bits.take(7, "zero run")?),
        };
        if i + repeat > n {
            return Err(invalid(
                format!("a code length run of {repeat} at length {i} runs past the {n} lengths"),
                sym_at,
            ));
        }
        lens[i..i + repeat].fill(value);
        i += repeat;
    }
    let at = bits.offset();
    if lens[END_OF_BLOCK] == 0 {
        return Err(invalid("no end-of-block code", at));
    }
    complete(lit.fill(&lens[..hlit]), "literal/length", at)?;
    match dist.fill(&lens[hlit..n]) {
        // RFC 1951 §3.2.7 allows one incomplete code: a distance code of
        // a single one-bit code, or of none for a block of literals.
        Fill::Incomplete if dist.count[1] <= 1 && dist.count[2..].iter().all(|&c| c == 0) => Ok(()),
        fill => complete(fill, "distance", at),
    }
}

/// Decodes the block's symbols up to its end-of-block into `out`.
fn inflate(
    bits: &mut Bits<'_>,
    lit: &Huffman,
    dist: &Huffman,
    raw_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    loop {
        let at = bits.offset();
        let sym = bits.decode(lit, "literal/length code")?;
        if sym < END_OF_BLOCK {
            if out.len() == raw_len {
                return Err(invalid(
                    format!("a literal runs past the declared raw length {raw_len}"),
                    at,
                ));
            }
            out.push(sym as u8);
            continue;
        }
        if sym == END_OF_BLOCK {
            return Ok(());
        }
        let Some(&base) = LEN_BASE.get(sym - 257) else {
            return Err(invalid(format!("literal/length symbol {sym}"), at));
        };
        let len = usize::from(base) + bits.take(u32::from(LEN_EXTRA[sym - 257]), "length")?;
        let dist_at = bits.offset();
        let dsym = bits.decode(dist, "distance code")?;
        let Some(&base) = DIST_BASE.get(dsym) else {
            return Err(invalid(format!("distance code {dsym}"), dist_at));
        };
        let d = usize::from(base) + bits.take(u32::from(DIST_EXTRA[dsym]), "distance")?;
        if d > out.len() {
            return Err(invalid(
                format!("match distance {d} outside the {} decoded bytes", out.len()),
                dist_at,
            ));
        }
        if len > raw_len - out.len() {
            return Err(invalid(
                format!("match of {len} bytes runs past the declared raw length {raw_len}"),
                at,
            ));
        }
        // A match longer than its distance repeats the last `d` bytes;
        // each chunk copied doubles what the next may copy.
        let start = out.len() - d;
        let end = out.len() + len;
        while out.len() < end {
            let n = (end - out.len()).min(out.len() - start);
            out.extend_from_within(start..start + n);
        }
    }
}

// ---------------------------------------------------------------------
// Encoding: LZ77
// ---------------------------------------------------------------------

/// One LZ77 step: `lits` literal bytes, then a match of `len` bytes
/// `dist` back; the last step of a payload may have no match (`len` 0).
#[derive(Clone, Copy)]
struct Step {
    lits: u32,
    len: u8,
    dist: u16,
}

/// Hash chains over the positions of `src` searched so far.
struct Chains<'a> {
    src: &'a [u8],
    bits: u32,
    /// Position + 1 of the latest word hashing to each head; 0 is none.
    head: Vec<u32>,
    /// Distance from each position (modulo the window) back to the
    /// previous one on its chain; 0 ends the chain.
    prev: Vec<u16>,
    /// Positions below this are on their chains.
    inserted: usize,
}

impl<'a> Chains<'a> {
    fn new(src: &'a [u8]) -> Self {
        let bits = (usize::BITS - (src.len() - 1).leading_zeros()).min(MAX_HASH_BITS);
        Chains {
            src,
            bits,
            head: vec![0; 1 << bits],
            prev: vec![0; src.len().min(WINDOW)],
            inserted: 0,
        }
    }

    fn hash(&self, i: usize) -> usize {
        let s = self.src;
        let word = u32::from(s[i]) | u32::from(s[i + 1]) << 8 | u32::from(s[i + 2]) << 16;
        (word.wrapping_mul(0x9E37_79B1) >> (32 - self.bits)) as usize
    }

    /// Puts every position below `end` that starts a word on its chain.
    fn insert_to(&mut self, end: usize) {
        let end = end.min(self.src.len() + 1 - MIN_MATCH);
        while self.inserted < end {
            let i = self.inserted;
            let h = self.hash(i);
            let back = (i + 1).wrapping_sub(self.head[h] as usize);
            self.prev[i % WINDOW] = if self.head[h] == 0 || back > WINDOW {
                0
            } else {
                back as u16
            };
            self.head[h] = (i + 1) as u32;
            self.inserted += 1;
        }
    }

    /// The longest match `(len, dist)` for position `i` among the
    /// positions before it; `len` 0 when there is none worth coding.
    fn longest(&mut self, i: usize) -> (usize, usize) {
        let src = self.src;
        if i + MIN_MATCH > src.len() {
            return (0, 0);
        }
        self.insert_to(i);
        let max_len = MAX_MATCH.min(src.len() - i);
        let mut best = (MIN_MATCH - 1, 0);
        let mut cand = self.head[self.hash(i)] as usize;
        if cand == 0 || i + 1 - cand > WINDOW {
            return (0, 0);
        }
        cand -= 1;
        for _ in 0..MAX_CHAIN {
            // The byte that would make a match longer than the best
            // decides most candidates at once.
            if src[cand + best.0] == src[i + best.0] {
                let len = common_prefix(&src[cand..cand + max_len], &src[i..i + max_len]);
                if len > best.0 {
                    best = (len, i - cand);
                    if len == max_len {
                        break;
                    }
                }
            }
            let back = usize::from(self.prev[cand % WINDOW]);
            if back == 0 || i - (cand - back) > WINDOW {
                break;
            }
            cand -= back;
        }
        if best.0 < MIN_MATCH || best.0 == MIN_MATCH && best.1 > TOO_FAR {
            (0, 0)
        } else {
            best
        }
    }
}

/// The length of the common prefix of `a` and `b` (of equal length),
/// eight bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(y.try_into().expect("8 bytes"));
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..]
        .iter()
        .zip(&b[n..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Parses `src` into LZ77 steps with one-step lazy matching: a match is
/// taken unless the next byte starts a longer one.
fn lz77(src: &[u8]) -> Vec<Step> {
    let mut chains = Chains::new(src);
    let mut steps = Vec::new();
    let mut lit_start = 0;
    let mut i = 0;
    let mut here = chains.longest(0);
    while i < src.len() {
        if here.0 == 0 {
            i += 1;
            here = chains.longest(i);
            continue;
        }
        let next = if here.0 < MAX_MATCH {
            chains.longest(i + 1)
        } else {
            (0, 0)
        };
        if next.0 > here.0 {
            i += 1;
            here = next;
            continue;
        }
        steps.push(Step {
            lits: (i - lit_start) as u32,
            len: here.0 as u8,
            dist: here.1 as u16,
        });
        i += here.0;
        lit_start = i;
        here = chains.longest(i);
    }
    if lit_start < src.len() {
        steps.push(Step {
            lits: (src.len() - lit_start) as u32,
            len: 0,
            dist: 0,
        });
    }
    steps
}

// ---------------------------------------------------------------------
// Encoding: Huffman codes and the block
// ---------------------------------------------------------------------

fn len_symbol(len: usize) -> usize {
    LEN_BASE.partition_point(|&b| usize::from(b) <= len) - 1
}

fn dist_symbol(dist: usize) -> usize {
    DIST_BASE.partition_point(|&b| usize::from(b) <= dist) - 1
}

/// Minimum-redundancy code lengths for `freq`, none above `limit`, into
/// `lens`. A lone used symbol gets one bit.
fn code_lengths(freq: &[u32], limit: usize, lens: &mut [u8]) {
    // Used symbols by ascending frequency, ties broken by symbol, so the
    // code depends on the frequencies alone.
    let mut syms = [(0u32, 0u16); LIT_SYMS];
    let mut n = 0;
    for (s, &f) in freq.iter().enumerate() {
        if f > 0 {
            syms[n] = (f, s as u16);
            n += 1;
        }
    }
    let syms = &mut syms[..n];
    syms.sort_unstable();
    lens.fill(0);
    if n == 1 {
        lens[usize::from(syms[0].1)] = 1;
    }
    if n <= 1 {
        return;
    }
    let mut depth = [0u32; LIT_SYMS];
    let depth = &mut depth[..n];
    for (d, s) in depth.iter_mut().zip(syms.iter()) {
        *d = s.0;
    }
    minimum_redundancy(depth);
    // Clamp to the limit, then lengthen the shortest codes that can
    // give up room until the lengths form a prefix code again.
    let mut count = [0u32; MAX_BITS + 1];
    for &d in depth.iter() {
        count[(d as usize).min(limit)] += 1;
    }
    let mut total: u32 = (1..=limit).map(|l| count[l] << (limit - l)).sum();
    while total > 1 << limit {
        count[limit] -= 1;
        if let Some(l) = (1..limit).rev().find(|&l| count[l] > 0) {
            count[l] -= 1;
            count[l + 1] += 2;
        }
        total -= 1;
    }
    // The most frequent symbols take the shortest codes.
    let mut j = n;
    for (l, &c) in count.iter().enumerate().skip(1) {
        for _ in 0..c {
            j -= 1;
            lens[usize::from(syms[j].1)] = l as u8;
        }
    }
}

/// Moffat and Katajainen's in-place minimum-redundancy code: `a` holds
/// at least two weights in ascending order and ends holding each one's
/// code length.
fn minimum_redundancy(a: &mut [u32]) {
    let n = a.len();
    // Pair the two lightest items into internal node `next`; an
    // internal node's weight is overwritten by its parent's index once
    // it is paired.
    a[0] += a[1];
    let (mut root, mut leaf) = (0, 2);
    for next in 1..n - 1 {
        if leaf >= n || a[root] < a[leaf] {
            a[next] = a[root];
            a[root] = next as u32;
            root += 1;
        } else {
            a[next] = a[leaf];
            leaf += 1;
        }
        if leaf >= n || (root < next && a[root] < a[leaf]) {
            a[next] += a[root];
            a[root] = next as u32;
            root += 1;
        } else {
            a[next] += a[leaf];
            leaf += 1;
        }
    }
    // Internal node depths, from the root down.
    a[n - 2] = 0;
    for next in (0..n - 2).rev() {
        a[next] = a[a[next] as usize] + 1;
    }
    // Leaf depths: the nodes each level has room for, less the internal
    // nodes at that level.
    let (mut avail, mut used, mut depth) = (1usize, 0usize, 0u32);
    let mut root = n as isize - 2;
    let mut next = n;
    while avail > 0 {
        while root >= 0 && a[root as usize] == depth {
            used += 1;
            root -= 1;
        }
        while avail > used {
            next -= 1;
            a[next] = depth;
            avail -= 1;
        }
        avail = 2 * used;
        depth += 1;
        used = 0;
    }
}

/// Canonical codes for `lens` (RFC 1951 §3.2.2), bit-reversed for the
/// LSB-first writer.
fn canonical(lens: &[u8], codes: &mut [u16]) {
    let mut count = [0u16; MAX_BITS + 1];
    for &l in lens {
        count[usize::from(l)] += 1;
    }
    count[0] = 0;
    let mut next = [0u16; MAX_BITS + 1];
    for len in 1..=MAX_BITS {
        next[len] = (next[len - 1] + count[len - 1]) << 1;
    }
    for (code, &l) in codes.iter_mut().zip(lens) {
        if l != 0 {
            let c = next[usize::from(l)];
            next[usize::from(l)] += 1;
            *code = c.reverse_bits() >> (16 - l);
        }
    }
}

/// An LSB-first bit writer.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    n: u32,
}

impl BitWriter<'_> {
    fn put(&mut self, bits: usize, count: u32) {
        self.acc |= (bits as u64) << self.n;
        self.n += count;
        while self.n >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.n -= 8;
        }
    }

    fn finish(self) {
        if self.n > 0 {
            self.out.push(self.acc as u8);
        }
    }
}

/// The codes one block uses, chosen from its symbol frequencies.
struct Block {
    packing: Packing,
    /// Length of the block in bits.
    bits: usize,
    /// All 288 of the fixed code's lengths, whose unusable symbols
    /// 286–287 still shape the codes of symbols 144–255.
    lit_lens: [u8; FIXED_LIT_SYMS],
    dist_lens: [u8; DIST_SYMS],
    /// Dynamic blocks: HLIT, HDIST, and the run-length coded lengths
    /// as (code-length symbol, extra bits value).
    hlit: usize,
    hdist: usize,
    cl_syms: [(u8, u8); LIT_SYMS + DIST_SYMS],
    n_cl: usize,
    cl_lens: [u8; 19],
    hclen: usize,
}

impl Block {
    fn plan(src: &[u8], steps: &[Step]) -> Block {
        let mut lit_freq = [0u32; LIT_SYMS];
        let mut dist_freq = [0u32; DIST_SYMS];
        let mut extra = 0usize;
        let mut pos = 0;
        for s in steps {
            for &b in &src[pos..pos + s.lits as usize] {
                lit_freq[usize::from(b)] += 1;
            }
            pos += s.lits as usize + usize::from(s.len);
            if s.len > 0 {
                let l = len_symbol(usize::from(s.len));
                let d = dist_symbol(usize::from(s.dist));
                lit_freq[257 + l] += 1;
                dist_freq[d] += 1;
                extra += usize::from(LEN_EXTRA[l]) + usize::from(DIST_EXTRA[d]);
            }
        }
        lit_freq[END_OF_BLOCK] = 1;

        let cost = |freq: &[u32], lens: &[u8]| -> usize {
            freq.iter()
                .zip(lens)
                .map(|(&f, &l)| f as usize * usize::from(l))
                .sum()
        };
        let fixed_bits = 3
            + extra
            + cost(&lit_freq, &fixed_lit_lens())
            + 5 * dist_freq.iter().map(|&f| f as usize).sum::<usize>();

        let mut b = Block {
            packing: Packing::Dynamic,
            bits: 0,
            lit_lens: [0; FIXED_LIT_SYMS],
            dist_lens: [0; DIST_SYMS],
            hlit: 0,
            hdist: 0,
            cl_syms: [(0, 0); LIT_SYMS + DIST_SYMS],
            n_cl: 0,
            cl_lens: [0; 19],
            hclen: 0,
        };
        code_lengths(&lit_freq, MAX_BITS, &mut b.lit_lens[..LIT_SYMS]);
        code_lengths(&dist_freq, MAX_BITS, &mut b.dist_lens);
        if b.dist_lens.iter().all(|&l| l == 0) {
            // No matches: RFC 1951's single distance code, never read.
            b.dist_lens[0] = 1;
        }
        let trailing = |lens: &[u8]| lens.iter().rev().take_while(|&&l| l == 0).count();
        b.hlit = 257.max(LIT_SYMS - trailing(&b.lit_lens[..LIT_SYMS]));
        b.hdist = 1.max(DIST_SYMS - trailing(&b.dist_lens));
        let mut lens = [0u8; LIT_SYMS + DIST_SYMS];
        lens[..b.hlit].copy_from_slice(&b.lit_lens[..b.hlit]);
        lens[b.hlit..b.hlit + b.hdist].copy_from_slice(&b.dist_lens[..b.hdist]);
        b.n_cl = run_lengths(&lens[..b.hlit + b.hdist], &mut b.cl_syms);
        let mut cl_freq = [0u32; 19];
        let mut cl_extra = 0;
        for &(sym, _) in &b.cl_syms[..b.n_cl] {
            cl_freq[usize::from(sym)] += 1;
            if sym >= 16 {
                cl_extra += CL_EXTRA[usize::from(sym) - 16] as usize;
            }
        }
        code_lengths(&cl_freq, MAX_CL_BITS, &mut b.cl_lens);
        b.hclen = 4.max(
            19 - CL_ORDER
                .iter()
                .rev()
                .take_while(|&&s| b.cl_lens[s] == 0)
                .count(),
        );
        let dynamic_bits = 3
            + 14
            + 3 * b.hclen
            + cl_extra
            + cost(&cl_freq, &b.cl_lens)
            + cost(&lit_freq, &b.lit_lens)
            + cost(&dist_freq, &b.dist_lens)
            + extra;
        if fixed_bits <= dynamic_bits {
            b.packing = Packing::Fixed;
            b.lit_lens = fixed_lit_lens();
            b.dist_lens = [5; DIST_SYMS];
            b.bits = fixed_bits;
        } else {
            b.bits = dynamic_bits;
        }
        b
    }

    fn write(&self, src: &[u8], steps: &[Step], out: &mut Vec<u8>) {
        let mut w = BitWriter { out, acc: 0, n: 0 };
        let mut lit = [0u16; FIXED_LIT_SYMS];
        let mut dist = [0u16; DIST_SYMS];
        canonical(&self.lit_lens, &mut lit);
        canonical(&self.dist_lens, &mut dist);
        if self.packing == Packing::Fixed {
            w.put(0b011, 3);
        } else {
            w.put(0b101, 3);
            w.put(self.hlit - 257, 5);
            w.put(self.hdist - 1, 5);
            w.put(self.hclen - 4, 4);
            for &s in &CL_ORDER[..self.hclen] {
                w.put(usize::from(self.cl_lens[s]), 3);
            }
            let mut cl = [0u16; 19];
            canonical(&self.cl_lens, &mut cl);
            for &(sym, x) in &self.cl_syms[..self.n_cl] {
                let s = usize::from(sym);
                w.put(usize::from(cl[s]), u32::from(self.cl_lens[s]));
                if s >= 16 {
                    w.put(usize::from(x), CL_EXTRA[s - 16]);
                }
            }
        }
        let put_sym = |w: &mut BitWriter<'_>, s: usize| {
            w.put(usize::from(lit[s]), u32::from(self.lit_lens[s]));
        };
        let mut pos = 0;
        for s in steps {
            for &b in &src[pos..pos + s.lits as usize] {
                put_sym(&mut w, usize::from(b));
            }
            pos += s.lits as usize + usize::from(s.len);
            if s.len > 0 {
                let len = usize::from(s.len);
                let l = len_symbol(len);
                put_sym(&mut w, 257 + l);
                w.put(len - usize::from(LEN_BASE[l]), u32::from(LEN_EXTRA[l]));
                let d = usize::from(s.dist);
                let ds = dist_symbol(d);
                w.put(usize::from(dist[ds]), u32::from(self.dist_lens[ds]));
                w.put(d - usize::from(DIST_BASE[ds]), u32::from(DIST_EXTRA[ds]));
            }
        }
        put_sym(&mut w, END_OF_BLOCK);
        w.finish();
    }
}

/// The fixed code's literal/length lengths (RFC 1951 §3.2.6).
fn fixed_lit_lens() -> [u8; FIXED_LIT_SYMS] {
    let mut lens = [8u8; FIXED_LIT_SYMS];
    lens[144..256].fill(9);
    lens[256..280].fill(7);
    lens
}

/// Run-length codes `lens` as code-length symbols (RFC 1951 §3.2.7):
/// 16 repeats the previous length 3–6 times, 17 and 18 write 3–10 and
/// 11–138 zeros. Returns how many of `out` it filled.
fn run_lengths(lens: &[u8], out: &mut [(u8, u8)]) -> usize {
    let mut n = 0;
    let mut push = |sym: u8, extra: usize| {
        out[n] = (sym, extra as u8);
        n += 1;
    };
    let mut i = 0;
    while i < lens.len() {
        let v = lens[i];
        let mut run = lens[i..].iter().take_while(|&&l| l == v).count();
        i += run;
        if v == 0 {
            while run >= 11 {
                let r = run.min(138);
                push(18, r - 11);
                run -= r;
            }
            if run >= 3 {
                push(17, run - 3);
                run = 0;
            }
        } else {
            push(v, 0);
            run -= 1;
            while run >= 3 {
                let r = run.min(6);
                push(16, r - 3);
                run -= r;
            }
        }
        for _ in 0..run {
            push(v, 0);
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(raw: &[u8]) -> Option<(usize, Packing)> {
        let (packed, packing) = pack(raw)?;
        assert_eq!(unpack(&packed).unwrap(), raw);
        Some((packed.len(), packing))
    }

    #[test]
    fn repeats_pack_and_roundtrip() {
        // 1,029 bytes of repeats take 17 matches of at most 63 bytes.
        let line: Vec<u8> = b"GET /item/7 HTTP/1.1\n".repeat(50);
        let (packed, _) = roundtrip(&line).expect("repeated lines pack");
        assert!(packed < 70, "50 request lines packed to {packed} bytes");
        // A long constant run: overlapping copies at distance 1, each at
        // most 63 bytes and five bits (a one-bit length code, its three
        // extra bits and a one-bit distance code).
        let zeros = vec![0u8; 10_000];
        let (packed, packing) = roundtrip(&zeros).expect("a zero run packs");
        assert!(packed < 120, "10 000 zeros packed to {packed} bytes");
        assert_eq!(packing, Packing::Dynamic);
        assert!(10_000 <= 252 * (packed - 2), "within MAX_EXPANSION");
        let mut mixed: Vec<u8> = (0..=255u8).collect();
        mixed.extend_from_slice(&mixed.clone());
        roundtrip(&mixed).expect("a repeated 256-byte block packs");
    }

    #[test]
    fn short_payloads_take_the_fixed_code() {
        let (_, packing) = roundtrip(b"abcabcabcabcabcabc").expect("packs");
        assert_eq!(packing, Packing::Fixed);
    }

    #[test]
    fn incompressible_and_tiny_inputs_stay_plain() {
        assert_eq!(pack(b""), None);
        assert_eq!(pack(b"abcd"), None);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let noise: Vec<u8> = (0..512)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        assert_eq!(pack(&noise), None);
    }

    #[test]
    fn matches_stay_within_the_window_and_the_cap() {
        // Two copies of 40 KiB of noise: the second copy's matches must
        // reach back at most 32 KiB and run at most 63 bytes.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut src: Vec<u8> = (0..40_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 7) as u8
            })
            .collect();
        src.extend_from_within(..);
        let steps = lz77(&src);
        assert!(steps.iter().all(|s| usize::from(s.len) <= MAX_MATCH));
        assert!(steps.iter().all(|s| usize::from(s.dist) <= WINDOW));
        let covered: usize = steps
            .iter()
            .map(|s| s.lits as usize + usize::from(s.len))
            .sum();
        assert_eq!(covered, src.len());
        roundtrip(&src).expect("packs");
    }

    #[test]
    fn code_lengths_respect_the_limit_and_form_prefix_codes() {
        // Fibonacci frequencies make a maximally deep Huffman tree.
        let mut freq = [0u32; 19];
        let (mut a, mut b) = (1u32, 1u32);
        for f in &mut freq {
            *f = a;
            (a, b) = (b, a + b);
        }
        let mut lens = [0u8; 19];
        code_lengths(&freq, MAX_CL_BITS, &mut lens);
        assert!(lens.iter().all(|&l| (1..=7).contains(&l)), "{lens:?}");
        let kraft: u32 = lens.iter().map(|&l| 1 << (7 - l)).sum();
        assert_eq!(kraft, 1 << 7, "{lens:?}");
        let mut h = Huffman::EMPTY;
        assert!(h.fill(&lens) == Fill::Complete);
    }

    #[test]
    fn run_lengths_cover_every_length() {
        let mut lens = vec![0u8; 150];
        lens.extend([8; 9]);
        lens.extend([0; 4]);
        lens.extend([3, 3, 5]);
        let mut out = [(0, 0); LIT_SYMS + DIST_SYMS];
        let n = run_lengths(&lens, &mut out);
        assert_eq!(
            &out[..n],
            [
                (18, 127),
                (18, 1),
                (8, 0),
                (16, 3),
                (8, 0),
                (8, 0),
                (17, 1),
                (3, 0),
                (3, 0),
                (5, 0)
            ]
        );
    }
}
