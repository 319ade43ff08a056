//! One bounded LZ77 pass over a binary stream payload.
//!
//! LZ77 is a dictionary compressor: it replaces a byte run that already
//! occurred with a `(distance, length)` back-reference to the earlier
//! copy. Demo payloads repeat a lot — the same request line, the same
//! syscall record shape, the same periodic next-tick pattern — so most
//! of a payload becomes a few bytes of references.
//!
//! The packed form is a run of *sequences*, in the LZ4 mould:
//!
//! ```text
//! sequence := token  literal-ext?  literals  [ distance  match-ext? ]
//! token    := u8 — literal count (high nibble) | match length − 4 (low nibble)
//! distance := LEB128 varint, 1 = the byte just written
//! ```
//!
//! A nibble of 15 continues in extension bytes that are added to it,
//! where each byte of 255 asks for one more. The last sequence ends
//! after its literals: the end of input is the end of the payload.
//!
//! Bounds, so that a crafted payload cannot ask for memory its size
//! does not justify:
//!
//! * the encoder's only scratch is a hash table with a `u32` slot per
//!   input byte (rounded up to a power of two), at most 8 Ki slots
//!   (32 KiB) whatever the input size;
//! * the decoder rejects a declared raw length above [`MAX_RAW_LEN`], or
//!   above [`MAX_EXPANSION`] times the packed bytes that follow it (no
//!   sequence can produce more), *before* reserving the output;
//! * every distance must point into the bytes already decoded, and no
//!   literal run or match may run past the declared raw length.

use crate::codec::{write_varint, CodecError, Cursor};

/// Cap on a packed payload's declared raw length (64 MiB). The encoder
/// stores larger payloads plain, so every frame this crate writes
/// decodes; a frame declaring more is rejected unread.
pub const MAX_RAW_LEN: usize = 1 << 26;

/// Most bytes one packed byte can decode to: a length-extension byte
/// of 255 adds 255 bytes to a match, and every other form yields less.
pub const MAX_EXPANSION: u64 = 255;

/// Shortest back-reference worth a sequence (the hashed word size).
const MIN_MATCH: usize = 4;

/// Most encoder hash table slots: `1 << MAX_HASH_BITS` of `u32`.
const MAX_HASH_BITS: u32 = 13;

/// A nibble value that continues in extension bytes.
const NIBBLE_MAX: usize = 15;

/// Packs `raw` as `raw length varint ‖ sequences` when that is smaller
/// than `raw` itself; `None` keeps the payload plain (too short to
/// save anything, incompressible, or above [`MAX_RAW_LEN`]).
#[must_use]
pub(crate) fn pack(raw: &[u8]) -> Option<Vec<u8>> {
    if raw.len() <= MIN_MATCH || raw.len() > MAX_RAW_LEN {
        return None;
    }
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    write_varint(&mut out, raw.len() as u64);
    compress(raw, &mut out);
    (out.len() < raw.len()).then_some(out)
}

/// Inverts [`pack`].
///
/// # Errors
///
/// [`CodecError::TooLarge`] for a declared raw length above the caps,
/// [`CodecError::Invalid`] for a distance outside the decoded bytes or
/// a copy past the declared length, [`CodecError::Truncated`] when the
/// sequences end short of it.
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
    let mut out = Vec::with_capacity(raw_len);
    while !cur.is_at_end() {
        let at = cur.pos();
        let token = cur.read_u8("sequence token")?;
        let literals = read_len(&mut cur, token >> 4)?;
        if literals > raw_len - out.len() {
            return Err(past_end("literal run", literals, raw_len, at));
        }
        out.extend_from_slice(cur.read_bytes(literals, "literals")?);
        if cur.is_at_end() {
            break;
        }
        let dist_at = cur.pos();
        let dist = cur.read_varint("match distance")?;
        let len = read_len(&mut cur, token & 0x0f)?.saturating_add(MIN_MATCH);
        if dist == 0 || dist > out.len() as u64 {
            return Err(CodecError::Invalid {
                what: format!(
                    "match distance {dist} outside the {} decoded bytes",
                    out.len()
                ),
                offset: dist_at,
            });
        }
        if len > raw_len - out.len() {
            return Err(past_end("match", len, raw_len, at));
        }
        // A match longer than its distance repeats the last `dist`
        // bytes; each chunk copied doubles what the next may copy.
        let start = out.len() - dist as usize;
        let end = out.len() + len;
        while out.len() < end {
            let n = (end - out.len()).min(out.len() - start);
            out.extend_from_within(start..start + n);
        }
    }
    if out.len() != raw_len {
        return Err(CodecError::Truncated {
            what: "packed payload",
            offset: cur.pos(),
        });
    }
    Ok(out)
}

fn past_end(what: &str, len: usize, raw_len: usize, offset: usize) -> CodecError {
    CodecError::Invalid {
        what: format!("{what} of {len} bytes runs past the declared raw length {raw_len}"),
        offset,
    }
}

/// A token nibble plus its extension bytes.
fn read_len(cur: &mut Cursor<'_>, nibble: u8) -> Result<usize, CodecError> {
    let mut len = usize::from(nibble);
    if len == NIBBLE_MAX {
        loop {
            let b = cur.read_u8("length extension")?;
            len = len.saturating_add(usize::from(b));
            if b != 255 {
                break;
            }
        }
    }
    Ok(len)
}

fn write_len_ext(out: &mut Vec<u8>, len: usize) {
    if len >= NIBBLE_MAX {
        let mut rest = len - NIBBLE_MAX;
        while rest >= 255 {
            out.push(255);
            rest -= 255;
        }
        out.push(rest as u8);
    }
}

/// Appends one sequence: `literals`, then the match `(distance, len)`
/// when there is one.
fn emit(out: &mut Vec<u8>, literals: &[u8], matched: Option<(usize, usize)>) {
    let match_code = matched.map_or(0, |(_, len)| len - MIN_MATCH);
    out.push(((literals.len().min(NIBBLE_MAX) as u8) << 4) | match_code.min(NIBBLE_MAX) as u8);
    write_len_ext(out, literals.len());
    out.extend_from_slice(literals);
    if let Some((dist, _)) = matched {
        write_varint(out, dist as u64);
        write_len_ext(out, match_code);
    }
}

fn word_at(src: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(src[i..i + MIN_MATCH].try_into().expect("a 4-byte slice"))
}

/// Greedy parse: at each position take the match with the latest
/// earlier occurrence of the next four bytes, if any.
fn compress(src: &[u8], out: &mut Vec<u8>) {
    // Position + 1 of the latest word hashing to each slot; 0 is empty.
    // A slot per input byte keeps a small payload's scratch small.
    let bits = (usize::BITS - (src.len() - 1).leading_zeros()).min(MAX_HASH_BITS);
    let slot = |word: u32| (word.wrapping_mul(0x9E37_79B1) >> (32 - bits)) as usize;
    let mut table = vec![0u32; 1 << bits];
    let last_word = src.len() - MIN_MATCH;
    let mut anchor = 0;
    let mut i = 0;
    while i <= last_word {
        let word = word_at(src, i);
        let h = slot(word);
        let candidate = table[h] as usize;
        table[h] = (i + 1) as u32;
        if candidate == 0 || word_at(src, candidate - 1) != word {
            i += 1;
            continue;
        }
        let from = candidate - 1;
        let mut len = MIN_MATCH;
        while i + len < src.len() && src[from + len] == src[i + len] {
            len += 1;
        }
        emit(out, &src[anchor..i], Some((i - from, len)));
        // Index the words the match covered, so later repeats can
        // reach into it.
        for j in i + 1..(i + len).min(last_word + 1) {
            table[slot(word_at(src, j))] = (j + 1) as u32;
        }
        i += len;
        anchor = i;
    }
    if anchor < src.len() {
        emit(out, &src[anchor..], None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(raw: &[u8]) -> Option<usize> {
        let packed = pack(raw)?;
        assert_eq!(unpack(&packed).unwrap(), raw);
        Some(packed.len())
    }

    #[test]
    fn repeats_pack_and_roundtrip() {
        let line: Vec<u8> = b"GET /item/7 HTTP/1.1\n".repeat(50);
        let packed = roundtrip(&line).expect("repeated lines pack");
        assert!(packed < 40, "50 request lines packed to {packed} bytes");
        // A long constant run needs length-extension bytes, and an
        // overlapping copy (distance 1).
        let zeros = vec![0u8; 10_000];
        let packed = roundtrip(&zeros).expect("a zero run packs");
        assert!(packed < 60, "10 000 zeros packed to {packed} bytes");
        // Long literal runs need literal-extension bytes.
        let mut mixed: Vec<u8> = (0..=255u8).collect();
        mixed.extend_from_slice(&mixed.clone());
        roundtrip(&mixed).expect("a repeated 256-byte block packs");
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
    fn hostile_sequences_are_typed_errors() {
        let packed = |raw_len: u64, body: &[u8]| {
            let mut p = Vec::new();
            write_varint(&mut p, raw_len);
            p.extend_from_slice(body);
            p
        };
        // One literal, then a match at distance 0 / 2 (one past output).
        for dist in [0u8, 2] {
            let err = unpack(&packed(8, &[0x10, b'a', dist])).unwrap_err();
            assert!(
                matches!(&err, CodecError::Invalid { what, .. } if what.contains("distance")),
                "distance {dist}: {err}"
            );
        }
        // A 4-byte match after one literal overruns a 4-byte payload.
        let err = unpack(&packed(4, &[0x10, b'a', 1])).unwrap_err();
        assert!(matches!(&err, CodecError::Invalid { what, .. } if what.contains("past")));
        // Literals ending short of the declared length.
        let err = unpack(&packed(3, &[0x20, b'a', b'b'])).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }), "{err}");
        // Declared lengths above the cap or the 255× bound.
        let err = unpack(&packed(MAX_RAW_LEN as u64 + 1, &[0; 1 << 20])).unwrap_err();
        assert!(matches!(err, CodecError::TooLarge { limit, .. } if limit == MAX_RAW_LEN as u64));
        let err = unpack(&packed(3 * 255 + 1, &[0x10, b'a', 1])).unwrap_err();
        assert!(
            matches!(err, CodecError::TooLarge { limit: 765, .. }),
            "{err}"
        );
    }
}
