//! Run-length codecs for the text demo format.
//!
//! Two codecs cover the paper's two compression needs:
//!
//! * [`encode_u64s`] / [`decode_u64s`] — integer sequences (the QUEUE
//!   next-tick list, the ALLOC address stream). The dominant pattern is a
//!   thread scheduled many times in succession, which produces arithmetic
//!   runs with step 1 (`k, k+1, k+2, …`); repeated constants also occur
//!   (`0 0 0 …` for "never scheduled again"). Tokens:
//!   - `N` — a literal value;
//!   - `N+K` — the run `N, N+1, …, N+K` (K ≥ 1);
//!   - `N*K` — the value `N` repeated `K` times (K ≥ 2).
//! * [`encode_bytes`] / [`decode_bytes`] — byte buffers (SYSCALL output
//!   data). "A simple run length encoding" (§4.4): alternating literal and
//!   run chunks, serialized as lowercase hex.
//!
//! The binary format ([`crate::codec`]) uses neither: it delta-codes its
//! integers and leaves repetition to one LZ77 pass.

use std::fmt::Write as _;

/// Most values one text integer stream may decode to (16 Mi, 128 MiB of
/// `u64`). A token is a few bytes however many values it stands for, so
/// without a cap `0*18446744073709551615` would ask for all of memory.
pub const MAX_DECODED_VALUES: usize = 1 << 24;

/// Encodes an integer sequence into the token text form. At each value
/// it takes the longest arithmetic(+1) run, else the longest constant
/// run, else a literal. The two kinds of run part at their second value,
/// so one pass with no lookahead finds them, holding nothing per value.
#[must_use]
pub fn encode_u64s(values: impl IntoIterator<Item = u64>) -> String {
    /// The token being built: its first value, its length, and whether
    /// it counts up (`N+K`) rather than repeats (`N*K`).
    type Token = (u64, u64, bool);
    fn push(out: &mut String, (base, len, inc): Token) {
        if !out.is_empty() {
            out.push(' ');
        }
        let _ = match (len, inc) {
            (1, _) => write!(out, "{base}"),
            (_, true) => write!(out, "{base}+{}", len - 1),
            (_, false) => write!(out, "{base}*{len}"),
        };
    }
    let mut out = String::new();
    let mut token: Option<Token> = None;
    for v in values {
        token = Some(match token {
            Some((base, 1, _)) if Some(v) == base.checked_add(1) => (base, 2, true),
            Some((base, len, false)) if v == base => (base, len + 1, false),
            Some((base, len, true)) if Some(v) == base.checked_add(len) => (base, len + 1, true),
            Some(done) => {
                push(&mut out, done);
                (v, 1, false)
            }
            None => (v, 1, false),
        });
    }
    if let Some(done) = token {
        push(&mut out, done);
    }
    out
}

/// Decodes the token text form produced by [`encode_u64s`].
///
/// # Errors
///
/// Returns a description of the first malformed token, of a run that
/// passes `u64::MAX`, or of the token that takes the stream past
/// [`MAX_DECODED_VALUES`].
pub fn decode_u64s(text: &str) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    for tok in text.split_whitespace() {
        let (value, count, step) = if let Some((base, k)) = tok.split_once('+') {
            let base: u64 = base
                .parse()
                .map_err(|_| format!("bad run base in `{tok}`"))?;
            let k: u64 = k
                .parse()
                .map_err(|_| format!("bad run length in `{tok}`"))?;
            base.checked_add(k)
                .ok_or_else(|| format!("run `{tok}` passes u64::MAX"))?;
            (base, k.saturating_add(1), 1)
        } else if let Some((base, k)) = tok.split_once('*') {
            let base: u64 = base
                .parse()
                .map_err(|_| format!("bad repeat base in `{tok}`"))?;
            let k: u64 = k
                .parse()
                .map_err(|_| format!("bad repeat count in `{tok}`"))?;
            if k < 2 {
                return Err(format!("repeat count must be >= 2 in `{tok}`"));
            }
            (base, k, 0)
        } else {
            let v = tok.parse().map_err(|_| format!("bad literal `{tok}`"))?;
            (v, 1, 0)
        };
        if count > (MAX_DECODED_VALUES - out.len()) as u64 {
            return Err(format!(
                "`{tok}` takes the stream past {MAX_DECODED_VALUES} values"
            ));
        }
        out.extend((0..count).map(|d| value + d * step));
    }
    Ok(out)
}

/// Minimum run length worth a run chunk in the byte codec.
const BYTE_RUN_MIN: usize = 4;

/// Encodes a byte buffer into the raw RLE chunk stream.
///
/// Chunk grammar: `0x00 len byte` is a run of `len` (1–255) copies of
/// `byte`; `0x01 len b…` is `len` literal bytes.
fn byte_chunks(data: &[u8]) -> Vec<u8> {
    let mut chunks: Vec<u8> = Vec::new();
    let mut i = 0;
    let mut lit_start = 0;
    let flush_literal = |chunks: &mut Vec<u8>, lit: &[u8]| {
        for part in lit.chunks(255) {
            chunks.push(0x01);
            chunks.push(part.len() as u8);
            chunks.extend_from_slice(part);
        }
    };
    while i < data.len() {
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        if run >= BYTE_RUN_MIN {
            flush_literal(&mut chunks, &data[lit_start..i]);
            let mut remaining = run;
            while remaining > 0 {
                let n = remaining.min(255);
                chunks.push(0x00);
                chunks.push(n as u8);
                chunks.push(b);
                remaining -= n;
            }
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literal(&mut chunks, &data[lit_start..]);
    chunks
}

/// Encodes a byte buffer: RLE chunks serialized as lowercase hex.
#[must_use]
pub fn encode_bytes(data: &[u8]) -> String {
    to_hex(&byte_chunks(data))
}

/// Decodes a raw RLE chunk stream back into the original bytes.
fn decode_byte_chunks(chunks: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < chunks.len() {
        match chunks[i] {
            0x00 => {
                let [len, b] = chunks
                    .get(i + 1..i + 3)
                    .and_then(|s| <[u8; 2]>::try_from(s).ok())
                    .ok_or("truncated run chunk")?;
                out.resize(out.len() + len as usize, b);
                i += 3;
            }
            0x01 => {
                let len = *chunks.get(i + 1).ok_or("truncated literal header")? as usize;
                let lit = chunks
                    .get(i + 2..i + 2 + len)
                    .ok_or("truncated literal chunk")?;
                out.extend_from_slice(lit);
                i += 2 + len;
            }
            tag => return Err(format!("unknown chunk tag {tag:#x}")),
        }
    }
    Ok(out)
}

/// Decodes the output of [`encode_bytes`].
///
/// # Errors
///
/// Returns a description of the first malformed digit pair or chunk.
pub fn decode_bytes(text: &str) -> Result<Vec<u8>, String> {
    decode_byte_chunks(&from_hex(text)?)
}

/// Lowercase hex of `data`.
#[must_use]
pub fn to_hex(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Inverse of [`to_hex`].
///
/// # Errors
///
/// Returns a description of the first malformed digit pair.
pub fn from_hex(text: &str) -> Result<Vec<u8>, String> {
    let text = text.trim();
    if text.len() & 1 != 0 {
        return Err("odd-length hex string".into());
    }
    (0..text.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&text[i..i + 2], 16).map_err(|_| format!("bad hex at byte {i}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip_empty() {
        assert_eq!(encode_u64s([]), "");
        assert_eq!(decode_u64s("").unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn u64_arithmetic_run_compresses() {
        let vals: Vec<u64> = (10..30).collect();
        let enc = encode_u64s(vals.iter().copied());
        assert_eq!(enc, "10+19");
        assert_eq!(decode_u64s(&enc).unwrap(), vals);
    }

    #[test]
    fn u64_constant_run_compresses() {
        let vals = vec![0; 7];
        let enc = encode_u64s(vals.iter().copied());
        assert_eq!(enc, "0*7");
        assert_eq!(decode_u64s(&enc).unwrap(), vals);
    }

    #[test]
    fn u64_mixed_sequence_roundtrips() {
        let vals = vec![5, 6, 7, 3, 3, 3, 9, 100, 101, 0];
        let enc = encode_u64s(vals.iter().copied());
        assert_eq!(decode_u64s(&enc).unwrap(), vals);
        assert_eq!(enc, "5+2 3*3 9 100+1 0");
    }

    #[test]
    fn u64_decode_rejects_garbage() {
        assert!(decode_u64s("abc").is_err());
        assert!(decode_u64s("5+x").is_err());
        assert!(decode_u64s("5*1").is_err());
    }

    #[test]
    fn u64_runs_end_at_the_top_of_the_range() {
        let top = u64::MAX;
        assert_eq!(encode_u64s([top - 1, top]), format!("{}+1", top - 1));
        assert_eq!(encode_u64s([top, 0]), format!("{top} 0"));
        assert_eq!(
            decode_u64s(&format!("{}+1", top - 1)).unwrap(),
            [top - 1, top]
        );
        let err = decode_u64s(&format!("{top}+1")).unwrap_err();
        assert!(err.contains("passes u64::MAX"), "{err}");
    }

    #[test]
    fn u64_decode_caps_the_decoded_length() {
        let err = decode_u64s(&format!("0*{}", u64::MAX)).unwrap_err();
        assert!(err.contains("past"), "{err}");
        let err = decode_u64s(&format!("0+{}", u64::MAX)).unwrap_err();
        assert!(err.contains("past"), "{err}");
    }

    #[test]
    fn bytes_roundtrip_empty_and_small() {
        for data in [&b""[..], b"a", b"abc", b"\x00\xff"] {
            let enc = encode_bytes(data);
            assert_eq!(decode_bytes(&enc).unwrap(), data, "data {data:?}");
        }
    }

    #[test]
    fn bytes_runs_compress() {
        let data = vec![7u8; 1000];
        let enc = encode_bytes(&data);
        assert!(
            enc.len() < 50,
            "1000 bytes should compress, got {} chars",
            enc.len()
        );
        assert_eq!(decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn bytes_mixed_content_roundtrips() {
        let mut data = Vec::new();
        data.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
        data.resize(data.len() + 300, b' ');
        data.extend_from_slice(b"payload");
        data.resize(data.len() + 3, 0u8); // short run stays literal
        let enc = encode_bytes(&data);
        assert_eq!(decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn bytes_literal_longer_than_255_chunks() {
        let data: Vec<u8> = (0..=255u8).cycle().take(700).collect();
        let enc = encode_bytes(&data);
        assert_eq!(decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn bytes_decode_rejects_garbage() {
        assert!(decode_bytes("zz").is_err());
        assert!(decode_bytes("00").is_err(), "truncated run");
        assert!(
            decode_bytes("0105aa").is_err(),
            "literal shorter than header"
        );
        assert!(decode_bytes("ff").is_err(), "unknown tag");
        assert!(decode_bytes("abc").is_err(), "odd length");
    }

    #[test]
    fn hex_roundtrip() {
        let data = vec![0x00, 0x7f, 0xff, 0x10];
        assert_eq!(to_hex(&data), "007fff10");
        assert_eq!(from_hex("007fff10").unwrap(), data);
        assert_eq!(
            from_hex("  007fff10\n").unwrap(),
            data,
            "whitespace tolerated"
        );
    }
}
