//! Run-length codecs for the text export of a demo.
//!
//! Two codecs cover the paper's two compression needs:
//!
//! * [`encode_u64s`] — integer sequences (the QUEUE next-tick list, the
//!   ALLOC address stream). The dominant pattern is a thread scheduled
//!   many times in succession, which produces arithmetic runs with step 1
//!   (`k, k+1, k+2, …`); repeated constants also occur (`0 0 0 …` for
//!   "never scheduled again"). Tokens:
//!   - `N` — a literal value;
//!   - `N+K` — the run `N, N+1, …, N+K` (K ≥ 1);
//!   - `N*K` — the value `N` repeated `K` times (K ≥ 2).
//! * [`encode_bytes`] — byte buffers (SYSCALL output data). "A simple run
//!   length encoding" (§4.4): alternating literal and run chunks,
//!   serialized as lowercase hex.
//!
//! Nothing decodes them: the text form is export-only. The binary format
//! ([`crate::codec`]) uses neither; it delta-codes its integers and
//! leaves repetition to one DEFLATE block.

use std::fmt::Write as _;

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

/// Lowercase hex of `data`.
#[must_use]
pub fn to_hex(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_empty_is_no_tokens() {
        assert_eq!(encode_u64s([]), "");
    }

    #[test]
    fn u64_arithmetic_run_compresses() {
        assert_eq!(encode_u64s(10..30), "10+19");
    }

    #[test]
    fn u64_constant_run_compresses() {
        assert_eq!(encode_u64s([0; 7]), "0*7");
    }

    #[test]
    fn u64_mixed_sequence_takes_the_longest_runs() {
        assert_eq!(
            encode_u64s([5, 6, 7, 3, 3, 3, 9, 100, 101, 0]),
            "5+2 3*3 9 100+1 0"
        );
    }

    #[test]
    fn u64_runs_end_at_the_top_of_the_range() {
        let top = u64::MAX;
        assert_eq!(encode_u64s([top - 1, top]), format!("{}+1", top - 1));
        assert_eq!(encode_u64s([top, 0]), format!("{top} 0"));
    }

    #[test]
    fn bytes_small_buffers_are_literal_chunks() {
        assert_eq!(encode_bytes(b""), "");
        assert_eq!(encode_bytes(b"a"), "010161");
        assert_eq!(encode_bytes(b"\x00\xff"), "010200ff");
        // A run shorter than BYTE_RUN_MIN stays literal.
        assert_eq!(encode_bytes(b"aaab"), "010461616162");
    }

    #[test]
    fn bytes_runs_compress() {
        let data = vec![7u8; 1000];
        // Three full 255-byte run chunks and one of 235.
        assert_eq!(encode_bytes(&data), "00ff0700ff0700ff0700eb07");
        let mut mixed = b"ab".to_vec();
        mixed.resize(8, b' ');
        mixed.push(b'c');
        assert_eq!(encode_bytes(&mixed), "01026162000620010163");
    }

    #[test]
    fn bytes_literal_longer_than_255_chunks() {
        let data: Vec<u8> = (0..=255u8).cycle().take(700).collect();
        let enc = encode_bytes(&data);
        // Literal chunks of 255, 255 and 190 bytes: 2 header bytes each.
        assert_eq!(enc.len(), 2 * (700 + 3 * 2));
        assert!(enc.starts_with("01ff00010203"));
        assert!(enc[2 * 257..].starts_with("01ff"));
        assert!(enc[2 * 514..].starts_with("01be"));
    }

    #[test]
    fn hex_is_lowercase_pairs() {
        assert_eq!(to_hex(&[0x00, 0x7f, 0xff, 0x10]), "007fff10");
    }
}
