//! Standard base64 (RFC 4648 §4: `A–Z a–z 0–9 + /`, `=` padding).
//!
//! The join service ships binary blocks — relations in the `SKJR` format,
//! per-key result counts as fixed-size records — as JSON string members,
//! and base64 is the densest encoding whose alphabet needs no JSON
//! escaping. The decoder is strict: the length must be a multiple of four,
//! `=` may only pad the final quantum, and the bits padding discards must
//! be zero, so every byte string has exactly one accepted encoding and a
//! corrupted blob is an error rather than different data.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside the alphabet in [`DECODE`].
const INVALID: u8 = 0xFF;

/// Byte → 6-bit value, or [`INVALID`].
const DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Length of the encoding of `n` bytes.
fn encoded_len(n: usize) -> usize {
    n.div_ceil(3) * 4
}

/// Encodes `bytes` with padding.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = Vec::with_capacity(encoded_len(bytes.len()));
    let sextet = |v: u32, shift: u32| ALPHABET[((v >> shift) & 0x3F) as usize];
    let chunks = bytes.chunks_exact(3);
    let tail = chunks.remainder();
    for c in chunks {
        let v = u32::from(c[0]) << 16 | u32::from(c[1]) << 8 | u32::from(c[2]);
        out.extend_from_slice(&[sextet(v, 18), sextet(v, 12), sextet(v, 6), sextet(v, 0)]);
    }
    match *tail {
        [a] => {
            let v = u32::from(a) << 16;
            out.extend_from_slice(&[sextet(v, 18), sextet(v, 12), b'=', b'=']);
        }
        [a, b] => {
            let v = u32::from(a) << 16 | u32::from(b) << 8;
            out.extend_from_slice(&[sextet(v, 18), sextet(v, 12), sextet(v, 6), b'=']);
        }
        _ => {}
    }
    String::from_utf8(out).expect("the base64 alphabet is ASCII")
}

/// Decodes padded base64. Errors name the first offending byte offset.
pub fn decode(text: &str) -> Result<Vec<u8>, String> {
    let bytes = text.as_bytes();
    if bytes.len() % 4 != 0 {
        return Err(format!(
            "base64 length {} is not a multiple of 4 (truncated block?)",
            bytes.len()
        ));
    }
    let pad = bytes
        .iter()
        .rev()
        .take(2)
        .take_while(|&&b| b == b'=')
        .count();
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    let value = |i: usize| -> Result<u32, String> {
        match DECODE[bytes[i] as usize] {
            INVALID if bytes[i] == b'=' => Err(format!("misplaced base64 padding at byte {i}")),
            INVALID => Err(format!(
                "byte {:#04x} at offset {i} is not in the base64 alphabet",
                bytes[i]
            )),
            v => Ok(u32::from(v)),
        }
    };
    let body = bytes.len() - if pad > 0 { 4 } else { 0 };
    for at in (0..body).step_by(4) {
        let v = value(at)? << 18 | value(at + 1)? << 12 | value(at + 2)? << 6 | value(at + 3)?;
        out.extend_from_slice(&[(v >> 16) as u8, (v >> 8) as u8, v as u8]);
    }
    if pad > 0 {
        // The final quantum: two or three significant sextets, whose
        // discarded low bits must be zero.
        let at = body;
        let mut v = value(at)? << 18 | value(at + 1)? << 12;
        if pad == 1 {
            v |= value(at + 2)? << 6;
        }
        let kept = 3 - pad;
        if v & (0xFF_FFFF >> (8 * kept)) != 0 {
            return Err(format!("non-zero base64 padding bits at byte {at}"));
        }
        out.extend_from_slice(&[(v >> 16) as u8, (v >> 8) as u8][..kept]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        for (plain, coded) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(plain.as_bytes()), coded);
            assert_eq!(decode(coded).unwrap(), plain.as_bytes());
            assert_eq!(encoded_len(plain.len()), coded.len());
        }
    }

    #[test]
    fn every_byte_and_length_round_trips() {
        let all: Vec<u8> = (0..=255u8).chain((0..=255u8).rev()).collect();
        for n in 0..all.len() {
            let coded = encode(&all[..n]);
            assert_eq!(decode(&coded).unwrap(), &all[..n], "length {n}");
        }
    }

    #[test]
    fn malformed_input_is_an_error() {
        // Truncated: not a whole number of quanta.
        assert!(decode("Zm9").unwrap_err().contains("multiple of 4"));
        // A byte outside the alphabet, including URL-safe spellings.
        for bad in ["Zm9*", "Zm-v", "Zm_v", "Zm v", "Zm9\u{e9}"] {
            assert!(decode(bad).is_err(), "{bad:?}");
        }
        // Padding anywhere but the end of the final quantum.
        for bad in ["=m9v", "Zg==Zm9v", "Z===", "Zm=v", "===="] {
            assert!(decode(bad).unwrap_err().contains("padding"), "{bad:?}");
        }
        // Non-canonical: the bits the padding drops must be zero.
        assert!(decode("Zh==").unwrap_err().contains("padding bits"));
        assert!(decode("Zm9=").unwrap_err().contains("padding bits"));
    }
}
