//! `cpj1` record framing — the workspace's one length-prefixed,
//! checksummed line format.
//!
//! The campaign journal introduced the format (one record per line,
//! corruption-detecting); the quorum backend's state-transfer stream
//! reuses it verbatim so a catch-up payload is checkable with the same
//! tooling as a journal line:
//!
//! ```text
//! cpj1 <payload-len> <fnv64-hex-16> <payload>\n
//! ```
//!
//! * `cpj1` — format magic/version.
//! * `<payload-len>` — decimal byte length of the payload.
//! * `<fnv64-hex-16>` — 16-digit lowercase FNV-1a hash of the payload.
//! * `<payload>` — opaque bytes that contain no raw newline (compact
//!   JSON satisfies this by construction).
//!
//! This module lives in the dependency-free JSON crate so every layer
//! (harness journal, services state transfer, golden fingerprints) frames
//! records identically without new edges in the crate graph.

use std::fmt::{self, Write as _};

/// Format magic for v1 records.
pub const MAGIC: &str = "cpj1";

/// The FNV-1a offset basis (the running-hash seed for [`fnv64_fold`]).
pub const FNV64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte string. Stable across platforms and releases: the
/// campaign journal, the golden-fingerprint suite and the state-transfer
/// stream hash all depend on these exact constants.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_fold(FNV64_BASIS, bytes)
}

/// Folds `bytes` into a running FNV-1a state — `fnv64(b)` is
/// `fnv64_fold(FNV64_BASIS, b)`, and hashing a concatenation is folding
/// the pieces in order.
#[inline]
pub fn fnv64_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Why a line failed to decode as a `cpj1` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The line does not start with the `cpj1` magic.
    BadMagic {
        /// What was found where the magic belongs.
        found: String,
    },
    /// A header field is missing or unparsable.
    Malformed {
        /// Which field (`"length"`, `"checksum"`, `"payload"`).
        field: &'static str,
    },
    /// The framed length disagrees with the actual payload length.
    LengthMismatch {
        /// Length claimed by the frame header.
        framed: usize,
        /// Actual payload byte count.
        actual: usize,
    },
    /// The framed checksum disagrees with the payload's hash.
    ChecksumMismatch {
        /// Checksum claimed by the frame header.
        framed: u64,
        /// Actual payload hash.
        actual: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(f, "bad magic {found:?} (expected {MAGIC:?})")
            }
            FrameError::Malformed { field } => write!(f, "missing or unparsable {field} field"),
            FrameError::LengthMismatch { framed, actual } => {
                write!(f, "length mismatch: framed {framed}, actual {actual}")
            }
            FrameError::ChecksumMismatch { framed, actual } => {
                write!(f, "checksum mismatch: framed {framed:016x}, actual {actual:016x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Frames one payload as a `cpj1` line, newline included. The payload
/// must not contain a raw newline (compact JSON never does); the frame
/// does not check, because the decoder's length field catches it.
pub fn encode_record(payload: &str) -> String {
    let (len, hash) = (payload.len(), fnv64(payload.as_bytes()));
    // Built at its exact length: magic, three spaces, length, checksum,
    // payload, newline.
    let len_digits = len.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut line = String::with_capacity(MAGIC.len() + 3 + len_digits + 16 + len + 1);
    writeln!(line, "{MAGIC} {len} {hash:016x} {payload}").expect("writing to a String");
    line
}

/// Decodes one framed line (with or without its trailing newline) back
/// into its payload, verifying length and checksum. Only the header
/// [`encode_record`] writes is accepted — a decimal length with no sign
/// and no leading zero, exactly 16 lowercase hex digits — so a damaged
/// header byte can never spell the same numbers another way.
pub fn decode_record(line: &str) -> Result<&str, FrameError> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let mut parts = line.splitn(4, ' ');
    let magic = parts.next().unwrap_or("");
    if magic != MAGIC {
        return Err(FrameError::BadMagic { found: magic.to_string() });
    }
    let len: usize = parts
        .next()
        .filter(|s| s.bytes().all(|b| b.is_ascii_digit()) && (*s == "0" || !s.starts_with('0')))
        .and_then(|s| s.parse().ok())
        .ok_or(FrameError::Malformed { field: "length" })?;
    let hash = parts
        .next()
        .filter(|s| s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or(FrameError::Malformed { field: "checksum" })?;
    let payload = parts.next().ok_or(FrameError::Malformed { field: "payload" })?;
    if payload.len() != len {
        return Err(FrameError::LengthMismatch { framed: len, actual: payload.len() });
    }
    let actual = fnv64(payload.as_bytes());
    if actual != hash {
        return Err(FrameError::ChecksumMismatch { framed: hash, actual });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64-bit vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fold_composes() {
        let h = fnv64_fold(fnv64_fold(FNV64_BASIS, b"foo"), b"bar");
        assert_eq!(h, fnv64(b"foobar"));
    }

    #[test]
    fn round_trip() {
        let payload = r#"{"cell":"blogger/test1","instance":0}"#;
        let line = encode_record(payload);
        assert!(line.ends_with('\n'));
        assert_eq!(decode_record(&line).unwrap(), payload);
        assert_eq!(decode_record(line.trim_end()).unwrap(), payload);
    }

    /// The line is the one the `format!` string `{MAGIC} {len} {hash:016x}
    /// {payload}\n` wrote, in a buffer of exactly its length.
    #[test]
    fn a_line_is_built_at_its_exact_length() {
        for len in [0, 1, 9, 10, 99, 100, 12_345, 100_000] {
            let payload: String = (0..len).map(|i| char::from(b' ' + (i % 90) as u8)).collect();
            let line = encode_record(&payload);
            let hash = fnv64(payload.as_bytes());
            assert_eq!(line, format!("{MAGIC} {len} {hash:016x} {payload}\n"));
            assert_eq!(line.capacity(), line.len(), "{len}");
        }
        assert_eq!(encode_record("a"), "cpj1 1 af63dc4c8601ec8c a\n");
    }

    #[test]
    fn empty_payload_round_trips() {
        let line = encode_record("");
        assert_eq!(decode_record(&line).unwrap(), "");
    }

    #[test]
    fn payload_may_contain_spaces() {
        let payload = "a b c  d";
        assert_eq!(decode_record(&encode_record(payload)).unwrap(), payload);
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(
            decode_record("cpj2 1 00af63dc4c8601ec8c a"),
            Err(FrameError::BadMagic { found: "cpj2".into() })
        );
    }

    #[test]
    fn rejects_truncation_and_corruption() {
        let line = encode_record("payload");
        // Truncated payload: length mismatch.
        let cut = &line[..line.len() - 3];
        assert!(matches!(decode_record(cut), Err(FrameError::LengthMismatch { .. })));
        // Flipped payload byte: checksum mismatch.
        let flipped = line.replace("payload", "paYload");
        assert!(matches!(decode_record(&flipped), Err(FrameError::ChecksumMismatch { .. })));
        // Missing fields.
        assert!(matches!(decode_record("cpj1 7"), Err(FrameError::Malformed { .. })));
        assert!(matches!(decode_record("cpj1 x y z"), Err(FrameError::Malformed { .. })));
    }

    /// `A`–`F` and `a`–`f` are one bit (0x20) apart, and a sign or a
    /// leading zero spells the same length: each is one damaged header
    /// byte that a lenient number parser would read as the original.
    #[test]
    fn a_header_in_any_but_the_canonical_spelling_is_malformed() {
        let line = encode_record("payload");
        let (head, sum) = (&line[..7], &line[7..23]);
        assert_eq!(head, "cpj1 7 ");
        let letter = 7 + sum.find(|c: char| c.is_ascii_alphabetic()).expect("a hex letter");
        let mut flipped = line.clone().into_bytes();
        flipped[letter] ^= 1 << 5;
        let flipped = String::from_utf8(flipped).unwrap();
        assert_eq!(flipped.to_ascii_lowercase(), line, "one letter changed case");
        assert_eq!(decode_record(&flipped), Err(FrameError::Malformed { field: "checksum" }));

        for (bad, field) in [
            (line.replacen(head, "cpj1 +7 ", 1), "length"),
            (line.replacen(head, "cpj1 07 ", 1), "length"),
            (line.replacen(sum, &format!("0{sum}"), 1), "checksum"),
            (line.replacen(sum, &format!("+{sum}"), 1), "checksum"),
        ] {
            assert_eq!(decode_record(&bad), Err(FrameError::Malformed { field }), "{bad:?}");
        }
        assert_eq!(decode_record(&encode_record("")), Ok(""), "a zero length is one `0`");
    }

    #[test]
    fn error_messages_are_descriptive() {
        let err = decode_record("cpj1 2 0000000000000000 ab").unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"));
    }
}
