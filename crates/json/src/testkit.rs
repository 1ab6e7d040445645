//! Test support for every crate of the workspace: [`TestRng`], and one
//! mutation harness with two modes. The caller says what its format looks
//! like: where length fields sit, which kinds are retired, its checksum.
//!
//! * **Byte mode** damages an encoding: [`flips`] and [`prefixes`]
//!   exhaustively, [`mutant`] by seeded composite [`Edit`]s.
//! * **Value mode** keeps an encoding well formed and sets its integers to
//!   their [`edges`]: each integer of a JSON document ([`json_values`];
//!   a `cpj1` record comes back re-framed, [`record_values`]), or each
//!   integer field of a binary frame, singly and in pairs
//!   ([`field_values`]). So a mutant passes the framing's checks and
//!   reaches the decoder's schema and the code behind it.

use crate::{frame, parse, JsonValue};
use std::ops::Range;

/// A splitmix64 stream: portable, seeded test cases for a workspace that
/// builds offline, so has no property-testing crate. A failing case's
/// index replays it exactly.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Uniform draw in `[lo, hi)` as `usize`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Every single-byte mutation of `bytes`, `(offset, mask, mutant)`: each
/// byte XORed with the low bit, the ASCII case bit, the high bit, all eight.
pub fn flips(bytes: &[u8]) -> impl Iterator<Item = (usize, u8, Vec<u8>)> + '_ {
    (0..bytes.len() * 4).map(|i| {
        let (at, mask) = (i / 4, [0x01, 0x20, 0x80, 0xff][i % 4]);
        let mut mutant = bytes.to_vec();
        mutant[at] ^= mask;
        (at, mask, mutant)
    })
}

/// Every prefix of `bytes`, empty to whole: each torn write a crash can leave.
pub fn prefixes(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    (0..=bytes.len()).map(move |cut| &bytes[..cut])
}

/// One kind of seeded damage [`mutant`] may apply. Offsets the caller
/// names are skipped once an earlier edit cut the bytes short of them.
#[derive(Debug, Clone, Copy)]
pub enum Edit<'a> {
    /// XOR one byte with one of its low `n` bits (7 keeps ASCII valid UTF-8).
    Flip(u32),
    /// Overwrite a byte with one of an alphabet: at one of the offsets given, or anywhere.
    Replace(&'a [u8], &'a [usize]),
    /// Remove one byte.
    Delete,
    /// Cut the bytes short.
    Truncate,
    /// Copy a run of 1 to 39 bytes to another offset.
    Splice,
    /// Swap one of these consecutive units (frames, say) with the next; repeat the last.
    Reorder(&'a [Range<usize>]),
    /// Write a lie over the little-endian `u32` at one of the offsets given:
    /// 0, a small number, the cap on it or one past, or any number.
    Lie(&'a [usize], u32),
}

/// `bytes` after one to `most` edits, each drawn from `edits`.
pub fn mutant(bytes: &[u8], edits: &[Edit<'_>], most: usize, rng: &mut TestRng) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    let mut any = |n: usize| rng.range_usize(0, n);
    for _ in 0..1 + any(most) {
        let len @ 1.. = bytes.len() else { break };
        match edits[any(edits.len())] {
            Edit::Flip(n) => bytes[any(len)] ^= 1 << any(n as usize),
            Edit::Replace(alphabet, at) => {
                let at = if at.is_empty() { any(len) } else { at[any(at.len())] };
                if let Some(slot) = bytes.get_mut(at) {
                    *slot = alphabet[any(alphabet.len())];
                }
            }
            Edit::Delete => drop(bytes.remove(any(len))),
            Edit::Truncate => bytes.truncate(any(len)),
            Edit::Splice => {
                let (from, to) = (any(len), any(len));
                bytes.splice(to..to, bytes[from..(from + 1 + any(39)).min(len)].to_vec());
            }
            Edit::Reorder(units) if units.last().is_some_and(|last| last.end <= len) => {
                let i = any(units.len());
                let (unit, after) =
                    (units[i].clone(), units.get(i + 1).map_or(units[i].end, |n| n.end));
                bytes.splice(after..after, bytes[unit.clone()].to_vec());
                if after > unit.end {
                    bytes.drain(unit);
                }
            }
            Edit::Reorder(_) => {}
            Edit::Lie(at, cap) => {
                let at = at[any(at.len())];
                let lie = [0, any(64), cap as usize + any(2), any(1 << 32)][any(4)] as u32;
                if let Some(field) = bytes.get_mut(at..at + 4) {
                    field.copy_from_slice(&lie.to_le_bytes());
                }
            }
        }
    }
    bytes
}

/// The edge values of an integer field `bits` wide, as bit patterns (two's
/// complement for a signed field): 0, 1, MAX−1, MAX and the signed
/// boundary 2^(bits−1)−1 / 2^(bits−1). A signed field adds its own MAX−1
/// and MIN+1; its MIN, MAX and −1 are among the patterns already.
pub fn edges(bits: u32, signed: bool) -> Vec<u64> {
    let max = u64::MAX >> (64 - bits);
    let half = 1u64 << (bits - 1);
    let mut values = vec![0, 1, max - 1, max, half - 1, half];
    if signed {
        values.extend([half - 2, half + 1]);
    }
    values
}

/// The integers [`json_values`] writes. A JSON number does not say how
/// wide its field is, so it gets the edges of an unsigned 32-bit and of a
/// signed and an unsigned 64-bit field.
fn json_edges() -> Vec<JsonValue> {
    let unsigned = edges(32, false).into_iter().chain(edges(64, false)).map(i128::from);
    let signed = edges(64, true).into_iter().map(|v| i128::from(v as i64));
    let mut values: Vec<i128> = unsigned.chain(signed).collect();
    values.sort_unstable();
    values.dedup();
    values
        .into_iter()
        .map(|v| i64::try_from(v).map_or(JsonValue::UInt(v as u64), JsonValue::Int))
        .collect()
}

/// Every document `doc` becomes with one of its integers set to one of
/// the edge values it does not already hold: each integer member or
/// element, and each integer inside a string that itself holds a JSON
/// object or array (a nested record), which is written back compact.
pub fn json_values(doc: &JsonValue) -> Vec<JsonValue> {
    let mut paths = Vec::new();
    integers(doc, &mut Vec::new(), &mut paths);
    let edges = json_edges();
    let mut out = Vec::new();
    for path in &paths {
        for edge in &edges {
            let mut mutant = doc.clone();
            if set(&mut mutant, path, edge) {
                out.push(mutant);
            }
        }
    }
    out
}

/// The path to each integer in `value`: an element or member index per
/// step, `None` for a step into the document a string holds.
fn integers(value: &JsonValue, path: &mut Vec<Option<usize>>, out: &mut Vec<Vec<Option<usize>>>) {
    let mut descend = |step, inner: &JsonValue| {
        path.push(step);
        integers(inner, path, out);
        path.pop();
    };
    match value {
        JsonValue::Int(_) | JsonValue::UInt(_) => out.push(path.clone()),
        JsonValue::Array(items) => items.iter().enumerate().for_each(|(i, v)| descend(Some(i), v)),
        JsonValue::Object(members) => {
            members.iter().enumerate().for_each(|(i, (_, v))| descend(Some(i), v))
        }
        JsonValue::Str(text) => {
            if let Ok(inner @ (JsonValue::Object(_) | JsonValue::Array(_))) = parse(text) {
                descend(None, &inner);
            }
        }
        _ => {}
    }
}

/// Sets the integer at `path` to `edge`; false if it held it already.
fn set(value: &mut JsonValue, path: &[Option<usize>], edge: &JsonValue) -> bool {
    match (path.split_first(), value) {
        (None, value) => edge != &std::mem::replace(value, edge.clone()),
        (Some((Some(i), rest)), JsonValue::Array(items)) => set(&mut items[*i], rest, edge),
        (Some((Some(i), rest)), JsonValue::Object(members)) => set(&mut members[*i].1, rest, edge),
        (Some((None, rest)), JsonValue::Str(text)) => {
            let mut inner = parse(text).expect("a path was walked on this document");
            let changed = set(&mut inner, rest, edge);
            *text = inner.to_compact();
            changed
        }
        _ => unreachable!("a path was walked on this document"),
    }
}

/// Value mode on a `cpj1` record line: each [`json_values`] mutant of its
/// payload, framed with a valid length and checksum.
///
/// # Panics
///
/// Panics if `line` is not a valid record holding a JSON document.
pub fn record_values(line: &str) -> Vec<String> {
    let payload = frame::decode_record(line).expect("a valid cpj1 record");
    let doc = parse(payload).expect("a JSON payload");
    json_values(&doc).iter().map(|mutant| frame::encode_record(&mutant.to_compact())).collect()
}

/// An integer field of a binary frame: little-endian, `bits` wide, at
/// byte offset `at`.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// Byte offset within the frame.
    pub at: usize,
    /// Width in bits: 8, 16, 32 or 64.
    pub bits: u32,
    /// Whether the field is two's complement.
    pub signed: bool,
}

/// Every frame `frame` becomes with one of `fields`, then each pair of
/// them, set to its [`edges`] (a pair takes every combination). Each is
/// passed through `reframe`, which restores whatever the caller's
/// framing checks (a checksum over the payload, say).
pub fn field_values(frame: &[u8], fields: &[Field], reframe: impl Fn(&mut [u8])) -> Vec<Vec<u8>> {
    let set = |bytes: &mut [u8], field: &Field, value: u64| {
        let width = field.bits as usize / 8;
        bytes[field.at..field.at + width].copy_from_slice(&value.to_le_bytes()[..width]);
    };
    let mut out = Vec::new();
    for (i, a) in fields.iter().enumerate() {
        for value in edges(a.bits, a.signed) {
            let mut one = frame.to_vec();
            set(&mut one, a, value);
            for b in &fields[i + 1..] {
                for other in edges(b.bits, b.signed) {
                    let mut two = one.clone();
                    set(&mut two, b, other);
                    reframe(&mut two);
                    out.push(two);
                }
            }
            reframe(&mut one);
            out.push(one);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_bounds() {
        let mut a = TestRng::new(1);
        let mut b = TestRng::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..1000 {
            assert!(a.range(3, 9) < 9);
            assert!(a.range(3, 9) >= 3);
            assert!(a.unit() < 1.0);
        }
    }

    /// The first draws for the seeds of guard.rs, streaming_equivalence.rs
    /// and checker_properties.rs: their corpora cannot move unnoticed.
    #[test]
    fn the_generator_is_pinned_for_the_seeds_the_property_tests_use() {
        let seeds = [0x6A8D_0001, 0x57EA_0001, 0xC8EC_0001];
        let first = [0x5725_0b8c_1436_5946, 0x0a78_2232_9528_a648, 0xbcc9_39a3_147c_f5a6];
        assert_eq!(seeds.map(|seed| TestRng::new(seed).next_u64()), first);
        let mut rng = TestRng::new(0x6A8D_0001);
        assert_eq!([rng.below(10), rng.range(3, 9), rng.range(0, 2)], [3, 8, 1]);
    }

    #[test]
    fn edges_are_the_boundaries_of_the_width() {
        assert_eq!(edges(32, false), [0, 1, 0xffff_fffe, 0xffff_ffff, 0x7fff_ffff, 0x8000_0000]);
        let signed: Vec<i64> = edges(64, true).into_iter().map(|v| v as i64).collect();
        for v in [0, 1, -2, -1, i64::MAX, i64::MIN, i64::MAX - 1, i64::MIN + 1] {
            assert!(signed.contains(&v), "{v}");
        }
        assert_eq!(signed.len(), 8);
    }

    #[test]
    fn json_values_reach_every_integer_including_nested_records() {
        let doc = parse(r#"{"a":7,"b":[1.5,"x",{"c":-3}],"d":"{\"e\":[1]}"}"#).unwrap();
        let mutants = json_values(&doc);
        let per_integer = json_edges().len();
        assert_eq!(per_integer, 15);
        // Each of the three integers takes every edge it does not hold.
        assert_eq!(mutants.len(), 3 * per_integer - 1);
        let texts: Vec<String> = mutants.iter().map(JsonValue::to_compact).collect();
        assert!(texts.contains(
            &r#"{"a":18446744073709551615,"b":[1.5,"x",{"c":-3}],"d":"{\"e\":[1]}"}"#.to_string()
        ));
        assert!(texts.contains(
            &r#"{"a":7,"b":[1.5,"x",{"c":-9223372036854775808}],"d":"{\"e\":[1]}"}"#.to_string()
        ));
        assert!(texts
            .contains(&r#"{"a":7,"b":[1.5,"x",{"c":-3}],"d":"{\"e\":[2147483648]}"}"#.to_string()));
        let line = frame::encode_record(r#"{"n":1}"#);
        for mutant in record_values(&line) {
            assert!(parse(frame::decode_record(&mutant).unwrap()).is_ok());
        }
    }

    #[test]
    fn field_values_set_single_fields_and_pairs_and_reframe_each() {
        let frame = [9u8, 0, 0, 0, 0, 0];
        let fields =
            [Field { at: 1, bits: 8, signed: false }, Field { at: 2, bits: 32, signed: true }];
        let mutants = field_values(&frame, &fields, |bytes| bytes[0] = bytes[1] ^ bytes[2]);
        assert_eq!(mutants.len(), 6 + 6 * 8 + 8);
        assert!(mutants.iter().all(|m| m[0] == m[1] ^ m[2]));
        assert!(mutants.contains(&vec![0x81, 0x80, 0x01, 0, 0, 0]));
    }

    #[test]
    fn byte_mode_flips_every_byte_four_ways_and_edits_stay_in_bounds() {
        assert_eq!((flips(b"abc").count(), prefixes(b"abc").last()), (12, Some(&b"abc"[..])));
        let (units, rng) = ([0..1, 1..3], &mut TestRng::new(7));
        let edits = [Edit::Flip(8), Edit::Replace(b"xyz", &[]), Edit::Delete, Edit::Truncate];
        let edits =
            [&edits[..], &[Edit::Splice, Edit::Reorder(&units), Edit::Lie(&[0], 9)]].concat();
        (0..500).for_each(|_| drop(mutant(b"abc", &edits, 3, rng)));
        let swapped = (0..20).map(|_| mutant(b"abc", &[Edit::Reorder(&units)], 1, rng));
        assert!(swapped.into_iter().all(|m| m == b"bca" || m == b"abcbc"));
    }
}
