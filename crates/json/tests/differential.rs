//! `parse`, now a client of `JsonReader`, against the parser it replaced
//! (`oracle/`): on real documents — the payloads of a journal the parent
//! commit's binary wrote, and `BENCHMARK.json` — and on seeded mutations
//! of them, the two agree on accept/reject, on the value, and on the
//! error's offset and message.

mod oracle;

use conprobe_json::testkit::{mutant, Edit, TestRng};
use conprobe_json::{frame, parse, JsonReader, JsonValue};

const JOURNAL: &str = include_str!("../../../tests/fixtures/parent.cpj1.jsonl");
const BENCHMARK: &str = include_str!("../../../BENCHMARK.json");

fn documents() -> Vec<&'static str> {
    let mut docs: Vec<&str> =
        JOURNAL.lines().map(|line| frame::decode_record(line).expect("a valid frame")).collect();
    docs.push(BENCHMARK);
    docs
}

fn has_non_finite(v: &JsonValue) -> bool {
    match v {
        JsonValue::Float(f) => !f.is_finite(),
        JsonValue::Array(items) => items.iter().any(has_non_finite),
        JsonValue::Object(members) => members.iter().any(|(_, v)| has_non_finite(v)),
        _ => false,
    }
}

/// The one sanctioned disagreement: the old parser let `str::parse` turn
/// a literal beyond `f64` into infinity; the reader refuses it.
fn overflowing_literal(
    old: &Result<JsonValue, conprobe_json::JsonError>,
    new_message: &str,
) -> bool {
    new_message == "number out of range" && old.as_ref().is_ok_and(has_non_finite)
}

/// Checks one input and says whether it was accepted.
fn agree(text: &str) -> bool {
    let (old, new) = (oracle::parse(text), parse(text));
    // A validating skip accepts exactly what a parse accepts.
    let mut r = JsonReader::new(text);
    let skipped = r.skip_value().and_then(|span| r.finish().map(|()| span));
    assert_eq!(skipped.as_ref().err(), new.as_ref().err(), "skip vs parse on {text:?}");
    match (&old, &new) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "value of {text:?}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "error on {text:?}"),
        (_, Err(e)) if overflowing_literal(&old, &e.message) => {}
        _ => panic!("verdicts differ on {text:?}: was {old:?}, is {new:?}"),
    }
    if let Ok(span) = skipped {
        assert_eq!(span, text.trim_matches([' ', '\t', '\n', '\r']));
    }
    new.is_ok()
}

#[test]
fn real_documents_read_the_same_and_serialize_back_to_themselves() {
    for doc in documents() {
        assert!(agree(doc));
        let tree = parse(doc).unwrap();
        assert_eq!(parse(&tree.to_pretty()).unwrap(), tree);
        if !doc.contains('\n') {
            assert_eq!(tree.to_compact(), doc, "a record payload is compact JSON");
        }
    }
}

#[test]
fn truncated_at_every_byte() {
    let mut rng = TestRng::new(0x7A11);
    for (i, doc) in documents().into_iter().enumerate() {
        // Every prefix of the first completed record (4.6 kB) and of the
        // crashed one; of the others 150 seeded prefixes, because every
        // prefix of every document is quadratic and a debug build pays.
        let cuts: Vec<usize> = match i == 0 || doc.len() < 200 {
            true => (0..doc.len()).collect(),
            false => (0..150).map(|_| rng.range_usize(0, doc.len())).collect(),
        };
        for cut in cuts {
            if let Some(prefix) = doc.get(..cut) {
                assert!(!agree(prefix) || prefix.trim_end() == doc.trim_end());
            }
        }
    }
}

#[test]
fn one_byte_flipped_or_replaced() {
    let mut rng = TestRng::new(0xF11B);
    let alphabet = br#"{}[]",:-+.0123456789eE\untfrlasu "#;
    let edits = [Edit::Flip(7), Edit::Replace(alphabet, &[]), Edit::Delete];
    let (mut accepted, mut rejected) = (0, 0);
    for doc in documents() {
        // The big records take a window, so a debug build stays quick.
        let start = rng.range_usize(0, doc.len().saturating_sub(3000).max(1));
        let Some(window) = doc.get(start..(start + 3000).min(doc.len())) else { continue };
        let doc = if doc.len() > 10_000 { window } else { doc };
        for _ in 0..600 {
            let bytes = mutant(doc.as_bytes(), &edits, 1, &mut rng);
            if let Ok(text) = std::str::from_utf8(&bytes) {
                *if agree(text) { &mut accepted } else { &mut rejected } += 1;
            }
        }
    }
    assert!(accepted > 500 && rejected > 500, "{accepted} accepted, {rejected} rejected");
}

#[test]
fn members_swapped_and_keys_duplicated() {
    fn objects<'a>(v: &'a mut JsonValue, out: &mut Vec<&'a mut Vec<(String, JsonValue)>>) {
        match v {
            JsonValue::Array(items) => items.iter_mut().for_each(|item| objects(item, out)),
            JsonValue::Object(members) if members.len() > 1 => out.push(members),
            _ => {}
        }
    }
    let mut rng = TestRng::new(0x5A4B);
    for doc in documents() {
        for _ in 0..20 {
            let mut tree = oracle::parse(doc).unwrap();
            let mut found = Vec::new();
            objects(&mut tree, &mut found);
            for _ in 0..8 {
                let pick = rng.range_usize(0, found.len());
                let members = &mut *found[pick];
                let (a, b) = (rng.range_usize(0, members.len()), rng.range_usize(0, members.len()));
                match rng.below(2) {
                    0 => members.swap(a, b),
                    _ => members.insert(a, members[b].clone()),
                }
            }
            let text = if rng.below(2) == 0 { tree.to_compact() } else { tree.to_pretty() };
            assert!(agree(&text));
            // Lookups see the first of duplicate keys, in both trees.
            assert_eq!(parse(&text).unwrap(), tree);
        }
    }
}

#[test]
fn nested_to_the_limit_and_past_it() {
    let inner = documents()[4]; // the crashed record: small
    for depth in 120..=135 {
        let arrays = format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = format!("{}{inner}{}", r#"{"k":"#.repeat(depth), "}".repeat(depth));
        let scalar = format!("{}7{}", " [".repeat(depth), "] ".repeat(depth));
        let empty = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        for text in [arrays, objects, scalar, empty] {
            agree(&text);
        }
    }
    assert!(agree(&format!("{}{}", "[".repeat(129), "]".repeat(129))));
    assert!(!agree(&format!("{}{}", "[".repeat(130), "]".repeat(130))));
    assert!(agree(&format!("{}1{}", "[".repeat(128), "]".repeat(128))));
    assert!(!agree(&format!("{}1{}", "[".repeat(129), "]".repeat(129))));
}

#[test]
fn the_listed_exception_a_literal_beyond_f64() {
    for (text, offset) in [("1e400", 0), ("-1e999", 0), (r#"{"a":[0.5,12e3456]}"#, 10)] {
        assert!(has_non_finite(&oracle::parse(text).unwrap()), "{text}: the old parser's infinity");
        let err = parse(text).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (Some(offset), "number out of range"),
            "{text}"
        );
        assert!(!agree(text));
    }
    // Every other number form still agrees, the edges included.
    for text in [
        "1.7976931348623157e308",
        "-1.7976931348623157e308",
        "4.9e-324",
        "1e-400",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "123456789012345678901234567890",
        "-0",
        "-0.0",
        "0e0",
        "1E+2",
    ] {
        assert!(agree(text), "{text}");
    }
    for text in ["-", "01", "1.", ".5", "1e", "1e+", "+1", "0x10", "1_000", "--1", "-a"] {
        assert!(!agree(text), "{text}");
    }
}

#[test]
fn string_escapes_agree() {
    for text in [
        r#""a\"b\\c\/d\b\f\n\r\t""#,
        r#""\u0041\u00e9\ud83d\ude00""#,
        r#""\u+041""#,
        r#""é😀 raw""#,
        r#""\ud800""#,
        r#""\ud800\u0041""#,
        r#""\udc00""#,
        r#""\u12""#,
        r#""\u12g4""#,
        r#""\x""#,
        "\"\\",
        "\"\\u",
        "\"\\ud800\\",
        "\"tab\tinside\"",
        "\"\\u00é\"",
        r#"{"k\n":1,"k\n":2}"#,
    ] {
        agree(text);
    }
}
