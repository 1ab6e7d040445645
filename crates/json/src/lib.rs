//! # conprobe-json — a minimal, dependency-free JSON layer
//!
//! The workspace must build and test without network access, so it cannot
//! pull `serde`/`serde_json` from a registry. This crate supplies the small
//! slice of JSON functionality conprobe actually needs: a push
//! [`JsonWriter`] and a strict pull [`JsonReader`], the
//! [`ToJson`]/[`FromJson`] traits through which the workspace's (few)
//! serialized types write themselves to the one and read themselves from
//! the other, and a [`JsonValue`] document model for small documents whose
//! shape is not fixed. The tree is one more client: [`parse`] is
//! `JsonValue`'s `FromJson`, `to_compact`/`to_pretty` its `ToJson`. There
//! is one tokenizer and one string escaper, and a fixed-schema record
//! never passes through a tree.
//!
//! Design notes:
//!
//! * Object members keep their order (a `Vec` of pairs, not a map), and an
//!   encoder emits fields in the order it lists them, so a
//!   serialize→parse→serialize round trip is a fixpoint.
//! * Numbers keep their integer-ness: `Int`/`UInt` survive round trips
//!   exactly; only values written with a decimal point or exponent parse as
//!   `Float`. This matters for 64-bit seeds and nanosecond timestamps that
//!   exceed `f64`'s 53-bit integer range.
//! * The reader is strict (no trailing commas, no comments, no
//!   NaN/Infinity, no literal that overflows to infinity) and
//!   depth-limited, so hostile inputs fail cleanly. What a decoder skips
//!   is checked as strictly as what it reads.
//! * A decoder takes members in any order, skips the ones it does not
//!   know, and lets the first of duplicate keys win — what a lookup in a
//!   parsed tree does ([`read_members!`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
mod hash;
mod reader;
pub mod testkit;
mod writer;

pub use hash::{FastHasher, FastMap, FastSet, FastState};
pub use reader::JsonReader;
pub use writer::JsonWriter;

use std::collections::BTreeMap;
use std::fmt;

/// A parsed or constructed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer that fits `i64`.
    Int(i64),
    /// An unsigned integer above `i64::MAX`.
    UInt(u64),
    /// Any other finite number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; members keep insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a member of an object by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            JsonValue::UInt(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            JsonValue::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Serializes without whitespace.
    pub fn to_compact(&self) -> String {
        ToJson::to_compact(self)
    }

    /// Serializes with 2-space indentation (the `serde_json` pretty style).
    pub fn to_pretty(&self) -> String {
        ToJson::to_pretty(self)
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input; `None` for a schema
    /// error, which a decoder raises about a value it has already read.
    pub offset: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "JSON error at byte {offset}: {}", self.message),
            None => write!(f, "JSON error: {}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// A schema-level error (shape mismatch rather than syntax). It has
    /// no offset: it is about a value already read, not a byte.
    pub fn schema(message: impl Into<String>) -> Self {
        JsonError { offset: None, message: message.into() }
    }
}

/// Types that can write themselves as JSON.
pub trait ToJson {
    /// Appends this value to `w`.
    fn write_json(&self, w: &mut JsonWriter);

    /// Serializes without whitespace.
    fn to_compact(&self) -> String {
        let mut w = JsonWriter::compact();
        self.write_json(&mut w);
        w.finish()
    }

    /// Serializes with 2-space indentation (the `serde_json` pretty style).
    fn to_pretty(&self) -> String {
        let mut w = JsonWriter::pretty();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Types that can read themselves from JSON.
pub trait FromJson: Sized {
    /// Reads one value of this type from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at the offending token when the text is not
    /// JSON or the value has the wrong shape.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError>;

    /// Decodes a complete document: one value, then only whitespace.
    fn from_json_str(text: &str) -> Result<Self, JsonError> {
        let mut r = JsonReader::new(text);
        let value = Self::read_json(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    /// Decodes a subtree of a parsed document, through its text (a type
    /// has one decoder). For documents small enough to have been parsed
    /// into a tree in the first place.
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Self::from_json_str(&v.to_compact())
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first syntax problem,
/// including trailing garbage after the top-level value.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    JsonValue::from_json_str(input)
}

/// Fetches a required object member, with a schema error naming the key.
pub fn member<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, JsonError> {
    v.get(key).ok_or_else(|| missing(key))
}

/// The error for an object without its required member `key`.
pub fn missing(key: &str) -> JsonError {
    JsonError::schema(format!("missing member `{key}`"))
}

/// Reads an object's members into local variables named after their
/// keys: `read_members!(r => author, seq; note)` leaves `author` and
/// `seq` bound (a missing one is a schema error) and `note` an `Option`,
/// their types inferred from use. `key: read` decodes that member with
/// the function `read` instead of its type's [`FromJson`]. Members may
/// come in any order, unknown ones are skipped (and checked), and the
/// first of duplicate keys wins.
#[macro_export]
macro_rules! read_members {
    ($r:ident => $($key:ident $(: $read:expr)?),*
        $(; $($opt:ident $(: $opt_read:expr)?),+)? $(,)?) => {
        $(let mut $key = None;)*
        $($(let mut $opt = None;)+)?
        $r.begin_object()?;
        // Members in the order listed, as compact JSON writes them, are
        // read in place; whatever is left — any order, unknown keys,
        // duplicates, whitespace — the loop reads.
        $(if $r.expect_key(stringify!($key)) {
            $r.member(&mut $key, $crate::read_members!(@ $($read)?))?;
        })*
        $($(if $r.expect_key(stringify!($opt)) {
            $r.member(&mut $opt, $crate::read_members!(@ $($opt_read)?))?;
        })+)?
        while let Some(key) = $r.next_key()? {
            match &*key {
                $(stringify!($key) => $r.member(&mut $key, $crate::read_members!(@ $($read)?))?,)*
                $($(stringify!($opt) =>
                    $r.member(&mut $opt, $crate::read_members!(@ $($opt_read)?))?,)+)?
                _ => drop($r.skip_value()?),
            }
        }
        $(let $key = $key.ok_or_else(|| $crate::missing(stringify!($key)))?;)*
    };
    (@) => { $crate::FromJson::read_json };
    (@ $read:expr) => { $read };
}

impl ToJson for JsonValue {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            JsonValue::Null => w.null(),
            JsonValue::Bool(b) => w.bool(*b),
            JsonValue::Int(n) => w.i64(*n),
            JsonValue::UInt(n) => w.u64(*n),
            JsonValue::Float(f) => w.f64(*f),
            JsonValue::Str(s) => w.str(s),
            JsonValue::Array(items) => items.write_json(w),
            JsonValue::Object(members) => {
                w.begin_object();
                for (key, value) in members {
                    w.member(key, value);
                }
                w.end_object();
            }
        }
    }
}

impl FromJson for JsonValue {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        match r.peek()? {
            b'n' => r.null().map(|()| JsonValue::Null),
            b't' | b'f' => r.bool().map(JsonValue::Bool),
            b'"' => r.string().map(|s| JsonValue::Str(s.into_owned())),
            b'-' | b'0'..=b'9' => r.number(),
            b'[' => Vec::read_json(r).map(JsonValue::Array),
            b'{' => {
                r.begin_object()?;
                let mut members = Vec::new();
                while let Some(key) = r.next_key()? {
                    members.push((key.into_owned(), JsonValue::read_json(r)?));
                }
                Ok(JsonValue::Object(members))
            }
            _ => Err(r.error("expected a JSON value")),
        }
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            #[inline]
            fn write_json(&self, w: &mut JsonWriter) {
                w.u64(*self as u64);
            }
        }
        impl FromJson for $t {
            #[inline]
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
                r.integer(stringify!($t))
            }
        }
    )*};
}

int_impls!(u32, u64, usize);

impl ToJson for i64 {
    #[inline]
    fn write_json(&self, w: &mut JsonWriter) {
        w.i64(*self);
    }
}

impl FromJson for i64 {
    #[inline]
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        r.integer("i64")
    }
}

impl ToJson for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.f64(*self);
    }
}

impl FromJson for f64 {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        r.number_as("number", JsonValue::as_f64)
    }
}

impl ToJson for bool {
    fn write_json(&self, w: &mut JsonWriter) {
        w.bool(*self);
    }
}

impl FromJson for bool {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        r.bool()
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl FromJson for String {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        r.string().map(|s| s.into_owned())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(self, |w, item| item.write_json(w));
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        r.elements(T::read_json)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(t) => t.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        match r.peek()? {
            b'n' => r.null().map(|()| None),
            _ => T::read_json(r).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        self.0.write_json(w);
        self.1.write_json(w);
        w.end_array();
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let wrong = |r: &JsonReader<'_>| r.error("expected 2-element array");
        r.begin_array()?;
        if !r.next_element()? {
            return Err(wrong(r));
        }
        let a = A::read_json(r)?;
        if !r.next_element()? {
            return Err(wrong(r));
        }
        let b = B::read_json(r)?;
        if r.next_element()? {
            return Err(wrong(r));
        }
        Ok((a, b))
    }
}

/// An object whose keys are data. The last of duplicate keys wins.
impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (key, value) in self {
            w.member(key, value);
        }
        w.end_object();
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        r.begin_object()?;
        let mut map = BTreeMap::new();
        while let Some(key) = r.next_key()? {
            map.insert(key.into_owned(), V::read_json(r)?);
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, TestRng};

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse("1.5").unwrap(), JsonValue::Float(1.5));
        assert_eq!(parse("2e3").unwrap(), JsonValue::Float(2000.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn big_u64_survives() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v, JsonValue::UInt(u64::MAX));
        assert_eq!(v.to_compact(), "18446744073709551615");
        assert_eq!(u64::from_json(&v).unwrap(), u64::MAX);
        assert_eq!(u64::MAX.to_compact(), "18446744073709551615");
        assert_eq!(i64::MIN.to_compact(), "-9223372036854775808");
        assert_eq!(parse("-9223372036854775808").unwrap(), JsonValue::Int(i64::MIN));
        assert_eq!(
            parse("-9223372036854775809").unwrap(),
            JsonValue::Float(-9223372036854775809.0)
        );
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            JsonValue::Float(18446744073709551616.0)
        );
        assert_eq!(parse("-0").unwrap(), JsonValue::Int(0));
    }

    #[test]
    fn nested_structures_round_trip() {
        let src = r#"{"a":[1,2,{"b":null}],"c":{"d":true},"e":-1.25,"f":"x\ny"}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_compact(), src);
        let re = parse(&v.to_pretty()).unwrap();
        assert_eq!(re, v);
    }

    #[test]
    fn pretty_matches_expected_shape() {
        let v = parse(r#"{"k":[1]}"#).unwrap();
        assert_eq!(v.to_pretty(), "{\n  \"k\": [\n    1\n  ]\n}");
        assert_eq!(parse("[]").unwrap().to_pretty(), "[]");
        assert_eq!(parse("{}").unwrap().to_pretty(), "{}");
    }

    #[test]
    fn floats_reparse_as_floats() {
        let v = JsonValue::Float(3.0);
        assert_eq!(v.to_compact(), "3.0");
        assert_eq!(parse("3.0").unwrap(), JsonValue::Float(3.0));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\"b\\c\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v, JsonValue::Str("a\"b\\cAé😀".into()));
        let round = parse(&v.to_compact()).unwrap();
        assert_eq!(round, v);
        assert_eq!(JsonValue::Str("\u{1}".into()).to_compact(), "\"\\u0001\"");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "tru",
            "[1,",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "[1] garbage",
            "{'a':1}",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    /// Every way the workspace reads JSON, over one input: the tree, a
    /// checking skip, each typed read, and a schema'd object. All must
    /// return, `Ok` or `Err`; and a skip accepts exactly what `parse` does.
    fn drive(s: &str) {
        let parsed = parse(s);
        let mut r = JsonReader::new(s);
        let skipped = r.skip_value().and_then(|_| r.finish());
        assert_eq!(skipped.err(), parsed.as_ref().err().cloned(), "{s:?}");
        let _ = u32::from_json_str(s);
        let _ = i64::from_json_str(s);
        let _ = f64::from_json_str(s);
        let _ = bool::from_json_str(s);
        let _ = String::from_json_str(s);
        let _ = Option::<Vec<u64>>::from_json_str(s);
        let _ = <(i64, String)>::from_json_str(s);
        let _ = BTreeMap::<String, Vec<Option<f64>>>::from_json_str(s);
        let _ = Vec::<BTreeMap<String, bool>>::from_json_str(s);
        let _ = (|| {
            let r = &mut JsonReader::new(s);
            read_members!(r => cell: String::read_json, seed: u64::read_json; result: |r| {
                read_members!(r => trace: Vec::<BTreeMap<String, f64>>::read_json);
                Ok(trace)
            });
            r.finish()?;
            Ok::<_, JsonError>((cell, seed, result))
        })();
        // A reader driven against the grain of its input, too.
        let mut r = JsonReader::new(s);
        for step in 0..s.len().min(64) {
            let _ = match step % 6 {
                0 => r.begin_array(),
                1 => r.next_element().map(drop),
                2 => r.begin_object(),
                3 => r.next_key().map(drop),
                4 => r.number().map(drop),
                _ => r.string().map(drop),
            };
        }
    }

    /// Corrupt/adversarial input must yield `Err`, never a panic or a
    /// stack overflow. This is the journal's trust boundary: recovery
    /// feeds disk bytes of unknown provenance straight into the reader.
    #[test]
    fn parse_never_panics_on_arbitrary_input() {
        let mut rng = TestRng::new(0x5EED);
        // Alphabet biased toward JSON structure so inputs get deep into
        // the parser instead of failing on the first byte.
        let abc: &[u8] = br#"{}[]",:.0123456789-+eE\truefalsn ulx"#;
        for len in 0..200usize {
            let s: String = (0..len).map(|_| abc[rng.range_usize(0, abc.len())] as char).collect();
            drive(&s);
        }
        // Raw high-byte / invalid-UTF-8-adjacent content via char soup.
        for _ in 0..500 {
            let len = rng.below(64);
            let s: String = (0..len)
                .map(|_| char::from_u32(rng.below(0xD7FF) as u32).unwrap_or('\u{FFFD}'))
                .collect();
            drive(&s);
        }
    }

    /// Every prefix of a valid document — a torn write, exactly what a
    /// crashed journal append leaves behind — parses or errors cleanly,
    /// and so does the document with any single byte flipped.
    #[test]
    fn parse_never_panics_on_truncated_or_mutated_valid_documents() {
        let doc = r#"{"cell":"blogger/test1","instance":3,"seed":1844674407370955,
            "status":"completed","result":{"trace":[{"agent":0,"op":"w","at":-1.5e3,
            "key":[1,2],"vals":["a","b",null,true,false]}],"nested":{"deep":[[[{"x":1}]]]}}}"#;
        assert!(parse(doc).is_ok());
        let flipped = testkit::flips(doc.as_bytes()).map(|(.., mutant)| mutant);
        for bytes in testkit::prefixes(doc.as_bytes()).map(<[u8]>::to_vec).chain(flipped) {
            if let Ok(s) = std::str::from_utf8(&bytes) {
                drive(s);
            }
        }
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n":3,"s":"x","b":false,"a":[1,2]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("missing").is_none());
        assert!(member(&v, "missing").is_err());
    }

    #[test]
    fn trait_impls_round_trip() {
        let xs: Vec<u64> = vec![1, 2, u64::MAX];
        assert_eq!(Vec::<u64>::from_json_str(&xs.to_compact()).unwrap(), xs);
        let opt: Option<String> = Some("hi".into());
        assert_eq!(Option::<String>::from_json_str(&opt.to_compact()).unwrap(), opt);
        let none: Option<String> = None;
        assert_eq!(Option::<String>::from_json_str(&none.to_compact()).unwrap(), none);
        let pair: (u32, f64) = (7, 0.5);
        assert_eq!(<(u32, f64)>::from_json_str(&pair.to_compact()).unwrap(), pair);
        assert!(<(u32, f64)>::from_json_str("[7]").is_err());
        assert!(<(u32, f64)>::from_json_str("[7,0.5,1]").is_err());
        assert!(u32::from_json(&JsonValue::Int(-1)).is_err());
        assert!(u32::from_json(&JsonValue::Str("x".into())).is_err());
        assert_eq!(u32::from_json_str("4294967296").unwrap_err().offset, Some(0));
        // An `f64` field takes an integer token; an integer field no float.
        assert_eq!(f64::from_json_str("3").unwrap(), 3.0);
        assert!(u64::from_json_str("3.0").is_err());
        let map: BTreeMap<String, u32> = [("a".to_string(), 1), ("b".to_string(), 2)].into();
        assert_eq!(map.to_compact(), r#"{"a":1,"b":2}"#);
        assert_eq!(BTreeMap::from_json_str(r#"{"b":9,"a":1,"b":2}"#), Ok(map));
    }

    /// The typed integer reads (`FromJson` for `u32`, `u64`, `usize` and
    /// `i64`) against the tree path they replaced: a number read as a
    /// `JsonValue` and converted with its accessor. Both readers end in
    /// the same place with the same value or the same error, message and
    /// offset, on their own, in an array and at every depth around the
    /// nesting limit.
    #[test]
    fn typed_integer_reads_answer_exactly_as_the_tree_path() {
        fn tree<T: TryFrom<u64>>(r: &mut JsonReader<'_>, what: &str) -> Result<T, JsonError> {
            r.number_as(what, |n| n.as_u64().and_then(|n| T::try_from(n).ok()))
        }
        fn both<T: FromJson + PartialEq + fmt::Debug>(
            text: &str,
            depth: usize,
            old: impl Fn(&mut JsonReader<'_>) -> Result<T, JsonError>,
        ) {
            let read = |typed: bool| {
                let mut r = JsonReader::new(text);
                for _ in 0..depth {
                    if let Err(e) = r.begin_array().and_then(|()| r.next_element().map(drop)) {
                        return (Err(e), r.offset());
                    }
                }
                let value = if typed { T::read_json(&mut r) } else { old(&mut r) };
                let value = value.and_then(|v| {
                    (0..depth)
                        .try_for_each(|_| r.next_element().map(drop))
                        .and_then(|()| r.finish())
                        .map(|()| v)
                });
                (value, r.offset())
            };
            assert_eq!(read(true), read(false), "{text:?} at depth {depth}");
        }
        let mut literals: Vec<String> = [
            "01",
            "-0",
            "-00",
            "-01",
            "00",
            "1.0",
            "1e3",
            "1E3",
            "1e-3",
            "-1.5",
            "0.5",
            "-",
            "",
            "x",
            "-x",
            "+1",
            " 7 ",
            "\t\n12\r",
            "7x",
            "7,",
            "[7]",
            "1e400",
            "12345678",
            "123456789",
            "123456789012345678",
            "-123456789012345678",
            "1000000000000000000",
            "9999999999999999999",
            "-9999999999999999999",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "-9223372036854775808",
            "-9223372036854775809",
            "9223372036854775807",
            "9223372036854775808",
            "4294967295",
            "4294967296",
            "-1",
            "00000000000000000000",
            "12345678.5",
            "1234567812345678e1",
        ]
        .map(String::from)
        .into();
        for edge in testkit::edges(32, false).into_iter().chain(testkit::edges(64, false)) {
            literals.extend([edge.to_string(), format!("-{edge}"), format!("{edge}.0")]);
        }
        for edge in testkit::edges(64, true) {
            literals.push((edge as i64).to_string());
        }
        for text in &literals {
            for depth in [0, 1, 127, 128, 129, 130] {
                let nested = format!("{}{text}{}", "[".repeat(depth), "]".repeat(depth));
                both::<u32>(&nested, depth, |r| tree(r, "u32"));
                both::<u64>(&nested, depth, |r| tree(r, "u64"));
                both::<usize>(&nested, depth, |r| tree(r, "usize"));
                both::<i64>(&nested, depth, |r| r.number_as("i64", JsonValue::as_i64));
            }
        }
    }

    #[test]
    fn a_literal_that_overflows_f64_is_rejected_not_read_as_infinity() {
        for (bad, offset) in [("1e400", 0), (" -1e999", 1), ("[1,2e308]", 3)] {
            let err = parse(bad).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                ("number out of range", Some(offset)),
                "{bad}"
            );
        }
        let max = "1.7976931348623157e308";
        assert_eq!(parse(max).unwrap(), JsonValue::Float(f64::MAX));
        assert_eq!(parse(&format!("-{max}")).unwrap(), JsonValue::Float(f64::MIN));
        // What the writer prints for the largest float reads back as it.
        assert_eq!(
            parse(&JsonValue::Float(f64::MAX).to_compact()).unwrap().as_f64(),
            Some(f64::MAX)
        );
        // A non-finite float is written as `null`, so it never comes back.
        assert_eq!(JsonValue::Float(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn read_members_takes_any_order_skips_unknowns_and_keeps_the_first_duplicate() {
        fn point(text: &str) -> Result<(u32, i64), JsonError> {
            let mut r = JsonReader::new(text);
            read_members!(r => x, y: |r| r.number_as("i64", JsonValue::as_i64); note);
            r.finish()?;
            assert_eq!(note.unwrap_or(text.contains("note")), text.contains("note"));
            Ok((x, y))
        }
        assert_eq!(point(r#"{"x":1,"y":-2}"#), Ok((1, -2)));
        assert_eq!(point(r#"{"note":true,"x":1,"y":-2}"#), Ok((1, -2)));
        assert!(point(r#"{"note":1,"x":1,"y":-2}"#).is_err());
        assert_eq!(point(r#" { "y" : -2 , "z" : [{"x":9}] , "x" : 1 } "#), Ok((1, -2)));
        // The loser of a duplicate is skipped: checked as JSON, not as a `u32`.
        assert_eq!(point(r#"{"x":1,"x":"later","y":0}"#), Ok((1, 0)));
        assert_eq!(point(r#"{"x":1,"x":tru,"y":0}"#).unwrap_err().offset, Some(11));
        assert_eq!(point(r#"{"x":1}"#).unwrap_err().message, "missing member `y`");
        assert_eq!(point(r#"{"x":-1,"y":0}"#).unwrap_err().offset, Some(5));
        assert_eq!(point(r#"{"x":1,"y":0,"z":01}"#).unwrap_err().offset, Some(18));
        assert!(point(r#"{"x":1,"y":0} x"#).is_err());
    }

    #[test]
    fn skip_value_returns_the_span_it_checked() {
        let mut r = JsonReader::new(r#" [ {"a":[1,2,{"b":null}],"c":"x\ny"} , 2.5e3 ] "#);
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(r.skip_value().unwrap(), r#"{"a":[1,2,{"b":null}],"c":"x\ny"}"#);
        assert!(r.next_element().unwrap());
        assert_eq!(r.skip_value().unwrap(), "2.5e3");
        assert!(!r.next_element().unwrap());
        r.finish().unwrap();
        for bad in [r#"{"a":[1,]}"#, r#"{"a":1e400}"#, r#"["\x"]"#, r#"{"a" 1}"#, "[1 2]"] {
            assert!(JsonReader::new(bad).skip_value().is_err(), "{bad}");
        }
    }
}
