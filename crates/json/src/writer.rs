//! The push encoder: every JSON byte the workspace emits is appended here.

use crate::reader::plain_len;
use std::io::Write as _;

/// Appends JSON tokens to one buffer, compact or with 2-space indentation
/// (the `serde_json` pretty style).
///
/// The caller pushes tokens in document order — `begin_object`, `key`,
/// a value, …, `end_object` — and the writer supplies commas, colons and
/// indentation. It does not check that the sequence is well formed: an
/// encoder that forgets an `end_array` writes invalid JSON, which the
/// round-trip tests of every `ToJson` impl would catch.
#[derive(Debug)]
pub struct JsonWriter {
    /// Only ever extended by whole `str`s and ASCII bytes, so always
    /// UTF-8; held as bytes so that is checked once, not per token.
    out: Vec<u8>,
    pretty: bool,
    depth: usize,
    /// The next item is the first of its container: no comma before it,
    /// and a container closed while this is still set is empty.
    first: bool,
    /// A key was just written; the next value follows it directly.
    after_key: bool,
}

impl JsonWriter {
    /// A writer that emits no whitespace.
    pub fn compact() -> Self {
        Self::with_capacity(0)
    }

    /// A compact writer whose buffer already holds `bytes`, for a caller
    /// that knows the size of what it is about to write.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: Vec::with_capacity(bytes),
            pretty: false,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    /// A writer that puts every member and element on its own line,
    /// indented two spaces per level.
    pub fn pretty() -> Self {
        JsonWriter { pretty: true, ..Self::compact() }
    }

    /// One compact object as text, its members written by `members`.
    pub fn object(members: impl FnOnce(&mut Self)) -> String {
        let mut w = Self::compact();
        w.begin_object();
        members(&mut w);
        w.end_object();
        w.finish()
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        String::from_utf8(self.out).expect("the writer appends only UTF-8")
    }

    /// Separator and indentation before a key, an element or a
    /// top-level value.
    #[inline]
    fn item(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if !std::mem::take(&mut self.first) {
            self.out.push(b',');
        }
        if self.pretty && self.depth > 0 {
            self.newline_indent();
        }
    }

    fn newline_indent(&mut self) {
        self.out.push(b'\n');
        self.out.resize(self.out.len() + 2 * self.depth, b' ');
    }

    #[inline]
    fn open(&mut self, bracket: u8) {
        self.item();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    #[inline]
    fn close(&mut self, bracket: u8) {
        self.depth = self.depth.saturating_sub(1);
        if !std::mem::take(&mut self.first) && self.pretty {
            self.newline_indent();
        }
        self.out.push(bracket);
    }

    /// Opens an object; write `key`/value pairs, then [`end_object`](Self::end_object).
    #[inline]
    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    /// Closes the innermost object.
    #[inline]
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Opens an array; write its elements, then [`end_array`](Self::end_array).
    #[inline]
    pub fn begin_array(&mut self) {
        self.open(b'[');
    }

    /// Closes the innermost array.
    #[inline]
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// Writes an object key; the member's value must follow.
    #[inline(always)]
    pub fn key(&mut self, key: &str) {
        self.item();
        self.quoted(key);
        self.out.push(b':');
        if self.pretty {
            self.out.push(b' ');
        }
        self.after_key = true;
    }

    /// Writes one object member: `key`, then `value` through its encoder.
    #[inline(always)]
    pub fn member<T: crate::ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.write_json(self);
    }

    /// Writes an array with one `write` call per item.
    pub fn array<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut write: impl FnMut(&mut Self, T),
    ) {
        self.begin_array();
        for item in items {
            write(self, item);
        }
        self.end_array();
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.item();
        self.out.extend_from_slice(b"null");
    }

    /// Writes `true` or `false`.
    #[inline]
    pub fn bool(&mut self, b: bool) {
        self.item();
        self.out.extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Writes an unsigned integer, exactly.
    #[inline]
    pub fn u64(&mut self, n: u64) {
        self.item();
        self.digits(n);
    }

    /// Writes a signed integer, exactly.
    #[inline]
    pub fn i64(&mut self, n: i64) {
        self.item();
        if n < 0 {
            self.out.push(b'-');
        }
        self.digits(n.unsigned_abs());
    }

    /// Decimal digits through a stack buffer, two at a time (a record is
    /// mostly numbers; digit by digit costs an eighth of its encode time).
    #[inline]
    fn digits(&mut self, mut n: u64) {
        const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
            2021222324252627282930313233343536373839\
            4041424344454647484950515253545556575859\
            6061626364656667686970717273747576777879\
            8081828384858687888990919293949596979899";
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            at -= 2;
            buf[at..at + 2].copy_from_slice(&PAIRS[n as usize * 2..n as usize * 2 + 2]);
        } else {
            at -= 1;
            buf[at] = b'0' + n as u8;
        }
        self.out.extend_from_slice(&buf[at..]);
    }

    /// Writes a float in the shortest form that round-trips. A whole
    /// number keeps its `.0`, so the value re-parses as a float and
    /// serialization stays a fixpoint; JSON has no NaN/Infinity, so a
    /// non-finite value is written as `null` (as `serde_json` does).
    pub fn f64(&mut self, f: f64) {
        self.item();
        if !f.is_finite() {
            self.out.extend_from_slice(b"null");
            return;
        }
        let start = self.out.len();
        let _ = write!(self.out, "{f}");
        if !self.out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            self.out.extend_from_slice(b".0");
        }
    }

    /// Writes a string value.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.item();
        self.quoted(s);
    }

    /// The one string escaper: `"`, `\` and the control characters; all
    /// else, non-ASCII included, is copied through. Inlined to its caller,
    /// so for a literal key — the usual string — the check folds away and
    /// the key is copied as a constant.
    #[inline(always)]
    fn quoted(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let plain = plain_len(bytes);
        self.out.push(b'"');
        self.out.extend_from_slice(&bytes[..plain]);
        if plain < bytes.len() {
            self.escaped(&bytes[plain..]);
        }
        self.out.push(b'"');
    }

    /// The rest of a string from its first byte that needs an escape.
    #[cold]
    fn escaped(&mut self, bytes: &[u8]) {
        let mut clean = 0;
        while let Some(&b) = bytes.get(clean) {
            match b {
                b'"' => self.out.extend_from_slice(b"\\\""),
                b'\\' => self.out.extend_from_slice(b"\\\\"),
                b'\n' => self.out.extend_from_slice(b"\\n"),
                b'\r' => self.out.extend_from_slice(b"\\r"),
                b'\t' => self.out.extend_from_slice(b"\\t"),
                _ => {
                    let _ = write!(self.out, "\\u{b:04x}");
                }
            }
            let end = clean + 1 + plain_len(&bytes[clean + 1..]);
            self.out.extend_from_slice(&bytes[clean + 1..end]);
            clean = end;
        }
    }
}
