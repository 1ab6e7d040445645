//! The pull decoder: the workspace's one JSON tokenizer.

use crate::{JsonError, JsonValue};
use std::borrow::Cow;

/// The length of the run at the start of `bytes` that a JSON string holds
/// as itself: up to the first `"`, `\` or control character, or all of
/// it. Eight bytes a word (the lowest byte a has-zero-byte or has-less
/// test flags is always a true one), the last word padded with spaces;
/// the reader's string scan and the writer's escaper share it.
#[inline(always)]
pub(crate) fn plain_len(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const QUOTES: u64 = u64::from_le_bytes([b'"'; 8]);
    const BACKSLASHES: u64 = u64::from_le_bytes([b'\\'; 8]);
    const SPACES: u64 = u64::from_le_bytes([b' '; 8]);
    let special = |word: u64| {
        let zero = |x: u64| x.wrapping_sub(ONES) & !x;
        (zero(word ^ QUOTES) | zero(word ^ BACKSLASHES) | (word.wrapping_sub(SPACES) & !word))
            & HIGHS
    };
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let flags = special(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        if flags != 0 {
            return i * 8 + flags.trailing_zeros() as usize / 8;
        }
    }
    let rest = words.remainder();
    let mut last = [b' '; 8];
    last[..rest.len()].copy_from_slice(rest);
    let flags = special(u64::from_le_bytes(last));
    bytes.len() - rest.len() + (flags.trailing_zeros() as usize / 8).min(rest.len())
}

/// The value of eight ASCII digits read as one little-endian word (the
/// first digit in the lowest byte), or `None` if a byte is not a digit:
/// pairs, then quads, then the eight, by three multiplications.
#[inline]
fn eight_digits(word: u64) -> Option<i64> {
    const NIBBLES: u64 = u64::from_le_bytes([0xf0; 8]);
    const ZEROS: u64 = u64::from_le_bytes([b'0'; 8]);
    const SIXES: u64 = u64::from_le_bytes([0x06; 8]);
    // Each byte is 0x30..=0x39: high nibble 3, and adding 6 leaves it 3.
    if word & NIBBLES != ZEROS || word.wrapping_add(SIXES) & NIBBLES != ZEROS {
        return None;
    }
    let v = word - ZEROS;
    let v = v.wrapping_mul(10) + (v >> 8);
    let low = (v & 0x0000_00ff_0000_00ff).wrapping_mul(100 + (1_000_000 << 32));
    let high = ((v >> 16) & 0x0000_00ff_0000_00ff).wrapping_mul(1 + (10_000 << 32));
    Some((low.wrapping_add(high) >> 32) as i64)
}

/// Values nested deeper than this are refused, so a hostile document
/// fails cleanly instead of exhausting the stack.
const MAX_DEPTH: usize = 128;

/// A strict, allocation-free reader over one JSON text: no trailing
/// commas, no comments, no NaN/Infinity, nesting limited to [`MAX_DEPTH`].
///
/// The caller pulls what its schema expects — a typed scalar, the keys
/// of an object, the elements of an array — and whatever it does not
/// want it passes to [`skip_value`](Self::skip_value), which checks the
/// skipped text as strictly as a read would. [`parse`](crate::parse) is
/// one such caller: it pulls a [`JsonValue`]. Every error carries the
/// byte offset of the token it is about.
#[derive(Debug, Clone)]
pub struct JsonReader<'a> {
    src: &'a str,
    pos: usize,
    /// Containers open around the next value.
    depth: usize,
    /// Nothing has been read from the innermost container yet.
    first: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        JsonReader { src, pos: 0, depth: 0, first: false }
    }

    /// The reader's byte offset in its input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// An error at the reader's position.
    #[cold]
    pub fn error(&self, message: &str) -> JsonError {
        JsonError { offset: Some(self.pos), message: message.to_string() }
    }

    /// Checks that only whitespace follows the top-level value.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.error("trailing characters after value"));
        }
        Ok(())
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn eat_byte(&mut self, byte: u8) -> bool {
        let found = self.byte() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn eat(&mut self, literal: &str) -> bool {
        let found = self.src.as_bytes()[self.pos..].starts_with(literal.as_bytes());
        if found {
            self.pos += literal.len();
        }
        found
    }

    /// Skips whitespace and returns the first byte of the next value
    /// without consuming it, which tells its type.
    #[inline]
    pub fn peek(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.byte().ok_or_else(|| self.error("expected a JSON value"))
    }

    fn literal(&mut self, literal: &str) -> Result<(), JsonError> {
        self.peek()?;
        self.eat(literal).then_some(()).ok_or_else(|| self.error("expected a JSON value"))
    }

    /// Reads `null`.
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.literal("null")
    }

    /// Reads `true` or `false`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.peek()? {
            b't' => self.literal("true").map(|()| true),
            b'f' => self.literal("false").map(|()| false),
            _ => Err(self.error("expected bool")),
        }
    }

    /// Reads a number as the scalar [`JsonValue`] it denotes: `Int` when
    /// it is written without fraction or exponent and fits `i64`, `UInt`
    /// when it only fits `u64`, `Float` otherwise.
    #[inline]
    pub fn number(&mut self) -> Result<JsonValue, JsonError> {
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            return Err(self.error("expected a number"));
        }
        let start = self.pos;
        let negative = self.eat_byte(b'-');
        // The integer part's magnitude; fewer than 20 digits fit `u64`.
        let (digits, mut magnitude) = (self.pos, 0u64);
        match self.byte() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(digit @ b'0'..=b'9') = self.byte() {
                    magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        // Inlined up to here: what nearly every number of a record is.
        if self.pos - digits >= 20 || matches!(self.byte(), Some(b'.' | b'e' | b'E')) {
            return self.long_number(start);
        }
        if !negative {
            return Ok(i64::try_from(magnitude).map_or(JsonValue::UInt(magnitude), JsonValue::Int));
        }
        match 0i64.checked_sub_unsigned(magnitude) {
            Some(n) => Ok(JsonValue::Int(n)),
            None => self.long_number(start),
        }
    }

    /// The rest of a number that has a fraction or an exponent, or whose
    /// integer part may not fit; the reader is behind that part.
    fn long_number(&mut self, start: usize) -> Result<JsonValue, JsonError> {
        let mut integral = true;
        if self.eat_byte(b'.') {
            integral = false;
            self.digits("digits required after decimal point")?;
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("digits required in exponent")?;
        }
        let text = &self.src[start..self.pos];
        if integral {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
        }
        // `str::parse` maps a too-large literal to infinity, not an error.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(JsonValue::Float(f)),
            _ => Err(JsonError { offset: Some(start), message: "number out of range".into() }),
        }
    }

    /// At least one digit, then all that follow.
    fn digits(&mut self, or_else: &str) -> Result<(), JsonError> {
        if !matches!(self.byte(), Some(b'0'..=b'9')) {
            return Err(self.error(or_else));
        }
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// Reads an integer that `T` holds. A plain integer of at most 18
    /// digits (nearly every number of a record) goes from its digits
    /// straight to the value; anything else — a fraction, an exponent, a
    /// leading zero, a longer literal, no number at all — goes through
    /// [`number_as`](Self::number_as), so a typed read accepts, refuses
    /// and reports exactly what a tree lookup would. `what` names the type
    /// in the error.
    #[inline]
    pub(crate) fn integer<T: TryFrom<i64> + TryFrom<u64>>(
        &mut self,
        what: &str,
    ) -> Result<T, JsonError> {
        self.skip_ws();
        let (bytes, start) = (self.src.as_bytes(), self.pos);
        let negative = bytes.get(start) == Some(&b'-');
        let digits = start + usize::from(negative);
        let (mut end, mut magnitude) = (digits, 0i64);
        // A word at a time from a second digit on (one digit is the
        // commonest number).
        while let Some(word) = bytes.get(end..end + 8).filter(|w| w[1].is_ascii_digit()) {
            let Some(eight) = eight_digits(u64::from_le_bytes(word.try_into().expect("8 bytes")))
            else {
                break;
            };
            magnitude = magnitude.wrapping_mul(100_000_000).wrapping_add(eight);
            end += 8;
        }
        while let Some(&digit @ b'0'..=b'9') = bytes.get(end) {
            magnitude = magnitude.wrapping_mul(10).wrapping_add(i64::from(digit - b'0'));
            end += 1;
        }
        // Below 10^18 the magnitude is exact in an `i64`, either sign.
        let plain = matches!(end - digits, 1..=18)
            && (bytes[digits] != b'0' || end == digits + 1)
            && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E'))
            && self.depth <= MAX_DEPTH;
        if !plain {
            return self.number_as(what, |n| match *n {
                JsonValue::Int(n) => T::try_from(n).ok(),
                JsonValue::UInt(n) => T::try_from(n).ok(),
                _ => None,
            });
        }
        self.pos = end;
        T::try_from(if negative { -magnitude } else { magnitude })
            .map_err(|_| JsonError { offset: Some(start), message: format!("expected {what}") })
    }

    /// Reads a number and converts it with `pick` — one of
    /// [`JsonValue`]'s accessors, so a typed read and a tree lookup
    /// agree on what converts. `what` names the type in the error.
    #[inline]
    pub fn number_as<T>(
        &mut self,
        what: &str,
        pick: impl FnOnce(&JsonValue) -> Option<T>,
    ) -> Result<T, JsonError> {
        self.skip_ws();
        let offset = self.pos;
        pick(&self.number()?)
            .ok_or_else(|| JsonError { offset: Some(offset), message: format!("expected {what}") })
    }

    /// Reads a string, borrowed from the input unless it has escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.peek()?;
        self.quoted()
    }

    /// A string token (a value or a key) at the reader's position.
    #[inline]
    fn quoted(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if !self.eat_byte(b'"') {
            return Err(self.error("expected `\"`"));
        }
        let start = self.pos;
        self.skip_plain();
        if self.eat_byte(b'"') {
            return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
        }
        self.escaped(start).map(Cow::Owned)
    }

    /// Passes the bytes that stand for themselves inside a string. Both
    /// ends of such a run sit next to an ASCII byte: char boundaries.
    #[inline]
    fn skip_plain(&mut self) {
        self.pos += plain_len(&self.src.as_bytes()[self.pos..]);
    }

    /// Decodes a string that began at `start` and did not end with its
    /// first plain run, which the reader is behind.
    fn escaped(&mut self, start: usize) -> Result<String, JsonError> {
        let mut decoded = self.src[start..self.pos].to_string();
        loop {
            match self.byte() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(decoded);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    decoded.push(self.escape()?);
                }
                Some(_) => return Err(self.error("control character in string")),
            }
            let run = self.pos;
            self.skip_plain();
            decoded.push_str(&self.src[run..self.pos]);
        }
    }

    /// The character an escape stands for, with the reader behind its `\`.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&cp) {
                    // High surrogate: require a low surrogate.
                    if !self.eat("\\u") {
                        return Err(self.error("unpaired surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                } else {
                    char::from_u32(cp)
                };
                return c.ok_or_else(|| self.error("invalid code point"));
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.src.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let cp = self
            .src
            .get(self.pos..end)
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    #[inline]
    fn open(&mut self, bracket: u8, or_else: &str) -> Result<(), JsonError> {
        if self.peek()? != bracket {
            return Err(self.error(or_else));
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Steps to the next item of the innermost container: `true` with
    /// the reader in front of it, `false` with the container closed.
    #[inline]
    fn next_item(&mut self, close: u8, or_else: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        let first = std::mem::take(&mut self.first);
        match self.byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error(or_else)),
        }
    }

    /// Enters an array; pull its elements with
    /// [`next_element`](Self::next_element).
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[', "expected `[`")
    }

    /// `true` when another element follows (read or skip it before
    /// calling again), `false` once the array is closed.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        self.next_item(b']', "expected `,` or `]`")
    }

    /// Enters an object; pull its members with [`next_key`](Self::next_key).
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{', "expected `{`")
    }

    /// The next member's key (read or skip its value before calling
    /// again), `None` once the object is closed.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.next_item(b'}', "expected `,` or `}`")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.quoted()?;
        self.skip_ws();
        if !self.eat_byte(b':') {
            return Err(self.error("expected `:`"));
        }
        Ok(Some(key))
    }

    /// Steps over the next member's `"key":` when it is written exactly
    /// so, with no whitespace, where the reader stands: `true` with the
    /// reader in front of the value, `false` with the reader unmoved. A
    /// decoder that expects a member there reads it without scanning its
    /// key; the key reads the same through [`next_key`](Self::next_key).
    /// `key` must need no escape.
    #[inline]
    pub fn expect_key(&mut self, key: &str) -> bool {
        let bytes = self.src.as_bytes();
        let at = self.pos + usize::from(!self.first);
        let end = at + key.len() + 3;
        let found = (self.first || bytes.get(self.pos) == Some(&b','))
            && bytes.get(at) == Some(&b'"')
            && bytes.get(at + 1..end - 2) == Some(key.as_bytes())
            && bytes.get(end - 2..end) == Some(b"\":");
        if found {
            self.pos = end;
            self.first = false;
        }
        found
    }

    /// Reads an array into an exactly sized `Vec`, one `read` per element.
    pub fn elements<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.begin_array()?;
        let mut items = Vec::new();
        while self.next_element()? {
            items.push(read(self)?);
        }
        items.shrink_to_fit();
        Ok(items)
    }

    /// Reads a member's value into `slot`. The first of duplicate keys
    /// wins: with `slot` already filled the value is only skipped.
    #[inline]
    pub fn member<T>(
        &mut self,
        slot: &mut Option<T>,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<(), JsonError> {
        match slot {
            Some(_) => self.skip_value().map(drop),
            None => read(self).map(|value| *slot = Some(value)),
        }
    }

    /// Passes over one value of any type, checking it in full, and
    /// returns its text.
    pub fn skip_value(&mut self) -> Result<&'a str, JsonError> {
        let first = self.peek()?;
        let start = self.pos;
        match first {
            b'n' => self.null()?,
            b't' | b'f' => drop(self.bool()?),
            b'"' => drop(self.quoted()?),
            b'-' | b'0'..=b'9' => drop(self.number()?),
            b'[' => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            b'{' => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            _ => return Err(self.error("expected a JSON value")),
        }
        Ok(&self.src[start..self.pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_digits_reads_every_word_of_digits_and_no_other() {
        let word = |text: &[u8; 8]| u64::from_le_bytes(*text);
        let mut n = 0u64;
        while n < 100_000_000 {
            let text = format!("{n:08}");
            let bytes: [u8; 8] = text.as_bytes().try_into().unwrap();
            assert_eq!(eight_digits(word(&bytes)), Some(n as i64), "{text}");
            n = n * 3 + 7;
        }
        assert_eq!(eight_digits(word(b"99999999")), Some(99_999_999));
        assert_eq!(eight_digits(word(b"00000000")), Some(0));
        for bad in [b"1234567a", b"/2345678", b":2345678", b"1234 678", b"12345-78", b"\xb12345678"]
        {
            assert_eq!(eight_digits(word(bad)), None, "{:?}", std::str::from_utf8(bad));
        }
        for byte in 0..=255u8 {
            let mut text = *b"12345678";
            text[byte as usize % 8] = byte;
            assert_eq!(eight_digits(word(&text)).is_some(), byte.is_ascii_digit(), "{byte:#x}");
        }
    }

    #[test]
    fn plain_len_stops_at_the_first_byte_a_string_escapes() {
        let slow = |bytes: &[u8]| {
            bytes.iter().position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1f)).unwrap_or(bytes.len())
        };
        for len in 0..24 {
            for at in 0..=len {
                for special in [b'"', b'\\', 0, 0x1f, b'\n'] {
                    let mut bytes = vec![b'a'; len];
                    if at < len {
                        bytes[at] = special;
                    }
                    // Bytes a special one borrows or carries into come after it.
                    if at + 1 < len {
                        bytes[at + 1] = 0x80;
                    }
                    assert_eq!(plain_len(&bytes), slow(&bytes), "{bytes:?}");
                }
            }
        }
        for bytes in [&b" !#[]~\x7f\x80\xff"[..], "é😀 ".as_bytes(), b"\x20\x21\x5b\x5d"] {
            assert_eq!(plain_len(bytes), bytes.len());
        }
    }
}
