//! The pull decoder: the workspace's one JSON tokenizer.

use crate::{JsonError, JsonValue};
use std::borrow::Cow;

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
    fn skip_plain(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        let special = |b: &u8| matches!(b, b'"' | b'\\' | 0..=0x1f);
        self.pos += rest.iter().position(special).unwrap_or(rest.len());
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
