//! Offline JSON stand-in: a serde-free value model, parser, and writer.
//!
//! The build environment has no crates.io access, so this crate provides
//! the JSON subset the workspace actually needs: the `adi-service` wire
//! protocol (newline-delimited JSON over TCP/stdio), on the server and
//! client side. It is deliberately small:
//!
//! * [`Value`] — the usual JSON data model. Numbers distinguish
//!   integers ([`Value::Int`], `i64`) from floats ([`Value::Float`]) so
//!   nanosecond counters survive a round trip exactly.
//! * [`Object`] — an **insertion-ordered** string→value map (a `Vec` of
//!   pairs), so written documents keep a stable, reviewable field order.
//! * [`parse`] — a strict recursive-descent parser with a recursion
//!   depth limit (the service feeds it untrusted bytes), full string
//!   escapes including `\uXXXX` surrogate pairs, and byte-offset error
//!   positions.
//! * [`Value::to_string`](std::string::ToString) — a compact writer.
//!   Non-finite floats serialize as `null` (there is no JSON spelling
//!   for them).
//!
//! # Examples
//!
//! ```
//! use json::{parse, Object, Value};
//!
//! let v = parse(r#"{"op": "compile", "id": 7, "quick": false}"#).unwrap();
//! assert_eq!(v.get("op").and_then(Value::as_str), Some("compile"));
//! assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
//!
//! let mut o = Object::new();
//! o.insert("ok", true);
//! o.insert("result", Value::Array(vec![1i64.into(), 2i64.into()]));
//! assert_eq!(Value::Object(o).to_string(), r#"{"ok":true,"result":[1,2]}"#);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A JSON document or fragment.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent that fits an `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (insertion-ordered).
    Object(Object),
}

/// An insertion-ordered JSON object.
///
/// Lookup is a linear scan — protocol objects are a handful of keys, and
/// preserving the written order matters more than O(1) access here.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Object {
    entries: Vec<(String, Value)>,
}

impl Object {
    /// Creates an empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the object has no fields.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sets `key` to `value`: replaces the value in place if the key
    /// exists (keeping its position), appends otherwise.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        let key = key.into();
        let value = value.into();
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.entries.push((key, value)),
        }
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Iterates fields in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl<K: Into<String>, V: Into<Value>> FromIterator<(K, V)> for Object {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut o = Object::new();
        for (k, v) in iter {
            o.insert(k, v);
        }
        o
    }
}

impl Value {
    /// The boolean payload of a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload of a [`Value::Int`], or a [`Value::Float`]
    /// that is exactly integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Float(f) if f.fract() == 0.0 && *f >= -(2f64.powi(63)) && *f < 2f64.powi(63) => {
                Some(*f as i64)
            }
            _ => None,
        }
    }

    /// Like [`as_i64`](Self::as_i64) but rejects negatives.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// Any numeric payload as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string payload of a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of a [`Value::Array`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The [`Object`] payload of a [`Value::Object`].
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Returns `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object field access: `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(n) => write_int(out, *n),
            Value::Float(f) => write_float(out, *f),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(o) => {
                out.push('{');
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes an integer in decimal, byte-identical to `format!("{n}")`
/// without the formatting machinery: one push for a single digit, else
/// the digits right to left into a stack buffer.
fn write_int(out: &mut String, n: i64) {
    if (0..10).contains(&n) {
        out.push(char::from(b'0' + n as u8));
        return;
    }
    // `i64::MIN` takes 19 digits and a sign.
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut m = n.unsigned_abs();
    while m > 0 {
        i -= 1;
        buf[i] = b'0' + (m % 10) as u8;
        m /= 10;
    }
    if n < 0 {
        i -= 1;
        buf[i] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("digits and a sign are ASCII"));
}

/// Writes a float in JSON-legal form: shortest-roundtrip decimal, with
/// non-finite values degraded to `null` and integral values keeping a
/// trailing `.0` so they parse back as floats.
fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{f}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    /// Compact serialization (no whitespace) — the wire form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Int(n)
    }
}
impl From<i32> for Value {
    fn from(n: i32) -> Value {
        Value::Int(n as i64)
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Int(n as i64)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Value {
        match i64::try_from(n) {
            Ok(v) => Value::Int(v),
            Err(_) => Value::Float(n as f64),
        }
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Value {
        match i64::try_from(n) {
            Ok(v) => Value::Int(v),
            Err(_) => Value::Float(n as f64),
        }
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Object> for Value {
    fn from(o: Object) -> Value {
        Value::Object(o)
    }
}
impl From<Vec<Value>> for Value {
    fn from(a: Vec<Value>) -> Value {
        Value::Array(a)
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Maximum nesting depth the parser accepts. The service parses
/// untrusted input; unbounded recursion would be a stack-overflow DoS.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Trailing non-whitespace input is an error.
///
/// # Examples
///
/// ```
/// use json::{parse, Value};
///
/// assert_eq!(parse("[1, 2.5, \"x\"]").unwrap(), Value::Array(vec![
///     Value::Int(1), Value::Float(2.5), Value::Str("x".into()),
/// ]));
/// assert!(parse("{\"unterminated\": ").is_err());
/// ```
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

/// Returns `true` for a byte that ends a plain run inside a string:
/// `"`, `\` or a control byte below 0x20.
fn ends_run(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The offset of the first byte at or after `pos` that
/// [ends a run](ends_run), or `bytes.len()`.
///
/// Whole 8-byte words are tested at once. For `n` ≤ 0x80,
/// `(v - n·0x01…) & !v & 0x80…` flags every byte of the word `v` below
/// `n`. A byte above a flagged one may be flagged too, through the
/// borrow, but the lowest flag is always exact. With `n` = 1 on the word
/// XOR `"` and on the word XOR `\`, and `n` = 0x20 on the word itself,
/// the lowest of the three flags is the first byte that ends the run.
fn plain_run_end(bytes: &[u8], mut pos: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    const QUOTES: u64 = ONES * b'"' as u64;
    const BACKSLASHES: u64 = ONES * b'\\' as u64;
    const SPACES: u64 = ONES * 0x20;
    while let Some(word) = bytes.get(pos..pos + 8) {
        let x = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
        let (quote, backslash) = (x ^ QUOTES, x ^ BACKSLASHES);
        let flags = ((quote.wrapping_sub(ONES) & !quote)
            | (backslash.wrapping_sub(ONES) & !backslash)
            | (x.wrapping_sub(SPACES) & !x))
            & HIGHS;
        if flags != 0 {
            return pos + (flags.trailing_zeros() / 8) as usize;
        }
        pos += 8;
    }
    bytes[pos..]
        .iter()
        .position(|&b| ends_run(b))
        .map_or(bytes.len(), |i| pos + i)
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut o = Object::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(o));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            o.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(o));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Parses a string literal. Runs of plain bytes are found 8 bytes at
    /// a time ([`plain_run_end`]) and copied as slices of the input
    /// `&str`: a run starts after an ASCII byte and ends at one (or at
    /// the end of the input), so it never splits a character.
    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            self.pos = plain_run_end(self.bytes, start);
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a low surrogate must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?);
            }
            _ => return Err(self.err("invalid escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            v = v * 16 + d as u32;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number chars are ASCII");
        if integral {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-42").unwrap(), Value::Int(-42));
        assert_eq!(parse("0").unwrap(), Value::Int(0));
        assert_eq!(parse("2.5e3").unwrap(), Value::Float(2500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn integers_write_like_format() {
        let mut cases = vec![0, 9, 10, -1, -10, i64::MIN, i64::MAX];
        let mut p: i64 = 1;
        loop {
            cases.extend([p - 1, p, p + 1, -p - 1, -p, -p + 1]);
            match p.checked_mul(10) {
                Some(q) => p = q,
                None => break,
            }
        }
        for n in cases {
            assert_eq!(Value::Int(n).to_string(), format!("{n}"), "{n}");
        }
    }

    #[test]
    fn large_integers_stay_exact() {
        let n = i64::MAX;
        assert_eq!(parse(&n.to_string()).unwrap(), Value::Int(n));
        // Past i64: degrade to float rather than failing.
        assert!(matches!(
            parse("99999999999999999999").unwrap(),
            Value::Float(_)
        ));
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["z", "a", "m"]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn duplicate_keys_keep_last_value_first_position() {
        let v = parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"a":3,"b":2}"#);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let src = "\"a\\n\\t\\\"\\\\b\\u0041\\ud83d\\ude00\"";
        let v = parse(src).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\n\t\"\\bA😀");
        // Writing re-escapes what must be escaped and reparses equal.
        let round = parse(&v.to_string()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "nul", "01", "1.",
            "1e", "\"\\q\"", "\"\\ud800\"", "[1] garbage", "\"raw\nnewline\"",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    /// The byte loop [`plain_run_end`] replaced.
    fn byte_loop_run_end(bytes: &[u8], pos: usize) -> usize {
        let mut end = pos;
        while end < bytes.len() && !ends_run(bytes[end]) {
            end += 1;
        }
        end
    }

    #[test]
    fn string_runs_end_where_the_byte_loop_ends_them() {
        // Each special piece as it appears in the literal, and what it
        // decodes to (`None`: the literal is an error there).
        let pieces: [(&str, Option<&str>); 11] = [
            ("\\\"", Some("\"")),
            ("\\\\", Some("\\")),
            ("\\n", Some("\n")),
            ("\\u00e9", Some("é")),
            ("\u{1}", None),
            ("\n", None),
            ("\u{1f}", None),
            ("\u{7f}", Some("\u{7f}")),
            ("é", Some("é")),
            ("€", Some("€")),
            ("😀", Some("😀")),
        ];
        for offset in 0..=16 {
            for (piece, decoded) in pieces {
                for tail in 0..=9 {
                    let (head, rest) = ("a".repeat(offset), "z".repeat(tail));
                    let doc = format!("[\"{head}{piece}{rest}\", \"{head}\"]");
                    let bytes = doc.as_bytes();
                    for pos in 0..=bytes.len() {
                        assert_eq!(plain_run_end(bytes, pos), byte_loop_run_end(bytes, pos), "{doc:?} at {pos}");
                    }
                    match decoded {
                        Some(d) => assert_eq!(
                            parse(&doc).unwrap(),
                            Value::Array(vec![
                                Value::Str(format!("{head}{d}{rest}")),
                                Value::Str(head.clone()),
                            ]),
                            "{doc:?}"
                        ),
                        None => {
                            let err = parse(&doc).unwrap_err();
                            assert_eq!(err.message, "raw control character in string", "{doc:?}");
                            assert_eq!(err.offset, 2 + offset, "{doc:?}");
                        }
                    }
                }
            }
        }
        // An unterminated string ends its run at the end of the input.
        for len in 0..=16 {
            let doc = format!("\"{}", "é".repeat(len));
            assert_eq!(plain_run_end(doc.as_bytes(), 1), doc.len());
            assert_eq!(parse(&doc).unwrap_err().message, "unterminated string");
        }
    }

    #[test]
    fn depth_limit_blocks_hostile_nesting() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
        // A document inside the limit is fine.
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn floats_round_and_serialize_json_legal() {
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(f64::NAN).to_string(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn accessor_conversions() {
        let v = parse(r#"{"i": 3, "f": 3.5, "s": "x", "b": true, "n": null}"#).unwrap();
        assert_eq!(v.get("i").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("i").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("f").unwrap().as_i64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(3.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(v.get("n").unwrap().is_null());
        assert!(v.get("missing").is_none());
        assert_eq!(Value::Float(3.0).as_i64(), Some(3));
    }
}
