//! Offline facade for the slice of `serde_json` this workspace uses.
//!
//! The build environment cannot reach crates.io, so this shim implements
//! exactly the subset the workspace needs: an owned [`Value`] tree,
//! serialization via [`to_string`] / `Display`, and parsing via
//! [`from_str`]. Objects are backed by a `BTreeMap`, so serialization is
//! key-sorted and therefore deterministic — the property every exported
//! trace artifact in this workspace relies on. Swapping back to the real
//! crate is a one-line change in the workspace manifest (the real
//! `serde_json::Value` sorts object keys the same way by default).
//!
//! One addition has no counterpart in the real crate: [`JsonWriter`],
//! a streaming writer that appends canonical compact JSON straight to a
//! `String` without building a tree. It is also what `Display` and
//! [`to_string`] use, so streamed and tree-built documents share one
//! escape routine and one integer formatter byte for byte. Those two
//! are public as [`push_escaped`] and [`push_u64`], for one
//! fixed-schema caller: `vdap_obs::spans_jsonl` writes each span line
//! as literal key fragments with only the values run through them, so
//! its lines are the bytes the writer would emit without the writer's
//! per-token bookkeeping. Porting to the real crate means replacing
//! the writer's callers with `Serialize` impls whose fields are
//! declared in sorted order.
//!
//! [`from_str`] refuses input nested deeper than [`MAX_DEPTH`]
//! containers, like the real crate's recursion limit.
//!
//! Numbers are stored as `f64`. Integral values in `±2^53` round-trip
//! exactly and print without a fractional part, which covers every
//! number the trace exporter emits (microsecond timestamps, ids,
//! counters).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as `f64`; integral values print as integers).
    Number(f64),
    /// A JSON string.
    String(String),
    /// A JSON array.
    Array(Vec<Value>),
    /// A JSON object with key-sorted (deterministic) serialization.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup: `value["key"]`-style access without panicking.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The array items when this value is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents when this value is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value when this value is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64` when it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Number(f64::from(n))
    }
}

/// Lower-case hex digits, shared by the hex and `\u00XX` formatters.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Deepest container nesting [`from_str`] accepts (serde_json's
/// default recursion limit). Deeper input is an error, not a stack
/// overflow.
pub const MAX_DEPTH: usize = 128;

/// Appends the ASCII digits a formatter produced. Pushing them as chars
/// avoids validating them as UTF-8 to make a `&str`, which costs more
/// than the pushes for a number's few digits.
fn push_digits(out: &mut String, digits: &[u8]) {
    out.extend(digits.iter().map(|&d| char::from(d)));
}

/// The decimal digit pairs `"00"` through `"99"`, back to back.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `v` in decimal, two digits per division: the bytes
/// `v.to_string()` would give.
///
/// This is one of [`JsonWriter`]'s two primitives (with
/// [`push_escaped`]): every integer the writer emits goes through it.
/// It is public for fixed-schema writers that append a record's keys
/// as literal fragments and only its values through the primitives,
/// so their output must stay byte-identical to what `JsonWriter`
/// emits for the same value.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    push_digits(out, &buf[i..]);
}

/// Appends `v` in lower-case hex, zero-padded to at least `min_digits`.
fn push_hex(out: &mut String, mut v: u64, min_digits: usize) {
    let mut buf = [0u8; 16];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = HEX_DIGITS[(v & 0xf) as usize];
        v >>= 4;
        if v == 0 && buf.len() - i >= min_digits {
            break;
        }
    }
    push_digits(out, &buf[i..]);
}

/// Appends `s` as a quoted JSON string. Runs that need no escaping are
/// copied with one `push_str`; only `"`, `\` and control characters
/// are escaped (`\n`, `\r`, `\t` by name, the rest as `\u00XX`).
///
/// This is [`JsonWriter`]'s other primitive (with [`push_u64`]): every
/// key and string value the writer emits goes through it. Public for
/// the same fixed-schema writers, under the same rule: a string
/// appended here is byte-identical to the writer's.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
                out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// One open container, tracked in debug builds to check the writer's
/// grammar: balanced nesting and strictly ascending object keys.
/// Release builds construct and drop it unread.
#[derive(Debug)]
#[cfg_attr(not(debug_assertions), allow(dead_code))]
enum Frame {
    Array,
    /// An object and the last key written into it.
    Object(Option<String>),
}

/// Appends compact JSON text to a `String`, one token at a time.
///
/// This is the crate's only serializer: [`Value`]'s `Display` and
/// [`to_string`] run through it too, and it never goes through
/// `core::fmt` except for non-integral floats. Every integer goes
/// through [`push_u64`] and every key and string through
/// [`push_escaped`], the two primitives a fixed-schema writer such as
/// `vdap_obs::spans_jsonl` calls directly. A document written field
/// by field is byte-identical to the same document built as a `Value`
/// tree as long as each object's keys are written in strictly ascending
/// byte order — the order `Value`'s `BTreeMap` iterates in. Debug builds
/// assert that order and balanced nesting; release builds trust the
/// caller.
///
/// # Examples
///
/// ```
/// let mut w = serde_json::JsonWriter::new();
/// w.begin_object();
/// w.key("count").u64(3);
/// w.key("ids").begin_array().hex(255).str("a\"b").end_array();
/// w.end_object();
/// assert_eq!(w.into_string(), r#"{"count":3,"ids":["ff","a\"b"]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or array item needs a leading comma.
    comma: bool,
    #[cfg(debug_assertions)]
    open: Vec<Frame>,
}

impl JsonWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// An empty writer with room for `bytes` of output.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(bytes),
            ..JsonWriter::default()
        }
    }

    /// The text written so far.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// The finished text.
    #[must_use]
    pub fn into_string(self) -> String {
        self.check_closed();
        self.out
    }

    /// Ends one JSON Lines record: appends `\n` after a complete
    /// top-level value, so the next value starts a new line.
    pub fn end_line(&mut self) -> &mut Self {
        self.check_closed();
        self.out.push('\n');
        self.comma = false;
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open(Frame::Object(None), '{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close(true, '}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open(Frame::Array, '[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(false, ']')
    }

    /// Writes an object key; the next call writes its value.
    ///
    /// # Panics
    ///
    /// In debug builds, when `key` is not strictly greater than the
    /// previous key of the same object, or when no object is open.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.check_key(key);
        if self.comma {
            self.out.push(',');
        }
        push_escaped(&mut self.out, key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.item();
        self.out.push_str("null");
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.item();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes a decimal number.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.u64(u64::from(v))
    }

    /// Writes a decimal number, exact at any magnitude.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.item();
        push_u64(&mut self.out, v);
        self
    }

    /// Writes `v` as a quoted lower-case hex string (`"ff"`).
    pub fn hex(&mut self, v: u64) -> &mut Self {
        self.item();
        self.out.push('"');
        push_hex(&mut self.out, v, 1);
        self.out.push('"');
        self
    }

    /// Writes `v` as a quoted lower-case hex string.
    pub fn hex128(&mut self, v: u128) -> &mut Self {
        self.item();
        self.out.push('"');
        let (hi, lo) = ((v >> 64) as u64, v as u64);
        if hi == 0 {
            push_hex(&mut self.out, lo, 1);
        } else {
            push_hex(&mut self.out, hi, 1);
            push_hex(&mut self.out, lo, 16);
        }
        self.out.push('"');
        self
    }

    /// Writes a quoted, escaped string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.item();
        push_escaped(&mut self.out, s);
        self
    }

    /// Writes a number the way [`Value::Number`] prints: integral
    /// values within `±2^53` without a fraction, non-finite values as
    /// `null`, anything else in Rust's shortest round-trip form.
    pub fn number(&mut self, n: f64) -> &mut Self {
        self.item();
        if !n.is_finite() {
            // JSON has no NaN/Inf; serialize as null like serde_json's
            // arbitrary-precision feature does for unrepresentable floats.
            self.out.push_str("null");
        } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
            if n < 0.0 {
                self.out.push('-');
            }
            push_u64(&mut self.out, n.abs() as u64);
        } else {
            use std::fmt::Write as _;
            let _ = write!(self.out, "{n}");
        }
        self
    }

    /// Writes a whole [`Value`] tree.
    pub fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Number(n) => self.number(*n),
            Value::String(s) => self.str(s),
            Value::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array()
            }
            Value::Object(map) => {
                self.begin_object();
                for (k, item) in map {
                    self.key(k).value(item);
                }
                self.end_object()
            }
        }
    }

    /// Splices in text that is already one complete, compact JSON value
    /// (a payload serialized by another writer). Its bytes are copied
    /// as-is, unchecked.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.item();
        self.out.push_str(json);
        self
    }

    /// Separates an array item or scalar from the one before it.
    fn item(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn open(&mut self, frame: Frame, bracket: char) -> &mut Self {
        self.item();
        self.out.push(bracket);
        self.comma = false;
        #[cfg(debug_assertions)]
        self.open.push(frame);
        #[cfg(not(debug_assertions))]
        let _ = frame;
        self
    }

    fn close(&mut self, object: bool, bracket: char) -> &mut Self {
        #[cfg(debug_assertions)]
        {
            let frame = self.open.pop();
            assert!(
                matches!(
                    (&frame, object),
                    (Some(Frame::Object(_)), true) | (Some(Frame::Array), false)
                ),
                "JSON writer closed {bracket:?} over {frame:?}"
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = object;
        self.out.push(bracket);
        self.comma = true;
        self
    }

    fn check_key(&mut self, _key: &str) {
        #[cfg(debug_assertions)]
        match self.open.last_mut() {
            Some(Frame::Object(last)) => {
                if let Some(prev) = last.as_deref() {
                    assert!(
                        prev < _key,
                        "JSON object keys must be strictly ascending: {prev:?} then {_key:?}"
                    );
                }
                *last = Some(_key.to_owned());
            }
            other => panic!("JSON key {_key:?} written into {other:?}, not an object"),
        }
    }

    fn check_closed(&self) {
        #[cfg(debug_assertions)]
        assert!(
            self.open.is_empty(),
            "JSON containers left open: {:?}",
            self.open
        );
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = JsonWriter::new();
        w.value(self);
        f.write_str(w.as_str())
    }
}

/// Serializes a value to its compact JSON text.
///
/// Infallible for this shim's `Value` (the real crate returns a
/// `Result` for serializer-level errors that cannot occur here), but
/// keeps the `Result` signature so call sites match the real API.
///
/// # Errors
///
/// Never fails.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut w = JsonWriter::new();
    w.value(value);
    Ok(w.into_string())
}

/// Why a JSON text failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for Error {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, Error> {
        Err(Error {
            msg: msg.to_string(),
            offset: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn expect_literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.expect_literal("null", Value::Null),
            Some(b't') => self.expect_literal("true", Value::Bool(true)),
            Some(b'f') => self.expect_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Parses one container one level deeper, refusing to recurse past
    /// [`MAX_DEPTH`] so hostile input cannot overflow the stack.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return self.err("nesting deeper than MAX_DEPTH");
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one go.
            // Both are ASCII, so the run ends on a char boundary.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            let Some(b) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return self.err("unterminated escape");
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let Some(hex) = self.bytes.get(self.pos..self.pos + 4) else {
                        return self.err("truncated \\u escape");
                    };
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return self.err("bad \\u escape");
                    }
                    let code = hex.iter().fold(0u32, |acc, &h| {
                        acc * 16 + char::from(h).to_digit(16).expect("checked hex digit")
                    });
                    self.pos += 4;
                    // Surrogate pairs are not needed by this
                    // workspace's artifacts; map unpaired
                    // surrogates to the replacement character.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return self.err("unknown escape"),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) => Ok(Value::Number(n)),
            Err(_) => self.err("bad number"),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a JSON text into a [`Value`].
///
/// # Errors
///
/// Returns an [`Error`] naming the byte offset of the first syntax
/// violation, including trailing garbage after a complete value.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Object(
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn values_round_trip() {
        let v = obj(&[
            ("name", Value::from("fleet \"trace\"\n")),
            ("ts", Value::from(1_234_567u64)),
            ("dur", Value::Number(1.5)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            (
                "args",
                Value::Array(vec![Value::from(0u32), obj(&[("k", Value::from("v"))])]),
            ),
        ]);
        let text = to_string(&v).expect("serialize");
        let back = from_str(&text).expect("parse");
        assert_eq!(back, v);
        assert_eq!(to_string(&back).expect("serialize"), text);
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Value::from(42u64).to_string(), "42");
        assert_eq!(Value::Number(-3.0).to_string(), "-3");
        assert_eq!(Value::Number(2.25).to_string(), "2.25");
    }

    #[test]
    fn object_keys_serialize_sorted() {
        let v = obj(&[("b", Value::Null), ("a", Value::Null)]);
        assert_eq!(v.to_string(), "{\"a\":null,\"b\":null}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str("{\"a\":}").is_err());
        assert!(from_str("[1, 2").is_err());
        assert!(from_str("true false").is_err());
        assert!(from_str("").is_err());
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str(&deep(MAX_DEPTH)).is_ok());
        assert!(from_str(&deep(MAX_DEPTH + 1)).is_err());
        assert!(from_str(&"[".repeat(100_000)).is_err());
        assert!(from_str(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn strings_with_escapes_and_multibyte_runs_parse() {
        let v = from_str(r#""caf\u00e9 \"q\" \\ \n \/ é😀""#).expect("parse");
        assert_eq!(v.as_str(), Some("café \"q\" \\ \n / é😀"));
        assert!(from_str(r#""\u+123""#).is_err(), "sign is not a hex digit");
        assert!(from_str(r#""\u12"#).is_err());
    }

    #[test]
    fn writer_formats_every_scalar_like_the_tree() {
        let mut w = JsonWriter::new();
        w.begin_array()
            .null()
            .bool(false)
            .u32(u32::MAX)
            .u64(u64::MAX)
            .hex(0)
            .hex(u64::MAX)
            .hex128(u128::MAX / 3)
            .hex128(7)
            .number(-3.0)
            .number(2.25)
            .number(f64::NAN)
            .str("\u{1}\u{1f}\t\"\\é")
            .end_array();
        assert_eq!(
            w.into_string(),
            concat!(
                r#"[null,false,4294967295,18446744073709551615,"0","ffffffffffffffff","#,
                r#""55555555555555555555555555555555","7",-3,2.25,null,"\u0001\u001f\t\"\\é"]"#
            )
        );
    }

    #[test]
    fn push_u64_prints_every_digit_count_like_to_string() {
        let mut edges = vec![0, u64::from(u32::MAX), u64::MAX];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            edges.extend([p - 1, p]);
        }
        for v in edges {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn writer_nests_and_splices_raw_values() {
        let mut w = JsonWriter::with_capacity(64);
        w.begin_object();
        w.key("a")
            .begin_array()
            .begin_object()
            .end_object()
            .end_array();
        w.key("b").raw("{\"x\":1}");
        w.key("c").begin_object().key("d").null().end_object();
        w.end_object();
        assert_eq!(w.into_string(), r#"{"a":[{}],"b":{"x":1},"c":{"d":null}}"#);
    }

    #[test]
    fn writer_emits_json_lines() {
        let mut w = JsonWriter::new();
        for i in 0..3u32 {
            w.begin_object().key("i").u32(i).end_object();
            w.end_line();
        }
        assert_eq!(w.into_string(), "{\"i\":0}\n{\"i\":1}\n{\"i\":2}\n");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn writer_rejects_out_of_order_keys_in_debug_builds() {
        let mut w = JsonWriter::new();
        w.begin_object().key("b").null().key("a").null();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn writer_rejects_duplicate_keys_in_debug_builds() {
        let mut w = JsonWriter::new();
        w.begin_object().key("a").null().key("a").null();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not an object")]
    fn writer_rejects_keys_in_arrays_in_debug_builds() {
        let mut w = JsonWriter::new();
        w.begin_array().key("a");
    }

    #[test]
    fn accessors_narrow_types() {
        let v = from_str("{\"n\": 7, \"s\": \"x\", \"a\": [1]}").expect("parse");
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("a").and_then(Value::as_array).map(Vec::len), Some(1));
        assert_eq!(v.get("missing"), None);
    }
}
