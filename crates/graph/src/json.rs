//! A small hand-rolled JSON reader/writer.
//!
//! The build environment cannot fetch `serde`/`serde_json`, and the only
//! JSON this system needs is small and self-describing: graph documents,
//! the catalog manifest and query-result documents. This module provides
//! a complete [`Value`] tree with a strict parser and a writer, which the
//! document types convert through by hand.
//!
//! Scope: full JSON syntax (objects, arrays, strings with escapes,
//! numbers, booleans, null). Numbers are kept as `f64` when fractional
//! and `i64` when integral — all our numeric fields are integral and
//! round-trip exactly up to 2⁵³.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Object with stable (sorted) key order, so output is deterministic.
    Object(BTreeMap<String, Value>),
}

/// Parse or conversion failure, with byte offset for parse errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub msg: String,
    pub offset: Option<usize>,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} at byte {o}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    fn new(msg: impl Into<String>) -> JsonError {
        JsonError {
            msg: msg.into(),
            offset: None,
        }
    }

    fn at(msg: impl Into<String>, offset: usize) -> JsonError {
        JsonError {
            msg: msg.into(),
            offset: Some(offset),
        }
    }
}

impl Value {
    // ------------------------- typed accessors -------------------------
    // Each returns a descriptive error naming the expected type, so the
    // document decoders stay one-liners.

    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(JsonError::new(format!("expected string, got {other:?}"))),
        }
    }

    pub fn as_i64(&self) -> Result<i64, JsonError> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(JsonError::new(format!("expected integer, got {other:?}"))),
        }
    }

    pub fn as_u32(&self) -> Result<u32, JsonError> {
        u32::try_from(self.as_i64()?)
            .map_err(|_| JsonError::new(format!("integer out of u32 range: {self:?}")))
    }

    pub fn as_usize(&self) -> Result<usize, JsonError> {
        usize::try_from(self.as_i64()?)
            .map_err(|_| JsonError::new(format!("integer out of usize range: {self:?}")))
    }

    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            other => Err(JsonError::new(format!("expected number, got {other:?}"))),
        }
    }

    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {other:?}"))),
        }
    }

    pub fn as_array(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(v) => Ok(v),
            other => Err(JsonError::new(format!("expected array, got {other:?}"))),
        }
    }

    pub fn as_object(&self) -> Result<&BTreeMap<String, Value>, JsonError> {
        match self {
            Value::Object(m) => Ok(m),
            other => Err(JsonError::new(format!("expected object, got {other:?}"))),
        }
    }

    /// Required object field.
    pub fn field(&self, key: &str) -> Result<&Value, JsonError> {
        self.as_object()?
            .get(key)
            .ok_or_else(|| JsonError::new(format!("missing field {key:?}")))
    }

    // --------------------------- serialization --------------------------

    /// Compact serialization.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Append the compact serialization to `out`.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Pretty serialization with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(v) => write_int(out, *v),
            Value::Float(v) => write_float(out, *v),
            Value::Str(s) => write_string(out, s),
            Value::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.iter(), |out, v, d| {
                    v.write(out, indent, d)
                })
            }
            Value::Object(map) => write_seq(
                out,
                indent,
                depth,
                '{',
                '}',
                map.iter(),
                |out, (k, v), d| {
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                },
            ),
        }
    }
}

// ------------------------------ append helpers ------------------------------
//
// The scalar encodings `Value` serializes through, public so a reply can be
// written straight into its buffer with no tree in between. Each appends to
// the caller's `String` through `fmt::Write` and allocates nothing once the
// buffer has room.

/// Append `v` as a JSON integer.
pub fn write_int(out: &mut String, v: i64) {
    // writing into a `String` cannot fail
    let _ = write!(out, "{v}");
}

/// Append `v` as a JSON number: the shortest text that round-trips
/// (`{:?}`, which always has a `.` or an exponent, so it parses back as a
/// float), or `null` when `v` is not finite — JSON has no Inf/NaN, and
/// serde_json writes `null` too.
pub fn write_float(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Append `s` as a quoted JSON string. `"`, `\\`, `\n`, `\r` and `\t` get
/// their short escapes, other control characters `\u00xx`; everything
/// else, non-ASCII included, is copied as is, a run at a time.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    // every byte that needs an escape is ASCII, so each cut is a char
    // boundary
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            b if b < 0x20 => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        match escape {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
    }
    out.push(close);
}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::at("trailing characters", p.pos));
    }
    Ok(v)
}

/// Nesting bound for arrays/objects, mirroring serde_json's recursion
/// limit: malformed input must yield `JsonError`, not a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(format!("expected {:?}", b as char), self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(JsonError::at(
                format!("unexpected character {:?}", b as char),
                self.pos,
            )),
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }
    }

    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(JsonError::at("nesting too deep", self.pos));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(JsonError::at("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(JsonError::at("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::at("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::at("truncated escape", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // surrogate pair
                                if !self.eat_literal("\\u") {
                                    return Err(JsonError::at("unpaired surrogate", start));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(JsonError::at("invalid low surrogate", start));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(
                                c.ok_or_else(|| JsonError::at("invalid unicode escape", start))?,
                            );
                        }
                        other => {
                            return Err(JsonError::at(
                                format!("bad escape \\{}", other as char),
                                start,
                            ))
                        }
                    }
                }
                Some(_) => {
                    // copy the whole run up to the next quote or escape in
                    // one slice (both delimiters are ASCII, so the bounds
                    // are always valid char boundaries of the source &str)
                    let run_start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[run_start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::at("truncated \\u escape", self.pos))?;
        let s =
            std::str::from_utf8(hex).map_err(|_| JsonError::at("invalid \\u escape", self.pos))?;
        let v = u32::from_str_radix(s, 16)
            .map_err(|_| JsonError::at("invalid \\u escape", self.pos))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if fractional {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| JsonError::at(format!("bad number {text:?}"), start))
        } else {
            match text.parse::<i64>() {
                Ok(v) => Ok(Value::Int(v)),
                // integral but beyond i64: fall back to float
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| JsonError::at(format!("bad number {text:?}"), start)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Object(
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(2.5),
            Value::Float(0.1 + 0.2),
            Value::Str("héllo \"w\"\n\t\\".into()),
            Value::Str("🦀 中".into()),
        ] {
            let s = v.to_string_compact();
            assert_eq!(parse(&s).unwrap(), v, "compact {s}");
            let p = v.to_string_pretty();
            assert_eq!(parse(&p).unwrap(), v, "pretty {p}");
        }
    }

    #[test]
    fn nested_roundtrip() {
        let v = obj(&[
            ("format", Value::Str("x".into())),
            (
                "items",
                Value::Array(vec![
                    Value::Array(vec![Value::Int(1), Value::Int(2)]),
                    obj(&[("k", Value::Null)]),
                    Value::Array(vec![]),
                    obj(&[]),
                ]),
            ),
        ]);
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
        assert_eq!(parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = obj(&[("n", Value::Int(3)), ("s", Value::Str("x".into()))]);
        assert_eq!(v.field("n").unwrap().as_u32().unwrap(), 3);
        assert_eq!(v.field("n").unwrap().as_usize().unwrap(), 3);
        assert_eq!(v.field("s").unwrap().as_str().unwrap(), "x");
        assert!(v.field("missing").is_err());
        assert!(v.field("s").unwrap().as_i64().is_err());
        assert!(Value::Int(-1).as_u32().is_err());
        assert_eq!(Value::Int(7).as_f64().unwrap(), 7.0);
    }

    #[test]
    fn parse_errors_have_positions() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "truf", "\"\\q\"", "1 2", "{'a':1}",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.offset.is_some(), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            parse(r#""\u0041\u00e9\ud83e\udd80""#).unwrap(),
            Value::Str("Aé🦀".into())
        );
        assert!(parse(r#""\ud83e""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" {\n \"a\" : [ 1 , 2 ] }\t").unwrap();
        assert_eq!(v.field("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let bomb = "[".repeat(100_000);
        let err = parse(&bomb).unwrap_err();
        assert!(err.msg.contains("nesting too deep"), "{err}");
        // within the limit still parses
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "x".repeat(500_000);
        let doc = format!("[\"{body}\", \"a\\nb\"]");
        let t = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        assert!(
            t.elapsed() < std::time::Duration::from_secs(2),
            "string scan must be linear, took {:?}",
            t.elapsed()
        );
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_str().unwrap().len(), 500_000);
        assert_eq!(items[1].as_str().unwrap(), "a\nb");
    }

    #[test]
    fn strings_escape_in_runs() {
        let mut out = String::new();
        write_string(&mut out, "a\"b\\c\n\r\t\u{1}\u{1f}\u{7f}é 🦀");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\u{7f}é 🦀\"");
        assert_eq!(
            parse(&out).unwrap().as_str().unwrap(),
            "a\"b\\c\n\r\t\u{1}\u{1f}\u{7f}é 🦀"
        );
        out.clear();
        write_string(&mut out, "");
        assert_eq!(out, "\"\"");
    }

    /// The append helpers are the encodings `Value` writes, appended.
    #[test]
    fn append_helpers_write_what_value_writes() {
        let mut out = String::from("[");
        write_int(&mut out, -42);
        out.push(',');
        write_float(&mut out, 2.0);
        out.push(',');
        write_float(&mut out, f64::INFINITY);
        out.push(',');
        write_string(&mut out, "x");
        out.push(',');
        obj(&[("k", Value::Float(-0.0))]).write_compact(&mut out);
        out.push(']');
        let tree = Value::Array(vec![
            Value::Int(-42),
            Value::Float(2.0),
            Value::Float(f64::INFINITY),
            Value::Str("x".into()),
            obj(&[("k", Value::Float(-0.0))]),
        ]);
        assert_eq!(out, tree.to_string_compact());
        assert_eq!(out, r#"[-42,2.0,null,"x",{"k":-0.0}]"#);
    }

    #[test]
    fn float_formatting_parses_back() {
        // `{:?}` always yields a valid JSON number for finite floats
        let v = Value::Float(1.0);
        assert_eq!(v.to_string_compact(), "1.0");
        assert_eq!(parse("1.0").unwrap(), Value::Float(1.0));
        assert_eq!(Value::Float(f64::NAN).to_string_compact(), "null");
    }
}
