//! Offline stand-in for `serde_json`.
//!
//! Works over the [`serde`] stub's [`Value`] data model: a recursive-descent
//! JSON parser, compact and pretty printers, and a [`json!`] macro covering
//! literal objects/arrays with expression values. Printing is deterministic:
//! object entries keep their order (struct fields as declared, map entries
//! pre-sorted by the serializer), so equal values produce identical bytes.
//!
//! Like `serde_json`, the parser treats its input as hostile: nesting
//! deeper than 128 is an error (not a stack overflow), a number
//! that overflows to ±∞ is "number out of range", and `\u` escapes decode
//! UTF-16 surrogate pairs while rejecting lone surrogates.

pub use serde::Value;
use serde::{DeError, Deserialize, Serialize};

use std::fmt;

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.to_json_value())
}

/// Reconstructs a typed value from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    T::from_json_value(&value).map_err(Error::from)
}

/// Serializes to a compact JSON string.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(&value.to_json_value(), &mut out);
    Ok(out)
}

/// Serializes to a pretty-printed JSON string (2-space indent).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&value.to_json_value(), 0, &mut out);
    Ok(out)
}

/// Parses a JSON string into a typed value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    T::from_json_value(&value).map_err(Error::from)
}

// ── printer ──────────────────────────────────────────────────────────

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(x: f64, out: &mut String) {
    if x.is_finite() {
        let s = format!("{x}");
        out.push_str(&s);
        // Keep floats recognizably floats so integer/float distinction
        // survives a roundtrip where it matters (e.g. "1.0" not "1").
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no inf/nan; match serde_json's lossy convention.
        out.push_str("null");
    }
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(x) => write_float(*x, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&"  ".repeat(indent + 1));
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&"  ".repeat(indent + 1));
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

// ── parser ───────────────────────────────────────────────────────────

/// Deepest array/object nesting the parser accepts (`serde_json`'s
/// recursion limit).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("recursion limit exceeded"));
                }
                self.depth += 1;
                let nested = if self.peek() == Some(b'{') {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.err(&format!("unexpected byte `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
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
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Advances past a run of plain (non-quote, non-backslash) bytes and
    /// returns it validated as UTF-8. Scanning whole segments — instead
    /// of decoding one character at a time with a fresh `from_utf8` of
    /// the entire remaining input per character — is what keeps string
    /// parsing linear; the old per-char probe made document parsing
    /// quadratic and dominated every ledger fold.
    fn plain_segment(&mut self) -> Result<&'a str, Error> {
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b'"' | b'\\') {
                break;
            }
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| self.err("invalid UTF-8"))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        // Fast path: an escape-free string is a single borrowed segment.
        let head = self.plain_segment()?;
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(head.to_owned());
        }
        let mut s = head.to_owned();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let code = self.unicode_escape()?;
                            s.push(code);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let segment = self.plain_segment()?;
                    s.push_str(segment);
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Four hex digits following the cursor (which sits on the `u` of a
    /// `\u` escape); leaves the cursor on the last digit.
    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(hex.iter().fold(0, |acc, &h| {
            acc * 16 + char::from(h).to_digit(16).unwrap_or(0)
        }))
    }

    /// Decodes a `\u` escape, joining a UTF-16 surrogate pair
    /// (`\ud83d\ude00` is one character) and rejecting lone surrogates.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                if !self.bytes[self.pos + 1..].starts_with(b"\\u") {
                    return Err(self.err("lone surrogate in \\u escape"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.err("lone surrogate in \\u escape"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("lone surrogate in \\u escape")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u code point"))
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Value::Float(x)),
                Ok(_) => Err(self.err("number out of range")),
                Err(_) => Err(self.err("invalid number")),
            }
        } else if let Ok(n) = text.parse::<i64>() {
            Ok(Value::Int(n))
        } else if let Ok(n) = text.parse::<u64>() {
            Ok(Value::UInt(n))
        } else {
            Err(self.err("number out of range"))
        }
    }
}

fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// `json!` helper: lifts any serializable expression into a [`Value`].
#[doc(hidden)]
pub fn __value_of<T: Serialize>(value: &T) -> Value {
    value.to_json_value()
}

/// Builds a [`Value`] from JSON-like syntax. Supports `null`, literals,
/// arbitrary expressions, and nested `{...}`/`[...]` literals.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_array!(@acc [] $($tt)+)) };
    ({}) => { $crate::Value::Object(::std::vec::Vec::new()) };
    ({ $($tt:tt)+ }) => { $crate::Value::Object($crate::json_object!(@acc [] $($tt)+)) };
    ($expr:expr) => { $crate::__value_of(&$expr) };
}

/// Internal muncher for `json!` object bodies.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    (@acc [$($entry:expr,)*]) => { ::std::vec![$($entry,)*] };
    (@acc [$($entry:expr,)*] $key:literal : null $(, $($rest:tt)*)?) => {
        $crate::json_object!(@acc [$($entry,)* ($key.to_owned(), $crate::Value::Null),] $($($rest)*)?)
    };
    (@acc [$($entry:expr,)*] $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_object!(@acc [$($entry,)* ($key.to_owned(), $crate::json!({ $($inner)* })),] $($($rest)*)?)
    };
    (@acc [$($entry:expr,)*] $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_object!(@acc [$($entry,)* ($key.to_owned(), $crate::json!([ $($inner)* ])),] $($($rest)*)?)
    };
    (@acc [$($entry:expr,)*] $key:literal : $value:expr , $($rest:tt)*) => {
        $crate::json_object!(@acc [$($entry,)* ($key.to_owned(), $crate::__value_of(&$value)),] $($rest)*)
    };
    (@acc [$($entry:expr,)*] $key:literal : $value:expr) => {
        ::std::vec![$($entry,)* ($key.to_owned(), $crate::__value_of(&$value))]
    };
}

/// Internal muncher for `json!` array bodies.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    (@acc [$($elem:expr,)*]) => { ::std::vec![$($elem,)*] };
    (@acc [$($elem:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::json_array!(@acc [$($elem,)* $crate::Value::Null,] $($($rest)*)?)
    };
    (@acc [$($elem:expr,)*] { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_array!(@acc [$($elem,)* $crate::json!({ $($inner)* }),] $($($rest)*)?)
    };
    (@acc [$($elem:expr,)*] [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_array!(@acc [$($elem,)* $crate::json!([ $($inner)* ]),] $($($rest)*)?)
    };
    (@acc [$($elem:expr,)*] $value:expr , $($rest:tt)*) => {
        $crate::json_array!(@acc [$($elem,)* $crate::__value_of(&$value),] $($rest)*)
    };
    (@acc [$($elem:expr,)*] $value:expr) => {
        ::std::vec![$($elem,)* $crate::__value_of(&$value)]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let v = json!({
            "name": "svm",
            "count": 3,
            "ratio": 0.5,
            "nested": {"a": [1, 2, 3], "b": null},
        });
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v: Value =
            from_str(r#"{"s": "a\"b\\c\n", "n": -42, "big": 18446744073709551615, "f": 1.5e3}"#)
                .unwrap();
        assert_eq!(v["s"], Value::Str("a\"b\\c\n".to_owned()));
        assert_eq!(v["n"], Value::Int(-42));
        assert_eq!(v["big"], Value::UInt(u64::MAX));
        assert_eq!(v["f"], Value::Float(1500.0));
    }

    #[test]
    fn floats_stay_floats() {
        let s = to_string(&1.0f64).unwrap();
        assert_eq!(s, "1.0");
        let back: f64 = from_str(&s).unwrap();
        assert_eq!(back, 1.0);
    }

    #[test]
    fn pretty_output_reparses() {
        let v = json!({"a": [1, {"b": true}], "empty": []});
        let s = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
        // Far past the cap is still an error, not a stack overflow.
        assert!(from_str::<Value>(&"[{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn unicode_escapes_join_surrogate_pairs() {
        let v: String = from_str(r#""\ud83d\ude00 \u00e9\u0041""#).unwrap();
        assert_eq!(v, "\u{1F600} \u{e9}A");
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
        ] {
            let err = from_str::<String>(lone).unwrap_err();
            assert!(err.to_string().contains("lone surrogate"), "{lone}: {err}");
        }
        assert!(
            from_str::<String>(r#""\u+041""#).is_err(),
            "hex digits only"
        );
    }

    #[test]
    fn overflowing_numbers_are_out_of_range() {
        for text in ["1e999", "-1e999", "[0, 1.7976931348623159e308]"] {
            let err = from_str::<Value>(text).unwrap_err();
            assert!(
                err.to_string().contains("number out of range"),
                "{text}: {err}"
            );
        }
        let v: f64 = from_str("1.7976931348623157e308").unwrap();
        assert_eq!(v, f64::MAX);
    }

    #[test]
    fn json_macro_exprs() {
        let x = 2.0f64;
        let v = json!({"r": x.max(1e-9), "arr": [x, 1]});
        assert_eq!(v["r"], Value::Float(2.0));
        assert_eq!(v["arr"][1], Value::Int(1));
        assert_eq!(json!(7), Value::Int(7));
    }
}
