//! Minimal JSON reading and writing for certificate artifacts.
//!
//! The build environment has no crates.io access, so no serde; this module
//! is a small recursive-descent parser plus a writer whose `f64` formatting
//! uses Rust's shortest round-trip-exact representation — an artifact
//! survives a write/read cycle bit for bit. It is the workspace's one JSON
//! parser: certificate artifacts, grid artifacts and their resume scan, the
//! query service's JSONL protocol and the `sm-bench` reports all read
//! through [`parse_json`], so its nesting limit ([`MAX_JSON_DEPTH`]) guards
//! every one of them against stack exhaustion on hostile input.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`. The writer also emits `null` for non-finite numbers (JSON has
    /// no NaN/∞); the artifact decoder maps it back to NaN so a corrupt bias
    /// entry round-trips into something the shape obligation rejects instead
    /// of failing the parse.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order (no hashing — deterministic).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number; `null` decodes as NaN (see [`JsonValue::Null`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            JsonValue::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one and is exact.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x < 9.0e15 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }
}

/// Writes a value as compact JSON. Finite numbers use the `{:?}` shortest
/// round-trip representation; non-finite numbers become `null`.
pub fn write_json(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x:?}");
            } else {
                out.push_str("null");
            }
        }
        JsonValue::String(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        JsonValue::Array(items) => {
            out.push('[');
            for (index, item) in items.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(entries) => {
            out.push('{');
            for (index, (key, item)) in entries.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                write_json(&JsonValue::String(key.clone()), out);
                out.push(':');
                write_json(item, out);
            }
            out.push('}');
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser recurses
/// once per level, so without a limit one line of a few hundred thousand
/// `[` exhausts the thread's stack and aborts the process; every document
/// this workspace writes nests fewer than ten levels deep.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, or of
/// nesting deeper than [`MAX_JSON_DEPTH`].
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing characters at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(text.as_bytes()))
        {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "malformed \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "malformed \\u escape".to_string())?;
                            // Artifact strings are ASCII; surrogate pairs are
                            // not needed and decode to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "invalid escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences are
                    // copied verbatim).
                    let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    match s.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return Err("unterminated string".to_string()),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or(&[]))
            .map_err(|_| "malformed number".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("malformed number {text:?} at byte {start}"))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect_byte(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: &JsonValue) -> JsonValue {
        let mut out = String::new();
        write_json(value, &mut out);
        parse_json(&out).unwrap()
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for &x in &[
            0.0,
            -0.0,
            1.0,
            0.1,
            1e-3,
            0.3376584,
            f64::MIN_POSITIVE,
            1e300,
        ] {
            let back = roundtrip(&JsonValue::Number(x));
            match back {
                JsonValue::Number(y) => assert_eq!(x.to_bits(), y.to_bits(), "{x}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_numbers_become_null_and_parse_back_as_nan() {
        let back = roundtrip(&JsonValue::Number(f64::NAN));
        assert_eq!(back, JsonValue::Null);
        assert!(back.as_f64().is_some_and(f64::is_nan));
    }

    #[test]
    fn nested_structures_round_trip() {
        let value = JsonValue::Object(vec![
            (
                "name".to_string(),
                JsonValue::String("a\"b\\c\n".to_string()),
            ),
            (
                "xs".to_string(),
                JsonValue::Array(vec![
                    JsonValue::Number(1.5),
                    JsonValue::Bool(true),
                    JsonValue::Null,
                ]),
            ),
        ]);
        assert_eq!(roundtrip(&value), value);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let deep_objects = "{\"a\":".repeat(100_000);
        assert!(parse_json(&deep_objects).is_err());
        // The limit itself is accepted, one level more is not.
        let at_limit = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(parse_json(&at_limit).is_ok());
        let over = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH + 1),
            "]".repeat(MAX_JSON_DEPTH + 1)
        );
        assert!(parse_json(&over).is_err());
    }
}
