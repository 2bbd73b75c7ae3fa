//! A minimal JSON value model, parser, and writer for the wire protocol.
//!
//! The workspace carries no serialization dependency, and the other
//! hand-rolled emitters only *write* JSON. The server must also *read*
//! hostile bytes off a socket, so this module adds a strict recursive-
//! descent parser: RFC 8259 grammar, a nesting-depth cap (stack safety
//! against `[[[[…`), full string-escape handling including `\uXXXX`
//! surrogate pairs, and no trailing garbage. String escaping on the
//! write side reuses the workspace-shared routine in [`soc_obs::json`].

use std::fmt;

/// Nesting depth cap: a parse deeper than this fails instead of
/// recursing toward stack exhaustion. Protocol frames are depth ≤ 3.
const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON does not distinguish integer kinds).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves an object field's value out (first match), leaving `null`
    /// in its place; `None` on non-objects or a missing key.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(fields) => fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly
    /// (rejects fractions, negatives, and magnitudes at or above 2^53:
    /// 2^53 + 1 rounds *to* 2^53 during parsing, so accepting 2^53
    /// would silently truncate — the bound is exclusive).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => {
                out.push('"');
                soc_obs::json::escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    soc_obs::json::escape_into(out, k);
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes a number: integral values in f64-exact range render without a
/// fraction, everything else through the shortest `{}` float form.
fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Infinity/NaN; null is the least-wrong rendering.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

/// Builder shorthand for object literals.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Shorthand for a string value.
pub fn s(v: impl Into<String>) -> Json {
    Json::Str(v.into())
}

/// Shorthand for a numeric value.
pub fn n(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

/// Shorthand for a u64 value (goes through f64; exact up to 2^53).
pub fn nu(v: u64) -> Json {
    Json::Num(v as f64)
}

/// Where and why a parse failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable cause.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses exactly one JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string().map_err(|mut e| {
                e.message = format!("object key: {}", e.message);
                e
            })?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, escape or
            // control byte in one go. Those stoppers are ASCII, so the run
            // ends on a char boundary of the (valid UTF-8) input.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
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
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.err(format!("bad escape \\{}", other as char)));
                        }
                    }
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) {
            // High surrogate: a low surrogate escape must follow.
            if self.peek() != Some(b'\\') {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 1;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("invalid low surrogate"));
            }
            let c = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
            char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xDC00..0xE000).contains(&unit) {
            Err(self.err("unpaired low surrogate"))
        } else {
            char::from_u32(unit).ok_or_else(|| self.err("invalid \\u escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(self.err("expected digit"));
        }
        // Leading zeros are invalid JSON ("01").
        let int_part = &self.bytes[start..self.pos];
        let unsigned = if int_part[0] == b'-' {
            &int_part[1..]
        } else {
            int_part
        };
        if unsigned.len() > 1 && unsigned[0] == b'0' {
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected digit in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("unparseable number"))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-12",
            "3.5",
            "1e3",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let again = parse(&v.render()).unwrap();
            assert_eq!(v, again, "{text}");
        }
    }

    #[test]
    fn string_escapes_decode() {
        assert_eq!(
            parse(r#""a\"b\\c\/d\n\t\u0041\u00e9""#).unwrap(),
            Json::Str("a\"b\\c/d\n\tAé".to_string())
        );
        // Surrogate pair → astral char.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".to_string())
        );
        // Raw non-ASCII passes through.
        assert_eq!(parse("\"héllo 🚗\"").unwrap(), Json::Str("héllo 🚗".into()));
    }

    #[test]
    fn plain_runs_between_escapes_copy_whole() {
        for (text, want) in [
            (r#""abc\ndef""#, "abc\ndef"),
            (r#""\tabc\"""#, "\tabc\""),
            (r#""\u0041BC\u00e9""#, "ABCé"),
            (r#""a\\\\b""#, "a\\\\b"),
            (r#""""#, ""),
            (r#""\n\n""#, "\n\n"),
            ("\"bit \\ud83d\\ude97s\"", "bit 🚗s"),
        ] {
            assert_eq!(parse(text).unwrap(), Json::Str(want.into()), "{text}");
        }
    }

    #[test]
    fn non_ascii_runs_pass_through() {
        let text = "\"ünïcödé ✓ 車 😀\\n カタログ\"";
        assert_eq!(
            parse(text).unwrap(),
            Json::Str("ünïcödé ✓ 車 😀\n カタログ".into())
        );
        // A long mixed run, as a `load` payload would carry.
        let row = "0110é1\\n";
        let body = row.repeat(1000);
        let parsed = parse(&format!("\"{body}\"")).unwrap();
        assert_eq!(parsed, Json::Str("0110é1\n".repeat(1000)));
    }

    #[test]
    fn raw_control_byte_inside_a_run_is_rejected_at_its_offset() {
        for (text, offset) in [
            ("\"abc\u{1}def\"", 5),
            ("\"é\u{1f}\"", 4),
            ("\"ab\\ncd\te\"", 8),
            ("[\"ok\",\"x\ny\"]", 9),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.message, "raw control character in string", "{text:?}");
            assert_eq!(err.offset, offset, "{text:?}");
        }
        assert_eq!(parse("\"abc").unwrap_err().offset, 4);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "tru",
            "nul",
            "01",
            "1.",
            "1e",
            "-",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\u12g4\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "1 2",
            "{} []",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        // Raw control char inside a string.
        assert!(parse("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn depth_cap_holds() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"type":"solve","m":3,"go":true,"tuples":["1","0"]}"#).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("solve"));
        assert_eq!(v.get("m").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("go").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("tuples").and_then(Json::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
        // Non-integers refuse u64 extraction.
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn render_escapes_strings() {
        let v = obj([("k\ney", s("v\"al\u{1}🚗"))]);
        let text = v.render();
        assert_eq!(text, "{\"k\\ney\":\"v\\\"al\\u0001🚗\"}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn number_rendering() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(-2.0).render(), "-2");
        assert_eq!(Json::Num(2.5).render(), "2.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }
}
