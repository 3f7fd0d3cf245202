//! Minimal self-contained JSON tree, parser and printer.
//!
//! The workspace builds without network access, so serde/serde_json are not
//! available. Reports only need a small, deterministic JSON surface: objects,
//! arrays, strings, unsigned integers and floats. Output is stable across
//! runs for identical inputs (integer counters print exactly; floats use
//! Rust's shortest round-trippable formatting), which the determinism
//! regression tests rely on.

use std::fmt;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer literal (kept exact; no f64 round-trip).
    UInt(u64),
    /// Any other number (negative or fractional).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object; insertion order is preserved verbatim.
    Obj(Vec<(String, Value)>),
}

/// Error from [`Value::parse`] or the typed accessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong, with enough context to locate the problem.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        message: message.into(),
    })
}

impl Value {
    /// Parse one JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Obj(fields) => match fields.iter().find(|(k, _)| k == key) {
                Some((_, v)) => Ok(v),
                None => err(format!("missing field `{key}`")),
            },
            _ => err(format!("`{key}` lookup on non-object")),
        }
    }

    /// Unsigned-integer view (accepts exact `UInt` only).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Value::UInt(n) => Ok(*n),
            _ => err(format!("expected unsigned integer, got {self:?}")),
        }
    }

    /// Float view (accepts integers too).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Value::UInt(n) => Ok(*n as f64),
            Value::Num(x) => Ok(*x),
            _ => err(format!("expected number, got {self:?}")),
        }
    }

    /// String view.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => err(format!("expected string, got {self:?}")),
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => err(format!("expected array, got {self:?}")),
        }
    }

    /// Render as pretty JSON (two-space indent), deterministically.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out
    }

    /// Render compactly on one line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Num(x) => write_f64(out, *x),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        newline_indent(out, indent + 1);
                    }
                    item.write(out, indent + 1, pretty);
                }
                if pretty {
                    newline_indent(out, indent);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        newline_indent(out, indent + 1);
                    }
                    write_string(out, key);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    value.write(out, indent + 1, pretty);
                }
                if pretty {
                    newline_indent(out, indent);
                }
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Inf; reports never produce them, but a lossy
        // placeholder beats panicking inside Display.
        out.push_str("null");
        return;
    }
    let s = format!("{x}");
    out.push_str(&s);
    // Keep floats lexically floats so the value round-trips as Num.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => err("unexpected end of input"),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return err("unterminated escape");
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
                            if self.pos + 4 > self.bytes.len() {
                                return err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| JsonError {
                                    message: "non-utf8 \\u escape".into(),
                                })?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                                message: format!("bad \\u escape `{hex}`"),
                            })?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this
                            // printer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting at `b`.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    if end > self.bytes.len() {
                        return err("truncated utf-8 sequence");
                    }
                    let s =
                        std::str::from_utf8(&self.bytes[start..end]).map_err(|_| JsonError {
                            message: format!("invalid utf-8 at byte {start}"),
                        })?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !fractional {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Value::Num(x)),
            Err(_) => err(format!("bad number `{text}` at byte {start}")),
        }
    }
}

fn utf8_len(first: u8) -> usize {
    if first < 0x80 {
        1
    } else if first < 0xe0 {
        2
    } else if first < 0xf0 {
        3
    } else {
        4
    }
}

/// Build an object value from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "42", "\"hi\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.compact(), text);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.5, -1.25, 1e-9, 123456.789, 40.0, f64::MAX] {
            let text = Value::Num(x).compact();
            match Value::parse(&text).unwrap() {
                Value::Num(y) => assert_eq!(x, y, "{text}"),
                other => panic!("{text} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn large_u64_is_exact() {
        let n = u64::MAX - 7;
        let text = Value::UInt(n).compact();
        assert_eq!(Value::parse(&text).unwrap().as_u64().unwrap(), n);
    }

    #[test]
    fn nested_structure_round_trips() {
        let pair = |a, b| Value::Arr(vec![a, b]);
        let v = obj(vec![
            ("label", Value::Str("a \"quoted\"\nlabel".into())),
            (
                "counts",
                Value::Arr(vec![pair(Value::UInt(1), Value::UInt(2))]),
            ),
            (
                "timeline",
                Value::Arr(vec![pair(Value::Num(0.001), Value::Num(40.0))]),
            ),
            ("empty_arr", Value::Arr(vec![])),
            ("empty_obj", Value::Obj(vec![])),
        ]);
        let pretty = v.pretty();
        let back = Value::parse(&pretty).unwrap();
        assert_eq!(back, v);
        assert_eq!(Value::parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn errors_are_reported() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        let v = Value::parse("{\"a\": 1}").unwrap();
        assert!(v.get("b").is_err());
        assert!(v.get("a").unwrap().as_str().is_err());
    }

    #[test]
    fn unicode_strings_survive() {
        let v = Value::Str("π ≈ 3.14159 — ok".into());
        assert_eq!(Value::parse(&v.compact()).unwrap(), v);
    }
}
