//! JSON encoding/decoding over the offline `serde` subset's [`Value`]
//! data model. Output is deterministic: object fields keep declaration
//! order and floats print via Rust's shortest-round-trip `{:?}`
//! formatting, so equal values always produce byte-identical text.

pub use serde::Error;
pub use serde::Value;

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Serialize to compact JSON (no whitespace).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value_to_string(&value.to_value()))
}

/// Serialize to pretty JSON: two-space indent, `": "` separators —
/// the same layout as crates.io `serde_json::to_string_pretty`.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value_to_string_pretty(&value.to_value()))
}

/// [`to_string`] for a caller that already holds a [`Value`] tree: the
/// tree is written as it stands. (`to_string(&value)` gives the same
/// text, but `Serialize for Value` deep-clones the tree first.)
pub fn value_to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    out
}

/// [`to_string_pretty`] over a borrowed [`Value`] tree; see
/// [`value_to_string`].
pub fn value_to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some("  "), 0);
    out
}

/// Convert any serializable value into the generic [`Value`] model.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Reconstruct a value from the generic [`Value`] model.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    T::from_value(&value)
}

/// Parse JSON text into a deserializable value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    T::from_value(&v)
}

// ------------------------------------------------------------- encoder

fn write_value(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        // Numbers format straight into `out`: writing to a `String`
        // cannot fail.
        Value::U64(n) => write!(out, "{n}").expect("write to String"),
        Value::I64(n) => write!(out, "{n}").expect("write to String"),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_str(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_str(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}

/// Append `x` exactly as the encoder prints a [`Value::F64`]. Public so
/// that a writer streaming JSON without a [`Value`] tree (the Chrome
/// trace) stays byte-identical to [`to_string`].
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` is the shortest representation that round-trips,
        // and always keeps a decimal point (`1.0`, not `1`).
        write!(out, "{x:?}").expect("write to String");
    } else {
        // Mirror serde_json's lossy default for non-finite floats.
        out.push_str("null");
    }
}

/// Append `s` as a quoted, escaped JSON string, exactly as the encoder
/// prints a [`Value::Str`] or an object key; public for the same reason
/// as [`write_f64`].
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Most strings (keys, labels) need no escape and go out whole.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ------------------------------------------------------------- decoder

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_word("null") => Ok(Value::Null),
            Some(b't') if self.eat_word("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::msg(format!(
                "unexpected input {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]`, got {other:?} at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}`, got {other:?} at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::msg("invalid utf-8 in string"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::msg("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our encoder;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(Error::msg(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => return Err(Error::msg("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        let mut float = false;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("bad number"))?;
        if float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::msg(format!("bad number `{text}`")))
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<u64>()
                .map(|n| Value::I64(-(n as i64)))
                .map_err(|_| Error::msg(format!("bad number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| Error::msg(format!("bad number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_layouts() {
        let v = Value::Object(vec![
            ("period".into(), Value::U64(100)),
            ("x".into(), Value::F64(1.0)),
            ("tag".into(), Value::Str("a\"b".into())),
            (
                "list".into(),
                Value::Array(vec![Value::U64(1), Value::U64(2)]),
            ),
        ]);
        let compact = to_string(&ValueWrap(&v)).unwrap();
        assert_eq!(
            compact,
            r#"{"period":100,"x":1.0,"tag":"a\"b","list":[1,2]}"#
        );
        let pretty = to_string_pretty(&ValueWrap(&v)).unwrap();
        assert!(pretty.contains("\"period\": 100"), "{pretty}");
        assert!(pretty.starts_with("{\n  \"period\""), "{pretty}");
    }

    #[test]
    fn parse_round_trip() {
        let text = r#"{"a": [1, -2, 3.5, null, true], "s": "hi\nthere"}"#;
        let v: Value = parse_value(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 5);
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "hi\nthere");
        let re = to_string(&ValueWrap(&v)).unwrap();
        let v2 = parse_value(&re).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn floats_keep_decimal_point() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&0.1f64).unwrap(), "0.1");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    /// The encoder as it was before numbers were formatted in place
    /// (a `String` per number and per control character): the oracle
    /// for [`borrowing_encoder_matches_the_old_one`].
    fn old_write_value(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
        fn old_write_str(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::F64(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            Value::F64(_) => out.push_str("null"),
            Value::Str(s) => old_write_str(out, s),
            Value::Array(items) if items.is_empty() => out.push_str("[]"),
            Value::Object(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    old_write_value(out, item, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, val)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    old_write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    old_write_value(out, val, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    #[test]
    fn borrowing_encoder_matches_the_old_one() {
        let v = Value::Object(vec![
            (
                "quote\"d \\ key\n".into(),
                Value::Str("tab\there \u{1} \u{1f} é".into()),
            ),
            ("max".into(), Value::U64(u64::MAX)),
            ("min".into(), Value::I64(i64::MIN)),
            (
                "floats".into(),
                Value::Array(vec![
                    Value::F64(-0.0),
                    Value::F64(1e300),
                    Value::F64(5e-324),
                    Value::F64(0.1 + 0.2),
                    Value::F64(f64::NAN),
                    Value::F64(f64::NEG_INFINITY),
                ]),
            ),
            (
                "nested".into(),
                Value::Array(vec![
                    Value::Object(vec![]),
                    Value::Array(vec![]),
                    Value::Object(vec![("deep".into(), Value::Array(vec![Value::Null]))]),
                    Value::Bool(false),
                ]),
            ),
        ]);
        for indent in [None, Some("  ")] {
            let mut old = String::new();
            old_write_value(&mut old, &v, indent, 0);
            let (borrowed, cloned) = match indent {
                None => (value_to_string(&v), to_string(&v).unwrap()),
                Some(_) => (value_to_string_pretty(&v), to_string_pretty(&v).unwrap()),
            };
            assert_eq!(borrowed, old);
            assert_eq!(cloned, old);
        }
        assert!(value_to_string(&v)
            .contains(r#""floats":[-0.0,1e300,5e-324,0.30000000000000004,null,null]"#));
    }

    /// Test-only adapter so raw `Value`s can go through the public API.
    struct ValueWrap<'a>(&'a Value);
    impl serde::Serialize for ValueWrap<'_> {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
}
