//! Dependency-free JSON emission and parsing for the machine-readable
//! benchmark artifact (`BENCH_throughput.json`).
//!
//! The workspace's dependency policy keeps the runtime surface to `rand`,
//! so instead of serde this module provides the two things the perf
//! trajectory needs: escaping/formatting helpers for *writing* JSON, and a
//! small recursive-descent [`parse`] into a [`Value`] tree. The parsed
//! tree is the one input of [`crate::throughput::check`], so the
//! `bench_throughput` binary (before it writes) and the committed-artifact
//! test (after) read the document through the same code.

/// Escape a string for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number (JSON has no NaN/Infinity; they are
/// clamped to `null`-free sentinels so the artifact always parses).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        // Trim to 6 significant decimals: enough for elems/sec, stable
        // enough to diff across PRs without churn in the far digits.
        let s = format!("{x:.6}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        if s.is_empty() || s == "-" {
            "0".into()
        } else {
            s.to_string()
        }
    } else {
        "0".into()
    }
}

/// A parsed JSON value. Objects keep their members in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object as `(key, value)` members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse `s` as one complete JSON value (object, array, string, number,
/// boolean, or null). Returns a position-tagged error otherwise.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { s, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.num(),
            Some(c) => Err(format!("unexpected byte `{}` at {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        let member = |p: &mut Self| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            Ok((key, p.value()?))
        };
        self.list(b'{', b'}', member).map(Value::Object)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.list(b'[', b']', Self::value).map(Value::Array)
    }

    /// `open item (, item)* close`, whitespace allowed between tokens.
    fn list<T>(
        &mut self,
        open: u8,
        close: u8,
        item: impl Fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    let close = close as char;
                    return Err(format!("expected `,` or `{close}` at byte {}", self.pos));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut run = self.pos;
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    out.push_str(&self.s[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    out.push_str(&self.s[run..self.pos]);
                    self.pos += 1;
                    let decoded = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self.s.get(self.pos + 1..self.pos + 5);
                            let code = hex
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Lone surrogates have no `char`; the artifact
                            // only ever escapes control characters.
                            char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    out.push(decoded);
                    self.pos += 1;
                    run = self.pos;
                }
                c if c < 0x20 => return Err(format!("raw control byte in string at {}", self.pos)),
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn num(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !self.digits() {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(format!("bad fraction at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(format!("bad exponent at byte {}", self.pos));
            }
        }
        self.s[start..self.pos]
            .parse()
            .map(Value::Number)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.s[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-12.5e3",
            r#"{"a": [1, 2.5, "x\"y", true, null], "b": {"c": -3e-2}}"#,
            "  { \"k\" : \"v\" }\n",
        ] {
            assert!(parse(doc).is_ok(), "rejected valid doc: {doc}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "01x",
            "{} trailing",
            "{\"a\":1,}",
            "nul",
        ] {
            assert!(parse(doc).is_err(), "accepted invalid doc: {doc}");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" backslash\\ newline\n tab\t bell\u{7} ünïcode";
        let doc = format!("{{\"k\":\"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        assert_eq!(v.get("k").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn number_formatting_is_json_safe() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        for x in [0.0, -2.25, 1234567.875, 1e-6] {
            assert_eq!(parse(&number(x)), Ok(Value::Number(x)));
        }
    }
}
