//! The workspace's one JSON reader: strict RFC 8259 grammar, builds a
//! [`Value`], decodes every escape the exporters in this crate write
//! (`\uXXXX` and surrogate pairs included). No external dependency.
//!
//! [`crate::json_is_valid`] is `parse(..).is_ok()`; the bench gate, the
//! whole-path benchmark's report and the chrome-trace tests read their
//! documents through [`parse`] (re-exported as `afs_bench::gate::json`).

use std::collections::BTreeMap;

/// Containers nested deeper than this are refused rather than recursed
/// into: documents come from files, and the parser's stack is finite.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, key order normalised; a repeated key keeps its last
    /// value.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .map(|n| n as u64)
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// What was expected and the byte offset it was expected at.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.err("trailing content");
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => self.err("expected a value"),
        }
    }

    /// Runs a container parser one level down, with the opening bracket
    /// consumed.
    fn nested(&mut self, body: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.depth += 1;
        self.pos += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if !self.text[self.pos..].starts_with(lit) {
            return self.err("expected a literal");
        }
        self.pos += lit.len();
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        // No leading zeros: `0` stands alone before `.`/`e`.
        if !self.eat(b'0') && self.digits() == 0 {
            return self.err("expected a digit");
        }
        if self.eat(b'.') && self.digits() == 0 {
            return self.err("expected a fraction digit");
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return self.err("expected an exponent digit");
            }
        }
        match self.text[start..self.pos].parse() {
            Ok(n) => Ok(Value::Number(n)),
            Err(_) => self.err("bad number"),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            // Everything up to the next quote, backslash or control byte
            // is copied as is; those are ASCII, so the cut is on a
            // character boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.parse_escape()?);
                }
                Some(_) => return self.err("raw control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// The character one escape stands for, the backslash consumed.
    fn parse_escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
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
                let unit = self.parse_hex4()?;
                let code = match unit {
                    0xD800..=0xDBFF if self.text[self.pos..].starts_with("\\u") => {
                        self.pos += 2;
                        let low = self.parse_hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return self.err("unpaired surrogate");
                        }
                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    }
                    unit => unit,
                };
                return match char::from_u32(code) {
                    Some(c) => Ok(c),
                    None => self.err("unpaired surrogate"),
                };
            }
            _ => return self.err("bad escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let unit = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok());
        match unit {
            Some(unit) => {
                self.pos += 4;
                Ok(unit)
            }
            None => self.err("expected four hex digits"),
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return self.err("expected an object key");
            }
            let key = self.parse_string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return self.err("expected `:`");
            }
            map.insert(key, self.parse_value()?);
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Object(map));
            }
            if !self.eat(b',') {
                return self.err("expected `,` or `}`");
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return self.err("expected `,` or `]`");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_the_value_tree() {
        let doc = parse(r#" {"a":[1,2.5,-3e2,0],"b":"x","c":null,"d":[true,false],"e":{}} "#)
            .expect("parse");
        let obj = doc.as_object().expect("object");
        let a = obj["a"].as_array().expect("array");
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[1].as_u64(), None, "fractions are not integers");
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(a[2].as_u64(), None, "negatives are not u64");
        assert_eq!(obj["b"].as_str(), Some("x"));
        assert_eq!(obj["c"], Value::Null);
        assert_eq!(obj["d"].as_array().expect("d")[0], Value::Bool(true));
        assert_eq!(obj["e"].as_object().map(BTreeMap::len), Some(0));
        assert_eq!(obj["b"].as_f64(), None);
    }

    #[test]
    fn decodes_every_escape() {
        let s = parse(r#""q\" b\\ s\/ \b\f\n\r\t \u001b \u00e9 \ud83e\udd80 é🦀""#).expect("parse");
        assert_eq!(
            s.as_str(),
            Some("q\" b\\ s/ \u{8}\u{c}\n\r\t \u{1b} é 🦀 é🦀")
        );
    }

    #[test]
    fn refuses_what_the_grammar_does_not_allow() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a":}"#,
            "[1] trailing",
            r#"{"a" 1}"#,
            r#"{a:1}"#,
            "1-2+e",
            "01",
            "1.",
            ".5",
            "1e",
            "+1",
            "-",
            "tru",
            "nul",
            "\"raw\nnewline\"",
            r#""\q""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\ud83e""#,
            r#""\ud83eA""#,
            r#""\udd80""#,
            r#""open"#,
            "[1 2]",
            "\u{a0}1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded_not_recursed_into_the_ground() {
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).expect_err("too deep").contains("too deep"));
    }
}
