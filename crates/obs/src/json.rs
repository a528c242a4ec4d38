//! A minimal, dependency-free JSON value: a writer with correct string
//! escaping (used by every exporter) and a recursive-descent parser (used
//! by the schema validator and the CI gate that checks exports re-parse).
//!
//! Only the subset of JSON the observability layer emits is needed, but
//! the parser accepts any RFC 8259 document so the validation gates are
//! honest: they run the emitted bytes through an independent reader rather
//! than trusting the writer.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed or to-be-written JSON value. Objects keep insertion order on
/// the write path (via [`JsonObj`]) and sorted order after parsing.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; everything this layer emits fits i64/f64.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (parsed form: sorted by key).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The object's field, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
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

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an integer of type `N`: `None` unless it is whole,
    /// non-negative and fits `N` — the one checked reader config documents
    /// route their integer keys through, so nothing is truncated.
    pub fn as_uint<N: TryFrom<u64>>(&self) -> Option<N> {
        let n = self.as_num()?;
        // `u64::MAX as f64` is 2^64, the first value past the `u64` range.
        if n < 0.0 || n.fract() != 0.0 || n >= u64::MAX as f64 {
            return None;
        }
        N::try_from(n as u64).ok()
    }

    /// Parse one JSON document, requiring it to span the full input
    /// (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Escape `s` into a JSON string literal (including the quotes).
pub fn escape_str(s: &str, out: &mut String) {
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

/// An order-preserving JSON object builder for the write path: fields are
/// emitted in insertion order so journals are byte-stable.
#[derive(Default)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_raw(&mut self, key: &str, raw: String) -> &mut Self {
        self.fields.push((key.to_string(), raw));
        self
    }

    /// Add a string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let mut s = String::new();
        escape_str(v, &mut s);
        self.push_raw(key, s)
    }

    /// Add an unsigned integer field.
    pub fn num(&mut self, key: &str, v: u64) -> &mut Self {
        self.push_raw(key, v.to_string())
    }

    /// Add a signed integer field.
    pub fn inum(&mut self, key: &str, v: i64) -> &mut Self {
        self.push_raw(key, v.to_string())
    }

    /// Add a float field (finite; NaN/inf are emitted as null).
    pub fn float(&mut self, key: &str, v: f64) -> &mut Self {
        if v.is_finite() {
            self.push_raw(key, format!("{v}"))
        } else {
            self.push_raw(key, "null".to_string())
        }
    }

    /// Add a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.push_raw(key, v.to_string())
    }

    /// Add an array of unsigned integers.
    pub fn num_arr(&mut self, key: &str, vs: &[u64]) -> &mut Self {
        let body: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
        self.push_raw(key, format!("[{}]", body.join(",")))
    }

    /// Add a pre-rendered JSON fragment (caller guarantees validity).
    pub fn raw(&mut self, key: &str, fragment: String) -> &mut Self {
        self.push_raw(key, fragment)
    }

    /// Render as `{"k":v,...}`.
    pub fn build(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_str(k, &mut out);
            out.push(':');
            out.push_str(v);
        }
        out.push('}');
        out
    }
}

impl fmt::Display for JsonObj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.build())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogate pairs are not emitted by this layer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so slicing on
                    // char boundaries is safe via chars()).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {s:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let mut o = JsonObj::new();
        o.num("round", 3)
            .str("type", "lock_acquired")
            .bool("ok", true)
            .num_arr("blockers", &[1, 2, 3]);
        let s = o.build();
        let v = Json::parse(&s).unwrap();
        assert_eq!(v.get("round").unwrap().as_num(), Some(3.0));
        assert_eq!(v.get("type").unwrap().as_str(), Some("lock_acquired"));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            v.get("blockers"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.0),
                Json::Num(3.0)
            ]))
        );
    }

    #[test]
    fn escaping_roundtrips() {
        let nasty = "quote\" back\\ newline\n tab\t ctrl\u{1} unicode é";
        let mut o = JsonObj::new();
        o.str("s", nasty);
        let v = Json::parse(&o.build()).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("truth").is_err());
    }

    #[test]
    fn nested_documents_parse() {
        let v = Json::parse(r#"{"a":[{"b":null},{"c":-1.5e2}],"d":{}}"#).unwrap();
        let Json::Arr(items) = v.get("a").unwrap() else {
            panic!("array expected");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("c").unwrap().as_num(), Some(-150.0));
    }
}
