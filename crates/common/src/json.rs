//! Minimal dependency-free JSON document model.
//!
//! The workspace serializes bench records, per-phase traces, and join
//! statistics to JSON and parses them back (e.g. `plot` re-reads bench
//! output). This module provides the small value model both directions
//! share: [`Json`] with a compact writer, a pretty writer, and a strict
//! recursive-descent parser. Numbers are stored as `f64`, which is exact
//! for every counter below 2^53 — far beyond any tuple count or cycle
//! total the simulator produces.
//!
//! Bulk binary data is a [`Json::Bytes`] value. It has no JSON text of its
//! own: [`Json::write_split`] writes a section reference
//! `{"$bytes":[offset,length]}` in its place and hands the bytes back as
//! the sections of a binary tail, and [`Json::parse_split`] turns each
//! reference back into the bytes it names. The service's wire frames are
//! built that way (`head NUL tail`).

use std::fmt;

/// A JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
    /// Binary data, written as a section reference into a binary tail
    /// (see [`Json::write_split`]).
    Bytes(Vec<u8>),
}

/// The one member of a section-reference object.
const BYTES_MEMBER: &str = "$bytes";

/// Error produced by [`Json::parse`]: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from anything convertible to `f64` losslessly enough
    /// for counters (u64 counts below 2^53 round-trip exactly).
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Builds a number from a `u64` counter.
    pub fn from_u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Looks up a member of an object; `None` for non-objects or misses.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Pretty serialization with two-space indentation.
    /// (Compact serialization is `Display`: `json.to_string()`.)
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Appends the compact serialization (what `Display` prints) to `out`.
    /// A [`Json::Bytes`] value prints as its section reference; only
    /// [`Json::write_split`] also keeps the bytes.
    pub fn write_compact(&self, out: &mut String) {
        self.write_split(out, &mut Vec::new());
    }

    /// Appends the compact serialization to `out`, writing each
    /// [`Json::Bytes`] value as the reference `{"$bytes":[offset,length]}`
    /// and pushing its bytes onto `sections`. Offsets count from the start
    /// of the first section, in document order, so the concatenated
    /// sections form the tail [`Json::parse_split`] reads the references
    /// against. No byte is copied here.
    pub fn write_split<'a>(&'a self, out: &mut String, sections: &mut Vec<&'a [u8]>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_split(out, sections);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write_split(out, sections);
                }
                out.push('}');
            }
            Json::Bytes(bytes) => {
                let offset: usize = sections.iter().map(|s| s.len()).sum();
                out.push_str(&format!(
                    "{{\"{BYTES_MEMBER}\":[{offset},{}]}}",
                    bytes.len()
                ));
                sections.push(bytes);
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_string(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    /// Parses a complete JSON document; trailing non-whitespace is an error.
    ///
    /// Containers may nest at most [`MAX_PARSE_DEPTH`] levels — the parser
    /// is recursive-descent, so unbounded nesting in hostile input (e.g. a
    /// megabyte of `[`) would otherwise overflow the thread stack, which
    /// aborts the process instead of unwinding.
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        Parser::new(input, None).document()
    }

    /// Parses a document written by [`Json::write_split`]: every object
    /// that is exactly a section reference `{"$bytes":[offset,length]}`
    /// becomes the [`Json::Bytes`] value `tail[offset..offset + length]`.
    /// As [`Json::write_split`] lays them out, the references must cover
    /// the tail in document order, each starting where the one before it
    /// ended and the last ending at the tail's end, so no tail byte is
    /// copied twice or left unread. A reference that is malformed or
    /// breaks that order is a parse error.
    pub fn parse_split(head: &str, tail: &[u8]) -> Result<Json, JsonParseError> {
        Parser::new(head, Some(tail)).document()
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; mirror serde_json's lossy `null` behaviour.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    // Copy each run of bytes that need no escaping in one step. Every
    // escaped character is ASCII, so a run boundary is always a char
    // boundary; a long plain string is a single run.
    while let Some(at) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => out.push_str(&format!("\\u{c:04x}")),
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Maximum container nesting depth [`Json::parse`] accepts.
pub const MAX_PARSE_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// The binary tail section references resolve against; `None` parses
    /// plain JSON, where a reference-shaped object stays an object.
    tail: Option<&'a [u8]>,
    /// Where the next section reference must start: the end of the last.
    cursor: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, tail: Option<&'a [u8]>) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            tail,
            cursor: 0,
        }
    }

    fn document(mut self) -> Result<Json, JsonParseError> {
        self.skip_ws();
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        if let Some(tail) = self.tail.filter(|tail| tail.len() != self.cursor) {
            return Err(self.err(&format!(
                "section references cover {} of the {}-byte tail",
                self.cursor,
                tail.len()
            )));
        }
        Ok(value)
    }

    /// The bytes a section-reference object names, or the object itself
    /// when it is not a reference (or there is no tail). A reference must
    /// start at the cursor, which then moves past it.
    fn resolve(&mut self, pairs: Vec<(String, Json)>) -> Result<Json, JsonParseError> {
        let Some(tail) = self.tail else {
            return Ok(Json::Obj(pairs));
        };
        if pairs.len() != 1 || pairs[0].0 != BYTES_MEMBER {
            return Ok(Json::Obj(pairs));
        }
        let range = match pairs[0].1.as_array() {
            Some([offset, len]) => offset.as_u64().zip(len.as_u64()),
            _ => None,
        };
        let Some((offset, len)) = range else {
            return Err(self.err("a section reference must be [offset, length]"));
        };
        if offset != self.cursor as u64 {
            return Err(self.err(&format!(
                "section reference [{offset}, {len}] does not start where the last \
                 ended, at tail byte {}",
                self.cursor
            )));
        }
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| self.cursor.checked_add(len))
            .filter(|&end| end <= tail.len())
            .ok_or_else(|| {
                self.err(&format!(
                    "section reference [{offset}, {len}] lies beyond the {}-byte tail",
                    tail.len()
                ))
            })?;
        let bytes = tail[self.cursor..end].to_vec();
        self.cursor = end;
        Ok(Json::Bytes(bytes))
    }

    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn enter(&mut self) -> Result<(), JsonParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err(&format!(
                "containers nested deeper than {MAX_PARSE_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.enter()?;
        let result = self.object_inner();
        self.depth -= 1;
        result
    }

    fn object_inner(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return self.resolve(pairs);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return self.resolve(pairs);
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.enter()?;
        let result = self.array_inner();
        self.depth -= 1;
        result
    }

    fn array_inner(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
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

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the longest run of unescaped bytes in one step.
                    // Splitting on the raw `"`/`\` bytes is UTF-8-safe
                    // (ASCII bytes never occur inside a multi-byte
                    // sequence), and validating only the run keeps parsing
                    // linear — validating the whole tail per character made
                    // long strings quadratic.
                    let rest = &self.bytes[self.pos..];
                    let run_len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..run_len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += run_len;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        // self.pos is at 'u'.
        self.pos += 1;
        let hi = self.hex4()?;
        let cp = if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: require a low surrogate escape next.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            } else {
                return Err(self.err("unpaired high surrogate"));
            }
        } else {
            hi
        };
        char::from_u32(cp).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected four hex digits")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            // `str::parse` maps overflowing literals like `1e999` to ±inf;
            // JSON has no non-finite numbers, and letting one in would make
            // the value unserializable (the writer emits `null` for it).
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(self.err("number out of range for a finite f64")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A multi-megabyte string member must parse in linear time. The old
    /// per-character loop re-validated the whole remaining input for every
    /// character, so an 8 MiB string took minutes; fixed, it is
    /// milliseconds, and the generous bound below only catches a
    /// reintroduced quadratic scan.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let pad = "x".repeat(8 * 1024 * 1024);
        let body = format!("{{\"pad\":\"{pad}\",\"esc\":\"a\\nb\"}}");
        let start = std::time::Instant::now();
        let doc = Json::parse(&body).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(20),
            "string parsing is superlinear again: {:?}",
            start.elapsed()
        );
        assert_eq!(
            doc.get("pad").and_then(Json::as_str).map(str::len),
            Some(pad.len())
        );
        assert_eq!(doc.get("esc").and_then(Json::as_str), Some("a\nb"));
    }

    #[test]
    fn roundtrip_compact() {
        let doc = Json::obj(vec![
            ("name", Json::str("gsh")),
            ("count", Json::from_u64(42)),
            ("zipf", Json::Num(0.75)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "phases",
                Json::Arr(vec![Json::str("partition"), Json::str("probe")]),
            ),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("count").and_then(Json::as_u64), Some(42));
        assert_eq!(back.get("zipf").and_then(Json::as_f64), Some(0.75));
        assert_eq!(back.get("name").and_then(Json::as_str), Some("gsh"));
    }

    #[test]
    fn roundtrip_pretty() {
        let doc = Json::obj(vec![(
            "measurements",
            Json::Arr(vec![Json::obj(vec![
                ("series", Json::str("CSH")),
                ("seconds", Json::Num(0.001)),
            ])]),
        )]);
        let pretty = doc.to_string_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let doc = Json::Str("a\"b\\c\nd\te\u{1}π".to_string());
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn escapes_split_runs_at_the_right_bytes() {
        let doc = Json::str("ab\"c\u{1}dπ\\");
        assert_eq!(doc.to_string(), r#""ab\"c\u0001dπ\\""#);
        assert_eq!(Json::str("plain run").to_string(), "\"plain run\"");
        assert_eq!(Json::str("").to_string(), "\"\"");
    }

    #[test]
    fn unicode_escape_and_surrogates() {
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::Str("é".to_string()));
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".to_string()));
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(Json::parse("-12").unwrap().as_f64(), Some(-12.0));
        assert_eq!(Json::parse("3.5e2").unwrap().as_f64(), Some(350.0));
        assert_eq!(Json::parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null_and_never_parse_back() {
        // RFC 8259 has no NaN/Infinity: the writer degrades them to null…
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(bad).to_string(), "null");
            assert_eq!(Json::Num(bad).to_string_pretty(), "null");
        }
        let doc = Json::obj(vec![("v", Json::Num(f64::NAN))]);
        assert_eq!(
            Json::parse(&doc.to_string()).unwrap().get("v"),
            Some(&Json::Null)
        );
        // …the parser rejects the bare tokens…
        for token in ["NaN", "nan", "Infinity", "-Infinity", "inf"] {
            assert!(Json::parse(token).is_err(), "accepted {token:?}");
        }
        // …and overflow-to-infinity literals cannot smuggle one in.
        for literal in ["1e999", "-1e999", "1e309", "123456789e301"] {
            assert!(Json::parse(literal).is_err(), "accepted {literal:?}");
        }
        // Large-but-finite literals still parse.
        assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
    }

    #[test]
    fn bytes_travel_as_tail_sections() {
        let doc = Json::obj(vec![
            ("a", Json::Bytes(vec![1, 2, 3])),
            ("n", Json::from_u64(7)),
            (
                "b",
                Json::Arr(vec![Json::Bytes(Vec::new()), Json::Bytes(vec![0; 5])]),
            ),
        ]);
        let mut head = String::new();
        let mut sections = Vec::new();
        doc.write_split(&mut head, &mut sections);
        assert_eq!(
            head,
            r#"{"a":{"$bytes":[0,3]},"n":7,"b":[{"$bytes":[3,0]},{"$bytes":[3,5]}]}"#
        );
        assert_eq!(doc.to_string(), head, "Display prints the references");
        let tail = sections.concat();
        assert_eq!(tail, [1, 2, 3, 0, 0, 0, 0, 0]);
        assert_eq!(Json::parse_split(&head, &tail).unwrap(), doc);
        // Without a tail a reference is a plain object, and an object with
        // other members is never a reference.
        let plain = Json::parse(&head).unwrap();
        assert!(plain.get("a").unwrap().get("$bytes").is_some());
        let other = r#"{"$bytes":[0,1],"x":1}"#;
        assert!(Json::parse_split(other, &[]).unwrap().get("x").is_some());
    }

    #[test]
    fn bad_section_references_are_errors() {
        let tail = [9u8; 4];
        for (head, needle) in [
            (r#"{"$bytes":[0,5]}"#, "beyond the 4-byte tail"),
            (r#"{"$bytes":[0,18446744073709551615]}"#, "beyond"),
            (r#"{"$bytes":[18446744073709551615,2]}"#, "does not start"),
            (r#"{"$bytes":[0]}"#, "[offset, length]"),
            (r#"{"$bytes":"0,1"}"#, "[offset, length]"),
            (r#"{"$bytes":[0,-1]}"#, "[offset, length]"),
            // Out of order: the first section must start the tail.
            (r#"[{"$bytes":[2,2]},{"$bytes":[0,2]}]"#, "does not start"),
            // Overlapping, and one section named twice.
            (r#"[{"$bytes":[0,3]},{"$bytes":[2,2]}]"#, "does not start"),
            (r#"[{"$bytes":[0,4]},{"$bytes":[0,4]}]"#, "does not start"),
            // A gap between sections, and tail bytes no reference names.
            (r#"[{"$bytes":[0,1]},{"$bytes":[2,2]}]"#, "does not start"),
            (r#"{"$bytes":[0,3]}"#, "cover 3 of the 4-byte tail"),
            (r#"{"op":"ping"}"#, "cover 0 of the 4-byte tail"),
        ] {
            let err = Json::parse_split(head, &tail).unwrap_err();
            assert!(err.message.contains(needle), "{head}: {err}");
        }
        assert_eq!(
            Json::parse_split(r#"[{"$bytes":[0,1]},{"$bytes":[1,3]}]"#, &tail).unwrap(),
            Json::Arr(vec![Json::Bytes(vec![9]), Json::Bytes(vec![9; 3])])
        );
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Regression: the recursive-descent parser used to recurse once per
        // `[`, so ~100k of them overflowed the thread stack (an abort, not
        // an unwind). Depth just inside the cap parses; past it is a typed
        // error.
        let deep_ok = "[".repeat(MAX_PARSE_DEPTH) + &"]".repeat(MAX_PARSE_DEPTH);
        assert!(Json::parse(&deep_ok).is_ok());
        let too_deep = "[".repeat(MAX_PARSE_DEPTH + 1) + &"]".repeat(MAX_PARSE_DEPTH + 1);
        let err = Json::parse(&too_deep).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        // Hostile depth far beyond the cap fails fast instead of aborting.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        // Mixed-container nesting counts both kinds of frame.
        let mixed = r#"{"a": [{"b": [{"c": 1}]}]}"#;
        assert!(Json::parse(mixed).is_ok());
        // Depth resets between siblings: wide documents are unaffected.
        let wide = format!("[{}]", vec!["[1]"; 10_000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn escape_sequences_roundtrip_through_both_writers() {
        let tricky = Json::obj(vec![
            ("quote\"backslash\\", Json::str("\u{0}\u{1f}\t\r\n")),
            ("unicode", Json::str("π😀é\u{7f}")),
            ("slash", Json::str("a/b")),
        ]);
        assert_eq!(Json::parse(&tricky.to_string()).unwrap(), tricky);
        assert_eq!(Json::parse(&tricky.to_string_pretty()).unwrap(), tricky);
        // Escaped-solidus and surrogate-pair escapes parse to the same
        // strings as their literal forms.
        assert_eq!(
            Json::parse(r#""\/😀""#).unwrap(),
            Json::Str("/😀".to_string())
        );
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".to_string())
        );
    }

    #[test]
    fn object_member_order_is_preserved() {
        let parsed = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let pairs = parsed.as_object().unwrap();
        assert_eq!(pairs[0].0, "z");
        assert_eq!(pairs[1].0, "a");
    }
}
