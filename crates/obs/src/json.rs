//! The one JSON writer, and a minimal JSON reader.
//!
//! Every JSON document the workspace emits — daemon wire frames and
//! admin bodies, `daenerys --json`, the metrics scrape, the `BENCH_*`
//! artifacts — is built as a [`Json`] value and written by
//! [`Json::render`]: compact, single-line, object keys sorted. Build
//! objects with [`Json::obj`] and scalars with the `From` conversions
//! (`None` becomes `null`). There is no pretty printer and no option.
//!
//! Two encoders stay specialized, and they share [`escape_into`], the
//! one string escaper:
//!
//! * [`Event::to_jsonl`](crate::Event::to_jsonl) writes the trace line
//!   schema in a fixed key order. Its fields carry `u64` values above
//!   2⁵³ (`pc_hash`), which [`Json::Num`] cannot hold exactly.
//! * The daemon's `trace_tail` page embeds those lines verbatim.
//!
//! The reader ([`parse`]) is deliberately dependency-free (the build
//! environment is offline) and small; [`validate_event_line`] checks a
//! trace line against the event schema.

use crate::event::EventKind;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// A schema violation or parse error in a trace line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset where the problem was detected (0 for whole-line
    /// schema violations).
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (stored as `f64`; integers above 2⁵³ lose precision, so
    /// writers of large integers should emit strings instead).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (keys sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Num`.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The object payload, if this is an `Obj`.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array payload, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs; a repeated key keeps its
    /// last value.
    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders this value as compact JSON (object keys in sorted
    /// order, numbers with integral value printed without a fraction).
    /// `parse` ∘ `render` is the identity on every value; non-finite
    /// numbers (unrepresentable in JSON) render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{}", n);
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
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

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string: `"` and `\`
/// are backslash-escaped, control characters become `\n`, `\r`,
/// `\t` or `\u00XX`, and everything else is copied as is.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// reader recurses once per level, so an unbounded input (a daemon
/// frame of ten thousand `[`s) would overflow the stack of the thread
/// reading it; every document the workspace reads or writes nests a
/// handful of levels.
pub const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an array or object one level deeper, refusing to pass
    /// [`MAX_JSON_DEPTH`].
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(self.err(&format!("nested deeper than {} levels", MAX_JSON_DEPTH)));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{}'", lit)))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number '{}'", text)))
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("non-scalar \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one full UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().expect("nonempty");
                    if (c as u32) < 0x20 {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            if map.insert(key.clone(), val).is_some() {
                return Err(self.err(&format!("duplicate key '{}'", key)));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// Parses one complete JSON value (rejecting trailing garbage).
///
/// # Errors
///
/// Returns a positioned [`JsonError`] for malformed input, including
/// arrays and objects nested deeper than [`MAX_JSON_DEPTH`].
pub fn parse(line: &str) -> Result<Json, JsonError> {
    let mut p = Parser::new(line);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after JSON value"));
    }
    Ok(v)
}

fn schema_err(message: String) -> JsonError {
    JsonError { at: 0, message }
}

/// Validates one JSONL trace line against the event schema: a JSON
/// object with exactly the keys `seq` (non-negative integer), `ts`
/// (non-negative integer), `kind` (one of the
/// [`EventKind::WIRE_NAMES`]), `name` (non-empty string), and `fields`
/// (an object whose values are numbers, booleans, or strings).
///
/// # Errors
///
/// Returns a positioned [`JsonError`] for malformed JSON and an
/// `at: 0` one for schema violations.
pub fn validate_event_line(line: &str) -> Result<(), JsonError> {
    let Json::Obj(map) = parse(line)? else {
        return Err(schema_err("top-level value must be an object".to_string()));
    };
    const KEYS: [&str; 5] = ["fields", "kind", "name", "seq", "ts"];
    let keys: Vec<&str> = map.keys().map(String::as_str).collect();
    if keys != KEYS {
        return Err(schema_err(format!(
            "expected exactly the keys {:?}, got {:?}",
            KEYS, keys
        )));
    }
    for int_key in ["seq", "ts"] {
        match &map[int_key] {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => {}
            other => {
                return Err(schema_err(format!(
                    "'{}' must be a non-negative integer, got {:?}",
                    int_key, other
                )))
            }
        }
    }
    match &map["kind"] {
        Json::Str(k) if EventKind::WIRE_NAMES.contains(&k.as_str()) => {}
        other => {
            return Err(schema_err(format!(
                "'kind' must be one of {:?}, got {:?}",
                EventKind::WIRE_NAMES,
                other
            )))
        }
    }
    match &map["name"] {
        Json::Str(n) if !n.is_empty() => {}
        other => {
            return Err(schema_err(format!(
                "'name' must be a non-empty string, got {:?}",
                other
            )))
        }
    }
    let Json::Obj(fields) = &map["fields"] else {
        return Err(schema_err("'fields' must be an object".to_string()));
    };
    for (k, v) in fields {
        match v {
            Json::Num(_) | Json::Bool(_) | Json::Str(_) => {}
            other => {
                return Err(schema_err(format!(
                    "field '{}' must be a number, boolean, or string, got {:?}",
                    k, other
                )))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Value};

    #[test]
    fn emitted_events_validate() {
        let e = Event {
            seq: 0,
            ts: 7,
            kind: EventKind::Point,
            name: "solver.query".to_string(),
            fields: vec![
                ("fuel".to_string(), Value::UInt(3)),
                ("cache_hit".to_string(), Value::Bool(false)),
                (
                    "site".to_string(),
                    Value::Str("postcondition: \"x\"".to_string()),
                ),
            ],
        };
        validate_event_line(&e.to_jsonl()).unwrap();
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(validate_event_line("{\"seq\":").is_err());
        assert!(validate_event_line("[]").is_err());
        assert!(validate_event_line("{} trailing").is_err());
    }

    #[test]
    fn rejects_schema_violations() {
        // Missing keys.
        assert!(validate_event_line("{}").is_err());
        // Wrong kind.
        assert!(validate_event_line(
            "{\"seq\":0,\"ts\":0,\"kind\":\"nope\",\"name\":\"x\",\"fields\":{}}"
        )
        .is_err());
        // Negative seq.
        assert!(validate_event_line(
            "{\"seq\":-1,\"ts\":0,\"kind\":\"point\",\"name\":\"x\",\"fields\":{}}"
        )
        .is_err());
        // Empty name.
        assert!(validate_event_line(
            "{\"seq\":0,\"ts\":0,\"kind\":\"point\",\"name\":\"\",\"fields\":{}}"
        )
        .is_err());
        // Nested field value.
        assert!(validate_event_line(
            "{\"seq\":0,\"ts\":0,\"kind\":\"point\",\"name\":\"x\",\"fields\":{\"a\":[1]}}"
        )
        .is_err());
        // Extra key.
        assert!(validate_event_line(
            "{\"seq\":0,\"ts\":0,\"kind\":\"point\",\"name\":\"x\",\"fields\":{},\"extra\":1}"
        )
        .is_err());
    }

    #[test]
    fn render_roundtrips() {
        for src in [
            "{\"a\":1,\"b\":[true,null,\"x\\n\"],\"c\":{\"d\":-2.5}}",
            "[0,9007199254740991,\"π \\u0007\"]",
            "\"plain\"",
        ] {
            let v = parse(src).unwrap();
            let rendered = v.render();
            assert_eq!(parse(&rendered).unwrap(), v, "roundtrip of {}", src);
            // Integers render without a fraction.
            assert!(!Json::Num(3.0).render().contains('.'));
        }
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        // Hostile strings: quote, backslash, every C0 control, DEL,
        // U+2028 and a multibyte character, as values and as keys.
        let hostile: String = ['"', '\\', '\u{7f}', '\u{2028}', 'π']
            .into_iter()
            .chain((0u8..0x20).map(char::from))
            .collect();
        let s = Json::Str(hostile.clone());
        assert_eq!(parse(&s.render()).unwrap(), s);
        let o = Json::obj([(hostile.as_str(), s.clone())]);
        assert_eq!(parse(&o.render()).unwrap(), o);
        assert!(!o.render().chars().any(|c| c < ' '), "controls escaped");
    }

    #[test]
    fn accepts_escapes_and_unicode() {
        validate_event_line(
            "{\"seq\":0,\"ts\":0,\"kind\":\"point\",\"name\":\"a\\u0041π\",\"fields\":{\"s\":\"\\n\\t\\\\\"}}",
        )
        .unwrap();
    }

    #[test]
    fn accessors_answer_only_for_their_own_variant() {
        let v = parse(r#"{"s":"x","n":2,"a":[null],"o":{}}"#).unwrap();
        let o = v.as_obj().unwrap();
        assert_eq!(o["s"].as_str(), Some("x"));
        assert_eq!(o["n"].as_num(), Some(2.0));
        assert_eq!(o["a"].as_arr(), Some(&[Json::Null][..]));
        assert!(o["o"].as_obj().unwrap().is_empty());
        assert_eq!(o["s"].as_num(), None);
        assert_eq!(o["n"].as_str(), None);
        assert!(o["a"].as_obj().is_none() && o["o"].as_arr().is_none());
    }

    #[test]
    fn conversions_and_obj_build_the_expected_values() {
        let v = Json::obj([
            ("none", Option::<u64>::None.into()),
            ("some", Some(3u64).into()),
            ("len", 4usize.into()),
            ("ratio", 0.5.into()),
            ("flag", true.into()),
            ("name", "a".into()),
            ("name", String::from("b").into()),
        ]);
        assert_eq!(
            v.render(),
            r#"{"flag":true,"len":4,"name":"b","none":null,"ratio":0.5,"some":3}"#
        );
    }

    #[test]
    fn parse_errors_carry_the_byte_offset() {
        let cases = [
            (r#"{"a":}"#, 5, "unexpected byte '}'"),
            ("[1, tru]", 4, "expected 'true'"),
            ("", 0, "unexpected end of input"),
            ("1 2", 2, "trailing garbage after JSON value"),
            ("-", 1, "bad number '-'"),
        ];
        for (src, at, message) in cases {
            let err = parse(src).unwrap_err();
            assert_eq!((err.at, err.message.as_str()), (at, message), "{:?}", src);
        }
        assert_eq!(
            parse("[1,]").unwrap_err().to_string(),
            "at byte 3: unexpected byte ']'"
        );
    }

    #[test]
    fn nesting_is_capped_at_max_json_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_JSON_DEPTH)).is_ok());
        let err = parse(&nest(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_JSON_DEPTH, "refused at the first over-deep '['");
        assert_eq!(err.message, "nested deeper than 128 levels");
        // Objects count too, and a far deeper input is refused without
        // recursing into it.
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_JSON_DEPTH + 1),
            "}".repeat(MAX_JSON_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        assert!(parse(&nest(100_000)).is_err());
    }
}
