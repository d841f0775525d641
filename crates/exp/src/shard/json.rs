//! Minimal hand-rolled JSON reader for shard partial result files (the
//! workspace deliberately carries no serde).
//!
//! Numbers are kept as **raw source slices** and converted on access:
//! routing a `u64` seed through `f64` would corrupt values above 2^53, and
//! `f64`s written with Rust's shortest-round-trip `Display` parse back to
//! the identical bits only when the text is handed to `str::parse::<f64>`
//! untouched.

use std::collections::BTreeMap;
use std::fmt;

/// How deep arrays and objects may nest. Every document this crate writes
/// nests far less (an `xbar run --json` artifact at most 6 levels, an
/// `xbar-svc/1` line at most 3), so the bound only turns away input that
/// would otherwise recurse the parser off the end of its thread's stack.
pub(crate) const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw text.
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are unique; insertion order is not preserved
    /// (sorted), which is fine for a data document.
    Obj(BTreeMap<String, Json>),
}

/// Parse error: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem,
    /// including arrays or objects nested deeper than `MAX_DEPTH` (128).
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err("trailing garbage after document", pos));
        }
        Ok(value)
    }

    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as `&str`, when it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is an unsigned integer number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, when it is an unsigned integer number.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, when it is a number. Bit-exact for numbers
    /// written with Rust's `Display`/`Debug` shortest representation.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// An insertion-ordered JSON document under construction — the writing
/// counterpart of [`Json`]. Numbers are stored as **raw text** (the same
/// discipline the parser keeps): integers in decimal, floats in Rust's
/// shortest-round-trip representation, so a rendered document re-parses to
/// bit-identical values on any host. Object fields render in insertion
/// order, which keeps rendered artifacts byte-stable and human-readable
/// (`schema` first, payload last).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number as raw text (use [`JsonValue::u64`] / [`JsonValue::f64`]).
    Num(String),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered fields.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// A `u64` number (decimal raw text; lossless above 2^53).
    #[must_use]
    pub fn u64(value: u64) -> Self {
        JsonValue::Num(value.to_string())
    }

    /// A `usize` number.
    #[must_use]
    pub fn usize(value: usize) -> Self {
        JsonValue::Num(value.to_string())
    }

    /// An `f64` number in shortest-round-trip form.
    ///
    /// # Panics
    ///
    /// Panics on NaN/Infinity — JSON has no literal for them, and every
    /// value that reaches an artifact must stay finite.
    #[must_use]
    pub fn f64(value: f64) -> Self {
        assert!(value.is_finite(), "artifact numbers must stay NaN/Inf-free");
        JsonValue::Num(format!("{value:?}"))
    }

    /// A string value.
    #[must_use]
    pub fn str(value: impl Into<String>) -> Self {
        JsonValue::Str(value.into())
    }

    /// An object from `(key, value)` pairs, preserving their order.
    ///
    /// # Panics
    ///
    /// Panics on duplicate keys — a duplicate silently shadowing a field
    /// is exactly the kind of schema bug the canonical artifact must not
    /// carry (the parser rejects duplicates too).
    #[must_use]
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, JsonValue)>) -> Self {
        let fields: Vec<(String, JsonValue)> =
            fields.into_iter().map(|(k, v)| (k.into(), v)).collect();
        for (i, (key, _)) in fields.iter().enumerate() {
            assert!(
                !fields[..i].iter().any(|(k, _)| k == key),
                "duplicate object key {key:?}"
            );
        }
        JsonValue::Obj(fields)
    }

    /// An array from values.
    #[must_use]
    pub fn arr(items: impl IntoIterator<Item = JsonValue>) -> Self {
        JsonValue::Arr(items.into_iter().collect())
    }

    /// Renders the document as fully-expanded pretty JSON (2-space
    /// indentation, one field/element per line, no trailing newline).
    /// The output is deterministic: the same value tree always renders to
    /// the same bytes.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    /// Renders the document as a single line (no newlines; `": "` after
    /// keys and `", "` between fields/elements). This is the wire form of
    /// the `xbar-svc/1` protocol: one message per line, still readable
    /// enough that smoke tests can grep for `"cache_hits": 1` verbatim.
    /// Deterministic like [`JsonValue::render`].
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render_compact_into(&mut out);
        out
    }

    fn render_compact_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(raw) => out.push_str(raw),
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_compact_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\": ");
                    value.render_compact_into(out);
                }
                out.push('}');
            }
        }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close_pad = "  ".repeat(indent);
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(raw) => out.push_str(raw),
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.render_into(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close_pad);
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\": ");
                    value.render_into(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close_pad);
                out.push('}');
            }
        }
    }
}

/// Escapes a string for embedding in a JSON document (used by the
/// hand-rolled writers; covers the control characters JSON requires).
#[must_use]
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
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
    out
}

fn err(message: &str, offset: usize) -> JsonError {
    JsonError {
        message: message.to_owned(),
        offset,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(err(&format!("expected {:?}", byte as char), *pos))
    }
}

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err(
            &format!("arrays and objects nest deeper than {MAX_DEPTH} levels"),
            *pos,
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err("unexpected character", *pos)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(&format!("expected `{word}`"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(err("expected digits", *pos));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(err("expected fraction digits", *pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(err("expected exponent digits", *pos));
        }
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
    Ok(Json::Num(raw.to_owned()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("truncated \\u escape", *pos))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err("non-ascii \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err("bad \\u escape", *pos))?;
                        let c = char::from_u32(code)
                            .ok_or_else(|| err("surrogate \\u escape unsupported", *pos))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash. Both are
                // ASCII, so the run ends on a character boundary of the
                // (valid UTF-8) input.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid utf8"));
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err("expected `,` or `]`", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        if map.insert(key, value).is_some() {
            return Err(err("duplicate object key", *pos));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(err("expected `,` or `}`", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e-2], "b": {"c": "x\ny"}, "d": true, "e": null}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn u64_seeds_above_2_pow_53_survive() {
        let seed = u64::MAX - 7;
        let doc = format!("{{\"seed\": {seed}}}");
        let v = Json::parse(&doc).expect("parses");
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn f64_shortest_repr_roundtrips_bitwise() {
        for x in [
            0.1_f64,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.797_693_134_862_315_7e308,
            2.2e-308,
            123_456_789.123_456_78,
        ] {
            let doc = format!("{{\"x\": {x}}}");
            let v = Json::parse(&doc).expect("parses");
            let back = v.get("x").unwrap().as_f64().expect("number");
            assert_eq!(back.to_bits(), x.to_bits(), "value {x}");
        }
    }

    #[test]
    fn truncated_document_reports_an_error() {
        for doc in ["{\"a\": [1, 2", "{\"a\"", "[1,", "\"abc", "{\"a\": 1} x"] {
            assert!(Json::parse(doc).is_err(), "{doc:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded_and_never_overflows_the_stack() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\": ", "}")] {
            assert!(
                Json::parse(&nested(MAX_DEPTH, open, close)).is_ok(),
                "{open}"
            );
            let err = Json::parse(&nested(MAX_DEPTH + 1, open, close)).expect_err("too deep");
            assert!(err.message.contains("nest deeper"), "{err}");
        }
        // One 200,000-byte line of `[` used to overflow the stack.
        let err = Json::parse(&"[".repeat(200_000)).expect_err("too deep");
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
    }

    #[test]
    fn strings_keep_multibyte_text_around_escapes() {
        let v = Json::parse(r#"["héllo \"wörld\" ✓", "\u00e9x", "日本"]"#).expect("parses");
        let items: Vec<_> = v
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(items, ["héllo \"wörld\" ✓", "éx", "日本"]);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        assert!(Json::parse(r#"{"a": 1, "a": 2}"#).is_err());
    }

    #[test]
    fn writer_renders_deterministic_insertion_ordered_documents() {
        let doc = JsonValue::obj([
            ("schema", JsonValue::str("demo/1")),
            ("seed", JsonValue::u64(u64::MAX - 7)),
            ("rate", JsonValue::f64(0.1)),
            (
                "items",
                JsonValue::arr([JsonValue::usize(3), JsonValue::Bool(true), JsonValue::Null]),
            ),
            ("empty_obj", JsonValue::obj::<String>([])),
            ("empty_arr", JsonValue::arr([])),
        ]);
        let text = doc.render();
        // Insertion order preserved: schema renders first.
        assert!(text.starts_with("{\n  \"schema\": \"demo/1\",\n"));
        assert!(text.contains("\"empty_obj\": {}"));
        assert!(text.contains("\"empty_arr\": []"));
        // Round-trips through the raw-text-preserving parser.
        let back = Json::parse(&text).expect("rendered document parses");
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX - 7));
        assert_eq!(
            back.get("rate").unwrap().as_f64().unwrap().to_bits(),
            0.1f64.to_bits()
        );
        // Deterministic: rendering twice yields identical bytes.
        assert_eq!(doc.render(), text);
    }

    #[test]
    fn writer_numbers_roundtrip_bitwise() {
        for x in [0.1_f64, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 2.2e-308] {
            let text = JsonValue::obj([("x", JsonValue::f64(x))]).render();
            let back = Json::parse(&text).expect("parses");
            assert_eq!(
                back.get("x").unwrap().as_f64().unwrap().to_bits(),
                x.to_bits()
            );
        }
    }

    #[test]
    fn compact_rendering_is_single_line_and_reparses() {
        let doc = JsonValue::obj([
            ("svc", JsonValue::str("xbar-svc/1")),
            ("type", JsonValue::str("stats")),
            ("cache_hits", JsonValue::u64(1)),
            (
                "jobs",
                JsonValue::arr([JsonValue::usize(1), JsonValue::usize(2)]),
            ),
            ("empty_obj", JsonValue::obj::<String>([])),
            ("note", JsonValue::str("line\nbreak")),
        ]);
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "wire form must stay on one line");
        assert!(line.contains("\"cache_hits\": 1"), "greppable stats field");
        assert!(line.contains("\"jobs\": [1, 2]"));
        assert!(line.contains("\"empty_obj\": {}"));
        let back = Json::parse(&line).expect("compact form reparses");
        assert_eq!(back.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(back.get("note").unwrap().as_str(), Some("line\nbreak"));
        // Pretty and compact forms agree on content.
        assert_eq!(Json::parse(&doc.render()).unwrap(), back);
    }

    #[test]
    #[should_panic(expected = "duplicate object key")]
    fn writer_rejects_duplicate_keys() {
        let _ = JsonValue::obj([("a", JsonValue::Null), ("a", JsonValue::Null)]);
    }

    #[test]
    #[should_panic(expected = "NaN/Inf-free")]
    fn writer_rejects_nan() {
        let _ = JsonValue::f64(f64::NAN);
    }

    #[test]
    fn escape_covers_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let doc = format!("{{\"s\": \"{}\"}}", escape("a\"b\\c\n\u{1}"));
        let v = Json::parse(&doc).expect("parses");
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\n\u{1}"));
    }
}
