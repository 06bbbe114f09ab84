//! Minimal JSON reader/writer backing the serializable scenario API.
//!
//! The workspace builds offline, with no JSON crate. Scenario specs
//! still need a real wire format — experiment grids are authored as
//! JSON strings and shipped between tools — so this module provides
//! the small value model every wire form serializes through:
//! [`Json::parse`] (strict recursive descent) and [`Json::render`]
//! (deterministic output, object keys in insertion order).
//!
//! Numbers are carried as `f64`; integers round-trip exactly up to
//! 2^53, which covers every seed and count the experiment configs use.
//!
//! # Example
//!
//! ```
//! use poisongame_sim::jsonio::Json;
//!
//! let v = Json::parse(r#"{"type": "boundary", "weights": [0.5, 0.5]}"#).unwrap();
//! assert_eq!(v.get("type").and_then(Json::as_str), Some("boundary"));
//! assert_eq!(Json::parse(&v.render()).unwrap(), v);
//! ```

use crate::error::SimError;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved (insertion order on build,
    /// source order on parse).
    Obj(Vec<(String, Json)>),
}

/// A JSON syntax error with the byte offset where parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the offending byte offset on any
    /// syntax error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after document"));
        }
        Ok(value)
    }

    /// Render to a compact JSON string. Output is deterministic and
    /// re-parses to an equal value — except non-finite numbers, which
    /// JSON cannot represent and which render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(*x, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Look up a key in an object; `None` for other variants or a
    /// missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a
    /// number with an exact integral value in `[0, 2^53]`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= (1u64 << 53) as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from key/value pairs (insertion order kept).
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Build a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Build an array of numbers.
    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }
}

fn err(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_string(),
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
        Err(err(*pos, &format!("expected `{}`", byte as char)))
    }
}

/// Containers may nest this deep before the parser refuses — the
/// recursion otherwise tracks input size, and a pathological document
/// (`"[[[[…"`) would overflow the stack instead of returning an error.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting deeper than 128 levels"));
    }
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(err(*pos, &format!("unexpected byte `{}`", *c as char))),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected `{word}`")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII slice");
    let value: f64 = text
        .parse()
        .map_err(|_| err(start, &format!("invalid number `{text}`")))?;
    if !value.is_finite() {
        return Err(err(start, "number out of range"));
    }
    Ok(Json::Num(value))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ASCII \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogates are rejected rather than paired: the
                        // scenario schema never emits them.
                        let ch = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "surrogate \\u escape unsupported"))?;
                        out.push(ch);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through verbatim).
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "invalid UTF-8"))?;
                let ch = rest.chars().next().expect("non-empty rest");
                if (ch as u32) < 0x20 {
                    return Err(err(*pos, "unescaped control character"));
                }
                out.push(ch);
                *pos += ch.len_utf8();
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
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]`")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut fields: Vec<(String, Json)> = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key_offset = *pos;
        let key = parse_string(bytes, pos)?;
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(err(key_offset, &format!("duplicate key `{key}`")));
        }
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(err(*pos, "expected `,` or `}`")),
        }
    }
}

fn write_number(x: f64, out: &mut String) {
    // JSON has no NaN/Infinity tokens; emit `null` (the JavaScript
    // convention) so the document stays parseable and a typed reader
    // fails with a clear "must be a number" instead of a syntax error.
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    // Integral values print without a fraction so seeds and counts stay
    // readable; Rust's shortest-round-trip float formatting covers the
    // rest.
    if x.fract() == 0.0 && x.abs() <= (1u64 << 53) as f64 {
        out.push_str(&format!("{}", x as i64));
    } else {
        out.push_str(&format!("{x}"));
    }
}

// ---------------------------------------------------------------------------
// Spec-field helpers shared by every JSON-described config in this
// crate (`pipeline::ExperimentConfig`, the `scenario` specs). They
// were once hand-rolled per call site; centralizing them keeps the
// error wording and the unknown-key policy identical everywhere.
// ---------------------------------------------------------------------------

/// A required numeric field.
///
/// # Errors
///
/// Returns [`SimError::Spec`] when the value is not a number.
pub fn require_num(value: &Json, what: &str) -> Result<f64, SimError> {
    value
        .as_f64()
        .ok_or_else(|| SimError::Spec(format!("`{what}` must be a number")))
}

/// A required non-negative integer field.
///
/// # Errors
///
/// Returns [`SimError::Spec`] when the value is not a non-negative
/// integer.
pub fn require_u64(value: &Json, what: &str) -> Result<u64, SimError> {
    value
        .as_u64()
        .ok_or_else(|| SimError::Spec(format!("`{what}` must be a non-negative integer")))
}

/// A required boolean field.
///
/// # Errors
///
/// Returns [`SimError::Spec`] when the value is not a boolean.
pub fn require_bool(value: &Json, what: &str) -> Result<bool, SimError> {
    value
        .as_bool()
        .ok_or_else(|| SimError::Spec(format!("`{what}` must be a boolean")))
}

/// The `"type"` tag of a spec object.
///
/// # Errors
///
/// Returns [`SimError::Spec`] when the tag is absent or not a string.
pub fn spec_type<'a>(value: &'a Json, what: &str) -> Result<&'a str, SimError> {
    value
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| SimError::Spec(format!("{what} spec needs a string `type` field")))
}

/// Reject keys outside `allowed` on a spec object: a misspelled
/// parameter would otherwise be silently dropped and the experiment
/// would run a different configuration than the author wrote.
///
/// # Errors
///
/// Returns [`SimError::Spec`] naming the first unknown key.
pub fn check_keys(value: &Json, what: &str, allowed: &[&str]) -> Result<(), SimError> {
    if let Json::Obj(fields) = value {
        for (key, _) in fields {
            if !allowed.contains(&key.as_str()) {
                return Err(SimError::Spec(format!("unknown {what} key `{key}`")));
            }
        }
    }
    Ok(())
}

/// A required array of numbers under `key`.
///
/// # Errors
///
/// Returns [`SimError::Spec`] when the key is absent, not an array, or
/// holds a non-number.
pub fn num_array(value: &Json, key: &str) -> Result<Vec<f64>, SimError> {
    value
        .get(key)
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| SimError::Spec(format!("`{key}` must hold numbers")))
                })
                .collect()
        })
        .transpose()?
        .ok_or_else(|| SimError::Spec(format!("missing numeric array `{key}`")))
}

/// Render an object document from *borrowed* values, bypassing the
/// owned [`Json`] tree: for hot paths that wrap a large payload in a
/// small envelope (a serving response around a multi-megabyte result),
/// where `Json::obj` would force a deep clone of the payload. Output
/// is byte-identical to `Json::Obj` of the same fields.
pub fn render_object(fields: &[(&str, &Json)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(key, &mut out);
        out.push(':');
        value.write(&mut out);
    }
    out.push('}');
    out
}

/// Render `(x, y)` sample pairs as `[[x, y], ...]` — the shared wire
/// shape for curve samples (see [`num_pairs`]).
pub fn num_pairs_to_json(pairs: &[(f64, f64)]) -> Json {
    Json::Arr(pairs.iter().map(|&(x, y)| Json::nums(&[x, y])).collect())
}

/// Read `[[x, y], ...]` sample pairs written by [`num_pairs_to_json`].
///
/// # Errors
///
/// Returns [`SimError::Spec`] when the value is not an array of
/// two-number arrays.
pub fn num_pairs(value: &Json, what: &str) -> Result<Vec<(f64, f64)>, SimError> {
    value
        .as_array()
        .ok_or_else(|| SimError::Spec(format!("`{what}` must be an array of [x, y] pairs")))?
        .iter()
        .map(|pair| match pair.as_array() {
            Some([x, y]) => Ok((require_num(x, what)?, require_num(y, what)?)),
            _ => Err(SimError::Spec(format!("`{what}` must hold [x, y] pairs"))),
        })
        .collect()
}

/// Render a `u64` that may exceed 2^53: a JSON number while exact, a
/// decimal string beyond (JSON numbers are `f64` on this wire). The
/// counterpart of [`big_u64`]; used for seeds and derived cell seeds,
/// which span the full 64-bit range.
pub fn big_u64_to_json(value: u64) -> Json {
    if value <= (1u64 << 53) {
        Json::Num(value as f64)
    } else {
        Json::Str(value.to_string())
    }
}

/// Read a `u64` written by [`big_u64_to_json`] (number or decimal
/// string form).
///
/// # Errors
///
/// Returns [`SimError::Spec`] when the value is neither an exact
/// non-negative integer nor a decimal string.
pub fn big_u64(value: &Json, what: &str) -> Result<u64, SimError> {
    value
        .as_u64()
        .or_else(|| value.as_str().and_then(|s| s.parse().ok()))
        .ok_or_else(|| {
            SimError::Spec(format!(
                "`{what}` must be a non-negative integer (string form for > 2^53)"
            ))
        })
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-3.5", "1e-4", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn nested_document_round_trips() {
        let text = r#"{"a": [1, 2.5, {"b": "x\ny"}], "c": null, "d": true}"#;
        let v = Json::parse(text).unwrap();
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        // Compact output: no spaces.
        assert!(!rendered.contains(' '));
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"k": 5, "s": "t", "a": [1], "b": false}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(5));
        assert_eq!(v.get("k").and_then(Json::as_f64), Some(5.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert!(v.get("missing").is_none());
        assert!(Json::Num(1.5).as_u64().is_none());
        assert!(Json::Num(-1.0).as_u64().is_none());
    }

    #[test]
    fn syntax_errors_carry_offsets() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            let e = Json::parse(bad).unwrap_err();
            assert!(!e.message.is_empty(), "{bad}");
            assert!(e.to_string().contains("byte"), "{bad}");
        }
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing() {
        // Would previously crash the process with a stack overflow.
        let deep = "[".repeat(200_000);
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        // Nesting at the limit still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn duplicate_keys_rejected() {
        assert!(Json::parse(r#"{"a": 1, "a": 2}"#).is_err());
    }

    #[test]
    fn escapes_decode_and_encode() {
        let v = Json::parse(r#""a\"b\\c\n\tA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\n\tA"));
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn control_characters_must_be_escaped() {
        assert!(Json::parse("\"a\nb\"").is_err());
        assert_eq!(Json::Str("a\u{1}b".into()).render(), "\"a\\u0001b\"");
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(20190607.0).render(), "20190607");
        assert_eq!(Json::Num(0.15).render(), "0.15");
        let seed = 0xD37E_2214u64;
        assert_eq!(
            Json::parse(&Json::Num(seed as f64).render())
                .unwrap()
                .as_u64(),
            Some(seed)
        );
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::obj(vec![("w", Json::Num(x))]).render();
            assert_eq!(doc, r#"{"w":null}"#);
            // Still valid JSON; a typed reader sees Null, not a number.
            assert_eq!(Json::parse(&doc).unwrap().get("w"), Some(&Json::Null));
        }
    }

    #[test]
    fn render_object_matches_owned_rendering() {
        let payload = Json::parse(r#"{"cells": [1, 2, {"x": "y\n"}]}"#).unwrap();
        let borrowed = render_object(&[
            ("id", &Json::Num(7.0)),
            ("ok", &Json::Bool(true)),
            ("result", &payload),
        ]);
        let owned = Json::obj(vec![
            ("id", Json::Num(7.0)),
            ("ok", Json::Bool(true)),
            ("result", payload),
        ])
        .render();
        assert_eq!(borrowed, owned);
        assert_eq!(render_object(&[]), "{}");
    }

    #[test]
    fn num_pairs_round_trip_and_reject() {
        let pairs = vec![(0.0, 2.0e-4), (0.3, -1.5e-5)];
        let j = num_pairs_to_json(&pairs);
        assert_eq!(num_pairs(&j, "effect").unwrap(), pairs);
        assert_eq!(
            num_pairs(&Json::parse(&j.render()).unwrap(), "effect").unwrap(),
            pairs
        );
        assert!(num_pairs(&Json::Num(1.0), "effect").is_err());
        assert!(num_pairs(&Json::parse("[[1,2,3]]").unwrap(), "effect").is_err());
        assert!(num_pairs(&Json::parse("[[1,\"x\"]]").unwrap(), "effect").is_err());
    }

    #[test]
    fn big_u64_round_trips_across_the_2_53_boundary() {
        for v in [0u64, 42, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let j = big_u64_to_json(v);
            assert_eq!(big_u64(&j, "seed").unwrap(), v, "{v}");
            // Also survives an actual wire round-trip.
            let reparsed = Json::parse(&j.render()).unwrap();
            assert_eq!(big_u64(&reparsed, "seed").unwrap(), v, "{v}");
        }
        assert!(matches!(big_u64_to_json(1 << 53), Json::Num(_)));
        assert!(matches!(big_u64_to_json((1 << 53) + 1), Json::Str(_)));
        assert!(big_u64(&Json::Num(-1.0), "seed").is_err());
        assert!(big_u64(&Json::str("not a number"), "seed").is_err());
        assert!(big_u64(&Json::Null, "seed").is_err());
    }

    #[test]
    fn builders_compose() {
        let v = Json::obj(vec![
            ("type", Json::str("boundary")),
            ("weights", Json::nums(&[0.5, 0.5])),
        ]);
        assert_eq!(v.render(), r#"{"type":"boundary","weights":[0.5,0.5]}"#);
    }

    #[test]
    fn spec_helpers_accept_and_reject() {
        let v =
            Json::parse(r#"{"type": "knn", "k": 5, "frac": 0.3, "on": true, "ws": [0.5, 0.5]}"#)
                .unwrap();
        assert_eq!(spec_type(&v, "defense").unwrap(), "knn");
        assert_eq!(require_num(v.get("frac").unwrap(), "frac").unwrap(), 0.3);
        assert_eq!(require_u64(v.get("k").unwrap(), "k").unwrap(), 5);
        assert!(require_bool(v.get("on").unwrap(), "on").unwrap());
        assert_eq!(num_array(&v, "ws").unwrap(), vec![0.5, 0.5]);
        assert!(check_keys(&v, "spec", &["type", "k", "frac", "on", "ws"]).is_ok());

        let err = check_keys(&v, "spec", &["type"]).unwrap_err();
        assert!(err.to_string().contains("unknown spec key"), "{err}");
        assert!(require_num(v.get("type").unwrap(), "type").is_err());
        assert!(require_u64(v.get("frac").unwrap(), "frac").is_err());
        assert!(require_bool(v.get("k").unwrap(), "k").is_err());
        assert!(num_array(&v, "missing").is_err());
        assert!(num_array(&v, "type").is_err());
        assert!(spec_type(&Json::Num(1.0), "attack").is_err());
    }
}
