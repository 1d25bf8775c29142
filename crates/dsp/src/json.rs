//! Minimal, dependency-free JSON for experiment reports and caches.
//!
//! The workspace is hermetic (no external crates), so this module replaces
//! `serde`/`serde_json` for the few places that actually serialize:
//! experiment result JSON under `target/ht_cache/results/` and the feature
//! cache's `.meta.json` sidecars.
//!
//! Design points:
//!
//! * [`Json`] objects preserve insertion order, so serializing the same
//!   value twice produces byte-identical text — experiment reports are
//!   deterministic given a seed, a property the regression tests rely on.
//! * The parser is tolerant on input (accepts trailing commas and any
//!   amount of whitespace) and strict on output (emits canonical JSON).
//! * Integers survive exactly: values that fit `i64`/`u64` are kept as
//!   integers rather than routed through `f64`, so 64-bit seeds round-trip.
//!
//! # Example
//!
//! ```
//! use ht_dsp::json::Json;
//!
//! let v = Json::parse(r#"{"id": "table3", "rows": [1, 2.5, null,]}"#).unwrap();
//! assert_eq!(v.get("id").and_then(Json::as_str), Some("table3"));
//! assert_eq!(v.get("rows").unwrap().as_array().unwrap().len(), 3);
//! ```

use std::fmt;

/// A JSON value with order-preserving objects and exact integers.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `i64` (covers all negative integers emitted).
    I64(i64),
    /// A non-negative integer above `i64::MAX` (e.g. 64-bit seeds).
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is insertion order and is preserved on output.
    Obj(Vec<(String, Json)>),
}

/// A parse or conversion error with a byte offset for parse failures.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input for parse errors, `None` for conversions.
    pub offset: Option<usize>,
}

impl JsonError {
    /// A conversion (non-parse) error.
    pub fn msg(message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(at) => write!(f, "json error at byte {at}: {}", self.message),
            None => write!(f, "json error: {}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An empty object (builder entry point).
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts `key: value` and returns `self` (builder style). Replaces an
    /// existing key in place so objects never hold duplicates.
    #[must_use]
    pub fn set(mut self, key: &str, value: impl ToJson) -> Json {
        if let Json::Obj(pairs) = &mut self {
            let value = value.to_json();
            if let Some(pair) = pairs.iter_mut().find(|(k, _)| k == key) {
                pair.1 = value;
            } else {
                pairs.push((key.to_string(), value));
            }
        }
        self
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Any numeric variant as `f64` (lossy for huge integers).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::I64(v) => Some(v as f64),
            Json::U64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Any numeric variant as `u64` when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::I64(v) => u64::try_from(v).ok(),
            Json::U64(v) => Some(v),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// Any numeric variant as `i64` when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::I64(v) => Some(v),
            Json::U64(v) => i64::try_from(v).ok(),
            Json::F64(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => Some(v as i64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact canonical serialization.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization (two-space indent).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, items.len(), '[', ']', |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, pairs.len(), '{', '}', |out, i| {
                write_escaped(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, indent, depth + 1);
            }),
        }
    }

    /// Parses `text` into a [`Json`] value.
    ///
    /// Tolerant of insignificant whitespace and trailing commas in arrays
    /// and objects; everything else follows RFC 8259.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser { text, bytes, at: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

/// Floats print via Rust's shortest-round-trip formatting; non-finite
/// values become `null` (JSON has no NaN/Infinity).
fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = v.to_string();
    out.push_str(&s);
    // Keep the float-ness visible so `1.0` does not re-parse as an integer.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: Some(self.at),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.at..].starts_with(token.as_bytes()) {
            self.at += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.at += 1; // '['
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.at += 1;
                return Ok(Json::Arr(items));
            }
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {}
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.at += 1; // '{'
        let mut pairs = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.at += 1;
                return Ok(Json::Obj(pairs));
            }
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.at += 1;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {}
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.at += 1; // '"'
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
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
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // step. Both are ASCII, so the run ends on a character
                    // boundary of the (valid UTF-8) input.
                    let run = self.bytes[self.at..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |k| self.at + k);
                    out.push_str(&self.text[self.at..run]);
                    self.at = run;
                }
            }
        }
    }

    /// Parses `uXXXX` (after the backslash), handling surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        self.at += 1; // 'u'
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            if !self.eat("\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.at + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.at..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.at = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion back from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs the value.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the field or shape mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Json, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<bool, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::msg("expected bool"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::msg("expected number"))
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            #[allow(clippy::unnecessary_cast)] // `u64 as u64` in one instantiation
            fn to_json(&self) -> Json {
                match i64::try_from(*self) {
                    Ok(v) => Json::I64(v),
                    // Only u64 can exceed i64::MAX among these types.
                    Err(_) => Json::U64(*self as u64),
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<$t, JsonError> {
                v.as_i64()
                    .and_then(|x| <$t>::try_from(x).ok())
                    .or_else(|| v.as_u64().and_then(|x| <$t>::try_from(x).ok()))
                    .ok_or_else(|| JsonError::msg(concat!("expected ", stringify!($t))))
            }
        }
    )*};
}

impl_json_int!(i64, i32, u64, u32, usize, u8);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::msg("expected string"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::msg("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Option<T>, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// Implements [`ToJson`] for a fieldless enum, serializing each variant
/// as its name string (human-readable, order-insensitive).
///
/// ```
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Mode { Fast, Slow }
/// ht_dsp::impl_unit_enum_json!(Mode, { Mode::Fast => "Fast", Mode::Slow => "Slow" });
///
/// use ht_dsp::json::ToJson;
/// assert_eq!(Mode::Slow.to_json().dump(), r#""Slow""#);
/// ```
#[macro_export]
macro_rules! impl_unit_enum_json {
    ($t:ty, { $($variant:path => $name:literal),+ $(,)? }) => {
        impl $crate::json::ToJson for $t {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(match self { $($variant => $name),+ }.to_string())
            }
        }
    };
}

/// Reads a required object field.
///
/// # Errors
///
/// Returns a [`JsonError`] naming the missing or mismatched field.
pub fn field<T: FromJson>(obj: &Json, key: &str) -> Result<T, JsonError> {
    let v = obj
        .get(key)
        .ok_or_else(|| JsonError::msg(format!("missing field `{key}`")))?;
    T::from_json(v).map_err(|e| JsonError::msg(format!("field `{key}`: {}", e.message)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.25", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.dump(), text);
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = u64::MAX - 3;
        let v = Json::parse(&seed.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(seed));
        assert_eq!(v.dump(), seed.to_string());
    }

    #[test]
    fn floats_keep_floatness() {
        let v = Json::F64(1.0);
        assert_eq!(v.dump(), "1.0");
        let back = Json::parse(&v.dump()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).dump(), "null");
        assert_eq!(Json::F64(f64::INFINITY).dump(), "null");
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj().set("z", 1i64).set("a", 2i64).set("m", 3i64);
        assert_eq!(v.dump(), r#"{"z":1,"a":2,"m":3}"#);
        // Re-setting replaces in place rather than duplicating.
        let v = v.set("a", 9i64);
        assert_eq!(v.dump(), r#"{"z":1,"a":9,"m":3}"#);
    }

    #[test]
    fn parser_tolerates_trailing_commas_and_whitespace() {
        let v = Json::parse("{\n  \"a\": [1, 2, 3,],\n  \"b\": {\"c\": 1,},\n}").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nbreak \"quoted\" back\\slash tab\t ünïcode 💬";
        let v = Json::Str(s.to_string());
        let back = Json::parse(&v.dump()).unwrap();
        assert_eq!(back.as_str(), Some(s));
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Json::parse(r#""Aé💬""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé💬"));
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Json::obj()
            .set("id", "fig10")
            .set("rows", vec![1.5f64, 2.5])
            .set("empty", Json::Arr(vec![]))
            .set("nested", Json::obj().set("ok", true));
        let text = v.pretty();
        assert!(text.contains("\n  \"id\": \"fig10\""));
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn multibyte_characters_next_to_escapes_and_quotes_parse() {
        let text = r#"["é\"ü\\💬\n字", "💬", "a\u00e9é", "\"é\"", ""]"#;
        let v = Json::parse(text).unwrap();
        let strings: Vec<&str> = v
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(strings, ["é\"ü\\💬\n字", "💬", "aéé", "\"é\"", ""]);
        let s = "ü\"\\\t字💬\u{1}";
        assert_eq!(
            Json::parse(&Json::Str(s.into()).dump()).unwrap().as_str(),
            Some(s)
        );
    }

    #[test]
    fn unterminated_strings_report_the_end_of_input() {
        for text in ["\"abc é", "\"é\\\"", "[\"💬", "\""] {
            let e = Json::parse(text).unwrap_err();
            assert_eq!(e.message, "unterminated string", "{text:?}");
            assert_eq!(e.offset, Some(text.len()), "{text:?}");
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let e = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(e.offset, Some(6));
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("[1] junk").is_err());
    }

    #[test]
    fn typed_field_accessor_reports_names() {
        let v = Json::obj().set("n", 3usize);
        assert_eq!(field::<usize>(&v, "n").unwrap(), 3);
        let e = field::<usize>(&v, "missing").unwrap_err();
        assert!(e.message.contains("missing"));
        let e = field::<String>(&v, "n").unwrap_err();
        assert!(e.message.contains("`n`"));
    }

    #[test]
    fn options_and_vecs_round_trip() {
        let some: Option<f64> = Some(2.5);
        let none: Option<f64> = None;
        assert_eq!(Option::<f64>::from_json(&some.to_json()).unwrap(), some);
        assert_eq!(Option::<f64>::from_json(&none.to_json()).unwrap(), none);
        let xs = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::from_json(&xs.to_json()).unwrap(), xs);
    }
}
