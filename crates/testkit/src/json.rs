//! A minimal JSON layer: a value tree, an encoder, a recursive-descent
//! parser (nesting capped at [`MAX_DEPTH`], linear in the input length),
//! and the [`ToJson`] / [`FromJson`] traits the workspace's data types
//! implement — a plain struct with one [`json_struct!`](crate::json_struct)
//! line, anything else by hand on the [`Json::decode`] /
//! [`Json::decode_opt`] field helpers (the `serde` derive replacement).
//!
//! ```
//! use xplace_testkit::json::{FromJson, Json, ToJson};
//!
//! let v = Json::obj([("xs", vec![1.5f64, 2.5].to_json())]);
//! let text = v.render();
//! assert_eq!(text, r#"{"xs":[1.5,2.5]}"#);
//! let back = Json::parse(&text).unwrap();
//! let xs = Vec::<f64>::from_json(back.get("xs").unwrap()).unwrap();
//! assert_eq!(xs, [1.5, 2.5]);
//! ```

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved so encoding is
    /// deterministic.
    Obj(Vec<(String, Json)>),
}

/// At most this many bytes of an offending value's text go into a
/// type-mismatch error, so the error stays small however large the value
/// is.
const PREVIEW_BYTES: usize = 64;

/// The error for a value that is not the `expected` kind. It quotes `got`
/// cut to [`PREVIEW_BYTES`] on a char boundary, with `…` appended when
/// cut; formatting stops at the cap, so a large value is never rendered
/// in full.
fn type_error(expected: &str, got: fmt::Arguments<'_>) -> JsonError {
    struct Capped {
        text: String,
        cut: bool,
    }
    impl fmt::Write for Capped {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            if self.cut {
                return Err(fmt::Error);
            }
            let room = PREVIEW_BYTES - self.text.len();
            if s.len() <= room {
                self.text.push_str(s);
                return Ok(());
            }
            self.text.push_str(&s[..s.floor_char_boundary(room)]);
            self.cut = true;
            Err(fmt::Error)
        }
    }
    let mut preview = Capped {
        text: String::new(),
        cut: false,
    };
    // The only error is the cap's own stop signal.
    let _ = fmt::write(&mut preview, got);
    if preview.cut {
        preview.text.push('…');
    }
    JsonError(format!("expected {expected}, got {}", preview.text))
}

/// A JSON encode/decode error with a short context description.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of `key`, or a `JsonError` naming the missing field.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// Decodes the value of the required field `key`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the key is missing or its value does not
    /// decode as `T`; a decode error names the field.
    pub fn decode<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        decode_field(key, self.field(key)?)
    }

    /// Decodes the value of the optional field `key`: `None` when the key
    /// is absent. A present value, `null` included, must decode as `T`,
    /// so `null` is an error unless `T` accepts it (as `Option<_>` does).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the key is present and its value does
    /// not decode as `T`; the error names the field.
    pub fn decode_opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, JsonError> {
        self.get(key).map(|v| decode_field(key, v)).transpose()
    }

    /// Decodes the field `key` of a hand-authored document (a manifest),
    /// where `null` means the same as leaving the key out: `None` when the
    /// key is absent or `null`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the value is neither `null` nor a valid
    /// `T`; the error names the field.
    pub fn decode_nullable<T: FromJson>(&self, key: &str) -> Result<Option<T>, JsonError> {
        Ok(self.decode_opt::<Option<T>>(key)?.flatten())
    }

    /// This value as a number.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(v) => Ok(*v),
            other => Err(type_error("number", format_args!("{other:?}"))),
        }
    }

    /// This value as a non-negative integer.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let v = self.as_f64()?;
        if v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 * 4096.0 {
            Ok(v as usize)
        } else {
            Err(type_error("unsigned integer", format_args!("{v}")))
        }
    }

    /// This value as a `u64`, exact up to 2^53 (the largest integer a
    /// JSON number can carry losslessly) — wide enough for nanosecond
    /// counters, unlike [`Json::as_usize`]'s tighter cap.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let v = self.as_f64()?;
        if v >= 0.0 && v.fract() == 0.0 && v <= (1u64 << 53) as f64 {
            Ok(v as u64)
        } else {
            Err(type_error("u64", format_args!("{v}")))
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_error("string", format_args!("{other:?}"))),
        }
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(type_error("bool", format_args!("{other:?}"))),
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(type_error("array", format_args!("{other:?}"))),
        }
    }

    /// Encodes to compact JSON text. Non-finite numbers encode as `null`
    /// (JSON has no NaN/Infinity).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // `{}` on f64 is the shortest representation that
                    // round-trips, so encode/parse is lossless.
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input,
    /// trailing garbage, or arrays/objects nested deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError(format!("trailing input at byte {}", p.pos)));
        }
        Ok(v)
    }
}

fn decode_field<T: FromJson>(key: &str, value: &Json) -> Result<T, JsonError> {
    T::from_json(value).map_err(|e| JsonError(format!("field `{key}`: {}", e.0)))
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the cap bounds its stack use on hostile
/// input; every artifact the workspace writes nests a few levels at most.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    /// Parses one value nested inside `depth` arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by \uDC00-\uDFFF.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the whole unescaped run at once. It ends at an
                    // ASCII quote or backslash (or the end of input), which
                    // never falls inside a UTF-8 sequence, so the slice is
                    // on char boundaries of the `&str` input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number chars");
        // A literal like `1e999` overflows to infinity, which renders back
        // as `null`: refuse it rather than decode what cannot round-trip.
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(JsonError(format!(
                "invalid number `{text}` at byte {start}"
            ))),
        }
    }
}

/// Types that encode themselves as JSON (the `Serialize` replacement;
/// declared with [`json_struct!`](crate::json_struct) or by hand, no
/// derive).
pub trait ToJson {
    /// The JSON representation.
    fn to_json(&self) -> Json;

    /// Convenience: encode straight to text.
    fn to_json_string(&self) -> String {
        self.to_json().render()
    }
}

/// Types that decode themselves from JSON (the `Deserialize`
/// replacement).
pub trait FromJson: Sized {
    /// Decodes from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on shape or type mismatches.
    fn from_json(value: &Json) -> Result<Self, JsonError>;

    /// Convenience: parse then decode.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed text or shape mismatches.
    fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_f64()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_str().map(str::to_string)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for usize {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_usize()
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for u64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_u64()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        T::from_json(value).map(Box::new)
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
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// Declares a struct's JSON codec from its field list: one [`ToJson`]
/// impl rendering an object with one key per field, in list order, and
/// one [`FromJson`] impl decoding it back.
///
/// Each key is the field's name. A field written `name = default` takes
/// `default` when its key is absent, so artifacts written before the
/// field existed still parse; every other key is required (an `Option`
/// field without a default must be present, as `null` if empty).
/// Unknown keys are ignored. The decoder builds a struct literal, so a
/// list that misses or repeats a field does not compile.
///
/// ```
/// use xplace_testkit::json::{FromJson, ToJson};
/// use xplace_testkit::json_struct;
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: f64,
///     label: Option<String>,
///     pinned: bool,
/// }
/// json_struct!(Point { x, label, pinned = false });
///
/// let p = Point { x: 1.5, label: None, pinned: true };
/// assert_eq!(p.to_json_string(), r#"{"x":1.5,"label":null,"pinned":true}"#);
/// let old = Point::from_json_str(r#"{"x":1.5,"label":null}"#).unwrap();
/// assert_eq!(old, Point { pinned: false, ..p });
/// assert!(Point::from_json_str(r#"{"x":1.5}"#).is_err());
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident $(= $default:expr)?),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj([$(
                    (stringify!($field), $crate::json::ToJson::to_json(&self.$field)),
                )+])
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(
                value: &$crate::json::Json,
            ) -> ::std::result::Result<Self, $crate::json::JsonError> {
                ::std::result::Result::Ok($ty {$(
                    $field: $crate::json_struct!(@decode value, $field $(, $default)?),
                )+})
            }
        }
    };
    (@decode $value:ident, $field:ident) => {
        $value.decode(stringify!($field))?
    };
    (@decode $value:ident, $field:ident, $default:expr) => {
        $value.decode_opt(stringify!($field))?.unwrap_or($default)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1.5", "3.25e2", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "round trip of {text}");
        }
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for v in [0.0, -0.5, 1.0 / 3.0, 1e300, f64::MIN_POSITIVE, 12345.6789] {
            let text = Json::Num(v).render();
            assert_eq!(Json::parse(&text).unwrap().as_f64().unwrap(), v);
        }
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        // Out-of-range literals would decode to infinity and re-render
        // as `null`, so they are refused.
        for text in ["1e999", "-1e400", "[1,2e308]"] {
            assert!(Json::parse(text).is_err(), "`{text}` should fail");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "a\"b\\c\nd\te\u{08}\u{0c}\u{1f}é€𝄞";
        let text = Json::str(nasty).render();
        assert_eq!(Json::parse(&text).unwrap().as_str().unwrap(), nasty);
        // Standard escape forms parse too.
        assert_eq!(Json::parse(r#""Aé𝄞\/""#).unwrap().as_str().unwrap(), "Aé𝄞/");
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("name", Json::str("adaptec-like")),
            ("counts", Json::Arr(vec![Json::num(1.0), Json::num(2.0)])),
            (
                "nested",
                Json::obj([("ok", Json::Bool(true)), ("none", Json::Null)]),
            ),
        ]);
        let text = v.render();
        assert_eq!(
            text,
            r#"{"name":"adaptec-like","counts":[1,2],"nested":{"ok":true,"none":null}}"#
        );
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn malformed_inputs_error() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a':1}",
        ] {
            assert!(Json::parse(text).is_err(), "`{text}` should fail");
        }
    }

    #[test]
    fn field_reports_missing_keys() {
        let v = Json::obj([("x", Json::num(1.0))]);
        assert_eq!(v.field("x").unwrap().as_f64().unwrap(), 1.0);
        let err = v.field("y").unwrap_err();
        assert!(err.to_string().contains("missing field `y`"));
    }

    #[test]
    fn field_helpers_handle_absent_and_null_keys_as_documented() {
        let v = Json::parse(r#"{"n":2,"z":null}"#).unwrap();
        assert_eq!(v.decode::<usize>("n").unwrap(), 2);
        assert!(v.decode::<usize>("z").is_err());
        assert_eq!(v.decode::<Option<usize>>("z").unwrap(), None);
        assert_eq!(v.decode_opt::<usize>("absent").unwrap(), None);
        assert!(v.decode_opt::<usize>("z").is_err());
        assert_eq!(v.decode_nullable::<usize>("z").unwrap(), None);
        assert_eq!(v.decode_nullable::<usize>("absent").unwrap(), None);
        assert_eq!(v.decode_nullable::<usize>("n").unwrap(), Some(2));
        let err = v.decode_nullable::<bool>("n").unwrap_err();
        assert_eq!(err.0, "field `n`: expected bool, got Num(2.0)");
    }

    #[test]
    fn type_errors_preview_large_values_within_a_bound() {
        let err = Json::str("x".repeat(500_000)).as_arr().unwrap_err();
        assert_eq!(
            err.0,
            format!("expected array, got Str(\"{}…", "x".repeat(59))
        );
        // The cut lands on a char boundary.
        let err = Json::str("é".repeat(100)).as_bool().unwrap_err();
        assert_eq!(
            err.0,
            format!("expected bool, got Str(\"{}…", "é".repeat(29))
        );
        // A huge number written out in full is cut too.
        let err = Json::num(1e300).as_usize().unwrap_err();
        assert_eq!(
            err.0,
            format!("expected unsigned integer, got 1{}…", "0".repeat(63))
        );
        // Short values keep their whole text.
        let err = Json::Arr(vec![Json::Null]).as_str().unwrap_err();
        assert_eq!(err.0, "expected string, got Arr([Null])");
        assert_eq!(
            Json::num(-1.0).as_u64().unwrap_err().0,
            "expected u64, got -1"
        );
    }

    #[test]
    fn trait_impls_round_trip() {
        let xs = vec![1.0f64, -2.5, 0.0];
        assert_eq!(Vec::<f64>::from_json_str(&xs.to_json_string()).unwrap(), xs);
        let s = "hello".to_string();
        assert_eq!(String::from_json_str(&s.to_json_string()).unwrap(), s);
        let n: Option<u64> = None;
        assert_eq!(
            Option::<u64>::from_json_str(&n.to_json_string()).unwrap(),
            n
        );
        assert_eq!(usize::from_json(&Json::num(7.0)).unwrap(), 7);
        assert!(usize::from_json(&Json::num(1.5)).is_err());
        assert!(usize::from_json(&Json::num(-1.0)).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        id: usize,
        tags: Vec<String>,
        parent: Option<Box<Sample>>,
        weight: f64,
        pinned: bool,
    }

    json_struct!(Sample {
        id,
        tags,
        parent,
        weight = 1.0,
        pinned = false,
    });

    #[test]
    fn json_struct_renders_in_list_order_and_round_trips() {
        let leaf = Sample {
            id: 2,
            tags: vec!["a".into()],
            parent: None,
            weight: 0.5,
            pinned: true,
        };
        let root = Sample {
            id: 1,
            tags: vec![],
            parent: Some(Box::new(leaf)),
            weight: 2.0,
            pinned: false,
        };
        let text = root.to_json_string();
        assert_eq!(
            text,
            r#"{"id":1,"tags":[],"parent":{"id":2,"tags":["a"],"parent":null,"weight":0.5,"pinned":true},"weight":2,"pinned":false}"#
        );
        assert_eq!(Sample::from_json_str(&text).unwrap(), root);
    }

    #[test]
    fn json_struct_defaults_cover_absent_keys_only() {
        let old = Sample::from_json_str(r#"{"id":3,"tags":[],"parent":null,"extra":[1]}"#);
        assert_eq!(
            old.unwrap(),
            Sample {
                id: 3,
                tags: vec![],
                parent: None,
                weight: 1.0,
                pinned: false,
            }
        );
        // A present key must decode, even where a default exists.
        let err =
            Sample::from_json_str(r#"{"id":3,"tags":[],"parent":null,"pinned":null}"#).unwrap_err();
        assert!(
            err.to_string().contains("field `pinned`: expected bool"),
            "{err}"
        );
        // `Option` fields without a default are required.
        let err = Sample::from_json_str(r#"{"id":3,"tags":[]}"#).unwrap_err();
        assert!(err.to_string().contains("missing field `parent`"), "{err}");
    }

    #[test]
    fn u64_round_trips_nanosecond_scale_values() {
        // Larger than as_usize's cap, still exact as a JSON double.
        let ns: u64 = 20_000_000_000_000; // 20,000 modeled seconds
        assert_eq!(u64::from_json_str(&ns.to_json_string()).unwrap(), ns);
        assert_eq!(u64::from_json(&Json::num(0.0)).unwrap(), 0);
        assert!(u64::from_json(&Json::num(-1.0)).is_err());
        assert!(u64::from_json(&Json::num(1.5)).is_err());
        assert!(u64::from_json(&Json::num(2.0f64.powi(60))).is_err());
    }
}
