//! A dependency-free JSON value: writer and recursive-descent parser.
//!
//! The workspace must build with no network access, so `serde` is not an
//! option; this module is the small subset the metrics pipeline needs.
//! Unsigned integers round-trip exactly (they are kept as `u64`, not
//! squeezed through `f64`), object key order is preserved, and floats are
//! written with Rust's shortest round-trip representation. Arrays and
//! objects nested deeper than `MAX_DEPTH` (128) are a parse error, so a
//! hostile file cannot overflow the stack.

use std::fmt;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts; the
/// committed snapshots nest at most seven deep.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (exact; counters live here).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number (written via `{:?}`, shortest round trip).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write and parse.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An empty object (build it up with [`Json::set`]).
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts or replaces `key` in an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        let Json::Obj(fields) = self else {
            panic!("Json::set on a non-object");
        };
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value.into(),
            None => fields.push((key.to_string(), value.into())),
        }
        self
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer (accepts exact `I64`/`F64` too).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields, in insertion order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serializes into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let mut buf = itoa_buffer();
                out.push_str(fmt_u64(*v, &mut buf));
            }
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    // `{:?}` is the shortest representation that parses
                    // back to the same bits; `{}` would drop the ".0".
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null"); // JSON has no NaN/Infinity
                }
            }
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
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serializes with two-space indentation (human-facing snapshot files).
    pub fn write_pretty(&self, out: &mut String, indent: usize) {
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
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
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
            other => other.write(out),
        }
    }

    /// Serializes to a pretty string with a trailing newline (file bodies).
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                at: pos,
                msg: "trailing characters after value",
            });
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        if v >= 0 {
            Json::U64(v as u64)
        } else {
            Json::I64(v)
        }
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// 20 digits fit any u64.
fn itoa_buffer() -> [u8; 20] {
    [0; 20]
}

fn fmt_u64(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("digits are ASCII")
}

fn write_string(s: &str, out: &mut String) {
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

// ----------------------------------------------------------------------
// Parser.
// ----------------------------------------------------------------------

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8, msg: &'static str) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError { at: *pos, msg })
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(JsonError {
            at: *pos,
            msg: "unexpected end of input",
        });
    };
    match b {
        b'{' | b'[' if depth == MAX_DEPTH => Err(JsonError {
            at: *pos,
            msg: "arrays and objects nested too deep",
        }),
        b'{' => parse_object(bytes, pos, depth + 1),
        b'[' => parse_array(bytes, pos, depth + 1),
        b'"' => Ok(Json::Str(parse_string(bytes, pos)?)),
        b't' => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        b'n' => parse_keyword(bytes, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        _ => Err(JsonError {
            at: *pos,
            msg: "unexpected character",
        }),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &'static str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError {
            at: *pos,
            msg: "invalid keyword",
        })
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{', "expected '{'")?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':', "expected ':'")?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(&b',') => *pos += 1,
            Some(&b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    msg: "expected ',' or '}'",
                })
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[', "expected '['")?;
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
            Some(&b',') => *pos += 1,
            Some(&b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    msg: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    let start = *pos;
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(JsonError {
                at: *pos,
                msg: "unterminated string",
            });
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(JsonError {
                        at: *pos,
                        msg: "unterminated escape",
                    });
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes.get(*pos..*pos + 4).ok_or(JsonError {
                            at: *pos,
                            msg: "truncated \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| JsonError {
                            at: *pos,
                            msg: "non-ASCII \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                            at: *pos,
                            msg: "invalid \\u escape",
                        })?;
                        *pos += 4;
                        // Surrogate pairs are not needed for metric names;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos - 1,
                            msg: "invalid escape",
                        })
                    }
                }
            }
            _ => {
                // Consume one UTF-8 scalar (input is a &str, so this slice
                // boundary is always valid at a char boundary).
                let s = &bytes[*pos..];
                let text = std::str::from_utf8(s).map_err(|_| JsonError {
                    at: start,
                    msg: "invalid UTF-8",
                })?;
                let c = text.chars().next().expect("nonempty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    if !is_float {
        if let Some(stripped) = text.strip_prefix('-') {
            if let Ok(v) = stripped.parse::<u64>() {
                if v == 0 {
                    return Ok(Json::U64(0));
                }
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        } else if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
    }
    let v = text.parse::<f64>().map_err(|_| JsonError {
        at: start,
        msg: "invalid number",
    })?;
    // JSON has no infinity: a number that overflows `f64` would print as
    // `null`, so it is refused rather than read as a different value.
    if !v.is_finite() {
        return Err(JsonError {
            at: start,
            msg: "number out of range",
        });
    }
    Ok(Json::F64(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::U64(u64::MAX), "18446744073709551615"),
            (Json::I64(-7), "-7"),
            (Json::Str("a\"b\\c\nd".into()), "\"a\\\"b\\\\c\\nd\""),
        ] {
            assert_eq!(v.to_string(), s);
            assert_eq!(Json::parse(s).unwrap(), v);
        }
    }

    #[test]
    fn floats_keep_their_marker() {
        let v = Json::F64(1.0);
        assert_eq!(v.to_string(), "1.0");
        assert_eq!(Json::parse("1.0").unwrap(), v);
        assert_eq!(Json::parse("2.5e3").unwrap(), Json::F64(2500.0));
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
    }

    #[test]
    fn numbers_past_f64_are_errors() {
        for text in ["1e999", "-1e999", "[0, 2e308]"] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.msg, "number out of range", "{text}");
        }
    }

    #[test]
    fn u64_precision_is_exact() {
        // 2^53 + 1 is not representable in f64; the parser must keep it.
        let v = (1u64 << 53) + 1;
        let parsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.as_u64(), Some(v));
    }

    #[test]
    fn objects_preserve_order_and_round_trip() {
        let mut obj = Json::obj();
        obj.set("z", 1u64).set("a", 2u64).set("m", "hi");
        let s = obj.to_string();
        assert_eq!(s, "{\"z\":1,\"a\":2,\"m\":\"hi\"}");
        assert_eq!(Json::parse(&s).unwrap(), obj);
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut obj = Json::obj();
        obj.set("k", 1u64);
        obj.set("k", 2u64);
        assert_eq!(obj.get("k").and_then(Json::as_u64), Some(2));
        assert_eq!(obj.as_obj().unwrap().len(), 1);
    }

    #[test]
    fn arrays_and_nesting() {
        let text = r#" { "runs": [ {"n": 1}, {"n": 2} ], "ok": true } "#;
        let v = Json::parse(text).unwrap();
        let runs = v.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("n").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn pretty_output_parses_back() {
        let mut obj = Json::obj();
        obj.set("a", Json::Arr(vec![Json::U64(1), Json::U64(2)]));
        obj.set("b", Json::obj().set("c", 3u64).clone());
        let pretty = obj.to_pretty_string();
        assert!(pretty.contains("\n  "));
        assert_eq!(Json::parse(&pretty).unwrap(), obj);
    }

    #[test]
    fn errors_carry_positions() {
        let err = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.at, 6);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("01x").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let mixed = "{\"a\":[".repeat(MAX_DEPTH / 2) + &"]}".repeat(MAX_DEPTH / 2);
        assert!(Json::parse(&mixed).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        // Far past the limit: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".into())
        );
    }
}
