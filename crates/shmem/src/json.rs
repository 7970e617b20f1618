//! The minimal hand-rolled JSON subset every artifact in this workspace
//! uses: strings, arrays, and objects, with every scalar encoded as a
//! string. Object key order is preserved.
//!
//! Hand-rolled because the build environment has no registry access for a
//! serde dependency. One copy of the emit/parse machinery lives here and
//! backs both the repro cases ([`crate::ReproCase`]) and the bench table
//! artifacts (`llsc_bench::table::Table`); the two used to carry private
//! duplicates of this module.
//!
//! The writer side is [`escape`] / [`push_string`], plus [`push_field`]
//! and [`push_list`] for the flat objects of string scalars that job
//! files and repro cases are made of; the reader side is [`parse`] (a
//! complete document) and [`parse_prefix`] (one value plus the unconsumed
//! remainder, for callers that splice values out of larger texts), plus
//! the field lookups [`text_field`], [`num_field`] and [`list_field`].
//! Both readers accept the standard JSON string escapes including
//! `\uXXXX`.

/// A parsed JSON value of the subset above.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A string scalar.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub(crate) fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up an object field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, or a message naming `what` was expected.
    ///
    /// # Errors
    ///
    /// Returns `"{what}: expected a string"` when this is not a string.
    pub(crate) fn str_or(&self, what: &str) -> Result<String, String> {
        self.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{what}: expected a string"))
    }

    /// The elements, or a message naming `what` was expected.
    ///
    /// # Errors
    ///
    /// Returns `"{what}: expected an array"` when this is not an array.
    pub fn array_or(&self, what: &str) -> Result<&[Value], String> {
        self.as_array()
            .ok_or_else(|| format!("{what}: expected an array"))
    }

    /// The fields, or a message naming `what` was expected.
    ///
    /// # Errors
    ///
    /// Returns `"{what}: expected an object"` when this is not an object.
    pub(crate) fn object_or(&self, what: &str) -> Result<&[(String, Value)], String> {
        self.as_object()
            .ok_or_else(|| format!("{what}: expected an object"))
    }
}

/// Escapes a string for embedding in a JSON string literal (no
/// surrounding quotes — see [`push_string`] for the quoted form).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

/// Appends `,"key":"value"`: one more field of an object whose scalars
/// are all JSON strings (`value` escaped, `key` verbatim).
pub fn push_field(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    push_string(out, value);
}

/// Appends `,"key":[…]`, the items rendered as JSON strings.
pub fn push_list<T: ToString>(out: &mut String, key: &str, items: impl IntoIterator<Item = T>) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_string(out, &item.to_string());
    }
    out.push(']');
}

/// The field `key` of the object `value`; `what` names the object in
/// errors.
///
/// # Errors
///
/// Returns `"{what}: missing `{key}`"` when there is no such field.
pub(crate) fn field_or<'a>(value: &'a Value, what: &str, key: &str) -> Result<&'a Value, String> {
    value
        .field(key)
        .ok_or_else(|| format!("{what}: missing `{key}`"))
}

/// The string field `key` of the object `value`.
///
/// # Errors
///
/// Names the missing or non-string field.
pub fn text_field(value: &Value, what: &str, key: &str) -> Result<String, String> {
    field_or(value, what, key)?.str_or(&format!("{what} `{key}`"))
}

/// The numeric field `key` of the object `value`, parsed by
/// [`parse_u64`].
///
/// # Errors
///
/// Names the missing, malformed or out-of-range field.
pub fn num_field<T: TryFrom<u64>>(value: &Value, what: &str, key: &str) -> Result<T, String> {
    parse_u64(&text_field(value, what, key)?)
        .ok()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("{what}: bad `{key}`"))
}

/// The list field `key` of the object `value`, each entry parsed from its
/// string form.
///
/// # Errors
///
/// Names the missing field or its first malformed entry.
pub fn list_field<T: std::str::FromStr>(
    value: &Value,
    what: &str,
    key: &str,
) -> Result<Vec<T>, String> {
    field_or(value, what, key)?
        .array_or(&format!("{what} `{key}`"))?
        .iter()
        .map(|v| {
            v.str_or(&format!("{what} `{key}` entry"))?
                .parse()
                .map_err(|_| format!("{what}: bad `{key}` entry"))
        })
        .collect()
}

/// Parses a number scalar: decimal, or hexadecimal after a `0x` prefix
/// (the form seeds are written in).
///
/// # Errors
///
/// Names the malformed text.
pub fn parse_u64(text: &str) -> Result<u64, String> {
    let (digits, radix) = match text.strip_prefix("0x") {
        Some(hex) => (hex, 16),
        None => (text, 10),
    };
    u64::from_str_radix(digits, radix).map_err(|e| format!("bad number {text:?}: {e}"))
}

/// Parses a complete JSON document (of the subset above), rejecting
/// trailing non-whitespace.
///
/// # Errors
///
/// Returns a descriptive message with the byte offset of the first
/// syntax error, or `"trailing data at byte N"` when the document
/// continues past the first value.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

/// Parses one value, returning it and the unconsumed remainder of the
/// input (which may legitimately be non-empty — callers that require a
/// complete document should use [`parse`]).
///
/// # Errors
///
/// Returns a descriptive message with the byte offset of the first
/// syntax error.
pub fn parse_prefix(input: &str) -> Result<(Value, &str), String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    // `pos` sits just past a structural ASCII byte (quote, bracket, or
    // brace), so it is always a char boundary.
    Ok((value, &input[pos..]))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        _ => Err(format!("unexpected value at byte {pos}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => {
                return String::from_utf8(out).map_err(|e| format!("bad utf-8: {e}"));
            }
            b'\\' => {
                let esc = bytes.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = bytes.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                        *pos += 4;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        let c = char::from_u32(code).ok_or("bad \\u escape")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            other => out.push(other),
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Re-renders a parsed value in the canonical all-string form the
    /// artifact writers produce, for round-trip checks.
    fn render(v: &Value) -> String {
        match v {
            Value::Str(s) => {
                let mut out = String::new();
                push_string(&mut out, s);
                out
            }
            Value::Arr(items) => {
                let inner: Vec<String> = items.iter().map(render).collect();
                format!("[{}]", inner.join(","))
            }
            Value::Obj(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| {
                        let mut out = String::new();
                        push_string(&mut out, k);
                        out.push(':');
                        out.push_str(&render(v));
                        out
                    })
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }

    #[test]
    fn document_round_trips_through_render_and_parse() {
        let doc = Value::Obj(vec![
            ("plain".into(), Value::Str("x".into())),
            (
                "escaped".into(),
                Value::Str("quote \" slash \\ nl \n tab \t ctl \u{1}".into()),
            ),
            (
                "arr".into(),
                Value::Arr(vec![
                    Value::Str(String::new()),
                    Value::Obj(vec![]),
                    Value::Arr(vec![]),
                ]),
            ),
            ("unicode".into(), Value::Str("héllo ☃".into())),
        ]);
        let text = render(&doc);
        let back = parse(&text).expect("rendered document parses");
        assert_eq!(back, doc);
        // Canonical form is stable: render(parse(render(v))) == render(v).
        assert_eq!(render(&back), text);
    }

    #[test]
    fn escape_and_push_string_agree() {
        let s = "a\"b\\c\nd\u{2}";
        let mut quoted = String::new();
        push_string(&mut quoted, s);
        assert_eq!(quoted, format!("\"{}\"", escape(s)));
        assert_eq!(escape(s), "a\\\"b\\\\c\\nd\\u0002");
    }

    #[test]
    fn parse_decodes_all_standard_escapes() {
        let v = parse(r#""q\" s\\ f\/ n\n r\r t\t u\u2603""#).unwrap();
        assert_eq!(v.as_str(), Some("q\" s\\ f/ n\n r\r t\t u☃"));
    }

    #[test]
    fn parse_prefix_returns_the_remainder() {
        let (v, rest) = parse_prefix("{\"a\":\"1\"} trailing").unwrap();
        assert_eq!(v.field("a").and_then(Value::as_str), Some("1"));
        assert_eq!(rest, " trailing");
        // The strict parser rejects the same input.
        assert!(parse("{\"a\":\"1\"} trailing")
            .unwrap_err()
            .contains("trailing data"));
    }

    #[test]
    fn prefix_parse_lands_on_char_boundaries() {
        // A multi-byte char right after the value must not split.
        let (v, rest) = parse_prefix("[\"☃\"]☃").unwrap();
        assert_eq!(v.as_array().unwrap()[0].as_str(), Some("☃"));
        assert_eq!(rest, "☃");
    }

    #[test]
    fn option_and_result_accessors_agree() {
        let obj = parse("{\"k\":[\"v\"]}").unwrap();
        assert_eq!(
            obj.as_object().map(<[_]>::len),
            obj.object_or("o").map(|f| f.len()).ok()
        );
        let arr = obj.field("k").unwrap();
        assert_eq!(arr.as_array().map(<[_]>::len), Some(1));
        assert_eq!(arr.array_or("k").unwrap().len(), 1);
        assert_eq!(
            arr.str_or("k").unwrap_err(),
            "k: expected a string".to_string()
        );
        assert_eq!(arr.as_str(), None);
        assert!(obj.array_or("case").is_err() && obj.as_array().is_none());
        assert!(arr.object_or("k").is_err() && arr.as_object().is_none());
    }

    #[test]
    fn field_helpers_round_trip_a_flat_object() {
        let mut out = String::from("{\"version\":\"1\"");
        push_field(&mut out, "seed", "0x00000000000000ff");
        push_field(&mut out, "n", "12");
        push_list(&mut out, "ns", [4, 6]);
        out.push('}');
        assert_eq!(
            out,
            "{\"version\":\"1\",\"seed\":\"0x00000000000000ff\",\"n\":\"12\",\"ns\":[\"4\",\"6\"]}"
        );
        let v = parse(&out).unwrap();
        assert_eq!(text_field(&v, "spec", "version").unwrap(), "1");
        assert_eq!(num_field::<u64>(&v, "spec", "seed").unwrap(), 255);
        assert_eq!(num_field::<usize>(&v, "spec", "n").unwrap(), 12);
        assert_eq!(list_field::<usize>(&v, "spec", "ns").unwrap(), vec![4, 6]);
        assert_eq!(
            text_field(&v, "spec", "gone").unwrap_err(),
            "spec: missing `gone`"
        );
        assert_eq!(num_field::<u8>(&v, "spec", "seed").unwrap(), 255);
        assert_eq!(
            num_field::<u8>(&v, "spec", "ns").unwrap_err(),
            "spec `ns`: expected a string"
        );
        assert!(num_field::<u64>(&v, "spec", "version").is_ok());
        assert!(list_field::<usize>(&v, "spec", "n").is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[",
            "\"unterminated",
            "{\"k\"}",
            "{\"k\":}",
            "[\"a\" \"b\"]",
            "true",
            "42",
            "\"bad \\u12\"",
            "\"bad \\q\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn object_field_lookup_preserves_source_order() {
        let v = parse("{\"b\":\"2\",\"a\":\"1\",\"b\":\"3\"}").unwrap();
        // First match wins, like the artifact readers expect.
        assert_eq!(v.field("b").and_then(Value::as_str), Some("2"));
        let fields = v.as_object().unwrap();
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
    }
}
