//! A minimal JSON reader and the one writer for the bench trajectory
//! files.
//!
//! The container builds offline (no `serde_json`), and the CI smoke job
//! must detect a malformed `BENCH_sim.json`, so this is a small strict
//! recursive-descent parser for the full JSON grammar (including `\uXXXX`
//! escapes with surrogate pairs). Swap for `serde_json` when a registry
//! is reachable.
//!
//! Every trajectory document the workspace emits — the three
//! `BENCH_*.json` files and the sweep report — is the same
//! *schema-plus-rows* shape, written by `RowsDoc` on behalf of
//! [`crate::trajectory::Schema::render`] and read back by [`parse`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as `f64`; the bench files stay well within
    /// `f64`'s 2^53 integer range).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (keys ordered for determinism).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object member `k`, if this is an object containing it.
    pub fn field(&self, k: &str) -> Option<&Value> {
        self.as_object()?.get(k)
    }

    /// Object member `k`'s string payload — the one row-reader idiom for
    /// every schema-plus-rows document.
    pub fn field_str(&self, k: &str) -> Option<&str> {
        self.field(k)?.as_str()
    }

    /// Object member `k` truncated to `u64` (row counters and ns fields).
    pub fn field_u64(&self, k: &str) -> Option<u64> {
        self.field(k)?.as_f64().map(|x| x as u64)
    }

    /// Object member `k` as a boolean.
    pub fn field_bool(&self, k: &str) -> Option<bool> {
        self.field(k)?.as_bool()
    }
}

/// A writable JSON scalar: one cell of a row, or a header member.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// An unsigned integer, rendered exactly (no `f64` precision loss).
    U64(u64),
    /// A float rendered with one decimal (the trajectory format for
    /// rates like events/sec).
    F1(f64),
    /// A string (escaped on render).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null` (e.g. "no latency: not every honest party committed").
    Null,
}

impl JVal {
    /// An optional counter: `null` when nothing was measured.
    pub(crate) fn opt_u64(v: Option<u64>) -> JVal {
        v.map_or(JVal::Null, JVal::U64)
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JVal::U64(x) => {
                let _ = write!(out, "{x}");
            }
            JVal::F1(x) => {
                let _ = write!(out, "{x:.1}");
            }
            JVal::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            JVal::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JVal::Null => out.push_str("null"),
        }
    }
}

/// Escapes `\`, `"` and every control character (named escapes where JSON
/// has them, `\u00XX` otherwise) so arbitrary labels can't produce a
/// document a conforming parser rejects.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            other => out.push(other),
        }
    }
    out
}

/// One field of a row or of the document header.
pub type Field = (&'static str, JVal);

/// The *schema-plus-rows* document writer: a `schema` string, optional
/// scalar header fields, and an array of flat rows, one row per line.
/// Output round-trips through [`parse`]. Reached from outside the crate
/// through [`crate::trajectory::Schema::render`], which names the columns.
///
/// # Examples
///
/// ```
/// use gcl_bench::json::{parse, JVal};
/// use gcl_bench::trajectory::{col, Schema};
///
/// static EXAMPLE: Schema = Schema {
///     tag: "gcl-bench/example/v1",
///     columns: &[col("name").key(), col("x")],
///     coverage: |_| Ok(()),
/// };
/// let rows = [vec![JVal::Str("a".into()), JVal::U64(1)]];
/// let text = EXAMPLE.render(vec![("mode", JVal::Str("quick".into()))], rows.into_iter());
/// assert!(parse(&text).is_ok());
/// assert_eq!(EXAMPLE.check(&text), Ok(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowsDoc {
    schema: &'static str,
    top: Vec<Field>,
    rows: Vec<Vec<Field>>,
}

impl RowsDoc {
    /// An empty document carrying `schema`.
    pub(crate) fn new(schema: &'static str) -> Self {
        RowsDoc {
            schema,
            top: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Appends a scalar header field (rendered between `schema` and
    /// `rows`).
    pub(crate) fn top(&mut self, key: &'static str, val: JVal) -> &mut Self {
        self.top.push((key, val));
        self
    }

    /// Appends one row.
    pub(crate) fn row(&mut self, fields: Vec<Field>) -> &mut Self {
        self.rows.push(fields);
        self
    }

    /// Renders the document (pretty header, one row per line — the exact
    /// layout of every committed trajectory file).
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{}\",", escape(self.schema));
        for (key, val) in &self.top {
            let _ = write!(out, "  \"{}\": ", escape(key));
            val.render_into(&mut out);
            out.push_str(",\n");
        }
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {");
            for (j, (key, val)) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": ", escape(key));
                val.render_into(&mut out);
            }
            out.push('}');
            out.push_str(if i + 1 == self.rows.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Parses `text` as one JSON document (trailing garbage is an error).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => s.push(self.unicode_escape()?),
                        other => {
                            return Err(format!("unsupported escape \\{}", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let ch = std::str::from_utf8(rest)
                        .map_err(|e| e.to_string())?
                        .chars()
                        .next()
                        .expect("peek saw a byte");
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (the `\u` is consumed),
    /// combining a UTF-16 surrogate pair into one scalar when present.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        match unit {
            0xD800..=0xDBFF => {
                // High surrogate: a low surrogate must follow.
                if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return Err(format!("invalid low surrogate {low:04x}"));
                    }
                    let scalar =
                        0x10000 + ((u32::from(unit) - 0xD800) << 10) + (u32::from(low) - 0xDC00);
                    char::from_u32(scalar).ok_or_else(|| "invalid surrogate pair".to_string())
                } else {
                    Err(format!("lone high surrogate \\u{unit:04x}"))
                }
            }
            0xDC00..=0xDFFF => Err(format!("lone low surrogate \\u{unit:04x}")),
            _ => char::from_u32(u32::from(unit)).ok_or_else(|| "invalid scalar".to_string()),
        }
    }

    /// Reads exactly four hex digits (`from_str_radix` alone would also
    /// accept a leading `+`, which JSON forbids).
    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or("truncated \\u escape")?;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("invalid \\u escape {digits:?}"));
        }
        let v = u16::from_str_radix(digits, 16)
            .map_err(|_| format!("invalid \\u escape {digits:?}"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Greedily take every byte a JSON number may contain (including
        // exponent signs); `f64::parse` rejects malformed arrangements.
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(parse("1e-5").unwrap(), Value::Number(1e-5));
        assert!(parse("1-2").is_err(), "embedded minus is not a number");
        assert_eq!(
            parse("\"a\\nb\"").unwrap(),
            Value::String("a\nb".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"rows": [{"x": 1, "ok": true}, {"x": 2}], "s": "hi"}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("s").unwrap().as_str(), Some("hi"));
        let rows = obj.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[1].as_object().unwrap().get("x").unwrap().as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["{", "[1,]", "{\"a\": }", "1 2", "\"open", "{\"a\" 1}", ""] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(BTreeMap::new()));
    }

    #[test]
    fn rows_doc_round_trips_through_parser() {
        let mut doc = RowsDoc::new("gcl-bench/test/v1");
        doc.top("mode", JVal::Str("full".into()))
            .top("threads", JVal::U64(4));
        doc.row(vec![
            ("name", JVal::Str("a \"quoted\"\nname".into())),
            ("events", JVal::U64(u64::MAX)),
            ("rate", JVal::F1(123.456)),
            ("ok", JVal::Bool(true)),
            ("latency", JVal::Null),
        ]);
        doc.row(vec![("name", JVal::Str("b".into()))]);
        let text = doc.render();
        let v = parse(&text).expect("round trip");
        let obj = v.as_object().unwrap();
        assert_eq!(
            obj.get("schema").unwrap().as_str(),
            Some("gcl-bench/test/v1")
        );
        assert_eq!(obj.get("mode").unwrap().as_str(), Some("full"));
        assert_eq!(obj.get("threads").unwrap().as_f64(), Some(4.0));
        let rows = obj.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        let r0 = rows[0].as_object().unwrap();
        assert_eq!(r0.get("name").unwrap().as_str(), Some("a \"quoted\"\nname"));
        assert_eq!(r0.get("rate").unwrap().as_f64(), Some(123.5));
        assert_eq!(r0.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(r0.get("latency"), Some(&Value::Null));
    }

    #[test]
    fn unicode_escapes_parse_including_surrogate_pairs() {
        assert_eq!(
            parse("\"\\u0041\\u00e9\"").unwrap(),
            Value::String("Aé".to_string())
        );
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::String("😀".to_string())
        );
        assert!(parse("\"\\ud83d\"").is_err(), "lone high surrogate");
        assert!(parse("\"\\udc00\"").is_err(), "lone low surrogate");
        assert!(parse("\"\\u12g4\"").is_err(), "bad hex digit");
        assert!(parse("\"\\u12\"").is_err(), "truncated escape");
        assert!(parse("\"\\u+0ff\"").is_err(), "leading '+' is not hex");
        assert_eq!(
            parse("\"\\b\\f\"").unwrap(),
            Value::String("\u{8}\u{c}".to_string())
        );
    }

    #[test]
    fn control_characters_escape_and_round_trip() {
        // A hostile bench id with an ANSI escape and a backspace must
        // still render into a document a strict parser accepts.
        let hostile = "evil\u{1b}[31m\u{8}name";
        let mut doc = RowsDoc::new("s");
        doc.row(vec![("name", JVal::Str(hostile.to_string()))]);
        let text = doc.render();
        assert!(
            !text.contains('\u{1b}') && !text.contains('\u{8}'),
            "raw control bytes must not reach the document"
        );
        let v = parse(&text).expect("round trip");
        let rows = v.as_object().unwrap().get("rows").unwrap();
        let row = rows.as_array().unwrap()[0].as_object().unwrap();
        assert_eq!(row.get("name").unwrap().as_str(), Some(hostile));
    }

    #[test]
    fn rows_doc_empty_rows_is_valid() {
        let doc = RowsDoc::new("s");
        let v = parse(&doc.render()).unwrap();
        assert_eq!(
            v.as_object().unwrap().get("rows").unwrap().as_array(),
            Some(&[][..])
        );
    }
}
