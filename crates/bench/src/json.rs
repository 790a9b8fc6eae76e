//! The trajectory document format: one writer, `render`, and one
//! reader, `read`, for exactly the layout the writer emits — the layout
//! of the three `BENCH_*.json` files and the sweep report:
//!
//! ```text
//! {
//!   "schema": "gcl-bench/sim-throughput/v2",
//!   "mode": "full",
//!   "rows": [
//!     {"scenario": "flood_n16", "n": 16, "events_per_sec": 87179.5},
//!     {"scenario": "flood_n64", "n": 64, "events_per_sec": 421479.2}
//!   ]
//! }
//! ```
//!
//! That is valid JSON, so any JSON tool reads it. `read` accepts the
//! layout and nothing else — one scalar header member per line, one flat
//! row per line with members separated by `", "`, no other whitespace, no
//! number form or string escape the writer does not produce — so it
//! defines the format rather than parsing JSON. Its errors name the line,
//! and no input makes it panic.

use std::fmt::Write as _;

/// One scalar of a read document.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as `f64` (the bench files' integers stay below 2^53).
    Number(f64),
    /// A string.
    String(String),
}

/// One flat object of a read document — a row, or the header: its
/// members in file order, no key twice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(Vec<(String, Value)>);

impl Row {
    /// Member `key`, if present.
    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The member keys, in file order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(k, _)| k.as_str())
    }

    /// Member `key`'s string payload.
    pub(crate) fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Member `key` truncated to `u64` (row counters and ns fields).
    pub(crate) fn u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Value::Number(x) => Some(*x as u64),
            _ => None,
        }
    }
}

/// A writable JSON scalar: one cell of a row, or a header member.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// An unsigned integer, rendered exactly (no `f64` precision loss).
    U64(u64),
    /// A float rendered with one decimal (rates like events/sec).
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
}

/// One field of a row or of the document header.
pub(crate) type Field = (&'static str, JVal);

/// Escapes `\`, `"` and every control character (named escapes for
/// newline, tab and carriage return, `\u00xx` otherwise) so arbitrary
/// labels can't produce a document a conforming parser rejects.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        let _ = match c {
            '\\' | '"' => write!(out, "\\{c}"),
            '\n' => write!(out, "\\n"),
            '\t' => write!(out, "\\t"),
            '\r' => write!(out, "\\r"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32),
            c => write!(out, "{c}"),
        };
    }
    out
}

/// `"key": value`.
fn member((key, val): &Field) -> String {
    let val = match val {
        JVal::U64(x) => x.to_string(),
        JVal::F1(x) => format!("{x:.1}"),
        JVal::Str(s) => format!("\"{}\"", escape(s)),
        JVal::Bool(b) => b.to_string(),
        JVal::Null => "null".into(),
    };
    format!("\"{}\": {val}", escape(key))
}

/// Renders a document: the `schema` tag and the `top` members one per
/// line, then one row per line.
pub(crate) fn render(tag: &str, top: &[Field], rows: impl Iterator<Item = Vec<Field>>) -> String {
    let mut out = format!("{{\n  \"schema\": \"{}\",\n", escape(tag));
    for field in top {
        let _ = writeln!(out, "  {},", member(field));
    }
    out.push_str("  \"rows\": [");
    for (i, row) in rows.enumerate() {
        let cells: Vec<String> = row.iter().map(member).collect();
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    {{{}}}", cells.join(", "));
    }
    out + "\n  ]\n}\n"
}

/// Reads a document [`render`] wrote: its header (the `schema` tag and
/// the `top` members) and its rows.
///
/// # Errors
///
/// `line N: …` for the first line that breaks the layout.
pub(crate) fn read(text: &str) -> Result<(Row, Vec<Row>), String> {
    let at = |i: usize, e: &str| format!("line {}: {e}", i + 1);
    let mut lines: Vec<&str> = text.split('\n').collect();
    if lines.pop() != Some("") {
        return Err(at(lines.len(), "no final newline"));
    }
    let line = |i: usize| lines.get(i).copied().ok_or_else(|| at(i, "ends early"));
    if line(0)? != "{" {
        return Err(at(0, "expected `{`"));
    }
    let mut head = Row::default();
    let mut i = 1;
    while line(i)? != "  \"rows\": [" {
        let l = line(i)?;
        let inner = l.strip_prefix("  ").and_then(|l| l.strip_suffix(','));
        let mut c = Cursor(inner.ok_or_else(|| at(i, "expected `  \"key\": value,`"))?);
        c.member(&mut head).map_err(|e| at(i, &e))?;
        if !c.0.is_empty() {
            return Err(at(i, "expected one member per header line"));
        }
        i += 1;
    }
    let (mut rows, mut comma) = (Vec::new(), true);
    loop {
        i += 1;
        let l = line(i)?;
        if l == "  ]" {
            if comma && !rows.is_empty() {
                return Err(at(i - 1, "trailing comma after the last row"));
            }
            break;
        }
        if !comma {
            return Err(at(i, "expected `  ]` after a row without a comma"));
        }
        comma = l.ends_with("},");
        let end = if comma { "}," } else { "}" };
        let inner = l.strip_prefix("    {").and_then(|l| l.strip_suffix(end));
        let mut c = Cursor(inner.ok_or_else(|| at(i, "expected `    {…}`"))?);
        let mut row = Row::default();
        while !c.0.is_empty() {
            if !row.0.is_empty() {
                c.expect(", ").map_err(|e| at(i, &e))?;
            }
            c.member(&mut row).map_err(|e| at(i, &e))?;
        }
        rows.push(row);
    }
    if line(i + 1)? != "}" || lines.len() != i + 2 {
        return Err(at(i + 1, "expected `}` and the end of the document"));
    }
    Ok((head, rows))
}

/// The unread rest of one line.
struct Cursor<'a>(&'a str);

impl Cursor<'_> {
    fn expect(&mut self, lit: &str) -> Result<(), String> {
        let rest = self.0.strip_prefix(lit);
        self.0 = rest.ok_or_else(|| format!("expected `{lit}`"))?;
        Ok(())
    }

    /// `"key": value`, appended to `row`.
    fn member(&mut self, row: &mut Row) -> Result<(), String> {
        let key = self.string()?;
        self.expect(": ")?;
        let value = if self.0.starts_with('"') {
            Value::String(self.string()?)
        } else {
            self.scalar()?
        };
        if row.get(&key).is_some() {
            return Err(format!("duplicate member {key:?}"));
        }
        row.0.push((key, value));
        Ok(())
    }

    /// `null`, a boolean, or a number as `U64` or `F1` writes it.
    fn scalar(&mut self) -> Result<Value, String> {
        let (token, rest) = self.0.split_at(self.0.find(", ").unwrap_or(self.0.len()));
        let f1 = |x: &f64| x.is_finite() && format!("{x:.1}") == token;
        let number = match token.parse::<u64>() {
            Ok(x) if x.to_string() == token => Some(x as f64),
            _ => token.parse().ok().filter(f1),
        };
        self.0 = rest;
        Ok(match (token, number) {
            ("null", _) => Value::Null,
            ("true" | "false", _) => Value::Bool(token == "true"),
            (_, Some(x)) => Value::Number(x),
            _ => return Err(format!("expected a scalar, found {token:?}")),
        })
    }

    /// A string carrying only the escapes [`escape`] writes.
    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        let mut chars = self.0.char_indices();
        while let Some((i, c)) = chars.next() {
            out.push(match c {
                '"' => {
                    self.0 = &self.0[i + 1..];
                    return Ok(out);
                }
                '\\' => {
                    // Accepted iff `escape` writes exactly it for some character.
                    let mut escaped = ['\\', '"'].into_iter().chain((0u8..0x20).map(char::from));
                    let c = escaped
                        .find(|c| self.0[i..].starts_with(&escape(&c.to_string())))
                        .ok_or("an escape the writer never emits")?;
                    // The rest of the escape, all ASCII.
                    chars.nth(escape(&c.to_string()).len() - 2);
                    c
                }
                c if c < ' ' => return Err(format!("raw control character {c:?} in a string")),
                c => c,
            });
        }
        Err("unterminated string".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use JVal::{Bool, Null, Str, F1, U64};

    /// Two rows, the first one's `x` written as `x`.
    fn doc(x: &str) -> String {
        let row = |name: &str| vec![("name", Str(name.into())), ("x", U64(1))];
        let text = render("s", &[("m", Null)], [row("a"), row("b")].into_iter());
        text.replacen("\"x\": 1", &format!("\"x\": {x}"), 1)
    }

    #[test]
    fn parses_scalars() {
        let x = |x: &str| read(&doc(x)).map(|(_, rows)| rows[0].get("x").cloned());
        assert_eq!(x("null"), Ok(Some(Value::Null)));
        assert_eq!(x("true"), Ok(Some(Value::Bool(true))));
        assert_eq!(x("-0.5"), Ok(Some(Value::Number(-0.5))));
        // Number forms JSON allows but `U64` and `F1` never write.
        for bad in ["1e-5", "01", "1.", "1.25", ".5", "+1", "NaN", "-"] {
            assert!(x(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_malformed() {
        let one_line = "{\"schema\": \"s\", \"rows\": []}\n";
        for bad in ["", "{", "{\n", "{\n}\n", "[]\n", one_line] {
            assert!(read(bad).is_err(), "{bad:?}");
        }
        // Other whitespace, separator or line breaks; a key twice.
        for (from, to) in [(" 1}", "  1}"), (": 1}", ":1}"), ("},", "},\n")] {
            assert!(read(&doc("1").replacen(from, to, 1)).is_err(), "{to:?}");
        }
        assert!(read(&doc("1, \"x\": 2")).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn rows_doc_round_trips_through_parser() {
        let mut hostile: String = (0u8..0x20).map(char::from).collect();
        hostile.push_str("\"\\, }{é");
        let s = Value::String(hostile.clone());
        let cells = [
            ("k\"ey, }{\n", Str(hostile.clone()), s),
            ("u", U64(1 << 53), Value::Number(9_007_199_254_740_992.0)),
            ("f", F1(123.456), Value::Number(123.5)),
            ("t", Bool(true), Value::Bool(true)),
            ("n", Null, Value::Null),
        ];
        let row = cells.iter().map(|(k, v, _)| (*k, v.clone())).collect();
        let top = [("h", Str(hostile.clone()))];
        let (head, rows) = read(&render(&hostile, &top, [row].into_iter())).unwrap();
        assert_eq!([head.str("schema"), head.str("h")], [Some(&*hostile); 2]);
        let want = cells.into_iter().map(|(k, _, v)| (k.to_string(), v));
        assert_eq!(rows, [Row(want.collect())]);
    }

    #[test]
    fn control_characters_escape_and_round_trip() {
        // A hostile bench id with an ANSI escape and a backspace must
        // still render into a document a strict parser accepts.
        let hostile = "evil\u{1b}[31m\u{8}name";
        let text = render("s", &[("x", Str(hostile.into()))], std::iter::empty());
        let raw = text.contains(['\u{1b}', '\u{8}']);
        assert!(!raw, "raw control bytes in {text:?}");
        assert_eq!(read(&text).unwrap().0.str("x"), Some(hostile));
    }

    #[test]
    fn rows_doc_empty_rows_is_valid() {
        let text = render("s", &[], std::iter::empty());
        assert_eq!(text, "{\n  \"schema\": \"s\",\n  \"rows\": [\n  ]\n}\n");
        assert_eq!(read(&text).unwrap().1, []);
    }

    #[test]
    fn every_prefix_and_one_more_byte_is_rejected() {
        let text = doc("\"é\\u0001\"");
        assert!(read(&text).is_ok());
        for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
            assert!(read(&text[..end]).is_err(), "{:?}", &text[..end]);
        }
        for extra in [" ", "\n", "}", "x", "\0"] {
            assert!(read(&format!("{text}{extra}")).is_err(), "{extra:?}");
        }
    }

    #[test]
    fn shapes_and_escapes_the_writer_never_emits_are_rejected() {
        let esc = "line 5: an escape";
        for (x, why) in [
            ("\"\u{1}\"", "line 5: raw control character"),
            ("\"\\/\"", esc),
            ("\"\\b\"", esc),
            ("\"\\u0041\"", esc),
            ("\"\\u000a\"", esc),
            ("[1]", "line 5: expected a scalar"),
            ("{\"y\": 1}", "line 5: expected a scalar"),
        ] {
            assert!(read(&doc(x)).unwrap_err().starts_with(why), "{x:?}");
        }
        let err = read(&doc("1").replace("}\n  ]", "},\n  ]")).unwrap_err();
        assert!(err.starts_with("line 6: trailing comma"), "{err}");
        let late = doc("1").replace("  ]\n", "  ]\n  \"late\": 1,\n");
        assert!(read(&late).unwrap_err().starts_with("line 8: expected `}`"));
    }
}
