//! A minimal JSON value with writer and parser.
//!
//! The bench telemetry (`BENCH_*.json`) and the Chrome trace export
//! need to *emit* JSON, and `benchmark/` and the tests need to *read* it
//! back; serde is unavailable offline, and the schema is small enough
//! that a ~200-line value type is the simpler dependency anyway.
//!
//! Objects preserve insertion order (a `Vec` of pairs, not a map) so
//! emitted files are deterministic and diff-friendly: the compact form
//! (`to_string`) for the Chrome trace, the indented one
//! ([`Json::pretty`]) for the committed baselines.

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact; cycle counters are u64-sized but the
    /// simulator's counts stay well inside i64).
    Int(i64),
    /// A float (written with enough precision to round-trip).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::from(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

/// Builds an object from `(key, value)` pairs — the envelope helper.
#[must_use]
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Serializes the value as compact JSON (use via `.to_string()`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// Starts a line at nesting `depth` in the indented form; nothing in
/// the compact one.
fn newline(out: &mut String, depth: Option<usize>) {
    if let Some(depth) = depth {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

impl Json {
    /// Serializes the value indented: one object key or array element
    /// per line, two spaces per nesting level, insertion order kept —
    /// the form of the committed `BENCH_*.json` baselines, where a
    /// changed number is a one-line `git diff`.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Writes the value; `depth` is the nesting level of the indented
    /// form, `None` for the compact one.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let inner = depth.map(|d| d + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips (and always includes a '.' or 'e').
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_escaped(k, out);
                    out.push_str(if depth.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    /// Returns a message with the byte offset of the first syntax error,
    /// or of the array or object that nests deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` on non-objects / missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float (integers coerce).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level, so the bound keeps hostile
/// input from exhausting the host's stack; the committed baselines nest
/// at most nine levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses an array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
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
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one slice. Both delimiters are ASCII, so the run
                    // starts and ends on char boundaries of the `&str`
                    // input and needs no re-validation.
                    let rest = &self.bytes()[self.pos..];
                    let len =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    s.push_str(&self.text[self.pos..self.pos + len]);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>().map(Json::Float).map_err(|e| e.to_string())
        } else {
            text.parse::<i64>().map(Json::Int).map_err(|e| e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_an_envelope() {
        let doc = obj(vec![
            ("bench", Json::from("system")),
            ("pi", Json::Float(3.25)),
            ("n", Json::from(42u64)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("rows", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back, doc);
        assert_eq!(back.get("bench").and_then(Json::as_str), Some("system"));
        assert_eq!(back.get("n").and_then(Json::as_int), Some(42));
        assert_eq!(back.get("rows").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    fn nested_doc() -> Json {
        obj(vec![
            ("bench", Json::from("system")),
            ("rows", Json::Arr(vec![obj(vec![("cycles", Json::Int(7))]), Json::Float(0.5)])),
            ("empty", obj(vec![("arr", Json::Arr(Vec::new())), ("obj", obj(Vec::new()))])),
            ("note", Json::from("a \"b\"\n")),
        ])
    }

    #[test]
    fn indented_form_is_pinned() {
        let golden = r#"{
  "bench": "system",
  "rows": [
    {
      "cycles": 7
    },
    0.5
  ],
  "empty": {
    "arr": [],
    "obj": {}
  },
  "note": "a \"b\"\n"
}"#;
        assert_eq!(nested_doc().pretty(), golden);
    }

    #[test]
    fn both_forms_round_trip() {
        let doc = nested_doc();
        assert_eq!(Json::parse(&doc.pretty()).expect("parse indented"), doc);
        assert_eq!(Json::parse(&doc.to_string()).expect("parse compact"), doc);
    }

    #[test]
    fn escapes_and_parses_strings() {
        let doc = Json::Str("a \"b\"\n\\t\u{1}".into());
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).expect("parse"), doc);
    }

    /// The string parser copies the run between two delimiters in one
    /// slice, so a run boundary falls next to every escape: multi-byte
    /// scalars on both sides of each must survive both directions.
    #[test]
    fn multibyte_text_next_to_every_escape_round_trips() {
        let text = r#""é\"€\\𝄞\/é\n€\r𝄞\té\b€\f𝄞\u00e9é\u0001€""#;
        let want = "é\"€\\𝄞/é\n€\r𝄞\té\u{8}€\u{c}𝄞éé\u{1}€";
        let parsed = Json::parse(text).expect("parse");
        assert_eq!(parsed, Json::Str(want.into()));
        assert_eq!(Json::parse(&parsed.to_string()).expect("reparse"), parsed);
        assert!(Json::parse("\"é").is_err(), "unterminated after a multi-byte scalar");
    }

    /// Parsing is linear in the document: a trace-shaped array of more
    /// than 2 MB of short strings parses inside the test suite (it took
    /// minutes while every string character re-validated the rest of
    /// the input).
    #[test]
    fn parses_a_two_megabyte_document_of_short_strings() {
        let events: Vec<Json> = (0..60_000u64)
            .map(|i| {
                obj(vec![
                    ("name", Json::from("c0/lane 1 → é")),
                    ("ph", Json::from("X")),
                    ("ts", Json::from(i)),
                ])
            })
            .collect();
        let doc = Json::Arr(events);
        let text = doc.to_string();
        assert!(text.len() >= 2 << 20, "{} bytes", text.len());
        assert_eq!(Json::parse(&text).expect("parse"), doc);
    }

    #[test]
    fn floats_round_trip_shortest() {
        let text = Json::Float(0.1).to_string();
        assert_eq!(text, "0.1");
        assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(0.1));
        // Whole floats keep a distinguishing dot.
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse("").is_err());
    }

    /// A million unclosed levels come back as an error at the level past
    /// [`MAX_DEPTH`] instead of overflowing the stack.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let too_deep = |opener: &str| {
            let err = Json::parse(&opener.repeat(1 << 20)).expect_err("must be refused");
            let at = format!("at byte {}", MAX_DEPTH * opener.len());
            assert!(err.contains("nesting deeper than 128 levels") && err.ends_with(&at), "{err}");
        };
        too_deep("[");
        too_deep("{\"a\":");
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok(), "{MAX_DEPTH} levels are within the bound");
    }

    /// Every committed baseline stays within the nesting bound.
    #[test]
    fn committed_baselines_parse() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines");
        let mut parsed = 0;
        for entry in std::fs::read_dir(dir).expect("baselines directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            // The per-cycle trace is regenerated, not committed.
            if name.ends_with(".json") && !name.ends_with(".trace.json") {
                let text = std::fs::read_to_string(&path).expect("readable baseline");
                Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                parsed += 1;
            }
        }
        assert!(parsed >= 5, "only {parsed} baselines found in {dir}");
    }

    #[test]
    fn nan_becomes_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }
}
