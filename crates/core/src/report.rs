//! Report formatting: markdown tables and CSV emission for the figure
//! harnesses, and [`Json`], the one JSON reader and writer. Every artifact
//! the workspace writes (point records, sweep manifests, the ablation
//! distillations, bench summaries) is a [`Json`] value laid out by
//! [`Json::document`], and every artifact it reads back goes through
//! [`Json::parse`]. The perf-trajectory ledgers keep a layout of their
//! own.

use std::fmt::{self, Write as _};
use std::path::Path;

/// A simple rectangular table that renders to markdown or CSV.
///
/// # Example
///
/// ```
/// use venice_ssd::report::Table;
/// let mut t = Table::new(vec!["workload".into(), "speedup".into()]);
/// t.row(vec!["hm_0".into(), "2.41".into()]);
/// let md = t.to_markdown();
/// assert!(md.contains("| hm_0 | 2.41 |"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            self.header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        for r in &self.rows {
            let _ = writeln!(s, "| {} |", r.join(" | "));
        }
        s
    }

    /// Renders as CSV (no quoting: the harness only emits identifiers and
    /// numbers).
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.header.join(","));
        for r in &self.rows {
            let _ = writeln!(s, "{}", r.join(","));
        }
        s
    }

    /// Writes the CSV beside any existing results, creating directories as
    /// needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the file write.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Formats a float with 2 decimal places (the figures' usual precision).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// JSON string literal: quotes, backslashes and control characters escaped
/// (the harness only emits identifier-like names, so in practice only the
/// quotes are added).
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out + "\""
}

/// A JSON value: a document the workspace writes (a point record, a
/// manifest, an ablation, a bench summary) is built as one and laid out by
/// [`Json::document`], and a document it reads back parses into one.
///
/// Objects keep their key order and numbers keep their source text, so a
/// `u64` counter or an `f64` reads back exactly and a parsed document
/// re-renders byte for byte; `Display` writes a value on one line
/// (`", "` and `": "`).
///
/// # Example
///
/// ```
/// use venice_ssd::report::Json;
/// let doc = Json::parse(r#"{"fabric": {"bytes": 18446744073709551615}, "p": 0.1}"#).unwrap();
/// assert_eq!(doc.get("fabric.bytes").and_then(Json::as_u64), Some(u64::MAX));
/// assert_eq!(doc.get("p").and_then(Json::as_f64), Some(0.1));
/// assert_eq!(doc.to_string(), r#"{"fabric": {"bytes": 18446744073709551615}, "p": 0.1}"#);
/// assert!(Json::parse(r#"{"fabric": {"by"#).is_err());
///
/// let built = Json::object().with("fabric", Json::object().with("bytes", u64::MAX)).with("p", 0.1);
/// assert_eq!(built, doc);
/// assert_eq!(built.document(false), "{\n  \"fabric\": {\"bytes\": 18446744073709551615},\n  \"p\": 0.1\n}\n");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object's `(key, value)` entries, in document order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (whitespace around it allowed).
    ///
    /// # Errors
    ///
    /// Names the byte offset and what was expected there for malformed or
    /// truncated input, trailing bytes, nesting deeper than 64 levels, and
    /// `\u` escapes of UTF-16 surrogates (no writer here emits `\u`
    /// escapes above U+001F). Never panics.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut reader = Reader { text, at: 0 };
        let value = reader.value(0)?;
        reader.skip_ws();
        if reader.at < text.len() {
            return Err(reader.error("the end of the document"));
        }
        Ok(value)
    }

    /// The value at `path`, a `.`-separated chain of object keys such as
    /// `"redundancy.rebuilt_pages"`; `None` when a key is missing or a step
    /// is not an object. A repeated key resolves to its first entry.
    pub fn get(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |value, key| match value {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        })
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one that is a `u64` exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number, if this is one (the closest `f64`, as Rust parses it).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// An empty object, to fill with [`Json::with`].
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// This object with `key: value` appended.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(entries) => entries.push((key.to_string(), value.into())),
            other => panic!("Json::with on a non-object {other}"),
        }
        self
    }

    /// A number with exactly `places` decimals, for the bench summaries'
    /// rounded rates and ratios; `null` for a non-finite value.
    pub fn fixed(x: f64, places: usize) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x:.places$}"))
        } else {
            Json::Null
        }
    }

    /// The value as a document, the layout of every artifact the workspace
    /// writes: a top-level object or array goes one entry per line,
    /// indented two spaces, and everything deeper stays on one line
    /// through `Display`. With `rows`, each non-empty array of a top-level
    /// object goes one item per line, indented four spaces (a manifest's
    /// point index, an ablation's points). An empty container or a scalar
    /// is one line. The text ends with a newline.
    pub fn document(&self, rows: bool) -> String {
        let text = match self {
            Json::Object(entries) if !entries.is_empty() => {
                let entry = |(key, value): &(String, Json)| match value {
                    Json::Array(items) if rows && !items.is_empty() => {
                        format!("{}: {}", json_str(key), block('[', items, ']', 4))
                    }
                    _ => format!("{}: {value}", json_str(key)),
                };
                block('{', &entries.iter().map(entry).collect::<Vec<_>>(), '}', 2)
            }
            Json::Array(items) if !items.is_empty() => block('[', items, ']', 2),
            _ => self.to_string(),
        };
        text + "\n"
    }
}

/// `items` one per line at `indent` spaces, comma-separated, between
/// `open` and a `close` two spaces left of them.
fn block(open: char, items: &[impl fmt::Display], close: char, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let lines: Vec<String> = items.iter().map(|item| format!("{pad}{item}")).collect();
    format!("{open}\n{}\n{}{close}", lines.join(",\n"), &pad[2..])
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n.to_string())
    }
}

/// Rust's shortest round-trip `Display`, so the number reads back to the
/// same `f64`; `null` for a non-finite value (JSON has no NaN or Inf).
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x.to_string())
        } else {
            Json::Null
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
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

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(text) => f.write_str(text),
            Json::Str(s) => f.write_str(&json_str(s)),
            Json::Array(items) => {
                let items: Vec<String> = items.iter().map(Json::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Json::Object(entries) => {
                let entries: Vec<String> =
                    entries.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
                write!(f, "{{{}}}", entries.join(", "))
            }
        }
    }
}

/// Nesting levels [`Json::parse`] accepts before it stops rather than
/// recurse.
const MAX_DEPTH: usize = 64;

/// [`Json::parse`]'s cursor. `at` only ever stops on a char boundary: it
/// advances past ASCII bytes, or to the next ASCII byte inside a string.
struct Reader<'a> {
    text: &'a str,
    at: usize,
}

impl Reader<'_> {
    fn error(&self, expected: &str) -> String {
        format!("malformed JSON at byte {}: expected {expected}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.at += usize::from(next);
        next
    }

    /// Consumes a run of ASCII digits, returning how many.
    fn digits(&mut self) -> usize {
        let start = self.at;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        self.at - start
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth >= MAX_DEPTH {
            return Err(self.error("at most 64 levels of nesting"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.at += 1;
                let entries = self.items(b'}', |r| {
                    let key = r.string()?;
                    r.skip_ws();
                    if !r.eat(b':') {
                        return Err(r.error("':'"));
                    }
                    Ok((key, r.value(depth + 1)?))
                })?;
                Ok(Json::Object(entries))
            }
            Some(b'[') => {
                self.at += 1;
                Ok(Json::Array(self.items(b']', |r| r.value(depth + 1))?))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("a value")),
        }
    }

    /// The comma-separated items of an array or object whose opening
    /// bracket was just consumed, through the `close` bracket.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            self.skip_ws();
            out.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(b',') {
                return Err(self.error("',' or a closing bracket"));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.text[self.at..].starts_with(word) {
            return Err(self.error("true, false or null"));
        }
        self.at += word.len();
        Ok(value)
    }

    /// `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.error("a digit"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.error("a fraction digit"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.error("an exponent digit"));
            }
        }
        Ok(Json::Num(self.text[start..self.at].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.error("'\"'"));
        }
        let mut out = String::new();
        loop {
            let start = self.at;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= b' ') {
                self.at += 1;
            }
            out.push_str(&self.text[start..self.at]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.error("a closing '\"'"));
            }
            let escaped = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let code = self
                        .text
                        .get(self.at + 1..self.at + 5)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.error("four hex digits of a non-surrogate"))?;
                    self.at += 4;
                    code
                }
                _ => return Err(self.error("an escape")),
            };
            self.at += 1;
            out.push(escaped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_and_csv_agree_on_content() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into(), "4".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a | b |"));
        assert!(md.contains("| 3 | 4 |"));
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n3,4\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_writes_to_disk() {
        let mut t = Table::new(vec!["x".into()]);
        t.row(vec!["7".into()]);
        let dir = std::env::temp_dir().join("venice-report-test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n7\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f2(2.649), "2.65");
        assert_eq!(f3(0.0004), "0.000");
    }

    #[test]
    fn reader_reads_back_exact_values() {
        let text = r#" {"f": -1.5e-7, "s": "q\"b\\s\/\n\u00e9", "t": true, "n": null,
            "a": [0, [], {}], "o": {"k": {"deep": 7}}, "o": 2} "#;
        let doc = Json::parse(text).expect("parses");
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(-1.5e-7));
        assert_eq!(doc.get("f").and_then(Json::as_u64), None);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("q\"b\\s/\n\u{e9}"));
        assert_eq!((doc.get("t"), doc.get("n")), (Some(&Json::Bool(true)), Some(&Json::Null)));
        assert_eq!(doc.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(3));
        assert_eq!(doc.get("o.k.deep").and_then(Json::as_u64), Some(7), "first entry wins");
        assert_eq!((doc.get("f.k"), doc.get("nope")), (None, None));
        let line = doc.to_string();
        assert!(line.starts_with(r#"{"f": -1.5e-7, "s": "q\"b\\s/\u000aé", "t": true, "#));
        assert_eq!(Json::parse(&line), Ok(doc));
    }

    #[test]
    fn reader_rejects_malformed_documents() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let deep = nested(MAX_DEPTH + 1);
        for bad in [
            "", " ", "{", "}", "{\"a\"}", "{\"a\": }", "{\"a\": 1,}", "{a: 1}", "[1,]", "[1 2]",
            "[1]]", "{} {}", "01", "-", "1.", "1e", "+1", ".5", "tru", "nul", "\"open", "\"\\x\"",
            "\"\\u12\"", "\"\\ud800\"", "\"tab\there\"", &deep,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    /// The layout rule: the top-level container one entry per line at two
    /// spaces, deeper values inline, and with `rows` each non-empty array
    /// of a top-level object one item per line at four spaces.
    #[test]
    fn documents_lay_out_the_top_level_only() {
        let point = |id: u64| {
            Json::object()
                .with("id", id)
                .with("tags", Json::Array(vec![]))
        };
        let points = Json::Array(vec![point(0), point(1)]);
        // A top-level array goes one item per line either way; rows only
        // reaches the arrays of a top-level object.
        let listed = "[\n  {\"id\": 0, \"tags\": []},\n  {\"id\": 1, \"tags\": []}\n]\n";
        assert_eq!(
            (points.document(true), points.document(false)),
            (listed.into(), listed.into())
        );
        let doc = Json::object()
            .with("name", "mini")
            .with(
                "grid",
                Json::object().with("fabrics", Json::Array(vec!["Venice".into()])),
            )
            .with("empty", Json::Array(vec![]))
            .with(
                "points",
                Json::Array(vec![point(0), Json::Array(vec![1u64.into(), 2u64.into()])]),
            );
        // Without rows, a top-level array of objects stays on its line.
        assert_eq!(
            doc.document(false),
            "{\n  \"name\": \"mini\",\n  \"grid\": {\"fabrics\": [\"Venice\"]},\n  \"empty\": [],\n  \
             \"points\": [{\"id\": 0, \"tags\": []}, [1, 2]]\n}\n"
        );
        // With rows, its items go one per line; arrays below the top level
        // (inside `grid`, inside each item) stay inline, and so does an
        // empty one.
        assert_eq!(
            doc.document(true),
            "{\n  \"name\": \"mini\",\n  \"grid\": {\"fabrics\": [\"Venice\"]},\n  \"empty\": [],\n  \
             \"points\": [\n    {\"id\": 0, \"tags\": []},\n    [1, 2]\n  ]\n}\n"
        );
        for (value, line) in [
            (Json::object(), "{}\n"),
            (Json::Array(vec![]), "[]\n"),
            (7u64.into(), "7\n"),
        ] {
            assert_eq!(
                (value.document(true), value.document(false)),
                (line.into(), line.into())
            );
        }
        assert_eq!(Json::parse(&doc.document(true)), Ok(doc));
    }

    /// Numbers keep the writers' rules: shortest round-trip floats, fixed
    /// decimals where asked, `null` for what JSON cannot hold.
    #[test]
    fn number_constructors_follow_the_writers_rules() {
        let texts = [
            Json::from(0.1),
            Json::from(2.0),
            Json::from(u64::MAX),
            Json::fixed(2.0456, 3),
        ]
        .map(|n| n.to_string());
        assert_eq!(texts, ["0.1", "2", "18446744073709551615", "2.046"]);
        assert_eq!(Json::fixed(578_433.4, 0).to_string(), "578433");
        for bad in [f64::NAN, f64::INFINITY] {
            assert_eq!(
                (Json::from(bad), Json::fixed(bad, 1)),
                (Json::Null, Json::Null)
            );
        }
        assert_eq!(Json::from("a\"b").to_string(), r#""a\"b""#);
        assert_eq!(Json::from(true), Json::Bool(true));
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn with_needs_an_object() {
        let _ = Json::Array(vec![]).with("k", 1u64);
    }

    /// Fuzz: every strict prefix of a point record is an error, and random
    /// byte changes either fail or read back a value that writes and reads
    /// back equal. Nothing panics.
    #[test]
    fn truncated_and_mutated_records_are_errors_not_panics() {
        let venice = venice_interconnect::FabricKind::Venice;
        let record = crate::RunMetrics::failed(venice, "hm_0", "c").to_json();
        let record = record.trim_end();
        for end in 0..record.len() {
            assert!(Json::parse(&record[..end]).is_err(), "{end}-byte prefix parsed");
        }
        let mut rng = venice_sim::rng::Xorshift64Star::new(0x15_0a);
        for _ in 0..3_000 {
            let mut bytes = record.as_bytes().to_vec();
            for _ in 0..=rng.next_bounded(3) {
                let at = rng.next_bounded(bytes.len() as u64) as usize;
                bytes[at] = rng.next_bounded(128) as u8;
            }
            let text = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            if let Ok(value) = Json::parse(&text) {
                assert_eq!(Json::parse(&value.to_string()), Ok(value), "{text}");
            }
        }
    }

    /// Every leaf of `value` with its path (`fabric.bytes`, `tenants[0].name`).
    fn leaves(value: &Json, path: String, out: &mut Vec<(String, Json)>) {
        match value {
            Json::Object(entries) => {
                entries.iter().for_each(|(k, v)| leaves(v, format!("{path}.{k}"), out));
            }
            Json::Array(items) => {
                items.iter().enumerate().for_each(|(i, v)| leaves(v, format!("{path}[{i}]"), out));
            }
            leaf => out.push((path, leaf.clone())),
        }
    }

    /// A default-off record and an armed one (chip and link faults,
    /// deadline-split tenants, full host resilience, parity) read back
    /// every field exactly: the document re-renders to the record's own
    /// text, every number reads back to the value it was written from (a
    /// `u64`, or the `f64` that `Json::from` writes as the same text), and
    /// the reads equal the `RunMetrics` fields behind them.
    #[test]
    fn run_records_read_back_field_by_field() {
        use crate::{FaultPlan, RedundancyKind, ResiliencePolicy, SsdConfig};
        use venice_interconnect::FabricKind;
        use venice_workloads::WorkloadAxis;
        let off = SsdConfig::performance_optimized();
        let armed = off
            .clone()
            .with_fault_plan(FaultPlan::ChipAndLink)
            .with_tenants(crate::TenantSet::deadline_split())
            .with_resilience(ResiliencePolicy::Full)
            .with_redundancy(RedundancyKind::Parity { group: 4 });
        let runs = [
            (off, WorkloadAxis::catalog("hm_0")),
            (armed, Some(WorkloadAxis::noisy_neighbor())),
        ];
        for (config, axis) in runs {
            let trace = axis.expect("workload").trace(150);
            let mut m = crate::run_single(&config, FabricKind::Venice, &trace);
            let armed = config.fault_plan != FaultPlan::None;
            assert_eq!(armed, m.faults_injected > 0 && m.rebuilt_pages > 0 && m.tenants.len() == 2);
            let json = m.to_json();
            let doc = Json::parse(&json).expect("record parses");
            let one_line =
                json.replace("{\n  ", "{").replace(",\n  ", ", ").replace("\n}\n", "}");
            assert_eq!(doc.to_string(), one_line);
            let mut all = Vec::new();
            leaves(&doc, String::new(), &mut all);
            assert_eq!(all.len(), 70 + 16 * m.tenants.len());
            for (path, leaf) in &all {
                if let Json::Num(_) = leaf {
                    let back = leaf.as_u64().map(Json::from);
                    let back = back.or_else(|| leaf.as_f64().map(Json::from));
                    assert_eq!(back.as_ref(), Some(leaf), "{path}");
                }
            }
            let p99 = m.p99().as_nanos();
            let (fb, ftl, t) = (&m.fabric, &m.ftl, &m.tenants[m.tenants.len() - 1]);
            let counters = [
                ("execution_time_ns", m.execution_time.as_nanos()), ("latency.p99_ns", p99),
                ("fabric.bytes", fb.bytes), ("fabric.scout_steps", fb.scout_steps),
                ("ftl.user_writes", ftl.user_writes), ("hil.fetched", m.hil.fetched),
                ("dispatch.rounds", m.dispatch.rounds), ("faults.injected", m.faults_injected),
                ("resilience.deadline_met", m.deadline_met_requests),
                ("redundancy.rebuilt_pages", m.rebuilt_pages), ("events", m.events),
                ("end_time_ns", m.end_time.as_nanos()),
            ];
            for (path, value) in counters {
                assert_eq!(doc.get(path).and_then(Json::as_u64), Some(value), "{path}");
            }
            let floats = [
                ("iops", m.iops()), ("conflict_pct", m.conflict_pct()), ("energy_mj", m.energy_mj),
                ("avg_power_mw", m.avg_power_mw),
                ("fabric.transfer_energy_nj", fb.transfer_energy_nj),
                ("ftl.write_amplification", ftl.write_amplification()),
                ("fairness_index", m.fairness_index()), ("faults.availability", m.availability()),
                ("resilience.goodput", m.goodput()),
            ];
            for (path, value) in floats {
                let read = doc.get(path).and_then(Json::as_f64).map(f64::to_bits);
                assert_eq!(read, Some(value.to_bits()), "{path}");
            }
            let last = doc.get("tenants").and_then(Json::as_array).and_then(|t| t.last());
            let tenant = |key| last.and_then(|l| l.get(key)).cloned();
            assert_eq!(tenant("name"), Some(Json::Str(t.name.to_string())));
            assert_eq!(tenant("p99_ns").and_then(|v| v.as_u64()), Some(t.p99().as_nanos()));
            assert_eq!(doc.get("status").and_then(Json::as_str), Some(m.status.label()));
        }
    }
}
