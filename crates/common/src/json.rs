//! The workspace's hand-rolled JSON value model and parser.
//!
//! The build environment is hermetic (no serde), so this module carries a
//! deliberately tiny JSON document model ([`Json`]) and serializer —
//! objects preserve insertion order, strings are escaped per RFC 8259,
//! floats print in Rust's shortest round-trip form. It started life as
//! the artifact writer in `dmt-runner` and moved here so crates below
//! the runner in the dependency graph (the observability layer, the
//! cycle engines) can emit and consume the same documents;
//! `dmt_runner::artifact::Json` re-exports it, so the rendered bytes of
//! every existing artifact are unchanged.
//!
//! [`Json::parse`] is one linear pass over its input. The input is a
//! `&str`, so it is valid UTF-8 already and the parser never validates
//! it again: each run of string content between delimiters is copied
//! out with one slice and one `push_str`. Parse time therefore grows
//! with document size, not with its square — the result cache and
//! `dmt-serve` parse multi-kilobyte entries on every warm hit.

use std::fmt::Write as _;

/// A JSON document: the minimal value model the artifact writer needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (all counters are u64).
    U64(u64),
    /// A float, serialized in shortest round-trip form.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a key to an object (panics on non-objects — construction
    /// bugs, not data).
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(entries) => entries.push((key.to_owned(), value.into())),
            _ => panic!("Json::with on a non-object"),
        }
        self
    }

    /// Serializes with two-space indentation and a trailing newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes onto a single line with no whitespace — the wire
    /// format of line-delimited protocols (`dmt-serve`), where a
    /// newline terminates the message. Scalars render exactly as in
    /// [`Json::render`], so `parse ∘ render_compact = id` too.
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    // `{}` on f64 is shortest-round-trip but renders
                    // integral values without a decimal point; keep them
                    // unambiguously floats at any magnitude ({:.1} is the
                    // exact decimal expansion, so parse() recovers the
                    // same bits — a bare integer spelling would come back
                    // as U64 instead).
                    if x.fract() == 0.0 {
                        let _ = write!(out, "{x:.1}");
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    // JSON has no NaN/Inf; null is the conventional spelling.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parses a JSON document (the inverse of [`Json::render`]).
    ///
    /// The grammar is RFC 8259 minus nothing the writer emits: objects,
    /// arrays, strings (with escapes), numbers, booleans and `null`.
    /// Non-negative integers without a fraction or exponent parse as
    /// [`Json::U64`]; every other number parses as [`Json::F64`] — the
    /// exact split the writer produces, so `parse(render(doc)) == doc`
    /// for any document the writer can emit (NaN/Inf excepted: the
    /// writer spells them `null`, which stays `null`).
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset for malformed input —
    /// callers (the result cache) treat any error as a miss. Arrays and
    /// objects nested more than 128 deep are rejected the same way, so
    /// untrusted input cannot exhaust the stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object (`None` on non-objects and missing
    /// keys; first match wins, as in the writer's insertion order).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float (unsigned integers coerce losslessly where
    /// they fit `f64`'s 53-bit mantissa; larger ones do not coerce).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) if *n <= (1u64 << 53) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// How deeply arrays and objects may nest. The writer's deepest document
/// is a handful of levels; the bound keeps a hostile `[[[[…` line from
/// overflowing the stack of the recursive descent.
const MAX_DEPTH: usize = 128;

/// Recursive-descent parser over the input text. JSON structure is
/// ASCII, so every position the parser stops at — a structural byte, a
/// string delimiter, the end of an escape — is a char boundary of the
/// (already valid UTF-8) `text`, and string runs are copied out by
/// slicing it.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Open arrays and objects around `pos`.
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
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

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out = String::new();
        loop {
            // Copy everything up to the next delimiter in one go. Both
            // delimiters are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| format!("unterminated string at byte {start}"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            let esc = self
                .peek()
                .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => out.push(self.unicode_escape()?),
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            }
        }
    }

    /// Four hex digits of a `\u` escape (ASCII only, so the position
    /// after them stays a char boundary).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let mut v = 0;
        for &b in digits {
            let d = char::from(b)
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            v = (v << 4) | d;
        }
        self.pos += 4;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a low surrogate escape must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(format!("unpaired surrogate before byte {}", self.pos));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            } else {
                return Err(format!("unpaired surrogate before byte {}", self.pos));
            }
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| format!("invalid scalar before byte {}", self.pos))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if float || text.starts_with('-') {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|_| format!("bad number at byte {start}"))
        } else {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
        Json::U64(v.into())
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
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

/// Writes any [`Json`] document to `path`, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json(path: &std::path::Path, doc: &Json) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escapes_and_numbers() {
        let doc = Json::obj()
            .with("s", "a\"b\\c\nd")
            .with("i", 42u64)
            .with("f", 1.5)
            .with("whole", 2.0)
            .with("nan", f64::NAN)
            .with("arr", vec![Json::U64(1), Json::Null])
            .with("empty", Json::obj());
        let text = doc.render();
        assert!(text.contains(r#""s": "a\"b\\c\nd""#), "{text}");
        assert!(text.contains("\"i\": 42"), "{text}");
        assert!(text.contains("\"f\": 1.5"), "{text}");
        assert!(text.contains("\"whole\": 2.0"), "{text}");
        assert!(text.contains("\"nan\": null"), "{text}");
        assert!(text.contains("\"empty\": {}"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
    }

    #[test]
    fn compact_rendering_is_one_line_and_round_trips() {
        let doc = Json::obj()
            .with("verb", "status")
            .with("f", 2.0)
            .with("arr", vec![Json::U64(1), Json::Null])
            .with("nested", Json::obj().with("k", "v\n"))
            .with("empty", Json::Arr(Vec::new()));
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "{line}");
        assert!(!line.contains(' '), "{line}");
        assert_eq!(
            line,
            r#"{"verb":"status","f":2.0,"arr":[1,null],"nested":{"k":"v\n"},"empty":[]}"#
        );
        // The same parser reads both renderings back to the same doc.
        assert_eq!(Json::parse(&line).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn parse_inverts_render() {
        let doc = Json::obj()
            .with("s", "a\"b\\c\nd\te\u{1}ü€")
            .with("i", 42u64)
            .with("big", u64::MAX)
            .with("f", 1.5)
            .with("tiny", 1.25e-6)
            .with("whole", 2.0)
            .with("huge_whole", 1e16)
            .with("past_mantissa", 9_007_199_254_740_994.0_f64)
            .with("t", true)
            .with("nil", Json::Null)
            .with(
                "arr",
                vec![Json::U64(1), Json::F64(0.1), Json::Str("x".into())],
            )
            .with("empty_arr", Json::Arr(Vec::new()))
            .with("nested", Json::obj().with("k", Json::obj()));
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
    }

    #[test]
    fn parse_accepts_foreign_spellings() {
        // Whitespace layouts and escapes the writer never emits.
        let v = Json::parse(" { \"a\" : [ 1 , -2.5 , \"\\u0041\\u00e9\" ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap(),
            &[Json::U64(1), Json::F64(-2.5), Json::Str("Aé".into())]
        );
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 lone\"",
            "\"\\u+041\"",
            "\"\\u00e",
            "\"abc\\",
            "nul",
            "01x",
            "1.2.3",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert_eq!(
            Json::parse(&nested(MAX_DEPTH)).unwrap().render_compact(),
            nested(MAX_DEPTH)
        );
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // Far past any stack the recursion could survive unbounded.
        assert!(Json::parse(&"{\"k\":".repeat(1 << 20)).is_err());
    }

    /// A regression to per-character work over the rest of the document
    /// (re-validating it as UTF-8, say) turns this test from milliseconds
    /// into hours, so it hangs the suite visibly rather than slowing it.
    #[test]
    fn parse_is_linear_in_document_size() {
        // ASCII, 2-, 3- and 4-byte UTF-8 and every escape the writer
        // emits, with multibyte chars directly before an escape.
        let chunk = "ascii é\n€\"😀\u{1}\u{1f}ü\\\t";
        let mut big = chunk.repeat((1 << 20) / chunk.len() + 1);
        big.push('𝄞'); // multibyte char directly before the closing quote
        let mut doc = Json::obj().with("big", big.as_str());
        for k in 0..10_000u64 {
            doc = doc.with(&format!("k{k}"), k);
        }
        for text in [doc.render(), doc.render_compact()] {
            assert!(text.len() > 1 << 20);
            assert!(text.contains("é\\n") && text.contains("𝄞\""));
            assert!(Json::parse(&text).unwrap() == doc);
            // The same document with every non-BMP char of the string
            // spelled as a surrogate-pair escape.
            let foreign = text.replace('😀', "\\ud83d\\ude00");
            assert!(Json::parse(&foreign).unwrap() == doc);
        }
    }

    #[test]
    fn accessors_navigate_and_type_check() {
        let doc = Json::obj()
            .with("n", 7u64)
            .with("f", 0.5)
            .with("s", "str")
            .with("a", vec![Json::Null]);
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(7.0));
        assert_eq!(doc.get("f").unwrap().as_f64(), Some(0.5));
        assert_eq!(doc.get("f").unwrap().as_u64(), None);
        assert_eq!(doc.get("s").unwrap().as_str(), Some("str"));
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(doc.get("missing").is_none());
        assert!(Json::Null.get("n").is_none());
        // u64s beyond f64's mantissa must not silently lose precision.
        assert_eq!(Json::U64(u64::MAX).as_f64(), None);
    }
}
