//! A minimal JSON value, writer, and pull reader.
//!
//! The workspace's one JSON reader and writer: just enough to emit the
//! event stream, the metrics snapshot and the wrapper's result file
//! (`errorscope::resultfile`) and to parse them back — objects, arrays,
//! strings, booleans, null, and numbers (unsigned and signed integers are
//! kept exact; everything else is `f64`).
//!
//! There is one tokenizer, the crate's pull reader (`Reader`). [`parse`]
//! builds a [`Json`] tree on it; the event stream's decoders
//! ([`EventRecord::from_json`](crate::EventRecord::from_json),
//! [`StreamMeta::from_json`](crate::StreamMeta::from_json)) walk it member
//! by member into their typed records instead, borrowing keys and
//! escape-free strings from the input.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact up to `u64::MAX`.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved via `BTreeMap` (sorted), which is
    /// all the exporters need.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Append `s` to `out` as a JSON string literal (with escaping). The text
/// between two escapes is appended in one piece.
pub fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Every escaped character is ASCII, so a run always ends on a
    // character boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `"key":` to `out` (no leading comma).
pub fn write_key(out: &mut String, key: &str) {
    write_str(out, key);
    out.push(':');
}

/// Append `v` in decimal to `out`: the digits `v.to_string()` spells,
/// without the `String` it allocates.
pub(crate) fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// A parse failure, with a byte offset for context.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How many arrays and objects may be open at once. The reader's callers
/// recurse once per level and its input comes from other machines, so a
/// document nested past this is a [`ParseError`], not a stack overflow.
/// Everything this workspace writes nests under ten levels.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document. Trailing whitespace is allowed; trailing
/// garbage is an error, and so is nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, ParseError> {
    read_all(input, tree)
}

/// The value `r` is at, as a tree.
fn tree(r: &mut Reader<'_>) -> Result<Json, ParseError> {
    Ok(match r.value()? {
        Token::Null => Json::Null,
        Token::Bool(b) => Json::Bool(b),
        Token::UInt(v) => Json::UInt(v),
        Token::Int(v) => Json::Int(v),
        Token::Num(v) => Json::Num(v),
        Token::Str(s) => Json::Str(s.into_owned()),
        Token::Arr => {
            let mut items = Vec::new();
            while r.next_item()? {
                items.push(tree(r)?);
            }
            Json::Arr(items)
        }
        Token::Obj => {
            let mut map = BTreeMap::new();
            while let Some(key) = r.next_key()? {
                let value = tree(r)?;
                map.insert(key.into_owned(), value);
            }
            Json::Obj(map)
        }
    })
}

/// Read `input` as one document with `read`, which must consume exactly
/// one value; only whitespace may follow it.
pub(crate) fn read_all<'a, T>(
    input: &'a str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, ParseError>,
) -> Result<T, ParseError> {
    let mut r = Reader {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        opened: false,
    };
    let out = read(&mut r)?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(r.err("trailing characters"));
    }
    Ok(out)
}

/// One step of a [`Reader`]: a scalar, or the container it just opened.
#[derive(Debug, PartialEq)]
enum Token<'a> {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Num(f64),
    /// Borrowed from the input unless the literal held an escape.
    Str(Cow<'a, str>),
    /// An array opened: [`Reader::next_item`] steps through its items.
    Arr,
    /// An object opened: [`Reader::next_key`] steps through its members.
    Obj,
}

/// A pull reader over one JSON document — the workspace's one tokenizer.
///
/// [`Reader::value`] reads a scalar or opens a container. Inside an object
/// [`Reader::next_key`] steps past `,` to the next key and its `:`, or
/// past the closing `}`; inside an array [`Reader::next_item`] does the
/// same with `]`. A caller walks every container it opens to its end:
/// [`Reader::skip`] does that for a value nobody wants.
pub(crate) struct Reader<'a> {
    /// The input, which `bytes` views: scanned by byte, sliced as `str`.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    /// A container opened and nothing in it was read yet, so no `,` is due.
    opened: bool,
}

impl<'a> Reader<'a> {
    // Every error is built out of line, so that the paths that succeed stay
    // small enough to inline into their callers.
    #[cold]
    #[inline(never)]
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    #[cold]
    #[inline(never)]
    fn expected(&self, what: &str) -> ParseError {
        self.err(&format!("expected '{what}'"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(char::from(b).encode_utf8(&mut [0; 4])))
        }
    }

    fn literal(&mut self, lit: &str, v: Token<'a>) -> Result<Token<'a>, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.expected(lit))
        }
    }

    /// The next value: a scalar, or an array or object one level further
    /// in, opened.
    fn value(&mut self) -> Result<Token<'a>, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.open(Token::Obj),
            Some(b'[') => self.open(Token::Arr),
            Some(b'"') => self.string().map(Token::Str),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn open(&mut self, container: Token<'a>) -> Result<Token<'a>, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.depth += 1;
        self.pos += 1;
        self.opened = true;
        Ok(container)
    }

    /// Inside an object: the next member's key, its `:` read, or `None`
    /// once the closing `}` is.
    fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.next(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Inside an array: whether another item follows (`false` once the
    /// closing `]` is read).
    fn next_item(&mut self) -> Result<bool, ParseError> {
        self.next(b']', "expected ',' or ']'")
    }

    /// The step both containers share: past `,` (true), or past `close`
    /// (false, the container is done).
    fn next(&mut self, close: u8, expected: &str) -> Result<bool, ParseError> {
        self.skip_ws();
        let first = std::mem::take(&mut self.opened);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.err(expected)),
        }
    }

    /// The next value; a container comes back as just [`Token::Arr`] or
    /// [`Token::Obj`], walked to its end.
    fn scalar(&mut self) -> Result<Token<'a>, ParseError> {
        let token = self.value()?;
        self.walk(&token, |r, _| r.skip())?;
        Ok(token)
    }

    /// Read past the next value.
    pub(crate) fn skip(&mut self) -> Result<(), ParseError> {
        self.scalar().map(drop)
    }

    /// Read the next value as an object, handing each member's key to
    /// `member`, which reads the member's value. Any other value is read
    /// past and has no members, as [`Json::get`] finds none in it.
    pub(crate) fn object(
        &mut self,
        member: impl FnMut(&mut Self, &str) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        let token = self.value()?;
        self.walk(&token, member)
    }

    /// Walk the container `token` opened to its end (nothing, for a
    /// scalar): object members go to `member`, array items are skipped.
    fn walk(
        &mut self,
        token: &Token<'a>,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        match token {
            Token::Obj => {
                while let Some(key) = self.next_key()? {
                    member(self, &key)?;
                }
            }
            Token::Arr => {
                while self.next_item()? {
                    self.skip()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// The next value, if it is a non-negative integer ([`Json::as_u64`]).
    pub(crate) fn u64(&mut self) -> Result<Option<u64>, ParseError> {
        self.skip_ws();
        let token = match self.peek() {
            Some(b'0'..=b'9') => self.number()?,
            _ => self.scalar()?,
        };
        Ok(match token {
            Token::UInt(v) => Some(v),
            _ => None,
        })
    }

    /// The next value, if it is a boolean ([`Json::as_bool`]).
    pub(crate) fn bool(&mut self) -> Result<Option<bool>, ParseError> {
        Ok(match self.scalar()? {
            Token::Bool(b) => Some(b),
            _ => None,
        })
    }

    /// The next value, if it is a string ([`Json::as_str`]).
    pub(crate) fn str(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        self.skip_ws();
        if self.peek() == Some(b'"') {
            return self.string().map(Some);
        }
        Ok(match self.scalar()? {
            Token::Str(s) => Some(s),
            _ => None,
        })
    }

    /// Advance to the next quote or backslash (or the end), returning the
    /// text passed over: both are ASCII, so it ends on a character boundary.
    #[inline]
    fn run(&mut self) -> &'a str {
        let text = self.text;
        let rest = &self.bytes[self.pos..];
        let len = rest.iter().position(|b| matches!(b, b'"' | b'\\'));
        let start = self.pos;
        self.pos += len.unwrap_or(rest.len());
        &text[start..self.pos]
    }

    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let first = self.run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(first));
        }
        self.escaped_string(first).map(Cow::Owned)
    }

    /// The rest of a string whose first run, `first`, ended at a backslash
    /// or at the end of the input.
    #[inline(never)]
    fn escaped_string(&mut self, first: &str) -> Result<String, ParseError> {
        let mut out = String::from(first);
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            // The run stops at nothing else: this is the backslash.
            self.escape(&mut out)?;
            out.push_str(self.run());
        }
    }

    /// Decode the escape after a backslash onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let Some(esc) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000c}'),
            b'u' => {
                if self.pos + 4 > self.bytes.len() {
                    return Err(self.err("truncated \\u escape"));
                }
                let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                    .map_err(|_| self.err("bad \\u escape"))?;
                let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                self.pos += 4;
                // Surrogate pairs are not needed by our own
                // exporters; reject rather than mis-decode.
                match char::from_u32(cp) {
                    Some(c) => out.push(c),
                    None => return Err(self.err("unsupported \\u escape")),
                }
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Token<'a>, ParseError> {
        let start = self.pos;
        // A plain run of digits is read as it passes: the value
        // `parse::<u64>` makes of it, while that fits.
        let mut value = Some(0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            value = value
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        match value {
            Some(v) if self.pos > start && !matches!(self.peek(), Some(b'.' | b'e' | b'E')) => {
                Ok(Token::UInt(v))
            }
            _ => self.other_number(start),
        }
    }

    /// Any number but a plain run of digits that fits a `u64`, from
    /// `start`: a sign, a fraction, an exponent, or too many digits.
    #[inline(never)]
    fn other_number(&mut self, start: usize) -> Result<Token<'a>, ParseError> {
        self.pos = start;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Token::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Token::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Token::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" 42 ").unwrap(), Json::UInt(42));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(
            parse("\"hi\\n\\\"there\\\"\"").unwrap(),
            Json::Str("hi\n\"there\"".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(v.get("d"), Some(&Json::Obj(BTreeMap::new())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn string_escaping_round_trips() {
        // Runs of plain text between, before and after escapes; escapes back
        // to back; multi-byte characters beside a quote and a backslash.
        for original in [
            "line1\nline2\t\"quoted\" \\slash\\ \u{1}",
            "",
            "\\\\\"\"\n\n",
            "é\"誤\\😀\u{7f}\u{2028}\u{ffff}",
            "\"leading and trailing\\",
        ] {
            let mut doc = String::new();
            write_str(&mut doc, original);
            assert_eq!(parse(&doc).unwrap(), Json::Str(original.to_string()));
            // An unterminated tail, wherever the cut falls, is an error at
            // the end of the input (a cut `\u` escape reports its digits).
            for cut in (1..doc.len()).filter(|n| doc.is_char_boundary(*n)) {
                let err = parse(&doc[..cut]).unwrap_err();
                assert!(cut - err.at < 4, "{err} for a cut at {cut}");
            }
        }
    }

    #[test]
    fn unicode_survives() {
        let original = "scopo dell'errore — ошибка — 誤り";
        let mut doc = String::new();
        write_str(&mut doc, original);
        assert_eq!(parse(&doc).unwrap(), Json::Str(original.to_string()));
    }

    #[test]
    fn nesting_is_bounded_by_an_error_not_by_the_stack() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}1{}", open.repeat(levels), close.repeat(levels))
        };
        for (open, close) in [("[", "]"), ("{\"k\":", "}"), ("[{\"k\":", "}]")] {
            let per_level = open.matches(['[', '{']).count();
            assert!(parse(&nested(open, close, MAX_DEPTH / per_level)).is_ok());
            for levels in [MAX_DEPTH / per_level + 1, 100_000] {
                let err = parse(&nested(open, close, levels)).unwrap_err();
                assert_eq!(err.message, "nested too deeply");
                assert_eq!(err.at, MAX_DEPTH / per_level * open.len());
                // Skipping a value nobody reads is bounded the same way.
                let err = read_all(&nested(open, close, levels), Reader::skip).unwrap_err();
                assert_eq!(err.at, MAX_DEPTH / per_level * open.len());
            }
        }
        // Unclosed brackets — the 50 KB file of `[` — fail the same way.
        assert_eq!(parse(&"[".repeat(50_000)).unwrap_err().at, MAX_DEPTH);
    }

    #[test]
    fn the_reader_borrows_every_string_without_an_escape() {
        let doc = r#"{"plain":"text","esc\u0061ped":"a\"b","e":""}"#;
        let mut seen = Vec::new();
        read_all(doc, |r| {
            r.object(|r, key| {
                let Some(value) = r.str()? else {
                    unreachable!("every value is a string")
                };
                seen.push((key.to_string(), value));
                Ok(())
            })
        })
        .unwrap();
        let borrowed: Vec<bool> = seen
            .iter()
            .map(|(_, v)| matches!(v, Cow::Borrowed(_)))
            .collect();
        assert_eq!(borrowed, [true, false, true]);
        assert_eq!(seen[1].0, "escaped");
        assert_eq!(seen[1].1, "a\"b");
        // Keys borrow the same way.
        read_all(doc, |r| {
            assert_eq!(r.value()?, Token::Obj);
            assert!(matches!(r.next_key()?, Some(Cow::Borrowed("plain"))));
            r.skip()?;
            assert!(matches!(r.next_key()?, Some(Cow::Owned(k)) if k == "escaped"));
            r.skip()?;
            assert!(r.next_key()?.is_some());
            r.skip()?;
            assert_eq!(r.next_key()?, None);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn typed_reads_see_what_the_tree_accessors_see() {
        let docs = [
            "7",
            "-0",
            "1.0",
            "1e2",
            "01",
            "18446744073709551616",
            "true",
            "\"s\"",
            "\"\\u0073\"",
            "null",
            "[1]",
            "{\"a\":1}",
        ];
        for doc in docs {
            let tree = parse(doc).unwrap();
            assert_eq!(read_all(doc, Reader::u64).unwrap(), tree.as_u64(), "{doc}");
            assert_eq!(
                read_all(doc, Reader::bool).unwrap(),
                tree.as_bool(),
                "{doc}"
            );
            let s = read_all(doc, Reader::str).unwrap();
            assert_eq!(s.as_deref(), tree.as_str(), "{doc}");
        }
        assert_eq!(
            read_all("01", Reader::u64),
            Ok(Some(1)),
            "a leading zero reads as today"
        );
    }

    #[test]
    fn write_u64_spells_what_to_string_spells() {
        for v in [0, 9, 10, 99, 100, 1_000_000, u64::MAX - 1, u64::MAX] {
            let mut out = String::from("x");
            write_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }
}
