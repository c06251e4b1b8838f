//! A minimal dependency-free JSON reader, used to validate the Perfetto
//! export and check that its async spans nest — the container has no
//! `serde`.
//!
//! One recursive-descent grammar ([`Parser`]) serves three consumers:
//! [`parse_json`] builds a [`Json`] tree from it, while [`validate_json`]
//! and [`spans_nest`] walk the same grammar in a single pass without
//! building one. Strings without escapes are borrowed from the input, so
//! the streaming checks allocate per span track, not per value.

use std::borrow::Cow;
use std::collections::HashMap;

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The start of a value: a whole scalar, or the opening bracket of a
/// container whose contents [`Parser::members`] / [`Parser::items`] walk.
#[derive(Debug)]
enum Token<'a> {
    Obj,
    Arr,
    Str(Cow<'a, str>),
    Num(f64),
    Bool(bool),
    Null,
}

/// The JSON grammar over a borrowed document.
struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { src, bytes: src.as_bytes(), pos: 0 }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// Only whitespace may follow the document's value.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing garbage"));
        }
        Ok(())
    }

    /// Reads the next value's token; for a container, only its opening
    /// bracket is consumed.
    fn token(&mut self) -> Result<Token<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                Ok(Token::Obj)
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(Token::Arr)
            }
            Some(b'"') => self.string().map(Token::Str),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'n') => self.literal("null", Token::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(Token::Num),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// Walks an object's members after its `{`, handing each key to
    /// `member`, which must consume the member's value.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Walks an array's elements after its `[`; `item` must consume each.
    fn items(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Builds the value that starts with `token`.
    fn build(&mut self, token: Token<'a>) -> Result<Json, String> {
        Ok(match token {
            Token::Obj => {
                let mut members = Vec::new();
                self.members(|p, key| {
                    let token = p.token()?;
                    members.push((key.into_owned(), p.build(token)?));
                    Ok(())
                })?;
                Json::Obj(members)
            }
            Token::Arr => {
                let mut items = Vec::new();
                self.items(|p| {
                    let token = p.token()?;
                    items.push(p.build(token)?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::Num(n) => Json::Num(n),
            Token::Bool(b) => Json::Bool(b),
            Token::Null => Json::Null,
        })
    }

    /// Consumes the rest of the value that starts with `token`.
    fn skip_rest(&mut self, token: &Token<'a>) -> Result<(), String> {
        match token {
            Token::Obj => self.members(|p, _| p.skip()),
            Token::Arr => self.items(Self::skip),
            _ => Ok(()),
        }
    }

    /// Consumes one whole value.
    fn skip(&mut self) -> Result<(), String> {
        let token = self.token()?;
        self.skip_rest(&token)
    }

    /// A string, borrowed from the input unless it holds an escape. Runs
    /// of unescaped text are copied as slices, never char by char.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut run = self.pos;
        let mut out: Option<String> = None;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    // `run` and `pos` sit on ASCII bytes, so both are char
                    // boundaries of the input.
                    let tail = &self.src[run..self.pos];
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = out.get_or_insert_with(String::new);
                    s.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Exactly four hex digits: no sign, no spaces.
                            let mut code = 0u32;
                            for &h in hex {
                                let digit = (h as char)
                                    .to_digit(16)
                                    .ok_or_else(|| self.err("bad \\u escape"))?;
                                code = code * 16 + digit;
                            }
                            // Surrogate pairs are not needed by our exporter.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                    run = self.pos;
                }
                Some(c) if c < 0x20 => return Err(self.err("control byte in string")),
                // Any other byte, multi-byte UTF-8 included, belongs to the
                // current run: the input is a `&str`, so it is valid.
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.src[start..self.pos].parse::<f64>().map_err(|_| self.err("bad number"))
    }
}

/// Parse a JSON document.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let token = p.token()?;
    let v = p.build(token)?;
    p.end()?;
    Ok(v)
}

/// Validate that `s` is a well-formed JSON document — exactly the
/// documents [`parse_json`] accepts, checked in one pass without building
/// the tree.
pub fn validate_json(s: &str) -> Result<(), String> {
    let mut p = Parser::new(s);
    p.skip()?;
    p.end()
}

/// The members of one trace event that [`spans_nest`] reads — each the
/// first occurrence of its key, as [`Json::get`] would find it.
#[derive(Debug, Default)]
struct EventFields<'a> {
    ph: Option<Token<'a>>,
    pid: Option<Token<'a>>,
    id: Option<Token<'a>>,
    name: Option<Token<'a>>,
    ts: Option<Token<'a>>,
}

fn as_str<'t>(field: &'t Option<Token<'_>>) -> Option<&'t str> {
    match field {
        Some(Token::Str(s)) => Some(s),
        _ => None,
    }
}

fn as_f64(field: &Option<Token<'_>>) -> Option<f64> {
    match field {
        Some(Token::Num(n)) => Some(*n),
        _ => None,
    }
}

/// One async-span track: its latest timestamp and its open span names.
type Track<'a> = (f64, Vec<Cow<'a, str>>);

/// The span bookkeeping of [`spans_nest`].
#[derive(Default)]
struct SpanCheck<'a> {
    tracks: HashMap<(u64, u64), Track<'a>>,
    spans: usize,
    /// The first span error; later events are then only validated.
    failed: Option<String>,
}

impl<'a> SpanCheck<'a> {
    /// Scans one element of `traceEvents` and applies it to the tracks.
    fn event(&mut self, p: &mut Parser<'a>) -> Result<(), String> {
        if self.failed.is_some() {
            return p.skip();
        }
        let token = p.token()?;
        let mut f = EventFields::default();
        if let Token::Obj = token {
            p.members(|p, key| {
                let slot = match &*key {
                    "ph" => &mut f.ph,
                    "pid" => &mut f.pid,
                    "id" => &mut f.id,
                    "name" => &mut f.name,
                    "ts" => &mut f.ts,
                    _ => return p.skip(),
                };
                let token = p.token()?;
                p.skip_rest(&token)?;
                if slot.is_none() {
                    *slot = Some(token);
                }
                Ok(())
            })?;
        } else {
            p.skip_rest(&token)?;
        }
        self.failed = self.apply(f).err();
        Ok(())
    }

    fn apply(&mut self, f: EventFields<'a>) -> Result<(), String> {
        let ph = as_str(&f.ph).ok_or("event missing ph")?;
        if ph != "b" && ph != "e" {
            return Ok(());
        }
        let begin = ph == "b";
        let pid = as_f64(&f.pid).ok_or("async event missing pid")? as u64;
        let id = as_f64(&f.id).ok_or("async event missing id")? as u64;
        let Some(Token::Str(name)) = f.name else {
            return Err("async event missing name".into());
        };
        let ts = as_f64(&f.ts).ok_or("async event missing ts")?;
        let key = (pid, id);
        let (last_ts, stack) = self.tracks.entry(key).or_insert((f64::NEG_INFINITY, Vec::new()));
        if ts < *last_ts {
            return Err(format!("track {key:?} not time-ordered: {ts} after {last_ts}"));
        }
        *last_ts = ts;
        if begin {
            stack.push(name);
        } else {
            match stack.pop() {
                Some(open) if open == name => self.spans += 1,
                Some(open) => return Err(format!("span 'e' {name} closes '{open}' on {key:?}")),
                None => return Err(format!("span 'e' {name} with empty stack on {key:?}")),
            }
        }
        Ok(())
    }
}

/// Check that a Chrome `trace_event` export's async spans nest properly:
/// within each `(pid, id)` track, every `"e"` closes the most recent
/// `"b"` of the same name, and every opened span is closed. Returns the
/// number of complete spans.
///
/// One pass over the bytes, under the same grammar as [`parse_json`]: a
/// malformed document is rejected with the parse error even when a span
/// error comes first, and only the first `traceEvents` member is read.
/// With several tracks left open, the lowest `(pid, id)` is reported.
pub fn spans_nest(s: &str) -> Result<usize, String> {
    let mut p = Parser::new(s);
    let mut check = SpanCheck::default();
    // `None` until the first `traceEvents` member; then whether it was an
    // array.
    let mut events: Option<bool> = None;
    let token = p.token()?;
    if let Token::Obj = token {
        p.members(|p, key| {
            if events.is_some() || key != "traceEvents" {
                return p.skip();
            }
            let token = p.token()?;
            events = Some(matches!(token, Token::Arr));
            match token {
                Token::Arr => p.items(|p| check.event(p)),
                other => p.skip_rest(&other),
            }
        })?;
    } else {
        p.skip_rest(&token)?;
    }
    p.end()?;
    if events != Some(true) {
        return Err("missing traceEvents array".into());
    }
    if let Some(e) = check.failed {
        return Err(e);
    }
    let unclosed = check.tracks.iter().filter(|(_, (_, stack))| !stack.is_empty());
    if let Some((key, (_, stack))) = unclosed.min_by_key(|(key, _)| **key) {
        return Err(format!("unclosed spans {stack:?} on {key:?}"));
    }
    Ok(check.spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = parse_json(r#"{"a": [1, -2.5, 1e3], "b": {"c": "x\n"}, "d": null, "e": true}"#)
            .unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(1000.0));
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("x\n"));
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert_eq!(doc.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\q\"", r#""\u+04A""#] {
            assert!(validate_json(bad).is_err(), "{bad} should not parse");
            assert!(parse_json(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn strings_decode_escapes_around_non_ascii_text() {
        let doc = parse_json(r#"["é\nü", "\u00e9x", "plain", "ß\"\\"]"#).unwrap();
        let got: Vec<&str> = doc.as_arr().unwrap().iter().map(|v| v.as_str().unwrap()).collect();
        assert_eq!(got, ["é\nü", "éx", "plain", "ß\"\\"]);
        for bad in [r#""\u00e""#, r#""\u 0e9""#, r#""\u-0e9""#, r#""\ud800""#] {
            assert!(validate_json(bad).is_err(), "{bad} should not parse");
        }
        // Many non-ASCII strings parse in one linear pass.
        let many = format!("[{}]", vec!["\"é\""; 20_000].join(","));
        assert_eq!(parse_json(&many).unwrap().as_arr().unwrap().len(), 20_000);
        validate_json(&many).unwrap();
    }

    #[test]
    fn span_nesting_accepts_sequential_and_nested() {
        let doc = r#"{"traceEvents": [
            {"name": "r", "ph": "b", "pid": 0, "id": 1, "ts": 0},
            {"name": "queue", "ph": "b", "pid": 0, "id": 1, "ts": 0},
            {"name": "queue", "ph": "e", "pid": 0, "id": 1, "ts": 5},
            {"name": "decode", "ph": "b", "pid": 0, "id": 1, "ts": 5},
            {"name": "decode", "ph": "e", "pid": 0, "id": 1, "ts": 9},
            {"name": "r", "ph": "e", "pid": 0, "id": 1, "ts": 9}
        ]}"#;
        assert_eq!(spans_nest(doc).unwrap(), 3);
    }

    #[test]
    fn span_nesting_rejects_mismatch_and_unclosed() {
        let crossed = r#"{"traceEvents": [
            {"name": "a", "ph": "b", "pid": 0, "id": 1, "ts": 0},
            {"name": "b", "ph": "e", "pid": 0, "id": 1, "ts": 1}
        ]}"#;
        assert!(spans_nest(crossed).is_err());
        let unclosed = r#"{"traceEvents": [
            {"name": "a", "ph": "b", "pid": 0, "id": 1, "ts": 0}
        ]}"#;
        assert!(spans_nest(unclosed).is_err());
    }

    #[test]
    fn unclosed_spans_report_the_lowest_track() {
        let doc = r#"{"traceEvents": [
            {"name": "z", "ph": "b", "pid": 3, "id": 1, "ts": 0},
            {"name": "y", "ph": "b", "pid": 1, "id": 9, "ts": 0},
            {"name": "x", "ph": "b", "pid": 1, "id": 2, "ts": 0},
            {"name": "w", "ph": "b", "pid": 2, "id": 0, "ts": 0}
        ]}"#;
        for _ in 0..8 {
            assert_eq!(spans_nest(doc).unwrap_err(), r#"unclosed spans ["x"] on (1, 2)"#);
        }
    }

    #[test]
    fn span_check_reads_first_members_and_parse_errors_win() {
        // Duplicate keys: the first `ph` and the first `traceEvents` count.
        let dup = r#"{"traceEvents": [
            {"name": "a", "ph": "b", "ph": "i", "pid": 0, "id": 1, "ts": 0},
            {"name": "a", "ph": "e", "pid": 0, "id": 1, "ts": 1, "name": "b"}
        ], "traceEvents": 7}"#;
        assert_eq!(spans_nest(dup), Ok(1));
        let not_array = r#"{"traceEvents": {}, "traceEvents": []}"#;
        assert_eq!(spans_nest(not_array).unwrap_err(), "missing traceEvents array");
        // Escaped names compare decoded.
        let escaped = r#"{"traceEvents": [
            {"name": "r\u0031", "ph": "b", "pid": 0, "id": 1, "ts": 0},
            {"name": "r1", "ph": "e", "pid": 0, "id": 1, "ts": 1}
        ]}"#;
        assert_eq!(spans_nest(escaped), Ok(1));
        // A non-object event has no `ph`.
        assert_eq!(spans_nest(r#"{"traceEvents": [3]}"#).unwrap_err(), "event missing ph");
        // A span error early in the document loses to a parse error later.
        let broken = r#"{"traceEvents": [{"name": "a", "ph": "e", "pid": 0, "id": 1, "ts": 0}, ]}"#;
        assert_eq!(spans_nest(broken).unwrap_err(), validate_json(broken).unwrap_err());
    }
}
