//! A small JSON value, emitter and validating parser.
//!
//! The workspace's vendored `serde` is marker-only and cannot serialize, so
//! every file kbench writes (result sets, span traces, `BENCHMARK.json`) goes
//! through this emitter, and every file it reads (`compare` inputs, the
//! spec) through this parser.  Objects keep insertion order so output is
//! stable run to run.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// An unsigned whole number, kept exact (counts, bytes, nanoseconds).
    UInt(u64),
    /// Any other number.  Non-finite values are emitted as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line encoding.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented encoding with a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => write!(out, "{n}").expect("writing to a String cannot fail"),
            Json::Num(n) if n.is_finite() => {
                // `{}` prints the shortest decimal that round-trips and never
                // uses exponent notation, so the text is always valid JSON.
                write!(out, "{n}").expect("writing to a String cannot fail");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document, rejecting anything RFC 8259 does: trailing
/// commas, bare words, unescaped control characters, leading zeros, trailing
/// text.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after the document"));
    }
    Ok(value)
}

/// Nesting deeper than this is refused instead of overflowing the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.error("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
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
                    self.expect(b':')?;
                    self.skip_ws();
                    pairs.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(self.error("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos - from
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        if digits(self) == 0 {
            return Err(self.error("expected digits"));
        }
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(self.error("leading zero"));
        }
        let mut whole = true;
        if self.peek() == Some(b'.') {
            whole = false;
            self.pos += 1;
            if digits(self) == 0 {
                return Err(self.error("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            whole = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return Err(self.error("expected exponent digits"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number characters are ASCII");
        if whole {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("unparsable number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            // The input is a `&str` and the run ends before an ASCII byte,
            // so the slice lies on character boundaries.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("unknown escape")),
                    });
                }
                Some(_) => return Err(self.error("unescaped control character")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let text = std::str::from_utf8(digits).map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let first = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&first) {
            // A high surrogate must be followed by an escaped low surrogate.
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.error("lone high surrogate"));
            }
            self.pos += 2;
            let second = self.hex4()?;
            if !(0xdc00..0xe000).contains(&second) {
                return Err(self.error("invalid low surrogate"));
            }
            0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid code point"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            (
                "name",
                Json::str("quote \" slash \\ tab\t nl\n bell\u{7} é 漢"),
            ),
            ("count", Json::UInt(u64::MAX)),
            ("ratio", Json::Num(0.1 + 0.2)),
            ("tiny", Json::Num(1.5e-9)),
            ("negative", Json::Num(-3.25)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "nested",
                Json::Arr(vec![
                    Json::Arr(vec![]),
                    Json::obj::<&str>([]),
                    Json::obj([("k", Json::Arr(vec![Json::UInt(1), Json::Num(2.5)]))]),
                ]),
            ),
        ])
    }

    #[test]
    fn emitted_documents_round_trip_through_the_parser() {
        let value = sample();
        assert_eq!(parse(&value.compact()).unwrap(), value);
        assert_eq!(parse(&value.pretty()).unwrap(), value);
        // Floats keep every digit.
        assert!(value.compact().contains("0.30000000000000004"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let text = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY)]).compact();
        assert_eq!(text, "[null,null]");
        assert_eq!(
            parse(&text).unwrap(),
            Json::Arr(vec![Json::Null, Json::Null])
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "01",
            "1.",
            "1e",
            "-",
            "nul",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"raw \n newline\"",
            "\"\\ud800 alone\"",
            "1 2",
            "[1] x",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn parser_reads_escapes_and_exponents() {
        assert_eq!(
            parse("\"\\u00e9\\ud83d\\ude00\\/\"").unwrap(),
            Json::str("é😀/")
        );
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("-0").unwrap(), Json::Num(-0.0));
        assert_eq!(parse(" 42 ").unwrap(), Json::UInt(42));
    }

    #[test]
    fn object_lookup_and_accessors() {
        let value = sample();
        assert_eq!(value.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(value.get("missing"), None);
        assert_eq!(value.get("negative").and_then(Json::as_f64), Some(-3.25));
        assert_eq!(Json::UInt(7).as_f64(), Some(7.0));
        assert_eq!(
            value
                .get("nested")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
    }
}
