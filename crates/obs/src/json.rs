//! The workspace's one JSON module — the build vendors no serde.
//!
//! Exporters write JSON by hand (the `BENCH_kernel.json` style) with
//! [`quote`] and [`number`]. Everything that reads JSON — the serving
//! API's request bodies, the graph wire format of `midas_graph::io`, the
//! schema gates in tests — goes through [`Value::parse`], a
//! recursive-descent parser for the full grammar (objects, arrays,
//! strings with escapes, numbers, booleans, null) into an owned tree with
//! the typed accessors the handlers need. [`validate`] is that parse with
//! the tree dropped.

/// Quotes and escapes `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders a finite `f64` as a JSON number (non-finite values become `0`,
/// which JSON cannot represent).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // `format!` prints integral floats without a dot; that is still a
        // valid JSON number, so leave it.
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Validates that `s` is one complete JSON document. Returns `Err` with a
/// byte offset and message on the first syntax error.
pub fn validate(s: &str) -> Result<(), String> {
    Value::parse(s).map(drop)
}

/// Deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so without a cap a request body of a few
/// megabytes of `[` would overflow a worker's stack; real documents here
/// nest at most a handful of levels.
const MAX_DEPTH: usize = 128;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers included), as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses a complete JSON document (trailing input is an error).
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            s: input,
            i: 0,
            depth: 0,
        };
        let v = p.value()?;
        if p.peek().is_some() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object member lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (must be whole).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.s.as_bytes()
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.bytes().get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
        self.bytes().get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            None => Err(format!("unexpected end of input at byte {}", self.i)),
            Some(_) => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        if !self.eat(b'}') {
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                members.push((key, self.value()?));
                if !self.eat(b',') {
                    break;
                }
            }
            self.expect(b'}')?;
        }
        Ok(Value::Obj(members))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if !self.eat(b']') {
            loop {
                items.push(self.value()?);
                if !self.eat(b',') {
                    break;
                }
            }
            self.expect(b']')?;
        }
        Ok(Value::Arr(items))
    }

    /// One string literal. Runs of plain characters are copied as `&str`
    /// slices of the input: `"` and `\` are ASCII, so every slice boundary
    /// is a character boundary and nothing is re-validated as UTF-8.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            while !matches!(self.bytes().get(self.i), None | Some(b'"' | b'\\')) {
                self.i += 1;
            }
            out.push_str(&self.s[start..self.i]);
            match self.bytes().get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => self.escape(&mut out)?,
            }
        }
    }

    /// Decodes the escape sequence at the cursor (which sits on the `\`).
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let esc = *self.bytes().get(self.i + 1).ok_or("dangling escape")?;
        self.i += 2;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b't' => out.push('\t'),
            b'r' => out.push('\r'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hex = self
                    .s
                    .get(self.i..self.i + 4)
                    .ok_or("truncated \\u escape")?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_owned())?;
                self.i += 4;
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            c => return Err(format!("bad escape '\\{}'", c as char)),
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.bytes().get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .bytes()
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        self.s[start..self.i]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "0",
            "-1.5e3",
            "\"x\"",
            "true",
            "null",
            r#"{"a": [1, 2.5, {"b": "c\"d"}], "e": null}"#,
            "  { \"k\" : [ ] }  ",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\": 1,}",
            "{\"a\" 1}",
            "[1 2]",
            "[1,]",
            "nul",
            "{} {}",
            "1 2",
            "\"unterminated",
            "{'single': 1}",
            "\"bad \\q escape\"",
            "\"\\u12\"",
        ] {
            assert!(validate(doc).is_err(), "should reject {doc:?}");
        }
    }

    #[test]
    fn parses_the_grammar() {
        let v = Value::parse(
            "{\"a\": [1, 2.5, -3], \"b\": \"x\\ny\", \"c\": true, \"d\": null, \"e\": {}}",
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_u64(), None);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-3.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("e"), Some(&Value::Obj(vec![])));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "\"unterminated", "1 2", ""] {
            assert!(Value::parse(bad).is_err(), "{bad:?}");
        }
        // Nesting is capped just past MAX_DEPTH, not by the stack.
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&deep(MAX_DEPTH + 1)).is_err());
        assert!(Value::parse(&"[".repeat(crate::httpd::MAX_BODY_BYTES)).is_err());
    }

    #[test]
    fn unicode_escapes_and_utf8_pass_through() {
        let v = Value::parse("\"caf\\u00e9 ☕ \\\"q\\\" \\\\ \\/\"").unwrap();
        assert_eq!(v.as_str(), Some("café ☕ \"q\" \\ /"));
        let v = Value::parse("{\"ключ\": \"控制\"}").unwrap();
        assert_eq!(v.get("ключ").and_then(Value::as_str), Some("控制"));
    }

    #[test]
    fn body_sized_string_parses_in_linear_time() {
        // One string as long as the largest request body the HTTP server
        // accepts, mixing multi-byte characters and escapes.
        let unit = "ab☕\\n";
        let reps = crate::httpd::MAX_BODY_BYTES / unit.len();
        let doc = format!("\"{}\"", unit.repeat(reps));
        let begin = std::time::Instant::now();
        let v = Value::parse(&doc).expect("parses");
        let elapsed = begin.elapsed();
        assert_eq!(v.as_str().map(str::len), Some(reps * "ab☕\n".len()));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "{} byte string took {elapsed:?}",
            doc.len()
        );
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        let s = "控制\u{1}chars\t\r";
        assert_eq!(Value::parse(&quote(s)).unwrap().as_str(), Some(s));
    }

    #[test]
    fn number_handles_nonfinite() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        validate(&number(1e300)).expect("large floats render as JSON numbers");
    }
}
