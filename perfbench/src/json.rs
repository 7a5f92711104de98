//! The benchmark's result line: a small JSON writer and the reader that
//! parses it back.
//!
//! The line is the last line of standard output:
//! `{"correct": true, "attempted": 48, "failed": 0, "metrics": {"wall_s":
//! {"value": 5.91, "unit": "s"}, ...}}`.

use std::fmt::Write;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: String,
}

/// One benchmark run's verdict and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// `true` when every output check passed and no run failed.
    pub correct: bool,
    /// Runs or sweep points attempted.
    pub attempted: u64,
    /// Runs or points that returned an error, panicked or failed a check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl BenchResult {
    /// Renders the result line. A value that is not finite is written as
    /// `null`, which the reader refuses.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                value,
                quote(&m.unit)
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }

    /// Parses a result line.
    ///
    /// # Errors
    ///
    /// A message naming what is malformed or missing.
    pub fn from_json(text: &str) -> Result<BenchResult, String> {
        let value = parse(text)?;
        let top = value.as_object().ok_or("result is not an object")?;
        let mut keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("unexpected top-level keys {keys:?}"));
        }
        let correct = match get(top, "correct") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("`correct` is not a boolean".into()),
        };
        let attempted = get(top, "attempted").and_then(Value::as_count);
        let failed = get(top, "failed").and_then(Value::as_count);
        let (Some(attempted), Some(failed)) = (attempted, failed) else {
            return Err("`attempted` and `failed` must be whole numbers".into());
        };
        let entries = get(top, "metrics")
            .and_then(Value::as_object)
            .ok_or("`metrics` is not an object")?;
        let mut metrics = Vec::with_capacity(entries.len());
        for (name, body) in entries {
            let body = body
                .as_object()
                .ok_or_else(|| format!("metric `{name}` is not an object"))?;
            let value = match get(body, "value") {
                Some(Value::Number(v)) => *v,
                _ => return Err(format!("metric `{name}` has no numeric value")),
            };
            let unit = match get(body, "unit") {
                Some(Value::String(u)) => u.clone(),
                _ => return Err(format!("metric `{name}` has no unit")),
            };
            metrics.push(Metric {
                name: name.clone(),
                value,
                unit,
            });
        }
        Ok(BenchResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, keys in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Field `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| get(o, key))
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_count(&self) -> Option<u64> {
        match self {
            Value::Number(v) if *v >= 0.0 && v.fract() == 0.0 && *v < 2f64.powi(53) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }
}

fn get<'a>(object: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    object.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses one JSON document.
///
/// # Errors
///
/// A message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.bytes[self.pos..])
                .map_err(|_| self.error("invalid UTF-8"))?;
            let mut chars = rest.chars();
            let c = chars
                .next()
                .ok_or_else(|| self.error("unterminated string"))?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match e {
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
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(hex).ok_or_else(|| self.error("bad code point"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                c if (c as u32) < 0x20 => return Err(self.error("control character in string")),
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchResult {
        BenchResult {
            correct: true,
            attempted: 48,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "wall_s".into(),
                    value: 5.912_345_678_901_234,
                    unit: "s".into(),
                },
                Metric {
                    name: "sim_cycles_per_s".into(),
                    value: 12_171.5,
                    unit: "cycles/s".into(),
                },
                Metric {
                    name: "routing.route_share".into(),
                    value: 1.25e-7,
                    unit: "fraction".into(),
                },
            ],
        }
    }

    #[test]
    fn result_line_round_trips_through_the_reader() {
        let r = sample();
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(BenchResult::from_json(&line), Ok(r));
    }

    #[test]
    fn values_keep_every_digit() {
        for v in [0.1 + 0.2, 1.0 / 3.0, 123_456_789.123_456_78, 5e-324, 1e300] {
            let mut r = sample();
            r.metrics[0].value = v;
            let back = BenchResult::from_json(&r.to_json()).expect("parses");
            assert_eq!(back.metrics[0].value.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn malformed_lines_are_refused() {
        let mut r = sample();
        r.metrics[0].value = f64::NAN;
        assert!(BenchResult::from_json(&r.to_json()).is_err());
        for bad in [
            "",
            "{}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0}",
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x",
        ] {
            assert!(BenchResult::from_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let mut r = sample();
        r.metrics[0].name = "a\"b\\c\u{1}".into();
        assert_eq!(BenchResult::from_json(&r.to_json()), Ok(r));
        assert_eq!(parse("\"\\u0041\\n\""), Ok(Value::String("A\n".into())));
    }
}
