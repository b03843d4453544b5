//! Structured events and their JSON-lines serialization.
//!
//! Serialization is hand-rolled (not `numa_par::json`): the event stream
//! is a golden artifact — same run, same bytes — so the crate owns the
//! exact format.
//! Field order is insertion order; `t` and `ev` always lead.

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating point (non-finite values serialize as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u16> for Value {
    fn from(v: u16) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One structured event: a name, a timestamp, ordered key=value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event timestamp, seconds. Instrumented simulators pass *simulation*
    /// time here so traces are seed-deterministic.
    pub time_s: f64,
    /// Event name (the shared vocabulary, e.g. `alloc_round`).
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Build an event from borrowed parts.
    pub fn new(name: &str, time_s: f64, fields: &[(&str, Value)]) -> Self {
        Event {
            time_s,
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"t\":");
        out.push_str(&fmt_f64(self.time_s));
        out.push_str(",\"ev\":\"");
        json_escape_into(&mut out, &self.name);
        out.push('"');
        for (k, v) in &self.fields {
            out.push_str(",\"");
            json_escape_into(&mut out, k);
            out.push_str("\":");
            match v {
                Value::I64(x) => out.push_str(&x.to_string()),
                Value::U64(x) => out.push_str(&x.to_string()),
                Value::F64(x) => out.push_str(&fmt_f64(*x)),
                Value::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
                Value::Str(s) => {
                    out.push('"');
                    json_escape_into(&mut out, s);
                    out.push('"');
                }
            }
        }
        out.push('}');
        out
    }
}

/// Format an `f64` as a JSON number. Rust's shortest-roundtrip `Display`
/// never emits exponents, so the output is always a valid JSON number;
/// non-finite values become `null`.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_json_line() {
        let e = Event::new(
            "alloc_round",
            1.5,
            &[
                ("component", "engine".into()),
                ("flows", 3u64.into()),
                ("fair", true.into()),
                ("rate", 23.25.into()),
            ],
        );
        assert_eq!(
            e.to_json_line(),
            r#"{"t":1.5,"ev":"alloc_round","component":"engine","flows":3,"fair":true,"rate":23.25}"#
        );
    }

    #[test]
    fn escaping_and_nonfinite() {
        let e = Event::new(
            "x\"y",
            0.0,
            &[("s", "a\\b\nc".into()), ("v", f64::NAN.into())],
        );
        assert_eq!(
            e.to_json_line(),
            "{\"t\":0,\"ev\":\"x\\\"y\",\"s\":\"a\\\\b\\nc\",\"v\":null}"
        );
    }

    #[test]
    fn float_formatting_has_no_exponent() {
        assert_eq!(fmt_f64(0.0000001), "0.0000001");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn integer_conversions() {
        assert_eq!(Value::from(3u32), Value::U64(3));
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(-3i64), Value::I64(-3));
        assert_eq!(Value::from(7u16), Value::U64(7));
    }
}
