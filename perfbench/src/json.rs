//! Hand-rolled JSON output, std only, in the style of the engine's
//! `MetricsReport::to_json_lines`: one self-describing object per line.

use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders a number with every digit it has (Rust's shortest round-trip
/// form). JSON has no NaN or infinity, so those render as `null`; the
/// metrics code never produces them (see [`crate::stats::ratio`]).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// An object under construction: `Obj::new().num("a", 1.0).str("b", "x")`.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{}\":", escape(key));
    }

    /// Adds a number field.
    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        self.body.push_str(&number(v));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        let _ = write!(self.body, "{v}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.key(key);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        let _ = write!(self.body, "\"{}\"", escape(v));
        self
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.body.push_str(json);
        self
    }

    /// Adds an array of strings.
    pub fn strs(self, key: &str, items: &[&str]) -> Self {
        let parts: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
        self.raw(key, &format!("[{}]", parts.join(",")))
    }

    /// The rendered object.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("tab\there\r"), "tab\\there\\r");
        assert_eq!(escape("\u{1}x\u{1f}"), "\\u0001x\\u001f");
        assert_eq!(escape("plain ü ☃"), "plain ü ☃");
    }

    #[test]
    fn numbers_keep_their_digits_and_never_emit_nan() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn objects_render_fields_in_order() {
        let o = Obj::new()
            .num("v", 1.5)
            .int("n", 7)
            .bool("ok", true)
            .str("s", "q\"")
            .strs("l", &["a", "b"])
            .raw("m", "{}");
        assert_eq!(
            o.render(),
            "{\"v\":1.5,\"n\":7,\"ok\":true,\"s\":\"q\\\"\",\"l\":[\"a\",\"b\"],\"m\":{}}"
        );
        assert_eq!(Obj::new().render(), "{}");
    }
}
