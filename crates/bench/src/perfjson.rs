//! A minimal JSON document builder for perf-trajectory artifacts.
//!
//! The build environment vendors `serde` but not `serde_json`, and the
//! bench reports only need objects, arrays, strings, and finite
//! numbers, so this hand-rolled emitter keeps the artifact format
//! stable without a new dependency. Insertion order is preserved —
//! reports diff cleanly across runs.
//!
//! Two ways in, one printer: [`JsonObject`] builds a tree (the ops
//! documents, the bench artifacts) and [`JsonWriter`] streams straight
//! into a `String` (the serving path's replies). The tree renders
//! through the writer, so escaping, number formatting, the two-space
//! indent and the trailing newline are written once.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string (escaped on render).
    Str(String),
    /// An integer, rendered without a fraction.
    Int(i64),
    /// A finite float, rendered via Rust's shortest-roundtrip `Display`.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered key/value object.
    Object(JsonObject),
    /// An array.
    Array(Vec<Json>),
}

/// An insertion-ordered JSON object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObject {
    entries: Vec<(String, Json)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a value (builder style).
    #[must_use]
    pub fn with(mut self, key: &str, value: Json) -> Self {
        self.set(key, value);
        self
    }

    /// Insert a string.
    #[must_use]
    pub fn with_str(self, key: &str, value: &str) -> Self {
        self.with(key, Json::Str(value.to_string()))
    }

    /// Insert an integer.
    #[must_use]
    pub fn with_int(self, key: &str, value: i64) -> Self {
        self.with(key, Json::Int(value))
    }

    /// Insert a float.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values — JSON has no representation for
    /// them and a perf artifact containing one is a bug.
    #[must_use]
    pub fn with_num(self, key: &str, value: f64) -> Self {
        assert!(value.is_finite(), "non-finite value for key {key:?}");
        self.with(key, Json::Num(value))
    }

    /// Insert a value by reference.
    pub fn set(&mut self, key: &str, value: Json) {
        self.entries.push((key.to_string(), value));
    }

    /// Render the object as a pretty-printed JSON document with a
    /// trailing newline, ready to write to disk.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut writer = JsonWriter::object(&mut out);
        write_members(self, &mut writer);
        writer.finish();
        out
    }
}

fn write_members(object: &JsonObject, writer: &mut JsonWriter<'_>) {
    for (key, value) in &object.entries {
        write_value(value, writer.key(key));
    }
}

fn write_value(value: &Json, writer: &mut JsonWriter<'_>) {
    match value {
        Json::Str(s) => writer.str(s),
        Json::Int(i) => writer.int(*i),
        Json::Num(n) => writer.num(*n),
        Json::Bool(b) => writer.bool(*b),
        Json::Object(o) => {
            writer.open_object();
            write_members(o, writer);
            writer.close_object();
        }
        Json::Array(items) => {
            writer.open_array();
            for item in items {
                write_value(item, writer.element());
            }
            writer.close_array();
        }
    }
}

/// A streaming writer of the document format: the same bytes
/// [`JsonObject::render`] produces (which is written on top of it),
/// appended to a caller-owned `String` with no tree in between — what
/// the serving path uses to print a reply's dozen scalars without a
/// heap block per key.
///
/// Position, then value: [`key`](Self::key) inside an object or
/// [`element`](Self::element) inside an array places the separator and
/// indent, and exactly one value call (`str`, `int`, `num`, `bool`, or
/// an `open_*` … `close_*` pair) must follow it.
///
/// ```
/// use tt_bench::perfjson::JsonWriter;
///
/// let mut out = String::new();
/// let mut doc = JsonWriter::object(&mut out);
/// doc.key("version").int(2);
/// doc.key("degraded").bool(false);
/// doc.finish();
/// assert_eq!(out, "{\n  \"version\": 2,\n  \"degraded\": false\n}\n");
/// ```
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    depth: usize,
    /// Whether the innermost open container has no member yet. One
    /// flag serves every level: closing a container makes it a member
    /// of its parent, so the parent is never empty afterwards.
    empty: bool,
}

impl<'a> JsonWriter<'a> {
    /// Open a document's root object at the end of `out`.
    pub fn object(out: &'a mut String) -> Self {
        out.push('{');
        JsonWriter {
            out,
            depth: 1,
            empty: true,
        }
    }

    fn place(&mut self) {
        self.out.push_str(if self.empty { "\n" } else { ",\n" });
        self.empty = false;
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Start the next member of the open object.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.place();
        self.str(key);
        self.out.push_str(": ");
        self
    }

    /// Start the next element of the open array.
    pub fn element(&mut self) -> &mut Self {
        self.place();
        self
    }

    /// A string value, escaped.
    pub fn str(&mut self, value: &str) {
        self.out.push('"');
        // Everything that needs escaping is one ASCII byte, so the
        // text between two of them is copied as a run.
        let mut run = 0;
        for (i, byte) in value.bytes().enumerate() {
            let escape = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x20.. => continue,
                _ => "",
            };
            self.out.push_str(&value[run..i]);
            run = i + 1;
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{byte:04x}");
            } else {
                self.out.push_str(escape);
            }
        }
        self.out.push_str(&value[run..]);
        self.out.push('"');
    }

    /// An integer value, rendered without a fraction.
    pub fn int(&mut self, value: i64) {
        let _ = write!(self.out, "{value}");
    }

    /// A float value.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values — JSON has no representation for
    /// them.
    pub fn num(&mut self, value: f64) {
        assert!(value.is_finite(), "non-finite JSON number");
        // `Display` for f64 always produces a valid JSON number for
        // finite values (shortest roundtrip form).
        let _ = write!(self.out, "{value}");
    }

    /// A boolean value.
    pub fn bool(&mut self, value: bool) {
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// An object value; members follow until [`close_object`](Self::close_object).
    pub fn open_object(&mut self) {
        self.open('{');
    }

    /// An array value; elements follow until [`close_array`](Self::close_array).
    pub fn open_array(&mut self) {
        self.open('[');
    }

    /// End the innermost open object.
    pub fn close_object(&mut self) {
        self.close('}');
    }

    /// End the innermost open array.
    pub fn close_array(&mut self) {
        self.close(']');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
        self.empty = false;
        self.out.push(bracket);
    }

    /// Close the root object and end the document with a newline.
    pub fn finish(mut self) {
        self.close('}');
        self.out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let doc = JsonObject::new()
            .with_str("bench", "rulegen")
            .with_int("threads", 8)
            .with_num("speedup", 3.5)
            .with(
                "entries",
                Json::Array(vec![Json::Object(
                    JsonObject::new()
                        .with_str("name", "seq")
                        .with_num("wall_ms", 12.25),
                )]),
            );
        let rendered = doc.render();
        assert!(rendered.starts_with("{\n"));
        assert!(rendered.contains("\"bench\": \"rulegen\""));
        assert!(rendered.contains("\"speedup\": 3.5"));
        assert!(rendered.contains("\"wall_ms\": 12.25"));
        assert!(rendered.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings() {
        let doc = JsonObject::new().with_str("k", "a\"b\\c\nd\u{1}");
        assert!(doc.render().contains("\"a\\\"b\\\\c\\nd\\u0001\""));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        let _ = JsonObject::new().with_num("x", f64::NAN);
    }

    #[test]
    fn empty_containers() {
        let doc = JsonObject::new()
            .with("o", Json::Object(JsonObject::new()))
            .with("a", Json::Array(vec![]));
        assert!(doc.render().contains("\"o\": {}"));
        assert!(doc.render().contains("\"a\": []"));
    }

    /// Every `Json` variant, nesting, both empty containers and every
    /// escape class, as the tree renderer printed them before it was
    /// rebuilt on the writer.
    const EVERY_SHAPE: &str = r#"{
  "s": "q\"b\\n\nr\rt\tc\u0001\u001f é",
  "i": -7,
  "n": 0.00035,
  "whole": 3,
  "t": true,
  "f": false,
  "o": {
    "inner": {},
    "list": [
      1,
      [],
      [
        "x"
      ],
      {
        "k": 1.5
      }
    ]
  },
  "e": [],
  "k\"ey": "v"
}
"#;

    fn every_shape_tree() -> JsonObject {
        JsonObject::new()
            .with_str("s", "q\"b\\n\nr\rt\tc\u{1}\u{1f} é")
            .with_int("i", -7)
            .with_num("n", 0.00035)
            .with_num("whole", 3.0)
            .with("t", Json::Bool(true))
            .with("f", Json::Bool(false))
            .with(
                "o",
                Json::Object(
                    JsonObject::new()
                        .with("inner", Json::Object(JsonObject::new()))
                        .with(
                            "list",
                            Json::Array(vec![
                                Json::Int(1),
                                Json::Array(vec![]),
                                Json::Array(vec![Json::Str("x".into())]),
                                Json::Object(JsonObject::new().with_num("k", 1.5)),
                            ]),
                        ),
                ),
            )
            .with("e", Json::Array(vec![]))
            .with_str("k\"ey", "v")
    }

    #[test]
    fn tree_and_stream_print_the_same_bytes() {
        assert_eq!(every_shape_tree().render(), EVERY_SHAPE);

        let mut out = String::from("prefix kept|");
        let mut doc = JsonWriter::object(&mut out);
        doc.key("s").str("q\"b\\n\nr\rt\tc\u{1}\u{1f} é");
        doc.key("i").int(-7);
        doc.key("n").num(0.00035);
        doc.key("whole").num(3.0);
        doc.key("t").bool(true);
        doc.key("f").bool(false);
        doc.key("o").open_object();
        doc.key("inner").open_object();
        doc.close_object();
        doc.key("list").open_array();
        doc.element().int(1);
        doc.element().open_array();
        doc.close_array();
        doc.element().open_array();
        doc.element().str("x");
        doc.close_array();
        doc.element().open_object();
        doc.key("k").num(1.5);
        doc.close_object();
        doc.close_array();
        doc.close_object();
        doc.key("e").open_array();
        doc.close_array();
        doc.key("k\"ey").str("v");
        doc.finish();
        assert_eq!(out.strip_prefix("prefix kept|"), Some(EVERY_SHAPE));
    }

    #[test]
    fn empty_root_object() {
        assert_eq!(JsonObject::new().render(), "{}\n");
        let mut out = String::new();
        JsonWriter::object(&mut out).finish();
        assert_eq!(out, "{}\n");
    }

    #[test]
    #[should_panic(expected = "non-finite JSON number")]
    fn tree_render_rejects_a_smuggled_infinity() {
        let _ = JsonObject::new()
            .with("x", Json::Num(f64::INFINITY))
            .render();
    }

    #[test]
    #[should_panic(expected = "non-finite JSON number")]
    fn stream_rejects_nan() {
        let mut out = String::new();
        JsonWriter::object(&mut out).key("x").num(f64::NAN);
    }
}
