//! Span data types: the records the runtime emits and sinks consume.

/// A typed span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, byte sizes, cell indices).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rates, seconds).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short free-form text (endpoint names, fallback reasons).
    Str(String),
}

impl FieldValue {
    /// Renders the value as a JSON token.
    pub fn to_json(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::I64(v) => v.to_string(),
            FieldValue::F64(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                }
            }
            FieldValue::Bool(v) => v.to_string(),
            FieldValue::Str(v) => crate::sink::json_string(v),
        }
    }
}

/// One completed span, as stored in the ring and handed to sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to (0 = untraced).
    pub trace: u64,
    /// Unique span ID (process-wide, never 0).
    pub id: u64,
    /// Parent span ID (0 = root).
    pub parent: u64,
    /// Static span name (stage or unit of work).
    pub name: &'static str,
    /// Start time in nanoseconds since the runtime epoch (process start).
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (0 for events).
    pub duration_ns: u64,
    /// Typed fields, in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// Renders the record as one JSON object with a **stable field order**
    /// (`trace`, `span`, `parent`, `name`, `start_ns`, `dur_ns`, `fields` in
    /// insertion order) so trace logs are golden-testable.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"trace\":\"");
        out.push_str(&format!("{:016x}", self.trace));
        out.push_str("\",\"span\":");
        out.push_str(&self.id.to_string());
        out.push_str(",\"parent\":");
        out.push_str(&self.parent.to_string());
        out.push_str(",\"name\":");
        out.push_str(&crate::sink::json_string(self.name));
        out.push_str(",\"start_ns\":");
        out.push_str(&self.start_ns.to_string());
        out.push_str(",\"dur_ns\":");
        out.push_str(&self.duration_ns.to_string());
        out.push_str(",\"fields\":{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&crate::sink::json_string(key));
            out.push(':');
            out.push_str(&value.to_json());
        }
        out.push_str("}}");
        out
    }

    /// The value of a field, if present.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Cross-thread span handle: enough to parent a child span on another thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanContext {
    /// Trace ID (0 = untraced / disabled).
    pub trace: u64,
    /// Span ID of the parent (0 = none).
    pub span: u64,
}
