//! Structured trace events and their JSONL wire format.

use crate::json::escape_into;
use std::fmt;

/// A field value attached to an [`Event`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// An unsigned counter/gauge value.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A boolean flag.
    Bool(bool),
    /// A string label.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::UInt(v) => write!(f, "{}", v),
            Value::Int(v) => write!(f, "{}", v),
            Value::Bool(v) => write!(f, "{}", v),
            Value::Str(v) => write!(f, "{}", v),
        }
    }
}

/// The kind of an [`Event`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A phase/span has begun (paired with a later `SpanEnd` of the
    /// same name).
    SpanStart,
    /// A phase/span has finished; carries a `duration_nanos` field.
    SpanEnd,
    /// A point-in-time event (e.g. one solver query).
    Point,
    /// A sampled value (e.g. budget consumption); carries a `value`
    /// field.
    Gauge,
}

impl EventKind {
    /// The wire name used in the JSONL `kind` field.
    pub fn wire_name(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Point => "point",
            EventKind::Gauge => "gauge",
        }
    }

    /// Every wire name, for schema validation.
    pub const WIRE_NAMES: [&'static str; 4] = ["span_start", "span_end", "point", "gauge"];
}

/// One structured trace event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Event {
    /// Global sequence number, assigned on the deterministic merge
    /// path (program order, dense from 0 per [`crate::TraceHandle`]).
    pub seq: u64,
    /// Timestamp in clock units: nanoseconds under the monotonic
    /// clock, a per-collector tick count under the logical clock.
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
    /// Span or event name (e.g. `exec:inc`, `solver.query`,
    /// `stability.classify` — the verifier's per-spec classification
    /// point event, whose fields carry the spec site, its stability
    /// class, and its finding count). The CDCL core's search
    /// counters are not events: they reach the method's `VerifyStats`
    /// (`solver_conflicts`, `solver_restarts`, `theory_props`), so hot
    /// search loops never pay for event construction.
    pub name: String,
    /// Structured payload, in insertion order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// A `u64` field by name, if present and unsigned.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        match self.field(name) {
            Some(Value::UInt(v)) => Some(*v),
            _ => None,
        }
    }

    /// The event with every wall-clock-dependent quantity zeroed: the
    /// timestamp and the `duration_nanos` field. Two traces of the
    /// same run agree on their `normalized` forms regardless of
    /// machine speed; under the logical clock normalization is the
    /// identity on already-deterministic data.
    pub fn normalized(&self) -> Event {
        let mut e = self.clone();
        e.ts = 0;
        for (k, v) in &mut e.fields {
            if k == "duration_nanos" {
                *v = Value::UInt(0);
            }
        }
        e
    }

    /// Renders the event as one JSONL line (no trailing newline).
    ///
    /// Written by hand rather than through [`crate::Json`]: the key
    /// order is fixed, and `UInt` fields above 2⁵³ (`pc_hash`) must
    /// print exactly, which an `f64` number cannot.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + 16 * self.fields.len());
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&self.ts.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.wire_name());
        out.push_str("\",\"name\":");
        escape_into(&self.name, &mut out);
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(k, &mut out);
            out.push(':');
            match v {
                Value::UInt(n) => out.push_str(&n.to_string()),
                Value::Int(n) => out.push_str(&n.to_string()),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Str(s) => escape_into(s, &mut out),
            }
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event {
            seq: 3,
            ts: 120,
            kind: EventKind::SpanEnd,
            name: "exec:inc".to_string(),
            fields: vec![
                ("duration_nanos".to_string(), Value::UInt(99)),
                ("ok".to_string(), Value::Bool(true)),
                ("label".to_string(), Value::Str("a \"b\"\n".to_string())),
                ("delta".to_string(), Value::Int(-4)),
            ],
        }
    }

    #[test]
    fn jsonl_rendering_escapes_and_orders() {
        let line = sample().to_jsonl();
        assert_eq!(
            line,
            "{\"seq\":3,\"ts\":120,\"kind\":\"span_end\",\"name\":\"exec:inc\",\
             \"fields\":{\"duration_nanos\":99,\"ok\":true,\"label\":\"a \\\"b\\\"\\n\",\"delta\":-4}}"
        );
    }

    #[test]
    fn normalization_zeroes_clock_dependent_data() {
        let n = sample().normalized();
        assert_eq!(n.ts, 0);
        assert_eq!(n.field_u64("duration_nanos"), Some(0));
        assert_eq!(n.field("ok"), Some(&Value::Bool(true)));
        assert_eq!(n.seq, 3, "sequence numbers are deterministic and kept");
    }

    #[test]
    fn field_u64_reads_only_unsigned_fields() {
        let e = sample();
        assert_eq!(e.field_u64("duration_nanos"), Some(99));
        assert_eq!(e.field_u64("delta"), None, "signed");
        assert_eq!(e.field_u64("ok"), None, "boolean");
        assert_eq!(e.field_u64("missing"), None);
        assert_eq!(e.field("delta"), Some(&Value::Int(-4)));
    }

    #[test]
    fn values_display_bare() {
        assert_eq!(Value::UInt(7).to_string(), "7");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::Str("a \"b\"".to_string()).to_string(), "a \"b\"");
    }

    #[test]
    fn every_kind_has_a_distinct_listed_wire_name() {
        let kinds = [
            EventKind::SpanStart,
            EventKind::SpanEnd,
            EventKind::Point,
            EventKind::Gauge,
        ];
        let names: Vec<&str> = kinds.iter().map(|k| k.wire_name()).collect();
        assert_eq!(names, EventKind::WIRE_NAMES);
    }

    #[test]
    fn unsigned_fields_above_two_to_the_53_print_exactly() {
        let e = Event {
            fields: vec![("pc_hash".to_string(), Value::UInt(u64::MAX))],
            ..sample()
        };
        let line = e.to_jsonl();
        assert!(
            line.contains("\"pc_hash\":18446744073709551615}"),
            "{}",
            line
        );
        crate::json::validate_event_line(&line).unwrap();
    }
}
