//! In-memory spans for the traced run, in the `daenerys_obs` event
//! schema: one `span_start`/`span_end` pair per layer call, tagged with
//! the op it belongs to, its parent span and whether it is a replay.
//! Spans are kept in memory and written once, when the run ends.

use daenerys_obs::{validate_event_line, Event, EventKind, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

pub struct Spans {
    anchor: Instant,
    events: Vec<Event>,
    next_id: u64,
}

/// An open span; close it with [`Spans::close`].
pub struct Open {
    id: u64,
    name: &'static str,
    start_ts: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            anchor: Instant::now(),
            events: Vec::new(),
            next_id: 1,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, kind: EventKind, name: &str, ts: u64, fields: Vec<(String, Value)>) {
        self.events.push(Event {
            seq: self.events.len() as u64,
            ts,
            kind,
            name: name.to_string(),
            fields,
        });
    }

    /// Opens span `name` of op `op` under `parent` (0 for an op's root).
    pub fn open(&mut self, op: u64, parent: u64, name: &'static str, replay: bool) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        let start_ts = self.now();
        let fields = vec![
            ("op".to_string(), Value::UInt(op)),
            ("span".to_string(), Value::UInt(id)),
            ("parent".to_string(), Value::UInt(parent)),
            ("replay".to_string(), Value::Bool(replay)),
        ];
        self.push(EventKind::SpanStart, name, start_ts, fields);
        Open { id, name, start_ts }
    }

    /// Closes `span`, attaching the counts measured at its boundary.
    pub fn close(&mut self, span: Open, counts: &[(&str, u64)]) -> u64 {
        let end_ts = self.now();
        let nanos = end_ts - span.start_ts;
        let mut fields = vec![
            ("span".to_string(), Value::UInt(span.id)),
            ("duration_nanos".to_string(), Value::UInt(nanos)),
        ];
        fields.extend(counts.iter().map(|(k, v)| (k.to_string(), Value::UInt(*v))));
        self.push(EventKind::SpanEnd, span.name, end_ts, fields);
        nanos
    }

    /// Self time per span name, summed, with the number of spans: a
    /// span's duration minus the part of its interval that its child
    /// spans cover. Replay spans run after the call they attribute, so
    /// they never overlap their parent and subtract nothing from it.
    pub fn self_nanos(&self) -> BTreeMap<String, (u64, u64)> {
        struct Interval {
            name: String,
            parent: u64,
            start: u64,
            end: u64,
        }
        let mut open: BTreeMap<u64, (String, u64, u64)> = BTreeMap::new();
        let mut done: BTreeMap<u64, Interval> = BTreeMap::new();
        for e in &self.events {
            let id = e.field_u64("span").unwrap_or(0);
            match e.kind {
                EventKind::SpanStart => {
                    let parent = e.field_u64("parent").unwrap_or(0);
                    open.insert(id, (e.name.clone(), parent, e.ts));
                }
                EventKind::SpanEnd => {
                    if let Some((name, parent, start)) = open.remove(&id) {
                        done.insert(
                            id,
                            Interval {
                                name,
                                parent,
                                start,
                                end: e.ts,
                            },
                        );
                    }
                }
                _ => {}
            }
        }
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for span in done.values() {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start, span.end));
        }
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (id, span) in &done {
            let mut covered = 0;
            let mut cursor = span.start;
            let mut kids: Vec<(u64, u64)> = children.get(id).cloned().unwrap_or_default();
            kids.sort_unstable();
            for (s, e) in kids {
                let (s, e) = (s.max(cursor), e.min(span.end));
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            let entry = out.entry(span.name.clone()).or_default();
            entry.0 += (span.end - span.start).saturating_sub(covered);
            entry.1 += 1;
        }
        out
    }

    /// Writes the spans as JSONL, checking every line against the event
    /// schema first; a line that fails is an error, not a warning.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for e in &self.events {
            let line = e.to_jsonl();
            validate_event_line(&line).map_err(|err| format!("trace line {}: {}", e.seq, err))?;
            text.push_str(&line);
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|err| format!("{}: {}", path.display(), err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_only_where_they_overlap() {
        let mut spans = Spans::new();
        let root = spans.open(1, 0, "op", false);
        let child = spans.open(1, root.id(), "parser", false);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child_nanos = spans.close(child, &[("bytes", 10)]);
        let root_nanos = spans.close(root, &[]);
        let table = spans.self_nanos();
        assert_eq!(table["parser"], (child_nanos, 1));
        assert_eq!(table["op"].0, root_nanos - child_nanos);
    }
}
