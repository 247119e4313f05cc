//! Pluggable event sinks: in-memory ring buffer and JSONL.

use crate::event::Event;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Where merged trace events go.
///
/// Contract: [`TraceHandle::emit`](crate::TraceHandle::emit) calls
/// `write` from the single-threaded merge path with events already in
/// program order and with dense, monotonically increasing sequence
/// numbers; a sink must not reorder, dedupe, or renumber them. Sinks
/// are `Send + Sync` because the handle holding them is cloned across
/// worker threads, but writes are serialized by the caller's merge
/// discipline (interior mutability is still required for `&self`
/// writes).
pub trait Sink: Send + Sync {
    /// Consumes a batch of merged events.
    fn write(&self, events: &[Event]);
    /// Flushes buffered output (a no-op for most sinks).
    fn flush(&self) {}
}

/// An in-memory ring buffer of the most recent events — the test
/// sink.
#[derive(Debug)]
pub struct MemorySink {
    capacity: usize,
    inner: Mutex<VecDeque<Event>>,
}

impl MemorySink {
    /// A ring buffer holding at most `capacity` events (older events
    /// are dropped first).
    pub fn new(capacity: usize) -> MemorySink {
        MemorySink {
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// A snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("memory sink poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("memory sink poisoned").len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn write(&self, events: &[Event]) {
        let mut buf = self.inner.lock().expect("memory sink poisoned");
        for e in events {
            if buf.len() == self.capacity {
                buf.pop_front();
            }
            buf.push_back(e.clone());
        }
    }
}

/// Writes one JSON object per line (the `--trace-out` sink).
pub struct JsonlSink {
    inner: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl JsonlSink {
    /// Wraps an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            inner: Mutex::new(writer),
        }
    }

    /// Creates (truncating) a JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &Path) -> io::Result<JsonlSink> {
        Ok(JsonlSink::new(Box::new(BufWriter::new(File::create(
            path,
        )?))))
    }
}

impl Sink for JsonlSink {
    fn write(&self, events: &[Event]) {
        let mut w = self.inner.lock().expect("jsonl sink poisoned");
        for e in events {
            // Trace output is best-effort: an I/O error must never
            // fail verification.
            let _ = writeln!(w, "{}", e.to_jsonl());
        }
    }

    fn flush(&self) {
        let _ = self.inner.lock().expect("jsonl sink poisoned").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Value};

    fn ev(seq: u64, name: &str) -> Event {
        Event {
            seq,
            ts: seq * 10,
            kind: EventKind::Point,
            name: name.to_string(),
            fields: vec![("n".to_string(), Value::UInt(seq))],
        }
    }

    #[test]
    fn memory_sink_is_a_ring() {
        let sink = MemorySink::new(2);
        sink.write(&[ev(0, "a"), ev(1, "b"), ev(2, "c")]);
        let names: Vec<String> = sink.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["b", "c"]);
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_valid_lines() {
        let buf: std::sync::Arc<Mutex<Vec<u8>>> = std::sync::Arc::default();
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Box::new(Shared(buf.clone())));
        sink.write(&[ev(0, "x"), ev(1, "y")]);
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            crate::json::validate_event_line(line).unwrap();
        }
    }

    #[test]
    fn memory_sink_capacity_is_at_least_one() {
        let sink = MemorySink::new(0);
        assert!(sink.is_empty());
        sink.write(&[ev(0, "a"), ev(1, "b")]);
        assert_eq!(sink.events(), [ev(1, "b")]);
    }

    #[test]
    fn jsonl_sink_create_truncates_the_file() {
        let path =
            std::env::temp_dir().join(format!("obs-jsonl-sink-{}.jsonl", std::process::id()));
        std::fs::write(&path, "stale\nstale\nstale\n").unwrap();
        let sink = JsonlSink::create(&path).unwrap();
        sink.write(&[ev(0, "x")]);
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("{}\n", ev(0, "x").to_jsonl()));
        std::fs::remove_file(&path).unwrap();
    }
}
