//! The trace handle and per-worker collectors.

use crate::event::{Event, EventKind, Value};
use crate::sink::Sink;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Where timestamps come from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ClockKind {
    /// Wall-clock nanoseconds from a monotonic anchor — production.
    #[default]
    Monotonic,
    /// A per-collector tick counter — fully deterministic, for tests
    /// and trace-equality assertions.
    Logical,
}

/// A collector-local clock instance.
#[derive(Debug)]
enum Clock {
    Monotonic(Instant),
    Logical(u64),
}

impl Clock {
    fn new(kind: ClockKind) -> Clock {
        match kind {
            ClockKind::Monotonic => Clock::Monotonic(Instant::now()),
            ClockKind::Logical => Clock::Logical(0),
        }
    }

    fn now(&mut self) -> u64 {
        match self {
            Clock::Monotonic(anchor) => {
                u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            Clock::Logical(tick) => {
                *tick += 1;
                *tick
            }
        }
    }
}

/// An open span returned by [`TraceCollector::span_start`]; pass it
/// back to [`TraceCollector::span_end`] to close the span.
#[derive(Debug)]
#[must_use = "close the span with TraceCollector::span_end"]
pub struct SpanToken {
    name_index: usize,
    started: u64,
    live: bool,
}

impl SpanToken {
    /// The token handed out by a disabled collector — closing it is a
    /// no-op.
    fn dead() -> SpanToken {
        SpanToken {
            name_index: 0,
            started: 0,
            live: false,
        }
    }
}

/// A per-worker (per-method) event buffer.
///
/// Collectors are thread-local and lock-free: workers record into
/// their own collector and the fan-out's merge path hands the buffers
/// to [`TraceHandle::emit`] in program order. A collector created from
/// a disabled handle records nothing, and every recording method
/// early-returns behind one `enabled` branch.
#[derive(Debug)]
pub struct TraceCollector {
    enabled: bool,
    clock: Clock,
    events: Vec<Event>,
}

impl TraceCollector {
    /// A collector that records nothing.
    pub fn disabled() -> TraceCollector {
        TraceCollector {
            enabled: false,
            clock: Clock::Logical(0),
            events: Vec::new(),
        }
    }

    fn enabled_with(kind: ClockKind) -> TraceCollector {
        TraceCollector {
            enabled: true,
            clock: Clock::new(kind),
            events: Vec::new(),
        }
    }

    /// True when this collector records events — check before building
    /// expensive payloads.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn push(&mut self, kind: EventKind, name: String, fields: Vec<(String, Value)>) {
        let ts = self.clock.now();
        // Local sequence numbers are re-stamped globally at emit time.
        let seq = self.events.len() as u64;
        self.events.push(Event {
            seq,
            ts,
            kind,
            name,
            fields,
        });
    }

    /// Opens a span.
    pub fn span_start(&mut self, name: &str) -> SpanToken {
        if !self.enabled {
            return SpanToken::dead();
        }
        self.push(EventKind::SpanStart, name.to_string(), Vec::new());
        SpanToken {
            name_index: self.events.len() - 1,
            started: self.events.last().expect("just pushed").ts,
            live: true,
        }
    }

    /// Closes a span, recording its duration in clock units.
    pub fn span_end(&mut self, token: SpanToken) {
        if !token.live {
            return;
        }
        let name = self.events[token.name_index].name.clone();
        let ts = self.clock.now();
        let duration = ts.saturating_sub(token.started);
        self.push(
            EventKind::SpanEnd,
            name,
            vec![("duration_nanos".to_string(), Value::UInt(duration))],
        );
    }

    /// Records a point event with a structured payload.
    pub fn event(&mut self, name: &str, fields: Vec<(String, Value)>) {
        if !self.enabled {
            return;
        }
        self.push(EventKind::Point, name.to_string(), fields);
    }

    /// Records a gauge sample as a `Gauge` event.
    pub fn gauge(&mut self, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        self.push(
            EventKind::Gauge,
            name.to_string(),
            vec![("value".to_string(), Value::UInt(value))],
        );
    }

    /// Drains the collector's buffered events.
    pub fn take(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }
}

/// The shared state behind an enabled [`TraceHandle`].
struct Shared {
    sink: Arc<dyn Sink>,
    clock: ClockKind,
    next_seq: AtomicU64,
}

/// A cheap, cloneable handle to the trace pipeline, threaded through
/// `VerifierConfig`.
///
/// The default handle is disabled: collectors it hands out record
/// nothing and `emit` is a no-op, so instrumented code pays one branch
/// per trace point. An enabled handle stamps globally unique, dense
/// sequence numbers at emit time — callers must emit buffers from a
/// single thread in program order to keep traces deterministic (the
/// verifier's merge path does).
///
/// [`TraceHandle::with_context`] derives a handle that additionally
/// stamps fixed attribution fields (tenant/session/request ids) onto
/// every event it emits — the daemon's per-request trace plumbing.
/// Derived handles share the parent's sink and sequence counter, so
/// interleaved requests still produce one densely numbered stream.
#[derive(Clone, Default)]
pub struct TraceHandle {
    shared: Option<Arc<Shared>>,
    /// Fields appended to every emitted event (empty for the root
    /// handle). Shared so cloning a handle is still two pointer
    /// copies.
    context: Arc<Vec<(String, Value)>>,
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.shared {
            None => f.write_str("TraceHandle(disabled)"),
            Some(s) => write!(
                f,
                "TraceHandle(enabled, clock: {:?}, context: {} field(s))",
                s.clock,
                self.context.len()
            ),
        }
    }
}

/// Handles compare by identity of the underlying pipeline plus
/// structural equality of the stamped context: two handles are equal
/// when they feed the same sink (or are both disabled) and attribute
/// events identically. This keeps `VerifierConfig`'s structural
/// equality meaningful without requiring sinks to be comparable.
impl PartialEq for TraceHandle {
    fn eq(&self, other: &TraceHandle) -> bool {
        let same_pipe = match (&self.shared, &other.shared) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        same_pipe && self.context == other.context
    }
}

impl Eq for TraceHandle {}

impl TraceHandle {
    /// The no-op handle (the `VerifierConfig` default).
    pub fn disabled() -> TraceHandle {
        TraceHandle::default()
    }

    /// A handle feeding `sink`, timestamping with `clock`.
    pub fn new(sink: Arc<dyn Sink>, clock: ClockKind) -> TraceHandle {
        TraceHandle {
            shared: Some(Arc::new(Shared {
                sink,
                clock,
                next_seq: AtomicU64::new(0),
            })),
            context: Arc::new(Vec::new()),
        }
    }

    /// A derived handle that stamps `fields` (after any fields this
    /// handle already stamps) onto every event it emits. Deriving from
    /// a disabled handle stays disabled and free.
    pub fn with_context(&self, fields: Vec<(String, Value)>) -> TraceHandle {
        if self.shared.is_none() || fields.is_empty() {
            return TraceHandle {
                shared: self.shared.clone(),
                context: self.context.clone(),
            };
        }
        let mut context = (*self.context).clone();
        context.extend(fields);
        TraceHandle {
            shared: self.shared.clone(),
            context: Arc::new(context),
        }
    }

    /// The fields this handle stamps onto every emitted event.
    pub fn context(&self) -> &[(String, Value)] {
        &self.context
    }

    /// True when events actually go somewhere.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// A fresh collector for one worker/method.
    pub fn collector(&self) -> TraceCollector {
        match &self.shared {
            None => TraceCollector::disabled(),
            Some(s) => TraceCollector::enabled_with(s.clock),
        }
    }

    /// Stamps global sequence numbers (and this handle's context
    /// fields) onto `events` and forwards them to the sink. Call from
    /// the deterministic merge path only.
    pub fn emit(&self, mut events: Vec<Event>) {
        let Some(s) = &self.shared else { return };
        if events.is_empty() {
            return;
        }
        let base = s.next_seq.fetch_add(events.len() as u64, Ordering::Relaxed);
        for (i, e) in events.iter_mut().enumerate() {
            e.seq = base + i as u64;
            e.fields.extend(self.context.iter().cloned());
        }
        s.sink.write(&events);
    }

    /// Flushes the sink.
    pub fn flush(&self) {
        if let Some(s) = &self.shared {
            s.sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_collector_records_nothing() {
        let handle = TraceHandle::disabled();
        assert!(!handle.is_enabled());
        let mut c = handle.collector();
        assert!(!c.is_enabled());
        let t = c.span_start("phase");
        c.event("x", vec![]);
        c.gauge("g", 1);
        c.span_end(t);
        assert!(c.take().is_empty());
        handle.emit(Vec::new());
    }

    #[test]
    fn logical_clock_traces_are_reproducible() {
        let run = || {
            let sink = Arc::new(MemorySink::new(64));
            let handle = TraceHandle::new(sink.clone(), ClockKind::Logical);
            let mut c = handle.collector();
            let t = c.span_start("exec:m");
            c.event("solver.query", vec![("fuel".to_string(), Value::UInt(3))]);
            c.gauge("budget.states", 2);
            c.span_end(t);
            handle.emit(c.take());
            sink.events()
        };
        let events = run();
        assert_eq!(events, run(), "logical-clock traces must be byte-identical");
        // Dense, zero-based sequence numbers; span durations recorded.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (0..events.len() as u64).collect::<Vec<_>>()
        );
        let end = events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnd)
            .unwrap();
        assert!(end.field_u64("duration_nanos").unwrap() > 0);
        let gauge = events.iter().find(|e| e.kind == EventKind::Gauge).unwrap();
        assert_eq!(
            (gauge.name.as_str(), gauge.field_u64("value")),
            ("budget.states", Some(2))
        );
    }

    #[test]
    fn emit_stamps_sequence_across_batches() {
        let sink = Arc::new(MemorySink::new(64));
        let handle = TraceHandle::new(sink.clone(), ClockKind::Logical);
        for _ in 0..2 {
            let mut c = handle.collector();
            c.event("a", vec![]);
            c.event("b", vec![]);
            handle.emit(c.take());
            assert!(c.take().is_empty(), "take drains");
        }
        let seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
    }

    #[test]
    fn handles_compare_by_identity() {
        let sink = Arc::new(MemorySink::new(4));
        let h1 = TraceHandle::new(sink.clone(), ClockKind::Logical);
        let h2 = h1.clone();
        let h3 = TraceHandle::new(sink, ClockKind::Logical);
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
        assert_eq!(TraceHandle::disabled(), TraceHandle::default());
    }

    #[test]
    fn context_is_stamped_on_every_event() {
        let sink = Arc::new(MemorySink::new(16));
        let root = TraceHandle::new(sink.clone(), ClockKind::Logical);
        let request = root.with_context(vec![
            ("tenant".to_string(), Value::Str("acme".to_string())),
            ("request".to_string(), Value::UInt(7)),
        ]);
        assert_ne!(root, request, "context participates in handle equality");

        // Interleaved emits from the root and a derived handle share
        // one dense sequence stream; only the derived handle's events
        // carry the attribution fields.
        let mut c = root.collector();
        c.event("plain", vec![]);
        root.emit(c.take());
        let mut c = request.collector();
        c.event("attributed", vec![("own".to_string(), Value::UInt(1))]);
        request.emit(c.take());

        let events = sink.events();
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert!(events[0].fields.is_empty());
        assert_eq!(events[1].field_u64("own"), Some(1));
        assert_eq!(events[1].field_u64("request"), Some(7));
        assert!(events[1]
            .fields
            .iter()
            .any(|(k, v)| k == "tenant" && *v == Value::Str("acme".to_string())));

        // Nested derivation appends, never replaces.
        let session = request.with_context(vec![("session".to_string(), Value::UInt(3))]);
        assert_eq!(session.context().len(), 3);

        // Deriving from a disabled handle stays disabled.
        let dead = TraceHandle::disabled().with_context(vec![("k".to_string(), Value::UInt(0))]);
        assert!(!dead.is_enabled());
        assert!(dead.context().is_empty());
    }

    #[test]
    fn monotonic_span_durations_fit_between_their_events() {
        let handle = TraceHandle::new(Arc::new(MemorySink::new(4)), ClockKind::Monotonic);
        let mut c = handle.collector();
        let t = c.span_start("parse");
        c.span_end(t);
        let events = c.take();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].seq, events[1].seq), (0, 1));
        assert_eq!(events[1].name, "parse");
        let duration = events[1].field_u64("duration_nanos").unwrap();
        assert!(events[0].ts <= events[1].ts);
        assert!(duration <= events[1].ts - events[0].ts);
    }

    #[test]
    fn flush_reaches_the_sink_of_an_enabled_handle() {
        #[derive(Default)]
        struct Flushes(AtomicU64);
        impl Sink for Flushes {
            fn write(&self, _events: &[Event]) {}
            fn flush(&self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let sink = Arc::new(Flushes::default());
        let handle = TraceHandle::new(sink.clone(), ClockKind::Logical);
        handle.flush();
        handle
            .with_context(vec![("k".to_string(), Value::UInt(1))])
            .flush();
        TraceHandle::disabled().flush();
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn debug_names_the_clock_and_the_context_size() {
        let handle = TraceHandle::new(Arc::new(MemorySink::new(1)), ClockKind::Logical)
            .with_context(vec![("tenant".to_string(), Value::Str("a".to_string()))]);
        assert_eq!(
            format!("{:?}", handle),
            "TraceHandle(enabled, clock: Logical, context: 1 field(s))"
        );
        assert_eq!(
            format!("{:?}", TraceHandle::disabled()),
            "TraceHandle(disabled)"
        );
    }
}
