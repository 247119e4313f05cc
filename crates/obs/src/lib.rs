//! # `daenerys-obs` — the verifier flight recorder
//!
//! A zero-dependency observability layer for the Daenerys pipeline:
//! structured [`Event`]s (span start/end, point events, gauges), one
//! [`MetricsRegistry`] of counters and log₂ histograms keyed by name ×
//! [`Labels`] (the daemon's telemetry ledger; the trace layer records
//! events only), pluggable [`Sink`]s (in-memory ring buffer, JSONL),
//! and the workspace's one JSON writer, [`Json::render`] (see
//! [`json`]).
//!
//! ## Determinism contract
//!
//! Tracing must never perturb verification results, and traces
//! themselves must be reproducible:
//!
//! * Producers record into a thread-local [`TraceCollector`] (one per
//!   verified method) and the fan-out merges the buffers **in program
//!   order**, so the emitted stream is identical at any thread count.
//! * Sequence numbers are assigned on the single-threaded merge path.
//! * Timestamps come from a pluggable [`ClockKind`]: `Monotonic` in
//!   production, `Logical` (a per-collector tick counter) in tests —
//!   under the logical clock two runs of the same program produce
//!   byte-identical streams; under the monotonic clock they are
//!   identical after [`Event::normalized`] timestamp normalization.
//! * A disabled handle ([`TraceHandle::disabled`], the default) skips
//!   all event construction behind a single branch, so the instrumented
//!   hot paths cost nothing when tracing is off.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod json;
pub mod labels;
pub mod metrics;
pub mod render;
pub mod sink;
pub mod trace;

pub use event::{Event, EventKind, Value};
pub use json::{parse as parse_json, validate_event_line, Json, JsonError};
pub use labels::Labels;
pub use metrics::{Histogram, MetricsRegistry};
pub use render::{caret_line, fmt_count, fmt_nanos, gutter, ColorMode, Style, TextTable};
pub use sink::{JsonlSink, MemorySink, Sink};
pub use trace::{ClockKind, SpanToken, TraceCollector, TraceHandle};
