//! `daenerysd` — the long-running, fault-tolerant verification daemon.
//!
//! The bench CLI opens and loads the verdict store on every
//! invocation. The daemon opens it once: a
//! [`daenerys_idf::SessionHost`] keeps the verifier configuration and
//! the persistent verdict store warm across requests (each method
//! still gets a fresh term arena and solver), and TCP sessions, one
//! thread each, multiplex concurrent tenants onto it. The wire
//! protocol is length-delimited JSONL frames with a versioned header
//! ([`protocol`]); robustness is load-bearing, not best-effort —
//! admission control ([`admission`]), per-request panic containment,
//! TCP backpressure, a graceful SIGTERM drain ([`server`]), and a
//! deterministic wire-level chaos plan ([`chaos`]) that the test suite
//! and the replay client ([`client`]) drive against the full fault
//! matrix. A live telemetry plane ([`telemetry`]) serves labeled
//! metrics, health (with the admission conservation ledger), and a
//! bounded per-tenant trace tail over admin frames on the same
//! listener — exempt from admission, so observability survives
//! saturation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod chaos;
pub mod client;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use admission::{Admission, AdmissionStats, AdmitTicket, TenantPolicy, TenantStats};
pub use chaos::{splitmix64, WireFault, WireFaultPlan};
pub use client::{Client, RetryPolicy};
pub use protocol::{
    read_frame, write_frame, AdminRequest, ErrorCode, Frame, FrameError, Request, Response,
    WireVerdict,
};
pub use server::{MetricsSnapshot, Server, ServerConfig};
pub use telemetry::{Telemetry, TelemetrySink, TraceRing, TraceTailPage};
