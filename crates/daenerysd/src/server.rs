//! The daemon core: accept loop, one thread per session, graceful
//! drain.
//!
//! One TCP connection is one *session*, served by one thread. It reads
//! a frame, decodes it, admits it, verifies it against the shared warm
//! [`SessionHost`] and writes the response, and only then reads the
//! next frame. The socket buffer is the session's queue: while a
//! request runs the thread reads nothing, so a client that pipelines
//! frames is pushed back on by TCP — the daemon never buffers
//! unboundedly.
//!
//! Robustness contract (enforced by the chaos suite):
//! - a malformed frame, torn write, or slow-loris stall costs *that
//!   session only* — a typed error and/or a close, never a panic;
//! - a panicking request degrades to an `internal` error response for
//!   that request; the session and every sibling continue;
//! - over-budget tenants are refused immediately (`status:"refused"`)
//!   and never verified;
//! - shutdown stops intake, lets every session answer the request it
//!   is verifying, and reports zero leaked sessions in the final
//!   [`MetricsSnapshot`]; each request's own store commit has already
//!   written its verdicts.

use crate::admission::{Admission, TenantPolicy};
use crate::protocol::{
    read_frame, write_frame, AdminRequest, ErrorCode, Frame, FrameError, Request, Response,
    WireVerdict,
};
use crate::telemetry::{Telemetry, DEFAULT_RING_CAP, SERVER_BUCKET};
use daenerys_idf::exec::Backend;
use daenerys_idf::exec::VerifierConfig;
use daenerys_idf::parser::DEFAULT_MAX_ERRORS;
use daenerys_idf::session::{SessionError, SessionHost, VerifyRequest};
use daenerys_obs::{ClockKind, Json, Labels, TraceHandle, Value};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Verification backend for every session.
    pub backend: Backend,
    /// Base verifier configuration. `cache_dir` here opens the warm
    /// shared store; `trace` is the root every request context derives
    /// from. `retry_unknown` is ignored: the daemon never retries, so
    /// the tenant policy's budget ceilings hold.
    pub base: VerifierConfig,
    /// The per-tenant admission envelope.
    pub policy: TenantPolicy,
    /// A started frame must complete within this many milliseconds —
    /// the slow-loris cutoff.
    pub frame_deadline_ms: u64,
}

/// Read/accept poll granularity: how quickly the daemon notices a new
/// connection or a shutdown request.
const READ_POLL: Duration = Duration::from_millis(25);

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            backend: Backend::Destabilized,
            base: VerifierConfig::default(),
            policy: TenantPolicy::default(),
            frame_deadline_ms: 2_000,
        }
    }
}

/// The final state of a drained daemon, emitted at shutdown (and, for
/// the smoke gate, asserted on: `leaked_sessions` must be 0). Read from
/// the telemetry ledger; the cell behind each field is listed in the
/// [`crate::telemetry`] module docs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetricsSnapshot {
    /// Sessions accepted over the daemon's lifetime.
    pub sessions_opened: u64,
    /// Sessions whose thread has finished.
    pub sessions_closed: u64,
    /// `sessions_opened - sessions_closed`; 0 after a graceful drain.
    pub leaked_sessions: u64,
    /// Frames successfully read and counted as requests.
    pub requests_received: u64,
    /// Requests answered `status:"ok"`.
    pub responses_ok: u64,
    /// Requests refused by admission control (never verified).
    pub requests_refused: u64,
    /// Requests answered `status:"error"` (parse/bad-request/internal
    /// /shutdown).
    pub requests_errored: u64,
    /// Whole-request panics contained by `catch_unwind`.
    pub internal_crashes: u64,
    /// Framing failures (torn/garbage/oversized/slow-loris), each
    /// costing one session.
    pub frame_errors: u64,
    /// Admin-plane frames answered (metrics/health/trace_tail) —
    /// counted separately from `requests_received`, which stays a
    /// verification-traffic measure.
    pub admin_frames: u64,
    /// Entries in the verdict store after the drain.
    pub store_entries: u64,
    /// Undecodable store records skipped when the store was opened.
    pub store_corrupt_lines: u64,
}

impl MetricsSnapshot {
    /// The snapshot as a JSON object, for the smoke gate and ops logs.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sessions_opened", self.sessions_opened.into()),
            ("sessions_closed", self.sessions_closed.into()),
            ("leaked_sessions", self.leaked_sessions.into()),
            ("requests_received", self.requests_received.into()),
            ("responses_ok", self.responses_ok.into()),
            ("requests_refused", self.requests_refused.into()),
            ("requests_errored", self.requests_errored.into()),
            ("internal_crashes", self.internal_crashes.into()),
            ("frame_errors", self.frame_errors.into()),
            ("admin_frames", self.admin_frames.into()),
            ("store_entries", self.store_entries.into()),
            ("store_corrupt_lines", self.store_corrupt_lines.into()),
        ])
    }
}

/// State shared by the accept loop and every session thread.
struct Shared {
    host: SessionHost,
    admission: Arc<Admission>,
    trace: TraceHandle,
    telemetry: Arc<Telemetry>,
    shutdown: Arc<AtomicBool>,
    /// Set (by SIGUSR1 or a test) to make the accept loop print one
    /// [`MetricsSnapshot`] without stopping.
    snapshot_flag: Arc<AtomicBool>,
    frame_deadline: Duration,
}

impl Shared {
    /// Adds one to the ledger cell `name`, labeled with `tenant` when
    /// the event belongs to one.
    fn count(&self, name: &str, tenant: Option<&str>) {
        let labels = match tenant {
            Some(t) => Labels::none().with("tenant", t),
            None => Labels::none(),
        };
        self.telemetry.registry().add(name, &labels, 1);
    }
}

/// A bound daemon, not yet serving. [`Server::run`] blocks until a
/// shutdown is requested through [`Server::shutdown_flag`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Server({:?})", self.listener.local_addr())
    }
}

impl Server {
    /// Binds the listener and opens the warm store. Damage found at
    /// open is stamped once, unlabeled: `store.corrupt_lines` and
    /// `store.truncated_tail`, each only when nonzero.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let telemetry = Telemetry::new(DEFAULT_RING_CAP);
        let mut base = config.base;
        // The tenant policy's deadline and fuel ceilings are the most a
        // request may spend: no retry with a doubled budget.
        base.retry_unknown = false;
        // Tee the trace pipeline into the telemetry plane — but only
        // when the operator didn't wire their own sink (its sink wins,
        // and `metrics` scrapes still serve the labeled registry).
        if !base.trace.is_enabled() {
            base.trace = TraceHandle::new(Arc::new(telemetry.sink()), ClockKind::Monotonic);
        }
        let trace = base.trace.clone();
        let host = SessionHost::new(config.backend, base);
        {
            let mut reg = telemetry.registry();
            let corrupt = host.store_corrupt_lines() as u64;
            if corrupt > 0 {
                reg.add("store.corrupt_lines", &Labels::none(), corrupt);
            }
            if host.store_truncated_tail() {
                reg.add("store.truncated_tail", &Labels::none(), 1);
            }
        }
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                host,
                admission: Admission::new(config.policy),
                trace,
                telemetry,
                shutdown: Arc::new(AtomicBool::new(false)),
                snapshot_flag: Arc::new(AtomicBool::new(false)),
                frame_deadline: Duration::from_millis(config.frame_deadline_ms.max(1)),
            }),
        })
    }

    /// The bound address (read the ephemeral port from here).
    ///
    /// # Errors
    ///
    /// Propagates the OS lookup failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shutdown flag: set it (from a signal handler bridge or a
    /// test) and [`Server::run`] drains and returns.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    /// The snapshot flag: set it (the SIGUSR1 bridge, or a test) and
    /// the accept loop prints one `daenerysd snapshot {…}` line to
    /// stdout without stopping, then clears the flag.
    pub fn snapshot_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.snapshot_flag)
    }

    /// Serves until shutdown, then drains in-flight sessions and
    /// returns the final metrics snapshot.
    pub fn run(self) -> MetricsSnapshot {
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut next_session: u64 = 0;
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    next_session += 1;
                    let sid = next_session;
                    self.shared.count("daenerysd.sessions_opened", None);
                    let shared = Arc::clone(&self.shared);
                    sessions.push(std::thread::spawn(move || {
                        // The session loop is itself unwind-contained:
                        // nothing a session does can kill the daemon.
                        let outcome =
                            catch_unwind(AssertUnwindSafe(|| session_loop(&shared, stream, sid)));
                        if outcome.is_err() {
                            shared.count("daenerysd.internal_crashes", None);
                        }
                        shared.count("daenerysd.sessions_closed", None);
                    }));
                }
                // Nothing to accept, or a transient accept error
                // (per-connection reset, descriptor pressure) that must
                // not kill the daemon.
                Err(_) => std::thread::sleep(READ_POLL),
            }
            if self.shared.snapshot_flag.swap(false, Ordering::SeqCst) {
                println!("daenerysd snapshot {}", self.snapshot().to_json().render());
            }
            sessions.retain(|h| !h.is_finished());
        }
        // Drain: each session answers the request it is verifying,
        // then stops at its next frame boundary.
        for handle in sessions {
            let _ = handle.join();
        }
        self.shared.trace.flush();
        self.snapshot()
    }

    fn snapshot(&self) -> MetricsSnapshot {
        // Read the store before taking the ledger lock, so the ledger
        // is never held while waiting on another lock.
        let store_entries = self.shared.host.store_len() as u64;
        let store_corrupt_lines = self.shared.host.store_corrupt_lines() as u64;
        let reg = self.shared.telemetry.registry();
        let cell = |name: &str| reg.counter(name, &Labels::none());
        // Refusals and errors are counted per tenant only.
        let family = |name: &str| {
            reg.counters()
                .filter(|(n, _, _)| *n == name)
                .fold(0u64, |sum, (_, _, v)| sum.saturating_add(v))
        };
        let opened = cell("daenerysd.sessions_opened");
        let closed = cell("daenerysd.sessions_closed");
        MetricsSnapshot {
            sessions_opened: opened,
            sessions_closed: closed,
            leaked_sessions: opened.saturating_sub(closed),
            requests_received: cell("daenerysd.requests_received"),
            responses_ok: cell("daenerysd.responses_ok"),
            requests_refused: family("daenerysd.refused"),
            requests_errored: family("daenerysd.errors"),
            internal_crashes: cell("daenerysd.internal_crashes"),
            frame_errors: cell("daenerysd.frame_errors"),
            admin_frames: cell("daenerysd.admin_frames"),
            store_entries,
            store_corrupt_lines,
        }
    }
}

fn session_loop(shared: &Arc<Shared>, stream: TcpStream, sid: u64) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    let mut reqno: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut frame_deadline_at: Option<Instant> = None;
        let result = read_frame(&mut &stream, |mid_frame| {
            if shared.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            if !mid_frame {
                frame_deadline_at = None;
                return true;
            }
            // The first mid-frame call comes right after the frame's
            // first byte, so the deadline runs from there.
            let at =
                *frame_deadline_at.get_or_insert_with(|| Instant::now() + shared.frame_deadline);
            Instant::now() < at
        });
        // The answer to this frame, and whether the session ends after
        // writing it.
        let (response, close) = match result {
            Ok(payload) => match Frame::decode(&payload) {
                // Admin frames are never admission-controlled: the
                // telemetry plane keeps answering while every tenant
                // budget is saturated.
                Ok(Frame::Admin(areq)) => {
                    shared.count("daenerysd.admin_frames", None);
                    (admin_response(shared, &areq), false)
                }
                Err(message) => {
                    shared.count("daenerysd.requests_received", None);
                    shared.count("daenerysd.errors", Some(SERVER_BUCKET));
                    // A delimited frame with a bad payload does not
                    // desync the stream: answer and keep serving.
                    (bad_request(message), false)
                }
                Ok(Frame::Verify(req)) => {
                    shared.count("daenerysd.requests_received", None);
                    if shared.shutdown.load(Ordering::SeqCst) {
                        shared.count("daenerysd.errors", Some(&req.tenant));
                        (draining(req.id), true)
                    } else {
                        match shared.admission.try_admit(&req.tenant, req.solver_fuel) {
                            Err(detail) => {
                                shared.count("daenerysd.refused", Some(&req.tenant));
                                (Response::Refused { id: req.id, detail }, false)
                            }
                            Ok(ticket) => {
                                reqno += 1;
                                let response = process(shared, &req, sid, reqno);
                                // The ticket is released only after the
                                // verify, so the tenant's envelope
                                // covered the whole run.
                                drop(ticket);
                                (response, false)
                            }
                        }
                    }
                }
            },
            Err(FrameError::Closed) | Err(FrameError::Aborted { mid_frame: false }) => break,
            // Shutdown landed while a frame was arriving: not the
            // sender's fault, so the drain answer, not a frame error.
            Err(FrameError::Aborted { mid_frame: true })
                if shared.shutdown.load(Ordering::SeqCst) =>
            {
                shared.count("daenerysd.errors", Some(SERVER_BUCKET));
                (draining(0), true)
            }
            Err(e) => {
                // Torn frame, garbage header, oversized payload,
                // slow-loris cutoff, or hard I/O failure: one typed
                // error (best-effort — the stream may already be
                // gone), then close this session only.
                shared.count("daenerysd.frame_errors", None);
                (bad_request(e.to_string()), true)
            }
        };
        if !respond(&stream, &response) || close {
            break;
        }
    }
}

/// The answer to a frame the session could not decode.
fn bad_request(message: String) -> Response {
    Response::Err {
        id: 0,
        code: ErrorCode::BadRequest,
        message,
    }
}

/// The answer to a request that arrives, or is still arriving, once
/// shutdown has begun.
fn draining(id: u64) -> Response {
    Response::Err {
        id,
        code: ErrorCode::Shutdown,
        message: "server is draining".to_string(),
    }
}

/// Answers one admin frame from the telemetry plane.
fn admin_response(shared: &Arc<Shared>, req: &AdminRequest) -> Response {
    let t = &shared.telemetry;
    let body = match req {
        AdminRequest::Metrics { .. } => t.metrics_json(),
        AdminRequest::Health { .. } => t.health_json(
            &shared.admission.stats(),
            shared.shutdown.load(Ordering::SeqCst),
        ),
        AdminRequest::TraceTail { after_seq, max, .. } => t.ring().tail(*after_seq, *max).to_json(),
    };
    Response::Admin {
        id: req.id(),
        kind: req.kind().to_string(),
        body,
    }
}

/// Verifies one admitted request. Never panics: the whole request is
/// behind `catch_unwind` (on top of the verifier's own per-method
/// isolation), so the worst outcome is an `internal` error response.
fn process(shared: &Arc<Shared>, req: &Request, sid: u64, reqno: u64) -> Response {
    let started = Instant::now();
    let budget = shared
        .admission
        .policy()
        .effective_budget(req.deadline_ms, req.solver_fuel);
    let trace = shared.trace.with_context(vec![
        ("tenant".to_string(), Value::Str(req.tenant.clone())),
        ("session".to_string(), Value::UInt(sid)),
        ("request".to_string(), Value::UInt(req.id)),
        ("request_seq".to_string(), Value::UInt(reqno)),
    ]);
    let vreq = VerifyRequest {
        source: req.source.clone(),
        budget: Some(budget),
        max_errors: req.max_errors.unwrap_or(DEFAULT_MAX_ERRORS),
        trace: Some(trace),
    };
    let session = shared.host.session();
    let labels = Labels::none().with("tenant", &req.tenant);
    let verified = catch_unwind(AssertUnwindSafe(|| session.verify(&vreq)));
    // One ledger lock for every stamp this request makes.
    let mut reg = shared.telemetry.registry();
    let response = match verified {
        Ok(Ok(outcome)) => {
            let s = &outcome.stats;
            // Fuel: the unit the solver budget meters, conflicts
            // plus propagations (decisions are never charged).
            let fuel = (s.solver_conflicts + s.solver_propagations) as u64;
            reg.record("daenerysd.fuel", &labels, fuel);
            reg.add("daenerysd.cache_hits", &labels, s.cache_hits as u64);
            reg.add("daenerysd.cache_misses", &labels, s.cache_misses as u64);
            reg.add(
                "daenerysd.solver_conflicts",
                &labels,
                s.solver_conflicts as u64,
            );
            reg.add(
                "daenerysd.solver_restarts",
                &labels,
                s.solver_restarts as u64,
            );
            // The incremental store plane, per tenant: verdicts
            // served warm, genuine fingerprint misses, and warm
            // hits discarded by transitive spec dirtiness.
            // Tenants with identical answer-affecting config share
            // store entries, so one tenant's writes surface as
            // another's hits here.
            if let Some(hits) = outcome.store_hits {
                reg.add("daenerysd.store_hits", &labels, hits as u64);
            }
            if let Some(misses) = outcome.store_misses {
                reg.add("daenerysd.store_misses", &labels, misses as u64);
            }
            if let Some(dirty) = outcome.store_dirty_transitive {
                reg.add("daenerysd.store_dirty_transitive", &labels, dirty as u64);
            }
            // A failed commit costs later re-verification, never the
            // answer: the verdicts below are still served.
            if outcome.store_write_error.is_some() {
                reg.add("store.write_errors", &Labels::none(), 1);
            }
            let verdicts: BTreeMap<String, WireVerdict> = outcome
                .verdicts
                .iter()
                .map(|(name, v)| (name.clone(), WireVerdict::from_verdict(v)))
                .collect();
            for v in verdicts.values() {
                reg.add(&format!("daenerysd.verdict.{}", v.kind), &labels, 1);
            }
            reg.add("daenerysd.responses_ok", &Labels::none(), 1);
            Response::Ok {
                id: req.id,
                verdicts,
                reverified: outcome.reverified.map(|n| n as u64),
            }
        }
        Ok(Err(e)) => {
            reg.add("daenerysd.errors", &labels, 1);
            Response::Err {
                id: req.id,
                code: match e {
                    SessionError::Parse(_) => ErrorCode::Parse,
                    SessionError::Wf(_) => ErrorCode::Wf,
                },
                message: e.to_string(),
            }
        }
        Err(panic) => {
            reg.add("daenerysd.internal_crashes", &Labels::none(), 1);
            reg.add("daenerysd.errors", &labels, 1);
            Response::Err {
                id: req.id,
                code: ErrorCode::Internal,
                message: panic_message(&panic),
            }
        }
    };
    reg.add("daenerysd.requests", &labels, 1);
    reg.record(
        "daenerysd.latency_us",
        &labels,
        u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
    );
    response
}

/// Writes one response frame; false when the stream is dead.
fn respond(mut stream: &TcpStream, response: &Response) -> bool {
    write_frame(&mut stream, response.encode().as_bytes()).is_ok()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
