//! The daemon core: accept loop, per-session reader/worker pairs,
//! graceful drain.
//!
//! One TCP connection is one *session*. Each session runs two threads:
//! a **reader** that frames bytes, decodes requests, and does
//! admission *before* anything is queued, and a **worker** that
//! verifies admitted requests against the shared warm
//! [`SessionHost`] and writes responses. The two meet at a bounded
//! [`std::sync::mpsc::sync_channel`]: when the queue is full the
//! reader blocks, which stops draining the socket, which is TCP
//! backpressure — the daemon never buffers unboundedly.
//!
//! Robustness contract (enforced by the chaos suite):
//! - a malformed frame, torn write, or slow-loris stall costs *that
//!   session only* — a typed error and/or a close, never a panic;
//! - a panicking request degrades to an `internal` error response for
//!   that request; the session, its queue, and every sibling continue;
//! - over-budget tenants are refused immediately (`status:"refused"`)
//!   and never queued;
//! - shutdown stops intake, drains every queued request, flushes the
//!   verdict store, and reports zero leaked sessions in the final
//!   [`MetricsSnapshot`].

use crate::admission::{Admission, AdmitTicket, TenantPolicy};
use crate::chaos::{WireFault, WireFaultPlan};
use crate::protocol::{
    read_frame, write_frame, AdminRequest, ErrorCode, Frame, FrameError, Request, Response,
    WireVerdict,
};
use crate::telemetry::{Telemetry, DEFAULT_RING_CAP};
use daenerys_idf::exec::Backend;
use daenerys_idf::exec::VerifierConfig;
use daenerys_idf::parser::DEFAULT_MAX_ERRORS;
use daenerys_idf::session::{SessionError, SessionHost, VerifyRequest};
use daenerys_obs::{ClockKind, Json, Labels, TraceHandle, Value};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex, PoisonError};
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
    /// Bounded per-session request-queue depth.
    pub queue_cap: usize,
    /// A started frame must complete within this many milliseconds —
    /// the slow-loris cutoff.
    pub frame_deadline_ms: u64,
    /// Read/accept poll granularity, milliseconds (how quickly the
    /// daemon notices shutdown).
    pub read_poll_ms: u64,
    /// Server-side wire-fault injection (tests): synthesizes framing
    /// faults at deterministic `(session, frame)` points.
    pub wire_faults: WireFaultPlan,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            backend: Backend::Destabilized,
            base: VerifierConfig::default(),
            policy: TenantPolicy::default(),
            queue_cap: 4,
            frame_deadline_ms: 2_000,
            read_poll_ms: 25,
            wire_faults: WireFaultPlan::none(),
        }
    }
}

/// Monotonic counters, updated by every session thread.
#[derive(Default, Debug)]
struct Counters {
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    requests_received: AtomicU64,
    responses_ok: AtomicU64,
    requests_refused: AtomicU64,
    requests_errored: AtomicU64,
    internal_crashes: AtomicU64,
    frame_errors: AtomicU64,
    admin_frames: AtomicU64,
}

/// The final state of a drained daemon, emitted at shutdown (and, for
/// the smoke gate, asserted on: `leaked_sessions` must be 0).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetricsSnapshot {
    /// Sessions accepted over the daemon's lifetime.
    pub sessions_opened: u64,
    /// Sessions fully closed (reader and worker joined).
    pub sessions_closed: u64,
    /// `sessions_opened - sessions_closed`; 0 after a graceful drain.
    pub leaked_sessions: u64,
    /// Frames successfully read and counted as requests.
    pub requests_received: u64,
    /// Requests answered `status:"ok"`.
    pub responses_ok: u64,
    /// Requests refused by admission control (never queued).
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
    /// Entries in the verdict store after the final flush.
    pub store_entries: u64,
    /// Undecodable store lines skipped when the store was opened.
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
    counters: Counters,
    queue_cap: usize,
    frame_deadline: Duration,
    read_poll: Duration,
    wire_faults: WireFaultPlan,
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
    /// Binds the listener and opens the warm store.
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
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                host,
                admission: Admission::new(config.policy),
                trace,
                telemetry,
                shutdown: Arc::new(AtomicBool::new(false)),
                snapshot_flag: Arc::new(AtomicBool::new(false)),
                counters: Counters::default(),
                queue_cap: config.queue_cap.max(1),
                frame_deadline: Duration::from_millis(config.frame_deadline_ms.max(1)),
                read_poll: Duration::from_millis(config.read_poll_ms.clamp(1, 1_000)),
                wire_faults: config.wire_faults,
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

    /// Serves until shutdown, then drains in-flight sessions, flushes
    /// the verdict store, and returns the final metrics snapshot.
    pub fn run(self) -> MetricsSnapshot {
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut next_session: u64 = 0;
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    next_session += 1;
                    let sid = next_session;
                    self.shared
                        .counters
                        .sessions_opened
                        .fetch_add(1, Ordering::Relaxed);
                    let shared = Arc::clone(&self.shared);
                    sessions.push(std::thread::spawn(move || {
                        // The session loop is itself unwind-contained:
                        // nothing a session does can kill the daemon.
                        let outcome =
                            catch_unwind(AssertUnwindSafe(|| session_loop(&shared, stream, sid)));
                        if outcome.is_err() {
                            shared
                                .counters
                                .internal_crashes
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        shared
                            .counters
                            .sessions_closed
                            .fetch_add(1, Ordering::Relaxed);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(self.shared.read_poll);
                }
                // Transient accept errors (per-connection resets,
                // descriptor pressure) must not kill the daemon.
                Err(_) => std::thread::sleep(self.shared.read_poll),
            }
            if self.shared.snapshot_flag.swap(false, Ordering::SeqCst) {
                println!("daenerysd snapshot {}", self.snapshot().to_json().render());
            }
            sessions.retain(|h| !h.is_finished());
        }
        // Drain: the flag stops readers at the next frame boundary;
        // workers finish every already-admitted request.
        for handle in sessions {
            let _ = handle.join();
        }
        let _ = self.shared.host.flush_store();
        self.shared.trace.flush();
        self.snapshot()
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let c = &self.shared.counters;
        let opened = c.sessions_opened.load(Ordering::SeqCst);
        let closed = c.sessions_closed.load(Ordering::SeqCst);
        MetricsSnapshot {
            sessions_opened: opened,
            sessions_closed: closed,
            leaked_sessions: opened.saturating_sub(closed),
            requests_received: c.requests_received.load(Ordering::SeqCst),
            responses_ok: c.responses_ok.load(Ordering::SeqCst),
            requests_refused: c.requests_refused.load(Ordering::SeqCst),
            requests_errored: c.requests_errored.load(Ordering::SeqCst),
            internal_crashes: c.internal_crashes.load(Ordering::SeqCst),
            frame_errors: c.frame_errors.load(Ordering::SeqCst),
            admin_frames: c.admin_frames.load(Ordering::SeqCst),
            store_entries: self.shared.host.store_len() as u64,
            store_corrupt_lines: self.shared.host.store_corrupt_lines() as u64,
        }
    }
}

/// One admitted request in a session's bounded queue. The ticket rides
/// along so the tenant's envelope is held exactly while the request is
/// queued or running, and released even if the job is dropped during
/// drain.
struct Job {
    req: Request,
    ticket: AdmitTicket,
}

fn session_loop(shared: &Arc<Shared>, stream: TcpStream, sid: u64) {
    let _ = stream.set_read_timeout(Some(shared.read_poll));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let (tx, rx) = sync_channel::<Job>(shared.queue_cap);
    let worker = {
        let shared = Arc::clone(shared);
        let writer = Arc::clone(&writer);
        std::thread::spawn(move || worker_loop(&shared, rx, &writer, sid))
    };

    let mut reader = stream;
    let mut frames: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut frame_deadline_at: Option<Instant> = None;
        let result = read_frame(&mut reader, |mid_frame| {
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
        // Server-side chaos: synthesize a framing fault at the plan's
        // deterministic points, exercising the exact error paths a
        // corrupted wire would.
        let result = match shared.wire_faults.fault_for(sid, frames) {
            WireFault::None => result,
            WireFault::Torn { keep_per_mille } => Err(FrameError::Torn {
                expected: 1000,
                got: keep_per_mille as usize,
            }),
            WireFault::GarbageHeader => {
                Err(FrameError::BadHeader("injected garbage header".to_string()))
            }
            WireFault::Disconnect => Err(FrameError::Closed),
            WireFault::SlowLoris { .. } => Err(FrameError::Aborted { mid_frame: true }),
        };
        match result {
            Ok(payload) => {
                frames += 1;
                match Frame::decode(&payload) {
                    // Admin frames are answered inline by the reader:
                    // never queued behind verification work, never
                    // admission-controlled — the telemetry plane keeps
                    // answering while every tenant budget is saturated
                    // and while the worker queue is full.
                    Ok(Frame::Admin(areq)) => {
                        shared.counters.admin_frames.fetch_add(1, Ordering::Relaxed);
                        respond(&writer, &admin_response(shared, &areq));
                    }
                    Err(message) => {
                        shared
                            .counters
                            .requests_received
                            .fetch_add(1, Ordering::Relaxed);
                        shared
                            .counters
                            .requests_errored
                            .fetch_add(1, Ordering::Relaxed);
                        // A delimited frame with a bad payload does not
                        // desync the stream: answer and keep serving.
                        respond(
                            &writer,
                            &Response::Err {
                                id: 0,
                                code: ErrorCode::BadRequest,
                                message,
                            },
                        );
                    }
                    Ok(Frame::Verify(req)) => {
                        shared
                            .counters
                            .requests_received
                            .fetch_add(1, Ordering::Relaxed);
                        if shared.shutdown.load(Ordering::SeqCst) {
                            shared
                                .counters
                                .requests_errored
                                .fetch_add(1, Ordering::Relaxed);
                            respond(
                                &writer,
                                &Response::Err {
                                    id: req.id,
                                    code: ErrorCode::Shutdown,
                                    message: "server is draining".to_string(),
                                },
                            );
                            break;
                        }
                        match shared.admission.try_admit(&req.tenant, req.solver_fuel) {
                            Err(detail) => {
                                shared
                                    .counters
                                    .requests_refused
                                    .fetch_add(1, Ordering::Relaxed);
                                shared.telemetry.registry().add(
                                    "daenerysd.refused",
                                    &Labels::none().with("tenant", &req.tenant),
                                    1,
                                );
                                // Refused immediately — never queued.
                                respond(&writer, &Response::Refused { id: req.id, detail });
                            }
                            Ok(ticket) => {
                                // Bounded queue: blocks when full — the
                                // socket stops draining and TCP pushes
                                // back on the client.
                                if tx.send(Job { req, ticket }).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                }
            }
            Err(FrameError::Closed) | Err(FrameError::Aborted { mid_frame: false }) => break,
            Err(e) => {
                // Torn frame, garbage header, oversized payload,
                // slow-loris cutoff, or hard I/O failure: one typed
                // error (best-effort — the stream may already be
                // gone), then close this session only.
                shared.counters.frame_errors.fetch_add(1, Ordering::Relaxed);
                respond(
                    &writer,
                    &Response::Err {
                        id: 0,
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    },
                );
                break;
            }
        }
    }
    // Hang up the request queue; the worker drains whatever was
    // admitted, responding to each, then exits.
    drop(tx);
    let _ = worker.join();
    let _ = reader.shutdown(Shutdown::Both);
}

fn worker_loop(shared: &Arc<Shared>, rx: Receiver<Job>, writer: &Arc<Mutex<TcpStream>>, sid: u64) {
    let mut reqno: u64 = 0;
    for job in &rx {
        reqno += 1;
        let response = process(shared, &job.req, sid, reqno);
        match &response {
            Response::Ok { .. } => {
                shared.counters.responses_ok.fetch_add(1, Ordering::Relaxed);
            }
            Response::Refused { .. } => {
                shared
                    .counters
                    .requests_refused
                    .fetch_add(1, Ordering::Relaxed);
            }
            Response::Err { .. } => {
                shared
                    .counters
                    .requests_errored
                    .fetch_add(1, Ordering::Relaxed);
            }
            // Admin responses are written by the reader, never queued.
            Response::Admin { .. } => {}
        };
        // The ticket is released only now — after the verify — so the
        // tenant's envelope covered the whole run.
        drop(job.ticket);
        if !respond(writer, &response) {
            // The peer is gone; keep draining so queued tickets
            // release, but stop writing.
            for late in rx.iter() {
                drop(late);
            }
            break;
        }
    }
}

/// Answers one admin frame from the telemetry plane (reader-side, see
/// [`session_loop`]).
fn admin_response(shared: &Arc<Shared>, req: &AdminRequest) -> Response {
    let t = &shared.telemetry;
    let body = match req {
        AdminRequest::Metrics { .. } => t.metrics_json(&shared.trace.metrics()),
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
    let response = match catch_unwind(AssertUnwindSafe(|| session.verify(&vreq))) {
        Ok(Ok(outcome)) => {
            let reg = shared.telemetry.registry();
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
            Response::Ok {
                id: req.id,
                verdicts: outcome
                    .verdicts
                    .iter()
                    .map(|(name, v)| (name.clone(), WireVerdict::from_verdict(v)))
                    .collect(),
                reverified: outcome.reverified.map(|n| n as u64),
            }
        }
        Ok(Err(e)) => Response::Err {
            id: req.id,
            code: match e {
                SessionError::Parse(_) => ErrorCode::Parse,
                SessionError::Wf(_) => ErrorCode::Wf,
            },
            message: e.to_string(),
        },
        Err(panic) => {
            shared
                .counters
                .internal_crashes
                .fetch_add(1, Ordering::Relaxed);
            Response::Err {
                id: req.id,
                code: ErrorCode::Internal,
                message: panic_message(&panic),
            }
        }
    };
    let reg = shared.telemetry.registry();
    reg.add("daenerysd.requests", &labels, 1);
    reg.record(
        "daenerysd.latency_us",
        &labels,
        u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
    );
    match &response {
        Response::Ok { verdicts, .. } => {
            for v in verdicts.values() {
                reg.add(&format!("daenerysd.verdict.{}", v.kind), &labels, 1);
            }
        }
        Response::Err { .. } => reg.add("daenerysd.errors", &labels, 1),
        Response::Refused { .. } | Response::Admin { .. } => {}
    }
    response
}

/// Writes one response frame under the writer lock; false when the
/// stream is dead.
fn respond(writer: &Arc<Mutex<TcpStream>>, response: &Response) -> bool {
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    write_frame(&mut *w, response.encode().as_bytes()).is_ok()
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
