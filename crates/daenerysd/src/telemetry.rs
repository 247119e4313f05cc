//! The live telemetry plane: the daemon's one metrics ledger,
//! per-tenant trace rings, and the admin-frame bodies.
//!
//! One [`Telemetry`] instance lives for the daemon's lifetime. Its one
//! [`MetricsRegistry`], behind one mutex, is the daemon's only ledger:
//! the daemon stamps every cell into it, a `metrics` scrape renders
//! it, and the shutdown [`crate::server::MetricsSnapshot`] is read back
//! from it. The verifier keeps no registry of its own; its counts reach
//! the ledger as the `VerifyStats` and store fields of each request's
//! `VerifyOutcome`.
//! The trace pipeline tees every emitted event through a
//! [`TelemetrySink`], which feeds the bounded per-tenant [`TraceRing`]
//! and attributes span durations to per-phase histograms. The
//! `metrics`/`health`/`trace_tail` admin frames are rendered from here
//! — by the session thread, exempt from admission, so scrapes keep
//! answering while every tenant budget is saturated.
//!
//! ## Metric names
//!
//! This is the one list of the cells a scrape can show. Each is
//! stamped by the daemon, once per event (labels in braces):
//!
//! * `daenerysd.sessions_opened` / `daenerysd.sessions_closed` —
//!   connections accepted, and sessions whose thread has finished
//! * `daenerysd.requests_received` — frames read as verification
//!   requests (any outcome, including undecodable payloads)
//! * `daenerysd.responses_ok` — requests answered `status:"ok"`
//! * `daenerysd.internal_crashes` — panics contained by
//!   `catch_unwind`, per request or per session
//! * `daenerysd.frame_errors` — framing failures, each costing one
//!   session
//! * `daenerysd.admin_frames` — admin frames answered (never counted
//!   as requests)
//! * `daenerysd.requests{tenant}` — verification requests processed
//!   (any outcome)
//! * `daenerysd.verdict.verified{tenant}` / `.failed` / `.unknown` /
//!   `.crashed` — per-method verdict counts by wire kind
//! * `daenerysd.refused{tenant}` — admission refusals
//! * `daenerysd.errors{tenant}` — error responses (parse, wf,
//!   internal, bad-request and shutdown; `_server` when the request
//!   carried no tenant)
//! * `daenerysd.latency_us{tenant}` — whole-request wall latency,
//!   microseconds (histogram)
//! * `daenerysd.fuel{tenant}` — one sample per request answered `ok`: the
//!   solver fuel, in the budget's unit (`conflicts + propagations`),
//!   summed over the request's `Verified` verdicts (histogram)
//! * `daenerysd.cache_hits{tenant}` / `daenerysd.cache_misses{tenant}`
//!   — solver query-cache traffic, and
//!   `daenerysd.solver_conflicts{tenant}` /
//!   `daenerysd.solver_restarts{tenant}` — CDCL search counts; like
//!   `daenerysd.fuel`, these sum the stats of the request's `Verified`
//!   verdicts, restored ones included, so a warm request reports the
//!   work its verdicts once cost, and `Failed` or `Unknown` methods
//!   add nothing
//! * `daenerysd.store_hits{tenant}` / `daenerysd.store_misses{tenant}`
//!   / `daenerysd.store_dirty_transitive{tenant}` — incremental verdict
//!   store traffic: methods served warm, genuine fingerprint misses,
//!   and warm hits discarded because a transitive callee's spec
//!   changed (tenants with identical answer-affecting config share
//!   entries, so one tenant's writes surface as another's hits)
//! * `daenerysd.phase_nanos{phase,tenant}` — span durations by phase
//!   (the span-name prefix before `:`, e.g. `exec:m` → `exec`),
//!   recorded by the sink tee (histogram)
//!
//! Store upkeep, unlabeled, stamped only when nonzero:
//!
//! * `store.corrupt_lines` / `store.truncated_tail` — damage found when
//!   the daemon opened its store (undecodable records skipped, and 1
//!   when the last record was cut off mid-append), stamped once at bind
//! * `store.write_errors` — requests whose store commit failed; their
//!   verdicts are still served
//!
//! Each event lands in exactly one cell: the shutdown snapshot's
//! `requests_refused` and `requests_errored` are the sums of
//! `daenerysd.refused` and `daenerysd.errors` over every tenant, not
//! cells of their own.
//!
//! ## Sampling policy
//!
//! The ring is bounded **per tenant** ([`TraceRing`] holds up to
//! `per_tenant_cap` events for each of at most [`MAX_RING_TENANTS`]
//! tenants), so one noisy tenant evicts only its own history. Events
//! past a full ring drop the oldest event and bump that tenant's
//! deterministic drop counter; tenants past the tenant cap share one
//! `_overflow` bucket, and daemon-side events with no tenant
//! attribution land in `_server`.

use crate::admission::AdmissionStats;
use daenerys_obs::json::escape_into;
use daenerys_obs::{Event, Json, Labels, MetricsRegistry, Sink};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default per-tenant trace-ring capacity (events).
pub const DEFAULT_RING_CAP: usize = 256;
/// Distinct tenants the ring tracks before folding extras into the
/// shared `_overflow` bucket.
pub const MAX_RING_TENANTS: usize = 64;
/// Hard cap on events returned by one `trace_tail` answer.
pub const MAX_TAIL_EVENTS: u64 = 4096;

/// The ring bucket for daemon events with no tenant attribution.
pub const SERVER_BUCKET: &str = "_server";
/// The shared ring bucket once [`MAX_RING_TENANTS`] is exceeded.
pub const OVERFLOW_BUCKET: &str = "_overflow";

#[derive(Default, Debug)]
struct TenantRing {
    events: VecDeque<Event>,
    dropped: u64,
}

#[derive(Default, Debug)]
struct RingInner {
    tenants: BTreeMap<String, TenantRing>,
    latest_seq: u64,
}

/// A bounded, per-tenant ring of recent trace events.
///
/// See the [module docs](self) for the sampling policy.
#[derive(Debug)]
pub struct TraceRing {
    per_tenant_cap: usize,
    inner: Mutex<RingInner>,
}

impl TraceRing {
    /// A ring keeping at most `per_tenant_cap` events per tenant.
    pub fn new(per_tenant_cap: usize) -> TraceRing {
        TraceRing {
            per_tenant_cap: per_tenant_cap.max(1),
            inner: Mutex::new(RingInner::default()),
        }
    }

    fn bucket_for<'a>(inner: &RingInner, event: &'a Event) -> &'a str {
        let tenant = match event.field("tenant") {
            Some(daenerys_obs::Value::Str(t)) => t.as_str(),
            _ => SERVER_BUCKET,
        };
        if inner.tenants.contains_key(tenant) || inner.tenants.len() < MAX_RING_TENANTS {
            tenant
        } else {
            OVERFLOW_BUCKET
        }
    }

    /// Appends one event to its tenant's ring, evicting the oldest
    /// (and bumping the tenant's drop counter) when full.
    pub fn push(&self, event: &Event) {
        let mut inner = lock(&self.inner);
        inner.latest_seq = inner.latest_seq.max(event.seq);
        let bucket = TraceRing::bucket_for(&inner, event).to_string();
        let ring = inner.tenants.entry(bucket).or_default();
        if ring.events.len() >= self.per_tenant_cap {
            ring.events.pop_front();
            ring.dropped = ring.dropped.saturating_add(1);
        }
        ring.events.push_back(event.clone());
    }

    /// Events dropped from `tenant`'s ring so far.
    pub fn dropped(&self, tenant: &str) -> u64 {
        lock(&self.inner)
            .tenants
            .get(tenant)
            .map_or(0, |r| r.dropped)
    }

    /// Retained events for `tenant`, oldest first.
    pub fn events(&self, tenant: &str) -> Vec<Event> {
        lock(&self.inner)
            .tenants
            .get(tenant)
            .map_or_else(Vec::new, |r| r.events.iter().cloned().collect())
    }

    /// One `trace_tail` page: retained events with `seq > after_seq`,
    /// globally seq-ordered across tenants, at most
    /// `min(max, `[`MAX_TAIL_EVENTS`]`)` of them.
    pub fn tail(&self, after_seq: u64, max: u64) -> TraceTailPage {
        let inner = lock(&self.inner);
        let cap = max.min(MAX_TAIL_EVENTS) as usize;
        let mut events: Vec<Event> = inner
            .tenants
            .values()
            .flat_map(|r| r.events.iter())
            .filter(|e| e.seq > after_seq)
            .cloned()
            .collect();
        events.sort_by_key(|e| e.seq);
        let truncated = events.len() > cap;
        events.truncate(cap);
        TraceTailPage {
            events,
            dropped: inner
                .tenants
                .iter()
                .map(|(t, r)| (t.clone(), r.dropped))
                .collect(),
            latest_seq: inner.latest_seq,
            truncated,
        }
    }
}

/// One answer to a `trace_tail` admin frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceTailPage {
    /// Retained events after the cursor, seq order.
    pub events: Vec<Event>,
    /// Per-tenant ring-eviction counts (deterministic: one per evicted
    /// event).
    pub dropped: BTreeMap<String, u64>,
    /// Highest sequence number the ring has seen (the next cursor).
    pub latest_seq: u64,
    /// True when more retained events matched than `max` allowed —
    /// page again from the last event's seq.
    pub truncated: bool,
}

impl TraceTailPage {
    /// The `trace_tail` body: `events` is an array of event objects in
    /// the exact JSONL schema `trace_validate` accepts (each array
    /// element printed on its own is one valid JSONL line).
    ///
    /// Written by hand rather than through [`Json::render`]: the events
    /// are embedded verbatim as [`Event::to_jsonl`] prints them, because
    /// their `u64` fields can exceed what a JSON `f64` number holds.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_jsonl());
        }
        out.push_str("],\"dropped\":{");
        for (i, (t, n)) in self.dropped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(t, &mut out);
            let _ = write!(out, ":{}", n);
        }
        let _ = write!(
            out,
            "}},\"latest_seq\":{},\"truncated\":{}}}",
            self.latest_seq, self.truncated
        );
        out
    }
}

/// The daemon's telemetry root: the one metrics ledger, the trace
/// ring, and the uptime anchor.
#[derive(Debug)]
pub struct Telemetry {
    registry: Mutex<MetricsRegistry>,
    ring: Arc<TraceRing>,
    started: Instant,
}

impl Telemetry {
    /// A telemetry plane with `ring_cap` events retained per tenant.
    pub fn new(ring_cap: usize) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            registry: Mutex::new(MetricsRegistry::new()),
            ring: Arc::new(TraceRing::new(ring_cap)),
            started: Instant::now(),
        })
    }

    /// The daemon's ledger, locked: every `daenerysd.*` cell is
    /// stamped and read through this guard.
    pub fn registry(&self) -> MutexGuard<'_, MetricsRegistry> {
        lock(&self.registry)
    }

    /// The per-tenant trace ring.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Milliseconds since the daemon started.
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// A sink that tees emitted trace events into the ring and the
    /// phase-duration histograms.
    pub fn sink(self: &Arc<Telemetry>) -> TelemetrySink {
        TelemetrySink {
            telemetry: Arc::clone(self),
        }
    }

    /// The `metrics` body: the ledger as one JSON object, built under
    /// the lock and written after it is released.
    pub fn metrics_json(&self) -> String {
        let body = self.registry().to_json();
        body.render()
    }

    /// The `health` body: uptime, drain state, and the admission
    /// conservation ledger (totals plus per-tenant rows, each carrying
    /// its own `conserved` verdict).
    pub fn health_json(&self, stats: &AdmissionStats, draining: bool) -> String {
        let row = |t: &crate::admission::TenantStats| {
            Json::obj([
                ("admitted", t.admitted.into()),
                ("completed", t.completed.into()),
                ("refused", t.refused.into()),
                ("in_flight", t.in_flight.into()),
                ("fuel_in_flight", t.fuel_in_flight.into()),
                ("conserved", t.conserved().into()),
            ])
        };
        let tenants = stats.per_tenant.iter().map(|t| (t.tenant.as_str(), row(t)));
        Json::obj([
            ("uptime_ms", self.uptime_ms().into()),
            ("draining", draining.into()),
            ("conserved", stats.conserved().into()),
            ("total", row(&stats.total)),
            ("tenants", Json::obj(tenants)),
        ])
        .render()
    }
}

/// The span-name prefix used as the `phase` label (`exec:inc` →
/// `exec`, `branch:then` → `branch`, bare names pass through).
pub fn phase_of(span_name: &str) -> &str {
    span_name.split(':').next().unwrap_or(span_name)
}

/// A [`Sink`] tee feeding the telemetry plane: every event lands in
/// the [`TraceRing`], and every `span_end` additionally records its
/// `duration_nanos` into `daenerysd.phase_nanos{phase,tenant}`.
///
/// Wrap the real sink's role: the daemon installs this as the trace
/// pipeline's sink, so the per-request context fields stamped by
/// [`daenerys_obs::TraceHandle::with_context`] (tenant/session/
/// request) are already on every event by the time it arrives here.
#[derive(Debug)]
pub struct TelemetrySink {
    telemetry: Arc<Telemetry>,
}

impl Sink for TelemetrySink {
    fn write(&self, events: &[Event]) {
        for e in events {
            self.telemetry.ring.push(e);
            if e.kind == daenerys_obs::EventKind::SpanEnd {
                if let Some(nanos) = e.field_u64("duration_nanos") {
                    let tenant = match e.field("tenant") {
                        Some(daenerys_obs::Value::Str(t)) => t.as_str(),
                        _ => SERVER_BUCKET,
                    };
                    let labels = Labels::none()
                        .with("phase", phase_of(&e.name))
                        .with("tenant", tenant);
                    self.telemetry
                        .registry()
                        .record("daenerysd.phase_nanos", &labels, nanos);
                }
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daenerys_obs::{EventKind, Value};

    fn event(seq: u64, tenant: Option<&str>) -> Event {
        let mut fields = Vec::new();
        if let Some(t) = tenant {
            fields.push(("tenant".to_string(), Value::Str(t.to_string())));
        }
        Event {
            seq,
            ts: seq,
            kind: EventKind::Point,
            name: "solver.query".to_string(),
            fields,
        }
    }

    #[test]
    fn ring_overflow_keeps_newest_and_counts_drops() {
        let ring = TraceRing::new(3);
        for seq in 0..10 {
            ring.push(&event(seq, Some("a")));
        }
        let kept: Vec<u64> = ring.events("a").iter().map(|e| e.seq).collect();
        assert_eq!(kept, [7, 8, 9], "newest N survive");
        assert_eq!(ring.dropped("a"), 7, "one drop per evicted event");
    }

    #[test]
    fn noisy_tenant_cannot_evict_quiet_tenant() {
        let ring = TraceRing::new(4);
        ring.push(&event(0, Some("quiet")));
        for seq in 1..100 {
            ring.push(&event(seq, Some("noisy")));
        }
        assert_eq!(ring.events("quiet").len(), 1, "quiet history intact");
        assert_eq!(ring.dropped("quiet"), 0);
        assert!(ring.dropped("noisy") > 0);
    }

    #[test]
    fn unattributed_and_overflow_events_are_bucketed() {
        let ring = TraceRing::new(8);
        ring.push(&event(0, None));
        assert_eq!(ring.events(SERVER_BUCKET).len(), 1);
        // Fill the tenant table (the `_server` bucket holds one slot),
        // then one more tenant lands in _overflow.
        for i in 0..MAX_RING_TENANTS - 1 {
            ring.push(&event(1 + i as u64, Some(&format!("t{}", i))));
        }
        ring.push(&event(999, Some("one-too-many")));
        assert_eq!(ring.events(OVERFLOW_BUCKET).len(), 1);
        assert!(ring.events("one-too-many").is_empty());
    }

    #[test]
    fn tail_pages_in_seq_order_across_tenants() {
        let ring = TraceRing::new(16);
        for seq in 0..8 {
            let t = if seq % 2 == 0 { "a" } else { "b" };
            ring.push(&event(seq, Some(t)));
        }
        let page = ring.tail(2, 3);
        assert_eq!(
            page.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [3, 4, 5]
        );
        assert!(page.truncated);
        assert_eq!(page.latest_seq, 7);
        let rest = ring.tail(5, u64::MAX);
        assert_eq!(
            rest.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [6, 7]
        );
        assert!(!rest.truncated);
        // The body parses and each event element revalidates as a
        // standalone JSONL line.
        let body = page.to_json();
        let parsed = daenerys_obs::parse_json(&body).unwrap();
        let events = parsed.as_obj().unwrap()["events"].as_arr().unwrap();
        assert_eq!(events.len(), 3);
        for e in &page.events {
            daenerys_obs::validate_event_line(&e.to_jsonl()).unwrap();
        }
    }

    #[test]
    fn sink_attributes_span_durations_by_phase_and_tenant() {
        let telemetry = Telemetry::new(16);
        let sink = telemetry.sink();
        let mut span = event(0, Some("acme"));
        span.kind = EventKind::SpanEnd;
        span.name = "exec:set".to_string();
        span.fields
            .push(("duration_nanos".to_string(), Value::UInt(1500)));
        sink.write(std::slice::from_ref(&span));
        let snap = telemetry.registry().clone();
        let labels = Labels::none().with("phase", "exec").with("tenant", "acme");
        let h = snap
            .histogram("daenerysd.phase_nanos", &labels)
            .expect("span attributed");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 1500);
        assert_eq!(telemetry.ring().events("acme").len(), 1, "ring tee too");
        assert_eq!(phase_of("branch:then"), "branch");
        assert_eq!(phase_of("parse"), "parse");
    }

    #[test]
    fn health_json_carries_the_ledger() {
        use crate::admission::{Admission, TenantPolicy};
        let telemetry = Telemetry::new(4);
        let adm = Admission::new(TenantPolicy {
            max_in_flight: 1,
            ..TenantPolicy::default()
        });
        let _held = adm.try_admit("acme", None).unwrap();
        let _refused = adm.try_admit("acme", None).unwrap_err();
        // A hostile tenant name: quote, backslash, every C0 control,
        // DEL, U+2028 and a multibyte character.
        let hostile: String = ['"', '\\', '\u{7f}', '\u{2028}', 'π']
            .into_iter()
            .chain((0u8..0x20).map(char::from))
            .collect();
        let _other = adm.try_admit(&hostile, None).unwrap();
        let body = telemetry.health_json(&adm.stats(), false);
        let parsed = daenerys_obs::parse_json(&body).unwrap();
        let obj = parsed.as_obj().unwrap();
        assert_eq!(obj["conserved"], daenerys_obs::Json::Bool(true));
        assert_eq!(obj["draining"], daenerys_obs::Json::Bool(false));
        let acme = obj["tenants"].as_obj().unwrap()["acme"].as_obj().unwrap();
        assert_eq!(acme["admitted"].as_num(), Some(2.0));
        assert_eq!(acme["refused"].as_num(), Some(1.0));
        assert_eq!(acme["in_flight"].as_num(), Some(1.0));
        let other = obj["tenants"].as_obj().unwrap()[&hostile].as_obj().unwrap();
        assert_eq!(other["admitted"].as_num(), Some(1.0));
    }
}
