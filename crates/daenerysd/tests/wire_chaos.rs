//! The wire-level chaos gate, over real sockets.
//!
//! Three layers of evidence that the daemon is fault-*tolerant* and
//! not merely fault-*tested*:
//!
//! 1. property tests: any payload round-trips the framing layer, and
//!    any truncation of a valid frame yields a typed error — never a
//!    panic or a hang;
//! 2. the full fault matrix ([`WireFaultPlan::full`]) driven by
//!    concurrent chaos clients at 3× the per-tenant admission width:
//!    zero panics, zero leaked sessions, an uncorrupted store, and —
//!    the bit-identical gate — every request that completes under
//!    chaos reports exactly the verdicts of the fault-free reference
//!    run;
//! 3. drain semantics: a request in flight when SIGTERM-equivalent
//!    shutdown lands is still answered, and the store is flushed.

use daenerys_idf::VerdictStore;
use daenerysd::chaos::WireFaultPlan;
use daenerysd::client::{Client, RetryPolicy};
use daenerysd::protocol::{read_frame, write_frame, ErrorCode, Request, Response};
use daenerysd::server::{MetricsSnapshot, Server, ServerConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const GOOD: &str = "field val: Int
method set(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1 { c.val := 1 }";

const FAILING: &str = "field val: Int
method wrong(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 2 { c.val := 1 }";

const TWO_METHODS: &str = "field val: Int
method a(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 3 { c.val := 3 }
method b(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 4 { c.val := 4 }";

const PARSE_BAD: &str = "method oops {";

fn corpus() -> Vec<(u64, &'static str)> {
    (1..=24u64)
        .map(|id| {
            let src = match id % 4 {
                0 => PARSE_BAD,
                1 => GOOD,
                2 => FAILING,
                _ => TWO_METHODS,
            };
            (id, src)
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("daenerysd-chaos-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_config(cache_dir: Option<PathBuf>) -> ServerConfig {
    let mut config = ServerConfig::default();
    config.base.cache_dir = cache_dir;
    config.read_poll_ms = 5;
    config.frame_deadline_ms = 250;
    config
}

fn start(
    config: ServerConfig,
) -> (
    SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<MetricsSnapshot>,
) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let flag = server.shutdown_flag();
    (addr, flag, std::thread::spawn(move || server.run()))
}

fn stop(
    flag: &Arc<AtomicBool>,
    handle: std::thread::JoinHandle<MetricsSnapshot>,
) -> MetricsSnapshot {
    flag.store(true, Ordering::SeqCst);
    handle.join().expect("server thread")
}

/// Drives the whole corpus through `client` from `threads` concurrent
/// workers (tenants cycle so admission sees several envelopes).
/// Returns, per request id, the outcome of `request_with_retry`.
fn hammer(client: &Client, threads: usize) -> BTreeMap<u64, Result<Response, String>> {
    let work = corpus();
    let results: Arc<Mutex<BTreeMap<u64, Result<Response, String>>>> =
        Arc::new(Mutex::new(BTreeMap::new()));
    std::thread::scope(|scope| {
        let per_lane = work.len().div_ceil(threads);
        for (lane, chunk) in work.chunks(per_lane).enumerate() {
            let results = Arc::clone(&results);
            let client = client.clone();
            scope.spawn(move || {
                for (id, src) in chunk {
                    let mut req = Request::new(*id, format!("tenant-{}", lane % 3), *src);
                    req.deadline_ms = Some(5_000);
                    let outcome = client
                        .request_with_retry(&req)
                        .map(|(resp, _attempts)| resp)
                        .map_err(|e| e.to_string());
                    results.lock().unwrap().insert(*id, outcome);
                }
            });
        }
    });
    Arc::try_unwrap(results).unwrap().into_inner().unwrap()
}

/// The comparable core of a response: verdict kinds and details for
/// `ok`, the error code for errors. (Stats like wall time are
/// environment noise and are not on the wire at all.)
fn comparable(resp: &Response) -> String {
    match resp {
        Response::Ok { verdicts, .. } => {
            let kinds: Vec<String> = verdicts
                .iter()
                .map(|(name, v)| format!("{}={}:{}", name, v.kind, v.detail))
                .collect();
            format!("ok[{}]", kinds.join(","))
        }
        Response::Refused { detail, .. } => format!("refused[{}]", detail),
        Response::Err { code, message, .. } => format!("err[{}:{}]", code.name(), message),
        // Admin answers never flow through the verify replay lanes.
        Response::Admin { kind, .. } => format!("admin[{}]", kind),
    }
}

proptest! {
    /// Any payload survives the framing layer byte-for-byte —
    /// including payloads that embed fake frame headers and newlines.
    #[test]
    fn frames_roundtrip_any_payload(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_frame(&mut cursor, |_| true).unwrap();
        prop_assert_eq!(back, payload);
    }

    /// Any strict truncation of a valid frame is a typed error —
    /// never a panic, never a bogus success.
    #[test]
    fn truncated_frames_are_typed_errors(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut in any::<usize>(),
    ) {
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).unwrap();
        let cut = cut % frame.len();
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        let result = read_frame(&mut cursor, |_| true);
        prop_assert!(result.is_err(), "truncation at {} parsed: {:?}", cut, result);
    }

    /// Every corruption the chaos plan can produce yields a typed
    /// error from the reader (or, for identity faults, the payload).
    #[test]
    fn corrupted_frames_never_panic(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        stream in any::<u64>(),
        frame_no in any::<u64>(),
    ) {
        let plan = WireFaultPlan::full(99);
        let fault = plan.fault_for(stream, frame_no);
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).unwrap();
        if let Some(bytes) = WireFaultPlan::corrupt(fault, &frame) {
            let mut cursor = std::io::Cursor::new(bytes);
            // An Err here is fine — a typed error is exactly what the
            // server sees; only a silently altered parse is a bug.
            if let Ok(back) = read_frame(&mut cursor, |_| true) {
                prop_assert_eq!(back, payload, "fault {} altered bytes yet parsed", fault);
            }
        }
    }
}

/// The headline gate: full fault matrix, concurrent chaos clients at
/// 3× the default per-tenant admission width, verdicts of completed
/// requests bit-identical to a fault-free reference run, store
/// uncorrupted, zero leaks, zero panics.
#[test]
fn full_fault_matrix_is_survivable_and_bit_identical() {
    // Reference: fault-free run.
    let ref_dir = temp_dir("reference");
    let (addr, flag, handle) = start(test_config(Some(ref_dir.clone())));
    let quiet = Client::new(addr).with_retry(RetryPolicy {
        max_attempts: 3,
        base_backoff_ms: 5,
        max_backoff_ms: 50,
        seed: 1,
    });
    let reference = hammer(&quiet, 6);
    let snap = stop(&flag, handle);
    assert_eq!(snap.leaked_sessions, 0, "reference leaked: {:?}", snap);
    assert_eq!(snap.internal_crashes, 0, "reference crashed: {:?}", snap);
    for (id, outcome) in &reference {
        assert!(
            outcome.is_ok(),
            "reference request {} failed: {:?}",
            id,
            outcome
        );
    }

    // Chaos: same corpus, full fault matrix on the client send path.
    let chaos_dir = temp_dir("chaos");
    let (addr, flag, handle) = start(test_config(Some(chaos_dir.clone())));
    let chaos = Client::new(addr)
        .with_faults(WireFaultPlan::full(42))
        .with_read_timeout(Duration::from_secs(10))
        .with_retry(RetryPolicy {
            max_attempts: 6,
            base_backoff_ms: 5,
            max_backoff_ms: 50,
            seed: 2,
        });
    let unaffected: Vec<u64> = corpus()
        .iter()
        .map(|(id, _)| *id)
        .filter(|id| !chaos.is_affected(*id))
        .collect();
    assert!(
        !unaffected.is_empty(),
        "the plan must spare some requests for the gate to mean anything"
    );
    let hammered = hammer(&chaos, 6);
    let snap = stop(&flag, handle);
    assert_eq!(snap.leaked_sessions, 0, "chaos leaked sessions: {:?}", snap);
    assert_eq!(snap.internal_crashes, 0, "chaos panicked: {:?}", snap);

    // Unaffected requests must have completed; every completed request
    // must match the reference bit-for-bit on the comparable core.
    for id in &unaffected {
        assert!(
            hammered[id].is_ok(),
            "unaffected request {} failed under chaos: {:?}",
            id,
            hammered[id]
        );
    }
    for (id, outcome) in &hammered {
        if let Ok(resp) = outcome {
            let expected = comparable(reference[id].as_ref().unwrap());
            assert_eq!(
                comparable(resp),
                expected,
                "request {} diverged under chaos",
                id
            );
        }
    }

    // The store survived the whole ordeal uncorrupted.
    let store = VerdictStore::open(&chaos_dir);
    assert_eq!(store.corrupt_lines(), 0, "store has corrupt lines");
    assert!(!store.truncated_tail(), "store tail is truncated");
    assert!(!store.is_empty(), "chaos run persisted nothing");

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}

/// Server-side injection: the daemon synthesizes the fault matrix in
/// its own framing layer and must still refuse to panic or leak.
#[test]
fn server_side_fault_injection_is_contained() {
    let mut config = test_config(None);
    config.wire_faults = WireFaultPlan::full(7);
    let (addr, flag, handle) = start(config);
    let client = Client::new(addr).with_retry(RetryPolicy {
        max_attempts: 6,
        base_backoff_ms: 5,
        max_backoff_ms: 50,
        seed: 3,
    });
    let results = hammer(&client, 4);
    let snap = stop(&flag, handle);
    assert_eq!(snap.leaked_sessions, 0, "leaked: {:?}", snap);
    assert_eq!(snap.internal_crashes, 0, "panicked: {:?}", snap);
    assert!(
        snap.frame_errors > 0,
        "the injected matrix never fired: {:?}",
        snap
    );
    // Sessions died, but requests retried onto fresh connections (new
    // stream ids → new fault draws), so work still completed.
    assert!(
        results.values().any(|r| r.is_ok()),
        "no request survived server-side chaos: {:?}",
        results
    );
}

/// Shutdown drains: a request already admitted when the flag lands is
/// still verified and answered, the store is flushed, nothing leaks.
#[test]
fn shutdown_drains_in_flight_requests() {
    let dir = temp_dir("drain");
    let (addr, flag, handle) = start(test_config(Some(dir.clone())));
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let req = Request::new(77, "drain-tenant", GOOD);
    write_frame(&mut stream, req.encode().as_bytes()).expect("send");
    // Give the reader time to admit and queue the request, then pull
    // the plug while it may still be verifying.
    std::thread::sleep(Duration::from_millis(150));
    flag.store(true, Ordering::SeqCst);
    let payload = read_frame(&mut stream, |_| true).expect("drained response");
    let resp = Response::decode(&payload).expect("decode");
    match resp {
        Response::Ok { id, verdicts, .. } => {
            assert_eq!(id, 77);
            assert_eq!(verdicts["set"].kind, "verified");
        }
        other => panic!("in-flight request was not drained: {:?}", other),
    }
    let snap = handle.join().expect("server thread");
    assert_eq!(snap.leaked_sessions, 0);
    assert_eq!(
        snap.store_entries, 1,
        "flush missed the verdict: {:?}",
        snap
    );
    let store = VerdictStore::open(&dir);
    assert_eq!(store.len(), 1);
    assert_eq!(store.corrupt_lines(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission refusals are immediate (never queued) and typed; the
/// tenant recovers once in-flight work completes.
#[test]
fn over_budget_tenants_are_refused_not_queued() {
    let mut config = test_config(None);
    config.policy.max_in_flight = 1;
    // A deep queue proves refusal is *admission*, not queue overflow.
    config.queue_cap = 16;
    let (addr, flag, handle) = start(config);

    // One connection, two back-to-back requests for the same tenant:
    // the first (a diverging query that runs for seconds unbudgeted) is
    // admitted and burns its whole deadline; the second must be refused
    // immediately while the first still runs.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let mut slow = Request::new(1, "greedy", daenerys_idf::diverging_program(256));
    slow.deadline_ms = Some(1_500);
    let second = Request::new(2, "greedy", GOOD);
    write_frame(&mut stream, slow.encode().as_bytes()).unwrap();
    write_frame(&mut stream, second.encode().as_bytes()).unwrap();
    let mut responses = Vec::new();
    for _ in 0..2 {
        let payload = read_frame(&mut stream, |_| true).expect("response");
        responses.push(Response::decode(&payload).expect("decode"));
    }
    let refused = responses
        .iter()
        .find(|r| matches!(r, Response::Refused { .. }));
    match refused {
        Some(Response::Refused { id, detail }) => {
            assert_eq!(*id, 2, "the admitted request was the refused one");
            assert!(detail.contains("in-flight cap"), "detail: {}", detail);
        }
        _ => panic!(
            "expected one admission refusal, got {:?}",
            responses.iter().map(comparable).collect::<Vec<_>>()
        ),
    }
    assert!(
        responses.iter().any(|r| matches!(r, Response::Ok { .. })),
        "the admitted request still completed"
    );
    let snap = stop(&flag, handle);
    assert_eq!(snap.requests_refused, 1, "{:?}", snap);
    assert_eq!(snap.leaked_sessions, 0);
}

/// A program `daenerys verify` rejects as ill-formed is rejected the
/// same way over the wire: two declarations of `m`, the first of which
/// verifies, answer a definitive `wf` error — never `m = Verified`.
#[test]
fn ill_formed_programs_answer_wf_not_verified() {
    let (addr, flag, handle) = start(test_config(None));
    let client = Client::new(addr);
    let duplicate = "method m() returns (r: Int) ensures r == 1 { r := 1 }
method m() returns (r: Int) ensures r == 2 { r := 1 }";
    let (resp, attempts) = client
        .request_with_retry(&Request::new(1, "acme", duplicate))
        .expect("a wf error is a definitive answer");
    assert_eq!(attempts, 1, "wf errors are not retried");
    match resp {
        Response::Err { id, code, message } => {
            assert_eq!(id, 1);
            assert_eq!(code, ErrorCode::Wf);
            assert_eq!(code.name(), "wf");
            assert!(message.contains("duplicate method m"), "{}", message);
        }
        other => panic!("expected a wf error, got {:?}", other),
    }
    let snapshot = stop(&flag, handle);
    assert_eq!(snapshot.responses_ok, 0);
}
