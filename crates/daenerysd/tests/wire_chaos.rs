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
use daenerysd::protocol::{
    read_frame, write_frame, AdminRequest, ErrorCode, FrameError, Request, Response,
};
use daenerysd::server::{MetricsSnapshot, Server, ServerConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    // Give the session time to read and admit the request, then pull
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

/// A frame still arriving when shutdown lands is answered `shutdown`
/// and counted as a server-side error, not as a framing fault.
#[test]
fn a_frame_cut_by_shutdown_is_answered_draining() {
    let mut config = test_config(None);
    // Far past the test's own waits, so only shutdown can cut the frame.
    config.frame_deadline_ms = 10_000;
    let (addr, flag, handle) = start(config);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // An answered admin frame proves the session thread is reading.
    let health = AdminRequest::Health { id: 1 };
    write_frame(&mut stream, health.encode().as_bytes()).expect("send");
    read_frame(&mut stream, |_| true).expect("health answer");
    stream.write_all(b"DAE1 100\n{\"id\":").expect("send");
    // Let the session read the partial frame, then shut down.
    std::thread::sleep(Duration::from_millis(150));
    flag.store(true, Ordering::SeqCst);
    let payload = read_frame(&mut stream, |_| true).expect("drain answer");
    match Response::decode(&payload).expect("decode") {
        Response::Err { code, message, .. } => {
            assert_eq!(code, ErrorCode::Shutdown, "{}", message);
            assert_eq!(message, "server is draining");
        }
        other => panic!("expected the drain answer, got {:?}", other),
    }
    let snap = handle.join().expect("server thread");
    assert_eq!(snap.frame_errors, 0, "{:?}", snap);
    assert_eq!(snap.requests_errored, 1, "{:?}", snap);
    assert_eq!(snap.leaked_sessions, 0);
}

/// A sender that trickles a frame faster than the read poll never
/// stalls a read. The frame deadline runs from the frame's first byte
/// and is checked after every read, so such a sender is still cut off:
/// a typed error or a closed stream within a few deadlines.
#[test]
fn fast_trickle_cannot_outlast_the_frame_deadline() {
    let mut config = test_config(None);
    config.frame_deadline_ms = 250;
    let limit = Duration::from_millis(4 * config.frame_deadline_ms);
    let (addr, flag, handle) = start(config);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone");
    let started = Instant::now();
    let trickle = std::thread::spawn(move || {
        // A header declaring 100000 bytes, then one byte every 2 ms —
        // far faster than the 25 ms read poll — for up to 10 s.
        let _ = writer.write_all(b"DAE1 100000\n");
        while started.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(2));
            if writer.write_all(b"x").is_err() {
                break;
            }
        }
    });
    let result = read_frame(&mut stream, |_| started.elapsed() < limit);
    let elapsed = started.elapsed();
    let _ = stream.shutdown(Shutdown::Both);
    match result {
        Ok(payload) => match Response::decode(&payload).expect("decode") {
            Response::Err { code, message, .. } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert_eq!(message, "frame did not complete before its deadline");
            }
            other => panic!("expected the deadline error, got {:?}", other),
        },
        Err(FrameError::Closed | FrameError::Torn { .. } | FrameError::Io(_)) => {}
        Err(e) => panic!("the trickling session was not cut off: {}", e),
    }
    assert!(
        elapsed < limit,
        "cut off after {:?}, more than 4x the frame deadline",
        elapsed
    );
    trickle.join().expect("trickle thread");
    let snap = stop(&flag, handle);
    assert_eq!(snap.frame_errors, 1, "{:?}", snap);
    assert_eq!(snap.leaked_sessions, 0);
}

/// The tenant policy's budget ceilings bound what a request spends: a
/// method that exhausts its 300 ms deadline is answered `unknown` under
/// that deadline, not retried with a doubled one.
#[test]
fn request_deadlines_are_not_doubled_by_retries() {
    let (addr, flag, handle) = start(test_config(None));
    let mut req = Request::new(1, "acme", daenerys_idf::flat_diverging_program(256));
    req.deadline_ms = Some(300);
    let (resp, _) = Client::new(addr)
        .request_with_retry(&req)
        .expect("an unknown verdict is a definitive answer");
    match resp {
        Response::Ok { verdicts, .. } => {
            let verdict = &verdicts["diverge"];
            assert_eq!(verdict.kind, "unknown", "{:?}", verdict);
            assert!(
                verdict.detail.contains("deadline of 300 ms"),
                "detail: {}",
                verdict.detail
            );
        }
        other => panic!("expected an ok response, got {:?}", other),
    }
    stop(&flag, handle);
}

/// Admission refusals are immediate (never verified) and typed; the
/// tenant's admitted request still completes.
#[test]
fn over_budget_tenants_are_refused_not_queued() {
    let mut config = test_config(None);
    config.policy.max_in_flight = 1;
    let (addr, flag, handle) = start(config);

    // Two connections for one tenant: the first carries a diverging
    // query that burns its whole 1.5 s deadline; the second, sent once
    // the first is admitted, must be refused while the first still runs.
    let mut slow_stream = TcpStream::connect(addr).expect("connect");
    slow_stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let mut slow = Request::new(1, "greedy", daenerys_idf::flat_diverging_program(256));
    slow.deadline_ms = Some(1_500);
    let slow_sent = Instant::now();
    write_frame(&mut slow_stream, slow.encode().as_bytes()).unwrap();
    wait_until_in_flight(addr, "greedy", 1);

    let sent = Instant::now();
    let refused = Client::new(addr)
        .request_once(&Request::new(2, "greedy", GOOD), 0)
        .expect("a refusal is an answer");
    let refused_after = sent.elapsed();
    match refused {
        Response::Refused { id, detail } => {
            assert_eq!(id, 2);
            assert!(detail.contains("in-flight cap"), "detail: {}", detail);
        }
        other => panic!("expected an admission refusal, got {:?}", other),
    }
    assert!(
        refused_after < Duration::from_secs(1),
        "refusal took {:?}",
        refused_after
    );

    let payload = read_frame(&mut slow_stream, |_| true).expect("slow response");
    assert!(
        slow_sent.elapsed() >= Duration::from_millis(1_500),
        "the diverging request answered before its deadline"
    );
    match Response::decode(&payload).expect("decode") {
        Response::Ok { id, .. } => assert_eq!(id, 1),
        other => panic!("the admitted request did not complete: {:?}", other),
    }
    let snap = stop(&flag, handle);
    assert_eq!(snap.requests_refused, 1, "{:?}", snap);
    assert_eq!(snap.leaked_sessions, 0);
}

/// Polls the health scrape until `tenant` holds `n` in-flight slots.
fn wait_until_in_flight(addr: SocketAddr, tenant: &str, n: u64) {
    let client = Client::new(addr);
    let started = Instant::now();
    loop {
        let body = match client.admin_once(&AdminRequest::Health { id: 0 }) {
            Ok(Response::Admin { body, .. }) => body,
            other => panic!("health scrape failed: {:?}", other),
        };
        let health = daenerys_obs::parse_json(&body).expect("health json");
        let in_flight = health.as_obj().unwrap()["tenants"]
            .as_obj()
            .unwrap()
            .get(tenant)
            .and_then(|row| row.as_obj().unwrap()["in_flight"].as_num());
        if in_flight == Some(n as f64) {
            return;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{} never reached {} in flight: {}",
            tenant,
            n,
            body
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One session answers its frames in order, one at a time: two
/// same-tenant frames pipelined on one connection under a cap of one
/// in-flight request are both verified, never refused by each other.
#[test]
fn pipelined_frames_are_answered_in_order() {
    let mut config = test_config(None);
    config.policy.max_in_flight = 1;
    let (addr, flag, handle) = start(config);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    for id in [1, 2] {
        let req = Request::new(id, "solo", GOOD);
        write_frame(&mut stream, req.encode().as_bytes()).unwrap();
    }
    for expected in [1, 2] {
        let payload = read_frame(&mut stream, |_| true).expect("response");
        match Response::decode(&payload).expect("decode") {
            Response::Ok { id, verdicts, .. } => {
                assert_eq!(id, expected);
                assert_eq!(verdicts["set"].kind, "verified");
            }
            other => panic!("frame {} was not verified: {:?}", expected, other),
        }
    }
    let snap = stop(&flag, handle);
    assert_eq!(snap.responses_ok, 2, "{:?}", snap);
    assert_eq!(snap.requests_refused, 0, "{:?}", snap);
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
    // The daemon keeps serving after the error response.
    let (resp, _) = client
        .request_with_retry(&Request::new(2, "acme", GOOD))
        .expect("verify succeeds after the wf error");
    assert!(matches!(resp, Response::Ok { .. }), "{:?}", resp);
    let snapshot = stop(&flag, handle);
    assert_eq!(snapshot.responses_ok, 1, "only the well-formed request");
    assert_eq!(snapshot.requests_errored, 1);
}

/// A verify frame nesting ten thousand arrays (20 KB) used to overflow
/// the stack of the session thread parsing it, which aborts the whole
/// daemon. The JSON reader refuses it past its nesting cap: the frame
/// is answered `bad_request`, and the daemon keeps serving.
#[test]
fn an_over_deep_json_frame_is_a_bad_request() {
    let (addr, flag, handle) = start(test_config(None));
    let deep = format!(
        r#"{{"id":1,"tenant":"t","source":"x","z":{}{}}}"#,
        "[".repeat(10_000),
        "]".repeat(10_000)
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    write_frame(&mut stream, deep.as_bytes()).unwrap();
    let payload = read_frame(&mut stream, |_| true).expect("an answer");
    match Response::decode(&payload).expect("decode") {
        Response::Err { code, message, .. } => {
            assert_eq!(code, ErrorCode::BadRequest, "{}", message);
            assert!(message.contains("nested deeper than"), "{}", message);
        }
        other => panic!("expected bad_request, got {:?}", other),
    }
    drop(stream);
    let (resp, _) = Client::new(addr)
        .request_with_retry(&Request::new(2, "t", GOOD))
        .expect("the next connection is served");
    assert!(matches!(resp, Response::Ok { .. }), "{:?}", resp);
    let snap = stop(&flag, handle);
    assert_eq!(snap.internal_crashes, 0, "{:?}", snap);
    assert_eq!(snap.responses_ok, 1, "{:?}", snap);
}

/// A program nesting one construct `n` deep. Each verifies at any
/// depth the parser accepts.
fn nested_source(shape: &str, n: usize) -> String {
    match shape {
        "parentheses" => format!(
            "method m() returns (r: Int) ensures r == 1 {{ r := {}1{} }}",
            "(".repeat(n),
            ")".repeat(n)
        ),
        "unary" => format!("method m() returns (r: Bool) {{ r := {}true }}", "!".repeat(n)),
        "old" => format!(
            "field f: Int\nmethod m(c: Ref) requires acc(c.f) ensures acc(c.f) && c.f == {}c.f{} {{ }}",
            "old(".repeat(n),
            ")".repeat(n)
        ),
        "blocks" => format!(
            "method m() returns (r: Int) ensures r == 1 {{ {}r := 1{} }}",
            "if (true) { ".repeat(n),
            " }".repeat(n)
        ),
        "plus" => format!(
            "method m() returns (r: Int) ensures r == {} {{ r := {} }}",
            n,
            vec!["1"; n].join(" + ")
        ),
        "and" => format!(
            "method m() returns (r: Bool) ensures r {{ r := {} }}",
            vec!["true"; n].join(" && ")
        ),
        "conjuncts" => format!(
            "method m() returns (r: Int) ensures {} {{ r := 1 }}",
            vec!["r == 1"; n].join(" && ")
        ),
        _ => unreachable!("unknown shape {}", shape),
    }
}

/// The IDF parser bounds nesting at `MAX_NESTING`. For each shape the
/// deepest program it accepts verifies through a daemon session (whose
/// thread has the default stack, in this debug build), and the program
/// one level deeper is answered `parse`; the daemon keeps serving.
/// Without the bound, a few hundred parentheses, `old`s or nested
/// blocks, or a few thousand `+` terms, abort the daemon.
#[test]
fn nesting_at_the_bound_verifies_and_one_level_more_is_a_parse_error() {
    let (addr, flag, handle) = start(test_config(None));
    let client = Client::new(addr);
    let shapes = [
        "parentheses",
        "unary",
        "old",
        "blocks",
        "plus",
        "and",
        "conjuncts",
    ];
    let mut id = 0;
    for shape in shapes {
        let deepest = (1..=4 * daenerys_idf::MAX_NESTING)
            .find(|&n| daenerys_idf::parse_program(&nested_source(shape, n + 1)).is_err())
            .expect("the bound refuses some depth");
        assert!(
            deepest + 8 >= daenerys_idf::MAX_NESTING,
            "{}: only {} levels parse",
            shape,
            deepest
        );
        id += 1;
        match client.request_once(&Request::new(id, "t", nested_source(shape, deepest)), 0) {
            Ok(Response::Ok { verdicts, .. }) => {
                assert_eq!(verdicts["m"].kind, "verified", "{}: {:?}", shape, verdicts)
            }
            other => panic!("{} at depth {}: {:?}", shape, deepest, other),
        }
        id += 1;
        match client.request_once(&Request::new(id, "t", nested_source(shape, deepest + 1)), 0) {
            Ok(Response::Err { code, message, .. }) => {
                assert_eq!(code, ErrorCode::Parse, "{}: {}", shape, message);
                assert!(
                    message.contains("nested deeper than"),
                    "{}: {}",
                    shape,
                    message
                );
            }
            other => panic!("{} at depth {}: {:?}", shape, deepest + 1, other),
        }
    }
    let snap = stop(&flag, handle);
    assert_eq!(snap.internal_crashes, 0, "{:?}", snap);
    assert_eq!(snap.responses_ok, shapes.len() as u64, "{:?}", snap);
}

/// A term's depth grows with the statements that build it, not with
/// any one AST's height: `r := r + y` 20 000 times parses (no node is
/// deeper than 3) but builds a 20 000-level term. The session answers
/// `unknown` on the `terms` budget axis once the term passes
/// `MAX_TERM_DEPTH`, instead of overflowing its thread's stack, and the
/// daemon keeps serving.
#[test]
fn a_term_past_the_depth_bound_is_unknown_and_the_daemon_keeps_serving() {
    let (addr, flag, handle) = start(test_config(None));
    let client = Client::new(addr);
    let deep = format!(
        "method m(y: Int) returns (r: Int) ensures r == 20000 * y {{ r := 0; {} }}",
        vec!["r := r + y"; 20_000].join("; ")
    );
    match client.request_once(&Request::new(1, "t", deep), 0) {
        Ok(Response::Ok { verdicts, .. }) => {
            let m = &verdicts["m"];
            assert_eq!(m.kind, "unknown", "{:?}", m);
            assert!(m.detail.contains("terms"), "{:?}", m);
        }
        other => panic!("deep term: {:?}", other),
    }
    match client.request_once(&Request::new(2, "t", GOOD.to_string()), 0) {
        Ok(Response::Ok { verdicts, .. }) => assert_eq!(verdicts["set"].kind, "verified"),
        other => panic!("after the deep term: {:?}", other),
    }
    let snap = stop(&flag, handle);
    assert_eq!(snap.internal_crashes, 0, "{:?}", snap);
    assert_eq!(snap.responses_ok, 2, "{:?}", snap);
}

/// A failing method whose report holds a term just inside
/// `MAX_TERM_DEPTH`: the session renders the report on its own thread
/// (2 MiB, the default for spawned threads), answers `failed`, and the
/// daemon keeps serving.
#[test]
fn a_report_near_the_depth_bound_is_failed_and_the_daemon_keeps_serving() {
    let (addr, flag, handle) = start(test_config(None));
    let client = Client::new(addr);
    let deep = format!(
        "field val: Int method m(c: Ref, y: Int) requires acc(c.val) ensures acc(c.val) \
         {{ {}; assert c.val == 0 }}",
        vec!["c.val := c.val + y"; daenerys_idf::MAX_TERM_DEPTH as usize - 10].join("; ")
    );
    match client.request_once(&Request::new(1, "t", deep), 0) {
        Ok(Response::Ok { verdicts, .. }) => assert_eq!(verdicts["m"].kind, "failed"),
        other => panic!("deep report: {:?}", other),
    }
    match client.request_once(&Request::new(2, "t", GOOD.to_string()), 0) {
        Ok(Response::Ok { verdicts, .. }) => assert_eq!(verdicts["set"].kind, "verified"),
        other => panic!("after the deep report: {:?}", other),
    }
    let snap = stop(&flag, handle);
    assert_eq!(snap.internal_crashes, 0, "{:?}", snap);
    assert_eq!(snap.responses_ok, 2, "{:?}", snap);
}
