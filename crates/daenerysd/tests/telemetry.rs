//! The telemetry plane, over real sockets: admin frames must answer
//! while every tenant budget is saturated, scrapes must carry labeled
//! per-tenant metrics with coherent quantiles, and the trace tail must
//! stream events `trace_validate` accepts — all while the conservation
//! ledger `admitted == completed + refused + in_flight` holds at every
//! observation point.

use daenerys_obs::Json;
use daenerysd::client::{Client, ClientError, RetryPolicy};
use daenerysd::protocol::{AdminRequest, Request, Response};
use daenerysd::server::{MetricsSnapshot, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const GOOD: &str = "field val: Int
method set(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1 { c.val := 1 }";

fn test_config() -> ServerConfig {
    ServerConfig {
        ..ServerConfig::default()
    }
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

/// Sends one admin frame and returns its parsed body.
fn scrape(client: &Client, req: &AdminRequest) -> Json {
    match client.admin_once(req).expect("admin frame answered") {
        Response::Admin { id, kind, body } => {
            assert_eq!(id, req.id(), "admin id echoes");
            assert_eq!(kind, req.kind(), "admin kind echoes");
            daenerys_obs::parse_json(&body).expect("admin body is JSON")
        }
        other => panic!("expected an admin response, got {:?}", other),
    }
}

/// The unlabeled store-upkeep cells the daemon stamps when nonzero;
/// every other cell is named `daenerysd.*`.
const STORE_UPKEEP: [&str; 3] = [
    "store.corrupt_lines",
    "store.truncated_tail",
    "store.write_errors",
];

fn num(obj: &std::collections::BTreeMap<String, Json>, key: &str) -> f64 {
    obj.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("missing numeric {:?} in {:?}", key, obj))
}

/// The headline acceptance property: with `max_in_flight = 0` every
/// verification request is refused at admission — the tenant plane is
/// fully saturated — yet all three admin frames keep answering on the
/// same listener, and the ledger still conserves (refusals are counted,
/// nothing leaks in flight).
#[test]
fn admin_frames_answer_while_tenant_budgets_saturated() {
    let mut config = test_config();
    config.policy.max_in_flight = 0;
    let (addr, flag, handle) = start(config);
    let client = Client::new(addr).with_retry(RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    });

    for id in 1..=4u64 {
        match client.request_once(&Request::new(id, "acme", GOOD), 0) {
            Ok(Response::Refused { id: rid, .. }) => assert_eq!(rid, id),
            other => panic!("expected refusal under zero budget, got {:?}", other),
        }
    }
    // And the retry path gives up without ever being admitted.
    match client.request_with_retry(&Request::new(99, "acme", GOOD)) {
        Err(ClientError::Exhausted { last, .. }) => {
            assert!(
                last.contains("refused"),
                "last failure was a refusal: {}",
                last
            );
        }
        other => panic!("expected exhaustion, got {:?}", other),
    }

    // The telemetry plane still answers — admission never saw it.
    let metrics = scrape(&client, &AdminRequest::Metrics { id: 7 });
    let counters = metrics.as_obj().unwrap()["counters"].as_arr().unwrap();
    let refused = counters
        .iter()
        .filter_map(Json::as_obj)
        .find(|c| {
            c["name"].as_str() == Some("daenerysd.refused")
                && c["labels"].as_obj().and_then(|l| l["tenant"].as_str()) == Some("acme")
        })
        .expect("daenerysd.refused{tenant=acme} is stamped");
    assert_eq!(num(refused, "value"), 5.0, "one bump per refusal");

    let health = scrape(&client, &AdminRequest::Health { id: 8 });
    let health = health.as_obj().unwrap();
    assert_eq!(health["conserved"], Json::Bool(true));
    assert_eq!(health["draining"], Json::Bool(false));
    let acme = health["tenants"].as_obj().unwrap()["acme"]
        .as_obj()
        .unwrap();
    assert_eq!(
        num(acme, "admitted"),
        5.0,
        "refusals still count as presented"
    );
    assert_eq!(num(acme, "refused"), 5.0);
    assert_eq!(num(acme, "completed"), 0.0);
    assert_eq!(num(acme, "in_flight"), 0.0);

    let tail = scrape(
        &client,
        &AdminRequest::TraceTail {
            id: 9,
            after_seq: 0,
            max: u64::MAX,
        },
    );
    assert!(tail.as_obj().unwrap().contains_key("latest_seq"));

    let snapshot = stop(&flag, handle);
    assert_eq!(snapshot.requests_refused, 5);
    assert_eq!(
        snapshot.admin_frames, 3,
        "admin frames counted on their own channel"
    );
    assert_eq!(
        snapshot.requests_received, 5,
        "scrapes never inflate the verification-traffic measure"
    );
    assert_eq!(snapshot.leaked_sessions, 0);
}

/// A real workload leaves per-tenant labels on every metric family and
/// quantiles that are coherent (p50 ≤ p95 ≤ p99, count matches the
/// traffic we actually sent).
#[test]
fn metrics_scrape_carries_tenant_labels_and_monotone_quantiles() {
    let (addr, flag, handle) = start(test_config());
    let client = Client::new(addr);

    const N: u64 = 6;
    for id in 1..=N {
        let tenant = if id % 2 == 0 { "even" } else { "odd" };
        let (resp, _) = client
            .request_with_retry(&Request::new(id, tenant, GOOD))
            .expect("verify succeeds");
        assert!(matches!(resp, Response::Ok { .. }));
    }

    let metrics = scrape(&client, &AdminRequest::Metrics { id: 1 });
    let obj = metrics.as_obj().unwrap();
    let counters = obj["counters"].as_arr().unwrap();
    let histograms = obj["histograms"].as_arr().unwrap();

    let counter = |name: &str, tenant: &str| -> f64 {
        counters
            .iter()
            .filter_map(Json::as_obj)
            .find(|c| {
                c["name"].as_str() == Some(name)
                    && c["labels"].as_obj().and_then(|l| l["tenant"].as_str()) == Some(tenant)
            })
            .map(|c| num(c, "value"))
            .unwrap_or_else(|| panic!("missing {}{{tenant={}}}", name, tenant))
    };
    assert_eq!(counter("daenerysd.requests", "even") as u64, N / 2);
    assert_eq!(counter("daenerysd.requests", "odd") as u64, N.div_ceil(2));
    assert_eq!(counter("daenerysd.verdict.verified", "even") as u64, N / 2);

    for tenant in ["even", "odd"] {
        let lat = histograms
            .iter()
            .filter_map(Json::as_obj)
            .find(|h| {
                h["name"].as_str() == Some("daenerysd.latency_us")
                    && h["labels"].as_obj().and_then(|l| l["tenant"].as_str()) == Some(tenant)
            })
            .unwrap_or_else(|| panic!("missing latency histogram for {}", tenant));
        let (p50, p95, p99) = (num(lat, "p50"), num(lat, "p95"), num(lat, "p99"));
        assert!(p50 <= p95 && p95 <= p99, "{} ≤ {} ≤ {}", p50, p95, p99);
        assert!(
            num(lat, "min") <= p50,
            "quantiles clamp to the observed range"
        );
        assert!(
            p99 <= num(lat, "max"),
            "quantiles clamp to the observed range"
        );
    }

    // One ledger: every cell is the daemon's own or a store-upkeep
    // cell; the verifier's counts reach it only through the daemon.
    for cell in counters.iter().chain(histograms).filter_map(Json::as_obj) {
        let name = cell["name"].as_str().unwrap();
        assert!(
            name.starts_with("daenerysd.") || STORE_UPKEEP.contains(&name),
            "{name} is outside the daemon's ledger"
        );
    }

    let snapshot = stop(&flag, handle);
    assert_eq!(snapshot.responses_ok, N);
}

/// The daemon keeps one ledger: a live `metrics` scrape already shows
/// the session, request and admin-frame counts, and the shutdown
/// snapshot, read from the same registry, reports the same figures.
#[test]
fn metrics_scrape_and_shutdown_snapshot_read_one_ledger() {
    let (addr, flag, handle) = start(test_config());
    let client = Client::new(addr);

    const N: u64 = 4;
    for id in 1..=N {
        // `request_once` opens one connection per request.
        match client.request_once(&Request::new(id, "acme", GOOD), 0) {
            Ok(Response::Ok { id: rid, .. }) => assert_eq!(rid, id),
            other => panic!("expected an ok response, got {:?}", other),
        }
    }

    let metrics = scrape(&client, &AdminRequest::Metrics { id: 1 });
    let unlabeled = |name: &str| -> u64 {
        metrics.as_obj().unwrap()["counters"]
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(Json::as_obj)
            .find(|c| {
                c["name"].as_str() == Some(name)
                    && c["labels"]
                        .as_obj()
                        .is_some_and(std::collections::BTreeMap::is_empty)
            })
            .map(|c| num(c, "value") as u64)
            .unwrap_or_else(|| panic!("missing unlabeled {}", name))
    };
    assert_eq!(unlabeled("daenerysd.requests_received"), N);
    assert_eq!(unlabeled("daenerysd.responses_ok"), N);
    assert_eq!(
        unlabeled("daenerysd.sessions_opened"),
        N + 1,
        "the scrape's own connection is a session"
    );
    assert_eq!(unlabeled("daenerysd.admin_frames"), 1, "the scrape itself");

    let snapshot = stop(&flag, handle);
    assert_eq!(snapshot.requests_received, N);
    assert_eq!(snapshot.responses_ok, N);
    assert_eq!(snapshot.sessions_opened, N + 1);
    assert_eq!(snapshot.sessions_closed, N + 1);
    assert_eq!(snapshot.admin_frames, 1);
    assert_eq!(snapshot.leaked_sessions, 0);
}

/// The `daenerysd.fuel` histogram records the budget's own unit —
/// conflicts plus propagations — so one request's sample equals what an
/// in-process verifier spends on the same program under the same
/// budget.
#[test]
fn fuel_histogram_matches_in_process_solver_fuel() {
    let source = daenerys_idf::diverging_program(4);
    let program = daenerys_idf::parse_program(&source).unwrap();
    let config = daenerys_idf::VerifierConfig {
        budget: daenerysd::TenantPolicy::default().effective_budget(None, None),
        ..daenerys_idf::VerifierConfig::default()
    };
    let expected: u64 = daenerys_idf::SessionHost::new(daenerys_idf::Backend::Destabilized, config)
        .session()
        .verify_program(&program)
        .verdicts
        .values()
        .map(|v| match v {
            daenerys_idf::Verdict::Verified(s) => {
                (s.solver_conflicts + s.solver_propagations) as u64
            }
            other => panic!("the diverging program verifies, got {}", other),
        })
        .sum();
    assert!(expected > 0, "the program exercises the solver");

    let (addr, flag, handle) = start(test_config());
    let client = Client::new(addr);
    let (resp, _) = client
        .request_with_retry(&Request::new(1, "acme", source.as_str()))
        .expect("verify succeeds");
    assert!(matches!(resp, Response::Ok { .. }));
    let metrics = scrape(&client, &AdminRequest::Metrics { id: 2 });
    let fuel = metrics.as_obj().unwrap()["histograms"]
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(Json::as_obj)
        .find(|h| {
            h["name"].as_str() == Some("daenerysd.fuel")
                && h["labels"].as_obj().and_then(|l| l["tenant"].as_str()) == Some("acme")
        })
        .expect("daenerysd.fuel{tenant=acme} is recorded")
        .clone();
    assert_eq!(num(&fuel, "count"), 1.0);
    assert_eq!(num(&fuel, "sum") as u64, expected);
    stop(&flag, handle);
}

/// The trace tail pages events in seq order and every element is a
/// standalone line the JSONL validator accepts — the scrape *is* a
/// trace stream.
#[test]
fn trace_tail_streams_validatable_jsonl() {
    let (addr, flag, handle) = start(test_config());
    let client = Client::new(addr);
    for id in 1..=3u64 {
        client
            .request_with_retry(&Request::new(id, "acme", GOOD))
            .expect("verify succeeds");
    }

    let tail = scrape(
        &client,
        &AdminRequest::TraceTail {
            id: 2,
            after_seq: 0,
            max: u64::MAX,
        },
    );
    let obj = tail.as_obj().unwrap();
    let events = obj["events"].as_arr().unwrap();
    assert!(!events.is_empty(), "verification traffic leaves a trace");
    let mut last_seq = 0.0;
    let mut saw_tenant = false;
    for event in events {
        daenerys_obs::validate_event_line(&event.render())
            .expect("tail element revalidates as one JSONL line");
        let e = event.as_obj().unwrap();
        let seq = num(e, "seq");
        assert!(seq >= last_seq, "tail is seq-ordered");
        last_seq = seq;
        saw_tenant |= e["fields"].as_obj().and_then(|f| f.get("tenant")).is_some()
            && e["fields"].as_obj().unwrap()["tenant"].as_str() == Some("acme");
    }
    assert!(saw_tenant, "request context stamps the tenant onto events");
    assert!(num(obj, "latest_seq") >= last_seq);

    // Cursor semantics: paging from the last seq returns only newer
    // events (none, if the daemon is idle).
    let after = scrape(
        &client,
        &AdminRequest::TraceTail {
            id: 3,
            after_seq: last_seq as u64,
            max: u64::MAX,
        },
    );
    for event in after.as_obj().unwrap()["events"].as_arr().unwrap() {
        assert!(num(event.as_obj().unwrap(), "seq") > last_seq);
    }

    let snapshot = stop(&flag, handle);
    assert_eq!(snapshot.leaked_sessions, 0);
}

/// Store damage found when the daemon opens its store reaches the
/// `metrics` scrape: a store file whose last record was torn mid-append
/// reports `store.truncated_tail` = 1 with empty labels.
#[test]
fn torn_store_tail_is_reported_in_the_metrics_scrape() {
    let dir = std::env::temp_dir().join(format!("daenerysd-torn-tail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = daenerys_idf::VerifierConfig {
        cache_dir: Some(dir.clone()),
        ..daenerys_idf::VerifierConfig::default()
    };
    let host = daenerys_idf::SessionHost::new(daenerys_idf::Backend::Destabilized, base.clone());
    assert!(host.session().verify_source(GOOD).unwrap().verdicts["set"].is_verified());
    drop(host);
    let path = dir.join(daenerys_idf::VerdictStore::FILE_NAME);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

    let (addr, flag, handle) = start(ServerConfig {
        base,
        ..test_config()
    });
    let client = Client::new(addr);
    let metrics = scrape(&client, &AdminRequest::Metrics { id: 1 });
    let unlabeled = |name: &str| {
        metrics.as_obj().unwrap()["counters"]
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(Json::as_obj)
            .find(|c| {
                c["name"].as_str() == Some(name)
                    && c["labels"]
                        .as_obj()
                        .is_some_and(std::collections::BTreeMap::is_empty)
            })
            .map(|c| num(c, "value"))
    };
    assert_eq!(unlabeled("store.truncated_tail"), Some(1.0));
    assert_eq!(unlabeled("store.corrupt_lines"), Some(1.0));
    stop(&flag, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A verdict store the daemon cannot write costs nothing but reuse:
/// the request is still answered `ok` with its verdicts, and the
/// failed commit is counted once as unlabeled `store.write_errors`.
#[test]
fn failed_store_writes_are_counted_and_the_request_is_still_answered() {
    let dir = std::env::temp_dir().join(format!("daenerysd-write-errors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The store file's path is a directory: every commit fails.
    std::fs::create_dir_all(dir.join(daenerys_idf::VerdictStore::FILE_NAME)).unwrap();
    let (addr, flag, handle) = start(ServerConfig {
        base: daenerys_idf::VerifierConfig {
            cache_dir: Some(dir.clone()),
            ..daenerys_idf::VerifierConfig::default()
        },
        ..test_config()
    });
    let client = Client::new(addr);
    match client.request_once(&Request::new(1, "acme", GOOD), 0) {
        Ok(Response::Ok { verdicts, .. }) => assert_eq!(verdicts["set"].kind, "verified"),
        other => panic!("expected an ok response, got {:?}", other),
    }
    let metrics = scrape(&client, &AdminRequest::Metrics { id: 2 });
    let write_errors: Vec<f64> = metrics.as_obj().unwrap()["counters"]
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(Json::as_obj)
        .filter(|c| c["name"].as_str() == Some("store.write_errors"))
        .map(|c| {
            assert!(
                c["labels"]
                    .as_obj()
                    .is_some_and(std::collections::BTreeMap::is_empty),
                "store.write_errors is unlabeled"
            );
            num(c, "value")
        })
        .collect();
    assert_eq!(write_errors, [1.0], "one failed commit, counted once");
    let snapshot = stop(&flag, handle);
    assert_eq!(snapshot.responses_ok, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
