//! Replay driver: hammers a `daenerysd` daemon with the F1 corpus at
//! high concurrency, with and without the full wire-fault matrix, and
//! emits `BENCH_server.json` (under `target/bench/` unless `--out`
//! names another file).
//!
//!     server_replay [--addr HOST:PORT] [--requests N] [--concurrency N]
//!                   [--chaos-seed SEED] [--out FILE] [--keep-store]
//!
//! Two passes over the same request corpus:
//!
//! 1. **fault-free** — clean wire, measuring baseline throughput and
//!    latency percentiles;
//! 2. **chaos** — [`WireFaultPlan::full`] on the client send path
//!    (torn frames, garbage headers, mid-request disconnects,
//!    slow-loris), with retry + exponential backoff + deterministic
//!    jitter.
//!
//! The run then enforces the chaos gate and exits non-zero if any leg
//! fails: every request completes in both passes, completed chaos
//! verdicts are bit-identical to the fault-free pass, and (when the
//! daemon runs in-process) zero leaked sessions, zero contained
//! panics, and an uncorrupted verdict store on reload.
//!
//! With `--addr` the driver replays against an externally started
//! daemon (the CI smoke job does this, asserting the daemon-side
//! invariants itself via `--metrics-out` and SIGTERM); without it the
//! driver embeds a fresh daemon per pass on an ephemeral port.
//!
//! Each pass also runs a **mid-run scraper**: a side thread polling the
//! `health` admin frame while the replay lanes hammer the daemon. Every
//! scrape must satisfy the admission conservation invariant
//! `admitted == completed + refused + in_flight` — a single violating
//! observation fails the gate. After the lanes drain, one final
//! `metrics` + `health` scrape records server-side phase attribution
//! (`daenerysd.phase_nanos`) and the per-tenant ledger into the
//! `server` block of `BENCH_server.json`.

use daenerys_idf::{chain_program, scaling_program, VerdictStore};
use daenerys_obs::{parse_json, Json};
use daenerysd::chaos::WireFaultPlan;
use daenerysd::client::{Client, RetryPolicy};
use daenerysd::protocol::{AdminRequest, Request, Response};
use daenerysd::server::{MetricsSnapshot, Server, ServerConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Opts {
    addr: Option<SocketAddr>,
    requests: u64,
    concurrency: usize,
    chaos_seed: u64,
    out: PathBuf,
    keep_store: bool,
}

fn parse_opts(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        addr: None,
        requests: 96,
        // The default admission policy allows 4 in-flight per tenant
        // over 4 tenants; 48 lanes is 3x that aggregate width.
        concurrency: 48,
        chaos_seed: 42,
        out: PathBuf::from("target/bench/BENCH_server.json"),
        keep_store: false,
    };
    let mut argv = args.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{} needs a value", name));
        match flag.as_str() {
            "--addr" => {
                opts.addr = Some(
                    value("--addr")?
                        .parse()
                        .map_err(|e| format!("--addr: {}", e))?,
                );
            }
            "--requests" => {
                opts.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests: not a number".to_string())?;
            }
            "--concurrency" => {
                opts.concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|_| "--concurrency: not a number".to_string())?;
            }
            "--chaos-seed" => {
                opts.chaos_seed = value("--chaos-seed")?
                    .parse()
                    .map_err(|_| "--chaos-seed: not a number".to_string())?;
            }
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--keep-store" => opts.keep_store = true,
            other => return Err(format!("unknown flag {:?}", other)),
        }
    }
    opts.requests = opts.requests.max(1);
    opts.concurrency = opts.concurrency.max(1);
    Ok(opts)
}

/// The F1 corpus, cycled by request id: the scaling family (field
/// reads vs. object count) and the chain sweep (memoization depth).
fn source_for(id: u64) -> String {
    match id % 6 {
        0 => scaling_program(8),
        1 => scaling_program(2),
        2 => chain_program(8),
        3 => chain_program(16),
        4 => scaling_program(4),
        _ => chain_program(4),
    }
}

/// The comparable core of a response for the bit-identical gate.
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
        Response::Admin { kind, .. } => format!("admin[{}]", kind),
    }
}

/// What the mid-run scraper and the final scrape observed of one
/// pass's server-side telemetry.
#[derive(Default)]
struct ServerObs {
    /// Successful mid-run `health` scrapes.
    scrapes: u64,
    /// Scrapes that failed at the transport/decode layer (tolerated —
    /// the daemon may briefly saturate its accept backlog).
    scrape_errors: u64,
    /// Mid-run scrapes whose ledger did **not** conserve (gate-fatal).
    conserved_failures: u64,
    /// Peak aggregate in-flight seen across scrapes.
    max_in_flight: u64,
    /// Final `metrics` body (raw JSON), when the plane answered.
    final_metrics: Option<String>,
    /// Final `health` body (raw JSON), when the plane answered.
    final_health: Option<String>,
}

fn admin_body(client: &Client, req: &AdminRequest) -> Option<String> {
    match client.admin_once(req) {
        Ok(Response::Admin { body, .. }) => Some(body),
        _ => None,
    }
}

/// One mid-run health observation folded into `obs`.
fn observe_health(body: &str, obs: &mut ServerObs) {
    let Ok(parsed) = parse_json(body) else {
        obs.scrape_errors += 1;
        return;
    };
    let Some(health) = parsed.as_obj() else {
        obs.scrape_errors += 1;
        return;
    };
    obs.scrapes += 1;
    if health.get("conserved") != Some(&Json::Bool(true)) {
        obs.conserved_failures += 1;
    }
    let in_flight = health
        .get("total")
        .and_then(Json::as_obj)
        .and_then(|t| t.get("in_flight"))
        .and_then(Json::as_num)
        .unwrap_or(0.0) as u64;
    obs.max_in_flight = obs.max_in_flight.max(in_flight);
}

#[derive(Default)]
struct PassResult {
    /// id → comparable verdict string, for completed requests only.
    completed: BTreeMap<u64, String>,
    /// id → failure rendering, for exhausted requests.
    failed: BTreeMap<u64, String>,
    latencies_ms: Vec<f64>,
    retries_total: u64,
    wall: Duration,
}

fn run_pass(addr: SocketAddr, opts: &Opts, faults: WireFaultPlan) -> (PassResult, ServerObs) {
    let retry = RetryPolicy {
        max_attempts: 8,
        base_backoff_ms: 10,
        max_backoff_ms: 500,
        seed: opts.chaos_seed ^ 0x5eed,
    };
    let client = Client::new(addr)
        .with_retry(retry)
        .with_faults(faults)
        .with_read_timeout(Duration::from_secs(60));
    // The scraper's client is chaos-free by construction (`admin_once`
    // never consults the fault plan): the observer must not perturb
    // what it observes.
    let scrape_client = Client::new(addr).with_read_timeout(Duration::from_secs(10));
    let next = AtomicU64::new(1);
    let lanes_done = AtomicBool::new(false);
    let shared: Mutex<PassResult> = Mutex::new(PassResult::default());
    let started = Instant::now();
    let mut obs = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut obs = ServerObs::default();
            while !lanes_done.load(Ordering::SeqCst) {
                match admin_body(&scrape_client, &AdminRequest::Health { id: 0 }) {
                    Some(body) => observe_health(&body, &mut obs),
                    None => obs.scrape_errors += 1,
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            obs
        });
        let lanes: Vec<_> = (0..opts.concurrency)
            .map(|_| {
                scope.spawn(|| loop {
                    let id = next.fetch_add(1, Ordering::Relaxed);
                    if id > opts.requests {
                        return;
                    }
                    let mut req = Request::new(id, format!("tenant-{}", id % 4), source_for(id));
                    req.deadline_ms = Some(10_000);
                    let t0 = Instant::now();
                    let outcome = client.request_with_retry(&req);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    let mut result = shared.lock().unwrap();
                    result.latencies_ms.push(ms);
                    match outcome {
                        Ok((resp, attempts)) => {
                            result.retries_total += u64::from(attempts - 1);
                            result.completed.insert(id, comparable(&resp));
                        }
                        Err(e) => {
                            result.failed.insert(id, e.to_string());
                        }
                    }
                })
            })
            .collect();
        for lane in lanes {
            let _ = lane.join();
        }
        lanes_done.store(true, Ordering::SeqCst);
        scraper.join().unwrap_or_default()
    });
    let mut result = shared.into_inner().unwrap();
    result.wall = started.elapsed();
    result
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).unwrap());
    // The final observation: with the lanes drained, record phase
    // attribution and the settled per-tenant ledger.
    obs.final_metrics = admin_body(&scrape_client, &AdminRequest::Metrics { id: 0 });
    obs.final_health = admin_body(&scrape_client, &AdminRequest::Health { id: 0 });
    if let Some(body) = obs.final_health.clone() {
        observe_health(&body, &mut obs);
    }
    (result, obs)
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn pass_json(pass: &PassResult) -> Json {
    let wall_s = pass.wall.as_secs_f64().max(1e-9);
    Json::obj([
        ("completed", pass.completed.len().into()),
        ("failed", pass.failed.len().into()),
        ("retries", pass.retries_total.into()),
        ("wall_ms", (wall_s * 1e3).into()),
        (
            "throughput_rps",
            (pass.completed.len() as f64 / wall_s).into(),
        ),
        ("p50_ms", percentile(&pass.latencies_ms, 50.0).into()),
        ("p95_ms", percentile(&pass.latencies_ms, 95.0).into()),
        ("p99_ms", percentile(&pass.latencies_ms, 99.0).into()),
    ])
}

/// Writes the report to `path` as one line, creating its parent
/// directory when missing.
fn write_report(path: &Path, json: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("{}\n", json))
}

/// An embedded daemon for one pass (used when `--addr` is absent).
struct Embedded {
    addr: SocketAddr,
    flag: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<MetricsSnapshot>,
    store_dir: PathBuf,
}

fn embed(tag: &str) -> Result<Embedded, String> {
    let store_dir =
        std::env::temp_dir().join(format!("daenerysd-replay-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut config = ServerConfig::default();
    config.base.cache_dir = Some(store_dir.clone());
    let server = Server::bind(config).map_err(|e| format!("bind: {}", e))?;
    let addr = server.local_addr().map_err(|e| format!("addr: {}", e))?;
    let flag = server.shutdown_flag();
    Ok(Embedded {
        addr,
        flag,
        handle: std::thread::spawn(move || server.run()),
        store_dir,
    })
}

impl Embedded {
    fn stop(self, keep_store: bool) -> Result<MetricsSnapshot, String> {
        self.flag.store(true, Ordering::SeqCst);
        let snapshot = self
            .handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        // The gate's store-integrity leg: the flushed store reloads
        // with zero corrupt lines.
        let store = VerdictStore::open(&self.store_dir);
        if store.corrupt_lines() > 0 || store.truncated_tail() {
            return Err(format!(
                "store corrupted: {} corrupt line(s), truncated_tail={}",
                store.corrupt_lines(),
                store.truncated_tail()
            ));
        }
        if !keep_store {
            let _ = std::fs::remove_dir_all(&self.store_dir);
        }
        Ok(snapshot)
    }
}

/// The gate's conservation leg: at least one successful mid-run
/// observation, zero violating observations, and a conserved final
/// ledger.
fn check_obs(label: &str, obs: &ServerObs, gate_failures: &mut Vec<String>) {
    if obs.scrapes == 0 {
        gate_failures.push(format!(
            "{}: telemetry plane never answered a health scrape ({} error(s))",
            label, obs.scrape_errors
        ));
        return;
    }
    if obs.conserved_failures > 0 {
        gate_failures.push(format!(
            "{}: {} of {} health scrape(s) violated admitted == completed + refused + in_flight",
            label, obs.conserved_failures, obs.scrapes
        ));
    }
    if obs.final_metrics.is_none() || obs.final_health.is_none() {
        gate_failures.push(format!("{}: final telemetry scrape failed", label));
    }
}

/// The `server` block for one pass: scrape accounting, per-phase time
/// attribution (count + total nanoseconds per `daenerysd.phase_nanos`
/// phase label, summed over tenants), and the settled per-tenant
/// ledger rows.
fn server_json(obs: &ServerObs) -> Json {
    let mut phases: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    if let Some(parsed) = obs
        .final_metrics
        .as_deref()
        .and_then(|b| parse_json(b).ok())
    {
        let histograms = parsed
            .as_obj()
            .and_then(|o| o.get("histograms"))
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        for h in histograms.iter().filter_map(Json::as_obj) {
            if h.get("name").and_then(Json::as_str) != Some("daenerysd.phase_nanos") {
                continue;
            }
            let Some(phase) = h
                .get("labels")
                .and_then(Json::as_obj)
                .and_then(|l| l.get("phase"))
                .and_then(Json::as_str)
            else {
                continue;
            };
            let count = h.get("count").and_then(Json::as_num).unwrap_or(0.0) as u64;
            let nanos = h.get("sum").and_then(Json::as_num).unwrap_or(0.0) as u64;
            let slot = phases.entry(phase.to_string()).or_insert((0, 0));
            slot.0 += count;
            slot.1 += nanos;
        }
    }
    let phases = phases.iter().map(|(phase, (count, nanos))| {
        let cell = Json::obj([("count", (*count).into()), ("nanos", (*nanos).into())]);
        (phase.as_str(), cell)
    });
    let tenants = obs
        .final_health
        .as_deref()
        .and_then(|b| parse_json(b).ok())
        .and_then(|parsed| parsed.as_obj()?.get("tenants")?.as_obj().cloned())
        .unwrap_or_default();
    Json::obj([
        ("scrapes", obs.scrapes.into()),
        ("scrape_errors", obs.scrape_errors.into()),
        ("conserved_failures", obs.conserved_failures.into()),
        ("max_in_flight", obs.max_in_flight.into()),
        ("phases", Json::obj(phases)),
        ("tenants", Json::Obj(tenants)),
    ])
}

fn check_snapshot(label: &str, snap: &MetricsSnapshot, gate_failures: &mut Vec<String>) {
    if snap.leaked_sessions != 0 {
        gate_failures.push(format!(
            "{}: {} leaked session(s)",
            label, snap.leaked_sessions
        ));
    }
    if snap.internal_crashes != 0 {
        gate_failures.push(format!(
            "{}: {} contained panic(s)",
            label, snap.internal_crashes
        ));
    }
}

fn main() -> ExitCode {
    let opts = match parse_opts(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("server_replay: {}", msg);
            return ExitCode::FAILURE;
        }
    };
    let chaos_plan = WireFaultPlan::full(opts.chaos_seed);
    let mut gate_failures: Vec<String> = Vec::new();
    let mut snapshots: Vec<(&str, Json)> = Vec::new();

    let (clean, clean_obs, chaos, chaos_obs) = match opts.addr {
        Some(addr) => {
            // External daemon: both passes against it; its final
            // snapshot (leaked sessions, contained panics) is gated by
            // the smoke script, conservation here via the scrapes.
            let (clean, clean_obs) = run_pass(addr, &opts, WireFaultPlan::none());
            let (chaos, chaos_obs) = run_pass(addr, &opts, chaos_plan);
            (clean, clean_obs, chaos, chaos_obs)
        }
        None => {
            let daemon = match embed("clean") {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("server_replay: {}", e);
                    return ExitCode::FAILURE;
                }
            };
            let (clean, clean_obs) = run_pass(daemon.addr, &opts, WireFaultPlan::none());
            match daemon.stop(opts.keep_store) {
                Ok(snap) => {
                    check_snapshot("fault_free", &snap, &mut gate_failures);
                    snapshots.push(("fault_free_daemon", snap.to_json()));
                }
                Err(e) => gate_failures.push(format!("fault_free: {}", e)),
            }
            let daemon = match embed("chaos") {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("server_replay: {}", e);
                    return ExitCode::FAILURE;
                }
            };
            let (chaos, chaos_obs) = run_pass(daemon.addr, &opts, chaos_plan);
            match daemon.stop(opts.keep_store) {
                Ok(snap) => {
                    check_snapshot("chaos", &snap, &mut gate_failures);
                    snapshots.push(("chaos_daemon", snap.to_json()));
                }
                Err(e) => gate_failures.push(format!("chaos: {}", e)),
            }
            (clean, clean_obs, chaos, chaos_obs)
        }
    };
    check_obs("fault_free", &clean_obs, &mut gate_failures);
    check_obs("chaos", &chaos_obs, &mut gate_failures);

    // Gate: both passes complete the whole corpus (retry absorbs every
    // injected fault), and completed chaos verdicts are bit-identical.
    if !clean.failed.is_empty() {
        gate_failures.push(format!(
            "fault-free pass failed {} request(s): {:?}",
            clean.failed.len(),
            clean.failed.iter().next()
        ));
    }
    if !chaos.failed.is_empty() {
        gate_failures.push(format!(
            "chaos pass failed {} request(s): {:?}",
            chaos.failed.len(),
            chaos.failed.iter().next()
        ));
    }
    let mut diverged = 0usize;
    for (id, verdict) in &chaos.completed {
        if let Some(reference) = clean.completed.get(id) {
            if reference != verdict {
                diverged += 1;
                if diverged == 1 {
                    gate_failures.push(format!(
                        "request {} diverged under chaos: {} vs {}",
                        id, verdict, reference
                    ));
                }
            }
        }
    }
    if diverged > 1 {
        gate_failures.push(format!("{} request(s) diverged under chaos", diverged));
    }

    let affected = (1..=opts.requests)
        .filter(|id| (0..8u64).any(|attempt| !chaos_plan.fault_for(*id, attempt).is_none()))
        .count();

    let config = Json::obj([
        ("requests", opts.requests.into()),
        ("concurrency", opts.concurrency.into()),
        ("chaos_seed", opts.chaos_seed.into()),
        ("affected_requests", affected.into()),
        ("external_daemon", opts.addr.is_some().into()),
    ]);
    let server = Json::obj([
        ("fault_free", server_json(&clean_obs)),
        ("chaos", server_json(&chaos_obs)),
    ]);
    let gate = Json::obj([
        ("passed", gate_failures.is_empty().into()),
        ("bit_identical", (diverged == 0).into()),
        ("failures", gate_failures.len().into()),
    ]);
    let json = Json::obj(
        [
            ("config", config),
            ("fault_free", pass_json(&clean)),
            ("chaos", pass_json(&chaos)),
            ("server", server),
            ("gate", gate),
        ]
        .into_iter()
        .chain(snapshots),
    )
    .render();

    if let Err(e) = write_report(&opts.out, &json) {
        eprintln!("server_replay: writing {}: {}", opts.out.display(), e);
        return ExitCode::FAILURE;
    }
    println!("{}", json);
    if gate_failures.is_empty() {
        println!(
            "server_replay: gate PASSED ({} requests, {} affected by chaos, {} retries absorbed)",
            opts.requests, affected, chaos.retries_total
        );
        ExitCode::SUCCESS
    } else {
        for failure in &gate_failures {
            eprintln!("server_replay: gate FAILED: {}", failure);
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(line: &str) -> Result<Opts, String> {
        parse_opts(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_report_goes_under_target_bench_by_default() {
        let o = opts("").expect("no flags parse");
        assert_eq!(o.out, Path::new("target/bench/BENCH_server.json"));
        assert_eq!((o.requests, o.concurrency, o.chaos_seed), (96, 48, 42));
        assert!(o.addr.is_none() && !o.keep_store);
    }

    #[test]
    fn flags_override_the_defaults() {
        let o = opts(
            "--addr 127.0.0.1:7000 --requests 12 --concurrency 3 --chaos-seed 9 \
             --out smoke/BENCH_server.json --keep-store",
        )
        .expect("flags parse");
        assert_eq!(o.addr, Some("127.0.0.1:7000".parse().unwrap()));
        assert_eq!((o.requests, o.concurrency, o.chaos_seed), (12, 3, 9));
        assert_eq!(o.out, Path::new("smoke/BENCH_server.json"));
        assert!(o.keep_store);
    }

    #[test]
    fn zero_requests_and_lanes_are_raised_to_one() {
        let o = opts("--requests 0 --concurrency 0").expect("flags parse");
        assert_eq!((o.requests, o.concurrency), (1, 1));
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        let cases = [
            ("--out", "--out needs a value"),
            ("--requests many", "--requests: not a number"),
            ("--concurrency -1", "--concurrency: not a number"),
            ("--chaos-seed", "--chaos-seed needs a value"),
            ("--json", "unknown flag \"--json\""),
        ];
        for (line, message) in cases {
            assert_eq!(opts(line).err().as_deref(), Some(message), "{}", line);
        }
        let bad_addr = opts("--addr localhost").err().expect("refused");
        assert!(bad_addr.starts_with("--addr: "), "{}", bad_addr);
    }

    #[test]
    fn percentiles_pick_the_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 50.0), 3.0);
        assert_eq!(percentile(&sorted, 95.0), 5.0);
        assert_eq!(percentile(&sorted, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn write_report_creates_the_missing_directories() {
        let root =
            std::env::temp_dir().join(format!("server-replay-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("target/bench/BENCH_server.json");
        write_report(&path, "{\"ok\":true}").expect("written");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}\n");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn health_scrapes_count_conservation_failures_and_peak_in_flight() {
        let mut obs = ServerObs::default();
        observe_health(r#"{"conserved":true,"total":{"in_flight":3}}"#, &mut obs);
        observe_health(r#"{"conserved":false,"total":{"in_flight":1}}"#, &mut obs);
        observe_health("not json", &mut obs);
        observe_health("[1,2]", &mut obs);
        assert_eq!(obs.scrapes, 2);
        assert_eq!(obs.conserved_failures, 1);
        assert_eq!(obs.scrape_errors, 2);
        assert_eq!(obs.max_in_flight, 3);
    }

    #[test]
    fn the_request_corpus_cycles_with_period_six() {
        let first: Vec<String> = (0..6).map(source_for).collect();
        let distinct: std::collections::BTreeSet<&String> = first.iter().collect();
        assert_eq!(distinct.len(), 6, "six different programs");
        for id in 0..6 {
            assert_eq!(source_for(id + 6), first[id as usize]);
        }
    }
}
