//! `daemon_ladder`: an open-loop offered-rate ladder against a
//! `daenerysd` server that the benchmark runs as a child process of its
//! own executable (`--serve DIR`).
//!
//! Two generator threads share one request schedule and keep at most
//! two requests in flight, each through the shipped
//! `Client::request_once` (one connection per request). The ladder
//! offers two fixed rates, whose latency is timed from each request's
//! due time, so a stalled daemon is charged for the wait it imposes on
//! later requests. It ends with a saturation step: a fixed number of
//! requests sent back to back, whose rate is the daemon's capacity.

use crate::inproc::{self, flipped, Input, Op, Rng};
use crate::measure::{median, ms, ratio, vmhwm_kb, Report, Samples};
use daenerys_idf::{all_cases, scaling_program, VerifierConfig};
use daenerys_obs::{parse_json, Json};
use daenerysd::admission::TenantPolicy;
use daenerysd::client::Client;
use daenerysd::protocol::{AdminRequest, Request, Response};
use daenerysd::server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered rates of the latency rungs, requests per second; each runs
/// for `RUNG_SHARE` of `--seconds`.
const RUNGS: [f64; 2] = [25.0, 50.0];
const RUNG_SHARE: f64 = 0.35;
/// The saturation step sends as many requests as the measured capacity
/// (about 80 req/s on a 2-vCPU VM: 2 connections per 25 ms accept
/// poll) serves in `SATURATION_SHARE` of `--seconds`. The count is
/// fixed, so a faster daemon does the same work in less time.
const CAPACITY_RPS: f64 = 80.0;
const SATURATION_SHARE: f64 = 0.3;
/// A rung passes when its p90 latency is within this limit and the
/// generator never ran more than `MAX_LATE` behind schedule.
const P90_LIMIT_MS: f64 = 50.0;
const MAX_LATE: Duration = Duration::from_secs(1);
const TENANTS: u64 = 4;
const SETUPS: usize = 5;
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// `benchmark --serve DIR`: a daemon with the default `ServerConfig`
/// over the store in `DIR`. Prints `listening ADDR`, serves until its
/// stdin closes, drains, then prints `stopped LEAKED VMHWM_KB`.
pub fn serve(dir: &Path) -> Result<(), String> {
    let server = Server::bind(ServerConfig {
        base: VerifierConfig {
            cache_dir: Some(dir.to_path_buf()),
            ..VerifierConfig::default()
        },
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {}", e))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {}", e))?;
    println!("listening {}", addr);
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let shutdown = server.shutdown_flag();
    // The parent closes our stdin to stop us; if the parent dies, the
    // pipe closes too, so no daemon outlives its benchmark.
    let watcher = std::thread::spawn(move || {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        shutdown.store(true, Ordering::SeqCst);
    });
    let snapshot = server.run();
    watcher
        .join()
        .map_err(|_| "stdin watcher panicked".to_string())?;
    println!(
        "stopped {} {}",
        snapshot.leaked_sessions,
        vmhwm_kb().unwrap_or(0)
    );
    Ok(())
}

/// A running child daemon. Dropping it without [`Daemon::stop`] kills it.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns a daemon over a fresh store in `dir` and waits until it
    /// listens.
    fn spawn(dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {}", dir.display(), e))?;
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {}", e))?;
        let mut child = Command::new(exe)
            .arg("--serve")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {}", e))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let mut daemon = match stdout {
            Some(stdout) => Daemon {
                child,
                stdin,
                stdout,
                addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            },
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon stdout not piped".to_string());
            }
        };
        let line = daemon.line()?;
        daemon.addr = line
            .strip_prefix("listening ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("daemon said {:?}", line))?;
        Ok(daemon)
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(n) if n > 0 => Ok(line),
            Ok(_) => Err("daemon closed its stdout".to_string()),
            Err(e) => Err(format!("daemon stdout: {}", e)),
        }
    }

    /// Drains and stops the daemon; returns its leaked-session count and
    /// peak RSS in KiB (0 where the daemon could not read it).
    fn stop(mut self) -> Result<(u64, u64), String> {
        drop(self.stdin.take());
        let line = self.line()?;
        let status = self.child.wait().map_err(|e| format!("wait: {}", e))?;
        if !status.success() {
            return Err(format!("daemon exited with {}", status));
        }
        let mut words = line.split_whitespace().skip(1).map(str::parse::<u64>);
        match (line.starts_with("stopped "), words.next(), words.next()) {
            (true, Some(Ok(leaked)), Some(Ok(kb))) => Ok((leaked, kb)),
            _ => Err(format!("daemon said {:?}", line)),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The traffic: 70% must-verify F1 cases (served warm after the
/// warm-up saw them), 20% `scaling_program(4)` under a method name no
/// earlier request used (a store miss and an append), 10% must-fail
/// F1 cases. Each block of 10 requests has exactly that mix, in seeded
/// order.
struct Stream {
    inputs: Vec<Input>,
    /// Every F1 case once. Re-verified counts are not checked here:
    /// cases that share a method restore it from each other.
    warmup: Vec<Op>,
    reqs: Vec<Op>,
}

impl Stream {
    fn new(seed: u64, n: usize) -> Stream {
        let cases = all_cases();
        let mut inputs: Vec<Input> = cases
            .iter()
            .map(|c| Input {
                label: c.name.to_string(),
                source: c.source.to_string(),
                verifies: c.should_verify,
            })
            .collect();
        let pos: Vec<usize> = (0..inputs.len()).filter(|&i| inputs[i].verifies).collect();
        let neg: Vec<usize> = (0..inputs.len()).filter(|&i| !inputs[i].verifies).collect();
        let warmup = (0..inputs.len())
            .map(|input| Op {
                input,
                verifies: inputs[input].verifies,
                reverified: None,
            })
            .collect();
        // All must-fail cases name their method `bad`, so they share one
        // store key: a must-fail request re-verifies exactly 1 method
        // as long as it differs from the two must-fail requests before
        // it (at most two requests are in flight at once).
        let mut recent = [neg[neg.len() - 2], neg[neg.len() - 1]];
        let mut rng = Rng::new(seed);
        let mut reqs = Vec::with_capacity(n);
        while reqs.len() < n {
            let mut kinds = [0u8, 0, 0, 0, 0, 0, 0, 1, 1, 2];
            rng.shuffle(&mut kinds);
            for kind in kinds {
                let req = match kind {
                    0 => Op {
                        input: pos[rng.below(pos.len())],
                        verifies: true,
                        reverified: Some(0),
                    },
                    1 => {
                        let unique = format!("bump_{}", reqs.len());
                        inputs.push(Input {
                            label: unique.clone(),
                            source: scaling_program(4).replace("bump_all", &unique),
                            verifies: true,
                        });
                        Op {
                            input: inputs.len() - 1,
                            verifies: true,
                            reverified: Some(1),
                        }
                    }
                    _ => {
                        let choices: Vec<usize> = neg
                            .iter()
                            .copied()
                            .filter(|i| !recent.contains(i))
                            .collect();
                        let input = choices[rng.below(choices.len())];
                        recent = [recent[1], input];
                        Op {
                            input,
                            verifies: false,
                            reverified: Some(1),
                        }
                    }
                };
                reqs.push(req);
            }
        }
        reqs.truncate(n);
        Stream {
            inputs,
            warmup,
            reqs,
        }
    }

    fn request(&self, id: usize, req: &Op) -> Request {
        Request::new(
            id as u64 + 1,
            format!("tenant{}", id as u64 % TENANTS),
            self.inputs[req.input].source.as_str(),
        )
    }
}

/// Checks one response against its request's known answer.
fn judge(stream: &Stream, req: &Op, resp: Result<Response, String>) -> Result<(), String> {
    let label = &stream.inputs[req.input].label;
    let (verdicts, reverified) = match resp? {
        Response::Ok {
            verdicts,
            reverified,
            ..
        } => (verdicts, reverified),
        Response::Refused { detail, .. } => return Err(format!("{}: refused: {}", label, detail)),
        other => return Err(format!("{}: {:?}", label, other)),
    };
    let ok = if req.verifies {
        !verdicts.is_empty() && verdicts.values().all(|v| v.kind == "verified")
    } else {
        verdicts.values().any(|v| v.kind == "failed")
    };
    if !ok {
        return Err(format!("{}: wrong verdicts {:?}", label, verdicts));
    }
    if let Some(want) = req.reverified {
        if reverified != Some(want as u64) {
            return Err(format!(
                "{}: re-verified {:?}, ground truth {}",
                label, reverified, want
            ));
        }
    }
    Ok(())
}

/// One step of the ladder.
#[derive(Default)]
struct Step {
    sent: u64,
    failures: Vec<String>,
    late_max: Duration,
    aborted: bool,
    /// From due time to response.
    lat: Samples,
    /// From send to response (the client-side wire time).
    wire: Samples,
    /// From the step's start to its last response.
    span: Duration,
}

impl Step {
    fn passed(&mut self) -> bool {
        self.failures.is_empty()
            && !self.aborted
            && self.late_max <= MAX_LATE
            && self.lat.len() > 0
            && self.lat.quantile_ms(0.9) <= P90_LIMIT_MS
    }

    fn achieved_rate(&self) -> f64 {
        ratio(self.lat.len() as f64, self.span.as_secs_f64())
    }
}

/// Offers `reqs[first..first + n]` at `rate` per second from two
/// generator threads; with no rate, each thread sends its next request
/// as soon as the last one is answered (due when sent).
fn run_step(
    client: &Client,
    stream: &Stream,
    first: usize,
    n: usize,
    rate: Option<f64>,
    wrong_answer: bool,
) -> Step {
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let step = Mutex::new(Step::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut lat = Samples::default();
                let mut wire = Samples::default();
                let mut late_max = Duration::ZERO;
                let mut failures = Vec::new();
                let mut last_done = Duration::ZERO;
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= n || abort.load(Ordering::SeqCst) {
                        break;
                    }
                    let due = match rate {
                        Some(rate) => start + Duration::from_secs_f64(i as f64 / rate),
                        None => Instant::now(),
                    };
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let late = sent - due;
                    late_max = late_max.max(late);
                    if late > MAX_LATE {
                        abort.store(true, Ordering::SeqCst);
                        break;
                    }
                    let id = first + i;
                    let mut req = stream.reqs[id];
                    if wrong_answer && id == 0 {
                        req = flipped(req);
                    }
                    let resp = client
                        .request_once(&stream.request(id, &req), 0)
                        .map_err(|e| e.to_string());
                    let done = Instant::now();
                    last_done = last_done.max(done - start);
                    match judge(stream, &req, resp) {
                        Ok(()) => {
                            lat.record(done - due);
                            wire.record(done - sent);
                        }
                        Err(why) => failures.push(why),
                    }
                }
                let mut s = step.lock().expect("step lock");
                s.lat.extend(&lat);
                s.wire.extend(&wire);
                s.late_max = s.late_max.max(late_max);
                s.failures.extend(failures);
                s.span = s.span.max(last_done);
            });
        }
    });
    let mut step = step.into_inner().expect("step lock");
    step.sent = next.load(Ordering::SeqCst).min(n) as u64;
    step.aborted = abort.load(Ordering::SeqCst);
    step
}

/// Sends the warm-up requests one at a time.
fn warm_up(client: &Client, stream: &Stream, report: &mut Report) {
    for (i, req) in stream.warmup.iter().enumerate() {
        report.attempted += 1;
        let resp = client
            .request_once(
                &Request::new(
                    1_000_000 + i as u64,
                    "warmup",
                    stream.inputs[req.input].source.as_str(),
                ),
                0,
            )
            .map_err(|e| e.to_string());
        if let Err(why) = judge(stream, req, resp) {
            report.fail(format!("warm-up: {}", why));
        }
    }
}

fn client(addr: SocketAddr) -> Client {
    Client::new(addr).with_read_timeout(REQUEST_TIMEOUT)
}

/// Adds a step's requests and failures to the report.
fn tally(step: &Step, report: &mut Report) {
    report.attempted += step.sent;
    for why in &step.failures {
        report.fail(why.clone());
    }
}

/// The untraced run: set-up time, the two latency rungs, the saturation
/// step, and the daemon's peak RSS.
pub fn measure(
    dir: &Path,
    seed: u64,
    seconds: f64,
    wrong_answer: bool,
    report: &mut Report,
) -> Result<(), String> {
    let rung_reqs = RUNGS.map(|rate| (rate * seconds * RUNG_SHARE).ceil() as usize);
    let saturation_reqs = (CAPACITY_RPS * seconds * SATURATION_SHARE).ceil() as usize;
    let stream = Stream::new(seed, rung_reqs.iter().sum::<usize>() + saturation_reqs);
    // A set-up ends when the daemon has answered the warm-up, as the
    // in-process workloads' set-ups do.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            stop(d, report)?;
        }
        let start = Instant::now();
        let d = Daemon::spawn(dir)?;
        warm_up(&client(d.addr), &stream, report);
        setup_s.push(start.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.ok_or("no daemon")?;
    let client = client(daemon.addr);

    let mut pooled = Samples::default();
    let mut first = 0;
    for (&rate, &n) in RUNGS.iter().zip(&rung_reqs) {
        let mut step = run_step(&client, &stream, first, n, Some(rate), wrong_answer);
        first += n;
        tally(&step, report);
        let passed = step.passed();
        report.latency(&format!(".r{}", rate), &mut step.lat, false);
        report.extra(
            &format!("generator.late_ms_max.{}", rate),
            ms(step.late_max),
            "ms",
        );
        report.extra(
            &format!("generator.sent.{}", rate),
            step.sent as f64,
            "count",
        );
        report.extra(
            &format!("step_passed.{}", rate),
            f64::from(u8::from(passed)),
            "bool",
        );
        pooled.extend(&step.lat);
    }
    let mut saturation = run_step(&client, &stream, first, saturation_reqs, None, false);
    tally(&saturation, report);
    report.latency(".saturation", &mut saturation.lat, false);
    let kb = stop(daemon, report)?;
    report.metric("setup_s", median(&setup_s), "s");
    report.latency("", &mut pooled, true);
    report.metric("ops_per_s", saturation.achieved_rate(), "1/s");
    inproc::peak_rss(report, (kb > 0).then_some(kb));
    Ok(())
}

fn stop(daemon: Daemon, report: &mut Report) -> Result<u64, String> {
    let (leaked, kb) = daemon.stop()?;
    if leaked != 0 {
        report.fail(format!("daemon leaked {} session(s)", leaked));
    }
    Ok(kb)
}

/// The daemon's own counters, from one `metrics` admin frame; a step's
/// figures are the differences around it.
struct ServerCounters {
    /// `daenerysd.latency_us` count and sum: requests served and the
    /// server's time on them.
    served: f64,
    latency_us: f64,
    refused: f64,
    hits: f64,
    misses: f64,
}

fn server_counters(client: &Client) -> Result<ServerCounters, String> {
    let resp = client
        .admin_once(&AdminRequest::Metrics { id: 0 })
        .map_err(|e| format!("metrics scrape: {}", e))?;
    let Response::Admin { body, .. } = resp else {
        return Err(format!("metrics scrape answered {:?}", resp));
    };
    let json = parse_json(&body).map_err(|e| format!("metrics body: {}", e))?;
    // Sums `field` over every label set of the cells named `name`.
    let sum = |section: &str, name: &str, field: &str| -> f64 {
        let cells = json
            .as_obj()
            .and_then(|o| o.get(section))
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        cells
            .iter()
            .filter_map(Json::as_obj)
            .filter(|c| c.get("name").and_then(Json::as_str) == Some(name))
            .filter_map(|c| c.get(field).and_then(Json::as_num))
            .sum()
    };
    Ok(ServerCounters {
        served: sum("histograms", "daenerysd.latency_us", "count"),
        latency_us: sum("histograms", "daenerysd.latency_us", "sum"),
        refused: sum("counters", "daenerysd.refused", "value"),
        hits: sum("counters", "daenerysd.store_hits", "value"),
        misses: sum("counters", "daenerysd.store_misses", "value"),
    })
}

/// The traced run: a fixed two-step ladder (25 and 50 req/s, 2 s each;
/// one 1 s step at 25 req/s at smoke scale) with the daemon's own
/// metrics scraped around each step, then the same request stream
/// replayed in process, through the same public functions the daemon
/// calls, for the per-layer metrics.
pub fn traced(
    dir: &Path,
    trace_out: &Path,
    seed: u64,
    smoke: bool,
    report: &mut Report,
) -> Result<(), String> {
    let counts: &[usize] = if smoke { &[25] } else { &[50, 100] };
    let stream = Stream::new(seed, counts.iter().sum());
    let daemon = Daemon::spawn(dir)?;
    let client = client(daemon.addr);
    warm_up(&client, &stream, report);
    let mut first = 0;
    for (r, &n) in counts.iter().enumerate() {
        let before = server_counters(&client)?;
        let mut step = run_step(&client, &stream, first, n, Some(RUNGS[r]), false);
        let after = server_counters(&client)?;
        first += n;
        tally(&step, report);
        let served = after.served - before.served;
        let verify_ms = ratio(after.latency_us - before.latency_us, served) / 1e3;
        let tag = RUNGS[r];
        report.extra(&format!("daenerysd.verify_ms.{}", tag), verify_ms, "ms");
        report.extra(
            &format!("daenerysd.nonverify_ms.{}", tag),
            step.wire.quantile_ms(0.5) - verify_ms,
            "ms",
        );
        report.extra(
            &format!("daenerysd.refused.{}", tag),
            after.refused - before.refused,
            "count",
        );
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        report.extra(
            &format!("daenerysd.store_hit_ratio.{}", tag),
            ratio(hits, hits + misses),
            "ratio",
        );
        report.extra(
            &format!("generator.late_ms_max.{}", tag),
            ms(step.late_max),
            "ms",
        );
        report.extra(
            &format!("generator.sent.{}", tag),
            step.sent as f64,
            "count",
        );
    }
    stop(daemon, report)?;

    let budget = TenantPolicy::default().effective_budget(None, None);
    let suite = inproc::fixed(stream.inputs, stream.warmup, stream.reqs, budget);
    inproc::traced(&suite, &dir.join("replay"), trace_out, report)
}
