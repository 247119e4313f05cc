//! The op pipeline shared by every workload, and the three in-process
//! workloads (`f1_mix`, `solver_heavy`, `watch_4k`).
//!
//! One op does what `daenerys verify FILE` (or one `daenerys watch`
//! pass) does: `parse_program_with_recovery_capped` → `check_program` →
//! `verify_program` through a [`SessionHost`]. Every layer is timed
//! from here, around calls to the product crates' public functions.

use crate::measure::{median, quantile, ratio, vmhwm_kb, Report, Samples};
use crate::spans::Spans;
use daenerys_bench::corpus::{Corpus, CorpusSpec, Edit};
use daenerys_bench::profile_events;
use daenerys_idf::{
    all_cases, chain_program, check_program, config_fingerprint, diverging_program,
    method_fingerprint, parse_program_with_recovery_capped, scaling_program, Backend, Budget,
    DepGraph, Program, SessionHost, Verdict, Verifier, VerifierConfig, VerifyOutcome, VerifyStats,
    DEFAULT_MAX_ERRORS,
};
use daenerys_obs::{ClockKind, Event, Sink, TraceHandle};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BACKEND: Backend = Backend::Destabilized;

/// An op slower than this counts as failed (timed out).
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// A program the workload feeds the verifier, with its known answer.
pub struct Input {
    pub label: String,
    pub source: String,
    pub verifies: bool,
}

/// One op: which input, and its known answer: whether every method
/// verifies (otherwise some method must fail), and how many methods it
/// must re-verify when the host keeps a store (the generator's ground
/// truth).
#[derive(Clone, Copy)]
pub struct Op {
    pub input: usize,
    pub verifies: bool,
    pub reverified: Option<usize>,
}

/// How ops reach the verifier.
enum HostPlan {
    /// A fresh storeless host per op, as `daenerys verify FILE` without
    /// `--cache-dir`.
    PerOp,
    /// One warm host over a fresh store directory for the whole run, as
    /// `daenerys watch` and the daemon.
    Warm,
}

/// A workload's inputs and op order.
pub struct Suite {
    inputs: Vec<Input>,
    host: HostPlan,
    /// Run (untimed) by every set-up, after the host opens.
    warmup: Vec<Op>,
    /// The budget every op verifies under (`None`: the host's).
    budget: Option<Budget>,
    /// Set-ups per untraced run; `setup_s` is their median.
    setups: usize,
    order: Order,
    /// Cycles in the traced run's fixed op sequence.
    trace_cycles: u64,
}

enum Order {
    /// A seeded permutation of every input per cycle.
    Shuffle { seed: u64 },
    /// `watch_4k`: per cycle a seeded order of 3 leaf-body, 1 spec-noop
    /// and 1 hub-spec edit; each edit pass is followed by the pass that
    /// reverts it to the base source (input 0), and both must re-verify
    /// the edit's ground truth.
    Watch {
        seed: u64,
        /// Input index of each edit's source, and its expected
        /// re-verified count.
        edits: [(usize, usize); 3],
    },
    /// A fixed list (the daemon's request stream, replayed).
    Fixed(Vec<Op>),
}

/// SplitMix64 stream over the repository's mixer.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        daenerysd::chaos::splitmix64(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

impl Suite {
    /// Op list of cycle `k` (cycle 0 is the warm-up's, measured cycles
    /// start at 1).
    pub fn cycle(&self, k: u64) -> Vec<Op> {
        match &self.order {
            Order::Shuffle { seed } => {
                let mut ops: Vec<Op> = (0..self.inputs.len())
                    .map(|input| Op {
                        input,
                        verifies: self.inputs[input].verifies,
                        reverified: None,
                    })
                    .collect();
                Rng::new(seed ^ k.wrapping_mul(0xa076_1d64_78bd_642f)).shuffle(&mut ops);
                ops
            }
            Order::Watch { seed, edits } => {
                let mut kinds = [0usize, 0, 0, 1, 2];
                Rng::new(seed ^ k.wrapping_mul(0xa076_1d64_78bd_642f)).shuffle(&mut kinds);
                kinds
                    .iter()
                    .flat_map(|&e| {
                        let (input, cone) = edits[e];
                        [input, 0].map(|input| Op {
                            input,
                            verifies: true,
                            reverified: Some(cone),
                        })
                    })
                    .collect()
            }
            Order::Fixed(ops) => ops.clone(),
        }
    }

    fn traced_sequence(&self) -> Vec<Op> {
        (1..=self.trace_cycles)
            .flat_map(|k| self.cycle(k))
            .collect()
    }
}

/// `f1_mix`: the 15 must-verify and 5 must-fail F1 cases.
pub fn f1_mix(seed: u64) -> Suite {
    let inputs: Vec<Input> = all_cases()
        .into_iter()
        .map(|c| Input {
            label: c.name.to_string(),
            source: c.source.to_string(),
            verifies: c.should_verify,
        })
        .collect();
    shuffled(inputs, seed, 100)
}

/// `solver_heavy`: three generator families that load the solver in
/// different ways.
pub fn solver_heavy(seed: u64) -> Suite {
    let mut inputs = Vec::new();
    for n in [16, 24, 32] {
        inputs.push((format!("scaling_{}", n), scaling_program(n)));
    }
    for k in [10, 12, 14] {
        inputs.push((format!("diverging_{}", k), diverging_program(k)));
    }
    inputs.push(("chain_256".to_string(), chain_program(256)));
    let inputs = inputs
        .into_iter()
        .map(|(label, source)| Input {
            label,
            source,
            verifies: true,
        })
        .collect();
    shuffled(inputs, seed, 10)
}

fn shuffled(inputs: Vec<Input>, seed: u64, trace_cycles: u64) -> Suite {
    let warmup = inputs
        .iter()
        .enumerate()
        .map(|(input, i)| Op {
            input,
            verifies: i.verifies,
            reverified: None,
        })
        .collect();
    Suite {
        inputs,
        host: HostPlan::PerOp,
        warmup,
        budget: None,
        setups: 9,
        order: Order::Shuffle { seed },
        trace_cycles,
    }
}

/// The share of the corpus that `watch_4k`'s hub cone holds: the median
/// share over 1000 corpus seeds at 4000 methods and depth 20
/// (`hub_cone_share_is_the_measured_median` re-measures it: the
/// shares run from 0.003 to 0.749, with quartiles 0.527 and 0.693 and
/// median 0.639).
const CONE_SHARE: f64 = 0.64;
/// How far from `CONE_SHARE` a corpus's hub cone may lie, as a share of
/// the corpus.
const CONE_BAND: f64 = 0.025;
const WATCH_DEPTH: usize = 20;

fn corpus(methods: usize, seed: u64) -> Corpus {
    Corpus::generate(CorpusSpec {
        methods,
        depth: WATCH_DEPTH,
        seed,
        ..CorpusSpec::default()
    })
}

/// The size of [`Corpus::hub`]'s reverse-reachable cone, computed in
/// time linear in the edges from the corpus's public adjacency (the
/// generator's own `hub`/`reverse_reachable` scan every edge list once
/// per method).
fn hub_cone(c: &Corpus) -> usize {
    let mut callers = vec![Vec::new(); c.len()];
    for i in 0..c.len() {
        for &j in c.callees(i) {
            callers[j].push(i);
        }
    }
    // `Corpus::hub` takes the last method with the most callers.
    let hub = (0..c.len()).max_by_key(|&i| callers[i].len()).unwrap_or(0);
    let mut seen = vec![false; c.len()];
    let mut stack = vec![hub];
    seen[hub] = true;
    let mut cone = 0;
    while let Some(m) = stack.pop() {
        cone += 1;
        for &caller in &callers[m] {
            if !seen[caller] {
                seen[caller] = true;
                stack.push(caller);
            }
        }
    }
    cone
}

/// `watch_4k`: a generated corpus edited and reverted through one warm
/// host.
///
/// Across corpus seeds the hub's cone holds anywhere from under 1% to
/// 75% of the corpus, and hub passes cost in proportion to it. So that
/// different seeds measure the same amount of work, the seed picks the
/// first corpus, in a seeded stream of corpus seeds, whose cone lies
/// within `CONE_BAND` of `CONE_SHARE`. The search and the number of
/// corpora it generated are reported as supporting figures.
pub fn watch(seed: u64, methods: usize, report: &mut Report) -> Result<Suite, String> {
    let start = Instant::now();
    let mut rng = Rng::new(seed);
    let target = methods as f64 * CONE_SHARE;
    let band = methods as f64 * CONE_BAND;
    let mut candidates = 0;
    let corpus = std::iter::repeat_with(|| corpus(methods, rng.next()))
        .take(10_000)
        .inspect(|_| candidates += 1)
        .find(|c| (hub_cone(c) as f64 - target).abs() <= band)
        .ok_or("no corpus seed gives a hub cone in the band")?;
    report.extra("corpus.search_s", start.elapsed().as_secs_f64(), "s");
    report.extra("corpus.candidates", candidates as f64, "count");
    let cone = hub_cone(&corpus);
    if corpus.expected_reverified(Edit::TouchHubSpec) != cone {
        return Err("hub cone differs from the generator's ground truth".to_string());
    }
    report.extra("corpus.hub_cone", cone as f64, "count");
    let mut inputs = vec![Input {
        label: "base".to_string(),
        source: corpus.source(None),
        verifies: true,
    }];
    let mut edits = [(0, 0); 3];
    for (slot, edit) in [Edit::TouchLeafBody, Edit::TouchSpecNoop, Edit::TouchHubSpec]
        .into_iter()
        .enumerate()
    {
        edits[slot] = (inputs.len(), corpus.expected_reverified(edit));
        inputs.push(Input {
            label: edit.name().to_string(),
            source: corpus.source(Some(edit)),
            verifies: true,
        });
    }
    let (leaf, leaf_cone) = edits[0];
    let first = |input, cone| Op {
        input,
        verifies: true,
        reverified: Some(cone),
    };
    Ok(Suite {
        inputs,
        host: HostPlan::Warm,
        // The cold pass verifies everything; one leaf edit and its
        // revert then leave the store in its steady state.
        warmup: vec![
            first(0, methods),
            first(leaf, leaf_cone),
            first(0, leaf_cone),
        ],
        budget: None,
        setups: 3,
        order: Order::Watch { seed, edits },
        trace_cycles: 1,
    })
}

/// A fixed op list over a warm host (the daemon's request stream).
pub fn fixed(inputs: Vec<Input>, warmup: Vec<Op>, ops: Vec<Op>, budget: Budget) -> Suite {
    Suite {
        inputs,
        host: HostPlan::Warm,
        warmup,
        budget: Some(budget),
        setups: 1,
        order: Order::Fixed(ops),
        trace_cycles: 1,
    }
}

/// Collects the verifier's own trace events between ops.
#[derive(Default)]
struct VecSink(Mutex<Vec<Event>>);

impl VecSink {
    fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.0.lock().expect("trace sink lock"))
    }
}

impl Sink for VecSink {
    fn write(&self, events: &[Event]) {
        self.0
            .lock()
            .expect("trace sink lock")
            .extend_from_slice(events);
    }
}

enum Host {
    PerOp(VerifierConfig),
    Warm(SessionHost),
}

impl Host {
    /// The warm store's dependency graph as the next op will find it
    /// (an empty graph for storeless hosts: every method is new).
    fn graph(&self) -> DepGraph {
        match self {
            Host::Warm(h) => h.store().map_or_else(DepGraph::new, |s| {
                s.lock().expect("store lock").graph().clone()
            }),
            Host::PerOp(_) => DepGraph::new(),
        }
    }
}

/// Spans of the op being traced.
struct Tracer<'a> {
    spans: &'a mut Spans,
    op: u64,
    parent: u64,
}

fn layer<T>(tr: &mut Option<Tracer<'_>>, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    match tr {
        None => (f(), 0),
        Some(t) => {
            let span = t.spans.open(t.op, t.parent, name, false);
            let id = span.id();
            let value = f();
            t.spans.close(span, &[]);
            (value, id)
        }
    }
}

/// What one op produced.
struct Done {
    program: Program,
    outcome: VerifyOutcome,
    /// The `session` span, parent of the op's replay spans.
    session_span: u64,
}

fn run_op(
    host: &Host,
    source: &str,
    budget: Option<Budget>,
    mut tr: Option<Tracer<'_>>,
) -> Result<Done, String> {
    let root = tr.as_mut().map(|t| {
        let span = t.spans.open(t.op, 0, "op", false);
        t.parent = span.id();
        span
    });
    let (parsed, _) = layer(&mut tr, "parser", || {
        parse_program_with_recovery_capped(source, DEFAULT_MAX_ERRORS)
    });
    let program = parsed.map_err(|errs| format!("parse error: {}", errs[0]))?;
    let (checked, _) = layer(&mut tr, "wf", || check_program(&program));
    checked.map_err(|errs| format!("wf error: {}", errs[0]))?;
    let (outcome, session_span) = match host {
        Host::PerOp(config) => {
            let (h, _) = layer(&mut tr, "store.open", || {
                SessionHost::new(BACKEND, config.clone())
            });
            let verified = layer(&mut tr, "session", || {
                h.session().verify_program_with(&program, budget, None)
            });
            let (flushed, _) = layer(&mut tr, "store.flush", || h.flush_store());
            flushed.map_err(|e| format!("store flush: {}", e))?;
            verified
        }
        Host::Warm(h) => layer(&mut tr, "session", || {
            h.session().verify_program_with(&program, budget, None)
        }),
    };
    if let (Some(t), Some(root)) = (tr, root) {
        let o = &outcome;
        t.spans.close(
            root,
            &[
                ("bytes", source.len() as u64),
                ("methods", o.verdicts.len() as u64),
                (
                    "reverified",
                    o.reverified.unwrap_or(o.verdicts.len()) as u64,
                ),
                ("store_hits", o.store_hits.unwrap_or(0) as u64),
                ("store_misses", o.store_misses.unwrap_or(0) as u64),
                ("solver_queries", o.stats.solver_queries as u64),
            ],
        );
    }
    Ok(Done {
        program,
        outcome,
        session_span,
    })
}

/// Checks one op against its known answer and the counter invariants.
fn judge(input: &Input, op: &Op, outcome: &VerifyOutcome) -> Result<(), String> {
    let label = &input.label;
    if outcome.verdicts.is_empty() {
        return Err(format!("{}: no verdicts", label));
    }
    if op.verifies {
        if let Some((m, v)) = outcome.verdicts.iter().find(|(_, v)| !v.is_verified()) {
            return Err(format!("{}: {} must verify, got {}", label, m, v));
        }
    } else {
        let failed = outcome
            .verdicts
            .values()
            .any(|v| matches!(v, Verdict::Failed { .. }));
        if !failed {
            return Err(format!("{}: must fail, but nothing failed", label));
        }
    }
    check_counters(label, &outcome.stats, outcome.verdicts.len(), outcome)?;
    if let Some(want) = op.reverified {
        if outcome.reverified != Some(want) {
            return Err(format!(
                "{}: re-verified {:?}, ground truth {}",
                label, outcome.reverified, want
            ));
        }
    }
    Ok(())
}

/// The counter invariants: every solver query is a cache hit or a miss
/// (the rule of `BackendRun::check_cache_accounting`), and with a store
/// every method is a store hit, a miss, or dirtied by a callee's spec.
fn check_counters(
    label: &str,
    stats: &VerifyStats,
    methods: usize,
    outcome: &VerifyOutcome,
) -> Result<(), String> {
    if stats.cache_hits + stats.cache_misses != stats.solver_queries {
        return Err(format!(
            "{}: cache hits {} + misses {} != queries {}",
            label, stats.cache_hits, stats.cache_misses, stats.solver_queries
        ));
    }
    if let (Some(h), Some(m), Some(d)) = (
        outcome.store_hits,
        outcome.store_misses,
        outcome.store_dirty_transitive,
    ) {
        if h + m + d != methods {
            return Err(format!(
                "{}: store hits {} + misses {} + dirty {} != methods {}",
                label, h, m, d, methods
            ));
        }
    }
    Ok(())
}

/// Runs one op, catching panics and timeouts; returns its wall time.
fn attempt(
    suite: &Suite,
    host: &Host,
    op: &Op,
    tr: Option<Tracer<'_>>,
) -> Result<(Done, Duration), String> {
    let input = &suite.inputs[op.input];
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_op(host, &input.source, suite.budget, tr)
    }));
    let wall = start.elapsed();
    let done = match result {
        Ok(done) => done?,
        Err(_) => return Err(format!("{}: panicked", input.label)),
    };
    if wall > OP_TIMEOUT {
        return Err(format!("{}: timed out ({:?})", input.label, wall));
    }
    judge(input, op, &done.outcome)?;
    Ok((done, wall))
}

fn config(dir: Option<&Path>, trace: TraceHandle) -> VerifierConfig {
    VerifierConfig {
        cache_dir: dir.map(Path::to_path_buf),
        trace,
        ..VerifierConfig::default()
    }
}

/// Opens the host and runs the warm-up ops; returns the host and the
/// set-up time. With `spans`, host open and flush are recorded as op 0.
fn setup(
    suite: &Suite,
    dir: &Path,
    trace: TraceHandle,
    mut spans: Option<&mut Spans>,
    report: &mut Report,
) -> Result<(Host, Duration), String> {
    let start = Instant::now();
    let host = match suite.host {
        HostPlan::PerOp => Host::PerOp(config(None, trace)),
        HostPlan::Warm => {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {}", dir.display(), e))?;
            let span = spans.as_mut().map(|s| s.open(0, 0, "store.open", false));
            let host = SessionHost::new(BACKEND, config(Some(dir), trace));
            if let (Some(s), Some(span)) = (spans.as_mut(), span) {
                s.close(span, &[]);
            }
            Host::Warm(host)
        }
    };
    for op in &suite.warmup {
        report.attempted += 1;
        if let Err(why) = attempt(suite, &host, op, None) {
            report.fail(format!("warm-up: {}", why));
        }
    }
    if let Host::Warm(h) = &host {
        let span = spans.as_mut().map(|s| s.open(0, 0, "store.flush", false));
        h.flush_store().map_err(|e| format!("store flush: {}", e))?;
        if let (Some(s), Some(span)) = (spans, span) {
            s.close(span, &[]);
        }
    }
    Ok((host, start.elapsed()))
}

/// The untraced run is cut into segments of whole cycles, each at
/// least this long.
const SEGMENT_S: f64 = 0.25;
/// The end-to-end figures come from the fastest tenth of the segments:
/// the 10th percentile over segments of each segment's p50 and p90, and
/// the 90th of its rate. On a shared machine, outside load comes in
/// episodes of one to ten seconds that slow every op by up to 1.5×; the
/// fastest tenth is the part of the run those episodes missed.
const CALM_SHARE: f64 = 0.1;

/// The untraced run: set up `suite.setups` times (the last host is
/// kept), then run segments of whole cycles until `seconds` have
/// passed.
pub fn measure(
    suite: &Suite,
    dir: &Path,
    seconds: f64,
    wrong_answer: bool,
    report: &mut Report,
) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut host = None;
    for _ in 0..suite.setups {
        drop(host.take());
        let (h, took) = setup(suite, dir, TraceHandle::disabled(), None, report)?;
        setup_s.push(took.as_secs_f64());
        host = Some(h);
    }
    let host = host.ok_or("no set-up ran")?;
    let mut lat = Samples::default();
    let (mut p50, mut p90, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut samples, mut fewest) = (0, usize::MAX);
    let start = Instant::now();
    let mut k = 1;
    while start.elapsed().as_secs_f64() < seconds {
        lat.clear();
        let segment = Instant::now();
        let mut ops = 0;
        while segment.elapsed().as_secs_f64() < SEGMENT_S {
            for mut op in suite.cycle(k) {
                if wrong_answer && k == 1 && ops == 0 {
                    op = flipped(op);
                }
                report.attempted += 1;
                ops += 1;
                match attempt(suite, &host, &op, None) {
                    Ok((_, wall)) => lat.record(wall),
                    Err(why) => report.fail(why),
                }
            }
            k += 1;
        }
        rate.push(ops as f64 / segment.elapsed().as_secs_f64());
        p50.push(lat.quantile_ms(0.5));
        p90.push(lat.quantile_ms(0.9));
        samples += lat.len();
        fewest = fewest.min(lat.len());
    }
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("op_p50_ms", quantile(&p50, CALM_SHARE), "ms");
    report.metric("op_p90_ms", quantile(&p90, CALM_SHARE), "ms");
    report.metric("ops_per_s", quantile(&rate, 1.0 - CALM_SHARE), "1/s");
    report.extra("op_p50_ms.segment_median", median(&p50), "ms");
    report.extra("op_p90_ms.segment_median", median(&p90), "ms");
    report.extra("op_samples", samples as f64, "count");
    report.extra("op_samples.fewest_in_segment", fewest as f64, "count");
    report.extra("segments", p50.len() as f64, "count");
    report.extra("cycles", (k - 1) as f64, "count");
    report.extra("measured_s", start.elapsed().as_secs_f64(), "s");
    peak_rss(report, vmhwm_kb());
    Ok(())
}

pub fn peak_rss(report: &mut Report, kb: Option<u64>) {
    match kb {
        Some(kb) => report.metric("peak_rss_mb", kb as f64 / 1024.0, "MiB"),
        None => report.fail("peak RSS unavailable (no /proc/self/status)".to_string()),
    }
}

/// The op with a deliberately wrong known answer (`--wrong-answer`).
pub fn flipped(op: Op) -> Op {
    Op {
        verifies: !op.verifies,
        ..op
    }
}

/// Per-op sums of the traced run.
#[derive(Default)]
struct Tally {
    ops: u64,
    op_nanos: u64,
    bytes: u64,
    stats: VerifyStats,
    reverified: u64,
    fingerprint_calls: u64,
    cone: u64,
    store: [u64; 3],
    pre_us: f64,
    body_us: f64,
    post_us: f64,
    /// Replay time of the layers that ran inside `verify_program`.
    on_path_replay_nanos: u64,
}

/// The traced run: the fixed op sequence once untraced (for the
/// overhead ratio), then once traced, each op followed by replays that
/// time the layers inside `verify_program`. Writes the spans to
/// `trace_out` and adds every per-layer metric to `report`.
pub fn traced(
    suite: &Suite,
    dir: &Path,
    trace_out: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let seq = suite.traced_sequence();
    let (host, _) = setup(suite, dir, TraceHandle::disabled(), None, report)?;
    let mut untraced_nanos = 0u64;
    for op in &seq {
        report.attempted += 1;
        match attempt(suite, &host, op, None) {
            Ok((_, wall)) => untraced_nanos += wall.as_nanos() as u64,
            Err(why) => report.fail(why),
        }
    }
    drop(host);

    let sink = Arc::new(VecSink::default());
    let handle = TraceHandle::new(sink.clone(), ClockKind::Monotonic);
    let mut spans = Spans::new();
    let (host, _) = setup(suite, dir, handle, Some(&mut spans), report)?;
    sink.take();
    let store_present = matches!(suite.host, HostPlan::Warm);
    let mut t = Tally::default();
    for (i, op) in seq.iter().enumerate() {
        report.attempted += 1;
        let prev = host.graph();
        let tracer = Tracer {
            spans: &mut spans,
            op: i as u64 + 1,
            parent: 0,
        };
        let done = match attempt(suite, &host, op, Some(tracer)) {
            Ok((done, wall)) => {
                t.op_nanos += wall.as_nanos() as u64;
                done
            }
            Err(why) => {
                report.fail(why);
                sink.take();
                continue;
            }
        };
        let profile = profile_events(&sink.take());
        t.pre_us += profile.method_phase_micros("pre");
        t.body_us += profile.method_phase_micros("body");
        t.post_us += profile.method_phase_micros("post");
        let o = &done.outcome;
        t.ops += 1;
        t.bytes += suite.inputs[op.input].source.len() as u64;
        t.stats.merge(&o.stats);
        t.store[0] += o.store_hits.unwrap_or(0) as u64;
        t.store[1] += o.store_misses.unwrap_or(0) as u64;
        t.store[2] += o.store_dirty_transitive.unwrap_or(0) as u64;
        if let Err(why) = replay(
            &mut spans,
            i as u64 + 1,
            &done,
            &prev,
            suite.budget,
            store_present,
            &mut t,
        ) {
            report.fail(why);
        }
    }
    let (dead, bytes) = match &host {
        Host::Warm(h) => {
            let dead = h
                .store()
                .map_or(0, |s| s.lock().expect("store lock").dead_records());
            (dead as f64, dir_bytes(dir) as f64)
        }
        Host::PerOp(_) => (0.0, 0.0),
    };
    drop(host);
    spans.write(trace_out)?;

    let table = spans.self_nanos();
    let total = |name: &str| table.get(name).map_or(0, |&(nanos, _)| nanos);
    let per_call_ms = |name: &str| {
        table.get(name).map_or(0.0, |&(nanos, calls)| {
            ratio(nanos as f64, calls as f64) / 1e6
        })
    };
    let ops = t.ops.max(1) as f64;
    let per_op = |v: f64| v / ops;
    let per_op_ms = |name: &str| per_op(total(name) as f64) / 1e6;
    let s = &t.stats;
    let open_flush_in_op = if store_present {
        0
    } else {
        total("store.open") + total("store.flush")
    };
    let attributed = total("parser") + total("wf") + open_flush_in_op + t.on_path_replay_nanos;
    report.metric("parser.ms", per_op_ms("parser"), "ms");
    report.metric("parser.bytes", per_op(t.bytes as f64), "bytes");
    report.metric("wf.ms", per_op_ms("wf"), "ms");
    report.metric("fingerprint.ms", per_op_ms("fingerprint"), "ms");
    report.metric(
        "fingerprint.calls",
        per_op(t.fingerprint_calls as f64),
        "count",
    );
    report.metric("depgraph.ms", per_op_ms("depgraph"), "ms");
    report.metric("depgraph.cone", per_op(t.cone as f64), "count");
    report.metric("store.open_ms", per_call_ms("store.open"), "ms");
    report.metric("store.flush_ms", per_call_ms("store.flush"), "ms");
    report.metric("store.hits", per_op(t.store[0] as f64), "count");
    report.metric("store.misses", per_op(t.store[1] as f64), "count");
    report.metric("store.dirty_transitive", per_op(t.store[2] as f64), "count");
    let looked_up = (t.store[0] + t.store[1] + t.store[2]) as f64;
    report.metric(
        "store.hit_ratio",
        ratio(t.store[0] as f64, looked_up),
        "ratio",
    );
    report.metric("store.dead_records", dead, "count");
    report.metric("store.bytes_on_disk", bytes, "bytes");
    report.metric("exec.ms", per_op_ms("exec"), "ms");
    report.metric("exec.methods", per_op(t.reverified as f64), "count");
    report.metric("exec.obligations", per_op(s.obligations as f64), "count");
    report.metric("exec.states", per_op(s.states as f64), "count");
    report.metric(
        "exec.interned_terms",
        per_op(s.interned_terms as f64),
        "count",
    );
    report.metric("exec.pre_ms", per_op(t.pre_us) / 1e3, "ms");
    report.metric("exec.body_ms", per_op(t.body_us) / 1e3, "ms");
    report.metric("exec.post_ms", per_op(t.post_us) / 1e3, "ms");
    report.metric("smt.queries", per_op(s.solver_queries as f64), "count");
    let asked = (s.cache_hits + s.cache_misses) as f64;
    report.metric(
        "smt.cache_hit_ratio",
        ratio(s.cache_hits as f64, asked),
        "ratio",
    );
    report.metric("smt.decisions", per_op(s.solver_branches as f64), "count");
    report.metric("smt.conflicts", per_op(s.solver_conflicts as f64), "count");
    report.metric(
        "smt.propagations",
        per_op(s.solver_propagations as f64),
        "count",
    );
    report.metric("smt.theory_props", per_op(s.theory_props as f64), "count");
    report.metric("smt.learned", per_op(s.learned_clauses as f64), "count");
    let residual = total("session") as f64 - t.on_path_replay_nanos as f64;
    report.metric("session.residual_ms", per_op(residual) / 1e6, "ms");
    report.metric(
        "session.coverage",
        ratio(attributed as f64, t.op_nanos as f64),
        "ratio",
    );
    report.metric(
        "trace.overhead",
        ratio(t.op_nanos as f64, untraced_nanos as f64),
        "ratio",
    );
    report.extra("trace.ops", t.ops as f64, "count");
    Ok(())
}

/// Times, outside the op, the layers `verify_program` runs internally,
/// by calling the same public functions on the same inputs:
/// fingerprinting, dependency-graph planning, and one isolated verifier
/// per re-verified method. Each replayed verdict must equal the op's.
fn replay(
    spans: &mut Spans,
    op: u64,
    done: &Done,
    prev: &DepGraph,
    budget: Option<Budget>,
    store_present: bool,
    t: &mut Tally,
) -> Result<(), String> {
    let program = &done.program;
    let outcome = &done.outcome;
    let parent = done.session_span;
    let cfg = VerifierConfig {
        threads: 1,
        budget: budget.unwrap_or(VerifierConfig::default().budget),
        ..VerifierConfig::default()
    };
    let bodies: Vec<_> = program
        .methods
        .iter()
        .filter(|m| m.body.is_some())
        .collect();

    let span = spans.open(op, parent, "fingerprint", true);
    let cfg_fp = config_fingerprint(BACKEND, &cfg);
    let fps: Vec<_> = bodies
        .iter()
        .map(|m| method_fingerprint(program, m, BACKEND, &cfg))
        .collect();
    std::hint::black_box((cfg_fp, &fps));
    let fp_nanos = spans.close(span, &[("calls", fps.len() as u64)]);
    t.fingerprint_calls += fps.len() as u64;

    let span = spans.open(op, parent, "depgraph", true);
    let cur = DepGraph::of_program(program);
    let roots = DepGraph::spec_dirty_roots(prev, &cur);
    let cone = if roots.is_empty() {
        0
    } else {
        cur.reverse_reachable(&roots).len()
    };
    let dg_nanos = spans.close(span, &[("cone", cone as u64)]);
    t.cone += cone as u64;

    let names: Vec<String> = match &outcome.reverified_methods {
        Some(names) => names.clone(),
        None => outcome.verdicts.keys().cloned().collect(),
    };
    let span = spans.open(op, parent, "exec", true);
    let verdicts: Vec<Verdict> = names
        .iter()
        .map(|name| {
            Verifier::with_config(program, BACKEND, cfg.clone()).verify_method_verdict(name)
        })
        .collect();
    let exec_nanos = spans.close(span, &[("methods", names.len() as u64)]);
    let mismatch = names.iter().zip(&verdicts).find(|(name, verdict)| {
        outcome.verdicts.get(*name).map(Verdict::normalized) != Some(verdict.normalized())
    });
    t.reverified += names.len() as u64;
    t.on_path_replay_nanos += exec_nanos
        + if store_present {
            fp_nanos + dg_nanos
        } else {
            0
        };
    match mismatch {
        Some((name, _)) => Err(format!(
            "replayed verdict of {} differs from the op's",
            name
        )),
        None => Ok(()),
    }
}

/// Bytes of the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_cone_matches_the_generator() {
        for seed in 0..20 {
            let c = corpus(300, seed);
            assert_eq!(
                hub_cone(&c),
                c.expected_reverified(Edit::TouchHubSpec),
                "seed {}",
                seed
            );
        }
    }

    /// `CONE_SHARE` is the median hub-cone share of 1000 full-size
    /// corpora (seeds 0..1000), to within `CONE_BAND`.
    #[test]
    fn hub_cone_share_is_the_measured_median() {
        let methods = 4000;
        let shares: Vec<f64> = (0..1000)
            .map(|seed| hub_cone(&corpus(methods, seed)) as f64 / methods as f64)
            .collect();
        println!(
            "hub cone share: min {:.3} q1 {:.3} median {:.3} q3 {:.3} max {:.3}",
            quantile(&shares, 0.0),
            quantile(&shares, 0.25),
            median(&shares),
            quantile(&shares, 0.75),
            quantile(&shares, 1.0)
        );
        assert!((median(&shares) - CONE_SHARE).abs() <= CONE_BAND);
    }
}
