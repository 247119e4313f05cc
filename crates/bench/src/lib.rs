//! Shared helpers for the Daenerys evaluation harness.
//!
//! The binary `tables` regenerates every table and figure of
//! `EXPERIMENTS.md`; the Criterion benches measure the timing studies.

#![warn(missing_docs)]

pub mod corpus;

use daenerys_idf::{
    parse_program, parse_program_traced, Backend, SessionHost, Verdict, VerifierConfig, VerifyStats,
};
use daenerys_obs::{Event, EventKind, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Aggregated per-backend measurement for one program.
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// Wall-clock verification time.
    pub time: Duration,
    /// Per-method statistics (verified methods only).
    pub stats: BTreeMap<String, VerifyStats>,
    /// Per-method verdicts, including methods degraded to `Unknown`
    /// under a finite budget.
    pub verdicts: BTreeMap<String, Verdict>,
    /// How many methods were actually re-verified (`Some` only for
    /// incremental runs, i.e. when the config has a `cache_dir`; the
    /// rest were restored from the persistent verdict store).
    pub reverified: Option<usize>,
}

impl BackendRun {
    /// Sums a statistic across verified methods.
    pub fn total(&self, f: impl Fn(&VerifyStats) -> usize) -> usize {
        self.stats.values().map(f).sum()
    }

    /// Methods whose verdict degraded to `Unknown` (budget or
    /// fragment).
    pub fn unknown_methods(&self) -> usize {
        self.verdicts
            .values()
            .filter(|v| matches!(v, Verdict::Unknown { .. }))
            .count()
    }

    /// Hard counter invariant: every solver query is answered either
    /// by the memo table or by a fresh decision, in *every* mode —
    /// single- or multi-threaded, incremental. A violation means a
    /// counting path regressed, so the harness refuses to emit numbers
    /// built on it.
    ///
    /// # Panics
    ///
    /// Panics when `cache_hits + cache_misses != solver_queries`.
    pub fn check_cache_accounting(&self) {
        let (hits, misses) = (self.total(|s| s.cache_hits), self.total(|s| s.cache_misses));
        let queries = self.total(|s| s.solver_queries);
        assert_eq!(
            hits + misses,
            queries,
            "cache accounting invariant broken: hits({}) + misses({}) != queries({})",
            hits,
            misses,
            queries
        );
    }

    /// Budget-exhaustion events across the run: methods that ended
    /// `Unknown` on an exhausted budget, plus exhausted first attempts
    /// absorbed by the retry-with-escalated-budget policy.
    pub fn budget_exhausted(&self) -> usize {
        let unknown: usize = self
            .verdicts
            .values()
            .filter(|v| v.is_budget_exhausted())
            .count();
        unknown + self.total(|s| s.budget_exhausted)
    }
}

/// Verifies a program on one backend, timing it.
///
/// # Panics
///
/// Panics when the program does not parse or does not verify — the
/// harness only measures verifying programs.
pub fn run_backend(src: &str, backend: Backend) -> BackendRun {
    run_backend_with(src, backend, VerifierConfig::default())
}

/// As [`run_backend`], with an explicit pipeline configuration
/// (caching on/off, worker-thread count, budget).
///
/// # Panics
///
/// Panics when the program does not parse, or when any method fails or
/// crashes. Methods degraded to `Unknown` under a finite budget are
/// tolerated and reported through [`BackendRun::verdicts`].
pub fn run_backend_with(src: &str, backend: Backend, config: VerifierConfig) -> BackendRun {
    let program = if config.trace.is_enabled() {
        let mut collector = config.trace.collector();
        let program = parse_program_traced(src, &mut collector).expect("harness program parses");
        let (events, metrics) = collector.take();
        config.trace.emit(events);
        config.trace.merge_metrics(&metrics);
        program
    } else {
        parse_program(src).expect("harness program parses")
    };
    // The harness is a Session client like every other front end (the
    // CLI, the daemon): the host owns the warm store when the config
    // has a `cache_dir`, and the timed region covers store open +
    // verification.
    let start = Instant::now();
    let host = SessionHost::new(backend, config);
    let outcome = host.session().verify_program(&program);
    let time = start.elapsed();
    let verdicts = outcome.verdicts;
    let reverified = outcome.reverified;
    let mut stats = BTreeMap::new();
    for (name, verdict) in &verdicts {
        match verdict {
            Verdict::Verified(s) => {
                stats.insert(name.clone(), s.clone());
            }
            Verdict::Unknown { .. } => {}
            other => panic!("harness program must verify: {} is {}", name, other),
        }
    }
    let run = BackendRun {
        time,
        stats,
        verdicts,
        reverified,
    };
    run.check_cache_accounting();
    run
}

/// Formats a duration in microseconds for table cells.
pub fn micros(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Runs the verifier `repeat` times after one untimed warmup run and
/// returns the measurement with the median wall time. Single-shot
/// timings on a shared machine are dominated by scheduler noise; the
/// warmup pays the one-time allocator and page-cache costs and the
/// median discards outliers without the bias of a mean.
///
/// When the config's trace is enabled the program is verified exactly
/// once with no warmup — repetition would duplicate every span in the
/// sink, and traced runs measure structure, not time.
///
/// # Panics
///
/// As [`run_backend_with`].
pub fn measure_median(
    src: &str,
    backend: Backend,
    config: &VerifierConfig,
    repeat: usize,
) -> BackendRun {
    if config.trace.is_enabled() {
        return run_backend_with(src, backend, config.clone());
    }
    let repeat = repeat.max(1);
    let _warmup = run_backend_with(src, backend, config.clone());
    let mut runs: Vec<BackendRun> = (0..repeat)
        .map(|_| run_backend_with(src, backend, config.clone()))
        .collect();
    runs.sort_by_key(|r| r.time);
    runs.swap_remove(repeat / 2)
}

/// How many hot queries a [`ProfileReport`] keeps.
pub const HOT_PROFILE_LIMIT: usize = 10;

/// Per-method cost attribution reconstructed from a trace.
#[derive(Clone, Debug, Default)]
pub struct MethodProfile {
    /// Duration of the method's `exec:<name>` span, in nanoseconds.
    pub total_nanos: u64,
    /// Nanoseconds per inner phase span (`pre`, `body`, `post`,
    /// `branch:*`, `loop:*`), summed over repeated entries.
    pub phase_nanos: BTreeMap<String, u64>,
    /// Solver queries issued while verifying the method.
    pub queries: u64,
    /// Total solver fuel burned by those queries
    /// (conflicts + propagations).
    pub fuel: u64,
    /// Queries answered from the memo table.
    pub cache_hits: u64,
    /// Conflict clauses learned while answering those queries.
    pub learned: u64,
}

/// One expensive solver query surfaced by the profile.
#[derive(Clone, Debug)]
pub struct HotQuery {
    /// The method being verified when the query was issued.
    pub method: String,
    /// The call site label (`postcondition: ...`, `branch feasibility`, …).
    pub site: String,
    /// Solver fuel the query cost (conflicts + propagations).
    pub fuel: u64,
    /// Whether the memo table answered it.
    pub cache_hit: bool,
    /// Normalized path-condition hash — equal hashes across methods
    /// flag repeated work the cache should be absorbing.
    pub pc_hash: u64,
}

/// Phase-attributed cost report aggregated from a merged trace.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Front-end pipeline phases (`parse`, `wf`) in nanoseconds.
    pub pipeline_nanos: BTreeMap<String, u64>,
    /// Per-method attribution, keyed by method name.
    pub methods: BTreeMap<String, MethodProfile>,
    /// The most expensive solver queries of the run, by fuel, capped
    /// at [`HOT_PROFILE_LIMIT`].
    pub hottest: Vec<HotQuery>,
}

impl ProfileReport {
    /// A pipeline phase duration in microseconds (0 when absent).
    pub fn pipeline_micros(&self, phase: &str) -> f64 {
        self.pipeline_nanos.get(phase).copied().unwrap_or(0) as f64 / 1e3
    }

    /// Summed `exec:<method>` time across methods, in microseconds.
    pub fn exec_micros(&self) -> f64 {
        self.methods.values().map(|m| m.total_nanos).sum::<u64>() as f64 / 1e3
    }

    /// Summed inner-phase time across methods, in microseconds
    /// (0 when no method entered the phase).
    pub fn method_phase_micros(&self, phase: &str) -> f64 {
        self.methods
            .values()
            .map(|m| m.phase_nanos.get(phase).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / 1e3
    }

    /// Total solver fuel across methods.
    pub fn total_fuel(&self) -> u64 {
        self.methods.values().map(|m| m.fuel).sum()
    }
}

/// Reconstructs a [`ProfileReport`] from a merged event stream.
///
/// The stream is expected in program order as produced by
/// [`daenerys_obs::TraceHandle`]: per-method events are contiguous,
/// bracketed by `exec:<name>` spans, with front-end spans (`parse`,
/// `wf`) outside any method. Events the profiler does not recognize
/// are skipped, so a report can always be built from a valid trace.
pub fn profile_events(events: &[Event]) -> ProfileReport {
    let mut report = ProfileReport::default();
    let mut current: Option<String> = None;
    for e in events {
        match e.kind {
            EventKind::SpanStart => {
                if let Some(m) = e.name.strip_prefix("exec:") {
                    current = Some(m.to_string());
                }
            }
            EventKind::SpanEnd => {
                let nanos = e.field_u64("duration_nanos").unwrap_or(0);
                if let Some(m) = e.name.strip_prefix("exec:") {
                    report.methods.entry(m.to_string()).or_default().total_nanos += nanos;
                    current = None;
                } else if let Some(m) = &current {
                    *report
                        .methods
                        .entry(m.clone())
                        .or_default()
                        .phase_nanos
                        .entry(e.name.clone())
                        .or_insert(0) += nanos;
                } else {
                    *report.pipeline_nanos.entry(e.name.clone()).or_insert(0) += nanos;
                }
            }
            EventKind::Point if e.name == "solver.query" => {
                let method = current.clone().unwrap_or_default();
                let fuel = e.field_u64("fuel").unwrap_or(0);
                let cache_hit = matches!(e.field("cache_hit"), Some(Value::Bool(true)));
                let profile = report.methods.entry(method.clone()).or_default();
                profile.queries += 1;
                profile.fuel += fuel;
                profile.learned += e.field_u64("learned").unwrap_or(0);
                if cache_hit {
                    profile.cache_hits += 1;
                }
                report.hottest.push(HotQuery {
                    method,
                    site: match e.field("site") {
                        Some(Value::Str(s)) => s.clone(),
                        _ => String::new(),
                    },
                    fuel,
                    cache_hit,
                    pc_hash: e.field_u64("pc_hash").unwrap_or(0),
                });
            }
            _ => {}
        }
    }
    // Stable sort: equal-fuel queries keep program order.
    report.hottest.sort_by_key(|q| std::cmp::Reverse(q.fuel));
    report.hottest.truncate(HOT_PROFILE_LIMIT);
    report
}

/// Renders a [`ProfileReport`] as an aligned text block for `--profile`.
pub fn render_profile(report: &ProfileReport) -> String {
    let mut out = String::new();
    out.push_str("phase attribution (µs)\n");
    for (name, nanos) in &report.pipeline_nanos {
        out.push_str(&format!("  {:<26} {:>10.1}\n", name, *nanos as f64 / 1e3));
    }
    for (name, m) in &report.methods {
        out.push_str(&format!(
            "  exec:{:<21} {:>10.1}   q={} fuel={} hits={} learned={}\n",
            name,
            m.total_nanos as f64 / 1e3,
            m.queries,
            m.fuel,
            m.cache_hits,
            m.learned
        ));
        for (phase, nanos) in &m.phase_nanos {
            out.push_str(&format!(
                "    {:<24} {:>10.1}\n",
                phase,
                *nanos as f64 / 1e3
            ));
        }
    }
    if !report.hottest.is_empty() {
        out.push_str("hottest solver queries (by solver fuel)\n");
        for q in &report.hottest {
            out.push_str(&format!(
                "  fuel {:>6}  {:<16} {}  pc#{:016x}{}\n",
                q.fuel,
                q.method,
                q.site,
                q.pc_hash,
                if q.cache_hit { "  [cache hit]" } else { "" }
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use daenerys_idf::Budget;

    #[test]
    fn run_backend_measures_something() {
        let src = "field v: Int
                   method id(c: Ref) requires acc(c.v) ensures acc(c.v) { }";
        let run = run_backend(src, Backend::Destabilized);
        assert_eq!(run.stats.len(), 1);
        assert!(run.total(|s| s.obligations) >= 1);
        assert_eq!(run.unknown_methods(), 0);
        assert_eq!(run.budget_exhausted(), 0);
    }

    #[test]
    fn budgeted_runs_report_unknowns_instead_of_panicking() {
        let src = daenerys_idf::diverging_program(10);
        let config = VerifierConfig {
            budget: Budget::unlimited().with_solver_fuel(64),
            retry_unknown: false,
            ..VerifierConfig::default()
        };
        let run = run_backend_with(&src, Backend::Destabilized, config);
        assert_eq!(run.unknown_methods(), 1);
        assert_eq!(run.budget_exhausted(), 1);
        assert_eq!(run.stats.len(), 2, "siblings still measured");
    }

    #[test]
    fn measure_median_returns_one_of_the_runs() {
        let src = "field v: Int
                   method id(c: Ref) requires acc(c.v) ensures acc(c.v) { }";
        let run = measure_median(src, Backend::Destabilized, &VerifierConfig::default(), 5);
        assert_eq!(run.stats.len(), 1);
        assert!(run.time > Duration::ZERO);
    }

    #[test]
    fn traced_runs_profile_into_phases_and_hot_queries() {
        use daenerys_obs::{ClockKind, MemorySink, TraceHandle};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new(4096));
        let config = VerifierConfig {
            trace: TraceHandle::new(sink.clone(), ClockKind::Logical),
            ..VerifierConfig::default()
        };
        let src = "field v: Int
                   method set(c: Ref) requires acc(c.v) ensures acc(c.v) && c.v == 7
                   { c.v := 7 }";
        let run = run_backend_with(src, Backend::Destabilized, config);
        assert_eq!(run.stats.len(), 1);

        let events = sink.events();
        let report = profile_events(&events);
        assert!(
            report.pipeline_nanos.contains_key("parse"),
            "front-end parse span is attributed to the pipeline"
        );
        let m = report.methods.get("set").expect("method profiled");
        assert!(m.queries > 0, "solver queries attributed to the method");
        assert!(m.phase_nanos.contains_key("post"), "exhale phase present");
        assert!(!report.hottest.is_empty());
        assert!(report.hottest.len() <= HOT_PROFILE_LIMIT);
        let rendered = render_profile(&report);
        assert!(rendered.contains("exec:set"));
        assert!(rendered.contains("hottest solver queries"));
    }
}
