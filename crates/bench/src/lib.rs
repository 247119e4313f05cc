//! Shared helpers for the Daenerys evaluation harness.
//!
//! The binary `tables` regenerates every table and figure of
//! `EXPERIMENTS.md`, timings included.

#![warn(missing_docs)]

pub mod corpus;

use daenerys_idf::{parse_program, Backend, SessionHost, Verdict, VerifierConfig, VerifyStats};
use daenerys_obs::{Event, EventKind};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Aggregated per-backend measurement for one program.
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// Wall-clock verification time.
    pub time: Duration,
    /// Per-method statistics; every method verified.
    pub stats: BTreeMap<String, VerifyStats>,
}

impl BackendRun {
    /// Sums a statistic across verified methods.
    pub fn total(&self, f: impl Fn(&VerifyStats) -> usize) -> usize {
        self.stats.values().map(f).sum()
    }

    /// Hard counter invariant: every solver query is answered either
    /// by the memo table or by a fresh decision, at any thread count.
    /// A violation means a counting path regressed, so the harness
    /// refuses to emit numbers built on it.
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
}

/// Verifies a program on one backend under `config`, timing it.
///
/// # Panics
///
/// Panics when the program does not parse, or when any method does not
/// verify (fails, crashes, or ends `Unknown`).
pub fn run_backend_with(src: &str, backend: Backend, config: VerifierConfig) -> BackendRun {
    let program = if config.trace.is_enabled() {
        let mut collector = config.trace.collector();
        let span = collector.span_start("parse");
        let program = parse_program(src);
        collector.span_end(span);
        config.trace.emit(collector.take());
        program
    } else {
        parse_program(src)
    }
    .expect("harness program parses");
    // The harness is a Session client like every other front end (the
    // CLI, the daemon); the timed region covers host set-up +
    // verification.
    let start = Instant::now();
    let host = SessionHost::new(backend, config);
    let outcome = host.session().verify_program(&program);
    let time = start.elapsed();
    let stats = outcome
        .verdicts
        .into_iter()
        .map(|(name, verdict)| match verdict {
            Verdict::Verified(s) => (name, s),
            other => panic!("harness program must verify: {} is {}", name, other),
        })
        .collect();
    let run = BackendRun { time, stats };
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

/// Per-method phase time reconstructed from a trace.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Nanoseconds per method, then per inner phase span (`pre`,
    /// `body`, `post`, `branch:*`, `loop:*`), summed over repeated
    /// entries.
    pub methods: BTreeMap<String, BTreeMap<String, u64>>,
}

impl ProfileReport {
    /// Summed inner-phase time across methods, in microseconds
    /// (0 when no method entered the phase).
    pub fn method_phase_micros(&self, phase: &str) -> f64 {
        self.methods
            .values()
            .map(|phases| phases.get(phase).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / 1e3
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
    let mut current: Option<&str> = None;
    for e in events {
        match (e.kind, e.name.strip_prefix("exec:")) {
            (EventKind::SpanStart, Some(method)) => current = Some(method),
            (EventKind::SpanEnd, Some(_)) => current = None,
            (EventKind::SpanEnd, None) => {
                if let Some(method) = current {
                    let nanos = e.field_u64("duration_nanos").unwrap_or(0);
                    *report
                        .methods
                        .entry(method.to_string())
                        .or_default()
                        .entry(e.name.clone())
                        .or_insert(0) += nanos;
                }
            }
            _ => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use daenerys_obs::Value;

    #[test]
    fn run_backend_measures_something() {
        let src = "field v: Int
                   method id(c: Ref) requires acc(c.v) ensures acc(c.v) { }";
        let run = run_backend_with(src, Backend::Destabilized, VerifierConfig::default());
        assert_eq!(run.stats.len(), 1);
        assert!(run.total(|s| s.obligations) >= 1);
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
    fn traced_runs_profile_into_method_phases() {
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

        let report = profile_events(&sink.events());
        assert_eq!(
            report.methods.keys().collect::<Vec<_>>(),
            ["set"],
            "front-end spans stay out of the method table"
        );
        let phases = &report.methods["set"];
        for phase in ["pre", "body", "post"] {
            assert!(phases.contains_key(phase), "{} phase present", phase);
        }
        assert!(report.method_phase_micros("post") > 0.0);
    }

    fn span_end(name: &str, nanos: u64) -> Event {
        Event {
            seq: 0,
            ts: 0,
            kind: EventKind::SpanEnd,
            name: name.to_string(),
            fields: vec![("duration_nanos".to_string(), Value::UInt(nanos))],
        }
    }

    fn span_start(name: &str) -> Event {
        Event {
            kind: EventKind::SpanStart,
            fields: Vec::new(),
            ..span_end(name, 0)
        }
    }

    #[test]
    fn profile_sums_repeated_phases_and_skips_spans_outside_methods() {
        let events = [
            span_start("parse"),
            span_end("parse", 900),
            span_start("exec:a"),
            span_end("branch:then", 10),
            span_end("branch:then", 15),
            span_end("post", 2_000),
            span_end("exec:a", 5_000),
            span_end("wf", 700),
            span_start("exec:b"),
            span_end("post", 500),
            span_end("exec:b", 800),
        ];
        let report = profile_events(&events);
        assert_eq!(report.methods.keys().collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(report.methods["a"]["branch:then"], 25);
        assert!(!report.methods["a"].contains_key("exec:a"));
        assert_eq!(report.method_phase_micros("post"), 2.5);
        assert_eq!(report.method_phase_micros("loop:0"), 0.0);
    }

    #[test]
    fn micros_prints_one_decimal() {
        assert_eq!(micros(Duration::from_nanos(1_250)), "1.2");
        assert_eq!(micros(Duration::from_millis(3)), "3000.0");
        assert_eq!(micros(Duration::ZERO), "0.0");
    }

    fn run_with(stats: &[(usize, usize, usize)]) -> BackendRun {
        let stats = stats
            .iter()
            .enumerate()
            .map(|(i, &(hits, misses, queries))| {
                let s = VerifyStats {
                    cache_hits: hits,
                    cache_misses: misses,
                    solver_queries: queries,
                    ..VerifyStats::default()
                };
                (format!("m{}", i), s)
            })
            .collect();
        BackendRun {
            time: Duration::ZERO,
            stats,
        }
    }

    #[test]
    fn totals_sum_over_methods_and_balanced_accounts_pass() {
        let run = run_with(&[(2, 3, 5), (0, 4, 4)]);
        assert_eq!(run.total(|s| s.cache_hits), 2);
        assert_eq!(run.total(|s| s.solver_queries), 9);
        run.check_cache_accounting();
    }

    #[test]
    #[should_panic(expected = "hits(1) + misses(1) != queries(3)")]
    fn unbalanced_cache_accounts_are_refused() {
        run_with(&[(1, 1, 3)]).check_cache_accounting();
    }
}
