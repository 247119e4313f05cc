//! The symbolic-execution verifier, with two backends.
//!
//! * [`Backend::Destabilized`] — the Daenerys way: heap-dependent
//!   expressions in specifications are evaluated *directly* against the
//!   symbolic heap; a field read costs one chunk lookup.
//! * [`Backend::StableBaseline`] — the classical stable-Iris encoding:
//!   specifications cannot mention the heap, so every field read in a
//!   spec is routed through an explicitly minted *witness* symbol, the
//!   witness bindings must be re-derived at every spec boundary, and
//!   every heap write triggers an invalidation scan over the live
//!   witnesses. The extra obligations, solver queries, and symbols are
//!   the measurable price of stability (experiments T1 and F1).
//!
//! The execution itself is standard Viper-style forward symbolic
//! execution: a symbolic store, a path condition, and a heap of
//! permission chunks; `inhale`/`exhale` produce and consume assertions;
//! loops are cut by invariants; calls by contracts.
//!
//! Performance architecture (see DESIGN.md): symbolic values are
//! hash-consed [`TermId`]s into a per-verifier [`TermArena`]; chunk
//! stores are `Rc`-shared so exhale/`old` snapshots are O(1); and a
//! [`crate::session::Session`] pass fans methods out across OS threads,
//! each method verified by its own [`Verifier`] (arena + solver) so
//! results and statistics are bit-identical at any thread count.

use crate::ast::{fraction_literal, Assertion, Expr, Op, Program, Stmt, Type};
use crate::budget::{Budget, BudgetAxis, FaultKind, FaultPlan};
use crate::depgraph::DepGraph;
use crate::diag::{self, FailureReport, QueryCost, QueryLog};
use crate::fingerprint::Fingerprint;
use crate::smt::{Answer, Solver};
use crate::stability::{self, StabilityClass};
use crate::store::{lock, VerdictStore};
use crate::sym::{Sort, Sym, SymSupply, Term, TermArena, TermId, Witness, MAX_TERM_DEPTH};
use daenerys_algebra::Q;
use daenerys_obs::{Event, Labels, MetricsRegistry, TraceCollector, TraceHandle, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which verification backend to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Heap-dependent specs evaluated directly (the paper's logic).
    Destabilized,
    /// Classical stable encoding with explicit witnesses.
    StableBaseline,
}

/// Tuning knobs for the verifier pipeline.
///
/// The *performance* knob (`threads`) changes cost, never answers:
/// outcomes and normalized statistics are identical for every setting. The *resilience* knobs (`budget`, `faults`) can degrade a
/// method's verdict to [`Verdict::Unknown`] or
/// [`Verdict::CrashedInternal`] — but deterministically (the
/// wall-clock deadline excepted), and never for sibling methods: each
/// method is verified in isolation, so a fault or exhausted budget in
/// one method leaves every other verdict bit-identical at any thread
/// count.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifierConfig {
    /// Worker threads a [`crate::session::Session`] pass fans methods
    /// out across; `0` means one per available CPU.
    pub threads: usize,
    /// Per-method resource budget (default: unlimited on every axis).
    pub budget: Budget,
    /// Deterministic fault-injection plan for chaos testing (default:
    /// empty — no faults).
    pub faults: FaultPlan,
    /// Retry a budget-exhausted method once with a doubled
    /// ([`Budget::escalated`]) budget before settling on `Unknown`
    /// (default: `true`; a no-op under the unlimited budget).
    pub retry_unknown: bool,
    /// Fail any method whose specification contains an assertion the
    /// static stability analyzer classifies
    /// [`StabilityClass::Unstable`] (default: `false`). This is an
    /// *answer-affecting* knob and is part of the incremental
    /// fingerprint.
    pub deny_unstable: bool,
    /// Directory of the persistent incremental verdict store, read
    /// only by [`crate::session::SessionHost::new`], which opens the
    /// store there and verifies every session incrementally: methods
    /// whose semantic fingerprint matches a prior `Verified`/`Failed`
    /// entry are not re-verified (default: `None` — every method is
    /// verified). A bare [`Verifier`] never touches the store.
    pub cache_dir: Option<std::path::PathBuf>,
    /// The flight recorder (default: disabled — zero overhead).
    /// Workers buffer events per method and the session pass's merge
    /// path emits them in program order, so traces are deterministic
    /// at any thread count.
    pub trace: TraceHandle,
}

impl Default for VerifierConfig {
    fn default() -> VerifierConfig {
        VerifierConfig {
            threads: 0,
            budget: Budget::UNLIMITED,
            faults: FaultPlan::default(),
            retry_unknown: true,
            deny_unstable: false,
            cache_dir: None,
            trace: TraceHandle::disabled(),
        }
    }
}

impl VerifierConfig {
    /// The actual fan-out width `threads == 0` resolves to.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

/// A permission chunk `acc(recv.field, perm)` with the value `value`.
#[derive(Clone, PartialEq, Debug)]
pub struct Chunk {
    /// Receiver reference (interned).
    pub recv: TermId,
    /// Field name.
    pub field: String,
    /// Permission amount.
    pub perm: Q,
    /// Current symbolic value (interned).
    pub value: TermId,
}

/// One proof obligation and its outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Obligation {
    /// What had to be proved.
    pub description: String,
    /// The solver's verdict (or a structural failure note).
    pub outcome: Answer,
}

/// Why a method's verdict is [`Verdict::Unknown`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum UnknownReason {
    /// A [`Budget`] axis ran out before verification finished.
    BudgetExhausted {
        /// The exhausted axis.
        axis: BudgetAxis,
        /// Human-readable detail (limit and where it tripped).
        detail: String,
    },
    /// The solver answered `Unknown` on at least one obligation (the
    /// goal left the decidable fragment) without any budget tripping.
    OutOfFragment {
        /// Human-readable detail (how many obligations were unknown).
        detail: String,
    },
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::BudgetExhausted { axis, detail } => {
                write!(f, "budget exhausted ({}): {}", axis, detail)
            }
            UnknownReason::OutOfFragment { detail } => {
                write!(f, "out of fragment: {}", detail)
            }
        }
    }
}

/// The three-valued (plus crash) outcome of verifying one method.
///
/// The lattice is `Verified < Unknown < Failed` in definiteness:
/// `Verified` and `Failed` are definite answers, `Unknown` means the
/// pipeline gave up (budget, fragment) without contradicting either,
/// and `CrashedInternal` records an internal error (a contained panic)
/// that says nothing about the program.
#[derive(Clone, PartialEq, Debug)]
pub enum Verdict {
    /// Every obligation was proved; the method's statistics.
    Verified(VerifyStats),
    /// At least one obligation is definitely violated.
    Failed {
        /// The non-valid obligations (invalid and unknown alike).
        failures: Vec<Obligation>,
        /// Structured diagnostics: the first failure, the symbolic
        /// context it happened in, and the hottest solver queries.
        report: FailureReport,
    },
    /// Verification gave up without a definite answer.
    Unknown {
        /// Why the verdict is unknown.
        reason: UnknownReason,
        /// The non-valid obligations observed before giving up
        /// (includes a synthesized budget-exhaustion obligation).
        failures: Vec<Obligation>,
        /// Structured diagnostics (never empty: at minimum the method
        /// name and the exhaustion/fragment detail).
        report: FailureReport,
    },
    /// The verifier itself panicked on this method; the panic was
    /// contained by per-method isolation and siblings are unaffected.
    CrashedInternal {
        /// The panic payload.
        message: String,
    },
}

impl Verdict {
    /// True for [`Verdict::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, Verdict::Verified(_))
    }

    /// True for an [`Verdict::Unknown`] caused by budget exhaustion
    /// (the retry-eligible case).
    pub fn is_budget_exhausted(&self) -> bool {
        matches!(
            self,
            Verdict::Unknown {
                reason: UnknownReason::BudgetExhausted { .. },
                ..
            }
        )
    }

    /// The [`FailureReport`] attached to a `Failed`/`Unknown` verdict.
    pub fn report(&self) -> Option<&FailureReport> {
        match self {
            Verdict::Failed { report, .. } | Verdict::Unknown { report, .. } => Some(report),
            _ => None,
        }
    }

    /// The verdict with environment-dependent statistics fields zeroed
    /// (see [`VerifyStats::normalized`]) — the form compared by the
    /// determinism tests.
    pub fn normalized(&self) -> Verdict {
        match self {
            Verdict::Verified(s) => Verdict::Verified(s.normalized()),
            other => other.clone(),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Verified(_) => f.write_str("verified"),
            Verdict::Failed { failures, .. } => {
                write!(f, "failed ({} obligation(s))", failures.len())
            }
            Verdict::Unknown { reason, .. } => write!(f, "unknown: {}", reason),
            Verdict::CrashedInternal { message } => {
                write!(f, "crashed internally: {}", message)
            }
        }
    }
}

/// Statistics for one method verification — the T1/F1 measurements.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct VerifyStats {
    /// Total proof obligations discharged.
    pub obligations: usize,
    /// Solver entailment/consistency queries.
    pub solver_queries: usize,
    /// CDCL decisions (search branches).
    pub solver_branches: usize,
    /// CDCL conflicts.
    pub solver_conflicts: usize,
    /// CDCL restarts (Luby schedule).
    pub solver_restarts: usize,
    /// Literals assigned by unit propagation.
    pub solver_propagations: usize,
    /// Literals assigned by theory propagation (congruence closure and
    /// difference-bound strengthening).
    pub theory_props: usize,
    /// Solver query-cache hits (whole queries answered from memory).
    pub cache_hits: usize,
    /// Solver query-cache misses.
    pub cache_misses: usize,
    /// Conflict clauses learned by the solver while verifying the
    /// method ([`Solver::learned_clauses`]).
    pub learned_clauses: usize,
    /// Distinct terms interned while verifying the method.
    pub interned_terms: usize,
    /// Symbols minted (includes baseline witnesses).
    pub symbols: usize,
    /// Witness symbols minted by the stable baseline.
    pub witnesses: usize,
    /// Witness re-derivations/invalidation scans (baseline only).
    pub rebinds: usize,
    /// Invalidation-scan solver queries the baseline *skipped* because
    /// the assertion that minted the witness was statically classified
    /// stable (see [`crate::stability`]) — the scan's answer is
    /// discarded either way, so skipping is answer-transparent.
    pub stability_skips: usize,
    /// Symbolic execution states explored.
    pub states: usize,
    /// Budget-exhausted attempts absorbed before this result (1 when
    /// the method only verified after the retry-with-escalated-budget
    /// policy kicked in).
    pub budget_exhausted: usize,
    /// Wall-clock verification time in nanoseconds.
    pub wall_nanos: u64,
}

impl VerifyStats {
    /// The stats with the environment-dependent wall time zeroed — the
    /// form compared for determinism: two runs of the same program must
    /// agree on `normalized()` regardless of thread count or machine
    /// speed.
    pub fn normalized(&self) -> VerifyStats {
        VerifyStats {
            wall_nanos: 0,
            ..self.clone()
        }
    }

    /// Accumulates another method's counters (wall times add).
    pub fn merge(&mut self, other: &VerifyStats) {
        self.obligations += other.obligations;
        self.solver_queries += other.solver_queries;
        self.solver_branches += other.solver_branches;
        self.solver_conflicts += other.solver_conflicts;
        self.solver_restarts += other.solver_restarts;
        self.solver_propagations += other.solver_propagations;
        self.theory_props += other.theory_props;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.learned_clauses += other.learned_clauses;
        self.interned_terms += other.interned_terms;
        self.symbols += other.symbols;
        self.witnesses += other.witnesses;
        self.rebinds += other.rebinds;
        self.stability_skips += other.stability_skips;
        self.states += other.states;
        self.budget_exhausted += other.budget_exhausted;
        self.wall_nanos += other.wall_nanos;
    }
}

/// The symbolic state.
///
/// The chunk store is `Rc`-shared: taking the exhale/`old` snapshot a
/// state needs is an `Rc::clone`, and the store is only deep-copied
/// (`Rc::make_mut`) when a path actually writes through it. States
/// never leave the thread that created them, so `Rc` suffices.
#[derive(Clone, Debug)]
struct State {
    store: BTreeMap<String, TermId>,
    /// Declared types of in-scope variables (drives havocking).
    var_types: BTreeMap<String, Type>,
    pc: Vec<TermId>,
    chunks: Rc<Vec<Chunk>>,
    /// Pre-state chunks for `old(…)` (method entry or call site).
    old: Rc<Vec<Chunk>>,
    /// Baseline: live witnesses minted for spec-level field reads.
    witnesses: Vec<Witness>,
}

/// The symbolic context captured at the first failing obligation —
/// the raw material of a [`FailureReport`].
#[derive(Debug, Default)]
struct FailureCtx {
    chunks: Vec<String>,
    path_condition: Vec<String>,
}

/// What an incremental pass did with the verdict store — the
/// accounting [`crate::session::VerifyOutcome`] reports.
#[derive(Debug)]
pub(crate) struct StorePass {
    /// The methods the pass re-verified (the dirty cone), in program
    /// order.
    pub(crate) reverified: Vec<String>,
    /// Verdicts served straight from the store.
    pub(crate) hits: usize,
    /// Methods with no stored verdict under their fingerprint.
    pub(crate) misses: usize,
    /// Matching entries discarded because a transitive callee's spec
    /// changed.
    pub(crate) dirty_transitive: usize,
}

/// The outcome of verifying one method in isolation. Trace events and
/// metrics ride along so the fan-out can merge them in program order.
struct MethodOutcome {
    verdict: Verdict,
    events: Vec<Event>,
    metrics: MetricsRegistry,
}

/// The symbolic-execution engine for one method.
///
/// A `Verifier` is single-use: [`Verifier::verify_method_verdict`]
/// consumes it, so its arena, solver (with its caches and learned
/// clauses), symbol supply, budget and counters all belong to that one
/// method. Verifying another method means building another `Verifier`.
///
/// Programs are verified through [`crate::session::Session`]: its pass
/// gives every method a `Verifier` of its own and merges the verdicts
/// in program order. `verify_method_verdict` is that per-method unit,
/// public so harnesses can replay single methods.
#[derive(Debug)]
pub struct Verifier<'a> {
    program: &'a Program,
    backend: Backend,
    config: VerifierConfig,
    solver: Solver,
    supply: SymSupply,
    arena: TermArena,
    obligations: Vec<Obligation>,
    /// The counters the solver, arena and supply do not keep
    /// (witnesses, rebinds, stability skips, states).
    stats: VerifyStats,
    /// The budget axis that ran out, and where.
    exhausted: Option<(BudgetAxis, String)>,
    /// Injected faults (chaos harness).
    fault_exhaust: Option<BudgetAxis>,
    fault_panic_at_state: Option<usize>,
    /// Trace buffer (disabled unless the config's [`TraceHandle`] is
    /// enabled).
    collector: TraceCollector,
    /// The most expensive solver queries.
    query_log: QueryLog,
    /// Context captured at the first failure.
    failure_ctx: Option<FailureCtx>,
    /// Whether the top-level spec assertion currently being produced or
    /// consumed was classified stable by the static analyzer — baseline
    /// witnesses minted under it are exempt from FieldWrite
    /// invalidation scans (set at each spec boundary, see
    /// [`Verifier::enter_spec`]).
    spec_scan_exempt: bool,
}

impl<'a> Verifier<'a> {
    /// Creates a verifier for `program` under `backend` and `config`.
    pub fn with_config(
        program: &'a Program,
        backend: Backend,
        config: VerifierConfig,
    ) -> Verifier<'a> {
        let collector = config.trace.collector();
        Verifier {
            program,
            backend,
            config,
            solver: Solver::new(),
            supply: SymSupply::new(),
            arena: TermArena::new(),
            obligations: Vec::new(),
            stats: VerifyStats::default(),
            exhausted: None,
            fault_exhaust: None,
            fault_panic_at_state: None,
            collector,
            query_log: QueryLog::default(),
            failure_ctx: None,
            spec_scan_exempt: false,
        }
    }

    /// Verifies one method under the configured budget and fault plan
    /// and reports the three-valued [`Verdict`]. This consumes the
    /// verifier: a `Verifier` verifies exactly one method, so every
    /// counter it keeps is that method's.
    ///
    /// Budget exhaustion and out-of-fragment solver answers yield
    /// [`Verdict::Unknown`]; definite violations yield
    /// [`Verdict::Failed`], as does an unknown or bodyless (abstract)
    /// method — a structural failure, not a panic. (Panic containment
    /// lives one level up, in the session pass, because it requires an
    /// isolated per-method verifier to discard.)
    pub fn verify_method_verdict(self, name: &str) -> Verdict {
        self.run(name).verdict
    }

    /// [`Verifier::verify_method_verdict`], with the method's trace
    /// events and metrics.
    fn run(mut self, name: &str) -> MethodOutcome {
        let started = Instant::now();
        // Install the method's budget. The deadline is also handed to
        // the solver, which polls it inside its conflict loop: a single
        // hard query then returns `Unknown` within a small multiple of
        // the deadline instead of only noticing the overrun at the next
        // statement boundary.
        let budget = self.config.budget;
        self.solver.fuel = budget.solver_fuel;
        self.solver.deadline = budget
            .deadline_ms
            .map(|ms| started + Duration::from_millis(ms));
        self.arena.set_limit(
            budget
                .max_terms
                .map(|m| usize::try_from(m).unwrap_or(usize::MAX)),
        );
        // Install the method's injected faults (chaos harness).
        for kind in self.config.faults.for_method(name) {
            match kind {
                FaultKind::SolverUnknownAfter(n) => self.solver.unknown_after = Some(n),
                FaultKind::ExhaustBudget(axis) => self.fault_exhaust = Some(axis),
                FaultKind::PanicAtState(n) => self.fault_panic_at_state = Some(n),
            }
        }
        let span = self.collector.span_start(&format!("exec:{}", name));
        let result = self.verify_method_body(name, started);
        self.emit_budget_gauges();
        self.collector.span_end(span);
        let report = self.build_failure_report(name, &result);
        let (events, metrics) = self.collector.take();
        MethodOutcome {
            verdict: classify(result, self.exhausted, report),
            events,
            metrics,
        }
    }

    /// Assembles the [`FailureReport`] for a just-finished method from
    /// the captured failure context and the hot-query log. Returns the
    /// empty report for a clean run (it is dropped by `classify`).
    fn build_failure_report(
        &mut self,
        name: &str,
        result: &Result<VerifyStats, Vec<Obligation>>,
    ) -> FailureReport {
        if self.exhausted.is_none() && result.is_ok() {
            return FailureReport::default();
        }
        let first_failure = match (&self.exhausted, result) {
            (Some((axis, detail)), _) => format!("budget exhausted ({}): {}", axis, detail),
            (None, Err(failures)) => failures
                .first()
                .map(|o| format!("[{:?}] {}", o.outcome, o.description))
                .unwrap_or_else(|| "failure without a recorded obligation".to_string()),
            (None, Ok(_)) => String::new(),
        };
        let ctx = self.failure_ctx.take().unwrap_or_default();
        FailureReport {
            method: name.to_string(),
            first_failure,
            chunks: ctx.chunks,
            path_condition: ctx.path_condition,
            hot_queries: self.query_log.top(),
        }
    }

    /// Emits one gauge per consumed budget axis (and the configured
    /// limits) at method exit. No-op when tracing is disabled.
    fn emit_budget_gauges(&mut self) {
        if !self.collector.is_enabled() {
            return;
        }
        self.collector
            .gauge("budget.states_used", self.stats.states as u64);
        self.collector
            .gauge("budget.terms_interned", self.arena.len() as u64);
        if let Some(limit) = self.config.budget.limit(BudgetAxis::SolverFuel) {
            let remaining = self.solver.fuel.unwrap_or(0);
            self.collector
                .gauge("budget.fuel_used", limit.saturating_sub(remaining));
        }
        for axis in BudgetAxis::ALL {
            if let Some(limit) = self.config.budget.limit(axis) {
                self.collector
                    .gauge(&format!("budget.limit.{}", axis), limit);
            }
        }
    }

    fn verify_method_body(
        &mut self,
        name: &str,
        started: Instant,
    ) -> Result<VerifyStats, Vec<Obligation>> {
        let program = self.program;
        let Some(method) = program.method(name) else {
            let failure =
                self.oblige_failure(None, format!("cannot verify unknown method {}", name));
            return Err(vec![failure]);
        };
        let Some(body) = &method.body else {
            let failure = self.oblige_failure(
                None,
                format!(
                    "method {} is abstract (no body) and cannot be verified",
                    name
                ),
            );
            return Err(vec![failure]);
        };

        // Static stability analysis of the method's spec assertions
        // (pre, post, loop invariants), run before execution so the
        // verdicts can be traced and can gate `deny_unstable`.
        let spec_verdicts = stability::analyze_method(method);
        if self.collector.is_enabled() {
            for v in &spec_verdicts {
                self.collector.event(
                    "stability.classify",
                    vec![
                        ("site".to_string(), Value::Str(v.site.to_string())),
                        ("class".to_string(), Value::Str(v.class.to_string())),
                        ("findings".to_string(), Value::UInt(v.findings.len() as u64)),
                    ],
                );
            }
        }
        if self.config.deny_unstable {
            let failures: Vec<Obligation> = spec_verdicts
                .iter()
                .filter(|v| v.class == StabilityClass::Unstable)
                .map(|v| self.oblige_failure(None, format!("unstable assertion denied: {}", v)))
                .collect();
            if !failures.is_empty() {
                return Err(failures);
            }
        }

        // Fresh symbols for parameters and returns.
        let mut state = State {
            store: BTreeMap::new(),
            var_types: BTreeMap::new(),
            pc: Vec::new(),
            chunks: Rc::new(Vec::new()),
            old: Rc::new(Vec::new()),
            witnesses: Vec::new(),
        };
        for (x, ty) in method.params.iter().chain(method.returns.iter()) {
            let s = self.fresh(*ty);
            let v = self.arena.sym(s);
            state.store.insert(x.clone(), v);
            state.var_types.insert(x.clone(), *ty);
        }

        // Inhale the precondition, snapshot for old().
        let pre_span = self.collector.span_start("pre");
        let mut states = self.produce_spec(state, &method.requires);
        for s in &mut states {
            s.old = Rc::clone(&s.chunks);
        }
        self.collector.span_end(pre_span);

        // Execute the body.
        let body_span = self.collector.span_start("body");
        let mut finals = Vec::new();
        for s in states {
            finals.extend(self.exec_block(s, body));
        }
        self.collector.span_end(body_span);

        // Exhale the postcondition on every path.
        let post_span = self.collector.span_start("post");
        for s in finals {
            let _ = self.consume_spec(s, &method.ensures, "postcondition");
        }
        self.collector.span_end(post_span);

        // Fold any budget exhaustion into the obligation trail *before*
        // collecting failures: a truncated run prunes states, so an
        // empty failure list must not read as success.
        self.budget_ok();
        if let Some((axis, detail)) = self.exhausted.clone() {
            self.obligations.push(Obligation {
                description: format!("budget exhausted ({}) verifying {}: {}", axis, name, detail),
                outcome: Answer::Unknown,
            });
        }

        let failed: Vec<Obligation> = self
            .obligations
            .iter()
            .filter(|o| o.outcome != Answer::Valid)
            .cloned()
            .collect();

        let stats = VerifyStats {
            obligations: self.obligations.len(),
            solver_queries: self.solver.queries,
            solver_branches: self.solver.branches,
            solver_conflicts: self.solver.conflicts,
            solver_restarts: self.solver.restarts,
            solver_propagations: self.solver.propagations,
            theory_props: self.solver.theory_props,
            cache_hits: self.solver.cache_hits,
            cache_misses: self.solver.cache_misses,
            learned_clauses: self.solver.learned_clauses,
            interned_terms: self.arena.len(),
            symbols: self.supply.minted(),
            witnesses: self.stats.witnesses,
            rebinds: self.stats.rebinds,
            stability_skips: self.stats.stability_skips,
            states: self.stats.states + 1,
            budget_exhausted: 0,
            wall_nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        };

        if self.collector.is_enabled() {
            self.collector.counter("verify.methods", 1);
            self.collector
                .counter("solver.queries", stats.solver_queries as u64);
            self.collector
                .counter("solver.cache_hits", stats.cache_hits as u64);
            self.collector
                .counter("solver.cache_misses", stats.cache_misses as u64);
            self.collector
                .counter("solver.branches", stats.solver_branches as u64);
            self.collector
                .counter("solver.conflict", stats.solver_conflicts as u64);
            self.collector
                .counter("solver.restart", stats.solver_restarts as u64);
            self.collector
                .counter("theory.propagate", stats.theory_props as u64);
            self.collector
                .counter("solver.learned_clauses", stats.learned_clauses as u64);
            self.collector.counter("exec.states", stats.states as u64);
            self.collector
                .counter("stability.skips", stats.stability_skips as u64);
            self.collector
                .counter("exec.obligations", stats.obligations as u64);
            self.collector
                .counter("exec.interned_terms", stats.interned_terms as u64);
        }

        if failed.is_empty() {
            Ok(stats)
        } else {
            Err(failed)
        }
    }

    /// Cooperative budget check, consulted at the symbolic-execution
    /// loop sites. Returns `false` — recording the reason once — when
    /// any axis of the configured [`Budget`] (or an injected
    /// `ExhaustBudget` fault) has tripped; execution then prunes to the
    /// empty state set and the method's verdict degrades to a
    /// deterministic [`Verdict::Unknown`]. Under the default unlimited
    /// budget every check is a no-op.
    fn budget_ok(&mut self) -> bool {
        if self.exhausted.is_some() {
            return false;
        }
        if let Some(axis) = self.fault_exhaust.take() {
            self.exhausted = Some((axis, "injected fault".to_string()));
            return false;
        }
        if self.solver.fuel_exhausted {
            let limit = self.config.budget.solver_fuel.unwrap_or(0);
            self.exhausted = Some((
                BudgetAxis::SolverFuel,
                format!("conflict+propagation fuel of {} ran out", limit),
            ));
            return false;
        }
        if self.solver.deadline_exhausted {
            let ms = self.config.budget.deadline_ms.unwrap_or(0);
            self.exhausted = Some((
                BudgetAxis::Deadline,
                format!("deadline of {} ms elapsed mid-query", ms),
            ));
            return false;
        }
        if let Some(max) = self.config.budget.max_states {
            if self.stats.states as u64 > max {
                self.exhausted =
                    Some((BudgetAxis::States, format!("state cap of {} exceeded", max)));
                return false;
            }
        }
        if self.arena.over_limit() {
            let detail = if self.arena.too_deep() {
                format!("a term nested deeper than {} levels", MAX_TERM_DEPTH)
            } else {
                let limit = self.config.budget.max_terms.unwrap_or(0);
                format!("interned-term cap of {} exceeded", limit)
            };
            self.exhausted = Some((BudgetAxis::Terms, detail));
            return false;
        }
        if let Some(ms) = self.config.budget.deadline_ms {
            if self.solver.deadline.is_some_and(|d| Instant::now() >= d) {
                self.exhausted = Some((
                    BudgetAxis::Deadline,
                    format!("deadline of {} ms elapsed", ms),
                ));
                return false;
            }
        }
        true
    }

    fn fresh(&mut self, ty: Type) -> Sym {
        let s = self.supply.fresh();
        let sort = match ty {
            Type::Int => Sort::Int,
            Type::Bool => Sort::Bool,
            Type::Ref => Sort::Ref,
        };
        self.solver.declare(s, sort);
        s
    }

    /// The single entailment gateway: every solver query goes through
    /// here so the flight recorder sees it (site, answer, cache
    /// hit/miss, fuel burned, normalized-path-condition hash) and the
    /// hot-query log can keep the most expensive ones for the
    /// [`FailureReport`]. With tracing off and the log full of hotter
    /// entries, the extra cost is two counter snapshots.
    fn query(&mut self, pc: &[TermId], goal: TermId, site: &str) -> Answer {
        let hits_before = self.solver.cache_hits;
        let conflicts_before = self.solver.conflicts;
        let propagations_before = self.solver.propagations;
        let learned_before = self.solver.learned_clauses;
        let answer = self.solver.entails(&mut self.arena, pc, goal);
        // Per-query fuel mirrors the budget's unit: conflicts +
        // propagations.
        let fuel = (self.solver.conflicts - conflicts_before) as u64
            + (self.solver.propagations - propagations_before) as u64;
        let learned = (self.solver.learned_clauses - learned_before) as u64;
        let traced = self.collector.is_enabled();
        if traced || self.query_log.accepts(fuel) {
            let cache_hit = self.solver.cache_hits > hits_before;
            let hash = diag::pc_hash(pc, goal);
            if self.query_log.accepts(fuel) {
                self.query_log.offer(QueryCost {
                    description: site.to_string(),
                    fuel,
                    cache_hit,
                    learned,
                    pc_hash: hash,
                    answer,
                });
            }
            if traced {
                self.collector.event(
                    "solver.query",
                    vec![
                        ("site".to_string(), Value::Str(site.to_string())),
                        ("answer".to_string(), Value::Str(format!("{:?}", answer))),
                        ("cache_hit".to_string(), Value::Bool(cache_hit)),
                        ("fuel".to_string(), Value::UInt(fuel)),
                        ("learned".to_string(), Value::UInt(learned)),
                        ("pc_hash".to_string(), Value::UInt(hash)),
                    ],
                );
                self.collector.histogram("solver.query_fuel", fuel);
            }
        }
        answer
    }

    /// Branch-feasibility check (`pc ⊭ false`, Unknown kept as
    /// feasible) — the traced equivalent of [`Solver::consistent`].
    fn feasible(&mut self, pc: &[TermId]) -> bool {
        let falsum = self.arena.bool(false);
        self.query(pc, falsum, "branch feasibility") != Answer::Valid
    }

    fn oblige(&mut self, state: &State, goal: TermId, description: String) {
        let outcome = self.query(&state.pc, goal, &description);
        if outcome != Answer::Valid {
            self.note_failure_context(Some(state));
        }
        self.obligations.push(Obligation {
            description,
            outcome,
        });
    }

    fn oblige_failure(&mut self, state: Option<&State>, description: String) -> Obligation {
        self.note_failure_context(state);
        let o = Obligation {
            description,
            outcome: Answer::Invalid,
        };
        self.obligations.push(o.clone());
        o
    }

    /// Snapshots the symbolic context (heap chunks, path condition) at
    /// the method's *first* failure; later failures keep the original
    /// snapshot. A stateless failure site still marks the context as
    /// captured so the report points at the true first failure.
    fn note_failure_context(&mut self, state: Option<&State>) {
        if self.failure_ctx.is_some() {
            return;
        }
        let ctx = match state {
            Some(s) => FailureCtx {
                chunks: s
                    .chunks
                    .iter()
                    .map(|c| {
                        format!(
                            "acc({}.{}, {}) ↦ {}",
                            self.arena.to_expr(c.recv),
                            c.field,
                            c.perm,
                            self.arena.to_expr(c.value)
                        )
                    })
                    .collect(),
                path_condition: s
                    .pc
                    .iter()
                    .map(|&id| self.arena.to_expr(id).to_string())
                    .collect(),
            },
            None => FailureCtx::default(),
        };
        self.failure_ctx = Some(ctx);
    }

    // ---- chunk management ----

    /// Finds a chunk for `recv.field`, by syntactic match first (an id
    /// comparison, thanks to hash-consing), then by provable equality.
    /// A candidate whose disequality with `recv` is already a
    /// path-condition conjunct (see [`Verifier::produce`]) is skipped
    /// without asking the solver.
    fn find_chunk(&mut self, state: &State, recv: TermId, field: &str) -> Option<usize> {
        if let Some(i) = state
            .chunks
            .iter()
            .position(|c| c.field == field && c.recv == recv)
        {
            return Some(i);
        }
        for i in 0..state.chunks.len() {
            if state.chunks[i].field != field {
                continue;
            }
            let goal = self.arena.eq(state.chunks[i].recv, recv);
            if self
                .arena
                .get(Term::Not(goal))
                .is_some_and(|distinct| state.pc.contains(&distinct))
            {
                continue;
            }
            if self.query(&state.pc, goal, "chunk lookup: receiver equality") == Answer::Valid {
                return Some(i);
            }
        }
        None
    }

    /// Permission currently held for `recv.field`.
    fn perm_of(&mut self, state: &State, recv: TermId, field: &str) -> Q {
        match self.find_chunk(state, recv, field) {
            Some(i) => state.chunks[i].perm,
            None => Q::ZERO,
        }
    }

    // ---- expression evaluation ----

    /// Evaluates an expression. Field reads consult the heap; under the
    /// stable baseline each *spec-level* read additionally mints a
    /// witness.
    fn eval(&mut self, state: &mut State, e: &Expr, in_spec: bool) -> TermId {
        match e {
            Expr::Int(n) => self.arena.int(*n),
            Expr::Bool(b) => self.arena.bool(*b),
            Expr::Null => self.arena.null(),
            Expr::Var(x) => match state.store.get(x) {
                Some(v) => *v,
                None => {
                    self.oblige_failure(Some(&*state), format!("use of undeclared variable {}", x));
                    self.arena.bool(false)
                }
            },
            Expr::Field(recv, f, _) => {
                let r = self.eval(state, recv, in_spec);
                match self.find_chunk(state, r, f) {
                    Some(i) => {
                        let value = state.chunks[i].value;
                        if in_spec && self.backend == Backend::StableBaseline {
                            // The stable encoding cannot state `e.f`
                            // directly: mint a witness and bind it.
                            let w = self.fresh(self.field_ty(f));
                            let ws = self.arena.sym(w);
                            let bind = self.arena.eq(ws, value);
                            state.pc.push(bind);
                            state.witnesses.push(Witness {
                                recv: r,
                                field: f.clone(),
                                sym: w,
                                scan_exempt: self.spec_scan_exempt,
                            });
                            self.stats.witnesses += 1;
                            // Deriving the binding is an obligation of
                            // its own in the stable encoding.
                            self.obligations.push(Obligation {
                                description: format!("bind witness for {}", e),
                                outcome: Answer::Valid,
                            });
                            ws
                        } else {
                            value
                        }
                    }
                    None => {
                        self.oblige_failure(
                            Some(&*state),
                            format!("read of {} without permission", e),
                        );
                        self.arena.bool(false)
                    }
                }
            }
            Expr::Old(inner, _) => {
                // Evaluate against the snapshot (an Rc swap, not a copy).
                let saved = std::mem::replace(&mut state.chunks, Rc::clone(&state.old));
                let v = self.eval(state, inner, in_spec);
                state.chunks = saved;
                v
            }
            Expr::Perm(recv, f, _) => {
                // Permission amounts are resolved statically by the
                // verifier; encode as an exact integer pair via scaling
                // — the surrounding comparison handles it (see
                // eval_perm_comparison). Standalone perm() evaluates to
                // an opaque symbol.
                let r = self.eval(state, recv, in_spec);
                let q = self.perm_of(state, r, f);
                // Scale to a fixed denominator grid to stay linear.
                self.arena.int(perm_to_grid(q))
            }
            Expr::Bin(op, a, b) => {
                // perm comparisons get special, exact treatment.
                if let Some(res) = self.eval_perm_comparison(state, *op, a, b, in_spec) {
                    return res;
                }
                let va = self.eval(state, a, in_spec);
                let vb = self.eval(state, b, in_spec);
                match op {
                    Op::Add => self.arena.add(va, vb),
                    Op::Sub => self.arena.sub(va, vb),
                    Op::Mul => self.arena.mul(va, vb),
                    Op::Div => {
                        // Constant fold only, wrapping like the arena's
                        // other folds and both concrete semantics;
                        // symbolic division is out of fragment.
                        match (self.arena.node(va), self.arena.node(vb)) {
                            (Term::Int(x), Term::Int(y)) if y != 0 => {
                                self.arena.int(x.wrapping_div(y))
                            }
                            _ => {
                                let s = self.fresh(Type::Int);
                                self.arena.sym(s)
                            }
                        }
                    }
                    Op::Eq => self.arena.eq(va, vb),
                    Op::Ne => {
                        let eq = self.arena.eq(va, vb);
                        self.arena.not(eq)
                    }
                    Op::Lt => self.arena.lt(va, vb),
                    Op::Le => self.arena.le(va, vb),
                    Op::Gt => self.arena.lt(vb, va),
                    Op::Ge => self.arena.le(vb, va),
                    Op::And => self.arena.and(va, vb),
                    Op::Or => self.arena.or(va, vb),
                }
            }
            Expr::Not(a) => {
                let v = self.eval(state, a, in_spec);
                self.arena.not(v)
            }
            Expr::Neg(a) => {
                let v = self.eval(state, a, in_spec);
                let zero = self.arena.int(0);
                self.arena.sub(zero, v)
            }
            Expr::Cond(c, t, el) => {
                let vc = self.eval(state, c, in_spec);
                let vt = self.eval(state, t, in_spec);
                let ve = self.eval(state, el, in_spec);
                self.arena.ite(vc, vt, ve)
            }
        }
    }

    /// `perm(e.f) ⋈ q` with a literal fraction: decided exactly against
    /// the chunk store.
    fn eval_perm_comparison(
        &mut self,
        state: &mut State,
        op: Op,
        a: &Expr,
        b: &Expr,
        in_spec: bool,
    ) -> Option<TermId> {
        let (perm_side, lit_side, flipped) = match (a, b) {
            (Expr::Perm(r, f, _), rhs) => ((r, f), rhs, false),
            (lhs, Expr::Perm(r, f, _)) => ((r, f), lhs, true),
            _ => return None,
        };
        let q_lit = fraction_literal(lit_side)?;
        let r = self.eval(state, perm_side.0, in_spec);
        let held = self.perm_of(state, r, perm_side.1);
        let (lhs, rhs) = if flipped {
            (q_lit, held)
        } else {
            (held, q_lit)
        };
        let truth = match op {
            Op::Eq => lhs == rhs,
            Op::Ne => lhs != rhs,
            Op::Lt => lhs < rhs,
            Op::Le => lhs <= rhs,
            Op::Gt => lhs > rhs,
            Op::Ge => lhs >= rhs,
            _ => return None,
        };
        Some(self.arena.bool(truth))
    }

    fn field_ty(&self, f: &str) -> Type {
        self.program.field_type(f).unwrap_or(Type::Int)
    }

    // ---- produce (inhale) / consume (exhale, assert) ----

    /// Marks the start of a *top-level* spec assertion (contract
    /// conjunct, invariant, inhale/exhale/assert operand): witnesses
    /// minted while it is produced or consumed are exempt from
    /// FieldWrite invalidation scans iff the static analyzer classifies
    /// the whole assertion stable. Classification is a pure AST walk,
    /// so the flag — and with it every skip decision — is deterministic
    /// at any thread count.
    fn enter_spec(&mut self, a: &Assertion) {
        self.spec_scan_exempt = self.backend == Backend::StableBaseline
            && stability::classify(a).class != StabilityClass::Unstable;
    }

    /// [`Verifier::produce`] at a top-level spec boundary.
    fn produce_spec(&mut self, state: State, a: &Assertion) -> Vec<State> {
        self.enter_spec(a);
        self.produce(state, a)
    }

    /// [`Verifier::consume`] at a top-level spec boundary.
    fn consume_spec(&mut self, state: State, a: &Assertion, ctx: &str) -> Vec<State> {
        self.enter_spec(a);
        self.consume(state, a, ctx)
    }

    fn produce(&mut self, mut state: State, a: &Assertion) -> Vec<State> {
        if !self.budget_ok() {
            return Vec::new();
        }
        match a {
            Assertion::Expr(e) => {
                let v = self.eval(&mut state, e, true);
                state.pc.push(v);
                vec![state]
            }
            Assertion::Acc(recv, field, q) => {
                let r = self.eval(&mut state, recv, true);
                // Non-null receiver comes with the permission.
                let null = self.arena.null();
                let eq_null = self.arena.eq(r, null);
                let non_null = self.arena.not(eq_null);
                state.pc.push(non_null);
                // Two permissions to one location sum to at most 1
                // (`points_to_invalid_sum`), so a chunk whose permission
                // would pass 1 with this one has a different receiver.
                for c in state.chunks.iter() {
                    if c.field == *field && c.recv != r && c.perm + *q > Q::ONE {
                        let same = self.arena.eq(c.recv, r);
                        let distinct = self.arena.not(same);
                        state.pc.push(distinct);
                    }
                }
                match self.find_chunk(&state, r, field) {
                    Some(i) => {
                        let c = &mut Rc::make_mut(&mut state.chunks)[i];
                        c.perm = c.perm + *q;
                    }
                    None => {
                        let w = self.fresh(self.field_ty(field));
                        let value = self.arena.sym(w);
                        Rc::make_mut(&mut state.chunks).push(Chunk {
                            recv: r,
                            field: field.clone(),
                            perm: *q,
                            value,
                        });
                    }
                }
                vec![state]
            }
            Assertion::And(p, q) => {
                let mut out = Vec::new();
                for s in self.produce(state, p) {
                    out.extend(self.produce(s, q));
                }
                out
            }
            Assertion::Implies(cond, body) => {
                let v = self.eval(&mut state, cond, true);
                // Branch on the condition.
                let mut then_state = state.clone();
                then_state.pc.push(v);
                let mut out = Vec::new();
                if self.feasible(&then_state.pc) {
                    out.extend(self.produce(then_state, body));
                }
                let mut else_state = state;
                let nv = self.arena.not(v);
                else_state.pc.push(nv);
                if self.feasible(&else_state.pc) {
                    out.push(else_state);
                }
                out
            }
        }
    }

    /// Consumes an assertion. Per IDF exhale semantics, *pure*
    /// expressions (and `acc` receivers) are evaluated against the heap
    /// as it was when the exhale started, while permissions are
    /// subtracted from the running state. The snapshot is an `Rc`
    /// clone: O(1), no chunk copying.
    fn consume(&mut self, state: State, a: &Assertion, ctx: &str) -> Vec<State> {
        let snapshot = Rc::clone(&state.chunks);
        self.consume_with(state, &snapshot, a, ctx)
    }

    /// Evaluates `e` in `state` with the chunk store temporarily
    /// replaced by the exhale-entry snapshot.
    fn eval_snap(&mut self, state: &mut State, snap: &Rc<Vec<Chunk>>, e: &Expr) -> TermId {
        let saved = std::mem::replace(&mut state.chunks, Rc::clone(snap));
        let v = self.eval(state, e, true);
        state.chunks = saved;
        v
    }

    fn consume_with(
        &mut self,
        mut state: State,
        snap: &Rc<Vec<Chunk>>,
        a: &Assertion,
        ctx: &str,
    ) -> Vec<State> {
        if !self.budget_ok() {
            return Vec::new();
        }
        match a {
            Assertion::Expr(e) => {
                if self.backend == Backend::StableBaseline && e.reads_heap() {
                    // The stable encoding re-derives every witness at
                    // each spec boundary.
                    self.stats.rebinds += e.field_reads();
                }
                let v = self.eval_snap(&mut state, snap, e);
                self.oblige(&state, v, format!("{}: {}", ctx, e));
                vec![state]
            }
            Assertion::Acc(recv, field, q) => {
                let r = self.eval_snap(&mut state, snap, recv);
                match self.find_chunk(&state, r, field) {
                    Some(i) if state.chunks[i].perm >= *q => {
                        self.obligations.push(Obligation {
                            description: format!("{}: exhale acc({}.{}, {})", ctx, recv, field, q),
                            outcome: Answer::Valid,
                        });
                        let chunks = Rc::make_mut(&mut state.chunks);
                        let c = &mut chunks[i];
                        c.perm = c.perm - *q;
                        if !c.perm.is_positive() {
                            chunks.remove(i);
                        }
                    }
                    _ => {
                        self.oblige_failure(
                            Some(&state),
                            format!(
                                "{}: insufficient permission for acc({}.{}, {})",
                                ctx, recv, field, q
                            ),
                        );
                    }
                }
                vec![state]
            }
            Assertion::And(p, q) => {
                let mut out = Vec::new();
                for s in self.consume_with(state, snap, p, ctx) {
                    out.extend(self.consume_with(s, snap, q, ctx));
                }
                out
            }
            Assertion::Implies(cond, body) => {
                let v = self.eval_snap(&mut state, snap, cond);
                let mut then_state = state.clone();
                then_state.pc.push(v);
                let mut out = Vec::new();
                if self.feasible(&then_state.pc) {
                    out.extend(self.consume_with(then_state, snap, body, ctx));
                }
                let mut else_state = state;
                let nv = self.arena.not(v);
                else_state.pc.push(nv);
                if self.feasible(&else_state.pc) {
                    out.push(else_state);
                }
                out
            }
        }
    }

    // ---- statement execution ----

    fn exec_block(&mut self, state: State, stmts: &[Stmt]) -> Vec<State> {
        let mut states = vec![state];
        for s in stmts {
            if self.exhausted.is_some() {
                return Vec::new();
            }
            let mut next = Vec::new();
            for st in states {
                next.extend(self.exec_stmt(st, s));
            }
            states = next;
        }
        states
    }

    fn exec_stmt(&mut self, mut state: State, s: &Stmt) -> Vec<State> {
        self.stats.states += 1;
        if let Some(n) = self.fault_panic_at_state {
            if self.stats.states == n {
                panic!("injected fault: panic at execution state {}", n);
            }
        }
        if !self.budget_ok() {
            return Vec::new();
        }
        match s {
            Stmt::VarDecl(x, ty, e) => {
                let v = self.eval(&mut state, e, false);
                state.store.insert(x.clone(), v);
                state.var_types.insert(x.clone(), *ty);
                vec![state]
            }
            Stmt::Assign(x, e) => {
                let v = self.eval(&mut state, e, false);
                state.store.insert(x.clone(), v);
                vec![state]
            }
            Stmt::FieldWrite(recv, field, rhs) => {
                let r = self.eval(&mut state, recv, false);
                let v = self.eval(&mut state, rhs, false);
                match self.find_chunk(&state, r, field) {
                    Some(i) if state.chunks[i].perm >= Q::ONE => {
                        self.obligations.push(Obligation {
                            description: format!("write permission for {}.{}", recv, field),
                            outcome: Answer::Valid,
                        });
                        Rc::make_mut(&mut state.chunks)[i].value = v;
                    }
                    _ => {
                        self.oblige_failure(
                            Some(&state),
                            format!("write to {}.{} without full permission", recv, field),
                        );
                    }
                }
                // The stable baseline scans live witnesses for
                // invalidation on every write. The scan's answer is
                // discarded either way, so for witnesses minted by an
                // assertion the static analyzer proved stable the
                // solver query is skipped outright (counted as a
                // stability skip; the rebind still happened).
                if self.backend == Backend::StableBaseline {
                    let scan: Vec<(TermId, bool)> = state
                        .witnesses
                        .iter()
                        .filter(|w| w.field == *field)
                        .map(|w| (w.recv, w.scan_exempt))
                        .collect();
                    for (wrecv, exempt) in scan {
                        if exempt {
                            self.stats.stability_skips += 1;
                        } else {
                            let goal = self.arena.eq(wrecv, r);
                            let _ = self.query(&state.pc, goal, "witness invalidation scan");
                        }
                        self.stats.rebinds += 1;
                    }
                }
                vec![state]
            }
            Stmt::New(x, fields) => {
                let r = self.fresh(Type::Ref);
                let re = self.arena.sym(r);
                let null = self.arena.null();
                let eq_null = self.arena.eq(re, null);
                let non_null = self.arena.not(eq_null);
                state.pc.push(non_null);
                // Fresh from every existing chunk receiver.
                let existing: Vec<TermId> = state.chunks.iter().map(|c| c.recv).collect();
                for other in existing {
                    let eq_other = self.arena.eq(re, other);
                    let fresh = self.arena.not(eq_other);
                    state.pc.push(fresh);
                }
                for (f, e) in fields {
                    let v = self.eval(&mut state, e, false);
                    Rc::make_mut(&mut state.chunks).push(Chunk {
                        recv: re,
                        field: f.clone(),
                        perm: Q::ONE,
                        value: v,
                    });
                }
                state.store.insert(x.clone(), re);
                state.var_types.insert(x.clone(), Type::Ref);
                vec![state]
            }
            Stmt::Inhale(a) => self.produce_spec(state, a),
            Stmt::Exhale(a) => self.consume_spec(state, a, "exhale"),
            Stmt::Assert(a) => {
                // Assert consumes nothing: check on a copy, keep going
                // with the original chunks.
                let kept = state.clone();
                let _ = self.consume_spec(state, a, "assert");
                vec![kept]
            }
            Stmt::If(c, then_b, else_b) => {
                let v = self.eval(&mut state, c, false);
                let mut out = Vec::new();
                let mut then_state = state.clone();
                then_state.pc.push(v);
                if self.feasible(&then_state.pc) {
                    let span = self.collector.span_start("branch:then");
                    out.extend(self.exec_block(then_state, then_b));
                    self.collector.span_end(span);
                }
                let mut else_state = state;
                let nv = self.arena.not(v);
                else_state.pc.push(nv);
                if self.feasible(&else_state.pc) {
                    let span = self.collector.span_start("branch:else");
                    out.extend(self.exec_block(else_state, else_b));
                    self.collector.span_end(span);
                }
                if self.collector.is_enabled() {
                    self.collector.event(
                        "fork.join",
                        vec![
                            ("stmt".to_string(), Value::Str("if".to_string())),
                            ("states".to_string(), Value::UInt(out.len() as u64)),
                        ],
                    );
                }
                out
            }
            Stmt::While(c, inv, body) => {
                // `old(…)` always refers to the *method* pre-state, as
                // in Viper — including inside loop invariants.
                let entry_old = Rc::clone(&state.old);
                // 1. Exhale the invariant on entry.
                let after_entry = self.consume_spec(state, inv, "loop invariant (entry)");
                // 2. Check the body preserves it: fresh state with inv
                //    and the condition, execute, exhale inv.
                {
                    let span = self.collector.span_start("loop:body");
                    let mut body_state = State {
                        store: after_entry
                            .first()
                            .map(|s| s.store.clone())
                            .unwrap_or_default(),
                        var_types: after_entry
                            .first()
                            .map(|s| s.var_types.clone())
                            .unwrap_or_default(),
                        pc: Vec::new(),
                        chunks: Rc::new(Vec::new()),
                        old: entry_old,
                        witnesses: Vec::new(),
                    };
                    // Havoc assigned locals at their declared types.
                    for x in assigned_vars(body) {
                        let ty = body_state.var_types.get(&x).copied().unwrap_or(Type::Int);
                        let s = self.fresh(ty);
                        let v = self.arena.sym(s);
                        body_state.store.insert(x, v);
                    }
                    let mut produced = self.produce_spec(body_state, inv);
                    for st in &mut produced {
                        let v = self.eval(st, c, false);
                        st.pc.push(v);
                    }
                    let mut after_body = Vec::new();
                    for st in produced {
                        if self.feasible(&st.pc) {
                            after_body.extend(self.exec_block(st, body));
                        }
                    }
                    for st in after_body {
                        let _ = self.consume_spec(st, inv, "loop invariant (preservation)");
                    }
                    self.collector.span_end(span);
                }
                // 3. Continue after the loop: havoc, inhale inv ∧ ¬c.
                let after_span = self.collector.span_start("loop:after");
                let mut out = Vec::new();
                for mut cont in after_entry {
                    for x in assigned_vars(body) {
                        let ty = cont.var_types.get(&x).copied().unwrap_or(Type::Int);
                        let s = self.fresh(ty);
                        let v = self.arena.sym(s);
                        cont.store.insert(x, v);
                    }
                    for mut st in self.produce_spec(cont, inv) {
                        let v = self.eval(&mut st, c, false);
                        let nv = self.arena.not(v);
                        st.pc.push(nv);
                        if self.feasible(&st.pc) {
                            out.push(st);
                        }
                    }
                }
                self.collector.span_end(after_span);
                if self.collector.is_enabled() {
                    self.collector.event(
                        "fork.join",
                        vec![
                            ("stmt".to_string(), Value::Str("while".to_string())),
                            ("states".to_string(), Value::UInt(out.len() as u64)),
                        ],
                    );
                }
                out
            }
            Stmt::Call(targets, mname, args) => {
                let program = self.program;
                let callee = match program.method(mname) {
                    Some(m) => m,
                    None => {
                        self.oblige_failure(
                            Some(&state),
                            format!("call to unknown method {}", mname),
                        );
                        return vec![state];
                    }
                };
                if callee.params.len() != args.len() || callee.returns.len() != targets.len() {
                    self.oblige_failure(Some(&state), format!("arity mismatch calling {}", mname));
                    return vec![state];
                }
                // Bind formals.
                let mut bound: BTreeMap<String, TermId> = BTreeMap::new();
                for ((p, _), a) in callee.params.iter().zip(args.iter()) {
                    let v = self.eval(&mut state, a, false);
                    bound.insert(p.clone(), v);
                }
                // Exhale the precondition with formals substituted via a
                // temporary store.
                let caller_store = state.store.clone();
                let call_snapshot = Rc::clone(&state.chunks);
                state.store = bound.clone();
                let mut after_pre = self.consume_spec(
                    state,
                    &callee.requires,
                    &format!("precondition of {}", mname),
                );
                // Havoc targets, inhale the postcondition.
                let mut out = Vec::new();
                for mut st in after_pre.drain(..) {
                    st.store = bound.clone();
                    for ((r, ty), _) in callee.returns.iter().zip(targets.iter()) {
                        let s = self.fresh(*ty);
                        let v = self.arena.sym(s);
                        st.store.insert(r.clone(), v);
                    }
                    // old() in the callee post refers to the call point.
                    let saved_old = std::mem::replace(&mut st.old, Rc::clone(&call_snapshot));
                    for mut done in self.produce_spec(st, &callee.ensures) {
                        // Restore the caller view.
                        let mut store = caller_store.clone();
                        for ((r, _), t) in callee.returns.iter().zip(targets.iter()) {
                            let v = *done.store.get(r).expect("return bound");
                            store.insert(t.clone(), v);
                        }
                        done.store = store;
                        done.old = Rc::clone(&saved_old);
                        out.push(done);
                    }
                }
                out
            }
        }
    }
}

/// One session pass, the engine behind [`crate::session::Session`]:
/// verify every method with a body in isolation (concurrently across
/// [`VerifierConfig::effective_threads`] workers, each method in
/// `run_isolated`), then merge verdicts and trace output in program
/// (method-declaration) order. Pending methods are dispatched in
/// program order too; every method runs on a fresh solver, so no order
/// shares work between them.
///
/// With `store` (the [`crate::session::SessionHost`]'s warm store)
/// the pass is incremental: it restores every method whose
/// fingerprint matches a stored definite verdict, commits the
/// verdicts it computed and its dependency graph in one
/// [`VerdictStore::commit`] at the end, so a killed process loses
/// at most the pass in flight, and reports its [`StorePass`]
/// accounting. The lock is taken twice: once to plan (lookups and
/// spec-dirty roots) and once to commit, so concurrent sessions
/// share the store. A failed commit costs later re-verification,
/// never a wrong verdict; it is counted as `store.write_errors` in
/// the pass's trace metrics.
pub(crate) fn run_pass(
    program: &Program,
    backend: Backend,
    config: &VerifierConfig,
    store: Option<&Mutex<VerdictStore>>,
) -> (Vec<(String, Verdict)>, Option<StorePass>) {
    let names: Vec<String> = program
        .methods
        .iter()
        .filter(|m| m.body.is_some())
        .map(|m| m.name.clone())
        .collect();

    // Incremental mode: restore every method whose semantic
    // fingerprint matches a stored *definite* verdict; only the
    // rest are scheduled. Fingerprints cover bodies, contracts,
    // direct-callee *interface fingerprints*, and the
    // answer-affecting config knobs (see `fingerprint`), so a
    // restored verdict is the one re-verification would produce.
    //
    // Entries are keyed `{method}@{config-fingerprint}` so runs
    // under different answer-affecting configs (daemon tenants
    // with different budgets, a `deny_unstable` flip) coexist in one
    // store instead of thrashing each other's entries — and
    // tenants with *identical* config share one warm read side.
    let mut keys: Vec<String> = Vec::new();
    let mut fingerprints: Vec<Fingerprint> = Vec::new();
    let mut restored: Vec<Option<Verdict>> = vec![None; names.len()];
    let mut accounting = None;
    let cur_graph = store.map(|_| DepGraph::of_program(program));
    if let (Some(store), Some(cur)) = (store, &cur_graph) {
        let cfg_fp = crate::fingerprint::config_fingerprint(backend, config);
        keys = names.iter().map(|n| format!("{}@{}", n, cfg_fp)).collect();
        // Fields and config are hashed once for the pass, and every
        // interface once, in the graph.
        let pass = crate::fingerprint::PassInputs::new(program, backend, config);
        fingerprints = names
            .iter()
            .map(|name| {
                let method = program.method(name).expect("scheduled methods exist");
                pass.method_in(method, cur)
            })
            .collect();
        let roots = {
            let s = lock(store);
            restored = keys
                .iter()
                .zip(&fingerprints)
                .map(|(key, &fp)| s.lookup(key, fp).cloned())
                .collect();
            // The "previous" side of planning is the graph as of
            // the last commit; this pass's nodes join it at commit.
            DepGraph::spec_dirty_roots(s.graph(), cur)
        };
        let misses = restored.iter().filter(|r| r.is_none()).count();
        // Transitive spec dirtiness: a changed (or new, or
        // deleted) callee *interface* forces every reverse-
        // reachable caller to re-verify, even where its own
        // fingerprint still matches — build-system-grade
        // conservatism on top of the fingerprint plane. The
        // verifier is deterministic, so forced re-verification
        // reproduces the stored verdict bit for bit; a missing or
        // damaged graph only widens this cone (absent nodes are
        // roots), never narrows it.
        let mut dirty_transitive = 0usize;
        if !roots.is_empty() {
            let dirty = cur.reverse_reachable(&roots);
            for (i, name) in names.iter().enumerate() {
                if restored[i].is_some() && dirty.contains(name) {
                    restored[i] = None;
                    dirty_transitive += 1;
                }
            }
        }
        let mut hits = 0usize;
        for (i, r) in restored.iter_mut().enumerate() {
            if let Some(v) = r {
                // Stored failure reports carry the store key;
                // restore the bare method name so a warm verdict
                // is bit-identical to a cold one.
                if let Verdict::Failed { report, .. } = v {
                    report.method = names[i].clone();
                }
                hits += 1;
            }
        }
        let mut m = MetricsRegistry::new();
        let none = Labels::none();
        m.add("store.hits", &none, hits as u64);
        m.add("store.misses", &none, misses as u64);
        m.add("store.dirty_transitive", &none, dirty_transitive as u64);
        config.trace.merge_metrics(&m);
        accounting = Some(StorePass {
            reverified: (0..names.len())
                .filter(|&i| restored[i].is_none())
                .map(|i| names[i].clone())
                .collect(),
            hits,
            misses,
            dirty_transitive,
        });
    }
    let pending: Vec<usize> = (0..names.len())
        .filter(|&i| restored[i].is_none())
        .collect();

    let threads = config.effective_threads().min(pending.len()).max(1);
    let mut slots: Vec<Option<MethodOutcome>> = Vec::new();
    slots.resize_with(names.len(), || None);

    if threads <= 1 {
        for &i in &pending {
            slots[i] = Some(run_isolated(program, backend, config, &names[i]));
        }
    } else {
        let names_ref = &names;
        let pending_ref = &pending;
        let outcomes = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut partial = Vec::new();
                        for (slot, &i) in pending_ref.iter().enumerate() {
                            if slot % threads == t {
                                partial.push((
                                    i,
                                    run_isolated(program, backend, config, &names_ref[i]),
                                ));
                            }
                        }
                        partial
                    })
                })
                .collect();
            // Workers cannot panic: every per-method unit runs
            // behind `catch_unwind` inside `run_isolated`.
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("verifier worker panicked"))
                .collect::<Vec<_>>()
        });
        for (i, outcome) in outcomes {
            slots[i] = Some(outcome);
        }
    }

    // Deterministic merge in program (method-declaration) order.
    // Trace events are emitted here too — sequence numbers are
    // stamped on this single-threaded path, so the stream is
    // identical at any thread count.
    let mut out = Vec::with_capacity(names.len());
    for (i, (slot, restored)) in slots.into_iter().zip(restored).enumerate() {
        if let Some(verdict) = restored {
            // Restored methods did no work: no trace is emitted.
            out.push((names[i].clone(), verdict));
            continue;
        }
        let outcome = slot.expect("every scheduled method produced an outcome");
        config.trace.emit(outcome.events);
        config.trace.merge_metrics(&outcome.metrics);
        out.push((names[i].clone(), outcome.verdict));
    }
    if let (Some(store), Some(cur)) = (store, &cur_graph) {
        let verdicts = pending
            .iter()
            .map(|&i| (keys[i].as_str(), fingerprints[i], &out[i].1));
        if lock(store).commit(verdicts, cur).is_err() {
            // An unwritable cache directory costs future reuse,
            // never correctness.
            let mut m = MetricsRegistry::new();
            m.add("store.write_errors", &Labels::none(), 1);
            config.trace.merge_metrics(&m);
        }
    }
    config.trace.flush();
    (out, accounting)
}

/// Verifies one method in a verifier of its own — fresh arena, solver,
/// and symbol supply — so outcomes and statistics do not depend on
/// which worker (or how many) ran it.
///
/// The whole unit runs behind `catch_unwind`: a panic (an internal
/// verifier error, injected or real) degrades *this* method to
/// [`Verdict::CrashedInternal`] and cannot take down the sibling
/// methods or the fan-out. A budget-exhausted `Unknown` is retried
/// once with an escalated ([`Budget::escalated`]) budget when
/// [`VerifierConfig::retry_unknown`] is set.
fn run_isolated(
    program: &Program,
    backend: Backend,
    config: &VerifierConfig,
    name: &str,
) -> MethodOutcome {
    let attempt = |cfg: VerifierConfig| -> MethodOutcome {
        match catch_unwind(AssertUnwindSafe(|| {
            Verifier::with_config(program, backend, cfg).run(name)
        })) {
            Ok(outcome) => outcome,
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                // A crashed method contributes no events: the partial
                // buffer died with its verifier, which keeps the merged
                // stream deterministic (a panic mid-method would
                // otherwise expose scheduling-dependent progress).
                MethodOutcome {
                    verdict: Verdict::CrashedInternal { message },
                    events: Vec::new(),
                    metrics: MetricsRegistry::new(),
                }
            }
        }
    };

    let first = attempt(config.clone());
    let retry = config.retry_unknown
        && !config.budget.is_unlimited()
        && first.verdict.is_budget_exhausted();
    if !retry {
        return first;
    }
    let mut escalated = config.clone();
    escalated.budget = escalated.budget.escalated();
    let mut second = attempt(escalated);
    if let Verdict::Verified(stats) = &mut second.verdict {
        stats.budget_exhausted += 1;
    }
    second
}

/// Classifies a method run — the classical result plus the
/// budget-exhaustion reason — into a [`Verdict`]. Exhaustion dominates
/// (a truncated run proves nothing either way); then a definitely
/// violated obligation means `Failed`; then any `Unknown` obligation
/// means the goal left the solver's fragment.
fn classify(
    result: Result<VerifyStats, Vec<Obligation>>,
    exhausted: Option<(BudgetAxis, String)>,
    report: FailureReport,
) -> Verdict {
    if let Some((axis, detail)) = exhausted {
        let failures = result.err().unwrap_or_default();
        return Verdict::Unknown {
            reason: UnknownReason::BudgetExhausted { axis, detail },
            failures,
            report,
        };
    }
    match result {
        Ok(stats) => Verdict::Verified(stats),
        Err(failures) => {
            if failures.iter().any(|o| o.outcome == Answer::Invalid) {
                Verdict::Failed { failures, report }
            } else {
                let detail = format!(
                    "{} obligation(s) outside the solver fragment",
                    failures.len()
                );
                Verdict::Unknown {
                    reason: UnknownReason::OutOfFragment { detail },
                    failures,
                    report,
                }
            }
        }
    }
}

/// Best-effort rendering of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Variables assigned anywhere in a statement list (for loop havoc).
fn assigned_vars(stmts: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    fn go(s: &Stmt, out: &mut Vec<String>) {
        match s {
            Stmt::VarDecl(x, ..) | Stmt::Assign(x, _) | Stmt::New(x, _) if !out.contains(x) => {
                out.push(x.clone());
            }
            Stmt::Call(targets, ..) => {
                for t in targets {
                    if !out.contains(t) {
                        out.push(t.clone());
                    }
                }
            }
            Stmt::If(_, a, b) => {
                for s in a.iter().chain(b.iter()) {
                    go(s, out);
                }
            }
            Stmt::While(_, _, b) => {
                for s in b {
                    go(s, out);
                }
            }
            _ => {}
        }
    }
    for s in stmts {
        go(s, &mut out);
    }
    out
}

/// Converts a permission to the fixed denominator grid used when `perm`
/// escapes a comparison (grid of 1/1024ths).
fn perm_to_grid(q: Q) -> i64 {
    ((q * Q::new(1024, 1)).numer() / (q * Q::new(1024, 1)).denom()) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::session::SessionHost;

    /// Every method's verdict, from a storeless session.
    fn verdicts_with(
        p: &Program,
        backend: Backend,
        config: VerifierConfig,
    ) -> BTreeMap<String, Verdict> {
        SessionHost::new(backend, config)
            .session()
            .verify_program(p)
            .verdicts
    }

    /// Every method's stats when all of them verify, else every failed
    /// obligation.
    fn verify(
        src: &str,
        backend: Backend,
    ) -> Result<BTreeMap<String, VerifyStats>, Vec<Obligation>> {
        let p = parse_program(src).unwrap();
        let mut stats = BTreeMap::new();
        let mut failures = Vec::new();
        for (name, verdict) in verdicts_with(&p, backend, VerifierConfig::default()) {
            match verdict {
                Verdict::Verified(s) => {
                    stats.insert(name, s);
                }
                Verdict::Failed { failures: f, .. } | Verdict::Unknown { failures: f, .. } => {
                    failures.extend(f)
                }
                Verdict::CrashedInternal { message } => panic!("{} crashed: {}", name, message),
            }
        }
        if failures.is_empty() {
            Ok(stats)
        } else {
            Err(failures)
        }
    }

    const INC: &str = r#"
        field val: Int
        method inc(c: Ref)
          requires acc(c.val)
          ensures acc(c.val) && c.val == old(c.val) + 1
        {
          c.val := c.val + 1
        }
    "#;

    #[test]
    fn increments_verify_on_both_backends() {
        assert!(verify(INC, Backend::Destabilized).is_ok());
        assert!(verify(INC, Backend::StableBaseline).is_ok());
    }

    #[test]
    fn baseline_pays_witnesses() {
        let d = verify(INC, Backend::Destabilized).unwrap();
        let b = verify(INC, Backend::StableBaseline).unwrap();
        let ds = &d["inc"];
        let bs = &b["inc"];
        assert_eq!(ds.witnesses, 0);
        assert!(bs.witnesses > 0, "baseline should mint witnesses");
        assert!(bs.obligations > ds.obligations);
    }

    /// The stable spec `requires acc(c.val) && c.val >= 0` mints a
    /// witness whose invalidation scan at the body's field write is
    /// skipped (the static analyzer classified the precondition
    /// framed-stable), while an uncovered read in a statement-level
    /// spec keeps paying the scan query.
    #[test]
    fn stable_specs_skip_invalidation_scans() {
        let stable = r#"
            field val: Int
            method bump(c: Ref)
              requires acc(c.val) && c.val >= 0
              ensures acc(c.val) && c.val == old(c.val) + 1
            {
              c.val := c.val + 1
            }
        "#;
        let b = verify(stable, Backend::StableBaseline).unwrap();
        let bs = &b["bump"];
        assert!(bs.stability_skips > 0, "framed-stable spec should skip");
        assert!(
            bs.rebinds >= bs.stability_skips,
            "skips still count as rebinds"
        );
        // The destabilized backend never scans, hence never skips.
        let d = verify(stable, Backend::Destabilized).unwrap();
        assert_eq!(d["bump"].stability_skips, 0);
        // `inhale c.val >= 0` has no covering acc *within the
        // assertion*: its witness is not exempt and the scan query is
        // still posed.
        let unstable = r#"
            field val: Int
            method bump(c: Ref)
              requires acc(c.val)
              ensures acc(c.val) && c.val == old(c.val) + 1
            {
              inhale c.val >= 0;
              c.val := c.val + 1
            }
        "#;
        let u = verify(unstable, Backend::StableBaseline).unwrap();
        assert_eq!(u["bump"].stability_skips, 0);
        assert!(u["bump"].rebinds > 0);
    }

    #[test]
    fn deny_unstable_gates_unstable_contracts_only() {
        let p = parse_program(
            "field val: Int
             method ok(c: Ref)
               requires acc(c.val) && c.val >= 0
               ensures acc(c.val)
             { c.val := 0 }
             method shaky(c: Ref)
               requires c.val >= 0
               ensures true
             { }",
        )
        .unwrap();
        let config = VerifierConfig {
            deny_unstable: true,
            ..VerifierConfig::default()
        };
        let verdicts = verdicts_with(&p, Backend::Destabilized, config);
        assert!(verdicts["ok"].is_verified());
        match &verdicts["shaky"] {
            Verdict::Failed { failures, .. } => {
                assert!(
                    failures[0]
                        .description
                        .contains("unstable assertion denied"),
                    "{}",
                    failures[0].description
                );
                assert!(
                    failures[0].description.contains("precondition"),
                    "{}",
                    failures[0].description
                );
            }
            other => panic!("expected Failed, got {}", other),
        }
    }

    #[test]
    fn missing_permission_fails() {
        let src = r#"
            field val: Int
            method bad(c: Ref)
              ensures true
            {
              c.val := 1
            }
        "#;
        let e = verify(src, Backend::Destabilized).unwrap_err();
        assert!(e[0].description.contains("without full permission"));
    }

    #[test]
    fn wrong_postcondition_fails() {
        let src = r#"
            field val: Int
            method wrong(c: Ref)
              requires acc(c.val)
              ensures acc(c.val) && c.val == old(c.val) + 2
            {
              c.val := c.val + 1
            }
        "#;
        assert!(verify(src, Backend::Destabilized).is_err());
        assert!(verify(src, Backend::StableBaseline).is_err());
    }

    #[test]
    fn fractional_read_sharing() {
        let src = r#"
            field val: Int
            method read_twice(c: Ref) returns (r: Int)
              requires acc(c.val, 1/2)
              ensures acc(c.val, 1/2) && r == c.val + c.val
            {
              r := c.val + c.val
            }
        "#;
        assert!(verify(src, Backend::Destabilized).is_ok());
        assert!(verify(src, Backend::StableBaseline).is_ok());
    }

    #[test]
    fn half_permission_cannot_write() {
        let src = r#"
            field val: Int
            method sneaky(c: Ref)
              requires acc(c.val, 1/2)
              ensures acc(c.val, 1/2)
            {
              c.val := 0
            }
        "#;
        assert!(verify(src, Backend::Destabilized).is_err());
    }

    #[test]
    fn permission_introspection() {
        let src = r#"
            field val: Int
            method intro(c: Ref)
              requires acc(c.val, 1/2)
              ensures acc(c.val, 1/2)
            {
              assert perm(c.val) >= 1/2;
              assert perm(c.val) < 1
            }
        "#;
        assert!(verify(src, Backend::Destabilized).is_ok());
    }

    #[test]
    fn branches_and_conditionals() {
        let src = r#"
            field val: Int
            method absval(c: Ref)
              requires acc(c.val)
              ensures acc(c.val) && c.val >= 0
            {
              if (c.val < 0) { c.val := 0 - c.val } else { }
            }
        "#;
        assert!(verify(src, Backend::Destabilized).is_ok());
        assert!(verify(src, Backend::StableBaseline).is_ok());
    }

    #[test]
    fn loops_with_invariants() {
        let src = r#"
            field val: Int
            method count_to(n: Int) returns (i: Int)
              requires n >= 0
              ensures i == n
            {
              i := 0;
              while (i < n)
                invariant i <= n && 0 <= i
              { i := i + 1 }
            }
        "#;
        assert!(verify(src, Backend::Destabilized).is_ok());
    }

    #[test]
    fn bool_loop_variables_havoc_at_their_type() {
        // Regression: loop-modified Bool variables must be havocked as
        // Bool symbols, or the condition becomes ill-sorted and the
        // solver degrades to Unknown.
        let src = r#"
            field v: Int
            method drain(n: Int) returns (r: Int)
              requires n >= 0
              ensures r == 0
            {
              var go: Bool := n > 0;
              r := n;
              while (go)
                invariant r >= 0 && (go ==> r > 0) && (!go ==> r == 0)
              {
                r := r - 1;
                go := r > 0
              }
            }
        "#;
        assert!(verify(src, Backend::Destabilized).is_ok());
    }

    #[test]
    fn old_in_invariant_refers_to_method_entry() {
        // Regression: old() inside a loop invariant is the *method*
        // pre-state (Viper semantics), not the loop entry.
        let src = r#"
            field v: Int
            method drain_cell(c: Ref)
              requires acc(c.v) && c.v >= 0
              ensures acc(c.v) && c.v == 0
            {
              while (c.v > 0)
                invariant acc(c.v) && c.v >= 0 && c.v <= old(c.v)
              {
                c.v := c.v - 1
              }
            }
        "#;
        assert!(verify(src, Backend::Destabilized).is_ok());
        assert!(verify(src, Backend::StableBaseline).is_ok());
    }

    #[test]
    fn method_calls_use_contracts() {
        let src = r#"
            field val: Int
            method add(c: Ref, n: Int)
              requires acc(c.val)
              ensures acc(c.val) && c.val == old(c.val) + n
            {
              c.val := c.val + n
            }
            method twice(c: Ref)
              requires acc(c.val)
              ensures acc(c.val) && c.val == old(c.val) + 4
            {
              call add(c, 2);
              call add(c, 2)
            }
        "#;
        assert!(verify(src, Backend::Destabilized).is_ok());
        assert!(verify(src, Backend::StableBaseline).is_ok());
    }

    #[test]
    fn new_allocates_fresh_objects() {
        let src = r#"
            field val: Int
            method fresh_cell() returns (x: Ref)
              ensures acc(x.val) && x.val == 7
            {
              x := new(val: 7)
            }
        "#;
        assert!(verify(src, Backend::Destabilized).is_ok());
    }

    #[test]
    fn inhale_exhale_roundtrip() {
        let src = r#"
            field val: Int
            method ghostly(c: Ref)
              requires acc(c.val, 1/2)
              ensures acc(c.val, 1/2)
            {
              inhale acc(c.val, 1/2);
              assert perm(c.val) == 1;
              c.val := 3;
              exhale acc(c.val, 1/2);
              assert perm(c.val) == 1/2
            }
        "#;
        assert!(verify(src, Backend::Destabilized).is_ok());
    }

    #[test]
    fn abstract_method_reports_instead_of_panicking() {
        let src = r#"
            field val: Int
            method spec_only(c: Ref)
              requires acc(c.val)
              ensures acc(c.val)
        "#;
        // A session skips bodyless methods entirely…
        assert!(verify(src, Backend::Destabilized).unwrap().is_empty());
        // …and targeting one directly is a structural failure, not a
        // panic.
        let p = parse_program(src).unwrap();
        let first_failure = |name: &str| {
            let v = Verifier::with_config(&p, Backend::Destabilized, VerifierConfig::default());
            match v.verify_method_verdict(name) {
                Verdict::Failed { failures, .. } => failures[0].description.clone(),
                other => panic!("expected Failed, got {}", other),
            }
        };
        assert!(first_failure("spec_only").contains("abstract"));
        assert!(first_failure("no_such_method").contains("unknown method"));
    }

    #[test]
    fn session_verdicts_are_thread_count_invariant() {
        let src = r#"
            field val: Int
            method a(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == old(c.val) + 1
            { c.val := c.val + 1 }
            method b(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 0
            { c.val := 0 }
            method c(n: Int) returns (i: Int) requires n >= 0 ensures i == n
            { i := 0; while (i < n) invariant i <= n && 0 <= i { i := i + 1 } }
        "#;
        let p = parse_program(src).unwrap();
        let run = |threads: usize| {
            let config = VerifierConfig {
                threads,
                ..VerifierConfig::default()
            };
            let verdicts = verdicts_with(&p, Backend::Destabilized, config);
            assert!(verdicts.values().all(Verdict::is_verified));
            verdicts
                .into_iter()
                .map(|(k, v)| (k, v.normalized()))
                .collect::<BTreeMap<_, _>>()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn failing_method_gets_a_failed_verdict() {
        let src = r#"
            field val: Int
            method bad(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1
            { c.val := 2 }
        "#;
        let p = parse_program(src).unwrap();
        let v = Verifier::with_config(&p, Backend::Destabilized, VerifierConfig::default());
        match v.verify_method_verdict("bad") {
            Verdict::Failed { failures, report } => {
                assert!(!failures.is_empty());
                assert!(!report.is_empty(), "Failed verdicts carry diagnostics");
                assert_eq!(report.method, "bad");
                assert!(report.first_failure.contains("postcondition"));
                // The acc conjunct is consumed before the pure
                // conjunct fails, so no chunk is in scope — but the
                // path condition (the non-null receiver) is.
                assert!(report.chunks.is_empty());
                assert!(
                    !report.path_condition.is_empty(),
                    "the failing obligation had a path condition"
                );
                assert!(
                    report.hot_queries.iter().any(|q| q.fuel > 0),
                    "at least one logged query did real work"
                );
            }
            other => panic!("expected Failed, got {}", other),
        }
    }

    #[test]
    fn budget_exhaustion_dominates_a_would_be_failure() {
        // Under an exhausted budget the pipeline prunes states, so a
        // failing method must report Unknown (inconclusive), never a
        // possibly-spurious Failed or Verified.
        let src = r#"
            field val: Int
            method bad(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1
            { c.val := 2 }
        "#;
        let p = parse_program(src).unwrap();
        // A zero-state budget trips on the first statement, before the
        // failing postcondition is ever consumed.
        let config = VerifierConfig {
            budget: Budget::unlimited().with_max_states(0),
            retry_unknown: false,
            ..VerifierConfig::default()
        };
        let v = Verifier::with_config(&p, Backend::Destabilized, config);
        match v.verify_method_verdict("bad") {
            Verdict::Unknown {
                reason: UnknownReason::BudgetExhausted { axis, .. },
                ..
            } => assert_eq!(axis, crate::budget::BudgetAxis::States),
            other => panic!("expected budget Unknown, got {}", other),
        }
    }

    #[test]
    fn verdicts_render_for_humans() {
        let verified = Verdict::Verified(VerifyStats::default());
        assert_eq!(verified.to_string(), "verified");
        let failed = Verdict::Failed {
            failures: vec![],
            report: FailureReport::default(),
        };
        assert!(failed.to_string().starts_with("failed"));
        let unknown = Verdict::Unknown {
            reason: UnknownReason::OutOfFragment {
                detail: "1 obligation".to_string(),
            },
            failures: vec![],
            report: FailureReport::default(),
        };
        assert!(unknown.to_string().contains("out of fragment"));
        let crash = Verdict::CrashedInternal {
            message: "boom".to_string(),
        };
        assert!(crash.to_string().contains("boom"));
    }

    /// `i64::MIN / -1` folds as the concrete semantics computes it
    /// (wrapping to `i64::MIN`) instead of panicking the verifier.
    #[test]
    fn constant_division_folds_with_wrapping() {
        let src = r#"
            method m() returns (r: Int)
              ensures r == 0 - 9223372036854775807 - 1
            {
              r := (0 - 9223372036854775807 - 1) / (0 - 1)
            }
        "#;
        assert!(verify(src, Backend::Destabilized).is_ok());
    }

    /// The three coefficients of 2^126 sum to 3·2^126, which leaves
    /// `i128`. Linear arithmetic that wrapped read the sum as -2^126
    /// and verified this false postcondition; checked arithmetic makes
    /// the comparison opaque, so the verdict is `Unknown`.
    #[test]
    fn coefficient_overflow_is_unknown_not_verified() {
        let k = "x * 4611686018427387904 * 4611686018427387904 * 4";
        let src = format!(
            "method wrong(x: Int) returns (r: Int) requires x >= 1 \
             ensures {k} + {k} + {k} < 0 {{ r := 0 }}"
        );
        let p = parse_program(&src).unwrap();
        let verdicts = verdicts_with(&p, Backend::Destabilized, VerifierConfig::default());
        assert!(
            matches!(verdicts["wrong"], Verdict::Unknown { .. }),
            "expected Unknown, got {}",
            verdicts["wrong"]
        );
    }

    #[test]
    fn budgets_do_not_leak_across_methods() {
        // The fuel spent by one method must not starve the next: the
        // budget is per-method, as every method gets a verifier of its
        // own.
        let src = r#"
            field val: Int
            method a(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1
            { c.val := 1 }
            method b(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 2
            { c.val := 2 }
        "#;
        let p = parse_program(src).unwrap();
        let need = {
            let v = Verifier::with_config(&p, Backend::Destabilized, VerifierConfig::default());
            match v.verify_method_verdict("a") {
                // Fuel units: conflicts+propagations under the
                // (default) CDCL core.
                Verdict::Verified(s) => (s.solver_conflicts + s.solver_propagations) as u64,
                other => panic!("expected Verified, got {}", other),
            }
        };
        // Enough fuel for one method but not for two, were it shared.
        let config = VerifierConfig {
            budget: Budget::unlimited().with_solver_fuel(need + need / 2),
            retry_unknown: false,
            ..VerifierConfig::default()
        };
        let verdicts = verdicts_with(&p, Backend::Destabilized, config);
        assert!(verdicts["a"].is_verified());
        assert!(
            verdicts["b"].is_verified(),
            "b was starved: {}",
            verdicts["b"]
        );
    }

    /// The sites of every solver query verifying `src`, in order.
    fn query_sites(src: &str, backend: Backend) -> Vec<String> {
        let sink = std::sync::Arc::new(daenerys_obs::MemorySink::new(1 << 16));
        let config = VerifierConfig {
            threads: 1,
            trace: TraceHandle::new(sink.clone(), daenerys_obs::ClockKind::Logical),
            ..VerifierConfig::default()
        };
        let verdicts = verdicts_with(&parse_program(src).unwrap(), backend, config);
        assert!(
            verdicts.values().all(Verdict::is_verified),
            "{:?}",
            verdicts
        );
        sink.events()
            .iter()
            .filter(|e| e.name == "solver.query")
            .map(|e| match e.field("site") {
                Some(Value::Str(site)) => site.clone(),
                other => panic!("query without a site: {:?}", other),
            })
            .collect()
    }

    /// Inhaling `n` full permissions to one field leaves no lookup for
    /// the solver: each earlier receiver is known distinct, so the only
    /// queries are the `n` postcondition conjuncts.
    #[test]
    fn scaling_contracts_pose_one_query_per_cell() {
        for n in [4, 16, 24] {
            let src = crate::cases::scaling_program(n);
            for backend in [Backend::Destabilized, Backend::StableBaseline] {
                let sites = query_sites(&src, backend);
                assert_eq!(sites.len(), n, "n = {} on {:?}: {:?}", n, backend, sites);
                assert!(
                    !sites.iter().any(|s| s == "chunk lookup: receiver equality"),
                    "n = {} on {:?}: {:?}",
                    n,
                    backend,
                    sites
                );
            }
        }
    }

    /// Two full permissions to one field cannot share a receiver
    /// (their sum would pass 1), and the verifier now knows it.
    #[test]
    fn full_permissions_imply_distinct_receivers() {
        let full = "field v: Int
            method m(a: Ref, b: Ref)
              requires acc(a.v) && acc(b.v)
              ensures acc(a.v) && acc(b.v) && a != b
            { }";
        let mixed = "field v: Int
            method m(a: Ref, b: Ref)
              requires acc(a.v) && acc(b.v, 1/2)
              ensures acc(a.v) && acc(b.v, 1/2) && a != b
            { }";
        for backend in [Backend::Destabilized, Backend::StableBaseline] {
            assert!(verify(full, backend).is_ok(), "{:?}", backend);
            assert!(verify(mixed, backend).is_ok(), "{:?}", backend);
        }
    }

    /// Permissions that sum to at most 1 may alias, and a chunk that
    /// was exhaled no longer separates anything: neither yields a
    /// disequality.
    #[test]
    fn compatible_permissions_imply_nothing() {
        let halves = "field v: Int
            method m(a: Ref, b: Ref)
              requires acc(a.v, 1/2) && acc(b.v, 1/2)
              ensures acc(a.v, 1/2) && acc(b.v, 1/2) && a != b
            { }";
        let exhaled = "field v: Int
            method m(a: Ref, b: Ref)
              requires acc(a.v)
              ensures true
            { exhale acc(a.v); inhale acc(b.v); assert a != b }";
        let other_field = "field v: Int
            field w: Int
            method m(a: Ref, b: Ref)
              requires acc(a.v) && acc(b.w)
              ensures a != b
            { }";
        for backend in [Backend::Destabilized, Backend::StableBaseline] {
            for src in [halves, exhaled, other_field] {
                assert!(verify(src, backend).is_err(), "{:?}: {}", backend, src);
            }
        }
    }
}
