//! Chaos suite: the verifier pipeline under budgets, deadlines,
//! injected faults, and internal panics.
//!
//! The resilience contract under test (DESIGN.md §8):
//!
//! 1. `verify_all` always terminates, whatever the [`FaultPlan`].
//! 2. A fault targeting one method never changes a sibling's verdict —
//!    siblings are bit-identical (modulo environment-dependent stats)
//!    to a fault-free run, at any thread count.
//! 3. Budget exhaustion degrades to a deterministic
//!    `Verdict::Unknown { BudgetExhausted, .. }`, never a hang or a
//!    spurious `Verified`/`Failed`.
//! 4. An internal panic degrades that one method to
//!    `Verdict::CrashedInternal` while the rest of the program
//!    completes.

use daenerys::idf::{
    diverging_program, parse_program, Backend, Budget, BudgetAxis, FaultKind, FaultPlan,
    UnknownReason, Verdict, Verifier, VerifierConfig,
};
use std::collections::BTreeMap;
use std::sync::Once;

/// A three-method program: two well-behaved siblings around one method
/// whose single obligation costs the solver far more than the 64 units
/// of fuel used below, while staying small enough that the fault-free
/// reference runs stay fast in debug builds.
const DIVERGE_K: usize = 7;

fn diverging() -> daenerys::idf::Program {
    parse_program(&diverging_program(DIVERGE_K)).expect("diverging program parses")
}

/// A small always-verifying program for fault-targeting tests.
fn trio() -> daenerys::idf::Program {
    parse_program(
        "field val: Int
         method a(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1
         { c.val := 1 }
         method b(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 2
         { c.val := 1; c.val := c.val + 1 }
         method c(c: Ref) requires acc(c.val) ensures acc(c.val)
         { c.val := c.val + 0 }",
    )
    .expect("trio parses")
}

/// Quiets the default panic hook for payloads produced by injected
/// faults, so chaos tests don't spray backtraces on stderr. Installed
/// once per test binary; real (non-injected) panics still print.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

fn verdicts_with(
    program: &daenerys::idf::Program,
    config: VerifierConfig,
) -> BTreeMap<String, Verdict> {
    let mut v = Verifier::with_config(program, Backend::Destabilized, config);
    v.verify_all_verdicts()
}

fn normalized(m: &BTreeMap<String, Verdict>) -> BTreeMap<String, Verdict> {
    m.iter().map(|(k, v)| (k.clone(), v.normalized())).collect()
}

// ---------------------------------------------------------------------
// Budget exhaustion: every axis degrades to a deterministic Unknown.
// ---------------------------------------------------------------------

fn exhausted_axis(verdict: &Verdict) -> Option<BudgetAxis> {
    match verdict {
        Verdict::Unknown {
            reason: UnknownReason::BudgetExhausted { axis, .. },
            ..
        } => Some(*axis),
        _ => None,
    }
}

#[test]
fn solver_fuel_exhaustion_yields_unknown() {
    let program = diverging();
    let config = VerifierConfig {
        budget: Budget::unlimited().with_solver_fuel(64),
        retry_unknown: false,
        ..VerifierConfig::default()
    };
    let verdicts = verdicts_with(&program, config);
    assert_eq!(
        exhausted_axis(&verdicts["diverge"]),
        Some(BudgetAxis::SolverFuel)
    );
    assert!(verdicts["before"].is_verified());
    assert!(verdicts["after"].is_verified());
}

#[test]
fn state_budget_exhaustion_yields_unknown() {
    let program = trio();
    let config = VerifierConfig {
        budget: Budget::unlimited().with_max_states(1),
        retry_unknown: false,
        ..VerifierConfig::default()
    };
    let verdicts = verdicts_with(&program, config);
    // Method `b` has two statements, so a one-state budget trips there.
    assert_eq!(exhausted_axis(&verdicts["b"]), Some(BudgetAxis::States));
}

#[test]
fn term_budget_exhaustion_yields_unknown() {
    let program = trio();
    let config = VerifierConfig {
        budget: Budget::unlimited().with_max_terms(0),
        retry_unknown: false,
        ..VerifierConfig::default()
    };
    let verdicts = verdicts_with(&program, config);
    for (name, verdict) in &verdicts {
        assert_eq!(
            exhausted_axis(verdict),
            Some(BudgetAxis::Terms),
            "{} should exhaust the term budget, got {}",
            name,
            verdict
        );
    }
}

#[test]
fn zero_deadline_yields_unknown_not_hang() {
    let program = diverging();
    let config = VerifierConfig {
        budget: Budget::unlimited().with_deadline_ms(0),
        retry_unknown: false,
        ..VerifierConfig::default()
    };
    let verdicts = verdicts_with(&program, config);
    for (name, verdict) in &verdicts {
        assert_eq!(
            exhausted_axis(verdict),
            Some(BudgetAxis::Deadline),
            "{} should exhaust the deadline, got {}",
            name,
            verdict
        );
    }
}

/// Deadline promptness under the CDCL core: a deliberately hard query
/// (`diverging_program(256)` runs for seconds unbudgeted, even in a
/// release build) must come back `Unknown` within a small multiple of
/// its deadline. This only holds because the solver polls the
/// deadline *inside* its conflict loop — a check at query boundaries
/// alone would run the full search before noticing the overrun.
#[test]
fn deadline_is_enforced_inside_the_conflict_loop() {
    const DEADLINE_MS: u64 = 100;
    // Far below the unpolled runtime in either build profile, far above
    // the deadline plus poll granularity (one wall-clock read per 64
    // conflicts).
    const PROMPTNESS_BOUND_MS: u128 = 3_000;
    let program = parse_program(&diverging_program(256)).expect("diverging program parses");
    let config = VerifierConfig {
        budget: Budget::unlimited().with_deadline_ms(DEADLINE_MS),
        retry_unknown: false,
        threads: 1,
        ..VerifierConfig::default()
    };
    let mut v = Verifier::with_config(&program, Backend::Destabilized, config);
    let started = std::time::Instant::now();
    let verdict = v.verify_method_verdict("diverge");
    let elapsed = started.elapsed();
    assert_eq!(
        exhausted_axis(&verdict),
        Some(BudgetAxis::Deadline),
        "hard query should exhaust the deadline, got {}",
        verdict
    );
    assert!(
        elapsed.as_millis() < PROMPTNESS_BOUND_MS,
        "deadline of {} ms took {:?} to surface — the conflict loop is not polling",
        DEADLINE_MS,
        elapsed
    );
}

#[test]
fn unlimited_budget_still_verifies_everything() {
    let program = trio();
    let verdicts = verdicts_with(&program, VerifierConfig::default());
    assert!(verdicts.values().all(Verdict::is_verified));
}

// ---------------------------------------------------------------------
// The acceptance demo: a diverging solver query completes with that
// method Unknown and siblings bit-identical to a fault-free run at
// 1, 2, and 8 threads.
// ---------------------------------------------------------------------

#[test]
fn diverging_method_unknown_siblings_bit_identical_across_threads() {
    let program = diverging();
    // Fault-free reference run (unlimited budget, single thread).
    let reference = normalized(&verdicts_with(&program, VerifierConfig::default()));
    assert!(reference["diverge"].is_verified());

    for threads in [1, 2, 8] {
        let config = VerifierConfig {
            threads,
            budget: Budget::unlimited().with_solver_fuel(64),
            retry_unknown: false,
            ..VerifierConfig::default()
        };
        let budgeted = normalized(&verdicts_with(&program, config));
        assert_eq!(
            exhausted_axis(&budgeted["diverge"]),
            Some(BudgetAxis::SolverFuel),
            "diverge should be Unknown at {} threads",
            threads
        );
        for sibling in ["before", "after"] {
            assert_eq!(
                budgeted[sibling], reference[sibling],
                "sibling {} changed at {} threads",
                sibling, threads
            );
        }
    }
}

#[test]
fn budgeted_verdicts_are_thread_count_invariant() {
    let program = diverging();
    let reference = {
        let config = VerifierConfig {
            budget: Budget::unlimited().with_solver_fuel(64),
            retry_unknown: false,
            ..VerifierConfig::default()
        };
        normalized(&verdicts_with(&program, config))
    };
    for threads in [2, 8] {
        let config = VerifierConfig {
            threads,
            budget: Budget::unlimited().with_solver_fuel(64),
            retry_unknown: false,
            ..VerifierConfig::default()
        };
        assert_eq!(
            normalized(&verdicts_with(&program, config)),
            reference,
            "budgeted verdicts differ at {} threads",
            threads
        );
    }
}

// ---------------------------------------------------------------------
// Fault injection: solver Unknowns, forced exhaustion, panics.
// ---------------------------------------------------------------------

#[test]
fn injected_solver_unknown_degrades_only_target() {
    let program = trio();
    let config = VerifierConfig {
        faults: FaultPlan::none().inject("b", FaultKind::SolverUnknownAfter(0)),
        retry_unknown: false,
        ..VerifierConfig::default()
    };
    let verdicts = verdicts_with(&program, config);
    assert!(
        matches!(
            verdicts["b"],
            Verdict::Unknown { .. } | Verdict::Failed { .. }
        ),
        "b should degrade, got {}",
        verdicts["b"]
    );
    assert!(verdicts["a"].is_verified());
    assert!(verdicts["c"].is_verified());
}

#[test]
fn injected_exhaustion_reports_the_requested_axis() {
    let program = trio();
    for axis in [
        BudgetAxis::Deadline,
        BudgetAxis::SolverFuel,
        BudgetAxis::States,
        BudgetAxis::Terms,
    ] {
        let config = VerifierConfig {
            faults: FaultPlan::none().inject("a", FaultKind::ExhaustBudget(axis)),
            retry_unknown: false,
            ..VerifierConfig::default()
        };
        let verdicts = verdicts_with(&program, config);
        assert_eq!(
            exhausted_axis(&verdicts["a"]),
            Some(axis),
            "injected {} exhaustion not reported",
            axis
        );
        assert!(verdicts["b"].is_verified());
        assert!(verdicts["c"].is_verified());
    }
}

#[test]
fn injected_panic_is_contained_to_its_method() {
    quiet_injected_panics();
    let program = trio();
    let reference = normalized(&verdicts_with(&program, VerifierConfig::default()));
    for threads in [1, 2, 8] {
        let config = VerifierConfig {
            threads,
            faults: FaultPlan::none().inject("b", FaultKind::PanicAtState(1)),
            ..VerifierConfig::default()
        };
        let verdicts = normalized(&verdicts_with(&program, config));
        match &verdicts["b"] {
            Verdict::CrashedInternal { message } => {
                assert!(message.contains("injected fault"), "payload: {}", message);
            }
            other => panic!("b should crash, got {}", other),
        }
        assert_eq!(verdicts["a"], reference["a"]);
        assert_eq!(verdicts["c"], reference["c"]);
    }
}

#[test]
fn verify_all_reports_crash_as_error_not_panic() {
    quiet_injected_panics();
    let program = trio();
    let config = VerifierConfig {
        faults: FaultPlan::none().inject("a", FaultKind::PanicAtState(1)),
        ..VerifierConfig::default()
    };
    let mut v = Verifier::with_config(&program, Backend::Destabilized, config);
    let err = v.verify_all().expect_err("crash surfaces as VerifyError");
    let rendered = err.to_string();
    assert!(
        rendered.contains("internal error verifying a"),
        "rendered: {}",
        rendered
    );
}

#[test]
fn every_fault_plan_terminates_with_full_verdict_map() {
    quiet_injected_panics();
    let program = trio();
    let plans = [
        FaultPlan::none(),
        FaultPlan::none().inject("a", FaultKind::SolverUnknownAfter(2)),
        FaultPlan::none().inject("b", FaultKind::ExhaustBudget(BudgetAxis::SolverFuel)),
        FaultPlan::none().inject("c", FaultKind::PanicAtState(1)),
        FaultPlan::none()
            .inject("a", FaultKind::PanicAtState(1))
            .inject("b", FaultKind::ExhaustBudget(BudgetAxis::Terms))
            .inject("c", FaultKind::SolverUnknownAfter(0)),
    ];
    for plan in plans {
        for threads in [1, 2, 8] {
            let config = VerifierConfig {
                threads,
                faults: plan.clone(),
                retry_unknown: false,
                ..VerifierConfig::default()
            };
            let verdicts = verdicts_with(&program, config);
            assert_eq!(
                verdicts.len(),
                3,
                "verdict map incomplete under plan {:?} at {} threads",
                plan,
                threads
            );
        }
    }
}

// ---------------------------------------------------------------------
// Retry policy: a too-small budget that succeeds after escalation.
// ---------------------------------------------------------------------

#[test]
fn retry_with_escalated_budget_recovers_verified() {
    let program = diverging();
    // Measure what the diverging method actually needs.
    let need = {
        let mut v = Verifier::new(&program, Backend::Destabilized);
        match v.verify_method_verdict("diverge") {
            // Fuel units under the default CDCL core:
            // conflicts + propagated literals.
            Verdict::Verified(s) => (s.solver_conflicts + s.solver_propagations) as u64,
            other => panic!("unlimited run should verify, got {}", other),
        }
    };
    assert!(need > 1);
    // First attempt exhausts (fuel < need); the escalated retry
    // (doubled fuel) succeeds.
    let config = VerifierConfig {
        budget: Budget::unlimited().with_solver_fuel(need - 1),
        retry_unknown: true,
        ..VerifierConfig::default()
    };
    let verdicts = verdicts_with(&program, config);
    match &verdicts["diverge"] {
        Verdict::Verified(s) => assert_eq!(
            s.budget_exhausted, 1,
            "the absorbed first attempt is recorded"
        ),
        other => panic!("retry should recover, got {}", other),
    }
}

#[test]
fn retry_disabled_keeps_the_unknown() {
    let program = diverging();
    let config = VerifierConfig {
        budget: Budget::unlimited().with_solver_fuel(1),
        retry_unknown: false,
        ..VerifierConfig::default()
    };
    let verdicts = verdicts_with(&program, config);
    assert!(verdicts["diverge"].is_budget_exhausted());
}

// ---------------------------------------------------------------------
// Degenerate inputs: bodyless methods and empty programs.
// ---------------------------------------------------------------------

#[test]
fn bodyless_method_is_skipped_by_verify_all_and_definite_alone() {
    let program = parse_program(
        "field val: Int
         method spec_only(c: Ref) requires acc(c.val) ensures acc(c.val)
         method real(c: Ref) requires acc(c.val) ensures acc(c.val)
         { c.val := c.val }",
    )
    .expect("parses");
    for budget in [
        Budget::UNLIMITED,
        Budget::unlimited().with_solver_fuel(1),
        Budget::unlimited().with_max_states(0),
    ] {
        let config = VerifierConfig {
            budget,
            retry_unknown: false,
            ..VerifierConfig::default()
        };
        // `verify_all_verdicts` only schedules methods with bodies —
        // an abstract method is a spec, not a proof obligation.
        let verdicts = verdicts_with(&program, config);
        assert!(!verdicts.contains_key("spec_only"));
        assert!(verdicts.contains_key("real"));
    }
    // Asked about directly, an abstract method is a definite
    // structural failure (never Unknown, never a panic), whatever the
    // budget.
    let mut v = Verifier::with_config(
        &program,
        Backend::Destabilized,
        VerifierConfig {
            budget: Budget::unlimited().with_solver_fuel(1),
            retry_unknown: false,
            ..VerifierConfig::default()
        },
    );
    match v.verify_method_verdict("spec_only") {
        Verdict::Failed { failures, report } => {
            assert!(failures[0].description.contains("abstract"));
            assert!(!report.is_empty(), "even stateless failures get a report");
            assert!(report.first_failure.contains("abstract"));
        }
        other => panic!("abstract method should fail definitely, got {}", other),
    }
    // Same for a method that does not exist at all.
    assert!(matches!(
        v.verify_method_verdict("ghost"),
        Verdict::Failed { .. }
    ));
}

#[test]
fn empty_program_yields_empty_verdict_map() {
    let program = parse_program("field val: Int").expect("parses");
    let config = VerifierConfig {
        budget: Budget::unlimited().with_solver_fuel(1),
        faults: FaultPlan::none().inject("ghost", FaultKind::PanicAtState(0)),
        ..VerifierConfig::default()
    };
    assert!(verdicts_with(&program, config).is_empty());
}

// ---------------------------------------------------------------------
// Proof-failure diagnostics: no undiagnosed failure leaves the pipeline.
// ---------------------------------------------------------------------

/// Every `Failed` or `Unknown` verdict — across the negative corpus,
/// under exhausted budgets, and under injected faults — carries a
/// non-empty `FailureReport` naming the method and its first failure.
#[test]
fn failed_and_unknown_verdicts_always_carry_a_failure_report() {
    quiet_injected_panics();
    fn check(label: &str, verdicts: &BTreeMap<String, Verdict>) -> usize {
        let mut diagnosable = 0;
        for (name, verdict) in verdicts {
            if matches!(verdict, Verdict::Failed { .. } | Verdict::Unknown { .. }) {
                diagnosable += 1;
                let report = verdict.report().expect("Failed/Unknown carry a report");
                assert!(!report.is_empty(), "{}: empty report for {}", label, name);
                assert_eq!(&report.method, name, "{}: report names wrong method", label);
                assert!(
                    !report.first_failure.is_empty(),
                    "{}: blank first failure for {}",
                    label,
                    name
                );
            }
        }
        diagnosable
    }

    // The negative corpus: every case fails at least one method, and
    // every failure is diagnosed.
    for case in daenerys::idf::negative_cases() {
        let program = parse_program(case.source).expect("negative case parses");
        let verdicts = verdicts_with(&program, VerifierConfig::default());
        assert!(
            check(case.name, &verdicts) > 0,
            "{}: negative case produced no diagnosable verdict",
            case.name
        );
    }

    // Budget exhaustion: the diverging method degrades to `Unknown`
    // and its report names the exhausted budget.
    let verdicts = verdicts_with(
        &diverging(),
        VerifierConfig {
            budget: Budget::unlimited().with_solver_fuel(64),
            retry_unknown: false,
            ..VerifierConfig::default()
        },
    );
    assert!(check("fuel budget", &verdicts) > 0);
    let report = verdicts["diverge"]
        .report()
        .expect("exhausted method reports");
    assert!(
        report.first_failure.contains("budget exhausted"),
        "budget report should name the exhaustion, got: {}",
        report.first_failure
    );

    // Injected faults: solver degradation and forced exhaustion on one
    // method are both diagnosed (a contained panic is `CrashedInternal`
    // and intentionally carries no report — the buffer died with it).
    for kind in [
        FaultKind::SolverUnknownAfter(0),
        FaultKind::ExhaustBudget(BudgetAxis::States),
        FaultKind::ExhaustBudget(BudgetAxis::SolverFuel),
    ] {
        let config = VerifierConfig {
            faults: FaultPlan::none().inject("diverge", kind),
            retry_unknown: false,
            ..VerifierConfig::default()
        };
        let verdicts = verdicts_with(&diverging(), config);
        assert!(
            check("injected fault", &verdicts) > 0,
            "{:?}: fault produced no diagnosable verdict",
            kind
        );
    }
}

// ---------------------------------------------------------------------
// Daemon sessions: the sibling-invariance contract survives the wire.
// A method-level fault injected inside the daemon, plus wire chaos on
// *other* concurrent sessions, never changes a sibling method's
// verdict — the clean session's response is bit-identical to a
// fault-free daemon run.
// ---------------------------------------------------------------------

#[test]
fn daemon_sessions_preserve_sibling_invariance() {
    use daenerysd::chaos::WireFaultPlan;
    use daenerysd::client::{Client, RetryPolicy};
    use daenerysd::protocol::{Request, Response};
    use daenerysd::server::{MetricsSnapshot, Server, ServerConfig};
    use std::sync::atomic::Ordering;

    quiet_injected_panics();

    const TRIO: &str = "field val: Int
         method a(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1
         { c.val := 1 }
         method b(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 2
         { c.val := 1; c.val := c.val + 1 }
         method c(c: Ref) requires acc(c.val) ensures acc(c.val)
         { c.val := c.val + 0 }";
    const NOISE: &str = "field val: Int
method noisy(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 9 { c.val := 9 }";

    fn serve(
        faults: FaultPlan,
    ) -> (
        std::net::SocketAddr,
        std::sync::Arc<std::sync::atomic::AtomicBool>,
        std::thread::JoinHandle<MetricsSnapshot>,
    ) {
        let defaults = ServerConfig::default();
        let config = ServerConfig {
            read_poll_ms: 5,
            frame_deadline_ms: 250,
            base: daenerys::idf::exec::VerifierConfig {
                faults,
                retry_unknown: false,
                ..defaults.base
            },
            ..defaults
        };
        let server = Server::bind(config).expect("bind");
        let addr = server.local_addr().expect("addr");
        let flag = server.shutdown_flag();
        (addr, flag, std::thread::spawn(move || server.run()))
    }

    fn wire_verdicts(resp: &Response) -> BTreeMap<String, (String, String)> {
        match resp {
            Response::Ok { verdicts, .. } => verdicts
                .iter()
                .map(|(name, v)| (name.clone(), (v.kind.clone(), v.detail.clone())))
                .collect(),
            other => panic!("expected an ok response, got id {}", other.id()),
        }
    }

    let quick_retry = RetryPolicy {
        max_attempts: 6,
        base_backoff_ms: 5,
        max_backoff_ms: 50,
        seed: 4,
    };

    // Fault-free reference run over the wire.
    let (addr, flag, handle) = serve(FaultPlan::none());
    let clean = Client::new(addr).with_retry(quick_retry);
    let (resp, _) = clean
        .request_with_retry(&Request::new(1, "clean", TRIO))
        .expect("reference request");
    let reference = wire_verdicts(&resp);
    flag.store(true, Ordering::SeqCst);
    assert_eq!(handle.join().expect("server").leaked_sessions, 0);
    assert_eq!(reference["a"].0, "verified");
    assert_eq!(reference["c"].0, "verified");

    // Chaos run: method `b` panics inside the daemon, while a sibling
    // tenant hammers the same daemon through the full wire-fault
    // matrix.
    let (addr, flag, handle) = serve(FaultPlan::none().inject("b", FaultKind::PanicAtState(1)));
    let noisy = Client::new(addr)
        .with_faults(WireFaultPlan::full(5))
        .with_retry(quick_retry);
    let noise_thread = std::thread::spawn(move || {
        for id in 10..18u64 {
            // Outcome irrelevant: this lane exists to stress the
            // daemon's framing and admission while the clean session
            // runs.
            let _ = noisy.request_with_retry(&Request::new(id, "noisy", NOISE));
        }
    });
    let clean = Client::new(addr).with_retry(quick_retry);
    let (resp, _) = clean
        .request_with_retry(&Request::new(2, "clean", TRIO))
        .expect("chaos-run request");
    let under_chaos = wire_verdicts(&resp);
    noise_thread.join().expect("noise lane");
    flag.store(true, Ordering::SeqCst);
    let snap = handle.join().expect("server");
    assert_eq!(
        snap.leaked_sessions, 0,
        "daemon leaked sessions: {:?}",
        snap
    );

    assert_eq!(
        under_chaos["b"].0, "crashed",
        "the injected panic should degrade b: {:?}",
        under_chaos
    );
    for sibling in ["a", "c"] {
        assert_eq!(
            under_chaos[sibling], reference[sibling],
            "sibling {} changed across the wire under chaos",
            sibling
        );
    }
}
