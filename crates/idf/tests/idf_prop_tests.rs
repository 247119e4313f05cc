//! Property tests for the IDF front-end: printer/parser round-trips and
//! verifier robustness (no panics on arbitrary well-formed programs).

use daenerys_algebra::Q;
use daenerys_idf::{
    diverging_program, interface_fingerprint, method_fingerprint, parse_program, Answer, Assertion,
    Backend, Budget, BudgetAxis, Expr, FaultKind, FaultPlan, Method, Op, Program, SessionHost,
    Solver, Sort, Stmt, Sym, Term, TermArena, TermId, Type, Verdict, VerifierConfig,
};
use daenerys_obs::{ClockKind, Event, MemorySink, TraceHandle};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Once};

#[path = "support/query_stream.rs"]
mod query_stream;
use query_stream::{arb_query_stream, entails, intern};

/// Quiets the default panic hook for injected-fault payloads so the
/// chaos property below does not spray backtraces; real panics still
/// print.
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

fn arb_expr() -> impl Strategy<Value = Expr> {
    let var = prop_oneof![Just("a"), Just("b"), Just("n")].prop_map(Expr::var);
    let leaf = prop_oneof![
        (-8i64..=8).prop_map(Expr::Int),
        any::<bool>().prop_map(Expr::Bool),
        var.clone(),
        var.clone().prop_map(|v| Expr::field(v, "v")),
        var.clone()
            .prop_map(|v| Expr::Old(Box::new(Expr::field(v, "v")), daenerys_idf::Span::NONE)),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(Op::Add),
                    Just(Op::Sub),
                    Just(Op::Mul),
                    Just(Op::Eq),
                    Just(Op::Ne),
                    Just(Op::Lt),
                    Just(Op::Le),
                    Just(Op::Gt),
                    Just(Op::Ge),
                    Just(Op::And),
                    Just(Op::Or),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::Cond(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
        ]
    })
}

fn arb_assertion() -> impl Strategy<Value = Assertion> {
    let acc = prop_oneof![Just("a"), Just("b")]
        .prop_map(|x| Assertion::Acc(Expr::var(x), "v".to_string(), Q::HALF));
    let leaf = prop_oneof![arb_expr().prop_map(Assertion::Expr), acc];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Assertion::and(a, b)),
            (arb_expr(), inner.clone()).prop_map(|(c, a)| Assertion::Implies(c, Box::new(a))),
        ]
    })
    // The printer round-trips canonical assertions (see
    // `Assertion::normalize`).
    .prop_map(|a| a.normalize())
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let target = prop_oneof![Just("t"), Just("r")];
    let recv = prop_oneof![Just("a"), Just("b")].prop_map(Expr::var);
    let leaf = prop_oneof![
        (target.clone(), arb_expr()).prop_map(|(x, e)| Stmt::Assign(x.to_string(), e)),
        (recv.clone(), arb_expr()).prop_map(|(r, e)| Stmt::FieldWrite(r, "v".to_string(), e)),
        arb_assertion().prop_map(Stmt::Inhale),
        arb_assertion().prop_map(Stmt::Exhale),
        arb_assertion().prop_map(Stmt::Assert),
        (target, arb_expr()).prop_map(|(x, e)| Stmt::VarDecl(x.to_string(), Type::Int, e)),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (
                arb_expr(),
                proptest::collection::vec(inner.clone(), 1..3),
                proptest::collection::vec(inner.clone(), 0..2)
            )
                .prop_map(|(c, t, e)| Stmt::If(c, t, e)),
            (
                arb_expr(),
                arb_assertion(),
                proptest::collection::vec(inner.clone(), 1..3)
            )
                .prop_map(|(c, i, b)| Stmt::While(c, i, b)),
        ]
    })
}

fn arb_program() -> impl Strategy<Value = Program> {
    (
        proptest::collection::vec(arb_stmt(), 0..5),
        arb_assertion(),
        arb_assertion(),
    )
        .prop_map(|(body, requires, ensures)| {
            Program::new(
                vec![("v".to_string(), Type::Int)],
                vec![Method {
                    name: "m".to_string(),
                    params: vec![
                        ("a".to_string(), Type::Ref),
                        ("b".to_string(), Type::Ref),
                        ("n".to_string(), Type::Int),
                    ],
                    returns: vec![("r".to_string(), Type::Int)],
                    requires,
                    ensures,
                    body: Some(body),
                }],
            )
        })
}

/// An arbitrary fault aimed at the chaos target method.
fn arb_fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        (0usize..8).prop_map(FaultKind::SolverUnknownAfter),
        prop_oneof![
            Just(BudgetAxis::Deadline),
            Just(BudgetAxis::SolverFuel),
            Just(BudgetAxis::States),
            Just(BudgetAxis::Terms),
        ]
        .prop_map(FaultKind::ExhaustBudget),
        (0usize..4).prop_map(FaultKind::PanicAtState),
    ]
}

/// A fault plan of 1–3 faults, all aimed at method `b`.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    proptest::collection::vec(arb_fault_kind(), 1..4).prop_map(|kinds| {
        let mut plan = FaultPlan::none();
        for kind in kinds {
            plan.push("b", kind);
        }
        plan
    })
}

/// A per-method budget over the deterministic axes only (fuel, states,
/// terms — never the wall clock), each axis possibly unlimited.
fn arb_budget() -> impl Strategy<Value = Budget> {
    (
        proptest::option::of(1u64..64),
        proptest::option::of(1u64..16),
        proptest::option::of(1u64..256),
    )
        .prop_map(|(fuel, states, terms)| Budget {
            deadline_ms: None,
            solver_fuel: fuel,
            max_states: states,
            max_terms: terms,
        })
}

/// Every method's verdict, from a storeless session.
fn verdicts(p: &Program, backend: Backend, config: VerifierConfig) -> BTreeMap<String, Verdict> {
    SessionHost::new(backend, config)
        .session()
        .verify_program(p)
        .verdicts
}

/// Verifies `p` at `threads` workers, projected to each method's
/// definite verdict (`Some(true)` verified, `Some(false)` failed, `None`
/// indefinite) and its failed obligations.
fn verdicts_at(
    p: &Program,
    threads: usize,
) -> Vec<(String, Option<bool>, Vec<daenerys_idf::Obligation>)> {
    let config = VerifierConfig {
        threads,
        ..VerifierConfig::default()
    };
    verdicts(p, Backend::Destabilized, config)
        .into_iter()
        .map(|(name, verdict)| {
            let definite = match &verdict {
                Verdict::Verified(_) => Some(true),
                Verdict::Failed { .. } => Some(false),
                _ => None,
            };
            let failures = match &verdict {
                Verdict::Failed { failures, .. } | Verdict::Unknown { failures, .. } => {
                    failures.clone()
                }
                _ => Vec::new(),
            };
            (name, definite, failures)
        })
        .collect()
}

/// On a program entirely inside the linear fragment, verdicts are the
/// same at 1, 2, and 8 threads, including for a method that definitely
/// fails.
#[test]
fn linear_program_verdicts_are_thread_transparent() {
    let p = parse_program(
        "field val: Int
         method ok(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1
         { c.val := 1 }
         method bad(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 2
         { c.val := 3 }
         method gap(x: Int, y: Int) returns (r: Int)
           requires x < y ensures r >= 1
         { if (x + 1 < y) { r := y - x } else { r := 1 } }",
    )
    .unwrap();
    let baseline = verdicts_at(&p, 1);
    assert!(
        baseline
            .iter()
            .any(|(name, _, failures)| name == "bad" && !failures.is_empty()),
        "the failing method must fail, or the comparison checks nothing"
    );
    for threads in [2usize, 8] {
        assert_eq!(
            baseline,
            verdicts_at(&p, threads),
            "verdicts diverge at threads={}",
            threads
        );
    }
}

/// Program level: on the exponential diverging family — the workload
/// the CDCL search was built to collapse — every method verifies, at
/// every thread count.
#[test]
fn diverging_programs_verify_at_every_thread_count() {
    for k in [1usize, 2, 4, 6] {
        let p = parse_program(&diverging_program(k)).unwrap();
        let expected: Vec<(String, Option<bool>, Vec<daenerys_idf::Obligation>)> =
            ["after", "before", "diverge"]
                .iter()
                .map(|name| (name.to_string(), Some(true), Vec::new()))
                .collect();
        for threads in [1usize, 2, 8] {
            assert_eq!(
                expected,
                verdicts_at(&p, threads),
                "verdicts diverge at k={}, threads={}",
                k,
                threads
            );
        }
    }
}

/// A fresh solver with the query stream's symbols `Sym(0)..Sym(2)`
/// declared `Int`.
fn stream_solver() -> Solver {
    let mut solver = Solver::new();
    for i in 0..3 {
        solver.declare(Sym(i), Sort::Int);
    }
    solver
}

/// A logically equivalent spelling of `e` that intern-time
/// canonicalization must undo: the operands of `+`, `*` and `==` swap,
/// and each `<` and `<=` gains a double negation.
fn mirrored(e: &Expr) -> Expr {
    let twice_negated = |x: Expr| Expr::Not(Box::new(Expr::Not(Box::new(x))));
    match e {
        Expr::Bin(op @ (Op::Add | Op::Mul | Op::Eq), a, b) => {
            Expr::bin(*op, mirrored(b), mirrored(a))
        }
        Expr::Bin(op @ (Op::Lt | Op::Le), a, b) => {
            twice_negated(Expr::bin(*op, mirrored(a), mirrored(b)))
        }
        Expr::Bin(op, a, b) => Expr::bin(*op, mirrored(a), mirrored(b)),
        Expr::Not(a) => Expr::Not(Box::new(mirrored(a))),
        leaf => leaf.clone(),
    }
}

/// Rebuilds the term `t` node by node, leaves first, through the
/// arena's public constructors.
fn rebuilt(arena: &mut TermArena, t: TermId) -> TermId {
    type Ctor = fn(&mut TermArena, TermId, TermId) -> TermId;
    fn binary(arena: &mut TermArena, ctor: Ctor, a: TermId, b: TermId) -> TermId {
        let (a, b) = (rebuilt(arena, a), rebuilt(arena, b));
        ctor(arena, a, b)
    }
    match arena.node(t) {
        Term::Sym(s) => arena.sym(s),
        Term::Int(n) => arena.int(n),
        Term::Bool(b) => arena.bool(b),
        Term::Null => arena.null(),
        Term::Not(a) => {
            let a = rebuilt(arena, a);
            arena.not(a)
        }
        Term::Ite(c, a, b) => {
            let (c, a, b) = (rebuilt(arena, c), rebuilt(arena, a), rebuilt(arena, b));
            arena.ite(c, a, b)
        }
        Term::Add(a, b) => binary(arena, TermArena::add, a, b),
        Term::Sub(a, b) => binary(arena, TermArena::sub, a, b),
        Term::Mul(a, b) => binary(arena, TermArena::mul, a, b),
        Term::Eq(a, b) => binary(arena, TermArena::eq, a, b),
        Term::Lt(a, b) => binary(arena, TermArena::lt, a, b),
        Term::Le(a, b) => binary(arena, TermArena::le, a, b),
        Term::And(a, b) => binary(arena, TermArena::and, a, b),
        Term::Or(a, b) => binary(arena, TermArena::or, a, b),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential: the state one solver carries across queries — its
    /// query memo — never changes an answer. The
    /// stream is replayed twice on one solver, so the second pass is
    /// answered from the memo, and every answer must match a fresh
    /// solver's for that query alone.
    #[test]
    fn solver_cache_is_answer_transparent(stream in arb_query_stream()) {
        let mut shared = stream_solver();
        let mut arena = TermArena::new();
        for (pc, goal) in stream.iter().chain(stream.iter()) {
            let got = entails(&mut shared, &mut arena, pc, goal);
            let fresh = entails(&mut stream_solver(), &mut TermArena::new(), pc, goal);
            prop_assert_eq!(got, fresh, "solver state changed answer for pc={:?}, goal={:?}", pc, goal);
        }
        // The replayed pass must have been served from the memo.
        prop_assert!(shared.cache_hits >= stream.len());
    }

    /// The memo is keyed by the normalized path condition: reordering
    /// its conditions or repeating one gets the same answer, from the
    /// memo, without searching again.
    #[test]
    fn path_condition_order_is_answer_transparent(stream in arb_query_stream()) {
        let mut solver = stream_solver();
        let mut arena = TermArena::new();
        for (pc, goal) in &stream {
            let first = entails(&mut solver, &mut arena, pc, goal);
            let mut reordered: Vec<Expr> = pc.iter().rev().cloned().collect();
            reordered.extend(pc.first().cloned());
            let (hits, branches) = (solver.cache_hits, solver.branches);
            let again = entails(&mut solver, &mut arena, &reordered, goal);
            prop_assert_eq!(first, again, "reordering changed answer for pc={:?}, goal={:?}", pc, goal);
            prop_assert_eq!(solver.cache_hits, hits + 1, "reordered pc missed the memo: {:?}", reordered);
            prop_assert_eq!(solver.branches, branches, "a memo hit must not search");
        }
    }

    /// Differential: intern-time canonicalization makes an answer a
    /// function of the formula, not of its spelling. A mirrored
    /// spelling interns to the very same term in one arena; answered by
    /// a fresh solver over a fresh arena, where the swapped operands get
    /// other ids and so may be oriented the other way, it gets the same
    /// answer.
    #[test]
    fn canonicalization_is_answer_transparent(stream in arb_query_stream()) {
        let mut solver = stream_solver();
        let mut arena = TermArena::new();
        for (pc, goal) in &stream {
            for e in pc.iter().chain(std::iter::once(goal)) {
                let id = intern(&mut arena, e);
                prop_assert_eq!(intern(&mut arena, &mirrored(e)), id, "mirror of {:?} interned apart", e);
            }
            let mirrored_pc: Vec<Expr> = pc.iter().map(mirrored).collect();
            let got = entails(&mut solver, &mut arena, pc, goal);
            let spelled = entails(&mut stream_solver(), &mut TermArena::new(), &mirrored_pc, &mirrored(goal));
            prop_assert_eq!(
                got, spelled,
                "spelling changed answer for pc={:?}, goal={:?}", pc, goal
            );
        }
    }

    /// Canonicalization is idempotent: rebuilding an interned term
    /// through the constructors lands on the same term.
    #[test]
    fn canonical_terms_are_fixed_points(stream in arb_query_stream()) {
        let mut arena = TermArena::new();
        for (pc, goal) in &stream {
            for e in pc.iter().chain(std::iter::once(goal)) {
                let id = intern(&mut arena, e);
                let back = rebuilt(&mut arena, id);
                prop_assert_eq!(back, id, "{:?} rebuilt as {}", e, arena.display(back));
            }
        }
    }

    /// Differential (program level): on arbitrary programs, verdicts
    /// are exactly thread-transparent.
    #[test]
    fn verdicts_are_thread_transparent(p in arb_program()) {
        let baseline = verdicts_at(&p, 1);
        for threads in [2usize, 8] {
            prop_assert_eq!(
                &baseline,
                &verdicts_at(&p, threads),
                "thread count changed verdicts (threads={}) on:\n{}",
                threads, p
            );
        }
    }

    /// The pretty-printer emits source that parses back to the same AST.
    #[test]
    fn program_print_parse_roundtrip(p in arb_program()) {
        let printed = p.to_string();
        let reparsed = parse_program(&printed);
        prop_assert!(reparsed.is_ok(), "unparseable:\n{}", printed);
        prop_assert_eq!(reparsed.unwrap(), p, "roundtrip mismatch:\n{}", printed);
    }

    /// Fingerprints track AST equality exactly. `q` takes each of the
    /// contract parts and the body from either `p` or `other`, so the
    /// pairs are often equal in some parts and not in others: the
    /// method fingerprints agree exactly when the methods are equal,
    /// the interface fingerprints exactly when the interfaces are, and
    /// a print/parse round trip (real spans in place of unknown ones)
    /// moves neither.
    #[test]
    fn method_fingerprints_track_ast_equality(
        p in arb_program(),
        other in arb_program(),
        pick in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let cfg = VerifierConfig::default();
        let (mp, mo) = (&p.methods[0], &other.methods[0]);
        let mut q = p.clone();
        let mq = &mut q.methods[0];
        if pick.0 {
            mq.requires = mo.requires.clone();
        }
        if pick.1 {
            mq.ensures = mo.ensures.clone();
        }
        if pick.2 {
            mq.body = mo.body.clone();
        }
        let fp = |prog: &Program| {
            method_fingerprint(prog, &prog.methods[0], Backend::Destabilized, &cfg)
        };
        let (mp, mq) = (mp, &q.methods[0]);
        prop_assert_eq!(mp == mq, fp(&p) == fp(&q), "p:\n{}\nq:\n{}", p, q);
        let same_interface = mp.requires == mq.requires && mp.ensures == mq.ensures;
        prop_assert_eq!(
            same_interface,
            interface_fingerprint(mp) == interface_fingerprint(mq),
            "p:\n{}\nq:\n{}",
            p,
            q
        );
        let reparsed = parse_program(&p.to_string()).unwrap();
        prop_assert_eq!(fp(&p), fp(&reparsed));
        prop_assert_eq!(
            interface_fingerprint(mp),
            interface_fingerprint(&reparsed.methods[0])
        );
    }

    /// The verifier never panics on arbitrary well-formed programs, and
    /// both backends return the same verdict.
    #[test]
    fn verifier_is_total_and_backends_agree(p in arb_program()) {
        let verifies = |backend| {
            verdicts(&p, backend, VerifierConfig::default())
                .values()
                .all(Verdict::is_verified)
        };
        let rd = verifies(Backend::Destabilized);
        let rb = verifies(Backend::StableBaseline);
        prop_assert_eq!(rd, rb, "backends disagree on:\n{}", p);
    }

    /// Chaos isolation: a random fault plan aimed at one method, under
    /// a random finite budget, always terminates with a full verdict
    /// map and never changes a sibling's verdict — at one worker or
    /// many.
    #[test]
    fn fault_plans_never_change_sibling_verdicts(
        plan in arb_fault_plan(),
        budget in arb_budget(),
        threads in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        quiet_injected_panics();
        let program = parse_program(
            "field val: Int
             method a(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1
             { c.val := 1 }
             method b(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 2
             { c.val := 1; c.val := c.val + 1 }
             method c(c: Ref) requires acc(c.val) ensures acc(c.val)
             { c.val := c.val + 0 }",
        ).unwrap();
        let run = |faults: FaultPlan, threads: usize| -> BTreeMap<String, Verdict> {
            let config = VerifierConfig {
                threads,
                budget,
                faults,
                retry_unknown: false,
                ..VerifierConfig::default()
            };
            verdicts(&program, Backend::Destabilized, config)
                .into_iter()
                .map(|(name, verdict)| (name, verdict.normalized()))
                .collect()
        };
        let clean = run(FaultPlan::none(), 1);
        let faulted = run(plan.clone(), threads);
        prop_assert_eq!(faulted.len(), 3, "verdict map incomplete under {:?}", &plan);
        for sibling in ["a", "c"] {
            prop_assert_eq!(
                &faulted[sibling],
                &clean[sibling],
                "fault plan {:?} (budget {:?}, {} threads) leaked into sibling {}",
                &plan, &budget, threads, sibling
            );
        }
    }

    /// Flight-recorder determinism: under the logical clock, the
    /// merged trace (after timestamp normalization) and the verdict
    /// map are identical at 1, 2, and 8 worker threads, even under
    /// injected faults and finite budgets. The merge path buffers per worker and replays in
    /// program order, so thread scheduling must never show through.
    #[test]
    fn traces_are_deterministic_across_threads(
        plan in arb_fault_plan(),
        budget in arb_budget(),
    ) {
        quiet_injected_panics();
        let program = parse_program(
            "field val: Int
             method a(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1
             { c.val := 1 }
             method b(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 2
             { c.val := 1; c.val := c.val + 1 }
             method c(c: Ref) requires acc(c.val) ensures acc(c.val)
             { c.val := c.val + 0 }",
        ).unwrap();
        let run = |threads: usize| -> (BTreeMap<String, Verdict>, Vec<Event>) {
            let sink = Arc::new(MemorySink::new(1 << 14));
            let config = VerifierConfig {
                threads,
                budget,
                faults: plan.clone(),
                retry_unknown: false,
                trace: TraceHandle::new(sink.clone(), ClockKind::Logical),
                ..VerifierConfig::default()
            };
            let verdicts = verdicts(&program, Backend::Destabilized, config)
                .into_iter()
                .map(|(name, verdict)| (name, verdict.normalized()))
                .collect();
            let events = sink.events().iter().map(Event::normalized).collect();
            (verdicts, events)
        };
        let (verdicts_1, trace_1) = run(1);
        prop_assert!(!trace_1.is_empty(), "enabled trace produced no events");
        for threads in [2usize, 8] {
            let (verdicts_n, trace_n) = run(threads);
            prop_assert_eq!(
                &verdicts_1, &verdicts_n,
                "verdicts diverge at {} threads under {:?}", threads, &plan
            );
            prop_assert_eq!(
                &trace_1, &trace_n,
                "trace diverges at {} threads (budget {:?}) under {:?}",
                threads, &budget, &plan
            );
        }
    }
}
