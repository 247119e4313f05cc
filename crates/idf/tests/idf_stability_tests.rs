//! Cross-layer tests for the static stability analyzer: the syntactic
//! classifier against the semantic oracle of `daenerys_core::stability`
//! over the shared translation encoding, plus the verifier-level
//! guarantees of the `stability_skips` fast path and the
//! `deny_unstable` gate.

use daenerys_core::{check_stable, UniverseSpec};
use daenerys_idf::{
    agrees_with_oracle, alloc_object, classify, parse_program, positive_cases, translate_assertion,
    Assertion, Backend, Expr, Op, Program, SessionHost, Span, StabilityClass, TEnv, Verdict,
    VerifierConfig, VerifyStats,
};
use daenerys_idf::{env_of, ConcreteVal};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A program/environment pair with two bound objects (`a`, `b`) over a
/// single `Int` field `v` and an integer `n` — the concrete frame the
/// shared encoding is relative to.
fn setup() -> (Program, TEnv) {
    let prog = parse_program(
        "field v: Int
         method m(a: Ref, b: Ref, n: Int) requires acc(a.v) ensures acc(a.v) { }",
    )
    .unwrap();
    let mut heap = daenerys_heaplang::Heap::new();
    let oa = alloc_object(&prog, &mut heap, &[1]);
    let ob = alloc_object(&prog, &mut heap, &[2]);
    let env = env_of(&[
        ("a", ConcreteVal::Obj(oa)),
        ("b", ConcreteVal::Obj(ob)),
        ("n", ConcreteVal::Int(3)),
    ]);
    (prog, env)
}

/// Generated assertions stay in the translatable fragment: variable
/// receivers, `old`-free, `perm` only in literal comparisons — so every
/// sample round-trips through `translate_assertion` and the syntactic
/// oracle sees exactly what the classifier saw.
fn arb_assertion() -> impl Strategy<Value = Assertion> {
    let rv = prop_oneof![Just("a"), Just("b")];
    let atom = prop_oneof![
        // Heap-free pure facts.
        (-4i64..=4).prop_map(|k| Assertion::Expr(Expr::bin(Op::Ge, Expr::var("n"), Expr::Int(k)))),
        // Heap reads (covered or not depending on surrounding accs).
        (rv.clone(), -4i64..=4).prop_map(|(v, k)| {
            Assertion::Expr(Expr::bin(
                Op::Eq,
                Expr::field(Expr::var(v), "v"),
                Expr::Int(k),
            ))
        }),
        // Permission predicates.
        rv.clone().prop_map(|v| Assertion::acc(Expr::var(v), "v")),
        // Permission introspection in a literal comparison.
        rv.prop_map(|v| {
            Assertion::Expr(Expr::bin(
                Op::Ge,
                Expr::Perm(Box::new(Expr::var(v)), "v".to_string(), Span::NONE),
                Expr::bin(Op::Div, Expr::Int(1), Expr::Int(2)),
            ))
        }),
    ];
    atom.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Assertion::and(p, q)),
            // Guards: a boolean literal or a heap-free comparison.
            (any::<bool>(), inner.clone())
                .prop_map(|(b, p)| Assertion::Implies(Expr::Bool(b), Box::new(p))),
            ((-4i64..=4), inner).prop_map(|(k, p)| {
                Assertion::Implies(Expr::bin(Op::Lt, Expr::var("n"), Expr::Int(k)), Box::new(p))
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The two layers cannot drift: on the shared encoding, a `Stable`
    /// classification forces the syntactic oracle to accept and an
    /// `Unstable` one forces it to reject (`FramedStable` makes no
    /// syntactic claim; see `agrees_with_oracle`).
    #[test]
    fn classifier_agrees_with_semantic_oracle(a in arb_assertion()) {
        let (prog, env) = setup();
        prop_assert!(
            agrees_with_oracle(&prog, &env, &a).unwrap(),
            "classifier/oracle drift on {} (class {})",
            a,
            classify(&a).class
        );
    }

    /// The strongest claim checked semantically: classifier-`Stable`
    /// assertions are stable under *every* frame of the bounded
    /// universe, not just syntactically.
    #[test]
    fn stable_classifications_check_semantically(a in arb_assertion()) {
        let (prog, env) = setup();
        if classify(&a).class == StabilityClass::Stable {
            let p = translate_assertion(&prog, &env, &a).unwrap();
            let uni = UniverseSpec::tiny().build();
            prop_assert!(
                check_stable(&p, &uni, 2).is_ok(),
                "classified stable but semantically unstable: {}",
                a
            );
        }
    }
}

fn verdicts_with(src: &str, backend: Backend, config: VerifierConfig) -> BTreeMap<String, Verdict> {
    let p = parse_program(src).unwrap();
    SessionHost::new(backend, config)
        .session()
        .verify_program(&p)
        .verdicts
        .into_iter()
        .map(|(name, verdict)| (name, verdict.normalized()))
        .collect()
}

/// `--deny-unstable` is answer-transparent on stable-only programs: the
/// whole positive corpus classifies (framed-)stable, so flipping the
/// gate must not move a single verdict — on either backend, at any
/// thread count.
#[test]
fn deny_unstable_is_transparent_on_stable_programs() {
    for case in positive_cases() {
        for backend in [Backend::Destabilized, Backend::StableBaseline] {
            for threads in [1usize, 2, 8] {
                let base = VerifierConfig {
                    threads,
                    ..VerifierConfig::default()
                };
                let off = verdicts_with(case.source, backend, base.clone());
                let on = verdicts_with(
                    case.source,
                    backend,
                    VerifierConfig {
                        deny_unstable: true,
                        ..base
                    },
                );
                assert_eq!(
                    off, on,
                    "{}: verdicts moved under --deny-unstable ({:?}, {} threads)",
                    case.name, backend, threads
                );
            }
        }
    }
}

const SKIPPING: &str = "
    field v: Int
    method bump(c: Ref, n: Int)
      requires acc(c.v) && c.v >= 0 && n >= 0
      ensures acc(c.v) && c.v == old(c.v) + n
    {
      var i: Int := 0;
      while (i < n)
        invariant acc(c.v) && 0 <= i && i <= n && c.v == old(c.v) + i
      {
        c.v := c.v + 1;
        i := i + 1
      }
    }
";

fn stats_at(threads: usize) -> BTreeMap<String, VerifyStats> {
    let config = VerifierConfig {
        threads,
        ..VerifierConfig::default()
    };
    verdicts_with(SKIPPING, Backend::StableBaseline, config)
        .into_iter()
        .map(|(name, verdict)| match verdict {
            Verdict::Verified(s) => (name, s),
            other => panic!("{} did not verify: {}", name, other),
        })
        .collect()
}

/// The skip fast path is deterministic: `stability_skips` is positive
/// on a framed-stable loop program and bit-identical (along with every
/// other normalized counter, cache accounting included) at 1, 2, and 8
/// verification threads.
#[test]
fn stability_skips_are_thread_count_invariant() {
    let one = stats_at(1);
    assert!(
        one["bump"].stability_skips > 0,
        "expected skips on a framed-stable loop: {:?}",
        one["bump"]
    );
    assert_eq!(
        one["bump"].cache_hits + one["bump"].cache_misses,
        one["bump"].solver_queries,
        "cache accounting broken by the skip path"
    );
    for threads in [2usize, 8] {
        assert_eq!(one, stats_at(threads), "drift at {} threads", threads);
    }
}
