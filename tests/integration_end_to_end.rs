//! Integration: the full pipeline — IDF source → two static verifiers →
//! HeapLang compilation → concrete execution with contract checking,
//! plus the headline claim that the verdicts of all oracles coincide.

use daenerys::heaplang::Heap;
use daenerys::idf::{
    alloc_object, parse_program, run_and_check, scaling_program, Backend, ConcreteVal, Program,
    SessionHost, Verdict, VerifierConfig, VerifyStats,
};
use std::collections::BTreeMap;

/// Every method's verdict, from a storeless session.
fn verdicts(program: &Program, backend: Backend) -> BTreeMap<String, Verdict> {
    SessionHost::new(backend, VerifierConfig::default())
        .session()
        .verify_program(program)
        .verdicts
}

fn verifies(program: &Program, backend: Backend) -> bool {
    verdicts(program, backend)
        .values()
        .all(Verdict::is_verified)
}

/// Every method's stats; panics unless all of them verify.
fn stats(program: &Program, backend: Backend) -> BTreeMap<String, VerifyStats> {
    verdicts(program, backend)
        .into_iter()
        .map(|(name, verdict)| match verdict {
            Verdict::Verified(s) => (name, s),
            other => panic!("{} did not verify: {}", name, other),
        })
        .collect()
}

/// One program, four oracles, one verdict.
#[test]
fn four_oracles_agree_on_the_swap_program() {
    let src = r#"
        field v: Int
        method swap(a: Ref, b: Ref)
          requires acc(a.v) && acc(b.v)
          ensures acc(a.v) && acc(b.v)
          ensures a.v == old(b.v) && b.v == old(a.v)
        {
          var t: Int := a.v;
          a.v := b.v;
          b.v := t
        }
    "#;
    let program = parse_program(src).unwrap();

    // Oracle 1 & 2: the two static backends.
    assert!(verifies(&program, Backend::Destabilized));
    assert!(verifies(&program, Backend::StableBaseline));

    // Oracle 3: dynamic contract checking on a grid of inputs.
    for x in [-3i64, 0, 7] {
        for y in [-1i64, 4] {
            let mut heap = Heap::new();
            let a = alloc_object(&program, &mut heap, &[x]);
            let b = alloc_object(&program, &mut heap, &[y]);
            let final_heap = run_and_check(
                &program,
                "swap",
                vec![ConcreteVal::Obj(a.clone()), ConcreteVal::Obj(b.clone())],
                heap,
                100_000,
            )
            .unwrap();
            // Oracle 4: direct inspection of the final heap.
            assert_eq!(
                final_heap.get(a.cells[0]),
                Some(&daenerys_heaplang::Val::int(y))
            );
            assert_eq!(
                final_heap.get(b.cells[0]),
                Some(&daenerys_heaplang::Val::int(x))
            );
        }
    }
}

/// The F1 claim at small scale: baseline work grows faster than
/// destabilized work as the number of spec heap reads grows.
#[test]
fn scaling_gap_widens() {
    let mut gaps = Vec::new();
    for n in [2usize, 4, 8] {
        let src = scaling_program(n);
        let program = daenerys::idf::parse_program(&src).unwrap();
        let d = stats(&program, Backend::Destabilized);
        let b = stats(&program, Backend::StableBaseline);
        let ds = &d["bump_all"];
        let bs = &b["bump_all"];
        assert!(bs.obligations > ds.obligations);
        assert!(bs.witnesses >= 2 * n, "expected ≥ {} witnesses", 2 * n);
        gaps.push((bs.obligations + bs.rebinds) as f64 / ds.obligations.max(1) as f64);
    }
    // The relative overhead must not shrink as n grows.
    assert!(
        gaps.windows(2).all(|w| w[1] >= w[0] * 0.95),
        "overhead ratio shrank: {:?}",
        gaps
    );
}

/// A wrong program is rejected by the static verifier AND caught by the
/// dynamic checker — the oracles also agree on failure.
#[test]
fn oracles_agree_on_rejection() {
    let src = r#"
        field v: Int
        method off_by_one(c: Ref)
          requires acc(c.v)
          ensures acc(c.v) && c.v == old(c.v) + 2
        {
          c.v := c.v + 1
        }
    "#;
    let program = parse_program(src).unwrap();
    assert!(!verifies(&program, Backend::Destabilized));
    assert!(!verifies(&program, Backend::StableBaseline));
    let mut heap = Heap::new();
    let c = alloc_object(&program, &mut heap, &[0]);
    let e = run_and_check(
        &program,
        "off_by_one",
        vec![ConcreteVal::Obj(c)],
        heap,
        10_000,
    )
    .unwrap_err();
    assert!(e.0.contains("postcondition"));
}

#[test]
fn full_workspace_smoke() {
    // Touch every crate through the facade in one flow: build a camera
    // element, put it in a world, check an entailment, verify a method,
    // compile and run it.
    use daenerys::algebra::{Frac, Ra, Q};
    use daenerys::logic::{entails, Assert, Term, UniverseSpec};
    use daenerys_heaplang::Loc;

    let half = Frac::new(Q::HALF);
    assert!(half.op(&half).valid());

    let uni = UniverseSpec::tiny().build();
    assert!(entails(
        &Assert::points_to(Term::loc(Loc(0)), Term::int(1)),
        &Assert::read_eq(Term::loc(Loc(0)), Term::int(1)),
        &uni,
        1
    )
    .is_ok());

    let program = parse_program(
        "field v: Int
         method zero(c: Ref)
           requires acc(c.v)
           ensures acc(c.v) && c.v == 0
         { c.v := 0 }",
    )
    .unwrap();
    assert!(verifies(&program, Backend::Destabilized));
    let mut heap = Heap::new();
    let c = alloc_object(&program, &mut heap, &[99]);
    run_and_check(&program, "zero", vec![ConcreteVal::Obj(c)], heap, 10_000).unwrap();
}

/// The semantic bridge: an IDF contract, translated into the Daenerys
/// base logic, holds in the world of the monitored execution — verifier,
/// compiler, monitor, and logic all agree.
#[test]
fn translated_contracts_hold_in_monitored_worlds() {
    use daenerys::idf::{env_of, full_ownership, strip_old, translate_assertion, ConcreteVal};
    use daenerys::logic::{holds, Env, EvalCtx, UniverseSpec, World};

    let src = r#"
        field val: Int
        method bump(c: Ref, n: Int)
          requires acc(c.val) && n >= 0
          ensures acc(c.val) && c.val == old(c.val) + n
        { c.val := c.val + n }
    "#;
    let program = parse_program(src).unwrap();
    assert!(verifies(&program, Backend::Destabilized));

    let mut heap = Heap::new();
    let obj = alloc_object(&program, &mut heap, &[5]);
    let env = env_of(&[
        ("c", ConcreteVal::Obj(obj.clone())),
        ("n", ConcreteVal::Int(3)),
    ]);
    let old_heap = heap.clone();

    // Pre, translated, holds in the pre-world with full ownership.
    let uni = UniverseSpec::tiny().build();
    let ctx = EvalCtx::new(&uni);
    let method = program.method("bump").unwrap().clone();
    let pre = translate_assertion(&program, &env, &method.requires).unwrap();
    let own0 = full_ownership(&heap, &[&obj]);
    assert!(holds(&pre, &World::solo(own0), &Env::new(), 1, &ctx));

    // Execute with the dynamic checker (which already re-checks the
    // contract concretely).
    let final_heap = run_and_check(
        &program,
        "bump",
        vec![ConcreteVal::Obj(obj.clone()), ConcreteVal::Int(3)],
        heap,
        100_000,
    )
    .unwrap();

    // Post, with old() stripped to pre-state values, translated, holds
    // in the final world.
    let stripped = strip_old(&program, &env, &old_heap, &method.ensures).unwrap();
    let post = translate_assertion(&program, &env, &stripped).unwrap();
    let own1 = full_ownership(&final_heap, &[&obj]);
    assert!(holds(&post, &World::solo(own1), &Env::new(), 1, &ctx));
    // Sanity: the value really moved 5 → 8.
    assert_eq!(
        final_heap.get(obj.cells[0]),
        Some(&daenerys_heaplang::Val::int(8))
    );
}
