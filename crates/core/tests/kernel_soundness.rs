//! Experiment T2: every kernel rule is model-checked against the
//! semantic evaluator over finite universes.

use daenerys_core::check::{catalog, corpus, ghost_catalog, verify_catalog};
use daenerys_core::{CameraKind, UniverseSpec};

#[test]
fn all_structural_and_heap_rules_are_sound() {
    let uni = UniverseSpec::tiny().build();
    let derivations = catalog(&corpus());
    assert!(
        derivations.len() > 300,
        "catalog too small: {}",
        derivations.len()
    );
    let reports = verify_catalog(&derivations, &uni, 1);
    let mut all_ok = true;
    for r in &reports {
        if !r.ok() {
            all_ok = false;
            eprintln!(
                "rule {} failed {}/{} instances:",
                r.rule,
                r.instances - r.verified,
                r.instances
            );
            for f in r.failures.iter().take(3) {
                eprintln!("  {}", f);
            }
        }
    }
    assert!(all_ok, "unsound kernel rules detected");
    // Sanity: a healthy number of distinct rules was exercised.
    assert!(
        reports.len() >= 40,
        "only {} rules exercised",
        reports.len()
    );
}

#[test]
fn exclusive_ghost_rules_are_sound() {
    let uni = UniverseSpec::with_ghost(CameraKind::ExclVal).build();
    let reports = verify_catalog(&ghost_catalog(CameraKind::ExclVal), &uni, 1);
    for r in &reports {
        assert!(r.ok(), "rule {} failed: {:?}", r.rule, r.failures);
    }
}

#[test]
fn frac_ghost_rules_are_sound() {
    let uni = UniverseSpec::with_ghost(CameraKind::Frac).build();
    let reports = verify_catalog(&ghost_catalog(CameraKind::Frac), &uni, 1);
    for r in &reports {
        assert!(r.ok(), "rule {} failed: {:?}", r.rule, r.failures);
    }
}

#[test]
fn auth_nat_ghost_rules_are_sound() {
    let uni = UniverseSpec::with_ghost(CameraKind::AuthNat).build();
    let reports = verify_catalog(&ghost_catalog(CameraKind::AuthNat), &uni, 1);
    for r in &reports {
        assert!(r.ok(), "rule {} failed: {:?}", r.rule, r.failures);
    }
}

/// The deliberately-unsound classical rules must indeed fail
/// semantically — the destabilized logic *rejects* them, and this test
/// pins that down.
#[test]
fn classical_rules_fail_without_side_conditions() {
    use daenerys_algebra::Q;
    use daenerys_core::{entails, Assert, Term};
    use daenerys_heaplang::Loc;
    let uni = UniverseSpec::tiny().build();
    let l = Term::loc(Loc(0));

    // □P ⊢ P fails for P = emp: the core of a nonempty resource is
    // empty, so □emp holds while emp does not (the logic is not affine).
    assert!(entails(&Assert::persistently(Assert::Emp), &Assert::Emp, &uni, 1).is_err());

    // P ∗ ⊤ ⊢ P fails for introspective P: owning 1 splits into a half
    // satisfying perm(l) = 1/2 plus a ⊤-absorbed remainder.
    let perm = Assert::PermEq(l.clone(), Q::HALF);
    assert!(entails(&Assert::sep(perm.clone(), Assert::truth()), &perm, &uni, 1).is_err());

    // Framing an *unstable* assertion around an update is unsound:
    // read ∗ |==> pt(0) ⊬ |==> (read ∗ pt(0)) — where the update
    // discards the permission backing the read... construct with
    // discard: P = ⌜!l = 1⌝ (true via frame), Q = l ↦□ 1 update.
    let read = Assert::read_eq(l.clone(), Term::int(1));
    let pt = Assert::points_to(l.clone(), Term::int(1));
    let lhs = Assert::sep(read.clone(), Assert::bupd(pt.clone()));
    let rhs = Assert::bupd(Assert::sep(read, pt.clone()));
    // (This particular instance may or may not have a counterexample in
    // the tiny universe; the *rule schema* is rejected by the kernel.)
    let _ = entails(&lhs, &rhs, &uni, 1);
    assert!(
        daenerys_core::proof::update::bupd_frame(Assert::read_eq(l, Term::int(1)), pt).is_err()
    );
}

/// F4's catalog (`tables --f4`): its derivation and rule-application
/// counts are the figure's workload size, so a change to the corpus or
/// the rule set shows up here before it moves the throughput column.
#[test]
fn f4_catalog_has_3042_derivations_of_3201_rule_applications() {
    let derivations = catalog(&corpus());
    let steps: usize = derivations.iter().map(|d| d.steps()).sum();
    assert_eq!((derivations.len(), steps), (3042, 3201));
    assert!(derivations.iter().all(|d| d.steps() >= 1));
}

/// F4's entailment row: `l ↦½ 1 ∧ (!l = 1)^d ⊢ !l = 1` holds at every
/// timed depth, and its converse does not (a read fact owns nothing).
#[test]
fn f4_entailment_holds_at_every_depth() {
    use daenerys_algebra::Q;
    use daenerys_core::{entails, Assert, Term};
    use daenerys_heaplang::Loc;
    let uni = UniverseSpec::tiny().build();
    let l = Term::loc(Loc(0));
    let half = Assert::points_to_frac(l.clone(), Q::HALF, Term::int(1));
    let q = Assert::read_eq(l, Term::int(1));
    for depth in [1usize, 2, 4] {
        let mut p = half.clone();
        for _ in 0..depth {
            p = Assert::and(p, q.clone());
        }
        assert!(entails(&p, &q, &uni, 1).is_ok(), "depth {}", depth);
    }
    assert!(entails(&q, &half, &uni, 1).is_err());
}
