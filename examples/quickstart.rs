//! Quickstart: the destabilized logic in five minutes.
//!
//! Run with `cargo run -p daenerys --example quickstart`.
//!
//! Walks the three layers: (1) unstable assertions and stabilization in
//! the base logic, (2) a verified Hoare triple validated by monitored
//! execution, (3) a Viper-style method checked by the IDF verifier.

use daenerys::idf::{parse_program, Backend, SessionHost, Verdict, VerifierConfig};
use daenerys::logic::{check_stable, entails, Assert, Term, UniverseSpec};
use daenerys::proglog::{rules, validate, ForkPolicy};
use daenerys_algebra::Q;
use daenerys_heaplang::{Loc, Val};

fn main() {
    println!("== 1. Unstable assertions and ⌊stabilization⌋ ==\n");
    let uni = UniverseSpec::tiny().build();
    let l = Term::loc(Loc(0));

    // The heap-dependent fact `!l = 1` — Viper's `x.f == 1` — is not
    // stable: the environment may own the cell and change it.
    let read = Assert::read_eq(l.clone(), Term::int(1));
    println!(
        "  `!ℓ = 1` stable?            {:?}",
        check_stable(&read, &uni, 1).is_ok()
    );

    // Owning a fraction pins the value: the conjunction is stable.
    let pinned = Assert::sep(
        Assert::points_to_frac(l.clone(), Q::HALF, Term::int(1)),
        read.clone(),
    );
    println!(
        "  `ℓ ↦½ 1 ∗ !ℓ = 1` stable?   {:?}",
        check_stable(&pinned, &uni, 1).is_ok()
    );

    // And the points-to *entails* the heap-dependent fact — the
    // hallmark destabilized rule.
    let half = Assert::points_to_frac(l.clone(), Q::HALF, Term::int(1));
    println!(
        "  ℓ ↦½ 1 ⊢ ⌜!ℓ = 1⌝?          {:?}",
        entails(&half, &read, &uni, 1).is_ok()
    );

    // Permission introspection is non-monotone but stable.
    let perm = Assert::PermEq(l, Q::HALF);
    println!(
        "  `perm(ℓ) = ½` stable?       {:?}\n",
        check_stable(&perm, &uni, 1).is_ok()
    );

    println!("== 2. A verified triple, validated by monitored execution ==\n");
    // {l ↦ 0} l <- 1 {x. ⌜x = ()⌝ ∧ l ↦ 1}, via the WP kernel.
    let triple = rules::wp_store(Loc(0), Val::int(0), Val::int(1), "x");
    println!("  kernel derivation: {}", triple);
    let report = validate(triple.triple(), &uni, 10_000, ForkPolicy::Forbid);
    println!(
        "  adequacy: {} model(s) executed, {} failure(s)\n",
        report.models,
        report.failures.len()
    );

    println!("== 3. The IDF verifier (both backends) ==\n");
    let program = parse_program(
        r#"
        field val: Int
        method inc(c: Ref)
          requires acc(c.val)
          ensures acc(c.val) && c.val == old(c.val) + 1
        { c.val := c.val + 1 }
        "#,
    )
    .expect("parses");
    for backend in [Backend::Destabilized, Backend::StableBaseline] {
        let host = SessionHost::new(backend, VerifierConfig::default());
        let outcome = host.session().verify_program(&program);
        let Verdict::Verified(s) = &outcome.verdicts["inc"] else {
            panic!("inc does not verify: {}", outcome.verdicts["inc"]);
        };
        println!(
            "  {:?}: {} obligations, {} solver queries, {} witnesses",
            backend, s.obligations, s.solver_queries, s.witnesses
        );
    }
    println!("\nThe destabilized backend states `c.val` directly; the stable");
    println!("baseline pays witnesses for every heap read in the spec.");
}
