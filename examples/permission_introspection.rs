//! Permission introspection and the stable fragment.
//!
//! Run with `cargo run -p daenerys --example permission_introspection`.
//!
//! `perm(x.f)` is the signature *non-monotone* assertion of automated
//! verifiers: it inspects how much permission is currently held, so it
//! cannot exist in a monotone logic like classical Iris. The
//! destabilized logic supports it natively. This example shows (1) its
//! semantic behaviour in the base logic, (2) the syntactic stability
//! judgement, and (3) a Viper-style lending protocol that uses it.

use daenerys::idf::{parse_program, Backend, SessionHost, Verdict, VerifierConfig};
use daenerys::logic::{
    check_stable, entails, stabilize_fast, syntactically_stable, Assert, Term, UniverseSpec,
};
use daenerys_algebra::Q;
use daenerys_heaplang::Loc;

fn main() {
    let uni = UniverseSpec::tiny().build();
    let l = Term::loc(Loc(0));

    println!("== perm introspection in the base logic ==\n");
    let perm_half = Assert::PermEq(l.clone(), Q::HALF);
    let pt_half = Assert::points_to_frac(l.clone(), Q::HALF, Term::int(1));
    let pt_full = Assert::points_to(l.clone(), Term::int(1));

    // Introspection is stable (frame changes cannot alter what *you*
    // hold) ...
    println!(
        "  `perm(ℓ) = ½` stable?                  {}",
        check_stable(&perm_half, &uni, 1).is_ok()
    );
    // ... but non-monotone: it does NOT follow from the *full* chunk.
    println!(
        "  ℓ ↦½ 1 ⊢ perm(ℓ) = ½ ?                 {}",
        entails(&pt_half, &perm_half, &uni, 1).is_ok()
    );
    println!(
        "  ℓ ↦  1 ⊢ perm(ℓ) = ½ ?                 {}  (non-monotonicity)",
        entails(&pt_full, &perm_half, &uni, 1).is_ok()
    );
    // Monotone bounds do follow from both.
    let perm_ge = Assert::PermGe(l.clone(), Q::HALF);
    println!(
        "  ℓ ↦  1 ⊢ perm(ℓ) ≥ ½ ?                 {}\n",
        entails(&pt_full, &perm_ge, &uni, 1).is_ok()
    );

    println!("== the syntactic stable fragment ==\n");
    let read = Assert::read_eq(l.clone(), Term::int(1));
    for (label, a) in [
        ("perm(ℓ) = ½", perm_half.clone()),
        ("⌜!ℓ = 1⌝ (naked heap read)", read.clone()),
        ("⌊⌜!ℓ = 1⌝⌋ (stabilized)", Assert::stabilize(read.clone())),
    ] {
        println!(
            "  {:<28} syntactically stable: {}",
            label,
            syntactically_stable(&a)
        );
    }
    // The fast stabilizer strengthens the naked read to its
    // self-framing form.
    println!("\n  stabilize_fast(⌜!ℓ = 1⌝) = {}\n", stabilize_fast(&read));

    println!("== a lending protocol in the IDF verifier ==\n");
    let program = parse_program(
        r#"
        field v: Int

        // Lend half the permission away, observe it, take it back.
        method lend_and_observe(c: Ref) returns (r: Int)
          requires acc(c.v)
          ensures acc(c.v) && c.v == old(c.v) && r == c.v
        {
          // Full permission here:
          assert perm(c.v) == 1;
          exhale acc(c.v, 1/2);
          // Only half left — introspection sees it exactly:
          assert perm(c.v) == 1/2;
          assert perm(c.v) < 1;
          // Read access still works with half permission:
          r := c.v;
          inhale acc(c.v, 1/2);
          assert perm(c.v) == 1
        }
        "#,
    )
    .expect("parses");
    for backend in [Backend::Destabilized, Backend::StableBaseline] {
        let host = SessionHost::new(backend, VerifierConfig::default());
        let outcome = host.session().verify_program(&program);
        let Verdict::Verified(s) = &outcome.verdicts["lend_and_observe"] else {
            panic!(
                "lend_and_observe does not verify: {}",
                outcome.verdicts["lend_and_observe"]
            );
        };
        println!(
            "  {:?}: verified with {} obligations ({} witnesses)",
            backend, s.obligations, s.witnesses
        );
    }
}
