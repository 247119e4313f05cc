//! Static stability lints: classify spec assertions before verifying.
//!
//! Run with `cargo run -p daenerys --example stability_lint`.
//!
//! The analyzer places every precondition, postcondition, and loop
//! invariant on the `stable < framed-stable < unstable` lattice with
//! per-subterm provenance: which heap read lacks a covering permission
//! (with a fix hint), which `perm(..)` atom caps the class, which
//! `old(..)` shields its reads. The verifier consumes the verdicts two
//! ways: the stable baseline skips invalidation scans for witnesses of
//! (framed-)stable specs, and `deny_unstable` rejects unstable
//! contracts outright.

use daenerys::idf::{
    analyze_program, parse_program, Backend, SessionHost, StabilityClass, Verdict, VerifierConfig,
};

const SRC: &str = "
    field val: Int

    method audited(c: Ref)
      requires acc(c.val) && c.val >= 0
      ensures acc(c.val) && c.val == old(c.val) + 1
    {
      c.val := c.val + 1
    }

    method racy(c: Ref)
      requires c.val >= 0
      ensures true
    {
    }
";

fn main() {
    let program = parse_program(SRC).expect("example parses");

    println!("== Classification ==\n");
    for v in analyze_program(&program) {
        println!("  {}", v);
    }

    // `audited` is framed-stable: the baseline backend may skip every
    // witness-invalidation scan its spec would otherwise pay for.
    println!("\n== Baseline scan skips ==\n");
    let audited = parse_program(
        &SRC.lines()
            .take_while(|l| !l.contains("method racy"))
            .collect::<Vec<_>>()
            .join("\n"),
    )
    .expect("prefix parses");
    let host = SessionHost::new(Backend::StableBaseline, VerifierConfig::default());
    let outcome = host.session().verify_program(&audited);
    let Verdict::Verified(s) = &outcome.verdicts["audited"] else {
        panic!("audited does not verify: {}", outcome.verdicts["audited"]);
    };
    println!(
        "  audited: {} invalidation scan(s) skipped, {} witnesses",
        s.stability_skips, s.witnesses
    );

    // With the gate on, the unstable contract is refused before any
    // symbolic execution happens.
    println!("\n== deny_unstable ==\n");
    let host = SessionHost::new(
        Backend::Destabilized,
        VerifierConfig {
            deny_unstable: true,
            ..VerifierConfig::default()
        },
    );
    for (name, verdict) in host.session().verify_program(&program).verdicts {
        println!("  {}: {}", name, verdict);
    }

    let unstable = analyze_program(&program)
        .into_iter()
        .filter(|v| v.class == StabilityClass::Unstable)
        .count();
    println!("\n  {} unstable assertion(s) denied", unstable);
}
