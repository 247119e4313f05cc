//! A bank-account case study, end to end.
//!
//! Run with `cargo run -p daenerys --example idf_bank`.
//!
//! One Viper-style program, three oracles:
//!   1. static verification on the destabilized backend,
//!   2. static verification on the stable baseline (same result, more
//!      work — the measurable cost of stability),
//!   3. compilation to HeapLang and dynamic contract checking on a
//!      sweep of concrete inputs.

use daenerys::heaplang::Heap;
use daenerys::idf::{
    alloc_object, parse_program, run_and_check, Backend, ConcreteVal, SessionHost, Verdict,
    VerifierConfig,
};

const BANK: &str = r#"
    field bal: Int

    method deposit(a: Ref, amt: Int)
      requires acc(a.bal) && amt >= 0
      ensures acc(a.bal) && a.bal == old(a.bal) + amt
    {
      a.bal := a.bal + amt
    }

    method withdraw(a: Ref, amt: Int)
      requires acc(a.bal) && 0 <= amt && amt <= a.bal
      ensures acc(a.bal) && a.bal == old(a.bal) - amt && a.bal >= 0
    {
      a.bal := a.bal - amt
    }

    method transfer(a: Ref, b: Ref, amt: Int)
      requires acc(a.bal) && acc(b.bal) && 0 <= amt && amt <= a.bal
      ensures acc(a.bal) && acc(b.bal)
      ensures a.bal == old(a.bal) - amt && b.bal == old(b.bal) + amt
    {
      call withdraw(a, amt);
      call deposit(b, amt)
    }
"#;

fn main() {
    let program = parse_program(BANK).expect("bank program parses");

    println!("== Static verification ==\n");
    for backend in [Backend::Destabilized, Backend::StableBaseline] {
        let host = SessionHost::new(backend, VerifierConfig::default());
        println!("  {:?}:", backend);
        for (m, verdict) in host.session().verify_program(&program).verdicts {
            let Verdict::Verified(s) = verdict else {
                panic!("verification of {} failed: {}", m, verdict);
            };
            println!(
                "    {:<10} {:>3} obligations  {:>3} queries  {:>3} witnesses  {:>3} rebinds",
                m, s.obligations, s.solver_queries, s.witnesses, s.rebinds
            );
        }
    }

    println!("\n== Dynamic contract checking (compiled to HeapLang) ==\n");
    let mut checked = 0;
    for initial_a in [0i64, 10, 100] {
        for initial_b in [0i64, 5] {
            for amt in [0i64, 1, 10] {
                if amt > initial_a {
                    continue;
                }
                let mut heap = Heap::new();
                let a = alloc_object(&program, &mut heap, &[initial_a]);
                let b = alloc_object(&program, &mut heap, &[initial_b]);
                let final_heap = run_and_check(
                    &program,
                    "transfer",
                    vec![
                        ConcreteVal::Obj(a.clone()),
                        ConcreteVal::Obj(b.clone()),
                        ConcreteVal::Int(amt),
                    ],
                    heap,
                    100_000,
                )
                .expect("verified method meets its contract at runtime");
                let final_a = final_heap.get(a.cells[0]).unwrap();
                let final_b = final_heap.get(b.cells[0]).unwrap();
                println!(
                    "  transfer(a={:>3}, b={:>2}, amt={:>2})  →  a={}  b={}",
                    initial_a, initial_b, amt, final_a, final_b
                );
                checked += 1;
            }
        }
    }
    println!("\n  {} concrete runs, zero contract violations.", checked);
}
