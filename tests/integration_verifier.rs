//! Integration: the IDF verifier against the dynamic oracle — every
//! positive case study verifies statically (both backends), compiles to
//! HeapLang, and honors its contract on concrete input sweeps.

use daenerys::heaplang::Heap;
use daenerys::idf::{
    alloc_object, positive_cases, run_and_check, Backend, ConcreteVal, Program, SessionHost, Type,
    Verdict, VerifierConfig, VerifyStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

#[test]
fn all_case_studies_verify_and_run() {
    let mut rng = StdRng::seed_from_u64(0xda3);
    for case in positive_cases() {
        let program = case.program();
        // Static verification on both backends.
        for backend in [Backend::Destabilized, Backend::StableBaseline] {
            assert!(
                verifies(&program, backend),
                "case {} failed on {:?}",
                case.name,
                backend
            );
        }
        // Dynamic contract checks on randomized inputs for every method
        // whose parameters we can synthesize (flat object graphs only).
        if !case.dynamic {
            continue;
        }
        for method in &program.methods {
            if method.body.is_none() {
                continue;
            }
            let mut runs = 0;
            'attempts: for _ in 0..40 {
                if runs >= 10 {
                    break;
                }
                let mut heap = Heap::new();
                let mut args = Vec::new();
                for (_, ty) in &method.params {
                    match ty {
                        Type::Int => args.push(ConcreteVal::Int(rng.gen_range(-4..20))),
                        Type::Bool => args.push(ConcreteVal::Bool(rng.gen_bool(0.5))),
                        Type::Ref => {
                            let vals: Vec<i64> = (0..program.fields.len())
                                .map(|_| rng.gen_range(-4..20))
                                .collect();
                            let obj = alloc_object(&program, &mut heap, &vals);
                            args.push(ConcreteVal::Obj(obj));
                        }
                    }
                }
                match run_and_check(&program, &method.name, args, heap, 1_000_000) {
                    Ok(_) => runs += 1,
                    Err(e) if e.0.contains("precondition") => continue 'attempts,
                    Err(e) => panic!(
                        "verified case {}::{} violated its contract: {}",
                        case.name, method.name, e
                    ),
                }
            }
        }
    }
}

#[test]
fn backend_verdicts_always_agree() {
    use daenerys::idf::all_cases;
    for case in all_cases() {
        let program = case.program();
        let rd = verifies(&program, Backend::Destabilized);
        let rb = verifies(&program, Backend::StableBaseline);
        assert_eq!(rd, rb, "backends disagree on {}", case.name);
        assert_eq!(rd, case.should_verify, "wrong verdict on {}", case.name);
    }
}

#[test]
fn baseline_overhead_is_systematic() {
    // Across the whole positive suite, the stable baseline never does
    // *less* work than the destabilized backend, and strictly more
    // whenever the specs read the heap.
    for case in positive_cases() {
        let program = case.program();
        let d = stats(&program, Backend::Destabilized);
        let b = stats(&program, Backend::StableBaseline);
        for (m, ds) in &d {
            let bs = &b[m];
            assert!(
                bs.obligations >= ds.obligations,
                "baseline cheaper on {}::{}?",
                case.name,
                m
            );
            let method = program.method(m).unwrap();
            let spec_reads = method.requires.field_reads() + method.ensures.field_reads();
            if spec_reads > 0 {
                assert!(
                    bs.witnesses > 0,
                    "no witnesses despite {} spec reads in {}::{}",
                    spec_reads,
                    case.name,
                    m
                );
            }
        }
    }
}
