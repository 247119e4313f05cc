//! The per-method work counters, pinned.
//!
//! Every method of the F1 cases and of the scaling, diverging and chain
//! workloads is verified on both backends, without a budget and under
//! a solver fuel of 40 (small enough that the retry with an escalated
//! budget, and `Unknown` verdicts, both show up). Each method's
//! normalized [`VerifyStats`] — or its verdict line when it did not
//! verify — must match `fixtures/verify_stats.golden` line for line.
//! A refactor that claims to leave obligation counts unchanged is held
//! to it here.

use daenerys_idf::{
    all_cases, chain_program, diverging_program, parse_program, scaling_program, Backend, Budget,
    SessionHost, Verdict, VerifierConfig,
};

/// The programs of the table, by name.
fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = all_cases()
        .into_iter()
        .map(|c| (c.name.to_string(), c.source.to_string()))
        .collect();
    for n in [1, 4, 8, 16] {
        out.push((format!("scaling_{}", n), scaling_program(n)));
    }
    for k in [2, 6, 10] {
        out.push((format!("diverging_{}", k), diverging_program(k)));
    }
    for n in [16, 64] {
        out.push((format!("chain_{}", n), chain_program(n)));
    }
    out
}

/// One line per (program, backend, budget, method), in that order.
fn table() -> String {
    let budgets = [
        ("unlimited", Budget::unlimited()),
        ("fuel40", Budget::unlimited().with_solver_fuel(40)),
    ];
    let mut out = String::new();
    for (name, source) in programs() {
        let program = parse_program(&source).expect("workload parses");
        for backend in [Backend::Destabilized, Backend::StableBaseline] {
            for (budget_name, budget) in budgets {
                let config = VerifierConfig {
                    threads: 1,
                    budget,
                    ..VerifierConfig::default()
                };
                let outcome = SessionHost::new(backend, config)
                    .session()
                    .verify_program(&program);
                for (method, verdict) in &outcome.verdicts {
                    let row = match verdict {
                        Verdict::Verified(stats) => format!("{:?}", stats.normalized()),
                        other => other.to_string(),
                    };
                    out.push_str(&format!(
                        "{} {:?} {} {}: {}\n",
                        name, backend, budget_name, method, row
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn per_method_counters_match_the_golden_table() {
    let expected = include_str!("fixtures/verify_stats.golden");
    let actual = table();
    assert!(
        actual == expected,
        "per-method counters differ from fixtures/verify_stats.golden; \
         the whole actual table follows\n{}",
        actual
    );
}
