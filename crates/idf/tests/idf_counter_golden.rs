//! The per-method work counters, pinned.
//!
//! Every method of the F1 cases and of the scaling, diverging and chain
//! workloads is verified on both backends, without a budget and under
//! a solver fuel of 40 (small enough that the retry with an escalated
//! budget, and `Unknown` verdicts, both show up). Each method's
//! normalized [`VerifyStats`] — or its verdict line when it did not
//! verify — must match `fixtures/verify_stats.golden` line for line.
//! A refactor that claims to leave obligation counts unchanged is held
//! to it here, and the diverging sweep pins the solver's search cost
//! (its decisions and conflicts) exactly.

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
    for k in [2, 4, 6, 10, 12, 18] {
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

/// Differing lines shown in a failure message; the rest are counted.
const SHOWN_DIFFS: usize = 10;

/// The lines at which `expected` and `actual` differ, as
/// `expected:`/`actual:` pairs: the first [`SHOWN_DIFFS`], then the
/// total count.
fn line_diff(expected: &str, actual: &str) -> String {
    let (exp, act): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let differing: Vec<usize> = (0..exp.len().max(act.len()))
        .filter(|&i| exp.get(i) != act.get(i))
        .collect();
    let mut out = String::new();
    for &i in differing.iter().take(SHOWN_DIFFS) {
        out.push_str(&format!(
            "line {}
  expected: {}
  actual:   {}
",
            i + 1,
            exp.get(i).unwrap_or(&"<missing>"),
            act.get(i).unwrap_or(&"<missing>")
        ));
    }
    out.push_str(&format!(
        "{} differing lines ({} expected, {} actual)",
        differing.len(),
        exp.len(),
        act.len()
    ));
    out
}

#[test]
fn line_diff_shows_the_first_differing_lines_and_counts_them_all() {
    let expected: String = (0..15).map(|i| format!("row {}\n", i)).collect();
    let actual: String = (0..14)
        .map(|i| match i {
            2..=13 => format!("row {} changed\n", i),
            _ => format!("row {}\n", i),
        })
        .collect();
    let message = line_diff(&expected, &actual);
    assert_eq!(message.matches("expected: ").count(), SHOWN_DIFFS);
    assert_eq!(message.matches("actual:   ").count(), SHOWN_DIFFS);
    assert!(message.starts_with("line 3\n  expected: row 2\n  actual:   row 2 changed\n"));
    assert!(!message.contains("line 1\n") && !message.contains("line 2\n"));
    assert!(message.contains("line 12\n") && !message.contains("line 13\n"));
    assert!(
        message.ends_with("13 differing lines (15 expected, 14 actual)"),
        "{}",
        message
    );
    assert_eq!(
        line_diff(&expected, &expected),
        "0 differing lines (15 expected, 15 actual)"
    );
}

#[test]
fn per_method_counters_match_the_golden_table() {
    let expected = include_str!("fixtures/verify_stats.golden");
    let actual = table();
    assert!(
        actual == expected,
        "per-method counters differ from fixtures/verify_stats.golden:\n{}",
        line_diff(expected, &actual)
    );
}
