//! Solver-search regression gate over the diverging sweep.
//!
//! Replays `diverging_program(k)` on the destabilized backend and
//! checks that search cost never creeps: the solver's `conflicts` and
//! `decisions` counters must stay within 10% of the checked-in
//! baselines in `BASELINE_solver.json` at the repo root.
//!
//! Both counters are bit-deterministic (fixed VSIDS decay, smallest-
//! index tie-break, Luby restarts), so the 10% headroom is purely for
//! intentional heuristic tuning; run with `--write-baseline` after
//! such a change to re-pin the file, and commit it.
//!
//! Usage:
//!     solver_regression [--baseline PATH] [--write-baseline]
//!
//! Exits 0 when every gate holds, 1 on a regression, 2 on usage error.

use daenerys_bench::run_backend_with;
use daenerys_idf::{diverging_program, Backend, VerifierConfig};
use daenerys_obs::{parse_json, Json};
use std::path::PathBuf;
use std::process::exit;

/// Sweep sizes: the clause-learning search stays cheap at every one,
/// so the gate runs in every CI job.
const KS: [usize; 5] = [2, 4, 6, 12, 18];

/// Allowed headroom over the baseline counters.
const HEADROOM: f64 = 1.10;

struct Row {
    k: usize,
    decisions: usize,
    conflicts: usize,
}

fn main() {
    let mut baseline_path = default_baseline_path();
    let mut write_baseline = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline_path = match args.get(i) {
                    Some(p) => PathBuf::from(p),
                    None => usage("--baseline needs a path"),
                };
            }
            "--write-baseline" => write_baseline = true,
            other => usage(&format!("unknown flag {}", other)),
        }
        i += 1;
    }

    let rows: Vec<Row> = KS.iter().map(|&k| measure(k)).collect();
    println!("solver regression sweep\n");
    println!("   k | decisions |  confl");
    println!("  {}", "-".repeat(24));
    for r in &rows {
        println!("  {:>2} | {:>9} | {:>6}", r.k, r.decisions, r.conflicts);
    }

    if write_baseline {
        let body = render_baseline(&rows);
        std::fs::write(&baseline_path, body).expect("write baseline");
        println!("\nbaseline written to {}", baseline_path.display());
        return;
    }

    let mut failures = Vec::new();
    match read_baseline(&baseline_path) {
        Some(baseline) => {
            for r in &rows {
                let Some((_, conflicts, decisions)) = baseline.iter().copied().find(|b| b.0 == r.k)
                else {
                    failures.push(format!("k={}: missing from the baseline file", r.k));
                    continue;
                };
                check_counter(&mut failures, r.k, "conflicts", r.conflicts, conflicts);
                check_counter(&mut failures, r.k, "decisions", r.decisions, decisions);
            }
        }
        None => failures.push(format!(
            "cannot read baseline {} (regenerate with --write-baseline)",
            baseline_path.display()
        )),
    }

    if failures.is_empty() {
        println!("\nall solver-regression gates hold");
    } else {
        eprintln!();
        for f in &failures {
            eprintln!("REGRESSION: {}", f);
        }
        exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("solver_regression: {}", msg);
    eprintln!("usage: solver_regression [--baseline PATH] [--write-baseline]");
    exit(2);
}

/// The committed baseline lives at the repo root, two levels above
/// this crate.
fn default_baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BASELINE_solver.json")
}

/// One sweep size: the deterministic search counters.
fn measure(k: usize) -> Row {
    let run = run_backend_with(
        &diverging_program(k),
        Backend::Destabilized,
        VerifierConfig::default(),
    );
    Row {
        k,
        decisions: run.total(|s| s.solver_branches),
        conflicts: run.total(|s| s.solver_conflicts),
    }
}

fn check_counter(failures: &mut Vec<String>, k: usize, name: &str, got: usize, base: usize) {
    let limit = (base as f64 * HEADROOM).floor() as usize;
    if got > limit {
        failures.push(format!(
            "k={}: {} regressed {} -> {} (>10% over baseline)",
            k, name, base, got
        ));
    }
}

fn render_baseline(rows: &[Row]) -> String {
    let cases = rows.iter().map(|r| {
        Json::obj([
            ("k", r.k.into()),
            ("conflicts", r.conflicts.into()),
            ("decisions", r.decisions.into()),
        ])
    });
    Json::obj([("cases", Json::Arr(cases.collect()))]).render() + "\n"
}

/// Parses the baseline into `(k, conflicts, decisions)` triples.
fn read_baseline(path: &std::path::Path) -> Option<Vec<(usize, usize, usize)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = parse_json(text.trim()).ok()?;
    let cases = json.as_obj()?.get("cases")?.as_arr()?;
    let mut out = Vec::with_capacity(cases.len());
    for case in cases {
        let obj = case.as_obj()?;
        let num = |key: &str| -> Option<usize> { Some(obj.get(key)?.as_num()? as usize) };
        out.push((num("k")?, num("conflicts")?, num("decisions")?));
    }
    Some(out)
}
