//! Regenerates every table and figure of the evaluation (EXPERIMENTS.md).
//!
//! Usage:
//!
//! ```text
//! cargo run -p daenerys-bench --bin tables [--t1] [--t2] [--t3] [--t4] \
//!     [--f1] [--f2] [--f3] [--json] [--threads N] [--timeout-ms N] \
//!     [--fuel N] [--repeat N] [--trace-out PATH] [--profile] \
//!     [--incremental] [--cache-dir PATH] [--expect-reverified N] \
//!     [--out-dir PATH] [--deny-unstable] [--explain-stability]
//! cargo run -p daenerys-bench --bin tables store dump <dir>
//! ```
//!
//! With no table/figure flags, every table and figure is printed.
//!
//! * `--threads N` pins the verification fan-out, which changes cost
//!   only, never answers.
//! * `--incremental` adds the F1 incremental section: each case is
//!   verified against the persistent verdict store under `--cache-dir`
//!   (default `target/ivc`), its restored verdicts are checked
//!   bit-identical against a from-scratch run, and the number of
//!   re-verified methods is reported. `--expect-reverified N` turns
//!   that report into a hard assertion (exit 1 on mismatch) for CI.
//! * `--out-dir PATH` places generated artifacts (`BENCH_verifier.json`,
//!   `PROFILE_verifier.txt`) under `PATH` (default `target/bench`, so
//!   casual runs never litter the repo root; pass `--out-dir .` to
//!   refresh a committed baseline in place).
//! * `store dump <dir>` (subcommand) prints the verdict store under
//!   `<dir>` as JSON, one object per live entry (a one-way export; the
//!   store itself is only ever read and written as `DAES1` shards).
//! * `--timeout-ms N` sets a per-method wall-clock deadline and
//!   `--fuel N` a per-method solver-fuel budget (conflicts +
//!   propagations); a
//!   method that blows its budget is reported (and counted in the
//!   JSON) as `Unknown` instead of hanging the harness.
//! * `--repeat N` measures each timed row as the median of `N` runs
//!   after one untimed warmup (default 5); `N` is recorded in the JSON
//!   config block.
//! * `--json` additionally writes `BENCH_verifier.json` (machine-readable
//!   F1 data: per-case wall time, phase attribution, solver queries,
//!   and cache hit rate for both backends, plus the chain and diverging
//!   sweeps).
//! * `--trace-out PATH` streams the flight-recorder trace (spans,
//!   solver queries, budget gauges) of every verification as JSONL to
//!   `PATH`; validate it with the `trace_validate` binary.
//! * `--profile` prints a phase-attribution profile of the positive
//!   case studies and writes it to `PROFILE_verifier.txt`; given
//!   alone, only the profile runs.
//! * `--deny-unstable` makes every run fail methods whose contracts the
//!   static stability analyzer classifies unstable (answer-affecting,
//!   part of the incremental fingerprint); `--explain-stability` prints
//!   the analyzer's lints for the examples corpus — classification,
//!   spans, and fix hints.

use daenerys_bench::{
    measure_median, micros, profile_events, render_profile, run_backend_with, BackendRun,
    ProfileReport,
};
use daenerys_core::check::{catalog, corpus, ghost_catalog, verify_catalog};
use daenerys_core::{check_stable, stabilize_fast, Assert, CameraKind, Term, UniverseSpec};
use daenerys_heaplang::{explore, parse, Machine};
use daenerys_idf::{
    all_cases, analyze_program, chain_program, diverging_program, parse_program, positive_cases,
    scaling_program, Backend, StabilityClass, VerdictStore, VerifierConfig,
};
use daenerys_obs::{ClockKind, Json, JsonlSink, MemorySink, TraceHandle};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const KNOWN_FLAGS: [&str; 20] = [
    "--t1",
    "--t2",
    "--t3",
    "--t4",
    "--f1",
    "--f2",
    "--f3",
    "--json",
    "--threads",
    "--timeout-ms",
    "--fuel",
    "--repeat",
    "--trace-out",
    "--profile",
    "--incremental",
    "--cache-dir",
    "--expect-reverified",
    "--out-dir",
    "--deny-unstable",
    "--explain-stability",
];

/// Parsed command line.
struct Opts {
    selected: Vec<String>,
    json: bool,
    profile: bool,
    /// Print the static stability report (`--explain-stability`).
    explain_stability: bool,
    repeat: usize,
    trace_out: Option<String>,
    /// Verdict-store root for the incremental section (`Some` when
    /// `--incremental` or `--cache-dir` is given). Kept out of
    /// `config` so the timed rows never measure the restore path.
    cache_dir: Option<std::path::PathBuf>,
    /// Hard assertion on the incremental section's re-verified total.
    expect_reverified: Option<usize>,
    /// Where generated artifacts are written (default: `target/bench`).
    out_dir: std::path::PathBuf,
    config: VerifierConfig,
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        selected: Vec::new(),
        json: false,
        profile: false,
        explain_stability: false,
        repeat: 5,
        trace_out: None,
        cache_dir: None,
        expect_reverified: None,
        out_dir: std::path::PathBuf::from("target/bench"),
        config: VerifierConfig::default(),
    };
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--json" => opts.json = true,
            "--profile" => opts.profile = true,
            "--deny-unstable" => opts.config.deny_unstable = true,
            "--explain-stability" => opts.explain_stability = true,
            "--incremental" => {
                if opts.cache_dir.is_none() {
                    opts.cache_dir = Some(std::path::PathBuf::from("target/ivc"));
                }
            }
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(path) if !path.starts_with("--") => {
                        opts.cache_dir = Some(std::path::PathBuf::from(path));
                    }
                    _ => {
                        eprintln!("tables: --cache-dir needs a directory path");
                        std::process::exit(2);
                    }
                }
            }
            "--expect-reverified" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => opts.expect_reverified = Some(n),
                    None => {
                        eprintln!("tables: --expect-reverified needs an integer");
                        std::process::exit(2);
                    }
                }
            }
            "--out-dir" => {
                i += 1;
                match args.get(i) {
                    Some(path) if !path.starts_with("--") => {
                        opts.out_dir = std::path::PathBuf::from(path);
                    }
                    _ => {
                        eprintln!("tables: --out-dir needs a directory path");
                        std::process::exit(2);
                    }
                }
            }
            "--repeat" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => opts.repeat = n,
                    _ => {
                        eprintln!("tables: --repeat needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--trace-out" => {
                i += 1;
                match args.get(i) {
                    Some(path) if !path.starts_with("--") => {
                        opts.trace_out = Some(path.clone());
                    }
                    _ => {
                        eprintln!("tables: --trace-out needs a file path");
                        std::process::exit(2);
                    }
                }
            }
            "--threads" => {
                i += 1;
                let n = args.get(i).and_then(|v| v.parse::<usize>().ok());
                match n {
                    Some(n) if n > 0 => opts.config.threads = n,
                    _ => {
                        eprintln!("tables: --threads needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--timeout-ms" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(ms) if ms > 0 => {
                        opts.config.budget = opts.config.budget.with_deadline_ms(ms);
                    }
                    _ => {
                        eprintln!("tables: --timeout-ms needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--fuel" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(fuel) if fuel > 0 => {
                        opts.config.budget = opts.config.budget.with_solver_fuel(fuel);
                    }
                    _ => {
                        eprintln!("tables: --fuel needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            _ if KNOWN_FLAGS.contains(&a) => opts.selected.push(a.to_string()),
            _ => {
                eprintln!(
                    "tables: unknown flag {} (known: {})",
                    a,
                    KNOWN_FLAGS.join(", ")
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    opts
}

/// The `store` subcommand: offline verdict-store inspection.
///
/// `tables store dump <dir>` prints the store under `<dir>` as JSON, one
/// object per live entry on stdout (see [`VerdictStore::dump`]), and
/// the corrupt-record count on stderr when there are any.
fn store_command(args: &[String]) -> ! {
    match args {
        [op, dir] if op == "dump" => {
            let store = VerdictStore::open(std::path::Path::new(dir));
            for line in store.dump() {
                println!("{}", line);
            }
            if store.corrupt_lines() > 0 {
                eprintln!("tables: {} corrupt records skipped", store.corrupt_lines());
            }
            std::process::exit(0);
        }
        _ => {
            eprintln!("tables: usage: tables store dump <dir>");
            std::process::exit(2);
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("store") {
        store_command(&raw[1..]);
    }
    let mut opts = parse_args();
    if let Some(path) = &opts.trace_out {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        let sink = match JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => Arc::new(sink),
            Err(e) => {
                eprintln!("tables: cannot open {}: {}", path, e);
                std::process::exit(1);
            }
        };
        opts.config.trace = TraceHandle::new(sink, ClockKind::Monotonic);
    }
    // `--profile` given alone runs only the profile; combined with
    // table flags it rides along.
    let all = opts.selected.is_empty() && !opts.profile;
    let want = |flag: &str| all || opts.selected.iter().any(|a| a == flag);
    if opts.expect_reverified.is_some() && (opts.cache_dir.is_none() || !want("--f1")) {
        eprintln!("tables: --expect-reverified requires --f1 and --incremental/--cache-dir");
        std::process::exit(2);
    }

    if opts.explain_stability {
        explain_stability(&opts);
    }
    if want("--t1") {
        table_t1(&opts);
    }
    if want("--t2") {
        table_t2();
    }
    if want("--t3") {
        table_t3();
    }
    if want("--t4") {
        table_t4();
    }
    if want("--f1") {
        figure_f1(&opts);
    }
    if want("--f2") {
        figure_f2();
    }
    if want("--f3") {
        figure_f3();
    }
    if opts.profile {
        run_profile(&opts);
    }
    if let Some(path) = &opts.trace_out {
        opts.config.trace.flush();
        println!("\n    wrote {}", path);
    }
}

/// `--explain-stability`: prints the static stability analyzer's
/// verdict for every spec assertion of the examples corpus —
/// classification, provenance findings with spans, and fix hints —
/// then a summary count per class. Purely static: no verification runs.
fn explain_stability(opts: &Opts) {
    println!("\nStability lints: static classification of the examples corpus");
    println!("    (stable < framed-stable < unstable; see DESIGN.md §11)\n");
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut unstable = 0usize;
    for case in all_cases() {
        let prog = match parse_program(case.source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("tables: case {} does not parse: {}", case.name, e);
                std::process::exit(1);
            }
        };
        for v in analyze_program(&prog) {
            let class = match v.class {
                StabilityClass::Stable => "stable",
                StabilityClass::FramedStable => "framed-stable",
                StabilityClass::Unstable => "unstable",
            };
            *counts.entry(class).or_default() += 1;
            if v.class == StabilityClass::Unstable {
                unstable += 1;
            }
            // Findings only for the noisy classes: stable assertions
            // with no findings are summarized by the count line.
            if v.class != StabilityClass::Stable || !v.findings.is_empty() {
                for line in format!("[{}] {}", case.name, v).lines() {
                    println!("    {}", line);
                }
            }
        }
    }
    println!();
    for (class, n) in &counts {
        println!("    {:>14}: {}", class, n);
    }
    if opts.config.deny_unstable && unstable > 0 {
        println!(
            "    --deny-unstable: {} assertion(s) above would fail verification",
            unstable
        );
    }
}

/// A traced single run of `src`, reduced to a phase-attribution
/// profile. Overrides any `--trace-out` handle with a private
/// in-memory sink so the profile never pollutes the JSONL stream.
fn phase_profile(src: &str, backend: Backend, base: &VerifierConfig) -> ProfileReport {
    let sink = Arc::new(MemorySink::new(1 << 16));
    let config = VerifierConfig {
        trace: TraceHandle::new(sink.clone(), ClockKind::Monotonic),
        ..base.clone()
    };
    let _ = run_backend_with(src, backend, config);
    profile_events(&sink.events())
}

/// `--profile`: phase attribution of the positive case studies (plus
/// the exponential diverging case) on the destabilized backend, each
/// with its release-over-release counters (`decisions`, `conflicts`,
/// `theory_props`, `learned_clauses`, `methods_reverified`), printed
/// and written to
/// `PROFILE_verifier.txt` under `--out-dir`.
fn run_profile(opts: &Opts) {
    println!("\nProfile: phase attribution per case (destabilized backend)");
    let mut cases: Vec<(String, String)> = positive_cases()
        .iter()
        .map(|c| (c.name.to_string(), c.source.to_string()))
        .collect();
    cases.push(("diverging_6".to_string(), diverging_program(6)));
    let mut out = String::new();
    for (name, src) in &cases {
        let report = phase_profile(src, Backend::Destabilized, &opts.config);
        // Counters come from an untraced run (through the verdict
        // store when `--incremental` is active, so the re-verified
        // count is meaningful).
        let config = VerifierConfig {
            cache_dir: opts.cache_dir.as_ref().map(|d| d.join(name)),
            ..opts.config.clone()
        };
        let run = run_backend_with(src, Backend::Destabilized, config);
        let counters = format!(
            "counters: decisions={} conflicts={} theory_props={} learned_clauses={} methods_reverified={}\n",
            run.total(|s| s.solver_branches),
            run.total(|s| s.solver_conflicts),
            run.total(|s| s.theory_props),
            run.total(|s| s.learned_clauses),
            run.reverified
                .map_or_else(|| "n/a".to_string(), |n| n.to_string()),
        );
        let block = format!("== {} ==\n{}{}", name, render_profile(&report), counters);
        println!();
        for line in block.lines() {
            println!("    {}", line);
        }
        out.push_str(&block);
        out.push('\n');
    }
    let path = artifact_path(opts, "PROFILE_verifier.txt");
    match std::fs::write(&path, &out) {
        Ok(()) => println!("\n    wrote {}", path.display()),
        Err(e) => {
            eprintln!("tables: cannot write {}: {}", path.display(), e);
            std::process::exit(1);
        }
    }
}

/// T1: case studies — destabilized vs stable-baseline cost.
fn table_t1(opts: &Opts) {
    println!("\nT1. Case studies: destabilized vs. stable-baseline encodings");
    println!("    (obl = obligations, q = solver queries, wit = witnesses, reb = rebinds)\n");
    println!(
        "    {:<18} {:>5} {:>6} | {:>5} {:>6} {:>5} {:>5} | {:>7}",
        "case", "obl_D", "q_D", "obl_S", "q_S", "wit", "reb", "ratio"
    );
    println!("    {}", "-".repeat(72));
    let mut sum_d = 0usize;
    let mut sum_s = 0usize;
    for case in positive_cases() {
        let d = run_backend_with(case.source, Backend::Destabilized, opts.config.clone());
        let s = run_backend_with(case.source, Backend::StableBaseline, opts.config.clone());
        let (od, qd) = (d.total(|x| x.obligations), d.total(|x| x.solver_queries));
        let (os, qs) = (s.total(|x| x.obligations), s.total(|x| x.solver_queries));
        let wit = s.total(|x| x.witnesses);
        let reb = s.total(|x| x.rebinds);
        sum_d += od;
        sum_s += os + reb;
        println!(
            "    {:<18} {:>5} {:>6} | {:>5} {:>6} {:>5} {:>5} | {:>6.2}x",
            case.name,
            od,
            qd,
            os,
            qs,
            wit,
            reb,
            (os + reb) as f64 / od.max(1) as f64
        );
    }
    println!("    {}", "-".repeat(72));
    println!(
        "    {:<18} {:>5}        | {:>5}                      | {:>6.2}x",
        "TOTAL",
        sum_d,
        sum_s,
        sum_s as f64 / sum_d.max(1) as f64
    );
}

/// T2: kernel-rule soundness — every rule model-checked.
fn table_t2() {
    println!("\nT2. Proof-kernel rule soundness (model-checked over finite universes)\n");
    let uni = UniverseSpec::tiny().build();
    let derivations = catalog(&corpus());
    let reports = verify_catalog(&derivations, &uni, 1);
    println!(
        "    {:<28} {:>9} {:>9} {:>7}",
        "rule", "instances", "verified", "status"
    );
    println!("    {}", "-".repeat(58));
    let mut total = 0;
    let mut ok = 0;
    for r in &reports {
        total += r.instances;
        ok += r.verified;
        println!(
            "    {:<28} {:>9} {:>9} {:>7}",
            r.rule,
            r.instances,
            r.verified,
            if r.ok() { "ok" } else { "FAIL" }
        );
    }
    for kind in [CameraKind::ExclVal, CameraKind::Frac, CameraKind::AuthNat] {
        let guni = UniverseSpec::with_ghost(kind).build();
        for r in verify_catalog(&ghost_catalog(kind), &guni, 1) {
            total += r.instances;
            ok += r.verified;
            println!(
                "    {:<28} {:>9} {:>9} {:>7}   (ghost {:?})",
                r.rule,
                r.instances,
                r.verified,
                if r.ok() { "ok" } else { "FAIL" },
                kind
            );
        }
    }
    println!("    {}", "-".repeat(58));
    println!("    {:<28} {:>9} {:>9}", "TOTAL", total, ok);
}

/// T3: camera-law checks over enumerated universes.
fn table_t3() {
    use daenerys_algebra::{
        law_assoc, law_comm, law_core_id, law_core_idem, law_core_mono, law_included_op,
        law_valid_op, Agree, Auth, DFrac, Enumerable, Excl, Frac, GSet, MaxNat, Ra, SumNat,
    };
    println!("\nT3. Camera laws: exhaustive checks over enumerated carriers\n");
    println!(
        "    {:<16} {:>8} {:>10} {:>7}",
        "camera", "elements", "checks", "status"
    );
    println!("    {}", "-".repeat(46));

    fn battery<A: Ra + Enumerable>(name: &str, budget: usize) {
        let u = A::enumerate(budget);
        let mut checks = 0usize;
        let mut ok = true;
        for a in &u {
            ok &= law_core_id(a).ok() && law_core_idem(a).ok();
            checks += 2;
            for b in &u {
                ok &= law_comm(a, b).ok()
                    && law_valid_op(a, b).ok()
                    && law_core_mono(a, b).ok()
                    && law_included_op(a, b).ok();
                checks += 4;
                for c in &u {
                    ok &= law_assoc(a, b, c).ok();
                    checks += 1;
                }
            }
        }
        println!(
            "    {:<16} {:>8} {:>10} {:>7}",
            name,
            u.len(),
            checks,
            if ok { "ok" } else { "FAIL" }
        );
    }
    battery::<Frac>("Frac", 4);
    battery::<DFrac>("DFrac", 3);
    battery::<Excl<bool>>("Excl", 2);
    battery::<Agree<bool>>("Agree", 2);
    battery::<SumNat>("SumNat", 5);
    battery::<MaxNat>("MaxNat", 5);
    battery::<Option<Frac>>("Option<Frac>", 3);
    battery::<Auth<SumNat>>("Auth<SumNat>", 2);
    battery::<GSet<u64>>("GSet", 3);
}

/// T4: proof automation — kernel derivation sizes produced by the
/// chunk-entailment prover as the goal grows.
fn table_t4() {
    use daenerys_algebra::Frac;
    use daenerys_core::{auto_entails, Assert, GhostName, GhostVal};
    println!("\nT4. Proof automation: kernel steps per automated entailment\n");
    println!(
        "    {:>8} {:>14} {:>12}",
        "chunks", "kernel steps", "time µs"
    );
    println!("    {}", "-".repeat(40));
    for n in [2usize, 4, 8, 12] {
        let chunks: Vec<Assert> = (0..n as u64)
            .map(|i| {
                Assert::Own(
                    GhostName(i),
                    GhostVal::Frac(Frac::new(daenerys_algebra::Q::HALF)),
                )
            })
            .collect();
        let lhs = chunks
            .iter()
            .cloned()
            .reduce(Assert::sep)
            .expect("nonempty");
        let rhs = chunks
            .iter()
            .rev()
            .cloned()
            .reduce(Assert::sep)
            .expect("nonempty");
        let t0 = Instant::now();
        let d = auto_entails(&lhs, &rhs).expect("automation succeeds");
        let dt = t0.elapsed();
        println!("    {:>8} {:>14} {:>12}", n, d.steps(), micros(dt));
    }
}

/// Sizes of the F1 chain sweep.
const CHAIN_SIZES: [usize; 7] = [2, 4, 8, 16, 32, 64, 128];

/// F1: verifier scaling — time and work vs. program size, plus the
/// chain sweep (solver memo counters) and the diverging sweep (search
/// counters).
fn figure_f1(opts: &Opts) {
    println!("\nF1. Verifier scaling (n objects updated; spec reads every field)\n");
    println!(
        "    {:>4} | {:>9} {:>7} | {:>9} {:>7} {:>7} | {:>7}",
        "n", "obl_D", "µs_D", "obl_S+reb", "µs_S", "wit_S", "ratio"
    );
    println!("    {}", "-".repeat(66));
    for n in [1usize, 2, 4, 8, 16, 24] {
        let src = scaling_program(n);
        let d = measure_median(&src, Backend::Destabilized, &opts.config, opts.repeat);
        let s = measure_median(&src, Backend::StableBaseline, &opts.config, opts.repeat);
        let od = d.total(|x| x.obligations);
        let os = s.total(|x| x.obligations) + s.total(|x| x.rebinds);
        println!(
            "    {:>4} | {:>9} {:>7} | {:>9} {:>7} {:>7} | {:>6.2}x",
            n,
            od,
            micros(d.time),
            os,
            micros(s.time),
            s.total(|x| x.witnesses),
            os as f64 / od.max(1) as f64
        );
    }

    println!("\nF1b. Chain sweep: solver memo (destabilized)\n");
    println!(
        "    {:>4} | {:>8} {:>8} | {:>6} {:>6} {:>6}",
        "n", "µs_D", "µs_S", "q", "hits", "miss"
    );
    println!("    {}", "-".repeat(50));
    let mut chain_rows = Vec::new();
    for n in CHAIN_SIZES {
        let src = chain_program(n);
        let d = measure_median(&src, Backend::Destabilized, &opts.config, opts.repeat);
        let s = measure_median(&src, Backend::StableBaseline, &opts.config, opts.repeat);
        println!(
            "    {:>4} | {:>8} {:>8} | {:>6} {:>6} {:>6}",
            n,
            micros(d.time),
            micros(s.time),
            d.total(|x| x.solver_queries),
            d.total(|x| x.cache_hits),
            d.total(|x| x.cache_misses),
        );
        chain_rows.push((n, d, s));
    }

    println!("\nF1c. Diverging sweep: clause-learning search (cdcl core, destabilized)\n");
    println!(
        "    {:>4} | {:>8} | {:>9} {:>6} {:>5} {:>6} {:>7}",
        "k", "µs", "decisions", "confl", "rst", "tprops", "learned"
    );
    println!("    {}", "-".repeat(58));
    let mut diverging_rows = Vec::new();
    for k in DIVERGING_SIZES {
        let src = diverging_program(k);
        let d = measure_median(&src, Backend::Destabilized, &opts.config, opts.repeat);
        println!(
            "    {:>4} | {:>8} | {:>9} {:>6} {:>5} {:>6} {:>7}",
            k,
            micros(d.time),
            d.total(|x| x.solver_branches),
            d.total(|x| x.solver_conflicts),
            d.total(|x| x.solver_restarts),
            d.total(|x| x.theory_props),
            d.total(|x| x.learned_clauses),
        );
        diverging_rows.push((k, d));
    }

    let incremental_rows = incremental_section(opts);

    if opts.json {
        write_bench_json(opts, &chain_rows, &diverging_rows, &incremental_rows);
    }
}

/// Sizes of the F1 diverging sweep (`2^k` propositional leaves each).
const DIVERGING_SIZES: [usize; 4] = [2, 4, 6, 8];

/// One row of the F1 incremental section: case name, method count,
/// methods actually re-verified, and wall time of the incremental run.
type IncrementalRow = (String, usize, usize, std::time::Duration);

/// F1d (only with `--incremental`/`--cache-dir`): verifies each case
/// against a per-case persistent verdict store, checks the outcome
/// bit-identical to a from-scratch run, and reports how many methods
/// the store could not absorb. Exits nonzero when the total disagrees
/// with `--expect-reverified`.
fn incremental_section(opts: &Opts) -> Vec<IncrementalRow> {
    let Some(dir) = &opts.cache_dir else {
        return Vec::new();
    };
    println!(
        "\nF1d. Incremental verification (verdict store under {})\n",
        dir.display()
    );
    println!(
        "    {:<18} {:>7} {:>10} {:>9}",
        "case", "methods", "reverified", "µs"
    );
    println!("    {}", "-".repeat(48));
    let mut corpus: Vec<(String, String)> = positive_cases()
        .iter()
        .map(|c| (c.name.to_string(), c.source.to_string()))
        .collect();
    corpus.push(("chain_32".to_string(), chain_program(32)));
    corpus.push(("diverging_6".to_string(), diverging_program(6)));
    let mut rows = Vec::new();
    let mut total = 0usize;
    for (name, src) in &corpus {
        let config = VerifierConfig {
            cache_dir: Some(dir.join(name)),
            ..opts.config.clone()
        };
        let inc = run_backend_with(src, Backend::Destabilized, config);
        let direct = run_backend_with(src, Backend::Destabilized, opts.config.clone());
        let normalize = |run: &BackendRun| -> BTreeMap<String, _> {
            run.verdicts
                .iter()
                .map(|(m, v)| (m.clone(), v.normalized()))
                .collect()
        };
        assert_eq!(
            normalize(&inc),
            normalize(&direct),
            "incremental verdicts for {} are not bit-identical to a fresh run",
            name
        );
        let reverified = inc.reverified.expect("incremental run reports a count");
        total += reverified;
        println!(
            "    {:<18} {:>7} {:>10} {:>9}",
            name,
            inc.verdicts.len(),
            reverified,
            micros(inc.time)
        );
        rows.push((name.clone(), inc.verdicts.len(), reverified, inc.time));
    }
    println!("    {}", "-".repeat(48));
    println!("    total methods re-verified: {}", total);
    if let Some(expect) = opts.expect_reverified {
        if total != expect {
            eprintln!(
                "tables: expected {} re-verified methods, got {}",
                expect, total
            );
            std::process::exit(1);
        }
        println!("    matches --expect-reverified {}", expect);
    }
    rows
}

/// One measurement as a JSON object.
///
/// # Panics
///
/// Panics when the counter invariant `hits + misses == queries` is
/// broken — the harness refuses to emit inconsistent numbers.
fn run_json(run: &BackendRun) -> Json {
    run.check_cache_accounting();
    let hits = run.total(|x| x.cache_hits);
    let misses = run.total(|x| x.cache_misses);
    let rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    // Four decimals, rounded as `{:.4}` rounds (`f64::round` differs
    // on ties).
    let rate: f64 = format!("{:.4}", rate).parse().unwrap_or(0.0);
    Json::obj([
        ("wall_micros", (run.time.as_secs_f64() * 1e6).into()),
        ("solver_queries", run.total(|x| x.solver_queries).into()),
        ("cache_hits", hits.into()),
        ("cache_misses", misses.into()),
        ("cache_hit_rate", rate.into()),
        ("decisions", run.total(|x| x.solver_branches).into()),
        ("conflicts", run.total(|x| x.solver_conflicts).into()),
        ("restarts", run.total(|x| x.solver_restarts).into()),
        ("theory_props", run.total(|x| x.theory_props).into()),
        ("learned_clauses", run.total(|x| x.learned_clauses).into()),
        ("obligations", run.total(|x| x.obligations).into()),
        ("interned_terms", run.total(|x| x.interned_terms).into()),
        ("stability_skips", run.total(|x| x.stability_skips).into()),
        ("unknown_methods", run.unknown_methods().into()),
        ("budget_exhausted", run.budget_exhausted().into()),
        ("methods_reverified", run.reverified.into()),
    ])
}

/// The phase-attribution block of one JSON case: front-end and
/// symbolic-execution time plus total solver fuel, from one traced run.
fn phases_json(p: &ProfileReport) -> Json {
    Json::obj([
        ("parse_micros", p.pipeline_micros("parse").into()),
        ("exec_micros", p.exec_micros().into()),
        ("pre_micros", p.method_phase_micros("pre").into()),
        ("body_micros", p.method_phase_micros("body").into()),
        ("post_micros", p.method_phase_micros("post").into()),
        ("solver_fuel", p.total_fuel().into()),
    ])
}

/// Emits `BENCH_verifier.json`: the positive case studies, the chain
/// sweep, the diverging (clause-learning) sweep, and — when enabled —
/// the incremental section.
fn write_bench_json(
    opts: &Opts,
    chain_rows: &[(usize, BackendRun, BackendRun)],
    diverging_rows: &[(usize, BackendRun)],
    incremental_rows: &[IncrementalRow],
) {
    let mut cases = Vec::new();
    for case in positive_cases() {
        let mut d = measure_median(
            case.source,
            Backend::Destabilized,
            &opts.config,
            opts.repeat,
        );
        // With `--incremental`/`--cache-dir` active, graft the
        // warm-rerun restore count onto the timed measurement: the
        // per-case verdict store was populated by the F1d section, so
        // this run reports how many methods the store could not
        // absorb instead of a `methods_reverified: null`.
        if let Some(dir) = &opts.cache_dir {
            let warm = run_backend_with(
                case.source,
                Backend::Destabilized,
                VerifierConfig {
                    cache_dir: Some(dir.join(case.name)),
                    ..opts.config.clone()
                },
            );
            d.reverified = warm.reverified;
        }
        let s = measure_median(
            case.source,
            Backend::StableBaseline,
            &opts.config,
            opts.repeat,
        );
        let p = phase_profile(case.source, Backend::Destabilized, &opts.config);
        cases.push(Json::obj([
            ("name", case.name.into()),
            ("destabilized", run_json(&d)),
            ("stable_baseline", run_json(&s)),
            ("phases", phases_json(&p)),
        ]));
    }
    let memoized = |run| Json::obj([("memoized", run_json(run))]);
    let chain = chain_rows.iter().map(|(n, d, s)| {
        Json::obj([
            ("n", (*n).into()),
            ("destabilized", memoized(d)),
            ("stable_baseline", memoized(s)),
        ])
    });
    let diverging = diverging_rows
        .iter()
        .map(|(k, d)| Json::obj([("k", (*k).into()), ("learn", run_json(d))]));
    let incremental = incremental_rows
        .iter()
        .map(|(name, methods, reverified, time)| {
            Json::obj([
                ("name", name.as_str().into()),
                ("methods", (*methods).into()),
                ("methods_reverified", (*reverified).into()),
                ("wall_micros", (time.as_secs_f64() * 1e6).into()),
            ])
        });
    let config = Json::obj([
        ("solver", "cdcl".into()),
        ("deny_unstable", opts.config.deny_unstable.into()),
        ("incremental", opts.cache_dir.is_some().into()),
        ("threads", opts.config.threads.into()),
        ("timeout_ms", opts.config.budget.deadline_ms.into()),
        ("fuel", opts.config.budget.solver_fuel.into()),
        ("repeat", opts.repeat.into()),
    ]);
    let json = Json::obj([
        ("experiment", "F1 verifier pipeline".into()),
        (
            "command",
            "cargo run -p daenerys-bench --bin tables -- --f1 --json".into(),
        ),
        ("config", config),
        ("cases", Json::Arr(cases)),
        ("chain", Json::Arr(chain.collect())),
        ("diverging", Json::Arr(diverging.collect())),
        ("incremental", Json::Arr(incremental.collect())),
    ]);
    let path = artifact_path(opts, "BENCH_verifier.json");
    match std::fs::write(&path, json.render() + "\n") {
        Ok(()) => println!("\n    wrote {}", path.display()),
        Err(e) => {
            eprintln!("tables: cannot write {}: {}", path.display(), e);
            std::process::exit(1);
        }
    }
}

/// Joins `name` onto `--out-dir`, creating the directory first.
fn artifact_path(opts: &Opts, name: &str) -> std::path::PathBuf {
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("tables: cannot create {}: {}", opts.out_dir.display(), e);
        std::process::exit(1);
    }
    opts.out_dir.join(name)
}

/// F2: stabilization cost — semantic ⌊·⌋ vs. the syntactic stabilizer.
fn figure_f2() {
    println!("\nF2. Stabilization cost: semantic ⌊P⌋ vs. syntactic stabilizer\n");
    println!(
        "    {:>6} {:>10} | {:>12} {:>12}",
        "locs", "resources", "semantic µs", "syntactic µs"
    );
    println!("    {}", "-".repeat(50));
    for locs in [1usize, 2] {
        let spec = if locs == 1 {
            UniverseSpec::tiny()
        } else {
            UniverseSpec::two_locs()
        };
        let uni = spec.build();
        let read = Assert::read_eq(Term::loc(daenerys_heaplang::Loc(0)), Term::int(1));
        let stab = Assert::stabilize(read.clone());

        // Semantic: check stability of ⌊read⌋ (frame quantification).
        let t0 = Instant::now();
        let iters = 5;
        for _ in 0..iters {
            let _ = check_stable(&stab, &uni, 1);
        }
        let sem = t0.elapsed() / iters;

        // Syntactic: one-pass transformation plus its stability check
        // by the *syntactic* judgment.
        let t0 = Instant::now();
        for _ in 0..1000 {
            let s = stabilize_fast(&read);
            let _ = daenerys_core::syntactically_stable(&s);
        }
        let syn = t0.elapsed() / 1000;

        println!(
            "    {:>6} {:>10} | {:>12} {:>12}",
            locs,
            uni.resources.len(),
            micros(sem),
            micros(syn)
        );
    }
}

/// F3: adequacy throughput — exhaustive interleaving exploration.
fn figure_f3() {
    println!("\nF3. Adequacy testing: exhaustive schedule exploration\n");
    println!(
        "    {:>8} | {:>8} {:>10} {:>10} {:>11}",
        "threads", "states", "terminals", "time µs", "states/ms"
    );
    println!("    {}", "-".repeat(56));
    for threads in [1usize, 2, 3] {
        let mut src = String::from("let c = ref 0 in ");
        for _ in 0..threads.saturating_sub(1) {
            src.push_str("fork (faa(c, 1)); ");
        }
        src.push_str("faa(c, 1); !c");
        let prog = parse(&src).expect("parses");
        let t0 = Instant::now();
        let result = explore(Machine::new(prog), 1024);
        let dt = t0.elapsed();
        println!(
            "    {:>8} | {:>8} {:>10} {:>10} {:>11.0}",
            threads,
            result.states_visited,
            result.terminals.len(),
            micros(dt),
            result.states_visited as f64 / dt.as_secs_f64() / 1000.0
        );
    }
}
