//! Regenerates every table and figure of the evaluation (EXPERIMENTS.md).
//!
//! Usage:
//!
//! ```text
//! cargo run -p daenerys-bench --bin tables [--t1] [--t2] [--t3] [--t4] \
//!     [--f1] [--f2] [--f3] [--f4] [--threads N] [--timeout-ms N] \
//!     [--fuel N] [--repeat N] [--trace-out PATH] \
//!     [--incremental] [--cache-dir PATH] [--expect-reverified N] \
//!     [--deny-unstable] [--explain-stability]
//! cargo run -p daenerys-bench --bin tables store dump <dir>
//! ```
//!
//! With no table/figure flags, every table and figure is printed
//! (`--explain-stability` alone prints only its report).
//!
//! * `--threads N` pins the verification fan-out, which changes cost
//!   only, never answers.
//! * `--incremental` adds the F1 incremental section: each case is
//!   verified against the persistent verdict store under `--cache-dir`
//!   (default `target/ivc`), its restored verdicts are checked
//!   bit-identical against a from-scratch run, and the number of
//!   re-verified methods is reported. `--expect-reverified N` turns
//!   that report into a hard assertion (exit 1 on mismatch) for CI.
//! * `store dump <dir>` (subcommand) prints the verdict store under
//!   `<dir>` as JSON, one object per live entry (a one-way export; the
//!   store itself is only ever read and written as its `DAES1` file).
//! * `--timeout-ms N` sets a per-method wall-clock deadline and
//!   `--fuel N` a per-method solver-fuel budget (conflicts +
//!   propagations); a method that blows its budget degrades to
//!   `Unknown` and drops out of its row's counters instead of hanging
//!   the harness.
//! * `--repeat N` measures each timed row as the median of `N` runs
//!   after one untimed warmup (default 5).
//! * `--trace-out PATH` streams the flight-recorder trace (spans,
//!   solver queries, budget gauges) of every verification as JSONL to
//!   `PATH`; validate it with the `trace_validate` binary.
//! * `--deny-unstable` makes every run fail methods whose contracts the
//!   static stability analyzer classifies unstable (answer-affecting,
//!   part of the incremental fingerprint); `--explain-stability` prints
//!   the analyzer's lints for the examples corpus — classification,
//!   spans, and fix hints.

use daenerys_bench::{measure_median, micros, run_backend_with, BackendRun};
use daenerys_core::check::{catalog, corpus, ghost_catalog, verify_catalog};
use daenerys_core::{
    check_stable, entails, stabilize_fast, Assert, CameraKind, Res, Term, UniverseSpec,
};
use daenerys_heaplang::{explore, parse, Heap, Loc, Machine};
use daenerys_idf::{
    all_cases, analyze_program, chain_program, diverging_program, parse_program, positive_cases,
    scaling_program, Backend, StabilityClass, VerdictStore, VerifierConfig,
};
use daenerys_obs::{ClockKind, JsonlSink, TraceHandle};
use daenerys_proglog::MonMachine;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KNOWN_FLAGS: [&str; 18] = [
    "--t1",
    "--t2",
    "--t3",
    "--t4",
    "--f1",
    "--f2",
    "--f3",
    "--f4",
    "--threads",
    "--timeout-ms",
    "--fuel",
    "--repeat",
    "--trace-out",
    "--incremental",
    "--cache-dir",
    "--expect-reverified",
    "--deny-unstable",
    "--explain-stability",
];

/// Parsed command line.
struct Opts {
    selected: Vec<String>,
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
    config: VerifierConfig,
}

impl Opts {
    /// Whether the table or figure behind `flag` (`--t1` … `--f4`) is
    /// printed: every one when no selector is given, unless
    /// `--explain-stability` asks for the report alone.
    fn wants(&self, flag: &str) -> bool {
        (self.selected.is_empty() && !self.explain_stability)
            || self.selected.iter().any(|a| a == flag)
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        selected: Vec::new(),
        explain_stability: false,
        repeat: 5,
        trace_out: None,
        cache_dir: None,
        expect_reverified: None,
        config: VerifierConfig::default(),
    };
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
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
                    _ => return Err("--cache-dir needs a directory path".to_string()),
                }
            }
            "--expect-reverified" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => opts.expect_reverified = Some(n),
                    None => return Err("--expect-reverified needs an integer".to_string()),
                }
            }
            "--repeat" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => opts.repeat = n,
                    _ => return Err("--repeat needs a positive integer".to_string()),
                }
            }
            "--trace-out" => {
                i += 1;
                match args.get(i) {
                    Some(path) if !path.starts_with("--") => {
                        opts.trace_out = Some(path.clone());
                    }
                    _ => return Err("--trace-out needs a file path".to_string()),
                }
            }
            "--threads" => {
                i += 1;
                let n = args.get(i).and_then(|v| v.parse::<usize>().ok());
                match n {
                    Some(n) if n > 0 => opts.config.threads = n,
                    _ => return Err("--threads needs a positive integer".to_string()),
                }
            }
            "--timeout-ms" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(ms) if ms > 0 => {
                        opts.config.budget = opts.config.budget.with_deadline_ms(ms);
                    }
                    _ => return Err("--timeout-ms needs a positive integer".to_string()),
                }
            }
            "--fuel" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(fuel) if fuel > 0 => {
                        opts.config.budget = opts.config.budget.with_solver_fuel(fuel);
                    }
                    _ => return Err("--fuel needs a positive integer".to_string()),
                }
            }
            _ if KNOWN_FLAGS.contains(&a) => opts.selected.push(a.to_string()),
            _ => {
                return Err(format!(
                    "unknown flag {} (known: {})",
                    a,
                    KNOWN_FLAGS.join(", ")
                ))
            }
        }
        i += 1;
    }
    Ok(opts)
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
    let mut opts = match parse_args(&raw) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("tables: {}", msg);
            std::process::exit(2);
        }
    };
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
    if opts.expect_reverified.is_some() && (opts.cache_dir.is_none() || !opts.wants("--f1")) {
        eprintln!("tables: --expect-reverified requires --f1 and --incremental/--cache-dir");
        std::process::exit(2);
    }

    if opts.explain_stability {
        explain_stability(&opts);
    }
    if opts.wants("--t1") {
        table_t1(&opts);
    }
    if opts.wants("--t2") {
        table_t2();
    }
    if opts.wants("--t3") {
        table_t3();
    }
    if opts.wants("--t4") {
        table_t4(opts.repeat);
    }
    if opts.wants("--f1") {
        figure_f1(&opts);
    }
    if opts.wants("--f2") {
        figure_f2(opts.repeat);
    }
    if opts.wants("--f3") {
        figure_f3(opts.repeat);
    }
    if opts.wants("--f4") {
        figure_f4(opts.repeat);
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
fn table_t4(repeat: usize) {
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
        let d = auto_entails(&lhs, &rhs).expect("automation succeeds");
        let dt = time_per_call(repeat, 1, || auto_entails(&lhs, &rhs));
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
    }

    println!("\nF1c. Diverging sweep: clause-learning search (cdcl core, destabilized)\n");
    println!(
        "    {:>4} | {:>8} | {:>9} {:>6} {:>5} {:>6} {:>7}",
        "k", "µs", "decisions", "confl", "rst", "tprops", "learned"
    );
    println!("    {}", "-".repeat(58));
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
    }

    incremental_section(opts);
}

/// Sizes of the F1 diverging sweep (`2^k` propositional leaves each).
const DIVERGING_SIZES: [usize; 4] = [2, 4, 6, 8];

/// F1d (only with `--incremental`/`--cache-dir`): verifies each case
/// against a per-case persistent verdict store, checks the outcome
/// bit-identical to a from-scratch run, and reports how many methods
/// the store could not absorb. Exits nonzero when the total disagrees
/// with `--expect-reverified`.
fn incremental_section(opts: &Opts) {
    let Some(dir) = &opts.cache_dir else {
        return;
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
}

/// F2: stabilization cost — semantic ⌊·⌋ vs. the syntactic stabilizer.
fn figure_f2(repeat: usize) {
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
        let read = Assert::read_eq(Term::loc(Loc(0)), Term::int(1));
        let stab = Assert::stabilize(read.clone());

        // Semantic: check stability of ⌊read⌋ (frame quantification).
        let sem = time_per_call(repeat, 1, || check_stable(&stab, &uni, 1).is_ok());
        // Syntactic: one-pass transformation plus its stability check
        // by the *syntactic* judgment.
        let syn = time_per_call(repeat, 1000, || {
            daenerys_core::syntactically_stable(&stabilize_fast(&read))
        });

        println!(
            "    {:>6} {:>10} | {:>12} {:>12}",
            locs,
            uni.resources.len(),
            micros(sem),
            micros(syn)
        );
    }
}

/// Median wall time of one call of `f` over `repeat` samples of
/// `calls` calls each, after one untimed warmup sample. Kernels that
/// take microseconds run many calls per sample, so that one sample
/// spans more than the clock's and the scheduler's noise.
fn time_per_call<T>(repeat: usize, calls: u32, mut f: impl FnMut() -> T) -> Duration {
    let mut sample = || {
        let t0 = Instant::now();
        for _ in 0..calls {
            std::hint::black_box(f());
        }
        t0.elapsed() / calls
    };
    sample();
    let mut times: Vec<Duration> = (0..repeat).map(|_| sample()).collect();
    times.sort();
    times[repeat / 2]
}

/// F3: adequacy throughput — exhaustive interleaving exploration, then
/// the permission monitor's cost over raw interpretation on one
/// sequential loop.
fn figure_f3(repeat: usize) {
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
        let result = explore(Machine::new(prog.clone()), 1024);
        let dt = time_per_call(repeat, 10, || explore(Machine::new(prog.clone()), 1024));
        println!(
            "    {:>8} | {:>8} {:>10} {:>10} {:>11.0}",
            threads,
            result.states_visited,
            result.terminals.len(),
            micros(dt),
            result.states_visited as f64 / dt.as_secs_f64() / 1000.0
        );
    }

    println!("\n    Monitored vs. unmonitored execution (50-iteration loop)\n");
    println!(
        "    {:>12} {:>12} | {:>9}",
        "unmon. µs", "monitored µs", "overhead"
    );
    println!("    {}", "-".repeat(38));
    let seq =
        parse("let l = ref 0 in (rec go n => if n <= 0 then !l else (l <- !l + n; go (n - 1))) 50")
            .expect("parses");
    let raw = time_per_call(repeat, 100, || {
        daenerys_heaplang::run(seq.clone(), 100_000).expect("runs")
    });
    let monitored = time_per_call(repeat, 100, || {
        let mut m = MonMachine::new(seq.clone(), Res::empty(), Heap::new());
        m.run(100_000).expect("runs");
        m
    });
    println!(
        "    {:>12} {:>12} | {:>8.2}x",
        micros(raw),
        micros(monitored),
        monitored.as_secs_f64() / raw.as_secs_f64()
    );
}

/// F4: proof-kernel throughput — building and model-checking the rule
/// catalog, and one semantic entailment check as the assertion grows.
fn figure_f4(repeat: usize) {
    println!("\nF4. Proof-kernel throughput\n");
    let ps = corpus();
    let derivations = catalog(&ps);
    let steps: usize = derivations.iter().map(|d| d.steps()).sum();
    let uni = UniverseSpec::tiny().build();
    let build = time_per_call(repeat, 20, || catalog(&ps));
    let verify = time_per_call(repeat, 1, || verify_catalog(&derivations, &uni, 1));
    println!(
        "    {:>11} {:>11} | {:>9} {:>11} | {:>10}",
        "derivations", "rule apps", "build µs", "apps/s", "verify µs"
    );
    println!("    {}", "-".repeat(62));
    println!(
        "    {:>11} {:>11} | {:>9} {:>11.0} | {:>10}",
        derivations.len(),
        steps,
        micros(build),
        steps as f64 / build.as_secs_f64(),
        micros(verify)
    );

    println!(
        "\n    {:>8} | {:>6} {:>14}",
        "depth", "holds", "entailment µs"
    );
    println!("    {}", "-".repeat(34));
    let l = Term::loc(Loc(0));
    let half = Assert::points_to_frac(l.clone(), daenerys_algebra::Q::HALF, Term::int(1));
    let q = Assert::read_eq(l.clone(), Term::int(1));
    for depth in [1usize, 2, 4] {
        let mut p = half.clone();
        for _ in 0..depth {
            p = Assert::and(p, q.clone());
        }
        let holds = entails(&p, &q, &uni, 1).is_ok();
        let dt = time_per_call(repeat, 20, || entails(&p, &q, &uni, 1).is_ok());
        println!(
            "    {:>8} | {:>6} {:>14}",
            depth,
            if holds { "yes" } else { "no" },
            micros(dt)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn parsed(line: &str) -> Opts {
        parse_args(&args(line)).expect("arguments parse")
    }

    #[test]
    fn no_selector_prints_every_table_and_figure() {
        let opts = parsed("--repeat 3");
        for flag in [
            "--t1", "--t2", "--t3", "--t4", "--f1", "--f2", "--f3", "--f4",
        ] {
            assert!(opts.wants(flag), "{} printed", flag);
        }
        assert_eq!(opts.repeat, 3);
    }

    #[test]
    fn f4_selects_the_proof_kernel_figure_alone() {
        let opts = parsed("--f4");
        assert!(opts.wants("--f4"));
        for flag in ["--t1", "--t2", "--t3", "--t4", "--f1", "--f2", "--f3"] {
            assert!(!opts.wants(flag), "{} not printed", flag);
        }
    }

    #[test]
    fn explain_stability_alone_prints_only_the_report() {
        let alone = parsed("--explain-stability");
        assert!(alone.explain_stability);
        assert!(!alone.wants("--t1") && !alone.wants("--f4"));

        let with_f1 = parsed("--explain-stability --f1 --deny-unstable");
        assert!(with_f1.wants("--f1") && !with_f1.wants("--t1"));
        assert!(with_f1.config.deny_unstable);
    }

    #[test]
    fn deleted_artifact_flags_are_unknown() {
        for flag in ["--json", "--profile", "--out-dir"] {
            let err = parse_args(&args(flag)).err().expect("rejected");
            assert!(
                err.starts_with(&format!("unknown flag {} ", flag)),
                "{}",
                err
            );
            assert!(err.contains("--f4"), "the message lists the known flags");
        }
    }

    #[test]
    fn numeric_flags_need_positive_values() {
        for line in [
            "--repeat 0",
            "--repeat",
            "--threads 0",
            "--fuel x",
            "--timeout-ms 0",
        ] {
            let err = parse_args(&args(line)).err().expect("rejected");
            assert!(
                err.ends_with("needs a positive integer"),
                "{}: {}",
                line,
                err
            );
        }
        let opts = parsed("--threads 2 --fuel 64 --timeout-ms 500");
        assert_eq!(opts.config.threads, 2);
        assert_eq!(opts.config.budget.solver_fuel, Some(64));
        assert_eq!(opts.config.budget.deadline_ms, Some(500));
    }

    #[test]
    fn incremental_defaults_the_store_but_keeps_an_explicit_one() {
        let default = parsed("--f1 --incremental --expect-reverified 0");
        assert_eq!(default.cache_dir, Some("target/ivc".into()));
        assert_eq!(default.expect_reverified, Some(0));

        let explicit = parsed("--cache-dir /tmp/store --incremental");
        assert_eq!(explicit.cache_dir, Some("/tmp/store".into()));
    }

    #[test]
    fn path_flags_refuse_a_following_flag_as_their_value() {
        assert_eq!(
            parse_args(&args("--cache-dir --f1")).err().as_deref(),
            Some("--cache-dir needs a directory path")
        );
        assert_eq!(
            parse_args(&args("--trace-out --f1")).err().as_deref(),
            Some("--trace-out needs a file path")
        );
        assert_eq!(
            parsed("--trace-out t.jsonl").trace_out.as_deref(),
            Some("t.jsonl")
        );
    }

    #[test]
    fn time_per_call_runs_a_warmup_and_repeat_samples_of_calls() {
        let mut calls = 0u32;
        let per_call = time_per_call(3, 7, || calls += 1);
        assert_eq!(calls, (3 + 1) * 7);
        assert!(per_call < Duration::from_secs(1));
    }
}
