//! The `daenerys` binary: `check`, `verify`, `explain`, `watch`, and
//! `cost` subcommands over IDF source files.
//!
//! ```text
//! daenerys check   FILE...  [common flags]
//! daenerys verify  FILE...  [common flags]
//! daenerys explain FILE...  [common flags]
//! daenerys cost    FILE...  [common flags]
//! daenerys watch   FILE     [common flags] [--once] [--interval-ms N]
//!                           [--expect-reverified N] [--max-wall-ms MS]
//! ```
//!
//! Common flags: `--json`, `--no-color`, `--backend destabilized|stable`,
//! `--threads N`, `--timeout-ms N`, `--fuel N`, `--deny-unstable`,
//! `--cache-dir PATH`, `--max-errors N`.
//!
//! Every subcommand is a [`daenerys_idf::Session`] client: the binary
//! never touches
//! verifier internals, so CLI runs exercise exactly the library
//! surface the daemon and the bench harness share. Exit codes: 0 clean,
//! 1 diagnostics or failed verdicts (or a tripped watch gate), 2 usage.

use daenerys_cli::{render_cost_json, render_cost_table, Debounce, Renderer, SourceFile};
use daenerys_idf::{
    analyze_program, check_program, estimate_program, parse_program_with_recovery_capped, Backend,
    Budget, Program, SessionHost, StabilityClass, VerifierConfig, VerifyOutcome,
    DEFAULT_MAX_ERRORS,
};
use daenerys_obs::{escape_json, ColorMode};
use std::io::IsTerminal;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Cmd {
    Check,
    Verify,
    Explain,
    Cost,
    Watch,
}

struct Cli {
    cmd: Cmd,
    files: Vec<PathBuf>,
    json: bool,
    color: ColorMode,
    max_errors: usize,
    backend: Backend,
    config: VerifierConfig,
    // watch-only knobs
    once: bool,
    interval_ms: u64,
    expect_reverified: Option<usize>,
    max_wall_ms: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: daenerys <check|verify|explain|cost|watch> FILE... [flags]\n\
         \n\
         common flags:\n\
         \x20 --json                 machine-readable output\n\
         \x20 --no-color             plain text (byte-stable for tests/pipes)\n\
         \x20 --backend B            destabilized (default) | stable\n\
         \x20 --threads N            verification fan-out (0 = one per CPU)\n\
         \x20 --timeout-ms N         per-method wall-clock budget\n\
         \x20 --fuel N               per-method solver-fuel budget\n\
         \x20 --deny-unstable        fail methods with unstable contracts\n\
         \x20 --cache-dir PATH       persistent verdict store (incremental)\n\
         \x20 --max-errors N         parse-diagnostic cap (default {DEFAULT_MAX_ERRORS})\n\
         \n\
         watch flags:\n\
         \x20 --once                 one warm pass, print the dirty cone, exit\n\
         \x20 --interval-ms N        poll interval (default 50)\n\
         \x20 --expect-reverified N  gate: exact re-verified count (exit 1 on mismatch)\n\
         \x20 --max-wall-ms MS       gate: pass wall-time ceiling (exit 1 when over)"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args.first().map(String::as_str) {
        Some("check") => Cmd::Check,
        Some("verify") => Cmd::Verify,
        Some("explain") => Cmd::Explain,
        Some("cost") => Cmd::Cost,
        Some("watch") => Cmd::Watch,
        _ => usage(),
    };
    let mut cli = Cli {
        cmd,
        files: Vec::new(),
        json: false,
        color: if std::io::stdout().is_terminal() {
            ColorMode::Always
        } else {
            ColorMode::Never
        },
        max_errors: DEFAULT_MAX_ERRORS,
        backend: Backend::Destabilized,
        config: VerifierConfig::default(),
        once: false,
        interval_ms: 50,
        expect_reverified: None,
        max_wall_ms: None,
    };
    let mut i = 1;
    let mut budget = Budget::unlimited();
    while i < args.len() {
        let a = args[i].as_str();
        let mut value = |what: &str| -> String {
            i += 1;
            match args.get(i) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => {
                    eprintln!("daenerys: {a} needs {what}");
                    std::process::exit(2);
                }
            }
        };
        match a {
            "--json" => cli.json = true,
            "--no-color" => cli.color = ColorMode::Never,
            "--once" => cli.once = true,
            "--deny-unstable" => cli.config.deny_unstable = true,
            "--backend" => {
                cli.backend = match value("a backend").as_str() {
                    "destabilized" => Backend::Destabilized,
                    "stable" => Backend::StableBaseline,
                    other => {
                        eprintln!("daenerys: unknown backend {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--threads" => cli.config.threads = parse_num(&value("a count"), a),
            "--timeout-ms" => budget = budget.with_deadline_ms(parse_num(&value("ms"), a) as u64),
            "--fuel" => budget = budget.with_solver_fuel(parse_num(&value("a budget"), a) as u64),
            "--cache-dir" => cli.config.cache_dir = Some(PathBuf::from(value("a directory"))),
            "--max-errors" => cli.max_errors = parse_num(&value("a count"), a),
            "--interval-ms" => cli.interval_ms = parse_num(&value("ms"), a) as u64,
            "--expect-reverified" => cli.expect_reverified = Some(parse_num(&value("a count"), a)),
            "--max-wall-ms" => cli.max_wall_ms = Some(parse_num(&value("ms"), a) as f64),
            _ if a.starts_with("--") => {
                eprintln!("daenerys: unknown flag {a:?}");
                usage();
            }
            path => cli.files.push(PathBuf::from(path)),
        }
        i += 1;
    }
    cli.config.budget = budget;
    if cli.files.is_empty() {
        eprintln!("daenerys: no input files");
        usage();
    }
    if cli.cmd == Cmd::Watch && cli.files.len() != 1 {
        eprintln!("daenerys: watch takes exactly one file");
        std::process::exit(2);
    }
    cli
}

fn parse_num(v: &str, flag: &str) -> usize {
    v.parse().unwrap_or_else(|_| {
        eprintln!("daenerys: {flag} wants a number, got {v:?}");
        std::process::exit(2);
    })
}

fn read_file(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("daenerys: cannot read {}: {}", path.display(), e);
        std::process::exit(2);
    })
}

/// Parse (with multi-error recovery) + well-formedness check, rendering
/// every diagnostic. `Err` carries nothing: diagnostics were printed
/// and the file counts as failed.
fn front_end(cli: &Cli, file: &SourceFile, text: &str, renderer: &Renderer) -> Result<Program, ()> {
    let program = match parse_program_with_recovery_capped(text, cli.max_errors) {
        Ok(p) => p,
        Err(errors) => {
            print!("{}", renderer.parse_errors(file, &errors));
            return Err(());
        }
    };
    if let Err(errors) = check_program(&program) {
        print!("{}", renderer.wf_errors(file, &errors));
        return Err(());
    }
    Ok(program)
}

/// `check`/`explain`: front end + stability lints, no solver.
/// `verbose` renders every spec site (explain); otherwise only
/// non-stable sites surface. Returns `false` when the file fails
/// (parse/wf errors, or unstable specs under `--deny-unstable`).
fn check_one(cli: &Cli, path: &PathBuf, renderer: &Renderer, verbose: bool) -> bool {
    let text = read_file(path);
    let file = SourceFile::new(path.display().to_string(), &text);
    let Ok(program) = front_end(cli, &file, &text, renderer) else {
        return false;
    };
    let verdicts = analyze_program(&program);
    let unstable = verdicts
        .iter()
        .filter(|v| v.class == StabilityClass::Unstable)
        .count();
    if cli.json {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"file\": {},\n  \"methods\": {},\n  \"spec_sites\": {},\n  \"unstable\": {},\n  \"lints\": [\n",
            escape_json(&file.name),
            program.methods.len(),
            verdicts.len(),
            unstable,
        ));
        let shown: Vec<_> = verdicts
            .iter()
            .filter(|v| verbose || v.class != StabilityClass::Stable)
            .collect();
        for (i, v) in shown.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"method\": {}, \"site\": \"{}\", \"class\": \"{}\", \"findings\": [{}]}}{}\n",
                escape_json(&v.method),
                v.site,
                v.class,
                v.findings
                    .iter()
                    .map(|f| escape_json(&f.to_string()))
                    .collect::<Vec<_>>()
                    .join(", "),
                if i + 1 < shown.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        print!("{out}");
    } else {
        for v in &verdicts {
            print!("{}", renderer.stability_verdict(&file, v, verbose));
        }
        let mut counts = [0usize; 3];
        for v in &verdicts {
            counts[match v.class {
                StabilityClass::Stable => 0,
                StabilityClass::FramedStable => 1,
                StabilityClass::Unstable => 2,
            }] += 1;
        }
        println!(
            "{}: {} method(s), {} spec site(s): {} stable, {} framed-stable, {} unstable",
            file.name,
            program.methods.len(),
            verdicts.len(),
            counts[0],
            counts[1],
            counts[2],
        );
    }
    !(cli.config.deny_unstable && unstable > 0)
}

/// `cost`: front end + static cost report.
fn cost_one(cli: &Cli, path: &PathBuf, renderer: &Renderer) -> bool {
    let text = read_file(path);
    let file = SourceFile::new(path.display().to_string(), &text);
    let Ok(program) = front_end(cli, &file, &text, renderer) else {
        return false;
    };
    let costs = estimate_program(&program);
    if cli.json {
        print!("{}", render_cost_json(&file.name, &costs));
    } else {
        println!("{}:", file.name);
        print!("{}", render_cost_table(&costs, renderer.color));
    }
    true
}

/// Prints one verification outcome: failures in full, then the
/// summary line (and the dirty cone for incremental runs).
fn print_outcome(
    cli: &Cli,
    file: &SourceFile,
    outcome: &VerifyOutcome,
    renderer: &Renderer,
) -> bool {
    let mut clean = true;
    let total = outcome.verdicts.len();
    let verified = outcome
        .verdicts
        .values()
        .filter(|v| v.is_verified())
        .count();
    if cli.json {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"file\": {},\n", escape_json(&file.name)));
        out.push_str("  \"verdicts\": {\n");
        let n = outcome.verdicts.len();
        for (i, (name, v)) in outcome.verdicts.iter().enumerate() {
            clean &= v.is_verified();
            out.push_str(&format!(
                "    {}: {}{}\n",
                escape_json(name),
                escape_json(&v.to_string()),
                if i + 1 < n { "," } else { "" },
            ));
        }
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"verified\": {verified},\n  \"methods\": {total},\n"
        ));
        if let Some(r) = outcome.reverified {
            out.push_str(&format!(
                "  \"reverified\": {r},\n  \"store_hits\": {},\n  \"store_misses\": {},\n  \"store_dirty_transitive\": {},\n",
                outcome.store_hits.unwrap_or(0),
                outcome.store_misses.unwrap_or(0),
                outcome.store_dirty_transitive.unwrap_or(0),
            ));
        }
        out.push_str(&format!(
            "  \"obligations\": {},\n  \"solver_queries\": {}\n}}\n",
            outcome.stats.obligations, outcome.stats.solver_queries,
        ));
        print!("{out}");
    } else {
        for (name, v) in &outcome.verdicts {
            if !v.is_verified() {
                clean = false;
                print!("{}", renderer.verdict(name, v));
            }
        }
        let mut line = format!("{}: verified {verified}/{total} method(s)", file.name);
        if let Some(r) = outcome.reverified {
            line.push_str(&format!(
                " (re-verified {r}, store hits {}, dirty-transitive {})",
                outcome.store_hits.unwrap_or(0),
                outcome.store_dirty_transitive.unwrap_or(0),
            ));
        }
        println!("{line}");
        if let Some(cone) = &outcome.reverified_methods {
            print_cone(cone);
        }
    }
    clean
}

/// Prints the dirty cone, capped so hub edits on monorepo-scale
/// corpora stay readable.
fn print_cone(cone: &[String]) {
    const CAP: usize = 16;
    if cone.is_empty() {
        return;
    }
    let shown: Vec<&str> = cone.iter().take(CAP).map(String::as_str).collect();
    let suffix = if cone.len() > CAP {
        format!(" … (+{} more)", cone.len() - CAP)
    } else {
        String::new()
    };
    println!("  dirty cone: {}{}", shown.join(", "), suffix);
}

/// `verify`: front end + full verification through the warm host.
fn verify_one(cli: &Cli, host: &SessionHost, path: &PathBuf, renderer: &Renderer) -> bool {
    let text = read_file(path);
    let file = SourceFile::new(path.display().to_string(), &text);
    let Ok(program) = front_end(cli, &file, &text, renderer) else {
        return false;
    };
    let outcome = host.session().verify_program(&program);
    print_outcome(cli, &file, &outcome, renderer)
}

/// One watch pass: read, front-end, warm verify, report. Returns
/// `(clean, reverified, wall_ms)`; `None` counts when the host has no
/// store.
fn watch_pass(cli: &Cli, host: &SessionHost, renderer: &Renderer) -> (bool, Option<usize>, f64) {
    let path = &cli.files[0];
    let text = read_file(path);
    let file = SourceFile::new(path.display().to_string(), &text);
    let start = Instant::now();
    let Ok(program) = front_end(cli, &file, &text, renderer) else {
        return (false, None, start.elapsed().as_secs_f64() * 1000.0);
    };
    let outcome = host.session().verify_program(&program);
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let clean = print_outcome(cli, &file, &outcome, renderer);
    println!(
        "  pass: re-verified {} in {:.1} ms",
        outcome.reverified.map_or_else(
            || "all (no store)".to_string(),
            |r| format!("{r} method(s)")
        ),
        wall_ms
    );
    (clean, outcome.reverified, wall_ms)
}

/// `watch --once`: one warm pass with CI gates.
fn watch_once(cli: &Cli, host: &SessionHost, renderer: &Renderer) -> i32 {
    let (clean, reverified, wall_ms) = watch_pass(cli, host, renderer);
    let mut code = i32::from(!clean);
    if let Some(want) = cli.expect_reverified {
        match reverified {
            Some(got) if got == want => {}
            Some(got) => {
                eprintln!("daenerys: watch gate: re-verified {got}, expected {want}");
                code = 1;
            }
            None => {
                eprintln!("daenerys: watch gate: --expect-reverified needs --cache-dir");
                code = 2;
            }
        }
    }
    if let Some(cap) = cli.max_wall_ms {
        if wall_ms > cap {
            eprintln!("daenerys: watch gate: pass took {wall_ms:.1} ms, ceiling is {cap} ms");
            code = 1;
        }
    }
    code
}

/// `watch` (continuous): poll content hashes, debounce, re-verify the
/// dirty cone through the warm store on every settled edit.
fn watch_loop(cli: &Cli, host: &SessionHost, renderer: &Renderer) -> i32 {
    let path = &cli.files[0];
    let _ = watch_pass(cli, host, renderer);
    let mut debounce = Debounce::new(daenerys_cli::content_hash(read_file(path).as_bytes()));
    println!(
        "watching {} (every {} ms; ctrl-c to stop)",
        path.display(),
        cli.interval_ms
    );
    loop {
        std::thread::sleep(std::time::Duration::from_millis(cli.interval_ms));
        let Ok(bytes) = std::fs::read(path) else {
            // Editors replace files non-atomically; treat a missing
            // file as "still settling".
            continue;
        };
        if debounce.observe(daenerys_cli::content_hash(&bytes)) {
            let _ = watch_pass(cli, host, renderer);
        }
    }
}

fn main() {
    let cli = parse_cli();
    let renderer = Renderer::new(cli.color);
    let code = match cli.cmd {
        Cmd::Check | Cmd::Explain => {
            let verbose = cli.cmd == Cmd::Explain;
            let mut ok = true;
            for path in &cli.files {
                ok &= check_one(&cli, path, &renderer, verbose);
            }
            i32::from(!ok)
        }
        Cmd::Cost => {
            let mut ok = true;
            for path in &cli.files {
                ok &= cost_one(&cli, path, &renderer);
            }
            i32::from(!ok)
        }
        Cmd::Verify => {
            let host = SessionHost::new(cli.backend, cli.config.clone());
            let mut ok = true;
            for path in &cli.files {
                ok &= verify_one(&cli, &host, path, &renderer);
            }
            if let Err(e) = host.flush_store() {
                eprintln!("daenerys: store flush failed: {e}");
                ok = false;
            }
            i32::from(!ok)
        }
        Cmd::Watch => {
            let host = SessionHost::new(cli.backend, cli.config.clone());
            if cli.once {
                let mut code = watch_once(&cli, &host, &renderer);
                if let Err(e) = host.flush_store() {
                    eprintln!("daenerys: store flush failed: {e}");
                    code = 1;
                }
                code
            } else {
                watch_loop(&cli, &host, &renderer)
            }
        }
    };
    std::process::exit(code);
}
