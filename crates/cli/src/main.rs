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
//! surface the daemon and the bench harness share. `cost` verifies like
//! `verify` and reports each method's measured solver work, read from
//! its verdict's statistics (restored from the warm store when the
//! fingerprint matches). Exit codes: 0 clean, 1 diagnostics or failed
//! verdicts (or a tripped watch gate; `cost` fails only on front-end
//! errors), 2 usage. A pass whose verdict-store commit fails prints
//! one `warning:` line on stderr, keeps its verdicts and stdout, and
//! exits 1. Each pass's commit is the store's only write: a pass that
//! restores every method leaves the store file untouched.

use daenerys_cli::{Debounce, Renderer, SourceFile};
use daenerys_idf::{
    analyze_program, check_program, parse_program_with_recovery_capped, Backend, Budget, Program,
    SessionHost, StabilityClass, Verdict, VerifierConfig, VerifyOutcome, DEFAULT_MAX_ERRORS,
};
use daenerys_obs::{fmt_count, ColorMode, Json, Style, TextTable};
use std::collections::BTreeSet;
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
         commands:\n\
         \x20 check | explain       stability lints (explain: every spec site), no solver\n\
         \x20 verify                verify every method, reporting failures\n\
         \x20 cost                  verify, then report each method's measured solver work\n\
         \x20 watch                 re-verify on every settled edit of one file\n\
         \n\
         common flags:\n\
         \x20 --json                 machine-readable output\n\
         \x20 --no-color             plain text (byte-stable for tests/pipes)\n\
         \x20 --backend B            destabilized (default) | stable\n\
         \x20 --threads N            verification fan-out (0 = one per CPU)\n\
         \x20 --timeout-ms N         per-method wall-clock budget\n\
         \x20 --fuel N               per-method solver-fuel budget\n\
         \x20 --deny-unstable        fail methods with unstable contracts\n\
         \x20 --cache-dir PATH       persistent verdict store, one per program (incremental)\n\
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
            "--max-wall-ms" => cli.max_wall_ms = Some(parse_ms(&value("ms"), a)),
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

/// A finite, non-negative (possibly fractional) millisecond value.
fn parse_ms(v: &str, flag: &str) -> f64 {
    match v.parse::<f64>() {
        Ok(ms) if ms.is_finite() && ms >= 0.0 => ms,
        _ => {
            eprintln!("daenerys: {flag} wants a non-negative number of ms, got {v:?}");
            std::process::exit(2);
        }
    }
}

fn read_file(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("daenerys: cannot read {}: {}", path.display(), e);
        std::process::exit(2);
    })
}

/// Parse (with multi-error recovery) + well-formedness check,
/// reporting every diagnostic (in JSON mode, as one object per file).
/// `Err` carries nothing: diagnostics were printed and the file counts
/// as failed.
fn front_end(cli: &Cli, file: &SourceFile, text: &str, renderer: &Renderer) -> Result<Program, ()> {
    // A 0 line or column means "unknown".
    let error = |kind: &str, line: usize, col: usize, message: String| {
        let pos = |n: usize| if n == 0 { Json::Null } else { n.into() };
        Json::obj([
            ("kind", kind.into()),
            ("line", pos(line)),
            ("col", pos(col)),
            ("message", message.into()),
        ])
    };
    let (errors, rendered) = match parse_program_with_recovery_capped(text, cli.max_errors) {
        Err(errors) => {
            let json = errors
                .iter()
                .map(|e| error("parse", e.line, e.col, e.message.clone()));
            (
                json.collect::<Vec<_>>(),
                renderer.parse_errors(file, &errors),
            )
        }
        Ok(program) => match check_program(&program) {
            Ok(()) => return Ok(program),
            Err(errors) => {
                let json = errors.iter().map(|e| {
                    let (line, col) = (e.span.line as usize, e.span.col as usize);
                    let message = if e.method.is_empty() {
                        e.message.clone()
                    } else {
                        format!("{} in method `{}`", e.message, e.method)
                    };
                    error("wf", line, col, message)
                });
                (json.collect(), renderer.wf_errors(file, &errors))
            }
        },
    };
    if cli.json {
        let doc = Json::obj([
            ("file", file.name.as_str().into()),
            ("errors", Json::Arr(errors)),
        ]);
        println!("{}", doc.render());
    } else {
        print!("{rendered}");
    }
    Err(())
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
        let lints = verdicts
            .iter()
            .filter(|v| verbose || v.class != StabilityClass::Stable)
            .map(|v| {
                let findings = v.findings.iter().map(|f| f.to_string().into());
                Json::obj([
                    ("method", v.method.as_str().into()),
                    ("site", v.site.to_string().into()),
                    ("class", v.class.to_string().into()),
                    ("findings", Json::Arr(findings.collect())),
                ])
            });
        let doc = Json::obj([
            ("file", file.name.as_str().into()),
            ("methods", program.methods.len().into()),
            ("spec_sites", verdicts.len().into()),
            ("unstable", unstable.into()),
            ("lints", Json::Arr(lints.collect())),
        ]);
        println!("{}", doc.render());
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

/// Verifies a checked program through the warm host. A verdict store
/// that could not be written is one warning on stderr: the verdicts
/// stand, so stdout does not change, but the caller counts the file as
/// failed.
fn verify(host: &SessionHost, program: &Program) -> VerifyOutcome {
    let outcome = host.session().verify_program(program);
    if let Some(e) = &outcome.store_write_error {
        eprintln!("warning: verdict store not written: {e}");
    }
    outcome
}

/// `cost`: front end + verification through the warm host, reporting
/// each method's measured work from its verdict's statistics. Fuel is
/// conflicts + propagations, the unit of the solver-fuel budget; rows
/// sort by fuel (highest first, ties by name) and methods that did not
/// verify follow with their verdict word alone. Hot methods are those
/// with an unstable spec site, the ones `--deny-unstable` rejects.
/// Fails only on front-end errors and on a failed store commit.
fn cost_one(cli: &Cli, host: &SessionHost, path: &PathBuf, renderer: &Renderer) -> bool {
    let text = read_file(path);
    let file = SourceFile::new(path.display().to_string(), &text);
    let Ok(program) = front_end(cli, &file, &text, renderer) else {
        return false;
    };
    let outcome = verify(host, &program);
    let hot: BTreeSet<String> = analyze_program(&program)
        .into_iter()
        .filter(|v| v.class == StabilityClass::Unstable)
        .map(|v| v.method)
        .collect();
    // Per method: its counters in `COLUMNS` order, or its verdict word.
    const COLUMNS: [&str; 6] = [
        "fuel",
        "queries",
        "obligations",
        "states",
        "decisions",
        "rebinds",
    ];
    let mut rows: Vec<(&String, Result<[u64; 6], &str>)> = outcome
        .verdicts
        .iter()
        .map(|(name, v)| {
            let row = match v {
                Verdict::Verified(s) => Ok([
                    s.solver_conflicts + s.solver_propagations,
                    s.solver_queries,
                    s.obligations,
                    s.states,
                    s.solver_branches,
                    s.rebinds,
                ]
                .map(|n| n as u64)),
                Verdict::Failed { .. } => Err("failed"),
                Verdict::Unknown { .. } => Err("unknown"),
                Verdict::CrashedInternal { .. } => Err("crashed"),
            };
            (name, row)
        })
        .collect();
    // Stable sort: the map already orders names.
    rows.sort_by_key(|(_, row)| (row.is_err(), std::cmp::Reverse(row.map_or(0, |c| c[0]))));
    if cli.json {
        let methods = rows.iter().map(|(name, row)| {
            let mut fields = vec![
                ("method", name.as_str().into()),
                ("verdict", row.err().unwrap_or("verified").into()),
                ("hot_unstable", hot.contains(*name).into()),
            ];
            if let Ok(counters) = row {
                fields.extend(COLUMNS.into_iter().zip(counters.map(Json::from)));
            }
            Json::obj(fields)
        });
        let doc = Json::obj([
            ("file", file.name.as_str().into()),
            ("methods", Json::Arr(methods.collect())),
        ]);
        println!("{}", doc.render());
        return outcome.store_write_error.is_none();
    }
    let color = renderer.color;
    println!("{}:", file.name);
    println!("{}", Style::HEAD.paint(color, "measured cost (fuel desc)"));
    let mut table = TextTable::new(&[&["method"][..], &COLUMNS].concat());
    for (name, row) in &rows {
        let cells = match row {
            Ok(counters) => counters.map(fmt_count).to_vec(),
            Err(word) => vec![word.to_string()],
        };
        table.row(&[vec![name.to_string()], cells].concat());
    }
    print!("{table}");
    if hot.is_empty() {
        println!("{}", Style::OK.paint(color, "no hot unstable specs"));
    } else {
        println!(
            "{} {} method(s) have unstable specs:",
            Style::WARN.paint(color, "hot:"),
            hot.len()
        );
        for name in &hot {
            println!(
                "  {} — destabilize or stabilize its spec",
                Style::BOLD.paint(color, name)
            );
        }
    }
    outcome.store_write_error.is_none()
}

/// Prints one verification outcome: failures in full, then the
/// summary line (and the dirty cone for incremental runs). Clean when
/// every method verified and the pass's store commit succeeded.
fn print_outcome(
    cli: &Cli,
    file: &SourceFile,
    outcome: &VerifyOutcome,
    renderer: &Renderer,
) -> bool {
    let total = outcome.verdicts.len();
    let verified = outcome
        .verdicts
        .values()
        .filter(|v| v.is_verified())
        .count();
    if cli.json {
        let verdicts = outcome
            .verdicts
            .iter()
            .map(|(name, v)| (name.as_str(), v.to_string().into()));
        let mut fields = vec![
            ("file", file.name.as_str().into()),
            ("verdicts", Json::obj(verdicts)),
            ("verified", verified.into()),
            ("methods", total.into()),
            ("obligations", outcome.stats.obligations.into()),
            ("solver_queries", outcome.stats.solver_queries.into()),
        ];
        if let Some(r) = outcome.reverified {
            fields.extend([
                ("reverified", r.into()),
                ("store_hits", outcome.store_hits.unwrap_or(0).into()),
                ("store_misses", outcome.store_misses.unwrap_or(0).into()),
                (
                    "store_dirty_transitive",
                    outcome.store_dirty_transitive.unwrap_or(0).into(),
                ),
            ]);
        }
        println!("{}", Json::obj(fields).render());
    } else {
        for (name, v) in &outcome.verdicts {
            if !v.is_verified() {
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
    verified == total && outcome.store_write_error.is_none()
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
    let outcome = verify(host, &program);
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
    let outcome = verify(host, &program);
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let clean = print_outcome(cli, &file, &outcome, renderer);
    if !cli.json {
        println!(
            "  pass: re-verified {} in {:.1} ms",
            outcome.reverified.map_or_else(
                || "all (no store)".to_string(),
                |r| format!("{r} method(s)")
            ),
            wall_ms
        );
    }
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
    if !cli.json {
        println!(
            "watching {} (every {} ms; ctrl-c to stop)",
            path.display(),
            cli.interval_ms
        );
    }
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

/// Restores the default `SIGPIPE` action, which the Rust runtime
/// replaces with "ignore": a reader that closes stdout early
/// (`daenerys verify FILE | head -1`) then ends the process quietly,
/// as it ends any Unix filter, instead of making `println!` panic.
#[cfg(unix)]
fn restore_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // Linux numbering; `SIG_DFL` is the null handler.
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_sigpipe() {}

fn main() {
    restore_sigpipe();
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
        Cmd::Verify | Cmd::Cost => {
            let host = SessionHost::new(cli.backend, cli.config.clone());
            let run = if cli.cmd == Cmd::Cost {
                cost_one
            } else {
                verify_one
            };
            let mut ok = true;
            for path in &cli.files {
                ok &= run(&cli, &host, path, &renderer);
            }
            i32::from(!ok)
        }
        Cmd::Watch => {
            let host = SessionHost::new(cli.backend, cli.config.clone());
            if cli.once {
                watch_once(&cli, &host, &renderer)
            } else {
                watch_loop(&cli, &host, &renderer)
            }
        }
    };
    std::process::exit(code);
}
