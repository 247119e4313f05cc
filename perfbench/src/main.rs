//! The repository benchmark. See `BENCHMARK.md` for the workloads, the
//! metrics, and how to compare two commits.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//!           [--scale full|smoke] [--wrong-answer]
//! ```
//!
//! Each run is a fresh process. It prints every figure as
//! `name value unit`, then one JSON result object as the last line of
//! stdout, and writes the same result with its supporting figures to
//! `target/perfbench/` (plus the span file of a traced run).

mod daemon;
mod inproc;
mod measure;
mod spans;

use measure::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["f1_mix", "solver_heavy", "watch_4k", "daemon_ladder"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `watch_4k` corpus size (4000, or 200 at smoke scale) and the
    /// traced daemon ladder (two steps, or one 1 s step at smoke scale).
    smoke: bool,
    wrong_answer: bool,
}

fn usage() -> String {
    format!(
        "usage: benchmark --workload {} --seed N --seconds S --trace 0|1\n\
         \x20                [--scale full|smoke] [--wrong-answer]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        wrong_answer: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--wrong-answer" {
            args.wrong_answer = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        let bad = || format!("bad value {:?} for {}", value, flag);
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.smoke = match value.as_str() {
                    "full" => false,
                    "smoke" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {}", flag)),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn run(args: &Args, out: &Path, scratch: &Path, report: &mut Report) -> Result<(), String> {
    let trace_out = out.join(format!("{}-seed{}.trace.jsonl", args.workload, args.seed));
    let suite = match args.workload.as_str() {
        "f1_mix" => inproc::f1_mix(args.seed),
        "solver_heavy" => inproc::solver_heavy(args.seed),
        "watch_4k" => inproc::watch(args.seed, if args.smoke { 200 } else { 4000 }, report)?,
        _ => {
            return if args.trace {
                daemon::traced(scratch, &trace_out, args.seed, args.smoke, report)
            } else {
                daemon::measure(scratch, args.seed, args.seconds, args.wrong_answer, report)
            };
        }
    };
    if args.trace {
        inproc::traced(&suite, scratch, &trace_out, report)
    } else {
        inproc::measure(&suite, scratch, args.seconds, args.wrong_answer, report)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve") {
        return match argv.get(1).map(|dir| daemon::serve(Path::new(dir))) {
            Some(Ok(())) => ExitCode::SUCCESS,
            Some(Err(e)) => {
                eprintln!("benchmark --serve: {}", e);
                ExitCode::FAILURE
            }
            None => {
                eprintln!("benchmark --serve needs a directory");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {}\n{}", e, usage());
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from("target/perfbench");
    let scratch = out.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("benchmark: {}: {}", scratch.display(), e);
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    let result = run(&args, &out, &scratch, &mut report);
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = result {
        eprintln!("benchmark: {}: {}", args.workload, e);
        return ExitCode::FAILURE;
    }
    let summary = out.join(format!(
        "{}-seed{}{}.json",
        args.workload,
        args.seed,
        if args.trace { "-trace" } else { "" }
    ));
    let json = report.summary_json(&args.workload, args.seed, args.trace);
    if let Err(e) = std::fs::write(&summary, json.render() + "\n") {
        eprintln!("benchmark: {}: {}", summary.display(), e);
        return ExitCode::FAILURE;
    }
    report.print();
    ExitCode::SUCCESS
}
