//! Edit-replay bench for the incremental verdict store.
//!
//! Generates a synthetic monorepo-scale corpus (see
//! `daenerys_bench::corpus`), then sweeps cold → warm → scripted-edit
//! runs against a persistent store and gates every phase against the
//! generator's own ground truth:
//!
//! - **cold**: fresh store, everything verifies;
//! - **warm**: nothing re-verifies, and the streamed store load stays
//!   under `--max-load-ms` (default 50 ms);
//! - **edit-leaf-body**: exactly one method re-verifies;
//! - **edit-hub-spec**: exactly the hub's reverse-reachable cone
//!   re-verifies (ground truth from the generated adjacency);
//! - **edit-spec-noop**: a formatting-only spec touch re-verifies
//!   nothing.
//!
//! A differential pass re-runs the warm restore at `--threads`
//! (default `1,2,8`) and asserts the restored verdicts are
//! bit-identical to the cold run's. Results land in
//! `target/bench/BENCH_incremental.json` (override with `--out`); any
//! gate failure exits non-zero, so CI can call this binary directly.
//!
//! ```text
//! store_replay [--methods N] [--depth N] [--fan-out N] [--diamond PCT]
//!              [--seed N] [--threads LIST]
//!              [--max-load-ms MS] [--expect-reverified N] [--out FILE]
//! ```

use daenerys_bench::corpus::{Corpus, CorpusSpec, Edit};
use daenerys_idf::{parse_program, Backend, SessionHost, Verdict, VerdictStore, VerifierConfig};
use daenerys_obs::escape_json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One phase's measurements, as they land in the JSON report.
struct Phase {
    name: &'static str,
    reverified: usize,
    expected: usize,
    wall_ms: f64,
    store_load_ms: Option<f64>,
}

struct Options {
    spec: CorpusSpec,
    threads: Vec<usize>,
    max_load_ms: f64,
    expect_reverified: Option<usize>,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: store_replay [--methods N] [--depth N] [--fan-out N] [--diamond PCT]\n\
         \x20                   [--seed N] [--threads LIST]\n\
         \x20                   [--max-load-ms MS] [--expect-reverified N] [--out FILE]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut opts = Options {
        spec: CorpusSpec::default(),
        threads: vec![1, 2, 8],
        max_load_ms: 50.0,
        expect_reverified: None,
        out: PathBuf::from("target/bench/BENCH_incremental.json"),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("store_replay: {} needs a value", flag);
            usage();
        });
        let num = |what: &str| -> usize {
            value.parse().unwrap_or_else(|_| {
                eprintln!("store_replay: {} wants {}, got {:?}", flag, what, value);
                usage();
            })
        };
        match flag {
            "--methods" => opts.spec.methods = num("a count"),
            "--depth" => opts.spec.depth = num("a layer count"),
            "--fan-out" => opts.spec.fan_out = num("a count"),
            "--diamond" => opts.spec.diamond_pct = num("a percentage") as u32,
            "--seed" => opts.spec.seed = num("a seed") as u64,
            "--max-load-ms" => opts.max_load_ms = num("milliseconds") as f64,
            "--expect-reverified" => opts.expect_reverified = Some(num("a count")),
            "--threads" => {
                opts.threads = value
                    .split(',')
                    .map(|t| {
                        t.trim().parse().unwrap_or_else(|_| {
                            eprintln!("store_replay: bad thread count {:?}", t);
                            usage();
                        })
                    })
                    .collect()
            }
            "--out" => opts.out = PathBuf::from(&value),
            _ => {
                eprintln!("store_replay: unknown flag {:?}", flag);
                usage();
            }
        }
        i += 2;
    }
    if opts.threads.is_empty() {
        opts.threads = vec![1];
    }
    opts
}

/// One verification pass against the store in `dir`; returns the
/// normalized verdicts, the re-verified count, and the wall time.
fn run(src: &str, dir: &Path, threads: usize) -> (BTreeMap<String, Verdict>, usize, f64) {
    let program = parse_program(src).unwrap_or_else(|e| {
        eprintln!("store_replay: generated corpus failed to parse: {:?}", e);
        std::process::exit(1);
    });
    let config = VerifierConfig {
        threads,
        cache_dir: Some(dir.to_path_buf()),
        ..VerifierConfig::default()
    };
    let start = Instant::now();
    let host = SessionHost::new(Backend::Destabilized, config);
    let outcome = host.session().verify_program(&program);
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let verdicts: BTreeMap<String, Verdict> = outcome
        .verdicts
        .into_iter()
        .map(|(name, verdict)| (name, verdict.normalized()))
        .collect();
    let reverified = outcome
        .reverified
        .expect("cache_dir is set, so the run is incremental");
    (verdicts, reverified, wall_ms)
}

/// Copies every regular file of `from` into a fresh `to`, so each edit
/// phase replays against a pristine warm store.
fn snapshot(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create snapshot dir");
    for entry in std::fs::read_dir(from).expect("read store dir") {
        let entry = entry.expect("read store dir entry");
        if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy store file");
        }
    }
}

fn main() {
    let opts = parse_options();
    let corpus = Corpus::generate(opts.spec);
    let hub = corpus.hub();
    let cone = corpus.reverse_reachable(hub).len();
    let scratch =
        std::env::temp_dir().join(format!("daenerys-store-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let cold_dir = scratch.join("cold");
    let base = corpus.source(None);
    let threads = opts.threads[0];

    let mut phases: Vec<Phase> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    fn gate(phases: &mut Vec<Phase>, failures: &mut Vec<String>, phase: Phase) {
        if phase.reverified != phase.expected {
            failures.push(format!(
                "{}: re-verified {} methods, expected {}",
                phase.name, phase.reverified, phase.expected
            ));
        }
        eprintln!(
            "store_replay: {:<16} reverified {:>6} (expected {:>6})  {:>9.1} ms{}",
            phase.name,
            phase.reverified,
            phase.expected,
            phase.wall_ms,
            phase
                .store_load_ms
                .map(|ms| format!("  (store load {:.2} ms)", ms))
                .unwrap_or_default(),
        );
        phases.push(phase);
    }

    // Phase 1: cold — fresh store, the whole corpus verifies.
    let (cold_verdicts, reverified, wall_ms) = run(&base, &cold_dir, threads);
    gate(
        &mut phases,
        &mut failures,
        Phase {
            name: "cold",
            reverified,
            expected: corpus.len(),
            wall_ms,
            store_load_ms: None,
        },
    );

    // Phase 2: warm — same source, nothing re-verifies, and the
    // streamed store load itself stays fast.
    let load_start = Instant::now();
    let store = VerdictStore::open(&cold_dir);
    let store_load_ms = load_start.elapsed().as_secs_f64() * 1000.0;
    if store.len() != corpus.len() {
        failures.push(format!(
            "warm store holds {} entries, expected {}",
            store.len(),
            corpus.len()
        ));
    }
    drop(store);
    let (warm_verdicts, reverified, wall_ms) = run(&base, &cold_dir, threads);
    gate(
        &mut phases,
        &mut failures,
        Phase {
            name: "warm",
            reverified,
            expected: 0,
            wall_ms,
            store_load_ms: Some(store_load_ms),
        },
    );
    if opts.max_load_ms > 0.0 && store_load_ms > opts.max_load_ms {
        failures.push(format!(
            "store load took {:.2} ms, gate is {} ms",
            store_load_ms, opts.max_load_ms
        ));
    }
    if warm_verdicts != cold_verdicts {
        failures.push("warm restore changed a verdict".to_string());
    }

    // Phases 3–5: scripted edits, each replayed against a pristine
    // snapshot of the warm store.
    for edit in [Edit::TouchLeafBody, Edit::TouchHubSpec, Edit::TouchSpecNoop] {
        let dir = scratch.join(edit.name());
        snapshot(&cold_dir, &dir);
        let (_, reverified, wall_ms) = run(&corpus.source(Some(edit)), &dir, threads);
        let expected = corpus.expected_reverified(edit);
        if edit == Edit::TouchHubSpec {
            if let Some(want) = opts.expect_reverified {
                if reverified != want {
                    failures.push(format!(
                        "edit-hub-spec: re-verified {}, --expect-reverified {}",
                        reverified, want
                    ));
                }
            }
        }
        gate(
            &mut phases,
            &mut failures,
            Phase {
                name: match edit {
                    Edit::TouchLeafBody => "edit-leaf-body",
                    Edit::TouchHubSpec => "edit-hub-spec",
                    Edit::TouchSpecNoop => "edit-spec-noop",
                },
                reverified,
                expected,
                wall_ms,
                store_load_ms: None,
            },
        );
    }

    // Differential: warm restores are bit-identical to the cold run at
    // every thread count.
    let mut differential: Vec<(usize, bool)> = Vec::new();
    for &t in &opts.threads {
        let dir = scratch.join(format!("diff-{}", t));
        snapshot(&cold_dir, &dir);
        let (verdicts, _, _) = run(&base, &dir, t);
        let identical = verdicts == cold_verdicts;
        if !identical {
            failures.push(format!(
                "restored verdicts differ from cold at {} thread(s)",
                t
            ));
        }
        differential.push((t, identical));
    }

    // Render BENCH_incremental.json by hand (no serde in-tree).
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"methods\": {}, \"depth\": {}, \"fan_out\": {}, \"diamond_pct\": {}, \"seed\": {}, \"store_format\": \"daes1\", \"threads\": [{}]}},",
        opts.spec.methods,
        opts.spec.depth,
        opts.spec.fan_out,
        opts.spec.diamond_pct,
        opts.spec.seed,
        opts.threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    let _ = write!(
        json,
        "  \"hub\": {}, \"hub_cone\": {},\n  \"phases\": [\n",
        escape_json(&Corpus::method_name(hub)),
        cone
    );
    for (i, p) in phases.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"phase\": \"{}\", \"reverified\": {}, \"expected\": {}, \"wall_ms\": {:.3}{}}}{}",
            p.name,
            p.reverified,
            p.expected,
            p.wall_ms,
            p.store_load_ms
                .map(|ms| format!(", \"store_load_ms\": {:.3}", ms))
                .unwrap_or_default(),
            if i + 1 < phases.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n  \"differential\": [\n");
    for (i, (t, ok)) in differential.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"bit_identical\": {}}}{}",
            t,
            ok,
            if i + 1 < differential.len() { "," } else { "" },
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"gates_passed\": {}\n}}",
        failures.is_empty()
    );
    if let Some(parent) = opts.out.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    std::fs::write(&opts.out, &json).unwrap_or_else(|e| {
        eprintln!("store_replay: cannot write {}: {}", opts.out.display(), e);
        std::process::exit(1);
    });
    eprintln!("store_replay: wrote {}", opts.out.display());

    let _ = std::fs::remove_dir_all(&scratch);
    if failures.is_empty() {
        eprintln!("store_replay: all gates passed");
    } else {
        for f in &failures {
            eprintln!("store_replay: GATE FAILED: {}", f);
        }
        std::process::exit(1);
    }
}
