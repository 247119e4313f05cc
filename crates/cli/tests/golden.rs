//! Golden tests for `daenerys` diagnostic rendering: exact byte
//! comparisons of `--no-color` output, which the CLI guarantees is
//! deterministic (no wall-clock figures, dirty cones in program
//! order). Each test drives the built binary from a scratch directory
//! with relative file names so paths in the output are stable.

use daenerys_bench::corpus::{Corpus, CorpusSpec};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("daenerys-golden-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn daenerys(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_daenerys"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

#[test]
fn caret_underlines_point_at_the_offending_read() {
    let dir = scratch("caret");
    std::fs::write(
        dir.join("unstable.idf"),
        "field val: Int\n\nmethod peek(c: Ref)\n  requires c.val > 0\n  ensures c.val > 0\n{\n}\n",
    )
    .unwrap();
    let out = daenerys(&dir, &["check", "unstable.idf", "--no-color"]);
    assert_eq!(out.status.code(), Some(0), "lints alone do not fail check");
    let text = stdout(&out);
    let expected = "warning: precondition of method `peek` is unstable\n\
                    \x20 --> unstable.idf:4:12\n\
                    \x20    |\n\
                    \x20  4 |   requires c.val > 0\n\
                    \x20    |            ^^^^^\n\
                    \x20 = help: at 4:12: heap read `c.val` has no covering permission in scope; \
                    precede `c.val` with `acc(c.val, _)` or wrap it in `old(..)`\n";
    assert!(
        text.starts_with(expected),
        "caret block renders byte-exactly:\n{text}"
    );
    assert!(
        text.contains("0 stable, 0 framed-stable, 2 unstable"),
        "summary tallies classes: {text}"
    );
}

#[test]
fn multi_error_recovery_renders_every_parse_error() {
    let dir = scratch("recovery");
    std::fs::write(
        dir.join("two.idf"),
        "method a( {\nmethod b() { }\nmethod c( {\n",
    )
    .unwrap();
    let out = daenerys(&dir, &["check", "two.idf", "--no-color"]);
    assert_eq!(out.status.code(), Some(1), "parse errors fail check");
    let text = stdout(&out);
    assert!(
        text.contains("--> two.idf:1:11"),
        "first error located: {text}"
    );
    assert!(
        text.contains("--> two.idf:3:11"),
        "recovery reaches the second error past the healthy method: {text}"
    );
    assert!(
        text.contains("error: 2 parse error(s) in two.idf"),
        "trailing count: {text}"
    );
    let carets = text.matches("|           ^").count();
    assert_eq!(carets, 2, "one caret row per error: {text}");
}

#[test]
fn stability_lints_carry_actionable_fix_hints() {
    let dir = scratch("hints");
    std::fs::write(
        dir.join("mix.idf"),
        "field v: Int\n\nmethod stable_one(c: Ref)\n  requires acc(c.v) && c.v > 0\n  ensures acc(c.v)\n{\n}\n\nmethod shaky(c: Ref)\n  requires c.v > 0\n{\n}\n",
    )
    .unwrap();
    let out = daenerys(&dir, &["check", "mix.idf", "--no-color"]);
    let text = stdout(&out);
    assert!(
        text.contains("precede `c.v` with `acc(c.v, _)` or wrap it in `old(..)`"),
        "fix hint names the concrete subject: {text}"
    );
    assert!(
        !text.contains("is stable\n"),
        "stable sites stay quiet outside explain: {text}"
    );
    let explained = stdout(&daenerys(&dir, &["explain", "mix.idf", "--no-color"]));
    assert!(
        explained.contains("is stable\n"),
        "explain renders every site, stable ones included: {explained}"
    );
    // Lints become hard failures under --deny-unstable.
    let denied = daenerys(&dir, &["check", "mix.idf", "--no-color", "--deny-unstable"]);
    assert_eq!(denied.status.code(), Some(1));
}

#[test]
fn verify_output_is_byte_stable_across_thread_counts() {
    let dir = scratch("threads");
    let source: String = (0..24)
        .map(|i| {
            format!(
                "method m{i}(c: Ref) requires acc(c.v) ensures acc(c.v) && c.v == {i} {{ c.v := {i} }}\n"
            )
        })
        .collect();
    std::fs::write(dir.join("wide.idf"), format!("field v: Int\n{source}")).unwrap();
    let mut renders = Vec::new();
    for threads in ["1", "2", "8"] {
        let store = format!("store-{threads}");
        let out = daenerys(
            &dir,
            &[
                "verify",
                "wide.idf",
                "--no-color",
                "--threads",
                threads,
                "--cache-dir",
                &store,
            ],
        );
        assert_eq!(out.status.code(), Some(0), "all methods verify");
        renders.push(stdout(&out));
    }
    assert_eq!(renders[0], renders[1], "1 vs 2 threads");
    assert_eq!(renders[1], renders[2], "2 vs 8 threads");
    assert!(
        renders[0].contains("re-verified 24"),
        "cold store re-verifies everything: {}",
        renders[0]
    );
    assert!(
        renders[0].contains("dirty cone: m0, m1, m2"),
        "cone in program order regardless of schedule: {}",
        renders[0]
    );
}

#[test]
fn failure_reports_render_the_structured_evidence() {
    let dir = scratch("failure");
    std::fs::write(
        dir.join("bad.idf"),
        "field v: Int\n\nmethod bad(c: Ref)\n  requires acc(c.v, 1/2)\n  ensures acc(c.v, 1/2)\n{\n  c.v := 1\n}\n",
    )
    .unwrap();
    let out = daenerys(&dir, &["verify", "bad.idf", "--no-color"]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(
        text.contains("error: method `bad` failed"),
        "headline names the method: {text}"
    );
    assert!(
        text.contains("first failure:"),
        "report sections render: {text}"
    );
    assert!(text.contains("heap chunks in scope:"), "{text}");
    assert!(text.contains("verified 0/1 method(s)"), "{text}");
}

/// One `cost --json` row's counters, in the report's column order.
fn cost_row(row: &daenerys_obs::Json) -> (String, [u64; 6]) {
    let o = row.as_obj().expect("row is an object");
    let n = |k: &str| {
        o.get(k)
            .and_then(|v| v.as_num())
            .unwrap_or_else(|| panic!("{k}")) as u64
    };
    let name = o.get("method").and_then(|m| m.as_str()).unwrap();
    let counters = [
        "fuel",
        "queries",
        "obligations",
        "states",
        "decisions",
        "rebinds",
    ]
    .map(n);
    (name.to_string(), counters)
}

#[test]
fn cost_rows_are_the_sessions_measured_counters() {
    use daenerys_idf::{
        parse_program, positive_cases, Backend, SessionHost, Verdict, VerifierConfig,
    };
    let dir = scratch("cost-counters");
    let mut sources = vec![(
        "diverging_6".to_string(),
        daenerys_idf::diverging_program(6),
    )];
    for case in positive_cases() {
        if ["bank_transfer", "abs_branch"].contains(&case.name) {
            sources.push((case.name.to_string(), case.source.to_string()));
        }
    }
    assert_eq!(sources.len(), 3);
    for (name, source) in &sources {
        let file = format!("{name}.idf");
        std::fs::write(dir.join(&file), source).unwrap();
        for (backend, flag) in [
            (Backend::Destabilized, "destabilized"),
            (Backend::StableBaseline, "stable"),
        ] {
            let out = daenerys(&dir, &["cost", &file, "--json", "--backend", flag]);
            assert_eq!(out.status.code(), Some(0));
            let json = daenerys_obs::parse_json(&stdout(&out)).expect("cost JSON parses");
            let rows = json.as_obj().unwrap()["methods"].as_arr().unwrap().to_vec();
            let program = parse_program(source).unwrap();
            let outcome = SessionHost::new(backend, VerifierConfig::default())
                .session()
                .verify_program(&program);
            assert_eq!(rows.len(), outcome.verdicts.len(), "{name} {flag}");
            for row in &rows {
                let (method, counters) = cost_row(row);
                let Verdict::Verified(s) = &outcome.verdicts[&method] else {
                    panic!("{name}::{method} verifies");
                };
                let want = [
                    s.solver_conflicts + s.solver_propagations,
                    s.solver_queries,
                    s.obligations,
                    s.states,
                    s.solver_branches,
                    s.rebinds,
                ]
                .map(|n| n as u64);
                assert_eq!(counters, want, "{name}::{method} on {flag}");
            }
            let fuels: Vec<u64> = rows.iter().map(|r| cost_row(r).1[0]).collect();
            assert!(
                fuels.windows(2).all(|w| w[0] >= w[1]),
                "fuel desc: {fuels:?}"
            );
        }
    }
}

#[test]
fn cost_report_is_byte_stable_and_lists_failing_methods() {
    let dir = scratch("cost");
    let source = format!(
        "{}method hot(c: Ref, d: Ref) requires acc(c.val) && d.val > 0 ensures acc(c.val) {{ c.val := 1 }}\n",
        daenerys_idf::diverging_program(4)
    );
    std::fs::write(dir.join("prog.idf"), source).unwrap();
    let mut renders = Vec::new();
    for threads in ["1", "2", "8"] {
        let out = daenerys(
            &dir,
            &["cost", "prog.idf", "--no-color", "--threads", threads],
        );
        assert_eq!(
            out.status.code(),
            Some(0),
            "a failing method does not fail cost"
        );
        renders.push(stdout(&out));
    }
    for _cold_then_warm in 0..2 {
        let out = daenerys(
            &dir,
            &["cost", "prog.idf", "--no-color", "--cache-dir", "store"],
        );
        assert_eq!(out.status.code(), Some(0));
        renders.push(stdout(&out));
    }
    for (i, r) in renders.iter().enumerate() {
        assert_eq!(r, &renders[0], "render {i} (threads 1/2/8, cold, warm)");
    }
    let text = &renders[0];
    let rows: Vec<&str> = text.lines().skip(4).take(4).collect();
    assert!(rows[0].starts_with("diverge "), "hottest first: {text}");
    let last: Vec<&str> = rows[3].split_whitespace().collect();
    assert_eq!(last, ["hot", "failed"], "verdict-only row last: {text}");
    assert!(
        text.contains("  hot — destabilize or stabilize its spec\n"),
        "hot-unstable hint: {text}"
    );
}

#[test]
fn json_output_escapes_control_characters_in_file_names() {
    let dir = scratch("json-escape");
    let name = "tab\tname.idf";
    std::fs::write(
        dir.join(name),
        "field v: Int\nmethod set(c: Ref) requires acc(c.v) ensures acc(c.v) && c.v == 1 { c.v := 1 }\n",
    )
    .unwrap();
    for cmd in ["verify", "check", "cost"] {
        let json = stdout(&daenerys(&dir, &[cmd, name, "--json"]));
        let parsed = daenerys_obs::parse_json(&json)
            .unwrap_or_else(|e| panic!("{cmd} --json does not parse ({e}):\n{json}"));
        let file = parsed.as_obj().and_then(|o| o.get("file")?.as_str());
        assert_eq!(file, Some(name), "{cmd} --json:\n{json}");
    }
}

#[test]
fn watch_once_gates_on_the_exact_dirty_cone() {
    let dir = scratch("watch");
    let base: String = (0..12)
        .map(|i| {
            format!(
                "method w{i}(c: Ref) requires acc(c.v) ensures acc(c.v) && c.v == {i} {{ c.v := {i} }}\n"
            )
        })
        .collect();
    std::fs::write(dir.join("w.idf"), format!("field v: Int\n{base}")).unwrap();
    let cold = daenerys(
        &dir,
        &["verify", "w.idf", "--no-color", "--cache-dir", "store"],
    );
    assert_eq!(cold.status.code(), Some(0));
    // Leaf-body edit: only w3's body changes; its spec fingerprint is
    // untouched so the cone is exactly {w3}.
    let edited = format!(
        "field v: Int\n{}",
        base.replace("{ c.v := 3 }", "{ c.v := 2; c.v := 3 }")
    );
    std::fs::write(dir.join("w.idf"), edited).unwrap();
    let warm = daenerys(
        &dir,
        &[
            "watch",
            "w.idf",
            "--once",
            "--no-color",
            "--cache-dir",
            "store",
            "--expect-reverified",
            "1",
            "--max-wall-ms",
            "60000.5",
        ],
    );
    let text = stdout(&warm);
    assert_eq!(warm.status.code(), Some(0), "gate passes: {text}");
    assert!(
        text.contains("dirty cone: w3\n"),
        "cone is exactly the edited leaf: {text}"
    );
    // The same gate trips when the expectation is wrong.
    let tripped = daenerys(
        &dir,
        &[
            "watch",
            "w.idf",
            "--once",
            "--no-color",
            "--cache-dir",
            "store",
            "--expect-reverified",
            "5",
        ],
    );
    assert_eq!(
        tripped.status.code(),
        Some(1),
        "mismatched cone fails the gate"
    );
}

#[test]
fn json_mode_prints_only_json() {
    let dir = scratch("json-only");
    std::fs::write(
        dir.join("bad.idf"),
        "field v: Int\nmethod m(c: Ref) {\n  assert ",
    )
    .unwrap();
    std::fs::write(
        dir.join("dup.idf"),
        "field v: Int\nmethod m(c: Ref) { }\nmethod m(c: Ref) { }\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("ok.idf"),
        "field v: Int\nmethod m(c: Ref) requires acc(c.v) ensures acc(c.v) { c.v := 1 }\n",
    )
    .unwrap();
    let objects = |args: &[&str]| -> Vec<daenerys_obs::Json> {
        let text = stdout(&daenerys(&dir, args));
        assert!(!text.is_empty(), "{args:?} printed nothing");
        text.lines()
            .map(|l| {
                daenerys_obs::parse_json(l)
                    .unwrap_or_else(|e| panic!("{args:?}: not JSON ({e}): {l}"))
            })
            .collect()
    };
    for cmd in ["check", "explain", "verify", "cost"] {
        for (file, kind) in [("bad.idf", "parse"), ("dup.idf", "wf")] {
            let docs = objects(&[cmd, file, "--json"]);
            assert_eq!(docs.len(), 1, "{cmd} {file}: one object per file");
            let doc = docs[0].as_obj().unwrap();
            assert_eq!(doc["file"].as_str(), Some(file));
            let error = doc["errors"].as_arr().unwrap()[0].as_obj().unwrap();
            assert_eq!(error["kind"].as_str(), Some(kind), "{cmd} {file}");
        }
    }
    let docs = objects(&[
        "watch",
        "ok.idf",
        "--once",
        "--json",
        "--cache-dir",
        "store",
    ]);
    assert_eq!(docs.len(), 1, "watch --once --json prints one object");
    assert!(docs[0].as_obj().unwrap().contains_key("reverified"));
}

#[test]
fn max_wall_ms_takes_a_finite_non_negative_number() {
    let dir = scratch("max-wall");
    std::fs::write(
        dir.join("ok.idf"),
        "field v: Int\nmethod m(c: Ref) requires acc(c.v) ensures acc(c.v) { c.v := 1 }\n",
    )
    .unwrap();
    for bad in ["-1", "NaN", "inf", "12ms"] {
        let out = daenerys(&dir, &["watch", "ok.idf", "--once", "--max-wall-ms", bad]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--max-wall-ms {bad} is a usage error"
        );
    }
    let out = daenerys(&dir, &["watch", "ok.idf", "--once", "--max-wall-ms", "0.0"]);
    assert_eq!(out.status.code(), Some(1), "a 0 ms ceiling trips the gate");
}

/// A reader that closes the pipe early (`daenerys verify FILE | head
/// -1`) ends the CLI the way it ends any Unix filter: no panic message,
/// no backtrace, never exit status 101.
#[test]
fn closed_stdout_ends_the_cli_quietly() {
    let dir = scratch("closed-stdout");
    let corpus = Corpus::generate(CorpusSpec {
        methods: 200,
        ..CorpusSpec::default()
    });
    std::fs::write(dir.join("c200.idf"), corpus.source(None)).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_daenerys"))
        .current_dir(&dir)
        .args(["verify", "c200.idf", "--no-color"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Close the read end while the child is still verifying, so its
    // first write meets a closed pipe.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("child exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert_ne!(out.status.code(), Some(101), "{:?}", out.status);
}

/// A verdict store that cannot be written is one warning per pass on
/// stderr. The verdicts are still printed as a writable store prints
/// them; the exit code stays the failed final flush's 1.
#[test]
fn a_failed_store_commit_is_one_warning_on_stderr() {
    let dir = scratch("store-write");
    std::fs::write(
        dir.join("ok.idf"),
        "field v: Int\nmethod m(c: Ref) requires acc(c.v) ensures acc(c.v) { c.v := 1 }\n",
    )
    .unwrap();
    // The store file's path is a directory: every write to it fails.
    std::fs::create_dir_all(dir.join("broken").join("verdicts.daes")).unwrap();
    const WARNING: &str = "warning: verdict store not written: ";
    let runs: [&[&str]; 4] = [
        &["verify", "ok.idf", "--no-color"],
        &["verify", "ok.idf", "--json"],
        &["cost", "ok.idf", "--no-color"],
        &["watch", "ok.idf", "--once", "--json"],
    ];
    for (i, args) in runs.iter().enumerate() {
        let run = |store: &str| daenerys(&dir, &[args, &["--cache-dir", store][..]].concat());
        let out = run("broken");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let warnings: Vec<&str> = stderr.lines().filter(|l| l.starts_with(WARNING)).collect();
        assert_eq!(warnings.len(), 1, "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(1), "{args:?}: the flush fails");
        if args[0] != "watch" {
            let fresh = run(&format!("fresh-{i}"));
            assert_eq!(fresh.status.code(), Some(0), "{args:?}");
            assert!(fresh.stderr.is_empty(), "{args:?}");
            assert_eq!(stdout(&out), stdout(&fresh), "{args:?}: stdout unchanged");
        }
    }
}

/// Each pass's commit is the store's only write: a warm pass that
/// restores every method neither replaces nor rewrites the file.
#[test]
fn a_warm_pass_leaves_the_store_file_untouched() {
    use std::os::unix::fs::MetadataExt;
    let dir = scratch("warm-store");
    std::fs::write(
        dir.join("ok.idf"),
        "field v: Int\nmethod m(c: Ref) requires acc(c.v) ensures acc(c.v) { c.v := 1 }\n\
         method n(c: Ref) requires acc(c.v) ensures acc(c.v) { call m(c) }\n",
    )
    .unwrap();
    let cold = daenerys(&dir, &["verify", "ok.idf", "--cache-dir", "store"]);
    assert_eq!(cold.status.code(), Some(0));
    let file = dir.join("store").join("verdicts.daes");
    let runs: [&[&str]; 3] = [
        &["verify", "ok.idf", "--json"],
        &["cost", "ok.idf", "--no-color"],
        &["watch", "ok.idf", "--once", "--expect-reverified", "0"],
    ];
    for args in runs {
        let (inode, bytes) = (
            std::fs::metadata(&file).unwrap().ino(),
            std::fs::read(&file).unwrap(),
        );
        let out = daenerys(&dir, &[args, &["--cache-dir", "store"][..]].concat());
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert_eq!(
            std::fs::metadata(&file).unwrap().ino(),
            inode,
            "{args:?}: the file was replaced"
        );
        assert_eq!(
            std::fs::read(&file).unwrap(),
            bytes,
            "{args:?}: the file was rewritten"
        );
    }
}
