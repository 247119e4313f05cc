//! Golden tests for `daenerys` diagnostic rendering: exact byte
//! comparisons of `--no-color` output, which the CLI guarantees is
//! deterministic (no wall-clock figures, dirty cones in program
//! order). Each test drives the built binary from a scratch directory
//! with relative file names so paths in the output are stable.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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

#[test]
fn cost_report_is_deterministic_and_json_mode_parses() {
    let dir = scratch("cost");
    std::fs::write(
        dir.join("prog.idf"),
        "field v: Int\nmethod hot(c: Ref, d: Ref) requires acc(c.v) && d.v > 0 ensures acc(c.v) { c.v := 1; c.v := 2 }\nmethod calm(c: Ref) requires acc(c.v) ensures acc(c.v) { }\n",
    )
    .unwrap();
    let a = stdout(&daenerys(&dir, &["cost", "prog.idf", "--no-color"]));
    let b = stdout(&daenerys(&dir, &["cost", "prog.idf", "--no-color"]));
    assert_eq!(a, b, "table output is byte-stable");
    assert!(a.contains("destabilize or stabilize its spec"), "{a}");
    let json = stdout(&daenerys(&dir, &["cost", "prog.idf", "--json"]));
    let parsed = daenerys_obs::parse_json(&json).expect("cost JSON parses");
    drop(parsed);
    assert!(json.contains("\"summary\""), "{json}");
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
