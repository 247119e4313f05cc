//! Runs every workload of `BENCHMARK.json` at smoke size through the
//! built benchmark binary: a 200-method `watch_4k` corpus and 1 s runs.

use daenerys_obs::{parse_json, validate_event_line, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bench_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(bench: &'a Json, key: &str) -> Vec<&'a BTreeMap<String, Json>> {
    bench.as_obj().expect("object")[key]
        .as_arr()
        .expect("array")
        .iter()
        .map(|m| m.as_obj().expect("entry"))
        .collect()
}

fn name(entry: &BTreeMap<String, Json>) -> &str {
    entry["name"].as_str().expect("name")
}

/// Where runs put their output files.
fn workdir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
}

/// Runs the benchmark; returns its stdout and the parsed result line.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (String, Json) {
    let seed = seed.to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", &seed, "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "smoke"])
        .args(extra)
        .current_dir(workdir())
        .output()
        .expect("run benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{} exited with {}: {}",
        workload,
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json(last).expect("the last line is JSON");
    (stdout, result)
}

fn num(result: &Json, key: &str) -> f64 {
    result.as_obj().expect("object")[key]
        .as_num()
        .expect("number")
}

/// Every metric of `expected` is printed as `name value unit` and sits
/// in the result with that unit; the result holds nothing else, and no
/// op failed.
fn check_metrics(
    workload: &str,
    stdout: &str,
    result: &Json,
    expected: &[&BTreeMap<String, Json>],
) {
    let obj = result.as_obj().expect("object");
    assert_eq!(obj["correct"], Json::Bool(true), "{}: {}", workload, stdout);
    assert_eq!(num(result, "failed"), 0.0, "{}", workload);
    assert!(num(result, "attempted") >= 1.0, "{}", workload);
    let metrics = obj["metrics"].as_obj().expect("metrics");
    let names: Vec<&str> = expected.iter().map(|m| name(m)).collect();
    assert_eq!(
        metrics.keys().map(String::as_str).collect::<Vec<_>>(),
        {
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted
        },
        "{}: exactly the listed metrics",
        workload
    );
    for m in expected {
        let unit = m["unit"].as_str().expect("unit");
        let cell = metrics[name(m)].as_obj().expect("cell");
        assert_eq!(
            cell["unit"].as_str(),
            Some(unit),
            "{} {}",
            workload,
            name(m)
        );
        let value = cell["value"].as_num().expect("value");
        let line = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name(m)))
            .unwrap_or_else(|| panic!("{}: no line for {}", workload, name(m)));
        let words: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(words.len(), 3, "{}: {:?}", workload, line);
        assert_eq!(
            words[1].parse::<f64>().ok(),
            Some(value),
            "{}: {:?}",
            workload,
            line
        );
        assert_eq!(words[2], unit, "{}: {:?}", workload, line);
    }
}

/// The per-layer figures that are counts of work, not times.
fn counts(result: &Json) -> BTreeMap<String, f64> {
    result.as_obj().expect("object")["metrics"]
        .as_obj()
        .expect("metrics")
        .iter()
        .filter(|(name, cell)| {
            let unit = cell.as_obj().expect("cell")["unit"].as_str();
            unit != Some("ms") && *name != "session.coverage" && *name != "trace.overhead"
        })
        .map(|(name, cell)| {
            (
                name.clone(),
                cell.as_obj().expect("cell")["value"]
                    .as_num()
                    .expect("value"),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let bench = bench_json();
    let end_to_end = list(&bench, "end_to_end");
    let per_layer = list(&bench, "per_layer");
    for (i, workload) in list(&bench, "workloads").into_iter().enumerate() {
        let workload = name(workload);
        let seed = 100 + i as u64;
        let (stdout, result) = run(workload, seed, false, &[]);
        check_metrics(workload, &stdout, &result, &end_to_end);

        let (stdout, first) = run(workload, seed, true, &[]);
        check_metrics(workload, &stdout, &first, &per_layer);
        let (_, second) = run(workload, seed, true, &[]);
        assert_eq!(
            counts(&first),
            counts(&second),
            "{}: traced counts repeat",
            workload
        );

        let trace = workdir().join(format!(
            "target/perfbench/{}-seed{}.trace.jsonl",
            workload, seed
        ));
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(text.lines().count() > 0, "{}: empty trace", workload);
        for line in text.lines() {
            validate_event_line(line).unwrap_or_else(|e| panic!("{}: {}: {}", workload, e, line));
        }
    }
}

#[test]
fn a_wrong_known_answer_counts_as_a_failed_op() {
    for workload in ["f1_mix", "watch_4k", "daemon_ladder"] {
        let (_, result) = run(workload, 7, false, &["--wrong-answer"]);
        assert_eq!(num(&result, "failed"), 1.0, "{}", workload);
        assert_eq!(
            result.as_obj().expect("object")["correct"],
            Json::Bool(false),
            "{}",
            workload
        );
    }
}
