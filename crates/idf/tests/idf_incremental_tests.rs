//! Integration tests for incremental verification (`cache_dir`): the
//! persistent verdict store must skip exactly the methods whose
//! semantic fingerprint is unchanged, reproduce their verdicts
//! bit-identically, and never persist an indefinite outcome.

use daenerys_idf::{
    all_cases, config_fingerprint, diverging_program, method_fingerprint, parse_program, Backend,
    Budget, FaultKind, FaultPlan, Program, SessionHost, Verdict, VerdictStore, VerifierConfig,
    VerifyOutcome,
};
use std::collections::BTreeMap;
use std::path::PathBuf;

const SRC: &str = "field val: Int
     method get(c: Ref) returns (r: Int)
       requires acc(c.val, 1/2)
       ensures acc(c.val, 1/2) && r == c.val
     { r := c.val }
     method double(c: Ref) returns (r: Int)
       requires acc(c.val, 1/2)
       ensures acc(c.val, 1/2)
     { var t: Int := 0; call t := get(c); r := t + t }
     method free(n: Int) returns (r: Int)
       requires n >= 0
       ensures r >= 0
     { r := n }";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("daenerys-ivc-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &std::path::Path) -> VerifierConfig {
    VerifierConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..VerifierConfig::default()
    }
}

/// One incremental pass through a fresh host over `cfg`'s store — a
/// process restart between passes, with no `flush_store`: only each
/// pass's commit carries verdicts from one pass to the next.
fn pass(program: &Program, cfg: &VerifierConfig) -> VerifyOutcome {
    let host = SessionHost::new(Backend::Destabilized, cfg.clone());
    host.session().verify_program(program)
}

/// Normalized verdicts from a storeless host: the cold reference.
fn storeless(program: &Program) -> BTreeMap<String, Verdict> {
    SessionHost::new(Backend::Destabilized, VerifierConfig::default())
        .session()
        .verify_program(program)
        .verdicts
        .into_iter()
        .map(|(name, verdict)| (name, verdict.normalized()))
        .collect()
}

/// Runs one incremental pass; returns (normalized verdicts, reverified).
fn run(program: &Program, cfg: &VerifierConfig) -> (BTreeMap<String, Verdict>, usize) {
    let outcome = pass(program, cfg);
    let verdicts = outcome
        .verdicts
        .into_iter()
        .map(|(name, verdict)| (name, verdict.normalized()))
        .collect();
    let reverified = outcome
        .reverified
        .expect("incremental runs report a reverified count");
    (verdicts, reverified)
}

#[test]
fn second_run_reverifies_nothing_bit_identically() {
    let dir = temp_dir("warm");
    let program = parse_program(SRC).unwrap();
    let cfg = config(&dir);
    let (first, reverified_1) = run(&program, &cfg);
    assert_eq!(reverified_1, 3, "cold store re-verifies everything");
    assert!(first.values().all(Verdict::is_verified));
    let (second, reverified_2) = run(&program, &cfg);
    assert_eq!(reverified_2, 0, "warm store re-verifies nothing");
    assert_eq!(first, second, "restored verdicts are bit-identical");
    // Thread count must not perturb the restored run either.
    for threads in [2usize, 8] {
        let cfg_n = VerifierConfig {
            threads,
            ..cfg.clone()
        };
        let (again, reverified_n) = run(&program, &cfg_n);
        assert_eq!(reverified_n, 0);
        assert_eq!(first, again);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn body_edit_invalidates_exactly_that_method() {
    let dir = temp_dir("body-edit");
    let cfg = config(&dir);
    let (_, cold) = run(&parse_program(SRC).unwrap(), &cfg);
    assert_eq!(cold, 3);
    // A body-only edit of a leaf method: only that method re-verifies.
    let edited = SRC.replace("{ r := n }", "{ r := n + 0 }");
    let (verdicts, warm) = run(&parse_program(&edited).unwrap(), &cfg);
    assert_eq!(warm, 1, "only the edited method re-verifies");
    assert!(verdicts.values().all(Verdict::is_verified));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spec_edit_invalidates_the_method_and_its_callers() {
    let dir = temp_dir("spec-edit");
    let cfg = config(&dir);
    let (_, cold) = run(&parse_program(SRC).unwrap(), &cfg);
    assert_eq!(cold, 3);
    // Strengthening get's postcondition invalidates get AND double
    // (its direct caller), but not the unrelated free.
    let edited = SRC.replace("r == c.val", "r == c.val && r >= old(c.val)");
    let (_, warm) = run(&parse_program(&edited).unwrap(), &cfg);
    assert_eq!(warm, 2, "the edited method plus its caller re-verify");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_verdicts_are_restored_with_full_diagnostics() {
    let dir = temp_dir("failed");
    let cfg = config(&dir);
    let bad = "field val: Int
         method broken(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1
         { c.val := 2 }";
    let program = parse_program(bad).unwrap();
    let (first, cold) = run(&program, &cfg);
    assert_eq!(cold, 1);
    let (second, warm) = run(&program, &cfg);
    assert_eq!(warm, 0, "a definite Failed verdict is restorable");
    assert_eq!(first, second);
    match &second["broken"] {
        Verdict::Failed { failures, report } => {
            assert!(!failures.is_empty());
            assert_eq!(report.method, "broken");
            assert!(!report.first_failure.is_empty());
        }
        other => panic!("expected Failed, got {:?}", other),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_verdicts_are_never_persisted() {
    let dir = temp_dir("unknown");
    let cfg = VerifierConfig {
        budget: Budget::unlimited().with_solver_fuel(64),
        retry_unknown: false,
        ..config(&dir)
    };
    let program = parse_program(&diverging_program(10)).unwrap();
    let (first, cold) = run(&program, &cfg);
    assert_eq!(cold, 3);
    let unknowns = first
        .values()
        .filter(|v| matches!(v, Verdict::Unknown { .. }))
        .count();
    assert_eq!(unknowns, 1, "the diverging method exhausts its fuel");
    let (second, warm) = run(&program, &cfg);
    assert_eq!(
        warm, 1,
        "the Unknown method re-verifies; its definite siblings restore"
    );
    assert_eq!(first, second);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_costs_reverification_not_correctness() {
    // Stomp the DAES1 store file with garbage.
    let dir = temp_dir("corrupt");
    let cfg = config(&dir);
    let program = parse_program(SRC).unwrap();
    let (first, _) = run(&program, &cfg);
    std::fs::write(dir.join(VerdictStore::FILE_NAME), b"definitely not DAES1").unwrap();
    let (second, warm) = run(&program, &cfg);
    assert_eq!(warm, 3, "a damaged store re-verifies everything");
    assert_eq!(first, second);
    // And the rewritten store is warm again.
    let (_, again) = run(&program, &cfg);
    assert_eq!(again, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_jsonl_store_is_ignored_and_left_untouched() {
    // A directory holding only a `verdicts.jsonl` from the retired
    // line-JSON encoding opens as an empty DAES1 store: every method
    // re-verifies, verdicts match a storeless run, and the legacy file
    // is never rewritten or removed.
    let dir = temp_dir("legacy-jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    let legacy = dir.join("verdicts.jsonl");
    let text = "{\"method\":\"get@0123456789abcdef0123456789abcdef\",\
                \"fp\":\"fedcba9876543210fedcba9876543210\",\"verdict\":\"verified\",\
                \"stats\":{\"obligations\":2}}\n{\"method\":\"free\",\"verdict\":\"evict\"}\n";
    std::fs::write(&legacy, text).unwrap();
    assert!(VerdictStore::open(&dir).is_empty());

    let program = parse_program(SRC).unwrap();
    let expected = storeless(&program);
    let cfg = config(&dir);
    let (first, cold) = run(&program, &cfg);
    assert_eq!(cold, 3, "nothing is read from the legacy file");
    assert_eq!(first, expected);
    let (second, warm) = run(&program, &cfg);
    assert_eq!(warm, 0, "the DAES1 file written by the first run is warm");
    assert_eq!(second, expected);
    assert_eq!(std::fs::read_to_string(&legacy).unwrap(), text);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn answer_affecting_config_switch_invalidates_the_store() {
    // `deny_unstable` can fail a method the default verifies, so it is
    // part of the config fingerprint: verdicts cached under one setting
    // must never be replayed for the other, even where both agree on
    // every answer (as on this stable corpus).
    let dir = temp_dir("config-switch");
    let cfg = config(&dir);
    let program = parse_program(SRC).unwrap();
    let (first, cold) = run(&program, &cfg);
    assert_eq!(cold, 3);
    let strict = VerifierConfig {
        deny_unstable: true,
        ..cfg.clone()
    };
    let (second, switched) = run(&program, &strict);
    assert_eq!(switched, 3, "a config switch re-verifies everything");
    assert!(
        second.values().all(Verdict::is_verified)
            && first.keys().eq(second.keys())
            && first.values().all(Verdict::is_verified),
        "both configurations verify every method"
    );
    // Store entries are keyed by the answer-affecting config
    // fingerprint, so the second pass wrote entries *alongside* the
    // first ones instead of overwriting them: switching either way is
    // warm from now on.
    let (back, warm) = run(&program, &cfg);
    assert_eq!(warm, 0, "per-config entries coexist; no thrashing");
    assert_eq!(back, first);
    let (again, warm) = run(&program, &strict);
    assert_eq!(warm, 0);
    assert_eq!(again, second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one cold incremental pass of `program` under `cfg` and asserts
/// that every definite verdict it stored sits under the method's
/// [`method_fingerprint`]: the fingerprints a pass computes in one
/// batch, from its dependency graph, are the one-method ones.
fn assert_pass_fingerprints_are_method_fingerprints(program: &Program, cfg: &VerifierConfig) {
    let (verdicts, _) = run(program, cfg);
    let dir = cfg.cache_dir.as_ref().expect("an incremental config");
    let store = VerdictStore::open(dir);
    let cfg_fp = config_fingerprint(Backend::Destabilized, cfg);
    let mut definite = 0;
    for (name, verdict) in &verdicts {
        if matches!(verdict, Verdict::Verified(_) | Verdict::Failed { .. }) {
            definite += 1;
            let method = program.method(name).unwrap();
            let fp = method_fingerprint(program, method, Backend::Destabilized, cfg);
            assert!(
                store.lookup(&format!("{}@{}", name, cfg_fp), fp).is_some(),
                "{} is stored under its method_fingerprint",
                name
            );
        }
    }
    assert_eq!(store.len(), definite, "one entry per definite verdict");
}

#[test]
fn pass_fingerprints_match_method_fingerprint_on_f1() {
    for case in all_cases() {
        let dir = temp_dir(&format!("batch-{}", case.name));
        let program = parse_program(case.source).unwrap();
        assert_pass_fingerprints_are_method_fingerprints(&program, &config(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn pass_fingerprints_match_method_fingerprint_under_a_fault_plan() {
    // A fault that never fires keeps `double`'s verdict definite (so it
    // is stored) while putting a fault slice into its fingerprint only.
    let dir = temp_dir("batch-faults");
    let program = parse_program(SRC).unwrap();
    let cfg = VerifierConfig {
        faults: FaultPlan::none().inject("double", FaultKind::SolverUnknownAfter(1_000_000)),
        ..config(&dir)
    };
    assert_pass_fingerprints_are_method_fingerprints(&program, &cfg);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_graph_fingerprint_drops_the_node_and_reverifies_its_cone() {
    // One byte of `get`'s interface fingerprint flips inside its node
    // record. The record checksum catches it, so `get` loads as an
    // absent node: it becomes a spec-dirty root, so it and its caller
    // `double` re-verify, and `free` stays warm.
    let dir = temp_dir("damaged-iface");
    let cfg = config(&dir);
    let program = parse_program(SRC).unwrap();
    let (first, cold) = run(&program, &cfg);
    assert_eq!(cold, 3);
    // Walk the file's frames (24-byte file header, then a 16-byte
    // frame header holding the payload length and the record kind
    // before each payload) to the node record (kind 3) whose payload
    // opens with the length-prefixed name `get`, and flip the first
    // interface byte after the name.
    let name = b"\x03\x00\x00\x00get";
    let path = dir.join(VerdictStore::FILE_NAME);
    let mut bytes = std::fs::read(&path).unwrap();
    let mut flipped = 0;
    let mut pos = 24;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let payload = pos + 16;
        if bytes[pos + 4] == 3 && bytes[payload..].starts_with(name) {
            bytes[payload + name.len()] ^= 0x01;
            flipped += 1;
        }
        pos = payload + len;
    }
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(flipped, 1, "the file holds one node record for `get`");
    let store = VerdictStore::open(&dir);
    assert!(
        store.graph().node("get").is_none(),
        "the damaged node is dropped"
    );
    assert!(store.graph().node("double").is_some());
    assert_eq!(store.corrupt_lines(), 1);
    drop(store);
    let outcome = pass(&program, &cfg);
    assert_eq!(
        outcome.reverified_methods,
        Some(vec!["get".to_string(), "double".to_string()]),
        "the dropped node's caller cone re-verifies"
    );
    let second: BTreeMap<String, Verdict> = outcome
        .verdicts
        .into_iter()
        .map(|(name, verdict)| (name, verdict.normalized()))
        .collect();
    assert_eq!(first, second);
    let (_, warm) = run(&program, &cfg);
    assert_eq!(warm, 0, "the rewritten graph is whole again");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parent_format_cache_dir_upgrades_by_reverifying_once() {
    // `fixtures/parent_store` was written for `SRC` by the release that
    // kept the dependency graph in a line-JSON file beside verdict-only
    // `verdicts-*.daes` shards, under an older solver epoch. Neither
    // the shards nor the graph file is read, so the first pass
    // re-verifies every method and the second none. No fixture file is
    // ever rewritten or removed.
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_store");
    let dir = temp_dir("parent-format");
    std::fs::create_dir_all(&dir).unwrap();
    let mut others = Vec::new();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        let bytes = std::fs::read(entry.path()).unwrap();
        std::fs::write(dir.join(entry.file_name()), &bytes).unwrap();
        others.push((entry.file_name().into_string().unwrap(), bytes));
    }
    let shards = others.iter().filter(|(name, _)| name.ends_with(".daes"));
    assert_eq!(shards.count(), 3, "the fixture holds three shard files");
    assert_eq!(others.len(), 4, "and the graph file");
    let store = VerdictStore::open(&dir);
    assert_eq!(store.len(), 0, "no shard is read");
    assert!(store.graph().is_empty());
    assert_eq!(store.corrupt_lines(), 0);
    drop(store);

    let program = parse_program(SRC).unwrap();
    let expected = storeless(&program);
    let cfg = config(&dir);
    let outcome = pass(&program, &cfg);
    assert_eq!(
        outcome.reverified,
        Some(3),
        "an empty store forces every method"
    );
    assert_eq!(
        outcome.store_dirty_transitive,
        Some(0),
        "no stored verdict is forced"
    );
    let first: BTreeMap<String, Verdict> = outcome
        .verdicts
        .into_iter()
        .map(|(name, verdict)| (name, verdict.normalized()))
        .collect();
    assert_eq!(first, expected, "upgrade verdicts equal a cold run's");
    let (second, warm) = run(&program, &cfg);
    assert_eq!(warm, 0);
    assert_eq!(second, expected);
    for (name, bytes) in &others {
        assert_eq!(
            &std::fs::read(dir.join(name)).unwrap(),
            bytes,
            "{} untouched",
            name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damages the store file in `dir` with `damage`, then
/// runs four passes, each through a fresh host and none flushed (a
/// daemon restarted after `kill -9`), and returns their re-verified
/// counts.
fn passes_after_damage(tag: &str, damage: impl Fn(&mut Vec<u8>)) -> Vec<usize> {
    let dir = temp_dir(tag);
    let cfg = config(&dir);
    let program = parse_program(SRC).unwrap();
    let (cold, reverified) = run(&program, &cfg);
    assert_eq!(reverified, 3);
    let path = dir.join(VerdictStore::FILE_NAME);
    let mut bytes = std::fs::read(&path).expect("the cold pass wrote the file");
    damage(&mut bytes);
    std::fs::write(&path, bytes).unwrap();
    let counts = (0..4)
        .map(|_| {
            let (verdicts, reverified) = run(&program, &cfg);
            assert_eq!(verdicts, cold, "damage never changes a verdict");
            reverified
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    counts
}

#[test]
fn torn_shard_tails_heal_on_the_next_append() {
    // Three bytes torn off the file: its last record, `get`'s graph
    // node, is cut mid-write. The first pass re-verifies `get` and its
    // caller `double` and rewrites the file instead of appending after
    // the torn tail.
    let counts = passes_after_damage("torn-tail", |bytes| {
        bytes.truncate(bytes.len() - 3);
    });
    assert_eq!(counts, [2, 0, 0, 0]);
}

#[test]
fn damaged_shard_headers_heal_on_the_next_append() {
    let counts = passes_after_damage("bad-header", |bytes| {
        bytes[..6].copy_from_slice(b"XXXXXX");
    });
    assert_eq!(counts, [3, 0, 0, 0]);
}

/// The name of the kill test below, which re-runs this binary with
/// only that test selected.
const KILL_TEST: &str = "killed_passes_lose_only_the_pass_in_flight";

/// Set in the kill test's child process: the cache directory the child
/// verifies into until it is killed.
const KILL_CHILD_DIR: &str = "DAENERYS_KILL_TEST_CHILD_DIR";

/// The file, beside the cache directory `dir`, that the kill test's
/// child writes after each pass.
fn passes_marker(dir: &std::path::Path) -> PathBuf {
    dir.with_extension("passes")
}

/// A call tree of `count` methods over `leaf`: `m0` calls `leaf`, and
/// `m{i}` calls `m{(i - 1) / 2}`. `leaf` ensures `r >= bound`, so a
/// `bound` edit is a spec edit whose cone is every method.
fn call_tree(count: usize, bound: u32) -> Program {
    let mut src = format!(
        "method leaf(n: Int) returns (r: Int) requires n >= 0 ensures r >= {b} {{ r := n + {b} }}\n",
        b = bound
    );
    for i in 0..count {
        let callee = if i == 0 {
            "leaf".to_string()
        } else {
            format!("m{}", (i - 1) / 2)
        };
        src.push_str(&format!(
            "method m{}(n: Int) returns (r: Int) requires n >= 0 ensures r >= 0 {{ call r := {}(n) }}\n",
            i, callee
        ));
    }
    parse_program(&src).unwrap()
}

#[cfg(unix)]
#[test]
fn killed_passes_lose_only_the_pass_in_flight() {
    use std::collections::BTreeSet;
    use std::os::unix::process::ExitStatusExt;
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    let programs = [call_tree(600, 0), call_tree(600, 1)];
    if let Some(dir) = std::env::var_os(KILL_CHILD_DIR) {
        // The child: one long-lived host verifying alternating spec
        // edits, each pass re-verifying and committing every method,
        // until the parent kills it (or, orphaned, for a minute).
        let dir = PathBuf::from(dir);
        let host = SessionHost::new(Backend::Destabilized, config(&dir));
        let started = Instant::now();
        for round in 0.. {
            if started.elapsed() > Duration::from_secs(60) {
                break;
            }
            host.session().verify_program(&programs[round % 2]);
            std::fs::write(passes_marker(&dir), (round + 1).to_string()).unwrap();
        }
        return;
    }

    let program = &programs[0];
    let cold = storeless(program);
    let timing = temp_dir("kill-timing");
    let started = Instant::now();
    pass(program, &config(&timing));
    let pass_time = started.elapsed();
    let _ = std::fs::remove_dir_all(&timing);
    // Kill points: once before the child's first commit, then at every
    // eighth of a pass over the two passes after it, so kills land in
    // planning, in verification and in or around a commit.
    let kill_points = std::iter::once(None).chain((0..17).map(Some));
    let exe = std::env::current_exe().unwrap();
    for (k, eighths) in kill_points.enumerate() {
        let dir = temp_dir(&format!("kill-{}", k));
        let marker = passes_marker(&dir);
        let _ = std::fs::remove_file(&marker);
        let mut child = Command::new(&exe)
            .args([KILL_TEST, "--exact", "--test-threads=1"])
            .env(KILL_CHILD_DIR, &dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        if let Some(eighths) = eighths {
            let waiting = Instant::now();
            while !marker.exists() {
                assert!(
                    waiting.elapsed() < Duration::from_secs(30),
                    "the child never committed a pass"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(pass_time * eighths / 8);
        }
        child.kill().unwrap();
        let status = child.wait().unwrap();
        assert_eq!(status.signal(), Some(9), "kill {} landed mid-run", k);

        let cfg = config(&dir);
        let store = VerdictStore::open(&dir);
        let cfg_fp = config_fingerprint(Backend::Destabilized, &cfg);
        let unmatched: BTreeSet<String> = program
            .methods
            .iter()
            .filter(|m| {
                let fp = method_fingerprint(program, m, Backend::Destabilized, &cfg);
                store
                    .lookup(&format!("{}@{}", m.name, cfg_fp), fp)
                    .is_none()
            })
            .map(|m| m.name.clone())
            .collect();
        drop(store);

        let outcome = pass(program, &cfg);
        let reverified: BTreeSet<String> = outcome
            .reverified_methods
            .expect("incremental passes report their cone")
            .into_iter()
            .collect();
        let verdicts: BTreeMap<String, Verdict> = outcome
            .verdicts
            .into_iter()
            .map(|(name, verdict)| (name, verdict.normalized()))
            .collect();
        assert_eq!(verdicts, cold, "kill {}: verdicts equal a cold run's", k);
        assert!(
            unmatched.is_subset(&reverified),
            "kill {}: every method without a matching entry re-verifies",
            k
        );
        let (_, again) = run(program, &cfg);
        assert_eq!(again, 0, "kill {}: the pass after is warm", k);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&marker);
    }
}
