//! Integration tests for incremental verification (`cache_dir`): the
//! persistent verdict store must skip exactly the methods whose
//! semantic fingerprint is unchanged, reproduce their verdicts
//! bit-identically, and never persist an indefinite outcome.

use daenerys_idf::{
    all_cases, config_fingerprint, diverging_program, method_fingerprint, parse_program, Backend,
    Budget, DepGraph, FaultKind, FaultPlan, Program, SessionHost, Verdict, VerdictStore, Verifier,
    VerifierConfig, VerifyOutcome,
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
/// process restart between passes, with no `flush_store`: only the
/// durable appends carry verdicts from one pass to the next.
fn pass(program: &Program, cfg: &VerifierConfig) -> VerifyOutcome {
    let host = SessionHost::new(Backend::Destabilized, cfg.clone());
    host.session().verify_program(program)
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
    // New stores default to the sharded DAES1 binary format: stomp
    // every shard file with garbage.
    let dir = temp_dir("corrupt");
    let cfg = config(&dir);
    let program = parse_program(SRC).unwrap();
    let (first, _) = run(&program, &cfg);
    for i in 0..VerdictStore::SHARD_COUNT {
        let path = dir.join(VerdictStore::shard_file_name(i));
        if path.exists() {
            std::fs::write(&path, b"definitely not DAES1").unwrap();
        }
    }
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
    let mut plain = Verifier::new(&program, Backend::Destabilized);
    let expected: BTreeMap<String, Verdict> = plain
        .verify_all_verdicts()
        .into_iter()
        .map(|(name, verdict)| (name, verdict.normalized()))
        .collect();
    let cfg = config(&dir);
    let (first, cold) = run(&program, &cfg);
    assert_eq!(cold, 3, "nothing is read from the legacy file");
    assert_eq!(first, expected);
    let (second, warm) = run(&program, &cfg);
    assert_eq!(
        warm, 0,
        "the DAES1 shards written by the first run are warm"
    );
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
    // A 32-byte `iface` with a two-byte character across byte 16 used
    // to panic inside `VerdictStore::open`. It must load as an absent
    // node instead: `get` becomes a spec-dirty root, so it and its
    // caller `double` re-verify, and `free` stays warm.
    let dir = temp_dir("damaged-iface");
    let cfg = config(&dir);
    let program = parse_program(SRC).unwrap();
    let (first, cold) = run(&program, &cfg);
    assert_eq!(cold, 3);
    let path = dir.join(DepGraph::FILE_NAME);
    let text = std::fs::read_to_string(&path).unwrap();
    let damaged: Vec<String> = text
        .lines()
        .map(|line| {
            if line.starts_with("{\"method\":\"get\"") {
                let at = line.find("\"iface\":\"").unwrap() + "\"iface\":\"".len();
                format!(
                    "{}000000000000000é000000000000000{}",
                    &line[..at],
                    &line[at + 32..]
                )
            } else {
                line.to_string()
            }
        })
        .collect();
    assert_ne!(damaged.join("\n"), text.trim_end());
    std::fs::write(&path, damaged.join("\n")).unwrap();
    let store = VerdictStore::open(&dir);
    assert!(
        store.graph().node("get").is_none(),
        "the damaged node is dropped"
    );
    assert!(store.graph().node("double").is_some());
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

/// Damages every shard file of the store in `dir` with `damage`, then
/// runs four passes, each through a fresh host and none flushed (a
/// daemon restarted after `kill -9`), and returns their re-verified
/// counts.
fn passes_after_damage(tag: &str, damage: impl Fn(&mut Vec<u8>)) -> Vec<usize> {
    let dir = temp_dir(tag);
    let cfg = config(&dir);
    let program = parse_program(SRC).unwrap();
    let (cold, reverified) = run(&program, &cfg);
    assert_eq!(reverified, 3);
    let mut damaged = 0;
    for i in 0..VerdictStore::SHARD_COUNT {
        let path = dir.join(VerdictStore::shard_file_name(i));
        if let Ok(mut bytes) = std::fs::read(&path) {
            damage(&mut bytes);
            std::fs::write(&path, bytes).unwrap();
            damaged += 1;
        }
    }
    assert!(damaged > 0, "the cold pass wrote shards");
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
    // Three bytes torn off every shard: each shard's last record is
    // cut mid-write. The first pass re-verifies the lost methods and
    // rewrites their shards instead of appending after the torn tail.
    let counts = passes_after_damage("torn-tail", |bytes| {
        bytes.truncate(bytes.len() - 3);
    });
    assert_eq!(counts, [3, 0, 0, 0]);
}

#[test]
fn damaged_shard_headers_heal_on_the_next_append() {
    let counts = passes_after_damage("bad-header", |bytes| {
        bytes[..6].copy_from_slice(b"XXXXXX");
    });
    assert_eq!(counts, [3, 0, 0, 0]);
}
