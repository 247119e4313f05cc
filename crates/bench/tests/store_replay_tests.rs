//! Integration gates for the edit-replay sweep: cold → warm →
//! scripted edits against a persistent verdict store, every phase
//! checked against the corpus generator's own adjacency.

use daenerys_bench::corpus::{Corpus, CorpusSpec, Edit};
use daenerys_idf::{parse_program, Backend, SessionHost, Verdict, VerifierConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "daenerys-store-replay-test-{}-{}",
        tag,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(src: &str, dir: &Path, threads: usize) -> (BTreeMap<String, Verdict>, usize) {
    let program = parse_program(src).unwrap();
    let config = VerifierConfig {
        threads,
        cache_dir: Some(dir.to_path_buf()),
        ..VerifierConfig::default()
    };
    let outcome = SessionHost::new(Backend::Destabilized, config)
        .session()
        .verify_program(&program);
    let verdicts = outcome
        .verdicts
        .into_iter()
        .map(|(name, verdict)| (name, verdict.normalized()))
        .collect();
    (verdicts, outcome.reverified.unwrap())
}

fn snapshot(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
}

/// One sweep over the corpus `spec` generates: a cold pass verifies
/// everything; warm passes at 1, 2 and 8 threads re-verify nothing and
/// restore the cold verdicts bit-identically; a leaf body edit
/// re-verifies 1 method, a formatting-only spec edit 0, and a hub spec
/// edit exactly the hub's reverse-reachable cone. Returns that cone's
/// size.
fn sweep(spec: CorpusSpec, tag: &str) -> usize {
    let corpus = Corpus::generate(spec);
    let base = corpus.source(None);
    let root = temp_dir(tag);
    let cold_dir = root.join("cold");

    let (cold, reverified) = run(&base, &cold_dir, 1);
    assert_eq!(reverified, corpus.len());
    assert!(cold.values().all(Verdict::is_verified));

    for threads in [1usize, 2, 8] {
        let dir = root.join(format!("warm-{}", threads));
        snapshot(&cold_dir, &dir);
        let (warm, reverified) = run(&base, &dir, threads);
        assert_eq!(reverified, 0, "warm no-edit run at {} threads", threads);
        assert_eq!(
            warm, cold,
            "restored verdicts differ at {} threads",
            threads
        );
    }

    let hub_cone = corpus.reverse_reachable(corpus.hub()).len();
    for (edit, want) in [
        (Edit::TouchLeafBody, 1),
        (Edit::TouchHubSpec, hub_cone),
        (Edit::TouchSpecNoop, 0),
    ] {
        let dir = root.join(edit.name());
        snapshot(&cold_dir, &dir);
        let (verdicts, reverified) = run(&corpus.source(Some(edit)), &dir, 2);
        assert_eq!(reverified, want, "edit {:?}", edit);
        assert!(verdicts.values().all(Verdict::is_verified));
    }

    let _ = std::fs::remove_dir_all(&root);
    hub_cone
}

#[test]
fn daes1_sweep_replays_edits_against_ground_truth() {
    sweep(
        CorpusSpec {
            methods: 200,
            depth: 8,
            ..CorpusSpec::default()
        },
        "daes1-200",
    );
    // The 1000-method, depth-10, seed-7 corpus pins the hub cone at 70
    // methods, so a generator change that moves it shows up here.
    let hub_cone = sweep(
        CorpusSpec {
            methods: 1000,
            depth: 10,
            seed: 7,
            ..CorpusSpec::default()
        },
        "daes1-1k",
    );
    assert_eq!(hub_cone, 70);
}

/// One store carried through a sequence of edits and their reverts:
/// the store keeps one fingerprint per method, so undoing an edit
/// re-verifies exactly the cone the edit did, and the persisted
/// dependency graph tracks each step.
#[test]
fn reverting_an_edit_reverifies_the_same_cone() {
    let corpus = Corpus::generate(CorpusSpec {
        methods: 200,
        depth: 8,
        ..CorpusSpec::default()
    });
    let base = corpus.source(None);
    let dir = temp_dir("revert");

    let (cold, reverified) = run(&base, &dir, 2);
    assert_eq!(reverified, corpus.len());
    for edit in [Edit::TouchLeafBody, Edit::TouchHubSpec, Edit::TouchSpecNoop] {
        let cone = corpus.expected_reverified(edit);
        let (edited, reverified) = run(&corpus.source(Some(edit)), &dir, 2);
        assert_eq!(reverified, cone, "edit {:?}", edit);
        assert!(edited.values().all(Verdict::is_verified));
        let (reverted, reverified) = run(&base, &dir, 2);
        assert_eq!(reverified, cone, "revert of {:?}", edit);
        assert_eq!(reverted, cold, "revert of {:?} restores the verdicts", edit);
    }
    let (_, reverified) = run(&base, &dir, 2);
    assert_eq!(reverified, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The hub-edit cone is a real monorepo shape: strictly bigger than
/// the edited method alone, strictly smaller than the corpus.
#[test]
fn hub_cone_is_a_proper_subset() {
    let corpus = Corpus::generate(CorpusSpec {
        methods: 200,
        depth: 8,
        ..CorpusSpec::default()
    });
    let cone = corpus.expected_reverified(Edit::TouchHubSpec);
    assert!(cone > 1, "hub has transitive callers");
    assert!(cone < corpus.len(), "hub edit never dirties everything");
}
