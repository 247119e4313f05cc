//! The whole-program passes stay linear in program size, the normalized
//! interface prints what the old body-stripped clone printed on
//! generated corpora, and an incremental pass stores every verdict
//! under the method's own `method_fingerprint`.

use daenerys_bench::corpus::{Corpus, CorpusSpec};
use daenerys_idf::{
    check_program, config_fingerprint, method_fingerprint, normalized_interface, parse_program,
    Backend, Method, Program, SessionHost, VerdictStore, VerifierConfig,
};
use std::time::{Duration, Instant};

fn corpus_source(methods: usize) -> String {
    Corpus::generate(CorpusSpec {
        methods,
        depth: 20,
        ..CorpusSpec::default()
    })
    .source(None)
}

fn corpus_program(methods: usize) -> Program {
    parse_program(&corpus_source(methods)).expect("generated corpora parse")
}

#[test]
fn normalized_interface_is_byte_identical_on_a_1k_corpus() {
    let program = corpus_program(1000);
    assert_eq!(program.methods.len(), 1000);
    for m in &program.methods {
        let old = Method {
            body: None,
            ..m.clone()
        }
        .to_string();
        assert_eq!(normalized_interface(m), old, "{}", m.name);
    }
}

#[test]
fn pass_fingerprints_match_method_fingerprint_on_a_1k_corpus() {
    let program = corpus_program(1000);
    let dir = std::env::temp_dir().join(format!("daenerys-linear-fp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = VerifierConfig {
        cache_dir: Some(dir.clone()),
        ..VerifierConfig::default()
    };
    let verdicts = SessionHost::new(Backend::Destabilized, config.clone())
        .session()
        .verify_program(&program)
        .verdicts;
    assert_eq!(verdicts.len(), 1000);
    let store = VerdictStore::open(&dir);
    assert_eq!(store.len(), 1000, "every verdict is definite and stored");
    let cfg_fp = config_fingerprint(Backend::Destabilized, &config);
    for m in &program.methods {
        let fp = method_fingerprint(&program, m, Backend::Destabilized, &config);
        assert!(
            store
                .lookup(&format!("{}@{}", m.name, cfg_fp), fp)
                .is_some(),
            "{} is stored under its method_fingerprint",
            m.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `parse_program`, `check_program` and `method_fingerprint` of every
/// method: the per-edit front half of an incremental run.
fn front_half(source: &str) -> Duration {
    let config = VerifierConfig::default();
    let started = Instant::now();
    let program = parse_program(source).expect("generated corpora parse");
    check_program(&program).expect("generated corpora are well-formed");
    for m in &program.methods {
        std::hint::black_box(method_fingerprint(
            &program,
            m,
            Backend::Destabilized,
            &config,
        ));
    }
    started.elapsed()
}

fn min_of_3(source: &str) -> Duration {
    (0..3)
        .map(|_| front_half(source))
        .min()
        .expect("three runs")
}

#[test]
fn front_half_scales_linearly() {
    // 4x the methods: linear passes take about 4x the time, quadratic
    // ones about 16x. Min-of-3 damps scheduler noise; the bound leaves
    // 2x headroom over linear without gating on absolute time.
    let (small, large) = (corpus_source(2000), corpus_source(8000));
    let (t_small, t_large) = (min_of_3(&small), min_of_3(&large));
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64();
    assert!(
        ratio < 8.0,
        "8k/2k time ratio {:.1} ({:?} vs {:?}): a whole-program pass went superlinear",
        ratio,
        t_large,
        t_small
    );
}
