//! The whole-program passes stay linear in program size, and the
//! clone-free normalized interface prints what the old body-stripped
//! clone printed on generated corpora (so stored fingerprints still hit).

use daenerys_bench::corpus::{Corpus, CorpusSpec};
use daenerys_idf::{
    check_program, method_fingerprint, normalized_interface, parse_program, Backend, Method,
    Program, VerifierConfig,
};
use std::time::{Duration, Instant};

fn corpus_program(methods: usize) -> Program {
    let corpus = Corpus::generate(CorpusSpec {
        methods,
        depth: 20,
        ..CorpusSpec::default()
    });
    parse_program(&corpus.source(None)).expect("generated corpora parse")
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

/// `check_program` plus `method_fingerprint` of every method, the
/// per-edit front half of an incremental run.
fn front_half(program: &Program) -> Duration {
    let config = VerifierConfig::default();
    let started = Instant::now();
    check_program(program).expect("generated corpora are well-formed");
    for m in &program.methods {
        std::hint::black_box(method_fingerprint(
            program,
            m,
            Backend::Destabilized,
            &config,
        ));
    }
    started.elapsed()
}

fn min_of_3(program: &Program) -> Duration {
    (0..3)
        .map(|_| front_half(program))
        .min()
        .expect("three runs")
}

#[test]
fn front_half_scales_linearly() {
    // 4x the methods: linear passes take about 4x the time, quadratic
    // ones about 16x. Min-of-3 damps scheduler noise; the bound leaves
    // 2x headroom over linear without gating on absolute time.
    let (small, large) = (corpus_program(2000), corpus_program(8000));
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
