//! F1 (timing): verification time vs. program size, both backends.
//!
//! Expected shape: destabilized ≈ linear in `n`; the stable baseline
//! grows faster (witness minting plus invalidation scans at every heap
//! write make it superlinear in spec heap reads × writes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use daenerys_idf::{
    parse_program, scaling_program, Backend, SessionHost, Verdict, VerifierConfig, VerifyOutcome,
};

/// One storeless session pass over `program`; panics unless every
/// method verifies.
fn verify(host: &SessionHost, program: &daenerys_idf::Program) -> VerifyOutcome {
    let out = host.session().verify_program(program);
    assert!(out.verdicts.values().all(Verdict::is_verified), "verifies");
    out
}

fn bench_verifier_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("verifier_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [2usize, 4, 8, 16] {
        let src = scaling_program(n);
        let program = parse_program(&src).expect("parses");
        let destabilized = SessionHost::new(Backend::Destabilized, VerifierConfig::default());
        let baseline = SessionHost::new(Backend::StableBaseline, VerifierConfig::default());
        group.bench_with_input(BenchmarkId::new("destabilized", n), &n, |b, _| {
            b.iter(|| verify(&destabilized, &program))
        });
        group.bench_with_input(BenchmarkId::new("stable_baseline", n), &n, |b, _| {
            b.iter(|| verify(&baseline, &program))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_verifier_scaling);
criterion_main!(benches);
