//! Profiling harness for the warm-open path: splits
//! `VerdictStore::open` time from the dependency-graph load so a
//! regression in either shows up as its own number.
//!
//! ```text
//! cargo run --release -p daenerys-bench --example profile_store_load [METHODS]
//! ```

use daenerys_bench::corpus::{Corpus, CorpusSpec};
use daenerys_idf::{parse_program, Backend, DepGraph, SessionHost, VerdictStore, VerifierConfig};
use std::time::Instant;

fn main() {
    let methods: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10_000);
    let corpus = Corpus::generate(CorpusSpec {
        methods,
        depth: 20,
        ..CorpusSpec::default()
    });
    let dir = std::env::temp_dir().join("daenerys-profile-store-load");
    let _ = std::fs::remove_dir_all(&dir);
    let program = parse_program(&corpus.source(None)).unwrap();
    let config = VerifierConfig {
        cache_dir: Some(dir.clone()),
        ..VerifierConfig::default()
    };
    let host = SessionHost::new(Backend::Destabilized, config);
    let _ = host.session().verify_program(&program);
    drop(host);
    for rep in 0..3 {
        let t = Instant::now();
        let store = VerdictStore::open(&dir);
        let open_ms = t.elapsed().as_secs_f64() * 1000.0;
        let t = Instant::now();
        let graph = DepGraph::load(&dir);
        let graph_ms = t.elapsed().as_secs_f64() * 1000.0;
        println!(
            "rep {}: open {:.2} ms ({} entries), graph load alone {:.2} ms ({} nodes)",
            rep,
            open_ms,
            store.len(),
            graph_ms,
            graph.len()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
