//! Property tests for the spec dependency graph: on random call DAGs,
//! transitive spec dirtiness must re-verify *exactly* the
//! reverse-reachable set of the edited method (ground truth computed
//! independently from the generated adjacency), a body-only edit must
//! dirty only itself, and formatting-only spec edits must dirty
//! nothing at all.

use daenerys_idf::{parse_program, Backend, DepGraph, SessionHost, Verdict, VerifierConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;

/// A random call DAG over `n` methods: `edges[i]` lists the callees of
/// method `i`, every callee index strictly smaller than `i` (so the
/// graph is acyclic by construction).
#[derive(Clone, Debug)]
struct Dag {
    edges: Vec<Vec<usize>>,
}

fn arb_dag() -> impl Strategy<Value = Dag> {
    // Fixed 8×8 adjacency flags, truncated to the sampled size (the
    // vendored proptest has no flat_map; over-generating is free).
    (
        3usize..9,
        proptest::collection::vec(proptest::collection::vec(any::<bool>(), 8..9), 8..9),
    )
        .prop_map(|(n, flags)| Dag {
            edges: (0..n)
                .map(|i| (0..i).filter(|&j| flags[i][j]).collect())
                .collect(),
        })
}

impl Dag {
    fn len(&self) -> usize {
        self.edges.len()
    }

    /// Renders the DAG as an IDF program whose contracts chain
    /// transitively (`requires n >= 0 ensures r >= n`), so every
    /// method verifies under the difference-bounds theory whatever
    /// the topology.
    fn source(&self, spec_edit: Option<usize>, body_edit: Option<usize>) -> String {
        let mut src = String::new();
        for (i, callees) in self.edges.iter().enumerate() {
            let ensures = if spec_edit == Some(i) {
                "ensures r >= n && r >= 0"
            } else {
                "ensures r >= n"
            };
            src.push_str(&format!(
                "method m{}(n: Int) returns (r: Int) requires n >= 0 {}\n{{ var t: Int := n;",
                i, ensures
            ));
            for &j in callees {
                src.push_str(&format!(" call t := m{}(t);", j));
            }
            if body_edit == Some(i) {
                src.push_str(" var u: Int := 0; t := t + u;");
            }
            src.push_str(" r := t }\n");
        }
        src
    }

    /// Ground truth, straight from the adjacency: everything that can
    /// reach `target` through call edges (including `target` itself).
    fn reverse_reachable(&self, target: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::from([target]);
        let mut queue = VecDeque::from([target]);
        while let Some(cur) = queue.pop_front() {
            for (i, callees) in self.edges.iter().enumerate() {
                if callees.contains(&cur) && out.insert(i) {
                    queue.push_back(i);
                }
            }
        }
        out
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "daenerys-depgraph-{}-{}-{:?}",
        tag,
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One incremental pass; returns (normalized verdicts, reverified,
/// dirty_transitive).
fn run(src: &str, dir: &std::path::Path) -> (BTreeMap<String, Verdict>, usize, usize) {
    let program = parse_program(src).unwrap();
    let cfg = VerifierConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..VerifierConfig::default()
    };
    let outcome = SessionHost::new(Backend::Destabilized, cfg)
        .session()
        .verify_program(&program);
    let verdicts: BTreeMap<String, Verdict> = outcome
        .verdicts
        .into_iter()
        .map(|(name, verdict)| (name, verdict.normalized()))
        .collect();
    assert!(
        verdicts.values().all(Verdict::is_verified),
        "generated DAG programs always verify"
    );
    (
        verdicts,
        outcome.reverified.expect("incremental run"),
        outcome.store_dirty_transitive.expect("incremental run"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A spec edit re-verifies exactly the reverse-reachable set of
    /// the edited method — no more (the rest of the corpus stays
    /// warm), no less (every transitive caller is forced even where
    /// its own fingerprint still matches).
    #[test]
    fn spec_edit_dirties_exactly_the_reverse_reachable_set(
        dag in arb_dag(),
        pick in 0usize..64,
    ) {
        let target = pick % dag.len();
        let dir = temp_dir("spec");
        let (cold, reverified_cold, _) = run(&dag.source(None, None), &dir);
        prop_assert_eq!(reverified_cold, dag.len());
        let expected = dag.reverse_reachable(target);
        let (warm, reverified, dirty_transitive) =
            run(&dag.source(Some(target), None), &dir);
        prop_assert_eq!(
            reverified,
            expected.len(),
            "re-verified set must equal the reverse-reachable cone of m{}",
            target
        );
        // The graph plane only forces what the fingerprint plane
        // missed: hits it discarded are a subset of the cone.
        prop_assert!(dirty_transitive <= expected.len());
        // Untouched methods restore bit-identically.
        for (name, verdict) in &warm {
            let i: usize = name[1..].parse().unwrap();
            if !expected.contains(&i) {
                prop_assert_eq!(&cold[name], verdict);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A body-only edit dirties the edited method and nothing else:
    /// interfaces are unchanged, so the graph contributes no roots.
    #[test]
    fn body_edit_dirties_only_itself(
        dag in arb_dag(),
        pick in 0usize..64,
    ) {
        let target = pick % dag.len();
        let dir = temp_dir("body");
        let (cold, _, _) = run(&dag.source(None, None), &dir);
        let (warm, reverified, dirty_transitive) =
            run(&dag.source(None, Some(target)), &dir);
        prop_assert_eq!(reverified, 1, "only the edited body re-verifies");
        prop_assert_eq!(dirty_transitive, 0, "no interface changed");
        for (name, verdict) in &warm {
            if name != &format!("m{}", target) {
                prop_assert_eq!(&cold[name], verdict);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Formatting-only spec edits (whitespace and comments) change no
    /// normalized interface, so nothing re-verifies — the guard for
    /// hashing pretty-printed interfaces instead of raw spec text.
    #[test]
    fn formatting_only_edits_dirty_nothing(
        dag in arb_dag(),
        pad in proptest::collection::vec(prop_oneof![
            Just("  "), Just("\n"), Just("\t"), Just(" // c\n"), Just(" /* x */ "),
        ], 1..6),
    ) {
        let dir = temp_dir("fmt");
        let plain = dag.source(None, None);
        let (_, reverified_cold, _) = run(&plain, &dir);
        prop_assert_eq!(reverified_cold, dag.len());
        // Reflow the specs: every "requires"/"ensures" keyword gets a
        // random pile of whitespace/comments in front of it.
        let mut noisy = plain
            .replace("requires", &format!("{}requires", pad.concat()))
            .replace("ensures", &format!("{}ensures", pad.concat()));
        noisy.push_str("\n// trailing commentary\n");
        let (_, reverified, dirty_transitive) = run(&noisy, &dir);
        prop_assert_eq!(reverified, 0, "formatting-only edits stay warm");
        prop_assert_eq!(dirty_transitive, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The persisted graph's dirtiness plane agrees with the ground
    /// truth adjacency on every node, not just the sampled edit:
    /// `DepGraph::reverse_reachable` *is* the reverse-reachable set.
    #[test]
    fn graph_reverse_reachability_matches_ground_truth(dag in arb_dag()) {
        let program = parse_program(&dag.source(None, None)).unwrap();
        let graph = DepGraph::of_program(&program);
        for target in 0..dag.len() {
            let roots = BTreeSet::from([format!("m{}", target)]);
            let got = graph.reverse_reachable(&roots);
            let expected: BTreeSet<String> = dag
                .reverse_reachable(target)
                .into_iter()
                .map(|i| format!("m{}", i))
                .collect();
            prop_assert_eq!(got, expected);
        }
    }
}
