//! Synthetic monorepo-scale verification corpora.
//!
//! [`Corpus::generate`] builds a deterministic layered call DAG of
//! trivially-verifiable methods (`requires n >= 0 ensures r >= n`
//! chained through `call`), with configurable width, depth, fan-out,
//! and diamond density. The generator keeps its own adjacency, so
//! every incremental-engine claim ("a hub spec edit re-verifies
//! exactly the reverse-reachable set") is gated against ground truth
//! computed independently of the engine under test.
//!
//! Scripted edits ([`Edit`]) reproduce the three interesting
//! monorepo-edit shapes: a leaf body touch (dirties exactly one
//! method), a hub spec touch (dirties its whole reverse-reachable
//! cone), and a formatting-only spec touch (dirties nothing, because
//! fingerprints hash *normalized* interfaces).

use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;

/// Shape parameters for a generated corpus.
#[derive(Clone, Copy, Debug)]
pub struct CorpusSpec {
    /// Total method count.
    pub methods: usize,
    /// Layers of the DAG; methods call only into strictly earlier
    /// layers, so the graph is acyclic by construction.
    pub depth: usize,
    /// Maximum callees per method.
    pub fan_out: usize,
    /// Percentage (0–100) of call edges that skip past the previous
    /// layer into a deeper one — the "diamond density" that creates
    /// converging/re-converging paths instead of a clean tree.
    pub diamond_pct: u32,
    /// RNG seed; equal specs generate byte-identical corpora.
    pub seed: u64,
}

impl Default for CorpusSpec {
    fn default() -> CorpusSpec {
        CorpusSpec {
            methods: 1000,
            depth: 10,
            fan_out: 4,
            diamond_pct: 25,
            seed: 0xDAE5,
        }
    }
}

/// A scripted corpus edit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Edit {
    /// Rewrite the body of [`Corpus::leaf`] without touching its
    /// contract: exactly one method must re-verify.
    TouchLeafBody,
    /// Strengthen the postcondition of [`Corpus::hub`]: the hub plus
    /// every transitive caller ([`Corpus::reverse_reachable`]) must
    /// re-verify, and nothing else.
    TouchHubSpec,
    /// Reflow the whitespace/comments of every contract without
    /// changing a token: nothing may re-verify.
    TouchSpecNoop,
}

impl Edit {
    /// Flag spelling, for bench output and CLI parsing.
    pub fn name(self) -> &'static str {
        match self {
            Edit::TouchLeafBody => "touch-leaf-body",
            Edit::TouchHubSpec => "touch-hub-spec",
            Edit::TouchSpecNoop => "touch-spec-noop",
        }
    }
}

/// A generated corpus: the adjacency plus the rendered source.
#[derive(Clone, Debug)]
pub struct Corpus {
    spec: CorpusSpec,
    /// `edges[i]` = callee indices of method `i` (all `< i`).
    edges: Vec<Vec<usize>>,
    /// First method index of each layer (layer 0 starts at 0).
    layer_starts: Vec<usize>,
}

/// The splitmix64 step — the repo's standard deterministic stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Corpus {
    /// Generates the corpus for `spec` (deterministic in the spec).
    pub fn generate(spec: CorpusSpec) -> Corpus {
        let n = spec.methods.max(1);
        let depth = spec.depth.clamp(1, n);
        let mut rng = spec.seed ^ 0x5ee7_c0de;
        // Near-equal layer sizes; every layer holds at least one
        // method.
        let mut layer_starts = Vec::with_capacity(depth);
        for l in 0..depth {
            layer_starts.push(l * n / depth);
        }
        let layer_of = |i: usize| -> usize {
            match layer_starts.binary_search(&i) {
                Ok(l) => l,
                Err(ins) => ins - 1,
            }
        };
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(n);
        for i in 0..n {
            let layer = layer_of(i);
            if layer == 0 {
                edges.push(Vec::new());
                continue;
            }
            let want = 1 + (splitmix64(&mut rng) as usize) % spec.fan_out.max(1);
            let mut callees = BTreeSet::new();
            for _ in 0..want {
                // Mostly the previous layer; with `diamond_pct`
                // probability, any strictly earlier layer — the
                // long-range edges that turn the tree into diamonds.
                let target_layer = if (splitmix64(&mut rng) % 100) < u64::from(spec.diamond_pct) {
                    (splitmix64(&mut rng) as usize) % layer
                } else {
                    layer - 1
                };
                let start = layer_starts[target_layer];
                let end = if target_layer + 1 < depth {
                    layer_starts[target_layer + 1]
                } else {
                    n
                };
                if end > start {
                    callees.insert(start + (splitmix64(&mut rng) as usize) % (end - start));
                }
            }
            edges.push(callees.into_iter().collect());
        }
        Corpus {
            spec,
            edges,
            layer_starts,
        }
    }

    /// The shape this corpus was generated from.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// Method count.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True for a degenerate empty spec.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Callee indices of method `i`.
    pub fn callees(&self, i: usize) -> &[usize] {
        &self.edges[i]
    }

    /// The designated leaf: the layer-0 method with the most direct
    /// callers (a body edit here is the classic "touched one file at
    /// the bottom of the monorepo" shape). Layer 0 methods have no
    /// callees, so the body edit cannot leak through any interface.
    pub fn leaf(&self) -> usize {
        let layer0_end = if self.layer_starts.len() > 1 {
            self.layer_starts[1]
        } else {
            self.len()
        };
        (0..layer0_end)
            .max_by_key(|&i| self.caller_count(i))
            .unwrap_or(0)
    }

    /// The designated hub: the method with the most direct callers
    /// anywhere in the DAG — the shared utility whose spec edit hurts
    /// the most.
    pub fn hub(&self) -> usize {
        (0..self.len())
            .max_by_key(|&i| self.caller_count(i))
            .unwrap_or(0)
    }

    fn caller_count(&self, i: usize) -> usize {
        self.edges.iter().filter(|c| c.contains(&i)).count()
    }

    /// Ground truth straight from the adjacency: every method that can
    /// reach `target` through call edges, `target` included — exactly
    /// the set a spec edit of `target` must re-verify.
    pub fn reverse_reachable(&self, target: usize) -> BTreeSet<usize> {
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

    /// Renders the corpus as IDF source, with `edit` applied.
    ///
    /// Every method is `requires n >= 0 ensures r >= n`, its body
    /// threading `n` through its callees (`call t := mJ(t)`), so the
    /// difference-bounds theory discharges the whole corpus by
    /// transitivity whatever the topology — generation scales to 10k+
    /// methods without the verifier becoming the bottleneck.
    pub fn source(&self, edit: Option<Edit>) -> String {
        let leaf = self.leaf();
        let hub = self.hub();
        let mut src = String::with_capacity(self.len() * 160);
        for (i, callees) in self.edges.iter().enumerate() {
            let ensures = if edit == Some(Edit::TouchHubSpec) && i == hub {
                "ensures r >= n && r >= 0"
            } else {
                "ensures r >= n"
            };
            match edit {
                Some(Edit::TouchSpecNoop) => {
                    // Same tokens, different formatting: extra
                    // whitespace and a comment inside the contract.
                    let _ = writeln!(
                        src,
                        "method m{}(n: Int) returns (r: Int)\n  requires  n >= 0 /* noop */\n  {}",
                        i, ensures
                    );
                }
                _ => {
                    let _ = writeln!(
                        src,
                        "method m{}(n: Int) returns (r: Int) requires n >= 0 {}",
                        i, ensures
                    );
                }
            }
            src.push_str("{ var t: Int := n;");
            for &j in callees {
                let _ = write!(src, " call t := m{}(t);", j);
            }
            if edit == Some(Edit::TouchLeafBody) && i == leaf {
                src.push_str(" var u: Int := 0; t := t + u;");
            }
            src.push_str(" r := t }\n");
        }
        src
    }

    /// How many methods `edit` must re-verify on a warm store, per the
    /// generator's own adjacency.
    pub fn expected_reverified(&self, edit: Edit) -> usize {
        match edit {
            Edit::TouchLeafBody => 1,
            Edit::TouchHubSpec => self.reverse_reachable(self.hub()).len(),
            Edit::TouchSpecNoop => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_acyclic() {
        let spec = CorpusSpec {
            methods: 200,
            ..CorpusSpec::default()
        };
        let a = Corpus::generate(spec);
        let b = Corpus::generate(spec);
        assert_eq!(a.source(None), b.source(None), "same spec, same bytes");
        for (i, callees) in a.edges.iter().enumerate() {
            assert!(callees.iter().all(|&j| j < i), "edges point backwards");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Corpus::generate(CorpusSpec {
            methods: 50,
            seed: 1,
            ..CorpusSpec::default()
        });
        let b = Corpus::generate(CorpusSpec {
            methods: 50,
            seed: 2,
            ..CorpusSpec::default()
        });
        assert_ne!(a.source(None), b.source(None));
    }

    #[test]
    fn hub_cone_is_nontrivial_and_leaf_is_a_leaf() {
        let c = Corpus::generate(CorpusSpec {
            methods: 300,
            ..CorpusSpec::default()
        });
        assert!(c.callees(c.leaf()).is_empty(), "the leaf calls nothing");
        let cone = c.reverse_reachable(c.hub());
        assert!(
            cone.len() > 1,
            "the hub has transitive callers (cone: {})",
            cone.len()
        );
        assert!(cone.len() < c.len(), "the cone is not the whole corpus");
    }

    #[test]
    fn edits_change_exactly_what_they_claim() {
        let c = Corpus::generate(CorpusSpec {
            methods: 60,
            ..CorpusSpec::default()
        });
        let base = c.source(None);
        assert_ne!(base, c.source(Some(Edit::TouchLeafBody)));
        assert_ne!(base, c.source(Some(Edit::TouchHubSpec)));
        assert_ne!(base, c.source(Some(Edit::TouchSpecNoop)));
        assert_eq!(c.expected_reverified(Edit::TouchLeafBody), 1);
        assert_eq!(c.expected_reverified(Edit::TouchSpecNoop), 0);
        assert_eq!(
            c.expected_reverified(Edit::TouchHubSpec),
            c.reverse_reachable(c.hub()).len()
        );
    }

    #[test]
    fn corpus_parses_and_verifies() {
        let c = Corpus::generate(CorpusSpec {
            methods: 40,
            depth: 5,
            ..CorpusSpec::default()
        });
        for edit in [
            None,
            Some(Edit::TouchLeafBody),
            Some(Edit::TouchHubSpec),
            Some(Edit::TouchSpecNoop),
        ] {
            let program = daenerys_idf::parse_program(&c.source(edit)).unwrap();
            assert_eq!(program.methods.len(), c.len());
            let host = daenerys_idf::SessionHost::new(
                daenerys_idf::Backend::Destabilized,
                daenerys_idf::VerifierConfig::default(),
            );
            let verdicts = host.session().verify_program(&program).verdicts;
            assert!(
                verdicts.values().all(daenerys_idf::Verdict::is_verified),
                "generated corpora always verify (edit: {:?})",
                edit
            );
        }
    }
}
