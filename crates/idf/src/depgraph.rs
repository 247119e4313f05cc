//! The persisted method → callee-spec dependency graph behind
//! incremental verification at monorepo scale.
//!
//! A method's verdict depends on its own text and its *direct* callees'
//! contracts, so the verdict-store fingerprint alone invalidates a
//! spec edit's direct callers — but only them: a transitive caller's
//! fingerprint is unchanged (its own direct callees' specs did not
//! move). Build-system-grade invalidation wants the conservative
//! closure instead: **a spec change dirties its callers transitively;
//! a body-only change dirties only the method itself.** This module
//! supplies that closure.
//!
//! Per method the graph persists (a) the [interface
//! fingerprint](crate::fingerprint::interface_fingerprint) of its
//! *normalized* signature + contract and (b) its direct-callee edge
//! list. On the next run the engine diffs the stored interface
//! fingerprints against the current program's: every method whose
//! interface moved (or vanished) is a *spec-dirty root*, and the dirty
//! set is the reverse-reachable cone of those roots unioned with the
//! plain fingerprint misses. Methods forced by the cone despite a
//! matching store entry are counted as `dirty_transitive` — the
//! verifier is deterministic, so re-running them reproduces the stored
//! verdict bit for bit and correctness never depends on the graph
//! being present, fresh, or even plausible: a missing or damaged graph
//! only costs extra re-verification.
//!
//! This module holds only the in-memory graph. The verdict store
//! ([`crate::store`]) persists it, one `DAES1` node record per method
//! in the same file as the verdicts.

use crate::ast::Program;
use crate::fingerprint::{direct_callees, interface_fingerprint, Fingerprint};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One method's node: its interface fingerprint and its
/// direct-callee edges (sorted, deduplicated).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DepNode {
    /// Fingerprint of the method's interface (name, signature and
    /// contract, body dropped) — the value whose movement makes the
    /// method a spec-dirty root, and the value its callers' fingerprints
    /// hash in place of its spec.
    pub interface: Fingerprint,
    /// Names the method's body calls directly (the edge list). Empty
    /// for leaves and bodyless methods.
    pub callees: Vec<String>,
}

/// The method → callee-spec dependency graph, keyed by method name.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct DepGraph {
    nodes: BTreeMap<String, DepNode>,
}

impl DepGraph {
    /// An empty graph (no prior run: every fingerprint miss stands on
    /// its own and nothing is transitively forced).
    pub fn new() -> DepGraph {
        DepGraph::default()
    }

    /// The graph holding exactly `nodes` (the store's replay).
    pub(crate) fn from_nodes(nodes: BTreeMap<String, DepNode>) -> DepGraph {
        DepGraph { nodes }
    }

    /// Builds the graph of `program`: every declared method is a node
    /// (bodyless methods too — callers depend on their specs), with
    /// edges from [`direct_callees`]. A name declared twice keeps its
    /// first declaration, the one [`Program::method`] finds.
    pub fn of_program(program: &Program) -> DepGraph {
        let mut nodes = BTreeMap::new();
        for m in &program.methods {
            if !nodes.contains_key(m.name.as_str()) {
                nodes.insert(
                    m.name.clone(),
                    DepNode {
                        interface: interface_fingerprint(m),
                        callees: direct_callees(m),
                    },
                );
            }
        }
        DepGraph { nodes }
    }

    /// The node for `name`, if present.
    pub fn node(&self, name: &str) -> Option<&DepNode> {
        self.nodes.get(name)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Every node with its method name, in name order.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = (&String, &DepNode)> {
        self.nodes.iter()
    }

    /// Upserts every node of `cur` into `self`, returning the names of
    /// the nodes that changed (new or different), in name order. Nodes
    /// absent from `cur` are kept: the daemon's shared store sees many
    /// programs, and forgetting one tenant's edges whenever another
    /// tenant verifies would turn every alternation into a spurious
    /// full dirty cone.
    pub fn absorb(&mut self, cur: &DepGraph) -> Vec<String> {
        let mut changed = Vec::new();
        for (name, node) in &cur.nodes {
            if self.nodes.get(name) != Some(node) {
                self.nodes.insert(name.clone(), node.clone());
                changed.push(name.clone());
            }
        }
        changed
    }

    /// The *spec-dirty roots* of a run: methods whose interface
    /// fingerprint moved since `prev` — edited specs, plus methods
    /// `prev` never recorded (their callers may hold entries minted
    /// against a `missing:` marker), plus methods `prev` recorded that
    /// `cur` no longer declares (deleted specs dirty their remaining
    /// callers).
    pub fn spec_dirty_roots(prev: &DepGraph, cur: &DepGraph) -> BTreeSet<String> {
        let mut roots = BTreeSet::new();
        for (name, node) in &cur.nodes {
            match prev.nodes.get(name) {
                Some(p) if p.interface == node.interface => {}
                _ => {
                    roots.insert(name.clone());
                }
            }
        }
        for name in prev.nodes.keys() {
            if !cur.nodes.contains_key(name) {
                roots.insert(name.clone());
            }
        }
        roots
    }

    /// The reverse-reachable cone of `roots` in this graph: the roots
    /// themselves plus every method from which a root can be reached
    /// along call edges — exactly the set a build system would dirty
    /// for those spec edits. Root names need not be nodes (a deleted
    /// method still dirties the callers that mention it).
    pub fn reverse_reachable(&self, roots: &BTreeSet<String>) -> BTreeSet<String> {
        // callee → callers, derived on demand (the graph persists
        // forward edges only; the reverse index is cheap and always
        // consistent).
        let mut callers: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (name, node) in &self.nodes {
            for callee in &node.callees {
                callers.entry(callee).or_default().push(name);
            }
        }
        let mut dirty: BTreeSet<String> = roots.clone();
        let mut queue: VecDeque<&str> = roots.iter().map(String::as_str).collect();
        while let Some(name) = queue.pop_front() {
            if let Some(cs) = callers.get(name) {
                for &caller in cs {
                    if dirty.insert(caller.to_string()) {
                        queue.push_back(caller);
                    }
                }
            }
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const SRC: &str = "field val: Int
         method leaf(n: Int) returns (r: Int)
           requires n >= 0
           ensures r >= n
         { r := n }
         method mid(n: Int) returns (r: Int)
           requires n >= 0
           ensures r >= n
         { var t: Int := 0; call t := leaf(n); r := t }
         method top(n: Int) returns (r: Int)
           requires n >= 0
           ensures r >= n
         { var t: Int := 0; call t := mid(n); r := t }
         method lone(n: Int) returns (r: Int)
           requires n >= 0
           ensures r >= n
         { r := n }";

    fn roots_of(prev_src: &str, cur_src: &str) -> BTreeSet<String> {
        let prev = DepGraph::of_program(&parse_program(prev_src).unwrap());
        let cur = DepGraph::of_program(&parse_program(cur_src).unwrap());
        DepGraph::spec_dirty_roots(&prev, &cur)
    }

    fn set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn graph_extraction_records_interfaces_and_edges() {
        let g = DepGraph::of_program(&parse_program(SRC).unwrap());
        assert_eq!(g.len(), 4);
        assert_eq!(g.node("mid").unwrap().callees, vec!["leaf".to_string()]);
        assert!(g.node("leaf").unwrap().callees.is_empty());
        assert_ne!(
            g.node("leaf").unwrap().interface,
            g.node("mid").unwrap().interface,
            "different names give different interfaces"
        );
        assert_eq!(
            g.node("leaf").unwrap().interface.to_string().len(),
            32,
            "interfaces render as full fingerprints"
        );
    }

    #[test]
    fn body_edits_produce_no_roots() {
        let edited = SRC.replace("{ r := n }", "{ r := n + 0 }");
        assert!(roots_of(SRC, &edited).is_empty());
    }

    #[test]
    fn spec_edits_root_exactly_the_edited_method() {
        let edited = SRC.replace(
            "method mid(n: Int) returns (r: Int)\n           requires n >= 0\n           ensures r >= n",
            "method mid(n: Int) returns (r: Int)\n           requires n >= 0\n           ensures r >= n && r >= 0",
        );
        assert_eq!(roots_of(SRC, &edited), set(&["mid"]));
    }

    #[test]
    fn deleted_and_new_methods_are_roots() {
        let mut lines: Vec<&str> = SRC.lines().collect();
        lines.truncate(lines.len() - 4); // drop `lone`
        let smaller = lines.join("\n");
        assert_eq!(roots_of(SRC, &smaller), set(&["lone"]));
        assert_eq!(roots_of(&smaller, SRC), set(&["lone"]));
    }

    #[test]
    fn reverse_reachable_is_the_transitive_caller_cone() {
        let g = DepGraph::of_program(&parse_program(SRC).unwrap());
        assert_eq!(
            g.reverse_reachable(&set(&["leaf"])),
            set(&["leaf", "mid", "top"]),
            "a leaf spec edit dirties the whole caller chain"
        );
        assert_eq!(g.reverse_reachable(&set(&["top"])), set(&["top"]));
        assert_eq!(g.reverse_reachable(&set(&["lone"])), set(&["lone"]));
        assert_eq!(
            g.reverse_reachable(&set(&["gone"])),
            set(&["gone"]),
            "non-node roots pass through (deleted methods)"
        );
    }

    #[test]
    fn absorb_upserts_without_forgetting() {
        let g1 = DepGraph::of_program(&parse_program(SRC).unwrap());
        let other = "method unrelated(n: Int) returns (r: Int)
             requires n >= 0 ensures r >= 0 { r := n }";
        let g2 = DepGraph::of_program(&parse_program(other).unwrap());
        let mut merged = g1.clone();
        assert_eq!(merged.absorb(&g2), ["unrelated"], "new nodes are changes");
        assert_eq!(merged.len(), 5);
        assert!(merged.node("top").is_some(), "old tenants are kept");
        assert!(merged.absorb(&g2).is_empty(), "absorbing again is a no-op");
        let edited = SRC.replace(
            "ensures r >= n\n         { var t: Int := 0; call t := leaf(n)",
            "ensures r >= n && r >= 0\n         { var t: Int := 0; call t := leaf(n)",
        );
        let g3 = DepGraph::of_program(&parse_program(&edited).unwrap());
        assert_eq!(merged.absorb(&g3), ["mid"], "only the edited node changed");
    }
}
