//! Proof-failure diagnostics: the structured [`FailureReport`]
//! attached to `Verdict::Failed`/`Verdict::Unknown`, the top-k
//! most-expensive-query log that feeds it, and the order-insensitive
//! path-condition hash used to correlate solver-query trace events.
//!
//! Everything here is deterministic: costs are solver fuel units —
//! conflicts plus propagations, never wall time — the query log breaks ties by arrival order, and the
//! path-condition hash is invariant under condition reordering — so
//! reports and trace events are bit-identical at any thread count.

use crate::smt::Answer;
use crate::sym::TermId;
use std::fmt;

/// How many hot queries a [`FailureReport`] retains.
pub const HOT_QUERY_LIMIT: usize = 5;

/// One solver query's cost record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryCost {
    /// What was being checked (obligation description or query site).
    pub description: String,
    /// Solver fuel this query burned: conflicts plus propagations (0
    /// for cache hits).
    pub fuel: u64,
    /// Whether the query-cache answered it.
    pub cache_hit: bool,
    /// Conflict clauses the solver learned during this query (0 for
    /// cache hits and satisfiable leaves).
    pub learned: u64,
    /// Order-insensitive hash of the normalized path condition + goal
    /// (see [`pc_hash`]) — correlates the record with trace events.
    pub pc_hash: u64,
    /// The solver's answer.
    pub answer: Answer,
}

/// The structured diagnostics attached to a non-`Verified` verdict:
/// what failed first, the symbolic context it failed in, and where the
/// solver effort went.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FailureReport {
    /// The method the verdict belongs to.
    pub method: String,
    /// The first failing obligation's description, or the
    /// budget-exhaustion detail when the run was truncated.
    pub first_failure: String,
    /// The heap chunks in scope at the first failure, rendered
    /// (`acc(r.f, q) ↦ v`). Empty when the failure had no state (e.g.
    /// an unknown method) or the budget tripped between obligations.
    pub chunks: Vec<String>,
    /// The path condition at the first failure, rendered.
    pub path_condition: Vec<String>,
    /// The top-[`HOT_QUERY_LIMIT`] most expensive solver queries of
    /// the method, most expensive first.
    pub hot_queries: Vec<QueryCost>,
}

impl FailureReport {
    /// True when the report carries no information at all. Every
    /// `Failed`/`Unknown` verdict the verifier produces has a
    /// non-empty report (at minimum `method` + `first_failure`).
    pub fn is_empty(&self) -> bool {
        self.method.is_empty()
            && self.first_failure.is_empty()
            && self.chunks.is_empty()
            && self.path_condition.is_empty()
            && self.hot_queries.is_empty()
    }
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "failure report for {}:", self.method)?;
        writeln!(f, "  first failure: {}", self.first_failure)?;
        if !self.path_condition.is_empty() {
            writeln!(f, "  path condition:")?;
            for c in &self.path_condition {
                writeln!(f, "    {}", c)?;
            }
        }
        if !self.chunks.is_empty() {
            writeln!(f, "  heap chunks in scope:")?;
            for c in &self.chunks {
                writeln!(f, "    {}", c)?;
            }
        }
        if !self.hot_queries.is_empty() {
            writeln!(f, "  hottest solver queries:")?;
            for q in &self.hot_queries {
                writeln!(
                    f,
                    "    fuel={:<6} learned={:<3} cache_hit={:<5} [{:?}] {} (pc#{:016x})",
                    q.fuel, q.learned, q.cache_hit, q.answer, q.description, q.pc_hash
                )?;
            }
        }
        Ok(())
    }
}

/// A bounded log of the most expensive solver queries seen while
/// verifying one method. Cost is solver fuel; ties keep the earlier
/// query (arrival order), so the log is deterministic.
#[derive(Debug, Default)]
pub(crate) struct QueryLog {
    entries: Vec<(u64, QueryCost)>,
    arrivals: u64,
}

impl QueryLog {
    /// Whether a query of this cost would make the log — lets callers
    /// skip building the record (descriptions, hashes) for cheap
    /// queries once the log is full.
    pub(crate) fn accepts(&self, fuel: u64) -> bool {
        self.entries.len() < HOT_QUERY_LIMIT || self.entries.iter().any(|(_, q)| q.fuel < fuel)
    }

    /// Offers a query record to the log.
    pub(crate) fn offer(&mut self, cost: QueryCost) {
        let arrival = self.arrivals;
        self.arrivals += 1;
        if self.entries.len() < HOT_QUERY_LIMIT {
            self.entries.push((arrival, cost));
            return;
        }
        // Evict the cheapest entry, breaking ties toward the latest
        // arrival (so earlier equal-cost queries survive).
        let (i, _) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (arr, q))| (q.fuel, std::cmp::Reverse(*arr)))
            .expect("log is full, hence nonempty");
        if self.entries[i].1.fuel < cost.fuel {
            self.entries[i] = (arrival, cost);
        }
    }

    /// The retained queries, most expensive first (ties in arrival
    /// order).
    pub(crate) fn top(&self) -> Vec<QueryCost> {
        let mut sorted: Vec<&(u64, QueryCost)> = self.entries.iter().collect();
        sorted.sort_by_key(|(arr, q)| (std::cmp::Reverse(q.fuel), *arr));
        sorted.into_iter().map(|(_, q)| q.clone()).collect()
    }
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An order-insensitive hash of a path condition plus goal: each
/// conjunct is mixed independently and the mixes are summed, so two
/// queries over the same condition set (in any order) share a hash.
/// Hashes are stable within one arena (ids are hash-consed), which is
/// exactly the per-method scope trace events need.
pub fn pc_hash(pc: &[TermId], goal: TermId) -> u64 {
    let conjuncts = pc.iter().fold(0u64, |acc, id| {
        acc.wrapping_add(splitmix64(u64::from(id.raw())))
    });
    conjuncts ^ splitmix64(u64::from(goal.raw()).wrapping_add(0x5151_5151))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::TermArena;

    fn cost(fuel: u64, tag: &str) -> QueryCost {
        QueryCost {
            description: tag.to_string(),
            fuel,
            cache_hit: false,
            learned: 0,
            pc_hash: 0,
            answer: Answer::Valid,
        }
    }

    #[test]
    fn query_log_keeps_the_top_k_in_order() {
        let mut log = QueryLog::default();
        for (fuel, tag) in [
            (3, "a"),
            (9, "b"),
            (1, "c"),
            (9, "d"),
            (5, "e"),
            (7, "f"),
            (2, "g"),
        ] {
            if log.accepts(fuel) {
                log.offer(cost(fuel, tag));
            }
        }
        let tags: Vec<String> = log.top().into_iter().map(|q| q.description).collect();
        assert_eq!(tags, ["b", "d", "f", "e", "a"]);
        assert!(!log.accepts(1), "full log rejects cheap queries");
        assert!(log.accepts(100));
    }

    #[test]
    fn pc_hash_is_order_insensitive_but_goal_sensitive() {
        let mut arena = TermArena::new();
        let a = arena.int(1);
        let b = arena.int(2);
        let c = arena.int(3);
        let goal = arena.bool(true);
        assert_eq!(pc_hash(&[a, b, c], goal), pc_hash(&[c, a, b], goal));
        assert_ne!(pc_hash(&[a, b], goal), pc_hash(&[a, c], goal));
        assert_ne!(pc_hash(&[a, b], goal), pc_hash(&[a, b], c));
    }

    #[test]
    fn empty_report_detection() {
        assert!(FailureReport::default().is_empty());
        let r = FailureReport {
            method: "m".to_string(),
            ..FailureReport::default()
        };
        assert!(!r.is_empty());
        assert!(r.to_string().contains("failure report for m"));
    }
}
