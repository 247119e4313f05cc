//! Schedulers and exhaustive schedule exploration.
//!
//! The program logic's adequacy statement quantifies over *all*
//! schedules. [`explore`] enumerates every interleaving of a bounded
//! program (with state deduplication), which is how `daenerys-proglog`
//! turns adequacy into a checkable property.

use crate::thread::Machine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A scheduling policy: picks the next thread among the runnable ones.
pub trait Scheduler {
    /// Chooses an index *into* `runnable` (not a thread id).
    ///
    /// `runnable` is non-empty when this is called.
    fn pick(&mut self, machine: &Machine, runnable: &[usize]) -> usize;
}

/// Round-robin scheduling: fair rotation over thread ids.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobin {
    counter: usize,
}

impl RoundRobin {
    /// A fresh round-robin scheduler.
    pub fn new() -> RoundRobin {
        RoundRobin::default()
    }
}

impl Scheduler for RoundRobin {
    fn pick(&mut self, _machine: &Machine, runnable: &[usize]) -> usize {
        let i = self.counter % runnable.len();
        self.counter += 1;
        i
    }
}

/// Uniformly random scheduling with a seeded generator (reproducible).
#[derive(Clone, Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// A random scheduler with the given seed.
    pub fn new(seed: u64) -> RandomScheduler {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, _machine: &Machine, runnable: &[usize]) -> usize {
        self.rng.gen_range(0..runnable.len())
    }
}

/// Runs the machine to a terminal configuration under a scheduler.
///
/// Returns the terminal machine, or `None` if `max_steps` ran out first.
pub fn run_under<S: Scheduler>(
    mut machine: Machine,
    scheduler: &mut S,
    max_steps: usize,
) -> Option<Machine> {
    for _ in 0..max_steps {
        let runnable = machine.runnable();
        if runnable.is_empty() {
            return Some(machine);
        }
        let pick = scheduler.pick(&machine, &runnable);
        machine.step_thread(runnable[pick]);
    }
    if machine.is_terminal() {
        Some(machine)
    } else {
        None
    }
}

/// The outcome of exhaustive schedule exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Every distinct terminal configuration reached.
    pub terminals: Vec<Machine>,
    /// Number of distinct configurations visited.
    pub states_visited: usize,
    /// Whether exploration was cut off by the step bound (if so, the
    /// terminal list may be incomplete).
    pub truncated: bool,
}

/// Exhaustively explores every interleaving of `machine`, visiting each
/// distinct configuration once, up to `depth` scheduler decisions per
/// trace.
///
/// This is a depth-first search with global state deduplication; for the
/// bounded programs used in adequacy tests it is a complete enumeration
/// of reachable terminal states.
pub fn explore(machine: Machine, depth: usize) -> Exploration {
    let mut seen: HashSet<Machine> = HashSet::new();
    let mut terminals: Vec<Machine> = Vec::new();
    let mut terminal_seen: HashSet<Machine> = HashSet::new();
    let mut truncated = false;
    let mut stack: Vec<(Machine, usize)> = vec![(machine, 0)];

    while let Some((m, d)) = stack.pop() {
        if !seen.insert(m.clone()) {
            continue;
        }
        let runnable = m.runnable();
        if runnable.is_empty() {
            if terminal_seen.insert(m.clone()) {
                terminals.push(m);
            }
            continue;
        }
        if d >= depth {
            truncated = true;
            continue;
        }
        for t in runnable {
            let mut next = m.clone();
            next.step_thread(t);
            stack.push((next, d + 1));
        }
    }

    Exploration {
        terminals,
        states_visited: seen.len(),
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{BinOp, Expr, Val};

    fn parallel_writes() -> Expr {
        // let l = ref 0 in fork (l <- 1); l <- 2; !l
        Expr::let_(
            "l",
            Expr::alloc(Expr::int(0)),
            Expr::seq(
                Expr::fork(Expr::store(Expr::var("l"), Expr::int(1))),
                Expr::seq(
                    Expr::store(Expr::var("l"), Expr::int(2)),
                    Expr::load(Expr::var("l")),
                ),
            ),
        )
    }

    #[test]
    fn round_robin_terminates() {
        let m = Machine::new(parallel_writes());
        let done = run_under(m, &mut RoundRobin::new(), 1000).unwrap();
        assert!(done.main_result().is_some());
    }

    #[test]
    fn random_scheduler_is_reproducible() {
        let a = run_under(
            Machine::new(parallel_writes()),
            &mut RandomScheduler::new(7),
            1000,
        )
        .unwrap();
        let b = run_under(
            Machine::new(parallel_writes()),
            &mut RandomScheduler::new(7),
            1000,
        )
        .unwrap();
        assert_eq!(a.main_result(), b.main_result());
    }

    #[test]
    fn exploration_finds_both_race_outcomes() {
        let result = explore(Machine::new(parallel_writes()), 64);
        assert!(!result.truncated);
        let mut outcomes: Vec<i64> = result
            .terminals
            .iter()
            .filter_map(|m| m.main_result().and_then(Val::as_int))
            .collect();
        outcomes.sort_unstable();
        outcomes.dedup();
        // The racing store can land before or after ours.
        assert_eq!(outcomes, vec![1, 2]);
    }

    #[test]
    fn exploration_of_deterministic_program_is_singleton() {
        let e = Expr::binop(BinOp::Add, Expr::int(20), Expr::int(22));
        let result = explore(Machine::new(e), 16);
        assert_eq!(result.terminals.len(), 1);
        assert_eq!(result.terminals[0].main_result(), Some(&Val::int(42)));
    }

    #[test]
    fn cyclic_state_space_terminates_without_terminals() {
        // omega = (rec f x := f x) () cycles through finitely many
        // configurations; dedup closes the loop, no terminal exists.
        let omega = Expr::app(
            Expr::rec("f", "x", Expr::app(Expr::var("f"), Expr::var("x"))),
            Expr::unit(),
        );
        let result = explore(Machine::new(omega), 64);
        assert!(result.terminals.is_empty());
    }

    #[test]
    fn truncation_reported() {
        // A state-growing loop: rec f x := f (x + 1), whose
        // configurations are pairwise distinct, must hit the depth bound.
        let grower = Expr::app(
            Expr::rec(
                "f",
                "x",
                Expr::app(
                    Expr::var("f"),
                    Expr::binop(BinOp::Add, Expr::var("x"), Expr::int(1)),
                ),
            ),
            Expr::int(0),
        );
        let result = explore(Machine::new(grower), 8);
        assert!(result.truncated);
        assert!(result.terminals.is_empty());
    }

    fn counter(threads: usize) -> Expr {
        let mut src = String::from("let c = ref 0 in ");
        for _ in 1..threads {
            src.push_str("fork (faa(c, 1)); ");
        }
        src.push_str("faa(c, 1); !c");
        crate::parse(&src).unwrap()
    }

    /// The `tables --f3` workload: the state and terminal counts are
    /// what its states/ms column divides by.
    #[test]
    fn f3_counter_explorations_visit_6_17_58_states() {
        for (threads, states, terminals) in [(1, 6, 1), (2, 17, 3), (3, 58, 12)] {
            let result = explore(Machine::new(counter(threads)), 1024);
            assert!(!result.truncated);
            assert_eq!(
                (result.states_visited, result.terminals.len()),
                (states, terminals),
                "{} thread(s)",
                threads
            );
            let want = Val::int(threads as i64);
            for t in &result.terminals {
                assert_eq!(t.heap.get(crate::Loc(0)), Some(&want));
            }
        }
    }

    #[test]
    fn random_schedules_end_in_explored_terminals() {
        let prog = counter(3);
        let explored = explore(Machine::new(prog.clone()), 1024);
        for seed in 0..16 {
            let m = run_under(
                Machine::new(prog.clone()),
                &mut RandomScheduler::new(seed),
                10_000,
            )
            .expect("terminates");
            assert!(
                explored.terminals.contains(&m),
                "seed {} reached an unexplored terminal",
                seed
            );
        }
    }
}
