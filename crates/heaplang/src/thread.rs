//! Thread-pool configurations: the interleaving semantics of HeapLang.
//!
//! A [`Machine`] is a pool of thread expressions plus a shared heap.
//! Thread 0 is the main thread; its value is the result of the program.

use crate::step::{step, Heap, StepError, StepKind};
use crate::syntax::{Expr, Val};

/// The status of one thread.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ThreadStatus {
    /// Still reducible.
    Running,
    /// Terminated with a value.
    Done(Val),
    /// Irrecoverably stuck (runtime error); payload is the reason.
    Stuck(String),
}

/// A machine configuration: all threads plus the shared heap.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Machine {
    /// Thread expressions, in spawn order. Index 0 is the main thread.
    threads: Vec<Expr>,
    /// Cached status per thread.
    status: Vec<ThreadStatus>,
    /// The shared heap.
    pub heap: Heap,
}

impl Machine {
    /// Creates a machine with a single main thread.
    pub fn new(main: Expr) -> Machine {
        let status = vec![status_of(&main)];
        Machine {
            threads: vec![main],
            status,
            heap: Heap::new(),
        }
    }

    /// Number of threads (running or not).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The status of thread `i`.
    pub fn status(&self, i: usize) -> &ThreadStatus {
        &self.status[i]
    }

    /// The current expression of thread `i`.
    pub fn thread(&self, i: usize) -> &Expr {
        &self.threads[i]
    }

    /// Indices of threads that can still step.
    pub fn runnable(&self) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&i| self.status[i] == ThreadStatus::Running)
            .collect()
    }

    /// Whether no thread can step (all done or stuck).
    pub fn is_terminal(&self) -> bool {
        self.runnable().is_empty()
    }

    /// The main thread's final value, if it terminated.
    pub fn main_result(&self) -> Option<&Val> {
        match &self.status[0] {
            ThreadStatus::Done(v) => Some(v),
            _ => None,
        }
    }

    /// Whether any thread is stuck.
    pub fn any_stuck(&self) -> bool {
        self.status
            .iter()
            .any(|s| matches!(s, ThreadStatus::Stuck(_)))
    }

    /// Steps thread `i` once. Forked threads are appended to the pool.
    ///
    /// Returns the kind of step taken, or `None` if the thread could not
    /// step (it was already done or became stuck; the status records
    /// which).
    pub fn step_thread(&mut self, i: usize) -> Option<StepKind> {
        if self.status[i] != ThreadStatus::Running {
            return None;
        }
        match step(&self.threads[i], &mut self.heap) {
            Ok(out) => {
                self.threads[i] = out.expr;
                self.status[i] = status_of(&self.threads[i]);
                for forked in out.forked {
                    self.status.push(status_of(&forked));
                    self.threads.push(forked);
                }
                Some(out.kind)
            }
            Err(StepError::IsValue) => {
                // Unreachable given the Running status, but harmless.
                self.status[i] = status_of(&self.threads[i]);
                None
            }
            Err(StepError::Stuck(why)) => {
                self.status[i] = ThreadStatus::Stuck(why);
                None
            }
        }
    }
}

fn status_of(e: &Expr) -> ThreadStatus {
    match e.as_val() {
        Some(v) => ThreadStatus::Done(v.clone()),
        None => ThreadStatus::Running,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::BinOp;

    #[test]
    fn single_thread_runs_to_value() {
        let mut m = Machine::new(Expr::binop(BinOp::Add, Expr::int(1), Expr::int(2)));
        while !m.is_terminal() {
            m.step_thread(0);
        }
        assert_eq!(m.main_result(), Some(&Val::int(3)));
    }

    #[test]
    fn fork_grows_pool() {
        let prog = Expr::seq(
            Expr::fork(Expr::binop(BinOp::Add, Expr::int(1), Expr::int(1))),
            Expr::int(0),
        );
        let mut m = Machine::new(prog);
        while !m.is_terminal() {
            let r = m.runnable();
            m.step_thread(r[0]);
        }
        assert_eq!(m.thread_count(), 2);
        assert_eq!(m.main_result(), Some(&Val::int(0)));
        assert_eq!(m.status(1), &ThreadStatus::Done(Val::int(2)));
    }

    #[test]
    fn stuck_thread_recorded() {
        let mut m = Machine::new(Expr::app(Expr::int(1), Expr::int(2)));
        assert_eq!(m.step_thread(0), None);
        assert!(m.any_stuck());
        assert!(m.is_terminal());
        assert_eq!(m.main_result(), None);
    }

    #[test]
    fn shared_heap_between_threads() {
        // l := ref 0; fork (l <- 1); wait by spinning is racy — instead
        // just check the forked thread can see the location.
        let prog = Expr::let_(
            "l",
            Expr::alloc(Expr::int(0)),
            Expr::seq(
                Expr::fork(Expr::store(Expr::var("l"), Expr::int(1))),
                Expr::load(Expr::var("l")),
            ),
        );
        let mut m = Machine::new(prog);
        // Run main to completion first, then the forked thread.
        while m.status(0) == &ThreadStatus::Running {
            m.step_thread(0);
        }
        assert_eq!(m.main_result(), Some(&Val::int(0)));
        while !m.is_terminal() {
            let r = m.runnable();
            m.step_thread(r[0]);
        }
        // Forked write landed in the shared heap.
        let l = crate::syntax::Loc(0);
        assert_eq!(m.heap.get(l), Some(&Val::int(1)));
    }
}
