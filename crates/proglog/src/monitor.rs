//! Permission-monitored execution.
//!
//! The adequacy theorem of a separation logic says a verified program
//! only touches memory it owns. Our executable substitute *enforces*
//! that claim at runtime: a [`MonMachine`] runs HeapLang threads while
//! tracking each thread's owned resource ([`Res`]) and flags any heap
//! access not covered by permission:
//!
//! * loads need readable permission (a positive fraction or a discarded
//!   witness);
//! * stores, `cas` and `faa` need the full, undiscarded fraction;
//! * allocation mints a fresh fully-owned chunk;
//! * `fork` transfers an explicitly scheduled resource to the child.
//!
//! A verified triple whose monitored run raises a violation is unsound —
//! this is the oracle the adequacy test suite uses.

use daenerys_algebra::{DFrac, Ra};
use daenerys_core::Res;
use daenerys_heaplang::{step, Expr, Heap, Loc, StepError, StepKind, Val};
use std::collections::VecDeque;
use std::fmt;

/// A permission violation discovered during monitored execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// A read without readable permission.
    UnreadableLoad(Loc),
    /// A write (store/cas/faa) without the full permission.
    UnwritableStore(Loc),
    /// A fork occurred but no child resource was scheduled.
    MissingForkResource,
    /// The scheduled child resource is not part of the parent's.
    ForkResourceNotOwned,
    /// A thread got stuck (runtime error).
    Stuck(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UnreadableLoad(l) => write!(f, "load of {} without permission", l),
            Violation::UnwritableStore(l) => {
                write!(f, "write to {} without full permission", l)
            }
            Violation::MissingForkResource => write!(f, "fork without a scheduled resource"),
            Violation::ForkResourceNotOwned => {
                write!(f, "fork resource not owned by the parent")
            }
            Violation::Stuck(m) => write!(f, "stuck: {}", m),
        }
    }
}

impl std::error::Error for Violation {}

/// One monitored thread: expression plus owned resource.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MonThread {
    /// The thread's remaining program.
    pub expr: Expr,
    /// The resource the thread currently owns.
    pub own: Res,
}

/// A permission-monitored machine.
#[derive(Clone, Debug)]
pub struct MonMachine {
    /// All threads (index 0 is main).
    pub threads: Vec<MonThread>,
    /// The physical heap.
    pub heap: Heap,
    /// Resources scheduled for the next forks, in order.
    pub fork_resources: VecDeque<Res>,
}

/// Locations an expression's *next step* will access, classified.
fn next_heap_access(e: &Expr) -> Option<(Loc, bool)> {
    // Returns (loc, is_write) when the next redex is a heap access on a
    // location value. Mirrors the evaluation order of `step`.
    fn val_loc(e: &Expr) -> Option<Loc> {
        e.as_val().and_then(Val::as_loc)
    }
    match e {
        Expr::Load(inner) if inner.as_val().is_some() => val_loc(inner).map(|l| (l, false)),
        Expr::Store(l, v) if l.as_val().is_some() && v.as_val().is_some() => {
            val_loc(l).map(|l| (l, true))
        }
        Expr::Cas(l, a, b)
            if l.as_val().is_some() && a.as_val().is_some() && b.as_val().is_some() =>
        {
            val_loc(l).map(|l| (l, true))
        }
        Expr::Faa(l, v) if l.as_val().is_some() && v.as_val().is_some() => {
            val_loc(l).map(|l| (l, true))
        }
        // Descend into the active position, in evaluation order.
        Expr::App(f, a) => {
            if f.as_val().is_none() {
                next_heap_access(f)
            } else {
                next_heap_access(a)
            }
        }
        Expr::Let(_, e1, _) => next_heap_access(e1),
        Expr::UnOp(_, e1)
        | Expr::Fst(e1)
        | Expr::Snd(e1)
        | Expr::InjL(e1)
        | Expr::InjR(e1)
        | Expr::Alloc(e1)
        | Expr::Load(e1) => next_heap_access(e1),
        Expr::BinOp(_, a, b) | Expr::Pair(a, b) | Expr::Store(a, b) | Expr::Faa(a, b) => {
            if a.as_val().is_none() {
                next_heap_access(a)
            } else {
                next_heap_access(b)
            }
        }
        Expr::If(c, _, _) => next_heap_access(c),
        Expr::Case(s, ..) => next_heap_access(s),
        Expr::Cas(a, b, c) => {
            if a.as_val().is_none() {
                next_heap_access(a)
            } else if b.as_val().is_none() {
                next_heap_access(b)
            } else {
                next_heap_access(c)
            }
        }
        _ => None,
    }
}

impl MonMachine {
    /// Creates a monitored machine for a single main thread.
    pub fn new(expr: Expr, own: Res, heap: Heap) -> MonMachine {
        MonMachine {
            threads: vec![MonThread { expr, own }],
            heap,
            fork_resources: VecDeque::new(),
        }
    }

    /// Schedules resources to hand to forked children, in fork order.
    pub fn with_fork_resources(mut self, rs: impl IntoIterator<Item = Res>) -> MonMachine {
        self.fork_resources = rs.into_iter().collect();
        self
    }

    /// Indices of running threads.
    pub fn runnable(&self) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&i| self.threads[i].expr.as_val().is_none())
            .collect()
    }

    /// Steps thread `i`, enforcing permissions.
    ///
    /// # Errors
    ///
    /// Returns the [`Violation`] when the step would exceed the thread's
    /// permissions or the thread is stuck.
    pub fn step_thread(&mut self, i: usize) -> Result<(), Violation> {
        // Pre-check the imminent heap access against the thread's own.
        let access = next_heap_access(&self.threads[i].expr);
        if let Some((l, is_write)) = access {
            let own = &self.threads[i].own;
            if is_write {
                if !matches!(own.heap.get(&l), Some((dq, _)) if dq.allows_write()) {
                    return Err(Violation::UnwritableStore(l));
                }
            } else if !own.reads_at(l) {
                return Err(Violation::UnreadableLoad(l));
            }
        }
        let keys_before: Vec<Loc> = self.heap.iter().map(|(l, _)| *l).collect();
        match step(&self.threads[i].expr, &mut self.heap) {
            Ok(out) => {
                // Track ownership effects.
                match out.kind {
                    StepKind::Heap => {
                        self.sync_ownership(i, access, &keys_before);
                    }
                    StepKind::Fork => {
                        let child_own = match self.fork_resources.pop_front() {
                            Some(r) => r,
                            None => return Err(Violation::MissingForkResource),
                        };
                        if !child_own.included_in(&self.threads[i].own) {
                            return Err(Violation::ForkResourceNotOwned);
                        }
                        let parent_own = subtract(&self.threads[i].own, &child_own)
                            .ok_or(Violation::ForkResourceNotOwned)?;
                        self.threads[i].own = parent_own;
                        for forked in &out.forked {
                            self.threads.push(MonThread {
                                expr: forked.clone(),
                                own: child_own.clone(),
                            });
                        }
                    }
                    StepKind::Pure => {}
                }
                self.threads[i].expr = out.expr;
                Ok(())
            }
            Err(StepError::IsValue) => Ok(()),
            Err(StepError::Stuck(m)) => Err(Violation::Stuck(m)),
        }
    }

    /// After a heap step, reconcile the stepping thread's owned chunks
    /// with the physical heap (new allocations become fully owned; the
    /// written value updates the owned agreement). `access` is the
    /// step's [`next_heap_access`], taken before it ran.
    fn sync_ownership(&mut self, i: usize, access: Option<(Loc, bool)>, keys_before: &[Loc]) {
        // Allocation: fresh locations become fully owned by the
        // allocating thread.
        let fresh: Vec<Loc> = self
            .heap
            .iter()
            .map(|(l, _)| *l)
            .filter(|l| !keys_before.contains(l))
            .collect();
        for l in fresh {
            let v = self.heap.get(l).cloned().expect("fresh loc present");
            self.threads[i].own = self.threads[i].own.op(&Res::points_to(l, DFrac::FULL, v));
        }
        // Write: refresh the agreed value of the touched location.
        if let Some((l, true)) = access {
            if let Some(v) = self.heap.get(l).cloned() {
                let mut own = self.threads[i].own.clone();
                if let Some((dq, _)) = own.heap.get(&l).cloned() {
                    own.heap.insert(l, (dq, daenerys_algebra::Agree::new(v)));
                }
                self.threads[i].own = own;
            }
        }
    }

    /// Runs all threads round-robin to completion.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Violation`]; `Stuck` wraps fuel exhaustion.
    pub fn run(&mut self, fuel: usize) -> Result<(), Violation> {
        for _ in 0..fuel {
            let runnable = self.runnable();
            if runnable.is_empty() {
                return Ok(());
            }
            for i in runnable {
                self.step_thread(i)?;
            }
        }
        if self.runnable().is_empty() {
            Ok(())
        } else {
            Err(Violation::Stuck("out of fuel".into()))
        }
    }

    /// The main thread's result value, if finished.
    pub fn main_result(&self) -> Option<&Val> {
        self.threads[0].expr.as_val()
    }

    /// The main thread's final owned resource.
    pub fn main_own(&self) -> &Res {
        &self.threads[0].own
    }
}

/// Computes `whole ⊖ part` for resources where every `part` chunk is
/// included in `whole` (heap cells by fraction subtraction, ghost cells
/// by exact match removal or counter subtraction). Returns `None` when
/// the subtraction is not expressible.
pub fn subtract(whole: &Res, part: &Res) -> Option<Res> {
    let mut out = whole.clone();
    for (l, (dq_p, ag_p)) in part.heap.iter() {
        let (dq_w, ag_w) = out.heap.get(l)?.clone();
        if ag_w != *ag_p {
            return None;
        }
        let remaining = dfrac_sub(dq_w, *dq_p)?;
        match remaining {
            None => {
                out.heap.remove(l);
            }
            Some(dq) => {
                out.heap.insert(*l, (dq, ag_w));
            }
        }
    }
    for (g, v_p) in part.ghost.iter() {
        let v_w = out.ghost.get(g)?.clone();
        if v_w == *v_p {
            out.ghost.remove(g);
        } else {
            let rem = ghost_sub(&v_w, v_p)?;
            out.ghost.insert(*g, rem);
        }
    }
    Some(out)
}

/// `a ⊖ b` on discardable fractions; `Ok(None)` means nothing remains.
#[allow(clippy::option_option)]
fn dfrac_sub(a: DFrac, b: DFrac) -> Option<Option<DFrac>> {
    use DFrac::*;
    match (a, b) {
        (x, y) if x == y => Some(None),
        (Own(x), Own(y)) if y < x => Some(Some(Own(x - y))),
        (Both(x), Own(y)) if y < x => Some(Some(Both(x - y))),
        (Both(x), Own(y)) if y == x => Some(Some(Discarded)),
        (Both(x), Discarded) => Some(Some(Own(x))),
        (Both(x), Both(y)) if y < x => Some(Some(Own(x - y))),
        // Discarded is duplicable: subtracting it can leave it.
        (Discarded, Discarded) => Some(None),
        _ => None,
    }
}

fn ghost_sub(
    a: &daenerys_core::GhostVal,
    b: &daenerys_core::GhostVal,
) -> Option<daenerys_core::GhostVal> {
    use daenerys_core::GhostVal::*;
    match (a, b) {
        (Frac(x), Frac(y)) if y.amount() < x.amount() => {
            Some(Frac(daenerys_algebra::Frac::new(x.amount() - y.amount())))
        }
        (AuthNat(x), AuthNat(y)) => {
            // Subtract fragments; the authority may not be split off.
            if y.authority().is_some() {
                return None;
            }
            let fx = x.fragment().0;
            let fy = y.fragment().0;
            if fy > fx {
                return None;
            }
            match x.authority() {
                Some(a) => Some(AuthNat(daenerys_algebra::Auth::both(
                    *a,
                    daenerys_algebra::SumNat(fx - fy),
                ))),
                None => Some(AuthNat(daenerys_algebra::Auth::frag(
                    daenerys_algebra::SumNat(fx - fy),
                ))),
            }
        }
        // Duplicable elements subtract to themselves.
        (AgreeVal(x), AgreeVal(y)) if x == y => Some(AgreeVal(x.clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daenerys_algebra::Q;
    use daenerys_heaplang::parse;

    fn full(l: u64, v: i64) -> Res {
        Res::points_to(Loc(l), DFrac::FULL, Val::int(v))
    }

    fn heap_with(cells: &[(u64, i64)]) -> Heap {
        let mut h = Heap::new();
        for (_, v) in cells {
            h.alloc(Val::int(*v));
        }
        h
    }

    #[test]
    fn owned_write_succeeds() {
        let prog = parse("l <- !l + 1").unwrap().subst("l", &Val::loc(Loc(0)));
        let mut m = MonMachine::new(prog, full(0, 5), heap_with(&[(0, 5)]));
        m.run(1000).unwrap();
        assert_eq!(m.heap.get(Loc(0)), Some(&Val::int(6)));
        // Ownership followed the write.
        assert_eq!(m.main_own().value_at(Loc(0)), Some(&Val::int(6)));
    }

    #[test]
    fn unowned_read_is_flagged() {
        let prog = parse("!l").unwrap().subst("l", &Val::loc(Loc(0)));
        let mut m = MonMachine::new(prog, Res::empty(), heap_with(&[(0, 5)]));
        assert_eq!(m.run(1000), Err(Violation::UnreadableLoad(Loc(0))));
    }

    #[test]
    fn half_permission_reads_but_does_not_write() {
        let half = Res::points_to(Loc(0), DFrac::own(Q::HALF), Val::int(5));
        let read = parse("!l").unwrap().subst("l", &Val::loc(Loc(0)));
        let mut m = MonMachine::new(read, half.clone(), heap_with(&[(0, 5)]));
        m.run(1000).unwrap();
        assert_eq!(m.main_result(), Some(&Val::int(5)));

        let write = parse("l <- 9").unwrap().subst("l", &Val::loc(Loc(0)));
        let mut m = MonMachine::new(write, half, heap_with(&[(0, 5)]));
        assert_eq!(m.run(1000), Err(Violation::UnwritableStore(Loc(0))));
    }

    #[test]
    fn allocation_mints_ownership() {
        let prog = parse("let l = ref 7 in l <- !l + 1; !l").unwrap();
        let mut m = MonMachine::new(prog, Res::empty(), Heap::new());
        m.run(1000).unwrap();
        assert_eq!(m.main_result(), Some(&Val::int(8)));
        assert_eq!(m.main_own().perm_at(Loc(0)), Q::ONE);
    }

    #[test]
    fn fork_transfers_resources() {
        let prog = parse("fork (l <- 1); ()")
            .unwrap()
            .subst("l", &Val::loc(Loc(0)));
        let mut m = MonMachine::new(prog, full(0, 0), heap_with(&[(0, 0)]))
            .with_fork_resources([full(0, 0)]);
        m.run(1000).unwrap();
        assert_eq!(m.heap.get(Loc(0)), Some(&Val::int(1)));
        // Parent gave the chunk away.
        assert_eq!(m.main_own().perm_at(Loc(0)), Q::ZERO);
    }

    #[test]
    fn fork_without_resources_is_flagged() {
        let prog = parse("fork (l <- 1); ()")
            .unwrap()
            .subst("l", &Val::loc(Loc(0)));
        let mut m = MonMachine::new(prog, full(0, 0), heap_with(&[(0, 0)]));
        assert_eq!(m.run(1000), Err(Violation::MissingForkResource));
    }

    #[test]
    fn fork_cannot_steal() {
        let prog = parse("fork (l <- 1); ()")
            .unwrap()
            .subst("l", &Val::loc(Loc(0)));
        let mut m = MonMachine::new(prog, Res::empty(), heap_with(&[(0, 0)]))
            .with_fork_resources([full(0, 0)]);
        assert_eq!(m.run(1000), Err(Violation::ForkResourceNotOwned));
    }

    #[test]
    fn subtract_fractions() {
        let whole = Res::points_to(Loc(0), DFrac::FULL, Val::int(1));
        let half = Res::points_to(Loc(0), DFrac::own(Q::HALF), Val::int(1));
        let rest = subtract(&whole, &half).unwrap();
        assert_eq!(rest.perm_at(Loc(0)), Q::HALF);
        assert_eq!(subtract(&whole, &whole).unwrap(), Res::empty());
        assert!(subtract(&half, &whole).is_none());
    }

    #[test]
    fn monitoring_the_f3_loop_keeps_the_interpreters_result() {
        // The 50-iteration loop that `tables --f3` times both ways.
        let seq = parse(
            "let l = ref 0 in (rec go n => if n <= 0 then !l else (l <- !l + n; go (n - 1))) 50",
        )
        .unwrap();
        let (raw, heap) = daenerys_heaplang::run(seq.clone(), 100_000).unwrap();
        let mut m = MonMachine::new(seq, Res::empty(), Heap::new());
        m.run(100_000).unwrap();
        assert_eq!(raw, Val::int(1275));
        assert_eq!(m.main_result(), Some(&raw));
        assert_eq!(m.heap, heap);
        assert_eq!(m.main_own().value_at(Loc(0)), Some(&Val::int(1275)));
    }

    #[test]
    fn running_out_of_fuel_is_stuck() {
        let spin = parse("(rec f x => f x) 0").unwrap();
        let mut m = MonMachine::new(spin, Res::empty(), Heap::new());
        assert_eq!(m.run(10), Err(Violation::Stuck("out of fuel".into())));
        assert!(m.main_result().is_none());
    }

    #[test]
    fn runtime_errors_are_stuck_not_permission_violations() {
        let bad = parse("1 + true").unwrap();
        let mut m = MonMachine::new(bad, Res::empty(), Heap::new());
        assert!(matches!(m.run(10), Err(Violation::Stuck(_))));
    }

    #[test]
    fn violations_name_the_location() {
        assert_eq!(
            Violation::UnreadableLoad(Loc(3)).to_string(),
            format!("load of {} without permission", Loc(3))
        );
        assert_eq!(
            Violation::UnwritableStore(Loc(0)).to_string(),
            format!("write to {} without full permission", Loc(0))
        );
        assert_eq!(
            Violation::Stuck("out of fuel".into()).to_string(),
            "stuck: out of fuel"
        );
    }

    #[test]
    fn subtract_needs_the_same_value_and_location() {
        let one = full(0, 1);
        assert!(subtract(&one, &full(0, 2)).is_none(), "values disagree");
        assert!(subtract(&one, &full(1, 1)).is_none(), "location not owned");
        assert_eq!(subtract(&one, &Res::empty()), Some(one.clone()));
        let two_cells = one.op(&full(1, 5));
        assert_eq!(subtract(&two_cells, &full(1, 5)), Some(one));
    }
}
