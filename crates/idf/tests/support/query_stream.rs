//! The random entailment-query generator shared by the solver's
//! differential tests: the property tests under `tests/` and the
//! truth-table oracle test in `src/smt.rs` both draw from it. Queries
//! are IDF expressions over the variables `x0..x2`; [`intern`] reads
//! `x<i>` as the symbol `Sym(i)`. The including module must have
//! `Answer`, `Expr`, `Op`, `Solver`, `Sym`, `TermArena` and `TermId` in
//! scope.

use super::{Answer, Expr, Op, Solver, Sym, TermArena, TermId};
use proptest::prelude::*;

/// The variable `x<i>`.
fn var(i: u32) -> Expr {
    Expr::var(&format!("x{}", i))
}

/// A linear Int term over the variables `x0..x2`.
fn arb_lin_term() -> impl Strategy<Value = Expr> {
    let atom = prop_oneof![
        (0u32..3).prop_map(var),
        (-6i64..=6).prop_map(Expr::Int),
        ((-2i64..=2), (0u32..3)).prop_map(|(c, i)| Expr::bin(Op::Mul, Expr::Int(c), var(i))),
    ];
    (atom.clone(), atom).prop_map(|(a, b)| Expr::bin(Op::Add, a, b))
}

/// A boolean query formula: comparisons of linear terms under the
/// propositional connectives, with `a ==> b` spelled `!a || b`.
fn arb_formula() -> impl Strategy<Value = Expr> {
    let cmp = (arb_lin_term(), arb_lin_term(), 0u8..3).prop_map(|(a, b, k)| {
        let op = [Op::Eq, Op::Lt, Op::Le][k as usize];
        Expr::bin(op, a, b)
    });
    cmp.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(Op::And, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(Op::Or, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(
                Op::Or,
                Expr::Not(Box::new(a)),
                b
            )),
            inner.clone().prop_map(|a| Expr::Not(Box::new(a))),
        ]
    })
}

/// A stream of entailment queries `(pc, goal)` over the Int variables
/// `x0..x2`.
pub fn arb_query_stream() -> impl Strategy<Value = Vec<(Vec<Expr>, Expr)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(arb_formula(), 0..4),
            arb_formula(),
        ),
        1..8,
    )
}

/// Interns a heap-free expression through the arena's constructors,
/// reading the variable `x<i>` as `Sym(i)`.
pub fn intern(arena: &mut TermArena, e: &Expr) -> TermId {
    match e {
        Expr::Int(n) => arena.int(*n),
        Expr::Bool(b) => arena.bool(*b),
        Expr::Null => arena.null(),
        Expr::Var(x) => arena.sym(Sym(x[1..].parse().expect("a variable x<i>"))),
        Expr::Not(a) => {
            let a = intern(arena, a);
            arena.not(a)
        }
        Expr::Bin(op, a, b) => {
            let (a, b) = (intern(arena, a), intern(arena, b));
            match op {
                Op::Add => arena.add(a, b),
                Op::Sub => arena.sub(a, b),
                Op::Mul => arena.mul(a, b),
                Op::Eq => arena.eq(a, b),
                Op::Lt => arena.lt(a, b),
                Op::Le => arena.le(a, b),
                Op::And => arena.and(a, b),
                Op::Or => arena.or(a, b),
                op => panic!("no term for {:?}", op),
            }
        }
        other => panic!("no term for {:?}", other),
    }
}

/// Whether `pc ⊨ goal`, interning the path condition, then the goal.
pub fn entails(solver: &mut Solver, arena: &mut TermArena, pc: &[Expr], goal: &Expr) -> Answer {
    let pc: Vec<TermId> = pc.iter().map(|e| intern(arena, e)).collect();
    let goal = intern(arena, goal);
    solver.entails(arena, &pc, goal)
}
