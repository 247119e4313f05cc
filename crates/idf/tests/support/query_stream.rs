//! The random entailment-query generator shared by the solver's
//! differential tests: the property tests under `tests/` and the
//! truth-table oracle test in `src/smt.rs` both draw from it. The
//! including module must have `Sym` and `SymExpr` in scope.

use super::{Sym, SymExpr};
use proptest::prelude::*;

/// A linear Int term over the symbols `x0..x2`.
fn arb_lin_term() -> impl Strategy<Value = SymExpr> {
    let atom = prop_oneof![
        (0u32..3).prop_map(|i| SymExpr::sym(Sym(i))),
        (-6i64..=6).prop_map(SymExpr::int),
        ((-2i64..=2), (0u32..3))
            .prop_map(|(c, i)| SymExpr::mul(SymExpr::int(c), SymExpr::sym(Sym(i)))),
    ];
    (atom.clone(), atom).prop_map(|(a, b)| SymExpr::add(a, b))
}

/// A boolean query formula: comparisons of linear terms under the
/// propositional connectives.
fn arb_formula() -> impl Strategy<Value = SymExpr> {
    let cmp = (arb_lin_term(), arb_lin_term(), 0u8..3).prop_map(|(a, b, k)| match k {
        0 => SymExpr::eq(a, b),
        1 => SymExpr::lt(a, b),
        _ => SymExpr::le(a, b),
    });
    cmp.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SymExpr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SymExpr::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SymExpr::implies(a, b)),
            inner.clone().prop_map(SymExpr::not),
        ]
    })
}

/// A stream of entailment queries `(pc, goal)` over the Int symbols
/// `Sym(0)..Sym(2)`.
pub fn arb_query_stream() -> impl Strategy<Value = Vec<(Vec<SymExpr>, SymExpr)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(arb_formula(), 0..4),
            arb_formula(),
        ),
        1..8,
    )
}
