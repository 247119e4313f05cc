//! Symbolic values for the IDF verifier.
//!
//! The symbolic executor manipulates terms over fresh symbols; the
//! decision procedure in [`crate::smt`] discharges entailments between
//! them. Symbols are typed (integer, boolean, reference) at creation.
//!
//! Terms come in two representations:
//!
//! * [`SymExpr`] — a plain owned tree, convenient for tests and for
//!   building formulas by hand;
//! * [`TermId`] into a [`TermArena`] — the hash-consed form the
//!   verifier and solver use internally. Every structurally distinct
//!   term is stored exactly once, so equality and hashing are O(1) id
//!   comparisons and sub-term sharing is free.

use std::collections::HashMap;
use std::fmt;

/// A typed symbol identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Sym(pub u32);

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The sort of a symbol or expression.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sort {
    /// Mathematical (64-bit) integers.
    Int,
    /// Booleans.
    Bool,
    /// Object references (with a distinguished `null`).
    Ref,
}

/// A stable-baseline witness: one spec-level field read that was
/// rendered as a fresh symbol instead of a direct heap read. The
/// baseline scans live witnesses at every field write to decide which
/// must be invalidated; `scan_exempt` marks witnesses minted under an
/// assertion the static analysis ([`crate::stability`]) proved
/// (framed-)stable, whose scans the executor skips without posing a
/// solver query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Witness {
    /// The receiver the read was taken from.
    pub recv: TermId,
    /// The field that was read.
    pub field: String,
    /// The fresh symbol standing in for the read value.
    pub sym: Sym,
    /// Whether invalidation scans may skip this witness.
    pub scan_exempt: bool,
}

/// A symbolic expression.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SymExpr {
    /// A symbol.
    Sym(Sym),
    /// An integer literal.
    Int(i64),
    /// A boolean literal.
    Bool(bool),
    /// The null reference.
    Null,
    /// Addition.
    Add(Box<SymExpr>, Box<SymExpr>),
    /// Subtraction.
    Sub(Box<SymExpr>, Box<SymExpr>),
    /// Multiplication (the decision procedure handles the linear
    /// fragment; nonlinear goals may come back unknown).
    Mul(Box<SymExpr>, Box<SymExpr>),
    /// Equality (any shared sort).
    Eq(Box<SymExpr>, Box<SymExpr>),
    /// Integer `<`.
    Lt(Box<SymExpr>, Box<SymExpr>),
    /// Integer `<=`.
    Le(Box<SymExpr>, Box<SymExpr>),
    /// Negation.
    Not(Box<SymExpr>),
    /// Conjunction.
    And(Box<SymExpr>, Box<SymExpr>),
    /// Disjunction.
    Or(Box<SymExpr>, Box<SymExpr>),
    /// Implication.
    Implies(Box<SymExpr>, Box<SymExpr>),
    /// If-then-else on a boolean condition.
    Ite(Box<SymExpr>, Box<SymExpr>, Box<SymExpr>),
}

#[allow(clippy::should_implement_trait)]
impl SymExpr {
    /// Integer literal.
    pub fn int(n: i64) -> SymExpr {
        SymExpr::Int(n)
    }

    /// Boolean literal.
    pub fn bool(b: bool) -> SymExpr {
        SymExpr::Bool(b)
    }

    /// Symbol reference.
    pub fn sym(s: Sym) -> SymExpr {
        SymExpr::Sym(s)
    }

    /// `a + b` with constant folding.
    pub fn add(a: SymExpr, b: SymExpr) -> SymExpr {
        match (&a, &b) {
            (SymExpr::Int(x), SymExpr::Int(y)) => SymExpr::Int(x.wrapping_add(*y)),
            (SymExpr::Int(0), _) => b,
            (_, SymExpr::Int(0)) => a,
            _ => SymExpr::Add(Box::new(a), Box::new(b)),
        }
    }

    /// `a - b` with constant folding.
    pub fn sub(a: SymExpr, b: SymExpr) -> SymExpr {
        match (&a, &b) {
            (SymExpr::Int(x), SymExpr::Int(y)) => SymExpr::Int(x.wrapping_sub(*y)),
            (_, SymExpr::Int(0)) => a,
            _ => SymExpr::Sub(Box::new(a), Box::new(b)),
        }
    }

    /// `a * b` with constant folding.
    pub fn mul(a: SymExpr, b: SymExpr) -> SymExpr {
        match (&a, &b) {
            (SymExpr::Int(x), SymExpr::Int(y)) => SymExpr::Int(x.wrapping_mul(*y)),
            (SymExpr::Int(1), _) => b,
            (_, SymExpr::Int(1)) => a,
            (SymExpr::Int(0), _) | (_, SymExpr::Int(0)) => SymExpr::Int(0),
            _ => SymExpr::Mul(Box::new(a), Box::new(b)),
        }
    }

    /// `a = b` with folding.
    pub fn eq(a: SymExpr, b: SymExpr) -> SymExpr {
        if a == b {
            return SymExpr::Bool(true);
        }
        match (&a, &b) {
            (SymExpr::Int(x), SymExpr::Int(y)) => SymExpr::Bool(x == y),
            (SymExpr::Bool(x), SymExpr::Bool(y)) => SymExpr::Bool(x == y),
            _ => SymExpr::Eq(Box::new(a), Box::new(b)),
        }
    }

    /// `a < b` with folding.
    pub fn lt(a: SymExpr, b: SymExpr) -> SymExpr {
        match (&a, &b) {
            (SymExpr::Int(x), SymExpr::Int(y)) => SymExpr::Bool(x < y),
            _ => SymExpr::Lt(Box::new(a), Box::new(b)),
        }
    }

    /// `a <= b` with folding.
    pub fn le(a: SymExpr, b: SymExpr) -> SymExpr {
        match (&a, &b) {
            (SymExpr::Int(x), SymExpr::Int(y)) => SymExpr::Bool(x <= y),
            _ => SymExpr::Le(Box::new(a), Box::new(b)),
        }
    }

    /// `¬a` with folding.
    pub fn not(a: SymExpr) -> SymExpr {
        match a {
            SymExpr::Bool(b) => SymExpr::Bool(!b),
            SymExpr::Not(inner) => *inner,
            _ => SymExpr::Not(Box::new(a)),
        }
    }

    /// `a ∧ b` with folding.
    pub fn and(a: SymExpr, b: SymExpr) -> SymExpr {
        match (&a, &b) {
            (SymExpr::Bool(true), _) => b,
            (_, SymExpr::Bool(true)) => a,
            (SymExpr::Bool(false), _) | (_, SymExpr::Bool(false)) => SymExpr::Bool(false),
            _ => SymExpr::And(Box::new(a), Box::new(b)),
        }
    }

    /// `a ∨ b` with folding.
    pub fn or(a: SymExpr, b: SymExpr) -> SymExpr {
        match (&a, &b) {
            (SymExpr::Bool(false), _) => b,
            (_, SymExpr::Bool(false)) => a,
            (SymExpr::Bool(true), _) | (_, SymExpr::Bool(true)) => SymExpr::Bool(true),
            _ => SymExpr::Or(Box::new(a), Box::new(b)),
        }
    }

    /// `a → b` with folding.
    pub fn implies(a: SymExpr, b: SymExpr) -> SymExpr {
        SymExpr::or(SymExpr::not(a), b)
    }

    /// The symbols occurring in the expression.
    pub fn symbols(&self, out: &mut Vec<Sym>) {
        match self {
            SymExpr::Sym(s) => {
                if !out.contains(s) {
                    out.push(*s);
                }
            }
            SymExpr::Int(_) | SymExpr::Bool(_) | SymExpr::Null => {}
            SymExpr::Not(a) => a.symbols(out),
            SymExpr::Add(a, b)
            | SymExpr::Sub(a, b)
            | SymExpr::Mul(a, b)
            | SymExpr::Eq(a, b)
            | SymExpr::Lt(a, b)
            | SymExpr::Le(a, b)
            | SymExpr::And(a, b)
            | SymExpr::Or(a, b)
            | SymExpr::Implies(a, b) => {
                a.symbols(out);
                b.symbols(out);
            }
            SymExpr::Ite(c, t, e) => {
                c.symbols(out);
                t.symbols(out);
                e.symbols(out);
            }
        }
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymExpr::Sym(s) => write!(f, "{}", s),
            SymExpr::Int(n) => write!(f, "{}", n),
            SymExpr::Bool(b) => write!(f, "{}", b),
            SymExpr::Null => write!(f, "null"),
            SymExpr::Add(a, b) => write!(f, "({} + {})", a, b),
            SymExpr::Sub(a, b) => write!(f, "({} - {})", a, b),
            SymExpr::Mul(a, b) => write!(f, "({} * {})", a, b),
            SymExpr::Eq(a, b) => write!(f, "({} == {})", a, b),
            SymExpr::Lt(a, b) => write!(f, "({} < {})", a, b),
            SymExpr::Le(a, b) => write!(f, "({} <= {})", a, b),
            SymExpr::Not(a) => write!(f, "!{}", a),
            SymExpr::And(a, b) => write!(f, "({} && {})", a, b),
            SymExpr::Or(a, b) => write!(f, "({} || {})", a, b),
            SymExpr::Implies(a, b) => write!(f, "({} ==> {})", a, b),
            SymExpr::Ite(c, t, e) => write!(f, "(ite {} {} {})", c, t, e),
        }
    }
}

/// An interned term: an index into a [`TermArena`].
///
/// Two ids from the *same* arena are equal iff the terms they denote
/// are structurally equal, so `==` on ids replaces deep tree
/// comparison.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(u32);

impl TermId {
    /// The raw arena index — stable within one arena, used for
    /// order-insensitive path-condition hashing in trace events.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// One hash-consed term node. Children are [`TermId`]s, so the node is
/// small and `Copy`; `Implies` is desugared to `¬a ∨ b` at interning
/// time and has no node of its own.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A symbol.
    Sym(Sym),
    /// An integer literal.
    Int(i64),
    /// A boolean literal.
    Bool(bool),
    /// The null reference.
    Null,
    /// Addition.
    Add(TermId, TermId),
    /// Subtraction.
    Sub(TermId, TermId),
    /// Multiplication.
    Mul(TermId, TermId),
    /// Equality (any shared sort).
    Eq(TermId, TermId),
    /// Integer `<`.
    Lt(TermId, TermId),
    /// Integer `<=`.
    Le(TermId, TermId),
    /// Negation.
    Not(TermId),
    /// Conjunction.
    And(TermId, TermId),
    /// Disjunction.
    Or(TermId, TermId),
    /// If-then-else on a boolean condition.
    Ite(TermId, TermId, TermId),
}

/// Interns both children of a binary [`SymExpr`] node, then applies the
/// arena constructor (keeps `intern_expr` readable).
macro_rules! bin {
    ($arena:expr, $ctor:ident, $a:expr, $b:expr) => {{
        let ia = $arena.intern_expr($a);
        let ib = $arena.intern_expr($b);
        $arena.$ctor(ia, ib)
    }};
}

/// A hash-consing arena for [`Term`]s.
///
/// The constructors perform the same constant folding as the
/// [`SymExpr`] smart constructors, then intern: structurally equal
/// terms always receive the same [`TermId`]. The arena only ever
/// grows; [`TermArena::len`] is the interned-term metric reported by
/// the evaluation harness.
///
/// The constructors additionally *canonicalize* at intern time —
/// commutative arguments
/// are ordered by id, idempotent and complementary boolean pairs
/// collapse, self-comparisons fold (`x ≤ x`, `a − a`), and boolean
/// `ite` shells reduce — so syntactically different but equal terms
/// hash-cons to the same [`TermId`]. All the extra rules are semantic
/// equivalences, so they change term counts and solver cost, never
/// answers.
#[derive(Clone, Debug, Default)]
pub struct TermArena {
    nodes: Vec<Term>,
    index: HashMap<Term, TermId>,
    /// Soft interned-term budget: interning never fails (terms created
    /// past the limit are still valid), but [`TermArena::over_limit`]
    /// reports the overrun so the verifier's cooperative budget checks
    /// can prune the run.
    limit: Option<usize>,
}

impl TermArena {
    /// An empty arena.
    pub fn new() -> TermArena {
        TermArena::default()
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sets (or clears) the soft interned-term budget. The limit is a
    /// cooperative signal, not a hard stop: [`TermArena::over_limit`]
    /// turns true once `len()` exceeds it.
    pub fn set_limit(&mut self, limit: Option<usize>) {
        self.limit = limit;
    }

    /// True when the arena has grown past its soft budget.
    pub fn over_limit(&self) -> bool {
        self.limit.is_some_and(|l| self.nodes.len() > l)
    }

    /// Orders a commutative argument pair by id, so `x ⊕ y` and
    /// `y ⊕ x` intern to one node.
    fn commute(&self, a: TermId, b: TermId) -> (TermId, TermId) {
        if a.raw() > b.raw() {
            (b, a)
        } else {
            (a, b)
        }
    }

    /// The node a [`TermId`] denotes.
    pub fn node(&self, id: TermId) -> Term {
        self.nodes[id.0 as usize]
    }

    fn intern(&mut self, t: Term) -> TermId {
        if let Some(&id) = self.index.get(&t) {
            return id;
        }
        let id = TermId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        self.nodes.push(t);
        self.index.insert(t, id);
        id
    }

    /// Integer literal.
    pub fn int(&mut self, n: i64) -> TermId {
        self.intern(Term::Int(n))
    }

    /// Boolean literal.
    pub fn bool(&mut self, b: bool) -> TermId {
        self.intern(Term::Bool(b))
    }

    /// Symbol reference.
    pub fn sym(&mut self, s: Sym) -> TermId {
        self.intern(Term::Sym(s))
    }

    /// The null reference.
    pub fn null(&mut self) -> TermId {
        self.intern(Term::Null)
    }

    /// `a + b` with constant folding; canonicalization orders the
    /// commutative arguments by id.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.node(a), self.node(b)) {
            (Term::Int(x), Term::Int(y)) => self.int(x.wrapping_add(y)),
            (Term::Int(0), _) => b,
            (_, Term::Int(0)) => a,
            _ => {
                let (a, b) = self.commute(a, b);
                self.intern(Term::Add(a, b))
            }
        }
    }

    /// `a - b` with constant folding; canonicalization folds `a − a`
    /// to `0`.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.int(0);
        }
        match (self.node(a), self.node(b)) {
            (Term::Int(x), Term::Int(y)) => self.int(x.wrapping_sub(y)),
            (_, Term::Int(0)) => a,
            _ => self.intern(Term::Sub(a, b)),
        }
    }

    /// `a * b` with constant folding; canonicalization orders the
    /// commutative arguments by id.
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.node(a), self.node(b)) {
            (Term::Int(x), Term::Int(y)) => self.int(x.wrapping_mul(y)),
            (Term::Int(1), _) => b,
            (_, Term::Int(1)) => a,
            (Term::Int(0), _) | (_, Term::Int(0)) => self.int(0),
            _ => {
                let (a, b) = self.commute(a, b);
                self.intern(Term::Mul(a, b))
            }
        }
    }

    /// `a = b` with folding; structural equality is the id check, and
    /// canonicalization orients the symmetric arguments by id.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.bool(true);
        }
        match (self.node(a), self.node(b)) {
            (Term::Int(x), Term::Int(y)) => self.bool(x == y),
            (Term::Bool(x), Term::Bool(y)) => self.bool(x == y),
            _ => {
                let (a, b) = self.commute(a, b);
                self.intern(Term::Eq(a, b))
            }
        }
    }

    /// `a < b` with folding; canonicalization folds the irreflexive
    /// self-comparison `a < a` to `false`.
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.bool(false);
        }
        match (self.node(a), self.node(b)) {
            (Term::Int(x), Term::Int(y)) => self.bool(x < y),
            _ => self.intern(Term::Lt(a, b)),
        }
    }

    /// `a <= b` with folding; canonicalization folds the reflexive
    /// self-comparison `a ≤ a` to `true`.
    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.bool(true);
        }
        match (self.node(a), self.node(b)) {
            (Term::Int(x), Term::Int(y)) => self.bool(x <= y),
            _ => self.intern(Term::Le(a, b)),
        }
    }

    /// `¬a` with folding.
    pub fn not(&mut self, a: TermId) -> TermId {
        match self.node(a) {
            Term::Bool(b) => self.bool(!b),
            Term::Not(inner) => inner,
            _ => self.intern(Term::Not(a)),
        }
    }

    /// `a ∧ b` with folding; canonicalization collapses idempotent
    /// (`a ∧ a`) and complementary (`a ∧ ¬a`) pairs. Argument order is
    /// preserved — conjunction order determines the solver's atom
    /// numbering (and so its deterministic search order) and the rendering of path conditions in failure
    /// reports.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.node(a), self.node(b)) {
            (Term::Bool(true), _) => b,
            (_, Term::Bool(true)) => a,
            (Term::Bool(false), _) | (_, Term::Bool(false)) => self.bool(false),
            (na, nb) => {
                if a == b {
                    return a;
                }
                if na == Term::Not(b) || nb == Term::Not(a) {
                    return self.bool(false);
                }
                self.intern(Term::And(a, b))
            }
        }
    }

    /// `a ∨ b` with folding; canonicalization collapses idempotent
    /// (`a ∨ a`) and complementary (`a ∨ ¬a`) pairs. Argument order is
    /// preserved for the same determinism reasons as [`TermArena::and`].
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.node(a), self.node(b)) {
            (Term::Bool(false), _) => b,
            (_, Term::Bool(false)) => a,
            (Term::Bool(true), _) | (_, Term::Bool(true)) => self.bool(true),
            (na, nb) => {
                if a == b {
                    return a;
                }
                if na == Term::Not(b) || nb == Term::Not(a) {
                    return self.bool(true);
                }
                self.intern(Term::Or(a, b))
            }
        }
    }

    /// `a → b`, desugared to `¬a ∨ b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// `ite(c, t, e)` with folding on a literal condition;
    /// canonicalization reduces the boolean shells `ite(c, true,
    /// false)` to `c` and `ite(c, false, true)` to `¬c`.
    pub fn ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        if t == e {
            return t;
        }
        match self.node(c) {
            Term::Bool(true) => t,
            Term::Bool(false) => e,
            _ => {
                match (self.node(t), self.node(e)) {
                    (Term::Bool(true), Term::Bool(false)) => return c,
                    (Term::Bool(false), Term::Bool(true)) => return self.not(c),
                    _ => {}
                }
                self.intern(Term::Ite(c, t, e))
            }
        }
    }

    /// Interns an owned [`SymExpr`] tree.
    pub fn intern_expr(&mut self, e: &SymExpr) -> TermId {
        match e {
            SymExpr::Sym(s) => self.sym(*s),
            SymExpr::Int(n) => self.int(*n),
            SymExpr::Bool(b) => self.bool(*b),
            SymExpr::Null => self.null(),
            SymExpr::Add(a, b) => bin!(self, add, a, b),
            SymExpr::Sub(a, b) => bin!(self, sub, a, b),
            SymExpr::Mul(a, b) => bin!(self, mul, a, b),
            SymExpr::Eq(a, b) => bin!(self, eq, a, b),
            SymExpr::Lt(a, b) => bin!(self, lt, a, b),
            SymExpr::Le(a, b) => bin!(self, le, a, b),
            SymExpr::Not(a) => {
                let ia = self.intern_expr(a);
                self.not(ia)
            }
            SymExpr::And(a, b) => bin!(self, and, a, b),
            SymExpr::Or(a, b) => bin!(self, or, a, b),
            SymExpr::Implies(a, b) => bin!(self, implies, a, b),
            SymExpr::Ite(c, t, el) => {
                let ic = self.intern_expr(c);
                let it = self.intern_expr(t);
                let ie = self.intern_expr(el);
                self.ite(ic, it, ie)
            }
        }
    }

    /// Reconstructs an owned tree (display, diagnostics, tests).
    pub fn to_expr(&self, id: TermId) -> SymExpr {
        let b = |x: &TermId| Box::new(self.to_expr(*x));
        match &self.nodes[id.0 as usize] {
            Term::Sym(s) => SymExpr::Sym(*s),
            Term::Int(n) => SymExpr::Int(*n),
            Term::Bool(v) => SymExpr::Bool(*v),
            Term::Null => SymExpr::Null,
            Term::Add(x, y) => SymExpr::Add(b(x), b(y)),
            Term::Sub(x, y) => SymExpr::Sub(b(x), b(y)),
            Term::Mul(x, y) => SymExpr::Mul(b(x), b(y)),
            Term::Eq(x, y) => SymExpr::Eq(b(x), b(y)),
            Term::Lt(x, y) => SymExpr::Lt(b(x), b(y)),
            Term::Le(x, y) => SymExpr::Le(b(x), b(y)),
            Term::Not(x) => SymExpr::Not(b(x)),
            Term::And(x, y) => SymExpr::And(b(x), b(y)),
            Term::Or(x, y) => SymExpr::Or(b(x), b(y)),
            Term::Ite(c, t, e) => SymExpr::Ite(b(c), b(t), b(e)),
        }
    }

    /// The symbols occurring in the term.
    pub fn symbols(&self, id: TermId, out: &mut Vec<Sym>) {
        match self.node(id) {
            Term::Sym(s) => {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
            Term::Int(_) | Term::Bool(_) | Term::Null => {}
            Term::Not(a) => self.symbols(a, out),
            Term::Add(a, b)
            | Term::Sub(a, b)
            | Term::Mul(a, b)
            | Term::Eq(a, b)
            | Term::Lt(a, b)
            | Term::Le(a, b)
            | Term::And(a, b)
            | Term::Or(a, b) => {
                self.symbols(a, out);
                self.symbols(b, out);
            }
            Term::Ite(c, t, e) => {
                self.symbols(c, out);
                self.symbols(t, out);
                self.symbols(e, out);
            }
        }
    }
}

/// A fresh-symbol supply.
#[derive(Clone, Debug, Default)]
pub struct SymSupply {
    next: u32,
}

impl SymSupply {
    /// A new supply starting at 0.
    pub fn new() -> SymSupply {
        SymSupply::default()
    }

    /// Mints a fresh symbol.
    pub fn fresh(&mut self) -> Sym {
        let s = Sym(self.next);
        self.next += 1;
        s
    }

    /// How many symbols have been minted (the witness-count metric of
    /// experiment T1).
    pub fn minted(&self) -> usize {
        self.next as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding() {
        assert_eq!(
            SymExpr::add(SymExpr::int(2), SymExpr::int(3)),
            SymExpr::int(5)
        );
        assert_eq!(
            SymExpr::and(SymExpr::bool(true), SymExpr::sym(Sym(0))),
            SymExpr::sym(Sym(0))
        );
        assert_eq!(
            SymExpr::mul(SymExpr::int(0), SymExpr::sym(Sym(0))),
            SymExpr::int(0)
        );
        assert_eq!(
            SymExpr::eq(SymExpr::sym(Sym(1)), SymExpr::sym(Sym(1))),
            SymExpr::bool(true)
        );
        assert_eq!(
            SymExpr::not(SymExpr::not(SymExpr::sym(Sym(0)))),
            SymExpr::sym(Sym(0))
        );
    }

    #[test]
    fn symbol_collection() {
        let e = SymExpr::add(
            SymExpr::sym(Sym(1)),
            SymExpr::mul(SymExpr::sym(Sym(2)), SymExpr::sym(Sym(1))),
        );
        let mut syms = Vec::new();
        e.symbols(&mut syms);
        assert_eq!(syms, vec![Sym(1), Sym(2)]);
    }

    #[test]
    fn arena_hash_consing_dedups() {
        let mut a = TermArena::new();
        let x = a.sym(Sym(0));
        let y = a.sym(Sym(1));
        let t1 = a.add(x, y);
        let t2 = a.add(x, y);
        assert_eq!(t1, t2, "structurally equal terms share an id");
        let before = a.len();
        let _ = a.add(x, y);
        assert_eq!(a.len(), before, "re-interning allocates nothing");
    }

    #[test]
    fn arena_folds_like_symexpr() {
        let mut a = TermArena::new();
        let two = a.int(2);
        let three = a.int(3);
        let five = a.int(5);
        assert_eq!(a.add(two, three), five);
        let x = a.sym(Sym(0));
        let t = a.bool(true);
        assert_eq!(a.and(t, x), x);
        let zero = a.int(0);
        assert_eq!(a.mul(zero, x), zero);
        assert_eq!(a.eq(x, x), t);
        let nx = a.not(x);
        assert_eq!(a.not(nx), x);
    }

    #[test]
    fn arena_roundtrips_symexpr() {
        let mut a = TermArena::new();
        let e = SymExpr::implies(
            SymExpr::lt(SymExpr::sym(Sym(0)), SymExpr::int(4)),
            SymExpr::eq(SymExpr::sym(Sym(1)), SymExpr::int(0)),
        );
        let id = a.intern_expr(&e);
        assert_eq!(a.to_expr(id), e);
        let mut syms = Vec::new();
        a.symbols(id, &mut syms);
        assert_eq!(syms, vec![Sym(0), Sym(1)]);
    }

    #[test]
    fn canonicalization_merges_commuted_terms() {
        let mut a = TermArena::new();
        let x = a.sym(Sym(0));
        let y = a.sym(Sym(1));
        assert_eq!(a.add(x, y), a.add(y, x), "x + y ≡ y + x");
        assert_eq!(a.mul(x, y), a.mul(y, x), "x * y ≡ y * x");
        assert_eq!(a.eq(x, y), a.eq(y, x), "x == y ≡ y == x");
    }

    #[test]
    fn canonicalization_folds_self_comparisons() {
        let mut a = TermArena::new();
        let x = a.sym(Sym(0));
        let t = a.bool(true);
        let f = a.bool(false);
        let zero = a.int(0);
        assert_eq!(a.le(x, x), t, "x <= x");
        assert_eq!(a.lt(x, x), f, "x < x");
        assert_eq!(a.sub(x, x), zero, "x - x");
    }

    #[test]
    fn canonicalization_collapses_boolean_pairs() {
        let mut a = TermArena::new();
        let p = a.sym(Sym(0));
        let np = a.not(p);
        let t = a.bool(true);
        let f = a.bool(false);
        assert_eq!(a.and(p, p), p, "p && p");
        assert_eq!(a.or(p, p), p, "p || p");
        assert_eq!(a.and(p, np), f, "p && !p");
        assert_eq!(a.and(np, p), f, "!p && p");
        assert_eq!(a.or(p, np), t, "p || !p");
        assert_eq!(a.or(np, p), t, "!p || p");
        assert_eq!(a.ite(p, t, f), p, "ite(p, true, false)");
        assert_eq!(a.ite(p, f, t), np, "ite(p, false, true)");
    }

    #[test]
    fn implication_desugars_to_disjunction() {
        let mut a = TermArena::new();
        let p = a.sym(Sym(0));
        let q = a.sym(Sym(1));
        let np = a.not(p);
        let t = a.bool(true);
        assert_eq!(a.implies(p, q), a.or(np, q), "p ==> q ≡ !p || q");
        assert_eq!(a.implies(p, p), t, "p ==> p");
        assert_eq!(a.implies(np, p), p, "!p ==> p ≡ p || p");
    }

    #[test]
    fn supply_is_monotone() {
        let mut s = SymSupply::new();
        let a = s.fresh();
        let b = s.fresh();
        assert_ne!(a, b);
        assert_eq!(s.minted(), 2);
    }
}
