//! Symbolic values for the IDF verifier.
//!
//! The symbolic executor manipulates terms over fresh symbols; the
//! decision procedure in [`crate::smt`] discharges entailments between
//! them. Symbols are typed (integer, boolean, reference) at creation.
//!
//! A term is a [`TermId`] into a [`TermArena`], the hash-consed form
//! the executor, the solver and the failure reports all use. Every
//! structurally distinct term is stored exactly once, so equality and
//! hashing are O(1) id comparisons and sub-term sharing is free.

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

/// The deepest term the verifier accepts. Some of the solver's walks
/// recurse once per level of a term, and a term's depth grows with the
/// number of statements that build it (`r := r + y; …`), not with the
/// height of any one AST. Past this depth the verifier stops with
/// `Unknown` on the `terms` budget axis, and the solver answers
/// `Unknown`, instead of overflowing the thread's stack. Failure
/// reports print terms with an explicit stack ([`TermArena::display`]).
/// On a 2 MiB thread in a debug build, with the bound lifted, those
/// walks overflow at about 5000 levels of boolean and 5800 of
/// arithmetic nesting: a method of `n` statements `c.val := c.val + y`
/// and a false assertion reports `Failed` at n = 5843 and overflows at
/// 5859, almost three times the bound.
pub const MAX_TERM_DEPTH: u32 = 2000;

/// A hash-consing arena for [`Term`]s.
///
/// The constructors fold constants (`2 + 3`, `x * 0`, `true && p`,
/// `!!p`), then intern: structurally equal terms always receive the
/// same [`TermId`]. The arena only ever grows; [`TermArena::len`] is
/// the interned-term metric reported by the evaluation harness.
///
/// The constructors also *canonicalize* at intern time — commutative
/// arguments are ordered by id, idempotent and complementary boolean pairs
/// collapse, self-comparisons fold (`x ≤ x`, `a − a`), and boolean
/// `ite` shells reduce — so syntactically different but equal terms
/// hash-cons to the same [`TermId`]. All the extra rules are semantic
/// equivalences, so they change term counts and solver cost, never
/// answers.
#[derive(Clone, Debug, Default)]
pub struct TermArena {
    nodes: Vec<Term>,
    /// Each node's depth: 1 for a leaf, else one more than its deepest
    /// child.
    depths: Vec<u32>,
    /// The greatest depth interned so far.
    max_depth: u32,
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

    /// True when the arena has grown past its soft budget, or holds a
    /// term deeper than [`MAX_TERM_DEPTH`].
    pub fn over_limit(&self) -> bool {
        self.limit.is_some_and(|l| self.nodes.len() > l) || self.too_deep()
    }

    /// True once some interned term is deeper than [`MAX_TERM_DEPTH`].
    pub fn too_deep(&self) -> bool {
        self.max_depth > MAX_TERM_DEPTH
    }

    /// The depth of a term: 1 for a leaf, else one more than its
    /// deepest child.
    pub fn depth(&self, id: TermId) -> u32 {
        self.depths[id.0 as usize]
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

    /// The id of `t` if it is already interned; never interns.
    pub fn get(&self, t: Term) -> Option<TermId> {
        self.index.get(&t).copied()
    }

    /// Runs `build` as scratch work: the terms it interns do not count
    /// toward [`TermArena::too_deep`] until a later call interns them
    /// again. The solver builds its query formula this
    /// way, as a conjunction chain as long as the path condition, which
    /// it walks in a loop rather than recursively.
    pub fn scratch<T>(&mut self, build: impl FnOnce(&mut TermArena) -> T) -> T {
        let max_depth = self.max_depth;
        let out = build(self);
        self.max_depth = max_depth;
        out
    }

    fn intern(&mut self, t: Term) -> TermId {
        if let Some(&id) = self.index.get(&t) {
            self.max_depth = self.max_depth.max(self.depth(id));
            return id;
        }
        let id = TermId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        let d = |x: TermId| self.depth(x);
        let depth = 1 + match t {
            Term::Sym(_) | Term::Int(_) | Term::Bool(_) | Term::Null => 0,
            Term::Not(a) => d(a),
            Term::Add(a, b)
            | Term::Sub(a, b)
            | Term::Mul(a, b)
            | Term::Eq(a, b)
            | Term::Lt(a, b)
            | Term::Le(a, b)
            | Term::And(a, b)
            | Term::Or(a, b) => d(a).max(d(b)),
            Term::Ite(c, a, b) => d(c).max(d(a)).max(d(b)),
        };
        self.max_depth = self.max_depth.max(depth);
        self.depths.push(depth);
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

    /// A [`fmt::Display`] view of the term `id`, as failure reports
    /// print it: `s0`, `-3`, `null`, `(a + b)`, `!a`, `(ite c t e)`.
    pub fn display(&self, id: TermId) -> impl fmt::Display + '_ {
        TermDisplay { arena: self, id }
    }
}

/// See [`TermArena::display`].
struct TermDisplay<'a> {
    arena: &'a TermArena,
    id: TermId,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Nodes are visited with an explicit stack, so a term's depth
        // costs heap, not thread stack. A node's pieces are pushed in
        // reverse, to be popped in reading order.
        enum Step {
            Visit(TermId),
            Text(&'static str),
        }
        fn infix(todo: &mut Vec<Step>, a: TermId, op: &'static str, b: TermId) {
            todo.extend([
                Step::Text(")"),
                Step::Visit(b),
                Step::Text(op),
                Step::Visit(a),
                Step::Text("("),
            ]);
        }
        let mut todo = vec![Step::Visit(self.id)];
        while let Some(step) = todo.pop() {
            let t = match step {
                Step::Text(s) => {
                    f.write_str(s)?;
                    continue;
                }
                Step::Visit(t) => t,
            };
            match self.arena.node(t) {
                Term::Sym(s) => write!(f, "{}", s)?,
                Term::Int(n) => write!(f, "{}", n)?,
                Term::Bool(v) => write!(f, "{}", v)?,
                Term::Null => f.write_str("null")?,
                Term::Not(a) => todo.extend([Step::Visit(a), Step::Text("!")]),
                Term::Ite(c, a, b) => todo.extend([
                    Step::Text(")"),
                    Step::Visit(b),
                    Step::Text(" "),
                    Step::Visit(a),
                    Step::Text(" "),
                    Step::Visit(c),
                    Step::Text("(ite "),
                ]),
                Term::Add(a, b) => infix(&mut todo, a, " + ", b),
                Term::Sub(a, b) => infix(&mut todo, a, " - ", b),
                Term::Mul(a, b) => infix(&mut todo, a, " * ", b),
                Term::Eq(a, b) => infix(&mut todo, a, " == ", b),
                Term::Lt(a, b) => infix(&mut todo, a, " < ", b),
                Term::Le(a, b) => infix(&mut todo, a, " <= ", b),
                Term::And(a, b) => infix(&mut todo, a, " && ", b),
                Term::Or(a, b) => infix(&mut todo, a, " || ", b),
            }
        }
        Ok(())
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
    fn arena_folds_constants() {
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

    /// The report printer's output on every term kind.
    #[test]
    fn display_renders_every_term_kind() {
        let mut a = TermArena::new();
        let (x, y, p) = (a.sym(Sym(0)), a.sym(Sym(1)), a.sym(Sym(2)));
        let minus_three = a.int(-3);
        let null = a.null();
        let f = a.bool(false);
        let sum = a.add(x, minus_three);
        let diff = a.sub(sum, y);
        let prod = a.mul(y, x);
        let lt = a.lt(diff, prod);
        let le = a.le(y, minus_three);
        let is_null = a.eq(x, null);
        let conj = a.and(lt, le);
        let disj = a.or(p, is_null);
        let not_and = a.not(conj);
        let not_or = a.not(disj);
        let ite = a.ite(p, sum, y);
        for (id, want) in [
            (x, "s0"),
            (minus_three, "-3"),
            (null, "null"),
            (f, "false"),
            (sum, "(s0 + -3)"),
            (diff, "((s0 + -3) - s1)"),
            (prod, "(s0 * s1)"),
            (lt, "(((s0 + -3) - s1) < (s0 * s1))"),
            (le, "(s1 <= -3)"),
            (is_null, "(s0 == null)"),
            (not_and, "!((((s0 + -3) - s1) < (s0 * s1)) && (s1 <= -3))"),
            (not_or, "!(s2 || (s0 == null))"),
            (ite, "(ite s2 (s0 + -3) s1)"),
        ] {
            assert_eq!(a.display(id).to_string(), want);
        }
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
