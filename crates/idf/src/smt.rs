//! A small decision procedure for the verifier's entailment queries.
//!
//! Viper delegates these queries to Z3; building the full substrate
//! ourselves, we implement the fragment the IDF case studies need:
//!
//! * boolean structure by conflict-driven clause learning (CDCL):
//!   two-watched-literal propagation, first-UIP analysis, VSIDS
//!   ordering, Luby restarts, and a theory-propagation layer
//!   (congruence closure + difference bounds);
//! * linear integer arithmetic by Fourier–Motzkin elimination with
//!   integer tightening (`a < b` ⇒ `a ≤ b − 1`);
//! * reference equalities by union-find with disequality checking.
//!
//! The procedure is **sound for verification**: `Valid` is only
//! answered when `pc → goal` holds. Nonlinear or otherwise unsupported
//! atoms, and linear arithmetic that would overflow `i128`, degrade the
//! answer to `Unknown`, never to a wrong `Valid`.
//!
//! Queries are posed over hash-consed [`TermId`]s, and a **query
//! cache** exploits the O(1) equality that interning buys: it is keyed
//! on the *normalized* path condition (sorted, deduplicated ids) plus
//! the goal id. Symbolic execution re-poses the same
//! consistency/entailment queries constantly (branch joins, repeated
//! spec boundaries), and a repeat is answered without any solving. The
//! key is a complete input of the query, so a memoized answer is the
//! one a re-solve would give.
//!
//! Every full propositional assignment the search reaches is decided
//! afresh by `theory_check`, a pure function of its theory literals:
//! no theory verdict is remembered, so each one comes with the
//! derivation that produced it.

use crate::sym::{Sort, Sym, Term, TermArena, TermId, MAX_TERM_DEPTH};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Search-loop iterations between wall-clock deadline polls (a power of
/// two; the check is a masked counter increment on the off iterations).
/// The first iteration of every search polls immediately, so an
/// already-expired deadline aborts before any work; thereafter at most
/// 64 conflicts/decisions run between polls, which bounds how far a hard
/// query can overshoot its deadline.
const DEADLINE_POLL_MASK: u32 = 63;

/// The answer to an entailment query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Answer {
    /// The entailment holds.
    Valid,
    /// A countermodel exists within the supported theory.
    Invalid,
    /// Out of fragment (nonlinear, blown budget, …).
    Unknown,
}

/// Internal satisfiability verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SatAnswer {
    Sat,
    Unsat,
    Unknown,
}

/// A linear term `Σ cᵢ·xᵢ + k` over integer symbols.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
struct LinTerm {
    coeffs: BTreeMap<Sym, i128>,
    konst: i128,
}

impl LinTerm {
    fn constant(k: i128) -> LinTerm {
        LinTerm {
            coeffs: BTreeMap::new(),
            konst: k,
        }
    }

    fn var(s: Sym) -> LinTerm {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(s, 1);
        LinTerm { coeffs, konst: 0 }
    }

    // The arithmetic is checked: `None` means a coefficient or the
    // constant left `i128`, and every caller then abstains (an opaque
    // atom, a skipped bound, an `Unknown` leaf) rather than reason
    // about a wrapped value.

    fn scale(&self, k: i128) -> Option<LinTerm> {
        let mut scaled = self.clone();
        for c in scaled.coeffs.values_mut() {
            *c = mul(*c, k)?;
        }
        scaled.konst = mul(self.konst, k)?;
        Some(scaled)
    }

    fn add(&self, other: &LinTerm) -> Option<LinTerm> {
        let mut coeffs = self.coeffs.clone();
        for (s, c) in &other.coeffs {
            let e = coeffs.entry(*s).or_insert(0);
            *e = e.checked_add(*c)?;
            if *e == 0 {
                coeffs.remove(s);
            }
        }
        Some(LinTerm {
            coeffs,
            konst: self.konst.checked_add(other.konst)?,
        })
    }

    fn sub(&self, other: &LinTerm) -> Option<LinTerm> {
        self.add(&other.scale(-1)?)
    }

    /// `-self + 1`: over the integers, `¬(self ≤ 0)` is `-self + 1 ≤ 0`.
    fn negated(&self) -> Option<LinTerm> {
        self.scale(-1)?.add(&LinTerm::constant(1))
    }

    fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }
}

/// A reference-sorted ground term.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum RefTerm {
    Null,
    Sym(Sym),
}

/// An abstracted atom (negations are handled by the literal polarity).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum Atom {
    /// `lin ≤ 0`.
    LinLe(LinTerm),
    /// A boolean symbol.
    BoolSym(Sym),
    /// Equality of two reference terms.
    RefEq(RefTerm, RefTerm),
    /// Unsupported structure (nonlinear multiplication, …).
    Opaque(TermId),
}

/// Interned atoms of one `sat` call: index lookup is a hash probe, not
/// a linear scan over previously seen atoms.
#[derive(Default)]
struct AtomTable {
    list: Vec<Atom>,
    index: HashMap<Atom, usize>,
}

impl AtomTable {
    fn intern(&mut self, a: Atom) -> usize {
        if let Some(&i) = self.index.get(&a) {
            return i;
        }
        let i = self.list.len();
        self.list.push(a.clone());
        self.index.insert(a, i);
        i
    }
}

/// A propositional skeleton over atom indices.
#[derive(Clone, Debug)]
enum BForm {
    True,
    False,
    Lit(usize, bool),
    And(Box<BForm>, Box<BForm>),
    Or(Box<BForm>, Box<BForm>),
}

/// The integer-comparison shapes shared by the ite-splitting helpers.
#[derive(Clone, Copy)]
enum Cmp {
    Lt,
    Le,
    Eq,
}

/// The decision procedure, with query statistics (reported by the
/// evaluation harness).
#[derive(Clone, Debug, Default)]
pub struct Solver {
    /// Sorts of the symbols in play.
    pub sorts: BTreeMap<Sym, Sort>,
    /// Number of entailment queries answered.
    pub queries: usize,
    /// CDCL decisions across all queries.
    pub branches: usize,
    /// Query-cache hits (whole entailments answered from memory).
    pub cache_hits: usize,
    /// Query-cache misses (entailments actually solved).
    pub cache_misses: usize,
    /// Remaining solver fuel; `None` means unlimited. One unit is
    /// charged per conflict and per propagated literal. At zero the solver answers `Unknown` instead
    /// of searching further (cooperative budget exhaustion).
    pub fuel: Option<u64>,
    /// Sticky flag: set once any query was truncated by fuel
    /// exhaustion. Truncated answers are never cached (the caches must
    /// change cost, never answers).
    pub fuel_exhausted: bool,
    /// Wall-clock deadline for the current method's queries; `None`
    /// means unlimited. Unlike the per-method deadline check at
    /// statement boundaries, this one is polled *inside* the search
    /// loop (every `DEADLINE_POLL_MASK + 1` conflicts/decisions), so a
    /// single pathologically hard query still returns `Unknown` within
    /// a small multiple of its deadline instead of running to
    /// completion.
    pub deadline: Option<Instant>,
    /// Sticky flag: set once any query was truncated by the deadline.
    /// Like fuel truncation, a deadline-truncated answer reflects the
    /// budget, not the formula, and is never cached.
    pub deadline_exhausted: bool,
    /// Fault injection: degrade every answer to `Answer::Unknown` once
    /// `queries` exceeds this count. Injected answers bypass the caches
    /// entirely.
    pub unknown_after: Option<usize>,
    /// First-UIP clauses learned across all queries, one per resolved
    /// conflict (monotone: each query's clauses are dropped with it,
    /// the count is not).
    pub learned_clauses: usize,
    /// CDCL conflicts across all queries.
    pub conflicts: usize,
    /// CDCL restarts across all queries (Luby schedule).
    pub restarts: usize,
    /// Literals assigned by unit propagation across all queries.
    pub propagations: usize,
    /// Literals assigned by theory propagation (congruence closure and
    /// difference-bound strengthening) across all queries.
    pub theory_props: usize,
    query_cache: HashMap<(Vec<TermId>, TermId), Answer>,
}

impl Solver {
    /// A fresh solver.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Declares a symbol's sort.
    pub fn declare(&mut self, s: Sym, sort: Sort) {
        self.sorts.insert(s, sort);
    }

    /// Checks `pc ⊨ goal` (validity of the implication).
    ///
    /// The path condition is normalized (sorted, deduplicated) before
    /// solving — conjunction is commutative and idempotent — so queries
    /// that differ only in condition order share one cache entry and
    /// one canonical answer.
    pub fn entails(&mut self, arena: &mut TermArena, pc: &[TermId], goal: TermId) -> Answer {
        self.queries += 1;
        // Fault injection: past the threshold, every answer degrades to
        // Unknown without consulting or filling the caches.
        if self.unknown_after.is_some_and(|n| self.queries > n) {
            return Answer::Unknown;
        }
        // A term past the depth bound would overflow the recursive
        // walks below; the answer reflects the bound, not the formula,
        // so it is not cached.
        if std::iter::once(&goal)
            .chain(pc)
            .any(|&t| arena.depth(t) > MAX_TERM_DEPTH)
        {
            return Answer::Unknown;
        }
        let mut key: Vec<TermId> = pc.to_vec();
        key.sort_unstable();
        key.dedup();
        if let Some(&cached) = self.query_cache.get(&(key.clone(), goal)) {
            self.cache_hits += 1;
            return cached;
        }
        self.cache_misses += 1;
        let answer = arena.scratch(|arena| {
            let mut formula = arena.not(goal);
            for &c in &key {
                formula = arena.and(formula, c);
            }
            match self.sat(arena, formula) {
                SatAnswer::Unsat => Answer::Valid,
                SatAnswer::Sat => Answer::Invalid,
                SatAnswer::Unknown => Answer::Unknown,
            }
        });
        // A fuel- or deadline-truncated answer reflects the budget, not
        // the formula; caching it would let a later (differently
        // budgeted) run read it back as the formula's answer. Once
        // either axis is exhausted every subsequent answer is suspect,
        // so caching stops entirely.
        if !self.fuel_exhausted && !self.deadline_exhausted {
            self.query_cache.insert((key, goal), answer);
        }
        answer
    }

    /// Checks whether the path condition is consistent (used to prune
    /// infeasible branches). `consistent(pc)` is `pc ⊭ false` with
    /// Unknown treated as consistent (conservative: keep exploring), so
    /// it shares the entailment query cache.
    pub fn consistent(&mut self, arena: &mut TermArena, pc: &[TermId]) -> bool {
        let falsum = arena.bool(false);
        self.entails(arena, pc, falsum) != Answer::Valid
    }

    /// Answers one satisfiability query.
    ///
    /// The formula is abstracted to a propositional skeleton over
    /// theory atoms, which is Tseitin-encoded to CNF (atom indices
    /// become the first variables, auxiliary definition variables
    /// follow), and a fresh engine runs to a verdict. Its clause
    /// database — problem, explanation, blocking and learned clauses —
    /// lives and dies with this call; only its counters and remaining
    /// fuel fold into the solver's.
    fn sat(&mut self, arena: &mut TermArena, f: TermId) -> SatAnswer {
        // `f` is a left-nested conjunction as long as the path
        // condition. Its left spine is walked in a loop, and each
        // conjunct abstracted on its own, in the order the recursion
        // would visit them, so the atoms and the encoding come out the
        // same while the stack depth stays that of one conjunct.
        let mut spine = Vec::new();
        let mut rest = f;
        while let Term::And(a, b) = arena.node(rest) {
            spine.push(b);
            rest = a;
        }
        spine.push(rest);
        let mut atoms = AtomTable::default();
        let conjuncts: Vec<BForm> = spine
            .into_iter()
            .rev()
            .map(|c| self.abstract_bool(arena, c, true, &mut atoms))
            .collect();
        let mut eng = CdclEngine::new(atoms.list, self.fuel, self.deadline);
        if !eng.encode(&conjuncts) {
            // Propositionally false at the root: no search, no fuel.
            return SatAnswer::Unsat;
        }
        let verdict = eng.solve();
        self.fuel = eng.fuel;
        self.fuel_exhausted |= eng.fuel_exhausted;
        self.deadline_exhausted |= eng.deadline_exhausted;
        self.branches += eng.decisions as usize;
        self.conflicts += eng.conflicts as usize;
        self.restarts += eng.restarts as usize;
        self.propagations += eng.propagations as usize;
        self.theory_props += eng.theory_props as usize;
        self.learned_clauses += eng.learned_total as usize;
        verdict
    }

    /// Converts a boolean term to a skeleton, interning atoms.
    /// `positive` tracks NNF polarity. The connectives recurse here and
    /// everything else goes to [`Solver::abstract_atom`], which keeps
    /// this frame, paid once per level of the term, small.
    fn abstract_bool(
        &mut self,
        arena: &mut TermArena,
        id: TermId,
        positive: bool,
        atoms: &mut AtomTable,
    ) -> BForm {
        match arena.node(id) {
            Term::Bool(b) => {
                if b == positive {
                    BForm::True
                } else {
                    BForm::False
                }
            }
            Term::Not(inner) => self.abstract_bool(arena, inner, !positive, atoms),
            Term::And(a, b) | Term::Or(a, b) => {
                let fa = Box::new(self.abstract_bool(arena, a, positive, atoms));
                let fb = Box::new(self.abstract_bool(arena, b, positive, atoms));
                if matches!(arena.node(id), Term::And(..)) == positive {
                    BForm::And(fa, fb)
                } else {
                    BForm::Or(fa, fb)
                }
            }
            Term::Sym(s) => BForm::Lit(atoms.intern(Atom::BoolSym(s)), positive),
            _ => self.abstract_atom(arena, id, positive, atoms),
        }
    }

    /// [`Solver::abstract_bool`] for comparisons, boolean `ite` and
    /// opaque terms.
    fn abstract_atom(
        &mut self,
        arena: &mut TermArena,
        id: TermId,
        positive: bool,
        atoms: &mut AtomTable,
    ) -> BForm {
        match arena.node(id) {
            Term::Lt(a, b) => {
                if let Some(ex) = split_cmp_ite(arena, a, b, Cmp::Lt) {
                    return self.abstract_bool(arena, ex, positive, atoms);
                }
                // a < b  ⇔  a - b + 1 ≤ 0 (integers), and
                // ¬(a < b) ⇔ b ≤ a ⇔ b - a ≤ 0.
                let lin = self.linearize_pair(arena, a, b).and_then(|(la, lb)| {
                    if positive {
                        la.sub(&lb)?.add(&LinTerm::constant(1))
                    } else {
                        lb.sub(&la)
                    }
                });
                match lin {
                    Some(lin) => lin_lit(atoms, lin),
                    None => BForm::Lit(atoms.intern(Atom::Opaque(id)), positive),
                }
            }
            Term::Le(a, b) => {
                if let Some(ex) = split_cmp_ite(arena, a, b, Cmp::Le) {
                    return self.abstract_bool(arena, ex, positive, atoms);
                }
                // ¬(a ≤ b) ⇔ b + 1 ≤ a ⇔ b - a + 1 ≤ 0.
                let lin = self.linearize_pair(arena, a, b).and_then(|(la, lb)| {
                    if positive {
                        la.sub(&lb)
                    } else {
                        lb.sub(&la)?.add(&LinTerm::constant(1))
                    }
                });
                match lin {
                    Some(lin) => lin_lit(atoms, lin),
                    None => BForm::Lit(atoms.intern(Atom::Opaque(id)), positive),
                }
            }
            Term::Eq(a, b) => match self.sort_of(arena, a).or_else(|| self.sort_of(arena, b)) {
                Some(Sort::Int) => {
                    if let Some(ex) = split_cmp_ite(arena, a, b, Cmp::Eq) {
                        return self.abstract_bool(arena, ex, positive, atoms);
                    }
                    // d = 0 ⇔ d ≤ 0 ∧ -d ≤ 0, and
                    // d ≠ 0 ⇔ d ≤ -1 ∨ -d ≤ -1.
                    let sides = self.linearize_pair(arena, a, b).and_then(|(la, lb)| {
                        let d = la.sub(&lb)?;
                        if positive {
                            let neg = d.scale(-1)?;
                            Some((d, neg))
                        } else {
                            Some((d.add(&LinTerm::constant(1))?, d.negated()?))
                        }
                    });
                    match sides {
                        Some((l, r)) => {
                            let (l, r) = (Box::new(lin_lit(atoms, l)), Box::new(lin_lit(atoms, r)));
                            if positive {
                                BForm::And(l, r)
                            } else {
                                BForm::Or(l, r)
                            }
                        }
                        None => BForm::Lit(atoms.intern(Atom::Opaque(id)), positive),
                    }
                }
                Some(Sort::Ref) => match (ref_term(arena, a), ref_term(arena, b)) {
                    (Some(ra), Some(rb)) => BForm::Lit(atoms.intern(Atom::RefEq(ra, rb)), positive),
                    _ => BForm::Lit(atoms.intern(Atom::Opaque(id)), positive),
                },
                Some(Sort::Bool) => {
                    // a ↔ b.
                    let both = arena.and(a, b);
                    let na = arena.not(a);
                    let nb = arena.not(b);
                    let neither = arena.and(na, nb);
                    let expanded = arena.or(both, neither);
                    self.abstract_bool(arena, expanded, positive, atoms)
                }
                None => BForm::Lit(atoms.intern(Atom::Opaque(id)), positive),
            },
            Term::Ite(c, t, el) => {
                // Boolean ite: (c ∧ t) ∨ (¬c ∧ e).
                let then_arm = arena.and(c, t);
                let nc = arena.not(c);
                let else_arm = arena.and(nc, el);
                let expanded = arena.or(then_arm, else_arm);
                self.abstract_bool(arena, expanded, positive, atoms)
            }
            _ => BForm::Lit(atoms.intern(Atom::Opaque(id)), positive),
        }
    }

    fn sort_of(&self, arena: &TermArena, id: TermId) -> Option<Sort> {
        match arena.node(id) {
            Term::Int(_) | Term::Add(..) | Term::Sub(..) | Term::Mul(..) => Some(Sort::Int),
            Term::Bool(_)
            | Term::Not(_)
            | Term::And(..)
            | Term::Or(..)
            | Term::Eq(..)
            | Term::Lt(..)
            | Term::Le(..) => Some(Sort::Bool),
            Term::Null => Some(Sort::Ref),
            Term::Sym(s) => self.sorts.get(&s).copied(),
            Term::Ite(_, t, e2) => self.sort_of(arena, t).or_else(|| self.sort_of(arena, e2)),
        }
    }

    /// The linear form of an integer term, or `None` when it is
    /// nonlinear or overflows. The walk keeps its own stack: a long
    /// `+` chain costs heap, not thread stack.
    fn linearize(&self, arena: &TermArena, id: TermId) -> Option<LinTerm> {
        // An operator is applied once both its operands are done.
        enum Step {
            Visit(TermId),
            Apply(Term),
        }
        let mut todo = vec![Step::Visit(id)];
        let mut done: Vec<LinTerm> = Vec::new();
        while let Some(step) = todo.pop() {
            match step {
                Step::Visit(t) => match arena.node(t) {
                    Term::Int(n) => done.push(LinTerm::constant(n as i128)),
                    Term::Sym(s) => match self.sorts.get(&s) {
                        Some(Sort::Int) | None => done.push(LinTerm::var(s)),
                        _ => return None,
                    },
                    op @ (Term::Add(a, b) | Term::Sub(a, b) | Term::Mul(a, b)) => {
                        todo.push(Step::Apply(op));
                        todo.push(Step::Visit(b));
                        todo.push(Step::Visit(a));
                    }
                    _ => return None,
                },
                Step::Apply(op) => {
                    let lb = done.pop()?;
                    let la = done.pop()?;
                    done.push(match op {
                        Term::Add(..) => la.add(&lb)?,
                        Term::Sub(..) => la.sub(&lb)?,
                        _ if la.is_constant() => lb.scale(la.konst)?,
                        _ if lb.is_constant() => la.scale(lb.konst)?,
                        _ => return None,
                    });
                }
            }
        }
        done.pop()
    }

    /// Both sides of a comparison as linear terms, or `None` when either
    /// is nonlinear or overflows.
    fn linearize_pair(
        &self,
        arena: &TermArena,
        a: TermId,
        b: TermId,
    ) -> Option<(LinTerm, LinTerm)> {
        Some((self.linearize(arena, a)?, self.linearize(arena, b)?))
    }
}

/// Checks a full propositional assignment's theory literals against
/// the theories: union-find over the reference (dis)equalities, then
/// Gaussian substitution and Fourier–Motzkin over the linear
/// constraints. Boolean symbols carry no theory meaning; an opaque atom
/// turns a `Sat` into `Unknown`. The literals are sorted first, so the
/// verdict, and the elimination order behind it, is a function of the
/// literal set alone.
fn theory_check<'a>(lits: impl IntoIterator<Item = (&'a Atom, bool)>) -> SatAnswer {
    let mut lits: Vec<(&Atom, bool)> = lits.into_iter().collect();
    lits.sort_unstable();

    // Opaque atoms and overflowing negations poison certainty of Sat.
    let mut unknown = false;
    // --- References: union-find with disequalities.
    let mut uf = UnionFind::new();
    let mut disequalities: Vec<(RefTerm, RefTerm)> = Vec::new();
    // --- Integers: Fourier–Motzkin.
    let mut constraints: Vec<LinTerm> = Vec::new();

    for (atom, polarity) in lits {
        match atom {
            Atom::LinLe(lin) if polarity => constraints.push(lin.clone()),
            // Dropping a negation that overflows only weakens the set:
            // an `Unsat` stays sound, and a `Sat` becomes `Unknown`.
            Atom::LinLe(lin) => match lin.negated() {
                Some(neg) => constraints.push(neg),
                None => unknown = true,
            },
            Atom::BoolSym(_) => {}
            Atom::RefEq(a, b) => {
                if polarity {
                    uf.union(*a, *b);
                } else {
                    disequalities.push((*a, *b));
                }
            }
            Atom::Opaque(_) => unknown = true,
        }
    }

    if disequalities.iter().any(|&(a, b)| uf.find(a) == uf.find(b)) {
        return SatAnswer::Unsat;
    }
    match fourier_motzkin(constraints) {
        Some(false) => SatAnswer::Unsat,
        Some(true) if !unknown => SatAnswer::Sat,
        _ => SatAnswer::Unknown,
    }
}

// ===================== CDCL engine =====================

/// Conflicts before the first Luby restart; later intervals are this
/// times the Luby sequence (1, 1, 2, 1, 1, 2, 4, …).
const LUBY_UNIT: u64 = 64;

/// VSIDS decay: the bump increment grows by `1/VSIDS_DECAY` per
/// conflict, which is equivalent to decaying every variable's activity.
const VSIDS_DECAY: f64 = 0.95;

/// Activity magnitude that triggers a rescale of all activities.
const VSIDS_RESCALE: f64 = 1e100;

#[inline]
fn mk_lit(var: usize, pol: bool) -> usize {
    var * 2 + usize::from(!pol)
}

#[inline]
fn lit_var(l: usize) -> usize {
    l >> 1
}

#[inline]
fn lit_pol(l: usize) -> bool {
    l & 1 == 0
}

#[inline]
fn lit_neg(l: usize) -> usize {
    l ^ 1
}

/// An exact rational variable bound `num/den` (`den > 0`), tagged with
/// the literal that imposed it. Bounds stay rational — never rounded to
/// integers — so the propagation layer proves exactly what the
/// (rational) Fourier–Motzkin leaf check proves: propagation prunes
/// search but never changes an answer.
type RatBound = (i128, i128, usize);

/// The result of a Tseitin encoding step.
enum TLit {
    True,
    False,
    Lit(usize),
}

/// The outcome of one theory-propagation pass.
enum TheoryResult {
    /// Nothing new.
    Quiet,
    /// Propagated at least one literal; run BCP again.
    Progress,
    /// Theory conflict, carrying the conflict clause index.
    Conflict(usize),
}

/// The outcome of checking a total assignment against the theories.
enum LeafOutcome {
    /// Theory-consistent: the query is satisfiable.
    Sat,
    /// Search space exhausted (conflict or blocking at the root).
    Done,
    /// Conflict or blocking handled; resume the search loop.
    Continue,
}

/// The Luby sequence (1, 1, 2, 1, 1, 2, 4, …) at index `x ≥ 0`.
fn luby(x: u64) -> u64 {
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = x;
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// One query's CDCL search state. Variables `0..natoms` are the atom
/// indices of the query's [`AtomTable`]; Tseitin auxiliary variables
/// follow. Everything is indexed `Vec`s and fixed iteration orders, so
/// a query's search — decisions, conflicts, learned clauses, restarts —
/// is a pure function of the query, which is what keeps verdicts and
/// stats bit-identical at any thread count. The clause database lives
/// and dies with the engine: it gains at most one learned clause per
/// conflict and is never pruned, and it is freed when the query ends.
struct CdclEngine {
    atoms: Vec<Atom>,
    natoms: usize,
    nvars: usize,
    clauses: Vec<Vec<usize>>,
    /// `watches[lit]` — clauses currently watching `lit`.
    watches: Vec<Vec<usize>>,
    /// Canonical-lits → clause index for theory-explanation clauses, so
    /// the recomputing theory pass reuses rather than re-adds them.
    expl_index: HashMap<Vec<usize>, usize>,
    assign: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<usize>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Variables occurring in the problem clauses — the only ones the
    /// search decides, so unconstrained atoms stay unassigned (their
    /// theory meaning is existential).
    decidable: Vec<bool>,
    activity: Vec<f64>,
    act_inc: f64,
    seen: Vec<bool>,
    fuel: Option<u64>,
    fuel_exhausted: bool,
    deadline: Option<Instant>,
    deadline_exhausted: bool,
    deadline_poll: u32,
    /// Set when a theory-Unknown leaf was blocked; a final Unsat then
    /// degrades to Unknown (the blocked cube might have been a model).
    taint: bool,
    decisions: u64,
    conflicts: u64,
    restarts: u64,
    propagations: u64,
    theory_props: u64,
    learned_total: u64,
    conflicts_since_restart: u64,
    root_unsat: bool,
}

impl CdclEngine {
    fn new(atoms: Vec<Atom>, fuel: Option<u64>, deadline: Option<Instant>) -> CdclEngine {
        let natoms = atoms.len();
        CdclEngine {
            atoms,
            natoms,
            nvars: natoms,
            clauses: Vec::new(),
            watches: vec![Vec::new(); natoms * 2],
            expl_index: HashMap::new(),
            assign: vec![None; natoms],
            level: vec![0; natoms],
            reason: vec![None; natoms],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            decidable: vec![false; natoms],
            activity: vec![0.0; natoms],
            act_inc: 1.0,
            seen: vec![false; natoms],
            fuel,
            fuel_exhausted: false,
            deadline,
            deadline_exhausted: false,
            deadline_poll: 0,
            taint: false,
            decisions: 0,
            conflicts: 0,
            restarts: 0,
            propagations: 0,
            theory_props: 0,
            learned_total: 0,
            conflicts_since_restart: 0,
            root_unsat: false,
        }
    }

    fn new_var(&mut self) -> usize {
        let v = self.nvars;
        self.nvars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(None);
        self.decidable.push(false);
        self.activity.push(0.0);
        self.seen.push(false);
        v
    }

    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn value(&self, l: usize) -> Option<bool> {
        self.assign[lit_var(l)].map(|v| v == lit_pol(l))
    }

    fn charge_fuel(&mut self, n: u64) {
        if let Some(f) = self.fuel {
            if f < n {
                self.fuel = Some(0);
                self.fuel_exhausted = true;
            } else {
                self.fuel = Some(f - n);
            }
        }
    }

    /// Polls the wall-clock deadline once per conflict/decision
    /// iteration of the
    /// CDCL main loop (masked to one `Instant::now()` every
    /// [`DEADLINE_POLL_MASK`]+1 iterations, with the first iteration
    /// always checked).
    fn deadline_tripped(&mut self) -> bool {
        if self.deadline_exhausted {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        self.deadline_poll = self.deadline_poll.wrapping_add(1);
        if self.deadline_poll & DEADLINE_POLL_MASK != 1 {
            return false;
        }
        if Instant::now() >= deadline {
            self.deadline_exhausted = true;
            true
        } else {
            false
        }
    }

    /// Assigns a literal. `counted` distinguishes propagations (which
    /// are fuel-charged) from decisions. Returns false on a conflicting
    /// existing assignment.
    fn assign_lit(&mut self, l: usize, why: Option<usize>, counted: bool) -> bool {
        let v = lit_var(l);
        match self.assign[v] {
            Some(val) => val == lit_pol(l),
            None => {
                self.assign[v] = Some(lit_pol(l));
                self.level[v] = self.current_level();
                self.reason[v] = why;
                self.trail.push(l);
                if counted {
                    self.propagations += 1;
                    self.charge_fuel(1);
                }
                true
            }
        }
    }

    /// Tseitin-encodes the left-nested conjunction of the skeletons;
    /// returns false when the root is propositionally false (no search
    /// needed).
    fn encode(&mut self, conjuncts: &[BForm]) -> bool {
        let mut root = TLit::True;
        for (i, c) in conjuncts.iter().enumerate() {
            let lit = self.tseitin(c);
            root = if i == 0 {
                lit
            } else {
                self.gate(true, root, lit)
            };
        }
        match root {
            TLit::True => true,
            TLit::False => false,
            TLit::Lit(l) => {
                self.add_problem_clause(vec![l]);
                !self.root_unsat
            }
        }
    }

    fn tseitin(&mut self, f: &BForm) -> TLit {
        match f {
            BForm::True => TLit::True,
            BForm::False => TLit::False,
            BForm::Lit(i, pol) => TLit::Lit(mk_lit(*i, *pol)),
            BForm::And(a, b) | BForm::Or(a, b) => {
                let la = self.tseitin(a);
                let lb = self.tseitin(b);
                self.gate(matches!(f, BForm::And(..)), la, lb)
            }
        }
    }

    /// The literal for `la ∧ lb` (`conj`) or `la ∨ lb`, defining a
    /// fresh variable unless the pair folds.
    fn gate(&mut self, conj: bool, la: TLit, lb: TLit) -> TLit {
        let (x, y) = match (la, lb) {
            (TLit::True, o) | (o, TLit::True) => {
                return if conj { o } else { TLit::True };
            }
            (TLit::False, o) | (o, TLit::False) => {
                return if conj { TLit::False } else { o };
            }
            (TLit::Lit(x), TLit::Lit(y)) => (x, y),
        };
        if x == y {
            return TLit::Lit(x);
        }
        if x == lit_neg(y) {
            return if conj { TLit::False } else { TLit::True };
        }
        let v = self.new_var();
        let vl = mk_lit(v, true);
        if conj {
            // v ↔ x ∧ y.
            self.add_problem_clause(vec![lit_neg(vl), x]);
            self.add_problem_clause(vec![lit_neg(vl), y]);
            self.add_problem_clause(vec![vl, lit_neg(x), lit_neg(y)]);
        } else {
            // v ↔ x ∨ y.
            self.add_problem_clause(vec![vl, lit_neg(x)]);
            self.add_problem_clause(vec![vl, lit_neg(y)]);
            self.add_problem_clause(vec![lit_neg(vl), x, y]);
        }
        TLit::Lit(vl)
    }

    /// Adds a problem clause (Tseitin definition or root assertion),
    /// marking its variables decidable.
    fn add_problem_clause(&mut self, mut lits: Vec<usize>) {
        lits.sort_unstable();
        lits.dedup();
        if lits.windows(2).any(|w| w[1] == lit_neg(w[0])) {
            return; // tautology
        }
        for &l in &lits {
            self.decidable[lit_var(l)] = true;
        }
        match lits.len() {
            0 => self.root_unsat = true,
            1 => {
                if !self.assign_lit(lits[0], None, true) {
                    self.root_unsat = true;
                }
            }
            _ => {
                let ci = self.push_clause(lits);
                self.attach_watches(ci);
            }
        }
    }

    fn push_clause(&mut self, lits: Vec<usize>) -> usize {
        self.clauses.push(lits);
        self.clauses.len() - 1
    }

    fn attach_watches(&mut self, ci: usize) {
        debug_assert!(self.clauses[ci].len() >= 2);
        let l0 = self.clauses[ci][0];
        let l1 = self.clauses[ci][1];
        self.watches[l0].push(ci);
        self.watches[l1].push(ci);
    }

    /// Two-watched-literal boolean constraint propagation. Returns the
    /// conflicting clause, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let fl = lit_neg(p); // this literal just became false
            let mut ws = std::mem::take(&mut self.watches[fl]);
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i];
                if self.clauses[ci][0] == fl {
                    self.clauses[ci].swap(0, 1);
                }
                let first = self.clauses[ci][0];
                if self.value(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a non-false literal to watch instead.
                let len = self.clauses[ci].len();
                let mut moved = false;
                for k in 2..len {
                    let lk = self.clauses[ci][k];
                    if self.value(lk) != Some(false) {
                        self.clauses[ci].swap(1, k);
                        self.watches[lk].push(ci);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                if self.value(first) == Some(false) {
                    // Conflict: restore the watch list and halt BCP.
                    self.watches[fl] = ws;
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                // Unit: propagate `first` with this clause as reason.
                self.assign_lit(first, Some(ci), true);
                i += 1;
            }
            self.watches[fl] = ws;
        }
        None
    }

    fn backtrack(&mut self, lvl: u32) {
        while self.current_level() > lvl {
            let start = self.trail_lim.pop().expect("level exists");
            while self.trail.len() > start {
                let l = self.trail.pop().expect("trail non-empty");
                let v = lit_var(l);
                self.assign[v] = None;
                self.reason[v] = None;
            }
        }
        self.qhead = self.trail.len();
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.act_inc;
        if self.activity[v] > VSIDS_RESCALE {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// The deterministic VSIDS pick: the unassigned decidable variable
    /// of maximal activity, ties broken toward the smallest index.
    fn pick_branch(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for v in 0..self.nvars {
            if !self.decidable[v] || self.assign[v].is_some() {
                continue;
            }
            match best {
                None => best = Some(v),
                Some(b) if self.activity[v] > self.activity[b] => best = Some(v),
                Some(_) => {}
            }
        }
        best
    }

    /// Gets (or creates) the theory clause over the already-true `expl`
    /// literals: `lit ∨ ¬e₁ ∨ … ∨ ¬eₙ` when it explains the propagation
    /// of `asserted = Some(lit)`, the conflict clause `¬e₁ ∨ … ∨ ¬eₙ`
    /// when `asserted` is `None`. The recomputing theory pass finds an
    /// existing clause through `expl_index` instead of adding it again.
    fn theory_clause(&mut self, asserted: Option<usize>, expl: &[usize]) -> usize {
        let mut lits: Vec<usize> = asserted
            .into_iter()
            .chain(expl.iter().map(|&e| lit_neg(e)))
            .collect();
        lits.sort_unstable();
        lits.dedup();
        if let Some(&ci) = self.expl_index.get(&lits) {
            return ci;
        }
        let key = lits.clone();
        // Order for watching: the asserted literal first, then the
        // falsified explanation literals by descending level.
        let mut ordered = lits;
        ordered.sort_by_key(|&l| (Some(l) != asserted, u32::MAX - self.level[lit_var(l)], l));
        let ci = self.push_clause(ordered);
        if self.clauses[ci].len() >= 2 {
            self.attach_watches(ci);
        }
        self.expl_index.insert(key, ci);
        ci
    }

    /// Theory-propagates `lit` with the given explanation (a set of
    /// currently-true literals that imply it in the theory).
    fn theory_enqueue(&mut self, lit: usize, expl: &[usize]) {
        self.theory_props += 1;
        let why = self.theory_clause(Some(lit), expl);
        self.assign_lit(lit, Some(why), true);
    }

    /// One theory-propagation pass, recomputed from the assigned atom
    /// literals: congruence closure over reference equalities, and
    /// difference-bound reasoning (per-variable bounds from single-
    /// variable atoms, bound strengthening of unassigned atoms, and
    /// bounds-conflict detection for multi-variable atoms).
    fn theory_pass(&mut self) -> TheoryResult {
        let mut uf = UnionFind::new();
        let mut eq_lits: Vec<usize> = Vec::new();
        let mut diseqs: Vec<(RefTerm, RefTerm, usize)> = Vec::new();
        let mut lower: BTreeMap<Sym, RatBound> = BTreeMap::new();
        let mut upper: BTreeMap<Sym, RatBound> = BTreeMap::new();
        let mut multi: Vec<(LinTerm, usize)> = Vec::new();

        // Trail order keeps the tightest-bound tie-breaks deterministic.
        for t in 0..self.trail.len() {
            let l = self.trail[t];
            let v = lit_var(l);
            if v >= self.natoms {
                continue;
            }
            match &self.atoms[v] {
                Atom::RefEq(a, b) => {
                    if lit_pol(l) {
                        uf.union(*a, *b);
                        eq_lits.push(l);
                    } else {
                        diseqs.push((*a, *b, l));
                    }
                }
                Atom::LinLe(lin) => {
                    // The effective constraint `c·x + k ≤ 0` this
                    // literal imposes; one that overflows is skipped
                    // (the leaf check still sees the literal).
                    let eff = if lit_pol(l) {
                        lin.clone()
                    } else {
                        let Some(neg) = lin.negated() else { continue };
                        neg
                    };
                    if eff.coeffs.len() == 1 {
                        let (&x, &c) = eff.coeffs.iter().next().expect("one var");
                        // A new bound replaces the old one only when it
                        // is provably tighter.
                        if c > 0 {
                            // x ≤ -k/c, kept exact.
                            let Some(n) = eff.konst.checked_neg() else {
                                continue;
                            };
                            let keep = upper.get(&x).map(|&(un, ud, _)| rat_le(un, ud, n, c));
                            if let None | Some(Some(false)) = keep {
                                upper.insert(x, (n, c, l));
                            }
                        } else {
                            // x ≥ -k/c = k/(-c), kept exact.
                            let Some(d) = c.checked_neg() else { continue };
                            let keep = lower
                                .get(&x)
                                .map(|&(ln2, ld, _)| rat_le(eff.konst, d, ln2, ld));
                            if let None | Some(Some(false)) = keep {
                                lower.insert(x, (eff.konst, d, l));
                            }
                        }
                    } else if !eff.coeffs.is_empty() {
                        multi.push((eff, l));
                    }
                }
                _ => {}
            }
        }

        // Conflicts first: crossed bounds on one variable, …
        for (x, &(ln2, ld, ll)) in &lower {
            if let Some(&(un, ud, ul)) = upper.get(x) {
                if rat_le(ln2, ld, un, ud) == Some(false) {
                    return TheoryResult::Conflict(self.theory_clause(None, &[ll, ul]));
                }
            }
        }
        // … a disequality inside one congruence class, …
        for &(a, b, l) in &diseqs {
            if uf.find(a) == uf.find(b) {
                let mut expl = eq_lits.clone();
                expl.push(l);
                return TheoryResult::Conflict(self.theory_clause(None, &expl));
            }
        }
        // … or a multi-variable constraint whose minimum under the
        // current bounds is already positive.
        for (eff, l) in &multi {
            if let Some((min, used)) = bound_sum(eff, &lower, &upper, true) {
                if min > 0 {
                    let mut expl = used;
                    expl.push(*l);
                    return TheoryResult::Conflict(self.theory_clause(None, &expl));
                }
            }
        }

        // Propagation of unassigned atoms, in atom-index order.
        let mut progress = false;
        for v in 0..self.natoms {
            if !self.decidable[v] || self.assign[v].is_some() {
                continue;
            }
            match self.atoms[v].clone() {
                Atom::RefEq(a, b) => {
                    let (ra, rb) = (uf.find(a), uf.find(b));
                    if ra == rb {
                        let expl = eq_lits.clone();
                        self.theory_enqueue(mk_lit(v, true), &expl);
                        progress = true;
                    } else {
                        let hit = diseqs.iter().find(|&&(c, d, _)| {
                            let (rc, rd) = (uf.find(c), uf.find(d));
                            (rc == ra && rd == rb) || (rc == rb && rd == ra)
                        });
                        if let Some(&(_, _, dl)) = hit {
                            let mut expl = eq_lits.clone();
                            expl.push(dl);
                            self.theory_enqueue(mk_lit(v, false), &expl);
                            progress = true;
                        }
                    }
                }
                Atom::LinLe(lin) => {
                    if lin.coeffs.len() == 1 {
                        let (&x, &c) = lin.coeffs.iter().next().expect("one var");
                        // A comparison that overflows propagates nothing.
                        if c > 0 {
                            // Atom ⇔ x ≤ -k/c, compared exactly.
                            let Some(n) = lin.konst.checked_neg() else {
                                continue;
                            };
                            if let Some(&(un, ud, ul)) = upper.get(&x) {
                                if rat_le(un, ud, n, c) == Some(true) {
                                    self.theory_enqueue(mk_lit(v, true), &[ul]);
                                    progress = true;
                                    continue;
                                }
                            }
                            if let Some(&(ln2, ld, ll)) = lower.get(&x) {
                                if rat_le(ln2, ld, n, c) == Some(false) {
                                    self.theory_enqueue(mk_lit(v, false), &[ll]);
                                    progress = true;
                                }
                            }
                        } else {
                            // Atom ⇔ x ≥ k/(-c), compared exactly.
                            let Some(m) = c.checked_neg() else { continue };
                            if let Some(&(ln2, ld, ll)) = lower.get(&x) {
                                if rat_le(lin.konst, m, ln2, ld) == Some(true) {
                                    self.theory_enqueue(mk_lit(v, true), &[ll]);
                                    progress = true;
                                    continue;
                                }
                            }
                            if let Some(&(un, ud, ul)) = upper.get(&x) {
                                if rat_le(lin.konst, m, un, ud) == Some(false) {
                                    self.theory_enqueue(mk_lit(v, false), &[ul]);
                                    progress = true;
                                }
                            }
                        }
                    } else if !lin.coeffs.is_empty() {
                        if let Some((max, used)) = bound_sum(&lin, &lower, &upper, false) {
                            if max <= 0 {
                                self.theory_enqueue(mk_lit(v, true), &used);
                                progress = true;
                                continue;
                            }
                        }
                        if let Some((min, used)) = bound_sum(&lin, &lower, &upper, true) {
                            if min > 0 {
                                self.theory_enqueue(mk_lit(v, false), &used);
                                progress = true;
                            }
                        }
                    }
                }
                _ => {}
            }
            if self.fuel_exhausted {
                break;
            }
        }
        if progress {
            TheoryResult::Progress
        } else {
            TheoryResult::Quiet
        }
    }

    /// First-UIP conflict analysis with local clause minimization.
    /// Returns the learnt clause, asserting literal first.
    fn analyze(&mut self, confl: usize) -> Vec<usize> {
        let current = self.current_level();
        let mut learnt: Vec<usize> = vec![0];
        let mut counter = 0usize;
        let mut idx = self.trail.len();
        let mut p: Option<usize> = None;
        let mut ci = confl;
        let mut touched: Vec<usize> = Vec::new();
        loop {
            let lits = self.clauses[ci].clone();
            for q in lits {
                if p == Some(q) {
                    continue; // the literal this reason asserted
                }
                let v = lit_var(q);
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    touched.push(v);
                    self.bump(v);
                    if self.level[v] == current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk back to the newest seen literal at the conflict level.
            loop {
                idx -= 1;
                let v = lit_var(self.trail[idx]);
                if self.seen[v] && self.level[v] == current {
                    break;
                }
            }
            let pl = self.trail[idx];
            let v = lit_var(pl);
            counter -= 1;
            self.seen[v] = false;
            if counter == 0 {
                learnt[0] = lit_neg(pl);
                break;
            }
            ci = self.reason[v].expect("non-UIP literal at the conflict level has a reason");
            p = Some(pl);
        }
        // Local minimization: a tail literal is redundant when its
        // reason's other literals are all seen or at level 0.
        let uip_var = lit_var(learnt[0]);
        self.seen[uip_var] = true;
        touched.push(uip_var);
        let mut kept: Vec<usize> = vec![learnt[0]];
        for &q in &learnt[1..] {
            let v = lit_var(q);
            let redundant = self.reason[v].is_some_and(|rc| {
                self.clauses[rc].iter().all(|&r| {
                    lit_var(r) == v || self.seen[lit_var(r)] || self.level[lit_var(r)] == 0
                })
            });
            if !redundant {
                kept.push(q);
            }
        }
        for v in touched {
            self.seen[v] = false;
        }
        kept
    }

    /// Handles one conflict under clause learning: re-anchor late
    /// theory conflicts, analyze to the first UIP, backjump, attach and
    /// assert the learnt clause, then apply the decay/restart cadences.
    /// Returns false when the conflict is terminal (root).
    fn resolve_conflict(&mut self, ci: usize) -> bool {
        let maxl = self.clauses[ci]
            .iter()
            .map(|&l| self.level[lit_var(l)])
            .max()
            .unwrap_or(0);
        if maxl == 0 {
            return false;
        }
        if maxl < self.current_level() {
            // A theory conflict discovered only at the leaf can be
            // falsified entirely below the current level; re-anchor.
            self.backtrack(maxl);
        }
        let learnt = self.analyze(ci);
        let bj = learnt[1..]
            .iter()
            .map(|&l| self.level[lit_var(l)])
            .max()
            .unwrap_or(0);
        self.backtrack(bj);
        self.learned_total += 1;
        if learnt.len() == 1 {
            let asserting = learnt[0];
            let lc = self.push_clause(learnt);
            if !self.assign_lit(asserting, Some(lc), true) {
                return false;
            }
        } else {
            let mut lits = learnt;
            // lits[1] must sit at the backjump level for safe watching.
            let pos = lits[1..]
                .iter()
                .position(|&l| self.level[lit_var(l)] == bj)
                .expect("a literal at the backjump level")
                + 1;
            lits.swap(1, pos);
            let asserting = lits[0];
            let lc = self.push_clause(lits);
            self.attach_watches(lc);
            if !self.assign_lit(asserting, Some(lc), true) {
                return false;
            }
        }
        self.act_inc /= VSIDS_DECAY;
        self.conflicts_since_restart += 1;
        if self.conflicts_since_restart >= LUBY_UNIT * luby(self.restarts) {
            self.restarts += 1;
            self.conflicts_since_restart = 0;
            self.backtrack(0);
        }
        true
    }

    /// Checks a total assignment (over the constrained variables)
    /// against the full theory solver, handling Unsat as a conflict and
    /// Unknown by blocking the current decision cube under taint.
    fn leaf(&mut self) -> LeafOutcome {
        let lits = (0..self.natoms).filter_map(|v| self.assign[v].map(|pol| (&self.atoms[v], pol)));
        match theory_check(lits) {
            SatAnswer::Sat => LeafOutcome::Sat,
            SatAnswer::Unsat => {
                self.conflicts += 1;
                self.charge_fuel(1);
                // The inconsistency lives in the theory literals alone
                // (boolean symbols have no theory meaning; opaque atoms
                // only ever degrade toward Unknown).
                let expl: Vec<usize> = self
                    .trail
                    .iter()
                    .copied()
                    .filter(|&l| {
                        let v = lit_var(l);
                        v < self.natoms && matches!(self.atoms[v], Atom::LinLe(_) | Atom::RefEq(..))
                    })
                    .collect();
                if expl.is_empty() || expl.iter().all(|&l| self.level[lit_var(l)] == 0) {
                    return LeafOutcome::Done;
                }
                let ci = self.theory_clause(None, &expl);
                if !self.resolve_conflict(ci) {
                    return LeafOutcome::Done;
                }
                LeafOutcome::Continue
            }
            SatAnswer::Unknown => {
                // This total assignment is out of fragment. Block the
                // decision cube (it has exactly one BCP-closed total
                // assignment — this one) and remember that a final
                // Unsat must degrade to Unknown.
                self.taint = true;
                if self.trail_lim.is_empty() {
                    return LeafOutcome::Done;
                }
                self.conflicts += 1;
                self.charge_fuel(1);
                let dlits: Vec<usize> = self.trail_lim.iter().map(|&s| self.trail[s]).collect();
                // Deepest decision first, so lits[0] is asserting after
                // the backjump and lits[1] is the watch at the new level.
                let lits: Vec<usize> = dlits.iter().rev().map(|&l| lit_neg(l)).collect();
                let deepest = lits[0];
                let ci = self.push_clause(lits);
                if self.clauses[ci].len() >= 2 {
                    self.attach_watches(ci);
                }
                let bj = self.current_level() - 1;
                self.backtrack(bj);
                if !self.assign_lit(deepest, Some(ci), true) {
                    return LeafOutcome::Done;
                }
                LeafOutcome::Continue
            }
        }
    }

    fn final_verdict(&self) -> SatAnswer {
        if self.taint {
            SatAnswer::Unknown
        } else {
            SatAnswer::Unsat
        }
    }

    /// The CDCL main loop: propagate (boolean then theory) to fixpoint,
    /// resolve conflicts, otherwise decide; a conflict-free total
    /// assignment is referred to the theory solver.
    fn solve(&mut self) -> SatAnswer {
        if self.root_unsat {
            return SatAnswer::Unsat;
        }
        if self.fuel == Some(0) {
            self.fuel_exhausted = true;
            return SatAnswer::Unknown;
        }
        loop {
            if self.fuel_exhausted {
                return SatAnswer::Unknown;
            }
            // Poll the wall-clock deadline inside the conflict loop:
            // one hard query must not run arbitrarily past its budget.
            if self.deadline_tripped() {
                return SatAnswer::Unknown;
            }
            let conflict: Option<usize> = loop {
                if let Some(ci) = self.propagate() {
                    break Some(ci);
                }
                if self.fuel_exhausted {
                    return SatAnswer::Unknown;
                }
                match self.theory_pass() {
                    TheoryResult::Conflict(c) => break Some(c),
                    TheoryResult::Progress => continue,
                    TheoryResult::Quiet => break None,
                }
            };
            if self.fuel_exhausted {
                return SatAnswer::Unknown;
            }
            match conflict {
                Some(ci) => {
                    self.conflicts += 1;
                    self.charge_fuel(1);
                    if self.fuel_exhausted {
                        return SatAnswer::Unknown;
                    }
                    if self.current_level() == 0 {
                        return self.final_verdict();
                    }
                    if !self.resolve_conflict(ci) {
                        return self.final_verdict();
                    }
                }
                None => match self.pick_branch() {
                    Some(v) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.assign_lit(mk_lit(v, true), None, false);
                    }
                    None => match self.leaf() {
                        LeafOutcome::Sat => return SatAnswer::Sat,
                        LeafOutcome::Done => return self.final_verdict(),
                        LeafOutcome::Continue => {}
                    },
                },
            }
        }
    }
}

/// `an/ad ≤ bn/bd` for positive denominators, compared exactly by
/// cross-multiplication; `None` when a product overflows.
fn rat_le(an: i128, ad: i128, bn: i128, bd: i128) -> Option<bool> {
    Some(mul(an, bd)? <= mul(bn, ad)?)
}

/// `a * b`, or `None` when it leaves `i128`. Factors that fit in `i64`,
/// as nearly all do, skip the overflow-checked 128-bit multiply: their
/// product cannot overflow.
fn mul(a: i128, b: i128) -> Option<i128> {
    if i64::try_from(a).is_ok() && i64::try_from(b).is_ok() {
        Some(a * b)
    } else {
        a.checked_mul(b)
    }
}

/// The extremal value of a multi-variable linear term under the current
/// exact rational per-variable bounds: the minimum when `want_min`,
/// else the maximum. Returns the value as a numerator over a positive
/// denominator — so existing `> 0` / `≤ 0` sign tests stay valid — plus
/// the bound literals it used. `None` when some needed bound is missing
/// or the cross-multiplied arithmetic would overflow.
fn bound_sum(
    lin: &LinTerm,
    lower: &BTreeMap<Sym, RatBound>,
    upper: &BTreeMap<Sym, RatBound>,
    want_min: bool,
) -> Option<(i128, Vec<usize>)> {
    let (mut n, mut d) = (0i128, 1i128);
    let mut used = Vec::with_capacity(lin.coeffs.len());
    for (x, &c) in &lin.coeffs {
        let from_lower = (c > 0) == want_min;
        let &(bn, bd, l) = if from_lower {
            lower.get(x)?
        } else {
            upper.get(x)?
        };
        // n/d += c * bn/bd, exactly.
        n = n
            .checked_mul(bd)?
            .checked_add(c.checked_mul(bn)?.checked_mul(d)?)?;
        d = d.checked_mul(bd)?;
        used.push(l);
    }
    Some((n.checked_add(lin.konst.checked_mul(d)?)?, used))
}

/// Finds the first integer `Ite` inside an arithmetic term and returns
/// (condition, term-with-then, term-with-else).
fn split_ite(arena: &mut TermArena, id: TermId) -> Option<(TermId, TermId, TermId)> {
    enum Kind {
        Add,
        Sub,
        Mul,
    }
    let (kind, a, b) = match arena.node(id) {
        Term::Ite(c, t, el) => return Some((c, t, el)),
        Term::Add(a, b) => (Kind::Add, a, b),
        Term::Sub(a, b) => (Kind::Sub, a, b),
        Term::Mul(a, b) => (Kind::Mul, a, b),
        _ => return None,
    };
    let rebuild = |arena: &mut TermArena, x: TermId, y: TermId| match kind {
        Kind::Add => arena.add(x, y),
        Kind::Sub => arena.sub(x, y),
        Kind::Mul => arena.mul(x, y),
    };
    if let Some((c, t, el)) = split_ite(arena, a) {
        let rt = rebuild(arena, t, b);
        let re = rebuild(arena, el, b);
        Some((c, rt, re))
    } else if let Some((c, t, el)) = split_ite(arena, b) {
        let rt = rebuild(arena, a, t);
        let re = rebuild(arena, a, el);
        Some((c, rt, re))
    } else {
        None
    }
}

/// If either operand of an integer comparison contains an `Ite`, expands
/// the comparison into a boolean case split on the `Ite` condition.
fn split_cmp_ite(arena: &mut TermArena, a: TermId, b: TermId, cmp: Cmp) -> Option<TermId> {
    let rebuild = |arena: &mut TermArena, x: TermId, y: TermId| match cmp {
        Cmp::Lt => arena.lt(x, y),
        Cmp::Le => arena.le(x, y),
        Cmp::Eq => arena.eq(x, y),
    };
    let (c, lhs_t, lhs_e, rhs_t, rhs_e) = if let Some((c, t, el)) = split_ite(arena, a) {
        (c, t, el, b, b)
    } else if let Some((c, t, el)) = split_ite(arena, b) {
        (c, a, a, t, el)
    } else {
        return None;
    };
    let then_cmp = rebuild(arena, lhs_t, rhs_t);
    let else_cmp = rebuild(arena, lhs_e, rhs_e);
    let then_arm = arena.and(c, then_cmp);
    let nc = arena.not(c);
    let else_arm = arena.and(nc, else_cmp);
    Some(arena.or(then_arm, else_arm))
}

fn lin_lit(atoms: &mut AtomTable, lin: LinTerm) -> BForm {
    if lin.is_constant() {
        return if lin.konst <= 0 {
            BForm::True
        } else {
            BForm::False
        };
    }
    BForm::Lit(atoms.intern(Atom::LinLe(lin)), true)
}

fn ref_term(arena: &TermArena, id: TermId) -> Option<RefTerm> {
    match arena.node(id) {
        Term::Null => Some(RefTerm::Null),
        Term::Sym(s) => Some(RefTerm::Sym(s)),
        _ => None,
    }
}

/// Gaussian pre-pass: recognizes equalities (a constraint together with
/// its negation) defining a variable with a ±1 coefficient, and
/// substitutes it away. Witness-binding chains (`w = e`) are eliminated
/// in linear time here instead of exploding Fourier–Motzkin. A pivot
/// is committed only when every rewritten constraint fits in `i128`;
/// otherwise the pass stops and leaves the rest to Fourier–Motzkin.
fn gaussian_substitute(constraints: &mut Vec<LinTerm>) {
    loop {
        // Find an equality pair (c, -c) with some ±1-coefficient var.
        let mut found: Option<(usize, usize, Sym)> = None;
        'outer: for i in 0..constraints.len() {
            if constraints[i].is_constant() {
                continue;
            }
            let Some(neg) = constraints[i].scale(-1) else {
                continue;
            };
            for j in 0..constraints.len() {
                if i != j && constraints[j] == neg {
                    if let Some((s, _)) = constraints[i]
                        .coeffs
                        .iter()
                        .find(|(_, c)| **c == 1 || **c == -1)
                    {
                        found = Some((i, j, *s));
                        break 'outer;
                    }
                }
            }
        }
        let Some((i, j, var)) = found else {
            return;
        };
        // c: a·var + rest = 0 with a = ±1  ⇒  var = ∓rest.
        let eq = constraints[i].clone();
        let a = eq.coeffs[&var];
        // solution: var = -(rest)/a where rest = eq - a·var.
        let mut rest = eq.clone();
        rest.coeffs.remove(&var);
        // a ∈ {1,-1} so -rest/a = -a·rest.
        let Some(solution) = rest.scale(-a) else {
            return;
        };
        // Substitute into every other constraint (`solution` has no
        // `var`, so it survives the add and is removed after), then
        // remove the equality pair.
        let mut rewrites: Vec<(usize, LinTerm)> = Vec::new();
        for (n, c) in constraints.iter().enumerate() {
            if n == i || n == j {
                continue;
            }
            if let Some(&k) = c.coeffs.get(&var) {
                let Some(mut r) = solution.scale(k).and_then(|s| c.add(&s)) else {
                    return;
                };
                r.coeffs.remove(&var);
                rewrites.push((n, r));
            }
        }
        for (n, r) in rewrites {
            constraints[n] = r;
        }
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        constraints.remove(hi);
        constraints.remove(lo);
    }
}

/// Fourier–Motzkin elimination over the rationals with integer-tightened
/// inputs. Returns `Some(true)` for consistent, `Some(false)` for
/// inconsistent, `None` when the budget blows up or a combination
/// overflows `i128`.
fn fourier_motzkin(mut constraints: Vec<LinTerm>) -> Option<bool> {
    const BUDGET: usize = 4000;
    gaussian_substitute(&mut constraints);
    loop {
        // Constant contradictions?
        for c in &constraints {
            if c.is_constant() && c.konst > 0 {
                return Some(false);
            }
        }
        constraints.retain(|c| !c.is_constant());
        // Pick the variable with the least fill-in (uppers × lowers).
        let mut counts: BTreeMap<Sym, (usize, usize)> = BTreeMap::new();
        for c in &constraints {
            for (s, k) in &c.coeffs {
                let e = counts.entry(*s).or_insert((0, 0));
                if *k > 0 {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
            }
        }
        let var = match counts
            .into_iter()
            .min_by_key(|(_, (u, l))| u * l)
            .map(|(s, _)| s)
        {
            Some(v) => v,
            None => return Some(true),
        };
        let (with_var, without): (Vec<LinTerm>, Vec<LinTerm>) = constraints
            .into_iter()
            .partition(|c| c.coeffs.contains_key(&var));
        let mut uppers = Vec::new(); // coefficient > 0: var bounded above
        let mut lowers = Vec::new(); // coefficient < 0: var bounded below
        for c in with_var {
            let coef = c.coeffs[&var];
            if coef > 0 {
                uppers.push(c);
            } else {
                lowers.push(c);
            }
        }
        let mut next = without;
        for u in &uppers {
            for l in &lowers {
                let a = u.coeffs[&var];
                let b = l.coeffs[&var].checked_neg()?;
                // b·u + a·l eliminates var.
                let combined = u.scale(b)?.add(&l.scale(a)?)?;
                debug_assert!(!combined.coeffs.contains_key(&var));
                next.push(combined);
            }
        }
        if next.len() > BUDGET {
            return None;
        }
        constraints = next;
    }
}

#[derive(Debug)]
struct UnionFind {
    parents: BTreeMap<RefTerm, RefTerm>,
}

impl UnionFind {
    fn new() -> UnionFind {
        UnionFind {
            parents: BTreeMap::new(),
        }
    }

    fn find(&mut self, t: RefTerm) -> RefTerm {
        let p = *self.parents.get(&t).unwrap_or(&t);
        if p == t {
            t
        } else {
            let root = self.find(p);
            self.parents.insert(t, root);
            root
        }
    }

    fn union(&mut self, a: RefTerm, b: RefTerm) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parents.insert(ra, rb);
        }
    }
}

#[cfg(test)]
use crate::ast::{Expr, Op};

#[cfg(test)]
#[path = "../tests/support/query_stream.rs"]
mod query_stream;

#[cfg(test)]
mod tests {
    use super::query_stream::{entails, intern};
    use super::*;
    use crate::ast::Assertion;
    use crate::parser::parse_assertion;

    /// Parses an expression over the variables `x0, x1, …`, which
    /// intern as the symbols `Sym(0), Sym(1), …`.
    fn parse(src: &str) -> Expr {
        match parse_assertion(src) {
            Ok(Assertion::Expr(e)) => e,
            other => panic!("{}: {:?}", src, other),
        }
    }

    /// A query `pc ⊨ goal`, parsed.
    fn query(pc: &[impl AsRef<str>], goal: &str) -> (Vec<Expr>, Expr) {
        (pc.iter().map(|c| parse(c.as_ref())).collect(), parse(goal))
    }

    /// The empty path condition.
    const NO_FACTS: [&str; 0] = [];

    struct Ctx {
        solver: Solver,
        arena: TermArena,
    }

    impl Ctx {
        /// A solver whose symbols `x0..x<n-1>` have the sort `sort`.
        fn new(n: u32, sort: Sort) -> Ctx {
            let mut solver = Solver::new();
            for i in 0..n {
                solver.declare(Sym(i), sort);
            }
            Ctx {
                solver,
                arena: TermArena::new(),
            }
        }

        fn entails(&mut self, pc: &[impl AsRef<str>], goal: &str) -> Answer {
            let (pc, goal) = query(pc, goal);
            entails(&mut self.solver, &mut self.arena, &pc, &goal)
        }

        fn consistent(&mut self, pc: &[impl AsRef<str>]) -> bool {
            let pc: Vec<TermId> = pc
                .iter()
                .map(|c| intern(&mut self.arena, &parse(c.as_ref())))
                .collect();
            self.solver.consistent(&mut self.arena, &pc)
        }
    }

    #[test]
    fn linear_arithmetic() {
        let mut cx = Ctx::new(2, Sort::Int);
        // x ≤ y ∧ y ≤ x ⊨ x = y
        assert_eq!(
            cx.entails(&["x0 <= x1", "x1 <= x0"], "x0 == x1"),
            Answer::Valid
        );
        // x < y ⊨ x + 1 ≤ y (integer tightening).
        assert_eq!(cx.entails(&["x0 < x1"], "x0 + 1 <= x1"), Answer::Valid);
        // x ≤ y ⊭ x < y.
        assert_eq!(cx.entails(&["x0 <= x1"], "x0 < x1"), Answer::Invalid);
    }

    #[test]
    fn arithmetic_identities() {
        let mut cx = Ctx::new(2, Sort::Int);
        // ⊨ x + y - y = x
        assert_eq!(cx.entails(&NO_FACTS, "x0 + x1 - x1 == x0"), Answer::Valid);
    }

    #[test]
    fn scaled_constraints() {
        let mut cx = Ctx::new(1, Sort::Int);
        // 2x ≤ 5 ∧ 3 ≤ 2x is rationally satisfiable but the bounds on x
        // conflict after pairing: 3 ≤ 2x ≤ 5 — fine rationally, so the
        // solver must NOT claim validity of falsity.
        assert_eq!(
            cx.entails(&["2 * x0 <= 5", "3 <= 2 * x0"], "false"),
            Answer::Invalid
        );
    }

    #[test]
    fn boolean_structure() {
        let mut cx = Ctx::new(2, Sort::Bool);
        // p ∨ q, ¬p ⊨ q.
        assert_eq!(cx.entails(&["x0 || x1", "!x0"], "x1"), Answer::Valid);
        // p ⊭ q.
        assert_eq!(cx.entails(&["x0"], "x1"), Answer::Invalid);
    }

    #[test]
    fn reference_reasoning() {
        let mut cx = Ctx::new(3, Sort::Ref);
        // a = b ∧ b = c ⊨ a = c.
        assert_eq!(
            cx.entails(&["x0 == x1", "x1 == x2"], "x0 == x2"),
            Answer::Valid
        );
        // a = b ∧ a ≠ b is inconsistent.
        assert!(!cx.consistent(&["x0 == x1", "!(x0 == x1)"]));
        // a ≠ null ⊭ a = b.
        assert_eq!(cx.entails(&["!(x0 == null)"], "x0 == x1"), Answer::Invalid);
    }

    #[test]
    fn mixed_implication() {
        let mut cx = Ctx::new(2, Sort::Int);
        // (x = 3 → y = 4) ∧ x = 3 ⊨ y = 4.
        assert_eq!(
            cx.entails(&["!(x0 == 3) || x1 == 4", "x0 == 3"], "x1 == 4"),
            Answer::Valid
        );
    }

    #[test]
    fn nonlinear_is_unknown_not_wrong() {
        let mut cx = Ctx::new(2, Sort::Int);
        // x*x ≥ 0 is true but nonlinear: must NOT be Invalid-with-
        // certainty... and must never be claimed Valid wrongly; Unknown
        // is the honest answer.
        assert_ne!(cx.entails(&NO_FACTS, "0 <= x0 * x0"), Answer::Invalid);
        // And an actually-false nonlinear goal must not verify.
        assert_ne!(cx.entails(&NO_FACTS, "x0 * x1 == 3"), Answer::Valid);
    }

    #[test]
    fn inconsistent_pc_proves_anything() {
        let mut cx = Ctx::new(1, Sort::Int);
        let pc = ["x0 < 0", "0 < x0"];
        assert_eq!(cx.entails(&pc, "false"), Answer::Valid);
        assert!(!cx.consistent(&pc));
    }

    #[test]
    fn query_stats_accumulate() {
        let mut cx = Ctx::new(2, Sort::Int);
        let _ = cx.entails(&["x0 < x1"], "x0 <= x1");
        assert_eq!(cx.solver.queries, 1);
        // The fuel-unit counters must move.
        assert!(cx.solver.conflicts + cx.solver.propagations >= 1);
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let mut cx = Ctx::new(2, Sort::Int);
        let first = cx.entails(&["x0 < x1"], "x0 <= x1");
        let branches_after_first = cx.solver.branches;
        let second = cx.entails(&["x0 < x1"], "x0 <= x1");
        assert_eq!(first, second);
        assert_eq!(cx.solver.cache_hits, 1);
        assert_eq!(
            cx.solver.branches, branches_after_first,
            "a cache hit must not re-run the search"
        );
        // Same conditions in a different order share the entry.
        let third = cx.entails(&["x0 < x1", "x0 < x1"], "x0 <= x1");
        assert_eq!(first, third);
        assert_eq!(cx.solver.cache_hits, 2);
    }

    #[test]
    fn consistency_checks_share_the_entailment_memo() {
        let mut cx = Ctx::new(1, Sort::Int);
        let pc = ["x0 < 0", "0 < x0"];
        assert_eq!(cx.entails(&pc, "false"), Answer::Valid);
        let branches = cx.solver.branches;
        assert!(!cx.consistent(&pc));
        assert_eq!(cx.solver.cache_hits, 1, "consistent(pc) is pc ⊨ false");
        assert_eq!(
            cx.solver.branches, branches,
            "a cache hit must not re-run the search"
        );
    }

    /// A diverging-style query over `x0..x<n-1>`: each variable is
    /// pinned to `{0, 1}` by a disjunction, and the goal bounds their
    /// sum from below.
    fn diverging_queries(n: u32) -> (Vec<String>, String) {
        let pc = (0..n).map(|i| format!("x{i} == 0 || x{i} == 1")).collect();
        let sum: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
        (pc, format!("0 <= {}", sum.join(" + ")))
    }

    #[test]
    fn learned_clause_count_is_monotone_across_re_solves() {
        let mut cx = Ctx::new(2, Sort::Int);
        let (pc, goal) = diverging_queries(2);
        assert_eq!(cx.entails(&pc, &goal), Answer::Valid);
        let learned = cx.solver.learned_clauses;
        assert!(learned >= 1, "a theory conflict should learn a clause");
        // Forget the memoized answer so the second run re-solves.
        cx.solver.query_cache.clear();
        assert_eq!(cx.entails(&pc, &goal), Answer::Valid);
        assert!(
            cx.solver.learned_clauses > learned,
            "the re-solve relearns its conflicts and the monotone total \
             keeps growing"
        );
    }

    /// A pigeonhole path condition over boolean symbols: each pigeon
    /// sits in some hole and no hole holds two, unsatisfiable when
    /// there are more pigeons than holes. Pigeon `i` in hole `j` is
    /// the symbol `x<i * holes + j>`.
    fn pigeonhole(pigeons: u32, holes: u32) -> (Ctx, Vec<String>) {
        let p = |i: u32, j: u32| i * holes + j;
        let mut pc: Vec<String> = (0..pigeons)
            .map(|i| {
                let row: Vec<String> = (0..holes).map(|j| format!("x{}", p(i, j))).collect();
                row.join(" || ")
            })
            .collect();
        for j in 0..holes {
            for i in 0..pigeons {
                for k in i + 1..pigeons {
                    pc.push(format!("!x{} || !x{}", p(i, j), p(k, j)));
                }
            }
        }
        (Ctx::new(pigeons * holes, Sort::Bool), pc)
    }

    /// One query that runs for thousands of conflicts keeps every
    /// clause it learns until it ends, and the database stays linear:
    /// at most one learned clause per conflict.
    #[test]
    fn a_long_query_keeps_at_most_one_learned_clause_per_conflict() {
        let (mut cx, pc) = pigeonhole(8, 7);
        let budget = 1_000_000;
        cx.solver.fuel = Some(budget);
        assert_eq!(cx.entails(&pc, "false"), Answer::Valid);
        let fuel = budget - cx.solver.fuel.expect("a budgeted run");
        assert_eq!(cx.solver.conflicts, 2445);
        assert_eq!(fuel, 77_292);
        assert!(
            cx.solver.learned_clauses < cx.solver.conflicts,
            "{} learned clauses for {} conflicts",
            cx.solver.learned_clauses,
            cx.solver.conflicts
        );
    }

    /// The CDCL counters a solver has accumulated so far.
    fn search_counters(s: &Solver) -> [usize; 5] {
        [
            s.branches,
            s.conflicts,
            s.propagations,
            s.learned_clauses,
            s.restarts,
        ]
    }

    /// The search counters `run` adds to `s`.
    fn search_delta(cx: &mut Ctx, run: impl FnOnce(&mut Ctx) -> Answer) -> (Answer, [usize; 5]) {
        let before = search_counters(&cx.solver);
        let answer = run(cx);
        let after = search_counters(&cx.solver);
        (answer, std::array::from_fn(|i| after[i] - before[i]))
    }

    /// Two chained orderings over `x0..x3`, each broken unless a side
    /// variable is non-positive: its conflicts are theory conflicts
    /// over a few shared atoms.
    const CHAINED_ORDERINGS: [&str; 4] = [
        "x0 <= x1 || x2 <= 0",
        "x1 < x0 || x2 <= 0",
        "x1 <= x2 || x3 <= 0",
        "x2 < x1 || x3 <= 0",
    ];

    /// Each query starts from an empty clause database: after other
    /// queries over the same atoms, a query searches exactly as it does
    /// on a fresh solver (only the query memo carries over, and it
    /// changes cost, never the search of a query it does not answer).
    #[test]
    fn a_query_after_others_searches_as_on_a_fresh_solver() {
        // Boolean atoms: the 6-pigeon pigeonhole, after two satisfiable
        // weakenings of it (one pigeon's placement dropped, then one
        // hole constraint dropped).
        let (mut fresh, pc) = pigeonhole(6, 5);
        let cold = search_delta(&mut fresh, |cx| cx.entails(&pc, "false"));
        assert_eq!(cold.0, Answer::Valid);
        let (mut warm, pc) = pigeonhole(6, 5);
        assert_eq!(warm.entails(&pc[1..], "false"), Answer::Invalid);
        assert_eq!(warm.entails(&pc[..pc.len() - 1], "false"), Answer::Invalid);
        assert!(warm.solver.conflicts > 0, "the earlier queries search");
        assert_eq!(search_delta(&mut warm, |cx| cx.entails(&pc, "false")), cold);

        // Integer atoms with theory conflicts: the same query again,
        // re-solved once its memoized answer is forgotten.
        let mut cx = Ctx::new(4, Sort::Int);
        let pc = CHAINED_ORDERINGS;
        let goal = "x2 + x3 <= 0";
        let first = search_delta(&mut cx, |cx| cx.entails(&pc, goal));
        assert_eq!(first.0, Answer::Valid);
        assert!(first.1[0] > 0, "the first solve branches");
        cx.solver.query_cache.clear();
        assert_eq!(search_delta(&mut cx, |cx| cx.entails(&pc, goal)), first);
    }

    /// A query cut off by fuel mid-search leaves nothing behind but
    /// its counters: the same query, re-posed with the budget lifted,
    /// searches exactly as a fresh solver does.
    #[test]
    fn a_fuel_truncated_query_leaves_the_next_search_untouched() {
        let (mut fresh, pc) = pigeonhole(8, 7);
        let cold = search_delta(&mut fresh, |cx| cx.entails(&pc, "false"));
        assert_eq!(cold.0, Answer::Valid);
        assert_eq!(cold.1[1], 2445, "the pinned conflict count");

        let (mut starved, pc) = pigeonhole(8, 7);
        starved.solver.fuel = Some(40_000);
        assert_eq!(starved.entails(&pc, "false"), Answer::Unknown);
        assert!(starved.solver.fuel_exhausted);
        assert!(starved.solver.conflicts > 0, "the truncated run searched");
        starved.solver.fuel = None;
        starved.solver.fuel_exhausted = false;
        assert_eq!(
            search_delta(&mut starved, |cx| cx.entails(&pc, "false")),
            cold
        );
    }

    // --------------------------------------------------------------
    // CDCL vs. a truth-table oracle, theory layer, fuel.
    // --------------------------------------------------------------

    /// Skeletons with more atoms than this are left to the CDCL search
    /// alone (the oracle enumerates `2^atoms` assignments).
    const ORACLE_MAX_ATOMS: usize = 16;

    /// The reference the CDCL search is checked against. It abstracts
    /// `¬goal ∧ pc` exactly as [`Solver::entails`] does, enumerates
    /// every assignment of the skeleton's atoms, and asks the theory
    /// layer about each one that satisfies the skeleton: `Invalid` if
    /// any is theory-satisfiable, else `Unknown` if any is undecided,
    /// else `Valid`. `None` when the skeleton has too many atoms.
    fn truth_table(
        solver: &mut Solver,
        arena: &mut TermArena,
        pc: &[Expr],
        goal: &Expr,
    ) -> Option<Answer> {
        let goal = intern(arena, goal);
        let mut formula = arena.not(goal);
        for c in pc {
            let c = intern(arena, c);
            formula = arena.and(formula, c);
        }
        let mut atoms = AtomTable::default();
        let skeleton = solver.abstract_bool(arena, formula, true, &mut atoms);
        let n = atoms.list.len();
        if n > ORACLE_MAX_ATOMS {
            return None;
        }
        let mut unknown = false;
        for bits in 0u32..1 << n {
            let value = |i: usize| bits >> i & 1 == 1;
            if !eval(&skeleton, &value) {
                continue;
            }
            let lits = atoms.list.iter().enumerate().map(|(i, a)| (a, value(i)));
            match theory_check(lits) {
                SatAnswer::Sat => return Some(Answer::Invalid),
                SatAnswer::Unknown => unknown = true,
                SatAnswer::Unsat => {}
            }
        }
        Some(if unknown {
            Answer::Unknown
        } else {
            Answer::Valid
        })
    }

    /// Evaluates a skeleton under a total assignment of its atoms.
    fn eval(f: &BForm, value: &dyn Fn(usize) -> bool) -> bool {
        match f {
            BForm::True => true,
            BForm::False => false,
            BForm::Lit(i, pol) => value(*i) == *pol,
            BForm::And(a, b) => eval(a, value) && eval(b, value),
            BForm::Or(a, b) => eval(a, value) || eval(b, value),
        }
    }

    /// Fixed queries, each answered by the search and then again by
    /// the memo: both answers must be the oracle's.
    #[test]
    fn cdcl_matches_the_truth_table_oracle() {
        let mut cx = Ctx::new(3, Sort::Int);
        let mut oracle = cx.solver.clone();
        let mut oracle_arena = TermArena::new();
        let (dpc, dgoal) = diverging_queries(3);
        let queries = [
            query(&["x0 <= x1"], "x0 < x1"),
            query(&["x0 < x1"], "x0 <= x1"),
            query(&NO_FACTS, "x0 == x0"),
            query(&["x0 < 0", "0 < x0"], "false"),
            query(&NO_FACTS, "x0 * x1 == 3"),
            query(&dpc, &dgoal),
        ];
        for pass in ["search", "memo"] {
            for (pc, goal) in &queries {
                let expected = truth_table(&mut oracle, &mut oracle_arena, pc, goal)
                    .expect("every fixed query is small enough for the oracle");
                assert_eq!(
                    entails(&mut cx.solver, &mut cx.arena, pc, goal),
                    expected,
                    "{} pass: pc={:?} goal={:?}",
                    pass,
                    pc,
                    goal
                );
            }
        }
        assert_eq!(
            cx.solver.cache_hits,
            queries.len(),
            "the second pass must be answered from the memo"
        );
    }

    /// A conflict clause learned in one query can lean on that query's
    /// own facts. When such clauses were carried into later queries,
    /// one refuted a real model of this pair's second query and turned
    /// `Invalid` into `Valid` (a case the stream oracle below found);
    /// each query now learns from scratch. Here `x0 = -4, x1 = 0,
    /// x2 = -2` satisfies the second query's path condition and
    /// violates its goal.
    #[test]
    fn lemmas_learned_under_one_querys_facts_stay_out_of_the_next() {
        let mut cx = Ctx::new(3, Sort::Int);
        cx.entails(
            &[
                "x0 + x1 <= x1 + 2 * x2",
                "2 == -2 * x1 + x2",
                "x1 <= x1 + 3 || (2 * x2 + x0 <= -6 + x1 && 5 + x1 == 2 * x2)",
            ],
            "!(4 + 2 * x1 == x2 + -2) || x2 + -2 * x2 < 6",
        );
        assert_eq!(
            cx.entails(
                &[
                    "-2 * x2 + x1 == 4 + x1 || -2 * x2 + x2 == -6",
                    "2 * x1 + x0 == -2 + x2",
                    "!(x0 < x2 + 2 * x2) || x1 + x0 <= -1 * x0 + x1",
                ],
                "5 + x1 < x2 + x2",
            ),
            Answer::Invalid
        );
    }

    /// Differential: on random linear streams, the solver answers every
    /// query as the truth-table oracle does. The generated fragment is
    /// linear arithmetic under the propositional connectives — exactly
    /// the domain of the theory layer. Each stream runs three times on
    /// one solver: solved, replayed from the query memo, then re-solved
    /// with the query memo cleared, so that no state but the counters
    /// carries over from the earlier passes.
    #[test]
    fn cdcl_matches_the_oracle_on_query_streams() {
        use proptest::prelude::*;
        use proptest::test_runner::{TestCaseError, TestRunner};
        let stream_strategy = super::query_stream::arb_query_stream();
        let (mut queries, mut checked) = (0usize, 0usize);
        let mut runner = TestRunner::new(ProptestConfig::with_cases(512));
        runner.run_named("cdcl_matches_the_oracle_on_query_streams", |rng| {
            let stream = stream_strategy.generate(rng);
            let mut oracle = Solver::new();
            let mut oracle_arena = TermArena::new();
            for i in 0..3 {
                oracle.declare(Sym(i), Sort::Int);
            }
            let expected: Vec<Option<Answer>> = stream
                .iter()
                .map(|(pc, goal)| truth_table(&mut oracle, &mut oracle_arena, pc, goal))
                .collect();
            let mut cdcl = Solver::new();
            let mut arena = TermArena::new();
            for i in 0..3 {
                cdcl.declare(Sym(i), Sort::Int);
            }
            for pass in ["search", "memo", "re-solve"] {
                if pass == "re-solve" {
                    cdcl.query_cache.clear();
                }
                for ((pc, goal), want) in stream.iter().zip(&expected) {
                    let got = entails(&mut cdcl, &mut arena, pc, goal);
                    queries += 1;
                    let Some(want) = *want else { continue };
                    checked += 1;
                    if got != want {
                        return Err(TestCaseError::fail(format!(
                            "{} pass: cdcl={:?} oracle={:?} for pc={:?}, goal={:?}",
                            pass, got, want, pc, goal
                        )));
                    }
                }
            }
            Ok(())
        });
        assert!(
            checked * 100 >= queries * 95,
            "the oracle checked only {} of {} queries",
            checked,
            queries
        );
    }

    #[test]
    fn congruence_closure_merges_chains() {
        let mut cx = Ctx::new(4, Sort::Ref);
        // A chain of equalities merges into one class: a=b ∧ b=c ∧ c=d
        // entails a=d through two intermediate merges.
        let chain = ["x0 == x1", "x1 == x2", "x2 == x3"];
        assert_eq!(cx.entails(&chain, "x0 == x3"), Answer::Valid);
        // A disequality across the merged class is a theory conflict.
        assert!(!cx.consistent(&[chain[0], chain[1], chain[2], "!(x3 == x0)"]));
        assert!(
            cx.solver.conflicts >= 1,
            "the diseq-in-class conflict should be counted"
        );
    }

    #[test]
    fn difference_bound_cycle_is_detected() {
        let mut cx = Ctx::new(3, Sort::Int);
        // x < y ∧ y < z entails x < z; closing the cycle with z < x is
        // a negative-weight loop and must be inconsistent.
        assert_eq!(
            cx.entails(&["x0 < x1", "x1 < x2"], "x0 < x2"),
            Answer::Valid
        );
        assert!(!cx.consistent(&["x0 < x1", "x1 < x2", "x2 < x0"]));
    }

    #[test]
    fn theory_propagation_prunes_diverging_search() {
        let mut cx = Ctx::new(4, Sort::Int);
        let (pc, goal) = diverging_queries(4);
        assert_eq!(cx.entails(&pc, &goal), Answer::Valid);
        assert!(
            cx.solver.theory_props >= 1,
            "bound strengthening should propagate sum atoms"
        );
        // Theory propagation must collapse the 2^4 assignment space to
        // a handful of decisions.
        assert!(
            cx.solver.branches < 16,
            "CDCL explored {} decisions on a 4-var diverging query",
            cx.solver.branches
        );
    }

    #[test]
    fn fuel_exhausted_cdcl_answers_are_not_cached() {
        let mut cx = Ctx::new(3, Sort::Int);
        let (pc, goal) = diverging_queries(3);
        cx.solver.fuel = Some(1);
        assert_eq!(
            cx.entails(&pc, &goal),
            Answer::Unknown,
            "a starved run must degrade to Unknown"
        );
        assert!(cx.solver.fuel_exhausted);
        // Un-starve the solver: the truncated Unknown must not have
        // been memoized, so the same query now re-solves to Valid.
        cx.solver.fuel = None;
        cx.solver.fuel_exhausted = false;
        assert_eq!(cx.entails(&pc, &goal), Answer::Valid);
        assert_eq!(
            cx.solver.cache_hits, 0,
            "the truncated answer leaked into the memo table"
        );
    }

    #[test]
    fn deadline_exhausted_answers_are_not_cached() {
        let mut cx = Ctx::new(3, Sort::Int);
        let (pc, goal) = diverging_queries(3);
        // A deadline already in the past trips on the search's first
        // poll (the poll mask always checks the first iteration).
        cx.solver.deadline = Some(Instant::now() - std::time::Duration::from_millis(1));
        assert_eq!(
            cx.entails(&pc, &goal),
            Answer::Unknown,
            "an expired deadline must degrade to Unknown"
        );
        assert!(cx.solver.deadline_exhausted);
        // Lift the deadline: the truncated Unknown must not have been
        // memoized, so the same query now re-solves to Valid.
        cx.solver.deadline = None;
        cx.solver.deadline_exhausted = false;
        assert_eq!(cx.entails(&pc, &goal), Answer::Valid);
        assert_eq!(
            cx.solver.cache_hits, 0,
            "the deadline-truncated answer leaked into the memo table"
        );
    }
}
