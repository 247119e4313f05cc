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
//! atoms degrade the answer to `Unknown`, never to a wrong `Valid`.
//!
//! Queries are posed over hash-consed [`TermId`]s, and two memo layers
//! exploit the O(1) equality that interning buys:
//!
//! * a **query cache** keyed on the *normalized* path condition (sorted,
//!   deduplicated ids) plus the goal id — symbolic execution re-poses
//!   the same consistency/entailment queries constantly (branch joins,
//!   repeated spec boundaries), and a repeat is answered without any
//!   solving;
//! * a **theory cache** keyed on the set of theory literals of a full
//!   propositional assignment — union-find construction, Gaussian
//!   substitution, and Fourier–Motzkin elimination are all functions
//!   of that set alone, so queries whose path conditions share a
//!   prefix reuse the ground-theory work of their common branches
//!   instead of repeating it.
//!
//! Both caches are exact (keys are complete inputs of the computation
//! they index), so a memoized answer is the one a re-solve would give.

use crate::sym::{Sort, Sym, SymExpr, Term, TermArena, TermId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Widest clause retained after minimization. Wide clauses almost never
/// propagate (every literal must be falsified first) but are scanned on
/// every propagation round, so they cost more than they prune.
const MAX_LEARN_WIDTH: usize = 8;

/// Cap on retained learned clauses (a runaway backstop; the per-method
/// clearing keeps real runs far below it).
const MAX_LEARNED_CLAUSES: usize = 512;

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

    fn scale(&self, k: i128) -> LinTerm {
        LinTerm {
            coeffs: self.coeffs.iter().map(|(s, c)| (*s, c * k)).collect(),
            konst: self.konst * k,
        }
    }

    fn add(&self, other: &LinTerm) -> LinTerm {
        let mut coeffs = self.coeffs.clone();
        for (s, c) in &other.coeffs {
            let e = coeffs.entry(*s).or_insert(0);
            *e += c;
            if *e == 0 {
                coeffs.remove(s);
            }
        }
        LinTerm {
            coeffs,
            konst: self.konst + other.konst,
        }
    }

    fn sub(&self, other: &LinTerm) -> LinTerm {
        self.add(&other.scale(-1))
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
    /// Theory-cache hits (ground-theory checks reused across branches
    /// and across queries sharing a path-condition prefix).
    pub theory_hits: usize,
    /// Theory-cache misses.
    pub theory_misses: usize,
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
    /// Total theory-conflict clauses learned across all queries
    /// (monotone; clearing retained clauses does not reset it).
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
    theory_cache: HashMap<Vec<(Atom, bool)>, SatAnswer>,
    learned: Vec<Vec<(Atom, bool)>>,
    /// Every export candidate already checked for retention, kept or
    /// rejected, so no candidate is checked twice within a method.
    lemmas_checked: HashSet<Vec<(Atom, bool)>>,
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
        let mut key: Vec<TermId> = pc.to_vec();
        key.sort_unstable();
        key.dedup();
        if let Some(&cached) = self.query_cache.get(&(key.clone(), goal)) {
            self.cache_hits += 1;
            return cached;
        }
        self.cache_misses += 1;
        let mut formula = arena.not(goal);
        for &c in &key {
            formula = arena.and(formula, c);
        }
        let answer = match self.sat(arena, formula) {
            SatAnswer::Unsat => Answer::Valid,
            SatAnswer::Sat => Answer::Invalid,
            SatAnswer::Unknown => Answer::Unknown,
        };
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

    /// Tree-facade variant of [`Solver::entails`] for callers holding
    /// owned [`SymExpr`]s (tests, one-off queries).
    pub fn entails_exprs(
        &mut self,
        arena: &mut TermArena,
        pc: &[SymExpr],
        goal: &SymExpr,
    ) -> Answer {
        let pc_ids: Vec<TermId> = pc.iter().map(|e| arena.intern_expr(e)).collect();
        let g = arena.intern_expr(goal);
        self.entails(arena, &pc_ids, g)
    }

    /// Forgets the learned clauses. The verifier calls this at every
    /// method boundary: each method's lemma set is then a function of
    /// that method's own query sequence, which is what keeps verdicts,
    /// stats, and traces bit-identical at any worker count.
    pub fn clear_learned(&mut self) {
        self.learned.clear();
        self.lemmas_checked.clear();
    }

    /// Answers one satisfiability query.
    ///
    /// The formula is abstracted to a propositional skeleton over
    /// theory atoms, which is Tseitin-encoded to CNF (atom indices
    /// become the first variables, auxiliary definition variables
    /// follow), the retained cross-query lemmas are instantiated as
    /// initial clauses, and the engine runs to a verdict. Afterwards the
    /// theory lemmas the engine learned over pure atom variables are
    /// exported back into the cross-query store, and the engine's
    /// counters and remaining fuel fold into the solver's.
    fn sat(&mut self, arena: &mut TermArena, f: TermId) -> SatAnswer {
        let mut atoms = AtomTable::default();
        let skeleton = self.abstract_bool(arena, f, true, &mut atoms);
        let mut eng = CdclEngine::new(atoms.list.clone(), self.fuel, self.deadline);
        if !eng.encode(&skeleton) {
            // Propositionally false at the root: no search, no fuel.
            return SatAnswer::Unsat;
        }
        // Instantiate retained lemmas whose atoms all occur in this
        // query, so propagation never assigns atoms the formula does not
        // mention.
        let instantiated: Vec<Vec<(usize, bool)>> = self
            .learned
            .iter()
            .filter_map(|clause| {
                clause
                    .iter()
                    .map(|(a, pol)| atoms.index.get(a).map(|&i| (i, *pol)))
                    .collect()
            })
            .collect();
        for c in instantiated {
            eng.add_lemma(&c);
        }
        let verdict = eng.solve(self);
        self.fuel = eng.fuel;
        self.fuel_exhausted |= eng.fuel_exhausted;
        self.deadline_exhausted |= eng.deadline_exhausted;
        self.branches += eng.decisions as usize;
        self.conflicts += eng.conflicts as usize;
        self.restarts += eng.restarts as usize;
        self.propagations += eng.propagations as usize;
        self.theory_props += eng.theory_props as usize;
        self.learned_clauses += eng.learned_total as usize;
        // A truncated search's clauses are left behind with its answer.
        if !eng.fuel_exhausted && !eng.deadline_exhausted {
            self.retain_lemmas(eng.exported(), &atoms);
        }
        verdict
    }

    /// Moves a finished query's export candidates into the cross-query
    /// lemma set. Analysis drops root-level literals, so a conflict
    /// clause may hold only under the query's own facts; a candidate is
    /// kept only when the theories refute its negation, so that it holds
    /// in every query. Each candidate is a conflict clause the search
    /// already charged one fuel unit for, so the checks are bounded by
    /// the fuel; they stop at the wall-clock deadline.
    fn retain_lemmas(&mut self, candidates: Vec<Vec<(usize, bool)>>, atoms: &AtomTable) {
        for clause in candidates {
            if self.learned.len() >= MAX_LEARNED_CLAUSES
                || self.deadline.is_some_and(|d| Instant::now() >= d)
            {
                break;
            }
            let mut lemma: Vec<(Atom, bool)> = clause
                .iter()
                .map(|&(i, pol)| (atoms.list[i].clone(), pol))
                .collect();
            lemma.sort_unstable();
            lemma.dedup();
            if !self.lemmas_checked.insert(lemma.clone()) {
                continue;
            }
            let mut negation: Vec<(Atom, bool)> =
                lemma.iter().map(|(a, pol)| (a.clone(), !pol)).collect();
            negation.sort_unstable();
            if self.theory_decide(negation) == SatAnswer::Unsat {
                self.learned.push(lemma);
            }
        }
    }

    /// Converts a boolean term to a skeleton, interning atoms.
    /// `positive` tracks NNF polarity.
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
            Term::And(a, b) => {
                let fa = self.abstract_bool(arena, a, positive, atoms);
                let fb = self.abstract_bool(arena, b, positive, atoms);
                if positive {
                    BForm::And(Box::new(fa), Box::new(fb))
                } else {
                    BForm::Or(Box::new(fa), Box::new(fb))
                }
            }
            Term::Or(a, b) => {
                let fa = self.abstract_bool(arena, a, positive, atoms);
                let fb = self.abstract_bool(arena, b, positive, atoms);
                if positive {
                    BForm::Or(Box::new(fa), Box::new(fb))
                } else {
                    BForm::And(Box::new(fa), Box::new(fb))
                }
            }
            Term::Sym(s) => BForm::Lit(atoms.intern(Atom::BoolSym(s)), positive),
            Term::Lt(a, b) => {
                if let Some(ex) = split_cmp_ite(arena, a, b, Cmp::Lt) {
                    return self.abstract_bool(arena, ex, positive, atoms);
                }
                // a < b  ⇔  a - b + 1 ≤ 0 (integers).
                match (self.linearize(arena, a), self.linearize(arena, b)) {
                    (Some(la), Some(lb)) => {
                        let lin = if positive {
                            la.sub(&lb).add(&LinTerm::constant(1))
                        } else {
                            // ¬(a < b) ⇔ b ≤ a ⇔ b - a ≤ 0.
                            lb.sub(&la)
                        };
                        lin_lit(atoms, lin)
                    }
                    _ => BForm::Lit(atoms.intern(Atom::Opaque(id)), positive),
                }
            }
            Term::Le(a, b) => {
                if let Some(ex) = split_cmp_ite(arena, a, b, Cmp::Le) {
                    return self.abstract_bool(arena, ex, positive, atoms);
                }
                match (self.linearize(arena, a), self.linearize(arena, b)) {
                    (Some(la), Some(lb)) => {
                        let lin = if positive {
                            la.sub(&lb)
                        } else {
                            // ¬(a ≤ b) ⇔ b + 1 ≤ a ⇔ b - a + 1 ≤ 0.
                            lb.sub(&la).add(&LinTerm::constant(1))
                        };
                        lin_lit(atoms, lin)
                    }
                    _ => BForm::Lit(atoms.intern(Atom::Opaque(id)), positive),
                }
            }
            Term::Eq(a, b) => match self.sort_of(arena, a).or_else(|| self.sort_of(arena, b)) {
                Some(Sort::Int) => {
                    if let Some(ex) = split_cmp_ite(arena, a, b, Cmp::Eq) {
                        return self.abstract_bool(arena, ex, positive, atoms);
                    }
                    match (self.linearize(arena, a), self.linearize(arena, b)) {
                        (Some(la), Some(lb)) => {
                            let d = la.sub(&lb);
                            if positive {
                                // d = 0 ⇔ d ≤ 0 ∧ -d ≤ 0.
                                BForm::And(
                                    Box::new(lin_lit(atoms, d.clone())),
                                    Box::new(lin_lit(atoms, d.scale(-1))),
                                )
                            } else {
                                // d ≠ 0 ⇔ d ≤ -1 ∨ -d ≤ -1.
                                BForm::Or(
                                    Box::new(lin_lit(atoms, d.add(&LinTerm::constant(1)))),
                                    Box::new(lin_lit(
                                        atoms,
                                        d.scale(-1).add(&LinTerm::constant(1)),
                                    )),
                                )
                            }
                        }
                        _ => BForm::Lit(atoms.intern(Atom::Opaque(id)), positive),
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

    fn linearize(&self, arena: &TermArena, id: TermId) -> Option<LinTerm> {
        match arena.node(id) {
            Term::Int(n) => Some(LinTerm::constant(n as i128)),
            Term::Sym(s) => match self.sorts.get(&s) {
                Some(Sort::Int) | None => Some(LinTerm::var(s)),
                _ => None,
            },
            Term::Add(a, b) => Some(self.linearize(arena, a)?.add(&self.linearize(arena, b)?)),
            Term::Sub(a, b) => Some(self.linearize(arena, a)?.sub(&self.linearize(arena, b)?)),
            Term::Mul(a, b) => {
                let la = self.linearize(arena, a)?;
                let lb = self.linearize(arena, b)?;
                if la.is_constant() {
                    Some(lb.scale(la.konst))
                } else if lb.is_constant() {
                    Some(la.scale(lb.konst))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Checks a sorted, deduplicated theory-literal set — a full
    /// propositional assignment's theory literals — against the
    /// theories.
    ///
    /// The verdict is a function of the *set* alone (union-find
    /// connectivity and Fourier–Motzkin are order-independent), so it
    /// is memoized on it: leaves within one query, and across queries
    /// whose path conditions share a prefix, reuse each other's ground
    /// work.
    fn theory_decide(&mut self, key: Vec<(Atom, bool)>) -> SatAnswer {
        if let Some(&cached) = self.theory_cache.get(&key) {
            self.theory_hits += 1;
            return cached;
        }
        self.theory_misses += 1;

        // Opaque atoms poison certainty of Sat.
        let mut unknown = false;
        // --- References: union-find with disequalities.
        let mut uf = UnionFind::new();
        let mut disequalities: Vec<(RefTerm, RefTerm)> = Vec::new();
        // --- Integers: Fourier–Motzkin.
        let mut constraints: Vec<LinTerm> = Vec::new();

        for (atom, polarity) in &key {
            match atom {
                Atom::LinLe(lin) => {
                    if *polarity {
                        constraints.push(lin.clone());
                    } else {
                        // ¬(lin ≤ 0) ⇔ -lin + 1 ≤ 0.
                        constraints.push(lin.scale(-1).add(&LinTerm::constant(1)));
                    }
                }
                Atom::BoolSym(_) => {}
                Atom::RefEq(a, b) => {
                    if *polarity {
                        uf.union(*a, *b);
                    } else {
                        disequalities.push((*a, *b));
                    }
                }
                Atom::Opaque(_) => unknown = true,
            }
        }

        let mut result = SatAnswer::Sat;
        for (a, b) in &disequalities {
            if uf.find(*a) == uf.find(*b) {
                result = SatAnswer::Unsat;
            }
        }

        if result != SatAnswer::Unsat {
            match fourier_motzkin(constraints) {
                Some(false) => result = SatAnswer::Unsat,
                Some(true) => {}
                None => unknown = true,
            }
        }

        if result != SatAnswer::Unsat && unknown {
            result = SatAnswer::Unknown;
        }

        self.theory_cache.insert(key, result);
        result
    }
}

// ===================== CDCL engine =====================

/// Conflicts before the first Luby restart; later intervals are this
/// times the Luby sequence (1, 1, 2, 1, 1, 2, 4, …).
const LUBY_UNIT: u64 = 64;

/// Conflicts between learned-clause reductions — the fixed deletion
/// cadence (deterministic: a function of the conflict count alone).
const REDUCE_CADENCE: u64 = 2000;

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

/// One CNF clause of the CDCL engine.
#[derive(Debug)]
struct CClause {
    lits: Vec<usize>,
    /// Deletable by the LBD policy (conflict-learned clauses).
    learned: bool,
    /// Never deleted: theory-explanation and blocking clauses, whose
    /// indices live in caches or must keep cubes blocked.
    protect: bool,
    /// Derived (transitively) from a blocking clause — sound for
    /// in-query pruning under the taint flag, but never exported as a
    /// theory lemma.
    tainted: bool,
    /// An untainted conflict-learned clause over pure atom variables —
    /// a candidate for cross-query retention (see [`Solver::sat`]).
    export: bool,
    lbd: u32,
    deleted: bool,
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
/// is a pure function of the query and the retained lemma set, which is
/// what keeps verdicts and stats bit-identical at any thread count.
struct CdclEngine {
    atoms: Vec<Atom>,
    natoms: usize,
    nvars: usize,
    clauses: Vec<CClause>,
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
    conflicts_since_reduce: u64,
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
            conflicts_since_reduce: 0,
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

    /// Tseitin-encodes the skeleton; returns false when the root is
    /// propositionally false (no search needed).
    fn encode(&mut self, f: &BForm) -> bool {
        match self.tseitin(f) {
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
                let conj = matches!(f, BForm::And(..));
                let la = self.tseitin(a);
                let lb = self.tseitin(b);
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
        }
    }

    /// Adds a problem clause (Tseitin definition, root assertion, or
    /// instantiated cross-query lemma), marking its variables
    /// decidable.
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
                let ci = self.push_clause(lits, false, false, false, false, 0);
                self.attach_watches(ci);
            }
        }
    }

    /// Instantiates one retained cross-query lemma as an initial
    /// clause.
    fn add_lemma(&mut self, lemma: &[(usize, bool)]) {
        let lits: Vec<usize> = lemma.iter().map(|&(i, pol)| mk_lit(i, pol)).collect();
        self.add_problem_clause(lits);
    }

    fn push_clause(
        &mut self,
        lits: Vec<usize>,
        learned: bool,
        protect: bool,
        tainted: bool,
        export: bool,
        lbd: u32,
    ) -> usize {
        let ci = self.clauses.len();
        self.clauses.push(CClause {
            lits,
            learned,
            protect,
            tainted,
            export,
            lbd,
            deleted: false,
        });
        ci
    }

    fn attach_watches(&mut self, ci: usize) {
        debug_assert!(self.clauses[ci].lits.len() >= 2);
        let l0 = self.clauses[ci].lits[0];
        let l1 = self.clauses[ci].lits[1];
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
                if self.clauses[ci].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                if self.clauses[ci].lits[0] == fl {
                    self.clauses[ci].lits.swap(0, 1);
                }
                let first = self.clauses[ci].lits[0];
                if self.value(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a non-false literal to watch instead.
                let len = self.clauses[ci].lits.len();
                let mut moved = false;
                for k in 2..len {
                    let lk = self.clauses[ci].lits[k];
                    if self.value(lk) != Some(false) {
                        self.clauses[ci].lits.swap(1, k);
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

    /// Gets (or creates) the theory-explanation clause asserting `lit`
    /// under the already-true `expl` literals: `lit ∨ ¬e₁ ∨ … ∨ ¬eₙ`.
    /// Explanation clauses are protected from deletion because the
    /// recomputing theory pass holds their indices in `expl_index`.
    fn explanation_clause(&mut self, lit: usize, expl: &[usize]) -> usize {
        let mut lits: Vec<usize> = Vec::with_capacity(expl.len() + 1);
        lits.push(lit);
        lits.extend(expl.iter().map(|&e| lit_neg(e)));
        lits.sort_unstable();
        lits.dedup();
        if let Some(&ci) = self.expl_index.get(&lits) {
            return ci;
        }
        let key = lits.clone();
        // Order for watching: the asserted literal first, then the
        // falsified explanation literals by descending level.
        let mut ordered = lits;
        ordered.sort_by_key(|&l| {
            if l == lit {
                (0, 0, l)
            } else {
                (1, u32::MAX - self.level[lit_var(l)], l)
            }
        });
        let ci = self.push_clause(ordered, true, true, false, false, 2);
        if self.clauses[ci].lits.len() >= 2 {
            self.attach_watches(ci);
        }
        self.expl_index.insert(key, ci);
        ci
    }

    /// Theory-propagates `lit` with the given explanation (a set of
    /// currently-true literals that imply it in the theory).
    fn theory_enqueue(&mut self, lit: usize, expl: &[usize]) {
        self.theory_props += 1;
        let why = self.explanation_clause(lit, expl);
        self.assign_lit(lit, Some(why), true);
    }

    /// Gets (or creates) the theory-conflict clause over a set of
    /// currently-true literals that are jointly theory-inconsistent.
    fn theory_conflict(&mut self, expl: Vec<usize>) -> usize {
        let mut lits: Vec<usize> = expl.iter().map(|&e| lit_neg(e)).collect();
        lits.sort_unstable();
        lits.dedup();
        if let Some(&ci) = self.expl_index.get(&lits) {
            return ci;
        }
        let key = lits.clone();
        let mut ordered = lits;
        ordered.sort_by_key(|&l| (u32::MAX - self.level[lit_var(l)], l));
        let ci = self.push_clause(ordered, true, true, false, false, 2);
        if self.clauses[ci].lits.len() >= 2 {
            self.attach_watches(ci);
        }
        self.expl_index.insert(key, ci);
        ci
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
                    // literal imposes.
                    let eff = if lit_pol(l) {
                        lin.clone()
                    } else {
                        lin.scale(-1).add(&LinTerm::constant(1))
                    };
                    if eff.coeffs.len() == 1 {
                        let (&x, &c) = eff.coeffs.iter().next().expect("one var");
                        if c > 0 {
                            // x ≤ -k/c, kept exact.
                            let (n, d) = (-eff.konst, c);
                            match upper.get(&x) {
                                Some(&(un, ud, _)) if un * d <= n * ud => {}
                                _ => {
                                    upper.insert(x, (n, d, l));
                                }
                            }
                        } else {
                            // x ≥ -k/c = k/(-c), kept exact.
                            let (n, d) = (eff.konst, -c);
                            match lower.get(&x) {
                                Some(&(ln2, ld, _)) if ln2 * d >= n * ld => {}
                                _ => {
                                    lower.insert(x, (n, d, l));
                                }
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
                if ln2 * ud > un * ld {
                    return TheoryResult::Conflict(self.theory_conflict(vec![ll, ul]));
                }
            }
        }
        // … a disequality inside one congruence class, …
        for &(a, b, l) in &diseqs {
            if uf.find(a) == uf.find(b) {
                let mut expl = eq_lits.clone();
                expl.push(l);
                return TheoryResult::Conflict(self.theory_conflict(expl));
            }
        }
        // … or a multi-variable constraint whose minimum under the
        // current bounds is already positive.
        for (eff, l) in &multi {
            if let Some((min, used)) = bound_sum(eff, &lower, &upper, true) {
                if min > 0 {
                    let mut expl = used;
                    expl.push(*l);
                    return TheoryResult::Conflict(self.theory_conflict(expl));
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
                        if c > 0 {
                            // Atom ⇔ x ≤ -k/c, compared exactly.
                            if let Some(&(un, ud, ul)) = upper.get(&x) {
                                if un * c <= -lin.konst * ud {
                                    self.theory_enqueue(mk_lit(v, true), &[ul]);
                                    progress = true;
                                    continue;
                                }
                            }
                            if let Some(&(ln2, ld, ll)) = lower.get(&x) {
                                if ln2 * c > -lin.konst * ld {
                                    self.theory_enqueue(mk_lit(v, false), &[ll]);
                                    progress = true;
                                }
                            }
                        } else {
                            // Atom ⇔ x ≥ k/(-c), compared exactly.
                            let m = -c;
                            if let Some(&(ln2, ld, ll)) = lower.get(&x) {
                                if ln2 * m >= lin.konst * ld {
                                    self.theory_enqueue(mk_lit(v, true), &[ll]);
                                    progress = true;
                                    continue;
                                }
                            }
                            if let Some(&(un, ud, ul)) = upper.get(&x) {
                                if un * m < lin.konst * ud {
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
    /// Returns the learnt clause (asserting literal first) and whether
    /// it resolved through a tainted (blocking-derived) clause.
    fn analyze(&mut self, confl: usize) -> (Vec<usize>, bool) {
        let current = self.current_level();
        let mut learnt: Vec<usize> = vec![0];
        let mut tainted = false;
        let mut counter = 0usize;
        let mut idx = self.trail.len();
        let mut p: Option<usize> = None;
        let mut ci = confl;
        let mut touched: Vec<usize> = Vec::new();
        loop {
            tainted |= self.clauses[ci].tainted;
            let lits = self.clauses[ci].lits.clone();
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
        // reason's other literals are all seen or at level 0 (never
        // minimized through tainted reasons, which would taint the
        // clause).
        let uip_var = lit_var(learnt[0]);
        self.seen[uip_var] = true;
        touched.push(uip_var);
        let mut kept: Vec<usize> = vec![learnt[0]];
        for &q in &learnt[1..] {
            let v = lit_var(q);
            let redundant = match self.reason[v] {
                Some(rc) if !self.clauses[rc].tainted => self.clauses[rc].lits.iter().all(|&r| {
                    lit_var(r) == v || self.seen[lit_var(r)] || self.level[lit_var(r)] == 0
                }),
                _ => false,
            };
            if !redundant {
                kept.push(q);
            }
        }
        for v in touched {
            self.seen[v] = false;
        }
        (kept, tainted)
    }

    /// Handles one conflict under clause learning: re-anchor late
    /// theory conflicts, analyze to the first UIP, backjump, attach and
    /// assert the learnt clause, then apply the decay/reduction/restart
    /// cadences. Returns false when the conflict is terminal (root).
    fn resolve_conflict(&mut self, ci: usize) -> bool {
        let maxl = self.clauses[ci]
            .lits
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
        let (learnt, tainted) = self.analyze(ci);
        let bj = learnt[1..]
            .iter()
            .map(|&l| self.level[lit_var(l)])
            .max()
            .unwrap_or(0);
        self.backtrack(bj);
        self.learned_total += 1;
        let export = !tainted && learnt.iter().all(|&l| lit_var(l) < self.natoms);
        if learnt.len() == 1 {
            let lc = self.push_clause(learnt.clone(), true, true, tainted, export, 1);
            if !self.assign_lit(learnt[0], Some(lc), true) {
                return false;
            }
        } else {
            // Distinct decision levels of the clause = its LBD.
            let mut levels: Vec<u32> = learnt.iter().map(|&l| self.level[lit_var(l)]).collect();
            levels.sort_unstable();
            levels.dedup();
            let lbd = levels.len() as u32;
            let mut lits = learnt;
            // lits[1] must sit at the backjump level for safe watching.
            let pos = lits[1..]
                .iter()
                .position(|&l| self.level[lit_var(l)] == bj)
                .expect("a literal at the backjump level")
                + 1;
            lits.swap(1, pos);
            let asserting = lits[0];
            let lc = self.push_clause(lits, true, false, tainted, export, lbd);
            self.attach_watches(lc);
            if !self.assign_lit(asserting, Some(lc), true) {
                return false;
            }
        }
        self.act_inc /= VSIDS_DECAY;
        self.conflicts_since_restart += 1;
        self.conflicts_since_reduce += 1;
        if self.conflicts_since_reduce >= REDUCE_CADENCE {
            self.reduce_db();
            self.conflicts_since_reduce = 0;
        }
        if self.conflicts_since_restart >= LUBY_UNIT * luby(self.restarts) {
            self.restarts += 1;
            self.conflicts_since_restart = 0;
            self.backtrack(0);
        }
        true
    }

    /// LBD-based clause deletion at the fixed cadence: among deletable
    /// learned clauses (LBD > 2, not protected, not currently a
    /// reason), the worse half — by (LBD, length, age) — is dropped.
    fn reduce_db(&mut self) {
        let mut cands: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                let c = &self.clauses[i];
                c.learned && !c.deleted && !c.protect && c.lbd > 2 && !self.is_reason(i)
            })
            .collect();
        cands.sort_by_key(|&i| (self.clauses[i].lbd, self.clauses[i].lits.len(), i));
        let keep = cands.len() / 2;
        for &i in &cands[keep..] {
            self.clauses[i].deleted = true;
        }
    }

    fn is_reason(&self, ci: usize) -> bool {
        self.clauses[ci]
            .lits
            .iter()
            .any(|&l| self.reason[lit_var(l)] == Some(ci))
    }

    /// Checks a total assignment (over the constrained variables)
    /// against the full theory solver, handling Unsat as a conflict and
    /// Unknown by blocking the current decision cube under taint.
    fn leaf(&mut self, solver: &mut Solver) -> LeafOutcome {
        let mut key: Vec<(Atom, bool)> = (0..self.natoms)
            .filter_map(|v| self.assign[v].map(|pol| (self.atoms[v].clone(), pol)))
            .collect();
        key.sort_unstable();
        key.dedup();
        match solver.theory_decide(key) {
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
                let ci = self.theory_conflict(expl);
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
                let lbd = lits.len() as u32;
                let ci = self.push_clause(lits, true, true, true, false, lbd);
                if self.clauses[ci].lits.len() >= 2 {
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
    fn solve(&mut self, solver: &mut Solver) -> SatAnswer {
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
                    None => match self.leaf(solver) {
                        LeafOutcome::Sat => return SatAnswer::Sat,
                        LeafOutcome::Done => return self.final_verdict(),
                        LeafOutcome::Continue => {}
                    },
                },
            }
        }
    }

    /// The live export candidates of at most [`MAX_LEARN_WIDTH`]
    /// literals, over atom indices.
    fn exported(&self) -> Vec<Vec<(usize, bool)>> {
        self.clauses
            .iter()
            .filter(|c| c.export && !c.deleted && c.lits.len() <= MAX_LEARN_WIDTH)
            .map(|c| c.lits.iter().map(|&l| (lit_var(l), lit_pol(l))).collect())
            .collect()
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
/// in linear time here instead of exploding Fourier–Motzkin.
fn gaussian_substitute(constraints: &mut Vec<LinTerm>) {
    loop {
        // Find an equality pair (c, -c) with some ±1-coefficient var.
        let mut found: Option<(usize, usize, Sym)> = None;
        'outer: for i in 0..constraints.len() {
            if constraints[i].is_constant() {
                continue;
            }
            let neg = constraints[i].scale(-1);
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
        let solution = rest.scale(-a); // a ∈ {1,-1} so -rest/a = -a·rest.
                                       // Remove the equality pair, substitute elsewhere.
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        constraints.remove(hi);
        constraints.remove(lo);
        for c in constraints.iter_mut() {
            if let Some(&k) = c.coeffs.get(&var) {
                c.coeffs.remove(&var);
                *c = c.add(&solution.scale(k));
            }
        }
    }
}

/// Fourier–Motzkin elimination over the rationals with integer-tightened
/// inputs. Returns `Some(true)` for consistent, `Some(false)` for
/// inconsistent, `None` when the budget blows up.
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
                let b = -l.coeffs[&var];
                // b·u + a·l eliminates var.
                let combined = u.scale(b).add(&l.scale(a));
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
#[path = "../tests/support/query_stream.rs"]
mod query_stream;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::SymSupply;

    struct Ctx {
        solver: Solver,
        arena: TermArena,
    }

    impl Ctx {
        fn entails(&mut self, pc: &[SymExpr], goal: &SymExpr) -> Answer {
            self.solver.entails_exprs(&mut self.arena, pc, goal)
        }

        fn consistent(&mut self, pc: &[SymExpr]) -> bool {
            let ids: Vec<TermId> = pc.iter().map(|e| self.arena.intern_expr(e)).collect();
            self.solver.consistent(&mut self.arena, &ids)
        }
    }

    fn int_solver(n: usize) -> (Ctx, Vec<SymExpr>) {
        let mut supply = SymSupply::new();
        let mut solver = Solver::new();
        let mut syms = Vec::new();
        for _ in 0..n {
            let s = supply.fresh();
            solver.declare(s, Sort::Int);
            syms.push(SymExpr::sym(s));
        }
        (
            Ctx {
                solver,
                arena: TermArena::new(),
            },
            syms,
        )
    }

    #[test]
    fn linear_arithmetic() {
        let (mut cx, s) = int_solver(2);
        let x = s[0].clone();
        let y = s[1].clone();
        // x ≤ y ∧ y ≤ x ⊨ x = y
        let pc = vec![
            SymExpr::le(x.clone(), y.clone()),
            SymExpr::le(y.clone(), x.clone()),
        ];
        assert_eq!(
            cx.entails(&pc, &SymExpr::eq(x.clone(), y.clone())),
            Answer::Valid
        );
        // x < y ⊨ x + 1 ≤ y (integer tightening).
        let pc = vec![SymExpr::lt(x.clone(), y.clone())];
        assert_eq!(
            cx.entails(
                &pc,
                &SymExpr::le(SymExpr::add(x.clone(), SymExpr::int(1)), y.clone())
            ),
            Answer::Valid
        );
        // x ≤ y ⊭ x < y.
        let pc = vec![SymExpr::le(x.clone(), y.clone())];
        assert_eq!(cx.entails(&pc, &SymExpr::lt(x, y)), Answer::Invalid);
    }

    #[test]
    fn arithmetic_identities() {
        let (mut cx, s) = int_solver(2);
        let x = s[0].clone();
        let y = s[1].clone();
        // ⊨ x + y - y = x
        let goal = SymExpr::eq(SymExpr::sub(SymExpr::add(x.clone(), y.clone()), y), x);
        assert_eq!(cx.entails(&[], &goal), Answer::Valid);
    }

    #[test]
    fn scaled_constraints() {
        let (mut cx, s) = int_solver(1);
        let x = s[0].clone();
        // 2x ≤ 5 ∧ 3 ≤ 2x is rationally satisfiable but the bounds on x
        // conflict after pairing: 3 ≤ 2x ≤ 5 — fine rationally, so the
        // solver must NOT claim validity of falsity.
        let pc = vec![
            SymExpr::le(SymExpr::mul(SymExpr::int(2), x.clone()), SymExpr::int(5)),
            SymExpr::le(SymExpr::int(3), SymExpr::mul(SymExpr::int(2), x)),
        ];
        assert_eq!(cx.entails(&pc, &SymExpr::bool(false)), Answer::Invalid);
    }

    #[test]
    fn boolean_structure() {
        let mut supply = SymSupply::new();
        let mut solver = Solver::new();
        let p = supply.fresh();
        let q = supply.fresh();
        solver.declare(p, Sort::Bool);
        solver.declare(q, Sort::Bool);
        let mut cx = Ctx {
            solver,
            arena: TermArena::new(),
        };
        let sp = SymExpr::sym(p);
        let sq = SymExpr::sym(q);
        // p ∨ q, ¬p ⊨ q.
        let pc = vec![
            SymExpr::or(sp.clone(), sq.clone()),
            SymExpr::not(sp.clone()),
        ];
        assert_eq!(cx.entails(&pc, &sq), Answer::Valid);
        // p ⊭ q.
        assert_eq!(cx.entails(&[sp], &sq), Answer::Invalid);
    }

    #[test]
    fn reference_reasoning() {
        let mut supply = SymSupply::new();
        let mut solver = Solver::new();
        let a = supply.fresh();
        let b = supply.fresh();
        let c = supply.fresh();
        for s in [a, b, c] {
            solver.declare(s, Sort::Ref);
        }
        let mut cx = Ctx {
            solver,
            arena: TermArena::new(),
        };
        let (ea, eb, ec) = (SymExpr::sym(a), SymExpr::sym(b), SymExpr::sym(c));
        // a = b ∧ b = c ⊨ a = c.
        let pc = vec![
            SymExpr::eq(ea.clone(), eb.clone()),
            SymExpr::eq(eb.clone(), ec.clone()),
        ];
        assert_eq!(
            cx.entails(&pc, &SymExpr::eq(ea.clone(), ec.clone())),
            Answer::Valid
        );
        // a = b ∧ a ≠ b is inconsistent.
        let pc = vec![
            SymExpr::eq(ea.clone(), eb.clone()),
            SymExpr::not(SymExpr::eq(ea.clone(), eb.clone())),
        ];
        assert!(!cx.consistent(&pc));
        // a ≠ null ⊭ a = b.
        let pc = vec![SymExpr::not(SymExpr::eq(ea.clone(), SymExpr::Null))];
        assert_eq!(cx.entails(&pc, &SymExpr::eq(ea, eb)), Answer::Invalid);
    }

    #[test]
    fn mixed_implication() {
        let (mut cx, s) = int_solver(2);
        let x = s[0].clone();
        let y = s[1].clone();
        // (x = 3 → y = 4) ∧ x = 3 ⊨ y = 4.
        let pc = vec![
            SymExpr::implies(
                SymExpr::eq(x.clone(), SymExpr::int(3)),
                SymExpr::eq(y.clone(), SymExpr::int(4)),
            ),
            SymExpr::eq(x, SymExpr::int(3)),
        ];
        assert_eq!(
            cx.entails(&pc, &SymExpr::eq(y, SymExpr::int(4))),
            Answer::Valid
        );
    }

    #[test]
    fn nonlinear_is_unknown_not_wrong() {
        let (mut cx, s) = int_solver(2);
        let x = s[0].clone();
        let y = s[1].clone();
        let sq = SymExpr::Mul(Box::new(x.clone()), Box::new(x.clone()));
        // x*x ≥ 0 is true but nonlinear: must NOT be Invalid-with-
        // certainty... and must never be claimed Valid wrongly; Unknown
        // is the honest answer.
        let goal = SymExpr::le(SymExpr::int(0), sq);
        let ans = cx.entails(&[], &goal);
        assert_ne!(ans, Answer::Invalid);
        // And an actually-false nonlinear goal must not verify.
        let bad = SymExpr::eq(SymExpr::Mul(Box::new(x), Box::new(y)), SymExpr::int(3));
        assert_ne!(cx.entails(&[], &bad), Answer::Valid);
    }

    #[test]
    fn inconsistent_pc_proves_anything() {
        let (mut cx, s) = int_solver(1);
        let x = s[0].clone();
        let pc = vec![
            SymExpr::lt(x.clone(), SymExpr::int(0)),
            SymExpr::lt(SymExpr::int(0), x),
        ];
        assert_eq!(cx.entails(&pc, &SymExpr::bool(false)), Answer::Valid);
        assert!(!cx.consistent(&pc));
    }

    #[test]
    fn query_stats_accumulate() {
        let (mut cx, s) = int_solver(2);
        let x = s[0].clone();
        let y = s[1].clone();
        let pc = vec![SymExpr::lt(x.clone(), y.clone())];
        let _ = cx.entails(&pc, &SymExpr::le(x, y));
        assert_eq!(cx.solver.queries, 1);
        // The fuel-unit counters must move.
        assert!(cx.solver.conflicts + cx.solver.propagations >= 1);
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let (mut cx, s) = int_solver(2);
        let x = s[0].clone();
        let y = s[1].clone();
        let pc = vec![SymExpr::lt(x.clone(), y.clone())];
        let goal = SymExpr::le(x.clone(), y.clone());
        let first = cx.entails(&pc, &goal);
        let branches_after_first = cx.solver.branches;
        let second = cx.entails(&pc, &goal);
        assert_eq!(first, second);
        assert_eq!(cx.solver.cache_hits, 1);
        assert_eq!(
            cx.solver.branches, branches_after_first,
            "a cache hit must not re-run the search"
        );
        // Same conditions in a different order share the entry.
        let pc2 = vec![
            SymExpr::lt(x.clone(), y.clone()),
            SymExpr::lt(x.clone(), y.clone()),
        ];
        let third = cx.entails(&pc2, &goal);
        assert_eq!(first, third);
        assert_eq!(cx.solver.cache_hits, 2);
    }

    #[test]
    fn consistency_checks_share_the_entailment_memo() {
        let (mut cx, s) = int_solver(1);
        let x = s[0].clone();
        let pc = vec![
            SymExpr::lt(x.clone(), SymExpr::int(0)),
            SymExpr::lt(SymExpr::int(0), x),
        ];
        assert_eq!(cx.entails(&pc, &SymExpr::bool(false)), Answer::Valid);
        let branches = cx.solver.branches;
        assert!(!cx.consistent(&pc));
        assert_eq!(cx.solver.cache_hits, 1, "consistent(pc) is pc ⊨ false");
        assert_eq!(
            cx.solver.branches, branches,
            "a cache hit must not re-run the search"
        );
    }

    /// A diverging-style query set: each variable is pinned to `{0, 1}`
    /// by a disjunction, and the goal bounds their sum from below.
    fn diverging_queries(s: &[SymExpr]) -> (Vec<SymExpr>, SymExpr) {
        let pc: Vec<SymExpr> = s
            .iter()
            .map(|x| {
                SymExpr::or(
                    SymExpr::eq(x.clone(), SymExpr::int(0)),
                    SymExpr::eq(x.clone(), SymExpr::int(1)),
                )
            })
            .collect();
        let sum = s
            .iter()
            .cloned()
            .reduce(SymExpr::add)
            .expect("at least one symbol");
        (pc, SymExpr::le(SymExpr::int(0), sum))
    }

    /// Two chained orderings, each broken unless a side variable is
    /// non-positive: its conflict clauses mix theory lemmas, which are
    /// retained, with clauses that lean on the path condition, which
    /// are not.
    fn chained_orderings(s: &[SymExpr]) -> (Vec<SymExpr>, SymExpr) {
        let (x, y, z, w) = (s[0].clone(), s[1].clone(), s[2].clone(), s[3].clone());
        let nonpos = |v: &SymExpr| SymExpr::le(v.clone(), SymExpr::int(0));
        let pc = vec![
            SymExpr::or(SymExpr::le(x.clone(), y.clone()), nonpos(&z)),
            SymExpr::or(SymExpr::lt(y.clone(), x), nonpos(&z)),
            SymExpr::or(SymExpr::le(y.clone(), z.clone()), nonpos(&w)),
            SymExpr::or(SymExpr::lt(z.clone(), y), nonpos(&w)),
        ];
        (pc, nonpos(&SymExpr::add(z, w)))
    }

    #[test]
    fn learned_clauses_prune_repeated_branching() {
        let (mut cx, s) = int_solver(4);
        let (pc, goal) = chained_orderings(&s);
        assert_eq!(cx.entails(&pc, &goal), Answer::Valid);
        assert!(
            !cx.solver.learned.is_empty(),
            "the first solve retains lemmas"
        );
        let first = cx.solver.branches;
        // Forget the memoized answer so the second run re-solves, now
        // against the lemmas the first run retained.
        cx.solver.query_cache.clear();
        assert_eq!(cx.entails(&pc, &goal), Answer::Valid);
        let second = cx.solver.branches - first;
        assert!(
            second < first,
            "retained lemmas should prune the re-solved search: {second} vs {first}"
        );
    }

    #[test]
    fn clear_learned_resets_clauses_but_not_the_counter() {
        let (mut cx, s) = int_solver(2);
        let (pc, goal) = diverging_queries(&s);
        assert_eq!(cx.entails(&pc, &goal), Answer::Valid);
        let learned = cx.solver.learned_clauses;
        assert!(learned >= 1, "a theory conflict should learn a clause");
        cx.solver.clear_learned();
        cx.solver.query_cache.clear();
        assert_eq!(cx.entails(&pc, &goal), Answer::Valid);
        assert!(
            cx.solver.learned_clauses > learned,
            "after clearing, the same conflicts are relearned and the \
             monotone total keeps growing"
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
        pc: &[SymExpr],
        goal: &SymExpr,
    ) -> Option<Answer> {
        let goal = arena.intern_expr(goal);
        let mut formula = arena.not(goal);
        for c in pc {
            let c = arena.intern_expr(c);
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
            let mut key: Vec<(Atom, bool)> = atoms
                .list
                .iter()
                .enumerate()
                .map(|(i, a)| (a.clone(), value(i)))
                .collect();
            key.sort_unstable();
            match solver.theory_decide(key) {
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
        let (mut cx, s) = int_solver(3);
        let mut oracle = cx.solver.clone();
        let mut oracle_arena = TermArena::new();
        let x = s[0].clone();
        let y = s[1].clone();
        let (dpc, dgoal) = diverging_queries(&s);
        let queries: Vec<(Vec<SymExpr>, SymExpr)> = vec![
            (
                vec![SymExpr::le(x.clone(), y.clone())],
                SymExpr::lt(x.clone(), y.clone()),
            ),
            (
                vec![SymExpr::lt(x.clone(), y.clone())],
                SymExpr::le(x.clone(), y.clone()),
            ),
            (vec![], SymExpr::eq(x.clone(), x.clone())),
            (
                vec![
                    SymExpr::lt(x.clone(), SymExpr::int(0)),
                    SymExpr::lt(SymExpr::int(0), x.clone()),
                ],
                SymExpr::bool(false),
            ),
            (
                vec![],
                SymExpr::eq(
                    SymExpr::Mul(Box::new(x.clone()), Box::new(y.clone())),
                    SymExpr::int(3),
                ),
            ),
            (dpc, dgoal),
        ];
        for pass in ["search", "memo"] {
            for (pc, goal) in &queries {
                let expected = truth_table(&mut oracle, &mut oracle_arena, pc, goal)
                    .expect("every fixed query is small enough for the oracle");
                assert_eq!(
                    cx.entails(pc, goal),
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
    /// own facts; retained for a later query whose facts differ, it
    /// refuted a real model and turned `Invalid` into `Valid` (a case
    /// the stream oracle below found). Here `x = -4, y = 0, z = -2`
    /// satisfies the second query's path condition and violates its
    /// goal.
    #[test]
    fn lemmas_learned_under_one_querys_facts_stay_out_of_the_next() {
        let (mut cx, s) = int_solver(3);
        let (x, y, z) = (s[0].clone(), s[1].clone(), s[2].clone());
        let int = SymExpr::int;
        let first_pc = vec![
            SymExpr::le(
                SymExpr::add(x.clone(), y.clone()),
                SymExpr::add(y.clone(), SymExpr::mul(int(2), z.clone())),
            ),
            SymExpr::eq(
                int(2),
                SymExpr::add(SymExpr::mul(int(-2), y.clone()), z.clone()),
            ),
            SymExpr::or(
                SymExpr::le(y.clone(), SymExpr::add(y.clone(), int(3))),
                SymExpr::and(
                    SymExpr::le(
                        SymExpr::add(SymExpr::mul(int(2), z.clone()), x.clone()),
                        SymExpr::add(int(-6), y.clone()),
                    ),
                    SymExpr::eq(
                        SymExpr::add(int(5), y.clone()),
                        SymExpr::mul(int(2), z.clone()),
                    ),
                ),
            ),
        ];
        let first_goal = SymExpr::or(
            SymExpr::not(SymExpr::eq(
                SymExpr::add(int(4), SymExpr::mul(int(2), y.clone())),
                SymExpr::add(z.clone(), int(-2)),
            )),
            SymExpr::lt(
                SymExpr::add(z.clone(), SymExpr::mul(int(-2), z.clone())),
                int(6),
            ),
        );
        let second_pc = vec![
            SymExpr::or(
                SymExpr::eq(
                    SymExpr::add(SymExpr::mul(int(-2), z.clone()), y.clone()),
                    SymExpr::add(int(4), y.clone()),
                ),
                SymExpr::eq(
                    SymExpr::add(SymExpr::mul(int(-2), z.clone()), z.clone()),
                    int(-6),
                ),
            ),
            SymExpr::eq(
                SymExpr::add(SymExpr::mul(int(2), y.clone()), x.clone()),
                SymExpr::add(int(-2), z.clone()),
            ),
            SymExpr::or(
                SymExpr::not(SymExpr::lt(
                    x.clone(),
                    SymExpr::add(z.clone(), SymExpr::mul(int(2), z.clone())),
                )),
                SymExpr::le(
                    SymExpr::add(y.clone(), x.clone()),
                    SymExpr::add(SymExpr::mul(int(-1), x), y.clone()),
                ),
            ),
        ];
        let second_goal = SymExpr::lt(SymExpr::add(int(5), y), SymExpr::add(z.clone(), z));
        cx.entails(&first_pc, &first_goal);
        assert_eq!(cx.entails(&second_pc, &second_goal), Answer::Invalid);
    }

    /// Differential: on random linear streams, the solver answers every
    /// query as the truth-table oracle does. The generated fragment is
    /// linear arithmetic under the propositional connectives — exactly
    /// the domain of the theory layer. Each stream runs three times on
    /// one solver: solved, replayed from the memo, then re-solved with
    /// the memo cleared against every lemma the earlier passes
    /// retained.
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
                    let got = cdcl.entails_exprs(&mut arena, pc, goal);
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
        let mut supply = SymSupply::new();
        let mut solver = Solver::new();
        let syms: Vec<Sym> = (0..4).map(|_| supply.fresh()).collect();
        for s in &syms {
            solver.declare(*s, Sort::Ref);
        }
        let mut cx = Ctx {
            solver,
            arena: TermArena::new(),
        };
        let e: Vec<SymExpr> = syms.iter().map(|s| SymExpr::sym(*s)).collect();
        // A chain of equalities merges into one class: a=b ∧ b=c ∧ c=d
        // entails a=d through two intermediate merges.
        let pc = vec![
            SymExpr::eq(e[0].clone(), e[1].clone()),
            SymExpr::eq(e[1].clone(), e[2].clone()),
            SymExpr::eq(e[2].clone(), e[3].clone()),
        ];
        assert_eq!(
            cx.entails(&pc, &SymExpr::eq(e[0].clone(), e[3].clone())),
            Answer::Valid
        );
        // A disequality across the merged class is a theory conflict.
        let mut pc = pc;
        pc.push(SymExpr::not(SymExpr::eq(e[3].clone(), e[0].clone())));
        assert!(!cx.consistent(&pc));
        assert!(
            cx.solver.conflicts >= 1,
            "the diseq-in-class conflict should be counted"
        );
    }

    #[test]
    fn difference_bound_cycle_is_detected() {
        let (mut cx, s) = int_solver(3);
        let x = s[0].clone();
        let y = s[1].clone();
        let z = s[2].clone();
        // x < y ∧ y < z entails x < z; closing the cycle with z < x is
        // a negative-weight loop and must be inconsistent.
        let chain = vec![
            SymExpr::lt(x.clone(), y.clone()),
            SymExpr::lt(y.clone(), z.clone()),
        ];
        assert_eq!(
            cx.entails(&chain, &SymExpr::lt(x.clone(), z.clone())),
            Answer::Valid
        );
        let mut cycle = chain;
        cycle.push(SymExpr::lt(z, x));
        assert!(!cx.consistent(&cycle));
    }

    #[test]
    fn theory_propagation_prunes_diverging_search() {
        let (mut cx, s) = int_solver(4);
        let (pc, goal) = diverging_queries(&s);
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
        let (mut cx, s) = int_solver(3);
        let (pc, goal) = diverging_queries(&s);
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

    /// A truncated search leaves its conflict clauses behind: only a
    /// query that ran to its answer feeds the cross-query lemma set.
    #[test]
    fn fuel_truncated_queries_retain_no_lemmas() {
        let (mut full, s) = int_solver(4);
        let (pc, goal) = chained_orderings(&s);
        assert_eq!(full.entails(&pc, &goal), Answer::Valid);
        let retained = full.solver.learned.len();
        assert!(
            retained > 0 && retained < full.solver.lemmas_checked.len(),
            "a finished query keeps its theory lemmas and rejects the rest"
        );
        let fuel = (full.solver.conflicts + full.solver.propagations) as u64;

        let (mut starved, s) = int_solver(4);
        let (pc, goal) = chained_orderings(&s);
        starved.solver.fuel = Some(fuel / 2);
        assert_eq!(starved.entails(&pc, &goal), Answer::Unknown);
        assert!(
            starved.solver.learned_clauses > 0,
            "the truncated search learned"
        );
        assert!(starved.solver.learned.is_empty());
        assert!(starved.solver.lemmas_checked.is_empty());
    }

    #[test]
    fn deadline_exhausted_answers_are_not_cached() {
        let (mut cx, s) = int_solver(3);
        let (pc, goal) = diverging_queries(&s);
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
