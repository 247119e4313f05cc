//! Static stability analysis for IDF specifications.
//!
//! Runs after well-formedness and before translation/verification,
//! classifying every spec assertion (precondition, postcondition, loop
//! invariant) on a three-point lattice:
//!
//! ```text
//! Stable  <  FramedStable  <  Unstable
//! ```
//!
//! * **Stable** — the assertion never reads the heap outside `old(..)`:
//!   no interference can change its truth value, period.
//! * **FramedStable** — every heap read is covered by an `acc(..)`
//!   conjunct *in scope within the same assertion*: the permission
//!   frames the read, so no *other* thread can invalidate it while the
//!   assertion is held. Permission introspection (`perm(..)` atoms)
//!   also lands here: `perm` is stable under interference from frames
//!   the environment cannot shrink, but not under arbitrary
//!   strengthening — it breaks frame *monotonicity*, not stability.
//! * **Unstable** — some heap read has no covering permission in scope;
//!   a concurrent writer could change the value mid-proof. These are
//!   exactly the assertions the paper's destabilized logic admits and a
//!   stable logic must encode away.
//!
//! The classification is a pure AST walk (deterministic, no solver),
//! with per-subterm provenance recorded as [`Finding`]s: which read is
//! uncovered (with a fix hint), which `perm(..)` atom caps the class at
//! framed-stable, which `old(..)` shields the reads beneath it.
//!
//! Two consumers:
//!
//! * [`crate::exec`] skips the stable baseline's witness-invalidation
//!   scans for witnesses minted under non-`Unstable` assertions
//!   (counted as `stability_skips`) and gates `--deny-unstable`;
//! * the cross-validation helpers at the bottom tie this syntactic
//!   layer to the semantic oracle
//!   [`daenerys_core::stability::syntactically_stable`] over the shared
//!   [`crate::translate`] encoding, so the two layers cannot drift.

use crate::ast::{Assertion, Expr, Method, Program, Span, Stmt};
use crate::translate::{translate_assertion, TEnv, TranslateError};
use std::collections::HashSet;
use std::fmt;

/// The three-point stability lattice, ordered `Stable < FramedStable <
/// Unstable`; the class of a compound assertion is the join (max) of
/// its parts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum StabilityClass {
    /// No heap reads outside `old(..)` — interference-free.
    Stable,
    /// Every heap read is covered by an in-scope `acc`, or the
    /// assertion introspects permissions — stable while the frame is
    /// held, but not frame-monotone.
    FramedStable,
    /// Some heap read has no covering permission in scope.
    Unstable,
}

impl fmt::Display for StabilityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StabilityClass::Stable => write!(f, "stable"),
            StabilityClass::FramedStable => write!(f, "framed-stable"),
            StabilityClass::Unstable => write!(f, "unstable"),
        }
    }
}

/// What a [`Finding`] points at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FindingKind {
    /// A heap read with no covering `acc` in scope — the subterm that
    /// makes the assertion unstable.
    UncoveredRead,
    /// A `perm(..)` atom — permission introspection breaks frame
    /// monotonicity, capping the class at framed-stable.
    PermAtom,
    /// An `old(..)` wrapper — pre-state values are fixed, so the reads
    /// beneath it cannot be invalidated.
    OldShield,
}

/// Per-subterm provenance: one noteworthy subterm of a classified
/// assertion, with its source span and (for uncovered reads) a fix
/// hint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// What kind of subterm this is.
    pub kind: FindingKind,
    /// The subterm, pretty-printed (`c.val`, the contents of the
    /// `old(..)`, the location under `perm(..)`).
    pub subject: String,
    /// Source position of the subterm (`Span::NONE` for synthesized
    /// nodes).
    pub span: Span,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.is_known() {
            write!(f, "at {}: ", self.span)?;
        }
        match self.kind {
            FindingKind::UncoveredRead => write!(
                f,
                "heap read `{s}` has no covering permission in scope; \
                 precede `{s}` with `acc({s}, _)` or wrap it in `old(..)`",
                s = self.subject
            ),
            FindingKind::PermAtom => write!(
                f,
                "`perm({})` introspects permissions, which is not \
                 frame-monotone; the assertion is at best framed-stable",
                self.subject
            ),
            FindingKind::OldShield => write!(
                f,
                "`old({})` shields its heap reads: pre-state values \
                 cannot be invalidated by interference",
                self.subject
            ),
        }
    }
}

/// The result of classifying one assertion: its lattice class plus the
/// provenance findings that produced it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Classification {
    /// Join of the classes of all subterms.
    pub class: StabilityClass,
    /// Per-subterm provenance, in left-to-right source order.
    pub findings: Vec<Finding>,
}

/// The in-scope permission cover: receiver/field pairs of `acc`
/// conjuncts, borrowed from the assertion. Matching is structural
/// expression equality (spans never participate in equality or
/// hashing, so positions do not matter).
type Cover<'a> = HashSet<(&'a Expr, &'a str)>;

fn covers(cover: &Cover, recv: &Expr, field: &str) -> bool {
    cover.contains(&(recv, field))
}

/// Collects the `acc` conjuncts of an assertion into the cover.
/// Descends through `And` only: an `acc` under `==>` covers reads in
/// its own branch (handled by [`classify_in`]), not its siblings.
fn accs_of<'a>(a: &'a Assertion, out: &mut Cover<'a>) {
    match a {
        Assertion::Acc(r, f, _) => {
            out.insert((r, f));
        }
        Assertion::And(p, q) => {
            accs_of(p, out);
            accs_of(q, out);
        }
        Assertion::Expr(_) | Assertion::Implies(..) => {}
    }
}

/// The non-`And` conjuncts of an assertion, left to right.
fn conjuncts_of<'a>(a: &'a Assertion, out: &mut Vec<&'a Assertion>) {
    match a {
        Assertion::And(p, q) => {
            conjuncts_of(p, out);
            conjuncts_of(q, out);
        }
        _ => out.push(a),
    }
}

/// Classifies a spec assertion against the empty outer cover: the
/// assertion must frame its own reads. See the module docs for the
/// lattice and [`Finding`] for the provenance records.
pub fn classify(a: &Assertion) -> Classification {
    let mut findings = Vec::new();
    let class = classify_in(a, &Cover::new(), &mut findings);
    Classification { class, findings }
}

fn classify_in<'a>(
    a: &'a Assertion,
    outer: &Cover<'a>,
    findings: &mut Vec<Finding>,
) -> StabilityClass {
    match a {
        Assertion::Expr(e) => classify_expr(e, outer, findings),
        // The predicate itself contributes framed-stability (it *is*
        // the frame); its receiver is read to locate the cell and must
        // be covered like any other read.
        Assertion::Acc(recv, _, _) => {
            classify_expr(recv, outer, findings).max(StabilityClass::FramedStable)
        }
        // Conjunction is order-independent: `x.f > 0 && acc(x.f)`
        // frames the read just as well as the flipped form, so every
        // conjunct of the maximal conjunction sees the accs gathered
        // from all of them. The cover is built once for the whole
        // conjunction; a nested `&&` would only re-add the same accs.
        Assertion::And(..) => {
            let mut cover = outer.clone();
            accs_of(a, &mut cover);
            let mut conjuncts = Vec::new();
            conjuncts_of(a, &mut conjuncts);
            conjuncts
                .into_iter()
                .fold(StabilityClass::Stable, |class, c| {
                    class.max(classify_in(c, &cover, findings))
                })
        }
        // The condition is evaluated before the branch's permissions
        // exist, so it sees only the outer cover; the body additionally
        // frames itself.
        Assertion::Implies(cond, body) => {
            let c = classify_expr(cond, outer, findings);
            let mut cover = outer.clone();
            accs_of(body, &mut cover);
            c.max(classify_in(body, &cover, findings))
        }
    }
}

fn classify_expr(e: &Expr, cover: &Cover, findings: &mut Vec<Finding>) -> StabilityClass {
    match e {
        Expr::Int(_) | Expr::Bool(_) | Expr::Null | Expr::Var(_) => StabilityClass::Stable,
        Expr::Field(recv, f, at) => {
            let inner = classify_expr(recv, cover, findings);
            if covers(cover, recv, f) {
                inner.max(StabilityClass::FramedStable)
            } else {
                findings.push(Finding {
                    kind: FindingKind::UncoveredRead,
                    subject: format!("{}.{}", recv, f),
                    span: *at,
                });
                StabilityClass::Unstable
            }
        }
        // `old(..)` fixes pre-state values: nothing beneath it can be
        // invalidated, whatever it reads.
        Expr::Old(inner, at) => {
            findings.push(Finding {
                kind: FindingKind::OldShield,
                subject: inner.to_string(),
                span: *at,
            });
            StabilityClass::Stable
        }
        Expr::Perm(recv, f, at) => {
            findings.push(Finding {
                kind: FindingKind::PermAtom,
                subject: format!("{}.{}", recv, f),
                span: *at,
            });
            classify_expr(recv, cover, findings).max(StabilityClass::FramedStable)
        }
        Expr::Bin(_, a, b) => {
            classify_expr(a, cover, findings).max(classify_expr(b, cover, findings))
        }
        Expr::Not(a) | Expr::Neg(a) => classify_expr(a, cover, findings),
        Expr::Cond(c, t, e) => classify_expr(c, cover, findings)
            .max(classify_expr(t, cover, findings))
            .max(classify_expr(e, cover, findings)),
    }
}

/// Which spec position an analyzed assertion sits in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpecSite {
    /// A method precondition.
    Requires,
    /// A method postcondition.
    Ensures,
    /// The invariant of the `n`-th loop of the method body (in
    /// source order, counting nested loops).
    Invariant(usize),
}

impl fmt::Display for SpecSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecSite::Requires => write!(f, "precondition"),
            SpecSite::Ensures => write!(f, "postcondition"),
            SpecSite::Invariant(i) => write!(f, "loop invariant #{}", i),
        }
    }
}

/// One classified spec assertion of a method.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpecVerdict {
    /// The enclosing method.
    pub method: String,
    /// Where the assertion sits.
    pub site: SpecSite,
    /// Its lattice class.
    pub class: StabilityClass,
    /// Provenance findings (see [`Finding`]).
    pub findings: Vec<Finding>,
}

/// The verdict as a diagnostic lint: one headline, then one line per
/// finding — each with its source span and, for uncovered reads, a
/// fix hint.
impl fmt::Display for SpecVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stability: {} of method {} is {}",
            self.site, self.method, self.class
        )?;
        for finding in &self.findings {
            write!(f, "\n  - {}", finding)?;
        }
        Ok(())
    }
}

/// Classifies every spec assertion of a method: the precondition, the
/// postcondition, and each loop invariant (including loops nested in
/// `if`/`while` bodies), in source order.
pub fn analyze_method(method: &Method) -> Vec<SpecVerdict> {
    let mut out = Vec::new();
    let push = |site: SpecSite, a: &Assertion, out: &mut Vec<SpecVerdict>| {
        let c = classify(a);
        out.push(SpecVerdict {
            method: method.name.clone(),
            site,
            class: c.class,
            findings: c.findings,
        });
    };
    push(SpecSite::Requires, &method.requires, &mut out);
    push(SpecSite::Ensures, &method.ensures, &mut out);
    let mut loop_ix = 0usize;
    if let Some(body) = &method.body {
        collect_invariants(body, &mut loop_ix, &mut |ix, inv| {
            push(SpecSite::Invariant(ix), inv, &mut out);
        });
    }
    out
}

fn collect_invariants(stmts: &[Stmt], ix: &mut usize, f: &mut impl FnMut(usize, &Assertion)) {
    for s in stmts {
        match s {
            Stmt::While(_, inv, body) => {
                let here = *ix;
                *ix += 1;
                f(here, inv);
                collect_invariants(body, ix, f);
            }
            Stmt::If(_, t, e) => {
                collect_invariants(t, ix, f);
                collect_invariants(e, ix, f);
            }
            _ => {}
        }
    }
}

/// [`analyze_method`] over every method of a program, in declaration
/// order.
pub fn analyze_program(program: &Program) -> Vec<SpecVerdict> {
    program.methods.iter().flat_map(analyze_method).collect()
}

/// Cross-validates the classifier against the semantic oracle on the
/// shared [`crate::translate`] encoding:
///
/// * `Stable` claims no read survives translation, so
///   [`daenerys_core::stability::syntactically_stable`] must accept;
/// * `Unstable` claims an uncovered read survives as a `!ℓ` term, so
///   the oracle must reject;
/// * `FramedStable` makes no *syntactic* claim — the translation of
///   `acc` contains a `wd(!ℓ)` the syntactic oracle rejects, while a
///   pure `perm` comparison translates to introspection it accepts;
///   the semantic side (`check_stable` on the framed strengthening) is
///   exercised in the test suite instead.
///
/// The assertion must be translatable: `old`-free (use
/// [`crate::translate::strip_old`] first) with variable receivers.
/// Uncovered reads then always survive translation in value position,
/// which is what makes the `Unstable` direction sound.
///
/// # Errors
///
/// Propagates [`TranslateError`] for untranslatable assertions.
pub fn agrees_with_oracle(
    prog: &Program,
    env: &TEnv,
    a: &Assertion,
) -> Result<bool, TranslateError> {
    let p = translate_assertion(prog, env, a)?;
    let syn = daenerys_core::stability::syntactically_stable(&p);
    Ok(match classify(a).class {
        StabilityClass::Stable => syn,
        StabilityClass::FramedStable => true,
        StabilityClass::Unstable => !syn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Op, Span};
    use crate::cases::{all_cases, chain_program, diverging_program, scaling_program};
    use crate::compile::{alloc_object, ConcreteVal};
    use crate::parser::{parse_assertion, parse_program};
    use crate::translate::env_of;

    fn classify_src(src: &str) -> Classification {
        classify(&parse_assertion(src).unwrap())
    }

    #[test]
    fn lattice_is_ordered() {
        assert!(StabilityClass::Stable < StabilityClass::FramedStable);
        assert!(StabilityClass::FramedStable < StabilityClass::Unstable);
    }

    #[test]
    fn heap_free_is_stable() {
        let c = classify_src("x > 0 && (b ==> y == x + 1)");
        assert_eq!(c.class, StabilityClass::Stable);
        assert!(c.findings.is_empty());
    }

    #[test]
    fn covered_read_is_framed_stable_both_orders() {
        for src in ["acc(c.val) && c.val > 0", "c.val > 0 && acc(c.val)"] {
            let c = classify_src(src);
            assert_eq!(c.class, StabilityClass::FramedStable, "{}", src);
            assert!(c.findings.is_empty(), "{}", src);
        }
    }

    #[test]
    fn uncovered_read_is_unstable_with_hint() {
        let c = classify_src("acc(c.val) && d.val > 0");
        assert_eq!(c.class, StabilityClass::Unstable);
        assert_eq!(c.findings.len(), 1);
        let f = &c.findings[0];
        assert_eq!(f.kind, FindingKind::UncoveredRead);
        assert_eq!(f.subject, "d.val");
        let msg = f.to_string();
        assert!(msg.contains("acc(d.val, _)"), "{}", msg);
        assert!(msg.contains("old(..)"), "{}", msg);
    }

    #[test]
    fn parsed_spans_reach_findings() {
        // Parse a whole program so the positions are real.
        let prog = parse_program(
            "field val: Int\nmethod m(d: Ref)\n  requires d.val > 0\n  ensures true\n",
        )
        .unwrap();
        let c = classify(&prog.methods[0].requires);
        assert_eq!(c.class, StabilityClass::Unstable);
        assert!(c.findings[0].span.is_known());
        assert!(c.findings[0].to_string().starts_with("at 3:"));
    }

    #[test]
    fn old_shields_reads() {
        let c = classify_src("old(c.val) >= 0");
        assert_eq!(c.class, StabilityClass::Stable);
        assert_eq!(c.findings.len(), 1);
        assert_eq!(c.findings[0].kind, FindingKind::OldShield);
    }

    #[test]
    fn perm_atom_caps_at_framed_stable() {
        let c = classify_src("perm(c.val) >= 1/2");
        assert_eq!(c.class, StabilityClass::FramedStable);
        assert_eq!(c.findings.len(), 1);
        assert_eq!(c.findings[0].kind, FindingKind::PermAtom);
        assert_eq!(c.findings[0].subject, "c.val");
    }

    #[test]
    fn implies_body_frames_itself_but_not_the_condition() {
        // The acc under the implication covers the body's read…
        let c = classify_src("(go ==> (acc(c.val) && c.val == 0))");
        assert_eq!(c.class, StabilityClass::FramedStable);
        // …but not a read in the condition.
        let c = classify_src("(c.val > 0 ==> (acc(c.val) && c.val == 0))");
        assert_eq!(c.class, StabilityClass::Unstable);
        assert!(c
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::UncoveredRead));
    }

    #[test]
    fn nested_receivers_need_their_own_cover() {
        // Both the inner pointer and the pointed-to cell are framed.
        let c = classify_src("acc(x.next) && acc(x.next.val) && x.next.val == 0");
        assert_eq!(c.class, StabilityClass::FramedStable);
        // Without acc(x.next) the receiver read is uncovered — even to
        // locate the acc's own cell.
        let c = classify_src("acc(x.next.val) && x.next.val == 0");
        assert_eq!(c.class, StabilityClass::Unstable);
        assert!(c.findings.iter().any(|f| f.subject == "x.next"));
    }

    #[test]
    fn join_is_max_across_conjuncts() {
        let c = classify_src("acc(c.val) && c.val > 0 && d.val > 0");
        assert_eq!(c.class, StabilityClass::Unstable);
        let uncovered: Vec<_> = c
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::UncoveredRead)
            .collect();
        assert_eq!(uncovered.len(), 1);
        assert_eq!(uncovered[0].subject, "d.val");
    }

    #[test]
    fn analyze_method_walks_nested_invariants() {
        let prog = parse_program(
            "field v: Int
             method m(c: Ref, n: Int)
               requires acc(c.v)
               ensures acc(c.v)
             {
               var i: Int := 0;
               while (i < n) invariant acc(c.v) && i <= n {
                 if (i > 0) {
                   while (false) invariant c.v > 0 { i := i }
                 };
                 i := i + 1
               }
             }",
        )
        .unwrap();
        let vs = analyze_method(&prog.methods[0]);
        assert_eq!(vs.len(), 4);
        assert_eq!(vs[0].site, SpecSite::Requires);
        assert_eq!(vs[1].site, SpecSite::Ensures);
        assert_eq!(vs[2].site, SpecSite::Invariant(0));
        assert_eq!(vs[2].class, StabilityClass::FramedStable);
        assert_eq!(vs[3].site, SpecSite::Invariant(1));
        // The nested invariant reads c.v without framing it.
        assert_eq!(vs[3].class, StabilityClass::Unstable);
        let lint = vs[3].to_string();
        assert!(lint.contains("unstable"), "{}", lint);
        assert!(lint.contains("loop invariant #1"), "{}", lint);
    }

    /// Acceptance criterion: on the verification corpus every framed
    /// assertion classifies as (framed-)stable — zero false positives.
    /// Contracts in this corpus always carry the permissions they read
    /// under, so an `Unstable` verdict would be a classifier bug.
    #[test]
    fn corpus_specs_never_classify_unstable() {
        let mut programs: Vec<(String, Program)> = all_cases()
            .into_iter()
            .map(|c| (c.name.to_string(), c.program()))
            .collect();
        for n in [1, 4, 9] {
            programs.push((format!("scaling_{}", n), scaling(&scaling_program(n))));
            programs.push((format!("chain_{}", n), scaling(&chain_program(n))));
            programs.push((format!("diverging_{}", n), scaling(&diverging_program(n))));
        }
        for (name, prog) in &programs {
            for v in analyze_program(prog) {
                assert_ne!(
                    v.class,
                    StabilityClass::Unstable,
                    "{}: {} of {} classified unstable:\n{}",
                    name,
                    v.site,
                    v.method,
                    v
                );
            }
        }
    }

    fn scaling(src: &str) -> Program {
        parse_program(src).unwrap()
    }

    #[test]
    fn oracle_agreement_on_handcrafted_assertions() {
        let prog = parse_program(
            "field val: Int
             method m(c: Ref) requires acc(c.val) ensures acc(c.val) { }",
        )
        .unwrap();
        let mut heap = daenerys_heaplang::Heap::new();
        let obj = alloc_object(&prog, &mut heap, &[7]);
        let env = env_of(&[("c", ConcreteVal::Obj(obj)), ("n", ConcreteVal::Int(3))]);
        for src in [
            "n > 0",                     // stable ⇒ oracle accepts
            "c.val == 7",                // unstable ⇒ oracle rejects
            "acc(c.val) && c.val == 7",  // framed ⇒ no syntactic claim
            "perm(c.val) >= 1/2",        // framed ⇒ no syntactic claim
            "(n > 0 ==> c.val == 7)",    // unstable under a guard
            "acc(c.val, 1/2) && n == 3", // framed, read-free pure part
        ] {
            let a = parse_assertion(src).unwrap();
            assert!(
                agrees_with_oracle(&prog, &env, &a).unwrap(),
                "classifier/oracle drift on {:?} (class {})",
                src,
                classify(&a).class
            );
        }
    }

    #[test]
    fn stable_classification_is_semantically_stable() {
        // `Stable` is the strongest claim: the translated assertion
        // must pass the *semantic* bounded stability check, not just
        // the syntactic oracle.
        use daenerys_core::{check_stable, UniverseSpec};
        let prog = parse_program(
            "field val: Int
             method m(c: Ref) requires acc(c.val) ensures acc(c.val) { }",
        )
        .unwrap();
        let mut heap = daenerys_heaplang::Heap::new();
        let obj = alloc_object(&prog, &mut heap, &[1]);
        let env = env_of(&[("c", ConcreteVal::Obj(obj)), ("n", ConcreteVal::Int(2))]);
        let uni = UniverseSpec::tiny().build();
        for src in ["n > 0", "n == 2 && (true ==> n < 5)", "old(c.val) >= 0"] {
            let a = parse_assertion(src).unwrap();
            assert_eq!(classify(&a).class, StabilityClass::Stable, "{}", src);
            let stripped = crate::translate::strip_old(&prog, &env, &heap, &a).unwrap();
            let p = translate_assertion(&prog, &env, &stripped).unwrap();
            assert!(
                check_stable(&p, &uni, 2).is_ok(),
                "{} not semantically stable",
                src
            );
        }
    }

    #[test]
    fn findings_render_all_three_kinds() {
        let c = classify_src("acc(c.val) && perm(c.val) >= 1/2 && old(d.val) == 0 && e.val > 0");
        assert_eq!(c.class, StabilityClass::Unstable);
        let kinds: Vec<FindingKind> = c.findings.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&FindingKind::PermAtom));
        assert!(kinds.contains(&FindingKind::OldShield));
        assert!(kinds.contains(&FindingKind::UncoveredRead));
        // Binary-op shorthand sanity: the walk visits both sides.
        let c = classify(&Assertion::Expr(Expr::bin(
            Op::And,
            Expr::field(Expr::var("a"), "val"),
            Expr::field(Expr::var("b"), "val"),
        )));
        assert_eq!(
            c.findings
                .iter()
                .filter(|f| f.kind == FindingKind::UncoveredRead)
                .count(),
            2
        );
    }

    /// The recursive classifier this module used before the cover was
    /// built once per maximal conjunction: every `&&` node rebuilds its
    /// cover from the outer one. Kept as the reference the property
    /// below compares against.
    mod reference {
        use super::super::{Classification, Finding, FindingKind, StabilityClass};
        use crate::ast::{Assertion, Expr};

        type Cover = Vec<(Expr, String)>;

        fn covers(cover: &Cover, recv: &Expr, field: &str) -> bool {
            cover.iter().any(|(r, f)| f == field && r == recv)
        }

        fn accs_of(a: &Assertion, out: &mut Cover) {
            match a {
                Assertion::Acc(r, f, _) => out.push((r.clone(), f.clone())),
                Assertion::And(p, q) => {
                    accs_of(p, out);
                    accs_of(q, out);
                }
                Assertion::Expr(_) | Assertion::Implies(..) => {}
            }
        }

        pub(super) fn classify(a: &Assertion) -> Classification {
            let mut findings = Vec::new();
            let class = classify_in(a, &Vec::new(), &mut findings);
            Classification { class, findings }
        }

        fn classify_in(
            a: &Assertion,
            outer: &Cover,
            findings: &mut Vec<Finding>,
        ) -> StabilityClass {
            match a {
                Assertion::Expr(e) => classify_expr(e, outer, findings),
                Assertion::Acc(recv, _, _) => {
                    classify_expr(recv, outer, findings).max(StabilityClass::FramedStable)
                }
                Assertion::And(p, q) => {
                    let mut cover = outer.clone();
                    accs_of(p, &mut cover);
                    accs_of(q, &mut cover);
                    classify_in(p, &cover, findings).max(classify_in(q, &cover, findings))
                }
                Assertion::Implies(cond, body) => {
                    let c = classify_expr(cond, outer, findings);
                    let mut cover = outer.clone();
                    accs_of(body, &mut cover);
                    c.max(classify_in(body, &cover, findings))
                }
            }
        }

        fn classify_expr(e: &Expr, cover: &Cover, findings: &mut Vec<Finding>) -> StabilityClass {
            match e {
                Expr::Int(_) | Expr::Bool(_) | Expr::Null | Expr::Var(_) => StabilityClass::Stable,
                Expr::Field(recv, f, at) => {
                    let inner = classify_expr(recv, cover, findings);
                    if covers(cover, recv, f) {
                        inner.max(StabilityClass::FramedStable)
                    } else {
                        findings.push(Finding {
                            kind: FindingKind::UncoveredRead,
                            subject: format!("{}.{}", recv, f),
                            span: *at,
                        });
                        StabilityClass::Unstable
                    }
                }
                Expr::Old(inner, at) => {
                    findings.push(Finding {
                        kind: FindingKind::OldShield,
                        subject: inner.to_string(),
                        span: *at,
                    });
                    StabilityClass::Stable
                }
                Expr::Perm(recv, f, at) => {
                    findings.push(Finding {
                        kind: FindingKind::PermAtom,
                        subject: format!("{}.{}", recv, f),
                        span: *at,
                    });
                    classify_expr(recv, cover, findings).max(StabilityClass::FramedStable)
                }
                Expr::Bin(_, a, b) => {
                    classify_expr(a, cover, findings).max(classify_expr(b, cover, findings))
                }
                Expr::Not(a) | Expr::Neg(a) => classify_expr(a, cover, findings),
                Expr::Cond(c, t, e) => classify_expr(c, cover, findings)
                    .max(classify_expr(t, cover, findings))
                    .max(classify_expr(e, cover, findings)),
            }
        }
    }

    /// Receivers and fields drawn from small alphabets, so covers hit
    /// and miss often.
    fn arb_receiver() -> impl proptest::strategy::Strategy<Value = Expr> {
        use proptest::prelude::*;
        prop_oneof![
            Just(Expr::var("x")),
            Just(Expr::var("y")),
            Just(Expr::field(Expr::var("x"), "next")),
        ]
    }

    fn arb_expr() -> impl proptest::strategy::Strategy<Value = Expr> {
        use proptest::prelude::*;
        let field = prop_oneof![Just("val"), Just("next")];
        (arb_receiver(), field, 0..5u8).prop_map(|(r, f, kind)| {
            let read = Expr::field(r.clone(), f);
            match kind {
                0 => Expr::bin(Op::Gt, read, Expr::Int(0)),
                1 => Expr::bin(Op::Eq, Expr::Old(Box::new(read), Span::NONE), Expr::Int(0)),
                2 => Expr::bin(
                    Op::Ge,
                    Expr::Perm(Box::new(r), f.to_string(), Span::NONE),
                    Expr::Int(1),
                ),
                3 => Expr::Cond(
                    Box::new(Expr::var("b")),
                    Box::new(read),
                    Box::new(Expr::Int(1)),
                ),
                _ => Expr::bin(Op::Gt, Expr::var("n"), Expr::Int(0)),
            }
        })
    }

    fn arb_assertion() -> impl proptest::strategy::Strategy<Value = Assertion> {
        use proptest::prelude::*;
        let field = prop_oneof![Just("val"), Just("next")];
        let leaf = prop_oneof![
            arb_expr().prop_map(Assertion::Expr),
            (arb_receiver(), field).prop_map(|(r, f)| Assertion::acc(r, f)),
        ];
        leaf.prop_recursive(6, 48, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Assertion::and(a, b)),
                (arb_expr(), inner).prop_map(|(c, a)| Assertion::Implies(c, Box::new(a))),
            ]
        })
    }

    proptest::proptest! {
        /// One cover per maximal conjunction classifies exactly as the
        /// per-node recursion did: the same class, and the same
        /// findings in the same order.
        #[test]
        fn one_cover_per_conjunction_matches_the_recursive_classifier(a in arb_assertion()) {
            proptest::prop_assert_eq!(classify(&a), reference::classify(&a));
        }
    }

    /// `scaling_program(n)`'s contract, built directly: the parser
    /// refuses `&&` chains taller than `MAX_NESTING`.
    fn scaling_contract(n: usize) -> (Assertion, Assertion) {
        let cell = |i: usize| Expr::var(&format!("c{}", i));
        let requires = Assertion::all((0..n).map(|i| Assertion::acc(cell(i), "v")));
        let ensures = Assertion::all((0..n).flat_map(|i| {
            let now = Expr::field(cell(i), "v");
            let then = Expr::Old(Box::new(Expr::field(cell(i), "v")), Span::NONE);
            [
                Assertion::acc(cell(i), "v"),
                Assertion::Expr(Expr::bin(
                    Op::Eq,
                    now,
                    Expr::bin(Op::Add, then, Expr::Int(1)),
                )),
            ]
        }));
        (requires, ensures)
    }

    #[test]
    fn scaling_contract_matches_the_parsed_one() {
        let parsed = parse_program(&scaling_program(4)).unwrap();
        let (requires, ensures) = scaling_contract(4);
        assert_eq!(parsed.methods[0].requires, requires);
        assert_eq!(parsed.methods[0].ensures, ensures);
    }

    /// A wide contract classifies in time linear in its width: one
    /// cover for the whole conjunction, no per-node rebuild.
    #[test]
    fn a_thousand_cell_contract_classifies_quickly() {
        let (requires, ensures) = scaling_contract(1000);
        let started = std::time::Instant::now();
        let pre = classify(&requires);
        let post = classify(&ensures);
        let elapsed = started.elapsed();
        assert_eq!(pre.class, StabilityClass::FramedStable);
        assert_eq!(post.class, StabilityClass::FramedStable);
        assert_eq!(post.findings.len(), 1000, "one old(..) shield per cell");
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "classifying 3000 conjuncts took {:?}",
            elapsed
        );
    }
}
