//! Translation of IDF assertions into the destabilized base logic.
//!
//! This is the semantic bridge the paper builds: the assertion language
//! of an automated IDF verifier *elaborates directly* into Daenerys
//! propositions — `acc(x.f, q)` becomes a fractional points-to, a
//! heap-dependent boolean expression becomes a pure assertion over heap
//! reads, and `perm(x.f) ⋈ q` becomes permission introspection. In
//! stable Iris no such direct translation exists (heap reads would have
//! to become existential witnesses).
//!
//! The translation is *concrete*: it is defined relative to an
//! environment mapping IDF variables to runtime values (objects =
//! field-cell tuples), which is exactly the shape under which the
//! dynamic oracle of [`crate::compile`] operates. The integration suite
//! uses it to check that method contracts, read as Daenerys assertions,
//! hold in the monitored worlds of executed programs.

use crate::ast::{Assertion, Expr, Op, Program};
use crate::compile::{ConcreteObj, ConcreteVal};
use daenerys_algebra::DFrac;
use daenerys_core::{Assert, Term};
use daenerys_heaplang::Loc;
use std::collections::BTreeMap;
use std::fmt;

/// A translation failure (constructs with no concrete counterpart).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TranslateError(pub String);

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "translation error: {}", self.0)
    }
}

impl std::error::Error for TranslateError {}

fn err<T>(m: impl Into<String>) -> Result<T, TranslateError> {
    Err(TranslateError(m.into()))
}

/// The concrete environment the translation is relative to.
pub type TEnv = BTreeMap<String, ConcreteVal>;

/// Resolves the cell location of `recv.field` in the environment.
fn field_loc(prog: &Program, env: &TEnv, recv: &Expr, field: &str) -> Result<Loc, TranslateError> {
    let obj = match eval_ref(env, recv)? {
        ConcreteVal::Obj(o) => o,
        v => return err(format!("receiver {} is not an object ({:?})", recv, v)),
    };
    let idx = prog
        .fields
        .iter()
        .position(|(f, _)| f == field)
        .ok_or_else(|| TranslateError(format!("unknown field {}", field)))?;
    Ok(obj.cells[idx])
}

/// Evaluates a reference-typed expression in the environment (only
/// variables denote objects in the concrete fragment).
fn eval_ref(env: &TEnv, e: &Expr) -> Result<ConcreteVal, TranslateError> {
    match e {
        Expr::Var(x) => env
            .get(x)
            .cloned()
            .ok_or_else(|| TranslateError(format!("unbound variable {}", x))),
        _ => err(format!("unsupported reference expression {}", e)),
    }
}

/// Translates an IDF expression to a logic [`Term`].
///
/// Field reads become heap reads `!ℓ` of the resolved cell — the
/// destabilized translation. `old(…)` has no in-formula counterpart (the
/// logic's triples relate two worlds); callers substitute pre-state
/// values first via [`strip_old`].
///
/// # Errors
///
/// Returns [`TranslateError`] for `old`, `perm` outside comparisons, or
/// unresolvable receivers.
pub fn translate_expr(prog: &Program, env: &TEnv, e: &Expr) -> Result<Term, TranslateError> {
    Ok(match e {
        Expr::Int(n) => Term::int(*n),
        Expr::Bool(b) => Term::bool(*b),
        Expr::Null => return err("null has no term translation"),
        Expr::Var(x) => match env.get(x) {
            Some(ConcreteVal::Int(n)) => Term::int(*n),
            Some(ConcreteVal::Bool(b)) => Term::bool(*b),
            Some(ConcreteVal::Obj(_)) => {
                return err(format!("object variable {} used as a value", x))
            }
            None => return err(format!("unbound variable {}", x)),
        },
        Expr::Field(recv, f, _) => {
            let l = field_loc(prog, env, recv, f)?;
            Term::read(Term::loc(l))
        }
        Expr::Old(..) => return err("old(…) must be substituted before translation"),
        Expr::Perm(..) => return err("perm(…) translates at the assertion level"),
        Expr::Bin(op, a, b) => {
            let ta = translate_expr(prog, env, a)?;
            let tb = translate_expr(prog, env, b)?;
            match op {
                Op::Add => Term::add(ta, tb),
                Op::Sub => Term::sub(ta, tb),
                Op::Mul => Term::mul(ta, tb),
                Op::Div => return err("division has no term translation"),
                Op::Eq => Term::eq(ta, tb),
                Op::Ne => Term::Not(Box::new(Term::eq(ta, tb))),
                Op::Lt => Term::lt(ta, tb),
                Op::Le => Term::le(ta, tb),
                Op::Gt => Term::lt(tb, ta),
                Op::Ge => Term::le(tb, ta),
                Op::And => Term::And(Box::new(ta), Box::new(tb)),
                Op::Or => Term::Or(Box::new(ta), Box::new(tb)),
            }
        }
        Expr::Not(a) => Term::Not(Box::new(translate_expr(prog, env, a)?)),
        Expr::Neg(a) => Term::sub(Term::int(0), translate_expr(prog, env, a)?),
        Expr::Cond(..) => return err("conditional expressions: translate per branch"),
    })
}

/// Translates an IDF assertion to a Daenerys [`Assert`].
///
/// * `acc(x.f, q)` ⇒ `ℓ ↦{q} !ℓ`-style ownership: since the chunk value
///   is unknown at translation time, ownership is rendered as
///   `∃-free` permission introspection plus well-definedness:
///   `perm(ℓ) ≥ q ∧ wd(!ℓ)` — which over monitored worlds coincides
///   with holding the chunk;
/// * heap-dependent booleans ⇒ `⌜translated term⌝`;
/// * `perm(e.f) ⋈ q` comparisons ⇒ [`Assert::PermGe`]/[`Assert::PermEq`]
///   forms where expressible;
/// * `&&` ⇒ `∧` (IDF conjunction separates permissions, but over
///   *translated introspective* ownership the conjunctive reading is the
///   faithful one — see DESIGN.md §4.5 on self-framing being
///   conjunctive).
///
/// # Errors
///
/// Propagates [`TranslateError`] from expression translation.
pub fn translate_assertion(
    prog: &Program,
    env: &TEnv,
    a: &Assertion,
) -> Result<Assert, TranslateError> {
    Ok(match a {
        Assertion::Expr(e) => {
            if let Some(p) = translate_perm_comparison(prog, env, e)? {
                p
            } else {
                Assert::Pure(translate_expr(prog, env, e)?)
            }
        }
        Assertion::Acc(recv, field, q) => {
            let l = field_loc(prog, env, recv, field)?;
            Assert::and(
                Assert::PermGe(Term::loc(l), *q),
                Assert::WellDef(Term::read(Term::loc(l))),
            )
        }
        Assertion::And(p, q) => Assert::and(
            translate_assertion(prog, env, p)?,
            translate_assertion(prog, env, q)?,
        ),
        Assertion::Implies(c, body) => Assert::impl_(
            Assert::Pure(translate_expr(prog, env, c)?),
            translate_assertion(prog, env, body)?,
        ),
    })
}

/// Recognizes `perm(e.f) ⋈ fraction` and translates it to introspection.
fn translate_perm_comparison(
    prog: &Program,
    env: &TEnv,
    e: &Expr,
) -> Result<Option<Assert>, TranslateError> {
    let Expr::Bin(op, a, b) = e else {
        return Ok(None);
    };
    let (perm, lit, flipped) = match (&**a, &**b) {
        (Expr::Perm(r, f, _), rhs) => ((r, f), rhs, false),
        (lhs, Expr::Perm(r, f, _)) => ((r, f), lhs, true),
        _ => return Ok(None),
    };
    let q = match crate::ast::fraction_literal(lit) {
        Some(q) => q,
        None => return Ok(None),
    };
    let l = field_loc(prog, env, perm.0, perm.1)?;
    let lt = Term::loc(l);
    // Only the ≥ / = forms have direct counterparts; others are
    // expressed via negation where possible.
    Ok(Some(match (op, flipped) {
        (Op::Ge, false) | (Op::Le, true) => Assert::PermGe(lt, q),
        (Op::Eq, _) => Assert::PermEq(lt, q),
        (Op::Gt, false) | (Op::Lt, true) => {
            // perm > q ⇔ ¬(perm = q) ∧ perm ≥ q.
            Assert::and(
                Assert::impl_(Assert::PermEq(lt.clone(), q), Assert::falsity()),
                Assert::PermGe(lt, q),
            )
        }
        (Op::Lt, false) | (Op::Gt, true) => {
            // perm < q ⇔ ¬(perm ≥ q).
            Assert::impl_(Assert::PermGe(lt, q), Assert::falsity())
        }
        (Op::Le, false) | (Op::Ge, true) => {
            // perm ≤ q ⇔ ¬(perm > q) ⇔ perm ≥ q → perm = q.
            Assert::impl_(Assert::PermGe(lt.clone(), q), Assert::PermEq(lt, q))
        }
        _ => return Ok(None),
    }))
}

/// Substitutes `old(e)` subexpressions with their concrete pre-state
/// values, leaving everything else for [`translate_assertion`].
///
/// # Errors
///
/// Returns [`TranslateError`] when a pre-state value cannot be computed.
pub fn strip_old(
    prog: &Program,
    env: &TEnv,
    old_heap: &daenerys_heaplang::Heap,
    a: &Assertion,
) -> Result<Assertion, TranslateError> {
    Ok(match a {
        Assertion::Expr(e) => Assertion::Expr(strip_old_expr(prog, env, old_heap, e)?),
        Assertion::Acc(r, f, q) => Assertion::Acc(r.clone(), f.clone(), *q),
        Assertion::And(p, q) => Assertion::and(
            strip_old(prog, env, old_heap, p)?,
            strip_old(prog, env, old_heap, q)?,
        ),
        Assertion::Implies(c, b) => Assertion::Implies(
            strip_old_expr(prog, env, old_heap, c)?,
            Box::new(strip_old(prog, env, old_heap, b)?),
        ),
    })
}

fn strip_old_expr(
    prog: &Program,
    env: &TEnv,
    old_heap: &daenerys_heaplang::Heap,
    e: &Expr,
) -> Result<Expr, TranslateError> {
    Ok(match e {
        Expr::Old(inner, _) => {
            let v = crate::compile::eval_spec(prog, inner, env, old_heap, old_heap)
                .map_err(|e| TranslateError(e.0))?;
            match v {
                ConcreteVal::Int(n) => Expr::Int(n),
                ConcreteVal::Bool(b) => Expr::Bool(b),
                ConcreteVal::Obj(_) => return err("old(…) of an object"),
            }
        }
        Expr::Field(r, f, at) => Expr::Field(
            Box::new(strip_old_expr(prog, env, old_heap, r)?),
            f.clone(),
            *at,
        ),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(strip_old_expr(prog, env, old_heap, a)?),
            Box::new(strip_old_expr(prog, env, old_heap, b)?),
        ),
        Expr::Not(a) => Expr::Not(Box::new(strip_old_expr(prog, env, old_heap, a)?)),
        Expr::Neg(a) => Expr::Neg(Box::new(strip_old_expr(prog, env, old_heap, a)?)),
        Expr::Cond(c, t, el) => Expr::Cond(
            Box::new(strip_old_expr(prog, env, old_heap, c)?),
            Box::new(strip_old_expr(prog, env, old_heap, t)?),
            Box::new(strip_old_expr(prog, env, old_heap, el)?),
        ),
        _ => e.clone(),
    })
}

/// Convenience: builds the environment and world pieces for checking a
/// translated contract against a monitored execution.
pub fn env_of(args: &[(&str, ConcreteVal)]) -> TEnv {
    args.iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// Returns the object bound to `x` in the environment.
///
/// # Errors
///
/// Returns a [`TranslateError`] when the variable is unbound or not an
/// object.
pub fn obj_of(env: &TEnv, x: &str) -> Result<ConcreteObj, TranslateError> {
    match env.get(x) {
        Some(ConcreteVal::Obj(o)) => Ok(o.clone()),
        Some(other) => Err(TranslateError(format!(
            "variable {} is not an object: {:?}",
            x, other
        ))),
        None => Err(TranslateError(format!("variable {} is unbound", x))),
    }
}

/// The owned resource corresponding to holding `acc` at full permission
/// on every cell of the given objects (what a caller transfers to a
/// method with a full-permission precondition).
pub fn full_ownership(heap: &daenerys_heaplang::Heap, objs: &[&ConcreteObj]) -> daenerys_core::Res {
    use daenerys_algebra::Ra;
    let mut res = daenerys_core::Res::empty();
    for o in objs {
        for l in &o.cells {
            if let Some(v) = heap.get(*l) {
                res = res.op(&daenerys_core::Res::points_to(*l, DFrac::FULL, v.clone()));
            }
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::alloc_object;
    use crate::parser::parse_program;
    use daenerys_core::{holds, Env, EvalCtx, UniverseSpec, World};
    use daenerys_heaplang::Heap;

    fn setup() -> (Program, Heap, TEnv) {
        let prog = parse_program(
            "field val: Int
             method m(c: Ref) requires acc(c.val) ensures acc(c.val) { }",
        )
        .unwrap();
        let mut heap = Heap::new();
        let obj = alloc_object(&prog, &mut heap, &[7]);
        let env = env_of(&[("c", ConcreteVal::Obj(obj))]);
        (prog, heap, env)
    }

    #[test]
    fn field_reads_become_heap_reads() {
        let (prog, _, env) = setup();
        let e = Expr::bin(Op::Eq, Expr::field(Expr::var("c"), "val"), Expr::Int(7));
        let t = translate_expr(&prog, &env, &e).unwrap();
        assert_eq!(t, Term::eq(Term::read(Term::loc(Loc(0))), Term::int(7)));
    }

    #[test]
    fn acc_becomes_introspection_plus_welldef() {
        let (prog, _, env) = setup();
        let a = Assertion::acc(Expr::var("c"), "val");
        let p = translate_assertion(&prog, &env, &a).unwrap();
        match p {
            Assert::And(l, r) => {
                assert!(matches!(*l, Assert::PermGe(..)));
                assert!(matches!(*r, Assert::WellDef(_)));
            }
            other => panic!("unexpected {}", other),
        }
    }

    #[test]
    fn translated_contract_holds_in_owned_world() {
        let (prog, heap, env) = setup();
        // Pre: acc(c.val) && c.val == 7, translated, must hold in the
        // world where we own the cell with value 7.
        let pre = Assertion::and(
            Assertion::acc(Expr::var("c"), "val"),
            Assertion::Expr(Expr::bin(
                Op::Eq,
                Expr::field(Expr::var("c"), "val"),
                Expr::Int(7),
            )),
        );
        let p = translate_assertion(&prog, &env, &pre).unwrap();
        let obj = obj_of(&env, "c").unwrap();
        let own = full_ownership(&heap, &[&obj]);
        let uni = UniverseSpec::tiny().build();
        let ctx = EvalCtx::new(&uni);
        assert!(holds(&p, &World::solo(own), &Env::new(), 1, &ctx));

        // And it fails without ownership (the introspection part).
        assert!(!holds(
            &p,
            &World::new(daenerys_core::Res::empty(), full_ownership(&heap, &[&obj])).unwrap(),
            &Env::new(),
            1,
            &ctx
        ));
    }

    #[test]
    fn perm_comparisons_translate_to_introspection() {
        let (prog, _, env) = setup();
        let ge = parse_perm(&prog, &env, Op::Ge);
        assert!(matches!(ge, Assert::PermGe(..)));
        let eq = parse_perm(&prog, &env, Op::Eq);
        assert!(matches!(eq, Assert::PermEq(..)));
    }

    fn parse_perm(prog: &Program, env: &TEnv, op: Op) -> Assert {
        let e = Expr::Bin(
            op,
            Box::new(Expr::Perm(
                Box::new(Expr::var("c")),
                "val".into(),
                crate::ast::Span::NONE,
            )),
            Box::new(Expr::Bin(
                Op::Div,
                Box::new(Expr::Int(1)),
                Box::new(Expr::Int(2)),
            )),
        );
        translate_assertion(prog, env, &Assertion::Expr(e)).unwrap()
    }

    #[test]
    fn strip_old_substitutes_prestate_values() {
        let (prog, heap, env) = setup();
        let a = Assertion::Expr(Expr::bin(
            Op::Eq,
            Expr::field(Expr::var("c"), "val"),
            Expr::Old(
                Box::new(Expr::field(Expr::var("c"), "val")),
                crate::ast::Span::NONE,
            ),
        ));
        let stripped = strip_old(&prog, &env, &heap, &a).unwrap();
        match stripped {
            Assertion::Expr(Expr::Bin(Op::Eq, _, rhs)) => {
                assert_eq!(*rhs, Expr::Int(7));
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn untranslatable_constructs_are_reported() {
        let (prog, _, env) = setup();
        assert!(translate_expr(&prog, &env, &Expr::Null).is_err());
        assert!(translate_expr(
            &prog,
            &env,
            &Expr::Old(Box::new(Expr::Int(1)), crate::ast::Span::NONE)
        )
        .is_err());
        assert!(translate_expr(&prog, &env, &Expr::var("zz")).is_err());
    }
}
