//! Well-formedness and type checking for IDF programs.
//!
//! Runs before verification, as in Viper: catches unbound variables,
//! unknown fields and methods, ill-typed expressions, spec-only
//! constructs (`old`, `perm`) in code positions, and arity errors —
//! so the symbolic executor can assume a well-formed program.

use crate::ast::{Assertion, Expr, Method, Op, Program, Span, Stmt, Type};
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// A well-formedness diagnosis. Diagnoses raised at an AST node that
/// carries a source position (`old`, `perm`, field reads) report it via
/// `span`, like [`crate::parser::ParseError`] does; structural errors
/// (duplicates, arity) stay method-level with [`Span::NONE`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WfError {
    /// The method the error is in (empty for program-level errors).
    pub method: String,
    /// Description.
    pub message: String,
    /// Source position (`Span::NONE` when unknown).
    pub span: Span,
}

impl fmt::Display for WfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.is_known() {
            write!(f, "at {}: ", self.span)?;
        }
        if self.method.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "in method {}: {}", self.method, self.message)
        }
    }
}

impl std::error::Error for WfError {}

/// Where an expression occurs, for spec-only construct checking.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Position {
    Code,
    Precondition,
    Postcondition,
    Invariant,
}

impl Position {
    fn allows_old(self) -> bool {
        matches!(self, Position::Postcondition | Position::Invariant)
    }

    fn allows_perm(self) -> bool {
        !matches!(self, Position::Code)
    }
}

struct Checker<'a> {
    program: &'a Program,
    method: String,
    errors: Vec<WfError>,
    scope: BTreeMap<String, Type>,
}

impl<'a> Checker<'a> {
    fn error(&mut self, message: impl Into<String>) {
        self.error_at(message, Span::NONE);
    }

    fn error_at(&mut self, message: impl Into<String>, span: Span) {
        self.errors.push(WfError {
            method: self.method.clone(),
            message: message.into(),
            span,
        });
    }

    /// Infers an expression's type, reporting errors; `None` on failure.
    fn infer(&mut self, e: &Expr, pos: Position) -> Option<Type> {
        match e {
            Expr::Int(_) => Some(Type::Int),
            Expr::Bool(_) => Some(Type::Bool),
            Expr::Null => Some(Type::Ref),
            Expr::Var(x) => match self.scope.get(x) {
                Some(t) => Some(*t),
                None => {
                    self.error(format!("unbound variable {}", x));
                    None
                }
            },
            Expr::Field(recv, f, at) => {
                let rt = self.infer(recv, pos)?;
                if rt != Type::Ref {
                    self.error_at(format!("field access on non-reference {}", recv), *at);
                    return None;
                }
                match self.program.field_type(f) {
                    Some(t) => Some(t),
                    None => {
                        self.error_at(format!("unknown field {}", f), *at);
                        None
                    }
                }
            }
            Expr::Old(inner, at) => {
                if !pos.allows_old() {
                    self.error_at(
                        format!("old({}) outside a postcondition/invariant", inner),
                        *at,
                    );
                }
                self.infer(inner, pos)
            }
            Expr::Perm(recv, f, at) => {
                if !pos.allows_perm() {
                    self.error_at("perm(…) in code position".to_string(), *at);
                }
                let rt = self.infer(recv, pos)?;
                if rt != Type::Ref {
                    self.error_at(format!("perm on non-reference {}", recv), *at);
                }
                if self.program.field_type(f).is_none() {
                    self.error_at(format!("unknown field {}", f), *at);
                }
                // Permission amounts live at the spec level; comparisons
                // against fraction literals are resolved statically.
                Some(Type::Int)
            }
            Expr::Bin(op, a, b) => {
                let ta = self.infer(a, pos);
                let tb = self.infer(b, pos);
                match op {
                    Op::Add | Op::Sub | Op::Mul | Op::Div => {
                        self.expect(ta, Type::Int, a);
                        self.expect(tb, Type::Int, b);
                        Some(Type::Int)
                    }
                    Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                        // perm comparisons are exempt from Int-typing of
                        // the fraction side (n/d is Int-typed anyway).
                        self.expect(ta, Type::Int, a);
                        self.expect(tb, Type::Int, b);
                        Some(Type::Bool)
                    }
                    Op::Eq | Op::Ne => {
                        if let (Some(x), Some(y)) = (ta, tb) {
                            if x != y {
                                self.error(format!(
                                    "equality between {} and {} ({} == {})",
                                    x, y, a, b
                                ));
                            }
                        }
                        Some(Type::Bool)
                    }
                    Op::And | Op::Or => {
                        self.expect(ta, Type::Bool, a);
                        self.expect(tb, Type::Bool, b);
                        Some(Type::Bool)
                    }
                }
            }
            Expr::Not(a) => {
                let t = self.infer(a, pos);
                self.expect(t, Type::Bool, a);
                Some(Type::Bool)
            }
            Expr::Neg(a) => {
                let t = self.infer(a, pos);
                self.expect(t, Type::Int, a);
                Some(Type::Int)
            }
            Expr::Cond(c, t, e2) => {
                let tc = self.infer(c, pos);
                self.expect(tc, Type::Bool, c);
                let tt = self.infer(t, pos)?;
                let te = self.infer(e2, pos)?;
                if tt != te {
                    self.error(format!("conditional branches differ: {} vs {}", tt, te));
                }
                Some(tt)
            }
        }
    }

    fn expect(&mut self, t: Option<Type>, want: Type, at: &Expr) {
        if let Some(t) = t {
            if t != want {
                self.error(format!("expected {} but {} has type {}", want, at, t));
            }
        }
    }

    fn check_assertion(&mut self, a: &Assertion, pos: Position) {
        match a {
            Assertion::Expr(e) => {
                let t = self.infer(e, pos);
                self.expect(t, Type::Bool, e);
            }
            Assertion::Acc(recv, f, q) => {
                let t = self.infer(recv, pos);
                self.expect(t, Type::Ref, recv);
                if self.program.field_type(f).is_none() {
                    self.error(format!("unknown field {}", f));
                }
                if !q.is_valid_permission() {
                    self.error(format!("acc fraction {} outside (0, 1]", q));
                }
            }
            Assertion::And(p, q) => {
                self.check_assertion(p, pos);
                self.check_assertion(q, pos);
            }
            Assertion::Implies(c, body) => {
                let t = self.infer(c, pos);
                self.expect(t, Type::Bool, c);
                self.check_assertion(body, pos);
            }
        }
    }

    fn check_stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.check_stmt(s);
        }
    }

    fn check_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::VarDecl(x, ty, e) => {
                let t = self.infer(e, Position::Code);
                self.expect(t, *ty, e);
                self.scope.insert(x.clone(), *ty);
            }
            Stmt::Assign(x, e) => {
                let t = self.infer(e, Position::Code);
                match self.scope.get(x).copied() {
                    Some(want) => self.expect(t, want, e),
                    None => self.error(format!("assignment to undeclared variable {}", x)),
                }
            }
            Stmt::FieldWrite(recv, f, e) => {
                let rt = self.infer(recv, Position::Code);
                self.expect(rt, Type::Ref, recv);
                match self.program.field_type(f) {
                    Some(want) => {
                        let t = self.infer(e, Position::Code);
                        self.expect(t, want, e);
                    }
                    None => self.error(format!("unknown field {}", f)),
                }
            }
            Stmt::New(x, inits) => {
                for (f, e) in inits {
                    match self.program.field_type(f) {
                        Some(want) => {
                            let t = self.infer(e, Position::Code);
                            self.expect(t, want, e);
                        }
                        None => self.error(format!("unknown field {} in new", f)),
                    }
                }
                match self.scope.get(x) {
                    Some(Type::Ref) => {}
                    Some(t) => self.error(format!("new target {} has type {}", x, t)),
                    None => self.error(format!("new target {} undeclared", x)),
                }
            }
            Stmt::Inhale(a) | Stmt::Exhale(a) | Stmt::Assert(a) => {
                self.check_assertion(a, Position::Invariant);
            }
            Stmt::If(c, t, e) => {
                let tc = self.infer(c, Position::Code);
                self.expect(tc, Type::Bool, c);
                let saved = self.scope.clone();
                self.check_stmts(t);
                self.scope = saved.clone();
                self.check_stmts(e);
                self.scope = saved;
            }
            Stmt::While(c, inv, body) => {
                let tc = self.infer(c, Position::Code);
                self.expect(tc, Type::Bool, c);
                self.check_assertion(inv, Position::Invariant);
                let saved = self.scope.clone();
                self.check_stmts(body);
                self.scope = saved;
            }
            Stmt::Call(targets, m, args) => {
                let program = self.program;
                let Some(callee) = program.method(m) else {
                    self.error(format!("call to unknown method {}", m));
                    return;
                };
                if callee.params.len() != args.len() {
                    self.error(format!(
                        "{} expects {} argument(s), got {}",
                        m,
                        callee.params.len(),
                        args.len()
                    ));
                }
                for ((_, want), a) in callee.params.iter().zip(args.iter()) {
                    let t = self.infer(a, Position::Code);
                    self.expect(t, *want, a);
                }
                if callee.returns.len() != targets.len() {
                    self.error(format!(
                        "{} returns {} value(s), got {} target(s)",
                        m,
                        callee.returns.len(),
                        targets.len()
                    ));
                }
                for ((_, rt), tgt) in callee.returns.iter().zip(targets.iter()) {
                    match self.scope.get(tgt).copied() {
                        Some(have) if have != *rt => {
                            self.error(format!("target {} has type {}, expected {}", tgt, have, rt))
                        }
                        Some(_) => {}
                        None => self.error(format!("call target {} undeclared", tgt)),
                    }
                }
            }
        }
    }
}

fn check_method(program: &Program, m: &Method) -> Vec<WfError> {
    let mut ck = Checker {
        program,
        method: m.name.clone(),
        errors: Vec::new(),
        scope: m
            .params
            .iter()
            .chain(m.returns.iter())
            .map(|(x, t)| (x.clone(), *t))
            .collect(),
    };
    // Duplicate parameter/return names.
    let mut seen = Vec::new();
    for (x, _) in m.params.iter().chain(m.returns.iter()) {
        if seen.contains(&x) {
            ck.error(format!("duplicate parameter/return name {}", x));
        }
        seen.push(x);
    }
    ck.check_assertion(&m.requires, Position::Precondition);
    ck.check_assertion(&m.ensures, Position::Postcondition);
    if let Some(body) = &m.body {
        ck.check_stmts(body);
    }
    ck.errors
}

/// Checks a whole program.
///
/// # Errors
///
/// Returns every diagnosis found (empty never — `Ok(())` means none).
pub fn check_program(program: &Program) -> Result<(), Vec<WfError>> {
    let mut errors = Vec::new();
    // Duplicate field/method names, reported at each repeat.
    let mut seen = HashSet::new();
    for (f, _) in &program.fields {
        if !seen.insert(f) {
            errors.push(WfError {
                method: String::new(),
                message: format!("duplicate field {}", f),
                span: Span::NONE,
            });
        }
    }
    let mut seen = HashSet::new();
    for m in &program.methods {
        if !seen.insert(&m.name) {
            errors.push(WfError {
                method: String::new(),
                message: format!("duplicate method {}", m.name),
                span: Span::NONE,
            });
        }
        errors.extend(check_method(program, m));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::all_cases;
    use crate::parser::parse_program;

    fn errors_of(src: &str) -> Vec<String> {
        match check_program(&parse_program(src).unwrap()) {
            Ok(()) => Vec::new(),
            Err(es) => es.into_iter().map(|e| e.message).collect(),
        }
    }

    #[test]
    fn all_case_studies_are_well_formed() {
        for case in all_cases() {
            assert_eq!(
                check_program(&case.program()),
                Ok(()),
                "case {} has wf errors",
                case.name
            );
        }
    }

    #[test]
    fn unbound_variables_are_caught() {
        let es = errors_of("field v: Int method m() { x := 1 }");
        assert!(es.iter().any(|e| e.contains("undeclared variable x")));
    }

    #[test]
    fn unknown_fields_are_caught() {
        let es = errors_of("field v: Int method m(c: Ref) requires acc(c.w) { }");
        assert!(es.iter().any(|e| e.contains("unknown field w")));
    }

    #[test]
    fn type_errors_are_caught() {
        let es = errors_of("field v: Int method m(n: Int) { var b: Bool := n + 1 }");
        assert!(es.iter().any(|e| e.contains("expected Bool")));
        let es = errors_of("field v: Int method m(n: Int, b: Bool) requires n == b { }");
        assert!(es.iter().any(|e| e.contains("equality between")));
    }

    #[test]
    fn spec_only_constructs_in_code_are_caught() {
        let es = errors_of("field v: Int method m(c: Ref) { var t: Int := old(c.v) }");
        assert!(es.iter().any(|e| e.contains("old(")));
    }

    #[test]
    fn spec_only_diagnostics_carry_line_and_column() {
        // `old` in a code position on line 3, `perm` on line 4: each
        // diagnostic must point at its own keyword, not just the method.
        let src = "field v: Int
method m(c: Ref) {
  var t: Int := old(c.v);
  var u: Int := perm(c.v)
}";
        let errs = check_program(&parse_program(src).unwrap()).unwrap_err();
        let old_err = errs
            .iter()
            .find(|e| e.message.contains("old("))
            .expect("old diagnostic");
        assert_eq!((old_err.span.line, old_err.span.col), (3, 17));
        assert!(old_err.to_string().starts_with("at 3:17:"), "{}", old_err);
        let perm_err = errs
            .iter()
            .find(|e| e.message.contains("perm("))
            .expect("perm diagnostic");
        assert_eq!((perm_err.span.line, perm_err.span.col), (4, 17));
        // Unknown fields in specs are positioned too.
        let errs = check_program(
            &parse_program("field v: Int\nmethod m(c: Ref)\n  requires acc(c.v) && c.w == 1\n{ }")
                .unwrap(),
        )
        .unwrap_err();
        let fld = errs
            .iter()
            .find(|e| e.message.contains("unknown field w"))
            .expect("field diagnostic");
        assert_eq!(fld.span.line, 3);
        assert!(fld.span.col > 1);
    }

    #[test]
    fn old_in_precondition_is_caught() {
        let es =
            errors_of("field v: Int method m(c: Ref) requires acc(c.v) && c.v == old(c.v) { }");
        assert!(es.iter().any(|e| e.contains("old(")));
    }

    #[test]
    fn arity_errors_are_caught() {
        let es = errors_of(
            "field v: Int
             method callee(n: Int)
             method m() { call callee(1, 2) }",
        );
        assert!(es.iter().any(|e| e.contains("expects 1 argument")));
    }

    #[test]
    fn bad_fractions_are_caught() {
        let es = errors_of("field v: Int method m(c: Ref) requires acc(c.v, 3/2) { }");
        assert!(es.iter().any(|e| e.contains("outside (0, 1]")));
    }

    #[test]
    fn duplicates_are_caught() {
        let es = errors_of("field v: Int field v: Int method m() { }");
        assert!(es.iter().any(|e| e.contains("duplicate field")));
        let es = errors_of("field v: Int method m() method m()");
        assert!(es.iter().any(|e| e.contains("duplicate method")));
        let es = errors_of("field v: Int method m(x: Int, x: Int) { }");
        assert!(es.iter().any(|e| e.contains("duplicate parameter")));
    }
}
