//! Pretty-printing for IDF programs.
//!
//! `program.to_string()` emits source the parser maps back to the same
//! AST; the round-trip is property-tested in `tests/idf_prop_tests.rs`.

use crate::ast::{Assertion, Expr, Method, Op, Program, Stmt};
use daenerys_algebra::Q;
use std::fmt;

fn op_str(op: Op) -> &'static str {
    match op {
        Op::Add => "+",
        Op::Sub => "-",
        Op::Mul => "*",
        Op::Div => "/",
        Op::Eq => "==",
        Op::Ne => "!=",
        Op::Lt => "<",
        Op::Le => "<=",
        Op::Gt => ">",
        Op::Ge => ">=",
        Op::And => "&&",
        Op::Or => "||",
    }
}

/// Precedence levels mirroring the parser (higher binds tighter).
fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Cond(..) => 0,
        Expr::Bin(Op::Or, ..) => 1,
        Expr::Bin(Op::And, ..) => 2,
        Expr::Bin(Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge, ..) => 3,
        Expr::Bin(Op::Add | Op::Sub, ..) => 4,
        Expr::Bin(Op::Mul | Op::Div, ..) => 5,
        Expr::Not(_) | Expr::Neg(_) => 6,
        _ => 7,
    }
}

/// `spec` marks the assertion-conjunct grammar, where a bare `&&` would
/// be captured by the assertion level: expression conjunctions are then
/// emitted inside explicit parentheses (which re-enter the full
/// expression grammar when reparsed).
fn write_expr(e: &Expr, min: u8, spec: bool, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if spec {
        match e {
            // A bare `&&` would be captured by the assertion level.
            Expr::Bin(Op::And, ..) => {
                write!(f, "(")?;
                write_expr(e, 0, false, f)?;
                return write!(f, ")");
            }
            // A bare conditional's branches (parsed with the full
            // grammar) would swallow a following assertion `&&`; its
            // *condition* stays in spec mode so a conjunction there
            // cannot be re-read as an assertion `&&` by the
            // parenthesized-assertion backtracking.
            Expr::Cond(c, t, el) => {
                write!(f, "(")?;
                write_expr(c, 1, true, f)?;
                write!(f, " ? ")?;
                write_expr(t, 0, false, f)?;
                write!(f, " : ")?;
                write_expr(el, 0, false, f)?;
                return write!(f, ")");
            }
            _ => {}
        }
    }
    let p = prec(e);
    if p < min {
        // Parentheses re-enter the full expression grammar (they are
        // parsed as expression atoms), except when they would *start*
        // a conjunct — the parser's `ends_assertion` check resolves
        // that case in favour of the expression reading.
        write!(f, "(")?;
        write_expr(e, 0, false, f)?;
        return write!(f, ")");
    }
    match e {
        Expr::Int(n) => {
            if *n < 0 {
                write!(f, "({})", n)?;
            } else {
                write!(f, "{}", n)?;
            }
        }
        Expr::Bool(b) => write!(f, "{}", b)?,
        Expr::Null => write!(f, "null")?,
        Expr::Var(x) => write!(f, "{}", x)?,
        Expr::Field(r, fld, _) => {
            write_expr(r, 7, spec, f)?;
            write!(f, ".{}", fld)?;
        }
        Expr::Old(inner, _) => {
            // Parenthesized contents re-enter the full expression
            // grammar, so spec mode is dropped.
            write!(f, "old(")?;
            write_expr(inner, 0, false, f)?;
            write!(f, ")")?;
        }
        Expr::Perm(r, fld, _) => {
            write!(f, "perm(")?;
            write_expr(r, 7, false, f)?;
            write!(f, ".{})", fld)?;
        }
        Expr::Bin(op, a, b) => {
            let (la, ra) = match op {
                // Comparisons are non-associative in the grammar.
                Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge => (p + 1, p + 1),
                _ => (p, p + 1),
            };
            write_expr(a, la, spec, f)?;
            write!(f, " {} ", op_str(*op))?;
            write_expr(b, ra, spec, f)?;
        }
        Expr::Not(a) => {
            write!(f, "!")?;
            write_expr(a, 6, spec, f)?;
        }
        Expr::Neg(a) => {
            // Always parenthesize the operand so `-7` stays the
            // application of negation rather than folding into a
            // negative literal on reparse.
            write!(f, "-(")?;
            write_expr(a, 0, false, f)?;
            write!(f, ")")?;
        }
        Expr::Cond(c, t, el) => {
            write_expr(c, 1, spec, f)?;
            // Branches are parsed with the full expression grammar.
            write!(f, " ? ")?;
            write_expr(t, 0, false, f)?;
            write!(f, " : ")?;
            write_expr(el, 0, false, f)?;
        }
    }
    Ok(())
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_expr(self, 0, false, f)
    }
}

/// Wrapper displaying an expression in assertion-conjunct position.
struct SpecExpr<'a>(&'a Expr);

impl fmt::Display for SpecExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_expr(self.0, 0, true, f)
    }
}

fn frac_str(q: Q) -> String {
    if q == Q::ONE {
        String::new()
    } else if q.denom() == 1 {
        format!(", {}", q.numer())
    } else {
        format!(", {}/{}", q.numer(), q.denom())
    }
}

impl fmt::Display for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Note: an `Assertion::Expr` whose top level is `&&` is not
            // canonical (the parser always splits top-level conjunction
            // at the assertion level); `Assertion::normalize` produces
            // the canonical form this printer round-trips.
            Assertion::Expr(e) => write!(f, "{}", SpecExpr(e)),
            Assertion::Acc(r, fld, q) => write!(f, "acc({}.{}{})", r, fld, frac_str(*q)),
            Assertion::And(a, b) => write!(f, "{} && {}", a, b),
            Assertion::Implies(c, a) => {
                // The implication body binds tighter than `&&`, so an
                // `And` body needs explicit grouping.
                write!(f, "({} ==> ", SpecExpr(c))?;
                match &**a {
                    Assertion::And(..) => write!(f, "({})", a)?,
                    _ => write!(f, "{}", a)?,
                }
                write!(f, ")")
            }
        }
    }
}

fn write_block(stmts: &[Stmt], indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let pad = "  ".repeat(indent);
    writeln!(f, "{{")?;
    for (i, s) in stmts.iter().enumerate() {
        write!(f, "{}  ", pad)?;
        write_stmt(s, indent + 1, f)?;
        if i + 1 < stmts.len() {
            writeln!(f, ";")?;
        } else {
            writeln!(f)?;
        }
    }
    write!(f, "{}}}", pad)
}

fn write_stmt(s: &Stmt, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match s {
        Stmt::VarDecl(x, ty, e) => write!(f, "var {}: {} := {}", x, ty, e),
        Stmt::Assign(x, e) => write!(f, "{} := {}", x, e),
        Stmt::FieldWrite(r, fld, e) => write!(f, "{}.{} := {}", r, fld, e),
        Stmt::New(x, fields) => {
            write!(f, "{} := new(", x)?;
            for (i, (fld, e)) in fields.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}: {}", fld, e)?;
            }
            write!(f, ")")
        }
        Stmt::Inhale(a) => write!(f, "inhale {}", a),
        Stmt::Exhale(a) => write!(f, "exhale {}", a),
        Stmt::Assert(a) => write!(f, "assert {}", a),
        Stmt::If(c, t, e) => {
            write!(f, "if ({}) ", c)?;
            write_block(t, indent, f)?;
            if !e.is_empty() {
                write!(f, " else ")?;
                write_block(e, indent, f)?;
            }
            Ok(())
        }
        Stmt::While(c, inv, body) => {
            write!(f, "while ({})", c)?;
            write!(f, " invariant {} ", inv)?;
            write_block(body, indent, f)
        }
        Stmt::Call(targets, m, args) => {
            write!(f, "call ")?;
            if !targets.is_empty() {
                write!(f, "{} := ", targets.join(", "))?;
            }
            write!(f, "{}(", m)?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", a)?;
            }
            write!(f, ")")
        }
    }
}

/// A method's interface — header line, `requires` and `ensures`, each
/// newline-terminated — displayed without its body. This is exactly the
/// text `Method` prints for a bodyless method.
pub(crate) struct Interface<'a>(pub(crate) &'a Method);

impl fmt::Display for Interface<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        write!(f, "method {}(", m.name)?;
        for (i, (x, t)) in m.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", x, t)?;
        }
        write!(f, ")")?;
        if !m.returns.is_empty() {
            write!(f, " returns (")?;
            for (i, (x, t)) in m.returns.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}: {}", x, t)?;
            }
            write!(f, ")")?;
        }
        writeln!(f)?;
        writeln!(f, "  requires {}", m.requires)?;
        writeln!(f, "  ensures {}", m.ensures)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Interface(self))?;
        match &self.body {
            None => Ok(()),
            Some(b) => write_block(b, 0, f),
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, ty) in &self.fields {
            writeln!(f, "field {}: {}", name, ty)?;
        }
        for m in &self.methods {
            writeln!(f)?;
            writeln!(f, "{}", m)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_program;

    #[test]
    fn program_roundtrips() {
        let src = r#"
            field val: Int
            field next: Ref
            method m(a: Ref, n: Int) returns (r: Int)
              requires acc(a.val, 1/2) && n >= 0 && (n > 0 ==> acc(a.next))
              ensures acc(a.val, 1/2) && r == old(a.val) + n
            {
              var t: Int := a.val;
              if (t > 0) { t := t - 1 } else { t := 0 - t };
              while (t < n) invariant t <= n { t := t + 1 };
              inhale acc(a.val, 1/2);
              a.val := t;
              exhale acc(a.val, 1/2);
              assert perm(a.val) == 1/2;
              r := t ? 1 : 0;
              call m2(a);
              call r := m3(a, t)
            }
            method m2(x: Ref)
            method m3(x: Ref, k: Int) returns (out: Int)
        "#;
        let p1 = parse_program(src).unwrap();
        let printed = p1.to_string();
        let p2 = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {}\n---\n{}", e, printed));
        assert_eq!(p1, p2, "\n--- printed ---\n{}", printed);
    }

    #[test]
    fn negative_literals_roundtrip() {
        let src = "field v: Int method m() { var x: Int := (-3) + 1 }";
        let p1 = parse_program(src).unwrap();
        let p2 = parse_program(&p1.to_string()).unwrap();
        assert_eq!(p1, p2);
    }
}
