//! Pretty-printing of HeapLang expressions and values.
//!
//! The printer emits the same surface syntax the parser accepts, so
//! `parse(e.to_string())` round-trips for parseable expressions (checked
//! by a property test in the crate's test suite). Location literals
//! print as `ℓn`, which the parser deliberately rejects — locations are
//! runtime-only values.

use crate::parser::{Assoc, BINARY};
use crate::syntax::{BinOp, Binder, Expr, Lit, UnOp, Val};
use std::fmt;

/// `op`'s row of the operator table the parser reads.
fn binary(op: BinOp) -> (&'static str, u8, Assoc) {
    let &(_, text, _, prec, assoc) = BINARY
        .iter()
        .find(|b| b.2 == op)
        .expect("every operator is in the table");
    (text, prec, assoc)
}

/// Precedence levels matching the parser, higher binds tighter: the
/// binary operators are [`BINARY`]'s.
fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Let(..) | Expr::Rec { .. } | Expr::If(..) | Expr::Case(..) => 0,
        Expr::Store(..) => 2,
        Expr::BinOp(op, ..) => binary(*op).1,
        Expr::UnOp(..) => 8,
        Expr::App(..) => 9,
        _ => 10,
    }
}

fn write_at(e: &Expr, min: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let p = prec(e);
    if p < min {
        write!(f, "(")?;
    }
    match e {
        // Negative literals are parenthesized so they re-lex as a folded
        // unary minus rather than a binary subtraction.
        Expr::Val(Val::Lit(Lit::Int(n))) if *n < 0 => write!(f, "({})", n)?,
        Expr::Val(v) => write!(f, "{}", v)?,
        Expr::Var(x) => write!(f, "{}", x)?,
        Expr::Rec { f: fb, x, body } => match fb {
            Binder::Anon => {
                write!(f, "fun {} => ", x)?;
                write_at(body, 0, f)?;
            }
            _ => {
                write!(f, "rec {} {} => ", fb, x)?;
                write_at(body, 0, f)?;
            }
        },
        Expr::App(a, b) => {
            write_at(a, 9, f)?;
            write!(f, " ")?;
            write_at(b, 10, f)?;
        }
        Expr::Let(Binder::Anon, e1, e2) => {
            write_at(e1, 2, f)?;
            write!(f, "; ")?;
            write_at(e2, 0, f)?;
        }
        Expr::Let(b, e1, e2) => {
            write!(f, "let {} = ", b)?;
            write_at(e1, 0, f)?;
            write!(f, " in ")?;
            write_at(e2, 0, f)?;
        }
        Expr::UnOp(UnOp::Neg, e1) => {
            write!(f, "- ")?;
            write_at(e1, 8, f)?;
        }
        Expr::UnOp(UnOp::Not, e1) => {
            write!(f, "not ")?;
            write_at(e1, 8, f)?;
        }
        Expr::BinOp(op, a, b) => {
            // A left operand may sit at the operator's own level when
            // the operator chains; a right operand never does.
            let (text, _, assoc) = binary(*op);
            write_at(a, if assoc == Assoc::Left { p } else { p + 1 }, f)?;
            write!(f, " {} ", text)?;
            write_at(b, p + 1, f)?;
        }
        Expr::If(c, t, e2) => {
            write!(f, "if ")?;
            write_at(c, 0, f)?;
            write!(f, " then ")?;
            write_at(t, 0, f)?;
            write!(f, " else ")?;
            write_at(e2, 0, f)?;
        }
        Expr::Pair(a, b) => {
            write!(f, "(")?;
            write_at(a, 0, f)?;
            write!(f, ", ")?;
            write_at(b, 0, f)?;
            write!(f, ")")?;
        }
        Expr::Fst(e1) => {
            write!(f, "fst ")?;
            write_at(e1, 10, f)?;
        }
        Expr::Snd(e1) => {
            write!(f, "snd ")?;
            write_at(e1, 10, f)?;
        }
        Expr::InjL(e1) => {
            write!(f, "inl ")?;
            write_at(e1, 10, f)?;
        }
        Expr::InjR(e1) => {
            write!(f, "inr ")?;
            write_at(e1, 10, f)?;
        }
        Expr::Case(s, bl, el, br, er) => {
            write!(f, "match ")?;
            write_at(s, 0, f)?;
            write!(f, " with | inl {} => ", bl)?;
            write_at(el, 0, f)?;
            write!(f, " | inr {} => ", br)?;
            write_at(er, 0, f)?;
            write!(f, " end")?;
        }
        Expr::Alloc(e1) => {
            write!(f, "ref ")?;
            write_at(e1, 10, f)?;
        }
        Expr::Load(e1) => {
            write!(f, "!")?;
            write_at(e1, 10, f)?;
        }
        Expr::Store(a, b) => {
            write_at(a, 3, f)?;
            write!(f, " <- ")?;
            write_at(b, 3, f)?;
        }
        Expr::Cas(a, b, c) => {
            write!(f, "cas(")?;
            write_at(a, 0, f)?;
            write!(f, ", ")?;
            write_at(b, 0, f)?;
            write!(f, ", ")?;
            write_at(c, 0, f)?;
            write!(f, ")")?;
        }
        Expr::Faa(a, b) => {
            write!(f, "faa(")?;
            write_at(a, 0, f)?;
            write!(f, ", ")?;
            write_at(b, 0, f)?;
            write!(f, ")")?;
        }
        Expr::Fork(e1) => {
            write!(f, "fork ")?;
            write_at(e1, 10, f)?;
        }
    }
    if p < min {
        write!(f, ")")?;
    }
    Ok(())
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_at(self, 0, f)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Lit(Lit::Unit) => write!(f, "()"),
            Val::Lit(l) => write!(f, "{}", l),
            Val::Pair(a, b) => write!(f, "({}, {})", a, b),
            Val::InjL(v) => write!(f, "inl {}", paren_val(v)),
            Val::InjR(v) => write!(f, "inr {}", paren_val(v)),
            Val::Rec { f: fb, x, body } => match fb {
                Binder::Anon => write!(f, "fun {} => {}", x, body),
                _ => write!(f, "rec {} {} => {}", fb, x, body),
            },
        }
    }
}

fn paren_val(v: &Val) -> String {
    match v {
        Val::Lit(_) | Val::Pair(..) => v.to_string(),
        _ => format!("({})", v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn roundtrip(src: &str) {
        let e = parse(src).unwrap();
        let printed = e.to_string();
        let e2 = parse(&printed)
            .unwrap_or_else(|err| panic!("reparse failed for {:?}: {}", printed, err));
        assert_eq!(e, e2, "roundtrip changed: {:?} vs {:?}", src, printed);
    }

    #[test]
    fn roundtrips() {
        for src in [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "let x = ref 0 in x <- !x + 1; !x",
            "fun x => x + 1",
            "rec f n => if n <= 0 then 1 else n * f (n - 1)",
            "match inl 1 with | inl x => x | inr y => y end",
            "cas(l, 0, 1) && faa(l, 2) = 0",
            "fork (l <- 1); fst (1, (2, 3))",
            "not (1 = 2) || false",
            "10 - 3 - 4",
            "1 - (3 - 4)",
            "- 5 + - 3",
            "f x y z",
            "f (g x) (h y)",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn display_values() {
        assert_eq!(Val::int(3).to_string(), "3");
        assert_eq!(Val::unit().to_string(), "()");
        assert_eq!(
            Val::Pair(Box::new(Val::int(1)), Box::new(Val::bool(true))).to_string(),
            "(1, true)"
        );
        assert_eq!(Val::InjL(Box::new(Val::int(1))).to_string(), "inl 1");
    }

    #[test]
    fn nested_store_parenthesized() {
        let e = parse("l <- (k <- 2; 1)").unwrap();
        roundtrip_expr(e);
    }

    fn roundtrip_expr(e: Expr) {
        let printed = e.to_string();
        let e2 = parse(&printed).unwrap();
        assert_eq!(e, e2);
    }
}
