//! Recursive-descent parser for the HeapLang surface syntax.
//!
//! Grammar sketch (low to high precedence):
//!
//! ```text
//! expr   ::= let x = expr in expr | fun x => expr | rec f x => expr
//!          | if expr then expr else expr
//!          | match expr with inl x => expr | inr y => expr end
//!          | seq
//! seq    ::= store (";" expr)?
//! store  ::= binary ("<-" binary)?
//! binary ::= unary (binop unary)*     (precedence and grouping: `BINARY`)
//! unary  ::= ("not"|"-") unary | app
//! app    ::= atom atom*
//! atom   ::= int | true | false | ident | "(" ")" | "(" expr ")"
//!          | "(" expr "," expr ")" | "!" atom | ref atom | fork atom
//!          | inl atom | inr atom | fst atom | snd atom
//!          | cas "(" expr "," expr "," expr ")"
//!          | faa "(" expr "," expr ")"
//! ```

use crate::lexer::{lex, Kw, LexError, Sym, Token};
use crate::syntax::{BinOp, Binder, Expr, UnOp};
use std::fmt;

/// A parse error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Token index where the error occurred.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            at: 0,
            message: e.to_string(),
        }
    }
}

/// Parses a complete HeapLang program.
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical errors, syntax errors, or
/// trailing input.
///
/// # Examples
///
/// ```
/// use daenerys_heaplang::{parse, run, Val};
///
/// let prog = parse("let l = ref 1 in l <- !l + 41; !l")?;
/// let (v, _) = run(prog, 1000).unwrap();
/// assert_eq!(v, Val::int(42));
/// # Ok::<(), daenerys_heaplang::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.expr()?;
    if p.pos != p.tokens.len() {
        return Err(p.error("trailing input"));
    }
    Ok(e)
}

/// How a binary operator groups with operators of its own precedence.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Assoc {
    /// `a - b - c` is `(a - b) - c`.
    Left,
    /// A comparison takes one operand on each side: `a < b < c` stops
    /// at the second `<`.
    Non,
}

/// Every binary operator: its token, its spelling, its AST operator,
/// its precedence (higher binds tighter; `<-` sits below all of them,
/// the unary operators above) and its associativity. The parser climbs
/// precedence over this table, and the printer parenthesizes from it.
pub(crate) const BINARY: [(Sym, &str, BinOp, u8, Assoc); 13] = [
    (Sym::OrOr, "||", BinOp::Or, 3, Assoc::Left),
    (Sym::AndAnd, "&&", BinOp::And, 4, Assoc::Left),
    (Sym::Eq, "=", BinOp::Eq, 5, Assoc::Non),
    (Sym::Ne, "!=", BinOp::Ne, 5, Assoc::Non),
    (Sym::Lt, "<", BinOp::Lt, 5, Assoc::Non),
    (Sym::Le, "<=", BinOp::Le, 5, Assoc::Non),
    (Sym::Gt, ">", BinOp::Gt, 5, Assoc::Non),
    (Sym::Ge, ">=", BinOp::Ge, 5, Assoc::Non),
    (Sym::Plus, "+", BinOp::Add, 6, Assoc::Left),
    (Sym::Minus, "-", BinOp::Sub, 6, Assoc::Left),
    (Sym::Star, "*", BinOp::Mul, 7, Assoc::Left),
    (Sym::Slash, "/", BinOp::Div, 7, Assoc::Left),
    (Sym::Percent, "%", BinOp::Rem, 7, Assoc::Left),
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_sym(&mut self, s: Sym) -> bool {
        if self.peek() == Some(&Token::Sym(s)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Kw) -> bool {
        if self.peek() == Some(&Token::Kw(k)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: Sym) -> Result<(), ParseError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}, found {:?}", s, self.peek())))
        }
    }

    fn expect_kw(&mut self, k: Kw) -> Result<(), ParseError> {
        if self.eat_kw(k) {
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}, found {:?}", k, self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError {
                at: self.pos.saturating_sub(1),
                message: format!("expected identifier, found {:?}", other),
            }),
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Kw(Kw::Let)) => {
                self.pos += 1;
                let x = self.ident()?;
                self.expect_sym(Sym::Eq)?;
                let e1 = self.expr()?;
                self.expect_kw(Kw::In)?;
                let e2 = self.expr()?;
                Ok(Expr::Let(
                    Binder::from(x.as_str()),
                    Box::new(e1),
                    Box::new(e2),
                ))
            }
            Some(Token::Kw(Kw::Fun)) => {
                self.pos += 1;
                let x = self.ident()?;
                self.expect_sym(Sym::Arrow)?;
                let body = self.expr()?;
                Ok(Expr::lam(&x, body))
            }
            Some(Token::Kw(Kw::Rec)) => {
                self.pos += 1;
                let f = self.ident()?;
                let x = self.ident()?;
                self.expect_sym(Sym::Arrow)?;
                let body = self.expr()?;
                Ok(Expr::rec(&f, &x, body))
            }
            Some(Token::Kw(Kw::If)) => {
                self.pos += 1;
                let c = self.expr()?;
                self.expect_kw(Kw::Then)?;
                let t = self.expr()?;
                self.expect_kw(Kw::Else)?;
                let e = self.expr()?;
                Ok(Expr::ite(c, t, e))
            }
            Some(Token::Kw(Kw::Match)) => {
                self.pos += 1;
                let scrut = self.expr()?;
                self.expect_kw(Kw::With)?;
                self.eat_sym(Sym::Pipe);
                self.expect_kw(Kw::Inl)?;
                let xl = self.ident()?;
                self.expect_sym(Sym::Arrow)?;
                let el = self.expr()?;
                self.expect_sym(Sym::Pipe)?;
                self.expect_kw(Kw::Inr)?;
                let xr = self.ident()?;
                self.expect_sym(Sym::Arrow)?;
                let er = self.expr()?;
                self.expect_kw(Kw::End)?;
                Ok(Expr::Case(
                    Box::new(scrut),
                    Binder::from(xl.as_str()),
                    Box::new(el),
                    Binder::from(xr.as_str()),
                    Box::new(er),
                ))
            }
            _ => self.seq(),
        }
    }

    fn seq(&mut self) -> Result<Expr, ParseError> {
        let e1 = self.store()?;
        if self.eat_sym(Sym::Semi) {
            let e2 = self.expr()?;
            Ok(Expr::seq(e1, e2))
        } else {
            Ok(e1)
        }
    }

    fn store(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.binary(0)?;
        if self.eat_sym(Sym::Assign) {
            let rhs = self.binary(0)?;
            Ok(Expr::store(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    /// The binary operators of precedence `min` and up over unary
    /// operands, by precedence climbing over [`BINARY`]: an operator's
    /// right operand is everything that binds tighter.
    fn binary(&mut self, min: u8) -> Result<Expr, ParseError> {
        let mut e = self.unary()?;
        // The precedence the next operator may have at most: after `+`
        // another `+` or a looser one, after a comparison only a looser.
        let mut max = u8::MAX;
        loop {
            let Some(&Token::Sym(sym)) = self.peek() else {
                return Ok(e);
            };
            let Some(&(_, _, op, prec, assoc)) = BINARY.iter().find(|b| b.0 == sym) else {
                return Ok(e);
            };
            if prec < min || prec > max {
                return Ok(e);
            }
            self.pos += 1;
            let rhs = self.binary(prec + 1)?;
            e = Expr::binop(op, e, rhs);
            max = match assoc {
                Assoc::Left => prec,
                Assoc::Non => prec - 1,
            };
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw(Kw::Not) {
            let e = self.unary()?;
            Ok(Expr::UnOp(UnOp::Not, Box::new(e)))
        } else if self.eat_sym(Sym::Minus) {
            // Fold unary minus on integer literals into the literal so
            // negative constants round-trip through the printer.
            if let Some(Token::Int(n)) = self.peek() {
                let n = *n;
                self.pos += 1;
                return Ok(Expr::int(n.wrapping_neg()));
            }
            let e = self.unary()?;
            Ok(Expr::UnOp(UnOp::Neg, Box::new(e)))
        } else {
            self.app()
        }
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token::Int(_))
                | Some(Token::Ident(_))
                | Some(Token::Sym(Sym::LParen))
                | Some(Token::Sym(Sym::Bang))
                | Some(Token::Kw(Kw::True))
                | Some(Token::Kw(Kw::False))
                | Some(Token::Kw(Kw::Ref))
                | Some(Token::Kw(Kw::Fork))
                | Some(Token::Kw(Kw::Cas))
                | Some(Token::Kw(Kw::Faa))
                | Some(Token::Kw(Kw::Inl))
                | Some(Token::Kw(Kw::Inr))
                | Some(Token::Kw(Kw::Fst))
                | Some(Token::Kw(Kw::Snd))
        )
    }

    fn app(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.atom()?;
        while self.starts_atom() {
            let arg = self.atom()?;
            e = Expr::app(e, arg);
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Token::Int(n)) => Ok(Expr::int(n)),
            Some(Token::Kw(Kw::True)) => Ok(Expr::bool(true)),
            Some(Token::Kw(Kw::False)) => Ok(Expr::bool(false)),
            Some(Token::Ident(x)) => Ok(Expr::var(&x)),
            Some(Token::Sym(Sym::Bang)) => Ok(Expr::load(self.atom()?)),
            Some(Token::Kw(Kw::Ref)) => Ok(Expr::alloc(self.atom()?)),
            Some(Token::Kw(Kw::Fork)) => Ok(Expr::fork(self.atom()?)),
            Some(Token::Kw(Kw::Inl)) => Ok(Expr::InjL(Box::new(self.atom()?))),
            Some(Token::Kw(Kw::Inr)) => Ok(Expr::InjR(Box::new(self.atom()?))),
            Some(Token::Kw(Kw::Fst)) => Ok(Expr::Fst(Box::new(self.atom()?))),
            Some(Token::Kw(Kw::Snd)) => Ok(Expr::Snd(Box::new(self.atom()?))),
            Some(Token::Kw(Kw::Cas)) => {
                self.expect_sym(Sym::LParen)?;
                let a = self.expr()?;
                self.expect_sym(Sym::Comma)?;
                let b = self.expr()?;
                self.expect_sym(Sym::Comma)?;
                let c = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(Expr::cas(a, b, c))
            }
            Some(Token::Kw(Kw::Faa)) => {
                self.expect_sym(Sym::LParen)?;
                let a = self.expr()?;
                self.expect_sym(Sym::Comma)?;
                let b = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(Expr::faa(a, b))
            }
            Some(Token::Sym(Sym::LParen)) => {
                if self.eat_sym(Sym::RParen) {
                    return Ok(Expr::unit());
                }
                let e = self.expr()?;
                if self.eat_sym(Sym::Comma) {
                    let e2 = self.expr()?;
                    self.expect_sym(Sym::RParen)?;
                    Ok(Expr::Pair(Box::new(e), Box::new(e2)))
                } else {
                    self.expect_sym(Sym::RParen)?;
                    Ok(e)
                }
            }
            other => Err(ParseError {
                at: self.pos.saturating_sub(1),
                message: format!("expected expression, found {:?}", other),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run;
    use crate::syntax::Val;

    fn eval(src: &str) -> Val {
        let e = parse(src).unwrap_or_else(|err| panic!("parse {:?}: {}", src, err));
        run(e, 100_000)
            .unwrap_or_else(|err| panic!("run {:?}: {}", src, err))
            .0
    }

    #[test]
    fn precedence() {
        assert_eq!(eval("1 + 2 * 3"), Val::int(7));
        assert_eq!(eval("(1 + 2) * 3"), Val::int(9));
        assert_eq!(eval("10 - 3 - 4"), Val::int(3)); // left assoc
        assert_eq!(eval("1 + 2 = 3"), Val::bool(true));
        assert_eq!(eval("true && false || true"), Val::bool(true));
        assert_eq!(eval("- 3 + 5"), Val::int(2));
        assert_eq!(eval("not (1 = 2)"), Val::bool(true));
    }

    #[test]
    fn let_and_seq() {
        assert_eq!(eval("let x = 3 in x + x"), Val::int(6));
        assert_eq!(eval("let l = ref 0 in l <- 5; !l"), Val::int(5));
    }

    #[test]
    fn functions() {
        assert_eq!(eval("(fun x => x + 1) 41"), Val::int(42));
        assert_eq!(
            eval("let f = rec go n => if n <= 0 then 0 else n + go (n - 1) in f 10"),
            Val::int(55)
        );
        // Application is left-associative, juxtaposition-based.
        assert_eq!(
            eval("(fun f => fun x => f (f x)) (fun y => y * 2) 3"),
            Val::int(12)
        );
    }

    #[test]
    fn pairs_and_sums() {
        assert_eq!(eval("fst (1, 2) + snd (1, 2)"), Val::int(3));
        assert_eq!(
            eval("match inl 7 with | inl x => x + 1 | inr y => 0 end"),
            Val::int(8)
        );
        assert_eq!(
            eval("match inr 7 with | inl x => 0 | inr y => y * 2 end"),
            Val::int(14)
        );
    }

    #[test]
    fn heap_operations() {
        assert_eq!(eval("let l = ref 5 in faa(l, 3); !l"), Val::int(8));
        assert_eq!(eval("let l = ref 0 in cas(l, 0, 9); !l"), Val::int(9));
        assert_eq!(eval("let l = ref 0 in cas(l, 1, 9)"), Val::bool(false));
        assert_eq!(eval("let l = ref (ref 3) in ! !l"), Val::int(3));
    }

    #[test]
    fn fork_parses() {
        assert_eq!(eval("let l = ref 0 in fork (l <- 1); 7"), Val::int(7));
    }

    #[test]
    fn comments_and_whitespace() {
        assert_eq!(eval("(* inc *) let x = 1 in // add\n x + 1"), Val::int(2));
    }

    #[test]
    fn errors() {
        assert!(parse("let = 3 in x").is_err());
        assert!(parse("1 +").is_err());
        assert!(parse("(1, 2").is_err());
        assert!(parse("1 2 3 )").is_err());
        assert!(parse("match 1 with inl x => 1 end").is_err());
    }

    #[test]
    fn anonymous_binder() {
        assert_eq!(eval("let _ = 99 in 1"), Val::int(1));
        assert_eq!(eval("(fun _ => 5) 9"), Val::int(5));
    }
}
