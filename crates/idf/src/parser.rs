//! Parser for the IDF surface syntax.
//!
//! ```text
//! program  ::= (field | method)*
//! field    ::= "field" ident ":" type
//! method   ::= "method" ident "(" params ")" ("returns" "(" params ")")?
//!              ("requires" assertion)* ("ensures" assertion)*
//!              ("{" stmts "}")?
//! assertion::= conjunct ("&&" conjunct)*
//! conjunct ::= "acc" "(" expr "." ident ("," frac)? ")"
//!            | expr ("==>" conjunct)?
//! frac     ::= int "/" int | "write" | int
//! stmt     ::= "var" ident ":" type ":=" expr
//!            | ident ":=" "new" "(" (ident ":" expr),* ")"
//!            | ident ":=" expr
//!            | expr "." ident ":=" expr
//!            | "inhale" assertion | "exhale" assertion | "assert" assertion
//!            | "if" "(" expr ")" block ("else" block)?
//!            | "while" "(" expr ")" ("invariant" assertion)* block
//!            | "call" (ident,+ ":=")? ident "(" expr,* ")"
//! ```
//!
//! Nesting is bounded by [`MAX_NESTING`]: a source that nests deeper is
//! a [`ParseError`] at the token where it goes over, never a stack
//! overflow in the parser or in a pass after it.

use crate::ast::{Assertion, Expr, Method, Op, Program, Span, Stmt, Type};
use crate::lexer::{lex_spanned, Kw, LexError, Sy, Tok};
use daenerys_algebra::Q;
use std::fmt;

/// A parse error, carrying both the token index and the source
/// position (1-based line/column) it was raised at.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Token index.
    pub at: usize,
    /// 1-based source line (0 when unknown).
    pub line: usize,
    /// 1-based source column (0 when unknown).
    pub col: usize,
    /// Description.
    pub message: String,
}

impl ParseError {
    /// Wraps a lexer error, resolving its byte position to a
    /// line/column pair against `src`.
    pub fn from_lex(e: LexError, src: &str) -> ParseError {
        let (line, col) = line_col_of_byte(src, e.pos);
        ParseError {
            at: 0,
            line,
            col,
            message: e.to_string(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "parse error at {}:{}: {}",
                self.line, self.col, self.message
            )
        } else {
            write!(f, "parse error at token {}: {}", self.at, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            at: 0,
            line: 0,
            col: 0,
            message: e.to_string(),
        }
    }
}

/// Resolves a byte offset in `src` to a 1-based (line, column) pair.
fn line_col_of_byte(src: &str, pos: usize) -> (usize, usize) {
    let pos = pos.min(src.len());
    let mut line = 1;
    let mut col = 1;
    for &b in &src.as_bytes()[..pos] {
        if b == b'\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

/// Parses a full IDF program, stopping at the first syntax error.
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors. Use
/// [`parse_program_with_recovery_capped`] to collect every diagnostic
/// in one pass instead of stopping at the first.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    parse_program_with_recovery_capped(src, DEFAULT_MAX_ERRORS).map_err(|mut errs| errs.remove(0))
}

/// The diagnostic cap front ends pass to
/// [`parse_program_with_recovery_capped`] unless told otherwise (the
/// daemon's `--max-errors` flag).
pub const DEFAULT_MAX_ERRORS: usize = 32;

/// Parses a full IDF program with error recovery: on a syntax error
/// (including one inside a method body) the parser records a
/// diagnostic, skips to the next top-level `field`/`method`
/// declaration, and keeps going — so one malformed declaration yields
/// one positioned diagnostic instead of hiding everything after it.
/// A pathological payload stops after `max_errors` real diagnostics
/// plus one sentinel (`"too many syntax errors"`) instead of flooding
/// the response or churning the recovery loop unboundedly. A cap of 0
/// is treated as 1.
///
/// # Errors
///
/// Returns every diagnostic collected, in source order (the list is
/// never empty on `Err`), truncated to `max_errors` (plus the sentinel
/// when truncation happened). A program that parses cleanly is returned
/// whole; the recovered partial program is discarded on error.
pub fn parse_program_with_recovery_capped(
    src: &str,
    max_errors: usize,
) -> Result<Program, Vec<ParseError>> {
    let max_errors = max_errors.max(1);
    let mut p = match P::new(src) {
        Ok(p) => p,
        Err(e) => return Err(vec![e]),
    };
    let mut prog = Program::default();
    let mut errors = Vec::new();
    while p.i < p.toks.len() {
        let item = if p.eat_kw(Kw::Field) {
            p.field_rest().map(|f| prog.fields.push(f))
        } else if p.peek_kw(Kw::Method) {
            p.method().map(|m| prog.methods.push(m))
        } else {
            Err(p.err("expected `field` or `method`"))
        };
        if let Err(e) = item {
            errors.push(e);
            if errors.len() >= max_errors {
                // The sentinel marks abandonment, not a token, so its
                // message skips the found-token suffix `err` appends.
                let mut sentinel = p.err("");
                sentinel.message = format!("too many syntax errors; stopping after {}", max_errors);
                errors.push(sentinel);
                break;
            }
            p.recover_to_item();
        }
    }
    if errors.is_empty() {
        Ok(prog)
    } else {
        Err(errors)
    }
}

/// The deepest nesting the parser accepts. It bounds both the parser's
/// own recursion (parentheses, unary operators, `old`/`perm`,
/// conditional arms, implications and blocks each open a level) and
/// the height of every `Expr`, `Assertion` and `Stmt` tree it returns,
/// counted in nodes from the tree's root to its deepest leaf, so a
/// 200-term `+` chain is refused as well. Every pass after the parser
/// (wf, fingerprints, stability, symbolic execution, the printer)
/// recurses over those trees; the bound keeps a hostile source from
/// overflowing the stack of the thread that reads it, and every
/// program in the repository nests well under it.
pub const MAX_NESTING: usize = 100;

/// How a binary operator groups with operators of its own precedence.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Assoc {
    /// `a - b - c` is `(a - b) - c`.
    Left,
    /// A comparison takes one operand on each side: `a < b < c` stops
    /// at the second `<`.
    Non,
}

/// Every binary operator: its token (which spells it), its AST
/// operator, its precedence (higher binds tighter; `?:` sits below all
/// of them, the unary operators above) and its associativity. The
/// parser climbs precedence over this table, and the printer
/// parenthesizes from it.
pub(crate) const BINARY: [(Sy, Op, u8, Assoc); 12] = [
    (Sy::OrOr, Op::Or, 1, Assoc::Left),
    (Sy::AndAnd, Op::And, 2, Assoc::Left),
    (Sy::EqEq, Op::Eq, 3, Assoc::Non),
    (Sy::Ne, Op::Ne, 3, Assoc::Non),
    (Sy::Lt, Op::Lt, 3, Assoc::Non),
    (Sy::Le, Op::Le, 3, Assoc::Non),
    (Sy::Gt, Op::Gt, 3, Assoc::Non),
    (Sy::Ge, Op::Ge, 3, Assoc::Non),
    (Sy::Plus, Op::Add, 4, Assoc::Left),
    (Sy::Minus, Op::Sub, 4, Assoc::Left),
    (Sy::Star, Op::Mul, 5, Assoc::Left),
    (Sy::Slash, Op::Div, 5, Assoc::Left),
];

/// Parses a single assertion (handy for tests and the harness).
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors or trailing input.
pub fn parse_assertion(src: &str) -> Result<Assertion, ParseError> {
    let mut p = P::new(src)?;
    let a = p.assertion()?;
    if p.i != p.toks.len() {
        return Err(p.err("trailing input"));
    }
    Ok(a)
}

struct P<'s> {
    /// Tokens, borrowing identifier text from the source.
    toks: Vec<Tok<'s>>,
    /// Starting byte offset of each token (parallel to `toks`).
    spans: Vec<usize>,
    i: usize,
    /// Byte offset where each source line starts (index 0 = line 1).
    line_starts: Vec<usize>,
    src_len: usize,
    /// Nesting levels currently open (at most [`MAX_NESTING`]).
    depth: usize,
    /// The height of the tree the last parsing function returned: its
    /// node count from root to deepest leaf (at most [`MAX_NESTING`]).
    height: usize,
}

impl<'s> P<'s> {
    fn new(src: &'s str) -> Result<P<'s>, ParseError> {
        let (toks, spans) = lex_spanned(src).map_err(|e| ParseError::from_lex(e, src))?;
        let mut line_starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        Ok(P {
            toks,
            spans,
            i: 0,
            line_starts,
            src_len: src.len(),
            depth: 0,
            height: 0,
        })
    }

    /// The source position of token `tok_idx` (end of input when out
    /// of range) as an AST [`Span`].
    fn span_at(&self, tok_idx: usize) -> Span {
        let pos = self.spans.get(tok_idx).copied().unwrap_or(self.src_len);
        let line = self.line_starts.partition_point(|&s| s <= pos);
        let col = pos - self.line_starts[line - 1] + 1;
        Span::new(line as u32, col as u32)
    }

    fn err(&self, m: impl Into<String>) -> ParseError {
        self.err_at(self.i, m)
    }

    /// An error at token `at`.
    fn err_at(&self, at: usize, m: impl Into<String>) -> ParseError {
        let pos = self.spans.get(at).copied().unwrap_or(self.src_len);
        // The number of line starts at or before `pos` is the 1-based
        // line; the column is the offset into that line.
        let line = self.line_starts.partition_point(|&s| s <= pos);
        let col = pos - self.line_starts[line - 1] + 1;
        ParseError {
            at,
            line,
            col,
            message: match self.toks.get(at) {
                Some(t) => format!("{}, found `{}`", m.into(), t),
                None => format!("{}, found end of input", m.into()),
            },
        }
    }

    /// Parses `inner` one nesting level deeper, for the construct
    /// opened at token `at`; refused there when it would pass
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        at: usize,
        inner: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep(at));
        }
        self.depth += 1;
        let parsed = inner(self);
        self.depth -= 1;
        parsed
    }

    /// Records the height of a node starting (or with its operator) at
    /// token `at` over children of which the tallest has height
    /// `child`; refused there when it would pass [`MAX_NESTING`].
    fn lift(&mut self, at: usize, child: usize) -> Result<(), ParseError> {
        if child >= MAX_NESTING {
            return Err(self.too_deep(at));
        }
        self.height = child + 1;
        Ok(())
    }

    fn too_deep(&self, at: usize) -> ParseError {
        self.err_at(at, format!("nested deeper than {} levels", MAX_NESTING))
    }

    /// The tail of a `field` declaration (the keyword already eaten).
    fn field_rest(&mut self) -> Result<(String, Type), ParseError> {
        let name = self.ident()?.to_string();
        self.expect_sym(Sy::Colon)?;
        let ty = self.ty()?;
        Ok((name, ty))
    }

    /// Error recovery: skip past the offending token, then forward to
    /// the next top-level `field`/`method` keyword (or end of input).
    fn recover_to_item(&mut self) {
        self.i += 1;
        while let Some(t) = self.peek() {
            if matches!(t, Tok::Kw(Kw::Field) | Tok::Kw(Kw::Method)) {
                return;
            }
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<&Tok<'s>> {
        self.toks.get(self.i)
    }

    fn peek2(&self) -> Option<&Tok<'s>> {
        self.toks.get(self.i + 1)
    }

    fn peek_kw(&self, k: Kw) -> bool {
        self.peek() == Some(&Tok::Kw(k))
    }

    fn eat_kw(&mut self, k: Kw) -> bool {
        if self.peek_kw(k) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat_sym(&mut self, s: Sy) -> bool {
        if self.peek() == Some(&Tok::Sym(s)) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: Sy) -> Result<(), ParseError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", s)))
        }
    }

    fn expect_kw(&mut self, k: Kw) -> Result<(), ParseError> {
        if self.eat_kw(k) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", k)))
        }
    }

    /// The next identifier, borrowed from the source: the caller copies
    /// it into the AST node it builds.
    fn ident(&mut self) -> Result<&'s str, ParseError> {
        match self.peek().copied() {
            Some(Tok::Ident(s)) => {
                self.i += 1;
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        if self.eat_kw(Kw::TyInt) {
            Ok(Type::Int)
        } else if self.eat_kw(Kw::TyBool) {
            Ok(Type::Bool)
        } else if self.eat_kw(Kw::TyRef) {
            Ok(Type::Ref)
        } else {
            Err(self.err("expected a type"))
        }
    }

    fn params(&mut self) -> Result<Vec<(String, Type)>, ParseError> {
        self.expect_sym(Sy::LParen)?;
        let mut out = Vec::new();
        if !self.eat_sym(Sy::RParen) {
            loop {
                let name = self.ident()?.to_string();
                self.expect_sym(Sy::Colon)?;
                let ty = self.ty()?;
                out.push((name, ty));
                if self.eat_sym(Sy::RParen) {
                    break;
                }
                self.expect_sym(Sy::Comma)?;
            }
        }
        Ok(out)
    }

    fn method(&mut self) -> Result<Method, ParseError> {
        self.expect_kw(Kw::Method)?;
        let name = self.ident()?.to_string();
        let params = self.params()?;
        let returns = if self.eat_kw(Kw::Returns) {
            self.params()?
        } else {
            Vec::new()
        };
        let (mut requires, mut hr) = (Vec::new(), 0);
        let (mut ensures, mut he) = (Vec::new(), 0);
        loop {
            let at = self.i;
            if self.eat_kw(Kw::Requires) {
                self.clause(at, &mut requires, &mut hr)?;
            } else if self.eat_kw(Kw::Ensures) {
                self.clause(at, &mut ensures, &mut he)?;
            } else {
                break;
            }
        }
        let body = if self.eat_sym(Sy::LBrace) {
            Some(self.stmts_until_rbrace()?)
        } else {
            None
        };
        Ok(Method {
            name,
            params,
            returns,
            requires: Assertion::all(requires),
            ensures: Assertion::all(ensures),
            body,
        })
    }

    /// Parses the clause whose keyword is token `at` into `clauses`,
    /// which [`Assertion::all`] conjoins; `height` is the height of
    /// that conjunction so far.
    fn clause(
        &mut self,
        at: usize,
        clauses: &mut Vec<Assertion>,
        height: &mut usize,
    ) -> Result<(), ParseError> {
        clauses.push(self.assertion()?);
        if clauses.len() > 1 {
            self.lift(at, (*height).max(self.height))?;
        }
        *height = self.height;
        Ok(())
    }

    /// The statements up to the closing brace; the height is the
    /// tallest statement's (0 for none).
    fn stmts_until_rbrace(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        let mut height = 0;
        loop {
            if self.eat_sym(Sy::RBrace) {
                self.height = height;
                return Ok(out);
            }
            out.push(self.stmt()?);
            height = height.max(self.height);
            // Optional semicolons between statements.
            while self.eat_sym(Sy::Semi) {}
        }
    }

    /// A nested `{ … }` block: one level deeper.
    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let at = self.i;
        self.expect_sym(Sy::LBrace)?;
        self.nested(at, P::stmts_until_rbrace)
    }

    /// One statement. Each form is parsed by a function of its own, so
    /// the frame that recurses once per block level (`stmt`, then
    /// `if_stmt` or `while_stmt`) holds only that form's locals.
    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let at = self.i;
        if self.eat_kw(Kw::Var) {
            return self.var_decl(at);
        }
        if self.eat_kw(Kw::Inhale) {
            return self.spec_stmt(at, Stmt::Inhale);
        }
        if self.eat_kw(Kw::Exhale) {
            return self.spec_stmt(at, Stmt::Exhale);
        }
        if self.eat_kw(Kw::Assert) {
            return self.spec_stmt(at, Stmt::Assert);
        }
        if self.eat_kw(Kw::If) {
            return self.if_stmt(at);
        }
        if self.eat_kw(Kw::While) {
            return self.while_stmt(at);
        }
        if self.eat_kw(Kw::Call) {
            return self.call_stmt(at);
        }
        // Assignment forms: `x := ...` or `e.f := e`.
        if let (Some(Tok::Ident(_)), Some(Tok::Sym(Sy::Assign))) = (self.peek(), self.peek2()) {
            return self.assign(at);
        }
        self.field_write(at)
    }

    /// `var x: T := e`, after the keyword.
    fn var_decl(&mut self, at: usize) -> Result<Stmt, ParseError> {
        let x = self.ident()?.to_string();
        self.expect_sym(Sy::Colon)?;
        let ty = self.ty()?;
        self.expect_sym(Sy::Assign)?;
        let e = self.expr()?;
        self.lift(at, self.height)?;
        Ok(Stmt::VarDecl(x, ty, e))
    }

    /// `inhale A`, `exhale A` or `assert A`, after the keyword.
    fn spec_stmt(&mut self, at: usize, wrap: fn(Assertion) -> Stmt) -> Result<Stmt, ParseError> {
        let a = self.assertion()?;
        self.lift(at, self.height)?;
        Ok(wrap(a))
    }

    /// `if (e) { … } [else { … }]`, after the keyword.
    fn if_stmt(&mut self, at: usize) -> Result<Stmt, ParseError> {
        self.expect_sym(Sy::LParen)?;
        let c = self.expr()?;
        let hc = self.height;
        self.expect_sym(Sy::RParen)?;
        let then = self.block()?;
        let ht = self.height;
        let (els, he) = if self.eat_kw(Kw::Else) {
            (self.block()?, self.height)
        } else {
            (Vec::new(), 0)
        };
        self.lift(at, hc.max(ht).max(he))?;
        Ok(Stmt::If(c, then, els))
    }

    /// `while (e) invariant A … { … }`, after the keyword.
    fn while_stmt(&mut self, at: usize) -> Result<Stmt, ParseError> {
        self.expect_sym(Sy::LParen)?;
        let c = self.expr()?;
        let hc = self.height;
        self.expect_sym(Sy::RParen)?;
        let (mut invs, mut hi) = (Vec::new(), 0);
        loop {
            let inv_at = self.i;
            if !self.eat_kw(Kw::Invariant) {
                break;
            }
            self.clause(inv_at, &mut invs, &mut hi)?;
        }
        let body = self.block()?;
        self.lift(at, hc.max(hi).max(self.height))?;
        Ok(Stmt::While(c, Assertion::all(invs), body))
    }

    /// `call [targets :=] m(args)`, after the keyword.
    fn call_stmt(&mut self, at: usize) -> Result<Stmt, ParseError> {
        let first = self.ident()?.to_string();
        let (targets, m) = if self.peek() == Some(&Tok::Sym(Sy::LParen)) {
            (Vec::new(), first)
        } else {
            let mut targets = vec![first];
            while self.eat_sym(Sy::Comma) {
                targets.push(self.ident()?.to_string());
            }
            self.expect_sym(Sy::Assign)?;
            (targets, self.ident()?.to_string())
        };
        let args = self.call_args()?;
        self.lift(at, self.height)?;
        Ok(Stmt::Call(targets, m, args))
    }

    /// `x := e` or `x := new(f: e, …)`, at the variable.
    fn assign(&mut self, at: usize) -> Result<Stmt, ParseError> {
        let x = self.ident()?.to_string();
        self.expect_sym(Sy::Assign)?;
        if self.eat_kw(Kw::New) {
            self.expect_sym(Sy::LParen)?;
            let mut fields = Vec::new();
            let mut height = 0;
            if !self.eat_sym(Sy::RParen) {
                loop {
                    let f = self.ident()?.to_string();
                    self.expect_sym(Sy::Colon)?;
                    let e = self.expr()?;
                    fields.push((f, e));
                    height = height.max(self.height);
                    if self.eat_sym(Sy::RParen) {
                        break;
                    }
                    self.expect_sym(Sy::Comma)?;
                }
            }
            self.lift(at, height)?;
            return Ok(Stmt::New(x, fields));
        }
        let e = self.expr()?;
        self.lift(at, self.height)?;
        Ok(Stmt::Assign(x, e))
    }

    /// `e.f := e`, at the receiver.
    fn field_write(&mut self, at: usize) -> Result<Stmt, ParseError> {
        let lhs = self.expr()?;
        // The receiver sits one below the `Field` node it came in.
        let hr = self.height - 1;
        match lhs {
            Expr::Field(recv, f, _) => {
                self.expect_sym(Sy::Assign)?;
                let rhs = self.expr()?;
                self.lift(at, hr.max(self.height))?;
                Ok(Stmt::FieldWrite(*recv, f, rhs))
            }
            _ => Err(self.err("expected a statement")),
        }
    }

    /// The parenthesized call arguments; the height is the tallest
    /// argument's (0 for none).
    fn call_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect_sym(Sy::LParen)?;
        let mut args = Vec::new();
        let mut height = 0;
        if !self.eat_sym(Sy::RParen) {
            loop {
                args.push(self.expr()?);
                height = height.max(self.height);
                if self.eat_sym(Sy::RParen) {
                    break;
                }
                self.expect_sym(Sy::Comma)?;
            }
        }
        self.height = height;
        Ok(args)
    }

    // ---- assertions ----

    fn assertion(&mut self) -> Result<Assertion, ParseError> {
        let mut acc = self.conjunct()?;
        loop {
            let at = self.i;
            if !self.eat_sym(Sy::AndAnd) {
                return Ok(acc);
            }
            let left = self.height;
            let rhs = self.conjunct()?;
            self.lift(at, left.max(self.height))?;
            acc = Assertion::and(acc, rhs);
        }
    }

    fn conjunct(&mut self) -> Result<Assertion, ParseError> {
        let at = self.i;
        if self.eat_kw(Kw::Acc) {
            self.expect_sym(Sy::LParen)?;
            // `Acc` replaces the `Field` node: same height.
            let recv = self.expr()?;
            let (recv, field) = match recv {
                Expr::Field(r, f, _) => (*r, f),
                _ => return Err(self.err("acc expects a field location e.f")),
            };
            let q = if self.eat_sym(Sy::Comma) {
                self.fraction()?
            } else {
                Q::ONE
            };
            self.expect_sym(Sy::RParen)?;
            return Ok(Assertion::Acc(recv, field, q));
        }
        // A parenthesized *assertion* (e.g. `(e ==> acc(x.f))`): try it
        // with backtracking; fall through to expression parsing when the
        // parenthesis turns out to enclose a plain expression.
        if self.peek() == Some(&Tok::Sym(Sy::LParen)) {
            let save = self.i;
            self.i += 1;
            if let Ok(a) = self.nested(save, P::assertion) {
                // Accept the parenthesized-assertion reading only when
                // it produced genuine assertion structure AND the next
                // token cannot continue an *expression* (otherwise e.g.
                // `(x && y) ==> A` would lose its implication).
                if self.eat_sym(Sy::RParen)
                    && !matches!(a, Assertion::Expr(_))
                    && self.ends_assertion()
                {
                    return Ok(a);
                }
            }
            self.i = save;
        }
        // expr, possibly `expr ==> conjunct`.
        let e = self.expr_no_and()?;
        let implies_at = self.i;
        if self.eat_sym(Sy::Implies) {
            let left = self.height;
            let rhs = self.nested(implies_at, P::conjunct)?;
            self.lift(implies_at, left.max(self.height))?;
            return Ok(Assertion::Implies(e, Box::new(rhs)));
        }
        self.lift(at, self.height)?;
        Ok(Assertion::Expr(e))
    }

    /// Whether the current token can follow a complete assertion (used
    /// to disambiguate parenthesized assertions from expressions).
    fn ends_assertion(&self) -> bool {
        matches!(
            self.peek(),
            None | Some(Tok::Sym(Sy::AndAnd))
                | Some(Tok::Sym(Sy::RParen))
                | Some(Tok::Sym(Sy::RBrace))
                | Some(Tok::Sym(Sy::Semi))
                | Some(Tok::Sym(Sy::LBrace))
                | Some(Tok::Kw(Kw::Requires))
                | Some(Tok::Kw(Kw::Ensures))
                | Some(Tok::Kw(Kw::Invariant))
                | Some(Tok::Kw(Kw::Method))
                | Some(Tok::Kw(Kw::Field))
        )
    }

    fn fraction(&mut self) -> Result<Q, ParseError> {
        if self.eat_kw(Kw::Write) {
            return Ok(Q::ONE);
        }
        match self.peek().copied() {
            Some(Tok::Int(n)) => {
                self.i += 1;
                if self.eat_sym(Sy::Slash) {
                    match self.peek().copied() {
                        Some(Tok::Int(d)) if d != 0 => {
                            self.i += 1;
                            Ok(Q::new(n as i128, d as i128))
                        }
                        _ => Err(self.err("expected nonzero denominator")),
                    }
                } else {
                    Ok(Q::from_int(n))
                }
            }
            _ => Err(self.err("expected a fraction")),
        }
    }

    // ---- expressions ----
    // cond > binary (loosest to tightest, see `BINARY`) > unary > postfix > atom

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.expr_cond(true)
    }

    /// Expression that stops at assertion-level `&&` (used inside
    /// assertion conjuncts so `A && B` splits at the assertion level).
    fn expr_no_and(&mut self) -> Result<Expr, ParseError> {
        self.expr_cond(false)
    }

    fn expr_cond(&mut self, allow_and: bool) -> Result<Expr, ParseError> {
        let c = self.expr_binary(0, allow_and)?;
        let at = self.i;
        if self.eat_sym(Sy::Question) {
            let hc = self.height;
            let t = self.nested(at, P::expr)?;
            let ht = self.height;
            let colon = self.i;
            self.expect_sym(Sy::Colon)?;
            let e = self.nested(colon, P::expr)?;
            self.lift(at, hc.max(ht).max(self.height))?;
            return Ok(Expr::Cond(Box::new(c), Box::new(t), Box::new(e)));
        }
        Ok(c)
    }

    /// The binary operators of precedence `min` and up over unary
    /// operands, by precedence climbing over [`BINARY`]: an operator's
    /// right operand is everything that binds tighter. `&&` is an
    /// operator only where `allow_and` is set.
    fn expr_binary(&mut self, min: u8, allow_and: bool) -> Result<Expr, ParseError> {
        let mut e = self.expr_unary()?;
        // The precedence the next operator may have at most: after `+`
        // another `+` or a looser one, after a comparison only a looser.
        let mut max = u8::MAX;
        loop {
            let at = self.i;
            let Some(Tok::Sym(sy)) = self.peek().copied() else {
                return Ok(e);
            };
            let Some(&(_, op, prec, assoc)) = BINARY.iter().find(|b| b.0 == sy) else {
                return Ok(e);
            };
            if prec < min || prec > max || (sy == Sy::AndAnd && !allow_and) {
                return Ok(e);
            }
            self.i += 1;
            let left = self.height;
            let rhs = self.expr_binary(prec + 1, allow_and)?;
            self.lift(at, left.max(self.height))?;
            e = Expr::bin(op, e, rhs);
            max = match assoc {
                Assoc::Left => prec,
                Assoc::Non => prec - 1,
            };
        }
    }

    fn expr_unary(&mut self) -> Result<Expr, ParseError> {
        let at = self.i;
        if self.eat_sym(Sy::Bang) {
            let e = self.nested(at, P::expr_unary)?;
            self.lift(at, self.height)?;
            return Ok(Expr::Not(Box::new(e)));
        }
        if self.eat_sym(Sy::Minus) {
            // Fold unary minus on integer literals so negative constants
            // round-trip through the printer.
            if let Some(Tok::Int(n)) = self.peek() {
                let n = *n;
                self.i += 1;
                self.height = 1;
                return Ok(Expr::Int(n.wrapping_neg()));
            }
            let e = self.nested(at, P::expr_unary)?;
            self.lift(at, self.height)?;
            return Ok(Expr::Neg(Box::new(e)));
        }
        self.expr_postfix()
    }

    fn expr_postfix(&mut self) -> Result<Expr, ParseError> {
        // Anchor field-read spans at the start of the receiver, so a
        // diagnostic about `x.f` points at the `x`.
        let start = self.i;
        let mut e = self.atom()?;
        loop {
            let at = self.i;
            if !self.eat_sym(Sy::Dot) {
                return Ok(e);
            }
            let f = self.ident()?;
            self.lift(at, self.height)?;
            e = Expr::field_at(e, f, self.span_at(start));
        }
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        let leaf = match self.peek().copied() {
            Some(Tok::Int(n)) => Expr::Int(n),
            Some(Tok::Kw(Kw::True)) => Expr::Bool(true),
            Some(Tok::Kw(Kw::False)) => Expr::Bool(false),
            Some(Tok::Kw(Kw::Null)) => Expr::Null,
            Some(Tok::Ident(x)) => Expr::var(x),
            Some(Tok::Kw(Kw::Old)) => {
                let at = self.i;
                let span = self.span_at(at);
                self.i += 1;
                self.expect_sym(Sy::LParen)?;
                let e = self.nested(at, P::expr)?;
                self.expect_sym(Sy::RParen)?;
                self.lift(at, self.height)?;
                return Ok(Expr::Old(Box::new(e), span));
            }
            Some(Tok::Kw(Kw::Perm)) => {
                let at = self.i;
                let span = self.span_at(at);
                self.i += 1;
                self.expect_sym(Sy::LParen)?;
                let e = self.nested(at, P::expr)?;
                self.expect_sym(Sy::RParen)?;
                // `Perm` replaces the `Field` node: same height.
                return match e {
                    Expr::Field(r, f, _) => Ok(Expr::Perm(r, f, span)),
                    _ => Err(self.err("perm expects a field location e.f")),
                };
            }
            Some(Tok::Sym(Sy::LParen)) => {
                let at = self.i;
                self.i += 1;
                let e = self.nested(at, P::expr)?;
                self.expect_sym(Sy::RParen)?;
                return Ok(e);
            }
            _ => return Err(self.err("expected an expression")),
        };
        self.i += 1;
        self.height = 1;
        Ok(leaf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_method() {
        let src = r#"
            field val: Int
            method transfer(a: Ref, b: Ref, amt: Int)
              requires acc(a.val) && acc(b.val) && a.val >= amt && amt >= 0
              ensures acc(a.val) && acc(b.val)
              ensures a.val == old(a.val) - amt && b.val == old(b.val) + amt
            {
              a.val := a.val - amt;
              b.val := b.val + amt
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.fields, vec![("val".to_string(), Type::Int)]);
        let m = p.method("transfer").unwrap();
        assert_eq!(m.params.len(), 3);
        assert_eq!(m.requires.acc_count(), 2);
        assert_eq!(m.body.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn diagnostics_spell_tokens_as_the_source_writes_them() {
        let e = &parse_program_with_recovery_capped("method m(c Ref) { }", DEFAULT_MAX_ERRORS)
            .unwrap_err()[0];
        assert_eq!(e.message, "expected `:`, found `Ref`");
        assert_eq!((e.line, e.col), (1, 12));
        let e =
            &parse_program_with_recovery_capped("method m(c: Ref) { assert ", DEFAULT_MAX_ERRORS)
                .unwrap_err()[0];
        assert_eq!(e.message, "expected an expression, found end of input");
        assert_eq!((e.line, e.col), (1, 27));
    }

    #[test]
    fn nesting_past_the_bound_is_refused_at_the_offending_token() {
        // Parentheses open parser levels without building nodes.
        let parens = |n: usize| {
            format!(
                "method m() returns (r: Int) {{ r := {}1{} }}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        assert!(parse_program(&parens(MAX_NESTING)).is_ok());
        let e = parse_program(&parens(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(e.message, "nested deeper than 100 levels, found `(`");
        let first = "method m() returns (r: Int) { r := ".len();
        assert_eq!((e.line, e.col), (1, first + MAX_NESTING + 1));
        // A `+` chain adds a node per term without recursing: the
        // assignment, the chain and a leaf make `n + 1` levels.
        let chain = |n: usize| {
            format!(
                "method m() returns (r: Int) {{ r := {} }}",
                vec!["1"; n].join(" + ")
            )
        };
        assert!(parse_program(&chain(MAX_NESTING - 1)).is_ok());
        // One term more and the assignment is the node over the bound;
        // two more, and the chain's last `+` is.
        let e = parse_program(&chain(MAX_NESTING)).unwrap_err();
        assert_eq!(e.message, "nested deeper than 100 levels, found `r`");
        let e = parse_program(&chain(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(e.message, "nested deeper than 100 levels, found `+`");
        // A chain that mixes levels (`*` under `+` under `==` under
        // `||`) grows the same way, with its `*` run on the left or on
        // the right; one term more each time, the refusal moves down a
        // level, to the operator whose node passes the bound.
        let mixed = |n: usize| {
            let run = vec!["1"; n - 3].join(" * ");
            [
                format!(
                    "method m() returns (r: Bool) {{ r := {} + 1 == 1 || true }}",
                    run
                ),
                format!(
                    "method m() returns (r: Bool) {{ r := true || 1 == 1 + {} }}",
                    run
                ),
            ]
        };
        for src in mixed(MAX_NESTING - 1) {
            assert!(parse_program(&src).is_ok());
        }
        for (n, found, cols) in [
            (MAX_NESTING, "r", [32, 32]),
            (MAX_NESTING + 1, "||", [436, 42]),
            (MAX_NESTING + 2, "==", [435, 47]),
            (MAX_NESTING + 3, "+", [435, 52]),
            (MAX_NESTING + 4, "*", [435, 452]),
        ] {
            for (src, col) in mixed(n).iter().zip(cols) {
                let e = parse_program(src).unwrap_err();
                assert_eq!(
                    e.message,
                    format!("nested deeper than 100 levels, found `{}`", found)
                );
                assert_eq!((e.line, e.col), (1, col), "{} terms", n);
            }
        }
        // So do separate `requires` clauses, conjoined into one tree.
        let clauses = |n: usize| format!("method m(x: Int) {} {{ }}", "requires x == 1 ".repeat(n));
        assert!(parse_program(&clauses(MAX_NESTING - 2)).is_ok());
        let e = parse_program(&clauses(MAX_NESTING - 1)).unwrap_err();
        assert_eq!(e.message, "nested deeper than 100 levels, found `requires`");
        // Far past the bound, every shape is refused without overflowing
        // the stack.
        for src in [
            parens(100_000),
            chain(100_000),
            format!("method m() {{ {} }}", "if (true) { ".repeat(100_000)),
            format!("method m() {{ assert {}true }}", "!".repeat(100_000)),
            format!("method m() {{ assert {}x }}", "x ==> ".repeat(100_000)),
            format!(
                "method m() {{ assert {}x{} }}",
                "(x ==> ".repeat(100_000),
                ")".repeat(100_000)
            ),
        ] {
            assert!(parse_program(&src).is_err());
        }
    }

    #[test]
    fn parses_fractions_and_perm() {
        let a = parse_assertion("acc(x.f, 1/2) && perm(x.f) >= 1/2").unwrap();
        assert_eq!(a.acc_count(), 1);
        let a = parse_assertion("acc(x.f, write)").unwrap();
        match a {
            Assertion::Acc(_, _, q) => assert_eq!(q, Q::ONE),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_statements() {
        let src = r#"
            field f: Int
            method m(x: Ref) returns (r: Int)
            {
              var t: Int := x.f + 1;
              if (t > 0) { x.f := t } else { x.f := 0 - t };
              while (t < 10) invariant acc(x.f) { t := t + 1 };
              r := t;
              inhale acc(x.f, 1/2);
              exhale acc(x.f, 1/2);
              assert x.f == x.f;
              call m2(x);
              call r := m3(x, t)
            }
            method m2(y: Ref)
            method m3(y: Ref, n: Int) returns (out: Int)
        "#;
        let p = parse_program(src).unwrap();
        let m = p.method("m").unwrap();
        let body = m.body.as_ref().unwrap();
        assert_eq!(body.len(), 9);
        assert!(matches!(body[1], Stmt::If(..)));
        assert!(matches!(body[2], Stmt::While(..)));
        assert!(matches!(body[8], Stmt::Call(ref t, _, _) if t.len() == 1));
        assert!(p.method("m2").unwrap().body.is_none());
    }

    #[test]
    fn parses_new_and_implication() {
        let src = r#"
            field v: Int
            method m() returns (x: Ref)
              ensures acc(x.v) && (x.v > 0 ==> x.v >= 1)
            {
              x := new(v: 5)
            }
        "#;
        let p = parse_program(src).unwrap();
        let m = p.method("m").unwrap();
        assert!(matches!(m.body.as_ref().unwrap()[0], Stmt::New(..)));
    }

    #[test]
    fn conditional_expression() {
        let src = "field f: Int method m(x: Int) returns (r: Int) { r := x > 0 ? x : 0 - x }";
        let p = parse_program(src).unwrap();
        let m = p.method("m").unwrap();
        assert!(matches!(
            m.body.as_ref().unwrap()[0],
            Stmt::Assign(_, Expr::Cond(..))
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_program("method m( {").is_err());
        assert!(parse_program("field x").is_err());
        assert!(parse_assertion("acc(x)").is_err());
        assert!(parse_assertion("1 +").is_err());
    }

    #[test]
    fn errors_carry_line_and_column() {
        let src = "field val: Int\nmethod m(c: Ref) {\n  c.val := := 1\n}";
        let err = parse_program(src).unwrap_err();
        assert_eq!(err.line, 3, "error is on the third line: {}", err);
        assert!(err.col > 1, "column points into the line: {}", err);
        assert!(err.to_string().contains("parse error at 3:"));
    }

    #[test]
    fn lex_errors_carry_line_and_column_too() {
        let err = parse_program("field val: Int\nmethod m() { § }").unwrap_err();
        assert_eq!(err.line, 2, "lex error is on the second line: {}", err);
        assert!(err.to_string().contains("parse error at 2:"));
    }

    #[test]
    fn recovery_reports_multiple_diagnostics() {
        // Two broken method bodies and one good method: recovery skips
        // to the next top-level declaration after each error, so both
        // errors are reported and the good method still parses alone.
        let src = "field val: Int
method bad1(c: Ref) { c.val := := 1 }
method good(c: Ref) requires acc(c.val) ensures acc(c.val) { c.val := 0 }
method bad2(c: Ref) { assert }";
        let errs = parse_program_with_recovery_capped(src, DEFAULT_MAX_ERRORS).unwrap_err();
        assert_eq!(errs.len(), 2, "got: {:?}", errs);
        assert_eq!(errs[0].line, 2);
        assert_eq!(errs[1].line, 4);
        // The eager entry point keeps its first-error behavior.
        let first = parse_program(src).unwrap_err();
        assert_eq!(first, errs[0]);
    }

    #[test]
    fn recovery_returns_the_surviving_declarations() {
        let src = "field val: Int
method bad(c: Ref) { c.val := := 1 }
method good(c: Ref) requires acc(c.val) ensures acc(c.val) { c.val := 0 }";
        // A caller that tolerates diagnostics can still see the good
        // method by re-parsing without the bad one; the recovery API
        // itself reports errors rather than a partial AST.
        assert!(parse_program_with_recovery_capped(src, DEFAULT_MAX_ERRORS).is_err());
        let good_only = "field val: Int
method good(c: Ref) requires acc(c.val) ensures acc(c.val) { c.val := 0 }";
        let p = parse_program_with_recovery_capped(good_only, DEFAULT_MAX_ERRORS).unwrap();
        assert!(p.method("good").is_some());
    }

    #[test]
    fn recovery_survives_error_in_last_declaration() {
        let errs = parse_program_with_recovery_capped(
            "field val: Int\nmethod m(c: Ref) {",
            DEFAULT_MAX_ERRORS,
        )
        .unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].line >= 1);
    }

    #[test]
    fn recovery_caps_pathological_diagnostic_floods() {
        // 100 broken declarations: the default cap stops after 32 real
        // diagnostics plus one sentinel instead of reporting all 100.
        let src = "method bad(c: Ref) { assert }\n".repeat(100);
        let errs = parse_program_with_recovery_capped(&src, DEFAULT_MAX_ERRORS).unwrap_err();
        assert_eq!(errs.len(), DEFAULT_MAX_ERRORS + 1, "got: {:?}", errs.len());
        assert!(errs[DEFAULT_MAX_ERRORS]
            .message
            .contains("too many syntax errors; stopping after 32"));

        let errs = parse_program_with_recovery_capped(&src, 5).unwrap_err();
        assert_eq!(errs.len(), 6);
        assert!(errs[5].message.contains("stopping after 5"));

        // A cap of 0 still reports the first error (list never empty).
        let errs = parse_program_with_recovery_capped(&src, 0).unwrap_err();
        assert_eq!(errs.len(), 2, "one real diagnostic plus the sentinel");
    }

    #[test]
    fn recovery_under_the_cap_is_unchanged() {
        let src = "method bad(c: Ref) { assert }\nmethod bad2(c: Ref) { assert }";
        let errs = parse_program_with_recovery_capped(src, 32).unwrap_err();
        assert_eq!(errs.len(), 2, "no sentinel when the cap is not hit");
    }
}
