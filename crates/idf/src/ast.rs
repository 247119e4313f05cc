//! Abstract syntax of the IDF (implicit dynamic frames) language.
//!
//! A deliberately Viper-shaped mini-language: methods with
//! `requires`/`ensures` contracts, object fields accessed through
//! references, accessibility predicates `acc(e.f, q)`, heap-dependent
//! expressions in specifications (`e.f`, `old(e)`, `perm(e.f)`), and
//! the statement forms an automated SL verifier manipulates
//! (`inhale`/`exhale`, loops with invariants, method calls).

use daenerys_algebra::Q;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Types of the IDF language.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// Mathematical integers.
    Int,
    /// Booleans.
    Bool,
    /// Object references.
    Ref,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "Int"),
            Type::Bool => write!(f, "Bool"),
            Type::Ref => write!(f, "Ref"),
        }
    }
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum Op {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// A source position: 1-based line and column, with `0:0` meaning
/// "unknown" (synthesized nodes). Spans are *metadata*: they compare
/// equal to every other span and hash to nothing, so derived equality
/// and hashing on AST nodes ignore positions — two programs that print
/// the same are equal, and fingerprints/round-trip tests are unaffected
/// by where a node came from.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// 1-based line (0 = unknown).
    pub line: u32,
    /// 1-based column (0 = unknown).
    pub col: u32,
}

impl Span {
    /// The unknown position.
    pub const NONE: Span = Span { line: 0, col: 0 };

    /// A known position.
    pub fn new(line: u32, col: u32) -> Span {
        Span { line, col }
    }

    /// Whether the span carries a real position.
    pub fn is_known(&self) -> bool {
        self.line != 0
    }
}

impl PartialEq for Span {
    /// Always true: spans never participate in structural equality.
    fn eq(&self, _other: &Span) -> bool {
        true
    }
}

impl Eq for Span {}

impl Hash for Span {
    /// Hashes nothing, to agree with `==`: derived hashes of AST nodes
    /// (the structural fingerprints) ignore positions too.
    fn hash<H: Hasher>(&self, _state: &mut H) {}
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Expressions (program and specification level).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// The null reference.
    Null,
    /// A local variable or parameter.
    Var(String),
    /// Heap read `e.f` — the heap-dependent expression.
    Field(Box<Expr>, String, Span),
    /// `old(e)`: `e` evaluated in the method's pre-state (spec only).
    Old(Box<Expr>, Span),
    /// `perm(e.f)`: the currently-held permission amount (spec only).
    Perm(Box<Expr>, String, Span),
    /// Binary operation.
    Bin(Op, Box<Expr>, Box<Expr>),
    /// Boolean negation.
    Not(Box<Expr>),
    /// Integer negation.
    Neg(Box<Expr>),
    /// Conditional expression `e ? e : e`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Variable shorthand.
    pub fn var(x: &str) -> Expr {
        Expr::Var(x.to_string())
    }

    /// Field access shorthand (unknown span).
    pub fn field(e: Expr, f: &str) -> Expr {
        Expr::Field(Box::new(e), f.to_string(), Span::NONE)
    }

    /// Field access shorthand with a known span.
    pub fn field_at(e: Expr, f: &str, span: Span) -> Expr {
        Expr::Field(Box::new(e), f.to_string(), span)
    }

    /// Binary-op shorthand.
    pub fn bin(op: Op, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// Whether the expression reads the heap (directly or under `old`).
    pub fn reads_heap(&self) -> bool {
        match self {
            Expr::Int(_) | Expr::Bool(_) | Expr::Null | Expr::Var(_) => false,
            Expr::Field(..) | Expr::Old(..) | Expr::Perm(..) => true,
            Expr::Bin(_, a, b) => a.reads_heap() || b.reads_heap(),
            Expr::Not(a) | Expr::Neg(a) => a.reads_heap(),
            Expr::Cond(c, t, e) => c.reads_heap() || t.reads_heap() || e.reads_heap(),
        }
    }

    /// Number of field reads in the expression — the metric behind the
    /// witness counts of the stable baseline (experiment T1).
    pub fn field_reads(&self) -> usize {
        match self {
            Expr::Int(_) | Expr::Bool(_) | Expr::Null | Expr::Var(_) => 0,
            Expr::Field(e, _, _) => 1 + e.field_reads(),
            Expr::Old(e, _) => e.field_reads(),
            Expr::Perm(e, _, _) => e.field_reads(),
            Expr::Bin(_, a, b) => a.field_reads() + b.field_reads(),
            Expr::Not(a) | Expr::Neg(a) => a.field_reads(),
            Expr::Cond(c, t, e) => c.field_reads() + t.field_reads() + e.field_reads(),
        }
    }
}

/// Recognizes a fraction literal in specification position: `n` or
/// `n/d` with integer literals (used for `acc` amounts and `perm`
/// comparisons).
pub fn fraction_literal(e: &Expr) -> Option<Q> {
    match e {
        Expr::Int(n) => Some(Q::from_int(*n)),
        Expr::Bin(Op::Div, a, b) => match (&**a, &**b) {
            (Expr::Int(n), Expr::Int(d)) if *d != 0 => Some(Q::new(*n as i128, *d as i128)),
            _ => None,
        },
        _ => None,
    }
}

/// Specification assertions.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum Assertion {
    /// A boolean expression (may be heap-dependent).
    Expr(Expr),
    /// Accessibility `acc(e.f, q)`.
    Acc(Expr, String, Q),
    /// IDF conjunction: permissions separate, pure parts conjoin.
    And(Box<Assertion>, Box<Assertion>),
    /// Conditional assertion `e ==> A`.
    Implies(Expr, Box<Assertion>),
}

impl Assertion {
    /// The trivially-true assertion.
    pub fn truth() -> Assertion {
        Assertion::Expr(Expr::Bool(true))
    }

    /// Conjunction shorthand.
    pub fn and(a: Assertion, b: Assertion) -> Assertion {
        Assertion::And(Box::new(a), Box::new(b))
    }

    /// Full-permission accessibility shorthand.
    pub fn acc(e: Expr, f: &str) -> Assertion {
        Assertion::Acc(e, f.to_string(), Q::ONE)
    }

    /// Conjunction of a list of assertions.
    pub fn all(items: impl IntoIterator<Item = Assertion>) -> Assertion {
        let mut it = items.into_iter();
        match it.next() {
            None => Assertion::truth(),
            Some(first) => it.fold(first, Assertion::and),
        }
    }

    /// Number of `acc` conjuncts.
    pub fn acc_count(&self) -> usize {
        match self {
            Assertion::Expr(_) => 0,
            Assertion::Acc(..) => 1,
            Assertion::And(a, b) => a.acc_count() + b.acc_count(),
            Assertion::Implies(_, a) => a.acc_count(),
        }
    }

    /// Canonicalizes the assertion: the parser never produces an
    /// [`Assertion::Expr`] whose top level is a boolean `&&` (it splits
    /// conjunction at the assertion level), so normalization performs
    /// the same split. The printer round-trips canonical assertions.
    pub fn normalize(&self) -> Assertion {
        fn conjuncts(a: &Assertion, out: &mut Vec<Assertion>) {
            match a {
                Assertion::Expr(Expr::Bin(Op::And, x, y)) => {
                    conjuncts(&Assertion::Expr((**x).clone()), out);
                    conjuncts(&Assertion::Expr((**y).clone()), out);
                }
                Assertion::Expr(e) => out.push(Assertion::Expr(e.clone())),
                Assertion::Acc(..) => out.push(a.clone()),
                Assertion::And(x, y) => {
                    conjuncts(x, out);
                    conjuncts(y, out);
                }
                Assertion::Implies(c, b) => {
                    out.push(Assertion::Implies(c.clone(), Box::new(b.normalize())));
                }
            }
        }
        // Flatten, then left-fold — the parser's association.
        let mut items = Vec::new();
        conjuncts(self, &mut items);
        Assertion::all(items)
    }

    /// Number of field reads across all pure parts.
    pub fn field_reads(&self) -> usize {
        match self {
            Assertion::Expr(e) => e.field_reads(),
            Assertion::Acc(e, _, _) => e.field_reads(),
            Assertion::And(a, b) => a.field_reads() + b.field_reads(),
            Assertion::Implies(e, a) => e.field_reads() + a.field_reads(),
        }
    }
}

/// Statements.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum Stmt {
    /// `var x: T := e`.
    VarDecl(String, Type, Expr),
    /// `x := e`.
    Assign(String, Expr),
    /// `e.f := e`.
    FieldWrite(Expr, String, Expr),
    /// `x := new(f1: e1, …)` — allocate an object with the given fields.
    New(String, Vec<(String, Expr)>),
    /// `inhale A`.
    Inhale(Assertion),
    /// `exhale A`.
    Exhale(Assertion),
    /// `assert A`.
    Assert(Assertion),
    /// `if (e) { .. } else { .. }`.
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while (e) invariant A { .. }`.
    While(Expr, Assertion, Vec<Stmt>),
    /// `targets := m(args)` (empty target list for `call m(args)`).
    Call(Vec<String>, String, Vec<Expr>),
}

/// A method with its contract.
#[derive(Clone, PartialEq, Debug)]
pub struct Method {
    /// Method name.
    pub name: String,
    /// Parameters.
    pub params: Vec<(String, Type)>,
    /// Out-parameters (returned values).
    pub returns: Vec<(String, Type)>,
    /// Precondition.
    pub requires: Assertion,
    /// Postcondition.
    pub ensures: Assertion,
    /// Body (absent for abstract methods).
    pub body: Option<Vec<Stmt>>,
}

/// A full program: field declarations plus methods.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    /// Declared fields with their types.
    pub fields: Vec<(String, Type)>,
    /// Methods in declaration order.
    pub methods: Vec<Method>,
    /// Name → position of `methods`, built on the first
    /// [`Program::method`] call.
    index: MethodIndex,
}

/// The lazily built name → position index behind [`Program::method`].
/// Like [`Span`], it is metadata: it compares equal to every other
/// index, and a clone starts empty (the clone builds its own on first
/// lookup), so equality and cloning see only fields and methods.
/// Each name maps to its first position (the first declaration wins).
#[derive(Default)]
struct MethodIndex(OnceLock<HashMap<String, usize>>);

impl Clone for MethodIndex {
    fn clone(&self) -> MethodIndex {
        MethodIndex::default()
    }
}

impl PartialEq for MethodIndex {
    /// Always true: the index never participates in structural equality.
    fn eq(&self, _other: &MethodIndex) -> bool {
        true
    }
}

impl fmt::Debug for MethodIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MethodIndex")
    }
}

impl Program {
    /// A program with the given fields and methods.
    pub fn new(fields: Vec<(String, Type)>, methods: Vec<Method>) -> Program {
        Program {
            fields,
            methods,
            index: MethodIndex::default(),
        }
    }

    /// Looks up a method by name: the first declaration of `name`, as
    /// `methods.iter().find(..)` would return, in O(1) after the first
    /// call builds the index.
    ///
    /// `methods` is public, so it can be edited after the index is
    /// built. A lookup falls back to the scan when the indexed slot no
    /// longer carries `name` or `name` is not indexed, so the result
    /// always has the requested name and is `None` exactly when the
    /// scan's is. It differs from the scan only if an edit since the
    /// first lookup put a new *earlier* duplicate of `name` in place; a
    /// clone or [`Program::new`] starts a fresh index.
    pub fn method(&self, name: &str) -> Option<&Method> {
        let index = self.index.0.get_or_init(|| {
            let mut index = HashMap::with_capacity(self.methods.len());
            for (i, m) in self.methods.iter().enumerate() {
                index.entry(m.name.clone()).or_insert(i);
            }
            index
        });
        let slot = index.get(name).and_then(|&i| self.methods.get(i));
        match slot {
            Some(m) if m.name == name => Some(m),
            // Not indexed, or a stale slot: the scan is the truth.
            _ => self.methods.iter().find(|m| m.name == name),
        }
    }

    /// Looks up a field's type.
    pub fn field_type(&self, name: &str) -> Option<Type> {
        self.fields.iter().find(|(f, _)| f == name).map(|(_, t)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_metrics() {
        // acc(a.val) && a.val >= b.val
        let spec = Assertion::and(
            Assertion::acc(Expr::var("a"), "val"),
            Assertion::Expr(Expr::bin(
                Op::Ge,
                Expr::field(Expr::var("a"), "val"),
                Expr::field(Expr::var("b"), "val"),
            )),
        );
        assert_eq!(spec.acc_count(), 1);
        assert_eq!(spec.field_reads(), 2);
    }

    #[test]
    fn reads_heap_detection() {
        assert!(Expr::field(Expr::var("x"), "f").reads_heap());
        assert!(Expr::Old(Box::new(Expr::var("x")), Span::NONE).reads_heap());
        assert!(!Expr::bin(Op::Add, Expr::var("x"), Expr::Int(1)).reads_heap());
    }

    #[test]
    fn display_round() {
        let e = Expr::bin(Op::Add, Expr::field(Expr::var("a"), "val"), Expr::Int(1));
        assert_eq!(e.to_string(), "a.val + 1");
        let a = Assertion::Acc(Expr::var("a"), "val".into(), Q::HALF);
        assert_eq!(a.to_string(), "acc(a.val, 1/2)");
    }

    #[test]
    fn program_lookup() {
        let p = Program::new(vec![("val".into(), Type::Int)], vec![]);
        assert_eq!(p.field_type("val"), Some(Type::Int));
        assert_eq!(p.field_type("nope"), None);
        assert!(p.method("m").is_none());
    }
}
